"""Plain exact arithmetic for the benchmark's generators and output checks.

Matrices are lists of row lists holding ``int`` or ``Fraction``; a dual
matrix is a ``(std, dual)`` pair of such matrices.  Nothing here imports
``dualinv``: input generation and checking must not speed up, slow down or
share defects with the library under measurement.
"""

from __future__ import annotations

from fractions import Fraction


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> list[list[int]]:
    return [[0] * cols for _ in range(rows)]


def matmul(a, b) -> list:
    bt = list(zip(*b)) if b else []
    cols = len(b[0]) if b else 0
    if not bt:
        return [[0] * cols for _ in a]
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def add(a, b) -> list:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def sub(a, b) -> list:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(a, s) -> list:
    return [[x * s for x in row] for row in a]


def transpose(a) -> list:
    return [list(col) for col in zip(*a)]


def is_zero(a) -> bool:
    return all(x == 0 for row in a for x in row)


def hstack(*mats) -> list:
    return [[x for m in mats for x in m[i]] for i in range(len(mats[0]))]


def vstack(*mats) -> list:
    return [list(row) for m in mats for row in m]


def block_diag(a, b) -> list:
    ca, cb = (len(a[0]) if a else 0), (len(b[0]) if b else 0)
    return [list(r) + [0] * cb for r in a] + [[0] * ca + list(r) for r in b]


def _echelon(a) -> tuple[list, list[int]]:
    work = [[Fraction(x) for x in row] for row in a]
    rows = len(work)
    cols = len(work[0]) if work else 0
    pivots: list[int] = []
    pr = 0
    for pc in range(cols):
        hit = next((i for i in range(pr, rows) if work[i][pc] != 0), None)
        if hit is None:
            continue
        work[pr], work[hit] = work[hit], work[pr]
        inv = 1 / work[pr][pc]
        work[pr] = [x * inv for x in work[pr]]
        for i in range(rows):
            f = work[i][pc]
            if i != pr and f != 0:
                work[i] = [x - f * y for x, y in zip(work[i], work[pr])]
        pivots.append(pc)
        pr += 1
        if pr == rows:
            break
    return work, pivots


def rank(a) -> int:
    return len(_echelon(a)[1]) if a and a[0] else 0


def inverse(a) -> list:
    """Inverse of a square matrix; ValueError when singular."""
    n = len(a)
    if n == 0:
        return []
    reduced, pivots = _echelon(hstack(a, identity(n)))
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in reduced]


def nullspace(a) -> list:
    """Basis of the right null space, one column per free variable."""
    cols = len(a[0])
    reduced, pivots = _echelon(a)
    free = [j for j in range(cols) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -reduced[i][f]
        basis.append(v)
    return transpose(basis) if basis else [[] for _ in range(cols)]


def dmul(a, b) -> tuple[list, list]:
    """Product of dual matrices ``(A, A0) (B, B0) = (AB, A B0 + A0 B)``."""
    return matmul(a[0], b[0]), add(matmul(a[0], b[1]), matmul(a[1], b[0]))


def dpow(a, t: int) -> tuple[list, list]:
    result = a
    for _ in range(t - 1):
        result = dmul(result, a)
    return result


def dinverse(a) -> tuple[list, list]:
    """``(M + eps*M0)^(-1) = M^(-1) - eps M^(-1) M0 M^(-1)``; M invertible."""
    m_inv = inverse(a[0])
    return m_inv, scale(matmul(matmul(m_inv, a[1]), m_inv), -1)


def dzero(a) -> bool:
    return is_zero(a[0]) and is_zero(a[1])


def doubled(a) -> list:
    """Real image ``[[M, 0], [M0, M]]`` of a dual matrix."""
    rows, cols = len(a[0]), len(a[0][0]) if a[0] else 0
    return vstack(hstack(a[0], zeros(rows, cols)), hstack(a[1], a[0]))


def bordered_rank(a) -> int:
    """``rank [[M0, M], [M, 0]]`` of a dual matrix, the dual rank plus rank M."""
    rows, cols = len(a[0]), len(a[0][0])
    return rank(vstack(hstack(a[1], a[0]), hstack(a[0], zeros(rows, cols))))


def unimodular(rng, n: int, ops: int) -> tuple[list, list]:
    """Integer ``P`` with integer inverse, from ``ops`` elementary row additions.

    Adding ``c`` times row j to row i left-multiplies by ``E = I + c e_i e_j^T``;
    its inverse ``I - c e_i e_j^T`` subtracts ``c`` times column i from column
    j when applied on the right, so ``P^(-1)`` is carried along exactly.
    """
    p, p_inv = identity(n), identity(n)
    for _ in range(ops if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]
        for row in p_inv:
            row[j] -= c * row[i]
    return p, p_inv


def max_bits(mats) -> int:
    """Largest numerator or denominator bit length over the given matrices."""
    best = 0
    for m in mats:
        for row in m:
            for x in row:
                x = Fraction(x)
                best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best

