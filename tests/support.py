"""Random instance generators and independent oracles for the test suite.

Everything takes an explicit random.Random so each test controls its seed.
The oracle here rebuilds the weak-inverse dual part from scratch by solving
the defining equations as one big real linear system; it shares only the
elimination primitives with the code under test, not the closed form.

The library keeps one route to each object, the dual core-nilpotent block
form.  The second routes live here as references: the closed-form dual
power, the closed-form weak dual group inverse built from the real group
inverse, the explicit and the Horner power sums of the weak dual Drazin
inverse, the projector form of the DDI obstruction, the dual index from the
bordered ranks of A^^t, the existence profile from those two and the
bordered ranks of A^^aind, the WDDI and the dual index from the Drazin
inverse and the index of the doubled matrix, the residual form of the
solver conditions and the witness-first existence test of the dual group
inverse.  The padded conjugation of a block form the caller supplies
(``wddi_from_given_decomposition``, with ``is_dual_nilpotent``) is the
reference for the block products of the form, and the corollary solver for
dind = 1 (``solve_ind1_corollaries``) for the index-1 solvers.  The
doubled-system solver (``solve``, ``dual_solve``,
``in_range`` and ``DualAffineSet``) is the reference for the solution
families and the range tests.
The command grammar written out one subcommand at a time
(``reference_parser``) is the reference for both parsers of ``dualinv.cli``,
which read the grammar from its command table.
The Fraction loops that the integer kernels of ``RealMatrix.__matmul__`` and
``rref`` replaced are kept here as the references for those kernels, the
stacked product is the reference for the dual half of ``DualMatrix @``, and so
are the routes that ``inverse`` and the index took when each reduced a whole
matrix: the right block of ``rref([M | I])`` and the ``rref`` of every power.
The guards of the real core-nilpotent form, which production does not run,
are a test oracle here (``core_nilpotent_oracle``): ``conftest`` installs it
in place of ``real_inverses._core_nilpotent_at`` for the whole suite, and
``core_nilpotent_production`` keeps the production function.
"""

from __future__ import annotations

import random
from fractions import Fraction

from dualinv import (
    DimensionError,
    DoesNotExist,
    DualMatrix,
    ExistenceProfile,
    Inconsistent,
    IndexTooLarge,
    InternalInvariantViolation,
    NotInvertible,
    ParametricDualSolutions,
    RealMatrix,
    block2x2,
    column_space_contains,
    dgi,
    doubled,
    drazin,
    dual_inverse,
    dual_power,
    group_inverse,
    hstack,
    index,
    index_profile,
    inverse,
    moore_penrose,
    rank,
    rank_profile,
    rref,
    vstack,
    wddi,
)
from dualinv import cli, real_inverses
from dualinv.elimination import _null_basis
from dualinv.equation_solvers import _check_column
from dualinv.matrices import VERIFY_KINDS, _reduced, _Value


def matmul_reference(a: RealMatrix, b: RealMatrix) -> RealMatrix:
    """Matrix product with a Fraction dot product per entry."""
    if a.cols != b.rows:
        raise DimensionError(f"cannot multiply {a.shape} by {b.shape}")
    # inner dimension 0 would leave ordinary ints from sum(); special-case it
    if a.cols == 0:
        return RealMatrix.zeros(a.rows, b.cols)
    bt = tuple(zip(*b.entries))
    out = tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
        for row in a.entries
    )
    return RealMatrix(a.rows, b.cols, out)


def dual_matmul_stacked(a: DualMatrix, b: DualMatrix) -> DualMatrix:
    """Dual product whose dual part M B0 + M0 B is one real product of the
    stacked factors [M | M0] and [B0; B]."""
    return DualMatrix(a.std @ b.std, hstack(a.std, a.dual) @ vstack(b.dual, b.std))


def rref_reference(m: RealMatrix) -> tuple[RealMatrix, tuple[int, ...]]:
    """Gauss-Jordan over Fraction with the library's pivot rule: the first
    nonzero entry in column order, each pivot row scaled to 1 at once."""
    work = [list(row) for row in m.entries]
    pivots: list[int] = []
    pr = 0
    for pc in range(m.cols):
        if pr == m.rows:
            break
        hit = next((i for i in range(pr, m.rows) if work[i][pc] != 0), None)
        if hit is None:
            continue
        work[pr], work[hit] = work[hit], work[pr]
        inv = Fraction(1) / work[pr][pc]
        work[pr] = [x * inv for x in work[pr]]
        for i in range(m.rows):
            if i != pr and work[i][pc] != 0:
                f = work[i][pc]
                row_pr = work[pr]
                work[i] = [a - f * b for a, b in zip(work[i], row_pr)]
        pivots.append(pc)
        pr += 1
    return RealMatrix(m.rows, m.cols, tuple(tuple(r) for r in work)), tuple(pivots)


def inverse_reference(m: RealMatrix) -> RealMatrix:
    """The inverse as the right block of rref([M | I]); NotInvertible when a
    pivot of the bordered matrix falls in its right block."""
    n = m.rows
    if n == 0:
        return m
    reduced, pivots = rref(hstack(m, RealMatrix.identity(n)))
    m_rank = sum(1 for pc in pivots if pc < n)
    if m_rank < n:
        raise NotInvertible(f"matrix of rank {m_rank} is singular")
    return reduced.submatrix(0, n, n, 2 * n)


def index_power_reference(m: RealMatrix) -> tuple[int, RealMatrix, tuple]:
    """(k, M^k, rref(M^k)) for the index k of square M, from the rref of
    every power M, M^2, ..., M^(k+1)."""
    power, reduced = m, rref(m)
    for k in range(1, m.rows + 2):
        power_next = power @ m
        reduced_next = rref(power_next)
        if len(reduced_next[1]) == len(reduced[1]):
            return k, power, reduced
        power, reduced = power_next, reduced_next
    raise AssertionError("rank sequence failed to stabilize")


# the production function, bound here before conftest installs the oracle below in its place
core_nilpotent_production = real_inverses._core_nilpotent_at


def core_nilpotent_oracle(m: RealMatrix, k: int, f: RealMatrix, columns, echelon, bordered):
    """``real_inverses._core_nilpotent_at`` with the guards of the real form
    below r = n, which the library does not run.  Before the production
    call it checks C^k = G F for its own C = G M[:, pivots], taken off M
    and not off the record's ``columns``, so factors that do not belong to
    M raise InternalInvariantViolation here and not NotInvertible at a
    singular C; on the form that call returns, it checks
    P^(-1) M P = diag(C, N), which covers the block-diagonal shape and both
    blocks, and N^k = 0.  It returns the production form unchanged."""
    g, pivots = echelon
    r, size = len(pivots), m.rows
    record = (k, f, columns, echelon, bordered)
    if r == size:
        return core_nilpotent_production(m, *record)
    if (g @ m.columns_at(pivots)) ** k != g @ f:
        raise InternalInvariantViolation("C^k is not G F")
    form = core_nilpotent_production(m, *record)
    similar = form.p_inv @ m @ form.p
    upper, lower = similar.nums[:r], similar.nums[r:]
    if any(any(row[r:]) for row in upper) or any(any(row[:r]) for row in lower):
        raise InternalInvariantViolation("similarity transform is not block diagonal")
    if similar.submatrix(0, r, 0, r) != form.c or similar.submatrix(r, size, r, size) != form.n:
        raise InternalInvariantViolation("similarity transform's blocks are not C and N")
    if not (form.n**k).is_zero:
        raise InternalInvariantViolation("nilpotent block survives power k")
    return form


def rand_fraction(rng: random.Random, bound: int = 9) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def rand_matrix(rng, rows: int, cols: int, bound: int = 9) -> RealMatrix:
    return RealMatrix.from_rows(
        [[rand_fraction(rng, bound) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def rand_int_matrix(rng, rows: int, cols: int, bound: int = 3) -> RealMatrix:
    return RealMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def rand_low_rank(rng, n: int, r: int, bound: int = 2) -> RealMatrix:
    """n x n product of n x r and r x n integer factors; rank at most r."""
    return rand_int_matrix(rng, n, r, bound) @ rand_int_matrix(rng, r, n, bound)


def rand_square(rng, n: int, bound: int = 9) -> RealMatrix:
    """Random square standard part; half the draws are forced low-rank so
    index > 1 shows up often."""
    if n > 0 and rng.random() < 0.5:
        return rand_low_rank(rng, n, rng.randint(0, n - 1))
    return rand_matrix(rng, n, n, bound)


def rand_dual(rng, n: int, bound: int = 9) -> DualMatrix:
    return DualMatrix(rand_square(rng, n, bound), rand_matrix(rng, n, n, bound))


def rand_invertible(rng, n: int, bound: int = 3) -> RealMatrix:
    while True:
        m = rand_int_matrix(rng, n, bound=bound, cols=n)
        if rank(m) == n:
            return m


def rand_dual_invertible_std(rng, n: int, bound: int = 3) -> DualMatrix:
    return DualMatrix(rand_invertible(rng, n, bound), rand_int_matrix(rng, n, n, bound))


def rand_aind1(rng, n: int) -> DualMatrix:
    """Random dual matrix whose standard part has index 1.

    Built as P (diag(C, 0) + eps*E) P^(-1) with C invertible; the dual part
    is arbitrary, so the bordering blocks exercise the eps-similarity
    correction.
    """
    r = rng.randint(0, n)
    p = rand_invertible(rng, n)
    c = rand_invertible(rng, r)
    core = vstack(
        hstack(c, RealMatrix.zeros(r, n - r)),
        RealMatrix.zeros(n - r, n),
    )
    std = p @ core @ inverse(p)
    return DualMatrix(std, rand_int_matrix(rng, n, n))


def rand_unimodular(rng, n: int, ops: int) -> tuple[RealMatrix, RealMatrix]:
    """Integer P with integer inverse from ``ops`` elementary row additions;
    each adds c times row j to row i of P and subtracts c times column i
    from column j of P^(-1)."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    p_inv = [row[:] for row in p]
    for _ in range(ops if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]
        for row in p_inv:
            row[j] -= c * row[i]
    return RealMatrix.from_rows(p, cols=n), RealMatrix.from_rows(p_inv, cols=n)


def rand_high_index(
    rng, n: int, aind: int, ddi_present: bool | None = None, dind: int | None = None
) -> DualMatrix:
    """P (diag(C, N) + eps*E) P^(-1) with aind(M) = ``aind`` and a chosen E22.

    C is invertible of size r in [0, n - aind]; N is nilpotent with Jordan
    blocks (ones on the superdiagonal): one of size ``aind``, then blocks of
    at most that size.  In this basis the dual part of A^^t has the bottom
    block K22(t) = sum_{i=1..t} N^(t-i) E22 N^(i-1), drank - arank of A^^t is
    its rank, and K22(t+1) = K22(t) N for t >= aind.

    Give either ``ddi_present`` (dind = aind when true, else 2 aind) or
    ``dind`` in [aind, 2 aind].  With s = dind - aind > 0, E22 is zero but
    for its entry (s-1, 0), inside the Jordan block of size aind: the term
    N^(t-i) E22 N^(i-1) of K22(t) sits at (s-1-t+i, i-1) and is nonzero
    exactly when t-s+1 <= i <= aind, so N^^t != 0 for t < aind + s and
    dind = aind + s.  With s = 0, E22 = 0 and dind = aind.
    """
    if (ddi_present is None) == (dind is None):
        raise ValueError("give exactly one of ddi_present and dind")
    if dind is None:
        dind = aind if ddi_present else 2 * aind
    if not aind <= dind <= 2 * aind:
        raise ValueError(f"dind {dind} outside [{aind}, {2 * aind}]")
    r = rng.randint(0, n - aind)
    sizes = [aind]
    while sum(sizes) < n - r:
        sizes.append(rng.randint(1, min(aind, n - r - sum(sizes))))
    core = [[0] * n for _ in range(n)]
    c = rand_invertible(rng, r)
    for i in range(r):
        core[i][:r] = c.entries[i]
    start = r
    for size in sizes:
        for i in range(start, start + size - 1):
            core[i][i + 1] = 1
        start += size
    e = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    for row in e[r:]:
        row[r:] = [0] * (n - r)
    if dind > aind:
        e[r + dind - aind - 1][r] = rng.choice((-2, -1, 1, 2))
    p, p_inv = rand_unimodular(rng, n, 2 * n)
    return DualMatrix(
        p @ RealMatrix.from_rows(core, cols=n) @ p_inv,
        p @ RealMatrix.from_rows(e, cols=n) @ p_inv,
    )


def rand_nilpotent(rng, n: int) -> RealMatrix:
    """Strictly upper triangular after a random change of basis."""
    upper = RealMatrix.from_rows(
        [
            [rng.randint(-2, 2) if j > i else 0 for j in range(n)]
            for i in range(n)
        ],
        cols=n,
    )
    p = rand_invertible(rng, n)
    return p @ upper @ inverse(p)


def rand_dual_parameter(rng, width: int, bound: int = 5) -> DualMatrix:
    return DualMatrix(
        rand_int_matrix(rng, width, 1, bound), rand_int_matrix(rng, width, 1, bound)
    )


def kron(a: RealMatrix, b: RealMatrix) -> RealMatrix:
    entries = []
    for i in range(a.rows):
        for bi in range(b.rows):
            entries.append(
                tuple(
                    a.entries[i][j] * b.entries[bi][bj]
                    for j in range(a.cols)
                    for bj in range(b.cols)
                )
            )
    return RealMatrix(a.rows * b.rows, a.cols * b.cols, tuple(entries))


def vec(m: RealMatrix) -> RealMatrix:
    """Column-stacking vectorization; vec(A X B) = (B^T kron A) vec(X)."""
    return RealMatrix(
        m.rows * m.cols,
        1,
        tuple((m.entries[i][j],) for j in range(m.cols) for i in range(m.rows)),
    )


def unvec(v: RealMatrix, rows: int, cols: int) -> RealMatrix:
    return RealMatrix(
        rows,
        cols,
        tuple(
            tuple(v.entries[j * rows + i][0] for j in range(cols))
            for i in range(rows)
        ),
    )


def weak_dual_part_oracle(a: DualMatrix, t: int) -> RealMatrix:
    """Unique S with X = M^D + eps*S solving the three defining equations.

    The equations, in dual parts with X = M^D fixed:

        M S M^t             = K - M M^D K - M0 M^D M^t
        M^D M S + S M M^D - S = -M^D M0 M^D
        M S - S M           = M^D M0 - M0 M^D

    stacked as one real system in vec(S) and solved exactly; the oracle
    asserts the solution is unique before returning it.
    """
    m, m0 = a.std, a.dual
    n = m.rows
    md = drazin(m)
    power_t = dual_power(a, t)
    mt, big_k = power_t.std, power_t.dual
    eye = RealMatrix.identity(n)
    eye2 = RealMatrix.identity(n * n)
    rows_a = kron(mt.T, m)
    rhs_a = vec(big_k - m @ md @ big_k - m0 @ md @ mt)
    rows_b = kron(eye, md @ m) + kron((m @ md).T, eye) - eye2
    rhs_b = vec(-(md @ m0 @ md))
    rows_c = kron(eye, m) - kron(m.T, eye)
    rhs_c = vec(md @ m0 - m0 @ md)
    system = vstack(rows_a, rows_b, rows_c)
    rhs = vstack(rhs_a, rhs_b, rhs_c)
    outcome = solve(system, rhs)
    assert outcome is not None, "defining equations have no solution"
    particular, homogeneous = outcome
    assert homogeneous.cols == 0, "defining equations do not pin S uniquely"
    return unvec(particular, n, n)


def weak_drazin_dual_part_sum(
    m: RealMatrix, m0: RealMatrix, md: RealMatrix, terms: int
) -> RealMatrix:
    """Dual part of the WDDI with both power sums written out term by term:

        (M^D)^2 (sum_{i<terms} (M^D)^i M0 M^i) (I - M M^D)
        + (I - M M^D) (sum_{i<terms} M^i M0 (M^D)^i) (M^D)^2 - M^D M0 M^D
    """
    eye = RealMatrix.identity(m.rows)
    proj = eye - m @ md
    md2 = md @ md
    left = RealMatrix.zeros(m.rows, m.cols)
    right = RealMatrix.zeros(m.rows, m.cols)
    md_i = eye
    m_i = eye
    for _ in range(terms):
        left = left + md_i @ m0 @ m_i
        right = right + m_i @ m0 @ md_i
        md_i = md_i @ md
        m_i = m_i @ m
    return md2 @ left @ proj + proj @ right @ md2 - md @ m0 @ md


def weak_drazin_dual_part_horner(
    m: RealMatrix, m0: RealMatrix, md: RealMatrix, terms: int
) -> RealMatrix:
    """The same dual part with both sums run by Horner's rule:
    sum_{i<t} md^i m0 m^i = m0 + md (sum_{i<t-1} md^i m0 m^i) m."""
    left = right = m0
    for _ in range(terms - 1):
        left = m0 + md @ left @ m
        right = m0 + m @ right @ md
    proj = RealMatrix.identity(m.rows) - m @ md
    md2 = md @ md
    return md2 @ left @ proj + proj @ right @ md2 - md @ m0 @ md


def obstruction_projector(a: DualMatrix) -> RealMatrix:
    """DDI obstruction in projector form, (I - M M^D) K (I - M M^D) with K
    the dual part of A^^aind."""
    kd = dual_power(a, index(a.std)).dual
    proj = RealMatrix.identity(a.rows) - a.std @ drazin(a.std)
    return proj @ kd @ proj


def dual_index_bordered(a: DualMatrix) -> int:
    """The first t in [aind, 2*aind] at which the two ranks of A^^t agree,
    each rank pair from the bordered 2n x 2n form of A^^t."""
    aind = index(a.std)
    power = dual_power(a, aind)
    for t in range(aind, 2 * aind + 1):
        arank, drank = rank_profile(power)
        if arank == drank:
            return t
        power = power @ a
    raise AssertionError("no dual index in [aind, 2*aind]")


def existence_profile_bordered(a: DualMatrix) -> ExistenceProfile:
    """The existence profile with each field from a route independent of the
    block form: the obstruction in projector form, dind from the bordered
    ranks of A^^t, and the two bordered ranks of A^^aind."""
    aind = index(a.std)
    arank, drank = rank_profile(dual_power(a, aind))
    obstruction = obstruction_projector(a)
    return ExistenceProfile(
        ddi_exists=obstruction.is_zero,
        index_equality=dual_index_bordered(a) == aind,
        rank_equality=arank == drank,
        obstruction=obstruction,
    )


def wddi_doubled(a: DualMatrix) -> tuple[RealMatrix, int]:
    """(drazin(D), index(D)) of the doubled matrix D = [[M, 0], [M0, M]].

    Doubling is an injective algebra homomorphism that maps the dual
    core-nilpotent form to a real one (the image of C^ is invertible, that
    of N^ nilpotent), so D's Drazin inverse is the doubled WDDI of A^, its
    index is dind(A^), and the DDI exists exactly when that index is aind.
    Only the real drazin and index run, on a 2n x 2n matrix.
    """
    d = doubled(a)
    return drazin(d), index(d)


def solver_outcome_residual(a: DualMatrix, b: DualMatrix, restricted: bool) -> str:
    """Outcome class of A^ x^ = b^ (aind 1) from the residual form of the
    conditions, with W the closed-form WDGI and A_sharp its dual group
    inverse:

        residual = (I - W A^) b^
        unrestricted: "standard-part" unless residual.std = 0, then
                      "dual-range" unless residual lies in the range of
                      A^ - A_sharp, else "ok";
        restricted:   "residual" unless residual = 0, else "ok".
    """
    w = wdgi_closed_form(a)
    residual = (DualMatrix.identity(a.rows) - w @ a) @ b
    if restricted:
        return "ok" if residual.is_zero else "residual"
    if not residual.std.is_zero:
        return "standard-part"
    if not in_range(a - dgi(w), residual):
        return "dual-range"
    return "ok"


def dual_power_closed_form(a: DualMatrix, t: int) -> DualMatrix:
    """(M + eps*M0)^t = M^t + eps * sum_{i=1..t} M^(t-i) M0 M^(i-1)."""
    m, m0 = a.std, a.dual
    powers = [RealMatrix.identity(m.rows)]
    for _ in range(t):
        powers.append(powers[-1] @ m)
    k = RealMatrix.zeros(m.rows, m.cols)
    for i in range(1, t + 1):
        k = k + powers[t - i] @ m0 @ powers[i - 1]
    return DualMatrix(powers[t], k)


def wdgi_closed_form(a: DualMatrix) -> DualMatrix:
    """Weak dual group inverse from the group inverse M# of the standard part:

        M# + eps * ((M#)^2 M0 (I - M M#) + (I - M M#) M0 (M#)^2 - M# M0 M#)
    """
    g = group_inverse(a.std)
    proj = RealMatrix.identity(a.rows) - a.std @ g
    g2 = g @ g
    return DualMatrix(g, g2 @ a.dual @ proj + proj @ a.dual @ g2 - g @ a.dual @ g)


def dgi_witness_first(a: DualMatrix) -> DualMatrix:
    """Dual group inverse with existence read off the witness
    (I - M M+) M0 (I - M+ M): IndexTooLarge when aind > 1, DoesNotExist
    carrying the witness when it is nonzero, else the closed-form WDGI."""
    k = index(a.std)
    if k != 1:
        raise IndexTooLarge(f"dual group inverse needs aind 1, got {k}")
    mp = moore_penrose(a.std)
    eye = RealMatrix.identity(a.rows)
    witness = (eye - a.std @ mp) @ a.dual @ (eye - mp @ a.std)
    if not witness.is_zero:
        raise DoesNotExist("dual group inverse does not exist", witness)
    return wdgi_closed_form(a)


def rand_aind1_with_dgi(rng, n: int) -> DualMatrix:
    """Random aind-1 dual matrix P (diag(C, 0) + eps*E) P^(-1) with E22 = 0,
    so that its dual group inverse exists."""
    r = rng.randint(0, n)
    p = rand_invertible(rng, n)
    e = rand_int_matrix(rng, n, n)
    e22_zeroed = hstack(e.submatrix(r, n, 0, r), RealMatrix.zeros(n - r, n - r))
    e = vstack(e.submatrix(0, r, 0, n), e22_zeroed)
    core = vstack(
        hstack(rand_invertible(rng, r), RealMatrix.zeros(r, n - r)),
        RealMatrix.zeros(n - r, n),
    )
    p_inv = inverse(p)
    return DualMatrix(p @ core @ p_inv, p @ e @ p_inv)


def block_diag(a: RealMatrix, b: RealMatrix) -> RealMatrix:
    return block2x2(a, RealMatrix.zeros(a.rows, b.cols), RealMatrix.zeros(b.rows, a.cols), b)


def dual_block_diag(a: DualMatrix, b: DualMatrix) -> DualMatrix:
    return DualMatrix(block_diag(a.std, b.std), block_diag(a.dual, b.dual))


def assemble_decomposition(
    phat: DualMatrix, chat: DualMatrix, nhat: DualMatrix
) -> DualMatrix:
    return phat @ dual_block_diag(chat, nhat) @ dual_inverse(phat)


class PreconditionViolated(ValueError):
    """Structured input violates a documented precondition."""


def is_dual_nilpotent(a: DualMatrix) -> bool:
    """True when some power of A^ is exactly zero.

    A dual matrix is nilpotent precisely when its standard part is, and then
    A^^(2d) = 0 for d = dimension: the standard part of the 2d-th power is
    M^(2d) = 0, and each dual-part term M^(2d-i) M0 M^(i-1) carries at least
    d factors of the nilpotent M on one side (i <= d or i-1 >= d).  The
    power 2d is genuinely needed: eps*[[1]] squares to zero but is not zero
    at power 1 = dimension.
    """
    if not a.std.is_square:
        raise DimensionError("nilpotency of a non-square dual matrix")
    d = a.rows
    if d == 0:
        return True
    return (a.std**d).is_zero


def wddi_from_given_decomposition(
    phat: DualMatrix, chat: DualMatrix, nhat: DualMatrix
) -> DualMatrix:
    """Weak dual Drazin inverse of A^ = phat diag(chat, nhat) phat^(-1).

    This consumes a block form that the caller supplies (any appreciable
    index) and returns the padded n x n conjugation
    phat diag(chat^(-1), 0) phat^(-1), which equals the WDDI of the
    assembled matrix.  Preconditions: phat and chat have invertible
    standard parts (NotInvertible otherwise) and nhat is dual-nilpotent
    (PreconditionViolated otherwise).
    """
    for part, label in ((phat, "phat"), (chat, "chat"), (nhat, "nhat")):
        if not part.std.is_square:
            raise DimensionError(f"{label} must be square")
    if chat.rows + nhat.rows != phat.rows:
        raise DimensionError("block sizes do not fill the similarity matrix")
    try:
        phat_inv = dual_inverse(phat)
        chat_inv = dual_inverse(chat)
    except NotInvertible as exc:
        raise NotInvertible(f"decomposition blocks must be invertible: {exc}") from exc
    if not is_dual_nilpotent(nhat):
        raise PreconditionViolated("bottom block is not dual-nilpotent")
    zero = DualMatrix.zeros(nhat.rows, nhat.rows)
    return phat @ dual_block_diag(chat_inv, zero) @ phat_inv


def solve_ind1_corollaries(
    a: DualMatrix, b: DualMatrix, restricted: bool
) -> ParametricDualSolutions:
    """Solver for dind(A^) = 1, where the group-type dual inverse G of A^
    exists outright: G is the WDDI, and dind comes from index_profile.

    Unrestricted: particular G b^ with the single generator I - G A^.
    Restricted: the unique solution G b^ with no generators.  Raises
    IndexTooLarge when dind > 1 and Inconsistent when (I - G A^) b^ != 0.
    """
    _check_column(a, b)
    dind = index_profile(a).dind
    if dind != 1:
        raise IndexTooLarge(f"corollary solver needs dind 1, got {dind}")
    g = wddi(a)
    projector = DualMatrix.identity(a.rows) - g @ a
    if not (projector @ b).is_zero:
        raise Inconsistent("system rejects this right-hand side")
    return ParametricDualSolutions(g @ b, () if restricted else (projector,))


# The doubled-system solver: the full solution set of A^ x^ = b^ and range
# membership from the doubled real system [[M, 0], [M0, M]] [x; x0] = [b; b0],
# and affine sets of dual vectors in stacked coordinates [std; dual].


def solve(a: RealMatrix, b: RealMatrix) -> tuple[RealMatrix, RealMatrix] | None:
    """General solution of a x = b, or None when inconsistent.

    b may have several columns; the particular solution then has the same
    column count.  Returns (particular, nullspace basis of a).
    """
    if a.rows != b.rows:
        raise DimensionError(f"system {a.shape} does not accept rhs {b.shape}")
    reduced, pivots = rref(hstack(a, b))
    if any(pc >= a.cols for pc in pivots):
        return None
    particular_rows = [(0,) * b.cols] * a.cols
    for row, pc in zip(reduced.nums, pivots):
        particular_rows[pc] = row[a.cols:]
    particular = _reduced(a.cols, b.cols, tuple(particular_rows), reduced.den)
    # every pivot lies left of b, so the left block is the reduced form of a
    return particular, _null_basis(reduced, pivots, a.cols)


def stack_vector(v: DualMatrix) -> RealMatrix:
    """Column vector [std; dual] in R^(2n) for an n x 1 dual vector."""
    if v.cols != 1:
        raise DimensionError("stacking expects a column vector")
    return vstack(v.std, v.dual)


def unstack_vector(w: RealMatrix) -> DualMatrix:
    if w.cols != 1 or w.rows % 2 != 0:
        raise DimensionError("unstacking expects a 2n x 1 column")
    n = w.rows // 2
    return DualMatrix(w.submatrix(0, n, 0, 1), w.submatrix(n, 2 * n, 0, 1))


class DualAffineSet(_Value):
    """Affine subset of dual n-vectors, stored in stacked real coordinates.

    ``point`` is one element, ``span`` a real 2n x m matrix whose column
    space is the direction space.  Spanning over real coefficients is enough:
    the sets built here always come from dual-parameter families, and those
    are closed under the shift (u; v) -> (0; u), which makes the real span
    of the doubled generator columns equal to the dual span.
    """

    __slots__ = ("point", "span")

    @classmethod
    def from_solutions(cls, sols: ParametricDualSolutions) -> "DualAffineSet":
        n = sols.particular.rows
        pieces = [RealMatrix.zeros(2 * n, 0)]
        for g in sols.generators:
            pieces.append(vstack(g.std, g.dual))
            pieces.append(vstack(RealMatrix.zeros(g.rows, g.cols), g.std))
        return cls(stack_vector(sols.particular), hstack(*pieces))

    @classmethod
    def range_of(cls, a: DualMatrix) -> "DualAffineSet":
        """Range {A^ y^} as a stacked affine set through the origin."""
        return cls(RealMatrix.zeros(2 * a.rows, 1), doubled(a))

    def contains_vector(self, v: DualMatrix) -> bool:
        return column_space_contains(self.span, stack_vector(v) - self.point)

    def contains_set(self, other: "DualAffineSet") -> bool:
        return (
            column_space_contains(self.span, other.span)
            and column_space_contains(self.span, other.point - self.point)
        )

    def same_set(self, other: "DualAffineSet") -> bool:
        return self.contains_set(other) and other.contains_set(self)

    def intersect(self, other: "DualAffineSet") -> "DualAffineSet | None":
        """Intersection as an affine set, or None when empty."""
        system = hstack(self.span, -other.span)
        outcome = solve(system, other.point - self.point)
        if outcome is None:
            return None
        particular, homogeneous = outcome
        c_self = particular.submatrix(0, self.span.cols, 0, 1)
        h_self = homogeneous.submatrix(0, self.span.cols, 0, homogeneous.cols)
        return DualAffineSet(self.point + self.span @ c_self, self.span @ h_self)


def dual_solve(a: DualMatrix, b: DualMatrix) -> ParametricDualSolutions:
    """Full solution set of A^ x^ = b^ via the doubled system.

    Raises Inconsistent when the doubled system has no solution.  Null-space
    columns (u; v) with u nonzero become standard-direction generators
    u + eps*v; columns (0; v) become eps-direction generators eps*v.  Both
    kinds take dual parameters.
    """
    if a.rows != b.rows or b.cols != 1:
        raise DimensionError(f"system {a.shape} does not accept rhs {b.shape}")
    outcome = solve(doubled(a), stack_vector(b))
    if outcome is None:
        raise Inconsistent("dual system has no solution")
    particular, null_basis = outcome
    n = a.cols
    std_dirs = []
    eps_dirs = []
    for j in range(null_basis.cols):
        u = null_basis.submatrix(0, n, j, j + 1)
        v = null_basis.submatrix(n, 2 * n, j, j + 1)
        if u.is_zero:
            eps_dirs.append(DualMatrix.eps(v))
        else:
            std_dirs.append(DualMatrix(u, v))
    generators = []
    for group in (std_dirs, eps_dirs):
        if group:
            generators.append(
                DualMatrix(
                    hstack(*(g.std for g in group)),
                    hstack(*(g.dual for g in group)),
                )
            )
    return ParametricDualSolutions(unstack_vector(particular), tuple(generators))


def in_range(a: DualMatrix, v: DualMatrix) -> bool:
    """True when v^ lies in the range of A^ (over dual coefficients)."""
    if a.rows != v.rows or v.cols != 1:
        raise DimensionError("range test expects a conforming column vector")
    return column_space_contains(doubled(a), stack_vector(v))


def size_mix(rng, count: int, small=(1, 2, 3, 4), large=(5, 6), large_every: int = 25):
    """Yield ``count`` sizes, mostly small with a sprinkle of large ones."""
    for i in range(count):
        if large and i % large_every == large_every - 1:
            yield rng.choice(large)
        else:
            yield rng.choice(small)


def reference_parser():
    """The dualinv argument parser, each subcommand spelled out by hand.

    Usage errors raise ``cli._UsageError``, as those of the CLI's own parser
    do, and the description is the CLI's command and exit-code table, laid
    out as written, so help texts compare byte for byte.
    """
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise cli._UsageError(message)

    parser = _Parser(
        prog="dualinv",
        description=cli._USAGE,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="rank and index invariants")
    p_info.add_argument("file")

    p_compute = sub.add_parser("compute", help="compute a generalized inverse")
    p_compute.add_argument("--kind", required=True, choices=cli.COMPUTE_KINDS)
    p_compute.add_argument("file")

    p_verify = sub.add_parser("verify", help="check defining equations")
    p_verify.add_argument("--kind", required=True, choices=VERIFY_KINDS)
    p_verify.add_argument("file")
    p_verify.add_argument("xfile")

    p_solve = sub.add_parser("solve", help="solve A x = b")
    p_solve.add_argument("--restricted", action="store_true")
    p_solve.add_argument("afile")
    p_solve.add_argument("bfile")

    return parser
