"""Classical generalized inverses of rational matrices.

The Drazin inverse is computed through the core-nilpotent decomposition
M = P diag(C, N) P^(-1) with C invertible (rank r = rank of M^k) and N
nilpotent, where k is the index of M.  P = [F | Z] comes from the full-rank
factorization M^k = F G: F is the pivot columns of M^k, G the nonzero rows
of its reduced echelon form and Z the null basis read off G.  No power of
M is formed for them.  If the rows R_j span the row space of M^j, those of
R_j M span that of M^(j+1), so the index walks thin r_j x n row bases, G
is the reduced form of the last one, and F = M^(k-1) M[:, pivots] takes
n x n by n x r products.  Since G Z = 0 and the free rows of Z are I,

    P^(-1) = [(G F)^(-1) G ; S - F_free (G F)^(-1) G]

with S and F_free the free rows of I and of F, so the form inverts an
r x r block and not P.  The first rank of the index is read off the
forward pass of [M | I] (see ``elimination``): at r = n the form is
P = P^(-1) = I and C = M, and C^(-1) = M^(-1) is the back pass of that same
pass, so an invertible M is eliminated once.  Below n the pass's right
block is dropped, and the form reads C and N off the factors, with no
similarity product, on one route for every k.  M^(k+1) is both F G M and
M F G, and the pivot columns of G are I, so M F = F (G M[:, pivots]) and
C = G M[:, pivots].  Then F C^k = M^k F = F G F gives C^k = G F, so the
form inverts C alone and takes (G F)^(-1) = C^(-k) by k - 1 products of
r x r blocks.  M maps the null space of M^k, spanned by Z, into itself,
and G Z = 0, so the off-diagonal blocks of P^(-1) M P vanish and
N = S M Z, the free rows of M Z; at k = 1, M Z = F G Z = 0 and N = 0.  The
form keeps C^(-1), so its Drazin inverse P diag(C^(-1), 0) P^(-1) and the
dual forms built on it invert nothing.  The Moore-Penrose inverse comes
from a full-rank factorization M = F G by MacDuffee's formula.
"""

from __future__ import annotations

from math import gcd

from .exceptions import DimensionError, IndexTooLarge, InternalInvariantViolation
from .matrices import RealMatrix, _Value, _make, _reduced, hstack, vstack
from .elimination import _eliminate, _eliminate_bordered, _inverse_of_bordered
from .elimination import _null_basis, _reduce, inverse, rref


def index(m: RealMatrix) -> int:
    """Smallest positive k with rank(M^(k+1)) = rank(M^k).

    The index of a 0 x 0 matrix and of any invertible matrix is 1.
    """
    if not m.is_square:
        raise DimensionError("index of a non-square matrix")
    return _index_power(m)[0]


def _index_power(m: RealMatrix) -> tuple[int, RealMatrix, tuple, tuple | None]:
    """(k, F, (G, pivots), bordered) for the index k of square M, with
    M^k = F G: F = M^k[:, pivots] and G the nonzero rows of rref(M^k).
    bordered is the forward pass of [M | I] when M is invertible, from which
    the form reads M^(-1), and None otherwise.

    R_1 is the nonzero rows of the forward pass of M, and R_(j+1) those of
    the forward pass of R_j M, whose row space is that of M^(j+1); each
    rank is read off its forward pass, and the sequence stops at the first
    repeat.  The first pass is that of [M | I]; its right block is dropped
    and each row of R_1 divided by the gcd of its ints.  The echelon rows
    are ints, so each R_j is a matrix over denominator 1 with no gcd pass.
    One back pass on R_k gives G and the pivots, and F is
    M^(k-1) M[:, pivots].  No power of M is formed.  An invertible M stops
    at k = 1 after the one forward pass, with F = M and no back pass: its
    reduced form is I.
    """
    n = m.rows
    bordered = _eliminate_bordered(m)
    pivots = bordered[1]
    if len(pivots) == n:
        return 1, m, (RealMatrix.identity(n), tuple(range(n))), bordered
    work = []
    for row in bordered[0][:len(pivots)]:
        row = row[:n]
        g = gcd(*row)
        work.append([x // g for x in row] if g > 1 else row)
    for k in range(1, n + 1):
        r = len(pivots)
        basis = _make(r, n, tuple(map(tuple, work[:r])), 1)
        work_next, pivots_next = _eliminate(basis @ m)
        if len(pivots_next) == r:
            g, pivots = _reduce(basis, (work, pivots))
            f = m.columns_at(pivots)
            for _ in range(k - 1):
                f = m @ f
            return k, f, (g, pivots), None
        work, pivots = work_next, pivots_next
    raise InternalInvariantViolation("rank sequence failed to stabilize by n")


class CoreNilpotentDecomposition(_Value):
    """M = p diag(c, n) p_inv.

    c is r x r invertible with r = rank(M^k) and c_inv its inverse; n is
    nilpotent (n^k = 0); k is the index of M.  p's first r columns span the
    column space of M^k, the rest its null space; p_inv is its inverse.  An
    invertible M takes p = p_inv = I and c = M, as a nilpotent one takes
    p = I and n = M.
    """

    __slots__ = ("p", "p_inv", "c", "n", "r", "k", "c_inv")

    def assemble(self) -> RealMatrix:
        return _conjugate(self.p, self.p_inv, self.r, self.c, self.n)

    def drazin(self) -> RealMatrix:
        """M^D = p diag(c^(-1), 0) p_inv."""
        return _conjugate(self.p, self.p_inv, self.r, self.c_inv)


def core_nilpotent(m: RealMatrix) -> CoreNilpotentDecomposition:
    if not m.is_square:
        raise DimensionError("core-nilpotent form of a non-square matrix")
    return _core_nilpotent_at(m, *_index_power(m))


def _core_nilpotent_at(
    m: RealMatrix, k: int, f: RealMatrix, echelon, bordered
) -> CoreNilpotentDecomposition:
    """The core-nilpotent form of M from its index k, the factors of
    M^k = F G with echelon = (G, pivots), and bordered, all as
    ``_index_power`` returns them.  At r = n the back pass reduces bordered
    in place, so it is read once."""
    size = m.rows
    g, pivots = echelon
    r = len(pivots)
    if r == size:
        # the reduced form of an invertible M is I, which is also P
        m_inv = _inverse_of_bordered(*bordered)
        return CoreNilpotentDecomposition(g, g, m, RealMatrix.zeros(0, 0), r, k, m_inv)
    # C, (G F)^(-1) = C^(-k) and N as the module docstring derives them
    c = g @ m.columns_at(pivots)
    c_inv = gf_inv = inverse(c)
    for _ in range(k - 1):
        gf_inv = gf_inv @ c_inv
    top = gf_inv @ g
    free = [j for j in range(size) if j not in pivots]
    eye = RealMatrix.identity(size).nums
    s = _make(len(free), size, tuple(eye[j] for j in free), 1)
    f_free = _reduced(len(free), r, tuple(f.nums[j] for j in free), f.den)
    z = _null_basis(g, pivots, size)
    n = RealMatrix.zeros(size - r, size - r) if k == 1 else (
        _reduced(len(free), size, tuple(m.nums[j] for j in free), m.den) @ z
    )
    p_inv = vstack(top, s - f_free @ top)
    return CoreNilpotentDecomposition(hstack(f, z), p_inv, c, n, r, k, c_inv)


def _conjugate(p, q, r: int, top=None, bottom=None):
    """p diag(top, bottom) q, q = p^(-1) and a None block zero, formed as
    p[:, :r] top q[:r, :] + p[:, r:] bottom q[r:, :] for RealMatrix or
    DualMatrix p and q; at r = n, where both forms take p = q = I, top."""
    n = p.rows
    if r == n:
        return type(p).zeros(n, n) if top is None else top
    upper = None if top is None else p.submatrix(0, n, 0, r) @ top @ q.submatrix(0, r, 0, n)
    if bottom is None:
        return upper
    lower = p.submatrix(0, n, r, n) @ bottom @ q.submatrix(r, n, 0, n)
    return lower if upper is None else upper + lower


def drazin(m: RealMatrix) -> RealMatrix:
    """Drazin inverse via the core-nilpotent decomposition."""
    return core_nilpotent(m).drazin()


def group_inverse(m: RealMatrix) -> RealMatrix:
    """Drazin inverse restricted to index-1 matrices."""
    d = core_nilpotent(m)
    if d.k != 1:
        raise IndexTooLarge(f"group inverse needs index 1, matrix has index {d.k}")
    return d.drazin()


def moore_penrose(m: RealMatrix) -> RealMatrix:
    """Moore-Penrose inverse via a full-rank factorization M = F G.

    F collects the pivot columns of M, G the nonzero rows of its reduced
    echelon form.
    """
    reduced, pivots = rref(m)
    return _macduffee(m, m.columns_at(pivots), reduced.submatrix(0, len(pivots), 0, m.cols))


def _macduffee(m: RealMatrix, f: RealMatrix, g: RealMatrix) -> RealMatrix:
    """M+ = G^T (F^T M G^T)^(-1) F^T for M = F C G with F of full column
    rank r, G of full row rank r and C invertible (MacDuffee's formula at
    C = I), since F^T M G^T = (F^T F) C (G G^T) is a product of invertible
    r x r blocks."""
    return g.T @ inverse(f.T @ m @ g.T) @ f.T
