"""The dual core-nilpotent form of a square dual matrix, for any index.

From the real form M = P diag(C, N) P^(-1) (C invertible r x r, N^k = 0 with
k = aind) and E = P^(-1) M0 P = [[E11, E12], [E21, E22]], the similarity
P^ = P (I + eps*T), T = [[0, T12], [T21, 0]] with

    T12 = -C^(-1) sum_{j<k} C^(-j) E12 N^j,  T21 = sum_{j<k} N^j E21 C^(-j) C^(-1)

(so C T12 - T12 N = -E12 and N T21 - T21 C = -E21; the sums end as N^k = 0)
gives A^ = P^ diag(C^, N^) P^^(-1), C^ = C + eps*E11 dual-invertible and
N^ = N + eps*E22 dual-nilpotent.  Then WDDI(A^) = P^ diag(C^^(-1), 0) P^^(-1),
the WDGI at index 1 (where N^ = eps*E22); the DDI obstruction
(I - M M^D) K (I - M M^D), K the dual part of A^^k, is P diag(0, K22) P^(-1)
with K22 that of N^^k; and dind(A^) is the first t >= k with N^^t = 0, since
P^ keeps both ranks of A^^t, C^^t is invertible and N^^t = eps*K22(t) for
t >= k, where K22(t+1) = K22(t) N.  For the same reason both ranks of A^
exceed those of N^ by r: rank(M) = r + rank(N) and rank(doubled(A^)) =
2r + rank(doubled(N^)), as the doubling map is multiplicative.  K22, dind
and the two ranks all come from the form's N^.  Each P^ diag(U^, V^) P^^(-1),
and the obstruction, is taken by real_inverses._conjugate on the blocks that
carry data: the WDDI needs r columns of P^ and r rows of P^^(-1).  The
real form keeps C^(-1) (see real_inverses), so the form takes
C^^(-1) = C^(-1) - eps*C^(-1) E11 C^(-1) and the Horner sums of T with no
inverse of its own.

Each public function reads these objects off one _Analysis of its input,
whose parts (the index record of M, whose k is aind; the real
core-nilpotent form, which consumes that record; E and N^; the dual block
form; (K22, dind); the obstruction; the WDDI) are built on first use and
then kept.  aind needs no form, so verify's drazin-k exponent and the
aind > 1 refusals of the index-1 entry points build none.  E and N^ are a
part of their own, so the ranks, dind and the obstruction form no C^^(-1).
The module holds the analysis of the last dual matrix asked about and
hands it out again only for that very object, never for an equal copy;
analysing another object drops it, so at most one input is kept alive.
When M is invertible the rank of M gives aind = 1 with no power of M, and
the form takes P^ = I and C^ = A^ (N^ is 0 x 0), with C^(-1) = M^(-1) read
off the index's forward pass of [M | I].
Nothing is multiplied by that I: E, the form's products and its change of basis
(_to_blocks, _from_blocks, which the solvers call) all skip it at r = n.
"""

from __future__ import annotations

from functools import cached_property

from .exceptions import DimensionError, IndexTooLarge
from .matrices import DualMatrix, RealMatrix
from .matrices import _Value, hstack, vstack
from . import real_inverses
from .real_inverses import CoreNilpotentDecomposition, _conjugate
from .dual_linear import _dual_inverse_from


class DualBlockDecompositionInd1(_Value):
    """A^ = phat diag(chat, nhat) phat_inv, phat = P (I + eps*T).

    chat is r x r with invertible standard part; nhat = N + eps*nblock is
    dual-nilpotent, and eps*nblock at aind 1.  phat_inv and chat_inv are the
    dual inverses of phat and chat.
    """

    __slots__ = ("phat", "chat", "nhat", "r", "phat_inv", "chat_inv")

    @property
    def nblock(self) -> RealMatrix:
        return self.nhat.dual

    def _to_blocks(self, x: DualMatrix) -> DualMatrix:
        """P^^(-1) x, which is x at r = n."""
        return x if self.r == x.rows else self.phat_inv @ x

    def _from_blocks(self, x: DualMatrix) -> DualMatrix:
        """P^ x, which is x at r = n."""
        return x if self.r == x.rows else self.phat @ x

    def assemble(self) -> DualMatrix:
        return _conjugate(self.phat, self.phat_inv, self.r, self.chat, self.nhat)

    def weak_drazin_inverse(self) -> DualMatrix:
        """P^ diag(C^^(-1), 0) P^^(-1), the WDDI of A^ (the WDGI at aind 1)."""
        return _conjugate(self.phat, self.phat_inv, self.r, self.chat_inv)

    def sharp(self) -> DualMatrix:
        """P^ diag(C^, 0) P^^(-1), the group inverse of the WDGI."""
        return _conjugate(self.phat, self.phat_inv, self.r, self.chat)


def _e_nhat(a: DualMatrix, cn: CoreNilpotentDecomposition) -> tuple[RealMatrix, DualMatrix]:
    """(E, N^): E = P^(-1) M0 P and the bottom block N^ = N + eps*E22 of the
    form, which needs neither C^^(-1) nor T; E = M0 at r = n, where P = I."""
    n, r = a.rows, cn.r
    e = a.dual if r == n else cn.p_inv @ a.dual @ cn.p
    return e, DualMatrix(cn.n, e.submatrix(r, n, r, n))


def _decompose(
    a: DualMatrix, cn: CoreNilpotentDecomposition, e_nhat: tuple[RealMatrix, DualMatrix]
) -> DualBlockDecompositionInd1:
    """Block form of A^ from the core-nilpotent form of its standard part
    and its (E, N^)."""
    n, r = a.rows, cn.r
    e, nhat = e_nhat
    e11 = e.submatrix(0, r, 0, r)
    chat = DualMatrix(cn.c, e11)
    c_inv = cn.c_inv
    chat_inv = _dual_inverse_from(c_inv, e11)
    if r == n:  # P = I and T has no entries, so P^ = I
        eye = DualMatrix.identity(n)
        return DualBlockDecompositionInd1(eye, chat, nhat, r, eye, chat_inv)
    e12, e21 = e.submatrix(0, r, r, n), e.submatrix(r, n, 0, r)
    # both sums by Horner's rule: x = sum_{j<k} C^(-j) E12 N^j, y likewise
    x, y = e12, e21
    for _ in range(cn.k - 1):
        x = e12 + c_inv @ x @ cn.n
        y = e21 + cn.n @ y @ c_inv
    t12, t21 = -(c_inv @ x), y @ c_inv
    # P T and T P^(-1) block by block, with T = [[0, t12], [t21, 0]]
    p_left, p_right = cn.p.submatrix(0, n, 0, r), cn.p.submatrix(0, n, r, n)
    q_top, q_bottom = cn.p_inv.submatrix(0, r, 0, n), cn.p_inv.submatrix(r, n, 0, n)
    phat = DualMatrix(cn.p, hstack(p_right @ t21, p_left @ t12))
    # (P (I + eps*T))^(-1) = (I - eps*T) P^(-1)
    phat_inv = DualMatrix(cn.p_inv, -vstack(t12 @ q_bottom, t21 @ q_top))
    return DualBlockDecompositionInd1(phat, chat, nhat, r, phat_inv, chat_inv)


def _bottom_block_powers(nhat: DualMatrix, k: int) -> tuple[RealMatrix, int]:
    """(K22, dind) from N^ alone: K22 is the dual part of N^^k and dind the
    first t >= k with N^^t = 0, at most 2k as N^k = 0."""
    power = nhat
    for _ in range(k - 1):
        power = power @ nhat
    k22 = dual = power.dual
    t = k
    while not dual.is_zero:
        dual, t = dual @ nhat.std, t + 1
    return k22, t


class _Analysis:
    """The analysis of one square dual matrix; each part is computed on
    first use and kept, and a part whose construction raises is not kept."""

    def __init__(self, a: DualMatrix):
        self.a = a

    @cached_property
    def index(self) -> tuple:
        """The index record of M, as ``real_inverses._index_power`` returns
        it; aind is its k."""
        return real_inverses._index_power(self.a.std)

    @property
    def aind(self) -> int:
        return self.index[0]

    @cached_property
    def cn(self) -> CoreNilpotentDecomposition:
        """The real core-nilpotent form of M, built off the index record by
        the form that real_inverses holds when it is asked for."""
        return real_inverses._core_nilpotent_at(self.a.std, *self.index)

    @cached_property
    def e_nhat(self) -> tuple[RealMatrix, DualMatrix]:
        """(E, N^), kept apart from the form: the ranks, (K22, dind) and the
        obstruction need no C^^(-1) or T."""
        return _e_nhat(self.a, self.cn)

    @cached_property
    def bottom(self) -> tuple[RealMatrix, int]:
        """(K22, dind)."""
        return _bottom_block_powers(self.e_nhat[1], self.aind)

    @cached_property
    def obstruction(self) -> RealMatrix:
        """The DDI obstruction P diag(0, K22) P^(-1)."""
        return _conjugate(self.cn.p, self.cn.p_inv, self.cn.r, bottom=self.bottom[0])

    @cached_property
    def form(self) -> DualBlockDecompositionInd1:
        return _decompose(self.a, self.cn, self.e_nhat)

    @cached_property
    def wddi(self) -> DualMatrix:
        return self.form.weak_drazin_inverse()


_last: _Analysis | None = None


def _check_square(a: DualMatrix) -> None:
    """The one square-input check of every entry point that analyses a dual
    matrix, and of verify, which analyses one only for an index exponent."""
    if not a.std.is_square:
        raise DimensionError("operation needs a square dual matrix")


def _analysis(a: DualMatrix) -> _Analysis:
    """The analysis of a: the kept one when a is the very object analysed
    last, else a fresh one, after ``_check_square``, that replaces it."""
    global _last
    last = _last
    if last is not None and last.a is a:
        return last
    _check_square(a)
    _last = last = _Analysis(a)
    return last


def block_diagonalize_ind1(a: DualMatrix) -> DualBlockDecompositionInd1:
    """Decompose a square dual matrix with aind = 1; IndexTooLarge otherwise."""
    analysis = _analysis(a)
    if analysis.aind != 1:
        raise IndexTooLarge(f"block diagonalization needs aind 1, got {analysis.aind}")
    return analysis.form
