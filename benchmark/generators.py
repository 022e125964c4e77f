"""Seeded inputs with invariants known from their construction.

Every generator builds its matrix from blocks whose rank and index structure
is chosen, then hides the structure behind a unimodular change of basis, so
the expected outcome of each library call is known without asking the
library.  All arithmetic is the benchmark's own (``exact``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from exact import (
    add,
    block_diag,
    bordered_rank,
    dinverse,
    dmul,
    hstack,
    identity,
    inverse,
    matmul,
    rank,
    unimodular,
    vstack,
    zeros,
)


@dataclass(frozen=True)
class Square:
    """A square dual matrix with its invariants.

    ``ddi`` says whether the dual Drazin inverse exists; ``drazin`` is the
    standard part's Drazin inverse, ``obstruction`` the DDI obstruction.
    """

    a: tuple[list, list]
    arank: int
    drank: int
    aind: int
    dind: int
    ddi: bool
    drazin: list
    obstruction: list

    @property
    def n(self) -> int:
        return len(self.a[0])

    @property
    def label(self) -> str:
        present = "present" if self.ddi else "absent"
        return f"aind={self.aind},dind={self.dind},ddi={present}"


@dataclass(frozen=True)
class Index1System:
    """An index-1 dual matrix, one right-hand side and the outcome classes.

    ``general`` and ``restricted`` are ``"ok"`` or the inconsistency
    condition the CLI reports (``standard-part``, ``dual-range``,
    ``residual``); ``dgi`` says whether the dual group inverse exists.
    """

    a: tuple[list, list]
    b: tuple[list, list]
    general: str
    restricted: str
    dgi: bool

    @property
    def n(self) -> int:
        return len(self.a[0])

    @property
    def label(self) -> str:
        return f"general={self.general},restricted={self.restricted}"


def _ints(rng: random.Random, rows: int, cols: int, bound: int) -> list[list[int]]:
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def _invertible(rng: random.Random, n: int, bound: int = 3) -> list[list[int]]:
    while True:
        m = _ints(rng, n, n, bound)
        if rank(m) == n:
            return m


def _similar(p, p_inv, core) -> list:
    return matmul(matmul(p, core), p_inv)


def _jordan(sizes) -> list[list[int]]:
    """Nilpotent block diagonal of shift blocks, ones on the superdiagonal."""
    m = sum(sizes)
    out = zeros(m, m)
    start = 0
    for s in sizes:
        for i in range(start, start + s - 1):
            out[i][i + 1] = 1
        start += s
    return out


def _power(m, t: int) -> list:
    out = identity(len(m))
    for _ in range(t):
        out = matmul(out, m)
    return out


def invertible(rng: random.Random, n: int) -> Square:
    """Random dual matrix with an invertible standard part, entries p/q, |p|, q <= 9."""

    def entry() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    while True:
        std = [[entry() for _ in range(n)] for _ in range(n)]
        if rank(std) == n:
            break
    dual = [[entry() for _ in range(n)] for _ in range(n)]
    return Square((std, dual), n, n, 1, 1, True, inverse(std), zeros(n, n))


def high_index(rng: random.Random, n: int, k: int, present: bool) -> Square:
    """``P (diag(C, N) + eps E) P^(-1)`` with aind ``k`` and a chosen E22.

    C is 2 x 2 and N fills the rest with Jordan blocks of size k, then one
    smaller block, so aind = k.  The
    DDI obstruction is ``P diag(0, sum_i N^(k-i) E22 N^(i-1)) P^(-1)``; it
    vanishes when E22 = 0 (then dind = k).  Otherwise E22 carries a nonzero
    entry at (k-1, 0): ``N^(k-1) E22 N^(k-1)`` is then nonzero, the ranks of
    A^t differ for every t < 2k, and dind = 2k.
    """
    sizes = [k]
    while sum(sizes) < n - 2:
        sizes.append(min(k, n - 2 - sum(sizes)))
    m = sum(sizes)
    r = n - m
    c = _invertible(rng, r)
    nil = _jordan(sizes)
    e = _ints(rng, n, n, 2)
    if present:
        for row in e[r:]:
            row[r:] = [0] * m
    else:
        e[r + k - 1][r] = rng.choice((-2, -1, 1, 2))
    p, p_inv = unimodular(rng, n, 2 * n)
    std = _similar(p, p_inv, block_diag(c, nil))
    dual = _similar(p, p_inv, e)
    e22 = [row[r:] for row in e[r:]]
    obstruction22 = zeros(m, m)
    for i in range(1, k + 1):
        term = matmul(matmul(_power(nil, k - i), e22), _power(nil, i - 1))
        obstruction22 = add(obstruction22, term)
    drazin = _similar(p, p_inv, block_diag(inverse(c), zeros(m, m)))
    obstruction = _similar(p, p_inv, block_diag(zeros(r, r), obstruction22))
    arank = r + m - len(sizes)
    drank = bordered_rank((std, dual)) - arank
    dind = k if present else 2 * k
    return Square((std, dual), arank, drank, k, dind, present, drazin, obstruction)


RHS_KINDS = ("zero", "in-range", "standard-part", "dual-range")
RHS_CLASSES = {
    "zero": ("ok", "ok"),
    "in-range": ("ok", "residual"),
    "standard-part": ("standard-part", "residual"),
    "dual-range": ("dual-range", "residual"),
}


def index1_matrix(rng: random.Random, n: int, r: int, nilpotent_rank: int):
    """``P^ diag(C + eps M1, eps N4) P^^(-1)`` with ``P^ = P (I + eps T)``.

    Returns the dual matrix, ``P^`` and N4.  N4 has rank ``nilpotent_rank``,
    below its size ``n - r`` so that right-hand sides outside its range
    exist; rank 0 makes the dual group inverse exist.
    """
    m = n - r
    c = _invertible(rng, r)
    m1 = _ints(rng, r, r, 2)
    n4 = zeros(m, m)
    while rank(n4) != nilpotent_rank:
        n4 = matmul(_ints(rng, m, nilpotent_rank, 2), _ints(rng, nilpotent_rank, m, 2))
    p, p_inv = unimodular(rng, n, 2 * n)
    t = _ints(rng, n, n, 1)
    phat = (p, matmul(p, t))
    inner = (block_diag(c, zeros(m, m)), block_diag(m1, n4))
    a = dmul(dmul(phat, inner), dinverse(phat))
    return a, phat, n4


def index1_rhs(rng: random.Random, phat, r: int, n4, kind: str) -> tuple[list, list]:
    """``b = P^ (c1; c2)`` with c2 chosen so the outcome class is ``kind``.

    In the decomposed basis the bottom equation is ``eps N4 y2 = c2``: it is
    solvable exactly when c2's standard part is 0 and its dual part lies in
    the range of N4; the restricted equation needs c2 = 0.
    """
    m = len(n4)
    c1 = (_ints(rng, r, 1, 3), _ints(rng, r, 1, 3))
    if kind == "zero":
        c2 = (zeros(m, 1), zeros(m, 1))
    elif kind == "in-range":
        while True:
            image = matmul(n4, _ints(rng, m, 1, 2))
            if any(x != 0 for row in image for x in row):
                break
        c2 = (zeros(m, 1), image)
    elif kind == "standard-part":
        while True:
            top = _ints(rng, m, 1, 3)
            if any(x != 0 for row in top for x in row):
                break
        c2 = (top, _ints(rng, m, 1, 3))
    else:
        base = rank(n4)
        while True:
            v = _ints(rng, m, 1, 3)
            if rank(hstack(n4, v)) > base:
                break
        c2 = (zeros(m, 1), v)
    return dmul(phat, (vstack(c1[0], c2[0]), vstack(c1[1], c2[1])))
