"""Metamorphic properties: each test relates the result on one input to the
result on a transformed input, so no reference computation is needed.

With A^ = P^ diag(C^, N^) P^^(-1) and W = wddi(A^) = P^ diag(C^^(-1), 0)
P^^(-1):

- powers: A^^m = P^ diag(C^^m, N^^m) P^^(-1) with N^^m dual-nilpotent, so
  wddi(A^^m) = W^m;
- the WDDI of the WDDI: W has the core C^^(-1) and no nilpotent part, so
  wddi(W) = P^ diag(C^, 0) P^^(-1) = A^^2 W;
- similarity: S P^ is the form's change of basis for S A^ S^^(-1), for any
  dual-invertible S, so wddi(S A^ S^^(-1)) = S W S^^(-1), and both ranks of
  every power, hence the index profile, are unchanged.  The projectors
  I - M M^D kill M^k on both sides, so the obstruction becomes
  S0 (obstruction) S0^(-1), S0 the standard part of S;
- the solvers: S A^ S^^(-1) (S x^) = S b^ exactly when A^ x^ = b^, and S maps
  the range of A^ onto that of S A^ S^^(-1), so both solvers give the same
  outcome on (S A^ S^^(-1), S b^) as on (A^, b^), and S^^(-1) times each
  particular solution solves A^ x^ = b^.

The inputs reach every dual index in [aind, 2*aind] at aind 2 and 3; the
random ones add aind-1 matrices, and the solvers' inputs reach each of
their outcomes.
"""

import random

import pytest

from dualinv import (
    DualMatrix,
    Inconsistent,
    IndexTooLarge,
    dual_inverse,
    dual_power,
    existence_profile,
    index_profile,
    solve_general,
    solve_restricted,
    wddi,
)

import support


def _inputs():
    rng = random.Random(251)
    for n, aind in ((5, 2), (6, 3), (7, 3)):
        for dind in range(aind, 2 * aind + 1):
            yield support.rand_high_index(rng, n, aind, dind=dind)
    for n in (3, 5):
        yield support.rand_dual(rng, n)
        yield support.rand_aind1(rng, n)


INPUTS = list(_inputs())


def _conjugator(rng, n):
    """A dual-invertible S and its dual inverse."""
    s = support.rand_dual_invertible_std(rng, n, bound=2)
    return s, dual_inverse(s)


@pytest.mark.parametrize("m", [2, 3])
def test_the_wddi_of_a_power_is_the_power_of_the_wddi(m):
    for a in INPUTS:
        assert wddi(dual_power(a, m)) == dual_power(wddi(a), m)


def test_the_wddi_of_the_wddi_is_the_square_times_the_wddi():
    for a in INPUTS:
        w = wddi(a)
        assert wddi(w) == a @ a @ w


def test_a_similarity_carries_the_wddi_and_keeps_the_invariants():
    rng = random.Random(257)
    for a in INPUTS:
        s, s_inv = _conjugator(rng, a.rows)
        conjugate = s @ a @ s_inv
        assert wddi(conjugate) == s @ wddi(a) @ s_inv
        assert index_profile(conjugate) == index_profile(a)
        before, after = existence_profile(a), existence_profile(conjugate)
        answers = ("ddi_exists", "index_equality", "rank_equality")
        assert [getattr(after, f) for f in answers] == [getattr(before, f) for f in answers]
        assert after.obstruction == s.std @ before.obstruction @ s_inv.std


def _rhs(rng, a):
    """Right-hand sides that reach the solvers' outcomes: A^ A^ y^, A^ y^,
    eps v and a random column."""
    y = support.rand_dual_parameter(rng, a.rows)
    v = support.rand_dual_parameter(rng, a.rows)
    return [a @ (a @ y), a @ y, DualMatrix.eps(v.dual), support.rand_dual_parameter(rng, a.rows)]


def _outcome(solver, a, b):
    """The refusal's class name, or the particular solution."""
    try:
        return solver(a, b).particular
    except (IndexTooLarge, Inconsistent) as exc:
        return type(exc).__name__


OUTCOMES = {
    solve_general: {"solved", "IndexTooLarge", "InconsistentStandardPart", "InconsistentDualPart"},
    solve_restricted: {"solved", "IndexTooLarge", "Inconsistent"},
}


@pytest.mark.parametrize("solver", [solve_general, solve_restricted])
def test_a_similarity_keeps_each_solver_outcome(solver):
    # aind-1 inputs with E22 = 0 as well, where eps v mostly leaves the
    # range that the unrestricted solver can reach
    rng = random.Random(263)
    extra = [support.rand_aind1(rng, n) for n in (2, 4, 6)]
    extra += [support.rand_aind1_with_dgi(rng, n) for n in (3, 4, 5)]
    reached = set()
    for a in INPUTS + extra:
        s, s_inv = _conjugator(rng, a.rows)
        conjugate = s @ a @ s_inv
        for b in _rhs(rng, a):
            before = _outcome(solver, a, b)
            after = _outcome(solver, conjugate, s @ b)
            if isinstance(before, str):
                assert after == before
                reached.add(before)
            else:
                assert isinstance(after, DualMatrix), after
                assert a @ (s_inv @ after) == b
                reached.add("solved")
    assert reached == OUTCOMES[solver]
