"""The block form against the doubled matrix D = [[M, 0], [M0, M]], at every
dual index.

Doubling is an injective algebra homomorphism that maps the dual
core-nilpotent form of A^ to a real one, so D(wddi(A^)) = drazin(D),
dind(A^) = index(D), and the DDI exists exactly when index(D) = aind
(``support.wddi_doubled``).  That route uses only the real drazin and index
and touches nothing of the dual form.  ``support.rand_high_index`` with
``dind=`` reaches every dual index in [aind, 2*aind], including those
strictly between, where the form's search for the first zero power of N^
stops early.  The existence profile is also checked field by field against
the bordered ranks of A^^aind, the projector form of the obstruction and the
bordered dual index (``support.existence_profile_bordered``).
"""

import random

import pytest

from dualinv import doubled, existence_profile, index_profile, wddi

import support

PAIRS = [(aind, dind) for aind in range(1, 6) for dind in range(aind, 2 * aind + 1)]


def _inputs(aind, dind):
    rng = random.Random(1000 * aind + dind)
    for extra in (0, 1, 2, 4):
        yield support.rand_high_index(rng, aind + extra, aind, dind=dind)


@pytest.mark.parametrize("aind, dind", PAIRS, ids=[f"aind{k}-dind{t}" for k, t in PAIRS])
def test_block_form_matches_the_doubled_matrix(aind, dind):
    for a in _inputs(aind, dind):
        profile = index_profile(a)
        assert (profile.aind, profile.dind) == (aind, dind)
        drazin_d, index_d = support.wddi_doubled(a)
        assert doubled(wddi(a)) == drazin_d
        assert profile.dind == index_d
        existence = existence_profile(a)
        assert existence.ddi_exists == (index_d == aind)
        assert existence == support.existence_profile_bordered(a)


def test_generator_rejects_a_dual_index_out_of_range():
    rng = random.Random(5)
    for kwargs in ({}, {"ddi_present": True, "dind": 3}, {"dind": 1}, {"dind": 5}):
        with pytest.raises(ValueError):
            support.rand_high_index(rng, 4, 2, **kwargs)
