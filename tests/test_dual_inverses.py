"""Existence tests, the four dual inverses, and equation verification."""

import random
from collections import Counter

import pytest

from dualinv import (
    DimensionError,
    DoesNotExist,
    DualMatrix,
    IndexTooLarge,
    RealMatrix,
    block_diagonalize_ind1,
    ddi,
    ddi_obstruction,
    dgi,
    drazin,
    dual_inverse,
    existence_profile,
    index,
    index_profile,
    verify,
    wddi,
    wdgi,
)
from support import weak_drazin_dual_part_horner as _weak_drazin_dual_part

import cases
import support


# every entry point that analyses a dual matrix; each is refused by the one
# square-input gate of that analysis, with one message
ANALYSING = {
    "index_profile": index_profile,
    "ddi_obstruction": ddi_obstruction,
    "existence_profile": existence_profile,
    "wddi": wddi,
    "ddi": ddi,
    "wdgi": wdgi,
    "dgi": dgi,
    "verify": lambda a: verify(a, a, "group"),
    "block_diagonalize_ind1": block_diagonalize_ind1,
}


@pytest.mark.parametrize("name", sorted(ANALYSING))
def test_every_entry_point_refuses_a_non_square_matrix(name):
    with pytest.raises(DimensionError, match="^operation needs a square dual matrix$"):
        ANALYSING[name](DualMatrix.zeros(2, 3))


class TestExistenceProfile:
    def test_fixture_without_inverse(self):
        profile = existence_profile(cases.DDI_ABSENT)
        assert not profile.ddi_exists
        assert profile.obstruction == cases.DDI_ABSENT_OBSTRUCTION
        assert not profile.index_equality
        assert not profile.rank_equality

    def test_fixture_with_inverse(self):
        profile = existence_profile(cases.DDI_PRESENT)
        assert profile.ddi_exists
        assert profile.obstruction.is_zero
        assert profile.index_equality and profile.rank_equality

    def test_real_matrix_always_has_one(self):
        profile = existence_profile(DualMatrix.identity(3))
        assert profile.ddi_exists

    def test_three_booleans_agree_on_random_input(self):
        rng = random.Random(79)
        seen_true = seen_false = 0
        for n in support.size_mix(rng, 60, small=(1, 2, 3), large=(4,)):
            a = support.rand_dual(rng, n, bound=4)
            profile = existence_profile(a)
            # the constructor asserts agreement; count both outcomes to be
            # sure the sample is not one-sided
            if profile.ddi_exists:
                seen_true += 1
            else:
                seen_false += 1
        assert seen_true > 0 and seen_false > 0


class TestDdi:
    def test_known_value(self):
        result = ddi(cases.DDI_PRESENT)
        assert result.std == cases.DDI_PRESENT_DRAZIN
        assert result.dual == cases.DDI_PRESENT_S

    def test_absence_carries_witness(self):
        with pytest.raises(DoesNotExist) as info:
            ddi(cases.DDI_ABSENT)
        assert info.value.witness == cases.DDI_ABSENT_OBSTRUCTION
        assert ddi_obstruction(cases.DDI_ABSENT) == cases.DDI_ABSENT_OBSTRUCTION

    def test_identity(self):
        assert ddi(DualMatrix.identity(3)) == DualMatrix.identity(3)

    def test_agrees_with_weak_form_whenever_it_exists(self):
        rng = random.Random(83)
        hits = 0
        for n in support.size_mix(rng, 60, small=(1, 2, 3), large=(4,)):
            a = support.rand_dual(rng, n, bound=4)
            try:
                exact = ddi(a)
            except DoesNotExist:
                continue
            hits += 1
            assert exact == wddi(a)
        # invertible standard parts always qualify; make sure the loop bit
        assert hits >= 10


class TestWddi:
    def test_known_dual_parts(self):
        w = wddi(cases.DDI_ABSENT)
        assert w.std == cases.DDI_ABSENT_DRAZIN
        assert w.dual == cases.DDI_ABSENT_WEAK_DUAL_PART
        assert wddi(cases.DDI_PRESENT) == ddi(cases.DDI_PRESENT)

    def test_eps_identity_collapses(self):
        a = DualMatrix.eps(RealMatrix.identity(3))
        assert wddi(a) == DualMatrix.zeros(3, 3)

    def test_invertible_input_gives_dual_inverse(self):
        rng = random.Random(89)
        for _ in range(20):
            n = rng.randint(1, 4)
            a = support.rand_dual_invertible_std(rng, n)
            assert wddi(a) == dual_inverse(a)

    def test_defining_equations_hold(self):
        rng = random.Random(97)
        for n in support.size_mix(rng, 30, small=(1, 2, 3), large=(4,)):
            a = support.rand_dual(rng, n, bound=4)
            assert verify(a, wddi(a), "wddi-t").all_hold


    def test_horner_sums_match_explicit_sums(self):
        # every truncation from one term to past the dual index, on random
        # and high-index inputs
        rng = random.Random(211)
        inputs = [support.rand_dual(rng, n, bound=4) for n in range(1, 6)] * 3
        inputs += [
            support.rand_high_index(rng, n, aind, present)
            for n, aind, present in ((5, 3, True), (6, 3, False), (6, 4, False))
        ]
        for a in inputs:
            md = drazin(a.std)
            for terms in range(1, 2 * index(a.std) + 2):
                assert _weak_drazin_dual_part(
                    a.std, a.dual, md, terms
                ) == support.weak_drazin_dual_part_sum(a.std, a.dual, md, terms)


class TestHighIndex:
    def test_generator_reaches_both_dual_index_classes(self):
        rng = random.Random(223)
        classes = set()
        for n, aind, present in (
            (6, 3, True),
            (6, 3, False),
            (7, 3, True),
            (7, 4, True),
            (7, 4, False),
            (6, 4, False),
        ):
            a = support.rand_high_index(rng, n, aind, present)
            profile = index_profile(a)
            assert profile.aind == aind
            assert profile.dind == (aind if present else 2 * aind)
            classes.add(profile.dind // profile.aind)
            x = wddi(a)
            assert x.dual == support.weak_dual_part_oracle(a, profile.dind)
            assert verify(a, x, "wddi-t").all_hold
            if present:
                assert ddi(a) == x
            else:
                with pytest.raises(DoesNotExist) as info:
                    ddi(a)
                assert info.value.witness == ddi_obstruction(a)
                assert not info.value.witness.is_zero
        assert classes == {1, 2}


class TestBlockRouteAgainstOracles:
    """The block form against the formulas it replaced: the explicit and the
    Horner power sums of the WDDI, the projector form of the obstruction and
    the dual index from the bordered ranks of A^^t."""

    @staticmethod
    def inputs():
        rng = random.Random(241)
        mats = [support.rand_dual(rng, n, bound=4) for n in (1, 2, 3, 4, 5) * 4]
        for aind, n in ((2, 4), (2, 5), (3, 5), (3, 6), (4, 6), (4, 7)):
            for present in (True, False):
                mats.append(support.rand_high_index(rng, n, aind, present))
        return mats

    def test_every_object_matches_its_oracle(self):
        reached = set()
        for a in self.inputs():
            profile = index_profile(a)
            dind = support.dual_index_bordered(a)
            assert profile.dind == dind
            reached.add((profile.aind, dind // profile.aind))
            md = drazin(a.std)
            x = wddi(a)
            assert x.std == md
            for terms in (profile.aind, dind):
                assert x.dual == support.weak_drazin_dual_part_sum(
                    a.std, a.dual, md, terms
                )
                assert x.dual == support.weak_drazin_dual_part_horner(
                    a.std, a.dual, md, terms
                )
            obstruction = support.obstruction_projector(a)
            assert ddi_obstruction(a) == obstruction
            profile_e = existence_profile(a)
            assert profile_e.obstruction == obstruction
            assert profile_e.ddi_exists == (dind == profile.aind)
            assert verify(a, x, "wddi-t").exponent == dind
            if obstruction.is_zero:
                assert ddi(a) == x
            else:
                with pytest.raises(DoesNotExist) as info:
                    ddi(a)
                assert info.value.witness == obstruction
        # both dual index classes at every high index
        assert {(k, c) for k in (2, 3, 4) for c in (1, 2)} <= reached


class TestDgiWdgi:
    def test_group_flavor_absent(self):
        with pytest.raises(DoesNotExist) as info:
            dgi(cases.DGI_ABSENT)
        assert info.value.witness == cases.DGI_ABSENT_WITNESS

    def test_group_flavor_present(self):
        result = dgi(cases.DGI_PRESENT)
        assert result == cases.DGI_PRESENT_INVERSE
        assert result == wdgi(cases.DGI_PRESENT)

    def test_weak_group_of_fixture(self):
        assert wdgi(cases.DGI_ABSENT) == cases.DGI_ABSENT_WEAK

    def test_high_index_rejected(self):
        with pytest.raises(IndexTooLarge):
            dgi(cases.DDI_ABSENT)
        with pytest.raises(IndexTooLarge):
            wdgi(cases.DDI_ABSENT)

    def test_identity(self):
        assert dgi(DualMatrix.identity(2)) == DualMatrix.identity(2)

    def test_weak_group_equations_on_random_input(self):
        rng = random.Random(101)
        for _ in range(25):
            n = rng.randint(1, 4)
            a = support.rand_aind1(rng, n)
            w = wdgi(a)
            assert verify(a, w, "wdgi").all_hold

    def test_agreement_when_group_flavor_exists(self):
        rng = random.Random(103)
        hits = 0
        for _ in range(40):
            n = rng.randint(1, 3)
            a = support.rand_aind1(rng, n)
            try:
                exact = dgi(a)
            except DoesNotExist:
                continue
            hits += 1
            assert exact == wdgi(a)
        assert hits >= 5

    def test_block_form_existence_matches_witness_route(self):
        # dgi decides existence by dind = 1 (E22 = 0) and forms the witness
        # only on failure; the witness-first route must agree on the
        # outcome, the witness bytes and the inverse
        def outcome(route, a):
            try:
                return "ok", route(a)
            except IndexTooLarge:
                return ("index",)
            except DoesNotExist as exc:
                return "absent", exc.witness

        rng = random.Random(113)
        inputs = [
            cases.DDI_ABSENT, cases.DDI_PRESENT, cases.DGI_ABSENT, cases.DGI_PRESENT
        ]
        for n in support.size_mix(rng, 160):
            if rng.random() < 0.5:
                inputs.append(support.rand_aind1_with_dgi(rng, n))
            else:
                inputs.append(support.rand_aind1(rng, n))
        seen = Counter()
        for a in inputs:
            got = outcome(dgi, a)
            assert got == outcome(support.dgi_witness_first, a)
            seen[got[0]] += 1
        assert seen["index"] == 2
        assert seen["ok"] >= 60 and seen["absent"] >= 40, seen

    def test_weak_forms_coincide_at_index_one(self):
        # at aind 1 the Drazin flavour's extra sum terms die against the
        # projector, so the weak Drazin and weak group results are equal
        rng = random.Random(107)
        for _ in range(15):
            a = support.rand_aind1(rng, 3)
            assert wddi(a) == wdgi(a)


class TestVerify:
    def test_weak_drazin_report(self):
        report = verify(cases.DDI_ABSENT, wddi(cases.DDI_ABSENT), "wddi-t")
        assert report.all_hold
        assert report.exponent == cases.DDI_ABSENT_DIND
        assert [ok for _, ok in report.equations] == [True, True, True]

    def test_group_report_on_true_inverse(self):
        report = verify(cases.DGI_PRESENT, dgi(cases.DGI_PRESENT), "group")
        assert report.all_hold
        assert report.exponent == 1

    def test_wrong_candidate_fails_with_pattern(self):
        # the standard part's group inverse alone is not a dual group
        # inverse here: substituting X = diag(1,0) + eps*0 breaks the first
        # and third equations in their dual parts, the middle one survives
        candidate = DualMatrix.of([[1, 0], [0, 0]], [[0, 0], [0, 0]])
        report = verify(cases.DGI_ABSENT, candidate, "group")
        assert not report.all_hold
        assert [ok for _, ok in report.equations] == [False, True, False]

    def test_drazin_exponent_recomputed_internally(self):
        report = verify(cases.DDI_PRESENT, ddi(cases.DDI_PRESENT), "drazin-k")
        assert report.exponent == cases.DDI_PRESENT_AIND
        assert report.all_hold

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            verify(cases.DGI_PRESENT, cases.DGI_PRESENT, "nonsense")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            verify(cases.DGI_PRESENT, DualMatrix.identity(3), "group")
