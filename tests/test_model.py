"""Chain realization, subobject enumeration, validation, and direct sums."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from higgs_lab import (
    AmbientMismatchError,
    HiggsChainSpec,
    HiggsObjectModel,
    InvalidArrowError,
    KahlerData,
    NumericalSheafData,
    SubobjectEntry,
    ZERO_SHEAF,
    chi_curve,
    direct_sum_model,
    enumerate_invariant_subobjects,
    rank_p_residual,
    realize,
    subset_id,
    validate,
)

from conftest import curve_chain, poly


def reachable_closure(start, size, arrows):
    """Oracle: grow a subset along arrows until it stops changing."""
    current = set(start)
    changed = True
    while changed:
        changed = False
        for i, j in arrows:
            if i in current and j not in current:
                current.add(j)
                changed = True
    return frozenset(current)


def oracle_family(spec):
    out = set()
    indices = range(1, spec.size + 1)
    for size in range(1, spec.size):
        for combo in combinations(indices, size):
            s = frozenset(combo)
            if reachable_closure(s, spec.size, spec.arrows) == s:
                out.add(s)
    return out


class TestEnumerate:
    def test_hitchin_pair(self):
        spec = HiggsChainSpec(
            ambient=KahlerData.curve(2, 1),
            summand_degrees=(1, -1),
            arrows=frozenset({(1, 2)}),
        )
        assert enumerate_invariant_subobjects(spec) == [frozenset({2})]

    def test_no_arrows(self):
        spec = HiggsChainSpec(ambient=KahlerData.curve(1, 1), summand_degrees=(0, 3))
        assert set(enumerate_invariant_subobjects(spec)) == {
            frozenset({1}),
            frozenset({2}),
        }

    def test_three_term_chain(self):
        spec = HiggsChainSpec(
            ambient=KahlerData.curve(1, 1),
            summand_degrees=(0, 0, 0),
            arrows=frozenset({(1, 2), (2, 3)}),
        )
        assert set(enumerate_invariant_subobjects(spec)) == {
            frozenset({3}),
            frozenset({2, 3}),
        }

    def test_matches_closure_oracle(self):
        rng = random.Random(3)
        for _ in range(150):
            size = rng.randint(1, 5)
            genus = rng.randint(1, 3)
            arrows = frozenset(
                (rng.randint(1, size), rng.randint(1, size))
                for _ in range(rng.randint(0, size * 2))
            )
            spec = HiggsChainSpec(
                ambient=KahlerData.curve(genus, 1),
                summand_degrees=tuple(0 for _ in range(size)),
                arrows=arrows,
            )
            assert set(enumerate_invariant_subobjects(spec)) == oracle_family(spec)

    def test_lattice_closure(self):
        # arrow-closed sets close under union and intersection
        rng = random.Random(4)
        for _ in range(60):
            size = rng.randint(2, 5)
            arrows = frozenset(
                (rng.randint(1, size), rng.randint(1, size))
                for _ in range(rng.randint(0, size))
            )
            spec = HiggsChainSpec(
                ambient=KahlerData.curve(1, 1),
                summand_degrees=tuple(0 for _ in range(size)),
                arrows=arrows,
            )
            family = set(enumerate_invariant_subobjects(spec))
            closed = family | {frozenset(), frozenset(range(1, size + 1))}
            for s in family:
                for t in family:
                    assert s | t in closed
                    assert s & t in closed


class TestRealize:
    def test_hitchin_pair(self):
        m = curve_chain(2, 1, (1, -1), arrows={(1, 2)})
        assert (m.data.rank, m.data.deg_h, m.data.chi) == (2, 0, poly(-2, 2))
        (entry,) = m.subobjects
        assert entry.id == "{2}"
        assert (entry.data.rank, entry.data.deg_h, entry.data.chi) == (1, -1, poly(-2, 1))
        assert entry.quotient.torsion_free and entry.quotient_torsion_part is None

    def test_elliptic_split(self):
        m = curve_chain(1, 1, (0, 0))
        assert m.data.chi == poly(0, 2)
        assert [e.id for e in m.subobjects] == ["{1}", "{2}"]
        assert all(e.data.chi == poly(0, 1) for e in m.subobjects)

    def test_rational_split(self):
        m = curve_chain(0, 1, (2, 0))
        # summand chis k+3 and k+1 sum to 2k+4 by chi additivity
        assert m.data.chi == poly(4, 2)
        by_id = {e.id: e for e in m.subobjects}
        assert by_id["{1}"].data.chi == poly(3, 1)
        assert by_id["{2}"].data.chi == poly(1, 1)

    def test_containment_is_subset_order(self):
        m = curve_chain(1, 1, (0, 0, 0))
        by_id = {e.id: e for e in m.subobjects}
        assert by_id["{1,2}"].contains == {"{1}", "{2}"}
        assert by_id["{1}"].contains == frozenset()

    def test_infeasible_arrow(self):
        spec = HiggsChainSpec(
            ambient=KahlerData.curve(0, 1),
            summand_degrees=(2, 0),
            arrows=frozenset({(1, 2)}),
        )
        with pytest.raises(InvalidArrowError):
            realize(spec)

    def test_self_loop_needs_genus(self):
        good = HiggsChainSpec(
            ambient=KahlerData.curve(1, 1),
            summand_degrees=(0,),
            arrows=frozenset({(1, 1)}),
        )
        realize(good)
        bad = HiggsChainSpec(
            ambient=KahlerData.curve(0, 1),
            summand_degrees=(0, 0),
            arrows=frozenset({(1, 1)}),
        )
        with pytest.raises(InvalidArrowError):
            realize(bad)

    def test_family_complete_flag(self):
        assert curve_chain(1, 1, (0,)).family_complete


class TestValidate:
    def test_realize_is_clean(self):
        rng = random.Random(9)
        for _ in range(100):
            size = rng.randint(1, 5)
            genus = rng.randint(0, 3)
            degrees = tuple(rng.randint(-5, 5) for _ in range(size))
            canonical = 2 * genus - 2
            feasible = [
                (i, j)
                for i in range(1, size + 1)
                for j in range(1, size + 1)
                if degrees[i - 1] <= degrees[j - 1] + canonical
            ]
            arrows = frozenset(p for p in feasible if rng.random() < 0.4)
            spec = HiggsChainSpec(
                ambient=KahlerData.curve(genus, 1),
                summand_degrees=degrees,
                arrows=arrows,
            )
            model = realize(spec)
            assert validate(model) == []
            # chain quotients are sums of line bundles, never torsion
            assert all(e.quotient.torsion_free for e in model.subobjects)

    def test_planted_chi_defect(self):
        kd = KahlerData.curve(1, 1)
        total = chi_curve(kd, 2, 0)
        sub = chi_curve(kd, 1, 1)
        bad_quotient = chi_curve(kd, 1, -2)  # correct would be degree -1
        m = HiggsObjectModel(
            id="E",
            ambient=kd,
            data=total,
            subobjects=(SubobjectEntry(id="F", data=sub, quotient=bad_quotient),),
        )
        kinds = [v.kind for v in validate(m)]
        assert kinds.count("ChiAdditivity") == 1
        assert kinds == ["ChiAdditivity"]

    def test_planted_rank_defect(self):
        kd = KahlerData.curve(1, 1)
        total = chi_curve(kd, 2, 0)
        sub = chi_curve(kd, 1, 1)
        bad_quotient = chi_curve(kd, 2, -1)  # rank should be 1
        m = HiggsObjectModel(
            id="E",
            ambient=kd,
            data=total,
            subobjects=(SubobjectEntry(id="F", data=sub, quotient=bad_quotient),),
        )
        kinds = [v.kind for v in validate(m)]
        assert kinds.count("RankAdditivity") == 1
        assert kinds == ["RankAdditivity"]

    def test_torsion_bookkeeping_required(self):
        kd = KahlerData.curve(0, 1)
        total = chi_curve(kd, 1, 0)
        sub = chi_curve(kd, 1, -1)
        quotient = NumericalSheafData(0, Fraction(1), poly(1), torsion_free=False)
        entry = SubobjectEntry(id="F", data=sub, quotient=quotient)
        m = HiggsObjectModel(id="E", ambient=kd, data=total, subobjects=(entry,))
        assert [v.kind for v in validate(m)] == ["TorsionPart"]

    @pytest.mark.parametrize("chi, torsion_free, kinds", [
        (1, True, ["TorsionQuotient"]),  # a positive chi must be declared torsion
        (1, False, []),
        (-1, False, ["TorsionQuotient"]),  # torsion has eventually positive chi
    ])
    def test_rank_zero_quotient_is_zero_or_torsion(self, chi, torsion_free, kinds):
        kd = KahlerData.curve(0, 1)
        total = chi_curve(kd, 1, 0)
        quotient = NumericalSheafData(0, Fraction(chi), poly(chi), torsion_free=torsion_free)
        entry = SubobjectEntry(
            id="F",
            data=chi_curve(kd, 1, -chi),
            quotient=quotient,
            quotient_torsion_part=None if torsion_free else quotient,
        )
        m = HiggsObjectModel(id="E", ambient=kd, data=total, subobjects=(entry,))
        assert [v.kind for v in validate(m)] == kinds

    def test_subobject_of_positive_rank_is_torsion_free(self):
        kd = KahlerData.curve(1, 1)
        sub = chi_curve(kd, 1, 1)
        declared_torsion = NumericalSheafData(1, sub.deg_h, sub.chi, torsion_free=False)
        entry = SubobjectEntry(id="F", data=declared_torsion, quotient=chi_curve(kd, 1, -1))
        m = HiggsObjectModel(id="E", ambient=kd, data=chi_curve(kd, 2, 0), subobjects=(entry,))
        assert [(v.subject, v.kind) for v in validate(m)] == [("F", "TorsionSubobject")]

    @pytest.mark.parametrize("torsion_free", [True, False])
    def test_nonzero_subobject_of_rank_zero_is_rejected(self, torsion_free):
        # a torsion-free object has no torsion subobject, however it is declared
        kd = KahlerData.curve(1, 1)
        torsion = NumericalSheafData(0, Fraction(1), poly(1), torsion_free=torsion_free)
        entry = SubobjectEntry(id="T", data=torsion, quotient=chi_curve(kd, 1, -1))
        m = HiggsObjectModel(id="E", ambient=kd, data=chi_curve(kd, 1, 0), subobjects=(entry,))
        assert [(v.subject, v.kind) for v in validate(m)] == [("T", "TorsionSubobject")]

    def test_equal_rank_containment_needs_nonnegative_chi_difference(self):
        kd = KahlerData.curve(1, 1)

        def entry(eid, deg, contains=()):
            return SubobjectEntry(
                id=eid,
                data=chi_curve(kd, 1, deg),
                quotient=chi_curve(kd, 1, -deg),
                contains=frozenset(contains),
            )

        for inner_deg, kinds in ((0, []), (1, []), (2, ["Containment"])):
            m = HiggsObjectModel(
                id="E",
                ambient=kd,
                data=chi_curve(kd, 2, 0),
                subobjects=(entry("A", 1, {"B"}), entry("B", inner_deg)),
            )
            assert [v.kind for v in validate(m)] == kinds, inner_deg

    def test_torsion_root_rejected(self):
        kd = KahlerData.curve(0, 1)
        data = NumericalSheafData(1, Fraction(0), poly(1, 1), torsion_free=False)
        m = HiggsObjectModel(id="E", ambient=kd, data=data, subobjects=())
        assert [v.kind for v in validate(m)] == ["ModelTorsionFree"]

    def test_containment_must_resolve(self):
        m = curve_chain(1, 1, (0, 0, 0))
        # replace {1,2}'s lower set with a dangling id
        tampered = tuple(
            SubobjectEntry(id=e.id, data=e.data, quotient=e.quotient, contains=frozenset({"nope"}))
            if e.id == "{1,2}"
            else e
            for e in m.subobjects
        )
        bad = HiggsObjectModel(id="E", ambient=m.ambient, data=m.data, subobjects=tampered)
        assert any(v.kind == "Containment" for v in validate(bad))

    def test_containment_respects_rank(self):
        kd = KahlerData.curve(1, 1)

        def entry(eid, rank, contains):
            return SubobjectEntry(
                id=eid,
                data=chi_curve(kd, rank, 0),
                quotient=chi_curve(kd, 3 - rank, 0),
                contains=frozenset(contains),
            )

        m = HiggsObjectModel(
            id="E",
            ambient=kd,
            data=chi_curve(kd, 3, 0),
            subobjects=(entry("A", 1, {"B"}), entry("B", 2, ())),
        )
        assert [(v.subject, v.kind) for v in validate(m)] == [("A", "Containment")]

    def test_nonzero_residual_fails_an_additivity_check(self):
        # rk F (p_E - p_F) + rk Q (p_E - p_Q) = chi_E - chi_F - chi_Q once the
        # ranks add, so a nonzero residual always fails an earlier check
        kd = KahlerData.curve(1, 1)
        total = chi_curve(kd, 3, 0)
        sub = chi_curve(kd, 1, 1)
        for quotient, kind in (
            (chi_curve(kd, 2, -2), "ChiAdditivity"),
            (chi_curve(kd, 1, 0), "RankAdditivity"),
        ):
            assert not rank_p_residual(total, sub, quotient).is_zero
            entry = SubobjectEntry(id="F", data=sub, quotient=quotient)
            m = HiggsObjectModel(id="E", ambient=kd, data=total, subobjects=(entry,))
            assert [v.kind for v in validate(m)] == [kind]

    def test_result_is_a_fresh_list(self):
        kd = KahlerData.curve(1, 1)
        m = HiggsObjectModel(
            id="E",
            ambient=kd,
            data=chi_curve(kd, 2, 0),
            subobjects=(
                SubobjectEntry(id="F", data=chi_curve(kd, 1, 1), quotient=chi_curve(kd, 1, -2)),
            ),
        )
        first = validate(m)
        first.clear()
        assert [v.kind for v in validate(m)] == ["ChiAdditivity"]


class TestDirectSum:
    def test_two_lines(self):
        kd = KahlerData.curve(0, 1)
        a = HiggsObjectModel(id="a", ambient=kd, data=chi_curve(kd, 1, 0), subobjects=())
        b = HiggsObjectModel(id="b", ambient=kd, data=chi_curve(kd, 1, 0), subobjects=())
        total = direct_sum_model(a, b)
        assert total.data.rank == 2 and total.data.chi == poly(2, 2)
        assert sorted(e.id for e in total.subobjects) == ["0(+)b", "a(+)0"]
        assert all(
            (e.data.rank, e.data.chi) == (1, poly(1, 1)) for e in total.subobjects
        )
        assert validate(total) == []

    def test_hitchin_plus_line(self):
        kd = KahlerData.curve(2, 1)
        pair = curve_chain(2, 1, (1, -1), arrows={(1, 2)}, object_id="pair")
        line = HiggsObjectModel(
            id="line", ambient=kd, data=chi_curve(kd, 1, 0), subobjects=(),
            family_complete=True,
        )
        total = direct_sum_model(pair, line)
        assert total.data.rank == 3
        ids = [e.id for e in total.subobjects]
        assert ids == ["0(+)line", "pair(+)0", "{2}(+)0", "{2}(+)line"]
        assert validate(total) == []
        by_id = {e.id: e for e in total.subobjects}
        assert by_id["{2}(+)line"].contains == {"0(+)line", "{2}(+)0"}

    def test_zero_model_identity(self):
        kd = KahlerData.curve(1, 1)
        a = curve_chain(1, 1, (0, 0))
        zero = HiggsObjectModel(id="z", ambient=kd, data=ZERO_SHEAF, subobjects=())
        assert direct_sum_model(a, zero) is a

    def test_ambient_mismatch(self):
        a = curve_chain(1, 1, (0,))
        b = curve_chain(2, 1, (0,))
        with pytest.raises(AmbientMismatchError):
            direct_sum_model(a, b)


def test_subset_id_sorted():
    assert subset_id([3, 1]) == "{1,3}"
