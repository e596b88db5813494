"""Chain realization, subobject enumeration, validation, and direct sums."""

import dataclasses
import json
import operator
import random
from fractions import Fraction

import pytest

import higgs_lab.model
import higgs_lab.suite
from higgs_lab import (
    AmbientMismatchError,
    EventualOrder,
    HiggsChainSpec,
    HiggsObjectModel,
    InvalidArrowError,
    InvalidModelError,
    KahlerData,
    NumericalSheafData,
    SubobjectEntry,
    ZERO_SHEAF,
    chain_sum,
    chi_curve,
    direct_sum_model,
    gieseker_classify,
    rank_p_residual,
    realize,
    validate,
)

from higgs_lab.model import RealizeBoundError
from higgs_lab.modelfile import LoadedObject, ParseError, loads

from conftest import (
    _closed_masks,
    _members,
    curve_chain,
    enumerate_invariant_subobjects,
    fraction_order,
    kahler_to_json,
    model_to_json,
    oracle_containment,
    oracle_direct_sum,
    oracle_family,
    oracle_rank_p_residual,
    oracle_realization,
    poly,
    random_chain_spec,
    subset_id,
    torsion_closure_model,
    torsion_step_model,
)


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

    @pytest.mark.parametrize("arrows, expected", [
        ((), [[1], [2], [3], [4], [1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4],
              [1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]),
        ({(1, 2), (3, 4)}, [[2], [4], [1, 2], [2, 4], [3, 4], [1, 2, 4], [2, 3, 4]]),
    ])
    def test_order_by_size_then_lexicographic(self, arrows, expected):
        spec = HiggsChainSpec(
            ambient=KahlerData.curve(1, 1), summand_degrees=(0, 0, 0, 0), arrows=frozenset(arrows)
        )
        assert enumerate_invariant_subobjects(spec) == [frozenset(s) for s in expected]

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

    @staticmethod
    def assert_matches_oracle(spec):
        model = realize(spec)
        expected = oracle_realization(spec)
        assert [e.id for e in model.subobjects] == sorted(expected)
        for e in model.subobjects:
            assert (e.data, e.quotient, e.contains) == expected[e.id], e.id
            assert e.quotient_torsion_part is None
        return model

    def test_matches_sum_oracle(self):
        rng = random.Random(12)
        with_arrows = 0
        for _ in range(200):
            size = rng.randint(1, 6)
            genus = rng.randint(0, 3)
            degrees = tuple(rng.randint(-4, 4) for _ in range(size))
            feasible = [
                (i, j)
                for i in range(1, size + 1)
                for j in range(1, size + 1)
                if degrees[i - 1] <= degrees[j - 1] + 2 * genus - 2
            ]
            arrows = frozenset(p for p in feasible if rng.random() < 0.3)
            with_arrows += bool(arrows)
            spec = HiggsChainSpec(
                ambient=KahlerData.curve(genus, rng.randint(1, 3)),
                summand_degrees=degrees,
                arrows=arrows,
            )
            self.assert_matches_oracle(spec)
        assert with_arrows > 100

    def test_equal_degree_chain_of_eight_matches_sum_oracle(self):
        spec = HiggsChainSpec(ambient=KahlerData.curve(2, 1), summand_degrees=(3,) * 8)
        assert len(self.assert_matches_oracle(spec).subobjects) == 2**8 - 2

    def test_one_string_per_id(self):
        # every contains holds the entry's own id object, not a copy
        model = curve_chain(2, 1, (0,) * 8)
        ids = [x for e in model.subobjects for x in e.contains]
        assert len(ids) == 3**8 - 2 * 2**8 + 1 - (2**8 - 2)
        assert all(x is model.entry(x).id for x in ids)

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

    def test_matches_the_mask_oracle(self):
        """Each closed mask is one entry, with the oracle's label, key, rank and degree, and
        its sheaves are the ambient table's: no arrows, a path, a cycle and seeded arrow sets."""
        rng, kd = random.Random(2110), KahlerData.curve(2, 1)
        path = {(i, i + 1) for i in range(1, 7)}
        specs = [HiggsChainSpec(kd, (0,) * 7), HiggsChainSpec(kd, (0,) * 7, path),
                 HiggsChainSpec(kd, (0,) * 7, path | {(7, 1)})]
        for _ in range(150):
            m, density = rng.randint(1, 10), rng.choice((0.05, 0.15, 0.4))
            degrees = tuple(rng.randint(-3, 3) for _ in range(m))
            arrows = {(i, j) for i in range(1, m + 1) for j in range(1, m + 1)
                      if degrees[i - 1] <= degrees[j - 1] + 2 and rng.random() < density}
            specs.append(HiggsChainSpec(kd, degrees, arrows))
        for spec in specs:
            model, m, degrees = realize(spec), spec.size, spec.summand_degrees
            masks = {subset_id(_members(mask)): mask for mask in _closed_masks(spec)}
            assert [e.id for e in model.subobjects] == sorted(masks), spec
            for e in model.subobjects:
                rank, degree = e.key.bit_count(), sum(degrees[i - 1] for i in _members(e.key))
                assert e.key == masks[e.id]
                assert (e.data.rank, e.data.deg_h) == (rank, degree)
                assert e.data is kd.sheaves[rank, degree]
                assert e.quotient is kd.sheaves[m - rank, sum(degrees) - degree]
            assert model.data is kd.sheaves[m, sum(degrees)]
        assert [len(realize(s).subobjects) for s in specs[:3]] == [126, 6, 0]

    def test_refusal_text(self):
        for arrows in ((), {(i, i % 17 + 1) for i in range(1, 18)}):
            with pytest.raises(RealizeBoundError) as refused:
                realize(HiggsChainSpec(KahlerData.curve(2, 1), (0,) * 17, arrows))
            assert str(refused.value) == (
                "realize walks at most 65536 masks, and 17 summands need 2^17"
            )


class TestLazyContains:
    """A realized entry derives contains from its key when read, and the key screen holds."""

    @staticmethod
    def chains(count):
        rng = random.Random(1406)
        specs = [random_chain_spec(rng, 6, 3) for _ in range(count)]
        assert sum(bool(s.arrows) for s in specs) > count // 2
        return specs

    def test_contains_matches_the_oracle(self):
        for spec in self.chains(300):
            model = realize(spec)
            assert not any("contains" in vars(e) for e in model.subobjects)  # nothing stored
            assert validate(model) == []
            assert not any("contains" in vars(e) for e in model.subobjects)
            expected = oracle_realization(spec)
            assert {e.id: e.contains for e in model.subobjects} == {
                eid: below for eid, (_, _, below) in expected.items()
            }
            assert oracle_containment(model) == []
            written = model_to_json(LoadedObject(model))["subobjects"]
            assert {e["id"]: e["contains"] for e in written} == {
                eid: sorted(below) for eid, (_, _, below) in expected.items()
            }

    def test_entry_of_the_wrong_rank_is_reported(self):
        """An entry whose rank is not its mask's bit count sends its container to the per-id checks."""
        planted = 0
        for spec in self.chains(300):
            model = realize(spec)
            pairs = [(e, x) for x in model.subobjects for e in model.subobjects if e.id in x.contains]
            if not pairs:
                continue
            e, x = pairs[planted % len(pairs)]
            # e takes x's rank and one degree more: a consistent entry, but x contains it
            kd, rank, degree = model.ambient, x.data.rank, x.data.deg_h + 1
            wrong = SubobjectEntry(
                e.id, chi_curve(kd, rank, degree),
                chi_curve(kd, model.data.rank - rank, model.data.deg_h - degree),
                key=e.key, names=e.names,
            )
            bad = HiggsObjectModel(
                model.id, kd, model.data,
                tuple(wrong if y is e else y for y in model.subobjects), model.family_complete,
            )
            expected = oracle_containment(bad)
            assert f"{x.id}: Containment (contains {e.id} of equal rank, larger chi)" in map(
                str, expected
            )
            assert validate(bad) == expected
            planted += 1
        assert planted > 100

    def test_part_of_a_chain_gets_the_id_checks(self):
        """Entries of one chain that miss some of its closed masks are screened by id."""
        model = curve_chain(1, 1, (0, 0, 0))
        kept = tuple(e for e in model.subobjects if e.id != "{1}")
        part = HiggsObjectModel(model.id, model.ambient, model.data, kept)
        assert [str(v) for v in validate(part)] == [
            "{1,2}: Containment (contains unknown ids ['{1}'])",
            "{1,3}: Containment (contains unknown ids ['{1}'])",
        ] == [str(v) for v in oracle_containment(part)]


class TestSharedSheaves:
    def test_one_sheaf_per_rank_and_degree(self):
        for spec in TestLazyContains.chains(100):
            model = realize(spec)
            sheaves = [model.data] + [s for e in model.subobjects for s in (e.data, e.quotient)]
            by_key = {}
            for s in sheaves:
                by_key.setdefault((s.rank, s.deg_h), set()).add(id(s))
            assert all(len(ids) == 1 for ids in by_key.values()), spec

    @staticmethod
    def first_per_triple(model):
        """Each entry whose (data, quotient, torsion part) no earlier entry has, by identity."""
        def triple(e):
            return e.data, e.quotient, e.quotient_torsion_part

        entries = model.subobjects
        return tuple(e for i, e in enumerate(entries)
                     if not any(all(map(operator.is_, triple(e), triple(f))) for f in entries[:i]))

    def test_distinct_is_the_first_entry_per_triple(self):
        chain = curve_chain(1, 1, (0,) * 8)
        doc = {
            "ambient": {"n": 1, "genus": 1, "degH": 1},
            "objects": [
                model_to_json(LoadedObject(curve_chain(1, 1, (0,) * size, object_id=oid)))
                for oid, size in (("A", 3), ("B", 2))
            ],
        }
        a, b = (obj.model for obj in loads(json.dumps(doc)).objects)  # repeated blocks shared
        total = direct_sum_model(a, b)
        for model, size in ((chain, 7), (a, 2), (b, 1), (total, 10)):
            expected = self.first_per_triple(model)
            assert len(model.distinct) == len(expected) == size, model.id
            assert all(map(operator.is_, model.distinct, expected)), model.id
            assert model.distinct is model.distinct  # kept on the model

    def test_residuals_are_checked_once_per_triple(self, monkeypatch):
        m = curve_chain(1, 1, (0,) * 8)
        calls = []
        real = higgs_lab.suite.compare_scaled
        monkeypatch.setattr(higgs_lab.suite, "compare_scaled",
                            lambda *args: calls.append(args) or real(*args))
        assert higgs_lab.suite.check_residuals(LoadedObject(m)).status == "pass"
        assert len(calls) == len(m.distinct) == 7


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
            residual = rank_p_residual(total, sub, quotient)
            assert not residual.is_zero
            assert residual == oracle_rank_p_residual(total, sub, quotient)
            entry = SubobjectEntry(id="F", data=sub, quotient=quotient)
            m = HiggsObjectModel(id="E", ambient=kd, data=total, subobjects=(entry,))
            assert [v.kind for v in validate(m)] == [kind]

    def test_a_repeated_invalid_pair_is_checked_once(self, monkeypatch):
        """One check per distinct (data, quotient, torsion part), one violation per entry."""
        kd = KahlerData.curve(1, 1)
        sub, bad_quotient = chi_curve(kd, 1, 1), chi_curve(kd, 1, -2)  # chi does not add up
        good = SubobjectEntry("B", chi_curve(kd, 1, 0), chi_curve(kd, 1, 0))
        shared = HiggsObjectModel(
            "E", kd, chi_curve(kd, 2, 0),
            (SubobjectEntry("A", sub, bad_quotient), good, SubobjectEntry("C", sub, bad_quotient)),
        )
        unshared = HiggsObjectModel(
            "E", kd, shared.data,
            tuple(dataclasses.replace(e, data=dataclasses.replace(e.data)) for e in shared.subobjects),
        )
        calls = []
        original = higgs_lab.model._entry_violation
        monkeypatch.setattr(
            higgs_lab.model, "_entry_violation",
            lambda model, e: calls.append((model, e.id)) or original(model, e),
        )
        found = validate(shared)
        assert [str(v) for v in found] == [
            "A: ChiAdditivity (chi_F + chi_Q differs from chi_E)",
            "C: ChiAdditivity (chi_F + chi_Q differs from chi_E)",
        ]
        assert found == validate(unshared)
        assert [eid for model, eid in calls if model is shared] == ["A", "B"]
        assert [eid for model, eid in calls if model is unshared] == ["A", "B", "C"]

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
        with pytest.raises(AmbientMismatchError):
            chain_sum(
                HiggsChainSpec(KahlerData.curve(1, 1), (0,)),
                HiggsChainSpec(KahlerData.curve(2, 1), (0,)),
            )

    def test_matches_the_concatenated_chain(self):
        """a + b of chains is the chain of a's summands, then b's: S maps to (S∩a)(+)(S∩b).

        chain_sum builds that chain, and both routes to the sum classify alike.
        """

        def side(members, size, whole):
            if not members:
                return "0"
            return whole if len(members) == size else "{" + ",".join(map(str, members)) + "}"

        def table(model, name):
            return {
                name(e.id): (e.data, e.quotient, e.quotient_torsion_part)
                + (set(map(name, e.contains)),)
                for e in model.subobjects
            }

        rng = random.Random(2016)
        pairs = 0
        while pairs < 300:
            a, b = random_chain_spec(rng, 4, 2), random_chain_spec(rng, 4, 2)
            if a.ambient != b.ambient:
                continue
            pairs += 1
            m = a.size
            concat = HiggsChainSpec(
                a.ambient,
                a.summand_degrees + b.summand_degrees,
                a.arrows | {(i + m, j + m) for i, j in b.arrows},
            )

            def mapped(subset):
                members = [int(i) for i in subset[1:-1].split(",")]
                left = side([i for i in members if i <= m], m, "a")
                return left + "(+)" + side([i - m for i in members if i > m], b.size, "b")

            assert chain_sum(a, b) == concat, (a, b)
            whole = realize(chain_sum(a, b), object_id="a(+)b")
            total = direct_sum_model(realize(a, object_id="a"), realize(b, object_id="b"))
            assert (total.id, total.data) == (whole.id, whole.data)
            assert table(total, str) == table(whole, mapped), (a, b)
            verdicts = gieseker_classify(total), gieseker_classify(whole)
            assert verdicts[0].classification is verdicts[1].classification, (a, b)

    def test_a_declared_pair_shares_its_sums(self, monkeypatch):
        """Sums of shared blocks are shared: one check per distinct triple, same violations."""
        doc = {
            "ambient": {"n": 1, "genus": 1, "degH": 1},
            "objects": [
                model_to_json(LoadedObject(curve_chain(1, 1, (0,) * size, object_id=oid)))
                for oid, size in (("A", 3), ("B", 2))
            ],
        }
        a, b = (obj.model for obj in loads(json.dumps(doc)).objects)
        assert a.entry("{1}").data is a.entry("{2}").data  # the loader shares repeated blocks
        kd = a.ambient
        wrong = chi_curve(kd, 2, 1)  # one shared quotient whose chi does not add up
        bad = HiggsObjectModel("A", kd, a.data, tuple(
            dataclasses.replace(e, quotient=wrong) if e.data.rank == 1 else e for e in a.subobjects
        ))
        calls = []
        original = higgs_lab.model._entry_violation
        monkeypatch.setattr(
            higgs_lab.model, "_entry_violation",
            lambda model, e: calls.append(model) or original(model, e),
        )
        for factor, expected in ((a, 0), (bad, 12)):  # 3 entries of rank 1 in A, 4 parts of B
            total = direct_sum_model(factor, b)
            unshared = HiggsObjectModel(total.id, kd, total.data, tuple(
                dataclasses.replace(
                    e, data=dataclasses.replace(e.data), quotient=dataclasses.replace(e.quotient)
                )
                for e in total.subobjects
            ))
            found = validate(total)
            assert found == validate(unshared)
            assert len(found) == expected
            assert {v.kind for v in found} <= {"ChiAdditivity"}
            # one check per (rank in A, rank in B): 4 x 3 - 2 of them, for 8 x 4 - 2 entries
            assert len(total.subobjects) == 30
            assert calls.count(total) == 10 and calls.count(unshared) == 30

    def test_torsion_parts_add(self):
        """Each sum entry carries its factors' torsion parts: one of them, or both added."""
        e = torsion_closure_model()
        kd = e.ambient
        line = HiggsObjectModel(id="L", ambient=kd, data=chi_curve(kd, 1, 0), subobjects=())
        twin = HiggsObjectModel(id="T", ambient=kd, data=e.data, subobjects=e.subobjects)
        both = NumericalSheafData(0, Fraction(2), poly(2), torsion_free=False)  # two of length one

        def torsion(m, eid):
            return m.entry(eid).quotient_torsion_part if m.has_entry(eid) else None

        for other in (line, twin):
            total = direct_sum_model(e, other)
            assert validate(total) == []
            for entry in total.subobjects:
                left, right = entry.id.split("(+)")
                parts = (torsion(e, left), torsion(other, right))
                want = both if None not in parts else parts[0] or parts[1]
                assert entry.quotient_torsion_part == want, entry.id
        assert direct_sum_model(e, line).entry("F(+)L").quotient_torsion_part is not None
        assert direct_sum_model(e, twin).entry("F(+)F").quotient_torsion_part == both

    def test_matches_the_label_family(self):
        """Declared sums against oracle_direct_sum: every contains, the violations, the verdict.

        Factors are fuzzed chains written by model_to_json and reloaded (one in three pairs
        keeps a realized left factor), hand-built factors with torsion parts, and a factor
        whose quotients do not add up.
        """
        rng = random.Random(19)

        def declared(model):
            doc = {"ambient": kahler_to_json(model.ambient),
                   "objects": [model_to_json(LoadedObject(model))]}
            return loads(json.dumps(doc)).objects[0].model

        def chain(genus, oid):
            while (spec := random_chain_spec(rng, 4, 2)).ambient.genus != genus:
                pass
            return realize(spec, object_id=oid)

        def bad_chi(genus):  # each rank-1 entry's quotient is one degree too high
            while not (model := declared(chain(genus, "bad"))).subobjects:
                pass
            kd, rank = model.ambient, model.data.rank
            return HiggsObjectModel("bad", kd, model.data, tuple(
                dataclasses.replace(
                    e, quotient=chi_curve(kd, rank - 1, int(e.quotient.deg_h) + 1)
                ) if e.data.rank == 1 else e for e in model.subobjects
            ))

        def verdict(model):
            try:
                return gieseker_classify(model)
            except InvalidModelError as exc:
                return str(exc)

        torsion = [torsion_closure_model(), torsion_closure_model(strict=True), torsion_step_model()]
        pairs = []
        for n in range(240):
            genus = rng.randint(0, 2)
            a, b = chain(genus, "a"), chain(genus, "b")
            pairs.append((a if n % 3 == 0 else declared(a), declared(b)))
        for n in range(45):
            left = torsion[n % 3]
            right = (declared(chain(0, "b")) if n % 5 else
                     dataclasses.replace(torsion[(n // 5) % 3], id="T"))
            pairs.append((left, right) if n % 2 else (right, left))
        for n in range(20):
            bad = bad_chi(n % 3)
            other = declared(chain(n % 3, "b"))
            pairs.append((bad, other) if n % 2 else (other, bad))
        invalid = 0
        for a, b in pairs:
            total, want = direct_sum_model(a, b), oracle_direct_sum(a, b)
            assert (total.id, total.data, total.family_complete) == (
                want.id, want.data, want.family_complete)
            assert {e.id: e.contains for e in total.subobjects} == {
                e.id: e.contains for e in want.subobjects}, (a.id, b.id)
            assert validate(total) == validate(want), (a.id, b.id)
            assert verdict(total) == verdict(want), (a.id, b.id)
            invalid += bool(validate(total))
        assert len(pairs) >= 300 and invalid >= 10

    def test_a_declared_pair_is_keyed_without_ids(self, monkeypatch):
        """Every sum entry arrives keyed, so the model turns no ids into keys."""
        doc = {
            "ambient": {"n": 1, "genus": 1, "degH": 1},
            "objects": [
                model_to_json(LoadedObject(curve_chain(1, 1, degrees, object_id=oid)))
                for oid, degrees in (("A", (0, 1, -1)), ("B", (2, 0)))
            ],
        }
        a, b = (obj.model for obj in loads(json.dumps(doc)).objects)
        calls = []
        original = higgs_lab.model.declared_entries
        monkeypatch.setattr(
            higgs_lab.model, "declared_entries", lambda rows: calls.append(rows) or original(rows)
        )
        total = direct_sum_model(a, b)
        assert calls == []
        assert len(total.subobjects) == 8 * 4 - 2 and validate(total) == []
        assert len({id(e.names) for e in total.subobjects}) == 1

    @pytest.mark.parametrize(
        "contains, unsound",
        [({"F": {"G"}, "G": {"F"}}, ["F", "G"]), ({"F": {"X"}, "G": set()}, ["F"])],
        ids=["cycle", "unknown_id"],
    )
    def test_an_unsound_factor_is_refused(self, contains, unsound):
        kd = KahlerData.curve(0, 1)
        line = chi_curve(kd, 1, 0)
        factor = HiggsObjectModel("A", kd, chi_curve(kd, 2, 0), tuple(
            SubobjectEntry(eid, line, line, contains=ids) for eid, ids in contains.items()
        ))
        other = HiggsObjectModel("B", kd, line, ())
        for pair in ((factor, other), (other, factor)):
            with pytest.raises(ValueError) as info:
                direct_sum_model(*pair)
            assert str(info.value) == f"factor 'A' has unsound containment at {unsound}"


def test_subset_id_sorted():
    assert subset_id([3, 1]) == "{1,3}"


class TestContainmentScreen:
    """validate() against oracle_containment on chain lattices with planted containment defects."""

    DEFECTS = (
        "unknown",
        "self",
        "cycle2",
        "cycle3",
        "larger_rank",
        "equal_rank_larger_chi",
        "equal_rank_smaller_chi",
        "missing",
    )

    @staticmethod
    def lattice(rng):
        size = rng.randint(2, 6)
        genus = rng.randint(0, 3)
        degrees = [rng.randint(-4, 4) for _ in range(size)]
        feasible = [
            (i, j)
            for i in range(1, size + 1)
            for j in range(1, size + 1)
            if i != j and degrees[i - 1] <= degrees[j - 1] + 2 * genus - 2
        ]
        arrows = [p for p in feasible if rng.random() < 0.2]
        return curve_chain(genus, rng.randint(1, 3), degrees, arrows)

    @staticmethod
    def plant(rng, model, contains, defect):
        """Change the contains map for one defect; False when the lattice has no room for it."""
        entries = model.subobjects
        above = lambda e: [x for x in entries if e.id in contains[x.id]]
        if defect == "unknown":
            e = rng.choice(entries)
            contains[e.id] |= {"nope"}
        elif defect == "self":
            e = rng.choice(entries)
            contains[e.id] |= {e.id}
        elif defect == "cycle2":  # e contains one of the entries that contain it
            pairs = [(e, y) for e in entries for y in above(e)]
            if not pairs:
                return False
            e, y = rng.choice(pairs)
            contains[e.id] |= {y.id}
        elif defect == "cycle3":  # a below b below c, and a contains c
            triples = [(a, b, c) for a in entries for b in above(a) for c in above(b)]
            if not triples:
                return False
            a, b, c = rng.choice(triples)
            contains[a.id] |= {c.id}
        elif defect == "larger_rank":
            pairs = [(e, x) for e in entries for x in entries if x.data.rank > e.data.rank]
            if not pairs:
                return False
            e, x = rng.choice(pairs)
            contains[e.id] |= {x.id}
        elif defect.startswith("equal_rank"):
            larger = defect.endswith("larger_chi")
            want = EventualOrder.PRECEDES if larger else EventualOrder.SUCCEEDS
            pairs = [
                (e, x)
                for e in entries
                for x in entries
                if x.data.rank == e.data.rank
                and x.id != e.id
                and fraction_order(e.data.chi, x.data.chi) is want
            ]
            if not pairs:
                return False
            e, x = rng.choice(pairs)
            # x and its members go below e and below everything above e, so only chi can fail
            for y in (e, *above(e)):
                contains[y.id] |= {x.id} | contains[x.id]
        elif defect == "missing":  # drop an id that a member also holds
            pairs = [(e, t) for e in entries for m in contains[e.id] for t in contains.get(m, ())]
            if not pairs:
                return False
            e, t = rng.choice(pairs)
            contains[e.id] -= {t}
        return True

    def planted(self):
        """The 360 planted models, each with its defects and its declared contains lists."""
        rng = random.Random(2024)
        seen = dict.fromkeys(("clean", *self.DEFECTS), 0)
        for n in range(360):
            model = self.lattice(rng)
            contains = {e.id: set(e.contains) for e in model.subobjects}
            defects = [] if n % 6 == 0 else rng.sample(self.DEFECTS, rng.randint(1, 2))
            planted = [d for d in defects if self.plant(rng, model, contains, d)]
            for d in planted or ["clean"]:
                seen[d] += 1
            planted_model = HiggsObjectModel(
                id=model.id,
                ambient=model.ambient,
                data=model.data,
                subobjects=tuple(
                    dataclasses.replace(e, contains=frozenset(contains[e.id]))
                    for e in model.subobjects
                ),
            )
            yield planted, planted_model, contains
        assert all(count >= 20 for count in seen.values()), seen

    def test_validate_matches_oracle(self):
        for planted, planted_model, contains in self.planted():
            expected = oracle_containment(planted_model, contains)
            assert validate(planted_model) == expected, (planted, expected)
            if len(planted) < 2:  # one defect alone is reported, except a smaller chi
                assert bool(expected) == (planted not in ([], ["equal_rank_smaller_chi"]))

    def test_loader_matches_oracle(self):
        """The same lattices as JSON files: loads builds the keys from the lists, in file order."""
        rng = random.Random(16)
        for planted, planted_model, contains in self.planted():
            block = model_to_json(LoadedObject(planted_model))
            rng.shuffle(block["subobjects"])
            for entry in block["subobjects"]:
                entry["contains"] = rng.sample(sorted(contains[entry["id"]]), len(contains[entry["id"]]))
            text = json.dumps({"ambient": kahler_to_json(planted_model.ambient), "objects": [block]})
            expected = oracle_containment(planted_model, contains)
            if expected:
                with pytest.raises(ParseError) as caught:
                    loads(text)
                assert str(caught.value) == "object E fails validation: " + "; ".join(
                    map(str, expected)
                ), planted
            else:  # sound lists in any file order: keyed, with no ids stored
                loaded = loads(text).objects[0].model
                assert not loaded._unsound and all(e.claims is None for e in loaded.subobjects)
                assert {e.id: e.contains for e in loaded.subobjects} == contains, planted


class TestContainmentMessages:
    """One hand-built model per branch of the containment check, with its exact messages."""

    KD = KahlerData.curve(1, 1)

    def model(self, *entries):
        return HiggsObjectModel(
            id="E", ambient=self.KD, data=chi_curve(self.KD, 3, 0), subobjects=entries
        )

    def entry(self, eid, rank=1, deg=0, contains=()):
        return SubobjectEntry(
            id=eid,
            data=chi_curve(self.KD, rank, deg),
            quotient=chi_curve(self.KD, 3 - rank, -deg),
            contains=frozenset(contains),
        )

    def messages(self, *entries):
        return [str(v) for v in validate(self.model(*entries))]

    def test_unknown_ids(self):
        assert self.messages(self.entry("A", contains={"nope", "B"}), self.entry("B")) == [
            "A: Containment (contains unknown ids ['nope'])"
        ]

    def test_contains_itself(self):
        assert self.messages(self.entry("A", contains={"A"}), self.entry("B")) == [
            "A: Containment (entry contains itself)"
        ]

    def test_unknown_ids_reported_before_order_checks(self):
        # a bad id list stops the scan before antisymmetry and transitivity
        assert self.messages(
            self.entry("A", contains={"B"}),
            self.entry("B", contains={"A"}),
            self.entry("C", contains={"C"}),
        ) == ["C: Containment (entry contains itself)"]

    def test_cycle(self):
        assert self.messages(self.entry("A", contains={"B"}), self.entry("B", contains={"A"})) == [
            "A: Containment (containment cycle with B)",
            "A: Containment (not transitive: missing ['A'] below B)",
            "B: Containment (containment cycle with A)",
            "B: Containment (not transitive: missing ['B'] below A)",
        ]

    def test_larger_rank(self):
        assert self.messages(self.entry("A", contains={"B"}), self.entry("B", rank=2)) == [
            "A: Containment (contains B of larger rank)"
        ]

    def test_equal_rank_larger_chi(self):
        assert self.messages(self.entry("A", deg=1, contains={"B"}), self.entry("B", deg=2)) == [
            "A: Containment (contains B of equal rank, larger chi)"
        ]

    def test_not_transitive(self):
        assert self.messages(
            self.entry("A", rank=2, contains={"B"}),
            self.entry("B", contains={"C"}),
            self.entry("C", deg=-1),
        ) == ["A: Containment (not transitive: missing ['C'] below B)"]
