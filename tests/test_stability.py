"""Classifiers in all three formulations, the morphism table, and extensions."""

import random
from fractions import Fraction
from functools import reduce

import pytest

from higgs_lab import (
    AmbiguousMaximizerError,
    HiggsObjectModel,
    IncompleteTorsionClosureError,
    InvalidModelError,
    KahlerData,
    Notion,
    NumericalSheafData,
    PreconditionUnmetError,
    StabilityClass,
    StabilityVerdict,
    SubobjectEntry,
    chi_curve,
    direct_sum_model,
    gieseker_classify,
    gieseker_classify_by_quotients,
    gieseker_classify_tf_quotients,
    harder_narasimhan,
    normalized_p,
    slope_classify,
    sum_data,
    validate,
)
import higgs_lab.model
import higgs_lab.stability
from higgs_lab.model import realize

from conftest import (
    MorphismVerdict,
    ambiguous_model,
    check_extension_semistability,
    curve_chain,
    interval_quotient_model,
    morphism_verdict,
    oracle_tf_gate_passes,
    poly,
    random_chain_spec,
    shared_sheaf_model,
    surface_entry,
    surface_model,
    torsion_closure_model,
    twisted_chain,
)


def line_model(summands, entries):
    """E = the sum of O(d), d in summands, on the projective line, with entries (id, rank,
    degree, torsion length, contains); a positive length gives a torsion quotient."""
    kd = KahlerData.curve(0, 1)
    total = reduce(sum_data, (chi_curve(kd, 1, d) for d in summands))
    rows = []
    for eid, rank, degree, length, contains in entries:
        sub = chi_curve(kd, rank, degree)
        quotient = NumericalSheafData(total.rank - rank, total.deg_h - sub.deg_h,
                                      total.chi - sub.chi, torsion_free=not length)
        part = NumericalSheafData(0, Fraction(length), poly(length), False) if length else None
        rows.append(SubobjectEntry(eid, sub, quotient, part, contains))
    model = HiggsObjectModel("E", kd, total, tuple(rows))
    assert validate(model) == []
    return model


class TestGiesekerClassify:
    def test_hitchin_pair_stable(self):
        v = gieseker_classify(curve_chain(2, 1, (1, -1), arrows={(1, 2)}))
        assert v.classification is StabilityClass.STABLE
        assert v.witness is None

    def test_strictly_semistable_witness(self):
        v = gieseker_classify(curve_chain(1, 1, (0, 0)))
        assert v.classification is StabilityClass.STRICTLY_SEMISTABLE
        assert v.witness == "{1}"

    def test_unstable_witness(self):
        v = gieseker_classify(curve_chain(0, 1, (2, 0)))
        assert v.classification is StabilityClass.UNSTABLE
        assert v.witness == "{1}"

    def test_destabilizer_wins_over_an_earlier_equalizer(self):
        # in id order {1,3} ties the object before {2,3} destabilizes it
        for classify in (gieseker_classify, slope_classify):
            v = classify(curve_chain(1, 1, (-1, 0, 1)))
            assert (v.classification, v.witness) == (StabilityClass.UNSTABLE, "{2,3}")

    def test_rank_one_vacuously_stable(self):
        v = gieseker_classify(curve_chain(3, 2, (-4,)))
        assert v.classification is StabilityClass.STABLE

    def test_invalid_model_rejected(self):
        kd = KahlerData.curve(1, 1)
        bad = HiggsObjectModel(
            id="E",
            ambient=kd,
            data=chi_curve(kd, 2, 0),
            subobjects=(
                SubobjectEntry(
                    id="F", data=chi_curve(kd, 1, 1), quotient=chi_curve(kd, 1, 0)
                ),
            ),
        )
        with pytest.raises(InvalidModelError):
            gieseker_classify(bad)

    def test_witness_invariant_on_verdict_type(self):
        with pytest.raises(ValueError):
            StabilityVerdict(Notion.GIESEKER, StabilityClass.STABLE, witness="x")
        with pytest.raises(ValueError):
            StabilityVerdict(Notion.GIESEKER, StabilityClass.UNSTABLE, witness=None)


class TestGate:
    def test_each_model_is_scanned_once(self, monkeypatch):
        """Each distinct sheaf triple once per model, no rescan across the five classifiers."""
        scans = []
        original = higgs_lab.model._entry_violation

        def counting(model, entry):
            scans.append((model, entry))  # keeps models alive, so ids stay unique
            return original(model, entry)

        def triple(e):
            return id(e.data), id(e.quotient), id(e.quotient_torsion_part)

        monkeypatch.setattr(higgs_lab.model, "_entry_violation", counting)
        m = curve_chain(1, 1, (0, 0, 1))
        for classify in (
            gieseker_classify,
            gieseker_classify_by_quotients,
            gieseker_classify_tf_quotients,
            slope_classify,
            harder_narasimhan,
        ):
            classify(m)
        scanned = sorted(triple(e) for model, e in scans if model is m)
        assert scanned == sorted({triple(e) for e in m.subobjects})
        assert len(scanned) == 4 < len(m.subobjects)  # {1} and {2}, {1,3} and {2,3} share
        per_model = {}
        for model, e in scans:
            per_model.setdefault(id(model), []).append(triple(e))
        assert all(len(keys) == len(set(keys)) for keys in per_model.values())

    def test_each_formulation_is_classified_once_per_model(self, monkeypatch):
        """Repeat calls return the kept verdict; each formulation and each model runs its own."""
        notions = []
        original = higgs_lab.stability._classify

        def counting(notion, orders):
            notions.append(notion)
            return original(notion, orders)

        monkeypatch.setattr(higgs_lab.stability, "_classify", counting)
        classifiers = (gieseker_classify, gieseker_classify_by_quotients,
                       gieseker_classify_tf_quotients, slope_classify)
        m = curve_chain(1, 1, (0, 0, 1))
        first = [classify(m) for classify in classifiers]
        assert [classify(m) for classify in classifiers] == first
        assert [v.notion for v in first] == notions == [Notion.GIESEKER] * 3 + [Notion.SLOPE]
        assert [classify(curve_chain(1, 1, (0, 0, 1))) for classify in classifiers] == first
        assert len(notions) == 8


class TestPerSheafScans:
    """A classifier reads the model's distinct entries: each distinct sheaf is compared once,
    and the witness is the first offender in id order."""

    def test_each_classifier_compares_once_per_sheaf(self, monkeypatch):
        m = curve_chain(2, 1, (0,) * 8)
        assert len(m.subobjects) == 254
        assert len({id(e.data) for e in m.subobjects}) == 7
        calls = []
        for name in ("compare_p", "compare_slope"):
            real = getattr(higgs_lab.stability, name)
            monkeypatch.setattr(higgs_lab.stability, name,
                                lambda *args, real=real: calls.append(args) or real(*args))
        for classify in (gieseker_classify, gieseker_classify_by_quotients,
                         gieseker_classify_tf_quotients, slope_classify):
            calls.clear()
            verdict = classify(m)
            assert verdict.classification is StabilityClass.STRICTLY_SEMISTABLE
            assert verdict.witness == m.subobjects[0].id
            assert len(calls) == len({id(s) for pair in calls for s in pair if s is not m.data})
            assert len(calls) <= 7, classify

    def test_entries_sharing_a_sheaf_keep_the_first_witness(self):
        """b and c share one sheaf, and a is an earlier equalizer; see shared_sheaf_model."""
        m = shared_sheaf_model()
        assert validate(m) == [] and m.entry("b").data is m.entry("c").data
        for classify in (gieseker_classify, gieseker_classify_by_quotients,
                         gieseker_classify_tf_quotients, slope_classify):
            verdict = classify(m)
            assert (verdict.classification, verdict.witness) == (StabilityClass.UNSTABLE, "b")
        with pytest.raises(AmbiguousMaximizerError, match=r"\['b', 'c'\] above 0"):
            harder_narasimhan(m)


class TestSlopeClassify:
    def test_hitchin_pair(self):
        v = slope_classify(curve_chain(2, 1, (1, -1), arrows={(1, 2)}))
        assert v.classification is StabilityClass.STABLE

    def test_equal_slopes(self):
        v = slope_classify(curve_chain(1, 1, (0, 0)))
        assert v.classification is StabilityClass.STRICTLY_SEMISTABLE

    def test_unstable(self):
        v = slope_classify(curve_chain(0, 1, (2, 0)))
        assert v.classification is StabilityClass.UNSTABLE
        assert v.witness == "{1}"


class TestQuotientFormulation:
    def test_examples_agree(self):
        for model in (
            curve_chain(2, 1, (1, -1), arrows={(1, 2)}),
            curve_chain(1, 1, (0, 0)),
            curve_chain(0, 1, (2, 0)),
        ):
            direct = gieseker_classify(model)
            from_quotients = gieseker_classify_by_quotients(model)
            assert direct.classification is from_quotients.classification
            assert direct.witness == from_quotients.witness

    def test_fuzzed_agreement(self):
        rng = random.Random(21)
        for _ in range(300):
            model = realize(random_chain_spec(rng, 5, 3))
            direct = gieseker_classify(model)
            from_quotients = gieseker_classify_by_quotients(model)
            assert direct.classification is from_quotients.classification
            assert direct.witness == from_quotients.witness


class TestTorsionFreeFormulation:
    def test_chains_are_vacuous(self):
        model = curve_chain(0, 1, (2, 0))
        assert (
            gieseker_classify_tf_quotients(model).classification
            is gieseker_classify(model).classification
        )

    def test_destabilizing_enlargement(self):
        model = torsion_closure_model(strict=False)
        full = gieseker_classify(model)
        restricted = gieseker_classify_tf_quotients(model)
        assert full.classification is StabilityClass.UNSTABLE
        assert restricted.classification is StabilityClass.UNSTABLE
        assert restricted.witness == "Fp"

    def test_equalizing_enlargement(self):
        model = torsion_closure_model(strict=True)
        full = gieseker_classify(model)
        restricted = gieseker_classify_tf_quotients(model)
        assert full.classification is StabilityClass.STRICTLY_SEMISTABLE
        assert restricted.classification is StabilityClass.STRICTLY_SEMISTABLE
        assert restricted.witness == "Fp"

    def test_missing_closure_is_an_error(self):
        model = torsion_closure_model()
        only_f = HiggsObjectModel(
            id="E",
            ambient=model.ambient,
            data=model.data,
            subobjects=tuple(e for e in model.subobjects if e.id == "F"),
        )
        with pytest.raises(IncompleteTorsionClosureError):
            gieseker_classify_tf_quotients(only_f)

    def test_twisted_chains_keep_the_class(self):
        """The first theorem on chains with non-saturated entries S(-t).

        Every saturation declared: both formulations give one class.  One S struck:
        the gate raises exactly where the reference scan finds no enlargement.
        """
        rng, raised = random.Random(20), 0
        for _ in range(230):
            model, struck = twisted_chain(rng)
            assert validate(model) == [] and validate(struck) == []
            assert (gieseker_classify_tf_quotients(model).classification
                    is gieseker_classify(model).classification)
            if oracle_tf_gate_passes(struck):
                assert (gieseker_classify_tf_quotients(struck).classification
                        is gieseker_classify(struck).classification)
            else:
                raised += 1
                with pytest.raises(IncompleteTorsionClosureError):
                    gieseker_classify_tf_quotients(struck)
        assert 0 < raised < 230

    @pytest.mark.parametrize(
        "summands, entries, passes",
        [
            # G has the rank and chi of F's saturation O but does not contain F
            ((0, -2), [("F", 1, -1, 1, ()), ("G", 1, 0, 0, ())], True),
            # O(-1) and O(-2) both saturate to Fp = O
            ((0, -2), [("F1", 1, -1, 1, ("F2",)), ("F2", 1, -2, 2, ()),
                       ("Fp", 1, 0, 0, ("F1", "F2"))], True),
            # G's chi 1 + 2k takes the saturation's value at k = 0, but G has rank 2
            ((0, -2, -2), [("F", 1, -1, 1, ()), ("G", 2, -1, 0, ())], False),
        ],
        ids=["unrelated-stand-in", "shared-saturation", "other-rank"],
    )
    def test_hand_built_gate_cases(self, summands, entries, passes):
        model = line_model(summands, entries)
        assert oracle_tf_gate_passes(model) is passes
        if passes:
            assert (gieseker_classify_tf_quotients(model).classification
                    is gieseker_classify(model).classification)
        else:
            with pytest.raises(IncompleteTorsionClosureError):
                gieseker_classify_tf_quotients(model)


class TestLadder:
    def test_surface_slope_stable_implies_gieseker_stable(self):
        total = surface_model("S", 2, 0, 0)
        entry = surface_entry("F", total.data, 1, -1, 7)
        model = HiggsObjectModel(
            id="S", ambient=total.ambient, data=total.data, subobjects=(entry,)
        )
        assert slope_classify(model).classification is StabilityClass.STABLE
        assert gieseker_classify(model).classification is StabilityClass.STABLE

    def test_surface_gieseker_unstable_slope_semistable(self):
        # equal slopes but a bigger constant term: the notions split in dim 2
        total = surface_model("S", 2, 0, 0)
        entry = surface_entry("F", total.data, 1, 0, 3)
        model = HiggsObjectModel(
            id="S", ambient=total.ambient, data=total.data, subobjects=(entry,)
        )
        assert gieseker_classify(model).classification is StabilityClass.UNSTABLE
        assert (
            slope_classify(model).classification is StabilityClass.STRICTLY_SEMISTABLE
        )

    def test_fuzzed_ladder(self):
        rng = random.Random(22)
        for _ in range(300):
            model = realize(random_chain_spec(rng, 5, 3))
            g = gieseker_classify(model)
            s = slope_classify(model)
            if s.classification is StabilityClass.STABLE:
                assert g.classification is StabilityClass.STABLE
            if g.semistable:
                assert s.semistable


class TestDimensionOneCoincidence:
    def test_fuzzed_curves(self):
        rng = random.Random(23)
        for _ in range(400):
            model = realize(random_chain_spec(rng, 6, 3))
            assert (
                gieseker_classify(model).classification
                is slope_classify(model).classification
            )


class TestMorphismVerdict:
    def test_target_precedes_source(self):
        assert (
            morphism_verdict(poly(1, 1), poly(0, 1), False, False)
            is MorphismVerdict.MUST_BE_ZERO
        )

    def test_equal_with_stable_source(self):
        assert (
            morphism_verdict(poly(1, 1), poly(1, 1), True, False)
            is MorphismVerdict.ZERO_OR_INJECTIVE
        )

    def test_equal_with_stable_target(self):
        assert (
            morphism_verdict(poly(1, 1), poly(1, 1), False, True)
            is MorphismVerdict.ZERO_OR_GENERICALLY_SURJECTIVE
        )

    def test_both_stable_reports_injective(self):
        assert (
            morphism_verdict(poly(1, 1), poly(1, 1), True, True)
            is MorphismVerdict.ZERO_OR_INJECTIVE
        )

    def test_source_precedes_target(self):
        assert (
            morphism_verdict(poly(0, 1), poly(1, 1), False, False)
            is MorphismVerdict.NO_CONSTRAINT
        )

    def test_equal_neither_stable(self):
        assert (
            morphism_verdict(poly(1, 1), poly(1, 1), False, False)
            is MorphismVerdict.NO_CONSTRAINT
        )


class TestExtension:
    def test_direct_sum_of_equal_lines(self):
        kd = KahlerData.curve(1, 1)
        a = HiggsObjectModel(id="a", ambient=kd, data=chi_curve(kd, 1, 0), subobjects=())
        b = HiggsObjectModel(id="b", ambient=kd, data=chi_curve(kd, 1, 0), subobjects=())
        assert check_extension_semistability(a, b, direct_sum_model(a, b))

    def test_chain_extension(self):
        model = curve_chain(1, 1, (0, 0), arrows={(1, 2)})
        sub = interval_quotient_model(model, "{2}", None)
        quotient = interval_quotient_model(model, model.id, "{2}")
        assert normalized_p(sub.data) == normalized_p(quotient.data) == poly(0, 1)
        assert check_extension_semistability(sub, quotient, model)

    def test_unequal_p_rejected(self):
        kd = KahlerData.curve(1, 1)
        a = HiggsObjectModel(id="a", ambient=kd, data=chi_curve(kd, 1, 0), subobjects=())
        b = HiggsObjectModel(id="b", ambient=kd, data=chi_curve(kd, 1, 1), subobjects=())
        with pytest.raises(PreconditionUnmetError):
            check_extension_semistability(a, b, direct_sum_model(a, b))

    def test_unstable_piece_rejected(self):
        bad = curve_chain(0, 1, (2, 0))
        good = curve_chain(0, 1, (1, 1))
        with pytest.raises(PreconditionUnmetError):
            check_extension_semistability(bad, good, direct_sum_model(bad, good))


class TestStrictlySemistableWitness:
    def test_witness_has_equal_p_and_torsion_free_quotient(self):
        rng = random.Random(24)
        seen = 0
        for _ in range(400):
            model = realize(random_chain_spec(rng, 5, 2))
            v = gieseker_classify(model)
            if v.classification is not StabilityClass.STRICTLY_SEMISTABLE:
                continue
            seen += 1
            entry = model.entry(v.witness)
            assert normalized_p(entry.data) == normalized_p(model.data)
            assert entry.quotient.torsion_free
            # both sides of the witness split are semistable with the same p
            sub = interval_quotient_model(model, v.witness, None)
            quotient = interval_quotient_model(model, model.id, v.witness)
            assert gieseker_classify(sub).semistable
            assert gieseker_classify(quotient).semistable
            assert normalized_p(quotient.data) == normalized_p(model.data)
        assert seen > 5

    def test_closed_torsion_fixture_witness(self):
        model = torsion_closure_model(strict=True)
        v = gieseker_classify(model)
        assert v.classification is StabilityClass.STRICTLY_SEMISTABLE
        assert model.entry(v.witness).quotient.torsion_free


def test_ambiguous_model_still_classifies():
    # classification only needs the order, not a unique maximizer
    v = gieseker_classify(ambiguous_model())
    assert v.classification is StabilityClass.UNSTABLE
    assert v.witness == "A"
