"""Jordan-Holder and Harder-Narasimhan construction, gradings, verification."""

import gc
import random
from fractions import Fraction
from itertools import permutations

import pytest

from higgs_lab import (
    AmbiguousMaximizerError,
    ChainBoundError,
    Filtration,
    FiltrationKind,
    HiggsObjectModel,
    InvalidModelError,
    KahlerData,
    NotSemistableError,
    NumericalSheafData,
    PreconditionUnmetError,
    StabilityClass,
    SubobjectEntry,
    TooLargeError,
    UnknownIdError,
    all_harder_narasimhan,
    all_jordan_holder,
    chi_curve,
    direct_sum_model,
    filtration,
    gieseker_classify,
    grading,
    harder_narasimhan,
    interval_quotient_model,
    jordan_holder,
    normalized_p,
    s_equivalent,
    validate,
    verify_filtration,
)
from higgs_lab.fuzz import random_chain_spec
from higgs_lab.model import realize

from conftest import (
    ambiguous_model,
    curve_chain,
    induced_model_failure,
    oracle_hn_chains,
    oracle_jh_chains,
    poly,
    surface_entry,
    surface_model,
    torsion_closure_model,
    torsion_step_model,
)


class TestInducedSubmodel:
    """A subobject's own model: interval_quotient_model with the zero bottom."""

    def test_chain_restriction(self):
        m = curve_chain(1, 1, (0, 0, 0), arrows={(1, 2), (2, 3)})
        sub = interval_quotient_model(m, "{2,3}", None)
        assert [e.id for e in sub.subobjects] == ["{3}"]
        entry = sub.subobjects[0]
        assert entry.quotient.chi == poly(0, 1)

    def test_no_declared_subobjects(self):
        m = curve_chain(2, 1, (1, -1), arrows={(1, 2)})
        sub = interval_quotient_model(m, "{2}", None)
        assert sub.subobjects == ()
        assert sub.data.rank == 1

    def test_unknown_id(self):
        with pytest.raises(UnknownIdError):
            interval_quotient_model(curve_chain(1, 1, (0, 0)), "{9}", None)


def interval_fixtures():
    """Valid models with every kind of entry the fixtures declare, plus 300 fuzzed chains."""
    surface = surface_model("S", 2, 0, 0)
    models = [
        torsion_closure_model(strict=False),
        torsion_closure_model(strict=True),
        ambiguous_model(),
        curve_chain(1, 1, (0, 0, 0)),
        curve_chain(2, 1, (1, 0, -1), arrows={(1, 2), (2, 3)}),
        direct_sum_model(curve_chain(1, 1, (0, 0)), curve_chain(1, 1, (1,), object_id="L")),
    ]
    models += [
        surface_model("S", 2, 0, 0, [surface_entry("F", surface.data, 1, deg_h, constant)])
        for deg_h, constant in ((-1, 7), (0, 3), (0, 0))
    ]
    rng = random.Random(38)
    models += [realize(random_chain_spec(rng, 5, 2)) for _ in range(300)]
    return models


def steps_of_positive_rank(model):
    """Every (upper, lower) pair of steps, lower below upper, of positive rank difference."""
    rank = {e.id: e.data.rank for e in model.subobjects}
    below = {model.id: sorted(rank), **{e.id: sorted(e.contains) for e in model.subobjects}}
    rank.update({None: 0, model.id: model.data.rank})
    for upper, lowers in below.items():
        for lower in [None, *lowers]:
            if rank[lower] < rank[upper]:
                yield upper, lower


class TestIntervals:
    """Validating the parent makes every torsion-free interval of positive rank valid."""

    def test_interval_models_validate_and_match_the_step_verdict(self):
        # an interval model is valid exactly when the step rule finds no torsion
        # in the quotient; on the valid ones the verdicts agree
        checked = torsion = 0
        for m in interval_fixtures():
            assert validate(m) == [], m.id
            for upper, lower in steps_of_positive_rank(m):
                interval = interval_quotient_model(m, upper, lower)
                quotient = filtration._step_quotient(m, upper, lower)
                kinds = {
                    v.kind
                    for v in filtration._step_violations(
                        m, FiltrationKind.HN, upper, lower, quotient, None
                    )
                }
                has_torsion = "QuotientTorsion" in kinds
                assert (validate(interval) == []) is not has_torsion, (m.id, upper, lower)
                checked += 1
                if has_torsion:
                    torsion += 1
                    continue
                expected = gieseker_classify(interval)
                verdict = filtration._verdict(filtration._interval(m, upper, lower), quotient)
                assert (verdict.classification, verdict.witness) == (
                    expected.classification,
                    expected.witness,
                ), (m.id, upper, lower)
        assert checked > 3000 and torsion > 0

    def test_equal_rank_containment_of_larger_chi_is_rejected(self):
        # A contains B of equal rank and larger degree: A/B would be torsion of
        # negative chi, so the model is invalid and no search or check runs on it
        m = induced_model_failure()
        assert [(v.subject, v.kind) for v in validate(m)] == [("A", "Containment")]
        through_a = Filtration(
            FiltrationKind.HN, ("A", "E"), (m.entry("A").data, m.entry("A").quotient)
        )
        for run in (
            all_harder_narasimhan,
            all_jordan_holder,
            harder_narasimhan,
            jordan_holder,
            lambda model: verify_filtration(model, through_a),
        ):
            with pytest.raises(InvalidModelError, match="A: Containment .*B of equal rank"):
                run(m)

    @pytest.mark.parametrize("torsion_free", [True, False])
    def test_full_rank_entry_with_negative_quotient_chi_is_rejected(self, torsion_free):
        kd = KahlerData.curve(1, 1)
        quotient = NumericalSheafData(0, Fraction(-1), poly(-1), torsion_free=torsion_free)
        entry = SubobjectEntry(
            id="F",
            data=chi_curve(kd, 1, 1),
            quotient=quotient,
            quotient_torsion_part=None if torsion_free else quotient,
        )
        m = HiggsObjectModel(id="E", ambient=kd, data=chi_curve(kd, 1, 0), subobjects=(entry,))
        assert [(v.subject, v.kind) for v in validate(m)] == [("F", "TorsionQuotient")]
        with pytest.raises(InvalidModelError, match="F: TorsionQuotient"):
            all_harder_narasimhan(m)


class TestTorsionSteps:
    """A step whose quotient has torsion is no JH or HN step."""

    def test_only_the_saturated_step_is_an_hn_step(self):
        m = torsion_step_model()
        assert validate(m) == []
        assert [f.steps for f in all_harder_narasimhan(m)] == [("Fp", "E")]
        assert harder_narasimhan(m).steps == ("Fp", "E")

    def test_verify_rejects_the_step_through_the_torsion_quotient(self):
        m = torsion_step_model()
        through_f = filtration._filtration(m, FiltrationKind.HN, ("F", "E"))
        assert [(v.subject, v.kind) for v in verify_filtration(m, through_f)] == [
            ("E", "QuotientTorsion")
        ]


class TestJordanHolder:
    def test_stable_object_is_its_own_grading(self):
        m = curve_chain(2, 1, (1, -1), arrows={(1, 2)})
        f = jordan_holder(m)
        assert f.steps == ("E",)
        assert f.quotients[0] == m.data

    def test_two_line_tie_break(self):
        f = jordan_holder(curve_chain(1, 1, (0, 0)))
        assert f.steps == ("E", "{1}")
        assert [q.rank for q in f.quotients] == [1, 1]
        assert all(q.chi == poly(0, 1) for q in f.quotients)

    def test_three_lines(self):
        f = jordan_holder(curve_chain(1, 1, (0, 0, 0)))
        assert len(f.steps) == 3
        assert [q.rank for q in f.quotients] == [1, 1, 1]

    def test_unstable_rejected(self):
        with pytest.raises(NotSemistableError):
            jordan_holder(curve_chain(0, 1, (2, 0)))

    def test_intermediate_steps_semistable_with_equal_p(self):
        for m in (
            curve_chain(1, 1, (0, 0, 0)),
            curve_chain(1, 1, (0, 0, 0, 0)),
            curve_chain(0, 1, (1, 1, 1)),
        ):
            p_total = normalized_p(m.data)
            f = jordan_holder(m)
            for step in f.steps[1:]:
                inner = interval_quotient_model(m, step, None)
                assert gieseker_classify(inner).semistable
                assert normalized_p(inner.data) == p_total

    def test_first_quotient_has_minimal_rank(self):
        # among equal-p quotients the first one produced is minimal
        fixtures = [
            curve_chain(1, 1, (0, 0)),
            curve_chain(1, 1, (0, 0, 0)),
            curve_chain(1, 1, (0, 0, 0, 0)),
            curve_chain(0, 1, (1, 1, 1)),
            curve_chain(1, 1, (2, 2), arrows={(1, 2)}),
        ]
        rng = random.Random(31)
        for _ in range(300):
            m = realize(random_chain_spec(rng, 5, 2))
            if gieseker_classify(m).classification is StabilityClass.STRICTLY_SEMISTABLE:
                fixtures.append(m)
        checked = 0
        for m in fixtures:
            if gieseker_classify(m).classification is not StabilityClass.STRICTLY_SEMISTABLE:
                continue
            p_total = normalized_p(m.data)
            equal_p_quotient_ranks = [
                e.quotient.rank
                for e in m.subobjects
                if 0 < e.quotient.rank < m.data.rank
                and normalized_p(e.quotient) == p_total
            ]
            f = jordan_holder(m)
            assert f.quotients[0].rank == min(equal_p_quotient_ranks)
            checked += 1
        assert checked >= 5


class TestAllJordanHolder:
    def test_two_lines_give_two_chains(self):
        m = curve_chain(1, 1, (0, 0))
        chains = all_jordan_holder(m)
        assert [f.steps for f in chains] == [("E", "{1}"), ("E", "{2}")]
        oracle = oracle_jh_chains(m)
        assert {f.steps for f in oracle} == {f.steps for f in chains}

    def test_stable_gives_one(self):
        assert len(all_jordan_holder(curve_chain(2, 1, (1, -1), arrows={(1, 2)}))) == 1

    def test_three_lines_give_six(self):
        m = curve_chain(1, 1, (0, 0, 0))
        chains = all_jordan_holder(m)
        assert len(chains) == 6
        oracle = oracle_jh_chains(m)
        assert {f.steps for f in oracle} == {f.steps for f in chains}

    def test_matches_oracle_on_fuzzed_models(self):
        rng = random.Random(32)
        for _ in range(120):
            m = realize(random_chain_spec(rng, 4, 2))
            if not gieseker_classify(m).semistable:
                continue
            chains = all_jordan_holder(m)
            oracle = oracle_jh_chains(m)
            assert {f.steps for f in oracle} == {f.steps for f in chains}

    def test_chain_bound(self, monkeypatch):
        monkeypatch.setenv("HIGGS_LAB_MAX_CHAINS", "2")
        m = curve_chain(1, 1, (0, 0, 0))
        with pytest.raises(TooLargeError, match="more than 2 search nodes"):
            all_jordan_holder(m)
        with pytest.raises(TooLargeError, match="more than 2 search nodes"):
            all_harder_narasimhan(m)

    @pytest.mark.parametrize("value", ["abc", "0", "-5", "2.5"])
    def test_chain_bound_must_be_a_positive_integer(self, monkeypatch, value):
        monkeypatch.setenv("HIGGS_LAB_MAX_CHAINS", value)
        m = curve_chain(1, 1, (0, 0))
        with pytest.raises(ChainBoundError, match="HIGGS_LAB_MAX_CHAINS"):
            all_jordan_holder(m)
        with pytest.raises(ChainBoundError, match="HIGGS_LAB_MAX_CHAINS"):
            all_harder_narasimhan(m)

    def test_unstable_rejected(self):
        with pytest.raises(NotSemistableError):
            all_jordan_holder(curve_chain(0, 1, (2, 0)))

    @pytest.mark.parametrize("search", [all_jordan_holder, all_harder_narasimhan])
    def test_search_leaves_no_reference_cycles(self, search):
        """A dropped result is freed at once, not left for the cycle collector."""
        m = curve_chain(1, 1, (0,) * 5)
        gc.collect()
        gc.disable()
        try:
            assert len(search(m)) >= 1
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestGradingAndSEquivalence:
    def test_reflexive(self):
        m = curve_chain(1, 1, (0, 0))
        assert s_equivalent(m, m)

    def test_arrows_do_not_change_grading(self):
        plain = curve_chain(1, 1, (0, 0))
        arrowed = curve_chain(1, 1, (0, 0), arrows={(1, 2)})
        assert s_equivalent(plain, arrowed)

    def test_different_grading(self):
        split = curve_chain(1, 1, (0, 0))
        # both arrows close every coordinate subobject out of the family
        irreducible = curve_chain(1, 1, (0, 0), arrows={(1, 2), (2, 1)})
        assert gieseker_classify(irreducible).classification is StabilityClass.STABLE
        assert not s_equivalent(split, irreducible)

    def test_grading_invariance_on_fuzzed_models(self):
        rng = random.Random(33)
        for _ in range(150):
            m = realize(random_chain_spec(rng, 5, 2))
            if not gieseker_classify(m).semistable:
                continue
            gradings = {grading(f) for f in all_jordan_holder(m)}
            assert len(gradings) == 1

    def test_precondition(self):
        a = curve_chain(1, 1, (0, 0))
        b = curve_chain(1, 1, (1, 1))
        with pytest.raises(PreconditionUnmetError):
            s_equivalent(a, b)


class TestHarderNarasimhan:
    def test_two_step_chain(self):
        f = harder_narasimhan(curve_chain(0, 1, (2, 0)))
        assert f.steps == ("{1}", "E")
        assert [normalized_p(q) for q in f.quotients] == [poly(3, 1), poly(1, 1)]

    def test_semistable_is_one_step(self):
        f = harder_narasimhan(curve_chain(1, 1, (0, 0)))
        assert f.steps == ("E",)

    def test_maximal_rank_wins_ties(self):
        f = harder_narasimhan(curve_chain(0, 1, (2, 2, 0)))
        assert f.steps == ("{1,2}", "E")
        assert f.quotients[0].rank == 2
        assert normalized_p(f.quotients[0]) == poly(3, 1)

    def test_quotient_polynomials_strictly_decrease(self):
        rng = random.Random(34)
        for _ in range(200):
            m = realize(random_chain_spec(rng, 5, 2))
            f = harder_narasimhan(m)
            ps = [normalized_p(q) for q in f.quotients]
            for a, b in zip(ps, ps[1:]):
                assert b.eventually_less(a)

    def test_conservation(self):
        rng = random.Random(35)
        for _ in range(200):
            m = realize(random_chain_spec(rng, 5, 2))
            for f in (harder_narasimhan(m),):
                assert sum(q.rank for q in f.quotients) == m.data.rank
                total = poly()
                for q in f.quotients:
                    total = total + q.chi
                assert total == m.data.chi

    def test_unique_by_exhaustive_search(self):
        rng = random.Random(36)
        for _ in range(150):
            m = realize(random_chain_spec(rng, 4, 2))
            f = harder_narasimhan(m)
            every = all_harder_narasimhan(m)
            assert every == [f] or (len(every) == 1 and every[0] == f)

    def test_ambiguous_maximizer(self):
        with pytest.raises(AmbiguousMaximizerError):
            harder_narasimhan(ambiguous_model())


class TestAllHarderNarasimhan:
    def test_matches_oracle_on_fuzzed_models(self):
        rng = random.Random(37)
        models = [realize(random_chain_spec(rng, 4, 2)) for _ in range(150)]
        for m in models + [ambiguous_model()]:
            chains = all_harder_narasimhan(m)
            assert {f.steps for f in chains} == {f.steps for f in oracle_hn_chains(m)}
            assert len(chains) == len({f.steps for f in chains})


class TestVerifyFiltration:
    def test_constructed_chains_verify(self):
        m = curve_chain(0, 1, (2, 0))
        assert verify_filtration(m, harder_narasimhan(m)) == []
        ss = curve_chain(1, 1, (0, 0))
        assert verify_filtration(ss, jordan_holder(ss)) == []

    def test_reordered_hn_steps(self):
        m = curve_chain(0, 1, (2, 0))
        bad = Filtration(
            FiltrationKind.HN,
            ("{2}", "E"),
            (
                m.entry("{2}").data,
                m.entry("{2}").quotient,
            ),
        )
        kinds = [v.kind for v in verify_filtration(m, bad)]
        assert "StrictDecrease" in kinds

    def test_jh_quotient_with_wrong_p(self):
        m = curve_chain(2, 1, (1, -1), arrows={(1, 2)})
        bad = Filtration(
            FiltrationKind.JH,
            ("E", "{2}"),
            (m.entry("{2}").quotient, m.entry("{2}").data),
        )
        kinds = [v.kind for v in verify_filtration(m, bad)]
        assert kinds.count("EqualP") == 2

    def test_broken_chain_detected(self):
        m = curve_chain(1, 1, (0, 0, 0))
        bad = Filtration(
            FiltrationKind.JH,
            ("E", "{1}", "{2}"),
            tuple(jordan_holder(m).quotients),
        )
        kinds = [v.kind for v in verify_filtration(m, bad)]
        assert "Chain" in kinds

    def test_wrong_quotient_data(self):
        m = curve_chain(1, 1, (0, 0))
        good = jordan_holder(m)
        bad = Filtration(
            FiltrationKind.JH,
            good.steps,
            (good.quotients[1], good.quotients[0].__class__(
                good.quotients[0].rank,
                good.quotients[0].deg_h + 1,
                good.quotients[0].chi,
                torsion_free=True,
            )),
        )
        kinds = [v.kind for v in verify_filtration(m, bad)]
        assert "QuotientData" in kinds
