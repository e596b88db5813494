"""Jordan-Holder and Harder-Narasimhan construction, gradings, verification."""

import dataclasses
import gc
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from higgs_lab import (
    AmbiguousMaximizerError,
    EventualOrder,
    Filtration,
    FiltrationKind,
    HiggsObjectModel,
    InvalidModelError,
    KahlerData,
    NotSemistableError,
    Notion,
    NumericalSheafData,
    PreconditionUnmetError,
    StabilityClass,
    SubobjectEntry,
    TooLargeError,
    all_harder_narasimhan,
    all_jordan_holder,
    chi_curve,
    compare_p,
    filtration,
    gieseker_classify,
    grading,
    harder_narasimhan,
    jordan_holder,
    jordan_holder_census,
    load,
    normalized_p,
    s_equivalent,
    stability,
    validate,
    verify_filtration,
)
from higgs_lab.model import Violation, realize
from higgs_lab.modelfile import LoadedObject, loads

from conftest import (
    UnknownIdError,
    ambiguous_model,
    curve_chain,
    induced_model_failure,
    interval_quotient_model,
    kahler_to_json,
    model_to_json,
    oracle_direct_sum,
    oracle_hn_chains,
    oracle_jh_chains,
    oracle_jordan_holder,
    poly,
    random_chain_spec,
    shared_sheaf_model,
    spy_on_steps,
    surface_entry,
    surface_model,
    torsion_closure_model,
    torsion_step_model,
)

HITCHIN_PAIR = Path(__file__).parents[1] / "docs" / "hitchin_pair.json"


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
    kd = KahlerData.curve(1, 1)
    line = chi_curve(kd, 1, 0)
    # A contains B of the same invariants, so B has the full rank of the step A over zero
    twins = (SubobjectEntry("A", line, line, claims={"B"}), SubobjectEntry("B", line, line))
    models = [
        HiggsObjectModel(id="E", ambient=kd, data=chi_curve(kd, 2, 0), subobjects=twins),
        torsion_closure_model(strict=False),
        torsion_closure_model(strict=True),
        ambiguous_model(),
        curve_chain(1, 1, (0, 0, 0)),
        curve_chain(2, 1, (1, 0, -1), arrows={(1, 2), (2, 3)}),
        oracle_direct_sum(curve_chain(1, 1, (0, 0)), curve_chain(1, 1, (1,), object_id="L")),
    ]
    models += [
        surface_model("S", 2, 0, 0, [surface_entry("F", surface.data, 1, deg_h, constant)])
        for deg_h, constant in ((-1, 7), (0, 3), (0, 0))
    ]
    rng = random.Random(38)
    models += [realize(random_chain_spec(rng, 5, 2)) for _ in range(300)]
    return models


def every_step(model):
    """Every (upper, lower) pair of steps, lower strictly below upper or None for zero."""
    below = {model.id: [e.id for e in model.subobjects]}
    below.update((e.id, sorted(e.contains)) for e in model.subobjects)
    for upper, lowers in below.items():
        for lower in [None, *lowers]:
            yield upper, lower


def steps_of_positive_rank(model):
    """Every (upper, lower) pair of steps, lower below upper, of positive rank difference."""
    rank = {e.id: e.data.rank for e in model.subobjects}
    rank.update({None: 0, model.id: model.data.rank})
    return [(u, l) for u, l in every_step(model) if rank[l] < rank[u]]


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
                    for v in filtration._step_violations(m, FiltrationKind.HN, upper, lower,
                                                         quotient)
                }
                has_torsion = "QuotientTorsion" in kinds
                assert (validate(interval) == []) is not has_torsion, (m.id, upper, lower)
                checked += 1
                if has_torsion:
                    torsion += 1
                    continue
                expected = gieseker_classify(interval)
                orders = filtration._orders(m, upper, lower, quotient)
                verdict = stability._classify(Notion.GIESEKER, orders)
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


class TestStepQuery:
    """The search's one step query, whether _step_violations yields a first violation,
    against the classification of the oracle's interval model.
    """

    def test_query_matches_the_explainer_on_every_step(self):
        rng = random.Random(39)
        fuzzed = [random_chain_spec(rng, 5, 3) for _ in range(300)]
        assert sum(bool(spec.arrows) for spec in fuzzed) > 150
        models = interval_fixtures() + [torsion_step_model()] + [realize(s) for s in fuzzed]
        seen = Counter()
        for m in models:
            for upper, lower in every_step(m):
                quotient = filtration._step_quotient(m, upper, lower)
                oracle = None  # the interval's class, on steps of positive rank without torsion
                if quotient.rank > 0:
                    interval = interval_quotient_model(m, upper, lower)
                    if validate(interval) == []:
                        oracle = gieseker_classify(interval).classification
                equal_p = quotient.rank > 0 and compare_p(quotient, m.data) is EventualOrder.EQUAL
                want = {
                    FiltrationKind.JH: equal_p and oracle is StabilityClass.STABLE,
                    FiltrationKind.HN: oracle not in (None, StabilityClass.UNSTABLE),
                }
                for kind in FiltrationKind:
                    first = next(filtration._step_violations(m, kind, upper, lower, quotient), None)
                    assert (first is None) is want[kind], (m.id, kind, upper, lower, first, oracle)
                    seen[kind, first.kind if first else "pass"] += 1
        for kind in ("QuotientRank", "QuotientTorsion", "pass"):
            assert seen[FiltrationKind.JH, kind] and seen[FiltrationKind.HN, kind], seen
        assert seen[FiltrationKind.JH, "EqualP"] and seen[FiltrationKind.JH, "QuotientStable"]
        assert seen[FiltrationKind.HN, "QuotientSemistable"], seen

    @staticmethod
    def counted_queries(monkeypatch):
        """The (upper, lower) steps _step_violations is asked, from here on."""
        queries = []
        real = filtration._step_violations

        def counted(model, kind, upper, lower, quotient):
            queries.append((upper, lower))
            return real(model, kind, upper, lower, quotient)

        monkeypatch.setattr(filtration, "_step_violations", counted)
        return queries

    @pytest.mark.parametrize("size, jh_chains", [(5, 120), (6, 720)])
    def test_one_query_per_distinct_step(self, monkeypatch, size, jh_chains):
        # JH reaches every (upper, lower) pair of nested index sets, 3^m - 2^m, but every
        # entry is a blocker, so the JH cut drops each lower with an index set strictly
        # between it and upper: only steps that drop one summand are queried, one for
        # each summand of each upper, the object included, so m * 2^(m-1) in all.
        # HN queries the object over zero alone: every entry L has p(L) equal to
        # p(E/L), not above it, so the HN cut drops L before its query, 1 in all.
        queries = self.counted_queries(monkeypatch)
        m = curve_chain(1, 1, (0,) * size)
        for search, chains, steps in (
            (all_jordan_holder, jh_chains, size * 2 ** (size - 1)),
            (lambda m: [None] * jordan_holder_census(m)[0], jh_chains, size * 2 ** (size - 1)),
            (all_harder_narasimhan, 1, 1),
        ):
            queries.clear()
            assert len(search(m)) == chains
            assert len(queries) == len(set(queries)) == steps

    @pytest.mark.parametrize("size, chains, steps", [(7, 5040, 448), (8, 40320, 1024)])
    def test_the_census_queries_only_steps_that_drop_one_summand(
        self, monkeypatch, size, chains, steps
    ):
        # m * 2^(m-1), as above; without the JH cut 3^m - 2^m: 2,059 and 6,305
        queries = self.counted_queries(monkeypatch)
        assert jordan_holder_census(curve_chain(1, 1, (0,) * size))[0] == chains
        assert len(queries) == len(set(queries)) == steps == size * 2 ** (size - 1)

    def test_each_pair_of_sheaves_is_derived_once_per_model(self, monkeypatch):
        # construction, verification, both searches and the census share each quotient
        # by its two sheaves, so steps between entries of equal sheaves share one
        delta, step_quotient = filtration._sheaf_delta, filtration._step_quotient

        def derive(a, b):
            deltas.append((id(a), id(b)))
            return delta(a, b)

        def step(model, upper, lower):
            steps.add((upper, lower))
            return step_quotient(model, upper, lower)

        monkeypatch.setattr(filtration, "_sheaf_delta", derive)
        monkeypatch.setattr(filtration, "_step_quotient", step)
        for degrees, builds in (((0, 0, 1, 2), (harder_narasimhan, all_harder_narasimhan)),
                                ((0, 0, 0), (jordan_holder, all_jordan_holder))):
            m, deltas, steps = curve_chain(1, 1, degrees), [], set()
            for build in builds * 2:
                found = build(m)
                for filt in found if isinstance(found, list) else [found]:
                    assert verify_filtration(m, filt) == []
            if jordan_holder in builds:
                assert jordan_holder_census(m)[0] == 6
            # every sheaf is held by m, so its id() names it for the whole test
            assert len(deltas) == len(set(deltas)) > 1
            assert not any(isinstance(key, tuple) for key in m._memo), list(m._memo)
        derived = len(deltas)
        assert derived < len({(u, l) for u, l in steps if l is not None}), derived

    @pytest.mark.parametrize("size, jh_chains", [(5, 120), (6, 720)])
    def test_lowers_listed_once_per_upper(self, monkeypatch, size, jh_chains):
        # every nested index set is an upper: 2^m - 1 of them, each listed once
        # and queried once over zero; the parent listed one upper per prefix
        listings = []
        scan = filtration._orders

        def counted(model, upper, lower, quotient):  # the step scan lists upper's entries
            if lower is None:
                listings.append(upper)
            return scan(model, upper, lower, quotient)

        def depth_first(f):  # each step's place among [None, *lowers] of the step above
            steps = [*filtration._downward(f.kind, f.steps), None]
            return [[None, *(e.id for e in filtration._below_list(m, upper))].index(lower)
                    for upper, lower in zip(steps, steps[1:])]

        monkeypatch.setattr(filtration, "_orders", counted)
        m = curve_chain(1, 1, (0,) * size)
        for search, chains in ((all_jordan_holder, jh_chains), (all_harder_narasimhan, 1)):
            listings.clear()
            found = search(m)
            assert len(found) == chains and found == sorted(found, key=depth_first)
            assert 0 < len(listings) <= 2 * (2**size - 1)


def unshared(model):
    """A twin of model whose entries hold value-equal copies of their sheaves, none shared."""
    copy = lambda part: part and dataclasses.replace(part)
    return HiggsObjectModel(model.id, model.ambient, copy(model.data), tuple(
        dataclasses.replace(e, data=copy(e.data), quotient=copy(e.quotient),
                            quotient_torsion_part=copy(e.quotient_torsion_part))
        for e in model.subobjects), model.family_complete)


def outcome(build, model):
    """What build returns on model, or the type and message of what it raises."""
    try:
        return build(model)
    except (ValueError, RuntimeError) as error:
        return type(error), str(error)


class TestSharing:
    """Filtrations read sheaves by value: sharing them between entries changes no answer."""

    @staticmethod
    def models():
        rng = random.Random(29)
        arrowed = [spec for spec in (random_chain_spec(rng, 6, 3) for _ in range(120))
                   if spec.arrows][:60]
        # {1,2} and {3,4}, then {1,4} and {2,3}, hold one sheaf, but only the first is stable
        split = [curve_chain(2, 1, (1, -1, 0, 0), {(1, 2)}),
                 curve_chain(2, 1, (0, 1, -1, 0), {(2, 3)})]
        return ([realize(spec) for spec in arrowed] + split + [shared_sheaf_model()]
                + [curve_chain(1, 1, (0,) * size) for size in range(2, 7)])

    def test_an_unshared_twin_gives_the_same_filtrations(self):
        seen = Counter()
        for m in self.models():
            twin = unshared(m)
            assert len(twin.distinct) == len(twin.subobjects)
            for build in (jordan_holder, harder_narasimhan, all_harder_narasimhan,
                          all_jordan_holder, jordan_holder_census):
                got = outcome(build, m)
                assert got == outcome(build, twin), (m.id, build.__name__)
                seen[build.__name__, isinstance(got, tuple) and got[0] is NotSemistableError] += 1
            # every JH and HN chain through one entry, valid or not, by its violations
            for e in m.subobjects:
                for kind in FiltrationKind:
                    steps = (e.id, m.id) if kind is FiltrationKind.HN else (m.id, e.id)
                    filt = filtration._filtration(m, kind, steps)
                    found = verify_filtration(m, filt)
                    assert found == verify_filtration(twin, filt), (m.id, e.id)
                    seen["violations", bool(found)] += 1
        assert seen["jordan_holder", True] and seen["jordan_holder", False], seen
        assert seen["violations", True] and seen["violations", False], seen


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


def torsion_and_destabilizer_model(destabilizer, torsion):
    """O(10) + O(3) + O on the projective line, with L = O(9) inside O(10) and two entries over L.

    torsion is O(10), torsion over L.  destabilizer is L + O(3): O(3) over L has p above
    that of E/L (degree 4, rank 2).  L has the larger p, so L over zero is a valid HN
    step under E/L.
    """
    kd = KahlerData.curve(0, 1)
    total = chi_curve(kd, 3, 13)
    length_one = NumericalSheafData(0, Fraction(1), poly(1), torsion_free=False)

    def entry(eid, rank, degree, torsion_part=None, contains=()):
        sub = chi_curve(kd, rank, degree)
        quotient = NumericalSheafData(
            3 - rank, total.deg_h - sub.deg_h, total.chi - sub.chi, torsion_part is None
        )
        return SubobjectEntry(eid, sub, quotient, torsion_part, claims=set(contains))

    entries = (
        entry("L", 1, 9, length_one),
        entry(torsion, 1, 10, contains={"L"}),
        entry(destabilizer, 2, 12, length_one, contains={"L"}),
    )
    return HiggsObjectModel(id="E", ambient=kd, data=total, subobjects=entries)


class TestFirstOffender:
    """_step_violations stops at its first offending entry in id order and names it."""

    @pytest.mark.parametrize("destabilizer, torsion", [("A", "B"), ("B", "A")])
    def test_the_earlier_offender_decides(self, destabilizer, torsion):
        m = torsion_and_destabilizer_model(destabilizer, torsion)
        assert validate(m) == []
        offenders = {
            destabilizer: (
                "QuotientSemistable", f"quotient classifies unstable (witness {destabilizer})"
            ),
            torsion: ("QuotientTorsion", f"{torsion} is torsion over the step below"),
        }
        quotient = filtration._step_quotient(m, "E", "L")
        found = filtration._step_violations(m, FiltrationKind.HN, "E", "L", quotient)
        assert [(v.subject, v.kind, v.detail) for v in found] == [("E", *offenders["A"])]
        first = next(filtration._step_violations(m, FiltrationKind.JH, "E", "L", quotient))
        assert (first.subject, first.kind) == ("E", "EqualP")  # E/L: slope 2, E: 13/3
        through_l = filtration._filtration(m, FiltrationKind.HN, ("L", "E"))
        assert [(v.subject, v.kind, v.detail) for v in verify_filtration(m, through_l)] == [
            ("E", *offenders["A"])
        ]

    def test_the_scan_stops_at_the_first_offender(self, monkeypatch):
        # every entry of an equal-degree chain ties with the object, the first in id order too
        m = curve_chain(1, 1, (0, 0, 0))
        assert len(m.subobjects) == 6
        calls = []
        real = filtration.compare_scaled

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(filtration, "compare_scaled", counted)
        first = next(filtration._step_violations(m, FiltrationKind.JH, "E", None, m.data))
        witness = m.subobjects[0].id
        assert (first.kind, first.detail) == (
            "QuotientStable", f"quotient is not stable (witness {witness})"
        )
        assert len(calls) == 1

    def test_the_scan_reads_no_entry_past_the_first_offender(self, monkeypatch):
        # over {4}, the first entry above it in id order, {1,2,4}, ties with E/{4}
        m = curve_chain(1, 1, (0, 0, 0, 0))
        reads = []
        real = filtration._below_list

        def counted(model, upper):
            for e in real(model, upper):
                reads.append(e.id)
                yield e

        monkeypatch.setattr(filtration, "_below_list", counted)
        quotient = filtration._step_quotient(m, "E", "{4}")
        first = next(filtration._step_violations(m, FiltrationKind.JH, "E", "{4}", quotient))
        assert (first.kind, first.detail) == (
            "QuotientStable", "quotient is not stable (witness {1,2,4})"
        )
        ids = [e.id for e in m.subobjects]
        assert reads == ids[:ids.index("{1,2,4}") + 1] and len(reads) > 1


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

    def test_matches_the_reference_greedy(self):
        # seeded semistable chains with arrows, equal-degree chains, both Hitchin objects,
        # and unstable declared models, where the reference finds a p above the object's
        rng = random.Random(53)
        models, seeded = [], 0
        while seeded < 150:
            spec = random_chain_spec(rng, 7, 3)
            if spec.arrows and gieseker_classify(m := realize(spec)).semistable:
                models.append(m)
                seeded += 1
        models += [curve_chain(1, 1, (0,) * size) for size in range(2, 7)]
        models += [obj.model for obj in load(HITCHIN_PAIR).objects]
        models += [torsion_step_model(), shared_sheaf_model()]
        steps = Counter()
        for m in models:
            expected = oracle_jordan_holder(m)
            if expected is None:
                with pytest.raises(NotSemistableError):
                    jordan_holder(m)
            else:
                assert jordan_holder(m).steps == expected, m.id
            steps[None if expected is None else len(expected) > 1] += 1
        assert steps[True] >= 15 and steps[False] and steps[None] == 3, steps

    def test_the_descent_compares_once_per_distinct_entry(self, monkeypatch):
        m = curve_chain(2, 1, (0,) * 8)
        assert (len(m.subobjects), len(m.distinct)) == (254, 7)
        calls = []
        for name in ("compare_p", "compare_scaled"):
            real = getattr(filtration, name)
            monkeypatch.setattr(filtration, name,
                                lambda *args, real=real: calls.append(args) or real(*args))
        monkeypatch.setattr(filtration, "_verified", filtration._filtration)
        assert jordan_holder(m).steps == oracle_jordan_holder(m)
        assert 0 < len(calls) <= len(m.distinct)


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

    def test_search_bound(self, monkeypatch):
        # JH opens the object, the 3 planes under it (stable line quotients) and 2 lines
        # under each plane; of the 6 entries, each a blocker, the lines' shadows hold 1 key
        # and the planes' 3.  The object's node charges its prefix 1, its listing 6, the
        # blockers table 6 * 6, the shadows 3 * 1 + 3 * 3 and one scan of its 6 entries
        # below per plane; a plane's node 2 + 6 + 2 * 1 (shadows) + 2 * 2 (scans); a
        # line's 3 + 6, no shadow, no scan, and 3 for the chain it lists.  HN opens the
        # object alone (each plane or line L has p(L) equal to p(E/L), so the HN cut drops
        # it): 1 + 6, a scan of 6 for its step over zero, and 1 for the chain
        jh = (1 + 6 + 6 * 6 + 3 * 1 + 3 * 3 + 3 * 6) + 3 * (2 + 6 + 2 + 4) + 6 * (3 + 6 + 3)
        for search, work, chains in ((all_jordan_holder, jh, 6),
                                     (all_harder_narasimhan, 1 + 6 + 6 + 1, 1)):
            monkeypatch.setattr(filtration, "WORK_BOUND", work)
            assert len(search(curve_chain(1, 1, (0, 0, 0)))) == chains  # a fresh memo each
            monkeypatch.setattr(filtration, "WORK_BOUND", work - 1)
            with pytest.raises(TooLargeError, match=f"^walk scans more than WORK_BOUND = "
                                                    f"{work - 1} lattice entries$"):
                search(curve_chain(1, 1, (0, 0, 0)))

    def test_the_work_bound_stops_the_equal_degree_chain_of_nine(self):
        # 40,320 chains of 8 are listed; the 362,880 of 9 would open 623,530 nodes, each
        # charged at least its 510 entries listed
        assert len(all_jordan_holder(curve_chain(1, 1, (0,) * 8))) == 40320
        with pytest.raises(TooLargeError, match="^walk scans more than WORK_BOUND = 32000000"):
            all_jordan_holder(curve_chain(1, 1, (0,) * 9))

    def test_unstable_rejected(self):
        with pytest.raises(NotSemistableError):
            all_jordan_holder(curve_chain(0, 1, (2, 0)))

    def test_matches_oracle_where_the_cut_guards(self):
        # The JH cut drops a lower L under upper U when a blocker M, an entry of p not
        # below p(E), lies strictly between them with rank L < rank M < rank U.  Its edge
        # cases: a declared zero entry under lines; a line inside its saturation; a line
        # inside an equal copy of itself, where M/L is 0 (rank L = rank M) or U/M is 0
        # (rank M = rank U) and the step passes; the polystable O + (O(1) -> O(-1)),
        # whose line O(-1) has p below p(E); arrows; and twins that share no sheaf.
        rng, arrowed = random.Random(34), []
        while len(arrowed) < 150:
            spec = random_chain_spec(rng, 5, 2)
            if spec.arrows and gieseker_classify(m := realize(spec)).semistable:
                arrowed.append(m)
        assert max(m.data.rank for m in arrowed) == 5
        polystable = curve_chain(2, 1, (0, 1, -1), arrows={(2, 3)})
        declared = [semistable_zero_entry_model(), saturation_model(), copied_line_model()]
        several = 0
        for m in [*declared, polystable, *arrowed]:
            assert validate(m) == []
            oracle = oracle_jh_chains(m)
            census = (len(oracle), {grading(f) for f in oracle})
            for model in (m, unshared(m)):
                chains = all_jordan_holder(model)
                assert {f.steps for f in chains} == {f.steps for f in oracle}, m.id
                assert len(chains) == len({f.steps for f in chains})
                assert jordan_holder_census(model) == census, m.id
            several += len(oracle) > 1
        assert several >= 10
        assert [len(oracle_jh_chains(m)) for m in (*declared, polystable)] == [2, 2, 3, 2]

    @pytest.mark.parametrize(
        "search", [all_jordan_holder, all_harder_narasimhan, jordan_holder_census]
    )
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


def two_lines_model(*entries):
    """O + O on the projective line, with the given entries, each (id, rank, degree,
    ids it contains); an entry of rank 1 and degree d < 0 has a torsion quotient."""
    kd = KahlerData.curve(0, 1)
    total = chi_curve(kd, 2, 0)

    def entry(eid, rank, degree, contains):
        data = (chi_curve(kd, rank, degree) if rank else
                NumericalSheafData(0, Fraction(0), poly(0), torsion_free=True))
        torsion = None
        if rank == 1 and degree < 0:
            torsion = NumericalSheafData(0, Fraction(-degree), poly(-degree), torsion_free=False)
        quotient = NumericalSheafData(2 - rank, total.deg_h - data.deg_h, total.chi - data.chi,
                                      torsion_free=torsion is None)
        return SubobjectEntry(eid, data, quotient, torsion, claims=frozenset(contains))

    return HiggsObjectModel(id="E", ambient=kd, data=total, subobjects=tuple(
        entry(*spec) for spec in entries))


def semistable_zero_entry_model():
    """O + O, with lines A = O and B = O over a declared zero entry Z."""
    return two_lines_model(("A", 1, 0, {"Z"}), ("B", 1, 0, {"Z"}), ("Z", 0, 0, ()))


def saturation_model():
    """O + O, with F = O(-1) inside Fp = O, its saturation, and G = O."""
    return two_lines_model(("F", 1, -1, ()), ("Fp", 1, 0, {"F"}), ("G", 1, 0, ()))


def copied_line_model():
    """O + O, with A = O inside A2 = O, the same line declared twice, and B = O."""
    return two_lines_model(("A", 1, 0, ()), ("A2", 1, 0, {"A"}), ("B", 1, 0, ()))


def census_and_enumeration(model):
    """jordan_holder_census and all_jordan_holder's (chain count, gradings), or the
    type of error each raised."""
    out = []
    for count in (jordan_holder_census,
                  lambda m: (len(chains := all_jordan_holder(m)), {grading(f) for f in chains})):
        try:
            out.append(count(model))
        except NotSemistableError as exc:
            out.append(type(exc))
    return out


class TestJordanHolderCensus:
    """The census counts what all_jordan_holder lists: chains and their gradings."""

    def test_matches_the_enumeration_on_fuzzed_chains(self):
        rng = random.Random(34)
        several = 0
        for _ in range(600):
            m = realize(random_chain_spec(rng, 5, 2))
            if not gieseker_classify(m).semistable:
                continue
            census, enumerated = census_and_enumeration(m)
            assert census == enumerated, m.id
            several += census[0] > 1
        assert several >= 10  # 150 semistable chains, 10 of them with several JH chains

    def test_matches_the_enumeration_on_declared_models(self):
        pair = load(HITCHIN_PAIR)
        doc = {"ambient": kahler_to_json(pair.objects[0].model.ambient),
               "objects": [model_to_json(obj) for obj in pair.objects]}
        declared = [obj.model for obj in loads(json.dumps(doc)).objects]
        outcomes = [census_and_enumeration(m) for m in [*declared, torsion_step_model()]]
        assert [census for census, _ in outcomes] == [
            (1, {grading(jordan_holder(declared[0]))}), NotSemistableError, NotSemistableError
        ]
        assert all(census == enumerated for census, enumerated in outcomes)

    def test_equal_degree_chain_of_six(self):
        m = curve_chain(1, 1, (0,) * 6)
        census, enumerated = census_and_enumeration(m)
        assert census == enumerated
        assert census[0] == 720 and len(census[1]) == 1

    def test_unstable_rejected(self):
        with pytest.raises(NotSemistableError):
            jordan_holder_census(curve_chain(0, 1, (2, 0)))

    def test_work_bound(self, monkeypatch):
        # m=3 visits 7 nodes once each, one walk for all: the object charges 6 (listing),
        # 6 * 6 (the blockers table), 3 * 1 + 3 * 3 (shadows) and 3 * 6 (a scan per plane),
        # each plane 6 + 2 + 2 * 2, and each line 6; the table is built once per model and
        # charged to every walk, so a second census costs the same
        work = (6 + 6 * 6 + 3 * 1 + 3 * 3 + 3 * 6) + 3 * (6 + 2 + 2 * 2) + 3 * 6
        monkeypatch.setattr(filtration, "WORK_BOUND", work)
        m = curve_chain(1, 1, (0, 0, 0))
        assert jordan_holder_census(m)[0] == 6
        assert jordan_holder_census(m)[0] == 6
        monkeypatch.setattr(filtration, "WORK_BOUND", work - 1)
        for model in (curve_chain(1, 1, (0, 0, 0)), m):  # m: a retry with the table made
            with pytest.raises(TooLargeError, match="^walk scans more than WORK_BOUND = 125 lat"):
                jordan_holder_census(model)

    def test_the_blockers_table_is_charged_before_it_is_built(self):
        # all 16,382 entries of the equal-degree chain of 14 are blockers: the table
        # would list 16,382 entries for each, 268M in all, past WORK_BOUND
        m = curve_chain(1, 1, (0,) * 14)
        with pytest.raises(TooLargeError, match="^walk scans more than WORK_BOUND"):
            jordan_holder_census(m)
        assert "blockers" not in m._memo

    def test_an_unshared_twin_has_the_same_census(self):
        # fuzzed chains, then equal-degree chains of up to 6 summands with random arrows
        rng = random.Random(42)
        fuzzed = [realize(random_chain_spec(rng, 6, 2)) for _ in range(300)]
        semistable = [m for m in fuzzed if gieseker_classify(m).semistable]
        for _ in range(40):
            size = rng.randint(2, 6)
            arrows = {(i, i + 1) for i in range(1, size) if rng.random() < 0.4}
            semistable.append(curve_chain(rng.randint(1, 2), 1, (rng.randint(-2, 2),) * size,
                                          arrows))
        assert all(gieseker_classify(m).semistable for m in semistable)
        several = 0
        for m in [*semistable, ambiguous_model()]:
            census = outcome(jordan_holder_census, m)
            assert outcome(jordan_holder_census, unshared(m)) == census, m.id
            several += isinstance(census[1], set) and census[0] > 1
        assert several >= 10

    def test_a_quotient_and_an_entry_of_equal_invariants_are_one_piece(self):
        # O + (O(1) -> O(-1)): E/{1} is derived and {2,3} is realized, two sheaves of one value
        # and O + O + (O(1) -> O(-1)) repeats the rank-1 piece
        for degrees, arrow, chains, ranks in (((0, 1, -1), (2, 3), 2, [1, 2]),
                                              ((0, 0, 1, -1), (3, 4), 6, [1, 1, 2])):
            m = curve_chain(2, 1, degrees, arrows={arrow})
            count, gradings = jordan_holder_census(m)
            assert count == chains and len(gradings) == 1
            (pieces,) = gradings
            assert [(rank, deg_h) for rank, deg_h, _ in pieces] == [(r, 0) for r in ranks]
            assert gradings == {grading(f) for f in all_jordan_holder(m)}


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

    def test_an_unstable_object_is_refused(self):
        semistable, unstable = curve_chain(1, 1, (0, 0)), curve_chain(1, 1, (1, -1))
        for pair in ((unstable, semistable), (semistable, unstable), (unstable, unstable)):
            with pytest.raises(PreconditionUnmetError) as info:
                s_equivalent(*pair)
            assert str(info.value) == "both objects must be Gieseker semistable"


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

    def test_matches_oracle_where_the_cut_guards(self):
        # The HN cut drops an entry L unless L and upper/L have positive rank and
        # p(L) is above p(upper/L).  Its edge cases: a declared zero entry, whose p
        # compare_p refuses; torsion quotients; two tied destabilizers; arrows.
        rng, arrowed = random.Random(33), []
        while len(arrowed) < 150:
            spec = random_chain_spec(rng, 5, 2)
            if spec.arrows:
                arrowed.append(realize(spec))
        assert max(m.data.rank for m in arrowed) == 5
        for m in [zero_entry_model(), saturated_twist_model(), ambiguous_model(), *arrowed]:
            assert validate(m) == []
            chains = all_harder_narasimhan(m)
            assert {f.steps for f in chains} == {f.steps for f in oracle_hn_chains(m)}, m.id
            assert len(chains) == len({f.steps for f in chains})

    @pytest.mark.parametrize("degrees, nodes", [
        # 1 + 28: each node below the object drops one more summand, of degree above
        # the last one dropped and below the mean degree of the summands it leaves
        (tuple(range(8)), 1 + 28),
        # 1 + 15: the step over the object leaves out a nonempty set of degree-0
        # summands; no entry under what is left has p above its quotient's
        ((0,) * 4 + (1,) * 4, 1 + 15),
        # the object alone: every entry has the object's p
        ((0,) * 5, 1),
    ])
    def test_search_nodes_under_the_cut(self, monkeypatch, degrees, nodes):
        # without the cut each of these searches opens all 2^m - 1 nonzero masks
        m = curve_chain(2, 1, degrees)
        opened = spy_on_steps(monkeypatch)
        assert all_harder_narasimhan(m) == [harder_narasimhan(m)]
        assert len(opened) == nodes


def test_constructions_never_meet_the_work_bound(monkeypatch):
    # a bound of 0 stops every walk at its first charge, and no construction walks
    monkeypatch.setattr(filtration, "WORK_BOUND", 0)
    models = [obj.model for obj in load(HITCHIN_PAIR).objects] + [curve_chain(1, 1, (0,) * 5)]
    built = []
    for m in models:
        for construct in (jordan_holder, harder_narasimhan):
            if construct is harder_narasimhan or gieseker_classify(m).semistable:
                filt = construct(m)
                assert verify_filtration(m, filt) == []
                built.append((m.id, filt.kind))
        with pytest.raises(TooLargeError):
            all_harder_narasimhan(m)
    assert len(built) == 5  # the unstable split has no JH filtration


def zero_entry_model():
    """O(2) + O on the projective line, with lines A = O(2) and B = O over a declared
    zero entry Z, of rank 0 and chi 0."""
    kd = KahlerData.curve(0, 1)
    high, low = chi_curve(kd, 1, 2), chi_curve(kd, 1, 0)
    total = NumericalSheafData(2, high.deg_h + low.deg_h, high.chi + low.chi, torsion_free=True)
    zero = NumericalSheafData(0, Fraction(0), poly(0), torsion_free=True)
    return HiggsObjectModel(id="E", ambient=kd, data=total, subobjects=(
        SubobjectEntry(id="A", data=high, quotient=low, claims=frozenset({"Z"})),
        SubobjectEntry(id="B", data=low, quotient=high, claims=frozenset({"Z"})),
        SubobjectEntry(id="Z", data=zero, quotient=total),
    ))


STRICT_DECREASE = "quotient polynomials must strictly decrease up the chain"


def saturated_twist_model():
    """O(5) + O on the projective line, with F = O(-1) inside Fp = O, its saturation."""
    kd = KahlerData.curve(0, 1)
    total, sub, saturated, top = (
        chi_curve(kd, rank, degree) for rank, degree in ((2, 5), (1, -1), (1, 0), (1, 5))
    )
    torsion = NumericalSheafData(0, Fraction(1), poly(1), torsion_free=False)
    over_sub = NumericalSheafData(1, total.deg_h - sub.deg_h, total.chi - sub.chi, False)
    return HiggsObjectModel(id="E", ambient=kd, data=total, subobjects=(
        SubobjectEntry(id="F", data=sub, quotient=over_sub, quotient_torsion_part=torsion),
        SubobjectEntry(id="Fp", data=saturated, quotient=top, claims=frozenset({"F"})),
    ))


class TestVerifyFiltration:
    @pytest.mark.parametrize("kind, steps, kind_of_violation, detail", [
        (FiltrationKind.JH, (), "Steps", "a filtration has at least one step"),
        (FiltrationKind.HN, ("{1}", "nope", "E"), "UnknownId",
         "step id outside the declared family"),
        (FiltrationKind.JH, ("{1,2}", "{1}"), "Chain", "first step must be the object"),
        (FiltrationKind.HN, ("E", "{1}"), "Chain", "last step must be the object"),
        (FiltrationKind.JH, ("E", "{1,2}", "E"), "Chain", "the object may only bound the chain"),
        (FiltrationKind.HN, ("{1}", "E", "E"), "Chain", "the object may only bound the chain"),
    ])
    def test_structural_violations(self, kind, steps, kind_of_violation, detail):
        m = curve_chain(1, 1, (0, 0, 0))
        bad = Filtration(kind, steps, (m.data,) * len(steps))
        assert verify_filtration(m, bad) == [Violation("E", kind_of_violation, detail)]

    def test_constructed_chains_verify(self):
        m = curve_chain(0, 1, (2, 0))
        assert verify_filtration(m, harder_narasimhan(m)) == []
        ss = curve_chain(1, 1, (0, 0))
        assert verify_filtration(ss, jordan_holder(ss)) == []

    def test_reordered_hn_steps(self):
        # each step whose quotient's p is not below the one under it is named, top down
        two, three = curve_chain(0, 1, (2, 0)), curve_chain(0, 1, (3, 1, -1))
        for m, steps, subjects in ((two, ("{2}", "E"), ["E"]),
                                   (three, ("{3}", "{2,3}", "E"), ["E", "{2,3}"]),
                                   (three, ("{2}", "{1,2}", "E"), ["{1,2}"])):
            bad = filtration._filtration(m, FiltrationKind.HN, steps)
            assert verify_filtration(m, bad) == [
                Violation(subject, "StrictDecrease", STRICT_DECREASE) for subject in subjects
            ], steps

    def test_a_rank_zero_quotient_has_no_p_to_compare(self):
        # E/Fp = O(5) lies above F = O(-1), but the rank-zero step Fp/F between them has
        # no p: QuotientRank is its one violation, and no StrictDecrease reaches across it
        m = saturated_twist_model()
        for steps, found in (
            (("F", "Fp", "E"), [("Fp", "QuotientRank", "quotients need positive rank")]),
            (("Fp", "E"), [("E", "StrictDecrease", STRICT_DECREASE)]),
            (("F", "E"), [("E", "QuotientTorsion", "Fp is torsion over the step below"),
                          ("E", "StrictDecrease", STRICT_DECREASE)]),
        ):
            bad = filtration._filtration(m, FiltrationKind.HN, steps)
            assert [(v.subject, v.kind, v.detail) for v in verify_filtration(m, bad)] == found

    def test_jh_quotient_with_wrong_p(self):
        wrong_p = "quotient p differs from the object's"
        m = curve_chain(2, 1, (1, -1), arrows={(1, 2)})
        bad = Filtration(
            FiltrationKind.JH,
            ("E", "{2}"),
            (m.entry("{2}").quotient, m.entry("{2}").data),
        )
        assert verify_filtration(m, bad) == [
            Violation("E", "EqualP", wrong_p), Violation("{2}", "EqualP", wrong_p)
        ]
        m = torsion_step_model()
        bad = filtration._filtration(m, FiltrationKind.JH, ("E", "Fp", "F"))
        assert [(v.subject, v.kind, v.detail) for v in verify_filtration(m, bad)] == [
            ("E", "EqualP", wrong_p),
            ("Fp", "QuotientRank", "quotients need positive rank"),
            ("F", "EqualP", wrong_p),
        ]

    def test_broken_chain_detected(self):
        m = curve_chain(1, 1, (0, 0, 0))
        bad = Filtration(
            FiltrationKind.JH,
            ("E", "{1}", "{2}"),
            tuple(jordan_holder(m).quotients),
        )
        kinds = [v.kind for v in verify_filtration(m, bad)]
        assert "Chain" in kinds

    def test_a_repeated_step_is_not_strictly_below_itself(self):
        realized = curve_chain(1, 1, (0, 0, 0))
        doc = {"ambient": kahler_to_json(realized.ambient),
               "objects": [model_to_json(LoadedObject(realized))]}
        for m in (realized, loads(json.dumps(doc)).objects[0].model):
            for steps in (("E", "{1,2}", "{1,2}"), ("E", "{1,2}", "{1}", "{1}")):
                bad = Filtration(FiltrationKind.JH, steps, (m.data,) * len(steps))
                last = steps[-1]
                assert verify_filtration(m, bad) == [
                    Violation(last, "Chain", f"{last} is not strictly below {last}")
                ]

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
