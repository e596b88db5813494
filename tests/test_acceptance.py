"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance (exactness, percentages, time budgets) is pinned here.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from higgs_lab import (
    AmbiguousMaximizerError,
    KahlerData,
    StabilityClass,
    SurfaceChernInput,
    all_harder_narasimhan,
    all_jordan_holder,
    bogomolov_discriminant,
    chi_curve,
    chi_surface,
    gieseker_classify,
    gieseker_classify_by_quotients,
    gieseker_classify_tf_quotients,
    grading,
    harder_narasimhan,
    normalized_p,
    rank_p_residual,
    run,
    slope_classify,
    sum_data,
)
from higgs_lab.hilbert import EventualOrder, HilbertPolynomial
from higgs_lab.model import HiggsObjectModel, realize

from conftest import (
    ambiguous_model,
    curve_chain,
    oracle_direct_sum,
    oracle_jh_chains,
    poly,
    random_chain_spec,
    surface_entry,
    surface_model,
    torsion_closure_model,
)

DATA = Path(__file__).parent / "data"
DOCS = Path(__file__).parent.parent / "docs"


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS  {description}")


def random_polynomial(rng):
    degree = rng.randint(0, 4)
    return HilbertPolynomial(
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree + 1)
    )


SIGN = {"precedes": -1, "equal": 0, "succeeds": 1}


def test_criterion_1_ordering_laws():
    with criterion(1, "ordering laws on 10,000 random polynomial triples in < 5 s"):
        rng = random.Random(20240901)
        triples = [
            (random_polynomial(rng), random_polynomial(rng), random_polynomial(rng))
            for _ in range(10_000)
        ]
        started = time.perf_counter()
        for index, (p, q, r) in enumerate(triples):
            order = p.compare_eventual(q)
            # trichotomy and antisymmetry
            assert q.compare_eventual(p) is order.reversed()
            if order is EventualOrder.EQUAL:
                assert p == q
            # transitivity of the strict and weak orders
            if p.eventually_less(q) and q.eventually_less(r):
                assert p.eventually_less(r)
            if p.eventually_leq(q) and q.eventually_leq(r):
                assert p.eventually_leq(r)
            # sign agreement at 50 points at or beyond the threshold
            target = SIGN[order.value]
            start = p.stabilization_threshold(q)
            difference = p + q.scale(-1)
            for k in range(start, start + 50):
                value = difference.evaluate(k)
                assert ((value > 0) - (value < 0)) == target
            if index % 200 == 0:  # spot-check the two-sided evaluation directly
                for k in (start, start + 7, start + 49):
                    value = p.evaluate(k) - q.evaluate(k)
                    assert ((value > 0) - (value < 0)) == target
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_2_rank_p_residual():
    with criterion(2, "rank-weighted residual is the zero polynomial on 1,000 sums in < 2 s"):
        rng = random.Random(20240902)
        started = time.perf_counter()
        for _ in range(1_000):
            if rng.random() < 0.5:
                kd = KahlerData.curve(rng.randint(0, 3), rng.randint(1, 4))
                sub = chi_curve(kd, rng.randint(1, 4), rng.randint(-6, 6))
                quotient = chi_curve(kd, rng.randint(1, 4), rng.randint(-6, 6))
            else:
                kd = KahlerData.surface(rng.randint(1, 3), rng.randint(-2, 2))
                c1sq, c2 = rng.randint(-5, 5), rng.randint(-5, 5)
                sc = SurfaceChernInput(
                    rng.randint(-4, 4),
                    Fraction(c1sq - 2 * c2, 2),
                    rng.randint(-3, 3),
                    c1sq,
                    c2,
                )
                sub = chi_surface(kd, rng.randint(1, 3), sc, rng.randint(-2, 2))
                quotient = chi_surface(kd, rng.randint(1, 3), sc, rng.randint(-2, 2))
            total = sum_data(sub, quotient)
            residual = rank_p_residual(total, sub, quotient)
            assert residual.is_zero
            assert residual == HilbertPolynomial()
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0, f"took {elapsed:.2f} s"


def _fuzz_models(seed, count, max_rank, max_genus):
    rng = random.Random(seed)
    return [realize(random_chain_spec(rng, max_rank, max_genus)) for _ in range(count)]


def test_criterion_3_dimension_one_coincidence():
    with criterion(3, "curve verdicts coincide for both notions on 2,000 fuzzed chains in < 10 s"):
        started = time.perf_counter()
        models = _fuzz_models(20240903, 2_000, 6, 3)
        for model in models:
            assert (
                gieseker_classify(model).classification
                is slope_classify(model).classification
            )
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.2f} s"


def _surface_fixtures():
    total = surface_model("S", 2, 0, 0)
    stable = HiggsObjectModel(
        id="S1",
        ambient=total.ambient,
        data=total.data,
        subobjects=(surface_entry("F", total.data, 1, -1, 7),),
    )
    split_notions = HiggsObjectModel(
        id="S2",
        ambient=total.ambient,
        data=total.data,
        subobjects=(surface_entry("F", total.data, 1, 0, 3),),
    )
    tied = HiggsObjectModel(
        id="S3",
        ambient=total.ambient,
        data=total.data,
        subobjects=(surface_entry("F", total.data, 1, 0, 0),),
    )
    return [stable, split_notions, tied]


def test_criterion_4_stability_ladder():
    with criterion(4, "slope stable implies stable; semistable implies slope semistable"):
        models = _fuzz_models(20240904, 1_000, 6, 3) + _surface_fixtures()
        for model in models:
            g = gieseker_classify(model)
            s = slope_classify(model)
            if s.classification is StabilityClass.STABLE:
                assert g.classification is StabilityClass.STABLE
            if g.semistable:
                assert s.semistable


def test_criterion_5_formulation_agreement():
    with criterion(5, "subobject, quotient, and torsion-free classifiers agree"):
        models = _fuzz_models(20240905, 1_000, 6, 3)
        models += _surface_fixtures()
        models += [torsion_closure_model(strict=False), torsion_closure_model(strict=True)]
        for model in models:
            direct = gieseker_classify(model)
            from_quotients = gieseker_classify_by_quotients(model)
            restricted = gieseker_classify_tf_quotients(model)
            assert direct.classification is from_quotients.classification
            assert direct.witness == from_quotients.witness
            assert direct.classification is restricted.classification


def _direct_sum_fixtures():
    build = lambda degrees, arrows=(): curve_chain(1, 1, degrees, arrows=arrows)
    return [
        build((0,)),
        build((1,)),
        build((-1,)),
        build((2,)),
        build((0, 0)),
        build((0, 0), arrows={(1, 2)}),
        build((1, 1)),
        build((1, -1)),
        build((2, 0)),
        build((0, 0, 0)),
        build((0, 0, 0), arrows={(1, 2), (2, 3)}),
        build((1, 1, 1)),
        build((2, 1, 0)),
        build((-1, -1)),
        build((3, 3), arrows={(1, 2)}),
        build((0, -2)),
        build((2, 2)),
        build((-3,)),
        build((1, 0, 1)),
        build((0, 0, 1)),
    ]


def test_criterion_6_direct_sum_theorem():
    with criterion(6, "direct sum semistable iff both parts semistable with equal p (20-model fixture)"):
        fixtures = _direct_sum_fixtures()
        assert len(fixtures) == 20
        for a in fixtures:
            for b in fixtures:
                total = oracle_direct_sum(a, b)
                lhs = gieseker_classify(total).semistable
                rhs = (
                    gieseker_classify(a).semistable
                    and gieseker_classify(b).semistable
                    and normalized_p(a.data) == normalized_p(b.data)
                )
                assert lhs == rhs, f"{a.id} vs {b.id}"


def test_criterion_7_jh_grading_invariance():
    with criterion(7, "all JH chains share one grading; the two-line example has exactly 2"):
        two_lines = curve_chain(1, 1, (0, 0))
        chains = all_jordan_holder(two_lines)
        assert len(chains) == 2
        assert len({grading(f) for f in chains}) == 1
        # exact counts against the brute-force chain oracle
        assert {f.steps for f in oracle_jh_chains(two_lines)} == {
            ("E", "{1}"),
            ("E", "{2}"),
        }
        three_lines = curve_chain(1, 1, (0, 0, 0))
        assert len(all_jordan_holder(three_lines)) == 6
        assert {f.steps for f in oracle_jh_chains(three_lines)} == {
            f.steps for f in all_jordan_holder(three_lines)
        }
        fixtures = [
            two_lines,
            three_lines,
            curve_chain(1, 1, (0, 0, 0), arrows={(1, 2)}),
            curve_chain(1, 1, (0, 0, 0, 0)),
            curve_chain(1, 1, (0, 0, 0, 0, 0)),
            curve_chain(1, 1, (0, 0, 0, 0, 0, 0)),
            curve_chain(1, 1, (1, 1, 1, 1), arrows={(1, 2), (3, 4)}),
            curve_chain(0, 1, (2, 2)),
        ]
        for model in fixtures:
            verdict = gieseker_classify(model)
            assert verdict.classification is StabilityClass.STRICTLY_SEMISTABLE
            chains = all_jordan_holder(model)
            assert len(chains) >= 1
            assert len({grading(f) for f in chains}) == 1


def test_jh_grading_invariance_on_an_equal_degree_chain_of_eight(tmp_path, capsys):
    with criterion(7, "verify counts the 40,320 JH chains of an equal-degree m=8 chain in < 1 s"):
        doc = {
            "ambient": {"n": 1, "genus": 1, "degH": 1},
            "objects": [{"type": "chain", "id": "E", "degrees": [0] * 8}],
        }
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        started = time.perf_counter()
        assert run(["verify", str(path)]) == 0
        elapsed = time.perf_counter() - started
        lines = capsys.readouterr().out.splitlines()
        assert "pass jh_grading_invariance      E  40320 chain(s), 1 grading(s)" in lines, lines
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_8_hn_uniqueness():
    with criterion(8, "constructed HN chain is the unique one found by exhaustive search"):
        fixtures = _direct_sum_fixtures()
        fixtures += [
            curve_chain(0, 1, (2, 0)),
            curve_chain(0, 1, (2, 2, 0)),
            curve_chain(0, 1, (3, 1, -1)),
        ]
        fixtures += _fuzz_models(20240908, 300, 4, 2)
        fixtures.append(ambiguous_model())
        checked = skipped = 0
        for model in fixtures:
            try:
                constructed = harder_narasimhan(model)
            except AmbiguousMaximizerError:
                skipped += 1
                continue
            every = all_harder_narasimhan(model)
            assert every == [constructed]
            ps = [normalized_p(q) for q in constructed.quotients]
            for first, second in zip(ps, ps[1:]):
                assert second.eventually_less(first)
            checked += 1
        assert checked >= 300
        assert skipped == 1  # only the deliberately under-declared fixture


def test_criterion_9_hitchin_regression(capsys):
    with criterion(9, "Hitchin pair golden verdicts: field on is stable, field off is unstable at {1}"):
        assert run(["analyze", str(DOCS / "hitchin_pair.json"), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        golden = json.loads((DATA / "hitchin_golden.json").read_text())
        assert report == golden
        by_id = {b["id"]: b for b in report["objects"]}
        assert by_id["hitchin"]["gieseker"]["class"] == "stable"
        assert by_id["hitchin"]["slope"]["class"] == "stable"
        assert by_id["split"]["gieseker"]["class"] == "unstable"
        assert by_id["split"]["gieseker"]["witness"] == "{1}"
        assert by_id["split"]["slope"]["witness"] == "{1}"


def test_criterion_10_bogomolov(tmp_path, capsys):
    with criterion(10, "discriminant values by hand and the verify contradiction flag"):
        kd = KahlerData.surface(1, 0)
        assert bogomolov_discriminant(kd, 2, SurfaceChernInput(0, -1, 0, 0, 1)) == 4
        for c in (-2, 1, 4):
            sc = SurfaceChernInput(0, Fraction(4 - 2 * c, 2), 1, 4, c)
            assert bogomolov_discriminant(kd, 1, sc) == 2 * c
        assert bogomolov_discriminant(kd, 2, SurfaceChernInput(0, 1, 0, 2, 0)) == -2

        contradiction = {
            "ambient": {"n": 2, "hn": "1/1", "c1X_H": "0/1"},
            "objects": [
                {
                    "type": "model",
                    "id": "S",
                    "data": {"rank": 2, "degH": "0/1", "chi": ["0/1", "0/1", "1/1"]},
                    "locally_free": True,
                    "surface_chern": {
                        "c1H": "0/1",
                        "ch2": "1/1",
                        "c1c1X": "0/1",
                        "c1sq": "2/1",
                        "c2int": "0/1",
                    },
                }
            ],
        }
        path = tmp_path / "contradiction.json"
        path.write_text(json.dumps(contradiction))
        assert run(["verify", str(path), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        flagged = [
            c for c in report["checks"] if c["check"] == "bogomolov" and c["status"] == "fail"
        ]
        assert len(flagged) == 1
        assert "-2" in flagged[0]["detail"]
