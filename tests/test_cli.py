"""Command line behavior: reports, determinism, and exit codes."""

import contextlib
import copy
import dataclasses
import gc
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import higgs_lab.chern
import higgs_lab.filtration
import higgs_lab.model
import higgs_lab.stability
import higgs_lab.suite
from higgs_lab import (
    EventualOrder,
    Grading,
    HiggsChainSpec,
    HiggsObjectModel,
    KahlerData,
    StabilityClass,
    StabilityVerdict,
    Violation,
    gieseker_classify,
    load,
    realize,
    run,
    suite,
    validate,
)
from higgs_lab.cli import _json
from higgs_lab.modelfile import LoadedObject

from conftest import (
    ambiguous_model,
    kahler_to_json,
    model_to_json,
    random_chain_spec,
    torsion_closure_model,
)

FUZZ_GOLDEN = Path(__file__).parent / "data" / "fuzz_seed0_golden.txt"
FILTRATION_GOLDEN = Path(__file__).parent / "data" / "filtration_golden.txt"
WALLS_GOLDEN = Path(__file__).parent / "data" / "walls_verify_golden.txt"
WALLS_HN_GOLDEN = Path(__file__).parent / "data" / "walls_hn_golden.txt"
HITCHIN_PAIR = Path(__file__).parents[1] / "docs" / "hitchin_pair.json"

HITCHIN = {
    "ambient": {"n": 1, "genus": 2, "degH": 1},
    "objects": [
        {"type": "chain", "id": "hitchin", "degrees": [1, -1], "arrows": [[1, 2]]},
        {"type": "chain", "id": "split", "degrees": [1, -1]},
    ],
}

UNSTABLE = {
    "ambient": {"n": 1, "genus": 0, "degH": 1},
    "objects": [{"type": "chain", "id": "E", "degrees": [2, 0]}],
}

BAD_SURFACE = {
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


def _stable_on_split(classify):
    """classify, except that it calls the unstable object split stable."""

    def wrong(model):
        verdict = classify(model)
        if model.id != "split":
            return verdict
        return StabilityVerdict(verdict.notion, StabilityClass.STABLE)

    return wrong


def _second_grading(census):
    """census, except that it reports one grading more than it finds."""

    def wrong(model):
        count, gradings = census(model)
        return count, gradings | {Grading(())}

    return wrong


def _declared_pair(tmp_path):
    """The Hitchin pair written back as declared models, which sum_semistable decides."""
    objects = [model_to_json(obj) for obj in load(HITCHIN_PAIR).objects]
    path = tmp_path / "hitchin_declared.json"
    path.write_text(json.dumps({"ambient": HITCHIN["ambient"], "objects": objects}))
    return path


def _written(tmp_path, model):
    """A file holding model alone, written as a declared model."""
    path = tmp_path / f"{model.id}.json"
    path.write_text(json.dumps({"ambient": kahler_to_json(model.ambient),
                                "objects": [model_to_json(LoadedObject(model))]}))
    return path


def _struck_closure():
    """torsion_closure_model with Fp struck: F's torsion quotient has no declared enlargement."""
    model = torsion_closure_model()
    return HiggsObjectModel(model.id, model.ambient, model.data, (model.entry("F"),))


def _arrowed_second(tmp_path):
    """A split pair of degrees 3, -3, then the Hitchin pair: its arrow fits only the latter."""
    objects = [{"type": "chain", "id": "wide", "degrees": [3, -3]}, HITCHIN["objects"][0]]
    path = tmp_path / "arrowed_second.json"
    path.write_text(json.dumps({"ambient": HITCHIN["ambient"], "objects": objects}))
    return path


def _unshifted_arrows(chain_sum):
    """chain_sum, except that b's arrows keep b's own indices."""
    return lambda a, b: HiggsChainSpec(
        a.ambient, a.summand_degrees + b.summand_degrees, a.arrows | b.arrows
    )


@pytest.fixture
def hitchin_file(tmp_path):
    path = tmp_path / "hitchin.json"
    path.write_text(json.dumps(HITCHIN))
    return str(path)


@pytest.fixture
def unstable_file(tmp_path):
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(UNSTABLE))
    return str(path)


class TestAnalyze:
    def test_verdicts(self, hitchin_file, capsys):
        assert run(["analyze", hitchin_file, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        by_id = {b["id"]: b for b in report["objects"]}
        assert by_id["hitchin"]["gieseker"]["class"] == "stable"
        assert by_id["hitchin"]["slope"]["class"] == "stable"
        assert by_id["split"]["gieseker"]["class"] == "unstable"
        assert by_id["split"]["gieseker"]["witness"] == "{1}"
        assert by_id["split"]["gieseker"]["witness_p"] == ["0/1", "1/1"]

    def test_table_format(self, hitchin_file, capsys):
        assert run(["analyze", hitchin_file]) == 0
        out = capsys.readouterr().out
        assert "hitchin" in out and "stable" in out

    def test_deterministic(self, hitchin_file, capsys):
        run(["analyze", hitchin_file, "--format", "json"])
        first = capsys.readouterr().out
        run(["analyze", hitchin_file, "--format", "json"])
        second = capsys.readouterr().out
        assert first == second

    def test_missing_file(self, capsys):
        assert run(["analyze", "/no/such/file.json"]) == 2

    def test_python_dash_m_runs_the_cli(self, capsys):
        assert run(["analyze", str(HITCHIN_PAIR)]) == 0
        src = str(Path(__file__).parents[1] / "src")
        pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-m", "higgs_lab", "analyze", str(HITCHIN_PAIR)],
            env=dict(os.environ, PYTHONPATH=pythonpath),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == capsys.readouterr().out != ""

    def test_m14_chain_within_budget(self, tmp_path):
        """analyze on the equal-degree m=14 chain (16,382 entries): under 5 s and 100 MB."""
        path = tmp_path / "m14.json"
        path.write_text(json.dumps({
            "ambient": {"n": 1, "genus": 2, "degH": 1},
            "objects": [{"type": "chain", "id": "E", "degrees": [1] * 14}],
        }))
        src = str(Path(__file__).parents[1] / "src")
        pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        script = (
            "import resource, sys; from higgs_lab import run; code = run(sys.argv[1:]);"
            " print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss); sys.exit(code)"
        )
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", script, "analyze", str(path), "--format", "json"],
            env=dict(os.environ, PYTHONPATH=pythonpath),
            capture_output=True,
            text=True,
            timeout=120,
        )
        elapsed = time.perf_counter() - start
        assert (done.returncode, done.stderr) == (0, "")
        report, peak_kb = done.stdout.rsplit("\n", 2)[:2]
        assert elapsed < 5 and int(peak_kb) < 100 * 1024, (elapsed, peak_kb)
        (block,) = json.loads(report)["objects"]
        # every proper entry ties; the first in id order is {1,10,11,12,13,14}, not {1}
        for notion in ("gieseker", "gieseker_by_quotients", "gieseker_torsion_free", "slope"):
            assert (block[notion]["class"], block[notion]["witness"]) == (
                "strictly_semistable", "{1,10,11,12,13,14}"
            ), notion


class TestSkippedFormulation:
    """analyze reports a formulation it cannot decide as skipped, in both formats."""

    REASON = "entry F has a torsion quotient and no declared enlargement"

    def test_table(self, tmp_path, capsys):
        assert run(["analyze", str(_written(tmp_path, _struck_closure()))]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"  gieseker_torsion_free    skipped: {self.REASON}" in lines

    def test_json(self, tmp_path, capsys):
        path = _written(tmp_path, _struck_closure())
        assert run(["analyze", str(path), "--format", "json"]) == 0
        (report,) = json.loads(capsys.readouterr().out)["objects"]
        assert report["gieseker_torsion_free"] == {"skipped": self.REASON}
        assert report["gieseker"]["class"] == "strictly_semistable"


class TestFiltrationCommands:
    def test_hn_of_unstable_object(self, unstable_file, capsys):
        assert run(["hn", unstable_file, "--object", "E", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["filtration"]["steps"] == ["{1}", "E"]
        ranks = [q["rank"] for q in report["filtration"]["quotients"]]
        assert ranks == [1, 1]

    def test_jh_of_semistable_object(self, hitchin_file, capsys):
        assert run(["jh", hitchin_file, "--object", "hitchin", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["filtration"]["steps"] == ["hitchin"]

    def test_jh_of_unstable_object_is_input_error(self, unstable_file):
        assert run(["jh", unstable_file, "--object", "E"]) == 2

    def test_unknown_object(self, hitchin_file):
        assert run(["jh", hitchin_file, "--object", "missing"]) == 2

    @staticmethod
    def error_line(capsys, argv, code) -> str:
        """Run argv, expect code with one stderr line and no report; return the line."""
        assert run(argv) == code, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        return lines[0]

    def test_incomparable_maximizers_are_an_input_error(self, tmp_path, capsys):
        path = _written(tmp_path, ambiguous_model())
        line = self.error_line(capsys, ["hn", str(path), "--object", "E"], 2)
        assert line == "error: incomparable maximizers ['A', 'B'] above 0"

    def test_jh_of_unstable_object_names_the_witness(self, tmp_path, capsys):
        doc = {"ambient": HITCHIN["ambient"],
               "objects": [{"type": "chain", "id": "E", "degrees": [3, -1]}]}
        path = tmp_path / "unstable_genus2.json"
        path.write_text(json.dumps(doc))
        line = self.error_line(capsys, ["jh", str(path), "--object", "E"], 2)
        assert line == "error: E is unstable (witness {1})"

    @pytest.mark.parametrize("command, object_id",
                             [("jh", "hitchin"), ("hn", "hitchin"), ("hn", "split")])
    def test_broken_filtration_is_a_failed_check(self, monkeypatch, capsys, command, object_id):
        planted = Violation(object_id, "Planted", "one violation")
        monkeypatch.setattr(higgs_lab.filtration, "verify_filtration", lambda m, f: [planted])
        argv = [command, str(HITCHIN_PAIR), "--object", object_id]
        line = self.error_line(capsys, argv, 1)
        assert line == f"error: under-declared family: {object_id}: Planted (one violation)"

    def test_broken_filtration_fails_hn_uniqueness(self, monkeypatch, capsys):
        planted = Violation("hitchin", "Planted", "one violation")
        monkeypatch.setattr(higgs_lab.filtration, "verify_filtration", lambda m, f: [planted])
        assert run(["verify", str(HITCHIN_PAIR)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("fail")] == [
            "fail hn_uniqueness              hitchin  hitchin: Planted (one violation)",
            "fail hn_uniqueness              split  hitchin: Planted (one violation)",
        ]


class TestVerify:
    def test_clean_file_passes(self, hitchin_file, capsys):
        assert run(["verify", hitchin_file, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["failed"] == 0
        checks = {c["check"] for c in report["checks"]}
        assert {
            "stability_ladder",
            "quotient_formulation",
            "torsion_free_formulation",
            "rank_p_residual",
            "dim1_coincidence",
            "jh_grading_invariance",
            "hn_uniqueness",
            "direct_sum",
        } <= checks

    def test_a_planted_step_rule_fails_the_theorem_checks(self, monkeypatch, capsys):
        # the searches, the census and the verifier read one step rule: a rule that
        # accepts every step finds chains that contradict JH and HN uniqueness
        monkeypatch.setattr(higgs_lab.filtration, "_step_violations", lambda *args: iter(()))
        assert run(["verify", str(HITCHIN_PAIR), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        failing = [(c["check"], c["subject"], c["detail"])
                   for c in report["checks"] if c["status"] == "fail"]
        assert failing == [
            ("jh_grading_invariance", "hitchin", "2 chain(s), 2 grading(s)"),
            ("hn_uniqueness", "split", "2 valid chain(s) by search"),
        ]

    def test_bogomolov_contradiction_fails(self, tmp_path, capsys):
        path = tmp_path / "surface.json"
        path.write_text(json.dumps(BAD_SURFACE))
        assert run(["verify", str(path), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        failing = [c for c in report["checks"] if c["status"] == "fail"]
        assert any(c["check"] == "bogomolov" for c in failing)

    def test_nonnegative_discriminant_passes(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BAD_SURFACE))
        doc["objects"][0]["surface_chern"] = {
            "c1H": "0/1",
            "ch2": "-1/1",
            "c1c1X": "0/1",
            "c1sq": "0/1",
            "c2int": "1/1",
        }
        path = tmp_path / "surface.json"
        path.write_text(json.dumps(doc))
        assert run(["verify", str(path)]) == 0

    def test_semistable_pairs_get_direct_sum_checks_only(self, tmp_path, capsys):
        doc = {
            "ambient": {"n": 1, "genus": 1, "degH": 1},
            "objects": [
                {"type": "chain", "id": "a", "degrees": [0]},
                {"type": "chain", "id": "b", "degrees": [0]},
                {"type": "chain", "id": "c", "degrees": [1]},
            ],
        }
        path = tmp_path / "lines.json"
        path.write_text(json.dumps(doc))
        assert run(["verify", str(path), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        # pair subjects hold spaces; no morphism_table or extension_semistable line remains
        pairs = [c for c in report["checks"] if " " in c["subject"]]
        assert pairs == [
            {
                "check": "direct_sum",
                "subject": "a (+) b",
                "status": "pass",
                "detail": "sum_semistable=True parts=True",
            },
            {
                "check": "direct_sum",
                "subject": "a (+) c",
                "status": "pass",
                "detail": "sum_semistable=False parts=False",
            },
            {
                "check": "direct_sum",
                "subject": "b (+) c",
                "status": "pass",
                "detail": "sum_semistable=False parts=False",
            },
        ]

    @pytest.mark.parametrize(
        "a_entries, b_id, b_entries",
        [(["p(+)q", "p"], "B", ["r", "q(+)r"]), (["A(+)B"], "B(+)C", ["C"])],
        ids=["two-pairs", "the-sum"],
    )
    def test_colliding_sum_labels_skip_the_pair(self, tmp_path, capsys, a_entries, b_id, b_entries):
        """Ids whose sum labels would clash, two pairs on one label or a pair on the sum's id:
        no model of the sum is built, so the pair is decided like any other."""

        def sheaf(rank):  # degree 0 on a genus-1 curve
            return {"rank": rank, "degH": "0", "chi": ["0", str(rank)]}

        def model(oid, ids):
            entries = [{"id": i, "data": sheaf(1), "quotient": sheaf(1)} for i in ids]
            return {"type": "model", "id": oid, "data": sheaf(2), "subobjects": entries}

        doc = {"ambient": {"n": 1, "genus": 1, "degH": 1},
               "objects": [model("A", a_entries), model(b_id, b_entries)]}
        path = tmp_path / "collide.json"
        path.write_text(json.dumps(doc))
        assert run(["verify", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        line = f"pass direct_sum                 A (+) {b_id}  sum_semistable=True parts=True"
        assert line in lines, lines
        assert "checks: 15 passed, 0 failed, 0 skipped" in lines, lines

    def test_product_family_limit(self, tmp_path, capsys):
        # arrow-free chains of 5, 4 and 5 line bundles: families of (30+2)(14+2) = 512 and 1,024.
        # A chain pair is decided by max flow and any other pair by each factor's parts, whatever
        # the size of the family
        chains = [{"type": "chain", "id": id_, "degrees": [0] * size}
                  for id_, size in (("A", 5), ("B", 4), ("C", 5))]
        ambient = {"n": 1, "genus": 1, "degH": 1}
        path = tmp_path / "chains.json"
        path.write_text(json.dumps({"ambient": ambient, "objects": chains}))
        assert run(["verify", str(path)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if "(+)" in line]
        assert lines == [
            "pass direct_sum                 A (+) B  sum_semistable=True parts=True",
            "pass direct_sum                 A (+) C  sum_semistable=True parts=True",
            "pass direct_sum                 B (+) C  sum_semistable=True parts=True",
        ]
        kd = KahlerData.curve(1, 1)
        declared = [model_to_json(LoadedObject(realize(HiggsChainSpec(kd, (0,) * 5), oid)))
                    for oid in ("A", "C")]
        chain = {**chains[2], "id": "D"}
        path.write_text(json.dumps({"ambient": ambient, "objects": [*declared, chain]}))
        assert run(["verify", str(path)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if "(+)" in line]
        assert lines == [  # a declared pair, then two mixed ones
            "pass direct_sum                 A (+) C  sum_semistable=True parts=True",
            "pass direct_sum                 A (+) D  sum_semistable=True parts=True",
            "pass direct_sum                 C (+) D  sum_semistable=True parts=True",
        ]

    def test_a_chain_pair_past_the_realize_bound_passes(self, tmp_path, capsys):
        # a cycle of arrows closes every summand set but the empty and the full one; the
        # 20-summand sum is decided by max flow, never realized
        cycle = [[i, i % 10 + 1] for i in range(1, 11)]
        doc = {
            "ambient": {"n": 1, "genus": 1, "degH": 1},
            "objects": [
                {"type": "chain", "id": oid, "degrees": [0] * 10, "arrows": cycle}
                for oid in ("A", "B")
            ],
        }
        path = tmp_path / "cycles.json"
        path.write_text(json.dumps(doc))
        assert run(["verify", str(path)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if "(+)" in line]
        assert lines == ["pass direct_sum                 A (+) B  sum_semistable=True parts=True"]

    def test_only_declared_pairs_reach_the_product_family(self, monkeypatch, tmp_path, capsys):
        """Chain pairs are summed by chain_sum; sum_semistable serves declared pairs."""
        calls = []
        real = suite.sum_semistable
        monkeypatch.setattr(
            suite, "sum_semistable", lambda a, b: calls.append((a.id, b.id)) or real(a, b)
        )
        assert run(["fuzz", "--seed", "0", "--count", "100", "--max-rank", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("pass direct_sum") for line in lines)
        assert calls == []
        assert run(["verify", str(_declared_pair(tmp_path))]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert calls == [("hitchin", "split")]
        assert (
            "pass direct_sum                 hitchin (+) split  sum_semistable=False parts=False"
            in lines
        ), lines

    def test_direct_sum_lines_on_one_slope(self, monkeypatch, tmp_path, capsys):
        # the shape of the deep-search workload: a Hitchin pair and an equal-degree m=5 chain,
        # all of slope -1 on a genus-3 curve.  Each chain object is realized once, and no sum
        doc = {
            "ambient": {"n": 1, "genus": 3, "degH": 2},
            "objects": [
                {"type": "chain", "id": "hitchin", "degrees": [1, -3], "arrows": [[1, 2]]},
                {"type": "chain", "id": "split", "degrees": [1, -3]},
                {"type": "chain", "id": "chain", "degrees": [-1] * 5},
            ],
        }
        path = tmp_path / "one_slope.json"
        path.write_text(json.dumps(doc))
        calls, real = [], higgs_lab.model.realize
        counted = lambda spec, object_id="E": calls.append(object_id) or real(spec, object_id)
        for name, module in list(sys.modules.items()):  # every module that binds realize
            if name.startswith("higgs_lab") and vars(module).get("realize") is real:
                monkeypatch.setattr(module, "realize", counted)
        assert run(["verify", str(path)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if "(+)" in line]
        assert lines == [
            "pass direct_sum                 hitchin (+) split  sum_semistable=False parts=False",
            "pass direct_sum                 hitchin (+) chain  sum_semistable=True parts=True",
            "pass direct_sum                 split (+) chain  sum_semistable=False parts=False",
        ]
        assert calls == ["hitchin", "split", "chain"]

    @pytest.mark.parametrize(
        "check, name, wrong",
        [
            ("stability_ladder", "slope_classify", _stable_on_split),
            ("quotient_formulation", "gieseker_classify_by_quotients", _stable_on_split),
            ("torsion_free_formulation", "gieseker_classify_tf_quotients", _stable_on_split),
            ("rank_p_residual", "compare_scaled", lambda real: lambda *_: EventualOrder.SUCCEEDS),
            ("dim1_coincidence", "slope_classify", _stable_on_split),
            ("jh_grading_invariance", "jordan_holder_census", _second_grading),
            ("hn_uniqueness", "all_harder_narasimhan", lambda real: lambda model: []),
            ("direct_sum", "chain_sum", lambda real: lambda a, b: a),  # the sum is hitchin
            ("direct_sum", "chain_sum", _unshifted_arrows),
            ("direct_sum", "chain_semistable", lambda real: lambda spec: not real(spec)),
            ("direct_sum", "sum_semistable", lambda real: lambda a, b: not real(a, b)),
        ],
    )
    def test_every_check_can_fail(self, monkeypatch, capsys, tmp_path, check, name, wrong):
        """A wrong answer from the one function a check judges makes the check fail.

        Only a declared pair reaches sum_semistable, so that plant runs on the
        Hitchin pair written back as declared models.  Unshifted arrows show
        only when the second chain of a pair has arrows.
        """
        path = _declared_pair(tmp_path) if name == "sum_semistable" else HITCHIN_PAIR
        if wrong is _unshifted_arrows:
            path = _arrowed_second(tmp_path)
        monkeypatch.setattr(suite, name, wrong(getattr(suite, name)))
        assert run(["verify", str(path), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert any(c["check"] == check and c["status"] == "fail" for c in report["checks"])

    @pytest.mark.parametrize(
        "size, jh_line",
        [
            (6, "pass jh_grading_invariance      E  720 chain(s), 1 grading(s)"),
            (7, "pass jh_grading_invariance      E  5040 chain(s), 1 grading(s)"),
            (8, "pass jh_grading_invariance      E  40320 chain(s), 1 grading(s)"),
            (10, "skip jh_grading_invariance      E  census scans more than 500000"
                 " lattice entries"),
        ],
        ids=["m6", "m7", "m8", "m10"],
    )
    def test_equal_degree_chain_search_lines(self, tmp_path, capsys, size, jh_line):
        # the JH census counts m! chains up to m=8 and meets its work bound past it;
        # the HN search stays within its node bound throughout
        doc = {
            "ambient": {"n": 1, "genus": 1, "degH": 1},
            "objects": [{"type": "chain", "id": "E", "degrees": [0] * size}],
        }
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        assert run(["verify", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "pass hn_uniqueness              E  1 valid chain(s) by search" in lines, lines
        assert jh_line in lines, lines


    @pytest.mark.parametrize(
        "rank, jh_line",
        [
            (113, "pass jh_grading_invariance      E  1 chain(s), 1 grading(s)"),
            (114, "skip jh_grading_invariance      E  census scans more than 500000"
                  " lattice entries"),
        ],
        ids=["n113", "n114"],
    )
    def test_census_bound_on_a_declared_nested_chain(self, tmp_path, capsys, rank, jh_line):
        # E of rank n declares one entry of each rank below it, nested and all of slope 0:
        # one JH chain, n steps deep.  Its census scans n(n-1) + (n-1)^2 plus (k-1)^2 for
        # each k < n: 487,256 entries at n=113 and 500,251 at n=114, past CENSUS_BOUND
        sheaf = lambda r: {"rank": r, "degH": "0", "chi": ["0", str(r)]}
        entries = [{"id": f"F{k}", "data": sheaf(k), "quotient": sheaf(rank - k),
                    "contains": [f"F{j}" for j in range(1, k)]} for k in range(1, rank)]
        doc = {"ambient": {"n": 1, "genus": 1, "degH": 1},
               "objects": [{"type": "model", "id": "E", "data": sheaf(rank),
                            "subobjects": entries}]}
        path = tmp_path / "nested.json"
        path.write_text(json.dumps(doc))
        assert run(["verify", str(path)]) == 0
        assert jh_line in capsys.readouterr().out.splitlines()

    def test_step_with_torsion_quotient_is_no_hn_step(self, tmp_path, capsys):
        # O(5) + O on the projective line; E/F is O plus a length-one torsion
        def sheaf(rank, degree, torsion_free=True):  # genus 0, degH 1
            chi = [str(degree + rank), str(rank)] if rank else [str(degree)]
            return {"rank": rank, "degH": str(degree), "chi": chi, "torsion_free": torsion_free}

        model = {
            "type": "model",
            "id": "E",
            "data": sheaf(2, 5),
            "subobjects": [
                {"id": "F", "data": sheaf(1, 4), "quotient": sheaf(1, 1, False),
                 "quotient_torsion_part": sheaf(0, 1, False)},
                {"id": "Fp", "data": sheaf(1, 5), "quotient": sheaf(1, 0), "contains": ["F"]},
            ],
        }
        path = tmp_path / "torsion_step.json"
        doc = {"ambient": {"n": 1, "genus": 0, "degH": 1}, "objects": [model]}
        path.write_text(json.dumps(doc))
        assert run(["verify", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(
            line.startswith("pass hn_uniqueness")
            and line.endswith("E  1 valid chain(s) by search")
            for line in lines
        ), lines

    @staticmethod
    def skips(capsys, path) -> list[str]:
        assert run(["verify", str(path)]) == 0
        return [line for line in capsys.readouterr().out.splitlines() if line.startswith("skip")]

    def test_incomparable_maximizers_skip_hn_uniqueness(self, tmp_path, capsys):
        assert self.skips(capsys, _written(tmp_path, ambiguous_model())) == [
            "skip jh_grading_invariance      E  object is unstable",
            "skip hn_uniqueness              E  incomparable maximizers ['A', 'B'] above 0",
        ]

    def test_a_torsion_quotient_without_enlargement_skips(self, tmp_path, capsys):
        assert self.skips(capsys, _written(tmp_path, _struck_closure())) == [
            "skip torsion_free_formulation   E  "
            "entry F has a torsion quotient and no declared enlargement",
        ]

    def test_the_search_bound_skips_hn_uniqueness(self, monkeypatch, capsys):
        # split's HN search opens 2 nodes: the object and {1}, of degree 1 over a
        # quotient of degree -1; the HN cut drops {2}, whose p is below its quotient's
        monkeypatch.setattr(higgs_lab.filtration, "SEARCH_BOUND", 1)
        assert self.skips(capsys, HITCHIN_PAIR) == [
            "skip jh_grading_invariance      split  object is unstable",
            "skip hn_uniqueness              split  more than 1 search nodes",
        ]

    def test_walls_pass_hn_uniqueness_within_64_search_nodes(self, monkeypatch, tmp_path, capsys):
        # the HN cut opens 29 nodes on ramp and 16 on steps; without it each search
        # opens all 255 nonzero masks of 8 summands, and both lines skip
        monkeypatch.setattr(higgs_lab.filtration, "SEARCH_BOUND", 64)
        path = tmp_path / "walls.json"
        path.write_text(json.dumps(walls_file()))
        assert run(["verify", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if "hn_uniqueness" in line] == [
            "pass hn_uniqueness              ramp  1 valid chain(s) by search",
            "pass hn_uniqueness              steps  1 valid chain(s) by search",
        ]


class TestFuzz:
    def test_empty_run_passes(self, capsys):
        assert run(["fuzz", "--seed", "1", "--count", "0"]) == 0

    def test_deterministic(self, capsys):
        args = ["fuzz", "--seed", "9", "--count", "30", "--format", "json"]
        run(args)
        first = capsys.readouterr().out
        run(args)
        second = capsys.readouterr().out
        assert first == second

    def test_realized_chains_never_fail(self, capsys):
        assert (
            run(["fuzz", "--seed", "5", "--count", "60", "--max-rank", "5", "--genus", "3"])
            == 0
        )

    def test_seed_changes_report(self, capsys):
        run(["fuzz", "--seed", "1", "--count", "5", "--format", "json"])
        first = capsys.readouterr().out
        run(["fuzz", "--seed", "2", "--count", "5", "--format", "json"])
        second = capsys.readouterr().out
        assert first != second

    def test_report_matches_golden(self, capsys):
        assert run(["fuzz", "--seed", "0", "--count", "40", "--max-rank", "4"]) == 0
        assert capsys.readouterr().out.encode("utf-8") == FUZZ_GOLDEN.read_bytes()


def filtration_golden_files() -> list[tuple[str, dict]]:
    """(name, chain file) for the filtration golden: the Hitchin pair, equal-degree chains
    of 5 and 6 summands, and the first 30 strictly semistable chains with arrows of a
    seeded draw (a stable chain's JH filtration is the object alone)."""
    files = [("hitchin_pair", json.loads(HITCHIN_PAIR.read_text()))]
    for size in (5, 6):
        chain = {"type": "chain", "id": "E", "degrees": [0] * size, "arrows": []}
        files.append((f"equal{size}", {"ambient": {"n": 1, "genus": 1, "degH": 1},
                                       "objects": [chain]}))
    rng, drawn = random.Random(2507), 0
    while drawn < 30:
        spec = random_chain_spec(rng, 7, 3)
        verdict = gieseker_classify(realize(spec))
        if spec.arrows and verdict.classification is StabilityClass.STRICTLY_SEMISTABLE:
            arrows = [list(a) for a in sorted(spec.arrows)]
            chain = {"type": "chain", "id": "E", "degrees": list(spec.summand_degrees),
                     "arrows": arrows}
            files.append((f"seeded{drawn:02d}", {"ambient": kahler_to_json(spec.ambient),
                                                  "objects": [chain]}))
            drawn += 1
    return files


def filtration_golden_text(tmp_path, capsys) -> str:
    """The jh and hn table reports, exit codes and stderr of every golden file's objects."""
    out = []
    for name, doc in filtration_golden_files():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        genus = doc["ambient"]["genus"]
        for chain in doc["objects"]:
            for command in ("jh", "hn"):
                code = run([command, str(path), "--object", chain["id"]])
                captured = capsys.readouterr()
                out.append(f"$ {command} {name} --object {chain['id']}: genus {genus}, "
                           f"degrees {chain['degrees']}, arrows {chain['arrows']}: exit {code}\n")
                out += [captured.out, *(f"stderr: {line}\n" for line in captured.err.splitlines())]
    return "".join(out)


def test_filtration_reports_match_golden(tmp_path, capsys):
    """jh and hn reports, byte for byte, on the Hitchin pair, equal-degree and seeded chains."""
    text = filtration_golden_text(tmp_path, capsys)
    assert text.encode("utf-8") == FILTRATION_GOLDEN.read_bytes()


def walls_file(size=8) -> dict:
    """Two chains without arrows, genus 2: degrees 0..m-1 and 0^(m/2) 1^(m/2).  Every
    object's HN search decides each pair of nested index sets, and many pairs share sheaves."""
    ramp = {"type": "chain", "id": "ramp", "degrees": list(range(size)), "arrows": []}
    steps = {"type": "chain", "id": "steps", "degrees": [0] * (size // 2) + [1] * (size // 2),
             "arrows": []}
    return {"ambient": {"n": 1, "genus": 2, "degH": 1}, "objects": [ramp, steps]}


def walls_text(tmp_path, capsys, commands) -> bytes:
    """Each command's report, exit code and stderr on the 8-summand walls file."""
    path = tmp_path / "walls.json"
    path.write_text(json.dumps(walls_file()))
    out = []
    for command in commands:
        code = run([command[0], str(path), *command[1:]])
        captured = capsys.readouterr()
        out += [f"$ {' '.join([command[0], 'walls8', *command[1:]])}: exit {code}\n",
                captured.out, *(f"stderr: {line}\n" for line in captured.err.splitlines())]
    return "".join(out).encode("utf-8")


def test_walls_verify_matches_golden(tmp_path, capsys):
    """verify, in table and JSON form, byte for byte on the two 8-summand arrowless chains."""
    text = walls_text(tmp_path, capsys, [["verify", "--format", fmt] for fmt in ("table", "json")])
    assert text == WALLS_GOLDEN.read_bytes()


def test_walls_hn_matches_golden(tmp_path, capsys):
    """hn, in table and JSON form, byte for byte on each 8-summand arrowless chain: the
    maximal destabilizer is chosen among 254 entries at every step."""
    commands = [["hn", "--object", oid, "--format", fmt]
                for oid in ("ramp", "steps") for fmt in ("table", "json")]
    assert walls_text(tmp_path, capsys, commands) == WALLS_HN_GOLDEN.read_bytes()


class TestBadInput:
    """Malformed input exits 2 with one stderr line and no traceback."""

    AMBIENT = {"n": 1, "genus": 1, "degH": 1}

    @staticmethod
    def input_error(capsys, argv) -> str:
        """Run argv, expect exit 2 with one stderr line and no report; return the line."""
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        return lines[0]

    def run_all(self, tmp_path, capsys, doc, object_id) -> list[str]:
        """input_error through analyze, verify, jh and hn; return the four lines."""
        path = tmp_path / "bad.json"
        if isinstance(doc, bytes):
            path.write_bytes(doc)
        else:
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        lines = []
        for command in ("analyze", "verify", "jh", "hn"):
            extra = ["--object", object_id] if command in ("jh", "hn") else []
            lines.append(self.input_error(capsys, [command, str(path), *extra]))
        return lines

    def test_entry_reusing_the_object_id_is_named(self, tmp_path, capsys):
        line = {"rank": 1, "degH": "0", "chi": ["0", "1"]}
        entry = {"id": "E", "data": line, "quotient": line}
        data = {"rank": 2, "degH": "0", "chi": ["0", "2"]}
        doc = {"ambient": self.AMBIENT,
               "objects": [{"type": "model", "id": "E", "data": data, "subobjects": [entry]}]}
        lines = self.run_all(tmp_path, capsys, doc, "E")
        assert set(lines) == {"error: object E: a subobject may not reuse the model id 'E'"}

    @pytest.mark.parametrize("field", ["degH", "chi"])
    def test_a_huge_rejected_value_is_cut_short(self, tmp_path, capsys, field):
        # a 100,001-digit degH, past int()'s digit limit, or a chi item 900 lists deep
        sheaf = {"rank": 1, "degH": "0", "chi": ["0", "1"]}
        if field == "degH":
            sheaf["degH"], shown = "9" * 100_001, repr("9" * 100_001)
        else:
            item = "1"
            for _ in range(900):
                item = [item]
            sheaf["chi"], shown = ["0", item], repr(item)
        doc = {"ambient": self.AMBIENT, "objects": [{"type": "model", "id": "E", "data": sheaf}]}
        lines = self.run_all(tmp_path, capsys, doc, "E")
        assert all(len(line.encode()) < 200 for line in lines), lines
        assert set(lines) == {f"error: E.data.{field}: expected a rational 'num/den', got "
                              f"{shown[:60]}... ({len(shown)} characters)"}

    def test_rank_zero_model(self, tmp_path, capsys):
        zero = {"rank": 0, "degH": "0/1", "chi": []}
        doc = {"ambient": self.AMBIENT, "objects": [{"type": "model", "id": "Z", "data": zero}]}
        self.run_all(tmp_path, capsys, doc, "Z")

    def test_zero_denominator(self, tmp_path, capsys):
        data = {"rank": 1, "degH": "1/0", "chi": ["0/1", "1/1"]}
        doc = {"ambient": self.AMBIENT, "objects": [{"type": "model", "id": "E", "data": data}]}
        self.run_all(tmp_path, capsys, doc, "E")

    def test_containment_of_larger_rank(self, tmp_path, capsys):
        def sheaf(rank):
            return {"rank": rank, "degH": "0/1", "chi": ["0/1", f"{rank}/1"]}

        def entry(eid, rank, contains):
            return {"id": eid, "data": sheaf(rank), "quotient": sheaf(3 - rank), "contains": contains}

        model = {
            "type": "model",
            "id": "E",
            "data": sheaf(3),
            "subobjects": [entry("A", 1, ["B"]), entry("B", 2, [])],
        }
        self.run_all(tmp_path, capsys, {"ambient": self.AMBIENT, "objects": [model]}, "E")

    def test_containment_order_ignores_the_hash_seed(self, tmp_path):
        # A holds three members of larger rank; their messages come in id order
        def entry(eid, rank, contains=()):
            return {"id": eid, "data": self.curve_sheaf(rank, 0),
                    "quotient": self.curve_sheaf(3 - rank, 0), "contains": list(contains)}

        entries = [entry("A", 1, "DCB"), entry("B", 2), entry("C", 2), entry("D", 2)]
        model = {"type": "model", "id": "E", "data": self.curve_sheaf(3, 0), "subobjects": entries}
        path = tmp_path / "order.json"
        path.write_text(json.dumps({"ambient": self.AMBIENT, "objects": [model]}))
        src = str(Path(__file__).parents[1] / "src")
        pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        errors = []
        for seed in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-c", "from higgs_lab.cli import main; main()", "analyze", path],
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath),
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert done.returncode == 2 and done.stdout == "", done.stderr
            errors.append(done.stderr)
        assert errors == 2 * [
            "error: object E fails validation: A: Containment (contains B of larger rank);"
            " A: Containment (contains C of larger rank); A: Containment (contains D of larger rank)\n"
        ]

    @staticmethod
    def curve_sheaf(rank, degree):  # genus 1, degH 1: chi(k) = degree + rank*k
        return {"rank": rank, "degH": str(degree), "chi": [str(degree), str(rank)]}

    def test_equal_rank_containment_of_larger_chi(self, tmp_path, capsys):
        sheaf = self.curve_sheaf

        def entry(eid, degree, contains):
            return {"id": eid, "data": sheaf(1, degree), "quotient": sheaf(1, -degree),
                    "contains": contains}

        model = {
            "type": "model",
            "id": "E",
            "data": sheaf(2, 0),
            "subobjects": [entry("A", 1, ["B"]), entry("B", 2, [])],
        }
        lines = self.run_all(tmp_path, capsys, {"ambient": self.AMBIENT, "objects": [model]}, "E")
        assert all("A: Containment (contains B of equal rank" in line for line in lines), lines

    def test_rank_zero_quotient_declared_torsion_free(self, tmp_path, capsys):
        quotient = {"rank": 0, "degH": "1", "chi": ["1"], "torsion_free": True}
        entry = {"id": "F", "data": self.curve_sheaf(1, -1), "quotient": quotient}
        model = {"type": "model", "id": "E", "data": self.curve_sheaf(1, 0), "subobjects": [entry]}
        lines = self.run_all(tmp_path, capsys, {"ambient": self.AMBIENT, "objects": [model]}, "E")
        assert all("F: TorsionQuotient" in line for line in lines), lines

    @pytest.mark.parametrize("case", [
        "chain_on_a_surface", "chain_without_degrees", "arrow_from_zero", "rank_range",
        "torsion_part_of_positive_rank", "torsion_part_of_a_torsion_free_quotient",
        "torsion_part_chi_not_eventually_positive",
    ])
    def test_one_line_rejections(self, tmp_path, capsys, case):
        sheaf = self.curve_sheaf
        torsion = {**sheaf(0, 1), "torsion_free": False}
        torsion_quotient = {**sheaf(1, 1), "torsion_free": False}
        twist = {"id": "F", "data": sheaf(1, -1), "quotient": torsion_quotient}
        surface = {"n": 2, "hn": "1/1", "c1X_H": "0/1"}
        chains = {  # case -> (ambient, degrees, arrows, message)
            "chain_on_a_surface": (surface, [0, 0], [], "chains live on curves"),
            "chain_without_degrees": (self.AMBIENT, [], [], "a chain needs at least one summand"),
            "arrow_from_zero": (self.AMBIENT, [0, 0], [[0, 1]],
                                "arrow (0, 1) indexes outside 1..2"),
        }
        entries = {  # case -> (the one entry of a rank-2 object, its violation)
            "rank_range": ({"id": "F", "data": sheaf(3, 0), "quotient": sheaf(0, 0)},
                           "RankRange (rank 3 outside 0..2)"),
            "torsion_part_of_positive_rank": (
                {**twist, "quotient_torsion_part": torsion_quotient},
                "TorsionPart (torsion part must have rank zero)"),
            "torsion_part_of_a_torsion_free_quotient": (
                {"id": "F", "data": sheaf(1, 0), "quotient": sheaf(1, 0),
                 "quotient_torsion_part": torsion},
                "TorsionPart (torsion-free quotient carries a torsion part)"),
            "torsion_part_chi_not_eventually_positive": (
                {**twist, "quotient_torsion_part": {**sheaf(0, -1), "torsion_free": False}},
                "TorsionPart (torsion part chi must be eventually positive)"),
        }
        if case in chains:
            ambient, degrees, arrows, message = chains[case]
            chain = {"type": "chain", "id": "C", "degrees": degrees, "arrows": arrows}
            doc, oid, want = {"ambient": ambient, "objects": [chain]}, "C", f"chain C: {message}"
        else:
            entry, message = entries[case]
            model = {"type": "model", "id": "E", "data": sheaf(2, 0), "subobjects": [entry]}
            doc, oid = {"ambient": self.AMBIENT, "objects": [model]}, "E"
            want = f"object E fails validation: F: {message}"
        assert set(self.run_all(tmp_path, capsys, doc, oid)) == {f"error: {want}"}

    @pytest.mark.parametrize("torsion_free", [True, False])
    def test_nonzero_subobject_of_rank_zero(self, tmp_path, capsys, torsion_free):
        data = {"rank": 0, "degH": "1", "chi": ["1"], "torsion_free": torsion_free}
        entry = {"id": "T", "data": data, "quotient": self.curve_sheaf(1, -1)}
        model = {"type": "model", "id": "E", "data": self.curve_sheaf(1, 0), "subobjects": [entry]}
        lines = self.run_all(tmp_path, capsys, {"ambient": self.AMBIENT, "objects": [model]}, "E")
        assert all("T: TorsionSubobject" in line for line in lines), lines

    @staticmethod
    def typed_file():
        """A valid file touching every integer and array field of the schema."""

        def sheaf(rank):  # slope 1 on a genus-1 curve
            return {"rank": rank, "degH": str(rank), "chi": [str(rank), str(rank)]}

        def entry(eid, rank, contains):
            return {"id": eid, "data": sheaf(rank), "quotient": sheaf(3 - rank), "contains": contains}

        return {
            "ambient": {"n": 1, "genus": 1, "degH": 1},
            "objects": [
                {"type": "chain", "id": "C", "degrees": [0, 0], "arrows": [[1, 2]]},
                {
                    "type": "model",
                    "id": "E",
                    "data": sheaf(3),
                    "subobjects": [entry("F", 1, []), entry("G", 2, ["F"])],
                },
            ],
        }

    def test_typed_file_is_valid(self, tmp_path, capsys):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(self.typed_file()))
        assert run(["verify", str(path)]) == 0

    @pytest.mark.parametrize(
        "where, value",
        [
            (("objects", 1, "subobjects", 0, "data", "rank"), 1.9),
            (("objects", 0, "degrees"), "12"),
            (("ambient", "genus"), 1.5),
            (("objects", 1, "subobjects", 1, "contains"), "F"),
            (("ambient", "n"), True),
            (("ambient", "degH"), "1"),
            (("objects", 0, "degrees", 1), 1.0),
            (("objects", 0, "arrows", 0, 0), "1"),
            (("objects", 0, "arrows"), {}),
            (("objects", 1, "subobjects"), {}),
            (("objects", 1, "subobjects", 0, "data", "degH"), True),
            (("objects", 1, "id"), "0"),
            (("objects", 1, "subobjects", 0, "data", "torsion_free"), "no"),
            (("objects", 1, "family_complete"), "no"),
            (("objects", 1, "locally_free"), 1),
            (("objects", 1, "id"), [1]),
            (("objects", 1, "id"), 3),
            (("objects", 1, "subobjects", 1, "id"), 5),
            (("objects", 1, "subobjects", 1, "contains", 0), None),
            (("objects", 1, "subobjects", 1, "contains"), [f"id{i}" for i in range(10_000)] + [7]),
        ],
    )
    def test_schema_types_are_enforced(self, tmp_path, capsys, where, value):
        # each of these used to be coerced to a valid file
        self.run_all(tmp_path, capsys, _replaced(self.typed_file(), where, value), "E")

    @pytest.mark.parametrize("at", [0, 5_000, 10_000])
    def test_first_bad_contains_id_is_named_wherever_it_sits(self, tmp_path, capsys, at):
        ids = [f"id{i}" for i in range(10_000)] + [None]
        ids.insert(at, 7)
        doc = _replaced(self.typed_file(), ("objects", 1, "subobjects", 1, "contains"), ids)
        lines = self.run_all(tmp_path, capsys, doc, "E")
        assert set(lines) == {"error: G.contains: expected str, got int"}

    @pytest.mark.parametrize(
        "where, value, line",
        [
            (("objects", 0, "arrows", 0), [1],
             "error: chain C.arrows: expected a pair [i, j], got [1]"),
            (("objects", 0, "arrows", 0), [1, 2, 3],
             "error: chain C.arrows: expected a pair [i, j], got [1, 2, 3]"),
            (("objects", 1, "subobjects"), ["x"], "error: subobject: expected dict, got str"),
            (("objects", 1, "data"), [1], "error: E.data: expected dict, got list"),
            (("ambient",), {"n": 2, "hn": "1", "c1X_H": "0", "todd": 5},
             "error: ambient.todd: expected list, got int"),
            (("ambient",), {"n": 2, "hn": "1", "c1X_H": "0", "todd": 0},
             "error: ambient.todd: expected list, got int"),
            (("ambient",), {"n": 2, "hn": "1", "c1X_H": "0", "todd": False},
             "error: ambient.todd: expected list, got bool"),
            (("ambient",), {"n": 2, "hn": "1", "c1X_H": "0", "todd": ""},
             "error: ambient.todd: expected list, got str"),
            (("ambient",), {"n": 2, "hn": "1", "c1X_H": "0", "todd": []},
             "error: ambient: todd pairing vector must have length n + 1"),
            (("objects", 1, "surface_chern"), [1],
             "error: E.surface_chern: expected dict, got list"),
            (("objects", 1, "surface_chern"), "x",
             "error: E.surface_chern: expected dict, got str"),
        ],
        ids=["arrow-of-one", "arrow-of-three", "subobject-str", "data-list", "todd-int",
             "todd-zero", "todd-false", "todd-empty-str", "todd-empty-list",
             "surface-chern-list", "surface-chern-str"],
    )
    def test_a_block_of_the_wrong_shape_names_the_shape(self, tmp_path, capsys, where, value, line):
        doc = _replaced(self.typed_file(), where, value)
        assert set(self.run_all(tmp_path, capsys, doc, "E")) == {line}

    @staticmethod
    def repeated_blocks(**changed):
        """Rank-1 entries A, B and C of O + O on the projective line, all with one sheaf block.

        The block mixes JSON types, so each value changed in the tests below
        leaves it equal under Python's ==.  changed maps an entry id to the
        (field, value) set in that entry's data block.
        """

        def line():  # O on the projective line: chi(k) = 1 + k
            return {"rank": 1, "degH": 0, "chi": [1, "1"], "torsion_free": True}

        entries = []
        for eid in "ABC":
            data = line()
            if eid in changed:
                data[changed[eid][0]] = changed[eid][1]
            entries.append({"id": eid, "data": data, "quotient": line()})
        total = {"rank": 2, "degH": "0", "chi": ["2", "2"]}
        model = {"type": "model", "id": "E", "data": total, "subobjects": entries}
        return {"ambient": {"n": 1, "genus": 0, "degH": 1}, "objects": [model]}

    @pytest.mark.parametrize(
        "field, value, line",
        [
            ("rank", True, "error: B.data.rank: expected int, got bool"),
            ("rank", 1.0, "error: B.data.rank: expected int, got float"),
            ("degH", False, "error: B.data.degH: expected a rational 'num/den', got False"),
            ("chi", [True, "1"], "error: B.data.chi: expected a rational 'num/den', got True"),
            ("torsion_free", 1, "error: B.data.torsion_free: expected bool, got int"),
        ],
        ids=["rank-true", "rank-float", "degH-false", "chi-true", "torsion_free-int"],
    )
    def test_a_block_equal_to_a_parsed_one_under_python_is_parsed_anew(
        self, tmp_path, capsys, field, value, line
    ):
        # true == 1 == 1.0 and false == 0 in Python; A's parsed block must not stand in for B's
        doc = self.repeated_blocks(B=(field, value))
        assert set(self.run_all(tmp_path, capsys, doc, "E")) == {line}

    def test_a_string_rational_equal_to_a_parsed_int_loads(self, tmp_path, capsys):
        path = tmp_path / "int_degree.json"
        path.write_text(json.dumps(self.repeated_blocks(B=("degH", "0"))))
        assert run(["analyze", str(path)]) == 0

    def test_a_repeated_bad_block_is_named_where_it_first_sits(self, tmp_path, capsys):
        doc = self.repeated_blocks(B=("rank", "1"), C=("rank", "1"))
        lines = self.run_all(tmp_path, capsys, doc, "E")
        assert set(lines) == {"error: B.data.rank: expected int, got str"}

    @pytest.mark.parametrize("value", [{}, False, 0, [], ""], ids=["{}", "false", "0", "[]", "''"])
    def test_a_falsy_torsion_part_is_no_sheaf(self, tmp_path, capsys, value):
        # only null means "no torsion part"; these used to load as if absent
        doc = self.repeated_blocks()
        doc["objects"][0]["subobjects"][0]["quotient_torsion_part"] = value
        lines = self.run_all(tmp_path, capsys, doc, "E")
        assert len(set(lines)) == 1 and lines[0].startswith("error: A.torsion: "), lines

    @pytest.mark.parametrize("value", ["1.0", " 1 ", "0_1", "1e0", "+1", "1/1 ", "1e4000000"])
    def test_rationals_follow_the_schema_pattern(self, tmp_path, capsys, value):
        # each but the last used to load as the valid value 1
        doc = _replaced(self.typed_file(), ("objects", 1, "subobjects", 0, "data", "degH"), value)
        start = time.perf_counter()
        lines = self.run_all(tmp_path, capsys, doc, "E")
        assert time.perf_counter() - start < 1.0
        assert all("expected a rational" in line for line in lines), lines

    def test_huge_ambient_dimension(self, tmp_path, capsys):
        # chi carries no k^n term, so its check needs no factorial of n
        doc = {
            "ambient": {"n": 10000000, "hn": "1", "c1X_H": "0"},
            "objects": [
                {"type": "model", "id": "E", "data": {"rank": 1, "degH": "0", "chi": ["1"]}}
            ],
        }
        start = time.perf_counter()
        lines = self.run_all(tmp_path, capsys, doc, "E")
        assert time.perf_counter() - start < 1.0
        assert set(lines) == {
            "error: object E fails validation: E: LeadingCoefficient"
            " (k^n coefficient of chi does not match rank * hn / n!)"
        }

    def test_deep_nesting(self, tmp_path, capsys):
        self.run_all(tmp_path, capsys, "[" * 100000 + "]" * 100000, "E")

    def test_integer_beyond_the_digit_limit(self, tmp_path, capsys):
        doc = json.dumps({"ambient": self.AMBIENT, "objects": [
            {"type": "chain", "id": "E", "degrees": ["DEGREE"]}]})
        lines = self.run_all(tmp_path, capsys, doc.replace('"DEGREE"', "9" * 5000), "E")
        assert all(line.startswith("error: not valid JSON: ") for line in lines), lines

    def test_bytes_beyond_utf8(self, tmp_path, capsys):
        lines = self.run_all(tmp_path, capsys, b'{"ambient": "\xff"}', "E")
        prefix = f"error: cannot read {tmp_path / 'bad.json'}: 'utf-8' codec can't decode"
        assert all(line.startswith(prefix) for line in lines), lines

    @pytest.mark.parametrize(
        "flag, value", [("--max-rank", "0"), ("--genus", "-1"), ("--count", "-1")]
    )
    def test_fuzz_flag_out_of_range(self, capsys, flag, value):
        line = self.input_error(capsys, ["fuzz", flag, value])
        assert flag in line

    def test_fuzz_max_rank_is_held_to_the_realize_bound(self, capsys):
        line = self.input_error(capsys, ["fuzz", "--max-rank", "17"])
        assert line == "error: --max-rank must be at most 16, got 17"
        assert run(["fuzz", "--max-rank", "16", "--count", "0"]) == 0


def _replaced(doc, where, value):
    """A copy of a JSON document with the value at path where replaced."""
    doc = copy.deepcopy(doc)
    *parents, last = where
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


def _fields(node, prefix=()):
    """(path, value) of every value below the document root."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,), child
        yield from _fields(child, prefix + (key,))


HITCHIN_DOC = json.loads(HITCHIN_PAIR.read_text())
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(field=st.sampled_from(list(_fields(HITCHIN_DOC))), value=JSON_VALUES)
def test_swapped_field_type_never_raises(field, value):
    """One field of docs/hitchin_pair.json takes a value of another JSON type."""
    where, original = field
    assume(type(original) is not type(value))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "swapped.json"
        path.write_text(json.dumps(_replaced(HITCHIN_DOC, where, value)))
        for command in ("analyze", "verify", "jh", "hn"):
            extra = ["--object", "hitchin"] if command in ("jh", "hn") else []
            assert run([command, str(path), *extra]) in (0, 1, 2)


def test_bad_command_is_input_error(capsys):
    assert run(["frobnicate"]) == 2


def test_commands_leave_no_reference_cycles(capsys):
    """A command run in-process is freed at once, its argument parser included."""
    argv = ["verify", str(HITCHIN_PAIR)]
    assert run(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert run(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def _recorded(monkeypatch, module, name, calls):
    """Bind module.name to the same function, appending each call's arguments to calls."""
    real = getattr(module, name)

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, recording)


def test_no_memo_outlives_its_command(monkeypatch, capsys):
    """A command run twice in one process does the same work twice: nothing it keeps is global.

    Sheaves, verdicts and polynomial comparisons are counted, so a per-scan table of
    comparisons that outlived its scan would show as fewer comparisons the second time.
    """
    sheaves, verdicts, compares = [], [], []
    _recorded(monkeypatch, higgs_lab.model, "chi_curve", sheaves)
    _recorded(monkeypatch, higgs_lab.stability, "_classify", verdicts)
    for module in (higgs_lab.chern, higgs_lab.filtration, higgs_lab.suite):
        _recorded(monkeypatch, module, "compare_scaled", compares)
    counts = []
    for _ in range(2):
        assert run(["verify", str(HITCHIN_PAIR)]) == 0
        counts.append((len(sheaves), len(verdicts), len(compares)))
        for calls in (sheaves, verdicts, compares):
            calls.clear()
    assert counts[0] == counts[1] and min(counts[0]) > 0, counts


def test_fuzz_builds_each_sheaf_once(monkeypatch, capsys):
    """Every chain of a fuzz stream shares its genus's table of sheaves; sums build none."""
    calls = []
    _recorded(monkeypatch, higgs_lab.model, "chi_curve", calls)
    assert run(["fuzz", "--seed", "1", "--count", "100", "--max-rank", "3", "--genus", "2"]) == 0
    built = [(kd.genus, rank, degree) for kd, rank, degree in calls]
    assert len(built) == len(set(built))
    assert {genus for genus, _, _ in built} == {0, 1, 2}
    assert max(rank for _, rank, _ in built) == 3  # sums are decided by max flow: no sheaves


def test_workload_shapes_derive_no_contains(monkeypatch, tmp_path, capsys):
    """Commands on the benchmark's input shapes read keys only, never an entry's contains.

    analyze on an equal-degree m=8 chain, analyze on two declared full lattices (equal and
    distinct degrees), and verify on the Hitchin pair, its split twin and an equal-degree
    m=5 chain, all of one slope.
    """

    def write(name, genus, deg_h, objects):
        path = tmp_path / name
        path.write_text(json.dumps({"ambient": {"n": 1, "genus": genus, "degH": deg_h},
                                    "objects": objects}))
        return str(path)

    def declared(oid, degrees):
        spec = HiggsChainSpec(KahlerData.curve(1, 2), degrees)
        return model_to_json(LoadedObject(realize(spec, object_id=oid)))

    lattices = [declared("equal", (1,) * 8), declared("graded", (3, -2, 0, 5, -4, 1, 2, -1))]
    commands = [
        ["analyze", write("chain.json", 1, 1, [{"type": "chain", "id": "E", "degrees": [0] * 8}])],
        ["analyze", write("declared.json", 1, 2, lattices)],
        ["verify", write("deep.json", 3, 2, [
            {"type": "chain", "id": "hitchin", "degrees": [1, -3], "arrows": [[1, 2]]},
            {"type": "chain", "id": "split", "degrees": [1, -3]},
            {"type": "chain", "id": "chain", "degrees": [-1] * 5},
        ])],
    ]
    reads = []
    derive = higgs_lab.model.SubobjectEntry.contains.fget
    monkeypatch.setattr(higgs_lab.model.SubobjectEntry, "contains",
                        property(lambda e: reads.append(e.id) or derive(e)))
    for argv in commands:
        assert run(argv) == 0, argv
        assert reads == [], (argv, reads[:5])
    declared("probe", (0, 0))  # the count is live: serializing derives every entry's contains
    assert sorted(reads) == ["{1}", "{2}"]


def test_validation_judges_the_constructor(monkeypatch, capsys):
    """A Riemann-Roch constructor that shifts the H-degree by one is caught by validate."""
    real = higgs_lab.chern.chi_from_pairings

    def shifted(kd, rank, pairings):
        s = real(kd, rank, pairings)
        return dataclasses.replace(s, deg_h=s.deg_h + 1)

    monkeypatch.setattr(higgs_lab.chern, "chi_from_pairings", shifted)
    model = realize(HiggsChainSpec(KahlerData.curve(1, 1), (0, 1), frozenset({(1, 2)})))
    assert "LeadingCoefficient" in {v.kind for v in validate(model)}
    assert run(["fuzz", "--count", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: invalid model"), captured.err


# quotes, backslashes, control characters and non-ASCII text, among any characters
JSON_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t é€\u2028\U0001f600a') | st.characters())
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**60), 10**60) | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=20,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(value=JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    """--format json reports are byte for byte what json.dumps prints."""
    assert _json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_json_writer_edge_cases():
    for value in ({}, [], [[]], {"": {}}, [{}, [None, True, False, 0, -1]], "\x00\"\\\u00e9",
                  {"b": 1, "a": [2**100, -(2**100)], "\u00e9": "\ud800"}):
        assert _json(value) == json.dumps(value, indent=2, sort_keys=True), value


FORMAT = st.tuples(st.just("--format"), st.sampled_from(["table", "json", "xml"]))
USUAL_FLAGS = {
    # --count and --max-rank stay at most 3, so no example does real work
    "fuzz": FORMAT
    | st.tuples(st.sampled_from(["--count", "--max-rank", "--genus"]), st.integers(-1, 3).map(str))
    | st.tuples(st.just("--seed"), st.integers(-(2**40), 2**40).map(str)),
    "jh": FORMAT | st.tuples(st.just("--object"), st.sampled_from(["hitchin", "split", "nope"])),
}
USUAL_FLAGS["hn"] = USUAL_FLAGS["jh"]
ODD_FLAG = st.sampled_from(
    [("--help",), ("--bogus",), ("-x",), ("",), ("--count", "abc"), ("--seed", "1.5"),
     ("--format",), ("--object",)]
)


@st.composite
def command_lines(draw):
    """One CLI argument list: mostly the command's own flags, at most one odd one."""
    command = draw(st.sampled_from(["analyze", "jh", "hn", "verify", "fuzz", "frobnicate"]))
    files = draw(st.sampled_from([[str(HITCHIN_PAIR)]] * 4 + [["/no/such/file.json"], []]))
    flags = draw(st.lists(USUAL_FLAGS.get(command, FORMAT), max_size=4))
    flags += draw(st.lists(ODD_FLAG, max_size=1))
    return [command, *(files if command != "fuzz" else []), *(a for f in flags for a in f)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(argv=command_lines())
def test_flag_fuzz_exits_cleanly(argv):
    """Any flags: exit 0, 1 or 2, one error line on 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)  # an escaping exception fails the test
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 2:
        errors = [line for line in err.getvalue().splitlines() if "error:" in line]
        assert len(errors) == 1, (argv, err.getvalue())


@pytest.mark.parametrize("command", ["hitchin", "chain", "fuzz"])
def test_the_environment_cannot_change_a_report(tmp_path, monkeypatch, capsys, command):
    """Bound-like variables, set to a tiny bound or to no number, change no output.

    The search bounds are module constants: a report depends on the file, the
    flags and the seed alone.  Each command runs the HN search past 2 nodes.
    """
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"ambient": {"n": 1, "genus": 1, "degH": 1},
                                 "objects": [{"type": "chain", "id": "E", "degrees": [0] * 5}]}))
    argv = {"hitchin": ["verify", str(HITCHIN_PAIR)], "chain": ["verify", str(chain)],
            "fuzz": ["fuzz", "--seed", "0", "--count", "20"]}[command]
    names = [f"HIGGS_LAB_{name}" for name in ("MAX_CHAINS", "SEARCH_BOUND", "CENSUS_BOUND")]
    outcomes = []
    for value in (None, "2", "abc"):
        for name in names:
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
        code = run(argv)
        outcomes.append((code, *capsys.readouterr()))
    assert outcomes[0][0] == 0 and outcomes[0][1]
    assert outcomes[1:] == [outcomes[0]] * 2
