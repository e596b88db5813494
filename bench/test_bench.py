"""Self-tests of the benchmark: span arithmetic, the oracle, inputs and tracing.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from higgs_lab import cli, filtration, model, stability  # noqa: E402
from higgs_lab.chern import KahlerData  # noqa: E402
from higgs_lab.hilbert import HilbertPolynomial  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from run import COMMANDS  # noqa: E402
from workloads import WORKLOADS, build_inputs, chain_verdict  # noqa: E402


def test_self_times_on_nested_spans():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]; a holds a nested
    # recursive a [9.5, 10]
    names = ["a", "b", "c", "d", "a"]
    parents = [-1, 0, 0, 2, 0]
    starts = [0.0, 1.0, 5.0, 6.0, 9.5]
    ends = [10.0, 4.0, 9.0, 7.0, 10.0]
    nested = [False, False, False, False, True]
    total, own, calls = self_times(names, parents, starts, ends, nested)
    assert calls == {"a": 2, "b": 1, "c": 1, "d": 1}
    assert total == {"a": 10.0, "b": 3.0, "c": 4.0, "d": 1.0}
    assert own["a"] == (10.0 - 3.0 - 4.0 - 0.5) + 0.5
    assert own["b"] == 3.0
    assert own["c"] == 3.0
    assert own["d"] == 1.0


def test_self_times_counts_overlapping_children_once():
    names = ["p", "x", "y"]
    total, own, _ = self_times(names, [-1, 0, 0], [0.0, 1.0, 2.0], [10.0, 4.0, 12.0],
                               [False] * 3)
    assert own["p"] == 10.0 - (10.0 - 1.0)
    assert total["p"] == 10.0


def test_oracle_agrees_with_gieseker_classify_on_every_arrow_pattern():
    ambient = KahlerData.curve(3, 1)  # 2g - 2 = 4 makes every arrow below feasible
    for degrees in [(1,), (0, 2), (2, 0), (1, 1), (0, 1, 2), (1, 1, 1), (2, 0, 1),
                    (0, 0, 0, 0), (2, 1, 0, 1), (0, 3, 1, 0)]:
        m = len(degrees)
        pairs = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1) if i != j]
        for r in range(len(pairs) + 1):
            for arrows in itertools.combinations(pairs, r):
                spec = model.HiggsChainSpec(ambient, degrees, frozenset(arrows))
                verdict = stability.gieseker_classify(model.realize(spec))
                assert (verdict.classification.value, verdict.witness) == chain_verdict(
                    degrees, arrows
                ), (degrees, arrows)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def test_declared_lattice_file_loads_and_analyze_exits_0(tmp_path):
    analyze = build_inputs("declared-lattice", 0, tmp_path)[0]
    code, out = _run(analyze.argv)
    assert code == 0
    analyze.check(json.loads(out))


def test_traced_output_is_identical_and_bindings_are_restored():
    hitchin = str(ROOT / "docs" / "hitchin_pair.json")
    before = (cli.run, filtration.gieseker_classify, model.validate,
              vars(HilbertPolynomial)["__init__"])
    plain = [_run([cmd, hitchin]) for cmd in ("verify", "analyze")]
    tracer = Tracer()
    with tracer.installed():
        assert cli.run is not before[0]
        assert filtration.gieseker_classify is not before[1]
        traced = [_run([cmd, hitchin]) for cmd in ("verify", "analyze")]
    metrics = tracer.fold()
    assert traced == plain
    assert (cli.run, filtration.gieseker_classify, model.validate,
            vars(HilbertPolynomial)["__init__"]) == before
    assert metrics["cli.run.calls"] == 2
    assert metrics["modelfile.load.calls"] == 2
    assert metrics["hilbert.HilbertPolynomial.calls"] > 0
    assert metrics["suite.checks.pass"] > 0
    assert metrics["cli.run.self_s"] <= metrics["cli.run.total_s"]


def test_manifest_matches_the_benchmark():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert manifest["paths"] == ["bench"]
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    produced = set(Tracer().fold()) | {"trace.overhead_s"} | {
        f"cli.{c}.total_s" for c in COMMANDS
    }
    assert {m["name"] for m in manifest["per_layer"]} <= produced
    assert {m["name"] for m in manifest["end_to_end"]} == {
        "wall_s", "objects_per_s", "peak_rss_mb", "setup_s"
    }
