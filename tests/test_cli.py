"""Command line behavior: reports, determinism, and exit codes."""

import contextlib
import copy
import gc
import io
import json
import os
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from higgs_lab import HilbertPolynomial, StabilityClass, StabilityVerdict, run, suite

FUZZ_GOLDEN = Path(__file__).parent / "data" / "fuzz_seed0_golden.txt"
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
        "check, name, wrong",
        [
            ("stability_ladder", "slope_classify", _stable_on_split),
            ("quotient_formulation", "gieseker_classify_by_quotients", _stable_on_split),
            ("torsion_free_formulation", "gieseker_classify_tf_quotients", _stable_on_split),
            ("rank_p_residual", "rank_p_residual", lambda real: lambda *_: HilbertPolynomial([1])),
            ("dim1_coincidence", "slope_classify", _stable_on_split),
            ("jh_grading_invariance", "all_jordan_holder", lambda real: lambda model: []),
            ("hn_uniqueness", "all_harder_narasimhan", lambda real: lambda model: []),
            ("direct_sum", "direct_sum_model", lambda real: lambda a, b: a),  # the sum is hitchin
        ],
    )
    def test_every_check_can_fail(self, monkeypatch, capsys, check, name, wrong):
        """A wrong answer from the one function a check judges makes the check fail."""
        monkeypatch.setattr(suite, name, wrong(getattr(suite, name)))
        assert run(["verify", str(HITCHIN_PAIR), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert any(c["check"] == check and c["status"] == "fail" for c in report["checks"])

    def test_equal_degree_six_chain_completes_both_searches(self, tmp_path, capsys):
        doc = {
            "ambient": {"n": 1, "genus": 1, "degH": 1},
            "objects": [{"type": "chain", "id": "E", "degrees": [0] * 6}],
        }
        path = tmp_path / "six.json"
        path.write_text(json.dumps(doc))
        assert run(["verify", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(
            line.startswith("pass hn_uniqueness")
            and line.endswith("E  1 valid chain(s) by search")
            for line in lines
        ), lines
        assert any(
            line.startswith("pass jh_grading_invariance")
            and line.endswith("720 chain(s), 1 grading(s)")
            for line in lines
        ), lines


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
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        lines = []
        for command in ("analyze", "verify", "jh", "hn"):
            extra = ["--object", object_id] if command in ("jh", "hn") else []
            lines.append(self.input_error(capsys, [command, str(path), *extra]))
        return lines

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
        ],
    )
    def test_schema_types_are_enforced(self, tmp_path, capsys, where, value):
        # each of these used to be coerced to a valid file
        self.run_all(tmp_path, capsys, _replaced(self.typed_file(), where, value), "E")

    @pytest.mark.parametrize("value", ["1.0", " 1 ", "0_1", "1e0", "+1", "1/1 ", "1e4000000"])
    def test_rationals_follow_the_schema_pattern(self, tmp_path, capsys, value):
        # each but the last used to load as the valid value 1
        doc = _replaced(self.typed_file(), ("objects", 1, "subobjects", 0, "data", "degH"), value)
        start = time.perf_counter()
        lines = self.run_all(tmp_path, capsys, doc, "E")
        assert time.perf_counter() - start < 1.0
        assert all("expected a rational" in line for line in lines), lines

    def test_deep_nesting(self, tmp_path, capsys):
        self.run_all(tmp_path, capsys, "[" * 100000 + "]" * 100000, "E")

    @pytest.mark.parametrize(
        "flag, value", [("--max-rank", "0"), ("--genus", "-1"), ("--count", "-1")]
    )
    def test_fuzz_flag_out_of_range(self, capsys, flag, value):
        line = self.input_error(capsys, ["fuzz", flag, value])
        assert flag in line

    @pytest.mark.parametrize("value", ["abc", "0", "-5"])
    def test_chain_bound_must_be_positive(self, hitchin_file, monkeypatch, capsys, value):
        monkeypatch.setenv("HIGGS_LAB_MAX_CHAINS", value)
        for argv in (["verify", hitchin_file], ["fuzz", "--count", "2"]):
            line = self.input_error(capsys, argv)
            assert "HIGGS_LAB_MAX_CHAINS" in line


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
@given(
    argv=command_lines(),
    bound=st.sampled_from([None, "", "1", "2", "4096", "0", "-1", "abc", "2.5", " 3 "]),
)
def test_flag_fuzz_exits_cleanly(argv, bound):
    """Any flags and HIGGS_LAB_MAX_CHAINS value: exit 0, 1 or 2, one error line on 2."""
    saved = os.environ.pop("HIGGS_LAB_MAX_CHAINS", None)
    if bound is not None:
        os.environ["HIGGS_LAB_MAX_CHAINS"] = bound
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)  # an escaping exception fails the test
    finally:
        os.environ.pop("HIGGS_LAB_MAX_CHAINS", None)
        if saved is not None:
            os.environ["HIGGS_LAB_MAX_CHAINS"] = saved
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 2:
        errors = [line for line in err.getvalue().splitlines() if "error:" in line]
        assert len(errors) == 1, (argv, err.getvalue())
