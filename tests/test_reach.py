"""Every library function is entered by a command or a demo, or has an UNREACHED row.

A fresh interpreter profiles itself before it imports higgs_lab, so import-time code
counts.  It then runs, in process, the commands the fuzz, filtration and Hitchin goldens
pin, a declared pair, a torsion-quotient file, the Bogomolov surface file, malformed
files, `python -m higgs_lab` and the four demos.  Every def under src/higgs_lab, listed
with ast, that none of them entered needs a row in UNREACHED naming the acceptance
criterion or ROADMAP item that owns it; a row whose function is entered fails as stale.
To add a row, name its owner here and say why in CHANGES.md.
"""

import ast
import contextlib
import io
import json
import runpy
import subprocess
import sys
import tempfile
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ROOT / "src" / "higgs_lab"
IMPLICIT = {"__repr__", "__eq__", "__hash__"}  # dunders Python calls on its own

UNREACHED = {
    "chern.KahlerData.surface": "AC2 / item 8",
    "chern.chi_surface": "AC2 / item 8",
    "chern.rank_p_residual": "AC2",  # the CLI calls it only on a failing residual
    "hilbert.EventualOrder.reversed": "AC1",
    "hilbert.HilbertPolynomial.eventually_leq": "AC1",
}


def defined(module: str, source: str) -> dict[tuple[int, str], str]:
    """(first line, name) -> qualified name of every def in source, as its code object
    has them: a decorated def starts at its first decorator."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[first, child.name] = f"{module}.{prefix}{child.name}"
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def problems(sources: dict[str, str], entered: set, table: dict[str, str]) -> list[str]:
    """What the gate rejects: an unreached def without a row, and a row for no unreached def."""
    unreached = set()
    for module, source in sources.items():
        for (line, name), qualname in defined(module, source).items():
            if (module, line, name) not in entered and name not in IMPLICIT:
                unreached.add(qualname)
    missing, stale = sorted(unreached - table.keys()), sorted(table.keys() - unreached)
    return ([f"{q} is never entered and has no UNREACHED row" for q in missing]
            + [f"{q} has a row but is entered or gone" for q in stale])


def library_sources() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(SOURCES.glob("*.py"))}


def _drive(workdir: Path) -> set:
    """Run every command and demo in this process; (module, first line, name) of each
    library code object entered, the import's included."""
    codes = set()
    sys.setprofile(lambda frame, event, arg: event == "call" and codes.add(frame.f_code))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import test_cli
    from conftest import ambiguous_model, kahler_to_json, model_to_json, torsion_closure_model
    from higgs_lab import LoadedObject
    from higgs_lab.cli import run

    def write(name, doc):
        path = workdir / f"{name}.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return str(path)

    def declared(name, *models):
        objects = [model_to_json(LoadedObject(m)) for m in models]
        return write(name, {"ambient": kahler_to_json(models[0].ambient), "objects": objects})

    hitchin = str(test_cli.HITCHIN_PAIR)
    commands = [["fuzz", "--seed", "0", "--count", "40", "--max-rank", "4"],
                ["analyze", hitchin, "--format", "json"], ["verify", hitchin, "--format", "json"],
                ["verify", str(test_cli._declared_pair(workdir))],
                ["analyze", declared("torsion", torsion_closure_model())],
                ["verify", write("surface", test_cli.BAD_SURFACE)],
                ["hn", declared("ambiguous", ambiguous_model()), "--object", "E"],
                ["jh", write("unstable", test_cli.UNSTABLE), "--object", "E"],
                ["jh", hitchin, "--object", "missing"],
                ["analyze", write("not_json", "{")], ["analyze", str(workdir / "absent.json")],
                ["fuzz", "--max-rank", "0"], ["no-such-command"]]
    for name, doc in test_cli.filtration_golden_files():
        path = write(name, doc)
        commands += [[command, path, "--object", chain["id"]]
                     for chain in doc["objects"] for command in ("jh", "hn")]
    bad, typed = test_cli.TestBadInput, test_cli.TestBadInput.typed_file()
    point = {"id": "T", "data": {"rank": 0, "degH": "1", "chi": ["1"]},
             "quotient": bad.curve_sheaf(1, -1)}  # a nonzero subobject of rank zero
    malformed = [{"ambient": bad.AMBIENT, "objects": [
        {"type": "model", "id": "E", "data": bad.curve_sheaf(1, 0), "subobjects": [point]}]}]
    malformed += [test_cli._replaced(typed, where, value) for where, value in [
        (("ambient", "n"), True), (("objects", 0, "type"), "tree"),
        (("objects", 1, "data", "degH"), "1/0"), (("objects", 1, "data", "chi"), ["1", "1", "1"])]]
    commands += [["analyze", write(f"malformed{i}", doc)] for i, doc in enumerate(malformed)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in commands:
            run(argv)
        sys.argv = ["higgs_lab", "analyze", hitchin]
        with contextlib.suppress(SystemExit):
            runpy.run_module("higgs_lab", run_name="__main__")
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")
    sys.setprofile(None)
    return {(Path(c.co_filename).stem, c.co_firstlineno, c.co_name)
            for c in codes if Path(c.co_filename).parent == SOURCES}


@cache
def entered() -> frozenset:
    done = subprocess.run([sys.executable, __file__], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return frozenset(tuple(code) for code in json.loads(done.stdout))


def test_every_unreached_function_has_an_owner():
    assert problems(library_sources(), entered(), UNREACHED) == []


def test_a_planted_unreached_function_fails_the_gate():
    sources = library_sources()
    sources["cli"] += "\n\ndef planted():\n    return None\n"
    assert problems(sources, entered(), UNREACHED) == [
        "cli.planted is never entered and has no UNREACHED row"]


def test_a_row_for_an_entered_function_fails_the_gate():
    assert problems(library_sources(), entered(), {**UNREACHED, "cli.run": "stale"}) == [
        "cli.run has a row but is entered or gone"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        print(json.dumps(sorted(_drive(Path(scratch)))))
