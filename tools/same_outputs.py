"""Compare the CLI output of two source trees on the standard command set.

    python3 tools/same_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a `higgs_lab` package, such as
the `src/` of two checkouts.  Every command runs as `python -m higgs_lab` in a
fresh process, once against each tree, and any difference in stdout, stderr
or exit code is printed.  The exit code is 0 when every command agrees and 1
otherwise.

The command set: every `bench/workloads.py` command at seeds 1, 2 and 7; the
Hitchin pair in `docs/` and the same pair written as declared models, each
through analyze, verify, jh and hn in both formats; `fuzz` at seeds 0, 3 and 7;
verify and hn, in both formats, on the two arrowless chains of 8 and 10
summands (degrees 0..m-1 and 0^(m/2) 1^(m/2), genus 2), and verify on those of
12; verify and jh, in both formats, on five semistable chains whose verify runs
the JH census and on a declared file with a zero entry and a line inside its
saturation, hn on the first chain, and verify on the equal-degree chain of 9
(see census_commands); analyze, verify, jh and hn on 31 malformed declared
files, each a 1,022-entry object with one fault of a kind in FAULTS at its
first, middle or last entry, or two faults of different kinds in two entries;
and verify, in both formats, on three files of pairs with large sums (see
pair_commands).  That is 238 commands.  Input files are written
here from plain JSON, never by either tree's serializers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

FORMATS = ("table", "json")
FAULTS = {  # a malformed entry, from the entry it replaces
    "not-an-object": lambda e: e["id"],
    "missing-id": lambda e: {k: v for k, v in e.items() if k != "id"},
    "integer-id": lambda e: {**e, "id": 7},
    "zero-id": lambda e: {**e, "id": "0"},
    "missing-data": lambda e: {k: v for k, v in e.items() if k != "data"},
    "missing-quotient": lambda e: {k: v for k, v in e.items() if k != "quotient"},
    "contains-not-a-list": lambda e: {**e, "contains": "{1}"},
    "integer-in-contains": lambda e: {**e, "contains": e["contains"] + [7]},
    "rank-true": lambda e: {**e, "data": {**e["data"], "rank": True}},
    "bad-torsion-part": lambda e: {**e, "quotient_torsion_part": {"rank": "0", "degH": "0",
                                                                  "chi": []}},
}


def _line(degree: int, torsion_free: bool = True) -> dict:
    """A sheaf of rank 1 and the given degree on the projective line (degH 1)."""
    return {"rank": 1, "degH": str(degree), "chi": [str(degree + 1), "1"],
            "torsion_free": torsion_free}


# O + O on the projective line: a line A = O over a zero entry Z and a copy A2 of A
# holding both; F = O(-1) inside its saturation Fp = O, so E/F is O plus a
# length-one torsion
SATURATION = {"ambient": {"n": 1, "genus": 0, "degH": 1}, "objects": [{
    "type": "model", "id": "E",
    "data": {"rank": 2, "degH": "0", "chi": ["2", "2"]},
    "subobjects": [
        {"id": "A", "data": _line(0), "quotient": _line(0), "contains": ["Z"]},
        {"id": "A2", "data": _line(0), "quotient": _line(0), "contains": ["A", "Z"]},
        {"id": "F", "data": _line(-1), "quotient": _line(1, False),
         "quotient_torsion_part": {"rank": 0, "degH": "1", "chi": ["1"], "torsion_free": False}},
        {"id": "Fp", "data": _line(0), "quotient": _line(0), "contains": ["F"]},
        {"id": "Z", "data": {"rank": 0, "degH": "0", "chi": ["0"]},
         "quotient": {"rank": 2, "degH": "0", "chi": ["2", "2"]}},
    ],
}]}


def declared(oid: str, degrees, arrows, genus: int, deg_h: int) -> dict:
    """A chain of line bundles as a declared model: every arrow-closed proper index set."""
    m, full = len(degrees), (1 << len(degrees)) - 1
    masks = workloads.closed_masks(m, arrows)

    def part(mask):
        members = workloads._members(mask, m)
        return workloads._sheaf(len(members), sum(degrees[i - 1] for i in members), genus, deg_h)

    label = lambda mask: workloads.subset_label(workloads._members(mask, m))
    return {"type": "model", "id": oid, "data": part(full), "family_complete": True,
            "subobjects": [{"id": label(mask), "data": part(mask), "quotient": part(full ^ mask),
                            "contains": [label(s) for s in masks if s != mask and s & mask == s]}
                           for mask in masks]}


def file_commands(path: Path, object_ids) -> list[list[str]]:
    """analyze and verify on the file, jh and hn on each object, in both formats."""
    out = []
    for fmt in FORMATS:
        out += [["analyze", str(path), "--format", fmt], ["verify", str(path), "--format", fmt]]
        for oid in object_ids:
            out += [[cmd, str(path), "--object", oid, "--format", fmt] for cmd in ("jh", "hn")]
    return out


def malformed_commands(work: Path) -> list[list[str]]:
    """analyze, verify, jh and hn on each malformed copy of a 1,022-entry declared object."""
    model = declared("E", [0] * 10, [], 1, 1)
    entries = model["subobjects"]
    placed = [{position: fault} for fault in FAULTS for position in (0, 511, len(entries) - 1)]
    placed.append({300: "integer-in-contains", 700: "rank-true"})
    commands = []
    for faults in placed:
        copy = list(entries)
        for position, fault in faults.items():
            copy[position] = FAULTS[fault](copy[position])
        path = work / ("bad-" + "-".join(f"{fault}-{p}" for p, fault in faults.items()) + ".json")
        path.write_text(json.dumps({"ambient": {"n": 1, "genus": 1, "degH": 1},
                                    "objects": [{**model, "subobjects": copy}]}), encoding="utf-8")
        commands += [["analyze", str(path)], ["verify", str(path)]]
        commands += [[cmd, str(path), "--object", "E"] for cmd in ("jh", "hn")]
    return commands


def command_set(work: Path) -> list[list[str]]:
    commands = []
    for name in workloads.WORKLOADS:
        for seed in (1, 2, 7):
            seeded = work / f"{name}-{seed}"
            seeded.mkdir()
            commands += [c.argv for c in workloads.build_inputs(name, seed, seeded)]
    pair = json.loads((ROOT / "docs" / "hitchin_pair.json").read_text(encoding="utf-8"))
    ambient = pair["ambient"]
    twins = [declared(o["id"], o["degrees"], [tuple(a) for a in o["arrows"]], ambient["genus"],
                      ambient["degH"]) for o in pair["objects"]]
    declared_pair = work / "hitchin_declared.json"
    declared_pair.write_text(json.dumps({"ambient": ambient, "objects": twins}), encoding="utf-8")
    ids = [o["id"] for o in pair["objects"]]
    commands += file_commands(ROOT / "docs" / "hitchin_pair.json", ids)
    commands += file_commands(declared_pair, ids)
    commands += [["fuzz", "--seed", str(seed)] for seed in (0, 3, 7)]
    for size in (8, 10, 12):
        ramp = {"type": "chain", "id": "ramp", "degrees": list(range(size)), "arrows": []}
        steps = {"type": "chain", "id": "steps", "arrows": [],
                 "degrees": [0] * (size // 2) + [1] * (size // 2)}
        walls = work / f"walls{size}.json"
        walls.write_text(json.dumps({"ambient": {"n": 1, "genus": 2, "degH": 1},
                                     "objects": [ramp, steps]}), encoding="utf-8")
        for fmt in FORMATS:
            commands.append(["verify", str(walls), "--format", fmt])
            commands += [["hn", str(walls), "--object", oid, "--format", fmt]
                         for oid in ("ramp", "steps") if size < 12]
    return commands + census_commands(work) + malformed_commands(work) + pair_commands(work)


def census_commands(work: Path) -> list[list[str]]:
    """verify and jh, in both formats, on semistable objects that reach the JH census.

    The arrowless equal-degree chains of 6, 7 and 8 summands, the uniformizing
    chain of rank 6, with degrees 5, 3, ..., -5 and arrows i -> i+1, and the
    polystable O + (O(1) -> O(-1)), each alone in a file at genus 2.  The chain
    of 6 also runs hn.  The arrowless equal-degree chain of 9 runs verify only:
    its census stops at CENSUS_BOUND.  Last, SATURATION, a declared O + O on the
    projective line with a zero entry, a line inside its saturation and a line
    declared twice, one copy inside the other.
    """
    chains = {f"eq{m}": ([0] * m, []) for m in (6, 7, 8, 9)}
    chains["uni6"] = ([7 - 2 * i for i in range(1, 7)], [[i, i + 1] for i in range(1, 6)])
    chains["poly"] = ([0, 1, -1], [[2, 3]])
    files = {oid: {"ambient": {"n": 1, "genus": 2, "degH": 1}, "objects": [
        {"type": "chain", "id": oid, "degrees": degrees, "arrows": arrows}]}
        for oid, (degrees, arrows) in chains.items()}
    files["E"] = SATURATION
    commands = []
    for oid, doc in files.items():
        path = work / f"census-{oid}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for fmt in FORMATS:
            commands.append(["verify", str(path), "--format", fmt])
            if oid != "eq9":
                commands.append(["jh", str(path), "--object", oid, "--format", fmt])
            if oid == "eq6":
                commands.append(["hn", str(path), "--object", oid, "--format", fmt])
    return commands


def pair_commands(work: Path) -> list[list[str]]:
    """verify, in both formats, on three files of pairs with large sums.

    The arrowless equal-degree chains A, B and C of 5, 4 and 5 summands (genus 1), whose
    A (+) C has a family of 1,024; two 10-summand cycles of arrows, whose sum of 20
    summands is past the realize bound; and A and C written as declared models.
    """
    ambient = {"n": 1, "genus": 1, "degH": 1}
    chains = [{"type": "chain", "id": oid, "degrees": [0] * size, "arrows": []}
              for oid, size in (("A", 5), ("B", 4), ("C", 5))]
    cycle = [[i, i % 10 + 1] for i in range(1, 11)]
    cycles = [{"type": "chain", "id": oid, "degrees": [0] * 10, "arrows": cycle}
              for oid in ("A", "B")]
    declared_pair = [declared(oid, [0] * 5, [], 1, 1) for oid in ("A", "C")]
    commands = []
    for name, objects in (("chains", chains), ("cycles", cycles), ("declared", declared_pair)):
        path = work / f"pairs-{name}.json"
        path.write_text(json.dumps({"ambient": ambient, "objects": objects}), encoding="utf-8")
        commands += [["verify", str(path), "--format", fmt] for fmt in FORMATS]
    return commands


def outcome(src: Path, argv: list[str]) -> tuple[int, str, str]:
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "higgs_lab", *argv], env=env,
                          capture_output=True, text=True, check=False)
    return done.returncode, done.stdout, done.stderr


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all((Path(a) / "higgs_lab").is_dir() for a in argv):
        print("usage: python3 tools/same_outputs.py OLD_SRC NEW_SRC, each holding higgs_lab",
              file=sys.stderr)
        return 2
    old, new = (Path(a).resolve() for a in argv)
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        commands = command_set(Path(tmp))
        for command in commands:
            before, after = outcome(old, command), outcome(new, command)
            if before != after:
                differ += 1
                shown = " ".join(command).replace(tmp, "$WORK")
                parts = [p for p, a, b in zip(("exit code", "stdout", "stderr"), before, after)
                         if a != b]
                print(f"DIFFER ({', '.join(parts)}): {shown}")
    print(f"{len(commands)} commands, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
