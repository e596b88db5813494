"""Seeded inputs, command lists and output oracles for the four workloads.

Input files are written by this module's own code, never through the
library's serializers or `realize`, so a change to the library cannot shift
the inputs it is measured on.  On a curve the Euler characteristic of a rank
r, degree d object is chi(k) = d + r(1 - g) + r*degH*k, and Gieseker order
equals slope order, so the oracle for chains of line bundles is the average
degree of each arrow-closed index set against the whole.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

NOTIONS = ("gieseker", "gieseker_by_quotients", "gieseker_torsion_free", "slope")

# Sizes are chosen so that one pass of every workload fits several times
# into one benchmark run; see README.md for the seed-commit timings.
FUZZ_COMMANDS = 8  # distinct fuzz seeds per pass
FUZZ_COUNT = 100
FUZZ_MAX_RANK = 3
FUZZ_GENUS = 2
BIG_LATTICE_SIZE = 10  # 2^10 - 2 = 1022 entries, 57k contains ids
DEEP_CHAIN_SIZE = 5  # 120 JH chains, 541 HN search nodes
DECLARED_SIZE = 10  # 2^10 - 2 = 1022 entries per declared object


def subset_label(members) -> str:
    return "{" + ",".join(str(i) for i in sorted(members)) + "}"


def _members(mask: int, m: int) -> list[int]:
    return [i + 1 for i in range(m) if mask >> i & 1]


def closed_masks(m: int, arrows) -> list[int]:
    """Proper nonempty index sets closed under arrows, as bitmasks."""
    out = []
    for mask in range(1, (1 << m) - 1):
        if all(mask >> (j - 1) & 1 for i, j in arrows if mask >> (i - 1) & 1):
            out.append(mask)
    return out


def chain_verdict(degrees, arrows) -> tuple[str, Optional[str]]:
    """Class and lexicographically first witness of a chain of line bundles.

    A subobject destabilizes when its average degree exceeds the object's and
    ties when it equals it; the first witness in id order is reported, with
    destabilizers taking precedence over ties.
    """
    m = len(degrees)
    total = sum(degrees)
    succeeds, equals = [], []
    for mask in closed_masks(m, arrows):
        members = _members(mask, m)
        lhs = sum(degrees[i - 1] for i in members) * m
        rhs = total * len(members)
        if lhs > rhs:
            succeeds.append(subset_label(members))
        elif lhs == rhs:
            equals.append(subset_label(members))
    if succeeds:
        return "unstable", min(succeeds)
    if equals:
        return "strictly_semistable", min(equals)
    return "stable", None


def _sheaf(rank: int, degree: int, genus: int, deg_h: int) -> dict:
    return {
        "rank": rank,
        "degH": str(degree),
        "chi": [str(degree + rank * (1 - genus)), str(rank * deg_h)],
    }


def _chain(oid: str, degrees, arrows=()) -> dict:
    return {
        "type": "chain",
        "id": oid,
        "degrees": list(degrees),
        "arrows": [list(a) for a in arrows],
    }


def _declared(oid: str, degrees, genus: int, deg_h: int) -> dict:
    """An explicit model of a chain without arrows: every proper subset declared."""
    m = len(degrees)
    full = (1 << m) - 1
    masks = range(1, full)
    labels = {mask: subset_label(_members(mask, m)) for mask in masks}

    def part(mask):
        members = _members(mask, m)
        return _sheaf(len(members), sum(degrees[i - 1] for i in members), genus, deg_h)

    subobjects = []
    for mask in masks:
        below = []
        sub = (mask - 1) & mask
        while sub:  # every nonempty proper submask
            below.append(labels[sub])
            sub = (sub - 1) & mask
        subobjects.append(
            {
                "id": labels[mask],
                "data": part(mask),
                "quotient": part(full ^ mask),
                "contains": below,
            }
        )
    return {
        "type": "model",
        "id": oid,
        "data": part(full),
        "subobjects": subobjects,
        "family_complete": True,
    }


def _write(path: Path, genus: int, deg_h: int, objects: list) -> None:
    doc = {"ambient": {"n": 1, "genus": genus, "degH": deg_h}, "objects": objects}
    path.write_text(json.dumps(doc), encoding="utf-8")


class OracleError(AssertionError):
    """A report disagrees with the independent oracle."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


def check_analyze(report: dict, expected: dict) -> None:
    """expected maps object id to (class, witness) for every notion."""
    seen = {block["id"]: block for block in report["objects"]}
    _expect(set(seen) == set(expected), f"objects {sorted(seen)} != {sorted(expected)}")
    for oid, (cls, witness) in expected.items():
        for notion in NOTIONS:
            got = seen[oid][notion]
            _expect(
                (got.get("class"), got.get("witness")) == (cls, witness),
                f"{oid} {notion}: got {got.get('class')} {got.get('witness')},"
                f" expected {cls} {witness}",
            )


def check_suite(report: dict) -> None:
    summary = report["summary"]
    _expect(summary["failed"] == 0, f"{summary['failed']} theorem check(s) failed")
    _expect(summary["passed"] > 0, "no theorem check passed")


def _quotient_degrees(report: dict) -> list[int]:
    quotients = report["filtration"]["quotients"]
    _expect(all(q["rank"] == 1 for q in quotients), "a quotient has rank other than 1")
    return [int(Fraction(q["degH"])) for q in quotients]


def _label_set(label: str) -> frozenset:
    return frozenset(int(x) for x in label.strip("{}").split(","))


def check_jh_equal(report: dict, oid: str, degree: int, m: int) -> None:
    """JH of m equal line bundles: a full flag of coordinate subsets, grading m x L."""
    filt = report["filtration"]
    _expect(filt["kind"] == "jh", f"kind {filt['kind']}")
    _expect(_quotient_degrees(report) == [degree] * m, "JH grading differs from m copies of L")
    steps = filt["steps"]
    _expect(len(steps) == m and steps[0] == oid, f"JH steps {steps}")
    sets = [_label_set(s) for s in steps[1:]]
    for size, (outer, inner) in enumerate(zip([None] + sets, sets)):
        _expect(len(inner) == m - 1 - size, f"JH step {subset_label(inner)} has the wrong rank")
        _expect(outer is None or inner < outer, "JH steps are not nested")


def check_hn_distinct(report: dict, oid: str, degrees) -> None:
    """HN of line bundles of distinct degrees: add summands by decreasing degree."""
    filt = report["filtration"]
    _expect(filt["kind"] == "hn", f"kind {filt['kind']}")
    order = sorted(range(1, len(degrees) + 1), key=lambda i: -degrees[i - 1])
    expected_steps = [subset_label(order[: k + 1]) for k in range(len(order) - 1)] + [oid]
    _expect(filt["steps"] == expected_steps, f"HN steps {filt['steps']} != {expected_steps}")
    _expect(
        _quotient_degrees(report) == sorted(degrees, reverse=True),
        "HN quotients are not the summands by decreasing degree",
    )


@dataclass
class Command:
    """One CLI invocation that must exit 0, with its output oracle."""

    argv: list[str]
    objects: int  # objects the command puts through its work
    check: Callable[[dict], None]


@dataclass
class Workload:
    name: str
    why: str
    build: Callable[[random.Random, Path], list[Command]] = field(repr=False)


def _fuzz_batch(rng: random.Random, work: Path) -> list[Command]:
    commands = []
    for _ in range(FUZZ_COMMANDS):
        seed = rng.randrange(1 << 30)
        argv = [
            "fuzz", "--seed", str(seed), "--count", str(FUZZ_COUNT),
            "--max-rank", str(FUZZ_MAX_RANK), "--genus", str(FUZZ_GENUS),
            "--format", "json",
        ]
        commands.append(Command(argv, FUZZ_COUNT, check_suite))
    return commands


def _big_lattice(rng: random.Random, work: Path) -> list[Command]:
    genus, deg_h, degree = rng.randint(0, 3), rng.randint(1, 3), rng.randint(-4, 4)
    degrees = [degree] * BIG_LATTICE_SIZE
    path = work / "big_lattice.json"
    _write(path, genus, deg_h, [_chain("E", degrees)])
    expected = {"E": chain_verdict(degrees, ())}
    return [Command(["analyze", str(path), "--format", "json"], 1,
                    lambda r: check_analyze(r, expected))]


def _deep_search(rng: random.Random, work: Path) -> list[Command]:
    # Every object has slope t, so the pair checks compare equal polynomials on
    # every seed; the Hitchin arrow (1, 2) needs 2a <= 2g - 2.
    genus, deg_h, t = rng.randint(2, 3), rng.randint(1, 3), rng.randint(-3, 3)
    a = rng.randint(1, genus - 1)
    path = work / "deep_search.json"
    _write(path, genus, deg_h, [
        _chain("hitchin", [t + a, t - a], [(1, 2)]),
        _chain("split", [t + a, t - a]),
        _chain("chain", [t] * DEEP_CHAIN_SIZE),
    ])
    return [Command(["verify", str(path), "--format", "json"], 3, check_suite)]


def _declared_lattice(rng: random.Random, work: Path) -> list[Command]:
    genus, deg_h, degree = rng.randint(0, 3), rng.randint(1, 3), rng.randint(-4, 4)
    equal = [degree] * DECLARED_SIZE
    distinct = rng.sample(range(-12, 13), DECLARED_SIZE)
    path = work / "declared_lattice.json"
    _write(path, genus, deg_h, [
        _declared("equal", equal, genus, deg_h),
        _declared("graded", distinct, genus, deg_h),
    ])
    expected = {"equal": chain_verdict(equal, ()), "graded": chain_verdict(distinct, ())}
    return [
        Command(["analyze", str(path), "--format", "json"], 2,
                lambda r: check_analyze(r, expected)),
        Command(["jh", str(path), "--object", "equal", "--format", "json"], 1,
                lambda r: check_jh_equal(r, "equal", degree, DECLARED_SIZE)),
        Command(["hn", str(path), "--object", "graded", "--format", "json"], 1,
                lambda r: check_hn_distinct(r, "graded", distinct)),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fuzz-batch",
            "many small fuzzed chains, where re-validation inside every classify"
            " and the per-object theorem suite dominate",
            _fuzz_batch,
        ),
        Workload(
            "big-lattice",
            "analyze on one equal-degree chain with a 1022-entry lattice:"
            " chain realization and validation of a large stored lattice",
            _big_lattice,
        ),
        Workload(
            "deep-search",
            "verify on the Hitchin pair and a semistable m=5 chain, where the"
            " exhaustive JH/HN chain search and all-pairs checks dominate",
            _deep_search,
        ),
        Workload(
            "declared-lattice",
            "analyze, jh and hn on two hand-declared 1022-entry models:"
            " lattices parsed from contains lists, with no realize",
            _declared_lattice,
        ),
    )
}


def build_inputs(name: str, seed: int, work: Path) -> list[Command]:
    """Write the workload's input files under work and return its command list."""
    return WORKLOADS[name].build(random.Random(f"{name}:{seed}"), work)
