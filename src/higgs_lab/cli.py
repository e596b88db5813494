"""Batch front end: analyze, jh, hn, verify, and fuzz over model files.

Reports are deterministic for a given file, flags, and seed; no environment
variable plays a part.  Exit codes: 0 when every check passes, 1 when a check
fails (the counterexample is in the report), 2 on input errors.  A line led by a
command name is parsed by that command's parser alone; the full parser, with
every command's, is built only for any other line or one with arguments left
over, and either way the output is the same.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii
from math import inf
from typing import Sequence

from .chern import normalized_p, slope
from .filtration import (
    AmbiguousMaximizerError,
    BrokenInvariantError,
    Filtration,
    NotSemistableError,
    harder_narasimhan,
    jordan_holder,
)
from .hilbert import format_rational
from .model import REALIZE_MASK_BOUND
from .modelfile import LoadedObject, ModelFile, ParseError, load, sheaf_to_json
from .stability import (
    IncompleteTorsionClosureError,
    InvalidModelError,
    StabilityVerdict,
    gieseker_classify,
    gieseker_classify_by_quotients,
    gieseker_classify_tf_quotients,
    slope_classify,
)
from .suite import CheckResult, run_suite
from .fuzz import fuzz_objects

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _verdict_json(verdict: StabilityVerdict, obj: LoadedObject) -> dict:
    out = {
        "notion": verdict.notion.value,
        "class": verdict.classification.value,
        "witness": verdict.witness,
    }
    if verdict.witness is not None:
        entry = obj.model.entry(verdict.witness)
        if verdict.notion.value == "gieseker":
            out["witness_p"] = normalized_p(entry.data).to_strings()
            out["object_p"] = normalized_p(obj.model.data).to_strings()
        else:
            out["witness_mu"] = format_rational(slope(entry.data))
            out["object_mu"] = format_rational(slope(obj.model.data))
    return out


def _analyze_object(obj: LoadedObject) -> dict:
    block = {
        "id": obj.model.id,
        "family_complete": obj.model.family_complete,
        "gieseker": _verdict_json(gieseker_classify(obj.model), obj),
        "gieseker_by_quotients": _verdict_json(
            gieseker_classify_by_quotients(obj.model), obj
        ),
        "slope": _verdict_json(slope_classify(obj.model), obj),
    }
    try:
        block["gieseker_torsion_free"] = _verdict_json(
            gieseker_classify_tf_quotients(obj.model), obj
        )
    except IncompleteTorsionClosureError as exc:
        block["gieseker_torsion_free"] = {"skipped": str(exc)}
    return block


def _filtration_json(filt: Filtration) -> dict:
    return {
        "kind": filt.kind.value,
        "steps": list(filt.steps),
        "quotients": [sheaf_to_json(q) for q in filt.quotients],
    }


def _scope_note(objects: Sequence[LoadedObject]) -> dict:
    return {
        obj.model.id: (
            "declared family claimed exhaustive"
            if obj.model.family_complete
            else "verdicts relative to the declared family only"
        )
        for obj in objects
    }


def _json(value, pad: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True) for string keys, built by joins (the
    standard encoder takes a pure-Python path whenever it indents)."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if not isinstance(value, (dict, list, tuple)):  # numbers, booleans and None
        return json.dumps(value)
    inner, ends = pad + "  ", "{}" if isinstance(value, dict) else "[]"
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in sorted(value.items())]
    else:
        items = [_json(v, inner) for v in value]
    return f"{ends[0]}{inner}{(',' + inner).join(items)}{pad}{ends[1]}" if items else ends


def _print_report(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(_json(report))
        return
    _print_table(report)


def _print_table(report: dict) -> None:
    if "objects" in report:
        for block in report["objects"]:
            print(f"object {block['id']}")
            for key in ("gieseker", "gieseker_by_quotients", "gieseker_torsion_free", "slope"):
                v = block[key]
                if "skipped" in v:
                    line = f"skipped: {v['skipped']}"
                else:
                    line = v["class"]
                    if v.get("witness"):
                        line += f" (witness {v['witness']})"
                print(f"  {key:24s} {line}")
    if "filtration" in report:
        f = report["filtration"]
        print(f"{f['kind']} filtration of {report['object']}")
        for step, q in zip(f["steps"], f["quotients"]):
            chi = ",".join(q["chi"])
            print(
                f"  step {step:16s} quotient rank {q['rank']} degH {q['degH']} chi [{chi}]"
            )
    if "checks" in report:
        for c in report["checks"]:
            line = f"{c['status']:4s} {c['check']:26s} {c['subject']}"
            if c["detail"]:
                line += f"  {c['detail']}"
            print(line)
        print(
            "checks: {passed} passed, {failed} failed, {skipped} skipped".format(
                **report["summary"]
            )
        )
    if "scope" in report:
        for oid, note in sorted(report["scope"].items()):
            print(f"scope {oid}: {note}")


def _checks_report(results: Sequence[CheckResult]) -> dict:
    return {
        "checks": [
            {
                "check": r.check,
                "subject": r.subject,
                "status": r.status,
                "detail": r.detail,
            }
            for r in results
        ],
        "summary": {
            "passed": sum(r.status == "pass" for r in results),
            "failed": sum(r.status == "fail" for r in results),
            "skipped": sum(r.status == "skip" for r in results),
        },
    }


def _cmd_analyze(args) -> int:
    mf = load(args.file)
    report = {
        "objects": [_analyze_object(obj) for obj in mf.objects],
        "scope": _scope_note(mf.objects),
    }
    _print_report(report, args.format)
    return EXIT_OK


def _find_object(mf: ModelFile, object_id: str) -> LoadedObject:
    for obj in mf.objects:
        if obj.model.id == object_id:
            return obj
    raise ParseError(f"no object with id {object_id!r} in the file")


def _cmd_filtration(args) -> int:
    mf = load(args.file)
    obj = _find_object(mf, args.object)
    filt = (jordan_holder if args.command == "jh" else harder_narasimhan)(obj.model)
    report = {
        "object": obj.model.id,
        "filtration": _filtration_json(filt),
        "scope": _scope_note([obj]),
    }
    _print_report(report, args.format)
    return EXIT_OK


def _suite_report(args, objects: Sequence[LoadedObject], all_pairs: bool, **extra) -> int:
    """Run the theorem suite and print its report with the command's extra keys."""
    results = run_suite(objects, all_pairs=all_pairs)
    _print_report({**_checks_report(results), **extra}, args.format)
    return EXIT_CHECK_FAILED if any(r.failed for r in results) else EXIT_OK


def _cmd_verify(args) -> int:
    mf = load(args.file)
    return _suite_report(args, mf.objects, True, scope=_scope_note(mf.objects))


def _cmd_fuzz(args) -> int:
    summands = REALIZE_MASK_BOUND.bit_length() - 1  # the largest chain realize walks
    limits = (("--count", args.count, 0, inf), ("--max-rank", args.max_rank, 1, summands),
              ("--genus", args.genus, 0, inf))
    for flag, value, least, most in limits:
        if not least <= value <= most:
            limit = f"at least {least}" if value < least else f"at most {most}"
            print(f"error: {flag} must be {limit}, got {value}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    objects = list(fuzz_objects(args.seed, args.count, args.max_rank, args.genus))
    return _suite_report(args, objects, False, seed=args.seed, count=args.count)


_FILE = ("file", {})
_OBJECT = ("--object", {"required": True})
_FORMAT = ("--format", {"choices": ("table", "json"), "default": "table", "help": "report format"})
COMMANDS = {  # name: (help, handler, arguments as (name or flag, add_argument options))
    "analyze": ("classify every object in a file", _cmd_analyze, (_FILE, _FORMAT)),
    "jh": ("Jordan-Holder filtration of one object", _cmd_filtration, (_FILE, _OBJECT, _FORMAT)),
    "hn": ("Harder-Narasimhan filtration of one object", _cmd_filtration,
           (_FILE, _OBJECT, _FORMAT)),
    "verify": ("run the theorem suite over a file", _cmd_verify, (_FILE, _FORMAT)),
    "fuzz": ("run the theorem suite over random chains", _cmd_fuzz, (
        ("--seed", {"type": int, "default": 0}), ("--count", {"type": int, "default": 100}),
        ("--max-rank", {"type": int, "default": 4}), ("--genus", {"type": int, "default": 2}),
        _FORMAT)),
}


def _with_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    for argument, options in COMMANDS[name][2]:
        parser.add_argument(argument, **options)
    return parser


# one parser of each kind per process: each build leaves cycles for the collector
@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser that _parser() makes for one command, built alone."""
    return _with_arguments(argparse.ArgumentParser(prog=f"higgs-lab {name}"), name)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="higgs-lab",
        description="Exact stability calculus for finitely presented Higgs-sheaf models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, _) in COMMANDS.items():
        _with_arguments(sub.add_parser(name, help=text), name)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed as _parser() parses it, by the named command's parser alone where it can be.

    The full parser hands everything after the command name to that command's parser
    with parse_known_args; only a line that no command name leads, or one that leaves
    arguments over (an error printed with the top-level usage), needs it built.
    """
    if argv and argv[0] in COMMANDS:
        args, rest = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return _parser().parse_args(argv)


def run(argv: Sequence[str]) -> int:
    """Run one command; the only place an error becomes an `error:` line and exit code."""
    try:
        args = _parse(list(argv))
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return COMMANDS[args.command][1](args)
    except BrokenInvariantError as exc:
        print(f"error: under-declared family: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ParseError, NotSemistableError, AmbiguousMaximizerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except InvalidModelError as exc:
        print(f"error: invalid model: {exc}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))
