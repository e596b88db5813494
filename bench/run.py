"""Benchmark of whole higgs-lab CLI runs, with an optional traced per-layer split.

    python3 bench/run.py --workload big-lattice --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

One workload is a closed loop with one client: the workload's commands run
back to back through `higgs_lab.cli.run` in this process, with stdout
captured, until --seconds have passed and every command has run at least
twice.  Every command reloads its input file, as a user's invocation does.
Each output is checked by an independent oracle the first time and must
then repeat byte for byte.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, build_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = "higgs_lab"
SETUP_REPEATS = 3  # before the first pass; one more follows every pass
MIN_PASSES = 2
CHILD_TIMEOUT_S = 600
COMMANDS = ("analyze", "jh", "hn", "verify", "fuzz")


# Time of `_kernel` on the tuning host at its usual speed.  Measured times
# are rescaled by REFERENCE_KERNEL_S / (kernel time around the measurement);
# changing this constant rescales every figure ever recorded.
REFERENCE_KERNEL_S = 0.0025


def _kernel() -> Fraction:
    """Fixed pure-Python work in the library's style: Fractions, frozensets, dicts."""
    total = Fraction(0)
    seen: dict = {}
    for i in range(1, 400):
        term = Fraction(i % 7 - 3, i % 11 + 1)
        total += term * term
        key = frozenset((str(i % 13), str(i % 5)))
        seen[key] = seen.get(key, total) + term
    return total + len(seen)


def kernel_time() -> float:
    """Fastest of three runs of the kernel: the host's current speed."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def speed_factor(kernel_before: float) -> float:
    """REFERENCE_KERNEL_S over the mean kernel time before and now."""
    return 2 * REFERENCE_KERNEL_S / (kernel_before + kernel_time())


class Executor:
    """Runs commands, judges each result and keeps the operation counts."""

    def __init__(self, cli):
        self.cli = cli
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, index: int, command) -> tuple[float, float]:
        """Run one command and record whether it failed.

        Returns its wall time and the host's speed factor around it.
        """
        before = kernel_time()
        out, err = io.StringIO(), io.StringIO()
        problem = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.run(command.argv)
        except Exception:
            code, problem = None, traceback.format_exc(limit=3).strip()
        elapsed = time.perf_counter() - start
        factor = speed_factor(before)
        self.attempted += 1
        if problem is None:
            problem = self._judge(index, command, code, out.getvalue(), err.getvalue())
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{command.argv[0]}: {problem}")
        return elapsed, factor

    def _judge(self, index, command, code, stdout, stderr):
        if code != 0:
            return f"exit code {code}: {stderr.strip()[:300]}"
        if "Traceback" in stderr:
            return "traceback on stderr"
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if index in self.digests:
            if self.digests[index] != digest:
                return "stdout differs from an earlier run of the same command"
            return None
        self.digests[index] = digest
        try:
            command.check(json.loads(stdout))
        except (AssertionError, KeyError, ValueError, TypeError) as exc:
            return f"oracle rejects the report: {exc!r}"
        return None


def import_library():
    """Import the library from this checkout's src/, discarding any earlier import."""
    for name in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    cli = importlib.import_module(PACKAGE + ".cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"{PACKAGE} was imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload: str, seed: int, work: Path):
    """Import the library and write the inputs; return both and the time taken."""
    start = time.perf_counter()
    cli = import_library()
    commands = build_inputs(workload, seed, work)
    return cli, commands, time.perf_counter() - start


def run_pass(executor: Executor, commands) -> list[tuple[float, float]]:
    """Run every command once; return (wall time, speed factor) of each."""
    return [executor.run(index, command) for index, command in enumerate(commands)]


def pass_wall(passes) -> float:
    """Wall time of one pass at reference speed, each command at its median.

    The host this benchmark was tuned on (2 cores, shared) ran the same code
    up to twice as fast in one 5-second window as in another, and a whole
    run could fall into a slow spell.  Each command's time is therefore
    rescaled by the kernel timed around it before the median is taken.
    """
    return sum(statistics.median(t * f for t, f in column) for column in zip(*passes))


def measure(executor: Executor, commands, seconds: float, set_up_again) -> dict:
    """Untraced passes for `seconds`: the end-to-end metrics.

    Set-up is timed again after every pass, so its samples are spread over
    the run like the passes' are; the next pass uses the fresh import.
    """
    passes, setups = [], []

    def timed_set_up():
        before = kernel_time()
        executor.cli, setup_s = set_up_again()
        setups.append(setup_s * speed_factor(before))

    for _ in range(SETUP_REPEATS):
        timed_set_up()
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(run_pass(executor, commands))
        timed_set_up()
    raw = [sum(t for t, _ in row) for row in passes]
    wall_s = pass_wall(passes)
    return {
        "raw_pass_s": raw,
        "wall_s": wall_s,
        "objects_per_s": sum(c.objects for c in commands) / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }


def measure_traced(executor: Executor, commands, seconds: float) -> dict:
    """Alternate untraced and traced passes: per-layer medians and the overhead."""
    tracer = Tracer()
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(run_pass(executor, commands))
        with tracer.installed():
            traced.append(run_pass(executor, commands))
        row = tracer.fold()
        for command in COMMANDS:
            row[f"cli.{command}.total_s"] = 0.0
        for command, (elapsed, _) in zip(commands, traced[-1]):
            row[f"cli.{command.argv[0]}.total_s"] += elapsed
        layers.append(row)
    metrics = {k: statistics.median(row[k] for row in layers) for k in layers[0]}
    metrics["trace.overhead_s"] = pass_wall(traced) - pass_wall(plain)
    return metrics


def run_workload(args, manifest) -> int:
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        cli, commands, _ = set_up(args.workload, args.seed, work)
        executor = Executor(cli)
        if args.trace:
            metrics = measure_traced(executor, commands, args.seconds)
            wanted = manifest["per_layer"]
        else:
            def set_up_again():
                cli, _, setup_s = set_up(args.workload, args.seed, work)
                return cli, setup_s

            metrics = measure(executor, commands, args.seconds, set_up_again)
            wanted = manifest["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()
    error_share = executor.failed / executor.attempted
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"  {'error_share':40s} {error_share:.6g} share"
          f" ({executor.failed} failed of {executor.attempted} commands)")
    for problem in executor.problems:
        print(f"  failure: {problem}")
    if "raw_pass_s" in metrics:
        print("  raw pass times " + json.dumps([round(t, 6) for t in metrics["raw_pass_s"]]) + " s")
    result = {}
    for spec in wanted:
        value = metrics[spec["name"]]
        result[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:40s} {value:.6g} {spec['unit']}")
    print(json.dumps({
        "correct": executor.failed == 0,
        "attempted": executor.attempted,
        "failed": executor.failed,
        "metrics": result,
    }))
    return 0


def run_all(args) -> int:
    """Run every workload, each in its own process so peak memory is its own."""
    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(child.stderr)
        if child.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, manifest)


if __name__ == "__main__":
    sys.exit(main())
