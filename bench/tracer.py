"""Span tracing of higgs_lab layers from outside the library.

`Tracer.installed()` replaces each traced function with a wrapper that
records one span per call (name, start, end, parent span) and updates a few
counters.  Because `from .x import f` binds `f` in every importing module,
the wrapper is bound under every name that refers to the original in every
`higgs_lab` module namespace; methods are wrapped on their class.  On exit
the original bindings are put back.  Spans are kept in flat arrays and
folded into per-layer metrics by `Tracer.fold()`, which also clears them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from array import array
from collections import Counter
from contextlib import contextmanager

PACKAGE = "higgs_lab"

# (module, attribute) pairs that get a span per call.  A target the library
# no longer defines is skipped and its metrics read 0.
SPAN_TARGETS = [
    ("hilbert", "HilbertPolynomial.compare_eventual"),
    ("chern", "normalized_p"),
    ("chern", "sum_data"),
    ("model", "realize"),
    ("model", "validate"),
    ("model", "direct_sum_model"),
    ("stability", "gieseker_classify"),
    ("stability", "gieseker_classify_by_quotients"),
    ("stability", "gieseker_classify_tf_quotients"),
    ("stability", "slope_classify"),
    ("filtration", "all_harder_narasimhan"),
    ("filtration", "all_jordan_holder"),
    ("filtration", "harder_narasimhan"),
    ("filtration", "jordan_holder"),
    ("filtration", "verify_filtration"),
    ("filtration", "interval_quotient_model"),
    ("filtration", "induced_submodel"),
    ("modelfile", "load"),
    ("suite", "check_ladder"),
    ("suite", "check_quotient_formulation"),
    ("suite", "check_torsion_free_formulation"),
    ("suite", "check_residuals"),
    ("suite", "check_dim1_coincidence"),
    ("suite", "check_bogomolov"),
    ("suite", "check_jh_invariance"),
    ("suite", "check_hn_uniqueness"),
    ("suite", "check_direct_sum"),
    ("suite", "check_morphism_table"),
    ("suite", "check_extension"),
    ("fuzz", "fuzz_objects"),
    ("cli", "run"),
]
# Counted without a span, as (module, attribute, metric): constructions are
# too many to time one by one.
COUNT_TARGETS = [("hilbert", "HilbertPolynomial.__init__", "hilbert.HilbertPolynomial.calls")]

SEARCHES = ("filtration.all_harder_narasimhan", "filtration.all_jordan_holder")
CLASSIFIERS = tuple(f"stability.{a}" for m, a in SPAN_TARGETS if m == "stability")
CHECKS = tuple(a for m, a in SPAN_TARGETS if m == "suite")


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def self_times(names, parents, starts, ends, nested) -> tuple[dict, dict, Counter]:
    """Per-name (total, self) seconds and call counts from flat span arrays.

    A span's self time is its duration minus the part of it covered by its
    child spans.  Total time skips spans flagged nested (those with an
    ancestor of the same name), so recursion is not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append((starts[i], ends[i]))
    total: dict = {}
    own: dict = {}
    calls: Counter = Counter(names)
    for i, name in enumerate(names):
        start, end = starts[i], ends[i]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        own[name] = own.get(name, 0.0) + (end - start) - covered
        if not nested[i]:
            total[name] = total.get(name, 0.0) + (end - start)
    return total, own, calls


class Tracer:
    """Records spans and counters while installed; `fold` turns them into metrics."""

    def __init__(self):
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.active: list[int] = []  # open spans per name index
        self.after = {
            "model.realize": self._after_realize,
            "model.validate": self._after_validate,
            **{name: self._after_search for name in SEARCHES},
            **{name: self._after_classify for name in CLASSIFIERS},
            **{span_name("suite", c): self._after_check for c in CHECKS},
        }
        self._reset()

    def _reset(self) -> None:
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_nested = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.search_time = {"useful": 0.0, "wasted": 0.0}
        self.validated = weakref.WeakSet()

    # -- recording ---------------------------------------------------------

    def _open(self, index: int) -> int:
        sid = len(self.span_start)
        self.span_name.append(index)
        self.span_parent.append(self.stack[-1])
        self.span_nested.append(self.active[index] > 0)
        self.active[index] += 1
        self.span_end.append(0.0)
        self.stack.append(sid)
        self.span_start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> float:
        end = time.perf_counter()
        self.span_end[sid] = end
        self.stack.pop()
        self.active[self.span_name[sid]] -= 1
        return end - self.span_start[sid]

    def wrap(self, fn, name: str):
        """A wrapper of fn that records a span named name per call."""
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
        index = self.index[name]
        after = self.after.get(name)
        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so self time is time spent in the body
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    sid = self._open(index)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(sid)
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                duration = self._close(sid)
                if after is not None:
                    after(args, None, exc, duration)
                raise
            duration = self._close(sid)
            if after is not None:
                after(args, result, None, duration)
            return result

        return traced

    def count(self, fn, name: str):
        """A wrapper of fn that only counts its calls under name."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- counters at layer boundaries ---------------------------------------

    def _after_realize(self, args, result, exc, duration):
        if exc is None:
            self.counts["model.realize.entries"] += len(result.subobjects)
            self.counts["model.realize.contains_ids"] += sum(
                len(e.contains) for e in result.subobjects
            )

    def _after_validate(self, args, result, exc, duration):
        model = args[0]
        self.counts["model.validate.entries_scanned"] += len(model.subobjects)
        if model not in self.validated:
            self.validated.add(model)
            self.counts["model.validate.models"] += 1

    def _after_search(self, args, result, exc, duration):
        if exc is None:
            self.counts["filtration.search.chains_found"] += len(result)
            self.search_time["useful"] += duration
        else:
            if type(exc).__name__ == "TooLargeError":
                self.counts["filtration.search.too_large"] += 1
            self.search_time["wasted"] += duration

    def _after_classify(self, args, result, exc, duration):
        self.counts["stability.entries_scanned"] += len(args[0].subobjects)

    def _after_check(self, args, result, exc, duration):
        if result is not None:
            self.counts["suite.checks." + result.status] += 1

    # -- installing and restoring -------------------------------------------

    @contextmanager
    def installed(self):
        """Bind the wrappers everywhere the originals are bound; restore on exit."""
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))
        ]
        patches = []
        try:
            for module, attr in SPAN_TARGETS:
                patches += self._patch(modules, module, attr, self.wrap, span_name(module, attr))
            for module, attr, metric in COUNT_TARGETS:
                patches += self._patch(modules, module, attr, self.count, metric)
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    def _patch(self, modules, module, attr, make, name):
        mod = sys.modules.get(f"{PACKAGE}.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            original = vars(cls).get(meth) if cls is not None else None
            if original is None:
                return []
            setattr(cls, meth, make(original, name))
            return [(cls, meth, original)]
        original = getattr(mod, attr, None)
        if original is None:
            return []
        wrapper = make(original, name)
        patches = []
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
                    patches.append((m, key, original))
        return patches

    # -- folding spans into metrics ------------------------------------------

    def fold(self) -> dict:
        """Per-layer metrics of everything recorded since the last fold; clears it."""
        total, own, calls = self_times(
            [self.names[i] for i in self.span_name],
            self.span_parent,
            self.span_start,
            self.span_end,
            self.span_nested,
        )
        counts = self.counts
        out = {}
        for module, attr in SPAN_TARGETS:
            name = span_name(module, attr)
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.total_s"] = total.get(name, 0.0)
            out[f"{name}.self_s"] = own.get(name, 0.0)
        for key in [metric for _, _, metric in COUNT_TARGETS] + [
            "model.realize.entries", "model.realize.contains_ids",
            "model.validate.entries_scanned", "stability.entries_scanned",
            "filtration.search.chains_found", "filtration.search.too_large",
        ]:
            out[key] = counts.get(key, 0)
        models = counts.get("model.validate.models", 0)
        out["model.validate.calls_per_model"] = (
            out["model.validate.calls"] / models if models else 0.0
        )
        searched = self.search_time["useful"] + self.search_time["wasted"]
        out["filtration.search.useful_share"] = (
            self.search_time["useful"] / searched if searched else 1.0
        )
        ran = 0
        for status in ("pass", "fail", "skip"):
            out["suite.checks." + status] = counts.get("suite.checks." + status, 0)
            ran += out["suite.checks." + status]
        out["suite.skip_share"] = out["suite.checks.skip"] / ran if ran else 0.0
        self._reset()
        return out
