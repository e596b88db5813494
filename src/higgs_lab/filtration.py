"""Jordan-Holder and Harder-Narasimhan filtrations over declared lattices.

Every step is decided on the parent's lattice by one integer scan, _orders:
it orders each entry strictly between two steps, relative to the lower one,
against the step's quotient, or marks it as torsion over the lower step.
Validation of the parent makes the interval of every step without torsion a
valid model, so no step builds one: the scan is that model's classification.
Both filtrations are defined by one rule on each step alone, kept in
_step_violations, whose scan stops at its first offending entry in id order.
verify_filtration applies it to every step of a chain; _search, the one
exhaustive search behind all_jordan_holder and all_harder_narasimhan, and
jordan_holder_census, the theorem suite's JH count, read its first violation
once per step; jordan_holder takes its greedy chain in one pass over the
equal-p entries.  The search stops past SEARCH_BOUND search nodes and the
census past CENSUS_BOUND scanned entries, each with TooLargeError; both are
module constants, and no flag or environment variable moves them.  Every
construction passes the stability gate first and verifies its chain before
returning, so an under-declared family surfaces as an explicit error, not a
wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .chern import NumericalSheafData, compare_p
from .hilbert import EventualOrder, HilbertPolynomial, compare_scaled
from .model import HiggsObjectModel, SubobjectEntry, Violation
from .stability import (
    PreconditionUnmetError,
    StabilityClass,
    gieseker_classify,
    require_classifiable,
)

SEARCH_BOUND = 4096  # prefixes _search may visit: search nodes, not chains found
CENSUS_BOUND = 500_000  # lattice entries jordan_holder_census may scan: m <= 8 equal-degree chains


class NotSemistableError(ValueError):
    """Jordan-Holder data only exists for semistable objects."""


class TooLargeError(RuntimeError):
    """Work past a module bound: SEARCH_BOUND search nodes or CENSUS_BOUND entries scanned."""


class BrokenInvariantError(ValueError):
    """A constructed filtration failed its own invariants; the family is under-declared."""


class AmbiguousMaximizerError(ValueError):
    """Two incomparable maximal destabilizers tie; the family cannot determine the chain."""


class FiltrationKind(Enum):
    JH = "jh"
    HN = "hn"


@dataclass(slots=True, unsafe_hash=True)
class Filtration:
    """An ordered chain of subobject ids with per-step quotient invariants.

    JH steps run downward from the object itself (the trailing zero is
    implicit); HN steps run upward and end at the object.  Either way
    quotients[i] belongs to steps[i], so both lists have equal length.
    """

    kind: FiltrationKind
    steps: tuple[str, ...]
    quotients: tuple[NumericalSheafData, ...]

    def __post_init__(self):
        self.steps = tuple(self.steps)
        self.quotients = tuple(self.quotients)
        if len(self.steps) != len(self.quotients):
            raise ValueError("one quotient per step")


@dataclass(frozen=True)
class Grading:
    """Multiset of quotient invariants (rank, H-degree, chi) of a filtration."""

    pieces: tuple[tuple[int, Fraction, HilbertPolynomial], ...]

    def __post_init__(self):
        ordered = sorted(self.pieces, key=lambda t: (t[0], t[1], t[2].den, t[2].nums))
        object.__setattr__(self, "pieces", tuple(ordered))


def _sheaf_delta(a: NumericalSheafData, b: NumericalSheafData) -> NumericalSheafData:
    """Invariants of a/b for declared b inside a; positive rank is presumed torsion-free."""
    rank, chi = a.rank - b.rank, a.chi - b.chi
    return NumericalSheafData(rank, a.deg_h - b.deg_h, chi, torsion_free=rank > 0 or chi.is_zero)


def _below(a: SubobjectEntry, b: SubobjectEntry) -> bool:
    """Whether a lies strictly below b: a.key & ~b.key == 0, and a is not b."""
    return a.key & b.key == a.key and a is not b


def _below_list(model: HiggsObjectModel, upper: str) -> Sequence[SubobjectEntry]:
    """Entries strictly below upper, in id order, listed once per model in its memo's "below"."""
    table = model._memo.setdefault("below", {})
    if upper not in table:
        entries = model.subobjects
        if upper != model.id:  # _below, inline: this scan runs for every upper
            top = model.entry(upper)
            entries = [e for e in entries if e.key & top.key == e.key and e is not top]
        table[upper] = entries
    return table[upper]


def _between(model: HiggsObjectModel, upper: str, lower: Optional[str]) -> Sequence[SubobjectEntry]:
    """Entries strictly between two steps, in id order; upper may be the object, lower None."""
    entries = _below_list(model, upper)
    if lower is not None:
        low = model.entry(lower)
        entries = [e for e in entries if low.key & e.key == low.key and e is not low]
    return entries


def _orders(
    model: HiggsObjectModel, upper: str, lower: Optional[str], quotient: NumericalSheafData
) -> Iterator[tuple[str, Optional[EventualOrder]]]:
    """The one step rule's scan: each entry strictly between two steps, in id order.

    An entry of the lower step's rank and another chi is torsion over it and
    yields (id, None).  An entry of relative rank strictly between 0 and the
    quotient's yields (id, its p over lower against the quotient's p).  Other
    entries yield nothing.
    """
    base = None if lower is None else model.entry(lower).data
    for e in _between(model, upper, lower):
        rel = e.data if base is None else _quotient(model, e.data, base)
        if rel.rank == 0 and not rel.chi.is_zero:
            yield e.id, None
        elif 0 < rel.rank < quotient.rank:
            yield e.id, compare_scaled(rel.chi, rel.rank, quotient.chi, quotient.rank)


def _downward(kind: FiltrationKind, items: Sequence) -> list:
    """Steps or quotients reordered to run down from the object."""
    return list(items) if kind is FiltrationKind.JH else list(reversed(items))


def _pairs(downward_steps: Sequence[str]) -> list[tuple[str, Optional[str]]]:
    """Each step with the next one down; the lowest step sits over zero (None)."""
    return list(zip(downward_steps, [*downward_steps[1:], None]))


def _quotient(
    model: HiggsObjectModel, a: NumericalSheafData, b: NumericalSheafData
) -> NumericalSheafData:
    """a/b for two sheaves of the model, b below a, derived once per pair of sheaves.

    Entries share sheaves, so a step's quotient depends on its two sheaves alone.  The
    table sits in the memo's "quotients": one dict per upper sheaf, keyed by the lower
    sheaf's id().  Identity keys are sound because every sheaf passed in is held by the
    model for its lifetime: entry data and model.data.
    """
    try:
        return model._memo["quotients"][id(a)][id(b)]
    except KeyError:
        row = model._memo.setdefault("quotients", {}).setdefault(id(a), {})
        row[id(b)] = quotient = _sheaf_delta(a, b)
        return quotient


def _step_quotient(
    model: HiggsObjectModel, upper: str, lower: Optional[str]
) -> NumericalSheafData:
    """Quotient of upper, the object or an entry, over lower, an entry or None for zero."""
    data = model.data if upper == model.id else model.entry(upper).data
    return data if lower is None else _quotient(model, data, model.entry(lower).data)


def _filtration(
    model: HiggsObjectModel, kind: FiltrationKind, steps: Sequence[str]
) -> Filtration:
    quotients = [_step_quotient(model, u, l) for u, l in _pairs(_downward(kind, steps))]
    return Filtration(kind, steps, _downward(kind, quotients))


def _verified(
    model: HiggsObjectModel, kind: FiltrationKind, steps: Sequence[str]
) -> Filtration:
    filt = _filtration(model, kind, steps)
    problems = verify_filtration(model, filt)
    if problems:
        raise BrokenInvariantError("; ".join(str(v) for v in problems))
    return filt


def jordan_holder(model: HiggsObjectModel) -> Filtration:
    """One Jordan-Holder filtration: greedy maximal-rank descent.

    At each stage the maximal-rank equal-p entry below the last step is taken
    (ties broken by id): one pass over the equal-p entries by (-rank, id), with
    p compared once per entry of the model's distinct table.  The result is
    verified against every filtration invariant before it is returned.
    """
    _require_semistable(model)
    total = model.data
    equal = {id(e.data) for e in model.distinct
             if 0 < e.data.rank < total.rank and compare_p(e.data, total) is EventualOrder.EQUAL}
    steps, top = [model.id], None
    for e in sorted((e for e in model.subobjects if id(e.data) in equal),
                    key=lambda e: (-e.data.rank, e.id)):
        if top is None or e.data.rank < top.data.rank and _below(e, top):
            steps.append(e.id)
            top = e
    return _verified(model, FiltrationKind.JH, steps)


def _step_violations(
    model: HiggsObjectModel,
    kind: FiltrationKind,
    upper: str,
    lower: Optional[str],
    quotient: NumericalSheafData,
    above: Optional[tuple[str, NumericalSheafData]],
) -> Iterator[Violation]:
    """The JH or HN rule for one step, upper over lower (None for zero), in one scan.

    quotient is upper/lower; above holds the upper id and the quotient of the
    step above, None at the top.  JH: the quotient is stable with p equal to
    the object's.  HN: it is semistable, and p strictly decreases up the chain.
    Both: it is torsion-free, so _orders marks no entry in between.  The cheap
    checks come first; the scan then stops at, and names, its first offending
    entry in id order: one torsion over lower, one whose p is above the
    quotient's, or, for JH, one whose p ties with it.
    """
    if quotient.rank <= 0:
        yield Violation(upper, "QuotientRank", "quotients need positive rank")
        return
    jh = kind is FiltrationKind.JH
    if jh:
        if compare_p(quotient, model.data) is not EventualOrder.EQUAL:
            yield Violation(upper, "EqualP", "quotient p differs from the object's")
            return
    elif above is not None and compare_p(above[1], quotient) is not EventualOrder.PRECEDES:
        yield Violation(
            above[0], "StrictDecrease", "quotient polynomials must strictly decrease up the chain"
        )
    for gid, order in _orders(model, upper, lower, quotient):
        if order is None:
            yield Violation(upper, "QuotientTorsion", f"{gid} is torsion over the step below")
            return
        if jh and order is not EventualOrder.PRECEDES:
            yield Violation(upper, "QuotientStable", f"quotient is not stable (witness {gid})")
            return
        if order is EventualOrder.SUCCEEDS:
            yield Violation(
                upper, "QuotientSemistable", f"quotient classifies unstable (witness {gid})"
            )
            return


def _search(model: HiggsObjectModel, kind: FiltrationKind) -> list[Filtration]:
    """Every valid chain of one kind, in deterministic order.

    Chains grow down from the object one step at a time, depth first, and a
    prefix is extended only through steps with no _step_violations, so every
    chain found is valid and every valid chain is found.  HN's StrictDecrease,
    the one check that reads the prefix, runs first; the first violation of the
    step rule decides the rest once per (upper, lower) step, and each upper's
    lowers are listed once per model by _below_list.  A prefix whose lowest step
    passes over zero is a chain, listed before its extensions.  Each prefix
    visited is one search node, at most SEARCH_BOUND of them.  Pending prefixes
    sit on a stack: a recursive closure would keep every chain alive until the
    collector runs.
    """
    require_classifiable(model)
    found: list[Filtration] = []
    passes: dict[tuple[str, Optional[str]], bool] = {}  # (upper, lower) -> no violation
    nodes = 0
    stack: list[tuple[list[str], Optional[NumericalSheafData]]] = [([model.id], None)]
    while stack:
        steps, above = stack.pop()
        nodes += 1
        if nodes > SEARCH_BOUND:
            raise TooLargeError(f"more than {SEARCH_BOUND} search nodes")
        upper = steps[-1]
        deeper = []
        for lower in (None, *(e.id for e in _below_list(model, upper))):
            quotient = _step_quotient(model, upper, lower)
            if above is not None and quotient.rank > 0:  # rank zero fails QuotientRank
                if compare_p(above, quotient) is not EventualOrder.PRECEDES:
                    continue  # StrictDecrease
            if (upper, lower) not in passes:
                rule = _step_violations(model, kind, upper, lower, quotient, None)
                passes[upper, lower] = next(rule, None) is None
            if not passes[upper, lower]:
                continue
            if lower is None:  # every step of the chain is known
                found.append(_filtration(model, kind, _downward(kind, steps)))
            else:
                deeper.append((steps + [lower], quotient if kind is FiltrationKind.HN else None))
        stack.extend(reversed(deeper))
    return found


def _require_semistable(model: HiggsObjectModel) -> None:
    verdict = gieseker_classify(model)
    if verdict.classification is StabilityClass.UNSTABLE:
        raise NotSemistableError(f"{model.id} is unstable (witness {verdict.witness})")


def all_jordan_holder(model: HiggsObjectModel) -> list[Filtration]:
    """Every chain satisfying the Jordan-Holder conditions, in deterministic order."""
    _require_semistable(model)
    return _search(model, FiltrationKind.JH)


def jordan_holder_census(model: HiggsObjectModel) -> tuple[int, set[Grading]]:
    """The number of Jordan-Holder chains and the set of their gradings, listing no chain.

    JH steps read no prefix, so the chains from a node (the object or an
    entry) down to zero depend on that node alone: each node keeps their
    count and gradings, summed over the steps from it where _step_violations
    yields nothing.  Nodes wait on a stack until every step below them is known.
    The scans are counted as lattice entries touched, one list of a node's
    entries below plus one filter of it per entry below; work past
    CENSUS_BOUND raises TooLargeError before it starts.
    """
    _require_semistable(model)
    size, scanned = len(model.subobjects), 0
    passing: dict[str, list[tuple[Optional[str], NumericalSheafData]]] = {}
    found: dict[Optional[str], tuple[int, set[Grading]]] = {None: (1, {Grading(())})}
    stack = [model.id]
    while stack:
        upper = stack[-1]
        if upper not in passing:  # first visit: decide every step down from upper
            scanned += size  # listing the entries below upper
            if scanned <= CENSUS_BOUND:
                below = _below_list(model, upper)
                scanned += len(below) ** 2  # one filter of that list per lower below
            if scanned > CENSUS_BOUND:
                raise TooLargeError(f"census scans more than {CENSUS_BOUND} lattice entries")
            steps = passing[upper] = []
            for lower in (None, *(e.id for e in below)):
                quotient = _step_quotient(model, upper, lower)
                rule = _step_violations(model, FiltrationKind.JH, upper, lower, quotient, None)
                if next(rule, None) is None:
                    steps.append((lower, quotient))
            stack.extend(low for low, _ in steps if low not in found)
            continue
        stack.pop()
        if upper in found:
            continue
        count, gradings = 0, set()
        for lower, q in passing[upper]:  # zero, the lower None, ends one chain
            below_count, below_gradings = found[lower]
            count += below_count
            gradings.update(Grading((*g.pieces, (q.rank, q.deg_h, q.chi))) for g in below_gradings)
        found[upper] = count, gradings
    return found[model.id]


def grading(filt: Filtration) -> Grading:
    return Grading(tuple((q.rank, q.deg_h, q.chi) for q in filt.quotients))


def s_equivalent(m1: HiggsObjectModel, m2: HiggsObjectModel) -> bool:
    """Do two equal-p semistable objects have isomorphic gradings?"""
    v1, v2 = gieseker_classify(m1), gieseker_classify(m2)
    if not (v1.semistable and v2.semistable):
        raise PreconditionUnmetError("both objects must be Gieseker semistable")
    if compare_p(m1.data, m2.data) is not EventualOrder.EQUAL:
        raise PreconditionUnmetError("the objects must share one normalized polynomial")
    return grading(jordan_holder(m1)) == grading(jordan_holder(m2))


def _destabilizer_step(
    model: HiggsObjectModel, bottom_id: Optional[str]
) -> Optional[str]:
    """Pick the maximal destabilizing entry strictly above bottom, or None for the top.

    Maximize the relative normalized polynomial, then rank; a tie between
    distinct entries is ambiguous and aborts.
    """
    top = _step_quotient(model, model.id, bottom_id)
    base = None if bottom_id is None else model.entry(bottom_id).data
    best_p, best = (top.chi, top.rank), [(top.rank, None)]
    for e in _between(model, model.id, bottom_id):
        rel = e.data if base is None else _quotient(model, e.data, base)
        if 0 < rel.rank < top.rank:
            order = compare_scaled(rel.chi, rel.rank, *best_p)
            if order is EventualOrder.SUCCEEDS:
                best_p, best = (rel.chi, rel.rank), []
            if order is not EventualOrder.PRECEDES:
                best.append((rel.rank, e.id))
    best_rank = max(r for r, _ in best)
    winners = [eid for r, eid in best if r == best_rank]
    if None in winners:
        return None
    if len(winners) > 1:
        raise AmbiguousMaximizerError(
            f"incomparable maximizers {sorted(winners)} above {bottom_id or '0'}"
        )
    return winners[0]


def harder_narasimhan(model: HiggsObjectModel) -> Filtration:
    """The Harder-Narasimhan filtration: repeated maximal destabilizers.

    Each stage maximizes the relative normalized polynomial over entries
    above the previous step (then rank); when the whole remaining quotient
    wins, the chain closes at the object itself.
    """
    require_classifiable(model)
    steps: list[str] = []
    bottom: Optional[str] = None
    while (bottom := _destabilizer_step(model, bottom)) is not None:
        steps.append(bottom)
    return _verified(model, FiltrationKind.HN, steps + [model.id])


def all_harder_narasimhan(model: HiggsObjectModel) -> list[Filtration]:
    """Every chain satisfying the Harder-Narasimhan conditions, by exhaustive search."""
    return _search(model, FiltrationKind.HN)


def verify_filtration(model: HiggsObjectModel, filt: Filtration) -> list[Violation]:
    """Check every filtration invariant; empty list means the chain is valid.

    An invalid model raises InvalidModelError, as in every construction.
    """
    require_classifiable(model)
    steps = filt.steps
    if not steps:
        return [Violation(model.id, "Steps", "a filtration has at least one step")]
    if not all(s == model.id or model.has_entry(s) for s in steps):
        return [Violation(model.id, "UnknownId", "step id outside the declared family")]

    ordered = _downward(filt.kind, steps)
    if ordered[0] != model.id:
        end = "first" if filt.kind is FiltrationKind.JH else "last"
        return [Violation(model.id, "Chain", f"{end} step must be the object")]
    if any(s == model.id for s in ordered[1:]):
        return [Violation(model.id, "Chain", "the object may only bound the chain")]

    # strict descent through the containment order of the keys
    out = [
        Violation(lower, "Chain", f"{lower} is not strictly below {upper}")
        for upper, lower in zip(ordered, ordered[1:])
        if upper != model.id and not _below(model.entry(lower), model.entry(upper))
    ]
    if out:
        return out

    quotients = _downward(filt.kind, filt.quotients)
    out = []
    for (upper, lower), q in zip(_pairs(ordered), quotients):
        want = _step_quotient(model, upper, lower)
        if (q.rank, q.deg_h, q.chi) != (want.rank, want.deg_h, want.chi):
            out.append(Violation(upper, "QuotientData", "quotient differs from chi subtraction"))
    if out:
        return out

    above = None
    for (upper, lower), q in zip(_pairs(ordered), quotients):
        out.extend(_step_violations(model, filt.kind, upper, lower, q, above))
        # a rank-zero quotient has no p to compare against the step below
        above = (upper, q) if q.rank > 0 else None
    return out
