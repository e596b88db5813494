"""Jordan-Holder and Harder-Narasimhan filtrations over declared lattices.

Every step is decided on the parent's lattice by one flat integer scan, _orders,
of the upper step's entries below: it skips those not above the lower step and
orders each other one's data over it against the step's quotient, or marks it
as torsion.  Validation of the parent makes the interval of every step without
torsion a valid model, so no step builds one: the scan is that model's
classification.  One rule on each step alone, _step_violations, stops at its
first offending entry in id order; HN adds that p strictly decreases up the
chain.  verify_filtration checks both on every step of a chain.  _steps, the
one generator of passing steps, feeds both walks: _search, behind
all_jordan_holder and all_harder_narasimhan, and jordan_holder_census, the
theorem suite's JH count.  For HN, _steps skips a lower entry before deciding
its step unless the entry and the quotient over it have positive rank and the
entry's p is above the quotient's: no HN chain steps down to any other entry.
For JH, it skips a lower step, zero too, that an entry M of p not below the
object's separates from the upper, of rank strictly between theirs: every node
a JH walk reaches has chi = rank * p(E), so M would break that step's
stability.  A search node is a prefix the search opens, so neither walk opens
one under a skipped step.  The search stops past SEARCH_BOUND search nodes and
the census past CENSUS_BOUND scanned entries, each with TooLargeError; no flag
or environment variable moves them.  Every construction passes the stability
gate first and verifies its chain before returning, so an under-declared family
surfaces as an explicit error, not a wrong answer.
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


Grading = tuple[tuple[int, Fraction, HilbertPolynomial], ...]
"""Multiset of quotient invariants (rank, H-degree, chi) of a filtration, as a sorted tuple."""


def _graded(pieces) -> Grading:
    return tuple(sorted(pieces, key=lambda t: (t[0], t[1], t[2].den, t[2].nums)))


def _sheaf_delta(a: NumericalSheafData, b: NumericalSheafData) -> NumericalSheafData:
    """Invariants of a/b for declared b inside a; positive rank is presumed torsion-free."""
    rank, chi = a.rank - b.rank, a.chi - b.chi
    return NumericalSheafData(rank, a.deg_h - b.deg_h, chi, torsion_free=rank > 0 or chi.is_zero)


def _below(a: SubobjectEntry, b: SubobjectEntry) -> bool:
    """Whether a lies strictly below b: a.key & ~b.key == 0, and a is not b."""
    return a.key & b.key == a.key and a is not b


def _below_list(model: HiggsObjectModel, upper: str) -> Sequence[SubobjectEntry]:
    """Entries strictly below upper, in id order, listed once per model in its memo's "below"."""
    table = model._memo.get("below") or model._memo.setdefault("below", {})  # made once
    entries = table.get(upper)
    if entries is None:
        entries = model.subobjects
        if upper != model.id:  # _below, inline: this scan runs for every upper
            top = model.entry(upper)
            entries = [e for e in entries if e.key & top.key == e.key and e is not top]
        table[upper] = entries
    return entries


def _between(
    model: HiggsObjectModel, upper: str, lower: Optional[str]
) -> Iterator[tuple[str, NumericalSheafData]]:
    """Each entry strictly between two steps, in id order and lazily: (id, its data over lower)."""
    entries = _below_list(model, upper)
    if lower is None:
        return ((e.id, e.data) for e in entries)
    low = model.entry(lower)
    return ((e.id, _quotient(model, e.data, low.data)) for e in entries
            if low.key & e.key == low.key and e is not low)


def _orders(
    model: HiggsObjectModel, upper: str, lower: Optional[str], quotient: NumericalSheafData
) -> Iterator[tuple[str, Optional[EventualOrder]]]:
    """The one step rule's scan: each entry strictly between two steps, in id order.

    An entry of the lower step's rank and another chi is torsion over it and
    yields (id, None).  An entry of relative rank strictly between 0 and the
    quotient's yields (id, its p over lower against the quotient's p).  Other
    entries yield nothing.
    """
    low = None if lower is None else model.entry(lower)
    for e in _below_list(model, upper):  # _between, in place: lazy, with no generator below
        if low is not None and (low.key & e.key != low.key or e is low):
            continue
        rel = e.data if low is None else _quotient(model, e.data, low.data)
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
    model: HiggsObjectModel, kind: FiltrationKind, upper: str, lower: Optional[str],
    quotient: NumericalSheafData,
) -> Iterator[Violation]:
    """The JH or HN rule for one step, upper over lower (None for zero), in one scan.

    quotient is upper/lower.  JH: the quotient is stable with p equal to the
    object's.  HN: it is semistable.  Both: it is torsion-free, so _orders marks
    no entry in between.  The cheap checks come first; the scan then stops at,
    and names, its first offending entry in id order: one torsion over lower,
    one whose p is above the quotient's, or, for JH, one whose p ties with it.
    HN's strict decrease of p reads the step above, so its callers check it.
    """
    if quotient.rank <= 0:
        yield Violation(upper, "QuotientRank", "quotients need positive rank")
        return
    jh = kind is FiltrationKind.JH
    if jh and compare_p(quotient, model.data) is not EventualOrder.EQUAL:
        yield Violation(upper, "EqualP", "quotient p differs from the object's")
        return
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


def _separated(model: HiggsObjectModel, upper: str, rank: int) -> set[int]:
    """The keys, 0 for zero, of lower steps a blocker separates from upper, of this rank.

    A blocker M has 0 < rank M < rank E and p not below p(E) (one compare per distinct
    sheaf); the memo's "blockers" keeps each with its shadow, 0 and the keys below M of
    rank below M's.  Upper unions the shadows of the blockers below it of lower rank.
    """
    if (blockers := model._memo.get("blockers")) is None:
        high = {id(e.data) for e in model.distinct if 0 < e.data.rank < model.data.rank
                and compare_p(e.data, model.data) is not EventualOrder.PRECEDES}
        blockers = model._memo["blockers"] = {
            e.id: {0, *(x.key for x in _below_list(model, e.id) if x.data.rank < e.data.rank)}
            for e in model.subobjects if id(e.data) in high}
    return set().union(*[blockers[e.id] for e in _below_list(model, upper)
                         if e.id in blockers and e.data.rank < rank])


def _steps(
    model: HiggsObjectModel, kind: FiltrationKind, upper: str, passes: dict,
    above: Optional[NumericalSheafData] = None,
) -> Iterator[tuple[Optional[str], NumericalSheafData]]:
    """Each passing step down from upper, as (lower, upper/lower): zero first, then in id order.

    JH first drops each lower step low, zero too, that a blocker M separates from upper
    (see _separated), losing no chain.  Every node a JH walk reaches has
    chi = rank*p(E): the object does, and chi and rank add over a step passing EqualP (a
    rank-0 low has chi 0 by validation, so M/low is M).  Were the step over low to pass,
    chi(M/low) - rank(M/low)*p(E) = chi(M) - rank(M)*p(E) would put p(M/low) not below
    p(upper/low) = p(E), as p(M) is not, and M, of relative rank strictly between 0 and
    the quotient's, would be a QuotientStable offender; where EqualP fails, the step
    fails anyway.  above is the quotient of the HN step above upper, or None.  HN first
    drops each entry low unless low and upper/low have positive rank and p(low) is above
    p(upper/low), and loses no chain: in an HN chain through upper over low every piece
    has positive rank (QuotientRank), and each piece below low has p above p(upper/low)
    (StrictDecrease).  _sheaf_delta telescopes, so rank and chi of low are the sums of
    its pieces', and p(low), their rank-weighted mean, is above p(upper/low) too.
    StrictDecrease against above runs next; then whether _step_violations yields a
    violation decides, once per (upper, lower) step of the walk that owns passes.
    """
    data = model.data if upper == model.id else model.entry(upper).data
    hn = kind is FiltrationKind.HN
    cut = () if hn else _separated(model, upper, data.rank)
    for low in (None, *_below_list(model, upper)):
        if cut and (0 if low is None else low.key) in cut:
            continue  # the JH cut: a blocker lies between low and upper
        lower, quotient = (None, data) if low is None else (low.id, _quotient(model, data, low.data))
        if hn and low is not None and not (
            low.data.rank > 0 and quotient.rank > 0
            and compare_p(low.data, quotient) is EventualOrder.SUCCEEDS
        ):
            continue  # the HN cut: no HN chain steps down to low
        if above and quotient.rank > 0 and compare_p(above, quotient) is not EventualOrder.PRECEDES:
            continue
        verdict = passes.get((upper, lower))
        if verdict is None:
            rule = _step_violations(model, kind, upper, lower, quotient)
            verdict = passes[upper, lower] = next(rule, None) is None
        if verdict:
            yield lower, quotient


def _search(model: HiggsObjectModel, kind: FiltrationKind) -> list[Filtration]:
    """Every valid chain of one kind, in deterministic order.

    Chains grow down from the object through _steps, depth first; a prefix
    whose lowest step passes over zero is a chain, listed before its
    extensions.  Each prefix visited is one search node, at most SEARCH_BOUND
    of them.  HN visits no prefix under an entry that _steps's cut drops, and
    the cut loses no chain, so the chains found are the same with it as
    without it.  Pending prefixes sit on a stack: a recursive closure would
    keep every chain alive until the collector runs.
    """
    require_classifiable(model)
    found: list[Filtration] = []
    passes, nodes = {}, 0
    stack: list[tuple[list[str], Optional[NumericalSheafData]]] = [([model.id], None)]
    while stack:
        steps, above = stack.pop()
        nodes += 1
        if nodes > SEARCH_BOUND:
            raise TooLargeError(f"more than {SEARCH_BOUND} search nodes")
        deeper = []
        for lower, quotient in _steps(model, kind, steps[-1], passes, above):
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
    entry) down to zero depend on that node alone: _census finds each node's
    count and gradings once, over its steps from _steps, on small ints (see
    _census).  Scans count as lattice entries touched, one list of a node's
    entries below plus one filter of it per entry below; work past CENSUS_BOUND
    raises TooLargeError before it starts.  A path d nodes deep has 0, 1, ...,
    d-1 entries or more below its nodes, so it scans about d^3/3: the bound
    keeps d near 114.  The JH cut's shadows cost at most one filter of the entry
    list per entry, within the n^2 charged at the object's node.
    """
    _require_semistable(model)
    found: dict[Optional[str], tuple[int, set[tuple[int, ...]]]] = {None: (1, {()})}
    pieces: tuple[dict, dict] = ({}, {})  # id(quotient), then its invariants -> its int
    _census(model, model.id, found, 0, pieces)
    count, gradings = found[model.id]
    invariants = list(pieces[1])  # in order of first sight, so a piece's int is its index
    return count, {_graded(invariants[i] for i in g) for g in gradings}


def _census(model: HiggsObjectModel, upper: str, found: dict, scanned: int, pieces) -> int:
    """Put the JH chains' count and gradings from upper to zero in found; return scanned.

    Each node is visited once, so its step verdicts need a dict of its own only.  A
    grading is a sorted tuple of ints: each step quotient gets one from pieces, by
    id() (the model holds every quotient), else by value, so equal values share one.
    """
    scanned += len(model.subobjects)  # listing the entries below upper
    if scanned <= CENSUS_BOUND:
        scanned += len(_below_list(model, upper)) ** 2  # one filter of that list per lower
    if scanned > CENSUS_BOUND:
        raise TooLargeError(f"census scans more than {CENSUS_BOUND} lattice entries")
    by_id, by_value = pieces
    count, gradings = 0, set()
    for lower, q in _steps(model, FiltrationKind.JH, upper, {}):  # zero ends one chain
        if lower not in found:
            scanned = _census(model, lower, found, scanned, pieces)
        below_count, below_gradings = found[lower]
        count += below_count
        piece = by_id.get(id(q))
        if piece is None:
            piece = by_id[id(q)] = by_value.setdefault((q.rank, q.deg_h, q.chi), len(by_value))
        gradings.update(tuple(sorted((*g, piece))) for g in below_gradings)
    found[upper] = count, gradings
    return scanned


def grading(filt: Filtration) -> Grading:
    return _graded((q.rank, q.deg_h, q.chi) for q in filt.quotients)


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
    best_p, best = (top.chi, top.rank), [(top.rank, None)]
    for eid, rel in _between(model, model.id, bottom_id):
        if 0 < rel.rank < top.rank:
            order = compare_scaled(rel.chi, rel.rank, *best_p)
            if order is EventualOrder.SUCCEEDS:
                best_p, best = (rel.chi, rel.rank), []
            if order is not EventualOrder.PRECEDES:
                best.append((rel.rank, eid))
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

    hn, above = filt.kind is FiltrationKind.HN, None
    for (upper, lower), q in zip(_pairs(ordered), quotients):
        if above and q.rank > 0 and compare_p(above[1], q) is not EventualOrder.PRECEDES:
            out.append(Violation(above[0], "StrictDecrease",
                                 "quotient polynomials must strictly decrease up the chain"))
        out.extend(_step_violations(model, filt.kind, upper, lower, q))
        # a rank-zero quotient has no p to compare against the step below
        above = (upper, q) if hn and q.rank > 0 else None
    return out
