"""Jordan-Holder and Harder-Narasimhan filtrations over declared lattices.

Every step is decided on the parent's lattice: _interval lists the entries
strictly between two steps, relative to the lower one, and quotients come from
chi subtraction.  Validation of the parent makes the interval of every step
without torsion a valid model, so no step builds one; the step rule rejects the
others, and interval_quotient_model is the verdict's oracle.  Both filtrations
are defined by a rule on each step alone, kept in _step_violations:
verify_filtration applies it to every step of a chain, and _search, the one
exhaustive search behind all_jordan_holder and all_harder_narasimhan, extends
chains only through steps that pass it.  Every construction passes the
stability gate first and verifies its chain before returning, so an
under-declared family surfaces as an explicit error, not a wrong answer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .chern import NumericalSheafData, compare_p
from .hilbert import EventualOrder, HilbertPolynomial
from .model import HiggsObjectModel, SubobjectEntry, Violation
from .stability import (
    Notion,
    PreconditionUnmetError,
    StabilityClass,
    StabilityVerdict,
    _classify,
    gieseker_classify,
    require_classifiable,
)

CHAIN_BOUND_ENV = "HIGGS_LAB_MAX_CHAINS"
DEFAULT_CHAIN_BOUND = 4096


class UnknownIdError(KeyError):
    """The requested subobject id is not in the declared family."""


class NotSemistableError(ValueError):
    """Jordan-Holder data only exists for semistable objects."""


class TooLargeError(RuntimeError):
    """The exhaustive chain search visited more nodes than the configured bound."""


class BrokenInvariantError(ValueError):
    """A constructed filtration failed its own invariants; the family is under-declared."""


class AmbiguousMaximizerError(ValueError):
    """Two incomparable maximal destabilizers tie; the family cannot determine the chain."""


class ChainBoundError(ValueError):
    """HIGGS_LAB_MAX_CHAINS holds something other than a positive integer."""


class FiltrationKind(Enum):
    JH = "jh"
    HN = "hn"


@dataclass(frozen=True)
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
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "quotients", tuple(self.quotients))
        if len(self.steps) != len(self.quotients):
            raise ValueError("one quotient per step")


@dataclass(frozen=True)
class Grading:
    """Multiset of quotient invariants (rank, H-degree, chi) of a filtration."""

    pieces: tuple[tuple[int, Fraction, HilbertPolynomial], ...]

    def __post_init__(self):
        ordered = sorted(self.pieces, key=lambda t: (t[0], t[1], t[2].coeffs))
        object.__setattr__(self, "pieces", tuple(ordered))


def _sheaf_delta(a: NumericalSheafData, b: NumericalSheafData) -> NumericalSheafData:
    """Invariants of a/b for declared b inside a; positive rank is presumed torsion-free."""
    rank, chi = a.rank - b.rank, a.chi - b.chi
    return NumericalSheafData(rank, a.deg_h - b.deg_h, chi, torsion_free=rank > 0 or chi.is_zero)


def _data(model: HiggsObjectModel, step: str) -> NumericalSheafData:
    """Invariants of a step: the object itself or one declared entry."""
    return model.data if step == model.id else model.entry(step).data


def _interval(
    model: HiggsObjectModel, upper: str, lower: Optional[str]
) -> Iterator[tuple[str, NumericalSheafData]]:
    """(id, invariants relative to lower) of each entry strictly between two steps.

    upper may be the model id; lower of None means zero.  Ids come in order.
    """
    if upper == model.id:
        entries = model.subobjects
    else:
        entries = [model.entry(i) for i in sorted(model.entry(upper).contains)]
    if lower is None:
        return ((e.id, e.data) for e in entries)
    base = model.entry(lower).data
    return ((e.id, _sheaf_delta(e.data, base)) for e in entries if lower in e.contains)


def _verdict(
    between: Iterable[tuple[str, NumericalSheafData]], quotient: NumericalSheafData
) -> StabilityVerdict:
    """gieseker_classify of the interval model, from the interval and its quotient."""
    orders = ((gid, compare_p(d, quotient)) for gid, d in between if 0 < d.rank < quotient.rank)
    return _classify(Notion.GIESEKER, orders)


def interval_quotient_model(
    model: HiggsObjectModel, top_id: str, bottom_id: Optional[str]
) -> HiggsObjectModel:
    """Model of (top / bottom) with family drawn from strictly-between entries.

    top_id may be the model id (the whole object); bottom_id of None means
    the zero subobject.  Entry ids are the parent's, so a witness names a
    parent entry.
    """
    if top_id != model.id and not model.has_entry(top_id):
        raise UnknownIdError(top_id)
    if bottom_id is not None and not model.has_entry(bottom_id):
        raise UnknownIdError(bottom_id)
    top = _step_quotient(model, top_id, bottom_id)
    between = dict(_interval(model, top_id, bottom_id))
    entries = []
    for gid, data in between.items():
        q = _sheaf_delta(top, data)
        torsion = None if q.torsion_free else q
        entries.append(
            SubobjectEntry(gid, data, q, torsion, between.keys() & model.entry(gid).contains)
        )
    return HiggsObjectModel(top_id, model.ambient, top, tuple(entries), model.family_complete)


def chain_bound() -> int:
    """The search-node bound: HIGGS_LAB_MAX_CHAINS if set, else the default."""
    raw = os.environ.get(CHAIN_BOUND_ENV)
    if not raw:
        return DEFAULT_CHAIN_BOUND
    try:
        bound = int(raw)
    except ValueError:
        bound = 0
    if bound < 1:
        raise ChainBoundError(f"{CHAIN_BOUND_ENV} must be a positive integer, got {raw!r}")
    return bound


def _downward(kind: FiltrationKind, items: Sequence) -> list:
    """Steps or quotients reordered to run down from the object."""
    return list(items) if kind is FiltrationKind.JH else list(reversed(items))


def _pairs(downward_steps: Sequence[str]) -> list[tuple[str, Optional[str]]]:
    """Each step with the next one down; the lowest step sits over zero (None)."""
    return list(zip(downward_steps, [*downward_steps[1:], None]))


def _step_quotient(
    model: HiggsObjectModel, upper: str, lower: Optional[str]
) -> NumericalSheafData:
    """Quotient of upper over lower (None for zero).

    The one place filtration quotients are derived from step ids.
    """
    data = _data(model, upper)
    return data if lower is None else _sheaf_delta(data, _data(model, lower))


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

    At each stage the maximal-rank equal-p entry is taken (ties broken by
    id), and the construction recurses inside it.  The result is verified
    against every filtration invariant before it is returned.
    """
    require_classifiable(model)
    steps: list[str] = []
    step = model.id
    while True:
        data = _data(model, step)
        between = list(_interval(model, step, None))
        verdict = _verdict(between, data)
        if verdict.classification is StabilityClass.UNSTABLE:
            if step == model.id:
                raise NotSemistableError(f"{model.id} is unstable (witness {verdict.witness})")
            raise BrokenInvariantError(
                f"intermediate step {step} is unstable; the family is under-declared"
            )
        steps.append(step)
        if verdict.classification is StabilityClass.STABLE:
            break
        candidates = [
            (d.rank, gid)
            for gid, d in between
            if 0 < d.rank < data.rank and compare_p(d, model.data) is EventualOrder.EQUAL
        ]
        best_rank = max(rank for rank, _ in candidates)
        step = min(gid for rank, gid in candidates if rank == best_rank)
    return _verified(model, FiltrationKind.JH, steps)


def _step_violations(
    model: HiggsObjectModel,
    kind: FiltrationKind,
    upper: str,
    lower: Optional[str],
    quotient: NumericalSheafData,
    above: Optional[tuple[str, NumericalSheafData]],
) -> Iterator[Violation]:
    """The JH or HN rule for one step, upper over lower (None for zero).

    quotient is upper/lower; above holds the upper id and the quotient of the
    step above, None at the top.  JH: the quotient is stable with p equal to
    the object's.  HN: it is semistable, and p strictly decreases up the chain.
    Both: it is torsion-free, so no entry in between has the lower step's rank
    and another chi.  Violations come cheapest first; a search stops at one.
    """
    if quotient.rank <= 0:
        yield Violation(upper, "QuotientRank", "quotients need positive rank")
        return
    if kind is FiltrationKind.JH:
        if compare_p(quotient, model.data) is not EventualOrder.EQUAL:
            yield Violation(upper, "EqualP", "quotient p differs from the object's")
            return
    elif above is not None and compare_p(above[1], quotient) is not EventualOrder.PRECEDES:
        yield Violation(
            above[0],
            "StrictDecrease",
            "quotient polynomials must strictly decrease up the chain",
        )
    between = list(_interval(model, upper, lower))
    for gid, d in between:
        if d.rank == 0 and not d.chi.is_zero:
            yield Violation(upper, "QuotientTorsion", f"{gid} is torsion over the step below")
            return
    verdict = _verdict(between, quotient)
    if kind is FiltrationKind.JH:
        if verdict.classification is not StabilityClass.STABLE:
            yield Violation(
                upper, "QuotientStable", f"quotient classifies {verdict.classification.value}"
            )
    elif not verdict.semistable:
        yield Violation(
            upper,
            "QuotientSemistable",
            f"quotient classifies unstable (witness {verdict.witness})",
        )


def _search(model: HiggsObjectModel, kind: FiltrationKind) -> list[Filtration]:
    """Every valid chain of one kind, in deterministic order.

    Chains grow down from the object one step at a time, depth first, and a
    prefix is extended only through steps with no _step_violations, so every
    chain found is valid and every valid chain is found.  A prefix whose
    lowest step passes over zero is a chain, listed before its extensions.
    Each prefix visited is one search node, bounded by chain_bound().  The
    pending prefixes sit on an explicit stack: a recursive closure would
    refer to itself and keep every chain alive until the cycle collector runs.
    """
    require_classifiable(model)
    bound = chain_bound()
    found: list[Filtration] = []
    nodes = 0
    stack: list[tuple[list[str], Optional[tuple[str, NumericalSheafData]]]] = [
        ([model.id], None)
    ]
    while stack:
        steps, above = stack.pop()
        nodes += 1
        if nodes > bound:
            raise TooLargeError(f"more than {bound} search nodes; raise {CHAIN_BOUND_ENV}")
        upper = steps[-1]
        deeper = []
        for lower in [None, *(gid for gid, _ in _interval(model, upper, None))]:
            quotient = _step_quotient(model, upper, lower)
            if next(_step_violations(model, kind, upper, lower, quotient, above), None):
                continue
            if lower is None:
                found.append(_filtration(model, kind, _downward(kind, steps)))
            else:
                deeper.append((steps + [lower], (upper, quotient)))
        stack.extend(reversed(deeper))
    return found


def all_jordan_holder(model: HiggsObjectModel) -> list[Filtration]:
    """Every chain satisfying the Jordan-Holder conditions, in deterministic order."""
    verdict = gieseker_classify(model)
    if verdict.classification is StabilityClass.UNSTABLE:
        raise NotSemistableError(f"{model.id} is unstable (witness {verdict.witness})")
    return _search(model, FiltrationKind.JH)


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
    best_data = top
    best: list[tuple[int, Optional[str]]] = [(top.rank, None)]
    for gid, data in _interval(model, model.id, bottom_id):
        if data.rank <= 0 or data.rank >= top.rank:
            continue
        order = compare_p(data, best_data)
        if order is EventualOrder.SUCCEEDS:
            best_data = data
            best = [(data.rank, gid)]
        elif order is EventualOrder.EQUAL:
            best.append((data.rank, gid))
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

    # strict descent through the declared containment order
    out = [
        Violation(lower, "Chain", f"{lower} is not strictly below {upper}")
        for upper, lower in zip(ordered, ordered[1:])
        if upper != model.id and lower not in model.entry(upper).contains
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
