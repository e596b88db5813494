"""Jordan-Holder and Harder-Narasimhan filtrations over declared lattices.

Every step works on an interval model built by interval_quotient_model: a
subobject (bottom of None) has the declared entries below it as its family,
and a quotient has the declared entries above the kernel; quotient
invariants come from chi subtraction.  The constructions collect step ids
only; _step_quotients derives every filtration's quotients from its steps in
one place, and verify_filtration checks given quotients against it.  Every
construction passes the stability gate first, and verifies every filtration
invariant before returning, so an under-declared family surfaces as an
explicit error instead of a wrong answer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .chern import NumericalSheafData, compare_p
from .hilbert import EventualOrder, HilbertPolynomial
from .model import HiggsObjectModel, SubobjectEntry, Violation
from .stability import (
    InvalidModelError,
    PreconditionUnmetError,
    StabilityClass,
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
    """Exhaustive chain enumeration exceeded the configured bound."""


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
        ordered = tuple(
            sorted(self.pieces, key=lambda t: (t[0], t[1], t[2].coeffs))
        )
        object.__setattr__(self, "pieces", ordered)


def _sheaf_delta(a: NumericalSheafData, b: NumericalSheafData) -> NumericalSheafData:
    """Invariants of a/b for declared b inside a; positive rank is presumed torsion-free."""
    rank = a.rank - b.rank
    chi = a.chi - b.chi
    return NumericalSheafData(
        rank, a.deg_h - b.deg_h, chi, torsion_free=rank > 0 or chi.is_zero
    )


def interval_quotient_model(
    model: HiggsObjectModel, top_id: str, bottom_id: Optional[str]
) -> HiggsObjectModel:
    """Model of (top / bottom) with family drawn from strictly-between entries.

    top_id may be the model id (the whole object); bottom_id of None means
    the zero subobject.  Entry ids are preserved so chains keep their
    original names across recursion.
    """
    if top_id == model.id:
        top_data = model.data
        below_top = {e.id for e in model.subobjects}
    else:
        if not model.has_entry(top_id):
            raise UnknownIdError(top_id)
        top_entry = model.entry(top_id)
        top_data = top_entry.data
        below_top = set(top_entry.contains)
    if bottom_id is None:
        bottom_data = None
        between = below_top
    else:
        if not model.has_entry(bottom_id):
            raise UnknownIdError(bottom_id)
        bottom_data = model.entry(bottom_id).data
        between = {
            i for i in below_top if bottom_id in model.entry(i).contains
        }

    if bottom_data is None:
        data = top_data
        lift = lambda s: s
    else:
        data = _sheaf_delta(top_data, bottom_data)
        lift = lambda s: _sheaf_delta(s, bottom_data)

    entries = []
    for gid in sorted(between):
        g = model.entry(gid)
        quotient = _sheaf_delta(top_data, g.data)
        entries.append(
            SubobjectEntry(
                id=gid,
                data=lift(g.data),
                quotient=quotient,
                quotient_torsion_part=quotient if not quotient.torsion_free else None,
                contains=g.contains & between,
            )
        )
    return HiggsObjectModel(
        id=top_id,
        ambient=model.ambient,
        data=data,
        subobjects=tuple(entries),
        family_complete=model.family_complete,
    )


def chain_bound() -> int:
    """The exhaustive-search bound: HIGGS_LAB_MAX_CHAINS if set, else the default."""
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


def _step_quotients(
    model: HiggsObjectModel, downward_steps: Sequence[str]
) -> list[NumericalSheafData]:
    """Quotient of each step over the next one down (the lowest over zero).

    The one place filtration quotients are derived from step ids.
    """
    data = [
        model.data if s == model.id else model.entry(s).data for s in downward_steps
    ]
    return [_sheaf_delta(u, l) for u, l in zip(data, data[1:])] + data[-1:]


def _filtration(
    model: HiggsObjectModel, kind: FiltrationKind, steps: Sequence[str]
) -> Filtration:
    quotients = _step_quotients(model, _downward(kind, steps))
    return Filtration(kind, steps, _downward(kind, quotients))


def _verified(
    model: HiggsObjectModel, kind: FiltrationKind, steps: Sequence[str]
) -> Filtration:
    filt = _filtration(model, kind, steps)
    problems = verify_filtration(model, filt)
    if problems:
        raise BrokenInvariantError("; ".join(str(v) for v in problems))
    return filt


def _equal_p_candidates(current: HiggsObjectModel, target: NumericalSheafData):
    total = current.data.rank
    return [
        e
        for e in current.subobjects
        if 0 < e.data.rank < total
        and compare_p(e.data, target) is EventualOrder.EQUAL
    ]


def jordan_holder(model: HiggsObjectModel) -> Filtration:
    """One Jordan-Holder filtration: greedy maximal-rank descent.

    At each stage the maximal-rank equal-p entry is taken (ties broken by
    id), and the construction recurses inside it.  The result is verified
    against every filtration invariant before it is returned.
    """
    require_classifiable(model)
    steps: list[str] = []
    current = model
    while True:
        verdict = gieseker_classify(current)
        if verdict.classification is StabilityClass.UNSTABLE:
            if current is model:
                raise NotSemistableError(
                    f"{model.id} is unstable (witness {verdict.witness})"
                )
            raise BrokenInvariantError(
                f"intermediate step {current.id} is unstable; the family is under-declared"
            )
        steps.append(current.id)
        if verdict.classification is StabilityClass.STABLE:
            break
        candidates = _equal_p_candidates(current, model.data)
        best_rank = max(e.data.rank for e in candidates)
        chosen = min(e.id for e in candidates if e.data.rank == best_rank)
        current = interval_quotient_model(current, chosen, None)
    return _verified(model, FiltrationKind.JH, steps)


def all_jordan_holder(model: HiggsObjectModel) -> list[Filtration]:
    """Every chain satisfying the Jordan-Holder conditions, in deterministic order."""
    require_classifiable(model)
    verdict = gieseker_classify(model)
    if verdict.classification is StabilityClass.UNSTABLE:
        raise NotSemistableError(f"{model.id} is unstable (witness {verdict.witness})")
    bound = chain_bound()
    found: list[Filtration] = []

    def extend(current: HiggsObjectModel, steps):
        if len(found) > bound:
            raise TooLargeError(f"more than {bound} chains; raise {CHAIN_BOUND_ENV}")
        steps = steps + [current.id]
        # stop here iff what remains is itself stable
        if gieseker_classify(current).classification is StabilityClass.STABLE:
            found.append(_filtration(model, FiltrationKind.JH, steps))
        for e in _equal_p_candidates(current, model.data):
            quotient_model = interval_quotient_model(current, current.id, e.id)
            if gieseker_classify(quotient_model).classification is StabilityClass.STABLE:
                extend(interval_quotient_model(current, e.id, None), steps)

    extend(model, [])
    if len(found) > bound:
        raise TooLargeError(f"more than {bound} chains; raise {CHAIN_BOUND_ENV}")
    return found


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
    if bottom_id is None:
        above = model.subobjects
        top = model.data
        relative = lambda data: data
    else:
        bottom_data = model.entry(bottom_id).data
        above = [e for e in model.subobjects if bottom_id in e.contains]
        top = _sheaf_delta(model.data, bottom_data)
        relative = lambda data: _sheaf_delta(data, bottom_data)

    best_data = top
    best: list[tuple[int, Optional[str]]] = [(top.rank, None)]
    for e in above:
        data = relative(e.data)
        if data.rank <= 0 or data.rank >= top.rank:
            continue
        order = compare_p(data, best_data)
        if order is EventualOrder.SUCCEEDS:
            best_data = data
            best = [(data.rank, e.id)]
        elif order is EventualOrder.EQUAL:
            best.append((data.rank, e.id))
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
    require_classifiable(model)
    bound = chain_bound()
    found: list[Filtration] = []
    counter = [0]

    def ascend(bottom: Optional[str], steps):
        counter[0] += 1
        if counter[0] > bound:
            raise TooLargeError(f"more than {bound} chains; raise {CHAIN_BOUND_ENV}")
        bottom_data = None if bottom is None else model.entry(bottom).data
        candidates = [
            e
            for e in model.subobjects
            if (bottom is None or bottom in e.contains)
            and (bottom_data is None or e.data.rank > bottom_data.rank)
            and e.data.rank < model.data.rank
        ]
        candidate_chain = _filtration(model, FiltrationKind.HN, steps + [model.id])
        if not verify_filtration(model, candidate_chain):
            found.append(candidate_chain)
        for e in candidates:
            ascend(e.id, steps + [e.id])

    ascend(None, [])
    return found


def verify_filtration(model: HiggsObjectModel, filt: Filtration) -> list[Violation]:
    """Check every filtration invariant; empty list means the chain is valid."""
    out: list[Violation] = []
    steps = filt.steps
    if not steps:
        return [Violation(model.id, "Steps", "a filtration has at least one step")]
    known = all(s == model.id or model.has_entry(s) for s in steps)
    if not known:
        return [Violation(model.id, "UnknownId", "step id outside the declared family")]

    ordered = _downward(filt.kind, steps)
    if ordered[0] != model.id:
        end = "first" if filt.kind is FiltrationKind.JH else "last"
        return [Violation(model.id, "Chain", f"{end} step must be the object")]
    if any(s == model.id for s in ordered[1:]):
        return [Violation(model.id, "Chain", "the object may only bound the chain")]

    # strict descent through the declared containment order
    for upper, lower in zip(ordered, ordered[1:]):
        upper_below = (
            {e.id for e in model.subobjects}
            if upper == model.id
            else model.entry(upper).contains
        )
        if lower not in upper_below:
            out.append(Violation(lower, "Chain", f"{lower} is not strictly below {upper}"))
    if out:
        return out

    # quotient bookkeeping: chi subtraction, conservation, positive ranks
    downward_quotients = _downward(filt.kind, filt.quotients)
    expected = _step_quotients(model, ordered)
    for step, q, want in zip(ordered, downward_quotients, expected):
        if (q.rank, q.deg_h, q.chi) != (want.rank, want.deg_h, want.chi):
            out.append(Violation(step, "QuotientData", "quotient differs from chi subtraction"))
        if q.rank <= 0:
            out.append(Violation(step, "QuotientRank", "quotients need positive rank"))
    if out:
        return out
    total_rank = sum(q.rank for q in filt.quotients)
    total_chi = sum((q.chi for q in filt.quotients), HilbertPolynomial())
    if total_rank != model.data.rank or total_chi != model.data.chi:
        out.append(Violation(model.id, "Conservation", "quotients do not sum to the object"))

    def step_verdict(i: int):
        bottom = ordered[i + 1] if i + 1 < len(ordered) else None
        try:
            return gieseker_classify(interval_quotient_model(model, ordered[i], bottom))
        except InvalidModelError as exc:
            out.append(Violation(ordered[i], "InducedModel", str(exc)))
            return None

    if filt.kind is FiltrationKind.JH:
        for i, q in enumerate(downward_quotients):
            if compare_p(q, model.data) is not EventualOrder.EQUAL:
                out.append(Violation(ordered[i], "EqualP", "quotient p differs from the object's"))
                continue
            verdict = step_verdict(i)
            if verdict is not None and verdict.classification is not StabilityClass.STABLE:
                out.append(
                    Violation(
                        ordered[i],
                        "QuotientStable",
                        f"quotient classifies {verdict.classification.value}",
                    )
                )
    else:
        for i, q in enumerate(downward_quotients):
            verdict = step_verdict(i)
            if verdict is not None and not verdict.semistable:
                out.append(
                    Violation(
                        ordered[i],
                        "QuotientSemistable",
                        f"quotient classifies unstable (witness {verdict.witness})",
                    )
                )
        # downward order reverses the required strict descent of p's
        for i in range(len(downward_quotients) - 1):
            lower, higher = downward_quotients[i], downward_quotients[i + 1]
            if compare_p(lower, higher) is not EventualOrder.PRECEDES:
                out.append(
                    Violation(
                        ordered[i],
                        "StrictDecrease",
                        "quotient polynomials must strictly decrease up the chain",
                    )
                )
    return out
