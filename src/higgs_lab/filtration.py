"""Jordan-Holder and Harder-Narasimhan filtrations over declared lattices.

Every step works on an interval model built by interval_quotient_model: a
subobject (bottom of None) has the declared entries below it as its family,
and a quotient has the declared entries above the kernel; quotient
invariants come from chi subtraction.  Every construction passes the
stability gate first, and verifies every filtration invariant before
returning, so an under-declared family surfaces as an explicit error
instead of a wrong answer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .chern import NumericalSheafData, normalized_p
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


def _chain_bound() -> int:
    raw = os.environ.get(CHAIN_BOUND_ENV)
    if raw:
        return int(raw)
    return DEFAULT_CHAIN_BOUND


def _equal_p_candidates(current: HiggsObjectModel, p_target: HilbertPolynomial):
    total = current.data.rank
    out = []
    for e in current.subobjects:
        if 0 < e.data.rank < total and normalized_p(e.data) == p_target:
            out.append(e)
    return out


def jordan_holder(model: HiggsObjectModel) -> Filtration:
    """One Jordan-Holder filtration: greedy maximal-rank descent.

    At each stage the maximal-rank equal-p entry is taken (ties broken by
    id), and the construction recurses inside it.  The result is verified
    against every filtration invariant before it is returned.
    """
    require_classifiable(model)
    p_target = normalized_p(model.data)
    steps: list[str] = []
    quotients: list[NumericalSheafData] = []
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
        if verdict.classification is StabilityClass.STABLE:
            steps.append(current.id)
            quotients.append(current.data)
            break
        candidates = _equal_p_candidates(current, p_target)
        best_rank = max(e.data.rank for e in candidates)
        chosen = min(e.id for e in candidates if e.data.rank == best_rank)
        entry = current.entry(chosen)
        steps.append(current.id)
        quotients.append(_sheaf_delta(current.data, entry.data))
        current = interval_quotient_model(current, chosen, None)
    filt = Filtration(FiltrationKind.JH, tuple(steps), tuple(quotients))
    problems = verify_filtration(model, filt)
    if problems:
        raise BrokenInvariantError("; ".join(str(v) for v in problems))
    return filt


def all_jordan_holder(model: HiggsObjectModel) -> list[Filtration]:
    """Every chain satisfying the Jordan-Holder conditions, in deterministic order."""
    require_classifiable(model)
    verdict = gieseker_classify(model)
    if verdict.classification is StabilityClass.UNSTABLE:
        raise NotSemistableError(f"{model.id} is unstable (witness {verdict.witness})")
    p_target = normalized_p(model.data)
    bound = _chain_bound()
    found: list[Filtration] = []

    def extend(current: HiggsObjectModel, steps, quotients):
        if len(found) > bound:
            raise TooLargeError(f"more than {bound} chains; raise {CHAIN_BOUND_ENV}")
        # stop here iff what remains is itself stable
        if gieseker_classify(current).classification is StabilityClass.STABLE:
            found.append(
                Filtration(
                    FiltrationKind.JH,
                    tuple(steps + [current.id]),
                    tuple(quotients + [current.data]),
                )
            )
        for e in _equal_p_candidates(current, p_target):
            quotient_model = interval_quotient_model(current, current.id, e.id)
            if gieseker_classify(quotient_model).classification is StabilityClass.STABLE:
                extend(
                    interval_quotient_model(current, e.id, None),
                    steps + [current.id],
                    quotients + [_sheaf_delta(current.data, e.data)],
                )

    extend(model, [], [])
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
    if normalized_p(m1.data) != normalized_p(m2.data):
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
        bottom_data = None
        above = model.subobjects
    else:
        bottom_data = model.entry(bottom_id).data
        above = [
            e for e in model.subobjects if bottom_id in e.contains
        ]

    def relative(data: NumericalSheafData):
        if bottom_data is None:
            return data.rank, data.chi
        return data.rank - bottom_data.rank, data.chi - bottom_data.chi

    top_rank, top_chi = relative(model.data)
    best_p = top_chi.scale(Fraction(1, top_rank))
    best: list[tuple[int, Optional[str]]] = [(top_rank, None)]
    for e in above:
        rank, chi = relative(e.data)
        if rank <= 0 or rank >= top_rank:
            continue
        p = chi.scale(Fraction(1, rank))
        order = p.compare_eventual(best_p)
        if order is EventualOrder.SUCCEEDS:
            best_p = p
            best = [(rank, e.id)]
        elif order is EventualOrder.EQUAL:
            best.append((rank, e.id))
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
    quotients: list[NumericalSheafData] = []
    bottom: Optional[str] = None
    while True:
        winner = _destabilizer_step(model, bottom)
        if winner is None:
            top_data = model.data if bottom is None else _sheaf_delta(
                model.data, model.entry(bottom).data
            )
            steps.append(model.id)
            quotients.append(top_data)
            break
        entry = model.entry(winner)
        step_data = (
            entry.data
            if bottom is None
            else _sheaf_delta(entry.data, model.entry(bottom).data)
        )
        steps.append(winner)
        quotients.append(step_data)
        bottom = winner
    filt = Filtration(FiltrationKind.HN, tuple(steps), tuple(quotients))
    problems = verify_filtration(model, filt)
    if problems:
        raise BrokenInvariantError("; ".join(str(v) for v in problems))
    return filt


def all_harder_narasimhan(model: HiggsObjectModel) -> list[Filtration]:
    """Every chain satisfying the Harder-Narasimhan conditions, by exhaustive search."""
    require_classifiable(model)
    bound = _chain_bound()
    found: list[Filtration] = []
    counter = [0]

    def ascend(bottom: Optional[str], steps, quotients):
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
        closing = (
            model.data if bottom_data is None else _sheaf_delta(model.data, bottom_data)
        )
        candidate_chain = Filtration(
            FiltrationKind.HN,
            tuple(steps + [model.id]),
            tuple(quotients + [closing]),
        )
        if not verify_filtration(model, candidate_chain):
            found.append(candidate_chain)
        for e in candidates:
            delta = (
                e.data if bottom_data is None else _sheaf_delta(e.data, bottom_data)
            )
            ascend(e.id, steps + [e.id], quotients + [delta])

    ascend(None, [], [])
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

    if filt.kind is FiltrationKind.JH:
        ordered = list(steps)  # downward: object first
        if ordered[0] != model.id:
            out.append(Violation(model.id, "Chain", "first step must be the object"))
    else:
        ordered = list(reversed(steps))  # normalize to downward
        if ordered[0] != model.id:
            out.append(Violation(model.id, "Chain", "last step must be the object"))
    if out:
        return out
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

    def data_of(step: str) -> NumericalSheafData:
        return model.data if step == model.id else model.entry(step).data

    # quotient bookkeeping: chi subtraction, conservation, positive ranks
    downward_quotients = (
        list(filt.quotients)
        if filt.kind is FiltrationKind.JH
        else list(reversed(filt.quotients))
    )
    for i, q in enumerate(downward_quotients):
        upper = data_of(ordered[i])
        lower = data_of(ordered[i + 1]) if i + 1 < len(ordered) else None
        expected = upper if lower is None else _sheaf_delta(upper, lower)
        if (q.rank, q.deg_h, q.chi) != (expected.rank, expected.deg_h, expected.chi):
            out.append(Violation(ordered[i], "QuotientData", "quotient differs from chi subtraction"))
        if q.rank <= 0:
            out.append(Violation(ordered[i], "QuotientRank", "quotients need positive rank"))
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
        p_total = (
            normalized_p(model.data) if model.data.rank > 0 else HilbertPolynomial()
        )
        for i, q in enumerate(downward_quotients):
            if normalized_p(q) != p_total:
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
            higher = normalized_p(downward_quotients[i + 1])
            lower = normalized_p(downward_quotients[i])
            if not lower.eventually_less(higher):
                out.append(
                    Violation(
                        ordered[i],
                        "StrictDecrease",
                        "quotient polynomials must strictly decrease up the chain",
                    )
                )
    return out
