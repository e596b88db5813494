"""Stability classification over a model's declared subobject family.

Both notions (normalized-polynomial and slope) come in the subobject,
quotient, and torsion-free-quotient formulations; all quantify over the
declared family only, skipping entries of rank zero or full rank.  A scan reads
the model's distinct entries, one per sheaf triple, in id order: an order reads
the sheaves alone, so the witness is the first offender in id order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import wraps
from typing import Iterable, Optional

from .chern import compare_p, compare_slope, sum_data
from .hilbert import EventualOrder
from .model import AmbientMismatchError, HiggsObjectModel


class InvalidModelError(ValueError):
    """The model fails validation or has no rank to classify."""


class IncompleteTorsionClosureError(ValueError):
    """A torsion quotient has no declared enlargement with torsion-free quotient."""


class PreconditionUnmetError(ValueError):
    """The inputs do not satisfy the hypothesis of the requested check."""


class Notion(Enum):
    GIESEKER = "gieseker"
    SLOPE = "slope"


class StabilityClass(Enum):
    STABLE = "stable"
    STRICTLY_SEMISTABLE = "strictly_semistable"
    UNSTABLE = "unstable"


@dataclass(slots=True, unsafe_hash=True)
class StabilityVerdict:
    notion: Notion
    classification: StabilityClass
    witness: Optional[str] = None

    def __post_init__(self):
        has_witness = self.witness is not None
        if (self.classification is StabilityClass.STABLE) == has_witness:
            raise ValueError("witness present exactly when not stable")

    @property
    def semistable(self) -> bool:
        return self.classification is not StabilityClass.UNSTABLE


def require_classifiable(model: HiggsObjectModel) -> None:
    """The one gate before any classification or filtration of a model.

    Raises InvalidModelError when the model fails validation or has rank
    zero.  Violations are cached on the model, so repeat calls are cheap.
    """
    if model.violations:
        raise InvalidModelError("; ".join(str(v) for v in model.violations))
    if model.data.rank == 0:
        raise InvalidModelError("cannot classify a rank-zero object")


def _proper(model: HiggsObjectModel):
    total = model.data.rank
    return [e for e in model.distinct if 0 < e.data.rank < total]


def _classify(
    notion: Notion, orders: Iterable[tuple[str, EventualOrder]]
) -> StabilityVerdict:
    """Verdict from (entry id, entry against the whole object) pairs in id order.

    The first succeeding entry decides, so the scan stops there.
    """
    equalizer = None
    for eid, order in orders:
        if order is EventualOrder.SUCCEEDS:
            return StabilityVerdict(notion, StabilityClass.UNSTABLE, eid)
        if order is EventualOrder.EQUAL and equalizer is None:
            equalizer = eid
    if equalizer is not None:
        return StabilityVerdict(notion, StabilityClass.STRICTLY_SEMISTABLE, equalizer)
    return StabilityVerdict(notion, StabilityClass.STABLE)


def _classifier(formulation: str):
    """Gate a classifier and run it once per model, keeping its verdict in the model's
    memo by formulation: checks that compare two formulations compare two runs."""

    def wrap(classify):
        @wraps(classify)
        def once(model: HiggsObjectModel) -> StabilityVerdict:
            memo = model._memo
            if formulation not in memo:
                require_classifiable(model)
                memo[formulation] = classify(model)
            return memo[formulation]
        return once
    return wrap


@_classifier("gieseker")
def gieseker_classify(model: HiggsObjectModel) -> StabilityVerdict:
    """Compare each proper subobject's p against the object's, once per distinct entry.

    Stable when all precede, strictly semistable when none succeed but some
    tie, unstable otherwise; rank-one objects are stable vacuously.
    """
    total = model.data
    return _classify(Notion.GIESEKER, ((e.id, compare_p(e.data, total)) for e in _proper(model)))


@_classifier("slope")
def slope_classify(model: HiggsObjectModel) -> StabilityVerdict:
    """Same quantifier with rational slope comparison, once per distinct entry."""
    total = model.data
    return _classify(Notion.SLOPE, ((e.id, compare_slope(e.data, total)) for e in _proper(model)))


@_classifier("by_quotients")
def gieseker_classify_by_quotients(model: HiggsObjectModel) -> StabilityVerdict:
    """Equivalent formulation from the quotient side.

    An entry offends when the object's polynomial fails to precede the
    quotient's; on consistent models this matches gieseker_classify entry by
    entry, witness included; each distinct entry's quotient is compared once.
    """
    total = model.data
    entries = (e for e in model.distinct if 0 < e.quotient.rank < total.rank)
    return _classify(Notion.GIESEKER, ((e.id, compare_p(total, e.quotient)) for e in entries))


@_classifier("tf_quotients")
def gieseker_classify_tf_quotients(model: HiggsObjectModel) -> StabilityVerdict:
    """Quantify only over entries whose quotient is torsion-free, once per distinct entry.

    Sound once every torsion-quotient entry F has its saturation F' declared: F' has F's
    rank and chi_F + chi_T (T the quotient's torsion part), so it destabilizes at least as
    much as F.  Each such F takes one (rank, chi) lookup among the entries with a
    torsion-free quotient; a missing saturation is an error rather than a silent gap.
    """
    kept, saturations = [], None
    for e in _proper(model):
        if e.quotient.torsion_free:
            kept.append(e)
            continue
        if saturations is None:  # built on the first torsion quotient: a chain has none
            saturations = {(g.data.rank, g.data.chi) for g in model.distinct
                           if g.quotient.torsion_free}
        # an entry with the saturation's rank and chi has its p, so it stands in for it
        if (e.data.rank, e.data.chi + e.quotient_torsion_part.chi) not in saturations:
            raise IncompleteTorsionClosureError(
                f"entry {e.id} has a torsion quotient and no declared enlargement"
            )
    total = model.data
    return _classify(Notion.GIESEKER, ((e.id, compare_p(e.data, total)) for e in kept))


def sum_semistable(a: HiggsObjectModel, b: HiggsObjectModel) -> bool:
    """Whether a + b is Gieseker semistable over the product of the two declared families.

    That family holds F + G for F zero, an entry of a or a itself, and G likewise in b.  The p
    of F + G is the rank-weighted mean of p_F and p_G (a valid entry of rank zero is zero), so
    it succeeds the sum's p only when one of them does, and F + 0 and 0 + G are proper entries
    of the sum.  So each factor's parts of positive rank are compared with the sum: about
    |a| + |b| compares, where the family has (|a| + 2)(|b| + 2) - 2 entries.
    """
    require_classifiable(a)
    require_classifiable(b)
    if a.ambient != b.ambient:
        raise AmbientMismatchError("direct sum needs a common ambient")
    total = sum_data(a.data, b.data)
    return all(compare_p(f, total) is not EventualOrder.SUCCEEDS for m in (a, b)
               for f in (*(e.data for e in m.distinct if e.data.rank), m.data))
