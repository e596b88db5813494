"""The machine-checkable theorem suite run by `verify` and `fuzz`.

Each check re-derives one proved statement on concrete objects and reports
pass, fail (with a counterexample), or skip (with the reason the statement
cannot be tested on that input).  Chain-built models should never fail;
failures arise from hand-built files whose declared families contradict the
statements.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from .chern import bogomolov_discriminant, compare_p, rank_p_residual
from .filtration import (
    AmbiguousMaximizerError,
    BrokenInvariantError,
    TooLargeError,
    all_harder_narasimhan,
    harder_narasimhan,
    jordan_holder_census,
)
from .hilbert import EventualOrder, compare_scaled, format_rational
from .model import chain_semistable, chain_sum
from .modelfile import LoadedObject
from .stability import (
    IncompleteTorsionClosureError,
    StabilityClass,
    gieseker_classify,
    gieseker_classify_by_quotients,
    gieseker_classify_tf_quotients,
    slope_classify,
    sum_semistable,
)


@dataclass(slots=True, unsafe_hash=True)
class CheckResult:
    check: str
    subject: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def _result(check, subject, ok, detail="") -> CheckResult:
    return CheckResult(check, subject, "pass" if ok else "fail", detail)


def _skip(check, subject, why) -> CheckResult:
    return CheckResult(check, subject, "skip", why)


def check_ladder(obj: LoadedObject) -> CheckResult:
    """Slope stable implies polynomial stable; polynomial semistable implies slope semistable."""
    g = gieseker_classify(obj.model)
    s = slope_classify(obj.model)
    ok = True
    detail = f"gieseker={g.classification.value} slope={s.classification.value}"
    if s.classification is StabilityClass.STABLE and g.classification is not StabilityClass.STABLE:
        ok = False
    if g.semistable and not s.semistable:
        ok = False
    return _result("stability_ladder", obj.model.id, ok, detail)


def check_quotient_formulation(obj: LoadedObject) -> CheckResult:
    """Subobject-side and quotient-side classification agree, witness included."""
    by_sub = gieseker_classify(obj.model)
    by_quot = gieseker_classify_by_quotients(obj.model)
    ok = (
        by_sub.classification is by_quot.classification
        and by_sub.witness == by_quot.witness
    )
    return _result(
        "quotient_formulation",
        obj.model.id,
        ok,
        f"subobjects={by_sub.classification.value} quotients={by_quot.classification.value}",
    )


def check_torsion_free_formulation(obj: LoadedObject) -> CheckResult:
    """Restricting to torsion-free quotients never changes the classification."""
    full = gieseker_classify(obj.model)
    try:
        restricted = gieseker_classify_tf_quotients(obj.model)
    except IncompleteTorsionClosureError as exc:
        return _skip("torsion_free_formulation", obj.model.id, str(exc))
    ok = full.classification is restricted.classification
    return _result(
        "torsion_free_formulation",
        obj.model.id,
        ok,
        f"full={full.classification.value} torsion_free={restricted.classification.value}",
    )


def check_residuals(obj: LoadedObject) -> CheckResult:
    """The rank-weighted polynomial residual vanishes on every declared extension."""
    total = obj.model.data
    for e in obj.model.distinct:
        f, q = e.data, e.quotient  # zero residual: chi_E / rk E = (chi_F + chi_Q) / (rk F + rk Q)
        if f.rank and q.rank and compare_scaled(
            total.chi, total.rank, f.chi + q.chi, f.rank + q.rank
        ) is not EventualOrder.EQUAL:
            residual = rank_p_residual(total, f, q)
            return _result(
                "rank_p_residual", obj.model.id, False, f"entry {e.id}: residual {residual}"
            )
    return _result("rank_p_residual", obj.model.id, True)


def check_dim1_coincidence(obj: LoadedObject) -> Optional[CheckResult]:
    """On curves the two notions give the same class."""
    if obj.model.ambient.n != 1:
        return None
    g = gieseker_classify(obj.model)
    s = slope_classify(obj.model)
    ok = g.classification is s.classification
    return _result(
        "dim1_coincidence",
        obj.model.id,
        ok,
        f"gieseker={g.classification.value} slope={s.classification.value}",
    )


def check_bogomolov(obj: LoadedObject) -> Optional[CheckResult]:
    """A semistable locally free surface object must have nonnegative discriminant."""
    if obj.model.ambient.n != 2 or obj.surface_chern is None:
        return None
    disc = bogomolov_discriminant(obj.model.ambient, obj.model.data.rank, obj.surface_chern)
    if not obj.locally_free:
        return _skip("bogomolov", obj.model.id, "object not claimed locally free")
    verdict = gieseker_classify(obj.model)
    contradiction = verdict.semistable and disc < 0
    return _result(
        "bogomolov",
        obj.model.id,
        not contradiction,
        f"discriminant={format_rational(disc)} class={verdict.classification.value}"
        + (" (semistable object violates the discriminant bound)" if contradiction else ""),
    )


def check_jh_invariance(obj: LoadedObject) -> CheckResult:
    """All Jordan-Holder chains of a semistable object share one grading.

    The chains are counted, with their gradings, by jordan_holder_census, not
    listed; a census past its work bound is a skip.
    """
    verdict = gieseker_classify(obj.model)
    if not verdict.semistable:
        return _skip("jh_grading_invariance", obj.model.id, "object is unstable")
    try:
        count, gradings = jordan_holder_census(obj.model)
    except TooLargeError as exc:
        return _skip("jh_grading_invariance", obj.model.id, str(exc))
    if not count:
        return _result("jh_grading_invariance", obj.model.id, False, "no chain found")
    return _result(
        "jh_grading_invariance",
        obj.model.id,
        len(gradings) == 1,
        f"{count} chain(s), {len(gradings)} grading(s)",
    )


def check_hn_uniqueness(obj: LoadedObject) -> CheckResult:
    """Exhaustive search finds exactly the one chain the construction returns."""
    try:
        constructed = harder_narasimhan(obj.model)
    except AmbiguousMaximizerError as exc:
        return _skip("hn_uniqueness", obj.model.id, str(exc))
    except BrokenInvariantError as exc:
        return _result("hn_uniqueness", obj.model.id, False, str(exc))
    try:
        every = all_harder_narasimhan(obj.model)
    except TooLargeError as exc:
        return _skip("hn_uniqueness", obj.model.id, str(exc))
    ok = len(every) == 1 and every[0] == constructed
    return _result("hn_uniqueness", obj.model.id, ok, f"{len(every)} valid chain(s) by search")


def check_direct_sum(a: LoadedObject, b: LoadedObject) -> CheckResult:
    """The sum is semistable exactly when both parts are, with equal polynomials."""
    subject = f"{a.model.id} (+) {b.model.id}"
    if a.model.ambient != b.model.ambient:
        return _skip("direct_sum", subject, "different ambient data")
    if a.chain and b.chain:  # a chain pair is one chain, decided by one max flow
        try:
            lhs = chain_semistable(chain_sum(a.chain, b.chain))
        except ValueError as exc:
            return _result("direct_sum", subject, False, f"the sum chain is rejected: {exc}")
    else:  # any other pair is decided from its factors, with no model of the sum
        lhs = sum_semistable(a.model, b.model)
    parts = gieseker_classify(a.model).semistable, gieseker_classify(b.model).semistable
    rhs = all(parts) and compare_p(a.model.data, b.model.data) is EventualOrder.EQUAL
    return _result("direct_sum", subject, lhs == rhs, f"sum_semistable={lhs} parts={rhs}")


def run_suite(objects: Iterable[LoadedObject], all_pairs: bool = True) -> list[CheckResult]:
    """Run every theorem check; the direct-sum check covers every pair, or
    only consecutive ones when all_pairs is off (fuzz batches)."""
    objs = list(objects)
    results: list[CheckResult] = []
    for obj in objs:
        results.append(check_ladder(obj))
        results.append(check_quotient_formulation(obj))
        results.append(check_torsion_free_formulation(obj))
        results.append(check_residuals(obj))
        for maybe in (check_dim1_coincidence(obj), check_bogomolov(obj)):
            if maybe is not None:
                results.append(maybe)
        results.append(check_jh_invariance(obj))
        results.append(check_hn_uniqueness(obj))
    pairs = combinations(objs, 2) if all_pairs else zip(objs, objs[1:])
    results.extend(check_direct_sum(a, b) for a, b in pairs)
    return results
