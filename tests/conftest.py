"""Shared fixture builders: hand-computed models used across the test modules."""

from __future__ import annotations

from fractions import Fraction

from higgs_lab import (
    EventualOrder,
    Filtration,
    FiltrationKind,
    HiggsChainSpec,
    HiggsObjectModel,
    KahlerData,
    NumericalSheafData,
    SubobjectEntry,
    chi_curve,
    realize,
    verify_filtration,
)
from higgs_lab.hilbert import HilbertPolynomial


def curve_chain(genus, deg_h, degrees, arrows=(), object_id="E"):
    spec = HiggsChainSpec(
        ambient=KahlerData.curve(genus, deg_h),
        summand_degrees=tuple(degrees),
        arrows=frozenset(arrows),
    )
    return realize(spec, object_id=object_id)


def poly(*coeffs):
    """Polynomial from lowest-degree coefficients."""
    return HilbertPolynomial(coeffs)


def fraction_order(p, q, rank_p=1, rank_q=1):
    """Oracle: eventual order of p/rank_p against q/rank_q, Fraction by Fraction.

    Scans coefficient(j) from the top degree down; the first difference decides.
    """
    for j in range(max(p.degree, q.degree), -1, -1):
        a, b = p.coefficient(j) / rank_p, q.coefficient(j) / rank_q
        if a != b:
            return EventualOrder.SUCCEEDS if a > b else EventualOrder.PRECEDES
    return EventualOrder.EQUAL


def torsion_closure_model(strict=False):
    """Rank-2 model on the projective line with one torsion-quotient entry and its enlargement.

    The object is a sum of two line bundles; entry F is a twist down of the
    first summand (so its quotient picks up a length-one torsion), and Fp is
    the first summand itself, the kernel of the map onto the torsion-free
    part of that quotient.  With strict=True the degrees make Fp an
    equalizer (strictly semistable); otherwise Fp destabilizes.
    """
    kd = KahlerData.curve(0, 1)
    second_degree = 0 if strict else -2
    first = chi_curve(kd, 1, 0)
    second = chi_curve(kd, 1, second_degree)
    total = NumericalSheafData(
        2, first.deg_h + second.deg_h, first.chi + second.chi, torsion_free=True
    )
    torsion = NumericalSheafData(0, Fraction(1), poly(1), torsion_free=False)
    sub = chi_curve(kd, 1, -1)  # twist of the first summand
    quotient_of_sub = NumericalSheafData(
        1,
        total.deg_h - sub.deg_h,
        total.chi - sub.chi,
        torsion_free=False,
    )
    entry_f = SubobjectEntry(
        id="F", data=sub, quotient=quotient_of_sub, quotient_torsion_part=torsion
    )
    entry_fp = SubobjectEntry(
        id="Fp", data=first, quotient=second, contains=frozenset({"F"})
    )
    return HiggsObjectModel(
        id="E",
        ambient=kd,
        data=total,
        subobjects=(entry_f, entry_fp),
        family_complete=False,
    )


def torsion_step_model():
    """O(5) + O on the projective line, with entries Fp = O(5) and F = O(4) inside it.

    E/F is O plus a length-one torsion sheaf, so no filtration step may run
    from E down to F; Fp is the saturation of F.
    """
    kd = KahlerData.curve(0, 1)
    first, second, sub = (chi_curve(kd, 1, degree) for degree in (5, 0, 4))
    total = NumericalSheafData(2, first.deg_h + second.deg_h, first.chi + second.chi, True)
    torsion = NumericalSheafData(0, Fraction(1), poly(1), torsion_free=False)
    quotient_of_sub = NumericalSheafData(
        1, total.deg_h - sub.deg_h, total.chi - sub.chi, torsion_free=False
    )
    entries = (
        SubobjectEntry(id="F", data=sub, quotient=quotient_of_sub, quotient_torsion_part=torsion),
        SubobjectEntry(id="Fp", data=first, quotient=second, contains=frozenset({"F"})),
    )
    return HiggsObjectModel(id="E", ambient=kd, data=total, subobjects=entries)


def ambiguous_model():
    """Two incomparable equal-rank equal-p destabilizers: no determined maximizer."""
    kd = KahlerData.curve(0, 1)
    big = chi_curve(kd, 1, 1)
    small = chi_curve(kd, 1, -2)
    total = NumericalSheafData(
        3, 2 * big.deg_h + small.deg_h, big.chi + big.chi + small.chi, torsion_free=True
    )
    quotient = NumericalSheafData(
        2, total.deg_h - big.deg_h, total.chi - big.chi, torsion_free=True
    )
    return HiggsObjectModel(
        id="E",
        ambient=kd,
        data=total,
        subobjects=(
            SubobjectEntry(id="A", data=big, quotient=quotient),
            SubobjectEntry(id="B", data=big, quotient=quotient),
        ),
    )


def surface_ambient():
    return KahlerData.surface(1, 0)


def surface_model(object_id, rank, deg_h, constant, entries=()):
    """Surface object with chi = (rank/2) k^2 + deg_h k + constant and given entries."""
    kd = surface_ambient()
    data = NumericalSheafData(
        rank,
        Fraction(deg_h),
        poly(Fraction(constant), Fraction(deg_h), Fraction(rank, 2)),
        torsion_free=True,
    )
    return HiggsObjectModel(
        id=object_id, ambient=kd, data=data, subobjects=tuple(entries)
    )


def descending_chains(model):
    """Every strictly descending id chain through the declared family, object first."""
    ids = [e.id for e in model.subobjects]

    def below(upper, lower):
        if upper == model.id:
            return True
        return lower in model.entry(upper).contains

    chains = [[model.id]]
    grown = [[model.id]]
    while grown:
        fresh = []
        for chain in grown:
            for eid in ids:
                if below(chain[-1], eid):
                    fresh.append(chain + [eid])
        chains.extend(fresh)
        grown = fresh
    return chains


def oracle_chains(model, kind):
    """Brute-force oracle: filter every descending chain through the verifier."""
    valid = []
    for chain in descending_chains(model):
        quotients = []
        data = [model.data if s == model.id else model.entry(s).data for s in chain]
        for i in range(len(chain)):
            upper = data[i]
            if i + 1 < len(chain):
                lower = data[i + 1]
                quotients.append(
                    NumericalSheafData(
                        upper.rank - lower.rank,
                        upper.deg_h - lower.deg_h,
                        upper.chi - lower.chi,
                        torsion_free=True,
                    )
                )
            else:
                quotients.append(upper)
        if kind is FiltrationKind.HN:  # HN steps run upward
            chain, quotients = chain[::-1], quotients[::-1]
        candidate = Filtration(kind, tuple(chain), tuple(quotients))
        if not verify_filtration(model, candidate):
            valid.append(candidate)
    return valid


def oracle_jh_chains(model):
    return oracle_chains(model, FiltrationKind.JH)


def oracle_hn_chains(model):
    return oracle_chains(model, FiltrationKind.HN)


def induced_model_failure():
    """Rank-2 model whose rank-1 entry A contains B, of rank 1 and higher degree.

    A/B would be a rank-zero quotient of negative chi, which no torsion sheaf
    has, so validation rejects the model.
    """
    kd = KahlerData.curve(1, 1)
    return HiggsObjectModel(
        id="E",
        ambient=kd,
        data=chi_curve(kd, 2, 0),
        subobjects=(
            SubobjectEntry(
                id="A",
                data=chi_curve(kd, 1, 1),
                quotient=chi_curve(kd, 1, -1),
                contains={"B"},
            ),
            SubobjectEntry(id="B", data=chi_curve(kd, 1, 2), quotient=chi_curve(kd, 1, -2)),
        ),
    )


def surface_entry(entry_id, total, rank, deg_h, constant):
    data = NumericalSheafData(
        rank,
        Fraction(deg_h),
        poly(Fraction(constant), Fraction(deg_h), Fraction(rank, 2)),
        torsion_free=True,
    )
    quotient = NumericalSheafData(
        total.rank - rank,
        total.deg_h - data.deg_h,
        total.chi - data.chi,
        torsion_free=True,
    )
    return SubobjectEntry(id=entry_id, data=data, quotient=quotient)
