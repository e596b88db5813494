"""Euler characteristic polynomials, slopes, and the Bogomolov discriminant.

Everything here is driven by intersection-number pairings against powers of
the ample class; full Chern classes are never stored.  Closed-form
constructors cover curves and surfaces; higher dimensions enter only through
an explicit Todd-pairing vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Optional, Sequence

from .hilbert import EventualOrder, HilbertPolynomial, Rational, compare_scaled


class ZeroRankError(ValueError):
    """Raised when an operation needs positive rank and gets rank zero."""


class MalformedPolynomialError(ValueError):
    """Raised when a polynomial lacks the expected leading structure."""


@dataclass(frozen=True)
class KahlerData:
    """Fixed ambient pairing data for one polarized manifold.

    n is the dimension, hn the self-intersection of the ample class, and
    c1x_h the pairing of the anticanonical class against the (n-1)-st power
    of the ample class.  Curves additionally carry their genus; the optional
    todd vector holds t[j] = (ample)^j . td_{n-j} for the raw high-dimension
    constructor.
    """

    n: int
    hn: Fraction
    c1x_h: Fraction
    genus: Optional[int] = None
    todd: Optional[tuple[Fraction, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "hn", Fraction(self.hn))
        object.__setattr__(self, "c1x_h", Fraction(self.c1x_h))
        if self.todd is not None:
            object.__setattr__(self, "todd", tuple(Fraction(t) for t in self.todd))
        if self.n < 1:
            raise ValueError("ambient dimension must be positive")
        if self.hn <= 0:
            raise ValueError("the ample self-intersection must be positive")
        if self.n == 1:
            if self.genus is None or self.genus < 0:
                raise ValueError("curve data requires a nonnegative genus")
            if self.c1x_h != 2 - 2 * self.genus:
                raise ValueError("curve anticanonical pairing must equal 2 - 2g")
            if self.hn.denominator != 1:
                raise ValueError("curve polarization degree must be an integer")
        if self.todd is not None:
            if len(self.todd) != self.n + 1:
                raise ValueError("todd pairing vector must have length n + 1")
            if self.todd[self.n] != self.hn:
                raise ValueError("top todd pairing must equal the ample self-intersection")
            if self.n == 1 and self.todd[0] != 1 - self.genus:
                raise ValueError("curve todd pairing t[0] must equal 1 - g")

    @classmethod
    def curve(cls, genus: int, deg_h: int) -> "KahlerData":
        return cls(
            n=1,
            hn=Fraction(deg_h),
            c1x_h=Fraction(2 - 2 * genus),
            genus=genus,
            todd=(Fraction(1 - genus), Fraction(deg_h)),
        )

    @classmethod
    def surface(cls, hn: Rational, c1x_h: Rational) -> "KahlerData":
        return cls(n=2, hn=Fraction(hn), c1x_h=Fraction(c1x_h))

    @property
    def volume(self) -> Fraction:
        return self.hn / factorial(self.n)


@dataclass(frozen=True)
class NumericalSheafData:
    """Numerical invariants of one object: rank, H-degree, and chi(E(k))."""

    rank: int
    deg_h: Fraction
    chi: HilbertPolynomial
    torsion_free: bool

    def __post_init__(self):
        object.__setattr__(self, "deg_h", Fraction(self.deg_h))
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")


@dataclass(frozen=True)
class SurfaceChernInput:
    """Chern-number pairings of one object on a surface.

    ch2 must equal (c1sq - 2*c2int) / 2; the constructor enforces it.
    """

    c1h: Fraction
    ch2: Fraction
    c1c1x: Fraction
    c1sq: Fraction
    c2int: Fraction

    def __post_init__(self):
        for name in ("c1h", "ch2", "c1c1x", "c1sq", "c2int"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.ch2 != (self.c1sq - 2 * self.c2int) / 2:
            raise ValueError("ch2 must equal (c1^2 - 2 c2) / 2")


ZERO_SHEAF = NumericalSheafData(0, Fraction(0), HilbertPolynomial(), torsion_free=True)


def chi_curve(kd: KahlerData, rank: int, deg: Rational) -> NumericalSheafData:
    """Riemann-Roch on a curve: chi(k) = deg + rank*k*degH + rank*(1 - g)."""
    if kd.n != 1:
        raise ValueError("chi_curve needs one-dimensional ambient data")
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    d = Fraction(deg)
    g = kd.genus
    chi = HilbertPolynomial([d + rank * (1 - g), rank * kd.hn])
    return NumericalSheafData(rank, d, chi, torsion_free=rank > 0)


def chi_surface(
    kd: KahlerData, rank: int, sc: SurfaceChernInput, td2: Rational
) -> NumericalSheafData:
    """Riemann-Roch on a surface, with td2 the degree-two Todd number of the ambient."""
    if kd.n != 2:
        raise ValueError("chi_surface needs two-dimensional ambient data")
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    t2 = Fraction(td2)
    chi = HilbertPolynomial(
        [
            sc.ch2 + sc.c1c1x / 2 + rank * t2,
            sc.c1h + Fraction(rank, 2) * kd.c1x_h,
            Fraction(rank, 2) * kd.hn,
        ]
    )
    return NumericalSheafData(rank, sc.c1h, chi, torsion_free=rank > 0)


def chi_from_pairings(
    kd: KahlerData, rank: int, pairings: Sequence[Rational]
) -> NumericalSheafData:
    """Raw constructor for any dimension: chi(k) = sum_j a_j k^j / j!.

    pairings[j] is the degree-j intersection number a_j for j = 0..n; the top
    pairing must equal rank * hn, and the H-degree is read off a_{n-1}.
    """
    a = [Fraction(x) for x in pairings]
    if len(a) != kd.n + 1:
        raise MalformedPolynomialError("pairing vector must have length n + 1")
    if a[kd.n] != rank * kd.hn:
        raise MalformedPolynomialError("top pairing must equal rank times hn")
    chi = HilbertPolynomial(a[j] / factorial(j) for j in range(kd.n + 1))
    deg_h = a[kd.n - 1] - Fraction(rank, 2) * kd.c1x_h
    return NumericalSheafData(rank, deg_h, chi, torsion_free=rank > 0)


def normalized_p(s: NumericalSheafData) -> HilbertPolynomial:
    """chi divided by rank."""
    if s.rank == 0:
        raise ZeroRankError("normalized polynomial is undefined at rank zero")
    return s.chi.scale(Fraction(1, s.rank))


def slope(s: NumericalSheafData) -> Fraction:
    """H-degree divided by rank."""
    if s.rank == 0:
        raise ZeroRankError("slope is undefined at rank zero")
    return s.deg_h / s.rank


def compare_p(a: NumericalSheafData, b: NumericalSheafData) -> EventualOrder:
    """Eventual order of normalized_p(a) against normalized_p(b), in integers.

    Positive ranks make this the sign of rk_b * chi_a - rk_a * chi_b.
    """
    if a.rank == 0 or b.rank == 0:
        raise ZeroRankError("normalized polynomial is undefined at rank zero")
    return compare_scaled(a.chi, a.rank, b.chi, b.rank)


def compare_slope(a: NumericalSheafData, b: NumericalSheafData) -> EventualOrder:
    """Order of slope(a) against slope(b)."""
    x, y = slope(a), slope(b)
    if x == y:
        return EventualOrder.EQUAL
    return EventualOrder.SUCCEEDS if x > y else EventualOrder.PRECEDES


def slope_from_p(p: HilbertPolynomial, kd: KahlerData, rank: int) -> Fraction:
    """Recover the slope from the k^(n-1) coefficient of a normalized polynomial."""
    if rank <= 0:
        raise ZeroRankError("slope recovery needs positive rank")
    if p.coefficient(kd.n) != kd.hn / factorial(kd.n):
        raise MalformedPolynomialError("top coefficient must equal hn / n!")
    return factorial(kd.n - 1) * p.coefficient(kd.n - 1) - kd.c1x_h / 2


def sum_data(a: NumericalSheafData, b: NumericalSheafData) -> NumericalSheafData:
    """Invariants of a direct sum (or any extension): everything adds."""
    return NumericalSheafData(
        a.rank + b.rank,
        a.deg_h + b.deg_h,
        a.chi + b.chi,
        torsion_free=a.torsion_free and b.torsion_free,
    )


def rank_p_residual(
    total: NumericalSheafData, sub: NumericalSheafData, quotient: NumericalSheafData
) -> HilbertPolynomial:
    """rk F * (p_E - p_F) + rk Q * (p_E - p_Q); zero exactly on consistent extensions."""
    if total.rank == 0 or sub.rank == 0 or quotient.rank == 0:
        raise ZeroRankError("residual needs positive ranks throughout")
    p_total = normalized_p(total)
    left = (p_total - normalized_p(sub)).scale(sub.rank)
    right = (p_total - normalized_p(quotient)).scale(quotient.rank)
    return left + right


def bogomolov_discriminant(kd: KahlerData, rank: int, sc: SurfaceChernInput) -> Fraction:
    """2 r c2 - (r - 1) c1^2; nonnegative for semistable locally free objects."""
    if kd.n != 2:
        raise ValueError("discriminant is computed against surface data")
    return 2 * rank * sc.c2int - (rank - 1) * sc.c1sq


def leading_term_violations(s: NumericalSheafData, kd: KahlerData) -> list[str]:
    """Check chi against the forced top two coefficients; empty when coherent.

    The k^n coefficient must be rank * hn / n! (zero for torsion) and the
    k^(n-1) coefficient must be (degH + rank/2 * c1x_h) / (n-1)!.
    """
    problems = []
    if s.chi.degree > kd.n:
        problems.append(f"chi has degree {s.chi.degree} above the ambient dimension")
    expected_top = s.rank * kd.hn / factorial(kd.n)
    if s.chi.coefficient(kd.n) != expected_top:
        problems.append("k^n coefficient of chi does not match rank * hn / n!")
    expected_next = (s.deg_h + Fraction(s.rank, 2) * kd.c1x_h) / factorial(kd.n - 1)
    if s.chi.coefficient(kd.n - 1) != expected_next:
        problems.append("k^(n-1) coefficient of chi does not match the H-degree")
    return problems
