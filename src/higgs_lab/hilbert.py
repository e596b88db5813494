"""Exact rational polynomials in the twist variable, ordered by sign at large arguments.

Coefficients are arbitrary-precision rationals throughout; no floating point
enters this module.  Two polynomials are compared by which one is larger at
every sufficiently large integer, which reduces to a lexicographic scan of
coefficients from the top degree down.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]


class EventualOrder(Enum):
    """Trichotomy of the large-k comparison: exactly one holds for any pair."""

    PRECEDES = "precedes"
    EQUAL = "equal"
    SUCCEEDS = "succeeds"

    def reversed(self) -> "EventualOrder":
        if self is EventualOrder.PRECEDES:
            return EventualOrder.SUCCEEDS
        if self is EventualOrder.SUCCEEDS:
            return EventualOrder.PRECEDES
        return EventualOrder.EQUAL


class HilbertPolynomial:
    """Polynomial with exact rational coefficients, lowest degree first.

    coeffs[j] multiplies k**j.  Trailing zero coefficients are stripped, so
    the zero polynomial is the empty tuple and polynomial equality is plain
    coefficient equality.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def from_strings(cls, items: Sequence[Union[str, int]]) -> "HilbertPolynomial":
        """Parse a coefficient array of "num/den" strings, lowest degree first."""
        return cls(parse_rational(s) for s in items)

    def to_strings(self) -> list[str]:
        """Serialize as "num/den" strings, lowest degree first."""
        return [format_rational(c) for c in self.coeffs]

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, j: int) -> Fraction:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return Fraction(0)

    def evaluate(self, k: int) -> Fraction:
        """Exact value at an integer argument.

        Runs Horner's rule over a common denominator so the inner loop is
        pure integer arithmetic.
        """
        if not self.coeffs:
            return Fraction(0)
        den = lcm(*(c.denominator for c in self.coeffs))
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * k + c.numerator * (den // c.denominator)
        return Fraction(acc, den)

    def compare_eventual(self, other: "HilbertPolynomial") -> EventualOrder:
        """Sign of self - other at every sufficiently large integer.

        Lexicographic comparison from the highest degree down; EQUAL means
        identical coefficient sequences.
        """
        a, b = self.coeffs, other.coeffs
        for j in range(max(len(a), len(b)) - 1, -1, -1):
            ca = a[j] if j < len(a) else 0
            cb = b[j] if j < len(b) else 0
            if ca < cb:
                return EventualOrder.PRECEDES
            if ca > cb:
                return EventualOrder.SUCCEEDS
        return EventualOrder.EQUAL

    def eventually_less(self, other: "HilbertPolynomial") -> bool:
        return self.compare_eventual(other) is EventualOrder.PRECEDES

    def eventually_leq(self, other: "HilbertPolynomial") -> bool:
        return self.compare_eventual(other) is not EventualOrder.SUCCEEDS

    def stabilization_threshold(self, other: "HilbertPolynomial") -> int:
        """Smallest K >= 0 with sign(self(k) - other(k)) settled for all k >= K.

        The settled sign is the one compare_eventual reports.  All real roots
        of the difference lie within the Cauchy bound on its coefficients, so
        a finite upward scan suffices.
        """
        diff = self - other
        if diff.is_zero:
            return 0
        den = lcm(*(c.denominator for c in diff.coeffs))
        ints = [c.numerator * (den // c.denominator) for c in diff.coeffs]
        lead = ints[-1]
        target = 1 if lead > 0 else -1
        if len(ints) == 1:
            return 0
        top = abs(lead)
        biggest = max(abs(c) for c in ints[:-1])
        hi = 1 + -(-biggest // top)  # ceil division; integer Cauchy bound
        last_bad = -1
        for k in range(0, hi + 1):
            acc = 0
            for c in reversed(ints):
                acc = acc * k + c
            sign = (acc > 0) - (acc < 0)
            if sign != target:
                last_bad = k
        return last_bad + 1

    def scale(self, c: Rational) -> "HilbertPolynomial":
        factor = Fraction(c)
        return HilbertPolynomial(factor * x for x in self.coeffs)

    def __add__(self, other: "HilbertPolynomial") -> "HilbertPolynomial":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return HilbertPolynomial(
            (a[j] if j < len(a) else 0) + (b[j] if j < len(b) else 0) for j in range(n)
        )

    def __sub__(self, other: "HilbertPolynomial") -> "HilbertPolynomial":
        return self + other.scale(-1)

    def __neg__(self) -> "HilbertPolynomial":
        return self.scale(-1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HilbertPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"HilbertPolynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for j in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[j]
            if c == 0:
                continue
            mag = format_rational(abs(c), compact=True)
            if j == 0:
                term = mag
            else:
                var = "k" if j == 1 else f"k^{j}"
                term = var if abs(c) == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def parse_rational(text: Union[str, int]) -> Fraction:
    """Parse "num/den" (or a bare integer) into an exact rational."""
    if isinstance(text, int):
        return Fraction(text)
    return Fraction(text.strip())


def format_rational(value: Rational, compact: bool = False) -> str:
    """Render a rational as "num/den"; compact mode drops a trailing "/1"."""
    f = Fraction(value)
    if compact and f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"
