"""Exact rational polynomials in the twist variable, ordered by sign at large arguments.

Coefficients are integer numerators over one positive denominator, so no
floating point enters.  compare_scaled, the one ordering primitive, scans the
numerators from the top degree down; it also orders chi/rank without dividing.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
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

    nums[j] / den multiplies k**j, in lowest terms with trailing zeros
    stripped: the zero polynomial is () over 1, and equality is (nums, den).
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[Rational] = ()):
        cs = [c if type(c) is int else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        # over the lcm of reduced denominators, no prime divides every numerator
        self.den = lcm(*(c.denominator for c in cs))
        self.nums = tuple(c.numerator * (self.den // c.denominator) for c in cs)

    @classmethod
    def from_strings(cls, items: Sequence[Union[str, int]]) -> "HilbertPolynomial":
        """Parse a coefficient array of "num/den" strings, lowest degree first."""
        pairs = [_ratio(s) for s in items]
        den = lcm(*(d for _, d in pairs))
        return _canonical([n * (den // d) for n, d in pairs], den)

    def to_strings(self) -> list[str]:
        """Serialize as "num/den" strings, lowest degree first."""
        return [format_rational(c) for c in self.coeffs]

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def coefficient(self, j: int) -> Fraction:
        if 0 <= j < len(self.nums):
            return Fraction(self.nums[j], self.den)
        return Fraction(0)

    def evaluate(self, k: int) -> Fraction:
        """Exact value at an integer argument, by Horner's rule on the numerators."""
        acc = 0
        for n in reversed(self.nums):
            acc = acc * k + n
        return Fraction(acc, self.den)

    def compare_eventual(self, other: "HilbertPolynomial") -> EventualOrder:
        """Sign of self - other at every sufficiently large integer; EQUAL if identical."""
        return compare_scaled(self, 1, other, 1)

    def eventually_less(self, other: "HilbertPolynomial") -> bool:
        return self.compare_eventual(other) is EventualOrder.PRECEDES

    def eventually_leq(self, other: "HilbertPolynomial") -> bool:
        return self.compare_eventual(other) is not EventualOrder.SUCCEEDS

    def stabilization_threshold(self, other: "HilbertPolynomial") -> int:
        """Smallest K >= 0 with sign(self(k) - other(k)) settled for all k >= K.

        The settled sign is compare_eventual's.  Every real root of the difference
        lies within the Cauchy bound on its numerators, so the scan starts there.
        """
        ints = (self - other).nums
        if len(ints) <= 1:
            return 0
        target = 1 if ints[-1] > 0 else -1
        biggest = max(abs(c) for c in ints[:-1])
        hi = 1 + -(-biggest // abs(ints[-1]))  # ceil division; integer Cauchy bound
        for k in range(hi, -1, -1):  # down to the last k with the other sign
            acc = 0
            for c in reversed(ints):
                acc = acc * k + c
            if (acc > 0) - (acc < 0) != target:
                return k + 1
        return 0

    def scale(self, c: Rational) -> "HilbertPolynomial":
        f = c if type(c) is int else Fraction(c)
        return _canonical([n * f.numerator for n in self.nums], self.den * f.denominator)

    def __add__(self, other: "HilbertPolynomial") -> "HilbertPolynomial":
        return self._combine(other, 1)

    def __sub__(self, other: "HilbertPolynomial") -> "HilbertPolynomial":
        return self._combine(other, -1)

    def _combine(self, other: "HilbertPolynomial", sign: int) -> "HilbertPolynomial":
        """self + sign * other over the least common denominator."""
        den = lcm(self.den, other.den)
        x, y = den // self.den, sign * (den // other.den)
        pairs = zip_longest(self.nums, other.nums, fillvalue=0)
        return _canonical([x * a + y * b for a, b in pairs], den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HilbertPolynomial):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        return f"HilbertPolynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.nums:
            return "0"
        parts = []
        for j in range(len(self.nums) - 1, -1, -1):
            c = self.coefficient(j)
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


def _canonical(nums: list[int], den: int) -> HilbertPolynomial:
    """An arithmetic result in lowest terms, built without __init__."""
    while nums and not nums[-1]:
        nums.pop()
    g = gcd(den, *nums)
    p = object.__new__(HilbertPolynomial)
    p.nums, p.den = tuple(n // g for n in nums), den // g
    return p


def compare_scaled(a: HilbertPolynomial, ra: int, b: HilbertPolynomial, rb: int) -> EventualOrder:
    """Eventual order of a/ra against b/rb for positive integer weights.

    That is the eventual sign of rb*a - ra*b, whose k^j coefficient times a.den*b.den
    is rb*b.den*a.nums[j] - ra*a.den*b.nums[j].  Unequal degrees: the lead decides.
    """
    x, y = a.nums, b.nums
    if len(x) != len(y):
        lead = x[-1] if len(x) > len(y) else -y[-1]
        return EventualOrder.SUCCEEDS if lead > 0 else EventualOrder.PRECEDES
    wx, wy = rb * b.den, ra * a.den
    for p, q in zip(reversed(x), reversed(y)):
        d = wx * p - wy * q
        if d:
            return EventualOrder.SUCCEEDS if d > 0 else EventualOrder.PRECEDES
    return EventualOrder.EQUAL


_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _ratio(text: Union[str, int]) -> tuple[int, int]:
    """Unreduced (num, den) of an int or a schema string "num/den" or "num"; a bool is not one."""
    if type(text) is int:
        return text, 1
    match = _RATIO.fullmatch(text) if type(text) is str else None
    try:
        num, den = int(match[1]), int(match[2] or 1)  # TypeError when match is None
    except (TypeError, ValueError):  # ValueError: a numeral past int()'s digit limit
        num = den = None
    if not den:  # the value's repr, past 60 characters cut there and its length named
        shown = repr(text)
        shown = shown if len(shown) <= 60 else f"{shown[:60]}... ({len(shown)} characters)"
        error = ValueError if den is None else ZeroDivisionError
        raise error(f"expected a rational 'num/den', got {shown}")
    return num, den


def parse_rational(text: Union[str, int]) -> Fraction:
    """Parse an integer, or a string of the file schema's form "num/den" or "num"."""
    return Fraction(*_ratio(text))


def format_rational(value: Rational, compact: bool = False) -> str:
    """Render a rational as "num/den"; compact mode drops a trailing "/1"."""
    f = Fraction(value)
    if compact and f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"
