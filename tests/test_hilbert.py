"""Polynomial arithmetic and the large-k comparison order."""

import random
from fractions import Fraction
from itertools import zip_longest
from math import lcm

import pytest
from hypothesis import given, strategies as st

from higgs_lab.hilbert import EventualOrder, HilbertPolynomial, parse_rational

from conftest import fraction_order, poly


def brute_force_threshold(p, q, horizon):
    """Independent oracle: scan every k in [0, horizon] for the last sign mismatch."""
    order = p.compare_eventual(q)
    target = {"precedes": -1, "equal": 0, "succeeds": 1}[order.value]
    bad = [
        k
        for k in range(horizon + 1)
        if (lambda d: (d > 0) - (d < 0))(p.evaluate(k) - q.evaluate(k)) != target
    ]
    return bad[-1] + 1 if bad else 0


class TestCompareEventual:
    def test_constant_offset(self):
        assert poly(0, 0, 1).compare_eventual(poly(1, 0, 1)) is EventualOrder.PRECEDES

    def test_leading_coefficient_dominates(self):
        p = poly(0, -100, 2)
        q = poly(0, 1, 1)
        assert p.compare_eventual(q) is EventualOrder.SUCCEEDS

    def test_identical(self):
        assert poly(1, 1).compare_eventual(poly(1, 1)) is EventualOrder.EQUAL

    def test_less_and_leq(self):
        assert poly(0, 1).eventually_less(poly(1, 1))
        assert poly(0, 1).eventually_leq(poly(1, 1))
        assert not poly(1, 1).eventually_less(poly(1, 1))
        assert poly(1, 1).eventually_leq(poly(1, 1))
        assert not poly(3, 1).eventually_less(poly(Fraction(5, 2), 1))
        assert not poly(3, 1).eventually_leq(poly(Fraction(5, 2), 1))


class TestEvaluate:
    def test_linear(self):
        p = poly(5, 2)
        assert p.evaluate(0) == 5
        assert p.evaluate(3) == 11

    def test_rational_coefficients(self):
        p = poly(Fraction(-1, 2), 0, Fraction(1, 2))
        assert p.evaluate(3) == 4

    def test_zero(self):
        assert HilbertPolynomial().evaluate(17) == 0


class TestStabilizationThreshold:
    def test_two_positive_roots(self):
        # oracle first: the scan over 0..200 pins the expected value
        p = poly(0, -100, 1)
        q = HilbertPolynomial()
        assert brute_force_threshold(p, q, 200) == 101
        assert p.stabilization_threshold(q) == 101

    def test_constant_difference(self):
        assert poly(1, 1).stabilization_threshold(poly(0, 1)) == 0

    def test_equal(self):
        p = poly(2, 3)
        assert p.stabilization_threshold(p) == 0

    def test_matches_oracle_on_fractional_leads(self):
        p = poly(Fraction(7, 3), Fraction(-11, 2), 0, Fraction(1, 6))
        q = poly(1, 2)
        assert p.stabilization_threshold(q) == brute_force_threshold(p, q, 100)


class TestArithmetic:
    def test_add(self):
        assert poly(1, 1) + poly(-1, 1) == poly(0, 2)

    def test_scale(self):
        assert poly(4, 2).scale(Fraction(1, 2)) == poly(2, 1)

    def test_additive_inverse(self):
        p = poly(Fraction(2, 7), -3, Fraction(5, 4))
        assert (p + p.scale(-1)).is_zero

    def test_trailing_zeros_normalized(self):
        assert HilbertPolynomial([1, 2, 0, 0]) == poly(1, 2)
        assert HilbertPolynomial([0, 0]).is_zero
        assert HilbertPolynomial([0, 0]).degree == -1


class TestRepresentation:
    """Integer numerators over one denominator agree with Fraction arithmetic."""

    @staticmethod
    def random_coeffs(rng):
        """Mixed denominators, int and Fraction entries, zeros and trailing zeros."""

        def coefficient():
            if rng.random() < 0.3:
                return 0
            if rng.random() < 0.3:
                return rng.randint(-9, 9)
            return Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 4, 6, 9, 10, 12)))

        return [coefficient() for _ in range(rng.randint(0, 5))] + [0] * rng.randint(0, 2)

    @staticmethod
    def stripped(cs):
        cs = [Fraction(c) for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        return tuple(cs)

    def test_matches_fraction_arithmetic(self):
        rng = random.Random(53)
        equal_pairs = 0
        for _ in range(3000):
            xs, ys = self.random_coeffs(rng), self.random_coeffs(rng)
            if rng.random() < 0.2:  # the same values, as Fractions, other trailing zeros
                ys = [Fraction(c) for c in xs] + [0] * rng.randint(0, 2)
            p, q = HilbertPolynomial(xs), HilbertPolynomial(ys)
            pairs = list(zip_longest(xs, ys, fillvalue=0))
            assert p.coeffs == self.stripped(xs)
            assert all(p.coefficient(j) == Fraction(c) for j, c in enumerate(xs))
            assert (p + q).coeffs == self.stripped(a + b for a, b in pairs)
            assert (p - q).coeffs == self.stripped(a - b for a, b in pairs)
            assert (-p).coeffs == self.stripped(-a for a in xs)
            c = rng.choice((rng.randint(-4, 4), Fraction(rng.randint(-6, 6), rng.randint(1, 5))))
            assert p.scale(c).coeffs == self.stripped(c * a for a in xs)
            k = rng.randint(-12, 12)
            assert p.evaluate(k) == sum(Fraction(a) * k**j for j, a in enumerate(xs))
            assert (p == q) is (p.coeffs == q.coeffs)
            assert HilbertPolynomial(p.coeffs) == p
            rebuilt = (HilbertPolynomial(p.coeffs), (p + q) - q, p.scale(3).scale(Fraction(1, 3)))
            for same in rebuilt:
                assert same == p and hash(same) == hash(p)
            if p == q:
                equal_pairs += 1
                assert hash(p) == hash(q)
        assert equal_pairs > 300


class TestSerialization:
    def test_round_trip(self):
        p = poly(1, 2)
        assert p.to_strings() == ["1/1", "2/1"]
        assert HilbertPolynomial.from_strings(["1/1", "2/1"]) == p

    def test_parse_variants(self):
        assert HilbertPolynomial.from_strings(["-3/6", "2", 4]) == poly(Fraction(-1, 2), 2, 4)

    @pytest.mark.parametrize("text", ["1.5", " 3 ", "1_0", "1e4", "+1", "1/-2", "", "½", "٣"])
    def test_parse_rejects_all_but_the_schema_pattern(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)


    @staticmethod
    def coefficient(rng):
        """A schema item: int, "num" or "num/den", possibly negative, zero-padded or 40 digits."""
        num = rng.choice([rng.randint(-30, 30), rng.randint(-(10**40), 10**40), 0])
        den = rng.choice([1, rng.randint(1, 12), rng.randint(1, 10**40)])
        sign, pad = "-" if num < 0 else "", "0" * rng.randint(0, 2)
        text = f"{sign}{pad}{abs(num)}"
        return rng.choice(
            [num, text, f"{text}/{pad}{den}", f"{text}/{den * rng.randint(2, 6)}", "-0", f"-0/0{den}"]
        )

    def test_parsing_matches_fraction(self):
        rng = random.Random(31)
        for _ in range(2000):
            items = [self.coefficient(rng) for _ in range(rng.randint(0, 5))]
            fractions = [Fraction(item) for item in items]
            assert [parse_rational(item) for item in items] == fractions
            while fractions and not fractions[-1]:
                fractions.pop()
            den = lcm(*(f.denominator for f in fractions))
            p = HilbertPolynomial.from_strings(items)
            nums = tuple(f.numerator * (den // f.denominator) for f in fractions)
            assert (p.nums, p.den) == (nums, den)

    def test_leading_zeros_and_negative_zero(self):
        assert HilbertPolynomial.from_strings(["007", "3/06", "-0"]) == poly(7, Fraction(1, 2))
        assert HilbertPolynomial.from_strings(["-0/5", 0]).nums == ()

    @pytest.mark.parametrize("text", ["3/0", "0/0", "-1/00"])
    def test_zero_denominator(self, text):
        with pytest.raises(ZeroDivisionError):
            parse_rational(text)
        with pytest.raises(ZeroDivisionError):
            HilbertPolynomial.from_strings(["1", text])

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=9
)
polys = st.lists(rationals, min_size=0, max_size=5).map(HilbertPolynomial)


@given(polys, polys)
def test_trichotomy_and_antisymmetry(p, q):
    order = p.compare_eventual(q)
    assert order is fraction_order(p, q)
    assert q.compare_eventual(p) is order.reversed()
    if order is EventualOrder.EQUAL:
        assert p == q


@given(polys, polys, polys)
def test_transitivity(p, q, r):
    if p.eventually_less(q) and q.eventually_less(r):
        assert p.eventually_less(r)
    if p.eventually_leq(q) and q.eventually_leq(r):
        assert p.eventually_leq(r)


@given(polys, polys)
def test_sign_agreement_beyond_threshold(p, q):
    order = p.compare_eventual(q)
    target = {"precedes": -1, "equal": 0, "succeeds": 1}[order.value]
    start = p.stabilization_threshold(q)
    for k in range(start, start + 12):
        d = p.evaluate(k) - q.evaluate(k)
        assert ((d > 0) - (d < 0)) == target


@given(polys, polys)
def test_threshold_is_minimal(p, q):
    start = p.stabilization_threshold(q)
    if start == 0:
        return
    order = p.compare_eventual(q)
    target = {"precedes": -1, "equal": 0, "succeeds": 1}[order.value]
    d = p.evaluate(start - 1) - q.evaluate(start - 1)
    assert ((d > 0) - (d < 0)) != target


@given(polys)
def test_equal_is_reflexive_and_hashable(p):
    assert p.compare_eventual(p) is EventualOrder.EQUAL
    assert hash(p) == hash(HilbertPolynomial(p.coeffs))
