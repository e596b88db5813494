"""Euler characteristic constructors, slopes, residuals, and the discriminant."""

import random
from fractions import Fraction

import pytest

from higgs_lab import (
    EventualOrder,
    KahlerData,
    MalformedPolynomialError,
    SurfaceChernInput,
    ZERO_SHEAF,
    ZeroRankError,
    bogomolov_discriminant,
    chi_curve,
    chi_from_pairings,
    chi_surface,
    compare_p,
    compare_slope,
    normalized_p,
    rank_p_residual,
    slope,
    slope_from_p,
    sum_data,
)
from higgs_lab.chern import NumericalSheafData, leading_term_violations

from conftest import fraction_order, poly


def line_bundle_chi(a, k):
    """Oracle: Euler characteristic of the a-th twist on the projective line."""
    return a + k + 1


class TestKahlerData:
    def test_curve_consistency(self):
        kd = KahlerData.curve(2, 1)
        assert kd.c1x_h == -2
        assert kd.todd == (Fraction(-1), Fraction(1))
        assert kd.volume == 1

    def test_rejects_nonample(self):
        with pytest.raises(ValueError):
            KahlerData.surface(0, 1)

    def test_rejects_wrong_curve_pairing(self):
        with pytest.raises(ValueError):
            KahlerData(n=1, hn=1, c1x_h=5, genus=1)

    def test_todd_vector_checked(self):
        with pytest.raises(ValueError):
            KahlerData(n=2, hn=2, c1x_h=0, todd=(1, 0, 3))


class TestChiCurve:
    def test_projective_line_twist(self):
        # chi of O(2) on the line, checked against the twist oracle
        kd = KahlerData.curve(0, 1)
        s = chi_curve(kd, 1, 2)
        for k in range(-3, 6):
            assert s.chi.evaluate(k) == line_bundle_chi(2, k)
        assert s.chi == poly(3, 1)

    def test_genus_two_rank_two(self):
        kd = KahlerData.curve(2, 1)
        s = chi_curve(kd, 2, 0)
        assert s.chi == poly(-2, 2)

    def test_torsion_length(self):
        kd = KahlerData.curve(1, 1)
        s = chi_curve(kd, 0, 3)
        assert s.chi == poly(3)
        assert not s.torsion_free

    def test_euler_characteristic_at_zero(self):
        for genus, deg_h, rank, deg in [(0, 1, 1, 4), (2, 3, 2, -1), (1, 2, 3, 0)]:
            s = chi_curve(KahlerData.curve(genus, deg_h), rank, deg)
            assert s.chi.evaluate(0) == deg + rank * (1 - genus)


class TestChiSurface:
    def test_structure_sheaf(self):
        kd = KahlerData.surface(1, 0)
        sc = SurfaceChernInput(0, 0, 0, 0, 0)
        s = chi_surface(kd, 1, sc, 1)
        assert s.chi == poly(1, 0, Fraction(1, 2))

    def test_torsion_class(self):
        kd = KahlerData.surface(1, 0)
        # ch2 = 5 forces c1sq - 2 c2 = 10; use c1sq = 0, c2 = -5
        sc = SurfaceChernInput(0, 5, 0, 0, -5)
        s = chi_surface(kd, 0, sc, 1)
        assert s.chi == poly(5)

    def test_rank_two_by_hand(self):
        kd = KahlerData.surface(2, 0)
        sc = SurfaceChernInput(0, -1, 0, 0, 1)
        s = chi_surface(kd, 2, sc, 1)
        assert s.chi == poly(1, 0, 2)


class TestNormalizedAndSlope:
    def test_normalized(self):
        s = NumericalSheafData(2, Fraction(0), poly(2, 2), True)
        assert normalized_p(s) == poly(1, 1)

    def test_normalized_rank_one_identity(self):
        s = NumericalSheafData(1, Fraction(3), poly(3, 1), True)
        assert normalized_p(s) == s.chi

    def test_zero_rank_errors(self):
        with pytest.raises(ZeroRankError):
            normalized_p(ZERO_SHEAF)
        with pytest.raises(ZeroRankError):
            slope(ZERO_SHEAF)

    def test_slopes(self):
        assert slope(NumericalSheafData(2, Fraction(0), poly(0, 2), True)) == 0
        assert slope(NumericalSheafData(1, Fraction(-1), poly(-1, 1), True)) == -1
        assert slope(NumericalSheafData(2, Fraction(3), poly(3, 2), True)) == Fraction(3, 2)


class TestSlopeFromP:
    def test_rational_curve(self):
        kd = KahlerData.curve(0, 1)
        assert slope_from_p(poly(1, 1), kd, 1) == 0

    def test_genus_two(self):
        kd = KahlerData.curve(2, 1)
        assert slope_from_p(poly(-1, 1), kd, 2) == 0

    def test_twisted(self):
        kd = KahlerData.curve(0, 1)
        assert slope_from_p(poly(3, 1), kd, 1) == 2

    def test_malformed(self):
        kd = KahlerData.curve(0, 1)
        with pytest.raises(MalformedPolynomialError):
            slope_from_p(poly(3, 2), kd, 1)

    def test_round_trip_through_constructors(self):
        rng = random.Random(5)
        for _ in range(200):
            genus = rng.randint(0, 3)
            deg_h = rng.randint(1, 4)
            rank = rng.randint(1, 5)
            deg = rng.randint(-9, 9)
            kd = KahlerData.curve(genus, deg_h)
            s = chi_curve(kd, rank, deg)
            assert slope_from_p(normalized_p(s), kd, rank) == slope(s)

    def test_round_trip_on_surfaces(self):
        rng = random.Random(6)
        kd = KahlerData.surface(2, -3)
        for _ in range(100):
            rank = rng.randint(1, 4)
            c1sq = rng.randint(-6, 6)
            c2 = rng.randint(-6, 6)
            sc = SurfaceChernInput(
                rng.randint(-5, 5), Fraction(c1sq - 2 * c2, 2), rng.randint(-4, 4), c1sq, c2
            )
            s = chi_surface(kd, rank, sc, Fraction(rng.randint(-3, 3)))
            assert slope_from_p(normalized_p(s), kd, rank) == slope(s)
            assert leading_term_violations(s, kd) == []


class TestSumAndResidual:
    def test_doubling(self):
        s = NumericalSheafData(1, Fraction(0), poly(1, 1), True)
        doubled = sum_data(s, s)
        assert doubled.rank == 2 and doubled.chi == poly(2, 2)

    def test_torsion_adds_constant(self):
        a = NumericalSheafData(1, Fraction(3), poly(3, 1), True)
        t = NumericalSheafData(0, Fraction(2), poly(2), False)
        total = sum_data(a, t)
        assert total.rank == 1 and total.chi == poly(5, 1)
        assert not total.torsion_free

    def test_zero_identity(self):
        a = NumericalSheafData(2, Fraction(-1), poly(0, 2), True)
        assert sum_data(a, ZERO_SHEAF) == a

    def test_residual_vanishes_on_sums(self):
        kd = KahlerData.curve(1, 2)
        f = chi_curve(kd, 1, 3)
        q = chi_curve(kd, 2, -1)
        assert rank_p_residual(sum_data(f, q), f, q).is_zero

    def test_residual_by_expansion(self):
        total = NumericalSheafData(2, Fraction(0), poly(2, 2), True)
        f = NumericalSheafData(1, Fraction(0), poly(1, 1), True)
        assert rank_p_residual(total, f, f).is_zero

    def test_residual_flags_inconsistency(self):
        total = NumericalSheafData(2, Fraction(0), poly(2, 2), True)
        f = NumericalSheafData(1, Fraction(1), poly(2, 1), True)
        q = NumericalSheafData(1, Fraction(0), poly(1, 1), True)
        assert rank_p_residual(total, f, q) == poly(-1)

    def test_residual_needs_ranks(self):
        total = NumericalSheafData(1, Fraction(0), poly(1, 1), True)
        t = NumericalSheafData(0, Fraction(1), poly(1), False)
        with pytest.raises(ZeroRankError):
            rank_p_residual(total, total, t)


class TestRawPairings:
    def test_threefold_euler_polynomial(self):
        kd = KahlerData(n=3, hn=6, c1x_h=Fraction(1, 2))
        s = chi_from_pairings(kd, 2, [1, 2, 3, 12])
        assert s.chi == poly(1, 2, Fraction(3, 2), 2)
        assert s.deg_h == 3 - Fraction(1, 2)
        assert leading_term_violations(s, kd) == []

    def test_top_pairing_checked(self):
        kd = KahlerData(n=3, hn=6, c1x_h=0)
        with pytest.raises(MalformedPolynomialError):
            chi_from_pairings(kd, 2, [0, 0, 0, 7])


class TestBogomolov:
    def test_rank_two(self):
        kd = KahlerData.surface(1, 0)
        sc = SurfaceChernInput(0, -1, 0, 0, 1)
        assert bogomolov_discriminant(kd, 2, sc) == 4

    def test_rank_one_drops_c1(self):
        kd = KahlerData.surface(1, 0)
        for c in (-3, 0, 5):
            sc = SurfaceChernInput(0, Fraction(4 - 2 * c, 2), 1, 4, c)
            assert bogomolov_discriminant(kd, 1, sc) == 2 * c

    def test_negative_certificate(self):
        kd = KahlerData.surface(1, 0)
        sc = SurfaceChernInput(0, 1, 0, 2, 0)
        assert bogomolov_discriminant(kd, 2, sc) == -2


class TestConstructorCoherence:
    def test_curve_constructors(self):
        rng = random.Random(11)
        for _ in range(300):
            kd = KahlerData.curve(rng.randint(0, 4), rng.randint(1, 5))
            s = chi_curve(kd, rng.randint(0, 5), rng.randint(-8, 8))
            assert leading_term_violations(s, kd) == []

    def test_chern_input_invariant(self):
        with pytest.raises(ValueError):
            SurfaceChernInput(0, 1, 0, 0, 1)


class TestCompare:
    """The integer comparisons agree with Fraction-by-Fraction oracles."""

    @staticmethod
    def random_sheaf(rng):
        def q(n):
            return Fraction(rng.randint(-n, n), rng.randint(1, 3))

        rank = rng.randint(1, 6)
        chi = poly(*(q(4) for _ in range(rng.randint(0, 4))))
        return NumericalSheafData(rank, q(6), chi, True)

    @staticmethod
    def rational_order(x, y):
        if x < y:
            return EventualOrder.PRECEDES
        return EventualOrder.SUCCEEDS if x > y else EventualOrder.EQUAL

    def test_matches_fraction_path(self):
        rng = random.Random(41)
        seen_p, seen_mu = set(), set()
        unequal_lengths = 0
        for _ in range(3000):
            a = self.random_sheaf(rng)
            if rng.random() < 0.3:  # a multiple of a: equal p and slope
                k = rng.randint(1, 3)
                b = NumericalSheafData(k * a.rank, k * a.deg_h, a.chi.scale(k), True)
            else:
                b = self.random_sheaf(rng)
            unequal_lengths += len(a.chi.coeffs) != len(b.chi.coeffs)
            order = compare_p(a, b)
            assert order is fraction_order(a.chi, b.chi, a.rank, b.rank)
            assert compare_p(b, a) is order.reversed()
            seen_p.add(order)
            mu_order = compare_slope(a, b)
            assert mu_order is self.rational_order(a.deg_h / a.rank, b.deg_h / b.rank)
            assert compare_slope(b, a) is mu_order.reversed()
            seen_mu.add(mu_order)
        assert seen_p == seen_mu == set(EventualOrder)
        assert unequal_lengths > 1000

    def test_zero_rank_errors(self):
        one = NumericalSheafData(1, Fraction(0), poly(0, 1), True)
        for compare in (compare_p, compare_slope):
            with pytest.raises(ZeroRankError):
                compare(ZERO_SHEAF, one)
            with pytest.raises(ZeroRankError):
                compare(one, ZERO_SHEAF)
