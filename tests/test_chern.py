"""Euler characteristic constructors, slopes, residuals, and the discriminant."""

import random
from collections import Counter
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
    sum_data,
)
from higgs_lab.chern import NumericalSheafData, leading_term_violations
from higgs_lab.filtration import _sheaf_delta
from higgs_lab.hilbert import HilbertPolynomial, parse_rational

from higgs_lab.model import realize

from conftest import (
    fraction_leading_terms,
    fraction_order,
    oracle_rank_p_residual,
    poly,
    random_chain_spec,
    slope_from_p,
    surface_entry,
    surface_model,
    volume,
)


def line_bundle_chi(a, k):
    """Oracle: Euler characteristic of the a-th twist on the projective line."""
    return a + k + 1


class TestKahlerData:
    def test_curve_consistency(self):
        kd = KahlerData.curve(2, 1)
        assert kd.c1x_h == -2
        assert kd.todd == (Fraction(-1), Fraction(1))
        assert volume(kd) == 1

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

    @pytest.mark.parametrize("deg", [Fraction(7, 2), Fraction(-5, 3), Fraction(4), 4, -3])
    def test_matches_the_closed_form(self, deg):
        for genus, deg_h, rank in [(0, 1, 1), (2, 3, 2), (3, 2, 0)]:
            s = chi_curve(KahlerData.curve(genus, deg_h), rank, deg)
            d = Fraction(deg)
            assert s.chi == HilbertPolynomial([d + rank * (1 - genus), rank * deg_h])
            assert type(s.deg_h) is Fraction and s.deg_h == d

    def test_integral_degree_stays_integer(self):
        for deg in (5, -3, Fraction(4)):
            s = chi_curve(KahlerData.curve(2, 3), 2, deg)
            assert s.chi.den == 1 and s.chi.nums == (deg - 2, 6)
            assert all(type(x) is int for x in s.chi.nums)
            assert type(s.deg_h) is Fraction and s.deg_h == deg


class TestDegreeType:
    """deg_h is a Fraction however a sheaf is built, and an existing one is kept as is."""

    def test_constructor(self):
        three = Fraction(3)
        assert NumericalSheafData(1, three, poly(3, 1), True).deg_h is three
        for value in (3, parse_rational("3"), parse_rational("7/2")):
            deg_h = NumericalSheafData(1, value, poly(3, 1), True).deg_h
            assert type(deg_h) is Fraction and deg_h == value

    def test_sums_and_differences(self):
        kd = KahlerData.curve(1, 1)
        a, b = chi_curve(kd, 2, 3), chi_curve(kd, 1, Fraction(1, 2))
        for s in (sum_data(a, b), _sheaf_delta(a, b), sum_data(a, ZERO_SHEAF)):
            assert type(s.deg_h) is Fraction
        assert sum_data(a, b).deg_h == Fraction(7, 2)
        assert _sheaf_delta(a, b).deg_h == Fraction(5, 2)


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

    def test_matches_riemann_roch_of_the_twists(self):
        """chi(E(k)) = ch2(E(k)) + c1(E(k)).c1(X)/2 + rank*td2, with ch(E(k)) = ch(E) e^(kH)."""
        rng = random.Random(17)
        q = TestLeadingTerms.q
        surfaces = [kd for kd in TestLeadingTerms.AMBIENTS if kd.n == 2]
        assert len(surfaces) == 2
        for _ in range(300):
            kd, rank = rng.choice(surfaces), rng.randint(0, 3)
            c1sq, c2 = rng.randint(-6, 6), rng.randint(-6, 6)
            sc = SurfaceChernInput(q(rng, 9), Fraction(c1sq - 2 * c2, 2), q(rng, 4), c1sq, c2)
            td2 = q(rng, 3)
            s = chi_surface(kd, rank, sc, td2)
            for k in range(-3, 4):
                ch2 = sc.ch2 + k * sc.c1h + rank * k * k * kd.hn / 2
                c1_c1x = sc.c1c1x + rank * k * kd.c1x_h
                assert s.chi.evaluate(k) == ch2 + c1_c1x / 2 + rank * td2
            assert (s.rank, s.deg_h, s.torsion_free) == (rank, sc.c1h, rank > 0)


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

    def test_residual_matches_the_term_by_term_oracle(self):
        rng = random.Random(41)
        triples = []
        for _ in range(300):
            m = realize(random_chain_spec(rng, 5, 3))
            triples += [(m.data, e.data, e.quotient) for e in m.subobjects]
        total = surface_model("S", 2, 0, 0).data
        for deg_h, constant in ((-1, 7), (0, 3), (0, 0), (1, -2)):
            e = surface_entry("F", total, 1, deg_h, constant)
            triples += [(total, e.data, e.quotient), (total, e.data, e.data)]
        kd = KahlerData.curve(1, 1)  # the nonzero residuals of test_model
        triples += [(chi_curve(kd, 3, 0), chi_curve(kd, 1, 1), chi_curve(kd, r, d))
                    for r, d in ((2, -2), (1, 0))]
        assert len(triples) > 800
        nonzero = 0
        for total, sub, quotient in triples:
            residual = rank_p_residual(total, sub, quotient)
            assert residual == oracle_rank_p_residual(total, sub, quotient)
            nonzero += not residual.is_zero
        assert nonzero >= 5

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


class TestConstructorErrors:
    """Each constructor raises the same type and message, in the same order of checks."""

    CURVE = KahlerData.curve(1, 2)
    SURFACE = KahlerData.surface(2, -3)
    THREEFOLD = KahlerData(n=3, hn=6, c1x_h=0)
    CHERN = SurfaceChernInput(1, 0, 0, 0, 0)

    @staticmethod
    def raised(build) -> tuple:
        with pytest.raises(ValueError) as info:
            build()
        return type(info.value), str(info.value)

    def test_wrong_dimension(self):
        assert self.raised(lambda: chi_curve(self.SURFACE, 1, 0)) == (
            ValueError, "chi_curve needs one-dimensional ambient data")
        assert self.raised(lambda: chi_surface(self.CURVE, 1, self.CHERN, 1)) == (
            ValueError, "chi_surface needs two-dimensional ambient data")
        assert self.raised(lambda: chi_curve(self.SURFACE, -1, 0))[1].startswith("chi_curve")

    def test_negative_rank(self):
        for build in (
            lambda: chi_curve(self.CURVE, -1, 3),
            lambda: chi_surface(self.SURFACE, -2, self.CHERN, Fraction(1, 2)),
            lambda: chi_from_pairings(self.THREEFOLD, -1, [0, 0, 0, -6]),
        ):
            assert self.raised(build) == (ValueError, "rank must be nonnegative")

    def test_malformed_pairings(self):
        length = (MalformedPolynomialError, "pairing vector must have length n + 1")
        top = (MalformedPolynomialError, "top pairing must equal rank times hn")
        assert self.raised(lambda: chi_from_pairings(self.THREEFOLD, 1, [0, 0, 6])) == length
        assert self.raised(lambda: chi_from_pairings(self.THREEFOLD, 1, [0, 0, 0, 0, 6])) == length
        assert self.raised(lambda: chi_from_pairings(self.THREEFOLD, 1, [0, 0, 7])) == length
        assert self.raised(lambda: chi_from_pairings(self.THREEFOLD, 1, [0, 0, 0, 7])) == top
        assert self.raised(lambda: chi_from_pairings(self.THREEFOLD, -1, [0, 0, 0, 6])) == top
        assert self.raised(lambda: chi_from_pairings(self.SURFACE, 1, [0, 0, Fraction(5, 2)])) == top


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


class TestLeadingTerms:
    """The integer leading-term check agrees with the Fraction oracle."""

    AMBIENTS = (
        KahlerData.curve(0, 1),
        KahlerData.curve(3, 4),
        KahlerData.surface(Fraction(3, 2), Fraction(-5, 3)),
        KahlerData.surface(2, -3),
        KahlerData(n=3, hn=Fraction(7, 2), c1x_h=Fraction(1, 2)),
    )

    @staticmethod
    def q(rng, n):
        return Fraction(rng.randint(-n, n), rng.randint(1, 4))

    def coherent(self, rng, kd, rank):
        """A sheaf of the given rank built by the ambient's own constructor; rank 0 is torsion."""
        deg = self.q(rng, 9)
        if kd.n == 1:
            return chi_curve(kd, rank, deg)
        if kd.n == 2:
            c1sq, c2 = rng.randint(-6, 6), rng.randint(-6, 6)
            sc = SurfaceChernInput(deg, Fraction(c1sq - 2 * c2, 2), self.q(rng, 4), c1sq, c2)
            return chi_surface(kd, rank, sc, self.q(rng, 3))
        pairings = [self.q(rng, 5), self.q(rng, 5), deg, rank * kd.hn]
        return chi_from_pairings(kd, rank, pairings)

    def planted(self, rng, kd, s):
        """s, or s with one defect: a wrong k^n, k^(n-1) or k^(n+1) term, deg_h, or chi."""
        plant = rng.randrange(6)
        delta = self.q(rng, 3) or Fraction(1)
        if plant in (1, 2, 3):
            j = kd.n + 2 - plant  # n+1, n or n-1
            return NumericalSheafData(s.rank, s.deg_h, s.chi + poly(*[0] * j, delta), s.torsion_free)
        if plant == 4:
            return NumericalSheafData(s.rank, s.deg_h + delta, s.chi, s.torsion_free)
        if plant == 5:
            chi = poly(*(self.q(rng, 4) for _ in range(rng.randint(0, kd.n + 2))))
            return NumericalSheafData(s.rank, s.deg_h, chi, s.torsion_free)
        return s

    def test_matches_fraction_oracle(self):
        rng = random.Random(8)
        seen = Counter()
        for _ in range(3000):
            kd = rng.choice(self.AMBIENTS)
            s = self.planted(rng, kd, self.coherent(rng, kd, rng.randint(0, 4)))
            problems = leading_term_violations(s, kd)
            assert problems == fraction_leading_terms(s, kd), (kd, s)
            seen.update(p.split(" ")[0] for p in problems)
            seen["coherent"] += not problems
            seen["rational deg_h"] += s.deg_h.denominator != 1
        assert min(seen.values()) > 100, seen
        assert set(seen) == {"chi", "k^n", "k^(n-1)", "coherent", "rational deg_h"}

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
