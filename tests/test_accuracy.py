"""Accuracy-function behaviour: oracles, cross-path equality, properties."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import betainc

from freqpred.accuracy import (
    _plateau_numerators,
    _t_next_row,
    _t_rows,
    accuracy_condensed,
    accuracy_curve,
    accuracy_direct,
    accuracy_expanded,
    accuracy_recursive,
    accuracy_t_table,
    bin_pmf,
    h_function,
    ideal_accuracy,
    per_step_accuracy,
    pi_polynomial,
    t_table_accuracies,
    threshold_k,
)
from freqpred import accuracy
from freqpred.combinatorics import binomial

HALF = Fraction(1, 2)

ALL_PATHS = (
    accuracy_direct,
    accuracy_t_table,
    accuracy_recursive,
    accuracy_condensed,
    accuracy_expanded,
)

thetas = st.fractions(min_value=0, max_value=1, max_denominator=40)


def pmf_oracle(n: int, k: int, theta: Fraction) -> Fraction:
    """Weight of all length-k binary strings with n ones, by enumeration."""
    total = Fraction(0)
    for bits in product((0, 1), repeat=k):
        if sum(bits) == n:
            weight = Fraction(1)
            for b in bits:
                weight *= theta if b else 1 - theta
            total += weight
    return total


class TestBinPmf:
    def test_empty_product(self):
        assert bin_pmf(0, 0, Fraction(3, 7)) == 1
        assert bin_pmf(0, 0, 0.3) == 1.0

    def test_fair_case(self):
        assert bin_pmf(1, 2, HALF) == HALF

    def test_enumeration_oracle(self):
        assert bin_pmf(3, 5, Fraction(2, 5)) == Fraction(144, 625)
        assert bin_pmf(3, 5, Fraction(2, 5)) == pmf_oracle(3, 5, Fraction(2, 5))

    @given(st.integers(0, 8), thetas)
    @settings(max_examples=40)
    def test_enumeration_oracle_random(self, k, theta):
        for n in range(k + 1):
            assert bin_pmf(n, k, theta) == pmf_oracle(n, k, theta)

    def test_domain(self):
        with pytest.raises(ValueError):
            bin_pmf(3, 2, HALF)
        with pytest.raises(ValueError):
            bin_pmf(-1, 2, HALF)
        with pytest.raises(ValueError):
            bin_pmf(1, 2, Fraction(3, 2))


class TestPerStepAccuracy:
    def test_branches(self):
        theta = Fraction(7, 11)
        assert per_step_accuracy(3, 2, theta) == theta  # majority of ones
        assert per_step_accuracy(2, 1, Fraction(3, 10)) == HALF  # tie
        assert per_step_accuracy(4, 1, Fraction(3, 10)) == Fraction(7, 10)

    def test_k_zero_is_tie(self):
        assert per_step_accuracy(0, 0, Fraction(9, 10)) == HALF

    def test_domain(self):
        with pytest.raises(ValueError):
            per_step_accuracy(2, 3, HALF)


class TestHFunction:
    def test_zero_at_half(self):
        assert h_function(0, HALF) == 0
        assert h_function(7, HALF) == 0

    def test_a_zero_shape(self):
        # 1/2 - 2 theta (1 - theta)
        for theta in (Fraction(0), Fraction(1, 3), Fraction(4, 5), Fraction(1)):
            assert h_function(0, theta) == HALF - 2 * theta * (1 - theta)

    def test_exact_substitution(self):
        assert h_function(1, Fraction(2, 5)) == Fraction(6, 625)

    @given(st.integers(0, 12), thetas)
    @settings(max_examples=60)
    def test_two_forms_agree(self, a, theta):
        # factored (1-2t)^2 form vs the x^a/2 - 2x^(a+1) original
        x = theta * (1 - theta)
        original = binomial(2 * a, a) * (HALF * x**a - 2 * x ** (a + 1))
        assert h_function(a, theta) == original

    @given(st.integers(0, 20), thetas)
    @settings(max_examples=60)
    def test_non_negative(self, a, theta):
        assert h_function(a, theta) >= 0


class TestPathAgreement:
    def test_k_zero(self):
        assert accuracy_direct(0, Fraction(2, 7)) == HALF
        assert accuracy_t_table(0, Fraction(2, 7)) == HALF
        assert accuracy_recursive(0, Fraction(2, 7)) == HALF

    def test_condensed_expanded_need_k_one(self):
        with pytest.raises(ValueError):
            accuracy_condensed(0, HALF)
        with pytest.raises(ValueError):
            accuracy_expanded(0, HALF)

    def test_pi_one(self):
        theta = Fraction(3, 10)
        expected = 1 - 2 * theta + 2 * theta * theta
        for path in ALL_PATHS:
            assert path(1, theta) == expected

    def test_direct_value_k3(self):
        # direct sum over counts; the degree-4 polynomial gives the same
        assert accuracy_direct(3, Fraction(1, 5)) == Fraction(461, 625)

    @given(thetas)
    @settings(max_examples=20)
    def test_t_table_matches_direct_k2(self, theta):
        assert accuracy_t_table(2, theta) == accuracy_direct(2, theta)

    def test_t_table_matches_condensed(self):
        theta = Fraction(9, 20)
        assert accuracy_t_table(5, theta) == accuracy_condensed(5, theta)

    def test_recursive_matches_table_row(self):
        theta = Fraction(9, 20)
        assert accuracy_recursive(9, theta) == accuracy_expanded(9, theta)

    @given(st.integers(1, 25), thetas)
    @settings(max_examples=60, deadline=None)
    def test_all_paths_agree_exactly(self, k, theta):
        values = {path(k, theta) for path in ALL_PATHS}
        assert len(values) == 1

    def test_batch_t_table_matches_pointwise(self):
        theta = Fraction(7, 20)
        sums = t_table_accuracies(theta, 12)
        for k in (0, 1, 5, 12):
            assert sums[k] == accuracy_t_table(k, theta)

    def test_expanded_matches_recursive_at_large_k(self):
        # plateau a = 1499: a coefficient row of 1501 integers
        theta = Fraction(9, 20)
        assert accuracy_expanded(3000, theta) == accuracy_recursive(3000, theta)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: h_function(-1, HALF),
            lambda: accuracy_direct(-1, HALF),
            lambda: accuracy_t_table(-1, HALF),
            lambda: t_table_accuracies(HALF, -1),
            lambda: accuracy_recursive(-1, HALF),
            lambda: pi_polynomial(-1),
        ],
        ids=[
            "h_function",
            "accuracy_direct",
            "accuracy_t_table",
            "t_table_accuracies",
            "accuracy_recursive",
            "pi_polynomial",
        ],
    )
    def test_negative_count_rejected(self, call):
        with pytest.raises(ValueError):
            call()


class TestPolynomial:
    def test_printed_list(self):
        printed = {
            0: (1, -2, 2),
            1: (1, -1, -3, 8, -4),
            2: (1, -1, 0, -10, 35, -36, 12),
            3: (1, -1, 0, 0, -35, 154, -238, 160, -40),
            4: (1, -1, 0, 0, 0, -126, 672, -1380, 1395, -700, 140),
        }
        for a, coeffs in printed.items():
            assert pi_polynomial(a).coefficients() == coeffs

    @given(st.integers(0, 15))
    @settings(max_examples=16)
    def test_certainty_endpoints(self, a):
        poly = pi_polynomial(a)
        assert poly.evaluate(Fraction(0)) == 1
        assert poly.evaluate(Fraction(1)) == 1
        assert poly.evaluate(HALF) == HALF

    def test_expanded_k7_polynomial(self):
        theta = Fraction(3, 11)
        by_hand = (
            1 - theta - 35 * theta**4 + 154 * theta**5
            - 238 * theta**6 + 160 * theta**7 - 40 * theta**8
        )
        assert accuracy_expanded(7, theta) == by_hand


class TestProperties:
    grid = [Fraction(j, 20) for j in range(21)]

    def test_plateau_pairing(self):
        theta = Fraction(13, 20)
        for a in range(30):
            assert accuracy_direct(2 * a + 2, theta) == accuracy_direct(2 * a + 1, theta)

    def test_symmetry(self):
        for theta in self.grid:
            for k in (1, 7, 24, 41):
                assert accuracy_direct(k, theta) == accuracy_direct(k, 1 - theta)

    def test_monotone_and_bounded(self):
        for theta in (Fraction(1, 10), Fraction(9, 20), Fraction(4, 5)):
            values = t_table_accuracies(theta, 40)
            ideal = ideal_accuracy(theta)
            for lo, hi in zip(values, values[1:]):
                assert HALF <= lo <= hi <= ideal

    def test_endpoints(self):
        for k in range(1, 20):
            assert accuracy_direct(k, Fraction(0)) == 1
            assert accuracy_direct(k, Fraction(1)) == 1
        for k in range(20):
            assert accuracy_direct(k, HALF) == HALF

    def test_float_tracks_exact(self):
        for j in range(21):
            exact = accuracy_condensed(35, Fraction(j, 20))
            approx = accuracy_condensed(35, j / 20)
            assert abs(float(exact) - approx) < 1e-12

    def test_float_tracks_exact_all_paths(self):
        # the expanded path is the conditioning hazard; check every route
        # at the far end of the documented range
        for k in (20, 45, 60):
            for j in range(21):
                exact = float(accuracy_direct(k, Fraction(j, 20)))
                for path in ALL_PATHS:
                    assert abs(path(k, j / 20) - exact) < 1e-12


class TestIdealAccuracy:
    def test_values(self):
        assert ideal_accuracy(HALF) == HALF
        assert ideal_accuracy(Fraction(9, 20)) == Fraction(11, 20)
        assert ideal_accuracy(0) == 1
        assert ideal_accuracy(1.0) == 1.0


class TestCurve:
    def test_fair_theta_gap_zero(self):
        points = accuracy_curve(HALF, 5)
        assert all(p.gap == 0 for p in points)

    def test_example_endpoint(self):
        points = accuracy_curve(Fraction(9, 20), 71)
        assert round(float(points[-1].accuracy), 4) == 0.5302

    def test_matches_direct(self):
        theta = Fraction(2, 5)
        for point in accuracy_curve(theta, 20):
            assert point.accuracy == accuracy_direct(point.k, theta)

    def test_gap_non_increasing_and_non_negative(self):
        points = accuracy_curve(0.45, 100)
        for before, after in zip(points, points[1:]):
            assert after.gap <= before.gap
        assert all(p.gap >= 0 for p in points)

    def test_k_max_domain(self):
        with pytest.raises(ValueError):
            accuracy_curve(HALF, 0)


def rounded_exact_curve(theta: float | Fraction, k_max: int) -> list[tuple]:
    """``accuracy_curve(Fraction(theta), k_max)`` rounded once, entry by
    entry, without its gcds: a ``Fraction`` rounds as its unreduced
    numerator over its denominator does, so each entry is the exact
    stream's integer divided once."""
    p, d = Fraction(theta).as_integer_ratio()
    top = max(p, d - p)
    points = []
    for a, s in zip(range((k_max + 1) // 2), _plateau_numerators(p, d)):
        scale = 2 * d ** (2 * a + 2)
        row = (s / scale, top / d, (2 * top * d ** (2 * a + 1) - s) / scale)
        points += [(2 * a + 1, *row), (2 * a + 2, *row)]
    return points[:k_max]


class TestFloatCurve:
    """A float theta's curve is the exact curve rounded once, read from the
    fixed-point enclosure wherever it decides."""

    @pytest.mark.parametrize("theta", [0.001, 0.1, 0.3, 0.4731, 0.499, 0.5, 0.999])
    def test_rounds_the_exact_curve_once(self, theta, monkeypatch):
        expected = rounded_exact_curve(theta, 2000)

        def refused(p, d):
            raise AssertionError("exact stream")

        monkeypatch.setattr(accuracy, "_plateau_numerators", refused)
        assert accuracy_curve(theta, 2000) == expected
        assert accuracy_curve(theta, 1999) == expected[:1999]

    @given(st.floats(0, 1), st.integers(1, 150))
    @example(5e-324, 150)
    @example(0.5 - 2**-40, 150)
    @example(1.0, 1)
    @settings(max_examples=100, deadline=None)
    def test_rounds_the_fraction_curve_once(self, theta, k_max):
        assert accuracy_curve(theta, k_max) == [
            (point.k, float(point.accuracy), float(point.ideal), float(point.gap))
            for point in accuracy_curve(Fraction(theta), k_max)
        ]

    @given(st.fractions(0, 1, max_denominator=1000), st.integers(1, 700))
    @example(Fraction(433, 917), 700)
    @example(Fraction(1, 3), 1)
    @settings(max_examples=15, deadline=None)
    def test_enclosure_holds_on_an_exact_theta(self, theta, k_max):
        # d need not be a power of two: each P either leaves the curve
        # undecided or reads every plateau as the exact value rounded once
        p, q = theta.as_integer_ratio()
        expected = [(pi, gap) for _, pi, _, gap in rounded_exact_curve(theta, k_max)[::2]]
        for bits in accuracy._ENCLOSURE_BITS:
            plateaus = accuracy._rounded_plateaus(p, q, bits, len(expected))
            assert plateaus is None or plateaus == expected

    def test_gaps_too_small_for_p_take_the_exact_stream(self, monkeypatch):
        # theta = 0.001 closes ~8 bits of its gap a plateau, so at 128 bits
        # the gaps from k = 17 on lie inside the enclosure; with no raised P
        # left, the exact stream decides the whole curve
        expected = rounded_exact_curve(0.001, 400)
        calls = []
        stream = accuracy._plateau_numerators

        def counted(p, d):
            calls.append((p, d))
            return stream(p, d)

        monkeypatch.setattr(accuracy, "_ENCLOSURE_BITS", accuracy._ENCLOSURE_BITS[:1])
        monkeypatch.setattr(accuracy, "_plateau_numerators", counted)
        assert accuracy_curve(0.001, 400) == expected
        assert calls == [(0.001).as_integer_ratio()]

    def test_a_gap_on_a_rounding_midpoint_takes_the_exact_stream(self, monkeypatch):
        # at theta = 1/256 the gap of k = 11 lies exactly on a rounding
        # midpoint while every floor of _plateau_floors is still exact, so
        # the a(a+1)/2 bound leaves it undecided at both P of the real ladder
        expected = rounded_exact_curve(0.00390625, 12)
        calls = []
        stream = accuracy._plateau_numerators

        def counted(p, d):
            calls.append((p, d))
            return stream(p, d)

        monkeypatch.setattr(accuracy, "_plateau_numerators", counted)
        assert accuracy_curve(0.00390625, 10) == expected[:10]
        assert calls == []
        assert accuracy_curve(0.00390625, 12) == expected
        assert calls == [(1, 256)]


def threshold_reference(theta, target):
    """``threshold_k`` by the scan of the exact plateau stream alone."""
    theta, target = Fraction(theta), Fraction(target)
    ideal = max(theta, 1 - theta)
    if target <= HALF:
        return 0
    if target > ideal or (target == ideal and 0 < theta < 1):
        return None
    p, d = theta.as_integer_ratio()
    return 2 * accuracy._exact_crossing(p, d, *target.as_integer_ratio()) + 1


@st.composite
def threshold_cases(draw):
    """(theta, target): theta p/q with q <= 60 or a float no nearer 1/2
    than 29/59, so the exact scan stays short; targets between 1/2 and the
    ideal, at some pi_k, at the ideal and at or below 1/2, exact or float."""
    theta = draw(
        st.fractions(0, 1, max_denominator=60)
        | st.floats(0, 1).filter(lambda t: t == 0.5 or abs(2 * t - 1) >= 1 / 59)
    )
    exact = Fraction(theta)
    ideal = max(exact, 1 - exact)
    target = draw(
        st.fractions(0, Fraction(9, 10), max_denominator=1000).map(
            lambda share: HALF + share * (ideal - HALF)
        )
        | st.integers(1, 200).map(lambda k: accuracy_recursive(k, exact))
        | st.just(ideal)
        | st.fractions(0, HALF)
    )
    return theta, float(target) if draw(st.booleans()) else target


class TestThreshold:
    def test_headline_example(self):
        assert threshold_k(Fraction(9, 20), 0.53) == 71
        assert threshold_k(0.45, 0.53) == 71

    def test_target_half_is_immediate(self):
        assert threshold_k(Fraction(3, 4), 0.5) == 0
        assert threshold_k(0.123, 0.2) == 0

    def test_unreachable(self):
        assert threshold_k(Fraction(9, 20), 0.56) is None

    def test_supremum_not_attained(self):
        assert threshold_k(Fraction(9, 20), Fraction(11, 20)) is None

    def test_degenerate_theta_reaches_certainty(self):
        assert threshold_k(Fraction(1), 1.0) == 1
        assert threshold_k(0.0, 0.99) == 1

    def test_first_crossing_is_odd_and_tight(self):
        theta = Fraction(3, 10)
        target = Fraction(6, 10)
        k = threshold_k(theta, target)
        assert k % 2 == 1
        assert accuracy_direct(k, theta) >= target
        assert accuracy_direct(k - 1, theta) < target

    def test_target_domain(self):
        with pytest.raises(ValueError):
            threshold_k(HALF, 1.5)

    def test_near_fair_theta(self):
        # once 240 s for float theta: every plateau step is an exact integer step
        assert threshold_k(Fraction(49, 100), Fraction(509, 1000)) == 6763
        assert threshold_k(0.49, 0.509) == 6763

    def test_far_crossing_anchor(self):
        # the exact scan alone runs for more than 11 minutes here
        k = threshold_k(0.499, 0.5009)
        assert k == threshold_k(Fraction(499, 1000), Fraction(5009, 10000)) == 676385
        # independently: ideal - pi_(2a+1) = |1 - 2 theta| I_theta(a+1, a+1)
        # (DLMF 8.17), which crosses ideal - target = 1e-4 between a = 338191
        # and a = 338192 by ~2.5e-6 of itself, far beyond betainc's error
        gap = [0.002 * betainc(a + 1, a + 1, 0.499) for a in (338191, 338192)]
        assert gap[0] > 1e-4 * (1 + 1e-7) and gap[1] < 1e-4 * (1 - 1e-7)

    def test_enclosure_decides_without_the_exact_scan(self, monkeypatch):
        def refused(*args):
            raise AssertionError("exact scan")

        monkeypatch.setattr(accuracy, "_exact_crossing", refused)
        assert threshold_k(Fraction(9, 20), 0.53) == 71
        assert threshold_k(0.49, 0.509) == 6763
        assert threshold_k(Fraction(49, 100), Fraction(509, 1000)) == 6763

    def test_undecided_targets_take_the_exact_scan(self, monkeypatch):
        calls = []
        scan = accuracy._exact_crossing

        def counted(*args):
            calls.append(args)
            return scan(*args)

        monkeypatch.setattr(accuracy, "_exact_crossing", counted)
        # a target equal to pi_71: the low sum at plateau 35 falls short of it,
        # and the high sum there is not below it
        theta = Fraction(9, 20)
        assert threshold_k(theta, accuracy_recursive(71, theta)) == 71
        # theta = 0.001 closes ~8 bits of its gap a plateau, so the floored
        # terms vanish near a = 16 at 128 bits and a = 150 at the raised P,
        # short of a target at a = 200
        theta = 0.001
        assert threshold_k(theta, accuracy_recursive(401, Fraction(theta))) == 401
        assert len(calls) == 2

    @given(threshold_cases())
    @example((Fraction(9, 20), 0.53))
    @example((Fraction(9, 20), Fraction(11, 20)))
    @example((0.0, 1.0))
    @example((Fraction(1), Fraction(1)))
    @example((0.5, 0.5))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_exact_scan(self, case):
        theta, target = case
        assert threshold_k(theta, target) == threshold_reference(theta, target)


KERNEL_GRID = [Fraction(0), HALF, Fraction(1)] + [
    Fraction(p, q) for q in (3, 7, 20, 101) for p in range(1, q) if 2 * p != q
][::3]


class TestIntegerKernels:
    def test_plateau_stream_matches_fraction_sum(self):
        # pi_(2a+1) for a <= 99 covers every k <= 200
        for theta in KERNEL_GRID:
            d = theta.denominator
            pi = HALF
            for a, s in zip(range(100), _plateau_numerators(theta.numerator, d)):
                pi += h_function(a, theta)
                assert Fraction(s, 2 * d ** (2 * a + 2)) == pi

    def test_integer_t_table_matches_fraction_rows(self):
        for theta in KERNEL_GRID:
            d = theta.denominator
            weights = (theta, 1 - theta, 2 * theta * theta, 2 * (1 - theta) ** 2)
            row = [HALF]
            for k, scaled in enumerate(_t_rows(theta, 60)):
                assert [Fraction(v, 2 * d ** (2 * k)) for v in scaled] == row
                row = _t_next_row(row, k, weights)

    @pytest.mark.parametrize("theta", [Fraction(9, 20), Fraction(431, 997)])
    def test_condensed_matches_recursive_past_the_sweep(self, theta):
        for k in (599, 600, 1100):
            assert accuracy_condensed(k, theta) == accuracy_recursive(k, theta), k

    @pytest.mark.parametrize("theta", [0.45, 0.499])
    def test_float_curve_bits_match_exact_dyadic_sum(self, theta):
        exact = Fraction(theta)
        ideal = max(exact, 1 - exact)
        pi = HALF
        points = accuracy_curve(theta, 300)
        for point in points:
            if point.k % 2 == 1:
                pi += h_function((point.k - 1) // 2, exact)
            assert point == (point.k, float(pi), float(ideal), float(ideal - pi))


class TestLargeKFloat:
    """C(2a, a) and C(k, n) leave the float range from k ~ 1030 on."""

    def test_every_route_finite_and_close(self):
        k, theta = 1100, 0.45
        exact = accuracy_recursive(k, Fraction(theta))
        for path in ALL_PATHS:
            value = path(k, theta)
            assert isinstance(value, float)
            assert abs(value - exact) < 1e-12, path.__name__

    def test_terms(self):
        theta = 0.45
        exact = Fraction(theta)
        assert h_function(600, theta) == pytest.approx(float(h_function(600, exact)), rel=1e-12)
        assert bin_pmf(550, 1100, theta) == float(bin_pmf(550, 1100, exact))


ROUNDING_THETAS = [0.0, 0.001, 0.3, 0.45, 0.4731, 0.499, 0.5, 1.0]


class TestFloatRounding:
    """A float result is the exact answer at the float's dyadic value,
    rounded once: bit for bit ``float(route(k, Fraction(theta)))``."""

    @pytest.mark.parametrize("theta", ROUNDING_THETAS)
    def test_routes_round_the_exact_dyadic_value(self, theta):
        exact = Fraction(theta)
        for k in range(61):
            for route in (
                accuracy_direct, accuracy_recursive, accuracy_condensed, accuracy_expanded
            ):
                if route in (accuracy_condensed, accuracy_expanded) and k == 0:
                    continue
                assert route(k, theta) == float(route(k, exact)), (route.__name__, k)
        for a in range(31):
            assert h_function(a, theta) == float(h_function(a, exact)), a
        for k in range(61):
            for n in range(k + 1):
                assert bin_pmf(n, k, theta) == float(bin_pmf(n, k, exact)), (n, k)

    def test_large_k(self):
        theta, k = 0.45, 1100
        exact = Fraction(theta)
        for route in (
            accuracy_direct, accuracy_recursive, accuracy_condensed, accuracy_expanded
        ):
            assert route(k, theta) == float(route(k, exact)), route.__name__
        assert h_function(549, theta) == float(h_function(549, exact))
        for n in (0, 1, 495, 550, 1099, 1100):
            assert bin_pmf(n, k, theta) == float(bin_pmf(n, k, exact)), n

    @given(st.integers(1, 300), st.floats(0, 1))
    @example(1, 0.0)
    @example(300, 0.5)
    @example(299, 1.0)
    @example(300, 5e-324)
    @example(1, 5e-324)
    @settings(max_examples=200, deadline=None)
    def test_float_condensed_is_the_exact_value_rounded_once(self, k, theta):
        value = accuracy_condensed(k, theta)
        assert value == accuracy_recursive(k, theta)
        assert value == float(accuracy_condensed(k, Fraction(theta)))

    @pytest.mark.parametrize("theta", ROUNDING_THETAS)
    def test_t_table_rounds_the_exact_dyadic_value(self, theta):
        exact = t_table_accuracies(Fraction(theta), 60)
        assert t_table_accuracies(theta, 60) == [float(pi) for pi in exact]
        for k in range(61):
            assert accuracy_t_table(k, theta) == float(exact[k]), k

    def test_t_table_large_k(self):
        # the exact t-table at k = 1100 takes ~20 s; the recursive route is exact too
        theta, k = 0.45, 1100
        assert accuracy_t_table(k, theta) == float(accuracy_recursive(k, Fraction(theta)))

    @given(st.integers(0, 300), st.floats(0, 1))
    @example(300, 0.0)
    @example(300, 0.5)
    @example(299, 1.0)
    @example(300, 5e-324)
    @example(1, 5e-324)
    @settings(max_examples=100, deadline=None)
    def test_float_t_table_is_the_exact_value_rounded_once(self, k, theta):
        assert accuracy_t_table(k, theta) == accuracy_recursive(k, theta)

    @pytest.mark.parametrize("theta", [0.001, 0.3, 0.45, 0.4731, 0.499])
    @pytest.mark.parametrize("guard_bits", [0, 48])
    def test_uncertified_rows_fall_back_to_the_exact_table(self, theta, guard_bits, monkeypatch):
        # with few guard bits the floor's enclosure rarely decides the float;
        # at 48 it decides some rows, where a too narrow enclosure would show
        exact_calls = []
        route = accuracy.accuracy_t_table

        def counted(k, value):
            exact_calls.append(k)
            return route(k, value)

        monkeypatch.setattr(accuracy, "_GUARD_BITS", guard_bits)
        monkeypatch.setattr(accuracy, "accuracy_t_table", counted)
        exact = [float(accuracy_recursive(k, Fraction(theta))) for k in range(61)]
        assert accuracy.t_table_accuracies(theta, 60) == exact
        assert len(exact_calls) > 30
        assert [route(k, theta) for k in range(61)] == exact
