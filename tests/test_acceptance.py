"""Acceptance suite: one test per criterion, each printing PASS when done.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one line per
criterion.  Every tolerance is fixed here; nothing is calibrated at
runtime.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction

from freqpred import cli
from freqpred.accuracy import (
    accuracy_condensed,
    accuracy_direct,
    accuracy_expanded,
    accuracy_recursive,
    accuracy_t_table,
    h_function,
    ideal_accuracy,
    pi_polynomial,
    t_table_accuracies,
    threshold_k,
)
from freqpred.combinatorics import alpha_row, catalan, catalan_series, w_coefficient
from freqpred.prediction import (
    CountStatistic,
    beta_prior,
    frequent_outcome_array,
    optimal_array,
    posterior_correct_probability,
    prior_covariance,
)
from freqpred.simulator import SimulationConfig, simulate_accuracy, simulate_covariance

HALF = Fraction(1, 2)
GRID = [Fraction(j, 20) for j in range(21)]

# The classical coefficient tabulation for a = 0..10, exactly as printed,
# including the flawed 426 at (a=5, i=1).
PRINTED_TABLE = {
    0: (1, -2),
    1: (3, -8, 4),
    2: (10, -35, 36, -12),
    3: (35, -154, 238, -160, 40),
    4: (126, -672, 1380, -1395, 700, -140),
    5: (426, -2904, 7425, -10010, 7546, -3024, 504),
    6: (1716, -12441, 38038, -64064, 64428, -38766, 12936, -1848),
    7: (6435, -52910, 188188, -380016, 477750, -383460, 192060, -54912, 6864),
    8: (24310, -223652, 906984, -2134860, 3220140, -3231360, 2158728, -926211,
        231660, -25740),
    9: (92378, -940576, 4282980, -11511720, 20252100, -24387792, 20369349,
        -11655930, 4374370, -972400, 97240),
    10: (352716, -3938662, 19896800, -60116760, 120830424, -169744575,
         170143974, -121721600, 60920860, -20318298, 4064632, -369512),
}

# First five expanded polynomials (dense, constant term first), as printed.
PRINTED_POLYNOMIALS = {
    0: (1, -2, 2),
    1: (1, -1, -3, 8, -4),
    2: (1, -1, 0, -10, 35, -36, 12),
    3: (1, -1, 0, 0, -35, 154, -238, 160, -40),
    4: (1, -1, 0, 0, 0, -126, 672, -1380, 1395, -700, 140),
}


def test_criterion_01_coefficient_table_reproduction():
    deviations = []
    for a, printed in PRINTED_TABLE.items():
        computed = alpha_row(a)
        assert len(computed) == len(printed) == a + 2
        for t, (have, want) in enumerate(zip(computed, printed), start=1):
            if have != want:
                deviations.append((a, t, want, have))
    # exactly one deviation: the misprinted 426 must come out as 462
    assert deviations == [(5, 1, 426, 462)]
    # the printed entry violates the row-sum identity; the computed row obeys it
    assert sum(PRINTED_TABLE[5]) == -37 != -1
    assert sum(alpha_row(5)) == -1
    print("criterion 01 PASS — coefficient table reproduced; (5,1)=462 vs misprint 426")


def test_criterion_02_threshold_example():
    theta = Fraction(9, 20)
    assert round(float(accuracy_condensed(70, theta)), 4) == 0.5298
    assert round(float(accuracy_expanded(71, theta)), 4) == 0.5302
    assert threshold_k(theta, 0.53) == 71
    print("criterion 02 PASS — pi_70=0.5298, pi_71=0.5302, threshold(9/20, 0.53)=71")


def test_criterion_03_first_ten_polynomials():
    for a, coeffs in PRINTED_POLYNOMIALS.items():
        assert pi_polynomial(a).coefficients() == coeffs
    print("criterion 03 PASS — expanded polynomials for k=1..10 match coefficient-for-coefficient")


def test_criterion_04_five_path_exact_equivalence():
    for theta in GRID:
        table_values = t_table_accuracies(theta, 60)
        running = HALF
        for k in range(61):
            if k >= 1 and k % 2 == 1:
                running += h_function((k - 1) // 2, theta)
            direct = accuracy_direct(k, theta)
            assert direct == table_values[k] == running
            if k >= 1:
                assert direct == accuracy_condensed(k, theta)
                assert direct == accuracy_expanded(k, theta)
    # the per-call entry points agree with the batch forms they share logic with
    spot = Fraction(9, 20)
    assert accuracy_t_table(37, spot) == t_table_accuracies(spot, 37)[37]
    assert accuracy_recursive(37, spot) == accuracy_direct(37, spot)
    print("criterion 04 PASS — direct/t-table/recursive/condensed/expanded equal exactly, k<=60, 21-point grid")


def test_criterion_05_property_suite():
    for theta in GRID:
        values = t_table_accuracies(theta, 60)
        ideal = ideal_accuracy(theta)
        # symmetry against the mirrored parameter
        mirrored = t_table_accuracies(1 - theta, 60)
        assert values == mirrored
        # monotone, bounded between 1/2 and the ideal accuracy
        for lo, hi in zip(values, values[1:]):
            assert HALF <= lo <= hi <= ideal
    for k in range(1, 61):
        assert accuracy_condensed(k, Fraction(0)) == 1
        assert accuracy_condensed(k, Fraction(1)) == 1
        assert accuracy_condensed(k, HALF) == HALF
    assert accuracy_direct(0, Fraction(3, 20)) == HALF
    for t in range(1, 51):
        diagonal = sum(w_coefficient(i, t - i) for i in range(1, t + 1))
        assert diagonal == (1 if t == 1 else 0)
    print("criterion 05 PASS — symmetry, monotonicity, bounds, endpoints, and the W diagonal identity hold")


def test_criterion_06_convergence():
    partial = catalan_series(0.3 * 0.7, 2000)
    assert abs(partial - 0.3) < 1e-6
    a = 2000
    ratio = float(Fraction(catalan(a), 4**a)) * math.sqrt(math.pi * a**3)
    assert abs(ratio - 1.0) < 0.01
    # fast at the extremes, slow near the centre
    fast = min(
        abs(float(accuracy_condensed(k, Fraction(1, 10))) - 0.9) for k in range(1, 61)
    )
    assert fast < 1e-3
    slow = abs(float(accuracy_condensed(60, Fraction(9, 20))) - 0.55)
    assert slow > 1e-2
    print("criterion 06 PASS — Catalan series limit, Stirling ratio, and rate contrast confirmed")


def test_criterion_07_monte_carlo_oracle():
    array = frequent_outcome_array(71)
    config = SimulationConfig(theta_source=0.45, horizon=71, replications=10**6, seed=20260810)
    report = simulate_accuracy(config, array)
    step70 = report.steps[70]
    analytic = accuracy_recursive(70, 0.45)
    assert round(analytic, 4) == 0.5298
    assert abs(step70.estimate - analytic) <= 3 * step70.stderr
    assert 3 * step70.stderr < 0.0016

    fair = SimulationConfig(theta_source=0.5, horizon=71, replications=10**6, seed=20260810)
    fair_report = simulate_accuracy(fair, array)
    for step in fair_report.steps:
        assert abs(step.estimate - 0.5) <= 3 * step.stderr
    print(
        "criterion 07 PASS — 1e6-rep run: step 70 within 3 stderr of 0.5298; "
        "fair coin within 3 stderr of 0.5 at every step"
    )


def test_criterion_08_frequent_outcome_optimality():
    candidates = [Fraction(0), Fraction(1, 4), HALF, Fraction(3, 4), Fraction(1)]
    for alpha in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5)):
        prior = beta_prior(alpha, alpha)
        array = optimal_array(prior, 20)
        assert array == frequent_outcome_array(20)
        for k in range(21):
            for n in range(k + 1):
                stat = CountStatistic(k, n)
                best = posterior_correct_probability(array.phi(k, n), prior, stat)
                for phi in candidates:
                    other = posterior_correct_probability(phi, prior, stat)
                    if 2 * n == k:
                        assert other == best == HALF
                    elif phi != array.phi(k, n):
                        assert other < best
    print("criterion 08 PASS — frequent-outcome entries maximize posterior accuracy for beta(a,a), k<=20")


def test_criterion_09_covariance():
    prior = beta_prior(1, 1)
    target = prior_covariance(prior)
    assert target == Fraction(1, 12)
    result = simulate_covariance(prior, 10**6, seed=99)
    assert abs(result.estimate - float(target)) <= 3 * result.stderr
    print("criterion 09 PASS — simulated cov(x_i, x_j) within 3 stderr of 1/12 at 1e6 replications")


def test_criterion_10_curve_data_regeneration(capsys):
    for theta_text in ("0.40", "0.45"):
        code = cli.main(["curve", theta_text, "100"])
        out = capsys.readouterr().out
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 100
        pis = [float(r[1]) for r in rows]
        gaps = [float(r[3]) for r in rows]
        assert pis == sorted(pis)
        assert all(g >= 0 for g in gaps)
        assert all(b >= a for a, b in zip(gaps[1:], gaps))  # gap never increases
        assert gaps[-1] < gaps[0]  # and visibly shrinks over the plotted range
    with capsys.disabled():
        print("criterion 10 PASS — curve data for theta 0.40/0.45, k<=100: monotone accuracy, shrinking gap")
