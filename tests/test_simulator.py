"""Monte Carlo oracle: determinism, agreement with the analytic accuracy."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from freqpred.accuracy import accuracy_recursive
from freqpred.prediction import (
    PredictionArray,
    beta_prior,
    discrete_prior,
    frequent_outcome_array,
    prior_covariance,
)
from freqpred.simulator import (
    SimulationConfig,
    simulate_accuracy,
    simulate_covariance,
)

HALF = Fraction(1, 2)


def all_ones_array(k_max: int) -> PredictionArray:
    return PredictionArray(tuple(tuple(Fraction(1) for _ in range(k + 1)) for k in range(k_max + 1)))


class TestConfigValidation:
    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            SimulationConfig(theta_source=0.5, horizon=0, replications=10, seed=1)

    def test_bad_replications(self):
        with pytest.raises(ValueError):
            SimulationConfig(theta_source=0.5, horizon=5, replications=0, seed=1)

    def test_bad_seed(self):
        with pytest.raises(ValueError):
            SimulationConfig(theta_source=0.5, horizon=5, replications=10, seed=2**64)

    def test_bad_theta(self):
        with pytest.raises(ValueError):
            SimulationConfig(theta_source=1.5, horizon=5, replications=10, seed=1)

    def test_array_must_cover_horizon(self):
        config = SimulationConfig(theta_source=0.5, horizon=6, replications=10, seed=1)
        with pytest.raises(ValueError):
            simulate_accuracy(config, frequent_outcome_array(3))


class TestDeterminism:
    config = SimulationConfig(theta_source=0.3, horizon=12, replications=20_000, seed=777)

    def test_identical_reports(self):
        array = frequent_outcome_array(12)
        assert simulate_accuracy(self.config, array) == simulate_accuracy(self.config, array)

    def test_chunk_size_never_matters(self):
        small = SimulationConfig(theta_source=0.3, horizon=12, replications=2_000, seed=777)
        array = frequent_outcome_array(12)
        baseline = simulate_accuracy(small, array, chunk_size=2_000)
        for chunk in (1, 7, 1024, 1999):
            assert simulate_accuracy(small, array, chunk_size=chunk) == baseline

    def test_different_seeds_differ(self):
        array = frequent_outcome_array(12)
        other = SimulationConfig(theta_source=0.3, horizon=12, replications=20_000, seed=778)
        assert simulate_accuracy(self.config, array) != simulate_accuracy(other, array)


class TestAccuracyEstimates:
    def test_degenerate_theta_one(self):
        config = SimulationConfig(theta_source=1.0, horizon=6, replications=5_000, seed=11)
        report = simulate_accuracy(config, frequent_outcome_array(6))
        assert all(step.estimate == 1.0 for step in report.steps[1:])
        first = report.steps[0]
        assert abs(first.estimate - 0.5) <= 3 * first.stderr

    def test_fair_theta(self):
        config = SimulationConfig(theta_source=0.5, horizon=10, replications=100_000, seed=5)
        report = simulate_accuracy(config, frequent_outcome_array(10))
        for step in report.steps:
            assert abs(step.estimate - 0.5) <= 3 * step.stderr

    def test_report_shape(self):
        config = SimulationConfig(theta_source=0.25, horizon=4, replications=300, seed=3)
        report = simulate_accuracy(config, frequent_outcome_array(4))
        assert [s.k for s in report.steps] == [0, 1, 2, 3]
        for step in report.steps:
            assert 0 <= step.hits <= step.trials == 300
            assert 0.0 <= step.estimate <= 1.0

    def test_tracks_analytic_accuracy(self):
        theta = 0.3
        config = SimulationConfig(theta_source=theta, horizon=25, replications=200_000, seed=123)
        report = simulate_accuracy(config, frequent_outcome_array(25))
        inside = sum(
            abs(step.estimate - accuracy_recursive(step.k, theta)) <= 3 * step.stderr
            for step in report.steps
        )
        assert inside >= 0.95 * len(report.steps)

    def test_exact_rational_theta_accepted(self):
        config = SimulationConfig(
            theta_source=Fraction(9, 20), horizon=5, replications=1_000, seed=2
        )
        report = simulate_accuracy(config, frequent_outcome_array(5))
        assert len(report.steps) == 5

    def test_full_scale_oracle_agreement(self):
        # million-replication sweep: at least 95% of the first 41 steps
        # must land inside the analytic 3-sigma band for each bias level
        array = frequent_outcome_array(41)
        for theta in (0.1, 0.3, 0.45):
            config = SimulationConfig(
                theta_source=theta, horizon=41, replications=10**6, seed=4242
            )
            report = simulate_accuracy(config, array)
            inside = sum(
                abs(step.estimate - accuracy_recursive(step.k, theta)) <= 3 * step.stderr
                for step in report.steps
            )
            assert inside >= math.ceil(0.95 * len(report.steps))


class TestPriorDrawnTheta:
    def test_exchangeable_marginal_matches_prior_mean(self):
        # predicting 1 always makes every step's hit rate the marginal
        # P(x = 1), which for an exchangeable process is the prior mean
        prior = beta_prior(1, 3)
        config = SimulationConfig(theta_source=prior, horizon=8, replications=200_000, seed=31)
        report = simulate_accuracy(config, all_ones_array(8))
        mean = float(prior.mean())
        for step in report.steps:
            assert abs(step.estimate - mean) <= 3 * step.stderr

    def test_discrete_prior_draws(self):
        prior = discrete_prior([(Fraction(1, 10), HALF), (Fraction(9, 10), HALF)])
        config = SimulationConfig(theta_source=prior, horizon=6, replications=100_000, seed=17)
        report = simulate_accuracy(config, all_ones_array(6))
        for step in report.steps:
            assert abs(step.estimate - 0.5) <= 3 * step.stderr


class TestCovariance:
    def test_requires_distinct_indices(self):
        with pytest.raises(ValueError):
            simulate_covariance(beta_prior(1, 1), 2, 2, 1000, 1)

    def test_degenerate_prior_gives_independence(self):
        prior = discrete_prior([(HALF, Fraction(1))])
        result = simulate_covariance(prior, 1, 2, 100_000, 8)
        assert abs(result.estimate) <= 3 / result.replications**0.5

    def test_uniform_beta_matches_prior_covariance(self):
        result = simulate_covariance(beta_prior(1, 1), 1, 2, 200_000, 99)
        target = float(prior_covariance(beta_prior(1, 1)))
        assert abs(result.estimate - target) <= 3 * result.stderr

    def test_two_atom_matches_prior_covariance(self):
        prior = discrete_prior([(Fraction(2, 5), HALF), (Fraction(3, 5), HALF)])
        result = simulate_covariance(prior, 3, 9, 200_000, 12)
        assert abs(result.estimate - float(prior_covariance(prior))) <= 3 * result.stderr

    def test_symmetric_priors_never_significantly_negative(self):
        battery = [
            beta_prior(Fraction(1, 2), Fraction(1, 2)),
            beta_prior(2, 2),
            discrete_prior([(Fraction(1, 10), HALF), (Fraction(9, 10), HALF)]),
            discrete_prior([(HALF, Fraction(1))]),
        ]
        for index, prior in enumerate(battery):
            result = simulate_covariance(prior, 1, 2, 50_000, 40 + index)
            assert result.estimate >= -3 * max(result.stderr, 1e-12)

    def test_reads_the_requested_trials(self):
        prior = beta_prior(1, 1)
        first_two = simulate_covariance(prior, 1, 2, 10_000, 7)
        assert simulate_covariance(prior, 1, 3, 10_000, 7) != first_two
        swapped = simulate_covariance(prior, 2, 1, 10_000, 7)
        # the same draws; only the float summation order differs
        assert swapped.estimate == pytest.approx(first_two.estimate, rel=1e-12)
        assert swapped.stderr == pytest.approx(first_two.stderr, rel=1e-12)

    def test_rejects_the_theta_slot(self):
        with pytest.raises(ValueError):
            simulate_covariance(beta_prior(1, 1), 0, 1, 1000, 1)

    def test_deterministic(self):
        first = simulate_covariance(beta_prior(1, 1), 1, 2, 10_000, 7)
        second = simulate_covariance(beta_prior(1, 1), 1, 2, 10_000, 7, chunk_size=333)
        assert first == second
