"""Exact analysis of most-frequent-outcome prediction for binary processes.

Computes the probability that predicting the historically most frequent
outcome is correct, as a function of the underlying success probability
and the number of observed trials; provides Bayesian posterior prediction
under beta/discrete priors and a deterministic Monte Carlo cross-check.
"""

from .accuracy import (
    CurvePoint,
    PiPolynomial,
    Theta,
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
from .combinatorics import (
    CoefficientTable,
    alpha_coefficient,
    alpha_row,
    binomial,
    catalan,
    catalan_gf,
    catalan_series,
    w_coefficient,
)
from .prediction import (
    CountStatistic,
    ImpossibleEvidenceError,
    PredictionArray,
    Prior,
    beta_prior,
    conditional_accuracy,
    discrete_prior,
    frequent_outcome_array,
    optimal_array,
    posterior_correct_probability,
    posterior_mean,
    prior_covariance,
)
from .simulator import (
    CovarianceEstimate,
    SimulationConfig,
    SimulationReport,
    StepAccuracy,
    simulate_accuracy,
    simulate_covariance,
)

__version__ = "0.1.0"
