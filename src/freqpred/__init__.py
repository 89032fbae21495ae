"""Exact analysis of most-frequent-outcome prediction for binary processes.

Computes the probability that predicting the historically most frequent
outcome is correct, as a function of the underlying success probability
and the number of observed trials; provides Bayesian posterior prediction
under beta/discrete priors and a deterministic Monte Carlo cross-check.

The package root exports only ``__version__``; import from the submodules
(``freqpred.accuracy``, ``freqpred.prediction``, ...), so that each import
loads only what its module needs.
"""

__version__ = "0.1.0"
