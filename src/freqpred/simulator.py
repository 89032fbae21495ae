"""Seeded Monte Carlo cross-check for the analytic accuracy results.

Simulates exchangeable binary processes, applies an arbitrary prediction
array, and reports per-step empirical accuracy with standard errors.

Reproducibility contract
------------------------
Every random draw is a pure function of ``(seed, replication, slot)``,
produced by a counter-based SplitMix64-style mixer.  Replication r's
substream uses fixed slot positions:

* slot 0                  -- inverse-CDF draw of theta (prior sources only)
* slots 1..horizon+1      -- the Bernoulli(theta) outcome sequence; the
                             prediction at step k is scored against the
                             outcome in slot 1+k
* slot horizon + 2 + k    -- prediction draw at step k, read only where
                             the array entry phi, as a float, lies strictly
                             between 0 and 1: every draw is below 1, so
                             phi == 1.0 predicts one and phi == 0.0 zero
                             without one (for the frequent-outcome array,
                             only the tie cell of each even step draws)

Because nothing is sequential, reports are bit-identical for any chunk
size or degree of parallelism, and adding replications never perturbs
existing ones.  A chunk is the set of replications that share one pass
of numpy operations.  The default of 2^15 keeps a chunk's working vectors
(256 KiB each) inside a core's L2 cache: at 280,000 replications and 71
steps, 2^18-replication chunks ran ~1.7x slower on a 2-vCPU Xeon VM.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import NamedTuple, Union

import numpy as np

from .prediction import PredictionArray, Prior

ThetaSource = Union[int, float, Fraction, Prior]

__all__ = [
    "SimulationConfig",
    "StepAccuracy",
    "SimulationReport",
    "CovarianceEstimate",
    "simulate_accuracy",
    "simulate_covariance",
]

DEFAULT_CHUNK = 1 << 15

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_REP_STRIDE = np.uint64(0x9E3779B97F4A7C15)
_U53 = np.uint64(11)


def _mix(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finaliser, applied to ``z`` in place."""
    z ^= z >> np.uint64(30)
    z *= _M1
    z ^= z >> np.uint64(27)
    z *= _M2
    z ^= z >> np.uint64(31)
    return z


def _keys(seed: int, reps: np.ndarray) -> np.ndarray:
    """The substream key of each replication, mixed once and read by every slot."""
    return _mix(np.uint64(seed) + reps * _REP_STRIDE)


def _draws(keys: np.ndarray, slot: int) -> np.ndarray:
    """Slot ``slot`` of the substreams with these keys, as 53-bit integers m:
    the U(0,1) draw is u = m * 2**-53."""
    # slot offset wrapped in Python ints: numpy warns on scalar overflow
    offset = np.uint64((slot * 0xD1B54A32D192ED03) & 0xFFFFFFFFFFFFFFFF)
    bits = _mix(keys + offset)
    bits >>= _U53
    return bits


def _cutoffs(p: np.ndarray) -> np.ndarray:
    """Integers c with u = m * 2**-53 < p exactly when m < c.

    p * 2**53 is exact for p in [0, 1], so c = ceil(p * 2**53) <= 2**53;
    comparing integers skips the slow uint64-to-float conversion of m.
    """
    return np.ceil(p * 2.0**53).astype(np.uint64)


def _check_theta_source(source: ThetaSource) -> None:
    if not isinstance(source, Prior) and not 0 <= source <= 1:
        raise ValueError(f"theta must lie in [0, 1], got {source}")


class _SimulationConfig(NamedTuple):
    theta_source: ThetaSource
    horizon: int
    replications: int
    seed: int


class SimulationConfig(_SimulationConfig):
    """One simulation run: theta source, horizon, replication count, seed."""

    __slots__ = ()

    def __new__(
        cls, theta_source: ThetaSource, horizon: int, replications: int, seed: int
    ) -> SimulationConfig:
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if replications < 1:
            raise ValueError(f"replications must be >= 1, got {replications}")
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        _check_theta_source(theta_source)
        return tuple.__new__(cls, (theta_source, horizon, replications, seed))

    @classmethod
    def _make(cls, iterable) -> SimulationConfig:
        return cls(*iterable)  # so _replace checks too


class StepAccuracy(NamedTuple):
    """Empirical accuracy of the prediction made after k observed trials."""

    k: int
    hits: int
    trials: int
    estimate: float
    stderr: float


class SimulationReport(NamedTuple):
    steps: tuple[StepAccuracy, ...]


def _draw_thetas(source: ThetaSource, keys: np.ndarray) -> np.ndarray:
    if not isinstance(source, Prior):
        return np.full(keys.shape, float(source))
    u = _draws(keys, 0) * 2.0**-53
    if source.kind == "beta":
        from scipy.special import betaincinv

        return betaincinv(float(source.alpha), float(source.beta), u)
    values = np.array([float(v) for v, _ in source.atoms])
    cumulative = np.cumsum([float(w) for _, w in source.atoms])
    cumulative[-1] = 1.0  # guard the top bin against float round-off
    return values[np.searchsorted(cumulative, u, side="right")]


def _phi_rows(
    array: PredictionArray, horizon: int
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
    """Rows 0..horizon-1 of ``array`` as the simulator reads them: for the
    float value phi of each entry, its cutoff, whether phi == 1.0, and
    whether 0 < phi < 1 (None for a row with no such entry)."""
    if array.k_max < horizon - 1:
        raise ValueError(
            f"prediction array covers rows 0..{array.k_max}, "
            f"but horizon {horizon} needs rows 0..{horizon - 1}"
        )
    entries = list(chain.from_iterable(array.rows[:horizon]))
    # float() each distinct entry object once: frequent_outcome_array's
    # rows share three constants, and Fraction.__float__ dominates otherwise
    ids = np.fromiter(map(id, entries), dtype=np.uint64, count=len(entries))
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    phi = np.array([float(entries[i]) for i in first])[inverse]
    cut, ones, fractional = _cutoffs(phi), phi == 1.0, (0.0 < phi) & (phi < 1.0)
    bounds = [k * (k + 1) // 2 for k in range(horizon + 1)]  # row k is bounds[k]:bounds[k + 1]
    any_fractional = np.logical_or.reduceat(fractional, bounds[:-1]).tolist()
    return [
        (cut[lo:hi], ones[lo:hi], fractional[lo:hi] if some else None)
        for lo, hi, some in zip(bounds, bounds[1:], any_fractional)
    ]


def simulate_accuracy(
    config: SimulationConfig,
    array: PredictionArray,
    chunk_size: int = DEFAULT_CHUNK,
) -> SimulationReport:
    """Empirical per-step accuracy of ``array`` under the configured process.

    Each replication draws theta (fixed value or one draw from the prior),
    then a Bernoulli(theta) outcome sequence.  At step k the prediction of
    trial k+1 is Bernoulli(phi[k, n_k]) with n_k the running count of ones,
    and a hit is recorded when prediction and outcome agree.  ``chunk_size``
    only bounds memory; it never changes the result.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    horizon = config.horizon
    rows = _phi_rows(array, horizon)
    hits = [0] * horizon
    total = config.replications
    for start in range(0, total, chunk_size):
        reps = np.arange(start, min(start + chunk_size, total), dtype=np.uint64)
        keys = _keys(config.seed, reps)
        theta_cut = _cutoffs(_draw_thetas(config.theta_source, keys))
        counts = np.zeros(reps.shape, dtype=np.int64)
        for k, (phi_cut, ones, split) in enumerate(rows):
            outcome = _draws(keys, 1 + k) < theta_cut
            # m < 2**53, so phi == 1.0 predicts one and phi == 0.0 zero; only
            # the cells in between read their prediction slot
            predicted = ones[counts]
            if split is not None:
                cells = np.flatnonzero(split[counts])
                if cells.size:
                    drawn = _draws(keys[cells], horizon + 2 + k)
                    predicted[cells] = drawn < phi_cut[counts[cells]]
            hits[k] += int(np.count_nonzero(predicted == outcome))
            counts += outcome
    steps = []
    for k, h in enumerate(hits):
        estimate = h / total
        stderr = math.sqrt(estimate * (1.0 - estimate) / total)
        steps.append(StepAccuracy(k, h, total, estimate, stderr))
    return SimulationReport(tuple(steps))


class CovarianceEstimate(NamedTuple):
    """Sample covariance of two trial indicators, with its standard error."""

    estimate: float
    stderr: float
    replications: int


def simulate_covariance(
    prior: ThetaSource,
    i: int,
    j: int,
    replications: int,
    seed: int,
    chunk_size: int = DEFAULT_CHUNK,
) -> CovarianceEstimate:
    """Sample cov(x_i, x_j) across replications that redraw theta each time.

    Each replication draws theta from the prior, then trials i and j
    independently given theta, read from outcome slots i and j of the
    layout in the module docstring (trial i >= 1 is slot i).  The estimate
    converges to the variance of theta under the prior (zero for a fixed
    theta); the reported standard error is the plug-in error of the mean
    cross-deviation term.
    """
    _check_theta_source(prior)
    if i == j:
        raise ValueError("covariance requires two distinct trial indices")
    if i < 1 or j < 1:
        raise ValueError(f"trial indices start at 1 (slot 0 draws theta), got i={i}, j={j}")
    if replications < 2:
        raise ValueError(f"need at least 2 replications, got {replications}")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    sum_x = sum_y = sum_xy = 0
    for start in range(0, replications, chunk_size):
        reps = np.arange(start, min(start + chunk_size, replications), dtype=np.uint64)
        keys = _keys(seed, reps)
        theta_cut = _cutoffs(_draw_thetas(prior, keys))
        x = _draws(keys, i) < theta_cut
        y = _draws(keys, j) < theta_cut
        sum_x += int(np.count_nonzero(x))
        sum_y += int(np.count_nonzero(y))
        sum_xy += int(np.count_nonzero(x & y))
    r = replications
    mean_x = sum_x / r
    mean_y = sum_y / r
    estimate = (sum_xy - r * mean_x * mean_y) / (r - 1)
    # indicators square to themselves, so Var of the cross-deviation term
    # needs only the three accumulated sums
    mean_t2 = (
        (1 - 2 * mean_x) * (1 - 2 * mean_y) * (sum_xy / r)
        + (1 - 2 * mean_x) * mean_y**2 * mean_x
        + mean_x**2 * (1 - 2 * mean_y) * mean_y
        + mean_x**2 * mean_y**2
    )
    variance_t = max(mean_t2 - estimate**2, 0.0)
    return CovarianceEstimate(estimate, math.sqrt(variance_t / r), replications)
