"""Seeded Monte Carlo cross-check for the analytic accuracy results.

Simulates exchangeable binary processes, applies an arbitrary prediction
array, and reports per-step empirical accuracy with standard errors.

Reproducibility contract
------------------------
Every random draw is a pure function of ``(seed, replication, slot)``,
produced by a counter-based SplitMix64-style mixer.  Replication r's
substream uses fixed slot positions:

* slot 0                  -- inverse-CDF draw of theta (discrete priors
                             only)
* slots 1..horizon        -- the outcome sequence: the prediction at step
                             k is scored against the outcome in slot 1+k,
                             which is one when its draw m is below a
                             cutoff c (``_cutoffs``): theta's for a fixed
                             theta or a discrete prior's drawn atom, and
                             for a beta(alpha, beta) prior the Polya urn's
                             c_k[n] = ceil((alpha+n) 2^53 / (alpha+beta+k))
                             at the running count n, exact on the prior's
                             dyadic value
* slot horizon + 2 + k    -- prediction draw at step k, which decides a
                             prediction only where 0 < phi < 1: every
                             draw is below 1, so its cutoff predicts one
                             at phi == 1.0 and zero at phi == 0.0

A beta prior is simulated as a Polya urn (Blackwell & MacQueen, Ann.
Statist. 1, 1973): given n ones in k trials, the next trial is one with
probability (alpha+n)/(alpha+beta+k), the law of an exchangeable sequence
whose de Finetti measure is the prior.  Every statistic the simulator
reports depends only on the sequence, so theta is never drawn, and no
simulated number calls a libm function.  Because nothing is sequential
across replications, reports are bit-identical for any chunk size or
degree of parallelism, and adding replications never perturbs existing
ones.  A chunk is the set of replications that share one pass of numpy
operations.  ``DEFAULT_CHUNK``, 2^15, keeps a chunk's working vectors
(256 KiB each) inside a core's L2 cache: at 280,000 replications and 71
steps, 2^18-replication chunks ran ~1.7x slower on a 2-vCPU Xeon VM.

Each chunk's prologue writes into its own vectors: the keys are mixed in
place in the replication indices.  A beta prior's step reads its cutoffs
c_k[n] by gathering through an intp copy of the running counts (a gather
through the narrow counts costs ~4x as much per element), and so does a
prediction row kept as a table of cutoffs; a row kept as cuts is read by
comparing the counts with them.  The counts are kept in the narrowest
unsigned dtype that holds the horizon (uint8 up to 255, then uint16).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterator, NamedTuple, Union

import numpy as np

from .prediction import PredictionArray, Prior, _CutRows, _exact

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

# 0-d arrays: a ufunc call given a numpy scalar operand costs ~0.3 us more
_M1 = np.array(0xBF58476D1CE4E5B9, np.uint64)
_M2 = np.array(0x94D049BB133111EB, np.uint64)
_REP_STRIDE = np.array(0x9E3779B97F4A7C15, np.uint64)
_S30, _S27, _S31, _U53 = (np.array(shift, np.uint64) for shift in (30, 27, 31, 11))


def _mix(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The SplitMix64 finaliser, applied to ``z`` in place; ``scratch``, of
    z's shape, holds each shifted copy."""
    np.bitwise_xor(z, np.right_shift(z, _S30, out=scratch), out=z)
    np.multiply(z, _M1, out=z)
    np.bitwise_xor(z, np.right_shift(z, _S27, out=scratch), out=z)
    np.multiply(z, _M2, out=z)
    np.bitwise_xor(z, np.right_shift(z, _S31, out=scratch), out=z)
    return z


def _keys(seed: int, reps: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The substream key of each replication, mixed once and read by every
    slot: made in place in ``reps``, which it overwrites."""
    np.multiply(reps, _REP_STRIDE, out=reps)
    return _mix(np.add(reps, np.uint64(seed), out=reps), scratch)


def _draws(keys: np.ndarray, slot: int, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Slot ``slot`` of the substreams with these keys, written to ``out`` as
    53-bit integers m: the U(0,1) draw is u = m * 2**-53."""
    # slot offset wrapped in Python ints: numpy warns on scalar overflow
    offset = np.array((slot * 0xD1B54A32D192ED03) & 0xFFFFFFFFFFFFFFFF, np.uint64)
    _mix(np.add(keys, offset, out=out), scratch)
    return np.right_shift(out, _U53, out=out)


def _cutoffs(p: np.ndarray | float) -> np.ndarray:
    """Integers c with u = m * 2**-53 < p exactly when m < c.

    p * 2**53 is exact for p in [0, 1], so c = ceil(p * 2**53) <= 2**53;
    comparing integers skips the slow uint64-to-float conversion of m.
    """
    return np.asarray(np.ceil(p * 2.0**53), np.uint64)


def _check_theta_source(source: ThetaSource) -> None:
    if not isinstance(source, Prior) and not 0 <= source <= 1:
        raise ValueError(f"theta must lie in [0, 1], got {source}")


def _integer(name: str, value) -> int:
    """``value`` as an int, numpy integers included; a float is refused, not
    truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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
        horizon = _integer("horizon", horizon)
        replications = _integer("replications", replications)
        seed = _integer("seed", seed)
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


def _urn_cutoffs(prior: Prior, steps: int) -> list[np.ndarray]:
    """The Polya urn's outcome cutoffs under a beta prior: for k < steps,
    c_k[n] = ceil((alpha+n) 2^53 / (alpha+beta+k)) for n = 0..k, so that a
    draw m is below c_k[n] with the predictive probability
    (alpha+n)/(alpha+beta+k) of a one after n ones in k trials, rounded up
    to a multiple of 2^-53.  Each is an exact integer ceiling on the
    prior's dyadic value."""
    exact = _exact(prior)
    a, b = exact.alpha.as_integer_ratio()
    c, e = exact.beta.as_integer_ratio()
    # with alpha = a/b and beta = c/e, c_k[n] = ceil((low + n step) / den_k),
    # where low = a e 2^53, step = b e 2^53 and den_k = a e + c b + k b e;
    # ceil(x / d) is (x + d - 1) // d, one integer division per cutoff
    low, step = (a * e) << 53, (b * e) << 53
    rows = []
    for k in range(steps):
        den = a * e + c * b + k * b * e
        start = low + den - 1
        cutoffs = [x // den for x in range(start, start + (k + 1) * step, step)]
        rows.append(np.array(cutoffs, np.uint64))
    return rows


def _theta_cutoffs(
    source: ThetaSource, keys: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """The ``_cutoffs`` of each replication's theta: one for a fixed source,
    else those of the discrete prior's inverse-CDF image of slot 0 (``out``
    and ``scratch`` are overwritten)."""
    if not isinstance(source, Prior):
        return _cutoffs(float(source))
    m = _draws(keys, 0, out, scratch)
    cumulative = np.cumsum([float(w) for _, w in source.atoms])
    cumulative[-1] = 1.0  # guard the top bin against float round-off
    # u = m 2^-53 < c exactly when m < _cutoffs(c), so the bins need no u
    bins = np.searchsorted(_cutoffs(cumulative), m, side="right")
    return _cutoffs(np.array([float(v) for v, _ in source.atoms]))[bins]


def _phi_rows(array: PredictionArray, horizon: int) -> list[tuple[int, int] | np.ndarray]:
    """Rows 0..horizon-1 of ``array`` as the simulator reads them: row k as
    its cuts ``(zeros, ones)``, entries 0 below ``zeros``, 1/2 up to
    ``ones`` and 1 from there on, or else as the ``_cutoffs`` of its
    entries, a uint64 table indexed by the count n.  A row of ``_CutRows``
    is read in O(1); a row a user gives is cuts when its entries, as
    floats, rise through 0.0, 0.5 and 1.0 alone.
    """
    if array.k_max < horizon - 1:
        raise ValueError(
            f"prediction array covers rows 0..{array.k_max}, "
            f"but horizon {horizon} needs rows 0..{horizon - 1}"
        )
    if isinstance(array.rows, _CutRows):
        return list(array.rows.cuts[:horizon])
    rows = []
    for row in array.rows[:horizon]:
        phi = [float(entry) for entry in row]
        if phi == sorted(phi) and {0.0, 0.5, 1.0}.issuperset(phi):
            rows.append((phi.count(0.0), len(phi) - phi.count(1.0)))
        else:
            rows.append(_cutoffs(np.array(phi)))
    return rows


def _chunks(total: int, *dtypes) -> Iterator[tuple[np.ndarray, list[np.ndarray]]]:
    """Each chunk's replication indices, ``DEFAULT_CHUNK`` at a time, with
    one buffer per dtype for its vectors.  The buffers are allocated once
    per call, and the per-step loop's own operations write into them: glibc
    serves chunk-sized temporaries from freshly mapped pages, which fault
    on first touch.  A chunk still allocates its indices (mixed in place
    into the keys), a discrete prior's theta cutoffs, and the gathers of
    the replications whose count falls in a cut row's run of 1/2.  The
    last chunk, which may be shorter, gets views of the buffers' first
    entries."""
    buffers = [np.empty(min(DEFAULT_CHUNK, total), dtype) for dtype in dtypes]
    for start in range(0, total, DEFAULT_CHUNK):
        reps = np.arange(start, min(start + DEFAULT_CHUNK, total), dtype=np.uint64)
        yield reps, [buffer[: reps.size] for buffer in buffers]


def simulate_accuracy(config: SimulationConfig, array: PredictionArray) -> SimulationReport:
    """Empirical per-step accuracy of ``array`` under the configured process.

    Each replication's outcomes are Bernoulli(theta) given theta, a fixed
    value or a discrete prior's draw; under a beta prior they come from the
    Polya urn, whose sequences have the same law.  At step k the prediction
    of trial k+1 is Bernoulli(phi[k, n_k]) with n_k the running count of
    ones, and a hit is recorded when prediction and outcome agree.
    """
    horizon = config.horizon
    rows = _phi_rows(array, horizon)
    hits = [0] * horizon
    total = config.replications
    source = config.theta_source
    half = _cutoffs(0.5)
    # counts never exceed the horizon, and neither does any cut
    dtypes = [np.uint64, np.uint64, np.min_scalar_type(horizon), bool, bool, bool]
    urn_cut = None
    if isinstance(source, Prior) and source.kind == "beta":
        urn_cut = _urn_cutoffs(source, horizon)
    if urn_cut is not None or not all(isinstance(row, tuple) for row in rows):
        dtypes.append(np.intp)  # the counts' mirror that gathers cutoff tables
    chunks = _chunks(total, *dtypes)
    for reps, (bits, scratch, counts, outcome, predicted, inside, *mirror) in chunks:
        running = (counts, *mirror)
        keys = _keys(config.seed, reps, scratch)
        if urn_cut is None:
            theta_cut = _theta_cutoffs(source, keys, bits, scratch)
        for buffer in running:
            buffer.fill(0)
        for k, row in enumerate(rows):
            drawn = _draws(keys, 1 + k, bits, scratch)
            if urn_cut is not None:
                # mode="clip" (the counts never pass k): the default mode
                # buffers a take's output
                theta_cut = np.take(urn_cut[k], mirror[0], out=scratch, mode="clip")
            np.less(drawn, theta_cut, out=outcome)
            slot = horizon + 2 + k
            if not isinstance(row, tuple):
                drawn = _draws(keys, slot, bits, scratch)
                np.less(drawn, np.take(row, mirror[0], out=scratch, mode="clip"), out=predicted)
            elif row == (0, k + 1):
                # every entry is 1/2: the draw is made in place, with no gather
                np.less(_draws(keys, slot, bits, scratch), half, out=predicted)
            else:
                # m < 2**53, so only the cells of 1/2 read their prediction slot
                zeros, ones = row
                np.greater_equal(counts, ones, out=predicted)
                if zeros < ones:
                    np.greater_equal(counts, zeros, out=inside)
                    cells = np.not_equal(inside, predicted, out=inside).nonzero()[0]
                    if cells.size:
                        n = cells.size
                        drawn = _draws(keys[cells], slot, bits[:n], scratch[:n])
                        predicted[cells] = drawn < half
            hits[k] += int(np.count_nonzero(np.equal(predicted, outcome, out=inside)))
            for buffer in running:
                np.add(buffer, outcome, out=buffer)
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


def simulate_covariance(prior: ThetaSource, replications: int, seed: int) -> CovarianceEstimate:
    """Sample covariance of two trials across replications that redraw
    theta each time: the estimate of ``prior_covariance(prior)``.

    An exchangeable sequence has one covariance for every pair of trials,
    so each replication reads the first two, x and y, outcome slots 1 and 2
    of the layout in the module docstring.  Two ``simulate_accuracy`` runs
    at horizon 2 on the same seed draw them alike and give the three sums:
    the array ((1,), (1, 1)) predicts a one at both steps, so its hits are
    sum x and sum y, and ((1,), (0, 1)) repeats the first outcome, so its
    second step's hits count the replications where x == y, and
    sum xy = (agree - r + sum x + sum y) / 2.  The estimate converges to the
    variance of theta under the prior (zero for a fixed theta); the
    reported standard error is the plug-in error of the mean
    cross-deviation term.
    """
    if replications < 2:
        raise ValueError(f"need at least 2 replications, got {replications}")
    config = SimulationConfig(prior, 2, replications, seed)
    ones = simulate_accuracy(config, PredictionArray(((1,), (1, 1))))
    repeat = simulate_accuracy(config, PredictionArray(((1,), (0, 1))))
    sum_x, sum_y = (step.hits for step in ones.steps)
    r = replications
    sum_xy = (repeat.steps[1].hits - r + sum_x + sum_y) // 2
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
