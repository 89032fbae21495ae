"""Seeded Monte Carlo cross-check for the analytic accuracy results.

Simulates exchangeable binary processes, applies an arbitrary prediction
array, and reports per-step empirical accuracy with standard errors.

Reproducibility contract
------------------------
Every random draw is a pure function of ``(seed, replication, slot)``,
produced by a counter-based SplitMix64-style mixer.  Replication r's
substream uses fixed slot positions:

* slot 0                  -- inverse-CDF draw of theta (prior sources only;
                             a beta prior's quantile is ``_beta_quantile``)
* slots 1..horizon+1      -- the Bernoulli(theta) outcome sequence; the
                             prediction at step k is scored against the
                             outcome in slot 1+k
* slot horizon + 2 + k    -- prediction draw at step k, read only where
                             the array entry phi, as a float, lies strictly
                             between 0 and 1: every draw is below 1, so
                             phi == 1.0 predicts one and phi == 0.0 zero
                             without one (for the frequent-outcome array,
                             only the tie cell of each even step draws)

A prior's theta is then a pure function of ``(seed, replication)``: the
beta quantile takes Halley steps for each draw until that draw's own
residual is small, so no draw's theta depends on which others share its
call.  Because nothing is sequential, reports are bit-identical for any
chunk size or degree of parallelism, and adding replications never
perturbs existing ones.  A chunk is the set of replications that share
one pass of numpy operations.  The default of 2^15 keeps a chunk's
working vectors (256 KiB each) inside a core's L2 cache: at 280,000
replications and 71 steps, 2^18-replication chunks ran ~1.7x slower on a
2-vCPU Xeon VM.

Each chunk's prologue writes into its own vectors: the keys are mixed in
place in the replication indices, and a beta prior's theta cutoffs in
place in the drawn theta.  The quantile solves its draws in blocks of
``_QUANTILE_BLOCK`` (2^12), so its Halley temporaries do not grow with
the chunk.

The step loop reads each prediction row as runs of counts, not as a
table: the replications whose running count lies in a run of 1.0
entries predict one, and those in a run of entries strictly between 0
and 1 read their prediction slot.  Comparing the counts with a run's
bounds replaces a gather through the counts.  The counts are kept in the
narrowest unsigned dtype that holds the horizon (uint8 up to 255, then
uint16), which every run bound fits too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, count, islice
from operator import is_not
from typing import Iterator, NamedTuple, Union

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
# Beta priors the simulator draws from: the quantile's continued fraction
# needs ~2 sqrt(max(a, b)) levels (~2,000 at the top) and loses ~log2(a + b)
# bits, and below the bottom ln B(a, b) cancels away the tail near u = 1.
BETA_SHAPE_RANGE = (2.0**-20, 2.0**20)

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_REP_STRIDE = np.uint64(0x9E3779B97F4A7C15)
_S30, _S27, _S31, _U53 = np.uint64(30), np.uint64(27), np.uint64(31), np.uint64(11)


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
    offset = np.uint64((slot * 0xD1B54A32D192ED03) & 0xFFFFFFFFFFFFFFFF)
    _mix(np.add(keys, offset, out=out), scratch)
    return np.right_shift(out, _U53, out=out)


def _cutoffs(p: np.ndarray | float) -> np.ndarray | np.uint64:
    """Integers c with u = m * 2**-53 < p exactly when m < c.

    p * 2**53 is exact for p in [0, 1], so c = ceil(p * 2**53) <= 2**53;
    comparing integers skips the slow uint64-to-float conversion of m.
    """
    return np.ceil(p * 2.0**53).astype(np.uint64)


def _check_theta_source(source: ThetaSource) -> None:
    if isinstance(source, Prior):
        low, high = BETA_SHAPE_RANGE
        shapes = (source.alpha, source.beta)
        if source.kind == "beta" and not all(low <= shape <= high for shape in shapes):
            raise ValueError(
                f"beta prior parameters must lie in [2**-20, 2**20] to be simulated, "
                f"got ({source.alpha}, {source.beta})"
            )
    elif not 0 <= source <= 1:
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


# Each draw's Halley steps in the beta quantile stop after a step whose
# Newton part moves ln I by no more than the tolerance (measured in ln I, it
# holds wherever x lies, even near 1 where t = ln x is tiny): the error left
# is of order its cube, far below 2**-53.  The cap only bounds the loop.
_HALLEY_STEPS = 20
_STEP_TOLERANCE = 2.0**-20
# draws per call of the Halley loop, whose ~15 temporaries are each this long
_QUANTILE_BLOCK = 1 << 12


def _continued_fraction(a: float, b: float) -> tuple[list[float], float]:
    """The coefficients c_1..c_n of r(x) = 1 + c_1 x / (1 + c_2 x / (1 + ...)),
    the continued fraction in I_x(a, b) = x^a (1-x)^b / (a B(a, b) r(x))
    (DLMF 8.17.22), and ln I at the split point x0 = (a+1)/(a+b+2).

    Below x0 the fraction converges faster the smaller x is, so n is the
    depth at which its forward evaluation at x0 (Lentz, Appl. Opt. 1976)
    stops changing in double precision.
    """
    x0 = (a + 1) / (a + b + 2)
    coefficients = []
    r, c, d = 1.0, 1.0, 0.0
    for j in count(1):
        m = j // 2
        if j % 2:
            cj = -(a + m) * (a + b + m) / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            cj = m * (b - m) / ((a + 2 * m - 1) * (a + 2 * m))
        coefficients.append(cj)
        d = 1.0 / (1.0 + cj * x0 * d)
        c = 1.0 + cj * x0 / c
        r *= c * d
        if abs(c * d - 1.0) <= 2.0**-53:
            break
    log_cdf = a * math.log(x0) + b * math.log1p(-x0) - _log_beta(a, b) - math.log(a * r)
    return coefficients, log_cdf


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _fraction(coefficients: list[float], x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """r(x) into ``out``, summed from the tail: r <- 1 + c_j x / r."""
    out.fill(1.0)
    for cj in reversed(coefficients):
        np.divide(x, out, out=out)
        np.multiply(out, cj, out=out)
        np.add(out, 1.0, out=out)
    return out


def _log_quantile_start(a: float, b: float, p: np.ndarray, log_p: np.ndarray) -> np.ndarray:
    """ln of the first guess at x with I_x(a, b) = p (Numerical Recipes,
    ``invbetai``): Abramowitz & Stegun 26.5.22 when a, b >= 1, else the
    small-x power law x = (a w p)^(1/a)."""
    if a < 1 or b < 1:
        w = math.exp(a * math.log(a / (a + b))) / a + math.exp(b * math.log(b / (a + b))) / b
        return (math.log(a * w) + log_p) / a
    lower = p < 0.5
    z = np.sqrt(-2.0 * np.where(lower, log_p, np.log1p(-p)))
    y = z - (2.30753 + 0.27061 * z) / (1.0 + z * (0.99229 + 0.04481 * z))
    y = np.where(lower, y, -y)
    lam = (y * y - 3.0) / 6.0
    h = 2.0 / (1.0 / (2 * a - 1) + 1.0 / (2 * b - 1))
    w = y * np.sqrt(lam + h) / h - (1.0 / (2 * b - 1) - 1.0 / (2 * a - 1)) * (
        lam + 5.0 / 6.0 - 2.0 / (3.0 * h)
    )
    # x = a / (a + b e^(2w))
    return -np.logaddexp(0.0, math.log(b / a) + 2.0 * w)


def _log_quantile(a: float, b: float, coefficients: list[float], p: np.ndarray) -> np.ndarray:
    """t = ln x with I_x(a, b) = p, for each p in (0, I_{x0}(a, b)].

    Halley steps on ln I - ln p as a function of t, where
    ln I = a t + b ln(1-x) - ln B(a, b) - ln(a r(x)),
    d ln I / dt = a r / (1-x) =: g and d^2 ln I / dt^2 = g (a - (b-1) x/(1-x) - g).
    The root lies at or below t0 = ln x0, so iterates are clamped there.
    Each draw stops after the step it takes at a residual of at most the
    tolerance, so its t is a function of its own p alone, whatever other
    draws share the call.
    """
    t0 = math.log((a + 1) / (a + b + 2))
    log_p = np.log(p)
    t = np.minimum(_log_quantile_start(a, b, p, log_p), t0)
    offset = -_log_beta(a, b) - math.log(a) - log_p
    x, r = np.empty_like(t), np.empty_like(t)
    active = np.ones(t.shape, dtype=bool)
    for _ in range(_HALLEY_STEPS):
        np.exp(t, out=x)
        _fraction(coefficients, x, r)
        residual = a * t + b * np.log1p(-x) - np.log(r) + offset
        odds = x / (1.0 - x)
        g = a * r * (1.0 + odds)
        newton = residual / g
        step = newton / (1.0 - 0.5 * np.clip(newton * (a - (b - 1.0) * odds - g), -1.0, 1.0))
        np.subtract(t, step, out=t, where=active)
        np.minimum(t, t0, out=t)
        active &= np.abs(residual) > _STEP_TOLERANCE
        if not active.any():
            break
    return t


def _beta_quantile(a: float, b: float, u: np.ndarray) -> np.ndarray:
    """The beta(a, b) quantile of each u in [0, 1): x with I_x(a, b) = u.

    The continued fraction converges well below x0 = (a+1)/(a+b+2), so u
    below I_{x0}(a, b) solves I_x(a, b) = u, and the rest solves
    I_y(b, a) = 1 - u, exact for u = m 2^-53, and returns x = 1 - y.
    u = 0 gives exactly 0.  Each set is solved in blocks of
    ``_QUANTILE_BLOCK`` draws, so the Halley steps' temporaries stay that
    small however long u is; a draw's x does not depend on its block.
    """
    coefficients, log_split = _continued_fraction(a, b)
    split = math.exp(log_split)
    x = np.zeros(u.shape)
    low = np.flatnonzero((0.0 < u) & (u < split))
    high = np.flatnonzero(u >= split)
    for start in range(0, low.size, _QUANTILE_BLOCK):
        block = low[start : start + _QUANTILE_BLOCK]
        x[block] = np.exp(_log_quantile(a, b, coefficients, u[block]))
    if high.size:
        swapped, _ = _continued_fraction(b, a)
        for start in range(0, high.size, _QUANTILE_BLOCK):
            block = high[start : start + _QUANTILE_BLOCK]
            x[block] = -np.expm1(_log_quantile(b, a, swapped, 1.0 - u[block]))
    return x


def _theta_cutoffs(
    source: ThetaSource, keys: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray | np.uint64:
    """The ``_cutoffs`` of each replication's theta: one for a fixed source,
    else those of the prior's inverse-CDF image of slot 0 (``out`` and
    ``scratch`` are overwritten)."""
    if not isinstance(source, Prior):
        return _cutoffs(float(source))
    m = _draws(keys, 0, out, scratch)
    if source.kind == "discrete":
        cumulative = np.cumsum([float(w) for _, w in source.atoms])
        cumulative[-1] = 1.0  # guard the top bin against float round-off
        # u = m 2^-53 < c exactly when m < _cutoffs(c), so the bins need no u
        bins = np.searchsorted(_cutoffs(cumulative), m, side="right")
        return _cutoffs(np.array([float(v) for v, _ in source.atoms]))[bins]
    theta = _beta_quantile(float(source.alpha), float(source.beta), m * 2.0**-53)
    # _cutoffs in place: theta's memory becomes the cutoffs
    cutoffs = theta.view(np.uint64)
    np.ceil(np.multiply(theta, 2.0**53, out=theta), out=cutoffs, casting="unsafe")
    return cutoffs


def _phi_rows(array: PredictionArray, horizon: int) -> list[tuple[list, list]]:
    """Rows 0..horizon-1 of ``array`` as the simulator reads them: row k as
    ``(ones, fractional)``, the runs of counts n whose entry phi, as a
    float, is 1.0, and the runs where 0 < phi < 1, each with its cutoffs.

    A run is a half-open ``[lo, hi)`` range of counts, ``(lo, hi)`` in
    ``ones`` and ``(lo, hi, cutoffs)`` in ``fractional``; ``cutoffs`` is
    the one cutoff of a one-cell run, else the row's cutoffs indexed by n.
    The loop compares the running counts with the bounds, so a row costs
    one comparison per run: every array this package builds has at most
    one run of ones, open at the top (frequent-outcome and Bayes-optimal
    rows rise with n), and at most one tie cell.  The bounds are Python
    ints no larger than the horizon, so the comparisons run in the counts'
    own narrow dtype.
    """
    if array.k_max < horizon - 1:
        raise ValueError(
            f"prediction array covers rows 0..{array.k_max}, "
            f"but horizon {horizon} needs rows 0..{horizon - 1}"
        )
    entries = list(chain.from_iterable(array.rows[:horizon]))
    bounds = [k * (k + 1) // 2 for k in range(horizon + 1)]  # row k is bounds[k]:bounds[k + 1]
    # float() each distinct object once, read at the first entry of each
    # stretch of one object: frequent_outcome_array's rows share three
    # constants, and Fraction.__float__ dominates otherwise
    edge = np.ones(len(entries) + 1, dtype=bool)
    edge[1:-1] = np.fromiter(map(is_not, islice(entries, 1, None), entries), bool, len(entries) - 1)
    edge[bounds] = True
    stretches = np.flatnonzero(edge)
    firsts = [entries[i] for i in stretches[:-1].tolist()]
    distinct = dict(zip(map(id, firsts), firsts))
    floats = {key: float(entry) for key, entry in distinct.items()}
    phi = np.repeat([floats[key] for key in map(id, firsts)], np.diff(stretches))
    # 0: phi == 0.0, 1: in between, 2: phi == 1.0
    kind = (phi > 0.0).view(np.int8) + (phi == 1.0).view(np.int8)
    np.not_equal(kind[1:], kind[:-1], out=edge[1:-1])
    edge[bounds] = True
    starts = np.flatnonzero(edge)  # each run's first entry, then the end of the last
    runs = np.flatnonzero(kind[starts[:-1]])  # the runs of nonzero entries
    cut = _cutoffs(phi)
    rows = [([], []) for _ in range(horizon)]
    # tolist(): a numpy int64 bound would widen the counts to int64
    for start, end, row, run_kind in zip(
        starts[runs].tolist(),
        starts[runs + 1].tolist(),
        (np.searchsorted(bounds, starts[runs], side="right") - 1).tolist(),
        kind[starts[runs]].tolist(),
    ):
        first = bounds[row]
        ones, fractional = rows[row]
        if run_kind == 2:
            ones.append((start - first, end - first))
        else:
            cuts = cut[start] if end == start + 1 else cut[first : bounds[row + 1]]
            fractional.append((start - first, end - first, cuts))
    return rows


def _in_run(counts: np.ndarray, lo: int, hi: int, top: int, out: np.ndarray, spare: np.ndarray):
    """``lo <= counts < hi`` into ``out``, for counts that never exceed
    ``top``: one comparison unless the run is closed at both ends."""
    if lo == 0:
        if hi > top:
            out.fill(True)
        else:
            np.less(counts, hi, out=out)
    elif hi > top:
        np.greater_equal(counts, lo, out=out)
    elif hi == lo + 1:
        np.equal(counts, lo, out=out)
    else:
        np.greater_equal(counts, lo, out=out)
        np.logical_and(out, np.less(counts, hi, out=spare), out=out)
    return out


def _chunks(total: int, chunk_size: int, *dtypes) -> Iterator[tuple[np.ndarray, list[np.ndarray]]]:
    """Each chunk's replication indices, with one buffer per dtype for its
    vectors.  The buffers are allocated once per call, and the per-step
    loop's own operations write into them: glibc serves chunk-sized
    temporaries from freshly mapped pages, which fault on first touch.
    A chunk still allocates its indices (mixed in place into the keys), a
    prior's theta cutoffs with the beta quantile's u and index sets, and
    the gathers of the replications that read a prediction slot.  The last
    chunk, which may be shorter, gets views of the buffers' first entries."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    size = min(chunk_size, total)
    buffers = [np.empty(size, dtype) for dtype in dtypes]
    for start in range(0, total, chunk_size):
        reps = np.arange(start, min(start + chunk_size, total), dtype=np.uint64)
        yield reps, [buffer[: reps.size] for buffer in buffers]


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
    horizon = config.horizon
    rows = _phi_rows(array, horizon)
    hits = [0] * horizon
    total = config.replications
    # counts never exceed the horizon, and neither does any run bound
    counts_dtype = np.min_scalar_type(horizon)
    chunks = _chunks(total, chunk_size, np.uint64, np.uint64, counts_dtype, bool, bool, bool, bool)
    for reps, (bits, scratch, counts, outcome, predicted, inside, spare) in chunks:
        keys = _keys(config.seed, reps, scratch)
        theta_cut = _theta_cutoffs(config.theta_source, keys, bits, scratch)
        counts.fill(0)
        for k, (ones, fractional) in enumerate(rows):
            np.less(_draws(keys, 1 + k, bits, scratch), theta_cut, out=outcome)
            # m < 2**53, so phi == 1.0 predicts one and phi == 0.0 zero; only
            # the cells in between read their prediction slot
            if ones:
                (lo, hi), *more = ones
                _in_run(counts, lo, hi, k, predicted, spare)
                for lo, hi in more:
                    _in_run(counts, lo, hi, k, inside, spare)
                    np.logical_or(predicted, inside, out=predicted)
            else:
                predicted.fill(False)
            for lo, hi, cut in fractional:
                cells = np.flatnonzero(_in_run(counts, lo, hi, k, inside, spare))
                if cells.size:
                    n = cells.size
                    drawn = _draws(keys[cells], horizon + 2 + k, bits[:n], scratch[:n])
                    predicted[cells] = drawn < (cut if cut.ndim == 0 else cut[counts[cells]])
            hits[k] += int(np.count_nonzero(np.equal(predicted, outcome, out=inside)))
            np.add(counts, outcome, out=counts)
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
    if i == j:
        raise ValueError("covariance requires two distinct trial indices")
    if i < 1 or j < 1:
        raise ValueError(f"trial indices start at 1 (slot 0 draws theta), got i={i}, j={j}")
    if replications < 2:
        raise ValueError(f"need at least 2 replications, got {replications}")
    SimulationConfig(prior, max(i, j), replications, seed)  # checks the source and seed
    sum_x = sum_y = sum_xy = 0
    chunks = _chunks(replications, chunk_size, np.uint64, np.uint64, bool, bool)
    for reps, (bits, scratch, x, y) in chunks:
        keys = _keys(seed, reps, scratch)
        theta_cut = _theta_cutoffs(prior, keys, bits, scratch)
        np.less(_draws(keys, i, bits, scratch), theta_cut, out=x)
        np.less(_draws(keys, j, bits, scratch), theta_cut, out=y)
        sum_x += int(np.count_nonzero(x))
        sum_y += int(np.count_nonzero(y))
        sum_xy += int(np.count_nonzero(np.logical_and(x, y, out=x)))
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
