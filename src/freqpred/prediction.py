"""Prediction arrays and Bayesian posterior prediction for exchangeable
binary sequences.

A prediction method is a triangular array of probabilities: entry (k, n)
is the chance of predicting outcome 1 after seeing n ones in k trials.
This module builds the most-frequent-outcome array, scores arrays against
a known success probability, and computes posterior quantities under beta
or discrete priors on that probability.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from typing import NamedTuple, Union

from .accuracy import Theta
from .accuracy import bin_pmf  # noqa: F401  (unused; perfbench/tracing.py patches it here)
from .combinatorics import _number

Weight = Union[int, float, Fraction]

__all__ = [
    "PredictionArray",
    "CountStatistic",
    "Prior",
    "ImpossibleEvidenceError",
    "beta_prior",
    "discrete_prior",
    "frequent_outcome_array",
    "conditional_accuracy",
    "posterior_mean",
    "posterior_correct_probability",
    "optimal_array",
    "prior_covariance",
]

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)


class ImpossibleEvidenceError(ValueError):
    """The observed count has zero likelihood under every prior atom."""


def _check_probability(value, name: str) -> None:
    if not 0 <= value <= 1:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


class _CountStatistic(NamedTuple):
    k: int
    n: int


class CountStatistic(_CountStatistic):
    """Sufficient statistic for the binomial model: k trials, n ones."""

    __slots__ = ()

    def __new__(cls, k: int, n: int) -> CountStatistic:
        if k < 0 or not 0 <= n <= k:
            raise ValueError(f"need 0 <= n <= k, got n={n}, k={k}")
        return tuple.__new__(cls, (k, n))

    @classmethod
    def _make(cls, iterable) -> CountStatistic:
        return cls(*iterable)  # so _replace checks too


class _Hashed(int):
    """A hash value that hashes as itself (int's hash reduces it mod 2**61 - 1)."""

    __hash__ = int.__index__


class _CutRows(Sequence):
    """The rows of the arrays this package builds: each a run of 0, a run of
    1/2 and a run of 1, held as two cuts, 0 below ``cuts[k][0]``, 1 from
    ``cuts[k][1]`` on.  Equal to, and hashed as, the tuple of its rows."""

    def __init__(self, cuts: tuple[tuple[int, int], ...]):
        self.cuts = cuts

    def __len__(self) -> int:
        return len(self.cuts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self.cuts))[index]))
        k = range(len(self.cuts))[index]
        zeros, ones = self.cuts[k]
        return (ZERO,) * zeros + (HALF,) * (ones - zeros) + (ONE,) * (k + 1 - ones)

    def __eq__(self, other):
        if isinstance(other, _CutRows):  # the cuts determine the rows
            return self.cuts == other.cuts
        if isinstance(other, tuple):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __hash__(self) -> int:
        # a tuple's hash is a function of its items' hashes: hash one row at a
        # time, its entries as their hashes (0, 2**60 and 1, each its own hash)
        zero, half, one = hash(ZERO), hash(HALF), hash(ONE)
        return hash(tuple(
            _Hashed(hash((zero,) * z + (half,) * (o - z) + (one,) * (k + 1 - o)))
            for k, (z, o) in enumerate(self.cuts)
        ))

    def __repr__(self) -> str:
        return repr(tuple(self))


class _PredictionArray(NamedTuple):
    rows: tuple[tuple[Weight, ...], ...]


class PredictionArray(_PredictionArray):
    """Triangular array of predict-one probabilities, row k has k+1 entries."""

    __slots__ = ()

    def __new__(cls, rows: tuple[tuple[Weight, ...], ...]) -> PredictionArray:
        if not isinstance(rows, _CutRows):  # cut rows are valid by construction
            rows = tuple(tuple(row) for row in rows)
            for k, row in enumerate(rows):
                if len(row) != k + 1:
                    raise ValueError(f"row {k} must have {k + 1} entries, got {len(row)}")
                for phi in row:
                    _check_probability(phi, f"entry in row {k}")
        return tuple.__new__(cls, (rows,))

    @classmethod
    def _make(cls, iterable) -> PredictionArray:
        return cls(*iterable)  # so _replace checks too

    @property
    def k_max(self) -> int:
        return len(self.rows) - 1

    def phi(self, k: int, n: int) -> Weight:
        return self.rows[k][n]


def frequent_outcome_array(k_max: int) -> PredictionArray:
    """Predict the outcome observed most often; flip a fair coin on ties.

    Row 0 (nothing observed yet) is the single tie entry 1/2.  Row k holds
    ceil(k/2) zeros, a tie entry when k is even, then ceil(k/2) ones: its
    cuts are (ceil(k/2), floor(k/2) + 1), two ints per row.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    cuts = tuple(((k + 1) // 2, k // 2 + 1) for k in range(k_max + 1))
    return PredictionArray(_CutRows(cuts))


def conditional_accuracy(phi: Weight, theta: Theta) -> Weight:
    """P(prediction correct | theta) = (1-theta)(1-phi) + theta*phi.

    One integer ratio ((d-p)(e-f) + p f) / (d e) for theta = p/d and
    phi = f/e, rounded by ``_number``.  Affine in theta with slope 2 phi - 1:
    phi = 1 scores theta, phi = 0 scores 1 - theta, phi = 1/2 scores 1/2.
    """
    _check_probability(phi, "phi")
    _check_probability(theta, "theta")
    (p, d), (f, e) = theta.as_integer_ratio(), phi.as_integer_ratio()
    as_float = isinstance(theta, float) or isinstance(phi, float)
    return _number((d - p) * (e - f) + p * f, d * e, as_float)


class _Prior(NamedTuple):
    kind: str
    alpha: Weight | None
    beta: Weight | None
    atoms: tuple[tuple[Theta, Weight], ...] | None


class Prior(_Prior):
    """Distribution of the long-run success proportion.

    Either a beta(alpha, beta) density or a finite set of weighted atoms.
    Use :func:`beta_prior` / :func:`discrete_prior` to construct.  Fields
    are kept as given: exact ones give exact moments and posteriors; float
    ones are taken at their dyadic value, and each result rounded once.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: str,
        alpha: Weight | None = None,
        beta: Weight | None = None,
        atoms: tuple[tuple[Theta, Weight], ...] | None = None,
    ) -> Prior:
        if kind == "beta":
            if alpha is None or beta is None or atoms is not None:
                raise ValueError("beta prior takes alpha and beta only")
            if not (0 < alpha < math.inf and 0 < beta < math.inf):
                raise ValueError(
                    f"beta parameters must be positive and finite, got ({alpha}, {beta})"
                )
        elif kind == "discrete":
            if atoms is None or alpha is not None or beta is not None:
                raise ValueError("discrete prior takes atoms only")
            if not atoms:
                raise ValueError("discrete prior needs at least one atom")
            for value, weight in atoms:
                _check_probability(value, "atom location")
                if not weight >= 0:  # also rejects nan
                    raise ValueError(f"atom weight must be >= 0, got {weight}")
            total = sum(weight for _, weight in atoms)
            if isinstance(total, (int, Fraction)):
                if total != 1:
                    raise ValueError(f"atom weights must sum to 1, got {total}")
            elif not abs(total - 1.0) <= 1e-12:
                raise ValueError(f"atom weights must sum to 1, got {total}")
        else:
            raise ValueError(f"unknown prior kind {kind!r}")
        return tuple.__new__(cls, (kind, alpha, beta, atoms))

    @classmethod
    def _make(cls, iterable) -> Prior:
        return cls(*iterable)  # so _replace checks too

    @property
    def is_symmetric(self) -> bool:
        """Invariant under theta -> 1 - theta."""
        if self.kind == "beta":
            return self.alpha == self.beta
        merged: dict = {}
        for value, weight in self.atoms:
            if weight > 0:  # a weight-0 atom is no mass, wherever it sits
                merged[value] = merged.get(value, 0) + weight
        return merged == {1 - v: w for v, w in merged.items()}

    @property
    def is_almost_uniform(self) -> bool:
        """Symmetric with positive mass off 1/2."""
        if self.kind == "beta":
            return self.is_symmetric
        off_center = any(w > 0 and v != HALF for v, w in self.atoms)
        return self.is_symmetric and off_center

    def mean(self) -> Weight:
        """E[theta]: the posterior mean after no trials, so a float prior's
        mean is the exact mean of its dyadic value rounded once."""
        return posterior_mean(self, CountStatistic(0, 0))


def beta_prior(alpha: Weight, beta: Weight) -> Prior:
    """Conjugate beta(alpha, beta) prior; exact with int or Fraction parameters."""
    return Prior(kind="beta", alpha=alpha, beta=beta)


def discrete_prior(atoms) -> Prior:
    """Finitely supported prior from (value, weight) pairs."""
    return Prior(kind="discrete", atoms=tuple((v, w) for v, w in atoms))


def _has_float(prior: Prior) -> bool:
    """Whether a parameter, atom value or atom weight of the prior is a float."""
    fields = (prior.alpha, prior.beta) if prior.kind == "beta" else sum(prior.atoms, ())
    return any(isinstance(x, float) for x in fields)


def _exact(prior: Prior) -> Prior:
    """The prior at its dyadic value, or the prior itself if it is exact:
    ``Fraction`` parameters, and discrete weights over their sum, which moves
    no posterior mean and makes float weights that pass the 1e-12 check sum to 1."""
    if not _has_float(prior):
        return prior
    if prior.kind == "beta":
        return beta_prior(Fraction(prior.alpha), Fraction(prior.beta))
    total = sum(Fraction(w) for _, w in prior.atoms)
    return discrete_prior((Fraction(v), Fraction(w) / total) for v, w in prior.atoms)


def posterior_mean(prior: Prior, stat: CountStatistic) -> Weight:
    """E[theta | n ones in k trials] under the prior.

    Beta priors use the conjugate closed form (alpha + n)/(alpha + beta + k),
    as one integer ratio: with alpha = a/b and beta = c/e it is
    (a + n b) e / ((a + n b) e + (c + (k - n) e) b).  A discrete prior is
    one integer kernel.  With atom values a_i/b_i and weights c_i/e_i, the
    likelihood-weighted mass of atom i is, up to the common factor
    C(k, n) / (B^k E),

        t_i = c_i (E/e_i) a_i^n (b_i - a_i)^(k-n) (B/b_i)^k,

    with B and E the least common multiples of the b_i and of the e_i.  The
    mean sum_i a_i (B/b_i) t_i / (B sum_i t_i) is divided once.  Both
    kinds end in the rounding rule of ``combinatorics._number``: a float
    parameter, atom value or weight is taken at its dyadic value, so a
    float prior's mean is the exact one rounded once and never underflows
    at large k.
    """
    k, n = stat
    if prior.kind == "beta":
        a, b = prior.alpha.as_integer_ratio()
        c, e = prior.beta.as_integer_ratio()
        num = (a + n * b) * e
        return _number(num, num + (c + (k - n) * e) * b, _has_float(prior))
    values = [value.as_integer_ratio() for value, _ in prior.atoms]
    weights = [weight.as_integer_ratio() for _, weight in prior.atoms]
    b_all = math.lcm(*(b for _, b in values))
    e_all = math.lcm(*(e for _, e in weights))
    num = marginal = 0
    for (a, b), (c, e) in zip(values, weights):
        scale = b_all // b
        t = c * (e_all // e) * a**n * (b - a) ** (k - n) * scale**k
        num += a * scale * t
        marginal += t
    if marginal == 0:
        raise ImpossibleEvidenceError(
            f"count n={n}, k={k} has zero probability under the prior"
        )
    return _number(num, b_all * marginal, _has_float(prior))


def posterior_correct_probability(
    phi: Weight, prior: Prior, stat: CountStatistic
) -> Weight:
    """P(prediction correct | observed count) for predict-one probability phi.

    The conditional accuracy is affine in theta, so this is its value at
    the exact posterior mean of the prior's dyadic value, rounded once.
    """
    score = conditional_accuracy(phi, posterior_mean(_exact(prior), stat))
    return _number(*score.as_integer_ratio(), _has_float(prior))


def optimal_array(prior: Prior, k_max: int) -> PredictionArray:
    """Bayes-optimal array: back whichever outcome the posterior favours.

    Entry (k, n) is 1 when the posterior mean exceeds 1/2, 0 when below,
    and 1/2 when it equals 1/2.  A count the prior gives zero probability
    also gets 1/2: it is never observed, and on it every action scores
    the same.  For a symmetric non-degenerate prior (a beta(a, a), or
    atoms inside (0, 1) with mass off 1/2) this reproduces
    :func:`frequent_outcome_array` entry for entry.

    Every comparison is exact, on the prior's dyadic value (``_exact``),
    so no tolerance decides an entry: float atoms 0.1 and 0.9 are not
    symmetric (1 - 0.9 != 0.1), and their cells with 2n = k are 0 or 1.

    The posterior mean rises with n (the binomial family has a monotone
    likelihood ratio), so each row is stored as its two cuts.  A beta prior
    needs no posterior mean: the mean (alpha + n)/(alpha + beta + k) exceeds
    1/2 iff 2n > k + beta - alpha.  A discrete prior is decided cell by cell.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    prior = _exact(prior)
    cuts = []
    if prior.kind == "beta":
        num, den = (prior.beta - prior.alpha).as_integer_ratio()
        for k in range(k_max + 1):
            # 2n > k + beta - alpha iff n > (k den + num)/(2 den) = cut + rest/(2 den)
            cut, rest = divmod(k * den + num, 2 * den)
            zeros = min(max(cut + (rest > 0), 0), k + 1)
            cuts.append((zeros, zeros + (rest == 0 and 0 <= cut <= k)))
        return PredictionArray(_CutRows(tuple(cuts)))
    for k in range(k_max + 1):
        signs = []
        for n in range(k + 1):
            try:
                mean = posterior_mean(prior, CountStatistic(k, n))
            except ImpossibleEvidenceError:
                mean = HALF
            signs.append(0 if mean == HALF else 1 if mean > HALF else -1)
        cuts.append((signs.count(-1), k + 1 - signs.count(1)))
    return PredictionArray(_CutRows(tuple(cuts)))


def prior_covariance(prior: Prior) -> Weight:
    """cov(x_i, x_j) for i != j: the variance of theta under the prior.

    Exchangeable indicators can never be negatively correlated; this is
    the common covariance of any two distinct trials, P(x_1 = x_2 = 1) -
    P(x_1 = 1)^2 = m0 (m11 - m0), with m0 the prior mean and m11 the
    posterior mean after one success (E[theta^2] = m0 m11); all mass at 0
    gives 0.  It is taken on the prior's dyadic value, so a float prior's
    covariance is the exact one rounded once, never negative.
    """
    exact = _exact(prior)
    m0 = posterior_mean(exact, CountStatistic(0, 0))
    cov = m0 * (posterior_mean(exact, CountStatistic(1, 1)) - m0) if m0 else ZERO
    return _number(*cov.as_integer_ratio(), _has_float(prior))
