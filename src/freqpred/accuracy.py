"""Accuracy of the predict-the-most-frequent-outcome rule on a Bernoulli
process with success probability ``theta``.

``pi_k(theta)`` is the probability of correctly predicting trial k+1
after observing k trials, when the prediction is the outcome seen most
often so far (a fair coin flip on ties).  Five independent evaluation
routes are provided and must agree:

* ``accuracy_direct``     -- sum the piecewise per-count terms over n.
* ``accuracy_t_table``    -- dynamic program over weighted count cells.
* ``accuracy_recursive``  -- accumulate the plateau increments h_function.
* ``accuracy_condensed``  -- Catalan-series closed form.
* ``accuracy_expanded``   -- integer-coefficient polynomial form.

Arithmetic convention: exact inputs (``int``, ``Fraction``) produce exact
``Fraction`` results; ``float`` inputs produce floats.  The float results
agree with the exact ones to well under 1e-12 on the reference grid: the
direct/t-table/recursive/condensed routes are sums of non-negative terms,
and the expanded route (whose raw coefficients alternate and grow too
fast for float Horner to stay that accurate past k ~ 45) evaluates
exactly on the dyadic rational of the input before rounding once.  Float
terms never pass through a big integer times a float, so no route
overflows at large k: ``bin_pmf`` divides exact integers once, the direct
route builds its binomial terms out from the mode, and the central terms
C(2a, a) x^a come from a ratio recurrence.

Integer-scaled kernels: for exact ``theta = p/d`` the plateau increments
are summed as integers, with no gcd per term.  ``_plateau_numerators``
yields ``S_a = 2 d^(2a+2) pi_(2a+1)``, which obeys

    S_0 = d^2 + (d-2p)^2,   S_a = d^2 S_(a-1) + C(2a, a) (p(d-p))^a (d-2p)^2,

and is the one plateau stream behind ``accuracy_recursive``,
``accuracy_curve`` and ``threshold_k``.  The curve and the threshold search
also run it on the exact dyadic value of a float ``theta``; a float result
is one correctly rounded ``int / int`` division, the same bits as rounding
the exact ``Fraction``.  The exact t-table runs its dynamic program on
integers, row k scaled by ``2 d^(2k)``.  A ``Fraction`` is built only for a
value that is returned.  Single runs on a 2-vCPU VM (Python 3.11.7), the
summed ``Fraction`` increments before and these kernels after:

    threshold_k(49/100, 509/1000)     9.8 s  -> 0.06 s
    threshold_k(0.49, 0.509)          267 s  -> 0.8 s
    accuracy_curve(0.45, 2000)        9.2 s  -> 0.12 s (same bits)
    accuracy_t_table(1000, 9/20)       32 s  -> 0.7 s
"""

from __future__ import annotations

from fractions import Fraction
from dataclasses import dataclass
from itertools import islice
from math import fsum
from typing import Iterator, NamedTuple, Union

from .combinatorics import alpha_row, binomial, catalan_series

Theta = Union[int, float, Fraction]

__all__ = [
    "Theta",
    "PiPolynomial",
    "pi_polynomial",
    "bin_pmf",
    "per_step_accuracy",
    "h_function",
    "accuracy_direct",
    "accuracy_t_table",
    "t_table_accuracies",
    "accuracy_recursive",
    "accuracy_condensed",
    "accuracy_expanded",
    "ideal_accuracy",
    "accuracy_curve",
    "threshold_k",
    "CurvePoint",
]

HALF = Fraction(1, 2)


def _checked(theta: Theta) -> Theta:
    """Validate range and lift exact inputs (int) to Fraction."""
    if not 0 <= theta <= 1:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    if isinstance(theta, int):
        return Fraction(theta)
    return theta


def _plateau_index(k: int) -> int:
    # k = 2a+1 and k = 2a+2 share one polynomial; a = ceil(k/2) - 1.
    return (k + 1) // 2 - 1


def _plateau_numerators(p: int, d: int) -> Iterator[int]:
    """Yield S_0, S_1, ... with pi_(2a+1)(p/d) = S_a / (2 d^(2a+2)).

    S_0 = d^2 + (d-2p)^2 and S_a = d^2 S_(a-1) + C(2a, a) (p(d-p))^a (d-2p)^2,
    the plateau increment h_a scaled by 2 d^(2a+2).  The central term
    C(2a, a) (p(d-p))^a advances by the exact ratio 2(2a-1)/a, so a step
    is a few big-by-small products and one exact division, with no gcd.
    """
    d2, pq, lift = d * d, p * (d - p), (d - 2 * p) ** 2
    central, s, a = 1, d2 + lift, 0
    while True:
        yield s
        a += 1
        central = central * pq * (2 * (2 * a - 1)) // a
        s = d2 * s + central * lift


def _central_floats(x: float) -> Iterator[float]:
    """Yield C(2a, a) x^a for a = 0, 1, ... and float 0 <= x <= 1/4.

    Each term is the last times x 2(2a-1)/a < 4x <= 1, so the terms fall
    monotonically; C(2a, a) and x^a would each leave the float range on
    their own past a ~ 515.
    """
    term, a = 1.0, 0
    while True:
        yield term
        a += 1
        term *= x * (2 * (2 * a - 1) / a)


def _central(a: int, x: Theta) -> Theta:
    """C(2a, a) x^a, exactly for exact x and by the ratio recurrence for float x."""
    if isinstance(x, float):
        return next(islice(_central_floats(x), a, None))
    return binomial(2 * a, a) * x**a


def bin_pmf(n: int, k: int, theta: Theta) -> Theta:
    """Binomial probability C(k, n) theta^n (1-theta)^(k-n).

    A float theta = p/d is evaluated exactly on its dyadic value and
    rounded once, by an integer division, so the result stays correct
    where C(k, n) or theta^n alone would leave the float range.
    """
    if not 0 <= n <= k:
        raise ValueError(f"bin_pmf requires 0 <= n <= k, got n={n}, k={k}")
    theta = _checked(theta)
    if isinstance(theta, float):
        p, d = theta.as_integer_ratio()
        return binomial(k, n) * p**n * (d - p) ** (k - n) / d**k
    return binomial(k, n) * theta**n * (1 - theta) ** (k - n)


def per_step_accuracy(k: int, n: int, theta: Theta) -> Theta:
    """Chance of a correct prediction given k trials with n ones observed.

    1-theta when ones are in the minority, theta when in the majority,
    and exactly 1/2 on a tie.  k = 0 counts as a tie.
    """
    if k < 0 or not 0 <= n <= k:
        raise ValueError(f"invalid count statistic n={n}, k={k}")
    theta = _checked(theta)
    if 2 * n < k:
        return 1 - theta
    if 2 * n == k:
        return 0.5 if isinstance(theta, float) else HALF
    return theta


def h_function(a: int, theta: Theta) -> Theta:
    """Accuracy gained between consecutive odd/even plateau pairs.

    Computed as C(2a, a) * (theta(1-theta))^a * (1-2 theta)^2 / 2, which
    equals C(2a, a) * (x^a / 2 - 2 x^(a+1)) for x = theta(1-theta) since
    (1-2 theta)^2 = 1 - 4x, and is manifestly non-negative.
    """
    if a < 0:
        raise ValueError(f"h_function requires a >= 0, got a={a}")
    theta = _checked(theta)
    return _central(a, theta * (1 - theta)) * (1 - 2 * theta) ** 2 / 2


def accuracy_direct(k: int, theta: Theta) -> Theta:
    """pi_k by direct summation of per-count correctness terms."""
    if k < 0:
        raise ValueError(f"trial count must be >= 0, got {k}")
    theta = _checked(theta)
    if isinstance(theta, float):
        pmf = _float_pmf_row(k, theta)
    else:
        pmf = [bin_pmf(n, k, theta) for n in range(k + 1)]
    return sum(per_step_accuracy(k, n, theta) * pmf[n] for n in range(k + 1))


def _float_pmf_row(k: int, theta: float) -> list[float]:
    """bin_pmf(n, k, theta) for n = 0..k, in O(k) float operations.

    The terms are built by their ratio recurrences out from the mode,
    which gets the unnormalised value 1; the terms fall away from it, so
    none can overflow, and dividing by their sum normalises the row.
    """
    row = [0.0] * (k + 1)
    if theta in (0.0, 1.0):
        row[0 if theta == 0.0 else k] = 1.0
        return row
    odds = theta / (1 - theta)
    mode = min(k, int((k + 1) * theta))
    row[mode] = 1.0
    for n in range(mode, k):
        row[n + 1] = row[n] * odds * (k - n) / (n + 1)
    for n in range(mode, 0, -1):
        row[n - 1] = row[n] / odds * n / (k - n + 1)
    total = fsum(row)
    return [v / total for v in row]


def _t_next_row(row: list, k: int, weights: tuple) -> list:
    """One step of the weighted count-cell recursion, row k -> row k+1.

    ``weights`` is (up, down, tie_up, tie_down).  Cell (k, n) feeds
    (k+1, n+1) with weight theta and (k+1, n) with weight 1-theta, except
    the tie cell n = k/2 which uses 2 theta^2 and 2 (1-theta)^2: the
    doubled squares fold the even-odds tie prediction into the transition.
    """
    up, down, tie_up, tie_down = weights
    ups = [up * v for v in row]
    downs = [down * v for v in row]
    if k % 2 == 0:
        ups[k // 2] = tie_up * row[k // 2]
        downs[k // 2] = tie_down * row[k // 2]
    return [downs[0], *(u + v for u, v in zip(ups, downs[1:])), ups[-1]]


def _t_rows(theta: Theta, k_max: int) -> Iterator[list]:
    """Rows 0..k_max of the count-cell table, started from T(0,0) = 1/2.

    Float theta runs on the weights themselves.  Exact theta = p/d runs on
    integers: every weight times d^2, so row k holds the cells times
    2 d^(2k) and starts from [1].
    """
    if isinstance(theta, float):
        weights = (theta, 1 - theta, theta * theta * 2, (1 - theta) * (1 - theta) * 2)
        row = [0.5]
    else:
        p, d = theta.as_integer_ratio()
        q = d - p
        weights = (p * d, q * d, 2 * p * p, 2 * q * q)
        row = [1]
    yield row
    for j in range(k_max):
        row = _t_next_row(row, j, weights)
        yield row


def _t_pi(theta: Theta, k: int, row: list) -> Theta:
    """pi_k from row k of ``_t_rows``."""
    if isinstance(theta, float):
        return sum(row)
    return Fraction(sum(row), 2 * theta.denominator ** (2 * k))


def accuracy_t_table(k: int, theta: Theta) -> Theta:
    """pi_k via the count-cell dynamic program started from T(0,0) = 1/2."""
    if k < 0:
        raise ValueError(f"trial count must be >= 0, got {k}")
    theta = _checked(theta)
    for row in _t_rows(theta, k):
        pass
    return _t_pi(theta, k, row)


def t_table_accuracies(theta: Theta, k_max: int) -> list:
    """[pi_0, ..., pi_k_max] from a single table build (one pass, O(k_max^2))."""
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    theta = _checked(theta)
    return [_t_pi(theta, k, row) for k, row in enumerate(_t_rows(theta, k_max))]


def accuracy_recursive(k: int, theta: Theta) -> Theta:
    """pi_k as 1/2 plus the accumulated plateau increments."""
    if k < 0:
        raise ValueError(f"trial count must be >= 0, got {k}")
    theta = _checked(theta)
    as_float = isinstance(theta, float)
    if k == 0:
        return 0.5 if as_float else HALF
    a = _plateau_index(k)
    if as_float:
        lift = (1 - 2 * theta) ** 2
        terms = islice(_central_floats(theta * (1 - theta)), a + 1)
        return 0.5 + sum(c * lift / 2 for c in terms)
    p, d = theta.as_integer_ratio()
    return Fraction(next(islice(_plateau_numerators(p, d), a, None)), 2 * d ** (2 * a + 2))


def accuracy_condensed(k: int, theta: Theta) -> Theta:
    """pi_k in Catalan-series closed form (defined for k >= 1)."""
    if k < 1:
        raise ValueError(f"condensed form requires k >= 1, got {k}")
    theta = _checked(theta)
    a = _plateau_index(k)
    x = theta * (1 - theta)
    return 1 - catalan_series(x, a) - 2 * _central(a, x) * x


@dataclass(frozen=True)
class PiPolynomial:
    """Integer coefficients of pi_(2a+1) = pi_(2a+2) in the power basis.

    Layout: constant term, coefficient of theta, then ``tail[i]`` holding
    the coefficient of theta^(a+1+i).  For a >= 1 the powers between
    theta^1 and theta^(a+1) all vanish.
    """

    a: int
    constant: int
    linear: int
    tail: tuple[int, ...]

    def coefficients(self) -> tuple[int, ...]:
        """Dense coefficient vector, degree 2a+2, constant term first."""
        dense = [0] * (2 * self.a + 3)
        dense[0] = self.constant
        dense[1] += self.linear
        start = len(dense) - len(self.tail)  # tail always ends at theta^(2a+2)
        for i, c in enumerate(self.tail):
            dense[start + i] += c
        return tuple(dense)

    def evaluate(self, theta: Theta) -> Theta:
        """Evaluate by Horner's rule in exact arithmetic.

        Float inputs are exact dyadic rationals, so the alternating
        large coefficients cancel without rounding; the single rounding
        happens on the way back to float.
        """
        theta = _checked(theta)
        exact = Fraction(theta) if isinstance(theta, float) else theta
        acc = Fraction(0)
        for c in reversed(self.coefficients()):
            acc = acc * exact + c
        return float(acc) if isinstance(theta, float) else acc


def pi_polynomial(a: int) -> PiPolynomial:
    """Expanded accuracy polynomial for plateau index a."""
    if a < 0:
        raise ValueError(f"plateau index must be >= 0, got {a}")
    row = alpha_row(a)
    if a == 0:
        # the single alpha power theta^1 folds into the linear term
        return PiPolynomial(a=0, constant=1, linear=-1 - row[0], tail=(-row[1],))
    return PiPolynomial(a=a, constant=1, linear=-1, tail=tuple(-c for c in row))


def accuracy_expanded(k: int, theta: Theta) -> Theta:
    """pi_k via the integer-coefficient expanded polynomial (k >= 1)."""
    if k < 1:
        raise ValueError(f"expanded form requires k >= 1, got {k}")
    return pi_polynomial(_plateau_index(k)).evaluate(theta)


def ideal_accuracy(theta: Theta) -> Theta:
    """Limiting accuracy max(theta, 1-theta): prediction with theta known."""
    theta = _checked(theta)
    return max(theta, 1 - theta)


class CurvePoint(NamedTuple):
    k: int
    accuracy: Theta
    ideal: Theta
    gap: Theta


def accuracy_curve(theta: Theta, k_max: int) -> list[CurvePoint]:
    """Step-function profile (k, pi_k, ideal, ideal - pi_k) for k = 1..k_max.

    Accumulated exactly even for float input (on its dyadic value) so the
    reported gap can never dip below zero once pi_k has converged to
    within float noise of its limit; floats are emitted when a float came
    in, each rounded once from the exact value.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    theta = _checked(theta)
    as_float = isinstance(theta, float)
    p, d = theta.as_integer_ratio()
    top = max(p, d - p)  # ideal = top / d
    ideal = top / d if as_float else Fraction(top, d)
    scale, ideal_scaled = 2 * d * d, 2 * top * d  # 2 d^(2a+2), and ideal times it
    points = []
    for k, s in zip(range(1, k_max + 1, 2), _plateau_numerators(p, d)):
        if as_float:
            pi, gap = s / scale, (ideal_scaled - s) / scale
        else:
            pi = Fraction(s, scale)
            gap = ideal - pi
        points.append(CurvePoint(k, pi, ideal, gap))
        if k < k_max:
            points.append(CurvePoint(k + 1, pi, ideal, gap))
        scale *= d * d
        ideal_scaled *= d * d
    return points


def threshold_k(theta: Theta, target: Theta) -> int | None:
    """Smallest trial count k with pi_k(theta) >= target, or None.

    None means the target exceeds what the rule can ever reach: above
    max(theta, 1-theta), or exactly at it when that limit is approached
    but never attained (every non-degenerate theta other than 1/2).
    Any target <= 1/2 is met immediately at k = 0.  The scan walks
    plateau pairs on the exact (dyadic, for floats) values of theta and
    the target, so the first k that crosses the target is always odd.
    """
    theta = _checked(theta)
    if not 0 <= target <= 1:
        raise ValueError(f"target must lie in [0, 1], got {target}")
    if target <= HALF:
        return 0
    p, d = theta.as_integer_ratio()
    ideal = Fraction(max(p, d - p), d)
    if target > ideal:
        return None
    if target == ideal and p not in (0, d):
        return None  # supremum, approached but not attained
    num, den = target.as_integer_ratio()
    scaled_target = 2 * d * d * num  # target times 2 d^(2a+2), times den
    for a, s in enumerate(_plateau_numerators(p, d)):
        if s * den >= scaled_target:
            return 2 * a + 1
        scaled_target *= d * d
