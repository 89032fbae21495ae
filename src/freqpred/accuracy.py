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

Every ``pi_k`` is a polynomial in theta with integer coefficients, so at
``theta = p/d`` it is an integer over a power of d, and a float theta is
exactly such a p/d (its dyadic value).  ``bin_pmf``, ``h_function``, the
direct, recursive, condensed and expanded routes and the exact curve build
that integer and divide once, by the rounding rule of
``combinatorics._number``; the t-table, the float curve and the threshold
search decide from a certified enclosure of it where they can (below), and
from the integer itself where they cannot.  The condensed route is one
numerator over ``d^(2a+2)``, its Catalan sum from
``combinatorics._catalan_terms``.

The plateau increments are summed as integers, with no gcd per term.
``_plateau_numerators`` yields ``S_a = 2 d^(2a+2) pi_(2a+1)``, which obeys

    S_0 = d^2 + (d-2p)^2,   S_a = d^2 S_(a-1) + C(2a, a) (p(d-p))^a (d-2p)^2,

and is the exact plateau stream behind ``accuracy_recursive`` and the
exact ``accuracy_curve``.  Its integers grow by 2 log2(d) bits a plateau,
so a scan to plateau a costs O(a^2) bits.  ``_plateau_floors`` sums the
same increments in fixed point at 2^P instead, rounding each term down,
at most a(a+1)/2 units below the exact sum at plateau a: that enclosure
decides ``threshold_k`` (exact or float theta) and the float
``accuracy_curve`` from integers of about P bits, and the exact stream
decides only what the enclosure cannot (Ziv's rounding test).  The
t-table runs its dynamic program on integers, row k scaled by
``2 d^(2k)``, or, on a float theta, floored back to one fixed scale after
each step.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Iterator, NamedTuple, Union

from .combinatorics import _catalan_terms, _number, alpha_row, binomial
from .combinatorics import catalan_series  # noqa: F401  (unused; perfbench/tracing.py patches it here)

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
_GUARD_BITS = 64  # of a float t-table, past the 2 bitlength(k) its floors can lose
# P of the plateau enclosure, in the order tried.  At 128 bits it is far
# narrower than a double's spacing on [1/2, 1] for any k below 2^30; the
# raised P makes it narrower than 2^-100 of the smallest subnormal for any
# k below 2^20, so a gap of any size is decided as well
_ENCLOSURE_BITS = (128, 1216)


def _ratio(theta: Theta) -> tuple[int, int, bool]:
    """(p, d, as_float) with theta = p/d in [0, 1]; a float is its dyadic value."""
    if not 0 <= theta <= 1:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    p, d = theta.as_integer_ratio()
    return p, d, isinstance(theta, float)


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


def _plateau_floors(p: int, d: int, bits: int) -> Iterator[int]:
    """Yield L_0, L_1, ...: the sum sum_(i<=a) C(2i, i) x^i, x = p(d-p)/d^2,
    in fixed point at 2^bits, rounded down.

    pi_(2a+1) = 1/2 + (d-2p)^2 Sigma_a / (2 d^2), Sigma_a that sum.  The term
    t_0 = 2^bits, and t_i is floored from t_(i-1) by the exact ratio
    p(d-p)(4i-2) / (d^2 i) = 4x (1 - 1/(2i)) < 1.  A floor loses under one
    unit and the ratio shrinks what was lost before, so t_i is under i units
    below C(2i, i) x^i 2^bits, and L_a <= 2^bits Sigma_a <= L_a + a(a+1)/2.
    The integers stay near bits + 2 log2(d) bits, against the 2a log2(d)
    of ``_plateau_numerators``' S_a.
    """
    pq, d2 = p * (d - p), d * d
    term = total = 1 << bits
    a = 0
    while True:
        yield total
        a += 1
        term = term * pq * (4 * a - 2) // (d2 * a)
        total += term


def bin_pmf(n: int, k: int, theta: Theta) -> Theta:
    """Binomial probability C(k, n) theta^n (1-theta)^(k-n).

    Computed as C(k, n) p^n (d-p)^(k-n) / d^k on theta = p/d, so a float
    result stays correct where C(k, n) or theta^n alone would leave the
    float range.
    """
    if not 0 <= n <= k:
        raise ValueError(f"bin_pmf requires 0 <= n <= k, got n={n}, k={k}")
    p, d, as_float = _ratio(theta)
    return _number(binomial(k, n) * p**n * (d - p) ** (k - n), d**k, as_float)


def _weight(k: int, n: int, p: int, d: int) -> int:
    """``2d * per_step_accuracy(k, n, p/d)``, an integer."""
    if 2 * n < k:
        return 2 * (d - p)
    if 2 * n == k:
        return d
    return 2 * p


def per_step_accuracy(k: int, n: int, theta: Theta) -> Theta:
    """Chance of a correct prediction given k trials with n ones observed.

    1-theta when ones are in the minority, theta when in the majority,
    and exactly 1/2 on a tie.  k = 0 counts as a tie.
    """
    if k < 0 or not 0 <= n <= k:
        raise ValueError(f"invalid count statistic n={n}, k={k}")
    p, d, as_float = _ratio(theta)
    return _number(_weight(k, n, p, d), 2 * d, as_float)


def h_function(a: int, theta: Theta) -> Theta:
    """Accuracy gained between consecutive odd/even plateau pairs.

    Computed as C(2a, a) * (theta(1-theta))^a * (1-2 theta)^2 / 2, which
    equals C(2a, a) * (x^a / 2 - 2 x^(a+1)) for x = theta(1-theta) since
    (1-2 theta)^2 = 1 - 4x, and is manifestly non-negative.  On theta = p/d
    that is C(2a, a) (p(d-p))^a (d-2p)^2 / (2 d^(2a+2)).
    """
    if a < 0:
        raise ValueError(f"h_function requires a >= 0, got a={a}")
    p, d, as_float = _ratio(theta)
    num = binomial(2 * a, a) * (p * (d - p)) ** a * (d - 2 * p) ** 2
    return _number(num, 2 * d ** (2 * a + 2), as_float)


def accuracy_direct(k: int, theta: Theta) -> Theta:
    """pi_k by direct summation of per-count correctness terms.

    On theta = p/d, q = d - p: 2 d^(k+1) pi_k = sum_n w_n C(k, n) p^n q^(k-n)
    with w_n from ``_weight``.  Each binomial term is the previous one
    times (k-n) p, divided exactly by (n+1) q.
    """
    if k < 0:
        raise ValueError(f"trial count must be >= 0, got {k}")
    p, d, as_float = _ratio(theta)
    # the sum is the same at theta and 1 - theta; taking p <= q keeps q > 0
    p = min(p, d - p)
    q = d - p
    term, total = q**k, 0
    for n in range(k + 1):
        total += _weight(k, n, p, d) * term
        term = term * ((k - n) * p) // ((n + 1) * q)
    return _number(total, 2 * d ** (k + 1), as_float)


def _t_next_row(row: list, k: int, weights: tuple) -> list:
    """One step of the weighted count-cell recursion, row k -> row k+1.

    ``weights`` is (up, down, tie_up, tie_down).  Cell (k, n) feeds
    (k+1, n+1) with weight theta and (k+1, n) with weight 1-theta, except
    the tie cell n = k/2 which uses 2 theta^2 and 2 (1-theta)^2: the
    doubled squares fold the even-odds tie prediction into the transition.
    """
    up, down, tie_up, tie_down = weights
    following = [down * row[0], *[up * u + down * v for u, v in zip(row, row[1:])], up * row[-1]]
    if k % 2 == 0:
        tie = row[k // 2]
        following[k // 2] += (tie_down - down) * tie
        following[k // 2 + 1] += (tie_up - up) * tie
    return following


def _t_bits(k_max: int) -> int:
    """b: a float theta's table holds its cells times 2^(b+1)."""
    return _GUARD_BITS + 2 * k_max.bit_length()


def _t_rows(theta: Theta, k_max: int) -> Iterator[list]:
    """Rows 0..k_max of the count-cell table, started from T(0,0) = 1/2.

    On theta = p/d every weight is taken times d^2, so row k holds the
    cells times 2 d^(2k), from [1].  A float's d is 2^e, and its rows are
    floored back by d^2 after each step, so they hold lower bounds of the
    cells times 2^(b+1), b = ``_t_bits(k_max)``, from [2^b].
    """
    p, d, as_float = _ratio(theta)
    q = d - p
    weights = (p * d, q * d, 2 * p * p, 2 * q * q)
    shift = 2 * (d.bit_length() - 1)
    row = [1 << _t_bits(k_max)] if as_float else [1]
    yield row
    for j in range(k_max):
        row = _t_next_row(row, j, weights)
        if as_float:
            row = [v >> shift for v in row]
        yield row


def _t_pi(theta: Theta, k: int, row: list, k_max: int) -> Theta:
    """pi_k from row k of ``_t_rows(theta, k_max)``.

    A floor loses under one unit, and a lost unit adds under two to any
    later row sum (mass grows only at a tie cell, and from there the table
    repeats the one from T(0,0) = 1/2, whose rows sum to at most 1), so a
    float row k sums to under k(k+3) units below its exact value.  Where
    both ends round alike, that is pi_k; elsewhere the exact table decides.
    """
    low = sum(row)
    if not isinstance(theta, float):
        return Fraction(low, 2 * theta.denominator ** (2 * k))
    scale = 2 << _t_bits(k_max)
    pi = low / scale
    if pi == (low + k * (k + 3)) / scale:
        return pi
    return float(accuracy_t_table(k, Fraction(theta)))


def accuracy_t_table(k: int, theta: Theta) -> Theta:
    """pi_k via the count-cell dynamic program started from T(0,0) = 1/2."""
    if k < 0:
        raise ValueError(f"trial count must be >= 0, got {k}")
    for row in _t_rows(theta, k):
        pass
    return _t_pi(theta, k, row, k)


def t_table_accuracies(theta: Theta, k_max: int) -> list:
    """[pi_0, ..., pi_k_max] from a single table build (one pass, O(k_max^2))."""
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    return [_t_pi(theta, k, row, k_max) for k, row in enumerate(_t_rows(theta, k_max))]


def accuracy_recursive(k: int, theta: Theta) -> Theta:
    """pi_k as 1/2 plus the accumulated plateau increments."""
    if k < 0:
        raise ValueError(f"trial count must be >= 0, got {k}")
    p, d, as_float = _ratio(theta)
    if k == 0:
        return _number(1, 2, as_float)
    a = _plateau_index(k)
    s = next(islice(_plateau_numerators(p, d), a, None))
    return _number(s, 2 * d ** (2 * a + 2), as_float)


def accuracy_condensed(k: int, theta: Theta) -> Theta:
    """pi_k in Catalan-series closed form (defined for k >= 1).

    pi_k = 1 - sum_(i=1..a) C_(i-1) x^i - 2 C(2a, a) x^(a+1), x = theta(1-theta).
    At theta = p/d, x = pq/d2 with pq = p(d-p), d2 = d^2, and pi_k is one
    integer over d2^(a+1): the Catalan numerator from ``_catalan_terms``
    times d2, and the tail 2 C(2a, a) pq^(a+1) = 2(a+1) C_a pq^(a+1), from
    the kernel's next term.
    """
    if k < 1:
        raise ValueError(f"condensed form requires k >= 1, got {k}")
    p, d, as_float = _ratio(theta)
    a = _plateau_index(k)
    pq, d2 = p * (d - p), d * d
    scale = d2 ** (a + 1)
    total, term = _catalan_terms(pq, d2, a)
    return _number(scale - d2 * total - 2 * (a + 1) * term, scale, as_float)


class PiPolynomial(NamedTuple):
    """Integer coefficients of pi_(2a+1) = pi_(2a+2) in the power basis,
    constant term first, degree 2a+2."""

    a: int
    dense: tuple[int, ...]

    def coefficients(self) -> tuple[int, ...]:
        """Dense coefficient vector, degree 2a+2, constant term first."""
        return self.dense

    def evaluate(self, theta: Theta) -> Theta:
        """Evaluate at theta = p/d by homogeneous Horner on integers.

        The numerator sum_i c_i p^i d^(m-i) is exact, so the alternating
        large coefficients cancel without rounding; it is divided by d^m
        once, at the end.
        """
        p, d, as_float = _ratio(theta)
        top, *rest = reversed(self.dense)
        num, scale = top, 1
        for c in rest:
            scale *= d
            num = num * p + c * scale
        return _number(num, scale, as_float)


def pi_polynomial(a: int) -> PiPolynomial:
    """Expanded accuracy polynomial 1 - theta - sum_t alpha(a, t) theta^(a+t)."""
    if a < 0:
        raise ValueError(f"plateau index must be >= 0, got {a}")
    dense = [1, -1] + [0] * (2 * a + 1)
    for t, alpha in enumerate(alpha_row(a), start=a + 1):
        dense[t] -= alpha
    return PiPolynomial(a=a, dense=tuple(dense))


def accuracy_expanded(k: int, theta: Theta) -> Theta:
    """pi_k via the integer-coefficient expanded polynomial (k >= 1)."""
    if k < 1:
        raise ValueError(f"expanded form requires k >= 1, got {k}")
    return pi_polynomial(_plateau_index(k)).evaluate(theta)


def ideal_accuracy(theta: Theta) -> Theta:
    """Limiting accuracy max(theta, 1-theta): prediction with theta known."""
    p, d, as_float = _ratio(theta)
    return _number(max(p, d - p), d, as_float)


class CurvePoint(NamedTuple):
    k: int
    accuracy: Theta
    ideal: Theta
    gap: Theta


def _exact_plateaus(p: int, d: int, count: int) -> Iterator[tuple[Fraction, Fraction]]:
    """(pi_(2a+1), ideal - pi_(2a+1)) for a < count, exactly, from the
    exact stream."""
    ideal = Fraction(max(p, d - p), d)
    scale = 2 * d * d  # 2 d^(2a+2)
    for s in islice(_plateau_numerators(p, d), count):
        pi = Fraction(s, scale)
        yield pi, ideal - pi
        scale *= d * d


def _rounded_plateaus(p: int, d: int, bits: int, count: int) -> list[tuple] | None:
    """(pi_(2a+1), ideal - pi_(2a+1)) as floats for a < count, from the
    fixed-point enclosure at 2^bits, or None if one end is undecided.

    With m = |d - 2p| and Sigma_a as in ``_plateau_floors``,
    pi = (d^2 2^bits + m^2 2^bits Sigma_a) / (d^2 2^(bits+1)) and
    ideal - pi = (d m 2^bits - m^2 2^bits Sigma_a) / (d^2 2^(bits+1)), since
    2 max(p, d-p) - d = m.  2^bits Sigma_a lies in [L_a, L_a + a(a+1)/2];
    where both ends of both enclosures round to the same double, that
    double is the exact value rounded once.  A gap is never negative, so
    its low end is clamped at 0.
    """
    m2 = (d - 2 * p) ** 2
    scale = d * d << (bits + 1)
    half, rise = d * d << bits, d * abs(d - 2 * p) << bits  # 1/2, ideal - 1/2, times scale
    points = []
    for a, low in zip(range(count), _plateau_floors(p, d, bits)):
        low *= m2
        high = low + m2 * (a * (a + 1) // 2)
        pi, gap = (half + low) / scale, (rise - low) / scale
        if pi != (half + high) / scale or gap != max(rise - high, 0) / scale:
            return None
        points.append((pi, gap))
    return points


def accuracy_curve(theta: Theta, k_max: int) -> list[CurvePoint]:
    """Step-function profile (k, pi_k, ideal, ideal - pi_k) for k = 1..k_max.

    An exact theta gives exact ``Fraction`` values from the exact plateau
    stream.  A float theta gives each pi_k and gap as the exact value on its
    dyadic value rounded once, so a gap is never negative.  Those floats
    come from the fixed-point enclosure of ``_plateau_floors``: at 2^P,
    P the first of ``_ENCLOSURE_BITS``, the sum at plateau a is at most
    a(a+1)/2 units of 2^-P below its exact value, and the curve is read from
    it if both ends of every pi and every gap round to the same double.  If
    one does not (a gap too small for P), the whole curve is taken again at
    the raised P, whose units lie far below the smallest subnormal, and, if
    still undecided (a value that close to a rounding boundary), from the
    exact stream.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    p, d, as_float = _ratio(theta)
    ideal = _number(max(p, d - p), d, as_float)
    count = _plateau_index(k_max) + 1
    plateaus = None
    if as_float:
        for bits in _ENCLOSURE_BITS:
            plateaus = _rounded_plateaus(p, d, bits, count)
            if plateaus is not None:
                break
    if plateaus is None:
        plateaus = _exact_plateaus(p, d, count)
        if as_float:
            plateaus = ((float(pi), float(gap)) for pi, gap in plateaus)
    points = []
    for k, (pi, gap) in zip(range(1, k_max + 1, 2), plateaus):
        points.append(CurvePoint(k, pi, ideal, gap))
        if k < k_max:
            points.append(CurvePoint(k + 1, pi, ideal, gap))
    return points


def _enclosed_crossing(p: int, d: int, num: int, den: int, bits: int) -> int | None:
    """The first plateau a with pi_(2a+1)(p/d) >= num/den, decided on the
    fixed-point enclosure at 2^bits, or None where it cannot decide.

    With Sigma_a as in ``_plateau_floors``, pi_(2a+1) >= num/den iff
    lift 2^bits Sigma_a >= need, lift = (d-2p)^2 den and
    need = (2 num - den) d^2 2^bits.  The answer is the first a whose low
    sum L_a reaches need / lift, provided the high sum of the plateau
    before, L_(a-1) + a(a-1)/2, is still below it.  The enclosure cannot
    decide where that fails (a target at or within the bound of some pi_k),
    nor once the floored terms vanish and L_a stops growing.
    """
    lift = (d - 2 * p) ** 2 * den
    need = (2 * num - den) * d * d << bits
    reach = -(-need // lift)  # an integer reaches need / lift iff it reaches this
    previous = None
    for a, low in enumerate(_plateau_floors(p, d, bits)):
        if low >= reach:
            return a if a == 0 or previous + a * (a - 1) // 2 < reach else None
        if low == previous:
            return None
        previous = low


def _exact_crossing(p: int, d: int, num: int, den: int) -> int:
    """The first plateau a with pi_(2a+1)(p/d) >= num/den, on the exact
    stream: S_a den >= num 2 d^(2a+2).  Runs until it finds one."""
    scaled_target = 2 * d * d * num  # target times 2 d^(2a+2), times den
    for a, s in enumerate(_plateau_numerators(p, d)):
        if s * den >= scaled_target:
            return a
        scaled_target *= d * d


def threshold_k(theta: Theta, target: Theta) -> int | None:
    """Smallest trial count k with pi_k(theta) >= target, or None.

    None means the target exceeds what the rule can ever reach: above
    max(theta, 1-theta), or exactly at it when that limit is approached
    but never attained (every non-degenerate theta other than 1/2).
    Any target <= 1/2 is met immediately at k = 0.  Otherwise the first k
    that crosses the target is odd, k = 2a+1, and is decided on the exact
    (dyadic, for floats) values of theta and the target.  It is read from
    the fixed-point enclosure of ``_plateau_floors`` at each P of
    ``_ENCLOSURE_BITS`` in turn, whose sum at plateau a is at most
    a(a+1)/2 units of 2^-P below its exact value: the enclosure decides a
    when its low end at a reaches the target and its high end at a-1 does
    not.  A target equal to some pi_k, or within that bound of one, or so
    near the limit that the floored terms vanish first, is left to the scan
    of the exact stream.
    """
    p, d, _ = _ratio(theta)
    if not 0 <= target <= 1:
        raise ValueError(f"target must lie in [0, 1], got {target}")
    if target <= HALF:
        return 0
    ideal = Fraction(max(p, d - p), d)
    if target > ideal:
        return None
    if target == ideal and p not in (0, d):
        return None  # supremum, approached but not attained
    num, den = target.as_integer_ratio()
    for bits in _ENCLOSURE_BITS:
        a = _enclosed_crossing(p, d, num, den, bits)
        if a is not None:
            return 2 * a + 1
    return 2 * _exact_crossing(p, d, num, den) + 1
