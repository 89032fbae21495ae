"""Exact integer and rational building blocks: binomial coefficients,
Catalan numbers, the Catalan-series kernel, and the signed coefficient
algebra behind the expanded accuracy polynomials.

The integer functions return exact Python integers.  ``catalan_series``
follows the package's one rounding rule, ``_number``; ``catalan_gf``
always returns a float.  ``Fraction`` is the canonical carrier for exact
probabilities throughout the package: it keeps gcd-reduced
numerator/denominator pairs with a positive denominator, which is exactly
the invariant the rest of the code relies on.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, sqrt
from typing import NamedTuple

__all__ = [
    "CoefficientTable",
    "binomial",
    "catalan",
    "catalan_gf",
    "catalan_series",
    "w_coefficient",
    "alpha_coefficient",
    "alpha_row",
]


def _number(num: int, den: int, as_float: bool) -> float | Fraction:
    """num/den under the package's one rounding rule.

    Exact input (``int`` or ``Fraction``) gives an exact ``Fraction``.
    Float input is evaluated exactly on its dyadic value, as integers over
    a common denominator, and rounded once: ``int / int`` is correctly
    rounded, the same bits as ``float(Fraction(num, den))``, for integers
    of any size, and does not underflow where a product of float factors
    would.
    """
    return num / den if as_float else Fraction(num, den)


def binomial(n: int, k: int) -> int:
    """C(n, k), zero-extended to 0 for k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


@lru_cache(maxsize=None)
def catalan(n: int) -> int:
    """The n-th Catalan number C_n = C(2n, n) / (n + 1), exactly."""
    if n < 0:
        raise ValueError(f"catalan requires n >= 0, got n={n}")
    # comb builds the value multiplicatively; the division is exact.
    return comb(2 * n, n) // (n + 1)


def w_coefficient(i: int, j: int) -> int:
    """Signed binomial-Catalan product W(i, j) = (-1)^j C(i, j) C_{i-1}.

    Zero outside 0 <= j <= i.  These are the coefficients produced by
    expanding C_{i-1} (1 - t)^i with the binomial theorem, and they obey
    the diagonal identity sum_{i<=t} W(i, t-i) = 1 iff t = 1, else 0.
    The reference for that identity and for the paper's form of the
    expanded coefficients, alpha(a, t) = sum_{i<=a} W(i, a+t-i)
    + 2(a+1) W(a+1, t-1), less 1 at (a=0, t=1); ``alpha_row`` takes
    the binomial model instead and does not call it.
    """
    if i < 1:
        raise ValueError(f"w_coefficient requires i >= 1, got i={i}")
    if j < 0 or j > i:
        return 0
    sign = -1 if j % 2 else 1
    return sign * comb(i, j) * catalan(i - 1)


@lru_cache(maxsize=None)
def alpha_row(a: int) -> tuple[int, ...]:
    """All a+2 expanded-polynomial coefficients for plateau index ``a``.

    Entry t (1-based) is alpha(a, t), the theta^(a+t) coefficient in
    pi_(2a+1) = 1 - theta - sum_t alpha(a, t) theta^(a+t); each row sums
    to -1, forced by the polynomial equalling 1 at theta = 1.

    With k = 2a+1 and N ~ Bin(k, theta), pi_k = theta + (1 - 2 theta)
    P(N <= a), so alpha(a, t) = c_(a+t) - 2 c_(a+t-1) with c_m the theta^m
    coefficient of P(N > a): by the partial alternating binomial sum,
    c_m = (-1)^(m-a-1) C(k, m) C(m-1, a) for a < m <= k, else 0.  The row
    starts from c_(a+1) = C(k, a+1) and steps by the exact ratio
    c_(m+1) = -c_m (k-m) m / ((m+1)(m-a)); see ``w_coefficient`` for the
    paper's form of the same numbers.

    Note on the classical tabulation: the entry at (a=5, t=1) is often
    printed as 426, which breaks the row-sum identity (that row then sums
    to -37).  Here it is 462 = C(11, 6), the theta^6 coefficient of
    P(N >= 6), a digit transposition away, as alpha(a, 1) = C(2a+1, a).
    """
    if a < 0:
        raise ValueError(f"alpha_row requires a >= 0, got a={a}")
    k = 2 * a + 1
    c = [comb(k, a + 1)]  # c_m for m = a+1 .. k
    for m in range(a + 1, k):
        c.append(-c[-1] * ((k - m) * m) // ((m + 1) * (m - a)))
    return tuple(hi - 2 * lo for hi, lo in zip([*c, 0], [0, *c]))


def alpha_coefficient(a: int, t: int) -> int:
    """Coefficient of the power a+t in the expanded accuracy polynomial."""
    if a < 0:
        raise ValueError(f"alpha_coefficient requires a >= 0, got a={a}")
    if not 1 <= t <= a + 2:
        raise ValueError(
            f"alpha_coefficient index t must be in 1..{a + 2}, got t={t}"
        )
    return alpha_row(a)[t - 1]


class _CoefficientTable(NamedTuple):
    rows: tuple[tuple[int, ...], ...]


class CoefficientTable(_CoefficientTable):
    """Rows of expanded-polynomial coefficients; ``rows[a]`` is plateau index a."""

    __slots__ = ()

    def __new__(cls, rows: tuple[tuple[int, ...], ...]) -> CoefficientTable:
        rows = tuple(tuple(row) for row in rows)
        for a, row in enumerate(rows):
            if len(row) != a + 2:
                raise ValueError(f"row {a} must have {a + 2} entries, got {len(row)}")
            if sum(row) != -1:
                raise ValueError(f"row {a} violates the row-sum identity: {sum(row)}")
        return tuple.__new__(cls, (rows,))

    @classmethod
    def _make(cls, iterable) -> CoefficientTable:
        return cls(*iterable)  # so _replace checks too

    @classmethod
    def up_to(cls, a_max: int) -> CoefficientTable:
        """Build (and cache, via alpha_row) all rows for a = 0..a_max."""
        if a_max < 0:
            raise ValueError(f"a_max must be >= 0, got {a_max}")
        return cls(tuple(alpha_row(a) for a in range(a_max + 1)))

    def row(self, a: int) -> tuple[int, ...]:
        if not 0 <= a < len(self.rows):
            raise ValueError(f"row index a must be in 0..{len(self.rows) - 1}, got {a}")
        return self.rows[a]


def catalan_gf(z: float | Fraction | int) -> float:
    """Catalan generating function G(z) = 2 / (1 + sqrt(1 - 4z)) on [0, 1/4]."""
    if not 0 <= z <= Fraction(1, 4):
        raise ValueError(f"catalan_gf requires 0 <= z <= 1/4, got {z}")
    return 2.0 / (1.0 + sqrt(float(1 - 4 * z)))


def _catalan_terms(u: int, v: int, n: int) -> tuple[int, int]:
    """(sum_(i=1..n) C_(i-1) u^i v^(n-i), C_n u^(n+1)) for integers u, v.

    The first is the Catalan partial sum at x = u/v scaled by v^n, summed
    by Horner; the second is the next term, which the loop already holds
    when it ends.  Each term C_(i-1) u^i advances by the exact ratio
    (4i-2) u / (i+1): one product and one exact division, no gcd.
    """
    total, term = 0, u  # term = C_(i-1) u^i, starting at i = 1
    for i in range(1, n + 1):
        total = total * v + term
        term = term * (u * (4 * i - 2)) // (i + 1)
    return total, term


def catalan_series(x: float | Fraction | int, terms: int) -> float | Fraction:
    """Partial sum  sum_{i=1..n} C_{i-1} x^i  of the Catalan series, n = terms.

    One numerator from ``_catalan_terms`` on x = u/v, divided by v^n once
    by ``_number``.
    For 0 <= x <= 1/4 the partial sums increase towards x G(x).
    """
    if terms < 0:
        raise ValueError(f"terms must be >= 0, got {terms}")
    u, v = x.as_integer_ratio()
    total, _ = _catalan_terms(u, v, terms)
    return _number(total, v**terms, isinstance(x, float))
