"""Exact coefficient machinery, checked against factorial-based oracles."""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, pi, sqrt

import pytest
from hypothesis import given, settings, strategies as st

from freqpred import combinatorics
from freqpred.combinatorics import (
    CoefficientTable,
    _catalan_terms,
    alpha_coefficient,
    alpha_row,
    binomial,
    catalan,
    catalan_gf,
    catalan_series,
    w_coefficient,
)


def binomial_oracle(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return factorial(n) // (factorial(k) * factorial(n - k))


def catalan_oracle(n: int) -> int:
    # (2i-2)! / (i! (i-1)!) evaluated at i = n + 1
    i = n + 1
    return factorial(2 * i - 2) // (factorial(i) * factorial(i - 1))


def alpha_row_reference(a: int) -> tuple[int, ...]:
    """The W-sum of the alpha_row docstring, one term at a time."""
    row = []
    for t in range(1, a + 3):
        total = sum(w_coefficient(i, a + t - i) for i in range(1, a + 1))
        total += 2 * (a + 1) * w_coefficient(a + 1, t - 1)
        if a == 0 and t == 1:
            total -= 1
        row.append(total)
    return tuple(row)


class TestBinomial:
    def test_small_case(self):
        assert binomial(4, 2) == 6

    def test_catalan_identity(self):
        # C(2a, a) = (a+1) * C_a
        assert binomial(6, 3) == 20
        assert binomial(6, 3) == (3 + 1) * catalan_oracle(3)

    def test_zero_extension(self):
        assert binomial(3, 5) == 0
        assert binomial(3, -1) == 0
        assert binomial(0, 0) == 1

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    @given(st.integers(0, 80), st.integers(-10, 90))
    @settings(max_examples=200)
    def test_matches_factorial_oracle(self, n, k):
        assert binomial(n, k) == binomial_oracle(n, k)

    @given(st.integers(0, 60), st.integers(0, 60))
    def test_symmetry(self, n, k):
        assert binomial(n, k) == binomial(n, n - k)


class TestCatalan:
    def test_base(self):
        assert catalan(0) == 1

    def test_known_values(self):
        assert catalan(4) == 14
        assert catalan(10) == 16796

    def test_matches_factorial_oracle(self):
        for n in range(60):
            assert catalan(n) == catalan_oracle(n)

    def test_segregated_form(self):
        for n in range(31):
            assert catalan(n) == binomial(2 * n, n) - binomial(2 * n, n + 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            catalan(-1)

    def test_stirling_asymptotics(self):
        a = 2000
        ratio = float(Fraction(catalan(a), 4**a)) * sqrt(pi * a**3)
        assert abs(ratio - 1.0) < 0.01


class TestWCoefficient:
    def test_examples(self):
        assert w_coefficient(2, 1) == -2
        assert w_coefficient(3, 0) == catalan(2) == 2
        assert w_coefficient(2, 3) == 0
        assert w_coefficient(2, -1) == 0

    def test_requires_positive_i(self):
        with pytest.raises(ValueError):
            w_coefficient(0, 0)

    def test_definition(self):
        for i in range(1, 20):
            for j in range(i + 1):
                expected = (-1) ** j * binomial_oracle(i, j) * catalan_oracle(i - 1)
                assert w_coefficient(i, j) == expected

    def test_diagonal_sum_identity(self):
        # sum_{i<=t} W(i, t-i) collapses to 1 exactly at t = 1
        for t in range(1, 51):
            total = sum(w_coefficient(i, t - i) for i in range(1, t + 1))
            assert total == (1 if t == 1 else 0)


class TestAlphaCoefficient:
    def test_first_row(self):
        assert alpha_coefficient(0, 1) == 1
        assert alpha_coefficient(0, 2) == -2

    def test_spot_values(self):
        assert alpha_coefficient(3, 2) == -154
        assert alpha_coefficient(10, 12) == -369512

    def test_disputed_entry_is_462(self):
        # 426 would break the row-sum identity (that row would sum to -37)
        assert alpha_coefficient(5, 1) == 462

    def test_row_sums(self):
        for a in range(11):
            assert sum(alpha_row(a)) == -1

    def test_leading_entry_is_central_binomial(self):
        for a in range(11):
            assert alpha_coefficient(a, 1) == binomial(2 * a + 1, a)

    def test_index_range(self):
        with pytest.raises(ValueError):
            alpha_coefficient(3, 0)
        with pytest.raises(ValueError):
            alpha_coefficient(3, 6)

    def test_row_length(self):
        for a in range(11):
            assert len(alpha_row(a)) == a + 2


class TestAlphaRowKernel:
    """The binomial-model kernel against the paper's W-sum, an independent oracle."""

    def test_matches_the_w_sum(self):
        for a in range(151):
            assert alpha_row(a) == alpha_row_reference(a), a

    @pytest.mark.parametrize("a", [400, 1499, 3000])
    def test_identities_at_large_a(self, a):
        row = alpha_row(a)
        assert len(row) == a + 2
        assert sum(row) == -1
        assert row[0] == comb(2 * a + 1, a)
        assert row[-1] == (-1) ** (a + 1) * 2 * comb(2 * a, a)

    def test_one_comb_call_and_no_catalan_call(self, monkeypatch):
        calls = []

        def counting(name, function):
            def wrapper(*args):
                calls.append(name)
                return function(*args)

            return wrapper

        monkeypatch.setattr(combinatorics, "comb", counting("comb", comb))
        monkeypatch.setattr(combinatorics, "catalan", counting("catalan", catalan))
        alpha_row.__wrapped__(200)
        # C(401, 201), then exact ratios; the W-sum made 10,403 comb calls
        assert calls == ["comb"]


@pytest.mark.parametrize(
    "call",
    [
        lambda: alpha_row(-1),
        lambda: alpha_coefficient(-1, 1),
        lambda: catalan_series(Fraction(1, 5), -1),
    ],
    ids=["alpha_row", "alpha_coefficient", "catalan_series"],
)
def test_negative_index_rejected(call):
    with pytest.raises(ValueError):
        call()


class TestCoefficientTable:
    def test_up_to(self):
        table = CoefficientTable.up_to(5)
        assert table.rows == tuple(alpha_row(a) for a in range(6))
        assert table.row(5)[0] == 462

    def test_rejects_bad_row_length(self):
        with pytest.raises(ValueError):
            CoefficientTable(((1, -2), (3, -8, 4, 0)))

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError):
            CoefficientTable(((1, -2), (3, -8, 5)))

    def test_rows_are_read_only_and_the_table_hashes(self):
        table = CoefficientTable.up_to(2)
        with pytest.raises(TypeError):
            table.rows[5] = (1, 2)
        assert hash(table) == hash(CoefficientTable.up_to(2))

    @pytest.mark.parametrize("a", [-1, 3, 5])
    def test_row_outside_the_table(self, a):
        # a bare tuple index would read rows[-1] for a = -1
        with pytest.raises(ValueError):
            CoefficientTable.up_to(2).row(a)


class TestCatalanGf:
    def test_endpoints(self):
        assert catalan_gf(0) == 1.0
        assert catalan_gf(Fraction(1, 4)) == 2.0
        assert catalan_gf(0.25) == 2.0

    def test_domain(self):
        with pytest.raises(ValueError):
            catalan_gf(0.26)
        with pytest.raises(ValueError):
            catalan_gf(-0.01)

    def test_partial_sum_oracle(self):
        z = 0.21
        partial = sum(catalan(k) * z**k for k in range(201))
        assert abs(catalan_gf(z) - partial) < 1e-9


class TestCatalanSeries:
    def test_matches_direct_sum_exact(self):
        x = Fraction(6, 25)
        direct = sum(catalan(i - 1) * x**i for i in range(1, 13))
        assert catalan_series(x, 12) == direct

    def test_float_matches_exact(self):
        exact = catalan_series(Fraction(21, 100), 40)
        assert abs(catalan_series(0.21, 40) - float(exact)) < 1e-12

    def test_float_is_the_exact_sum_rounded_once(self):
        assert catalan_series(0.21, 40) == float(catalan_series(Fraction(0.21), 40))

    def test_empty_sum(self):
        assert catalan_series(Fraction(1, 5), 0) == 0

    def test_kernel_on_an_integer_grid(self):
        for u in range(6):
            for v in range(1, 6):
                for n in range(9):
                    numerator, next_term = _catalan_terms(u, v, n)
                    assert next_term == catalan(n) * u ** (n + 1), (u, v, n)
                    assert catalan_series(Fraction(u, v), n) == Fraction(numerator, v**n)

    @pytest.mark.parametrize(
        "x", [0, Fraction(1, 100), Fraction(21, 100), Fraction(2, 9), Fraction(1, 4)]
    )
    def test_exact_input_stays_exact(self, x):
        # reference: Fraction terms by the ratio C_i / C_(i-1) = 2(2i-1)/(i+1)
        reference, term = Fraction(0), Fraction(x)
        for terms in range(61):
            value = catalan_series(x, terms)
            assert isinstance(value, Fraction) and value == reference, terms
            reference += term
            term *= x * Fraction(2 * (2 * terms + 1), terms + 2)
