"""Prediction arrays and posterior prediction, cross-checked by quadrature."""

from __future__ import annotations

import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import beta as beta_dist

from freqpred import prediction
from freqpred.accuracy import bin_pmf
from freqpred.prediction import (
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

HALF = Fraction(1, 2)

probabilities = st.fractions(min_value=0, max_value=1, max_denominator=30)


def posterior_mean_reference(prior: Prior, stat: CountStatistic) -> Fraction:
    """The likelihood-weighted ``Fraction`` average over the atoms: one
    ``bin_pmf`` per atom, then the weight products, two sums and a division."""
    weighted = [(v, w * bin_pmf(stat.n, stat.k, v)) for v, w in prior.atoms]
    marginal = sum(w for _, w in weighted)
    if marginal == 0:
        raise ImpossibleEvidenceError(f"count {stat} has zero probability")
    return sum(v * w for v, w in weighted) / marginal


def lifted(prior: Prior) -> Prior:
    """The prior at the dyadic value of its floats, discrete weights over their exact sum."""
    if prior.kind == "beta":
        return beta_prior(Fraction(prior.alpha), Fraction(prior.beta))
    total = sum(Fraction(w) for _, w in prior.atoms)
    return discrete_prior([(Fraction(v), Fraction(w) / total) for v, w in prior.atoms])


def optimal_array_reference(prior: Prior, k_max: int) -> PredictionArray:
    """The cell-by-cell build: one posterior mean per cell of the lifted
    prior, compared with 1/2 exactly."""
    exact = lifted(prior)
    rows = []
    for k in range(k_max + 1):
        row = []
        for n in range(k + 1):
            try:
                mean = posterior_mean(exact, CountStatistic(k, n))
            except ImpossibleEvidenceError:
                mean = HALF
            row.append(HALF if mean == HALF else Fraction(int(mean > HALF)))
        rows.append(tuple(row))
    return PredictionArray(tuple(rows))


def outcome(prior: Prior, stat: CountStatistic, mean=posterior_mean):
    """The posterior mean, or ImpossibleEvidenceError when the count is ruled out."""
    try:
        return mean(prior, stat)
    except ImpossibleEvidenceError:
        return ImpossibleEvidenceError


# 1-5 atoms p/q with q <= 60, atoms at 0 and 1 and zero weights included
exact_atoms = st.lists(
    st.tuples(
        st.one_of(
            st.sampled_from([Fraction(0), Fraction(1)]), st.fractions(0, 1, max_denominator=60)
        ),
        st.integers(0, 5),
    ),
    min_size=1,
    max_size=5,
).filter(lambda atoms: any(w for _, w in atoms))

float_atoms = st.lists(
    st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=5
).filter(lambda atoms: any(w for _, w in atoms))


def float_prior(raw_atoms) -> Prior:
    """A float discrete prior from raw atoms, weights over their float sum."""
    total = sum(w for _, w in raw_atoms)
    return discrete_prior([(v, w / total) for v, w in raw_atoms])


# float pairs v, 1 - v with one weight each: 1 - (1 - v) is a float whose
# complement is exact, so the pair is symmetric as floats, not up to rounding
symmetric_float_pairs = st.lists(
    st.tuples(st.floats(0, 1).map(lambda v: 1 - (1 - v)), st.floats(0, 1)),
    min_size=1,
    max_size=3,
)


def posterior_mean_quadrature(a: float, b: float, k: int, n: int) -> float:
    """Bayes-ratio integral under a beta density, by numeric quadrature."""
    density = beta_dist(a, b).pdf
    num, _ = quad(lambda t: t * float(bin_pmf(n, k, t)) * density(t), 0, 1)
    den, _ = quad(lambda t: float(bin_pmf(n, k, t)) * density(t), 0, 1)
    return num / den


class TestPredictionArray:
    def test_row_shape_enforced(self):
        with pytest.raises(ValueError):
            PredictionArray(((HALF,), (HALF,)))

    def test_entry_range_enforced(self):
        with pytest.raises(ValueError):
            PredictionArray(((Fraction(3, 2),),))

    def test_accessors(self):
        array = frequent_outcome_array(3)
        assert array.k_max == 3
        assert array.phi(2, 2) == 1


class TestFrequentOutcomeArray:
    def test_row_zero(self):
        assert frequent_outcome_array(0).rows == ((HALF,),)

    def test_row_two(self):
        assert frequent_outcome_array(2).rows[2] == (0, HALF, 1)

    def test_odd_row_has_no_tie(self):
        assert frequent_outcome_array(5).rows[5] == (0, 0, 0, 1, 1, 1)

    def test_rows_match_entrywise_definition(self):
        array = frequent_outcome_array(60)
        for k, row in enumerate(array.rows):
            assert row == tuple(
                Fraction(0) if 2 * n < k else (HALF if 2 * n == k else Fraction(1))
                for n in range(k + 1)
            )

    def test_majority_rule_everywhere(self):
        array = frequent_outcome_array(12)
        for k, row in enumerate(array.rows):
            for n, phi in enumerate(row):
                if 2 * n < k:
                    assert phi == 0
                elif 2 * n == k:
                    assert phi == HALF
                else:
                    assert phi == 1


class TestConditionalAccuracy:
    def test_pure_strategies(self):
        theta = Fraction(3, 10)
        assert conditional_accuracy(1, theta) == theta
        assert conditional_accuracy(0, theta) == Fraction(7, 10)

    def test_coin_flip_is_half(self):
        for theta in (Fraction(0), Fraction(1, 3), Fraction(1)):
            assert conditional_accuracy(HALF, theta) == HALF

    @given(probabilities, probabilities)
    @settings(max_examples=80)
    def test_complement_identity(self, phi, theta):
        assert conditional_accuracy(phi, theta) == 1 - conditional_accuracy(1 - phi, theta)

    @given(probabilities, probabilities)
    @settings(max_examples=80)
    def test_affine_slope(self, phi, theta):
        assert conditional_accuracy(phi, theta) == 1 - phi + (2 * phi - 1) * theta

    def test_float_theta_rounds_once(self):
        # (1 - theta)(1 - phi) + theta phi in floats gives ...158
        value = conditional_accuracy(Fraction(11, 97), 0.3803764132508314)
        assert value == 0.5924924639813159

    @given(
        st.one_of(st.floats(0, 1), st.integers(0, 97).map(lambda j: Fraction(j, 97))),
        st.floats(0, 1),
    )
    @settings(max_examples=200)
    def test_float_score_is_its_dyadic_value_rounded_once(self, phi, theta):
        value = conditional_accuracy(phi, theta)
        exact = conditional_accuracy(Fraction(phi), Fraction(theta))
        assert isinstance(value, float)
        assert value == float(exact)


class TestPrior:
    def test_beta_validation(self):
        with pytest.raises(ValueError):
            beta_prior(0, 1)
        with pytest.raises(ValueError):
            beta_prior(1, -2)

    def test_discrete_validation(self):
        with pytest.raises(ValueError):
            discrete_prior([])
        with pytest.raises(ValueError):
            discrete_prior([(Fraction(1, 2), Fraction(1, 2))])  # weights sum to 1/2
        with pytest.raises(ValueError):
            discrete_prior([(Fraction(3, 2), Fraction(1))])  # atom out of range

    def test_rejects_nan_weight(self):
        with pytest.raises(ValueError, match="atom weight"):
            discrete_prior([(0.5, math.nan)])

    @pytest.mark.parametrize("alpha, beta", [(math.inf, 1), (1, math.inf), (math.nan, 1)])
    def test_rejects_non_finite_beta_parameters(self, alpha, beta):
        with pytest.raises(ValueError, match="positive and finite"):
            beta_prior(alpha, beta)

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            (("beta", 1, 1), {"atoms": ((HALF, Fraction(1)),)}),
            (("discrete",), {"alpha": 1, "atoms": ((HALF, Fraction(1)),)}),
            (("gamma", 1, 1), {}),
            (("discrete",), {"atoms": ((0.4, 0.5), (0.6, 0.4))}),
        ],
        ids=["beta-with-atoms", "discrete-with-alpha", "unknown-kind", "float-weights-sum-0.9"],
    )
    def test_direct_construction_rejected(self, args, kwargs):
        with pytest.raises(ValueError):
            Prior(*args, **kwargs)

    def test_almost_uniform_beta_is_the_symmetric_beta(self):
        assert beta_prior(2, 2).is_almost_uniform
        assert not beta_prior(2, 3).is_almost_uniform

    def test_direct_construction_is_exact(self):
        prior = Prior("beta", 2, 3)
        assert prior == beta_prior(2, 3)
        assert type(prior.alpha) is int
        assert prior == beta_prior(Fraction(2), Fraction(3))
        assert hash(prior) == hash(beta_prior(Fraction(2), Fraction(3)))
        for value in (
            prior.mean(),
            posterior_mean(prior, CountStatistic(0, 0)),
            prior_covariance(prior),
        ):
            assert isinstance(value, Fraction), value
        assert prior.mean() == Fraction(2, 5)
        assert prior_covariance(prior) == Fraction(1, 25)

    def test_symmetry(self):
        assert beta_prior(2, 2).is_symmetric
        assert not beta_prior(3, 1).is_symmetric
        two_atom = discrete_prior([(Fraction(2, 5), HALF), (Fraction(3, 5), HALF)])
        assert two_atom.is_symmetric
        assert two_atom.is_almost_uniform
        lopsided = discrete_prior([(Fraction(2, 5), Fraction(3, 4)), (Fraction(3, 5), Fraction(1, 4))])
        assert not lopsided.is_symmetric

    def test_zero_weight_atoms_do_not_break_symmetry(self):
        # discrete:1/5=1/2,4/5=1/2,3/10=0 on the command line
        prior = discrete_prior([(Fraction(1, 5), HALF), (Fraction(4, 5), HALF), (Fraction(3, 10), 0)])
        assert prior.is_symmetric
        assert prior.is_almost_uniform
        assert optimal_array(prior, 12) == frequent_outcome_array(12)
        lopsided = discrete_prior([(Fraction(1, 5), HALF), (Fraction(3, 5), HALF), (Fraction(2, 5), 0)])
        assert not lopsided.is_symmetric

    def test_point_mass_at_half_is_not_almost_uniform(self):
        degenerate = discrete_prior([(HALF, Fraction(1))])
        assert degenerate.is_symmetric
        assert not degenerate.is_almost_uniform

    def test_mean(self):
        assert beta_prior(1, 3).mean() == Fraction(1, 4)
        two_atom = discrete_prior([(Fraction(2, 5), HALF), (Fraction(3, 5), HALF)])
        assert two_atom.mean() == HALF

    def test_float_beta_mean_rounds_once(self):
        # alpha / (alpha + beta) in floats rounds twice: 0.8084880665823716
        assert beta_prior(6.3942907240361775, 1.5146580759950041).mean() == 0.8084880665823715

    @given(st.floats(0.01, 10), st.floats(0.01, 10))
    @settings(max_examples=100, deadline=None)
    def test_float_beta_moments_are_dyadic_values_rounded_once(self, alpha, beta):
        a, b = Fraction(alpha), Fraction(beta)
        prior = beta_prior(alpha, beta)
        assert prior.mean() == float(a / (a + b))
        covariance = prior_covariance(prior)
        assert covariance == float(a * b / ((a + b) ** 2 * (a + b + 1)))
        assert covariance >= 0

    @given(float_atoms)
    @settings(max_examples=100, deadline=None)
    def test_float_discrete_moments_are_dyadic_values_rounded_once(self, raw_atoms):
        prior = float_prior(raw_atoms)
        exact = lifted(prior)
        mean = sum(v * w for v, w in exact.atoms)
        second = sum(v * v * w for v, w in exact.atoms)
        assert prior.mean() == float(mean)
        covariance = prior_covariance(prior)
        assert covariance == float(second - mean * mean)
        assert covariance >= 0


class TestPosteriorMean:
    def test_uniform_prior_conjugacy(self):
        assert posterior_mean(beta_prior(1, 1), CountStatistic(4, 3)) == Fraction(2, 3)

    def test_quadrature_oracle(self):
        exact = posterior_mean(beta_prior(1, 1), CountStatistic(4, 3))
        assert abs(float(exact) - posterior_mean_quadrature(1, 1, 4, 3)) < 1e-10
        exact = posterior_mean(beta_prior(Fraction(1, 2), Fraction(5, 2)), CountStatistic(6, 2))
        assert abs(float(exact) - posterior_mean_quadrature(0.5, 2.5, 6, 2)) < 1e-10

    def test_symmetric_tie_is_half(self):
        for prior in (beta_prior(2, 2), beta_prior(Fraction(1, 2), Fraction(1, 2))):
            for a in range(5):
                assert posterior_mean(prior, CountStatistic(2 * a, a)) == HALF

    def test_two_atom_hand_computation(self):
        prior = discrete_prior([(Fraction(2, 5), HALF), (Fraction(3, 5), HALF)])
        assert posterior_mean(prior, CountStatistic(1, 1)) == Fraction(13, 25)

    def test_impossible_evidence(self):
        prior = discrete_prior([(Fraction(0), Fraction(1))])
        with pytest.raises(ImpossibleEvidenceError):
            posterior_mean(prior, CountStatistic(3, 2))

    @given(exact_atoms, st.integers(0, 40))
    @settings(max_examples=100, deadline=None)
    def test_matches_fraction_reference(self, raw_atoms, k):
        total = sum(w for _, w in raw_atoms)
        prior = discrete_prior([(v, Fraction(w, total)) for v, w in raw_atoms])
        for n in range(k + 1):
            stat = CountStatistic(k, n)
            assert outcome(prior, stat) == outcome(prior, stat, posterior_mean_reference)

    def test_float_pmfs_that_underflow(self):
        # every float bin_pmf here is 0.0; the exact kernel still sees the 81:1 odds
        stat = CountStatistic(2000, 1001)
        mean = posterior_mean(discrete_prior([(0.1, 0.5), (0.9, 0.5)]), stat)
        assert isinstance(mean, float)
        assert mean == pytest.approx(73 / 82, rel=1e-12)
        exact = discrete_prior([(Fraction(1, 10), HALF), (Fraction(9, 10), HALF)])
        assert posterior_mean(exact, stat) == Fraction(73, 82)

    @given(float_atoms, st.integers(0, 40))
    @settings(max_examples=100, deadline=None)
    def test_float_prior_is_its_dyadic_value_rounded_once(self, raw_atoms, k):
        # the mean does not depend on the weights' scale, so the lifted prior
        # may renormalise its exact weights where the float sum is off by ulps
        prior = float_prior(raw_atoms)
        exact = lifted(prior)
        for n in range(k + 1):
            stat = CountStatistic(k, n)
            expected = outcome(exact, stat)
            if expected is not ImpossibleEvidenceError:
                expected = float(expected)
            assert outcome(prior, stat) == expected


    def test_float_beta_mean_rounds_once(self):
        # three float roundings gave 0.574635994271063
        prior = beta_prior(7.261267488450687, 5.2810178494803575)
        assert posterior_mean(prior, CountStatistic(195, 112)) == 0.5746359942710632

    @given(
        st.floats(0.01, 10), st.floats(0.01, 10), st.integers(0, 200).flatmap(
            lambda k: st.tuples(st.just(k), st.integers(0, k))
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_float_beta_is_its_dyadic_value_rounded_once(self, alpha, beta, count):
        stat = CountStatistic(*count)
        mean = posterior_mean(beta_prior(alpha, beta), stat)
        exact = posterior_mean(beta_prior(Fraction(alpha), Fraction(beta)), stat)
        assert isinstance(mean, float)
        assert mean == float(exact)


class TestPosteriorCorrectProbability:
    def test_coin_flip(self):
        assert posterior_correct_probability(HALF, beta_prior(3, 1), CountStatistic(5, 2)) == HALF

    def test_conjugate_then_affine(self):
        value = posterior_correct_probability(1, beta_prior(2, 2), CountStatistic(3, 3))
        assert value == Fraction(5, 7)

    def test_symmetric_tie(self):
        for phi in (Fraction(0), Fraction(1, 4), Fraction(1)):
            value = posterior_correct_probability(phi, beta_prior(5, 5), CountStatistic(4, 2))
            assert value == HALF

    def test_float_beta_rounds_once(self):
        # the score at the float posterior mean rounds twice: ...38936
        prior = beta_prior(6.427256631159767, 5.95013720459472)
        value = posterior_correct_probability(0, prior, CountStatistic(30, 26))
        assert value == 0.2347982333023894

    @given(
        st.one_of(st.sampled_from([Fraction(0), HALF, Fraction(1)]), st.floats(0, 1)),
        st.one_of(
            st.tuples(st.floats(0.01, 10), st.floats(0.01, 10)).map(lambda ab: beta_prior(*ab)),
            float_atoms.map(float_prior),
        ),
        st.integers(0, 40).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, k))),
    )
    @settings(max_examples=200, deadline=None)
    def test_float_score_is_its_dyadic_value_rounded_once(self, phi, prior, count):
        stat = CountStatistic(*count)
        exact = outcome(lifted(prior), stat)
        assume(exact is not ImpossibleEvidenceError)
        value = posterior_correct_probability(phi, prior, stat)
        assert isinstance(value, float)
        assert value == float(conditional_accuracy(Fraction(phi), exact))

    def test_exact_prior_is_not_lifted(self):
        for prior in (beta_prior(2, 3), discrete_prior([(Fraction(2, 5), HALF), (HALF, HALF)])):
            assert prediction._exact(prior) is prior

    def test_affinity_matches_quadrature(self):
        # posterior expectation of the conditional accuracy, integrated
        # numerically, equals the conditional accuracy at the posterior mean
        a, b, k, n, phi = 2.0, 2.0, 5, 4, 1.0
        density = beta_dist(a, b).pdf
        like = lambda t: float(bin_pmf(n, k, t)) * density(t)
        num, _ = quad(lambda t: conditional_accuracy(phi, t) * like(t), 0, 1)
        den, _ = quad(like, 0, 1)
        direct = posterior_correct_probability(
            phi, beta_prior(Fraction(2), Fraction(2)), CountStatistic(k, n)
        )
        assert abs(num / den - float(direct)) < 1e-10


@pytest.mark.parametrize(
    "call",
    [lambda: frequent_outcome_array(-1), lambda: optimal_array(beta_prior(1, 1), -1)],
    ids=["frequent_outcome_array", "optimal_array"],
)
def test_negative_k_max_rejected(call):
    with pytest.raises(ValueError):
        call()


class TestOptimalArray:
    symmetric_battery = [
        beta_prior(Fraction(1, 2), Fraction(1, 2)),
        beta_prior(1, 1),
        beta_prior(2, 2),
        beta_prior(5, 5),
        discrete_prior([(Fraction(2, 5), HALF), (Fraction(3, 5), HALF)]),
        discrete_prior(
            [(Fraction(1, 10), Fraction(1, 4)), (Fraction(9, 10), Fraction(1, 4)), (HALF, HALF)]
        ),
        # float atoms, symmetric as floats (1 - 0.75 == 0.25)
        discrete_prior([(0.25, 0.5), (0.75, 0.5)]),
    ]

    def test_symmetric_priors_recover_frequent_outcome(self):
        expected = frequent_outcome_array(12)
        for prior in self.symmetric_battery:
            assert optimal_array(prior, 12) == expected

    def test_asymmetric_row(self):
        # beta(3,1): posterior means at k=2 are 3/6, 4/6, 5/6
        array = optimal_array(beta_prior(3, 1), 2)
        assert array.rows[2] == (HALF, 1, 1)

    def test_degenerate_half_prior(self):
        array = optimal_array(discrete_prior([(HALF, Fraction(1))]), 4)
        assert all(phi == HALF for row in array.rows for phi in row)

    def test_impossible_counts_get_half(self):
        prior = discrete_prior([(0, HALF), (1, HALF)])
        assert optimal_array(prior, 2).rows == ((HALF,), (0, 1), (0, HALF, 1))

    def test_float_pmfs_that_underflow(self):
        # both atoms' float pmfs are 0.0 at (4, 2), yet the count is possible
        array = optimal_array(discrete_prior([(1e-200, 0.5), (1e-190, 0.5)]), 4)
        assert array.phi(4, 2) == 0
        assert all(phi == 0 for row in array.rows for phi in row)

    def test_float_ties_at_large_k(self):
        # atoms 0.1 and 0.9 are symmetric only up to rounding (1 - 0.9 != 0.1),
        # so at 2n = k the exact mean of their dyadic values is not 1/2: each
        # such cell backs the side of 1/2 that mean is on, none is 1/2
        prior = discrete_prior([(0.1, 0.5), (0.9, 0.5)])
        assert not prior.is_symmetric
        array = optimal_array(prior, 120)
        for k in range(0, 121, 2):
            stat = CountStatistic(k, k // 2)
            mean = posterior_mean_reference(lifted(prior), stat)
            assert mean != HALF
            assert array.phi(*stat) == (mean > HALF)

    @pytest.mark.parametrize("e", [24, 26])
    def test_float_atoms_near_half_are_frequent_outcome(self, e):
        # 0.5 +- 2**-e are exactly symmetric floats; the (k + 1) 2**-50 tie
        # tolerance made 190 (e = 24) and 200 (e = 26) of these rows 1/2 where
        # the exact mean is off 1/2 by less than it
        prior = discrete_prior([(0.5 - 2.0**-e, 0.5), (0.5 + 2.0**-e, 0.5)])
        assert prior.is_almost_uniform
        assert optimal_array(prior, 200) == frequent_outcome_array(200)

    @given(symmetric_float_pairs, st.floats(0, 1), st.integers(0, 30))
    @settings(max_examples=100, deadline=None)
    def test_symmetric_float_prior_is_frequent_outcome(self, pairs, center, k_max):
        total = 2 * sum(w for _, w in pairs) + center
        assume(total > 0)
        atoms = [(0.5, center / total)]
        for v, w in pairs:
            atoms += [(v, w / total), (1 - v, w / total)]
        prior = discrete_prior(atoms)
        assume(prior.is_almost_uniform and all(0 < v < 1 for v, _ in atoms))
        assert optimal_array(prior, k_max) == frequent_outcome_array(k_max)

    @given(float_atoms, st.integers(0, 30))
    @settings(max_examples=50, deadline=None)
    def test_float_atoms_decide_on_their_dyadic_values(self, raw_atoms, k_max):
        prior = float_prior(raw_atoms)
        assert optimal_array(prior, k_max) == optimal_array(lifted(prior), k_max)

    def test_argmax_tracks_majority_sign(self):
        # mechanism check: posterior mean sits on the same side of 1/2 as n of k/2
        for prior in self.symmetric_battery[:4]:
            for k in range(21):
                for n in range(k + 1):
                    mean = posterior_mean(prior, CountStatistic(k, n))
                    lhs = (mean > HALF) - (mean < HALF)
                    rhs = (2 * n > k) - (2 * n < k)
                    assert lhs == rhs

    def test_optimality_over_phi_grid(self):
        candidates = [Fraction(0), Fraction(1, 4), HALF, Fraction(3, 4), Fraction(1)]
        for prior in self.symmetric_battery[:4]:
            array = optimal_array(prior, 10)
            for k in range(11):
                for n in range(k + 1):
                    stat = CountStatistic(k, n)
                    best = posterior_correct_probability(array.phi(k, n), prior, stat)
                    for phi in candidates:
                        other = posterior_correct_probability(phi, prior, stat)
                        if 2 * n == k:
                            assert other == best == HALF
                        elif phi != array.phi(k, n):
                            assert other < best


class TestBetaOptimalArray:
    """Beta rows from the boundary 2n = k + beta - alpha, not per-cell means."""

    @given(
        st.fractions(Fraction(1, 8), 12, max_denominator=8),
        st.fractions(Fraction(1, 8), 12, max_denominator=8),
        st.integers(0, 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_cell_by_cell_reference(self, alpha, beta, k_max):
        prior = beta_prior(alpha, beta)
        assert optimal_array(prior, k_max) == optimal_array_reference(prior, k_max)

    @given(st.floats(0.01, 10), st.floats(0.01, 10))
    @settings(max_examples=50, deadline=None)
    def test_float_parameters_decide_on_their_dyadic_values(self, alpha, beta):
        lifted = beta_prior(Fraction(alpha), Fraction(beta))
        assert optimal_array(beta_prior(alpha, beta), 60) == optimal_array(lifted, 60)

    def test_float_near_tie_is_decided_exactly(self):
        # 0.1 + 0.2 > 0.3 as floats: alpha > beta, so the count k/2 backs 1;
        # the (k+1) 2**-50 float tolerance used to make these cells 1/2
        prior = beta_prior(0.1 + 0.2, 0.3)
        assert not prior.is_symmetric
        array = optimal_array(prior, 40)
        for k in range(0, 41, 2):
            assert array.phi(k, k // 2) == 1
        assert array.rows[:3] == ((1,), (0, 1), (0, 1, 1))

    @pytest.mark.parametrize("a", [Fraction(1, 2), 0.5, 5])
    def test_symmetric_beta_is_frequent_outcome(self, a):
        assert optimal_array(beta_prior(a, a), 300) == frequent_outcome_array(300)

    def test_no_posterior_mean_per_cell(self, monkeypatch):
        calls = []

        def counted(prior, stat):
            calls.append(stat)
            return posterior_mean(prior, stat)

        monkeypatch.setattr(prediction, "posterior_mean", counted)
        optimal_array(beta_prior(Fraction(7, 2), Fraction(1, 2)), 150)
        assert calls == []


def exact_discrete(raw_atoms) -> Prior:
    """A discrete prior from raw atoms with integer weights, over their sum."""
    total = sum(w for _, w in raw_atoms)
    return discrete_prior([(v, Fraction(w, total)) for v, w in raw_atoms])


beta_parameters = st.fractions(Fraction(1, 8), 12, max_denominator=8)
# beta priors, and discrete priors whose atoms include 0, 1/2 and 1 and weight-0 atoms
cut_priors = st.one_of(
    st.builds(beta_prior, beta_parameters, beta_parameters),
    st.lists(
        st.tuples(
            st.one_of(
                st.sampled_from([Fraction(0), HALF, Fraction(1)]),
                st.fractions(0, 1, max_denominator=60),
            ),
            st.integers(0, 5),
        ),
        min_size=1,
        max_size=5,
    )
    .filter(lambda atoms: any(w for _, w in atoms))
    .map(exact_discrete),
)


def assert_reads_as(array: PredictionArray, twin: PredictionArray) -> None:
    """``array`` reads, compares, hashes, slices and pickles as ``twin``,
    an array built from rows of entries."""
    for k, row in enumerate(twin.rows):
        assert array.rows[k] == row
        for n, phi in enumerate(row):
            assert array.phi(k, n) == phi
    assert array.k_max == twin.k_max
    assert array.rows == twin.rows and twin.rows == array.rows
    assert tuple(array.rows) == twin.rows and len(array.rows) == len(twin.rows)
    assert array.rows[::2] == twin.rows[::2] and array.rows[-1] == twin.rows[-1]
    with pytest.raises(IndexError):
        array.rows[len(twin.rows)]
    assert array == twin and twin == array and not array != twin
    assert hash(array) == hash(twin) and hash(array.rows) == hash(twin.rows)
    assert array != frequent_outcome_array(twin.k_max + 1)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(array, protocol))
        assert copy == array and type(copy.rows) is type(array.rows)


class TestCutRows:
    """The arrays the package builds hold each row as two cuts and read as
    the rows a user would give entry by entry."""

    @given(cut_priors, st.integers(0, 30))
    @example(beta_prior(12, 1), 12)  # 2n = k - 11 has a root n < 0 on odd rows
    @example(exact_discrete([(0, 1), (1, 2)]), 5)  # 0 < n < k has zero likelihood
    @settings(max_examples=150, deadline=None)
    def test_optimal_array_matches_cell_by_cell_reference(self, prior, k_max):
        assert_reads_as(optimal_array(prior, k_max), optimal_array_reference(prior, k_max))

    @given(st.integers(0, 60))
    @settings(max_examples=30, deadline=None)
    def test_frequent_outcome_array_reads_as_its_rows(self, k_max):
        rows = tuple(
            tuple(HALF if 2 * n == k else Fraction(int(2 * n > k)) for n in range(k + 1))
            for k in range(k_max + 1)
        )
        assert_reads_as(frequent_outcome_array(k_max), PredictionArray(rows))

    def test_cut_arrays_compare_by_value(self):
        symmetric = optimal_array(beta_prior(5, 5), 40)
        assert symmetric == frequent_outcome_array(40)
        assert hash(symmetric) == hash(frequent_outcome_array(40))
        assert optimal_array(beta_prior(5, 4), 40) != symmetric
        # beta(41, 1) and beta(42, 1) back 1 on every row up to 39; on row 40
        # the first ties at n = 0
        ties, ones = optimal_array(beta_prior(41, 1), 40), optimal_array(beta_prior(42, 1), 40)
        assert ties != ones and ties.rows[:40] == ones.rows[:40]
        assert ties.rows[40] == (HALF,) + (1,) * 40 and ones.rows[40] == (1,) * 41


class TestPriorCovariance:
    def test_uniform_beta(self):
        assert prior_covariance(beta_prior(1, 1)) == Fraction(1, 12)

    def test_quadrature_oracle(self):
        density = beta_dist(1, 1).pdf
        mean, _ = quad(lambda t: t * density(t), 0, 1)
        second, _ = quad(lambda t: t * t * density(t), 0, 1)
        assert abs(float(prior_covariance(beta_prior(1, 1))) - (second - mean**2)) < 1e-12

    def test_degenerate_atom(self):
        assert prior_covariance(discrete_prior([(HALF, Fraction(1))])) == 0

    def test_two_atom(self):
        prior = discrete_prior([(Fraction(2, 5), HALF), (Fraction(3, 5), HALF)])
        assert prior_covariance(prior) == Fraction(1, 100)

    def test_float_point_mass_is_zero(self):
        # the second moment minus the squared mean in floats gave -1.7e-18
        assert prior_covariance(discrete_prior([(0.1, 0.2), (0.1, 0.8)])) == 0.0

    def test_mass_at_zero(self):
        # no success is possible, so there is no posterior after one
        assert prior_covariance(discrete_prior([(0, 1)])) == 0
        assert prior_covariance(discrete_prior([(0.0, 1.0)])) == 0.0

    @given(st.lists(st.tuples(probabilities, st.integers(1, 5)), min_size=1, max_size=4))
    @settings(max_examples=50)
    def test_non_negative(self, raw_atoms):
        total = sum(w for _, w in raw_atoms)
        atoms = [(v, Fraction(w, total)) for v, w in raw_atoms]
        assert prior_covariance(discrete_prior(atoms)) >= 0
