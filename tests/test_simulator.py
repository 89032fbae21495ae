"""Monte Carlo oracle: determinism, agreement with the analytic accuracy."""

from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from freqpred import cli, simulator
from freqpred.accuracy import accuracy_recursive, bin_pmf
from freqpred.prediction import (
    PredictionArray,
    Prior,
    beta_prior,
    conditional_accuracy,
    discrete_prior,
    frequent_outcome_array,
    optimal_array,
    prior_covariance,
)
from freqpred.simulator import (
    DEFAULT_CHUNK,
    SimulationConfig,
    _cutoffs,
    _draws,
    _keys,
    _urn_cutoffs,
    simulate_accuracy,
    simulate_covariance,
)

HALF = Fraction(1, 2)
# rounds to 0.0 as a float, so 1 - TINY rounds to 1.0
TINY = Fraction(1, 10**400)


def all_ones_array(k_max: int) -> PredictionArray:
    return PredictionArray(tuple(tuple(Fraction(1) for _ in range(k + 1)) for k in range(k_max + 1)))


def laplace_array(k_max: int) -> PredictionArray:
    """Laplace's rule of succession (n+1)/(k+2): every entry is fractional."""
    return PredictionArray(
        tuple(tuple(Fraction(n + 1, k + 2) for n in range(k + 1)) for k in range(k_max + 1))
    )


def mixed_array(k_max: int) -> PredictionArray:
    """0 in the lower third, 1 in the upper third, (n+1)/(k+2) between;
    one entry per side is a Fraction that rounds to 0.0 or 1.0."""

    def entry(k: int, n: int) -> Fraction:
        if 3 * n < k:
            return TINY if n == 1 else Fraction(0)
        if 3 * n > 2 * k:
            return 1 - TINY if n == k - 1 else Fraction(1)
        return Fraction(n + 1, k + 2)

    return PredictionArray(
        tuple(tuple(entry(k, n) for n in range(k + 1)) for k in range(k_max + 1))
    )


def float_cut_array(k_max: int) -> PredictionArray:
    """Float entries 0.0, 0.5 and 1.0 alone, rising in n at random cuts:
    every row is read as cuts, as a row of ``frequent_outcome_array`` is."""
    rng = random.Random(k_max)
    rows = []
    for k in range(k_max + 1):
        zeros, ones = sorted(rng.randint(0, k + 1) for _ in range(2))
        rows.append((0.0,) * zeros + (0.5,) * (ones - zeros) + (1.0,) * (k + 1 - ones))
    return PredictionArray(tuple(rows))


def unsorted_halves_array(k_max: int) -> PredictionArray:
    """Entries 0, 1/2 and 1 alone, in rows that do not rise in n: row 2 is
    (1, 0, 1/2) and every other row the frequent-outcome row reversed, so
    each row but row 0 is read as a cutoff table."""
    rows = [tuple(reversed(row)) for row in frequent_outcome_array(k_max).rows]
    rows[2] = (Fraction(1), Fraction(0), HALF)
    return PredictionArray(tuple(rows))


class TestConfigValidation:
    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            SimulationConfig(theta_source=0.5, horizon=0, replications=10, seed=1)

    def test_bad_replications(self):
        with pytest.raises(ValueError):
            SimulationConfig(theta_source=0.5, horizon=5, replications=0, seed=1)

    def test_bad_seed(self):
        with pytest.raises(ValueError):
            SimulationConfig(theta_source=0.5, horizon=5, replications=10, seed=2**64)

    @pytest.mark.parametrize("field", ["horizon", "replications", "seed"])
    def test_non_integer_fields(self, field):
        fields = dict(theta_source=0.5, horizon=5, replications=10, seed=1)
        # a float is refused, not truncated: seeds 1 and 1.5 would agree
        with pytest.raises(ValueError, match=field):
            SimulationConfig(**{**fields, field: 1.5})
        given = SimulationConfig(**{**fields, field: np.int64(fields[field])})
        assert given == SimulationConfig(**fields) and type(getattr(given, field)) is int

    def test_bad_theta(self):
        with pytest.raises(ValueError):
            SimulationConfig(theta_source=1.5, horizon=5, replications=10, seed=1)

    def test_array_must_cover_horizon(self):
        config = SimulationConfig(theta_source=0.5, horizon=6, replications=10, seed=1)
        with pytest.raises(ValueError):
            simulate_accuracy(config, frequent_outcome_array(3))


class TestDeterminism:
    config = SimulationConfig(theta_source=0.3, horizon=12, replications=20_000, seed=777)

    def test_identical_reports(self):
        array = frequent_outcome_array(12)
        assert simulate_accuracy(self.config, array) == simulate_accuracy(self.config, array)

    def test_chunk_size_never_matters(self, monkeypatch):
        small = SimulationConfig(theta_source=0.3, horizon=12, replications=2_000, seed=777)
        array = frequent_outcome_array(12)
        monkeypatch.setattr(simulator, "DEFAULT_CHUNK", 2_000)
        baseline = simulate_accuracy(small, array)
        for chunk in (1, 7, 1024, 1999):
            monkeypatch.setattr(simulator, "DEFAULT_CHUNK", chunk)
            assert simulate_accuracy(small, array) == baseline

    def test_different_seeds_differ(self):
        array = frequent_outcome_array(12)
        other = SimulationConfig(theta_source=0.3, horizon=12, replications=20_000, seed=778)
        assert simulate_accuracy(self.config, array) != simulate_accuracy(other, array)


class TestAccuracyEstimates:
    def test_degenerate_theta_one(self):
        config = SimulationConfig(theta_source=1.0, horizon=6, replications=5_000, seed=11)
        report = simulate_accuracy(config, frequent_outcome_array(6))
        assert all(step.estimate == 1.0 for step in report.steps[1:])
        first = report.steps[0]
        assert abs(first.estimate - 0.5) <= 3 * first.stderr

    def test_fair_theta(self):
        config = SimulationConfig(theta_source=0.5, horizon=10, replications=100_000, seed=5)
        report = simulate_accuracy(config, frequent_outcome_array(10))
        for step in report.steps:
            assert abs(step.estimate - 0.5) <= 3 * step.stderr

    def test_report_shape(self):
        config = SimulationConfig(theta_source=0.25, horizon=4, replications=300, seed=3)
        report = simulate_accuracy(config, frequent_outcome_array(4))
        assert [s.k for s in report.steps] == [0, 1, 2, 3]
        for step in report.steps:
            assert 0 <= step.hits <= step.trials == 300
            assert 0.0 <= step.estimate <= 1.0

    def test_tracks_analytic_accuracy(self):
        theta = 0.3
        config = SimulationConfig(theta_source=theta, horizon=25, replications=200_000, seed=123)
        report = simulate_accuracy(config, frequent_outcome_array(25))
        inside = sum(
            abs(step.estimate - accuracy_recursive(step.k, theta)) <= 3 * step.stderr
            for step in report.steps
        )
        assert inside >= 0.95 * len(report.steps)

    def test_exact_rational_theta_accepted(self):
        config = SimulationConfig(
            theta_source=Fraction(9, 20), horizon=5, replications=1_000, seed=2
        )
        report = simulate_accuracy(config, frequent_outcome_array(5))
        assert len(report.steps) == 5

    def test_full_scale_oracle_agreement(self):
        # million-replication sweep: at least 95% of the first 41 steps
        # must land inside the analytic 3-sigma band for each bias level
        array = frequent_outcome_array(41)
        for theta in (0.1, 0.3, 0.45):
            config = SimulationConfig(
                theta_source=theta, horizon=41, replications=10**6, seed=4242
            )
            report = simulate_accuracy(config, array)
            inside = sum(
                abs(step.estimate - accuracy_recursive(step.k, theta)) <= 3 * step.stderr
                for step in report.steps
            )
            assert inside >= math.ceil(0.95 * len(report.steps))


class TestPriorDrawnTheta:
    def test_exchangeable_marginal_matches_prior_mean(self):
        # predicting 1 always makes every step's hit rate the marginal
        # P(x = 1), which for an exchangeable process is the prior mean
        prior = beta_prior(1, 3)
        config = SimulationConfig(theta_source=prior, horizon=8, replications=200_000, seed=31)
        report = simulate_accuracy(config, all_ones_array(8))
        mean = float(prior.mean())
        for step in report.steps:
            assert abs(step.estimate - mean) <= 3 * step.stderr

    def test_discrete_prior_draws(self):
        prior = discrete_prior([(Fraction(1, 10), HALF), (Fraction(9, 10), HALF)])
        config = SimulationConfig(theta_source=prior, horizon=6, replications=100_000, seed=17)
        report = simulate_accuracy(config, all_ones_array(6))
        for step in report.steps:
            assert abs(step.estimate - 0.5) <= 3 * step.stderr

    @pytest.mark.parametrize(
        "atoms",
        [
            # 37 cells of its optimal array differ from the frequent-outcome rule
            [
                (Fraction(1, 5), HALF),
                (Fraction(3, 5), Fraction(1, 4)),
                (Fraction(9, 10), Fraction(1, 4)),
            ],
            # ties off the middle, at n = (k + 1) / 2 for odd k
            [(Fraction(1, 3), Fraction(2, 3)), (Fraction(2, 3), Fraction(1, 3))],
        ],
    )
    def test_optimal_array_under_its_asymmetric_prior(self, atoms):
        prior = discrete_prior(atoms)
        array = optimal_array(prior, 30)
        assert array != frequent_outcome_array(30)
        config = SimulationConfig(theta_source=prior, horizon=30, replications=200_000, seed=11)
        for step in simulate_accuracy(config, array).steps:
            k = step.k
            exact = sum(
                weight * sum(
                    bin_pmf(n, k, theta) * conditional_accuracy(array.phi(k, n), theta)
                    for n in range(k + 1)
                )
                for theta, weight in prior.atoms
            )
            assert abs(step.estimate - float(exact)) <= 4 * step.stderr, k


class TestCovariance:
    def test_requires_two_replications(self):
        with pytest.raises(ValueError, match="at least 2 replications"):
            simulate_covariance(beta_prior(1, 1), 1, 1)

    def test_degenerate_prior_gives_independence(self):
        prior = discrete_prior([(HALF, Fraction(1))])
        result = simulate_covariance(prior, 100_000, 8)
        assert abs(result.estimate) <= 3 / result.replications**0.5

    def test_uniform_beta_matches_prior_covariance(self):
        result = simulate_covariance(beta_prior(1, 1), 200_000, 99)
        target = float(prior_covariance(beta_prior(1, 1)))
        assert abs(result.estimate - target) <= 3 * result.stderr

    def test_two_atom_matches_prior_covariance(self):
        prior = discrete_prior([(Fraction(2, 5), HALF), (Fraction(3, 5), HALF)])
        result = simulate_covariance(prior, 200_000, 12)
        assert abs(result.estimate - float(prior_covariance(prior))) <= 3 * result.stderr

    def test_symmetric_priors_never_significantly_negative(self):
        battery = [
            beta_prior(Fraction(1, 2), Fraction(1, 2)),
            beta_prior(2, 2),
            discrete_prior([(Fraction(1, 10), HALF), (Fraction(9, 10), HALF)]),
            discrete_prior([(HALF, Fraction(1))]),
        ]
        for index, prior in enumerate(battery):
            result = simulate_covariance(prior, 50_000, 40 + index)
            assert result.estimate >= -3 * max(result.stderr, 1e-12)

    @pytest.mark.parametrize("theta", [1.5, -0.5, math.nan])
    def test_rejects_theta_outside_the_unit_interval(self, theta):
        with pytest.raises(ValueError, match="theta must lie in"):
            simulate_covariance(theta, 100, 1)

    def test_deterministic(self, monkeypatch):
        first = simulate_covariance(beta_prior(1, 1), 10_000, 7)
        monkeypatch.setattr(simulator, "DEFAULT_CHUNK", 333)
        second = simulate_covariance(beta_prior(1, 1), 10_000, 7)
        assert first == second


class TestWorkingSet:
    def test_beta_prior_chunk_peak(self):
        # a chunk holds its buffers, the counts' intp mirror and its indices;
        # the urn's cutoffs are one small table per call
        array = frequent_outcome_array(70)
        config = SimulationConfig(beta_prior(HALF, Fraction(7, 2)), 71, DEFAULT_CHUNK, 9)
        tracemalloc.start()
        try:
            simulate_accuracy(config, array)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 8 * DEFAULT_CHUNK

    def test_beta_prior_table_rows_chunk_peak(self):
        # every row of Laplace's rule is a cutoff table, gathered through
        # the same intp mirror as the urn's cutoffs
        config = SimulationConfig(beta_prior(HALF, Fraction(7, 2)), 71, DEFAULT_CHUNK, 9)
        tracemalloc.start()
        try:
            simulate_accuracy(config, laplace_array(70))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 8 * DEFAULT_CHUNK


GOLDEN_SOURCES = {
    "fixed_float": 0.4731,
    "fixed_exact": Fraction(9, 20),
    "beta": beta_prior(2, 3),
    "discrete": discrete_prior(
        [(Fraction(1, 5), Fraction(1, 4)), (HALF, HALF), (Fraction(4, 5), Fraction(1, 4))]
    ),
}
GOLDEN_ARRAYS = {
    "frequent": frequent_outcome_array(10),
    "laplace": laplace_array(10),
    "mixed": mixed_array(10),
}
# hits per step, horizon 10, 70,000 replications, seed 880001
GOLDEN_HITS = {
    ("fixed_float", "frequent"): (34774, 35114, 34904, 35125, 35277, 35150, 35259, 35079, 35077, 35070),
    ("fixed_float", "laplace"): (34774, 34951, 34829, 35060, 35051, 35180, 35154, 35061, 35087, 35162),
    ("fixed_float", "mixed"): (34774, 35114, 34904, 35000, 35277, 35116, 35154, 35116, 35181, 35220),
    ("fixed_exact", "frequent"): (34843, 35431, 35180, 35509, 35527, 35660, 35591, 35730, 35643, 35682),
    ("fixed_exact", "laplace"): (34843, 35017, 34941, 35209, 35161, 35411, 35320, 35166, 35304, 35407),
    ("fixed_exact", "mixed"): (34843, 35431, 35180, 35202, 35527, 35481, 35417, 35495, 35513, 35581),
    ("beta", "frequent"): (34826, 41942, 41846, 43986, 44007, 44867, 45033, 45490, 45655, 45880),
    ("beta", "laplace"): (34826, 37138, 38242, 39336, 39682, 39958, 40329, 40388, 40621, 40980),
    ("beta", "mixed"): (34826, 41942, 41846, 41545, 44007, 43355, 43134, 44511, 44264, 44157),
    ("discrete", "frequent"): (35072, 41370, 41209, 43354, 43380, 44158, 44127, 44711, 44817, 45071),
    ("discrete", "laplace"): (35072, 37198, 37964, 38745, 39269, 39530, 39691, 39734, 39953, 40388),
    ("discrete", "mixed"): (35072, 41370, 41209, 40847, 43380, 42796, 42434, 43793, 43590, 43522),
}
# frequent-outcome hits for two more beta shapes, same run: an a < 1 tail
# and a shape with both parameters well above 1
GOLDEN_BETA_HITS = {
    (HALF, Fraction(7, 2)): (34827, 57768, 57700, 59885, 59929, 60646, 60724, 61043, 60980, 61127),
    (Fraction(5), Fraction(7, 2)): (34813, 39620, 39497, 41319, 41417, 42166, 42134, 42618, 42723, 43155),
}

GOLDEN_FIXED_STDOUT = """\
k,hits,trials,estimate,stderr,analytic_pi,z
0,2479,5000,0.4958,0.00707081834,0.5,-0.5939906526
1,2478,5000,0.4956,0.007070794015,0.50144722,-0.8269538029
2,2496,5000,0.4992,0.007071058761,0.50144722,-0.317805307
3,2458,5000,0.4916,0.007070069872,0.5021687356,-1.494855885
4,2478,5000,0.4956,0.007070794015,0.5021687356,-0.9289954623
5,2458,5000,0.4916,0.007070069872,0.5027083059,-1.57117343
"""

GOLDEN_PRIOR_STDOUT = """\
k,hits,trials,estimate,stderr
0,2458,5000,0.4916,0.007070069872
1,2985,5000,0.597,0.006936728335
2,2951,5000,0.5902,0.00695505514
3,3114,5000,0.6228,0.006854489915
4,3129,5000,0.6258,0.006843600807
5,3186,5000,0.6372,0.006799649403
"""


class TestGolden:
    """Literal reports for one seed: the slot layout in the simulator's
    docstring is the contract, so any change to the draws shows here."""

    @pytest.mark.parametrize("chunk_size", [DEFAULT_CHUNK, 12_347, 1 << 18])
    @pytest.mark.parametrize("source, array", sorted(GOLDEN_HITS))
    def test_hits(self, source, array, chunk_size, monkeypatch):
        monkeypatch.setattr(simulator, "DEFAULT_CHUNK", chunk_size)
        config = SimulationConfig(GOLDEN_SOURCES[source], 10, 70_000, 880_001)
        report = simulate_accuracy(config, GOLDEN_ARRAYS[array])
        assert tuple(step.hits for step in report.steps) == GOLDEN_HITS[source, array]

    @pytest.mark.parametrize("chunk_size", [DEFAULT_CHUNK, 12_347])
    @pytest.mark.parametrize("shape", sorted(GOLDEN_BETA_HITS))
    def test_beta_shape_hits(self, shape, chunk_size, monkeypatch):
        monkeypatch.setattr(simulator, "DEFAULT_CHUNK", chunk_size)
        config = SimulationConfig(beta_prior(*shape), 10, 70_000, 880_001)
        report = simulate_accuracy(config, GOLDEN_ARRAYS["frequent"])
        assert tuple(step.hits for step in report.steps) == GOLDEN_BETA_HITS[shape]

    def test_covariance(self):
        result = simulate_covariance(beta_prior(HALF, Fraction(7, 2)), 70_000, 880_001)
        assert result == (0.02248562224358307, 0.0005875804177591457, 70_000)

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("fixed_exact", (0.0007548691511919603, 0.0009361759146359275, 70_000)),
            ("fixed_float", (0.00018072747978033966, 0.0009425194680033958, 70_000)),
            ("discrete", (0.04549338133401906, 0.0009291158770963519, 70_000)),
        ],
    )
    def test_covariance_sources(self, source, expected):
        assert simulate_covariance(GOLDEN_SOURCES[source], 70_000, 880_001) == expected

    @pytest.mark.parametrize(
        "theta_or_prior, expected",
        [("0.4731", GOLDEN_FIXED_STDOUT), ("beta:2,3", GOLDEN_PRIOR_STDOUT)],
    )
    def test_cli_stdout(self, capsys, theta_or_prior, expected):
        assert cli.main(["simulate", theta_or_prior, "6", "5000", "--seed", "880001"]) == 0
        assert capsys.readouterr().out == expected


def prior_accuracies(alpha, beta, horizon: int) -> list[Fraction]:
    """E_prior[pi_k] of the frequent-outcome rule under beta(alpha, beta), for
    k = 0..horizon-1, exactly.

    With x = theta (1 - theta) and a = (k - 1) // 2 the plateau of k >= 1,
    pi_k = 1 - sum_(i=1..a) C_(i-1) x^i - 2 C(2a, a) x^(a+1) (C_i Catalan)
    is linear in the powers of x, and the beta moments are
    E[x^j] = prod_(i<j) (alpha+i)(beta+i) / ((alpha+beta+2i)(alpha+beta+2i+1)).
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    moments = [Fraction(1)]
    for i in range(horizon // 2 + 1):
        moments.append(
            moments[-1] * (alpha + i) * (beta + i)
            / ((alpha + beta + 2 * i) * (alpha + beta + 2 * i + 1))
        )
    accuracies = [HALF]
    for k in range(1, horizon):
        a = (k - 1) // 2
        catalan = sum(Fraction(math.comb(2 * i - 2, i - 1), i) * moments[i] for i in range(1, a + 1))
        accuracies.append(1 - catalan - 2 * math.comb(2 * a, a) * moments[a + 1])
    return accuracies


def worst_z(hits, trials: int, exact) -> float:
    """The largest |z| of a run's hit counts against exact accuracies, with
    sigma taken from the exact value."""
    return max(
        abs(h / trials - float(p)) / math.sqrt(float(p * (1 - p)) / trials)
        for h, p in zip(hits, exact)
    )


# shapes a quantile of theta could not reach: nearly all mass at 0, and
# nearly all within 1e-4 of 1/2
EXTREME_SHAPES = [(Fraction(1, 10**9), 5), (10**9, 10**9)]


class TestPolyaUrn:
    """A beta prior simulated as the Polya urn reproduces the exact prior
    accuracy.  Each test holds every step within 5 sigma: over the ~180
    z-values below, a correct simulator fails that with probability ~1e-4
    (at 4 sigma it would be ~1%)."""

    @pytest.mark.parametrize(
        "prior", [beta_prior(2, 3), beta_prior(0.3, 0.7), *(beta_prior(*s) for s in EXTREME_SHAPES)]
    )
    def test_cutoffs_are_exact_ceilings(self, prior):
        alpha, beta = Fraction(prior.alpha), Fraction(prior.beta)
        for k, row in enumerate(_urn_cutoffs(prior, 12)):
            expected = [math.ceil((alpha + n) * 2**53 / (alpha + beta + k)) for n in range(k + 1)]
            assert row.tolist() == expected

    def test_exact_moments_match_a_point_mass(self):
        # beta(c m, c (1 - m)) tends to a point mass at m as c grows; at
        # c = 10**30 its accuracies agree with pi_k(m) to ~1e-29
        limit = prior_accuracies(Fraction(10**30, 4), Fraction(3 * 10**30, 4), 20)
        for k, value in enumerate(limit):
            assert abs(value - accuracy_recursive(k, Fraction(1, 4))) < Fraction(1, 10**25)

    @pytest.mark.parametrize("shape", EXTREME_SHAPES)
    def test_extreme_shapes(self, shape):
        config = SimulationConfig(beta_prior(*shape), 71, 100_000, 880_001)
        report = simulate_accuracy(config, frequent_outcome_array(70))
        hits = [step.hits for step in report.steps]
        assert worst_z(hits, 100_000, prior_accuracies(*shape, 71)) <= 5

    @pytest.mark.parametrize("spec", ["beta:1/1000000000,5", "beta:1000000000,1000000000"])
    def test_extreme_shapes_through_the_cli(self, capsys, spec):
        assert cli.main(["simulate", spec, "71", "1000", "--seed", "1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 72

    def test_goldens(self):
        runs = [((2, 3), GOLDEN_HITS["beta", "frequent"], 70_000)]
        runs += [(shape, hits, 70_000) for shape, hits in GOLDEN_BETA_HITS.items()]
        stdout_hits = [int(row.split(",")[1]) for row in GOLDEN_PRIOR_STDOUT.splitlines()[1:]]
        runs.append(((2, 3), stdout_hits, 5_000))
        for shape, hits, trials in runs:
            assert worst_z(hits, trials, prior_accuracies(*shape, len(hits))) <= 5, shape


def reference_thetas(source, keys: np.ndarray, out: np.ndarray, scratch: np.ndarray):
    """Each replication's theta as a float, by the simulator's earlier
    prologue: slot 0's u = m * 2**-53 mapped through the discrete prior's
    inverse CDF."""
    if not isinstance(source, Prior):
        return float(source)
    u = _draws(keys, 0, out, scratch) * 2.0**-53
    values = np.array([float(v) for v, _ in source.atoms])
    cumulative = np.cumsum([float(w) for _, w in source.atoms])
    cumulative[-1] = 1.0
    return values[np.searchsorted(cumulative, u, side="right")]


def gather_loop_hits(
    config: SimulationConfig, array: PredictionArray, chunk_size: int
) -> list[int]:
    """Hits per step by the simulator's earlier loop, kept as the reference:
    theta cutoffs from float thetas, or a beta prior's urn cutoffs, and each
    row as per-count tables (cutoff, phi == 1.0, 0 < phi < 1), all read
    through int64 running counts."""
    horizon = config.horizon
    source = config.theta_source
    urn = _urn_cutoffs(source, horizon) if getattr(source, "kind", None) == "beta" else None
    rows = []
    for row in array.rows[:horizon]:
        phi = np.array([float(entry) for entry in row])
        rows.append((_cutoffs(phi), phi == 1.0, (0.0 < phi) & (phi < 1.0)))
    hits = [0] * horizon
    for start in range(0, config.replications, chunk_size):
        reps = np.arange(start, min(start + chunk_size, config.replications), dtype=np.uint64)
        bits, scratch = np.empty_like(reps), np.empty_like(reps)
        keys = _keys(config.seed, reps, scratch)
        if urn is None:
            theta_cut = _cutoffs(reference_thetas(source, keys, bits, scratch))
        counts = np.zeros(reps.size, dtype=np.int64)
        for k, (phi_cut, ones, split) in enumerate(rows):
            if urn is not None:
                theta_cut = urn[k][counts]
            outcome = _draws(keys, 1 + k, bits, scratch) < theta_cut
            predicted = np.take(ones, counts)
            cells = np.flatnonzero(np.take(split, counts))
            if cells.size:
                n = cells.size
                drawn = _draws(keys[cells], horizon + 2 + k, bits[:n], scratch[:n])
                predicted[cells] = drawn < phi_cut[counts[cells]]
            hits[k] += int(np.count_nonzero(predicted == outcome))
            counts += outcome
    return hits


def random_array(k_max: int, seed: int) -> PredictionArray:
    """Rows of four shapes: cell by cell at random (not monotone in n),
    decreasing in n, all strictly between 0 and 1, and rising; entries
    include Fractions that round to 0.0 and 1.0, and floats."""
    rng = random.Random(seed)
    pool = [Fraction(0), Fraction(1), TINY, 1 - TINY, Fraction(1, 3), 0.25, 1.0, 0.0]

    def row(k: int) -> tuple:
        shape = rng.randrange(4)
        if shape == 0:
            return tuple(rng.choice(pool) for _ in range(k + 1))
        if shape == 2:
            between = [TINY, 1 - TINY, Fraction(rng.randint(1, 96), 97), 0.5]
            return tuple(rng.choice(between) for _ in range(k + 1))
        cut = rng.randint(0, k + 1)
        low, high = (Fraction(1), Fraction(0)) if shape == 1 else (Fraction(0), Fraction(1))
        cells = [low] * cut + [high] * (k + 1 - cut)
        if cut <= k and rng.random() < 0.5:
            cells[cut] = Fraction(rng.randint(1, 96), 97)
        return tuple(cells)

    return PredictionArray(tuple(row(k) for k in range(k_max + 1)))


ORACLE_SOURCES = {
    "fixed-0": 0,
    "fixed-1/2": HALF,
    "fixed-1": 1.0,
    "beta-2-3": beta_prior(2, 3),
    "beta-1/2-7/2": beta_prior(HALF, Fraction(7, 2)),
    "atoms-0-3/10-1": discrete_prior(
        [(0, Fraction(1, 4)), (Fraction(3, 10), Fraction(1, 4)), (1, HALF)]
    ),
}


ASYMMETRIC = discrete_prior([(Fraction(1, 5), Fraction(1, 3)), (Fraction(3, 5), Fraction(2, 3))])
# atoms at 0 and 1 only: row k >= 2 is 0, a run of k - 1 cells of 1/2, then 1
ENDS = discrete_prior([(0, Fraction(1, 3)), (1, Fraction(2, 3))])


class TestGatherOracle:
    """The step loop, reading each row as cuts or as a cutoff table, gives
    the hits of the earlier per-count lookup loop on every array, source
    and chunk size."""

    @pytest.mark.parametrize("chunk_size", [1, 12_347, DEFAULT_CHUNK])
    @pytest.mark.parametrize("source", sorted(ORACLE_SOURCES))
    @pytest.mark.parametrize(
        "array",
        [random_array(12, seed) for seed in range(4)]
        + [frequent_outcome_array(12), laplace_array(12), mixed_array(12), all_ones_array(12)]
        + [
            optimal_array(beta_prior(HALF, Fraction(7, 2)), 12),
            optimal_array(ASYMMETRIC, 12),
            optimal_array(ENDS, 12),
            PredictionArray(tuple(optimal_array(ENDS, 12).rows)),
            PredictionArray(tuple(frequent_outcome_array(12).rows)),
            float_cut_array(12),
            unsorted_halves_array(12),
        ],
        ids=[
            "random0", "random1", "random2", "random3", "frequent", "laplace", "mixed", "ones",
            "beta-1/2-7/2", "asymmetric", "ends", "ends-rows", "frequent-rows", "float-cuts",
            "unsorted-halves",
        ],
    )
    def test_same_hits(self, array, source, chunk_size, monkeypatch):
        # three chunks of 12,347; one-replication chunks cost ~1 ms each
        replications = 60 if chunk_size == 1 else 30_000
        config = SimulationConfig(ORACLE_SOURCES[source], 12, replications, 4_242)
        monkeypatch.setattr(simulator, "DEFAULT_CHUNK", chunk_size)
        report = simulate_accuracy(config, array)
        assert [step.hits for step in report.steps] == gather_loop_hits(config, array, chunk_size)

    @pytest.mark.parametrize("source", ["fixed-1/2", "fixed-1", "atoms-0-3/10-1"])
    @pytest.mark.parametrize(
        "array", [frequent_outcome_array(300), random_array(300, 9)], ids=["frequent", "random"]
    )
    def test_counts_past_255(self, array, source):
        # at theta = 1 the running counts reach 300, past what 8 bits hold
        config = SimulationConfig(ORACLE_SOURCES[source], 300, 2_000, 4_243)
        hits = [step.hits for step in simulate_accuracy(config, array).steps]
        assert hits == gather_loop_hits(config, array, DEFAULT_CHUNK)

    @pytest.mark.parametrize("k_max", [0, 1, 2, 12, 300])
    def test_given_rows_read_as_cuts(self, k_max):
        # hits cannot show which form a row took, so read the forms directly
        array = frequent_outcome_array(k_max)
        given = PredictionArray(tuple(array.rows))
        assert simulator._phi_rows(given, k_max + 1) == simulator._phi_rows(array, k_max + 1)
        floats = simulator._phi_rows(float_cut_array(k_max), k_max + 1)
        assert all(isinstance(row, tuple) for row in floats)

    def test_unsorted_rows_read_as_tables(self):
        rows = simulator._phi_rows(unsorted_halves_array(12), 13)
        assert rows[0] == (0, 1)
        assert all(isinstance(row, np.ndarray) and row.dtype == np.uint64 for row in rows[1:])
        assert rows[2].tolist() == [2**53, 0, 2**52]
