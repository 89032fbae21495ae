"""Seeded query generators for the freqpred benchmark.

A workload is a deck of query slots.  One cycle of the stream draws one
argv from every slot (parameters drawn from the slot's own narrow range)
and shuffles them.  Every cycle therefore holds the same mix of
subcommands and input sizes, whatever the seed, which keeps the
throughput of two seeds comparable while their inputs differ.

The program only ever sees the generated argv lists.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

Argv = list[str]
Slot = Callable[[random.Random], Argv]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    warmup: tuple[str, ...]
    slots: tuple[Slot, ...]


# ---------------------------------------------------------------- helpers


def _exact_theta(rng: random.Random, near: float = 0.0, far: float = 0.2) -> str:
    """'p/q' with 20 <= q <= 1000 and |p/q - 1/2| in [near, far], never 1/2."""
    while True:
        q = rng.randint(20, 1000)
        p = rng.randint(math.ceil((0.5 - far) * q), math.floor((0.5 + far) * q))
        if 2 * p != q and abs(p / q - 0.5) >= near:
            return f"{p}/{q}"


def _decimal_theta(rng: random.Random, near: float = 0.02, far: float = 0.2) -> str:
    """Decimal theta with |theta - 1/2| in [near, far], 2 to 4 decimals."""
    places = rng.choice((2, 3, 4))
    while True:
        offset = round(rng.uniform(near, far), places)
        if near <= offset <= far:
            break
    return f"{0.5 + rng.choice((-1, 1)) * offset:.{places}f}"


def plateau_floats(theta: float, a_max: int) -> list[float]:
    """Float pi_(2a+1) for a = 0..a_max by the plateau-increment sum.

    Only used to size threshold targets; the answers are checked exactly.
    """
    x = theta * (1 - theta)
    lift = (1 - 2 * theta) ** 2 / 2
    term, total, out = 1.0, 0.5, []
    for a in range(a_max + 1):
        if a:
            term *= x * 2 * (2 * a - 1) / a
        total += term * lift
        out.append(total)
    return out


def _target(rng: random.Random, theta_text: str, k_lo: int, k_hi: int) -> str:
    """A target whose first crossing lies near a k drawn from [k_lo, k_hi].

    For a = (k-1) // 2 the target is drawn between the float estimates of
    pi_(2a-1) and pi_(2a+1): it is the share of the gap to the limit that
    the rule closes near k.  Drawing k rather than the share keeps each
    query's cost in its slot's range.
    """
    theta = float(Fraction(theta_text))
    a = (rng.randint(k_lo, k_hi) - 1) // 2
    pi = plateau_floats(theta, a)
    below = pi[a - 1] if a else 0.5
    return repr(below + rng.uniform(0.25, 0.75) * (pi[a] - below))


def _fmt(rng: random.Random) -> list[str]:
    """Output options: mostly the CSV default, sometimes JSON or more digits."""
    return rng.choice(([], [], [], ["--format", "json"], ["--digits", "15"]))


# ---------------------------------------------------------------- slots


def _accuracy(path: str, k_lo: int, k_hi: int) -> Slot:
    def slot(rng):
        argv = ["accuracy", str(rng.randint(k_lo, k_hi)), _exact_theta(rng)]
        if path != "all" or rng.random() < 0.5:
            argv += ["--path", path]
        return argv + _fmt(rng)
    return slot


def _threshold(k_lo: int, k_hi: int) -> Slot:
    def slot(rng):
        # |theta - 1/2| <= 0.1 keeps each plateau step far above float rounding
        theta_text = _exact_theta(rng, near=0.02, far=0.1)
        return ["threshold", theta_text, _target(rng, theta_text, k_lo, k_hi)] + _fmt(rng)
    return slot


def _curve(k_lo: int, k_hi: int) -> Slot:
    def slot(rng):
        return ["curve", _exact_theta(rng), str(rng.randint(k_lo, k_hi))] + _fmt(rng)
    return slot


def _coeffs(a_lo: int, a_hi: int) -> Slot:
    def slot(rng):
        return ["coeffs", str(rng.randint(a_lo, a_hi))] + _fmt(rng)
    return slot


def _prior_beta(rng: random.Random) -> str:
    shapes = ("1/2", "1", "3/2", "2", "3", "5", "7/2")
    return f"beta:{rng.choice(shapes)},{rng.choice(shapes)}"


def _prior_discrete(rng: random.Random) -> str:
    """Three distinct atoms in (0, 1) with exact weights summing to 1."""
    q = rng.choice((10, 20, 25, 50, 100))
    values = sorted(rng.sample(range(1, q), 3))
    raw = [rng.randint(1, 9) for _ in values]
    total = sum(raw)
    atoms = [f"{Fraction(v, q)}={Fraction(w, total)}" for v, w in zip(values, raw)]
    return "discrete:" + ",".join(atoms)


def _posterior(prior: Callable, k_lo: int, k_hi: int) -> Slot:
    def slot(rng):
        k = rng.randint(k_lo, k_hi)
        return ["posterior", prior(rng), str(k), str(rng.randint(0, k))] + _fmt(rng)
    return slot


def _fixed_source(rng: random.Random) -> str:
    return _exact_theta(rng) if rng.random() < 0.5 else _decimal_theta(rng, 0.01, 0.2)


def _simulate(source: Callable, r_lo: int, r_hi: int) -> Slot:
    def slot(rng):
        return [
            "simulate", source(rng), str(rng.randint(66, 76)), str(rng.randint(r_lo, r_hi)),
            "--seed", str(rng.randrange(2**32)),
        ] + _fmt(rng)
    return slot


# ---------------------------------------------------------------- workloads

# Each slot's range is narrow, so a cycle costs about the same whatever the
# seed; the ranges differ between slots, so a workload still spans small
# and large inputs.  The slowest slots are counted so that the 90th latency
# percentile falls inside a cluster of like queries, not in the gap between
# two clusters, where it would jump with a single query.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="exact_analysis",
            why="exact p/q theta through all five accuracy routes, threshold, curve and coeffs: "
            "the Fraction kernels (t-table DP, plateau sum, alpha rows); no numpy, no simulator",
            warmup=("accuracy", "71", "9/20"),
            slots=(
                _accuracy("all", 30, 40),
                _accuracy("all", 30, 40),
                _accuracy("direct", 150, 250),
                _accuracy("ttable", 50, 70),
                _accuracy("recursive", 200, 300),
                _accuracy("condensed", 400, 600),
                _accuracy("expanded", 100, 200),
                _threshold(250, 350),
                _threshold(250, 350),
                _threshold(1000, 1200),
                _curve(300, 400),
                _curve(600, 700),
                _curve(600, 700),
                _coeffs(10, 20),
                _coeffs(40, 50),
            ),
        ),
        Workload(
            name="monte_carlo",
            why="simulate with horizon near 71 from fixed theta, beta and discrete priors; mixed "
            "replication counts, one per cycle above a 2^18 chunk; analytic layers only fill z",
            warmup=("simulate", "beta:2,2", "71", "1000", "--seed", "1"),
            slots=(
                _simulate(_fixed_source, 270_000, 290_000),
                _simulate(_fixed_source, 20_000, 30_000),
                *[_simulate(_prior_beta, 20_000, 30_000)] * 2,
                *[_simulate(_prior_discrete, 20_000, 30_000)] * 2,
                *[_simulate(_fixed_source, 1_500, 2_000)] * 16,
                *[_simulate(_prior_beta, 1_500, 2_000)] * 6,
                *[_simulate(_prior_discrete, 1_500, 2_000)] * 6,
            ),
        ),
        Workload(
            name="bayes_posterior",
            why="posterior under beta and discrete priors for k up to ~150: the only workload "
            "that builds optimal_array and calls posterior_mean, so the prediction layer is "
            "measured",
            warmup=("posterior", "discrete:2/5=1/2,3/5=1/2", "20", "11"),
            slots=(
                *[_posterior(_prior_beta, 20, 30)] * 12,
                *[_posterior(_prior_beta, 60, 80)] * 2,
                _posterior(_prior_beta, 130, 150),
                *[_posterior(_prior_discrete, 10, 15)] * 10,
                *[_posterior(_prior_discrete, 40, 50)] * 4,
                _posterior(_prior_discrete, 130, 150),
            ),
        ),
    )
}


def cycles(name: str, seed: int) -> Iterator[list[Argv]]:
    """Endless stream of cycles for workload ``name``; same seed, same argv."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    while True:
        cycle = [slot(rng) for slot in workload.slots]
        rng.shuffle(cycle)
        yield cycle


# position of the argument that sets each subcommand's input size
SIZE_ARG = {"accuracy": 1, "coeffs": 1, "curve": 2, "posterior": 2, "simulate": 3}


def describe(argvs: list[Argv]) -> dict:
    """Per-subcommand counts, input-size ranges and the repeated-argv share.

    Sizes are k for accuracy and posterior, k_max for curve, a_max for
    coeffs and the replication count for simulate; threshold is sized by
    its answer, so it has no input range here.
    """
    counts: dict[str, int] = {}
    sizes: dict[str, list[int]] = {}
    seen: set[tuple[str, ...]] = set()
    repeats = 0
    for argv in argvs:
        command = argv[0]
        counts[command] = counts.get(command, 0) + 1
        if command in SIZE_ARG:
            size = int(argv[SIZE_ARG[command]])
            lo, hi = sizes.get(command, (size, size))
            sizes[command] = [min(lo, size), max(hi, size)]
        repeats += tuple(argv) in seen
        seen.add(tuple(argv))
    return {
        "queries": len(argvs),
        "per_subcommand": counts,
        "size_ranges": sizes,
        "repeat_share": repeats / len(argvs) if argvs else 0.0,
    }
