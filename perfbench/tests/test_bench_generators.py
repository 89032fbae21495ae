"""The query generators: deterministic per seed, different across seeds."""

import itertools
from fractions import Fraction

import pytest

import workloads


def first_queries(name, seed, count=3):
    cycles = itertools.islice(workloads.cycles(name, seed), count)
    return [argv for cycle in cycles for argv in cycle]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_argv(name):
    assert first_queries(name, 7) == first_queries(name, 7)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_different_seeds_different_argv(name):
    assert first_queries(name, 7) != first_queries(name, 8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_cycle_holds_one_query_per_slot(name):
    slots = len(workloads.WORKLOADS[name].slots)
    assert all(len(cycle) == slots for cycle in itertools.islice(workloads.cycles(name, 3), 5))


def test_describe_counts_sizes_and_repeats():
    shape = workloads.describe([
        ["accuracy", "40", "9/20"],
        ["accuracy", "40", "9/20"],
        ["curve", "0.45", "300"],
        ["threshold", "9/20", "0.530000"],
    ])
    assert shape["per_subcommand"] == {"accuracy": 2, "curve": 1, "threshold": 1}
    assert shape["size_ranges"] == {"accuracy": [40, 40], "curve": [300, 300]}
    assert shape["repeat_share"] == 0.25


def test_threshold_targets_stay_below_the_limit():
    for argv in first_queries("exact_analysis", 11, count=20):
        if argv[0] == "threshold":
            theta, target = float(Fraction(argv[1])), float(argv[2])
            assert 0.5 < target < max(theta, 1 - theta)
