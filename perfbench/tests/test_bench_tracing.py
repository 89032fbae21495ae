"""Span bookkeeping, self time, and the per-layer reduction."""

import contextlib
import io
import json
import os

import pytest

import run
import tracing
import workloads
from freqpred import cli, prediction


def tree(spans):
    """A tracer holding (parent, start, end) spans, all in layer 'cli'."""
    t = tracing.Tracer()
    t.names.append(("cli", "main"))
    for parent, start, end in spans:
        t.name_id.append(0)
        t.parent.append(parent)
        t.start.append(start)
        t.end.append(end)
        t.query.append(0)
        t.failed.append(0)
    return t


def test_self_time_subtracts_the_time_children_cover():
    #  0 [0, 10] -> 1 [1, 4] -> 2 [2, 3]
    #            -> 3 [5, 6]
    #  4 [10, 12] a second root
    t = tree([(-1, 0.0, 10.0), (0, 1.0, 4.0), (1, 2.0, 3.0), (0, 5.0, 6.0), (-1, 10.0, 12.0)])
    assert tracing.self_times(t) == [6.0, 2.0, 1.0, 1.0, 2.0]
    assert tracing.reduce(t, 0.0, 1.0)["cli.self_s"] == 12.0


def test_spans_nest_through_wrappers_and_record_failures():
    t = tracing.Tracer()
    inner = t.span("combinatorics", "inner", lambda x: x + 1)
    outer = t.span("accuracy", "outer", lambda x: inner(x) * 2)
    broken = t.span("accuracy", "broken", lambda: 1 / 0)
    assert outer(1) == 4
    with pytest.raises(ZeroDivisionError):
        broken()
    assert list(t.parent) == [-1, 0, -1]
    assert list(t.failed) == [0, 0, 1]
    assert t.stack == []


def test_overhead_counts_each_wrapper_call_and_the_hook():
    t = tree([(-1, 0.0, 1.0), (0, 0.2, 0.3), (-1, 1.0, 2.0)])
    t.counts["posterior_mean"], t.counts["phi"] = 4, 6
    t.end_query("abc")
    hook = t.hook_s
    assert t.out_bytes == 3 and t.query_id == 0
    assert tracing.overhead(t, 1e-6, 1e-7) == pytest.approx(3e-6 + 10e-7 + hook)


def test_wrapper_costs_are_positive_and_small():
    span_s, count_s = tracing.wrapper_costs(calls=2000, repeats=3)
    assert 0 < span_s < 1e-3 and 0 < count_s < 1e-3


def query(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def test_instrument_reports_every_layer_and_restores_the_program():
    originals = (cli.main, cli.emit, dict(cli.ACCURACY_PATHS), prediction.bin_pmf,
                 prediction.posterior_mean, prediction.PredictionArray.phi)
    t = tracing.Tracer()
    with tracing.instrument(t):
        for argv in (["accuracy", "20", "9/20"], ["coeffs", "6"], ["curve", "9/20", "30"],
                     ["threshold", "0.45", "0.53"],
                     ["posterior", "discrete:2/5=1/2,3/5=1/2", "12", "7"],
                     ["simulate", "0.45", "9", "500"], ["simulate", "beta:2,2", "9", "500"]):
            assert query(argv) == 0
            t.drain()
    metrics = tracing.reduce(t, 0.1, 1.0)
    assert set(metrics) == set(tracing.PER_LAYER)
    for layer in tracing.LAYERS:
        assert metrics[f"{layer}.calls"] > 0 and metrics[f"{layer}.errors"] == 0
        assert metrics[f"{layer}.self_s"] > 0
    assert metrics["accuracy.result_bits_max"] > 0
    assert metrics["prediction.cells_built"] > 0
    assert 0 < metrics["prediction.useful_ratio"] < 1
    assert metrics["prediction.posterior_mean_calls"] > 1
    assert metrics["simulator.rep_steps"] == 2 * 500 * 9
    assert metrics["simulator.rep_steps_per_s"] > 0
    assert metrics["simulator.prior_rep_steps_per_s"] > 0
    assert metrics["trace.overhead_ratio"] == pytest.approx(0.1)
    assert originals == (cli.main, cli.emit, dict(cli.ACCURACY_PATHS), prediction.bin_pmf,
                         prediction.posterior_mean, prediction.PredictionArray.phi)


def test_benchmark_json_lists_the_metrics_the_run_reports():
    path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
