"""Spans around the calls into each freqpred layer, and their reduction.

The layers are the package's modules.  Spans are recorded from the
benchmark's side only: ``instrument`` replaces each cross-layer function
where the caller looks it up (a name bound by ``from ... import`` lives in
the caller's module, so ``freqpred.prediction.bin_pmf`` is wrapped, not
``freqpred.accuracy.bin_pmf``) and restores the originals on exit.

A span is (layer, name, start, end, parent span, query id, failed).
Spans are kept in columnar arrays in memory and written out at the end.
"""

from __future__ import annotations

import csv
import gzip
import statistics
import types
from array import array
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

LAYERS = ("cli", "accuracy", "combinatorics", "prediction", "simulator")

# accuracy spans whose self time is reported on its own, by span name
ACCURACY_PARTS = {
    "direct": "accuracy.direct_s",
    "ttable": "accuracy.t_table_s",
    "recursive": "accuracy.recursive_s",
    "condensed": "accuracy.condensed_s",
    "expanded": "accuracy.expanded_s",
    "curve": "accuracy.curve_s",
    "threshold": "accuracy.threshold_s",
}

# name -> (unit, better); every traced run reports all of them
PER_LAYER = {
    **{
        f"{layer}.{field}": spec
        for layer in LAYERS
        for field, spec in (
            ("calls", ("count", "lower")),
            ("errors", ("count", "lower")),
            ("self_s", ("s", "lower")),
        )
    },
    "cli.emit_s": ("s", "lower"),
    "cli.out_bytes": ("bytes", "lower"),
    **{name: ("s", "lower") for name in ACCURACY_PARTS.values()},
    "accuracy.result_bits_max": ("bits", "lower"),
    "combinatorics.cache_hit_ratio": ("ratio", "higher"),
    "prediction.cells_built": ("count", "lower"),
    "prediction.useful_ratio": ("ratio", "higher"),
    "prediction.posterior_mean_calls": ("count", "lower"),
    "simulator.rep_steps": ("count", "higher"),
    "simulator.rep_steps_per_s": ("1/s", "higher"),
    "simulator.prior_rep_steps_per_s": ("1/s", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Tracer:
    """Span and counter store for one traced pass; single-threaded."""

    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.query = array("l")
        self.failed = array("b")
        self.query_id = -1
        self.stack: list[int] = []
        self.pending: list = []  # (observer, span id, args, result)
        self.counts = {"posterior_mean": 0, "phi": 0, "nonzero_exit": 0}
        self.result_bits_max = 0
        self.cells_built = 0
        self.out_bytes = 0
        self.hook_s = 0.0  # time spent in end_query, which only tracing adds
        self.sim_steps: list[tuple[int, int, bool]] = []  # (span id, rep steps, prior)
        self.cache_delta = (0, 0)  # (hits, misses) of alpha_row and catalan

    def span(self, layer: str, name: str, fn, observe=None):
        """``fn`` wrapped to record one span per call."""
        self.names.append((layer, name))
        name_id = len(self.names) - 1
        stack = self.stack

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.query.append(self.query_id)
            self.failed.append(1)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                stack.pop()
            self.failed[sid] = 0
            if observe is not None:
                self.pending.append((observe, sid, args, result))
            return result

        return traced

    def counted(self, key: str, fn):
        """``fn`` wrapped to count its calls without a span."""
        counts = self.counts

        def counting(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counting

    def drain(self) -> None:
        """Run the result observers queued during the last query."""
        for observe, sid, args, result in self.pending:
            observe(self, sid, args, result)
        self.pending.clear()

    def end_query(self, output: str) -> None:
        """Close one query: run its observers and count its output bytes."""
        start = perf_counter()
        self.drain()
        self.out_bytes += len(output.encode())
        self.query_id += 1
        self.hook_s += perf_counter() - start

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            out = csv.writer(fh)
            out.writerow(["span", "layer", "name", "start", "end", "parent", "query", "failed"])
            for sid in range(len(self.start)):
                layer, name = self.names[self.name_id[sid]]
                out.writerow([sid, layer, name, repr(self.start[sid]), repr(self.end[sid]),
                              self.parent[sid], self.query[sid], self.failed[sid]])


# ---------------------------------------------------------------- observers


def _bits(value) -> int:
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return 0


def _observe_bits(tracer, sid, args, result) -> None:
    values = [f for point in result for f in point[1:]] if isinstance(result, list) else [result]
    tracer.result_bits_max = max(tracer.result_bits_max, *(_bits(v) for v in values))


def _observe_cells(tracer, sid, args, result) -> None:
    tracer.cells_built += sum(len(row) for row in result.rows)


def _observe_simulation(tracer, sid, args, result) -> None:
    from freqpred.prediction import Prior

    config = args[0]
    steps = config.replications * config.horizon
    tracer.sim_steps.append((sid, steps, isinstance(config.theta_source, Prior)))


def _observe_exit(tracer, sid, args, result) -> None:
    tracer.counts["nonzero_exit"] += result != 0


# ---------------------------------------------------------------- patching


def _cache_totals() -> tuple[int, int]:
    from freqpred.combinatorics import alpha_row, catalan

    infos = (alpha_row.cache_info(), catalan.cache_info())
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every cross-layer call of freqpred for the duration of the block."""
    import freqpred.accuracy as accuracy
    import freqpred.cli as cli
    import freqpred.prediction as prediction

    restore = []

    def put(owner, attr, value):
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def patch(owner, attr, wrapper):
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        restore.append((owner, attr, original))
        put(owner, attr, wrapper)

    span = tracer.span
    # cli: the entry point and the table writer
    patch(cli, "main", span("cli", "main", cli.main, _observe_exit))
    patch(cli, "emit", span("cli", "emit", cli.emit))
    # accuracy, as called from cli (route table and module attributes) and prediction
    for route, fn in list(cli.ACCURACY_PATHS.items()):
        patch(cli.ACCURACY_PATHS, route, span("accuracy", route, fn, _observe_bits))
    patch(accuracy, "accuracy_curve",
          span("accuracy", "curve", accuracy.accuracy_curve, _observe_bits))
    patch(accuracy, "threshold_k", span("accuracy", "threshold", accuracy.threshold_k))
    patch(accuracy, "accuracy_recursive",
          span("accuracy", "recursive", accuracy.accuracy_recursive, _observe_bits))
    patch(prediction, "bin_pmf", span("accuracy", "bin_pmf", prediction.bin_pmf))
    # combinatorics, as called from accuracy and cli
    for name in ("alpha_row", "binomial", "catalan_series"):
        patch(accuracy, name, span("combinatorics", name, getattr(accuracy, name)))
    table = cli.CoefficientTable
    patch(cli, "CoefficientTable", types.SimpleNamespace(
        up_to=span("combinatorics", "CoefficientTable.up_to", table.up_to)))
    # prediction: count every posterior_mean, including those optimal_array makes
    patch(prediction, "posterior_mean", tracer.counted("posterior_mean", prediction.posterior_mean))
    patch(prediction.PredictionArray, "phi", tracer.counted("phi", prediction.PredictionArray.phi))
    for name in ("beta_prior", "discrete_prior", "posterior_correct_probability"):
        patch(cli, name, span("prediction", name, getattr(cli, name)))
    patch(cli, "posterior_mean", span("prediction", "posterior_mean", prediction.posterior_mean))
    for name in ("frequent_outcome_array", "optimal_array"):
        patch(cli, name, span("prediction", name, getattr(cli, name), _observe_cells))
    # simulator
    patch(cli, "simulate_accuracy",
          span("simulator", "simulate_accuracy", cli.simulate_accuracy, _observe_simulation))

    before = _cache_totals()
    try:
        yield tracer
    finally:
        after = _cache_totals()
        tracer.cache_delta = (after[0] - before[0], after[1] - before[1])
        for owner, attr, original in reversed(restore):
            put(owner, attr, original)


# ---------------------------------------------------------------- overhead


def _per_call(fn, calls: int) -> float:
    start = perf_counter()
    for _ in range(calls):
        fn()
    return (perf_counter() - start) / calls


def wrapper_costs(calls: int = 20_000, repeats: int = 7) -> tuple[float, float]:
    """Seconds a span wrapper and a counting wrapper add to one call.

    Both wrap a no-op; each cost is the median over ``repeats`` of the
    wrapped minus the bare per-call time.  A median of short interleaved
    loops does not drift with host speed the way whole passes do.
    """
    def noop():
        return None

    spanned = Tracer().span("cli", "noop", noop)
    counted = Tracer().counted("phi", noop)
    span_s, count_s = [], []
    for _ in range(repeats):
        bare = _per_call(noop, calls)
        span_s.append(_per_call(spanned, calls) - bare)
        count_s.append(_per_call(counted, calls) - bare)
    return statistics.median(span_s), statistics.median(count_s)


def overhead(tracer: Tracer, span_s: float, count_s: float) -> float:
    """Seconds tracing added to a traced pass.

    Wrapper costs times the calls that went through each kind of wrapper,
    plus the measured time of the per-query hook (observers, byte count).
    """
    counted = tracer.counts["posterior_mean"] + tracer.counts["phi"]
    return len(tracer.start) * span_s + counted * count_s + tracer.hook_s


# ---------------------------------------------------------------- reduction


def self_times(tracer: Tracer) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    durations = [e - s for s, e in zip(tracer.start, tracer.end)]
    covered = [0.0] * len(durations)
    for sid, parent in enumerate(tracer.parent):
        if parent >= 0:
            covered[parent] += durations[sid]
    return [d - c for d, c in zip(durations, covered)]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def reduce(tracer: Tracer, overhead_s: float, untraced_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed as in PER_LAYER."""
    own = self_times(tracer)
    metrics = {name: 0 for name in PER_LAYER}
    for sid, name_id in enumerate(tracer.name_id):
        layer, name = tracer.names[name_id]
        metrics[f"{layer}.calls"] += 1
        metrics[f"{layer}.errors"] += tracer.failed[sid]
        metrics[f"{layer}.self_s"] += own[sid]
        if layer == "cli" and name == "emit":
            metrics["cli.emit_s"] += own[sid]
        if layer == "accuracy" and name in ACCURACY_PARTS:
            metrics[ACCURACY_PARTS[name]] += own[sid]
    metrics["cli.errors"] += tracer.counts["nonzero_exit"]
    metrics["cli.out_bytes"] = tracer.out_bytes
    metrics["accuracy.result_bits_max"] = tracer.result_bits_max
    hits, misses = tracer.cache_delta
    metrics["combinatorics.cache_hit_ratio"] = _ratio(hits, hits + misses)
    metrics["prediction.cells_built"] = tracer.cells_built
    metrics["prediction.useful_ratio"] = _ratio(tracer.counts["phi"], tracer.cells_built)
    metrics["prediction.posterior_mean_calls"] = tracer.counts["posterior_mean"]
    for prior, key in ((False, "simulator.rep_steps_per_s"),
                       (True, "simulator.prior_rep_steps_per_s")):
        runs = [(steps, own[sid]) for sid, steps, is_prior in tracer.sim_steps if is_prior == prior]
        metrics[key] = _ratio(sum(steps for steps, _ in runs), sum(t for _, t in runs))
    metrics["simulator.rep_steps"] = sum(steps for _, steps, _ in tracer.sim_steps)
    metrics["trace.overhead_s"] = overhead_s
    metrics["trace.overhead_ratio"] = _ratio(overhead_s, untraced_s)
    return metrics
