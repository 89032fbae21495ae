"""freqpred benchmark: one closed-loop client issuing CLI queries.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a freqpred checkout; the package is imported from
its ``src`` directory, never from an installed copy.  One process and one
thread: each query is an argv list passed to ``freqpred.cli.main`` with
stdout captured, and the next query starts only when it returns.  Queries
come in cycles (see workloads.py); the run stops at the first cycle
boundary after S seconds of measured time and at least 100 queries.
After each cycle's timer stops, its answers go to a checker in a child
interpreter (see checks.py) and are dropped; between cycles, outside
measured time, fresh interpreters probe the set-up time.

--trace 0 reports the end-to-end metrics, with times scaled to a reference
host speed measured during the run (see hostspeed.py).  --trace 1 runs the same loop
with spans around each layer call (see tracing.py); it reports the
per-layer metrics and the tracing overhead, and writes its record and
spans to .bench_out/.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

The benchmark's own tests: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
# One OpenBLAS thread, for this process and every child: freqpred makes no
# BLAS calls, but the pool numpy starts on import spins on the second vCPU
# of a 2-vCPU host and competes with the client thread, so set-up time
# would depend on whether the host leaves that vCPU free.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import hostspeed  # noqa: E402  (sibling modules of this script)
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_QUERIES = 100  # so that at least 10 latency samples lie beyond p90
SETUP_PROBES = 9
OUT_DIR = ".bench_out"

END_TO_END = {
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Query:
    argv: list[str]
    code: object  # exit code, or the repr of an exception that escaped main
    output: str
    seconds: float


@dataclass
class Tally:
    """What a loop keeps: latencies and failed answers, not the answers."""

    cycles: list = field(default_factory=list)
    measured_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    bad: list[tuple[list[str], str]] = field(default_factory=list)


def run_query(cli, argv: list[str]) -> Query:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        except Exception as exc:  # a crash is a failed query, not a failed run
            code = repr(exc)
        elapsed = time.perf_counter() - start
    return Query(argv, code, out.getvalue(), elapsed)


class Checker:
    """checks.py serving in a child interpreter; one batch per cycle.

    The child holds the checks' memory and fills its own lru caches, so
    neither reaches the measured process.  The parent waits for each
    reply, so checking never overlaps measured time.
    """

    def __init__(self, src: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "checks.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )

    def __call__(self, answers: list[Query]) -> list[tuple[list[str], str]]:
        batch = [[q.argv, q.code, q.output] for q in answers]
        self.proc.stdin.write(json.dumps(batch) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"answer checker exited with {self.proc.wait()}")
        return [(argv, reason) for argv, reason in json.loads(line)]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_cycles(cli, check, cycles, seconds: float, after_query=None, between=None,
               host=None):
    """Run whole cycles; stop after ``seconds`` of measured time.

    Measured time covers a cycle's queries and the loop around them, less
    the time ``host`` (a hostspeed.HostSpeed) spends sampling.  After each
    cycle's timer stops, its answers are checked and dropped, then
    ``between`` is called with the measured time so far; neither is
    measured, and no answer outlives its cycle.
    """
    tally = Tally()
    for cycle in cycles:
        answers = []
        sampling_s = 0.0
        start = time.perf_counter()
        for argv in cycle:
            answers.append(run_query(cli, argv))
            if after_query is not None:
                after_query(answers[-1].output)
            if host is not None:
                sampling_s += host.after(answers[-1].seconds)
        tally.measured_s += time.perf_counter() - start - sampling_s
        tally.cycles.append(cycle)
        tally.latencies += [q.seconds for q in answers]
        tally.bad += check(answers)
        del answers
        if between is not None:
            between(tally.measured_s)
        if tally.measured_s >= seconds and len(tally.latencies) >= MIN_QUERIES:
            break
    return tally


class SetupProbes:
    """Set-up time in fresh interpreters, probed at points spread over the run.

    Probe i runs at the first cycle boundary after i/SETUP_PROBES of the
    run's seconds, so host-speed drift during the run is sampled evenly;
    the run reports their median.  Each probe times the reference work of
    hostspeed.py in its own process too, and its set-up time is scaled by
    that.  A first probe, not counted, loads the bytecode and shared
    libraries every later probe finds on disk.
    """

    def __init__(self, src: str, warmup: tuple[str, ...], seconds: float) -> None:
        self.argv = [sys.executable, os.path.join(HERE, "probe.py"), src, *warmup]
        self.seconds = seconds
        self.times: list[tuple[float, float]] = []  # (set-up seconds, host slowdown)
        self.probe()

    def probe(self) -> tuple[float, float]:
        proc = subprocess.run(self.argv, capture_output=True, text=True, timeout=120,
                              check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        if record["code"] != 0:
            raise RuntimeError(f"warm-up query {self.argv[3:]} exited {record['code']}")
        return record["setup_s"], record["reference_s"] / hostspeed.REFERENCE_S

    def __call__(self, measured_s: float) -> None:
        due = len(self.times) * self.seconds / SETUP_PROBES
        if len(self.times) < SETUP_PROBES and measured_s >= due:
            self.times.append(self.probe())

    def median(self, scaled: bool = True) -> float:
        while len(self.times) < SETUP_PROBES:
            self.times.append(self.probe())
        return statistics.median(setup / slowdown if scaled else setup
                                 for setup, slowdown in self.times)


def percentile_ms(samples: list[float], share: int) -> float:
    return statistics.quantiles(samples, n=100)[share - 1] * 1000.0


def warm_up(cli, check, warmup: tuple[str, ...]) -> None:
    bad = check([run_query(cli, list(warmup))])
    if bad:
        raise RuntimeError(f"warm-up query {list(warmup)} failed: {bad[0][1]}")


def traced_run(cli, check, workload, seed, seconds):
    """Run the workload's cycles with spans; return per-layer metrics and the tally.

    The tracing overhead is the calibrated cost of each wrapper times its
    calls plus the measured per-query hook, not the difference between a
    traced and an untraced pass: host speed swings by more than that
    difference between two passes.
    """
    tracer = tracing.Tracer()
    tracer.query_id = 0
    with tracing.instrument(tracer):
        tally = run_cycles(cli, check, workloads.cycles(workload.name, seed), seconds,
                           tracer.end_query)
    span_s, count_s = tracing.wrapper_costs()
    overhead_s = tracing.overhead(tracer, span_s, count_s)
    traced_s = tally.measured_s
    metrics = tracing.reduce(tracer, overhead_s, traced_s - overhead_s)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"trace_{workload.name}_seed{seed}")
    tracer.write(stem + ".spans.csv.gz")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": seed, "traced_s": traced_s,
                   "span_wrapper_s": span_s, "count_wrapper_s": count_s,
                   "hook_s": tracer.hook_s, "spans": len(tracer.start),
                   "metrics": metrics}, fh, indent=1)
    print(f"  traced {traced_s:.3f} s; {len(tracer.start)} spans at {span_s * 1e6:.3f} us, "
          f"hook {tracer.hook_s:.3f} s")
    return metrics, tally


def report(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:34s} {value:14.6g} {unit:6s} {note}".rstrip())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "freqpred", "cli.py")):
        print("error: src/freqpred not found; run from the root of a freqpred checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    probes = None if args.trace else SetupProbes(src, workload.warmup, args.seconds)

    import freqpred.cli as cli

    check = Checker(src)
    try:
        warm_up(cli, check, workload.warmup)
        if args.trace:
            metrics, tally = traced_run(cli, check, workload, args.seed, args.seconds)
            units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        else:
            host = hostspeed.HostSpeed()
            tally = run_cycles(cli, check, workloads.cycles(workload.name, args.seed),
                               args.seconds, between=probes, host=host)
            slowdown = host.slowdown()
            unscaled = {
                "queries_per_s": len(tally.latencies) / tally.measured_s,
                "query_p50_ms": statistics.median(tally.latencies) * 1000.0,
                "query_p90_ms": percentile_ms(tally.latencies, 90),
                "setup_s": probes.median(scaled=False),
            }
            metrics = {
                "queries_per_s": unscaled["queries_per_s"] * slowdown,
                "query_p50_ms": unscaled["query_p50_ms"] / slowdown,
                "query_p90_ms": unscaled["query_p90_ms"] / slowdown,
                "setup_s": probes.median(),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            }
            units = END_TO_END
    finally:
        check.close()

    shape = workloads.describe([argv for cycle in tally.cycles for argv in cycle])
    print(f"workload {workload.name} (seed {args.seed}): {workload.why}")
    print(f"  closed loop, 1 client; {shape['queries']} queries in {len(tally.cycles)} cycles; "
          f"per subcommand {shape['per_subcommand']}")
    print(f"  input sizes {shape['size_ranges']}; "
          f"repeated argv share {shape['repeat_share']:.3f}")
    attempted, bad = len(tally.latencies), tally.bad
    for argv, reason in bad[:10]:
        print(f"  FAILED {' '.join(argv)}: {reason}")
    if not args.trace:
        print(f"  host slowdown {slowdown:.4f} over {len(host.samples)} reference samples; "
              "query figures are scaled by it, set-up by each probe's own; unscaled in [ ]")
    for name, value in metrics.items():
        note = f"(n={attempted})" if name.startswith("query_p") else ""
        if not args.trace and name in unscaled:
            note = f"[{unscaled[name]:.6g}] {note}"
        report(name, value, units[name], note)
    report("error_rate", len(bad) / attempted, "ratio", f"({len(bad)} of {attempted})")
    print(json.dumps({
        "correct": not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
