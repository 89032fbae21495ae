"""Command-line interface: coefficient tables, accuracy queries, curves,
advantage thresholds, posterior prediction, and Monte Carlo runs, emitted
as CSV (default) or JSON.

Number parsing convention: "p/q" strings are exact rationals and route
through the exact evaluation paths; plain decimals are floats.  A
``threshold`` target parses the same way as theta.  Prior
specifications ("beta:a,b" / "discrete:v=w,...") always parse their
numbers exactly, so conjugate answers stay exact.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import accuracy as acc
from .combinatorics import CoefficientTable
from .prediction import (
    CountStatistic,
    beta_prior,
    discrete_prior,
    frequent_outcome_array,
    optimal_array,
    posterior_correct_probability,
    posterior_mean,
)

__all__ = ["main"]

ALPHA_DEVIATION_NOTE = (
    "row-sum identity sum(alpha)=-1 forces 462; "
    "the commonly tabulated 426 is a digit transposition"
)

ACCURACY_PATHS = {
    "direct": acc.accuracy_direct,
    "ttable": acc.accuracy_t_table,
    "recursive": acc.accuracy_recursive,
    "condensed": acc.accuracy_condensed,
    "expanded": acc.accuracy_expanded,
}


def parse_theta(text: str):
    """'p/q' -> exact Fraction, decimal -> float; must land in [0, 1]."""
    try:
        value = Fraction(text) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse probability {text!r}: {exc}") from None
    if not 0 <= value <= 1:
        raise ValueError(f"probability must lie in [0, 1], got {text!r}")
    return value


def parse_exact(text: str) -> Fraction:
    """Exact number: accepts 'p/q' and decimal strings alike."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse number {text!r}: {exc}") from None


def parse_prior(spec: str):
    """'beta:a,b' or 'discrete:v1=w1,v2=w2,...' with exact numbers."""
    kind, _, body = spec.partition(":")
    if kind == "beta":
        parts = body.split(",")
        if len(parts) != 2:
            raise ValueError(f"beta prior needs two parameters, got {spec!r}")
        return beta_prior(parse_exact(parts[0]), parse_exact(parts[1]))
    if kind == "discrete":
        atoms = []
        for item in body.split(","):
            value, sep, weight = item.partition("=")
            if not sep:
                raise ValueError(f"discrete atom must look like v=w, got {item!r}")
            atoms.append((parse_exact(value), parse_exact(weight)))
        return discrete_prior(atoms)
    raise ValueError(f"unknown prior kind in {spec!r} (use beta: or discrete:)")


def _csv_number(value, spec: str) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return spec % float(value)


def _json_scalar(value) -> str:
    """``value`` as ``json.dumps`` writes it, by json's own scalar encoders;
    RFC 8259 has no Infinity or NaN, so a non-finite float becomes null."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    value = float(value)
    return float.__repr__(value) if math.isfinite(value) else "null"


def emit(fmt: str, out: str | None, header: list[str], rows: list, digits: int) -> None:
    """Write one table as CSV (header row, '\\n' terminated) or JSON array,
    to the file ``out``, or to stdout when ``out`` is None.

    The JSON is byte for byte ``json.dumps(rows as dicts, indent=2)``, but
    each row fills one template of ``"    <key>: "`` prefixes instead of
    going through json's pure-Python indenting encoder."""
    if fmt == "json":
        prefixes = [f"    {encode_basestring_ascii(name)}: " for name in header]
        objects = ",\n".join(
            "  {\n"
            + ",\n".join(prefix + _json_scalar(value) for prefix, value in zip(prefixes, row))
            + "\n  }"
            for row in rows
        )
        text = f"[\n{objects}\n]\n" if rows else "[]\n"
    else:
        spec = f"%.{digits}g"
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [cell if isinstance(cell, str) else _csv_number(cell, spec) for cell in row]
            for row in rows
        )
        text = buffer.getvalue()
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def simulate_accuracy(config, array):
    """``freqpred.simulator.simulate_accuracy``, imported on the first call:
    the simulator needs numpy, whose import takes longer than the rest of
    the CLI's start-up, and no other subcommand does."""
    from .simulator import simulate_accuracy as simulate

    return simulate(config, array)


def cmd_coeffs(args):
    table = CoefficientTable.up_to(args.a_max)
    rows = []
    for a in range(args.a_max + 1):
        for t, alpha in enumerate(table.row(a), start=1):
            note = ALPHA_DEVIATION_NOTE if (a, t) == (5, 1) else ""
            rows.append([a, t, alpha, note])
    return ["a", "i", "alpha", "note"], rows, 0


def cmd_accuracy(args):
    k, theta = args.k, parse_theta(args.theta)
    if args.path == "all":
        names = [n for n in ACCURACY_PATHS if k >= 1 or n not in ("condensed", "expanded")]
    else:
        names = [args.path]
    values = {name: ACCURACY_PATHS[name](k, theta) for name in names}
    # every route is exact, or the exact value rounded once: equal or wrong
    agree = len(set(values.values())) == 1
    rows = [[k, args.theta, name, values[name], agree] for name in names]
    return ["k", "theta", "path", "pi", "agree"], rows, 0 if agree else 1


def cmd_curve(args):
    points = acc.accuracy_curve(parse_theta(args.theta), args.k_max)
    return ["k", "pi_k", "ideal", "gap"], points, 0


def cmd_threshold(args):
    theta = parse_theta(args.theta)
    target = parse_theta(args.target)
    k = acc.threshold_k(theta, target)
    rows = [[args.theta, target, "unreachable" if k is None else k]]
    return ["theta", "target", "k"], rows, 0


def cmd_posterior(args):
    prior = parse_prior(args.prior)
    stat = CountStatistic(args.k, args.n)
    mean = posterior_mean(prior, stat)
    phi = optimal_array(prior, args.k).phi(args.k, args.n)
    probability = posterior_correct_probability(phi, prior, stat)
    rows = [[args.prior, args.k, args.n, mean, phi, probability]]
    return ["prior", "k", "n", "mean", "phi", "probability"], rows, 0


def cmd_simulate(args):
    from .simulator import SimulationConfig

    if args.theta_or_prior.startswith(("beta:", "discrete:")):
        source = parse_prior(args.theta_or_prior)
        fixed_theta = None
    else:
        source = parse_theta(args.theta_or_prior)
        fixed_theta = float(source)
    config = SimulationConfig(
        theta_source=source, horizon=args.k_max, replications=args.reps, seed=args.seed
    )
    report = simulate_accuracy(config, frequent_outcome_array(args.k_max))
    header = ["k", "hits", "trials", "estimate", "stderr"]
    rows = [[step.k, step.hits, step.trials, step.estimate, step.stderr] for step in report.steps]
    if fixed_theta is not None:
        header += ["analytic_pi", "z"]
        # pi_0 = 1/2, then pi_1, pi_2, ... from one pass over the plateaus
        curve = acc.accuracy_curve(fixed_theta, args.k_max)
        for step, row, analytic in zip(report.steps, rows, [0.5] + [p.accuracy for p in curve]):
            diff = step.estimate - analytic
            if step.stderr > 0:
                z = diff / step.stderr
            else:
                z = 0.0 if diff == 0 else math.copysign(math.inf, diff)
            row += [analytic, z]
    return header, rows, 0


def significant_digits(text: str) -> int:
    """``--digits``: an integer of at least 1 (a precision of 0 prints 1 digit)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``freqpred`` parser, built once per process: building it (six
    subparsers) costs more than most queries, and ``parse_args`` reads it
    without changing it, starting each call from a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="freqpred",
        description="Exact accuracy analysis of most-frequent-outcome prediction "
        "for binary processes, plus a seeded Monte Carlo cross-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, run) -> None:
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--digits", type=significant_digits, default=10, help="significant digits")
        p.set_defaults(run=run)

    p = sub.add_parser("coeffs", help="expanded-polynomial coefficient table")
    p.add_argument("a_max", type=int)
    add_common(p, cmd_coeffs)

    p = sub.add_parser("accuracy", help="pi_k(theta) by one or all evaluation paths")
    p.add_argument("k", type=int)
    p.add_argument("theta", help="decimal ('0.45') or exact rational ('9/20')")
    p.add_argument(
        "--path", choices=[*ACCURACY_PATHS, "all"], default="all",
    )
    add_common(p, cmd_accuracy)

    p = sub.add_parser("curve", help="accuracy vs ideal for k = 1..k_max")
    p.add_argument("theta")
    p.add_argument("k_max", type=int)
    add_common(p, cmd_curve)

    p = sub.add_parser("threshold", help="first k reaching a target accuracy")
    p.add_argument("theta")
    p.add_argument("target", help="decimal ('0.53') or exact rational ('53/100')")
    add_common(p, cmd_threshold)

    p = sub.add_parser("posterior", help="posterior prediction for one count")
    p.add_argument("prior", help="'beta:a,b' or 'discrete:v=w,...'")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    add_common(p, cmd_posterior)

    p = sub.add_parser("simulate", help="Monte Carlo accuracy of the frequent-outcome rule")
    p.add_argument("theta_or_prior", help="theta ('0.45', '9/20') or prior spec")
    p.add_argument("k_max", type=int)
    p.add_argument("reps", type=int)
    p.add_argument("--seed", type=int, default=0)
    add_common(p, cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        header, rows, code = args.run(args)
        emit(args.format, args.out, header, rows, args.digits)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
