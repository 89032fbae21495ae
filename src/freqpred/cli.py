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
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

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
from .simulator import SimulationConfig, simulate_accuracy

__all__ = ["main", "OutputEnvelope"]

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


@dataclass(frozen=True)
class OutputEnvelope:
    """Where and how a command writes its table."""

    format: str = "csv"
    destination: str | None = None  # None -> stdout


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


def format_number(value, digits: int) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.{digits}g}"


def _to_jsonable(value):
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return float(value)


def emit(envelope: OutputEnvelope, header: list[str], rows: list[list], digits: int) -> None:
    """Write one table as CSV (header row, '\\n' terminated) or JSON array."""
    if envelope.format == "json":
        payload = [
            {name: _to_jsonable(value) for name, value in zip(header, row)}
            for row in rows
        ]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [cell if isinstance(cell, str) else format_number(cell, digits) for cell in row]
            )
        text = buffer.getvalue()
    if envelope.destination is None:
        sys.stdout.write(text)
    else:
        with open(envelope.destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_coeffs(a_max: int, out: OutputEnvelope, digits: int) -> int:
    table = CoefficientTable.up_to(a_max)
    rows = []
    for a in range(a_max + 1):
        for t, alpha in enumerate(table.row(a), start=1):
            note = ALPHA_DEVIATION_NOTE if (a, t) == (5, 1) else ""
            rows.append([a, t, alpha, note])
    emit(out, ["a", "i", "alpha", "note"], rows, digits)
    return 0


def cmd_accuracy(k: int, theta_text: str, path: str, out: OutputEnvelope, digits: int) -> int:
    theta = parse_theta(theta_text)
    if path == "all":
        names = [n for n in ACCURACY_PATHS if k >= 1 or n not in ("condensed", "expanded")]
    else:
        names = [path]
    values = {name: ACCURACY_PATHS[name](k, theta) for name in names}
    if isinstance(theta, Fraction):
        agree = len(set(values.values())) == 1
    else:
        spread = max(values.values()) - min(values.values())
        agree = spread <= 1e-12
    rows = [[k, theta_text, name, values[name], agree] for name in names]
    emit(out, ["k", "theta", "path", "pi", "agree"], rows, digits)
    return 0 if agree else 1


def cmd_curve(theta_text: str, k_max: int, out: OutputEnvelope, digits: int) -> int:
    theta = parse_theta(theta_text)
    points = acc.accuracy_curve(theta, k_max)
    rows = [[p.k, p.accuracy, p.ideal, p.gap] for p in points]
    emit(out, ["k", "pi_k", "ideal", "gap"], rows, digits)
    return 0


def cmd_threshold(theta_text: str, target_text: str, out: OutputEnvelope, digits: int) -> int:
    theta = parse_theta(theta_text)
    target = parse_theta(target_text)
    k = acc.threshold_k(theta, target)
    rows = [[theta_text, target, "unreachable" if k is None else k]]
    emit(out, ["theta", "target", "k"], rows, digits)
    return 0


def cmd_posterior(prior_spec: str, k: int, n: int, out: OutputEnvelope, digits: int) -> int:
    prior = parse_prior(prior_spec)
    stat = CountStatistic(k, n)
    mean = posterior_mean(prior, stat)
    phi = optimal_array(prior, k).phi(k, n)
    probability = posterior_correct_probability(phi, prior, stat)
    rows = [[prior_spec, k, n, mean, phi, probability]]
    emit(out, ["prior", "k", "n", "mean", "phi", "probability"], rows, digits)
    return 0


def cmd_simulate(
    source_text: str,
    k_max: int,
    reps: int,
    seed: int,
    out: OutputEnvelope,
    digits: int,
) -> int:
    if source_text.startswith(("beta:", "discrete:")):
        source = parse_prior(source_text)
        fixed_theta = None
    else:
        source = parse_theta(source_text)
        fixed_theta = float(source)
    config = SimulationConfig(
        theta_source=source, horizon=k_max, replications=reps, seed=seed
    )
    report = simulate_accuracy(config, frequent_outcome_array(k_max))
    header = ["k", "hits", "trials", "estimate", "stderr"]
    if fixed_theta is not None:
        header += ["analytic_pi", "z"]
    rows = []
    for step in report.steps:
        row = [step.k, step.hits, step.trials, step.estimate, step.stderr]
        if fixed_theta is not None:
            analytic = acc.accuracy_recursive(step.k, fixed_theta)
            diff = step.estimate - analytic
            if step.stderr > 0:
                z = diff / step.stderr
            else:
                z = 0.0 if diff == 0 else float("inf") * (1 if diff > 0 else -1)
            row += [analytic, z]
        rows.append(row)
    emit(out, header, rows, digits)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freqpred",
        description="Exact accuracy analysis of most-frequent-outcome prediction "
        "for binary processes, plus a seeded Monte Carlo cross-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--digits", type=int, default=10, help="significant digits")

    p = sub.add_parser("coeffs", help="expanded-polynomial coefficient table")
    p.add_argument("a_max", type=int)
    add_common(p)

    p = sub.add_parser("accuracy", help="pi_k(theta) by one or all evaluation paths")
    p.add_argument("k", type=int)
    p.add_argument("theta", help="decimal ('0.45') or exact rational ('9/20')")
    p.add_argument(
        "--path", choices=[*ACCURACY_PATHS, "all"], default="all",
    )
    add_common(p)

    p = sub.add_parser("curve", help="accuracy vs ideal for k = 1..k_max")
    p.add_argument("theta")
    p.add_argument("k_max", type=int)
    add_common(p)

    p = sub.add_parser("threshold", help="first k reaching a target accuracy")
    p.add_argument("theta")
    p.add_argument("target", help="decimal ('0.53') or exact rational ('53/100')")
    add_common(p)

    p = sub.add_parser("posterior", help="posterior prediction for one count")
    p.add_argument("prior", help="'beta:a,b' or 'discrete:v=w,...'")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    add_common(p)

    p = sub.add_parser("simulate", help="Monte Carlo accuracy of the frequent-outcome rule")
    p.add_argument("theta_or_prior", help="theta ('0.45', '9/20') or prior spec")
    p.add_argument("k_max", type=int)
    p.add_argument("reps", type=int)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out = OutputEnvelope(format=args.format, destination=args.out)
    try:
        if args.command == "coeffs":
            return cmd_coeffs(args.a_max, out, args.digits)
        if args.command == "accuracy":
            return cmd_accuracy(args.k, args.theta, args.path, out, args.digits)
        if args.command == "curve":
            return cmd_curve(args.theta, args.k_max, out, args.digits)
        if args.command == "threshold":
            return cmd_threshold(args.theta, args.target, out, args.digits)
        if args.command == "posterior":
            return cmd_posterior(args.prior, args.k, args.n, out, args.digits)
        if args.command == "simulate":
            return cmd_simulate(
                args.theta_or_prior, args.k_max, args.reps, args.seed, out, args.digits
            )
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
