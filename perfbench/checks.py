"""Answer checks for benchmark queries, run outside the timed region.

Each check recomputes the answer by a route other than the one the query
exercised: the integer-scaled plateau recurrence below, the Catalan-form
accuracy, closed-form posterior means and exact prior moments.  A check
returns None when the answer holds and a one-line reason when it does not.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from fractions import Fraction

from freqpred.accuracy import accuracy_condensed, accuracy_recursive
from freqpred.prediction import conditional_accuracy

REL_TOL = 1e-9  # printed values carry at least 10 significant digits
# Simulated rows are tested one by one against the analytic accuracy, and a
# run tests ~25,000 of them (~340 queries of ~71 rows).  At 5 sigma a correct
# simulator would fail some row in ~1.4% of runs, and in most sets of 200
# runs: simulate 0.6462 69 1991 --seed 2761658930 has a 5.5-sigma row, as
# its outcome slot 39 holds 5.5 sigma too many ones in those 1991 draws.
# At 6.5 sigma the chance is ~2e-6 per run.  Every monte_carlo cycle has a
# query of ~280,000 replications (sigma < 0.001), so a bias of 0.007 in
# any step still fails.
Z_LIMIT = 6.5
HALF = Fraction(1, 2)
ROUTES = ("direct", "ttable", "recursive", "condensed", "expanded")


class AnswerError(Exception):
    """A query's answer disagrees with the reference."""


def _need(condition: bool, message: str) -> None:
    if not condition:
        raise AnswerError(message)


def _close(value, reference, rel: float = REL_TOL) -> bool:
    return abs(float(value) - reference) <= rel * abs(reference)


# ------------------------------------------------------------ references


def plateau_numerators(theta: Fraction, a_max: int) -> tuple[list[int], int]:
    """Integers S_a with pi_(2a+1)(theta) = S_a / (2 d^(2a+2)), a = 0..a_max.

    For theta = p/d:  S_0 = d^2 + (d-2p)^2 and
    S_a = d^2 S_(a-1) + C(2a, a) (p(d-p))^a (d-2p)^2.
    Returns the list and d.  No gcd is taken, so this is exact and fast.
    """
    p, d = theta.numerator, theta.denominator
    pq, lift, d2 = p * (d - p), (d - 2 * p) ** 2, d * d
    term, s = 1, d2 + lift
    out = [s]
    for a in range(1, a_max + 1):
        term = term * 2 * (2 * a - 1) * pq // a  # C(2a,a) (pq)^a, division exact
        s = d2 * s + term * lift
        out.append(s)
    return out, d


def exact_pi(theta: Fraction, k: int) -> Fraction:
    """pi_k(theta) exactly, from the plateau recurrence."""
    if k == 0:
        return HALF
    a = (k + 1) // 2 - 1
    s, d = plateau_numerators(theta, a)
    return Fraction(s[a], 2 * d ** (2 * a + 2))


def prior_accuracies(prior_text: str, horizon: int) -> list[Fraction]:
    """Prior-averaged pi_k, k = 0..horizon-1, for the frequent-outcome rule.

    pi_k = 1 - sum_{i=1..a} C_(i-1) x^i - 2 C(2a, a) x^(a+1) with
    x = theta (1 - theta) is linear in the powers of x, so its prior mean
    needs only the moments E[x^i]: a product of rising factors for a beta
    prior, a weighted atom sum for a discrete one.
    """
    a_max = max(0, horizon // 2 - 1)  # plateau index of k = horizon - 1
    kind, _, body = prior_text.partition(":")
    if kind == "beta":
        alpha, beta = (Fraction(t) for t in body.split(","))
        moments = [Fraction(1)]
        for j in range(a_max + 1):
            moments.append(
                moments[-1] * (alpha + j) * (beta + j)
                / ((alpha + beta + 2 * j) * (alpha + beta + 2 * j + 1))
            )
    else:
        atoms = [tuple(Fraction(t) for t in item.split("=")) for item in body.split(",")]
        moments = [sum(w * (v * (1 - v)) ** i for v, w in atoms) for i in range(a_max + 2)]
    out, series = [HALF], Fraction(0)
    for k in range(1, horizon):
        a = (k + 1) // 2 - 1
        if k % 2 and a:  # a new plateau adds the Catalan term C_(a-1) E[x^a]
            series += math.comb(2 * a - 2, a - 1) // a * moments[a]
        out.append(1 - series - 2 * math.comb(2 * a, a) * moments[a + 1])
    return out


def exact_theta(text: str) -> Fraction:
    """The exact value the program computes on: p/q, or the float's dyadic."""
    return Fraction(text) if "/" in text else Fraction(float(text))


# ------------------------------------------------------------ parsing


def split_argv(argv: list[str]) -> tuple[list[str], dict[str, str]]:
    """Positional arguments and '--name value' options of a generated argv."""
    positional, options = [], {}
    i = 0
    while i < len(argv):
        if argv[i].startswith("--"):
            options[argv[i][2:]] = argv[i + 1]
            i += 2
        else:
            positional.append(argv[i])
            i += 1
    return positional, options


def read_table(text: str, fmt: str) -> tuple[list[str], list[list]]:
    if fmt == "json":
        records = json.loads(text)
        header = list(records[0]) if records else []
        return header, [[r[name] for name in header] for r in records]
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _truth(cell) -> bool:
    return cell is True or cell == "true"


# ------------------------------------------------------------ per command


def _check_accuracy(args, options, rows):
    k, theta_text = int(args[1]), args[2]
    theta = Fraction(theta_text) if "/" in theta_text else float(theta_text)
    _need(all(_truth(r[4]) for r in rows), "routes disagree")
    for row in rows:
        other = accuracy_recursive if row[2] == "condensed" else accuracy_condensed
        reference = float(other(k, theta))
        _need(int(row[0]) == k, f"k column {row[0]} != {k}")
        _need(_close(row[3], reference), f"{row[2]}: pi {row[3]} != {reference!r}")
    wanted = options.get("path", "all")
    routes = [r[2] for r in rows]
    _need(routes == (list(ROUTES) if wanted == "all" else [wanted]), f"routes {routes}")


def _check_threshold(args, options, rows):
    theta = exact_theta(args[1])
    target = Fraction(float(args[2]))
    (row,) = rows
    _need(row[2] != "unreachable", "reachable target reported unreachable")
    k = int(row[2])
    _need(k % 2 == 1, f"first crossing k={k} is not odd")
    a = (k - 1) // 2
    s, d = plateau_numerators(theta, a)
    below = HALF if a == 0 else Fraction(s[a - 1], 2 * d ** (2 * a))
    at = Fraction(s[a], 2 * d ** (2 * a + 2))
    _need(below < target <= at,
          f"pi_{k - 1} = {float(below)!r}, pi_{k} = {float(at)!r}, target {float(target)!r}")


def _check_curve(args, options, rows):
    theta, k_max = exact_theta(args[1]), int(args[2])
    _need([int(r[0]) for r in rows] == list(range(1, k_max + 1)), "k column is not 1..k_max")
    s, d = plateau_numerators(theta, (k_max + 1) // 2 - 1)
    ideal = max(theta, 1 - theta)
    previous_gap = math.inf
    for k_str, pi, ideal_cell, gap in rows:
        k = int(k_str)
        a = (k + 1) // 2 - 1
        den = 2 * d ** (2 * a + 2)
        _need(_close(pi, s[a] / den), f"pi_{k}: {pi} != {s[a] / den!r}")
        _need(_close(ideal_cell, float(ideal)), f"ideal {ideal_cell} != {float(ideal)!r}")
        gap_ref = (ideal.numerator * den - s[a] * ideal.denominator) / (ideal.denominator * den)
        _need(_close(gap, gap_ref), f"gap_{k}: {gap} != {gap_ref!r}")
        _need(0 <= float(gap) <= previous_gap, f"gap_{k}={gap} is negative or increasing")
        previous_gap = float(gap)


def _check_coeffs(args, options, rows):
    a_max = int(args[1])
    table: dict[int, list[int]] = {}
    for a, i, alpha, note in rows:
        a, i = int(a), int(i)
        table.setdefault(a, []).append(int(alpha))
        _need(len(table[a]) == i, f"row {a}: index {i} out of order")
        _need(bool(note) == ((a, i) == (5, 1)), f"note misplaced at ({a}, {i})")
    _need(sorted(table) == list(range(a_max + 1)), "rows are not 0..a_max")
    s, _ = plateau_numerators(Fraction(1, 3), a_max)
    for a, row in table.items():
        _need(len(row) == a + 2, f"row {a} has {len(row)} entries")
        _need(sum(row) == -1, f"row {a} sums to {sum(row)}")
        _need(row[0] == math.comb(2 * a + 1, a), f"alpha({a}, 1) = {row[0]}")
        # pi_(2a+1)(1/3) = 1 - t - sum_t alpha(a, t) t^(a+t), scaled by 2 * 3^(2a+2)
        scaled = 3 ** (2 * a + 2) - 3 ** (2 * a + 1) - sum(
            c * 3 ** (a + 1 - t) for t, c in enumerate(row)
        )
        _need(2 * scaled == s[a], f"row {a} does not reproduce pi_{2 * a + 1}(1/3)")


def _check_posterior(args, options, rows):
    prior_text, k, n = args[1], int(args[2]), int(args[3])
    kind, _, body = prior_text.partition(":")
    if kind == "beta":
        alpha, beta = (Fraction(t) for t in body.split(","))
        mean = (alpha + n) / (alpha + beta + k)
    else:
        atoms = [tuple(Fraction(t) for t in item.split("=")) for item in body.split(",")]
        weights = [(v, w * v**n * (1 - v) ** (k - n)) for v, w in atoms]
        mean = sum(v * w for v, w in weights) / sum(w for _, w in weights)
    phi = Fraction(1) if mean > HALF else Fraction(0) if mean < HALF else HALF
    (row,) = rows
    _need(_close(row[3], float(mean)), f"mean {row[3]} != {float(mean)!r}")
    _need(float(row[4]) == float(phi), f"phi {row[4]} != {float(phi)}")
    probability = float(conditional_accuracy(phi, mean))
    _need(_close(row[5], probability), f"probability {row[5]} != {probability!r}")


def _check_simulate(args, options, rows):
    source, horizon, reps = args[1], int(args[2]), int(args[3])
    prior = source.startswith(("beta:", "discrete:"))
    theta = None if prior else exact_theta(source)
    _need([int(r[0]) for r in rows] == list(range(horizon)), "k column is not 0..horizon-1")
    expected_pi = prior_accuracies(source, horizon) if prior else None
    for row in rows:
        k, hits, trials = int(row[0]), int(row[1]), int(row[2])
        _need(trials == reps and 0 <= hits <= reps, f"step {k}: hits {hits} of {trials}")
        estimate = hits / reps
        _need(_close(row[3], estimate), f"step {k}: estimate {row[3]} != {estimate!r}")
        expected = float(expected_pi[k] if prior else exact_pi(theta, k))
        # sigma under the null hypothesis that the estimate is unbiased
        sigma = math.sqrt(expected * (1 - expected) / reps)
        _need(abs(estimate - expected) <= Z_LIMIT * sigma,
              f"step {k}: {estimate} is beyond {Z_LIMIT} sigma of {expected}")
        if prior:
            continue
        _need(_close(row[5], expected), f"step {k}: analytic_pi {row[5]} != {expected!r}")
        z = (estimate - expected) / math.sqrt(estimate * (1 - estimate) / reps)
        _need(abs(float(row[6]) - z) <= 1e-6 * max(1.0, abs(z)), f"step {k}: z {row[6]} != {z}")


# subcommand -> (check, table header)
CHECKS = {
    "accuracy": (_check_accuracy, ["k", "theta", "path", "pi", "agree"]),
    "threshold": (_check_threshold, ["theta", "target", "k"]),
    "curve": (_check_curve, ["k", "pi_k", "ideal", "gap"]),
    "coeffs": (_check_coeffs, ["a", "i", "alpha", "note"]),
    "posterior": (_check_posterior, ["prior", "k", "n", "mean", "phi", "probability"]),
    "simulate": (_check_simulate, ["k", "hits", "trials", "estimate", "stderr"]),
}
FIXED_THETA_COLUMNS = ["analytic_pi", "z"]  # simulate adds them without a prior


def check_answer(argv: list[str], code, output: str) -> str | None:
    """None when the query's exit code and output are right, else why not."""
    if code != 0:
        return f"exit code {code}"
    args, options = split_argv(argv)
    try:
        header, rows = read_table(output, options.get("format", "csv"))
        _need(bool(rows), "empty table")
        check, expected = CHECKS[args[0]]
        if args[0] == "simulate" and not args[1].startswith(("beta:", "discrete:")):
            expected = expected + FIXED_THETA_COLUMNS
        _need(header == expected, f"header {header}")
        check(args, options, rows)
    except AnswerError as exc:
        return str(exc)
    except (ValueError, IndexError, KeyError, TypeError, ArithmeticError) as exc:
        return f"unreadable output: {exc!r}"
    return None


def serve() -> None:
    """Check batches of answers read from stdin; reply one JSON line each.

    A batch is a list of [argv, exit code, output]; the reply lists
    [argv, reason] for each answer that fails.  run.py starts this in a
    child interpreter, so that neither the checks' memory nor their fills
    of the program's lru caches reach the measured process.
    """
    for line in sys.stdin:
        bad = []
        for argv, code, output in json.loads(line):
            try:
                reason = check_answer(argv, code, output)
            except Exception as exc:  # a checker crash fails the answer, not the run
                reason = f"checker raised {exc!r}"
            if reason is not None:
                bad.append([argv, reason])
        sys.stdout.write(json.dumps(bad) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
