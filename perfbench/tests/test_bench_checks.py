"""The answer checker accepts the program's answers and flags wrong ones.

Wrong values are injected into the checker's input (the captured output),
never into the program.
"""

import contextlib
import csv
import io
from fractions import Fraction

import pytest

import checks
from freqpred import cli
from freqpred.accuracy import accuracy_condensed, accuracy_recursive


def answer(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def with_cell(text, row, column, value):
    """CSV ``text`` with data row ``row``, column ``column`` replaced."""
    rows = list(csv.reader(io.StringIO(text)))
    rows[row + 1][column] = value
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


CASES = [
    # argv, (row, column, wrong value)
    (["accuracy", "30", "9/20"], (2, 3, "0.5299")),
    (["accuracy", "60", "0.45", "--path", "expanded"], (0, 3, "0.52")),
    (["threshold", "9/20", "0.53"], (0, 2, "69")),
    (["threshold", "9/20", "0.53"], (0, 2, "73")),
    (["threshold", "0.48", "0.51"], (0, 2, "unreachable")),
    (["curve", "9/20", "20"], (7, 3, "0.5")),
    (["curve", "0.45", "20"], (4, 1, "0.6")),
    (["coeffs", "6"], (15, 2, "426")),
    (["posterior", "beta:1,1", "4", "3"], (0, 3, "0.6")),
    (["posterior", "discrete:2/5=1/2,3/5=1/2", "10", "5"], (0, 4, "1")),
    (["posterior", "beta:3/2,5/2", "40", "17"], (0, 5, "0.61")),
    (["simulate", "0.45", "11", "4000", "--seed", "3"], (6, 1, "1900")),
    (["simulate", "beta:2,2", "11", "4000", "--seed", "3"], (9, 1, "2500")),
    (["simulate", "discrete:1/5=1/2,7/10=1/2", "11", "4000", "--seed", "3"], (3, 1, "2000")),
]


@pytest.mark.parametrize("argv, wrong", CASES, ids=[" ".join(c[0]) for c in CASES])
def test_checker_accepts_right_and_flags_wrong(argv, wrong):
    code, text = answer(argv)
    assert checks.check_answer(argv, code, text) is None
    assert checks.check_answer(argv, code, with_cell(text, *wrong)) is not None


def test_rare_simulation_draw_is_not_a_failure():
    # step 38 lies 5.5 sigma above pi_38: a correct run, kept as a regression
    argv = ["simulate", "0.6462", "69", "1991", "--seed", "2761658930"]
    code, text = answer(argv)
    assert checks.check_answer(argv, code, text) is None


def test_simulation_bias_is_flagged():
    argv = ["simulate", "0.45", "71", "280000", "--seed", "5"]
    code, text = answer(argv)
    hits = int(list(csv.reader(io.StringIO(text)))[41][1]) + round(0.007 * 280000)
    text = with_cell(with_cell(text, 40, 1, str(hits)), 40, 3, repr(hits / 280000))
    assert "sigma" in checks.check_answer(argv, code, text)


def test_json_output_is_checked():
    argv = ["posterior", "beta:1,1", "4", "3", "--format", "json"]
    code, text = answer(argv)
    assert checks.check_answer(argv, code, text) is None
    assert checks.check_answer(argv, code, text.replace("0.666", "0.777")) is not None


def test_wrong_header_is_flagged():
    argv = ["simulate", "0.45", "5", "300"]
    code, text = answer(argv)
    assert checks.check_answer(argv, code, text) is None
    assert checks.check_answer(argv, code, text.replace(",z\n", ",zz\n", 1)) is not None


def test_non_zero_exit_and_missing_output_are_failures():
    assert checks.check_answer(["accuracy", "3", "9/20"], 1, "") == "exit code 1"
    assert checks.check_answer(["accuracy", "3", "9/20"], 0, "") is not None


@pytest.mark.parametrize("theta", [Fraction(1, 3), Fraction(9, 20), Fraction(1, 2),
                                   Fraction(7, 10)])
def test_plateau_recurrence_matches_the_recursive_route(theta):
    for k in range(0, 40):
        assert checks.exact_pi(theta, k) == accuracy_recursive(k, theta)


def test_prior_accuracies_match_atom_weighted_condensed_form():
    atoms = [(Fraction(1, 5), Fraction(1, 4)), (Fraction(2, 5), Fraction(1, 4)),
             (Fraction(7, 10), Fraction(1, 2))]
    expected = [Fraction(1, 2)] + [
        sum(w * accuracy_condensed(k, v) for v, w in atoms) for k in range(1, 20)
    ]
    assert checks.prior_accuracies("discrete:1/5=1/4,2/5=1/4,7/10=1/2", 20) == expected


def test_beta_prior_accuracy_matches_a_fine_discretisation():
    # beta(2, 2) has density 6 t (1 - t); a midpoint sum over 2000 cells
    cells = 2000
    atoms = [((i + 0.5) / cells, 6 * ((i + 0.5) / cells) * (1 - (i + 0.5) / cells) / cells)
             for i in range(cells)]
    for k in (1, 2, 7, 30):
        numeric = sum(w * accuracy_condensed(k, t) for t, w in atoms)
        assert abs(float(checks.prior_accuracies("beta:2,2", k + 1)[k]) - numeric) < 1e-6
