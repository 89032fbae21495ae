"""CLI surface: parsing, formats, exit codes, round-trip stability."""

from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from freqpred import cli
from freqpred.accuracy import accuracy_curve


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestCoeffs:
    def test_first_row(self, capsys):
        code, out, _ = run(capsys, ["coeffs", "0"])
        header, rows = parse_csv(out)
        assert code == 0
        assert header == ["a", "i", "alpha", "note"]
        assert rows == [["0", "1", "1", ""], ["0", "2", "-2", ""]]

    def test_table_values_and_deviation_note(self, capsys):
        code, out, _ = run(capsys, ["coeffs", "5"])
        _, rows = parse_csv(out)
        cell = {(int(r[0]), int(r[1])): r for r in rows}
        assert cell[(3, 5)][2] == "40"
        assert cell[(5, 1)][2] == "462"
        assert "462" in cell[(5, 1)][3] and "426" in cell[(5, 1)][3]
        notes = [r[3] for r in rows if r[3]]
        assert len(notes) == 1

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, ["coeffs", "1", "--format", "json"])
        payload = json.loads(out)
        assert code == 0
        assert payload[0] == {"a": 0, "i": 1, "alpha": 1, "note": ""}

    def test_negative_a_max(self, capsys):
        code, _, err = run(capsys, ["coeffs", "-3"])
        assert code != 0 and "a_max" in err


class TestAccuracy:
    def test_all_paths_agree(self, capsys):
        code, out, _ = run(capsys, ["accuracy", "70", "9/20"])
        header, rows = parse_csv(out)
        assert code == 0
        assert header == ["k", "theta", "path", "pi", "agree"]
        assert len(rows) == 5
        assert {r[3] for r in rows} == {"0.5298359384"}
        assert all(r[4] == "true" for r in rows)

    def test_single_path(self, capsys):
        code, out, _ = run(capsys, ["accuracy", "1", "1/2", "--path", "direct"])
        _, rows = parse_csv(out)
        assert code == 0
        assert rows == [["1", "1/2", "direct", "0.5", "true"]]

    def test_decimal_theta(self, capsys):
        from freqpred.accuracy import accuracy_expanded

        code, out, _ = run(capsys, ["accuracy", "9", "0.4", "--path", "expanded"])
        _, rows = parse_csv(out)
        assert code == 0
        assert float(rows[0][3]) == pytest.approx(accuracy_expanded(9, 0.4), abs=1e-9)

    def test_k_one_lists_all_five_routes(self, capsys):
        code, out, _ = run(capsys, ["accuracy", "1", "9/20"])
        _, rows = parse_csv(out)
        assert code == 0
        assert [r[2] for r in rows] == list(cli.ACCURACY_PATHS)
        assert {r[3] for r in rows} == {"0.505"}

    def test_k_zero_uses_total_paths_only(self, capsys):
        code, out, _ = run(capsys, ["accuracy", "0", "0.3"])
        _, rows = parse_csv(out)
        assert code == 0
        assert [r[2] for r in rows] == ["direct", "ttable", "recursive"]

    def test_disagreement_exits_nonzero(self, capsys, monkeypatch):
        monkeypatch.setitem(cli.ACCURACY_PATHS, "direct", lambda k, t: 0.999)
        code, out, _ = run(capsys, ["accuracy", "4", "0.3"])
        _, rows = parse_csv(out)
        assert code == 1
        assert all(r[4] == "false" for r in rows)

    def test_decimal_theta_agrees_to_the_last_bit(self, capsys):
        code, out, _ = run(capsys, ["accuracy", "60", "0.4731", "--digits", "17"])
        _, rows = parse_csv(out)
        assert code == 0
        assert len(rows) == 5
        assert len({r[3] for r in rows}) == 1
        assert all(r[4] == "true" for r in rows)

    def test_one_ulp_disagreement_exits_nonzero(self, capsys, monkeypatch):
        route = cli.ACCURACY_PATHS["direct"]
        monkeypatch.setitem(
            cli.ACCURACY_PATHS, "direct", lambda k, t: math.nextafter(route(k, t), 1.0)
        )
        code, out, _ = run(capsys, ["accuracy", "60", "0.4731"])
        _, rows = parse_csv(out)
        assert code == 1
        assert all(r[4] == "false" for r in rows)

    def test_bad_theta(self, capsys):
        code, _, err = run(capsys, ["accuracy", "4", "1.2"])
        assert code == 1 and "0, 1" in err

    def test_unparsable_theta(self, capsys):
        code, out, err = run(capsys, ["accuracy", "5", "abc"])
        assert code == 1 and out == ""
        assert "cannot parse probability" in err

    def test_decimal_theta_past_float_binomial_range(self, capsys):
        code, out, _ = run(capsys, ["accuracy", "1100", "0.45"])
        _, rows = parse_csv(out)
        assert code == 0
        assert [r[2] for r in rows] == ["direct", "ttable", "recursive", "condensed", "expanded"]
        assert all(r[4] == "true" for r in rows)


class TestCurve:
    def test_headline_final_gap(self, capsys):
        code, out, _ = run(capsys, ["curve", "9/20", "71"])
        _, rows = parse_csv(out)
        assert code == 0
        final = rows[-1]
        assert round(float(final[1]), 4) == 0.5302
        assert round(float(final[3]), 4) == round(0.55 - 0.5302, 4)

    def test_one_step(self, capsys):
        code, out, _ = run(capsys, ["curve", "0.45", "1"])
        _, rows = parse_csv(out)
        assert code == 0
        assert rows == [["1", "0.505", "0.55", "0.045"]]

    def test_fair_theta_gaps_zero(self, capsys):
        code, out, _ = run(capsys, ["curve", "1/2", "10"])
        _, rows = parse_csv(out)
        assert code == 0
        assert all(r[3] == "0" for r in rows)

    def test_pi_non_decreasing(self, capsys):
        code, out, _ = run(capsys, ["curve", "2/5", "20"])
        _, rows = parse_csv(out)
        values = [float(r[1]) for r in rows]
        assert values == sorted(values)


class TestThreshold:
    def test_headline(self, capsys):
        code, out, _ = run(capsys, ["threshold", "9/20", "0.53"])
        _, rows = parse_csv(out)
        assert code == 0
        assert rows == [["9/20", "0.53", "71"]]

    def test_unreachable_still_exits_zero(self, capsys):
        code, out, _ = run(capsys, ["threshold", "9/20", "0.56"])
        _, rows = parse_csv(out)
        assert code == 0
        assert rows[0][2] == "unreachable"

    def test_half_target(self, capsys):
        code, out, _ = run(capsys, ["threshold", "0.8", "0.5"])
        _, rows = parse_csv(out)
        assert rows[0][2] == "0"

    def test_exact_target(self, capsys):
        code, out, _ = run(capsys, ["threshold", "9/20", "53/100"])
        _, rows = parse_csv(out)
        assert code == 0
        assert rows[0][2] == "71"


class TestPosterior:
    def test_uniform_beta(self, capsys):
        code, out, _ = run(capsys, ["posterior", "beta:1,1", "4", "3"])
        header, rows = parse_csv(out)
        assert code == 0
        assert header == ["prior", "k", "n", "mean", "phi", "probability"]
        row = rows[0]
        assert float(row[3]) == pytest.approx(2 / 3)
        assert row[4] == "1"
        assert float(row[5]) == pytest.approx(2 / 3)

    def test_symmetric_tie(self, capsys):
        code, out, _ = run(capsys, ["posterior", "beta:2,2", "2", "1"])
        _, rows = parse_csv(out)
        assert rows[0][3:] == ["0.5", "0.5", "0.5"]

    def test_discrete_prior_decimal_atoms_stay_exact(self, capsys):
        code, out, _ = run(capsys, ["posterior", "discrete:0.4=0.5,0.6=0.5", "1", "1"])
        _, rows = parse_csv(out)
        assert code == 0
        assert rows[0][3] == "0.52"  # 13/25 exactly

    def test_bad_prior_spec(self, capsys):
        code, _, err = run(capsys, ["posterior", "gamma:1,1", "2", "1"])
        assert code == 1 and "prior" in err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("beta:x,2", "cannot parse number"),
            ("beta:1", "beta prior needs two parameters"),
            ("discrete:1/2", "must look like v=w"),
        ],
    )
    def test_malformed_prior_spec(self, capsys, spec, message):
        code, out, err = run(capsys, ["posterior", spec, "4", "3"])
        assert code == 1 and out == ""
        assert message in err

    @pytest.mark.parametrize(
        "argv", [["discrete:1=1", "3", "3"], ["discrete:0=1/2,1=1/2", "4", "4"]]
    )
    def test_prior_atom_at_an_end(self, capsys, argv):
        code, out, _ = run(capsys, ["posterior", *argv])
        _, rows = parse_csv(out)
        assert code == 0
        assert rows[0][3:] == ["1", "1", "1"]

    def test_impossible_count(self, capsys):
        code, out, err = run(capsys, ["posterior", "discrete:1=1", "3", "2"])
        assert code == 1 and out == ""
        assert "zero probability" in err

    def test_bad_count(self, capsys):
        code, _, err = run(capsys, ["posterior", "beta:1,1", "2", "5"])
        assert code == 1


class TestSimulate:
    def test_degenerate_theta(self, capsys):
        code, out, _ = run(capsys, ["simulate", "1.0", "5", "1000", "--seed", "42"])
        header, rows = parse_csv(out)
        assert code == 0
        assert header == ["k", "hits", "trials", "estimate", "stderr", "analytic_pi", "z"]
        assert all(r[3] == "1" for r in rows[1:])

    def test_fair_theta_z_bounded(self, capsys):
        code, out, _ = run(capsys, ["simulate", "0.5", "10", "100000", "--seed", "1"])
        _, rows = parse_csv(out)
        assert code == 0
        assert all(abs(float(r[6])) <= 3 for r in rows)

    def test_prior_source_drops_analytic_columns(self, capsys):
        code, out, _ = run(capsys, ["simulate", "beta:2,2", "4", "500", "--seed", "9"])
        header, rows = parse_csv(out)
        assert code == 0
        assert header == ["k", "hits", "trials", "estimate", "stderr"]

    def test_analytic_column_past_float_binomial_range(self, capsys):
        code, out, _ = run(capsys, ["simulate", "0.45", "1100", "10", "--seed", "5"])
        _, rows = parse_csv(out)
        assert code == 0
        assert float(rows[-1][5]) == pytest.approx(0.5499556648, abs=1e-10)

    def test_zero_stderr_z_is_signed_infinity_in_csv(self, capsys):
        code, out, _ = run(capsys, ["simulate", "0.999", "3", "5", "--seed", "1"])
        _, rows = parse_csv(out)
        assert code == 0
        assert [r[6] for r in rows[1:]] == ["inf", "inf"]

    def test_analytic_column_is_the_rounded_curve(self, capsys):
        argv = ["simulate", "0.4731", "71", "100", "--seed", "1", "--format", "json"]
        code, out, _ = run(capsys, argv)
        curve = accuracy_curve(0.4731, 70)
        assert code == 0
        assert [row["analytic_pi"] for row in json.loads(out)] == [0.5] + [
            point.accuracy for point in curve
        ]

    def test_deterministic_given_seed(self, capsys):
        _, first, _ = run(capsys, ["simulate", "2/5", "6", "2000", "--seed", "3"])
        _, second, _ = run(capsys, ["simulate", "2/5", "6", "2000", "--seed", "3"])
        assert first == second


class TestOutputHandling:
    def test_out_file_and_roundtrip(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, _ = run(capsys, ["curve", "0.45", "30", "--out", str(target)])
        assert code == 0 and out == ""
        original = target.read_text()
        # re-parse and re-emit with the same dialect: byte-identical
        rows = list(csv.reader(io.StringIO(original)))
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        assert buffer.getvalue() == original
        assert original.endswith("\n")

    def test_unwritable_destination(self, capsys, tmp_path):
        code, _, err = run(capsys, ["coeffs", "2", "--out", str(tmp_path / "no" / "way.csv")])
        assert code == 1 and err != ""

    def test_digits_flag(self, capsys):
        _, ten, _ = run(capsys, ["accuracy", "70", "9/20", "--path", "condensed"])
        _, four, _ = run(capsys, ["accuracy", "70", "9/20", "--path", "condensed", "--digits", "4"])
        assert "0.5298359384" in ten
        assert "0.5298" in four and "0.5298359384" not in four

    def test_one_significant_digit(self, capsys):
        argv = ["accuracy", "70", "9/20", "--path", "condensed", "--digits", "1"]
        code, out, _ = run(capsys, argv)
        _, rows = parse_csv(out)
        assert code == 0
        assert rows[0][3] == "0.5"

    @pytest.mark.parametrize("digits", ["0", "-1"])
    def test_digits_below_one_rejected_at_parse_time(self, capsys, digits):
        with pytest.raises(SystemExit) as exc:
            cli.main(["accuracy", "70", "9/20", "--digits", digits])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == "" and "--digits" in captured.err

    def test_json_is_strict_when_z_is_infinite(self, capsys):
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        argv = ["simulate", "0.999", "3", "5", "--seed", "1", "--format", "json"]
        code, out, _ = run(capsys, argv)
        payload = json.loads(out, parse_constant=reject)
        assert code == 0
        assert [row["z"] for row in payload[1:]] == [None, None]

    def test_json_simulate(self, capsys):
        code, out, _ = run(capsys, ["simulate", "0.5", "3", "100", "--seed", "2", "--format", "json"])
        payload = json.loads(out)
        assert code == 0
        assert {"k", "hits", "trials", "estimate", "stderr", "analytic_pi", "z"} == set(payload[0])



class TestEmitBytes:
    """The exact bytes ``emit`` writes, so that a faster writer can be held
    to them: non-finite floats, bools, big ints, Fractions, strings that
    need quoting or are not ASCII, and an empty table."""

    HEADER = ["name", "value", "flag"]
    ROWS = [
        ["nan", math.nan, True],
        ["inf", math.inf, False],
        ["-inf", -math.inf, True],
        ["big", 2**70, False],
        ["third", Fraction(1, 3), True],
        ["a,b", Fraction(-7, 2), False],
        ['say "hi"', 2.0, True],
        ["café θ", 1e-300, False],
    ]
    CSV = (
        "name,value,flag\n"
        "nan,nan,true\n"
        "inf,inf,false\n"
        "-inf,-inf,true\n"
        "big,1180591620717411303424,false\n"
        "third,0.3333,true\n"
        '"a,b",-3.5,false\n'
        '"say ""hi""",2,true\n'
        "café θ,1e-300,false\n"
    )
    JSON_ROWS = [
        ('"nan"', "null", "true"),
        ('"inf"', "null", "false"),
        ('"-inf"', "null", "true"),
        ('"big"', "1180591620717411303424", "false"),
        ('"third"', "0.3333333333333333", "true"),
        ('"a,b"', "-3.5", "false"),
        ('"say \\"hi\\""', "2.0", "true"),
        ('"caf\\u00e9 \\u03b8"', "1e-300", "false"),
    ]
    JSON = (
        "[\n"
        + ",\n".join(
            f'  {{\n    "name": {name},\n    "value": {value},\n    "flag": {flag}\n  }}'
            for name, value, flag in JSON_ROWS
        )
        + "\n]\n"
    )

    def written(self, tmp_path, fmt, rows):
        target = tmp_path / f"table.{fmt}"
        cli.emit(fmt, str(target), self.HEADER, rows, 4)
        return target.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bytes(self, capsys, tmp_path, fmt):
        expected = self.CSV if fmt == "csv" else self.JSON
        assert self.written(tmp_path, fmt, self.ROWS) == expected.encode("utf-8")
        cli.emit(fmt, None, self.HEADER, self.ROWS, 4)
        assert capsys.readouterr().out == expected

    def test_empty_table(self, tmp_path):
        assert self.written(tmp_path, "csv", []) == b"name,value,flag\n"
        assert self.written(tmp_path, "json", []) == b"[]\n"


class TestParserReuse:
    SEQUENCE = (
        ["accuracy"],
        ["accuracy", "5", "9/20", "--digits", "0"],
        ["simulate", "0.45", "5", "100", "--seed", "5"],
        ["simulate", "0.45", "5", "100"],
    )

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_reused_parser_matches_a_fresh_one(self, capsys, monkeypatch):
        reused = [self.outcome(capsys, argv) for argv in self.SEQUENCE]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [self.outcome(capsys, argv) for argv in self.SEQUENCE]
        assert reused == fresh
        assert [code for code, _, _ in reused] == [("exit", 2), ("exit", 2), 0, 0]
        # no option value leaks from one call into the next: the default seed is 0
        seed_zero = self.outcome(capsys, ["simulate", "0.45", "5", "100", "--seed", "0"])
        assert reused[3] == seed_zero != reused[2]


def test_only_simulate_loads_numpy():
    script = """
import sys
before = set(sys.modules)
from freqpred import cli
for argv in (["coeffs", "3"], ["accuracy", "9", "9/20"], ["curve", "0.45", "9"],
             ["threshold", "9/20", "0.53"], ["posterior", "beta:1,1", "4", "3"]):
    assert cli.main(argv) == 0, argv
assert "numpy" not in sys.modules, "numpy loaded before simulate"
heavy = {"dataclasses", "inspect"} & (set(sys.modules) - before)
assert not heavy, f"{sorted(heavy)} loaded before simulate"
assert cli.main(["simulate", "0.45", "5", "100", "--seed", "1"]) == 0
assert "numpy" in sys.modules
assert "scipy" not in set(sys.modules) - before, "scipy loaded for a fixed theta"
assert cli.main(["simulate", "beta:2,3", "5", "100", "--seed", "1"]) == 0
assert "scipy" not in set(sys.modules) - before, "scipy loaded for a beta prior"
"""
    src = Path(cli.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=src, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
