"""Every CLI output pinned by digest: stdout, stderr and exit status of a
fixed argv deck, run in process through ``cli.main``.

The deck covers every subcommand, CSV and JSON, ``--digits 17``, exact and
float theta, both prior kinds and the error exits that ``main`` reports
itself (exit 1).  argparse's own usage errors (exit 2) are left out: their
text is argparse's and changes between Python versions.

A change that is meant to move an output re-pins only the digests it
moves, and names each one in CHANGES.md.  To re-pin, run

    PYTHONPATH=src python tests/test_cli_digests.py

which rewrites ``tests/cli_digests.json`` from the current code; the git
diff of that file then shows which argv changed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from freqpred import cli

DIGESTS = Path(__file__).with_name("cli_digests.json")

DECK = [
    # coeffs
    ["coeffs", "0"],
    ["coeffs", "5"],
    ["coeffs", "12", "--format", "json"],
    ["coeffs", "6", "--digits", "17"],
    ["coeffs", "45", "--format", "json"],
    ["coeffs", "42", "--digits", "15"],
    # accuracy: k = 0 and 1 (three and five routes), exact and float theta
    ["accuracy", "0", "9/20"],
    ["accuracy", "0", "0.45"],
    ["accuracy", "1", "9/20"],
    ["accuracy", "1", "0.45"],
    ["accuracy", "71", "9/20"],
    ["accuracy", "71", "0.45"],
    ["accuracy", "71", "9/20", "--format", "json"],
    ["accuracy", "70", "0.4731", "--digits", "17"],
    ["accuracy", "40", "1/2"],
    ["accuracy", "40", "0"],
    ["accuracy", "41", "1"],
    ["accuracy", "41", "0.999", "--path", "condensed"],
    ["accuracy", "30", "2/7", "--path", "expanded", "--format", "json"],
    ["accuracy", "30", "2/7", "--path", "ttable", "--digits", "17"],
    ["accuracy", "5", "1.5"],
    ["accuracy", "5", "x/3"],
    # curve
    ["curve", "0.45", "1"],
    ["curve", "9/20", "30"],
    ["curve", "0.45", "60", "--format", "json"],
    ["curve", "0.4731", "40", "--digits", "17"],
    ["curve", "1/2", "10"],
    ["curve", "0.499", "2000"],
    ["curve", "0.001", "400", "--digits", "17"],
    ["curve", "0.00390625", "12", "--digits", "17"],
    ["curve", "0.45", "0"],
    # exact curves the size of the benchmark's; an odd k_max ends on a
    # one-row plateau
    ["curve", "84/157", "697"],
    ["curve", "67/195", "319", "--format", "json"],
    ["curve", "595/941", "664", "--digits", "15"],
    # threshold
    ["threshold", "9/20", "0.53"],
    ["threshold", "9/20", "53/100"],
    ["threshold", "0.45", "0.55"],
    ["threshold", "2/5", "3/5"],
    ["threshold", "49/100", "0.509", "--format", "json"],
    ["threshold", "0.3", "0.65", "--digits", "17"],
    ["threshold", "0.499", "0.5009"],
    ["threshold", "0.49", "0.509", "--format", "json"],
    ["threshold", "0.45", "-0.1"],
    # posterior: both prior kinds, the conjugate closed form, ruled-out counts
    ["posterior", "beta:1,1", "4", "3"],
    ["posterior", "beta:1,1", "4", "3", "--format", "json"],
    ["posterior", "beta:7/2,1/2", "60", "30"],
    ["posterior", "beta:0.5,2.5", "10", "4", "--digits", "17"],
    ["posterior", "discrete:2/5=1/2,3/5=1/2", "20", "11"],
    ["posterior", "discrete:1=1", "3", "3"],
    ["posterior", "discrete:0.1=0.2,0.9=0.8", "6", "3", "--format", "json"],
    ["posterior", "discrete:1=1", "3", "2"],
    ["posterior", "beta:1,1", "2", "5"],
    ["posterior", "beta:1", "4", "3"],
    ["posterior", "beta:x,2", "4", "3"],
    ["posterior", "beta:0,2", "4", "3"],
    ["posterior", "gamma:1,1", "4", "3"],
    ["posterior", "discrete:0.5", "4", "3"],
    ["posterior", "discrete:1/2=1/3", "4", "3"],
    # simulate: fixed theta
    ["simulate", "0.4731", "20", "3000", "--seed", "1"],
    ["simulate", "9/20", "20", "3000", "--seed", "2", "--format", "json"],
    ["simulate", "0.45", "71", "2000", "--seed", "7", "--digits", "17"],
    ["simulate", "1.0", "5", "100", "--seed", "42"],
    ["simulate", "0", "6", "100"],
    ["simulate", "0.999", "3", "5", "--seed", "1"],
    ["simulate", "0.999", "3", "5", "--seed", "1", "--format", "json"],
    ["simulate", "0.4731", "300", "400", "--seed", "1"],
    # simulate: beta priors, including two extreme shapes
    ["simulate", "beta:2,3", "71", "1000", "--seed", "1"],
    ["simulate", "beta:1/2,7/2", "30", "5000", "--seed", "3"],
    ["simulate", "beta:2,2", "20", "2000", "--seed", "4", "--format", "json"],
    ["simulate", "beta:5,7/2", "40", "3000", "--seed", "5", "--digits", "17"],
    ["simulate", "beta:0.3,0.7", "12", "1000", "--seed", "6"],
    ["simulate", "beta:1/1000000000,5", "71", "1000", "--seed", "1"],
    ["simulate", "beta:1000000000,1000000000", "20", "1000", "--seed", "1"],
    # simulate: discrete priors, atoms at 0 and 1 included
    ["simulate", "discrete:1/5=1/4,1/2=1/2,4/5=1/4", "30", "3000", "--seed", "6"],
    ["simulate", "discrete:0=1/4,3/10=1/4,1=1/2", "20", "1000", "--format", "json"],
    ["simulate", "discrete:0.1=0.5,0.9=0.5", "10", "500", "--seed", "8", "--digits", "17"],
    # simulate: refused sources and sizes
    ["simulate", "1.5", "5", "100"],
    ["simulate", "gamma:1,1", "5", "100"],
    ["simulate", "0.5", "0", "100"],
    ["simulate", "0.5", "5", "0"],
    ["simulate", "0.5", "5", "10", "--seed", "-1"],
    ["simulate", "discrete:1/2=1/2", "5", "10"],
]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outcome(argv: list[str]) -> dict:
    """The digests and exit status of one in-process ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {
        "argv": argv,
        "exit": code,
        "stdout": sha256(out.getvalue()),
        "stderr": sha256(err.getvalue()),
    }


@functools.cache
def pinned() -> list[dict]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_deck_is_pinned():
    assert [entry["argv"] for entry in pinned()] == DECK


@pytest.mark.parametrize("index", range(len(DECK)), ids=[" ".join(argv) for argv in DECK])
def test_output_digest(index):
    assert outcome(DECK[index]) == pinned()[index]


if __name__ == "__main__":
    entries = [outcome(argv) for argv in DECK]
    DIGESTS.write_text(
        "[\n" + ",\n".join("  " + json.dumps(entry) for entry in entries) + "\n]\n",
        encoding="utf-8",
    )
    print(f"wrote {len(entries)} digests to {DIGESTS}", file=sys.stderr)
