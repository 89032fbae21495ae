"""The measuring loop: per-cycle checks in a child, and set-up probes."""

import os
import time

import hostspeed
import run
from freqpred import cli

SRC = os.path.join(os.path.dirname(run.HERE), "src")


class FakeCli:
    """Prints the first argument back; exits 1 on 'bad'."""

    @staticmethod
    def main(argv):
        print(argv[0])
        return 1 if argv[0] == "bad" else 0


def test_cycles_are_checked_one_by_one_and_only_failures_kept():
    batches, marks = [], []

    def check(answers):
        batches.append([q.argv for q in answers])
        return [(q.argv, "wrong") for q in answers if q.code != 0]

    cycles = iter([[["a"], ["bad"]], [["b"], ["c"]], [["d"]]])
    tally = run.run_cycles(FakeCli, check, cycles, 60.0, between=marks.append)
    assert batches == [[["a"], ["bad"]], [["b"], ["c"]], [["d"]]]
    assert tally.bad == [(["bad"], "wrong")]
    assert len(tally.latencies) == 5 and len(tally.cycles) == 3
    assert marks == sorted(marks) and len(marks) == 3


def test_child_checker_accepts_right_answers_and_flags_wrong_ones():
    right = run.run_query(cli, ["coeffs", "3"])
    wrong = run.Query(right.argv, 0, right.output.replace("-1", "-2", 1), 0.0)
    crashed = run.Query(["accuracy", "3", "9/20"], "ValueError()", "", 0.0)
    checker = run.Checker(SRC)
    try:
        assert checker([right]) == []
        bad = checker([right, wrong, crashed])
    finally:
        checker.close()
    assert [argv for argv, _ in bad] == [wrong.argv, crashed.argv]
    assert checker.proc.returncode == 0


def test_setup_probes_spread_over_the_run_and_fill_up_at_the_end(monkeypatch):
    calls = []
    monkeypatch.setattr(run.SetupProbes, "probe", lambda self: calls.append(1) or (0.1, 2.0))
    probes = run.SetupProbes(SRC, ("coeffs", "3"), 9.0)
    assert len(calls) == 1  # the priming probe is not counted
    for measured in (0.5, 0.6, 3.5, 9.5):
        probes(measured)
    assert len(probes.times) == 3  # one per boundary, when due
    assert probes.median() == 0.05 and len(probes.times) == run.SETUP_PROBES
    assert probes.median(scaled=False) == 0.1


def test_probe_reports_set_up_and_reference_times():
    probes = run.SetupProbes(SRC, ("coeffs", "3"), 9.0)
    setup, slowdown = probes.probe()
    assert setup > 0 and slowdown > 0


def test_host_samples_are_weighted_by_the_time_they_stand_for(monkeypatch):
    taken = iter([0.004, 0.008, 0.006])
    monkeypatch.setattr(hostspeed, "time_reference", lambda: next(taken))
    host = hostspeed.HostSpeed()
    assert host.after(0.1) == 0.0 and not host.samples  # not yet due
    assert host.after(0.2) == 0.004
    assert host.after(0.9) == 0.008
    host.after(0.1)  # gathered, not yet due: slowdown samples it
    expected = (0.004 * 0.3 + 0.008 * 0.9 + 0.006 * 0.1) / 1.3 / hostspeed.REFERENCE_S
    assert abs(host.slowdown() - expected) < 1e-12


def test_host_sampling_is_not_measured():
    class SlowHost:
        @staticmethod
        def after(_):
            time.sleep(0.05)
            return 0.05

    cycles = iter([[["a"], ["b"]]])
    tally = run.run_cycles(FakeCli, lambda answers: [], cycles, 0.0, host=SlowHost)
    assert tally.measured_s < 0.05
