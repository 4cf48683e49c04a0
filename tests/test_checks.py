"""``all_checks`` runs the ZF group in one forked child: the same records in
the same order as the six groups run in this process, the child's errors
raised in the caller, and no child left behind on any path."""

import os
import signal

import pytest

from hexmg import checks, precoding
from hexmg.cli import main

RADIUS, TRIALS = 12, 3


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked while the test runs.  A wait that
    still blocks after 60 s fails the test instead of hanging it (the
    timer is not inherited across ``fork``)."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    def expired(signum, frame):
        raise TimeoutError("all_checks is still waiting for its child")

    monkeypatch.setattr(os, "fork", recording)
    handler = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, 60, 1)  # repeats, so a wait in a finally fails too
    try:
        yield pids
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)


def assert_reaped(pids):
    assert len(pids) == 1  # one child per call
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


def in_child_only(parent):
    """Guard for a patched group that must run in the forked child."""
    if os.getpid() == parent:
        raise AssertionError("the zf group ran in the calling process")


@pytest.mark.parametrize("seed", [0, 7])
def test_records_match_the_groups_run_in_process(forks, seed):
    got = list(checks.all_checks(RADIUS, TRIALS, seed))
    assert_reaped(forks)
    want = [
        *checks.fig6_checks(),
        *checks.counting_checks(),
        *checks.fraction_checks(RADIUS),
        *checks.zf_checks(TRIALS, seed),
        *checks.schedule_checks(),
        *checks.structural_checks(),
    ]
    assert len(got) == 33
    assert got == want


def test_child_exception_reaches_the_caller(forks, monkeypatch, capsys):
    parent = os.getpid()

    def raising(trials, seed):
        in_child_only(parent)
        raise precoding.RankDeficientError("injected")

    monkeypatch.setattr(checks, "zf_checks", raising)
    with pytest.raises(precoding.RankDeficientError, match="^injected$"):
        list(checks.all_checks(RADIUS, TRIALS, 0))
    assert_reaped(forks)

    forks.clear()
    code = main(["verify-all", "--radius", str(RADIUS), "--zf-trials", str(TRIALS)])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", "hexmg: injected\n")
    assert_reaped(forks)


@pytest.mark.parametrize("group", ["fig6_checks", "structural_checks"])
def test_parent_exception_still_reaps_the_child(forks, monkeypatch, group):
    def raising(*args):
        raise ValueError("parent side")

    monkeypatch.setattr(checks, group, raising)
    with pytest.raises(ValueError, match="^parent side$"):
        list(checks.all_checks(RADIUS, TRIALS, 0))
    assert_reaped(forks)


def test_dead_child_is_a_runtime_error(forks, monkeypatch):
    parent = os.getpid()

    def dying(trials, seed):
        in_child_only(parent)
        os._exit(3)

    monkeypatch.setattr(checks, "zf_checks", dying)
    with pytest.raises(RuntimeError, match="exited with status 3 and sent no result"):
        list(checks.all_checks(RADIUS, TRIALS, 0))
    assert_reaped(forks)


def test_failing_child_record_fails_the_report(forks, monkeypatch, capsys):
    real = checks.zf_checks

    def one_failing(trials, seed):
        first, *rest = real(trials, seed)
        yield first._replace(ok=False)
        yield from rest

    monkeypatch.setattr(checks, "zf_checks", one_failing)
    code = main(["verify-all", "--radius", str(RADIUS), "--zf-trials", "2"])
    report = capsys.readouterr().out
    assert_reaped(forks)
    assert code == 1
    assert "CHECK zf: t=1 m=1 scheme=s4 trials=2: FAIL (2/2 solvable, worst residual " in report
    assert report.count(": FAIL") == 1
    assert report.endswith("verify-all: 32/33 checks passed\n")


def test_abandoned_generator_starts_no_child(forks):
    gen = checks.all_checks(RADIUS, TRIALS, 0)
    assert next(gen).name.startswith("region: ")
    assert_reaped(forks)
    gen.close()
    unstarted = checks.all_checks(RADIUS, TRIALS, 0)
    unstarted.close()
    assert len(forks) == 1
