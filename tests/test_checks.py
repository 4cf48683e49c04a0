"""``all_checks`` runs the ZF group in one forked child: the same records in
the same order as the six groups run in this process, the child's errors
raised in the caller, and no child left behind on any path.  The counting
checks compare the library's prelogs with the paper's message counts, so a
drifted prelog fails them."""

import os
import signal
from dataclasses import replace
from fractions import Fraction

import pytest

from hexmg import checks, clustering, densities, precoding, regions
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


def test_drifted_prelogs_fail_the_counting_checks(monkeypatch, capsys):
    """One more tx message per cluster in s4's prelog fails both records that
    count messages, at every t, and verify-all with them."""
    real = regions.required_prelogs

    def drifted(scheme, t, m):
        need = real(scheme, t, m)
        return replace(need, mu_tx=need.mu_tx + Fraction(1, 36 * t * t)) if scheme == "s4" else need

    monkeypatch.setattr(regions, "required_prelogs", drifted)
    failed = [name for name, ok, _ in checks.counting_checks() if not ok]
    assert failed == [
        f"counting: {check} t={t}"
        for t in (1, 2, 3, 4)
        for check in ("conferencing messages", "prelog formulas and s4/s5 duality")
    ]
    assert main(["verify-all", "--radius", "12", "--zf-trials", "1"]) == 1
    report = capsys.readouterr().out
    assert report.count(": FAIL") == 8
    assert "CHECK counting: conferencing messages t=1: FAIL (m=1: tx 19, rx 6; m=3: tx 55, rx 18)\n" in report


def test_drifted_cap_weight_fails_the_structural_check(monkeypatch, capsys):
    """A conferencing weight of 3/2 in place of 4/3 in the two-colour cap rule
    moves the outer bound off the paper's caps: the structural sweep and the
    starved-prelog fig6 vertices fail, and verify-all with them."""
    real = densities.cap_rule

    def drifted(kind, density, params):
        cap = real(kind, density, params)
        if kind == densities.TWO:
            weight = Fraction(3, 2) - Fraction(4, 3)
            cap += weight * (1 - density[densities.RED]) * (params.mu_rx + 2 * params.mu_tx)
        return cap

    monkeypatch.setattr(densities, "cap_rule", drifted)
    failed = [name for name, ok, _ in checks.structural_checks() if not ok]
    assert failed == ["structural: outer bound at the paper's caps, inner bound inside it, over sweep"]
    assert main(["verify-all", "--radius", "12", "--zf-trials", "1"]) == 1
    report = capsys.readouterr().out
    failed = [line[len("CHECK "):line.index(": FAIL")] for line in report.splitlines() if ": FAIL" in line]
    assert failed == [
        "region: outer bound, small prelogs",
        "structural: outer bound at the paper's caps, inner bound inside it, over sweep",
    ]


def test_role_censuses_build_no_cluster_plan(monkeypatch):
    """The role censuses read the role rule off the torus: the fraction
    group builds no cluster plan, and its records stay as they were."""
    want = list(checks.fraction_checks(RADIUS))

    def boom(*args, **kwargs):
        raise AssertionError("fraction_checks built a cluster plan")

    monkeypatch.setattr(clustering, "clusters", boom)
    assert list(checks.fraction_checks(RADIUS)) == want
    assert all(check.ok for check in want)


def test_counting_checks_build_no_cluster_plan(monkeypatch):
    """The link counts read the origin master's cells off the torus on one
    lattice: the counting group builds no cluster plan, and all twelve of
    its records pass."""
    def boom(*args, **kwargs):
        raise AssertionError("counting_checks built a cluster plan")

    monkeypatch.setattr(clustering, "clusters", boom)
    got = list(checks.counting_checks())
    assert len(got) == 12
    assert all(check.ok for check in got)
