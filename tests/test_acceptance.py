"""Acceptance suite: every exit criterion at its stated tolerance.

Criteria 1-6 require every record of their ``hexmg.checks`` group, which
states the reference values, to pass within a time budget.  Run with
``pytest -s tests/test_acceptance.py`` to see one PASS line per criterion.
"""

import time

from hexmg import checks
from hexmg.cli import main


def _passline(n: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {n} ({name}): PASS{suffix}")


def _accept(n: int, name: str, budget_s: float, group) -> None:
    start = time.monotonic()
    records = list(group)
    elapsed = time.monotonic() - start
    assert records
    assert [r for r in records if not r.ok] == []
    assert elapsed < budget_s
    _passline(n, name, f"{len(records)} checks, {elapsed:.2f}s")


def test_criterion_1_reference_curve_reproduction():
    _accept(1, "reference curves, 4-decimal match", 1.0, checks.fig6_checks())


def test_criterion_2_counting_formulas_exact():
    _accept(2, "exact counting formulas t=1..4", 10.0, checks.counting_checks())


def test_criterion_3_fraction_limits():
    _accept(3, "fraction limits, shrinking with radius", 30.0, checks.fraction_checks(30))


def test_criterion_4_zero_forcing_certification():
    _accept(4, "zero-forcing certification 4x100 trials", 60.0, checks.zf_checks(100, 1234))


def test_criterion_5_converse_schedules():
    _accept(5, "schedules validate; deletions and genie removal break", 5.0, checks.schedule_checks())


def test_criterion_6_structural_bound_checks():
    _accept(6, "inner within outer; monotone; sum preservation", 5.0, checks.structural_checks())


def test_criterion_7_verify_all_deterministic(tmp_path, capsys):
    start = time.monotonic()
    reports = []
    for name in ("one", "two"):
        out = tmp_path / name
        code = main(
            ["verify-all", "--radius", "30", "--seed", "42", "--out", str(out)]
        )
        assert code == 0
        reports.append((out / "verify_report.txt").read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]
    elapsed = time.monotonic() - start
    _passline(7, "verify-all byte-identical across runs", f"{elapsed:.1f}s")
