"""Every demo script runs to completion in place, from a temporary working
directory, and leaves the source tree as it found it."""

import runpy
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = set(DEMO_DIR.rglob("*"))
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    assert set(DEMO_DIR.rglob("*")) == before
    assert str(DEMO_DIR) not in out and str(tmp_path) not in out
    if demo.stem == "03_mg_regions":
        assert out.endswith("\nwrote mg_regions.svg\n")
        assert (tmp_path / "mg_regions.svg").read_text().startswith("<svg ")
