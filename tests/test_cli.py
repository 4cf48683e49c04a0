import argparse
import hashlib
import importlib
import json
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import List, Tuple

import numpy as np
import pytest

from hexmg import checks, clustering, lattice, partitions, precoding, regions, schedules
from hexmg.checks import decimal_str
from hexmg.cli import MAX_SAMPLES, _build_parser, main
from hexmg.schemes import MAX_RADIUS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decimal_str_round_half_even():
    assert decimal_str(Fraction(2523, 842), 4) == "2.9964"
    assert decimal_str(Fraction(87, 56), 4) == "1.5536"
    assert decimal_str(Fraction(1, 2), 4) == "0.5000"
    assert decimal_str(Fraction(53, 30)) == "1.766667"
    assert decimal_str(Fraction(10 ** 100, 3), 4) == "3" * 100 + ".3333"  # past 80 digits
    assert decimal_str(Fraction(5, 10 ** 7)) == "0.000000"  # a tie rounds to even
    assert decimal_str(Fraction(-1, 10 ** 9)) == "-0.000000"


def test_region_csv_matches_reference_curves(capsys, tmp_path):
    out = tmp_path / "region.csv"
    code, _, _ = run(
        capsys,
        "region", "--m", "3", "--mu-tx", "0.1", "--mu-rx", "0.2", "--d", "20",
        "--bound", "both", "--format", "csv", "--emit", str(out),
    )
    assert code == 0
    text = out.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "bound,sf,ss"
    inner = [l for l in lines if l.startswith("inner")]
    outer = [l for l in lines if l.startswith("outer")]
    assert "inner,0.000000,1.553571" in inner
    assert "inner,1.479221,0.072727" in inner
    assert "inner,1.500000,0.000000" in inner
    assert "outer,0.000000,1.766667" in outer
    assert "outer,1.500000,0.266667" in outer


def test_region_json_exact_rationals(capsys, tmp_path):
    out = tmp_path / "region.json"
    code, _, _ = run(
        capsys,
        "region", "--m", "3", "--mu-tx", "1/10", "--mu-rx", "1/5", "--d", "20",
        "--bound", "inner", "--format", "json", "--emit", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    vertices = {tuple(map(tuple, (v["sf"], v["ss"]))) for v in payload["bounds"]["inner"]}
    assert ((1139, 770), (4, 55)) in vertices
    assert ((0, 1), (87, 56)) in vertices


def test_region_svg_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for path in (a, b):
        code, _, _ = run(
            capsys,
            "region", "--m", "3", "--d", "20", "--mu-tx", "10", "--mu-rx", "10",
            "--format", "svg", "--samples", "40", "--emit", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert "S^(F)" in text and "S^(S)" in text
    assert "<polyline" in text


def test_region_usage_error(capsys):
    code, _, err = run(capsys, "region", "--m", "0", "--d", "20")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["region", "--m", "3", "--d", "20", "--t", "11"],
        ["region", "--m", "3", "--d", "20", "--samples", "-5"],
        ["region", "--m", "3", "--d", "20", "--samples", "1"],
        # --t-sweep is gone: --t all sweeps, so t and a sweep cannot both be asked
        ["region", "--m", "3", "--d", "20", "--t", "2", "--t-sweep", "--format", "json"],
        ["region", "--m", "3", "--d", "20", "--t", "0"],
        ["region", "--m", "3", "--d", "20", "--t", "sweep"],
        ["zf", "--t", "1", "--m", "1", "--trials", "1", "--tol", "nan"],
        ["zf", "--t", "1", "--m", "1", "--trials", "1", "--tol", "-1"],
        ["zf", "--t", "1", "--m", "1", "--trials", "1", "--tol", "inf"],
    ],
    ids=["t-beyond-slow-range", "samples-negative", "samples-one", "t-with-t-sweep",
         "t-zero", "t-sweep-word", "tol-nan", "tol-negative", "tol-inf"],
)
def test_out_of_range_input_is_a_usage_error(capsys, argv):
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert err.strip()


def test_region_samples_past_the_cap_is_a_usage_error(capsys, monkeypatch):
    """More than ``MAX_SAMPLES`` ``--samples`` exits 2 with the cap named,
    before any region is built; the cap itself is accepted."""
    argv = ["region", "--m", "3", "--d", "20", "--samples"]
    with monkeypatch.context() as patch:
        for name in ("inner_bound", "outer_bound"):
            patch.setattr(regions, name, lambda *a: pytest.fail("a region was built"))
        code, stdout, err = run(capsys, *argv, str(MAX_SAMPLES + 1))
    assert (code, stdout) == (2, "")
    assert err.endswith(f"argument --samples: {MAX_SAMPLES + 1} samples exceed the cap of "
                        f"{MAX_SAMPLES}\n")
    code, stdout, err = run(capsys, *argv, str(MAX_SAMPLES))
    assert (code, err) == (0, "")
    assert stdout.count("\n") == 1 + 2 * MAX_SAMPLES  # the header, then each bound's samples


def test_region_sweep_past_the_cap_is_a_usage_error(capsys, monkeypatch):
    """A ``--t all`` past ``regions.MAX_SWEEP_POINTS`` scheme points exits
    2 with the cap named and nothing on stdout, before any gain is
    computed."""
    monkeypatch.setattr(regions, "_gains", lambda *a: pytest.fail("a gain was computed"))
    code, stdout, err = run(capsys, "region", "--m", "1", "--d", "200000", "--t", "all")
    assert (code, stdout) == (2, "")
    assert err == ("hexmg: a sweep at d=200000 visits 199998 scheme points, past the cap of "
                   f"{regions.MAX_SWEEP_POINTS}\n")


#: 10^400: gains of this size are past the float range (about 1.8e308)
HUGE = 10 ** 400


@pytest.mark.parametrize("extra", [["--samples", "5"], ["--format", "svg"]], ids=["csv-samples", "svg"])
def test_region_gains_past_float_range_are_a_usage_error(capsys, extra):
    """Spreading samples along the boundary and drawing the SVG take floats:
    gains past their range end in one ``hexmg:`` line naming the cause."""
    code, stdout, err = run(capsys, "region", "--m", str(HUGE), "--d", "20", *extra)
    assert (code, stdout) == (2, "")
    assert err.startswith("hexmg: gains too large for floating point (")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_region_json_and_csv_stay_exact_past_float_range(capsys):
    """Scaling m and both prelogs by 10^400 scales every vertex by 10^400:
    the JSON vertices and the CSV rows at the default ``--samples`` are
    exact at that size."""
    small = ["region", "--m", "3", "--mu-tx", "1/10", "--mu-rx", "1/5", "--d", "20"]
    big = ["region", "--m", str(3 * HUGE), "--mu-tx", str(HUGE // 10), "--mu-rx", str(HUGE // 5), "--d", "20"]
    bounds = []
    for argv in (small, big):
        code, stdout, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        bounds.append({
            name: [(Fraction(*v["sf"]), Fraction(*v["ss"])) for v in vertices]
            for name, vertices in json.loads(stdout)["bounds"].items()
        })
    assert bounds[1] == {
        name: [(sf * HUGE, ss * HUGE) for sf, ss in vertices] for name, vertices in bounds[0].items()
    }
    code, stdout, err = run(capsys, *big)
    assert (code, err) == (0, "")
    params = regions.SystemParams(m=3 * HUGE, mu_tx=HUGE // 10, mu_rx=HUGE // 5, d=20)
    chains = (("inner", regions.inner_bound(params, [4])), ("outer", regions.outer_bound(params)))
    rows = stdout.splitlines()
    assert rows == ["bound,sf,ss"] + [
        f"{name},{decimal_str(p.sf)},{decimal_str(p.ss)}"
        for name, region in chains for p in regions.upper_right_chain(region)
    ]
    assert rows[1].startswith("inner,0.000000,155357142857142857142857")  # 87/56 · 10^400


def test_region_accepts_largest_admissible_t(capsys):
    code, stdout, _ = run(capsys, "region", "--m", "3", "--d", "20", "--t", "10")
    assert code == 0
    assert stdout.startswith("bound,sf,ss\n")


@pytest.mark.parametrize("d", [20, 10**18], ids=["d20", "d1e18"])
def test_region_t_beyond_every_range_names_the_largest_t(capsys, d):
    code, stdout, err = run(capsys, "region", "--m", "3", "--d", str(d), "--t", str(d // 2 + 1))
    assert (code, stdout) == (2, "")
    assert err == f"hexmg: --t {d // 2 + 1} enters no scheme for --d {d}; t must be at most {d // 2}\n"


def test_region_default_t_at_huge_delay(capsys):
    """The default single t, ⌊(d−2)/4⌋, is evaluated without walking the
    other t: at d = 10**12 the command returns at once."""
    code, stdout, err = run(capsys, "region", "--m", "1", "--d", str(10**12), "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(stdout)
    assert payload["t_values"] == [(10**12 - 2) // 4]
    # zero prelogs: every scheme runs at its baseline
    assert payload["bounds"]["inner"] == [
        {"sf": [0, 1], "ss": [0, 1]}, {"sf": [1, 2], "ss": [0, 1]}, {"sf": [0, 1], "ss": [1, 2]}
    ]


def test_verify_all_reports_a_failing_check(capsys, tmp_path, monkeypatch):
    real = checks.schedule_checks

    def one_failing():
        first, *rest = real()
        yield first._replace(ok=False)
        yield from rest

    monkeypatch.setattr(checks, "schedule_checks", one_failing)
    code, stdout, _ = run(
        capsys, "verify-all", "--radius", "24", "--zf-trials", "2", "--out", str(tmp_path)
    )
    assert code == 1
    report = (tmp_path / "verify_report.txt").read_text()
    assert report == stdout
    assert "CHECK schedules: all splits validate d=3: FAIL (4 splits x 2 algorithms)\n" in report
    assert report.count(": FAIL") == 1
    assert report.endswith("verify-all: 32/33 checks passed\n")


def test_verify_all_refuses_a_radius_below_12_before_any_check(capsys, monkeypatch):
    code, stdout, err = run(capsys, "verify-all", "--radius", "11", "--zf-trials", "1")
    assert (code, stdout) == (2, "")
    assert err == "hexmg: verify-all needs --radius >= 12 (its t=4 checks need radius >= 3t), got 11\n"
    radii = []
    monkeypatch.setattr(checks, "all_checks", lambda radius, *_: radii.append(radius) or iter(()))
    assert run(capsys, "verify-all", "--radius", "11")[0] == 2
    assert run(capsys, "verify-all", "--radius", "12")[0] == 0
    assert radii == [12]


def test_verify_all_refuses_zf_trials_past_the_cap_before_any_check(capsys, monkeypatch):
    """More than ``precoding.MAX_TRIALS`` ``--zf-trials`` exits 2 with the
    cap named before any check runs, as ``hexmg zf --trials`` does."""
    counts = []
    monkeypatch.setattr(checks, "all_checks", lambda radius, trials, seed: counts.append(trials) or iter(()))
    trials = precoding.MAX_TRIALS + 1
    code, stdout, err = run(capsys, "verify-all", "--radius", "12", "--zf-trials", str(trials))
    assert (code, stdout) == (2, "")
    assert err == f"hexmg: {trials} trials exceed the cap of {precoding.MAX_TRIALS}\n"
    assert run(capsys, "verify-all", "--radius", "12", "--zf-trials", str(trials - 1))[0] == 0
    assert counts == [precoding.MAX_TRIALS]


@pytest.mark.parametrize(
    "argv",
    [["verify-all", "--radius", "12"],["zf", "--t", "1", "--m", "1", "--trials", "1"]],
    ids=["verify-all", "zf"],
)
def test_negative_seed_is_refused_before_any_check(capsys, monkeypatch, tmp_path, argv):
    """The parser refuses a negative ``--seed`` by name, given as a flag or in
    a config file, before any check or trial runs."""
    def boom(*args, **kwargs):
        raise AssertionError("no check may run on a negative seed")

    monkeypatch.setattr(checks, "all_checks", boom)
    monkeypatch.setattr(precoding, "run_trials", boom)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = -1\n")
    for extra in (["--seed", "-1"], ["--config", str(cfg)]):
        code, stdout, err = run(capsys, *argv, *extra)
        assert (code, stdout) == (2, "")
        assert err.endswith(f"hexmg {argv[0]}: error: argument --seed: must be a non-negative integer, got -1\n")


def test_uncut_lattice_is_a_usage_error(capsys, torus_table):
    """The ``UncutLatticeError`` of ``clusters`` ends in a message, not a
    traceback; no CLI input reaches it, so silencing is switched off."""
    torus_table(np.zeros((9, 3), dtype=bool))
    code, stdout, stderr = run(capsys, "cluster", "--radius", "6", "--t", "1")
    assert code == 2
    assert stdout == ""
    assert stderr == ("hexmg: the silencing at t=1 does not cut the lattice into "
                      "translates of one cluster\n")


def test_rank_deficient_escape_is_a_usage_error(capsys, monkeypatch):
    """A ``RankDeficientError`` raised outside ``run_trial``'s own handler
    ends in a message, not a traceback."""
    def degenerate(*args, **kwargs):
        raise precoding.RankDeficientError("row-rank deficiency at the fast sectors")

    monkeypatch.setattr(precoding, "verify_nulling", degenerate)
    code, stdout, stderr = run(capsys, "zf", "--t", "1", "--m", "1", "--trials", "1")
    assert code == 2
    assert stdout == ""
    assert stderr == "hexmg: row-rank deficiency at the fast sectors\n"


def test_oversized_zf_system_is_a_usage_error(capsys, monkeypatch):
    """``hexmg zf`` past ``precoding.MAX_ANTENNAS`` exits 2 with the cap
    named, before any lattice is built."""
    def no_plan(*args, **kwargs):
        raise AssertionError("a plan was built")

    monkeypatch.setattr(precoding, "certification_plan", no_plan)
    code, stdout, stderr = run(capsys, "zf", "--t", "40", "--m", "1", "--trials", "1")
    assert code == 2
    assert stdout == ""
    assert stderr == (f"hexmg: t=40, m=1 gives a cluster of 14280 antennas, "
                      f"past the cap of {precoding.MAX_ANTENNAS}\n")


def test_zf_trials_past_the_cap_is_a_usage_error(capsys, monkeypatch):
    """``hexmg zf`` with more than ``precoding.MAX_TRIALS`` trials exits 2
    with the cap named, before any lattice is built."""
    def no_plan(*args, **kwargs):
        raise AssertionError("a plan was built")

    monkeypatch.setattr(precoding, "certification_plan", no_plan)
    trials = precoding.MAX_TRIALS + 1
    code, stdout, stderr = run(capsys, "zf", "--t", "1", "--m", "1", "--trials", str(trials))
    assert code == 2
    assert stdout == ""
    assert stderr == f"hexmg: {trials} trials exceed the cap of {precoding.MAX_TRIALS}\n"


def test_other_runtime_errors_keep_their_traceback(monkeypatch):
    """Only the two named errors become usage errors; any other
    ``RuntimeError`` is a fault of the program and propagates."""
    def broken(*args, **kwargs):
        raise RuntimeError("internal fault")

    monkeypatch.setattr(precoding, "verify_nulling", broken)
    with pytest.raises(RuntimeError, match="internal fault"):
        main(["zf", "--t", "1", "--m", "1", "--trials", "1"])


@pytest.mark.parametrize("command", ["lattice", "cluster", "lattice --out", "verify-all --out"])
def test_unwritable_output_is_a_usage_error(capsys, monkeypatch, tmp_path, command):
    """An ``--emit`` file in a missing directory, or an ``--out`` that names a
    regular file, ends in one ``cannot write`` line and exit 2, not in a
    traceback and exit 1, which would claim a failed check."""
    monkeypatch.setattr(checks, "all_checks", lambda *_: iter([checks.Check("c", True, "")]))
    regular = tmp_path / "file"
    regular.write_text("")
    missing = str(tmp_path / "missing" / "x.csv")
    argv = {
        "lattice": ["lattice", "--radius", "2", "--emit", missing],
        "cluster": ["cluster", "--radius", "6", "--t", "1", "--emit", missing],
        "lattice --out": ["lattice", "--radius", "2", "--emit", "x.csv", "--out", str(regular)],
        "verify-all --out": ["verify-all", "--radius", "12", "--out", str(regular)],
    }[command]
    code, stdout, stderr = run(capsys, *argv)
    path, reason = (str(regular), "File exists") if "--out" in command else (missing, "No such file or directory")
    assert (code, stderr) == (2, f"hexmg: cannot write {path}: {reason}\n")
    assert stdout == ("CHECK c: PASS\nverify-all: 1/1 checks passed\n" if command == "verify-all --out" else "")


def test_lattice_emit_sorted_directed_edges(capsys, tmp_path):
    out = tmp_path / "lattice.csv"
    code, stdout, _ = run(capsys, "lattice", "--radius", "2", "--emit", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == (
        "sector_cell_q,sector_cell_r,orientation,neighbor_cell_q,"
        "neighbor_cell_r,neighbor_orientation"
    )
    rows = lines[1:]
    assert rows == sorted(rows)
    # directed: each undirected pair appears twice
    assert len(rows) % 2 == 0


@pytest.mark.parametrize("radius", [1, 5, 60])
def test_lattice_summary_builds_no_tuples(capsys, monkeypatch, radius):
    """Without ``--emit``, ``hexmg lattice`` prints counts read off the
    arrays: it builds no sector or cell tuples, and no edge strings."""
    built = []
    build = lattice.build_network

    def recording(radius):
        built.append(build(radius))
        return built[-1]

    monkeypatch.setattr(lattice, "build_network", recording)
    code, stdout, _ = run(capsys, "lattice", "--radius", str(radius))
    assert code == 0
    (net,) = built
    assert "sectors" not in vars(net) and "cells" not in vars(net)
    cells = 3 * radius * (radius + 1) + 1
    links = 2 * len(lattice.interference_graph(net))  # each unordered pair twice
    assert stdout == (
        f"lattice radius={radius}: {cells} cells, {3 * cells} sectors, "
        f"{links} directed interference links, interior degree 4: ok\n"
    )


def _fresh_python(code: str) -> List[str]:
    """The stdout lines of ``code`` run in a fresh interpreter that imports
    ``hexmg`` from this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()


def _commands_script(argvs: List[List[str]], packages: Tuple[str, ...]) -> str:
    """Code that prints the loaded modules of ``packages`` (each named with a
    trailing dot), then runs ``hexmg.cli.main`` on each argv with its output
    swallowed and prints its exit code and those modules again."""
    return (
        "import contextlib, io, sys\n"
        "import hexmg.cli\n"
        f"loaded = lambda: sorted(m for m in sys.modules if (m + '.').startswith({packages!r}))\n"
        "print(loaded())\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = hexmg.cli.main(argv)\n"
        "    print(code, loaded())\n"
    )


def test_cli_import_loads_no_scipy():
    """Importing the CLI in a fresh interpreter loads no scipy module (which
    cost 0.4 s and 30 MB a launch), and no ``multiprocessing`` or
    ``concurrent`` module (verify-all forks its one child with ``os.fork``;
    a process pool adds about 20 ms a launch).  Nor does it load numpy,
    which ``region``, ``schedule``, ``--help`` and a usage error the parser
    finds never load either."""
    argvs = [
        ["region", "--m", "3", "--d", "20"],
        ["region", "--m", "3", "--d", "20", "--format", "json", "--t", "all"],
        ["schedule", "--algorithm", "2", "--dt", "1", "--dr", "1", "--validate"],
        ["--help"],
        ["region", "--m", "0", "--d", "3"],
    ]
    out = _fresh_python("import hexmg; print(hexmg.__file__)\n"
                        + _commands_script(argvs, ("numpy.", "scipy.", "multiprocessing.", "concurrent.")))
    assert out[0].startswith(str(Path(__file__).resolve().parent.parent / "src"))
    assert out[1:] == ["[]", "0 []", "0 []", "0 []", "0 []", "2 []"]


#: The modules whose functions the perfbench tracer wraps; it finds each in
#: ``sys.modules``, so the worker's import must load them all.
TRACED_MODULES = ["cli", "clustering", "lattice", "partitions", "precoding", "regions", "schedules"]


def test_library_loads_no_scipy_or_pool_and_the_worker_import_loads_the_traced_modules():
    """The library needs numpy alone: with every module of the package
    imported, the array ones and ``checks`` included, and ``cluster``,
    ``zf`` and a small ``verify-all`` run, no scipy, ``multiprocessing`` or
    ``concurrent`` module is loaded, nor ``numpy.ma`` (a plain ``np.unique``
    imports it).  The worker's ``from hexmg import ...`` loads the
    numpy-free ``regions`` and ``schedules`` too."""
    argvs = [
        ["cluster", "--t", "2", "--radius", "12"],
        ["zf", "--t", "1", "--m", "1", "--trials", "2"],
        ["verify-all", "--radius", "12", "--zf-trials", "1"],
    ]
    code = (
        "import pkgutil, sys\n"
        "from hexmg import cli, clustering, lattice, partitions, precoding\n"
        f"print([m for m in {TRACED_MODULES!r} if 'hexmg.' + m not in sys.modules])\n"
        "import hexmg\n"
        "for info in pkgutil.iter_modules(hexmg.__path__):\n"
        "    __import__('hexmg.' + info.name)\n"
        + _commands_script(argvs, ("numpy.ma.", "scipy.", "multiprocessing.", "concurrent."))
    )
    assert _fresh_python(code) == ["[]", "[]", "0 []", "0 []", "0 []"]


#: Every name ``hexmg`` re-exports, by the module that defines it.
REEXPORTS = {
    "lattice": ["HEX_DIRS", "NEIGHBOR_RULE", "Network", "build_network", "cell_distance",
                "interference_graph", "tx_neighbors"],
    "clustering": ["FAST", "RX", "SILENT", "SLOW", "TX", "Cluster", "ClusterPlan",
                   "assign_messages", "assignment_fractions", "cluster_link_count",
                   "clusters", "count_links", "fast_pattern", "master_grid", "role_census",
                   "role_codes", "silenced_sectors"],
    "schemes": ["MODE_MIXED", "MODE_SLOW_ONLY", "RankDeficientError", "UncutLatticeError"],
    "regions": ["FAMILY_MIXED", "FAMILY_NO_COOP", "FAMILY_SLOW", "MGPoint", "PrelogRequirement",
                "Region", "SystemParams", "boundary_samples", "contains", "convex_hull",
                "inner_bound", "is_subset", "max_sum_mg", "outer_bound", "required_prelogs",
                "scheme_point", "sum_gain_cap"],
    "precoding": ["NullingReport", "Precoder", "SystemTemplate", "TrialResult", "ZFSystem",
                  "build_zf_system", "certification_plan", "run_trial", "run_trials",
                  "sample_channels", "solve_precoder", "system_template", "verify_nulling"],
    "densities": ["BLUE", "PINK", "RED", "WHITE", "cap_rule", "fraction_limits"],
    "partitions": ["Partition", "bound_arithmetic", "census_fractions", "partition_four",
                   "partition_two"],
    "schedules": ["SchedulePlan", "Step", "ValidationReport", "schedule_four_color",
                  "schedule_two_color", "validate_schedule"],
}


@pytest.mark.parametrize("module", sorted(REEXPORTS))
def test_package_reexports_resolve_to_the_defining_module(module):
    """``from hexmg import X`` gives the defining module's object, and
    ``dir(hexmg)`` lists X; an unknown name is an ``AttributeError``."""
    import hexmg

    defining = importlib.import_module(f"hexmg.{module}")
    for name in REEXPORTS[module]:
        scope = {}
        exec(f"from hexmg import {name}", scope)
        assert scope[name] is getattr(defining, name)
        assert name in dir(hexmg)
    with pytest.raises(AttributeError, match="no_such_name"):
        hexmg.no_such_name


@pytest.mark.parametrize("radius,cell", [(1, (0, 0)), (2, (1, 0))])
def test_lattice_interior_check_reaches_every_full_cell(capsys, monkeypatch, radius, cell):
    """The interior-degree check covers each cell whose six neighbours lie on
    the lattice, at radius 1 the origin: one neighbour knocked off one of
    them turns it to VIOLATED."""
    build = lattice.build_network

    def broken(radius):
        net = build(radius)
        nbr = net.nbr.copy()
        nbr[net.id_of((*cell, 0)), 0] = -1
        return replace(net, nbr=nbr)

    monkeypatch.setattr(lattice, "build_network", broken)
    code, stdout, _ = run(capsys, "lattice", "--radius", str(radius))
    assert code == 1
    assert stdout.endswith("interior degree 4: VIOLATED\n")


#: SHA-256 of the emitted file and of stdout, recorded before the array-native
#: lattice (lattice, cluster) and before the array channels and the integer
#: cross products (zf, region, verify-all): these outputs must not move.  The
#: mixed-mode cluster, zf s4 and s5 and verify-all entries were re-recorded
#: when the fast pattern became one cluster's matching copied to every
#: cluster, which moves the mixed roles, the origin cluster's fast sectors at
#: t=2 and with them the residual digits and the role-fraction errors.  The
#: zf s5 entry was re-recorded again when the s5 solve moved from a full SVD
#: of the fast rows to one reduced QR and one batched SVD of the projected own
#: rows: the precoders agree to about 1e-14, but the residual digits move
#: (worst 1.480e-15 -> 9.587e-15 here), as they did when the solve first
#: factored the fast rows once.  verify-all certifies s4 only, so its report
#: and stdout, like the s3 and s4 entries, stay as they were.
EMIT_DIGESTS = {
    # the stdout digest was re-recorded when the dead ``--m`` label left the summary
    ("lattice", "--radius", "8"): (
        "fba3e296552ab0704d6b625fe9ff09989c237d4c9c4c1ac2c1f1370e35218580",
        "02cbf632a761eee4651d4629be3d7886c45a92e5fca8cdbd41f5325eddcf005d",
    ),
    ("cluster", "--radius", "30", "--t", "2", "--mode", "mixed", "--check-counts"): (
        "08ab75265ef136c0db676409b1e6e7b3b5c1e94b60a4504049ef610403a035f7",
        "b52246b54b67ad9db7cdc672cddc01accb6f495c92a4d240e83ed4613e552c71",
    ),
    ("zf", "--t", "2", "--m", "2", "--trials", "5", "--seed", "3", "--scheme", "s3"): (
        "4d66feec7a6bae50ca7e2548f1bf063061c93e2607c681cbd1d4402a60e2d4af",
        "7a011d8c4955f14ddd50f12cf4bf18c18ffa554b3bae3515e92429bcaeda3577",
    ),
    ("zf", "--t", "2", "--m", "2", "--trials", "5", "--seed", "3", "--scheme", "s4"): (
        "c421ba966b246158aa92f289a0615e6a9b24e4965acee84ef177879bf12f6ea3",
        "5064d40e487419c410b9ce88efe585f4447b4488a2d090db8df31af20f417327",
    ),
    ("zf", "--t", "2", "--m", "2", "--trials", "5", "--seed", "3", "--scheme", "s5"): (
        "95a034910adbc5f446b091c7a9ddafc1c16cb7df3c9fcff4071ca7d6f55099d8",
        "aaedd03af855faf938a9491b0e5213cd40d8d4c6a77dd058be3a65eedbd1d672",
    ),
    ("region", "--m", "3", "--mu-tx", "1/10", "--mu-rx", "1/5", "--d", "20", "--format", "json"): (
        "7b86e51cbfcb20ec0b23accc049dde8da5dc6273903548e1310240de2487c1b8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    # a full sweep at d = 1,001 (324 vertices) and the sampled csv and svg
    # boundaries, recorded while the hull still put every point on one
    # common denominator (1,437 bits for the sweep), and while the sweep was
    # still asked for with --t-sweep
    ("region", "--m", "1", "--mu-tx", "1", "--mu-rx", "1", "--d", "1001", "--t", "all", "--format", "json"): (
        "bc42896e9076c2aa84916ff082f4e5c074bc037b9fad01b774fd2d55f24c8d56",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    ("region", "--m", "3", "--mu-tx", "1/10", "--mu-rx", "1/5", "--d", "20", "--format", "csv", "--samples", "40"): (
        "99df75b7295dce24cba30018978f38ff1870318e8eaf3a30ee473fca21b86322",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    ("region", "--m", "3", "--mu-tx", "1/10", "--mu-rx", "1/5", "--d", "20", "--format", "svg", "--samples", "40"): (
        "d1628992f1c9b17de3ebaf9a4b476076529d299f3e3efa38e5f2144cd8a42748",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    # verify-all writes its report to --out DIR; the report is its stdout.  It
    # was re-recorded when the census caps, the outer bound's paper caps and
    # the sum-gain drops joined three records' names and details
    ("verify-all", "--radius", "30", "--seed", "42"): (
        "5e7d267d8e5fad279fc0fe4b1e9223c0078e62b28d6d3b917486ac51ff8b27ca",
        "5e7d267d8e5fad279fc0fe4b1e9223c0078e62b28d6d3b917486ac51ff8b27ca",
    ),
    # the smallest radius verify-all takes, where t=4 sits at 3t = radius:
    # recorded before the role censuses stopped building clusters
    ("verify-all", "--radius", str(checks.MIN_RADIUS), "--zf-trials", "2"): (
        "8c7e95696a4b5edaa03705032cc6ca9e54f37b217f05ee49b8eaf54b2db41076",
        "8c7e95696a4b5edaa03705032cc6ca9e54f37b217f05ee49b8eaf54b2db41076",
    ),
    # both partitions, recorded while ``--partition`` still chose between
    # them; at radius 10 the census misses the fraction tolerance, so the
    # check fails and the exit is 1 (``EMIT_EXIT_CODES``)
    ("converse", "--radius", "10", "--check-fractions"): (
        "3a2e5b0c4cdb5a7c868929f720e7fba3f8170b4fe9cf491f056f62e1998360cb",
        "b200fc622dd2f2c2c87303adbb90b3ab921338e0ce2ca3ce9bd5dc588ea162a5",
    ),
    ("converse", "--radius", "10", "--d", "3", "--check-fractions"): (
        "aea88b44aefcd0c31058b7ed505a545b02ae9cd14e9e3e758208bf3407e8498d",
        "3a31df5bf0e502f304813b03c148aaf14fdb6fc9cb2218630737a6ff1d763bae",
    ),
}

#: the exit code of each ``EMIT_DIGESTS`` run that is not 0
EMIT_EXIT_CODES = {
    ("converse", "--radius", "10", "--check-fractions"): 1,
    ("converse", "--radius", "10", "--d", "3", "--check-fractions"): 1,
}


def emit_id(argv):
    """``zf-s3`` for an ``--scheme``; ``verify-all-min-radius`` for the
    smallest verify-all, so the radius-30 case keeps the bare ``verify-all``;
    ``region-sweep`` for a ``--t all`` and ``region-csv`` for a
    ``--format`` other than json, so the json region keeps the bare ``region``;
    ``converse-two`` or ``converse-four`` by the partition ``--d`` picks."""
    tags = [argv[i + 1] for i, a in enumerate(argv) if a == "--scheme"]
    if argv[0] == "converse":
        tags.append("four" if "--d" in argv else "two")
    tags += ["sweep" for i, a in enumerate(argv) if a == "--t" and argv[i + 1] == "all"]
    tags += [argv[i + 1] for i, a in enumerate(argv) if a == "--format" and argv[i + 1] != "json"]
    if argv[0] == "verify-all" and "--zf-trials" in argv:
        tags.append("min-radius")
    return "-".join([argv[0]] + tags)


@pytest.mark.parametrize("argv", list(EMIT_DIGESTS), ids=emit_id)
def test_emitted_outputs_are_byte_identical(capsys, tmp_path, argv):
    """Each file is written under ``--out``; an ``--emit`` name relative to
    it keeps the temporary directory out of the stdout ``converse`` prints."""
    if argv[0] == "verify-all":
        out = tmp_path / "verify_report.txt"
        code, stdout, _ = run(capsys, *argv, "--out", str(tmp_path))
    else:
        out = tmp_path / "emit.csv"
        code, stdout, _ = run(capsys, *argv, "--out", str(tmp_path), "--emit", out.name)
    assert code == EMIT_EXIT_CODES.get(argv, 0)
    got = (
        hashlib.sha256(out.read_bytes()).hexdigest(),
        hashlib.sha256(stdout.encode()).hexdigest(),
    )
    assert got == EMIT_DIGESTS[argv]


def test_cluster_check_counts(capsys, tmp_path):
    out = tmp_path / "roles.csv"
    code, stdout, _ = run(
        capsys,
        "cluster", "--radius", "12", "--t", "2", "--mode", "mixed",
        "--check-counts", "--emit", str(out),
    )
    assert code == 0
    assert "tx links 144" in stdout
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "cell_q,cell_r,orientation,role,cluster_id"
    roles = {line.split(",")[3] for line in lines[1:]}
    assert roles == {"FAST", "SLOW", "SILENT", "MASTER"}

    # cluster_id: the position in plan.clusters of the cluster holding the
    # sector, -1 exactly on silenced rows
    plan = clustering.clusters(lattice.build_network(12), 2)
    assert len(lines) == 1 + sum(len(cl.sectors) for cl in plan.clusters) + len(plan.silenced)
    for line in lines[1:]:
        q, r, o, role, cid = line.split(",")
        sector, cid = (int(q), int(r), int(o)), int(cid)
        if role == "SILENT":
            assert cid == -1
        else:
            assert 0 <= cid < len(plan.clusters) and sector in plan.clusters[cid].sectors


def test_zf_command(capsys, tmp_path):
    out = tmp_path / "zf.csv"
    code, stdout, _ = run(
        capsys,
        "zf", "--t", "1", "--m", "1", "--trials", "5", "--seed", "3",
        "--tol", "1e-9", "--emit", str(out),
    )
    assert code == 0
    assert "PASS" in stdout
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "trial,solvable,max_cross_residual,min_self_rank"
    assert len(lines) == 6


def test_converse_census(capsys, tmp_path):
    out = tmp_path / "census.csv"
    code, stdout, _ = run(
        capsys,
        "converse", "--radius", "30", "--d", "3", "--check-fractions",
        "--emit", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "color,count,fraction,limit,abs_error"
    assert {l.split(",")[0] for l in lines[1:]} == {"RED", "BLUE", "PINK", "WHITE"}


def test_converse_four_without_d_is_a_usage_error(capsys):
    """``--d`` alone picks the partition, so ``--partition`` is no option."""
    code, stdout, err = run(capsys, "converse", "--radius", "10", "--partition", "four")
    assert (code, stdout) == (2, "")
    assert err.endswith("hexmg: error: unrecognized arguments: --partition four\n")


def test_converse_two_with_d_is_a_usage_error(capsys):
    """``--d`` spaces the four-colour partition and picks it; there is no
    ``--partition`` to contradict it."""
    code, stdout, err = run(capsys, "converse", "--radius", "10", "--partition", "two", "--d", "3")
    assert (code, stdout) == (2, "")
    assert err.endswith("hexmg: error: unrecognized arguments: --partition two\n")


def test_converse_without_check_fractions_exits_0(capsys):
    """Without ``--check-fractions`` the census is printed and no tolerance
    is judged, even at a radius whose census misses it."""
    code, stdout, err = run(capsys, "converse", "--radius", "2")
    assert (code, err) == (0, "")
    assert stdout.startswith("color,count,fraction,limit,abs_error\n")


def test_converse_without_interior_cells_is_a_usage_error(capsys):
    assert run(capsys, "converse", "--radius", "1") == (
        2, "", "hexmg: no interior cells at this radius\n")


def test_cluster_check_counts_mismatch_exits_1(capsys, monkeypatch):
    """A link count off the closed form is reported as ``MISMATCH`` with
    exit 1, a failed check, not a usage error."""
    count_links = clustering.count_links
    monkeypatch.setattr(clustering, "count_links", lambda plan, side: count_links(plan, side) + 1)
    code, stdout, err = run(capsys, "cluster", "--radius", "6", "--t", "1", "--check-counts")
    assert (code, err) == (1, "")
    assert "tx links 37 (want 36)" in stdout and ": MISMATCH\n" in stdout


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["lattice", "--radius", "2"], "--seed 1"),
        (["cluster", "--radius", "6", "--t", "1"], "--seed 1"),
        (["region", "--m", "1", "--d", "20"], "--seed 1"),
        (["converse", "--radius", "2"], "--seed 1"),
        (["schedule", "--algorithm", "1", "--dt", "1", "--dr", "1"], "--seed 1"),
        (["schedule", "--algorithm", "1", "--dt", "1", "--dr", "1"], "--out DIR"),
    ],
    ids=["lattice-seed", "cluster-seed", "region-seed", "converse-seed", "schedule-seed",
         "schedule-out"],
)
def test_flags_a_command_does_not_use_are_refused(capsys, argv, flag):
    """Only ``zf`` and ``verify-all`` draw channels, so only they take
    ``--seed``; ``schedule`` writes no file, so it takes no ``--out``."""
    code, stdout, err = run(capsys, *argv, *flag.split())
    assert (code, stdout) == (2, "")
    assert err.endswith(f"hexmg: error: unrecognized arguments: {flag}\n")


def test_config_naming_a_removed_flag_is_refused(capsys, tmp_path):
    """A config entry is injected as its flag, so ``seed`` is refused on
    ``region`` as the flag is."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 1\nd = 20\nseed = 1\n")
    code, stdout, err = run(capsys, "region", "--config", str(cfg))
    assert (code, stdout) == (2, "")
    assert err.endswith("hexmg: error: unrecognized arguments: --seed 1\n")


def readme_commands():
    """Every ``hexmg ...`` line of the README's "Command line" block."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("hexmg ")]


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    commands = readme_commands()
    assert len(commands) == 8
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


def test_schedule_command_valid_and_invalid(capsys):
    code, stdout, _ = run(capsys, "schedule", "--algorithm", "1", "--dt", "10", "--dr", "10", "--validate")
    assert code == 0
    assert "VALID" in stdout
    code, stdout, _ = run(
        capsys, "schedule", "--algorithm", "2", "--dt", "3", "--dr", "3", "--d", "4", "--validate"
    )
    assert code == 1
    assert "INVALID" in stdout


def test_schedule_builds_no_lattice(capsys, monkeypatch):
    # plans are symbolic: a large total delay must not grow a lattice with d
    def boom(*args, **kwargs):
        raise AssertionError("schedule must not build a lattice or a partition")

    monkeypatch.setattr(lattice, "build_network", boom)
    monkeypatch.setattr(partitions, "partition_four", boom)
    code, stdout, _ = run(
        capsys, "schedule", "--algorithm", "2", "--dt", "1", "--dr", "1", "--d", "1000", "--validate"
    )
    assert code == 0
    assert "VALID" in stdout


def test_schedule_accepts_zero_total_delay(capsys):
    # the same plan as leaving --d out at --dt 0 --dr 0
    code, stdout, _ = run(capsys, "schedule", "--algorithm", "1", "--dt", "0", "--dr", "0", "--d", "0", "--validate")
    assert code == 0
    assert "d=0" in stdout
    assert "schedule: VALID" in stdout
    assert stdout == run(capsys, "schedule", "--algorithm", "1", "--dt", "0", "--dr", "0", "--validate")[1]


def test_schedule_past_the_round_cap_is_a_usage_error(capsys):
    """A plan lists about 3(d_t + d_r)^2 names; budgets past the cap are
    refused before any step is built."""
    argv = ["schedule", "--algorithm", "2", "--dt", str(schedules.MAX_ROUNDS + 1), "--dr", "0"]
    code, stdout, err = run(capsys, *argv, "--validate")
    assert code == 2
    assert stdout == ""
    assert f"exceed the cap of {schedules.MAX_ROUNDS} rounds" in err
    assert "Traceback" not in err


def test_schedule_negative_total_delay_is_a_usage_error(capsys):
    code, stdout, err = run(capsys, "schedule", "--algorithm", "2", "--dt", "0", "--dr", "0", "--d", "-1")
    assert code == 2
    assert stdout == ""
    assert "must be a non-negative integer, got -1" in err
    assert "Traceback" not in err


#: SHA-256 of stdout and the exit code, recorded before the schedules were
#: built from one conferencing-phase rule: these outputs must not move.
SCHEDULE_DIGESTS = {
    ("--algorithm", "1", "--dt", "2", "--dr", "2", "--validate"): (
        "77467acdd827c9cccc13ba26acea03148557adba8d21e284b0f56582e897a84c", 0,
    ),
    ("--algorithm", "1", "--dt", "3", "--dr", "3", "--d", "4", "--validate"): (
        "b09c33d02aac35bc0218322e1104df2d6a3af455b79e46c5caf36704e14665d0", 1,
    ),
    ("--algorithm", "2", "--dt", "1", "--dr", "2", "--validate"): (
        "d9be9300cca5d53ae5ebe18d428ffdfd94a8510b57df9e8d7e5ddc2b3b02156a", 0,
    ),
    ("--algorithm", "2", "--dt", "3", "--dr", "3", "--d", "4", "--validate"): (
        "09bb66607bb10bce51afa54e988d24f4c294d3425fea8c6fa47432eaff09ebfe", 1,
    ),
    ("--algorithm", "2", "--dt", "0", "--dr", "5"): (
        "19cce8ce27e6ff50d81ebb7639e761882c36566d9224248755ce6717582448c3", 0,
    ),
}


@pytest.mark.parametrize(
    "argv", list(SCHEDULE_DIGESTS), ids=lambda argv: "_".join(a.lstrip("-") for a in argv)
)
def test_schedule_stdout_is_byte_identical(capsys, argv):
    code, stdout, _ = run(capsys, "schedule", *argv)
    assert (hashlib.sha256(stdout.encode()).hexdigest(), code) == SCHEDULE_DIGESTS[argv]


def test_config_file_defaults_and_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("radius = 12\nt = 2\nmode = mixed\n")
    code, stdout, _ = run(capsys, "cluster", "--config", str(cfg), "--check-counts")
    assert code == 0
    assert "t=2" in stdout
    # explicit flag wins over config value
    code, stdout, _ = run(capsys, "cluster", "--config", str(cfg), "--t", "1", "--check-counts")
    assert code == 0
    assert "tx links 36" in stdout


@pytest.mark.parametrize(
    "form",
    [["region", "--config=CFG"], ["region", "--conf", "CFG"], ["region", "--conf=CFG"],
     ["--config", "CFG", "region"], ["--config=CFG", "region"]],
    ids=["equals", "abbreviated", "abbreviated-equals", "before-command", "equals-before-command"],
)
def test_config_forms_give_identical_stdout(capsys, tmp_path, form):
    """``--config=FILE``, an abbreviation and a config before the command
    read the file as ``--config FILE`` does."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 3\nd = 20\nmu-tx = 1/10\nformat = json\n")
    argv = [arg.replace("CFG", str(cfg)) for arg in form]
    want = run(capsys, "region", "--config", str(cfg), "--t", "3")
    assert want[0] == 0 and want[1].startswith("{")
    assert run(capsys, *argv, "--t", "3") == want


def test_second_config_is_refused(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 3\nd = 20\n")
    code, stdout, err = run(capsys, "region", "--config", str(cfg), "--config", str(cfg))
    assert (code, stdout) == (2, "")
    assert "unrecognized arguments: --config" in err


def test_config_skips_comments_and_blank_lines(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\n\n  \nm = 3\n  # indented comment\nd = 20\n")
    want = run(capsys, "region", "--m", "3", "--d", "20")
    assert want[0] == 0
    assert run(capsys, "region", "--config", str(cfg)) == want


@pytest.mark.parametrize(
    "argv,write,err",
    [
        (["region", "--config", "bad.cfg"], "m 3\n", "bad config line: m 3"),
        (["region", "--config", "nope.cfg"], None,
         "[Errno 2] No such file or directory: 'nope.cfg'"),
        (["region", "--config"], None, "--config needs a file path"),
    ],
    ids=["bad-line", "missing-file", "no-path"],
)
def test_config_errors_are_usage_errors(capsys, tmp_path, monkeypatch, argv, write, err):
    """A config that cannot be read ends in one ``hexmg: config error:``
    line and exit 2, before any command runs."""
    monkeypatch.chdir(tmp_path)
    if write is not None:
        (tmp_path / "bad.cfg").write_text(write)
    assert run(capsys, *argv) == (2, "", f"hexmg: config error: {err}\n")


@pytest.mark.parametrize("value,want", [("true", ["--check-counts"]), ("false", [])])
def test_config_true_is_a_flag_and_false_is_dropped(capsys, tmp_path, value, want):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"radius = 6\nt = 1\ncheck-counts = {value}\n")
    expected = run(capsys, "cluster", "--radius", "6", "--t", "1", *want)
    assert expected[0] == 0 and ("tx links" in expected[1]) == bool(want)
    assert run(capsys, "cluster", "--config", str(cfg)) == expected


def test_config_without_a_command_prints_the_usage(capsys, tmp_path):
    """A config with no command injects nothing, so the usage is printed and
    the exit is 2, as for a bare ``hexmg``."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 3\n")
    bare = run(capsys)
    assert bare[0] == 2 and bare[1].startswith("usage: hexmg ") and bare[2] == ""
    assert run(capsys, "--config", str(cfg)) == bare
    assert run(capsys, f"--config={cfg}") == bare


def test_non_rational_prelog_is_a_usage_error(capsys):
    code, stdout, err = run(capsys, "region", "--m", "1", "--d", "20", "--mu-tx", "abc")
    assert (code, stdout) == (2, "")
    # argparse's usage, then one error line
    assert err.startswith("usage: hexmg region ")
    assert err.endswith("\nhexmg region: error: argument --mu-tx: not a rational number: 'abc'\n")


@pytest.mark.parametrize(
    "config,explicit,want",
    [
        ("bound = both\n", ["--bound", "inner"], ["--bound", "inner"]),
        ("bound = inner\nt = 1\n", ["--bound", "both", "--t", "2"], ["--bound", "both", "--t", "2"]),
        ("t = 2\n", ["--t", "all"], ["--t", "all"]),
        ("t = all\n", ["--t=1"], ["--t=1"]),
        ("t = 2\nbound = both\n", ["--bound", "inner"], ["--t", "2", "--bound", "inner"]),
        # an abbreviated flag names its option as argparse reads it
        ("bound = both\n", ["--bou", "inner"], ["--bound", "inner"]),
        ("t = 2\n", ["--t=all"], ["--t", "all"]),
    ],
    ids=["which", "which-and-t", "t-sweep-over-t", "t-over-t-sweep", "other-group-kept",
         "abbreviated-which", "equals-t-all"],
)
def test_explicit_flag_drops_config_entries_of_its_group(capsys, tmp_path, config, explicit, want):
    """Each of ``region``'s choices is one flag, its group: ``--bound`` for
    the bounds, ``--t`` for one t or ``all``.  The config's flags go before
    the explicit ones, so an explicit flag wins over the config entry of its
    choice by argparse's last-wins rule; the other entries stay."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    base = ["--m", "1", "--d", "20", "--format", "json"]
    code, stdout, err = run(capsys, "region", "--config", str(cfg), *base, *explicit)
    assert (code, err) == (0, "")
    assert (code, stdout, err) == run(capsys, "region", *base, *want)
    assert stdout != run(capsys, "region", "--config", str(cfg), *base)[1]


def test_parser_records_its_options_and_has_no_exclusive_group():
    """``_build_parser`` records each command's option strings as argparse
    declares them, ``--help`` aside: 41 in all, ``region`` making each
    choice with one flag, and no command keeps a mutually exclusive group."""
    parser, commands = _build_parser()
    assert sum(map(len, commands.values())) == 41
    assert commands["region"] == ["--out", "--m", "--mu-tx", "--mu-rx", "--d", "--bound",
                                  "--format", "--samples", "--t", "--emit"]
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(commands)
    for name, p in sub.choices.items():
        declared = [o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")]
        assert declared == commands[name]
        assert p._mutually_exclusive_groups == []


@pytest.mark.parametrize("flag", ["--inner", "--outer", "--both", "--t-sweep"])
def test_removed_region_flags_are_refused(capsys, tmp_path, flag):
    """``--bound`` and ``--t all`` replaced these flags: each is refused as
    an unrecognized argument, explicit or from a config."""
    base = ["region", "--m", "1", "--d", "20"]
    code, stdout, err = run(capsys, *base, flag)
    assert (code, stdout) == (2, "")
    assert err.endswith(f"hexmg: error: unrecognized arguments: {flag}\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[2:]} = true\n")
    assert run(capsys, *base, "--config", str(cfg)) == (code, stdout, err)


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["region", "--d", "3", "--m"], "a positive integer"),
        (["schedule", "--algorithm", "1", "--dt", "1", "--dr", "1", "--d"], "a non-negative integer"),
        (["region", "--m", "3", "--d", "3", "--samples"], "an integer of at least 2"),
        (["zf", "--t", "1", "--m", "1", "--tol"], "finite and positive"),
        (["region", "--m", "3", "--d", "3", "--t"], "a positive integer or 'all'"),
    ],
    ids=["positive-int", "nonnegative-int", "sample-count", "tolerance", "t-choice"],
)
def test_parser_errors_name_what_they_expect(capsys, argv, expected):
    """A value the flag's type cannot read is refused with what the flag
    expects, not with the name of the function that reads it."""
    code, stdout, err = run(capsys, *argv, "abc")
    assert (code, stdout) == (2, "")
    assert err.endswith(f"hexmg {argv[0]}: error: argument {argv[-1]}: must be {expected}, got 'abc'\n")


def test_region_t_at_delay_one_says_no_t_enters(capsys):
    """At d = 1 no t enters any scheme, so a ``--t`` names that rather than
    a largest t of 0; ``--t all`` and the default both hull no scheme point."""
    code, stdout, err = run(capsys, "region", "--m", "3", "--d", "1", "--t", "1")
    assert (code, stdout) == (2, "")
    assert err == "hexmg: --t 1 enters no scheme for --d 1; at d = 1 no t enters any scheme\n"
    swept = run(capsys, "region", "--m", "3", "--d", "1", "--t", "all", "--format", "json")
    assert swept[0] == 0 and swept == run(capsys, "region", "--m", "3", "--d", "1", "--format", "json")


RADIUS_COMMANDS = [["lattice"], ["cluster", "--t", "1"], ["converse"],
                   ["verify-all", "--zf-trials", "1"]]


@pytest.mark.parametrize("argv", RADIUS_COMMANDS, ids=lambda argv: argv[0])
def test_unallocatable_radius_is_a_usage_error(capsys, monkeypatch, argv):
    """A lattice that cannot be allocated at an allowed radius (a host with
    less memory than ``MAX_RADIUS`` assumes) ends in one ``hexmg:`` line and
    exit 2.  ``build_network`` is made to fail, so nothing is allocated."""
    def unallocatable(radius):
        raise MemoryError(f"Unable to allocate the lattice of radius {radius}")

    monkeypatch.setattr(lattice, "build_network", unallocatable)
    code, stdout, err = run(capsys, *argv, "--radius", str(checks.MIN_RADIUS))
    assert (code, stdout) == (2, "")
    assert err.startswith("hexmg: out of memory: Unable to allocate ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("radius", [MAX_RADIUS + 1, 10**7])
@pytest.mark.parametrize("argv", RADIUS_COMMANDS, ids=lambda argv: argv[0])
def test_radius_past_the_cap_is_a_usage_error(capsys, monkeypatch, argv, radius):
    """Every ``--radius`` refuses a radius past ``MAX_RADIUS``, one past it or
    one whose arrays would take petabytes, before any lattice is built; its
    parser accepts ``MAX_RADIUS`` itself."""
    def refused(radius):
        raise AssertionError(f"build_network({radius}) was called")

    monkeypatch.setattr(lattice, "build_network", refused)
    code, stdout, err = run(capsys, *argv, "--radius", str(radius))
    assert (code, stdout) == (2, "")
    assert err.endswith(f"hexmg {argv[0]}: error: argument --radius: radius {radius} "
                        f"exceeds the cap of {MAX_RADIUS}\n")
    parser, _ = _build_parser()
    assert parser.parse_args([*argv, "--radius", str(MAX_RADIUS)]).radius == MAX_RADIUS


def test_unknown_command(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_zf_command_alternate_schemes(capsys):
    for scheme in ("s3", "s5"):
        code, stdout, _ = run(
            capsys, "zf", "--t", "1", "--m", "1", "--trials", "3", "--scheme", scheme
        )
        assert code == 0
        assert "PASS" in stdout
