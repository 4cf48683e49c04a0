import hashlib
import json
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hexmg import checks, clustering, lattice, partitions, precoding
from hexmg.checks import decimal_str
from hexmg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decimal_str_round_half_even():
    assert decimal_str(Fraction(2523, 842), 4) == "2.9964"
    assert decimal_str(Fraction(87, 56), 4) == "1.5536"
    assert decimal_str(Fraction(1, 2), 4) == "0.5000"
    assert decimal_str(Fraction(53, 30)) == "1.766667"


def test_region_csv_matches_reference_curves(capsys, tmp_path):
    out = tmp_path / "region.csv"
    code, _, _ = run(
        capsys,
        "region", "--m", "3", "--mu-tx", "0.1", "--mu-rx", "0.2", "--d", "20",
        "--both", "--format", "csv", "--emit", str(out),
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
        "--inner", "--format", "json", "--emit", str(out),
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
        ["zf", "--t", "1", "--m", "1", "--trials", "1", "--tol", "nan"],
        ["zf", "--t", "1", "--m", "1", "--trials", "1", "--tol", "-1"],
        ["zf", "--t", "1", "--m", "1", "--trials", "1", "--tol", "inf"],
    ],
    ids=["t-beyond-slow-range", "samples-negative", "samples-one", "tol-nan", "tol-negative", "tol-inf"],
)
def test_out_of_range_input_is_a_usage_error(capsys, argv):
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert err.strip()


def test_region_accepts_largest_admissible_t(capsys):
    code, stdout, _ = run(capsys, "region", "--m", "3", "--d", "20", "--t", "10")
    assert code == 0
    assert stdout.startswith("bound,sf,ss\n")


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


@pytest.mark.parametrize(
    "argv",
    [["verify-all", "--radius", "12"], ["zf", "--t", "1", "--m", "1", "--trials", "1"]],
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


def test_uncut_lattice_is_a_usage_error(capsys, monkeypatch):
    """The two-masters ``UncutLatticeError`` of ``clusters`` ends in a message,
    not a traceback; no CLI input reaches it, so silencing is switched off."""
    monkeypatch.setattr(
        clustering, "silenced_sectors",
        lambda net, t: lattice.SectorSet(net, np.zeros(len(net.sectors), dtype=bool)),
    )
    code, stdout, stderr = run(capsys, "cluster", "--radius", "6", "--t", "1")
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("hexmg: cluster contains ") and stderr.endswith(" master cells\n")


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


def test_other_runtime_errors_keep_their_traceback(monkeypatch):
    """Only the two named errors become usage errors; any other
    ``RuntimeError`` is a fault of the program and propagates."""
    def broken(*args, **kwargs):
        raise RuntimeError("internal fault")

    monkeypatch.setattr(precoding, "verify_nulling", broken)
    with pytest.raises(RuntimeError, match="internal fault"):
        main(["zf", "--t", "1", "--m", "1", "--trials", "1"])


def test_lattice_emit_sorted_directed_edges(capsys, tmp_path):
    out = tmp_path / "lattice.csv"
    code, stdout, _ = run(capsys, "lattice", "--radius", "2", "--m", "1", "--emit", str(out))
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
        f"lattice radius={radius} m=1: {cells} cells, {3 * cells} sectors, "
        f"{links} directed interference links, interior degree 4: ok\n"
    )


def test_cli_import_loads_no_scipy():
    """The library needs numpy alone: importing the CLI in a fresh
    interpreter loads no scipy module (which cost 0.4 s and 30 MB a launch),
    and no ``multiprocessing`` or ``concurrent`` module (verify-all forks
    its one child with ``os.fork``; a process pool adds about 20 ms a launch)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys, hexmg, hexmg.cli; "
        "print(hexmg.__file__); "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent')))"
    )
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out[0].startswith(src)
    assert out[1] == "[]"


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
#: cross products (zf, region, verify-all): these outputs must not move.
EMIT_DIGESTS = {
    ("lattice", "--radius", "8", "--m", "3"): (
        "fba3e296552ab0704d6b625fe9ff09989c237d4c9c4c1ac2c1f1370e35218580",
        "5551503e0cd9d87d4bb8dbbbd71077a29b396081e5318b1e9afaf648bb8acb6d",
    ),
    ("cluster", "--radius", "30", "--t", "2", "--mode", "mixed", "--check-counts"): (
        "d6de1763a846b837b9d2afaec242bb9e3e0d474d384d9ef6f47c2aa7fcefc5bd",
        "8bbb34d763beb6038f062aab939db0f663a998f472a550fb34e4ac444f31f474",
    ),
    ("zf", "--t", "2", "--m", "2", "--trials", "5", "--seed", "3", "--scheme", "s3"): (
        "4d66feec7a6bae50ca7e2548f1bf063061c93e2607c681cbd1d4402a60e2d4af",
        "7a011d8c4955f14ddd50f12cf4bf18c18ffa554b3bae3515e92429bcaeda3577",
    ),
    ("zf", "--t", "2", "--m", "2", "--trials", "5", "--seed", "3", "--scheme", "s4"): (
        "b625b8e129daceaa996564444987c01689f51fb6e4e15836280909a5f0ebf756",
        "e59cc9bf0a81a62f78d0aacccd49f5025c6775f0501303b815a546e4973eb611",
    ),
    ("zf", "--t", "2", "--m", "2", "--trials", "5", "--seed", "3", "--scheme", "s5"): (
        "dbd62744dc6c8a9bc3ad6825b45962fad7639fe60943748c484fe68c4f13bb58",
        "009697ea1a170830be1b05f25c59709b91b6c33913aecf5fd6ac13caeea58fc6",
    ),
    ("region", "--m", "3", "--mu-tx", "1/10", "--mu-rx", "1/5", "--d", "20", "--format", "json"): (
        "7b86e51cbfcb20ec0b23accc049dde8da5dc6273903548e1310240de2487c1b8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    # verify-all writes its report to --out DIR; the report is its stdout
    ("verify-all", "--radius", "30", "--seed", "42"): (
        "5022a880e3c1449c2e01634a68428f69e2a84daca344bef27a25497945b6c8df",
        "5022a880e3c1449c2e01634a68428f69e2a84daca344bef27a25497945b6c8df",
    ),
}


def emit_id(argv):
    return "-".join([argv[0]] + [argv[i + 1] for i, a in enumerate(argv) if a == "--scheme"])


@pytest.mark.parametrize("argv", list(EMIT_DIGESTS), ids=emit_id)
def test_emitted_outputs_are_byte_identical(capsys, tmp_path, argv):
    if argv[0] == "verify-all":
        out = tmp_path / "verify_report.txt"
        code, stdout, _ = run(capsys, *argv, "--out", str(tmp_path))
    else:
        out = tmp_path / "emit.csv"
        code, stdout, _ = run(capsys, *argv, "--emit", str(out))
    assert code == 0
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
    code, stdout, err = run(capsys, "converse", "--radius", "10", "--partition", "four")
    assert code == 2
    assert stdout == ""
    assert err == "hexmg: --d is required for the four-colour partition\n"
    assert "Traceback" not in err


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
