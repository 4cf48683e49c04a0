import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from hexmg import checks, clustering, lattice, precoding
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


#: SHA-256 of the emitted CSV and of stdout, recorded from the dict-based
#: lattice that preceded the array-native one: these outputs must not move.
EMIT_DIGESTS = {
    ("lattice", "--radius", "8", "--m", "3"): (
        "fba3e296552ab0704d6b625fe9ff09989c237d4c9c4c1ac2c1f1370e35218580",
        "5551503e0cd9d87d4bb8dbbbd71077a29b396081e5318b1e9afaf648bb8acb6d",
    ),
    ("cluster", "--radius", "30", "--t", "2", "--mode", "mixed", "--check-counts"): (
        "d6de1763a846b837b9d2afaec242bb9e3e0d474d384d9ef6f47c2aa7fcefc5bd",
        "8bbb34d763beb6038f062aab939db0f663a998f472a550fb34e4ac444f31f474",
    ),
}


@pytest.mark.parametrize("argv", list(EMIT_DIGESTS), ids=lambda argv: argv[0])
def test_emitted_outputs_are_byte_identical(capsys, tmp_path, argv):
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


def test_schedule_command_valid_and_invalid(capsys):
    code, stdout, _ = run(capsys, "schedule", "--algorithm", "1", "--dt", "10", "--dr", "10", "--validate")
    assert code == 0
    assert "VALID" in stdout
    code, stdout, _ = run(
        capsys, "schedule", "--algorithm", "2", "--dt", "3", "--dr", "3", "--d", "4", "--validate"
    )
    assert code == 1
    assert "INVALID" in stdout


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
