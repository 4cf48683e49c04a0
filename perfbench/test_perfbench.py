"""Tests of the benchmark itself, on inputs small enough for the unit suite.

The correctness gate must pass on the program as it is and fail once an
output is deliberately broken; the span recorder must account for the whole
traced job.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import hexmg
import run
import spans
import worker
import workloads
from hexmg import clustering, precoding

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def small_topology(seed=3):
    return workloads.topology_inputs(seed, radius=12, ts=(1, 2))


def small_zf(seed=3):
    return workloads.zf_inputs(seed, points=(("s4", 1, 1), ("s5", 1, 2)), trials=2)


def failures(workload, inputs, k=1):
    return [name for name, ok in workload.check(inputs, workload.job(inputs, k)) if not ok]


def test_names_match_benchmark_json():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    layer = spans.Tracer().layer_metrics({0: 0.0})
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(layer) + ["trace.job_s", "trace.overhead_s"]


def test_topology_gate_passes_on_program():
    inputs = small_topology()
    out = workloads.topology_job(inputs, 1)
    outcomes = workloads.topology_check(inputs, out)
    assert len(outcomes) > 2 * len(inputs["queries"])
    assert [name for name, ok in outcomes if not ok] == []


def test_topology_gate_catches_wrong_fractions(monkeypatch):
    real = clustering.assignment_fractions

    def skewed(plan, depth=2):
        fr = dict(real(plan, depth))
        fr[clustering.FAST] += Fraction(1, 20)
        return fr

    monkeypatch.setattr(clustering, "assignment_fractions", skewed)
    assert failures(workloads.WORKLOADS["topology_scale"], small_topology()) == [
        "t=1 FAST fraction", "t=2 FAST fraction"
    ]


def test_topology_gate_catches_wrong_cluster_of(monkeypatch):
    monkeypatch.setattr(clustering.ClusterPlan, "cluster_of", lambda self, s: self.clusters[0])
    bad = failures(workloads.WORKLOADS["topology_scale"], small_topology())
    assert bad and all("cluster_of" in name for name in bad)


def test_zf_gate(monkeypatch):
    zf = workloads.WORKLOADS["zf_scale"]
    assert failures(zf, small_zf()) == []
    monkeypatch.setattr(
        precoding, "verify_nulling", lambda *a, **k: precoding.NullingReport(1e-3, 1, False)
    )
    assert len(failures(zf, small_zf())) == 4


def test_verify_all_gate_reads_report():
    good = "".join(f"CHECK c{i}: PASS\n" for i in range(33)) + "verify-all: 33/33 checks passed\n"
    bad = good.replace("CHECK c7: PASS", "CHECK c7: FAIL").replace("33/33", "32/33")
    check = workloads.verify_all_check
    assert [n for n, ok in check({}, {"code": 0, "report": good}) if not ok] == []
    assert [n for n, ok in check({}, {"code": 1, "report": bad}) if not ok] == [
        "CHECK c7", "verify-all exit 0", "verify-all 33/33"
    ]


def test_crashing_job_counts_as_failure():
    def boom(inputs, k):
        raise RuntimeError("injected")

    wl = workloads.Workload(lambda seed: {}, boom, lambda inputs, out: [])
    _, outcomes = worker.run_job(wl, {}, 1)
    assert [ok for _, ok in outcomes] == [False]


def test_traced_job_is_accounted_for():
    wl = workloads.WORKLOADS["topology_scale"]
    inputs = small_topology()
    originals = clustering.clusters, clustering.ClusterPlan.cluster_of
    tracer = spans.Tracer()
    wall, outcomes = worker.run_job(wl, inputs, 5, tracer)
    assert all(ok for _, ok in outcomes)
    # wrappers are gone after the job, imported aliases included
    assert (precoding.clusters, clustering.ClusterPlan.cluster_of) == originals
    assert hexmg.clusters is originals[0]

    metrics = tracer.layer_metrics({5: wall})
    self_total = sum(metrics[f"{n}.s"] for n in spans.SPAN_NAMES)
    assert self_total + metrics["trace.remainder_s"] == pytest.approx(wall, abs=1e-9)
    assert metrics["trace.remainder_s"] >= 0
    assert metrics["lattice.build_network.calls"] == 1
    assert metrics["clustering.clusters.calls"] == 2
    assert metrics["clustering.silenced_sectors.calls"] == 2
    assert metrics["clustering.cluster_of.calls"] == 2 * len(inputs["queries"])
    assert metrics["lattice.sectors"] == 3 * workloads.hex_ball_size(12)
    # silenced_sectors runs inside clusters: its time is not clusters' self time
    names = {sid: name for sid, name, *_ in tracer.spans}
    nested = [names[p] for _, name, _, _, p, _ in tracer.spans if name == "clustering.silenced_sectors"]
    assert nested == ["clustering.clusters", "clustering.clusters"]


def test_traced_zf_counts():
    tracer = spans.Tracer()
    _, outcomes = worker.run_job(workloads.WORKLOADS["zf_scale"], small_zf(), 1, tracer)
    assert all(ok for _, ok in outcomes)
    metrics = tracer.layer_metrics({1: 1.0})
    assert metrics["precoding.run_trial.calls"] == 4
    assert metrics["precoding.solvable_ratio"] == 1.0
    assert metrics["precoding.unknowns"] > 0 and metrics["precoding.constraints"] > 0
    # run_trials builds its plan through names imported into precoding
    assert metrics["clustering.clusters.calls"] == 2
    assert metrics["clustering.assign_messages.calls"] == 2


def test_facts_survive_numpy_without_config_dicts(monkeypatch):
    def old_show_config(mode=None):
        raise TypeError("show_config() got an unexpected keyword argument 'mode'")

    monkeypatch.setattr(worker.np, "show_config", old_show_config)
    assert worker.machine_facts()["blas"] == "unknown"


def test_run_refuses_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "zf_scale", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
