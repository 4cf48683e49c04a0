"""The benchmark's three workloads: inputs from a seed, one job, its checks.

Every workload is a closed loop driven by one client: a job runs to
completion before the next one starts.  A job calls hexmg only through its
public module attributes (``lattice.build_network``, not an imported name),
so the span recorder can wrap each call.  ``check`` judges a job's outputs
against references computed here, never against the formula in hexmg that
produced them; each ``(name, ok)`` pair it returns is one operation.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from hexmg import cli, clustering, lattice, partitions, precoding

Outcome = Tuple[str, bool]

TOL_FRACTION = Fraction(1, 50)
ZF_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int], dict]
    job: Callable[[dict, int], dict]
    check: Callable[[dict, dict], List[Outcome]]


# ---------------------------------------------------------------------------
# verify_all: the ROADMAP's end-to-end command, every module at once


def verify_all_inputs(seed: int) -> dict:
    return {"argv": ["verify-all", "--radius", "30", "--seed", str(seed)]}


def verify_all_job(inputs: dict, k: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(inputs["argv"])
    return {"code": code, "report": buf.getvalue()}


def verify_all_check(inputs: dict, out: dict) -> List[Outcome]:
    lines = out["report"].splitlines()
    checks = [ln for ln in lines if ln.startswith("CHECK ")]
    outcomes = [(ln.split(":")[0], ": PASS" in ln) for ln in checks]
    summary = lines[-1] if lines else ""
    outcomes.append(("verify-all exit 0", out["code"] == 0))
    outcomes.append(("verify-all 33/33", len(checks) == 33 and summary == "verify-all: 33/33 checks passed"))
    return outcomes


# ---------------------------------------------------------------------------
# topology_scale: lattice, clustering and partitions at a large radius


def hex_ball_size(radius: int) -> int:
    return 3 * radius * radius + 3 * radius + 1


#: One ``cluster_of`` / ``tx_neighbors`` point query per this many sectors
#: (a 2 % sample).  At R=120 that is 2,614 queries per t.  ``cluster_of``
#: as first written scans the cluster list, so the queries take about a
#: quarter of the traced job (measured in README.md): enough for a faster
#: lookup to move ``wall_s``.
SECTORS_PER_QUERY = 50


def topology_inputs(seed: int, radius: int = 120, ts: Tuple[int, ...] = (1, 4)) -> dict:
    """Uniform random sectors of the ball, drawn by rejection from the
    bounding square, for the ``cluster_of`` / ``tx_neighbors`` point queries."""
    queries = 3 * hex_ball_size(radius) // SECTORS_PER_QUERY
    rng = random.Random(seed)
    points = []
    while len(points) < queries:
        q, r = rng.randint(-radius, radius), rng.randint(-radius, radius)
        if max(abs(q), abs(r), abs(q + r)) <= radius:
            points.append((q, r, rng.randrange(3)))
    return {"radius": radius, "ts": ts, "queries": points}


def topology_job(inputs: dict, k: int) -> dict:
    net = lattice.build_network(inputs["radius"])
    per_t = {}
    for t in inputs["ts"]:
        plan = clustering.assign_messages(clustering.clusters(net, t), clustering.MODE_MIXED)
        per_t[t] = {
            "plan": plan,
            "fractions": clustering.assignment_fractions(plan),
            "links": (clustering.count_links(plan, clustering.TX),
                      clustering.count_links(plan, clustering.RX)),
            "cluster_of": [plan.cluster_of(s) for s in inputs["queries"]],
            "tx": [lattice.tx_neighbors(net, s) for s in inputs["queries"]],
        }
    two = partitions.partition_two(net)
    four = partitions.partition_four(net, 3)
    return {
        "net": net,
        "per_t": per_t,
        "census_two": partitions.census_fractions(net, two),
        "census_four": partitions.census_fractions(net, four),
    }


#: Limiting colour densities of the two partitions (four-colour with d=3,
#: sublattice index 13), stated here independently of ``fraction_limits``.
CENSUS_REFERENCE = {
    "two": {"RED": Fraction(1, 2), "WHITE": Fraction(1, 2)},
    "four": {"RED": Fraction(1, 26), "BLUE": Fraction(1, 26),
             "PINK": Fraction(3, 13), "WHITE": Fraction(9, 13)},
}


def _hops(a, b) -> int:
    dq, dr = a[0] - b[0], a[1] - b[1]
    return max(abs(dq), abs(dr), abs(dq + dr))


def topology_check(inputs: dict, out: dict) -> List[Outcome]:
    radius = inputs["radius"]
    net = out["net"]
    outcomes = [("sector count", len(net.sectors) == 3 * hex_ball_size(radius))]
    for t, res in out["per_t"].items():
        plan = res["plan"]
        by_master = {cl.master: cl for cl in plan.clusters if cl.master is not None}
        sizes_ok = all(
            m in by_master and len(by_master[m].sectors) == 9 * t * t - 3 * t
            for m in plan.interior_masters()
        )
        outcomes.append((f"t={t} interior cluster sizes", sizes_ok and bool(by_master)))
        reference = {"SILENT": Fraction(1, 3 * t), "FAST": Fraction(1, 3),
                     "SLOW": Fraction(2 * t - 1, 3 * t)}
        for role, want in reference.items():
            got = res["fractions"].get(role)
            outcomes.append((f"t={t} {role} fraction", got is not None and abs(got - want) <= TOL_FRACTION))
        outcomes.append((f"t={t} tx links", res["links"][0] == 36 * t * t))
        outcomes.append((f"t={t} rx links", res["links"][1] == 18 * t * t))
        for s, cl in zip(inputs["queries"], res["cluster_of"]):
            ok = cl is None if s in plan.silenced else (cl is not None and s in cl.sectors)
            outcomes.append((f"t={t} cluster_of {s}", ok))
    # tx_neighbors answers are the same for every t; check the first.
    first = next(iter(out["per_t"].values()))
    for s, nbrs in zip(inputs["queries"], first["tx"]):
        interior = _hops(s, (0, 0)) <= radius - 1
        ok = (
            (len(nbrs) == 4 if interior else len(nbrs) <= 4)
            and all(_hops(s, n) == 1 and s in net.tx_neighbors[n] for n in nbrs)
        )
        outcomes.append((f"tx_neighbors {s}", ok))
    interior_cells = hex_ball_size(radius - 2)
    for kind in ("two", "four"):
        rows = out[f"census_{kind}"]
        reference = CENSUS_REFERENCE[kind]
        ok = (
            sum(row.count for row in rows) == interior_cells
            and {row.color for row in rows} == set(reference)
            and all(abs(Fraction(row.count, interior_cells) - reference[row.color]) <= TOL_FRACTION
                    for row in rows)
        )
        outcomes.append((f"census {kind}", ok))
    return outcomes


# ---------------------------------------------------------------------------
# zf_scale: zero-forcing certification at sizes where solve and verify weigh

#: (scheme, t, m): s4 t=4 m=3 is verification-bound, the s5 points are
#: solve-bound.
ZF_POINTS: Tuple[Tuple[str, int, int], ...] = (("s4", 4, 3), ("s5", 4, 3), ("s5", 6, 1))


def zf_inputs(seed: int, points=ZF_POINTS, trials: int = 1) -> dict:
    return {"seed": seed, "points": points, "trials": trials}


def zf_job(inputs: dict, k: int) -> dict:
    trials = inputs["trials"]
    base = inputs["seed"] * 1_000_000 + k * trials
    return {
        point: precoding.run_trials(point[1], point[2], trials, seed=base,
                                    scheme=point[0], tol=ZF_TOL)
        for point in inputs["points"]
    }


def zf_check(inputs: dict, out: Dict[tuple, list]) -> List[Outcome]:
    outcomes = []
    for (scheme, t, m), results in out.items():
        outcomes.append((f"{scheme} t={t} m={m} trial count", len(results) == inputs["trials"]))
        for r in results:
            ok = r.solvable and r.min_self_rank == m and r.max_cross_residual <= ZF_TOL
            outcomes.append((f"{scheme} t={t} m={m} seed={r.seed}", ok))
    return outcomes


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    "verify_all": Workload(verify_all_inputs, verify_all_job, verify_all_check),
    "topology_scale": Workload(topology_inputs, topology_job, topology_check),
    "zf_scale": Workload(zf_inputs, zf_job, zf_check),
}
