"""hexmg benchmark: one workload, one seed, one run; prints every metric.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` prints the per-layer metrics from a traced
run.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
name each metric with its unit, the fail ratio and the machine facts.  A
full record of the run, and the spans of a traced run, go to ``.bench_out/``.

The workload itself runs in a fresh child interpreter (``worker.py``) with
BLAS pinned to one thread.  ``setup_s`` is the median time for a fresh
interpreter to finish ``import hexmg.cli``, over ``SETUP_PROBES`` launches.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify_all", "topology_scale", "zf_scale")
SETUP_PROBES = 5
BLAS_THREADS = "1"
#: Whole run, set-up probes included, must end well inside 180 s.
RUN_TIMEOUT_S = 170


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    return env


def measure_setup(env: Dict[str, str], deadline: float) -> List[float]:
    """Wall times of fresh interpreters importing ``hexmg.cli``; the first,
    untimed launch writes the bytecode cache as any first command would."""
    times = []
    for i in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import hexmg.cli"], env=env, cwd=ROOT)
        # A blocking wait: Popen.wait(timeout) polls and rounds up to 50 ms.
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)
        if i:
            times.append(time.perf_counter() - start)
    return times


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def spread(values: List[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.4f}, q3 {q3:.4f}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "hexmg" / "__init__.py").is_file():
        print(f"perfbench: no hexmg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = child_env()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup = [] if args.trace else measure_setup(env, deadline)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--spans", str(out_dir / f"{stem}-spans.jsonl")]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              check=True, timeout=max(1.0, deadline - time.monotonic()))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    walls = res["walls"]
    n_failed = len(res["failed"])
    lines = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
             f"{len(walls)} timed jobs after 1 warm-up"]
    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in res["layer"].items()}
        notes = {"trace.job_s": f"median; {spread(res['traced_walls'])}"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        notes = {"wall_s": f"median; {spread(walls)}", "setup_s": f"median; {spread(setup)}"}
    for name, m in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        lines.append(f"{name} {m['value']:.6g} {m['unit']}{note}")
    lines.append(f"fail_ratio {n_failed / res['attempted']:.6f} ({n_failed} of {res['attempted']} operations failed)")
    lines += [f"failed: {name}" for name in res["failed"][:20]]
    lines.append("facts " + json.dumps(res["facts"], sort_keys=True))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_probes": setup, **res, "metrics": metrics}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps({"correct": n_failed == 0, "attempted": res["attempted"],
                      "failed": n_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
