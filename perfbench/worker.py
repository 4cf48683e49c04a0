"""Runs one workload in a fresh interpreter and prints its result as JSON.

Started by ``run.py`` once per run, so that memory, the ``fast_pattern``
cache and imported state never carry over from another workload.  After one
untimed warm-up job it times jobs back to back until ``--seconds`` have
passed and at least ``MIN_JOBS`` were timed.  With ``--trace 1`` every timed
untraced job is followed by a traced one; the per-layer numbers come from
the traced jobs and the overhead is the difference of the two medians.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy

import hexmg.clustering
from spans import Tracer
from workloads import WORKLOADS, Outcome, Workload

MIN_JOBS = 3

# Captured before any wrapping, so the cache can be cleared while traced.
_FAST_PATTERN = hexmg.clustering.fast_pattern


def run_job(
    workload: Workload, inputs: dict, k: int, tracer: Optional[Tracer] = None
) -> Tuple[float, List[Outcome]]:
    """Time job ``k`` and check its outputs (the check is not timed).

    Each job starts as a fresh command would: with an empty ``fast_pattern``
    cache and no garbage left by the previous job.
    """
    _FAST_PATTERN.cache_clear()
    gc.collect()
    with tracer.installed(k) if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            out = workload.job(inputs, k)
        except Exception as exc:  # a crashing job is a failed operation
            traceback.print_exc()
            return time.perf_counter() - start, [(f"job {k} raised {exc!r}", False)]
        wall = time.perf_counter() - start
    return wall, workload.check(inputs, out)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    """BLAS name and version; numpy before 1.25 cannot report them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        return "unknown"


def machine_facts() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file to write the traced spans to")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    tracer = Tracer() if args.trace else None

    _, outcomes = run_job(workload, inputs, 0)
    walls: List[float] = []
    traced: Dict[int, float] = {}
    k = 1
    deadline = time.perf_counter() + args.seconds
    while len(walls) < MIN_JOBS or time.perf_counter() < deadline:
        wall, checked = run_job(workload, inputs, k)
        walls.append(wall)
        outcomes += checked
        k += 1
        if tracer is not None:
            traced[k], checked = run_job(workload, inputs, k, tracer)
            outcomes += checked
            k += 1

    result = {
        "walls": walls,
        "attempted": len(outcomes),
        "failed": [name for name, ok in outcomes if not ok],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "facts": machine_facts(),
    }
    if tracer is not None:
        layer = tracer.layer_metrics(traced)
        layer["trace.job_s"] = statistics.median(traced.values())
        layer["trace.overhead_s"] = layer["trace.job_s"] - statistics.median(walls)
        result["traced_walls"] = list(traced.values())
        result["layer"] = layer
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
