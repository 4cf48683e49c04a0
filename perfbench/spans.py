"""Span recorder that wraps hexmg's public functions from outside the library.

A span is ``(id, name, start, end, parent, job)``: the traced function's
``<module>.<function>`` name, its ``perf_counter`` interval, the id of the
enclosing traced call (``None`` at the top) and the index of the benchmark
job that caused it.  Spans are kept in memory and written out once, at the
end of a run.  A span's self time is its duration minus the durations of its
direct children.

Functions are wrapped where the program looks them up: every ``hexmg``
module attribute bound to a traced function is replaced, so a name imported
into another module (``clusters`` inside ``precoding``) is traced too.
Per-element helpers such as ``cell_distance`` and ``nearest_masters`` stay
unwrapped; their cost lands in the self time of their caller.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from hexmg.clustering import ClusterPlan

Counter = Callable[[object], Dict[str, int]]


def _sectors(net) -> Dict[str, int]:
    return {"lattice.sectors": len(net.sectors)}


def _clusters(plan) -> Dict[str, int]:
    return {"clustering.clusters": len(plan.clusters)}


def _zf_size(system) -> Dict[str, int]:
    return {
        "precoding.unknowns": system.n_unknowns,
        "precoding.constraints": system.n_constraints,
    }


def _trial(result) -> Dict[str, int]:
    return {"precoding.trials": 1, "precoding.solvable": int(result.solvable)}


#: (module, function) pairs traced, with the counter read off each result.
#: ``ClusterPlan.cluster_of`` is a method and is patched on the class.
TRACED: Tuple[Tuple[str, str, Optional[Counter]], ...] = (
    ("lattice", "build_network", _sectors),
    ("lattice", "tx_neighbors", None),
    ("clustering", "master_grid", None),
    ("clustering", "silenced_sectors", None),
    ("clustering", "clusters", _clusters),
    ("clustering", "fast_pattern", None),
    ("clustering", "assign_messages", None),
    ("clustering", "assignment_fractions", None),
    ("clustering", "count_links", None),
    ("clustering", "cluster_of", None),
    ("precoding", "run_trials", None),
    ("precoding", "certification_plan", None),
    ("precoding", "run_trial", _trial),
    ("precoding", "sample_channels", None),
    ("precoding", "build_zf_system", _zf_size),
    ("precoding", "solve_precoder", None),
    ("precoding", "verify_nulling", None),
    ("partitions", "partition_two", None),
    ("partitions", "partition_four", None),
    ("partitions", "census_fractions", None),
    ("regions", "inner_bound", None),
    ("regions", "outer_bound", None),
    ("regions", "is_subset", None),
    ("schedules", "schedule_two_color", None),
    ("schedules", "schedule_four_color", None),
    ("schedules", "validate_schedule", None),
    ("cli", "main", None),
)

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn, _ in TRACED)
COUNT_NAMES = (
    "lattice.sectors",
    "clustering.clusters",
    "precoding.unknowns",
    "precoding.constraints",
)


class Tracer:
    """Records spans and result counts of the wrapped calls of each job."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, Optional[int], int]] = []
        self.counts: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.job = 0
        self._stack: List[int] = []
        self._ids = itertools.count()

    def wrap(self, name: str, fn: Callable, counter: Optional[Counter]) -> Callable:
        spans, stack, counts, ids = self.spans, self._stack, self.counts, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.job))
            if counter is not None:
                for key, value in counter(result).items():
                    counts[self.job][key] += value
            return result

        return traced

    @contextmanager
    def installed(self, job: int) -> Iterator[None]:
        """Wrap every traced function for the duration of one job."""
        self.job = job
        undo: List[Tuple[object, str, object]] = []
        modules = [m for n, m in sys.modules.items() if n == "hexmg" or n.startswith("hexmg.")]
        try:
            for mod_name, fn_name, counter in TRACED:
                name = f"{mod_name}.{fn_name}"
                if fn_name == "cluster_of":
                    orig = ClusterPlan.__dict__["cluster_of"]
                    undo.append((ClusterPlan, "cluster_of", orig))
                    ClusterPlan.cluster_of = self.wrap(name, orig, counter)
                    continue
                orig = getattr(sys.modules[f"hexmg.{mod_name}"], fn_name)
                wrapper = self.wrap(name, orig, counter)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            undo.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
            yield
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    def job_self_times(self) -> Dict[int, Dict[str, float]]:
        """Per job, the summed self time of each span name."""
        child_time: Dict[int, float] = defaultdict(float)
        for _sid, _name, start, end, parent, _job in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid, name, start, end, _parent, job in self.spans:
            out[job][name] += (end - start) - child_time[sid]
        return out

    def job_calls(self) -> Dict[int, Dict[str, int]]:
        out: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for _sid, name, _start, _end, _parent, job in self.spans:
            out[job][name] += 1
        return out

    def layer_metrics(self, job_walls: Dict[int, float]) -> Dict[str, float]:
        """Per-layer medians over the traced jobs whose wall times are given.

        ``trace.remainder_s`` is the part of a traced job covered by no span
        (the benchmark's own glue), so self times plus remainder add up to
        the traced job time.
        """
        jobs = sorted(job_walls)
        selfs, calls, counts = self.job_self_times(), self.job_calls(), self.counts
        out: Dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.s"] = median(selfs[j].get(name, 0.0) for j in jobs)
            out[f"{name}.calls"] = median(calls[j].get(name, 0) for j in jobs)
        for name in COUNT_NAMES:
            out[name] = median(counts[j].get(name, 0) for j in jobs)
        out["precoding.solvable_ratio"] = median(
            counts[j]["precoding.solvable"] / counts[j]["precoding.trials"]
            if counts[j]["precoding.trials"] else 0.0
            for j in jobs
        )
        out["trace.remainder_s"] = median(job_walls[j] - sum(selfs[j].values()) for j in jobs)
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, job in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "job": job}
                    )
                    + "\n"
                )
