"""Cluster geometry for cooperative transmission.

Master cells form the triangular sublattice spanned by ``(t, t)`` and
``(2t, -t)``: one master per ``3*t**2`` cells, nearest masters ``2*t`` hops
(equivalently ``3*t`` hexagon side lengths) apart.  Selected users in cells at
hop distance exactly ``t`` from their nearest master are switched off, which
splits the interference graph into one finite cluster per master.  On top of
a cluster plan, messages are assigned either all-slow or mixed fast/slow,
where the fast sectors form an exact density-1/3 pattern with no two fast
sectors interfering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, maximum_bipartite_matching

from .lattice import Cell, Network, Sector, cell_distance, hex_ball

FAST = "FAST"
SLOW = "SLOW"
SILENT = "SILENT"

MODE_SLOW_ONLY = "SLOW_ONLY"
MODE_MIXED = "MIXED"

TX = "tx"
RX = "rx"


#: Cells at distance t from three masters split into two orientations of
#: triangle centres; the "up" ones are silenced entirely, offsets relative to
#: any of their three nearest masters.
def _up_offsets(t: int) -> FrozenSet[Cell]:
    return frozenset(((t, 0), (-t, t), (0, -t)))


def master_axes(t: int) -> Tuple[Cell, Cell, Cell]:
    """The three minimal master-to-master lattice vectors (up to sign)."""
    return ((t, t), (2 * t, -t), (t, -2 * t))


#: Orientation silenced in a border cell, keyed by the axis of the master
#: pair it separates.
_AXIS_ORIENTATION = {0: 2, 1: 1, 2: 0}


def is_master_cell(cell: Cell, t: int) -> bool:
    q, r = cell
    return (q + 2 * r) % (3 * t) == 0 and (q - r) % (3 * t) == 0


def master_grid(net: Network, t: int) -> Tuple[Cell, ...]:
    """Master cells of the lattice for parameter ``t`` (origin included)."""
    _check_t(net, t)
    return tuple(sorted(c for c in net.cells if is_master_cell(c, t)))


def _check_t(net: Network, t: int) -> None:
    if not isinstance(t, int) or t < 1:
        raise ValueError(f"t must be a positive integer, got {t!r}")
    if 3 * t > net.radius:
        raise ValueError(f"t={t} too large for lattice radius {net.radius}")


def nearest_masters(cell: Cell, t: int) -> Tuple[int, Tuple[Cell, ...]]:
    """Distance to and sorted list of nearest masters on the infinite grid."""
    q, r = cell
    af = (q + 2 * r) / (3 * t)
    bf = (q - r) / (3 * t)
    best: Optional[int] = None
    winners: List[Cell] = []
    for a in range(math.floor(af) - 1, math.floor(af) + 3):
        for b in range(math.floor(bf) - 1, math.floor(bf) + 3):
            m = ((a + 2 * b) * t, (a - b) * t)
            d = cell_distance(cell, m)
            if best is None or d < best:
                best, winners = d, [m]
            elif d == best:
                winners.append(m)
    return best, tuple(sorted(set(winners)))


def _classify_silenced(cell: Cell, t: int) -> Tuple[int, ...]:
    """Orientations silenced in ``cell`` (empty tuple for active cells)."""
    d, masters = nearest_masters(cell, t)
    if d != t:
        return ()
    if len(masters) >= 3:
        m0 = masters[0]
        off = (cell[0] - m0[0], cell[1] - m0[1])
        if off in _up_offsets(t):
            return (0, 1, 2)
        return ()
    if len(masters) == 2:
        ax = (masters[1][0] - masters[0][0], masters[1][1] - masters[0][1])
        for i, u in enumerate(master_axes(t)):
            if ax == u or ax == (-u[0], -u[1]):
                return (_AXIS_ORIENTATION[i],)
        raise RuntimeError(f"unexpected master pair axis {ax} at {cell}")
    raise RuntimeError(f"single nearest master at ring distance t: {cell}")


def _torus_silenced(t: int) -> FrozenSet[Sector]:
    """Silenced sectors of one period of the master grid, as
    ``(q mod 3t, r mod 3t, orientation)``: masters repeat every ``3t`` cells
    along both axial directions, so these 9t^2 cells decide every cell."""
    period = 3 * t
    return frozenset(
        (q, r, o)
        for q in range(period)
        for r in range(period)
        for o in _classify_silenced((q, r), t)
    )


def silenced_sectors(net: Network, t: int) -> FrozenSet[Sector]:
    """The silencing mask: sectors switched off to decouple the clusters."""
    _check_t(net, t)
    torus = _torus_silenced(t)
    period = 3 * t
    return frozenset(
        s for s in net.sectors if (s[0] % period, s[1] % period, s[2]) in torus
    )


@dataclass(frozen=True, eq=False)
class Cluster:
    """One connected block of active sectors; ``master`` is None for the
    partial clusters cut off by the lattice boundary."""

    master: Optional[Cell]
    master_user: Optional[Sector]
    sectors: FrozenSet[Sector]


@dataclass(frozen=True, eq=False)
class ClusterPlan:
    net: Network
    t: int
    masters: Tuple[Cell, ...]
    silenced: FrozenSet[Sector]
    clusters: Tuple[Cluster, ...]
    #: every active sector -> the index of its cluster in ``clusters``
    cluster_index: Dict[Sector, int]
    assignment: Optional[Dict[Sector, str]] = None
    mode: Optional[str] = None

    def cluster_of(self, sector: Sector) -> Optional[Cluster]:
        i = self.cluster_index.get(sector)
        return None if i is None else self.clusters[i]

    def interior_masters(self, margin: int = 2) -> List[Cell]:
        """Masters whose whole cluster context lies inside the lattice."""
        return [
            m
            for m in self.masters
            if cell_distance(m, (0, 0)) + self.t + margin <= self.net.radius
        ]


def _components(net: Network, active: List[Sector]) -> Tuple[int, np.ndarray]:
    """Connected components of the interference graph on the active sectors:
    their number and one label per entry of ``active``."""
    index = {s: i for i, s in enumerate(active)}
    rows: List[int] = []
    cols: List[int] = []
    for i, s in enumerate(active):
        for nb in net.tx_neighbors[s]:
            j = index.get(nb, -1)
            if j > i:  # the relation is symmetric: keep each edge once
                rows.append(i)
                cols.append(j)
    graph = csr_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(len(active), len(active))
    )
    return connected_components(graph, directed=False)


def clusters(net: Network, t: int) -> ClusterPlan:
    """Decompose the lattice into non-interfering clusters for parameter t."""
    masters = master_grid(net, t)
    silenced = silenced_sectors(net, t)
    active = [s for s in net.sectors if s not in silenced]
    n_groups, labels = _components(net, active)
    groups: List[List[Sector]] = [[] for _ in range(n_groups)]
    for s, label in zip(active, labels.tolist()):
        groups[label].append(s)

    master_set = set(masters)
    built: List[Cluster] = []
    for members in groups:
        sec = frozenset(members)
        owners = sorted({(q, r) for (q, r, _) in members if (q, r) in master_set})
        if len(owners) == 1:
            m = owners[0]
            built.append(Cluster(master=m, master_user=(m[0], m[1], 0), sectors=sec))
        elif len(owners) == 0:
            built.append(Cluster(master=None, master_user=None, sectors=sec))
        else:
            # would mean the silencing failed to cut the graph
            raise RuntimeError(f"cluster contains {len(owners)} master cells")
    built.sort(key=lambda c: (c.master is None, c.master or min(c.sectors)))

    return ClusterPlan(
        net=net,
        t=t,
        masters=masters,
        silenced=silenced,
        clusters=tuple(built),
        cluster_index={s: i for i, cl in enumerate(built) for s in cl.sectors},
    )


@lru_cache(maxsize=None)
def fast_pattern(t: int) -> FrozenSet[Sector]:
    """Periodic fast-sector pattern with exact density 1/3 and no two fast
    sectors interfering.

    The interference graph is an edge-disjoint union of triangles, two per
    sector; picking fast sectors so that every triangle contains exactly one
    is equivalent to a perfect matching of the bipartite triangle-adjacency
    graph, computed here on the 3t x 3t torus (one period of the master grid)
    with the silenced sectors' edges removed.  Pattern entries are
    ``(q mod 3t, r mod 3t, orientation)``.
    """
    period = 3 * t
    tcells = [(q, r) for q in range(period) for r in range(period)]
    silenced = _torus_silenced(t)

    def wrap(q: int, r: int) -> int:
        return (q % period) * period + r % period

    rows: List[int] = []
    cols: List[int] = []
    edge_sector: Dict[Tuple[int, int], Sector] = {}
    for (q, r) in tcells:
        for o in range(3):
            if (q, r, o) in silenced:
                continue
            if o == 0:
                i, j = wrap(q, r), wrap(q, r)
            elif o == 1:
                i, j = wrap(q - 1, r), wrap(q, r - 1)
            else:
                i, j = wrap(q - 1, r + 1), wrap(q - 1, r)
            key = (i, j)
            if key in edge_sector:
                raise RuntimeError(f"duplicate triangle edge at t={t}")
            rows.append(i)
            cols.append(j)
            edge_sector[key] = (q, r, o)

    graph = csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(period * period, period * period)
    )
    match = maximum_bipartite_matching(graph, perm_type="column")
    if (match < 0).any():
        raise RuntimeError(f"no perfect fast pattern found for t={t}")
    fast = frozenset(edge_sector[(i, int(match[i]))] for i in range(period * period))
    if len(fast) != period * period:
        raise RuntimeError(f"fast pattern degenerate for t={t}")
    return fast


def assign_messages(plan: ClusterPlan, mode: str) -> ClusterPlan:
    """Attach a message assignment (FAST / SLOW / SILENT) to a cluster plan."""
    if mode not in (MODE_SLOW_ONLY, MODE_MIXED):
        raise ValueError(f"mode must be {MODE_SLOW_ONLY!r} or {MODE_MIXED!r}")
    assignment: Dict[Sector, str] = {}
    fast = fast_pattern(plan.t) if mode == MODE_MIXED else frozenset()
    period = 3 * plan.t
    for s in plan.net.sectors:
        if s in plan.silenced:
            assignment[s] = SILENT
        elif mode == MODE_MIXED and (s[0] % period, s[1] % period, s[2]) in fast:
            assignment[s] = FAST
        else:
            assignment[s] = SLOW
    return replace(plan, assignment=assignment, mode=mode)


def _interior_region(plan: ClusterPlan) -> Tuple[Cell, List[Cell]]:
    """Pick an interior master and return it with its owned cell region.

    Cells belong to their lexicographically first nearest master, all within
    ``t`` hops of it, and ownership moves with every master translation: the
    origin master's region, shifted, is the region of any master."""
    candidates = plan.interior_masters(margin=1)
    if not candidates:
        raise ValueError(f"no interior cluster at radius {plan.net.radius}")
    m = min(candidates, key=lambda c: (cell_distance(c, (0, 0)), c))
    t = plan.t
    origin = [c for c in hex_ball(t) if nearest_masters(c, t)[1][0] == (0, 0)]
    return m, [(q + m[0], r + m[1]) for (q, r) in origin]


def count_links(plan: ClusterPlan, side: str) -> int:
    """Enumerate the conferencing links of one interior cluster.

    Links are counted directionally and attributed to the cluster owning the
    cell of their source endpoint: user-to-user links on the ``tx`` side,
    links between adjacent base stations on the ``rx`` side.
    """
    _, region = _interior_region(plan)
    if side == TX:
        return sum(
            len(plan.net.tx_neighbors[(q, r, o)])
            for (q, r) in region
            for o in range(3)
        )
    if side == RX:
        return sum(len(plan.net.rx_neighbors[c]) for c in region)
    raise ValueError(f"side must be {TX!r} or {RX!r}")


def conferencing_message_count(plan: ClusterPlan, scheme: str, m: int, side: str) -> int:
    """Number of unit-prelog conferencing messages sent per cluster."""
    if m < 1:
        raise ValueError("m must be positive")
    if side not in (TX, RX):
        raise ValueError(f"side must be {TX!r} or {RX!r}")
    t = plan.t
    if scheme == "s3":
        return 12 * m * t * t * (2 * t - 1) if side == TX else 0
    if scheme == "s4":
        if side == TX:
            return 2 * m * t * (8 * t * t + 3 * t - 2)
        return 3 * m * (3 * t * t - 1)
    if scheme == "s5":
        if side == TX:
            return 6 * m * t * (2 * t - 1)
        return m * (8 * t ** 3 + 6 * t * t + t - 3)
    raise ValueError(f"unsupported scheme {scheme!r} for message counting")


@dataclass(frozen=True)
class PrelogRequirement:
    mu_tx: Fraction
    mu_rx: Fraction

    @property
    def total(self) -> Fraction:
        return self.mu_tx + self.mu_rx


def required_prelogs(scheme: str, t: int, m: int) -> PrelogRequirement:
    """Per-link cooperation prelogs each scheme needs, as exact rationals."""
    if not isinstance(t, int) or t < 1:
        raise ValueError(f"t must be a positive integer, got {t!r}")
    if m < 1:
        raise ValueError("m must be positive")
    if scheme == "s1":
        return PrelogRequirement(Fraction(0), Fraction(0))
    if scheme == "s2":
        return PrelogRequirement(Fraction(0), Fraction(m * (2 * t - 1), 3))
    if scheme == "s3":
        return PrelogRequirement(Fraction(m * (2 * t - 1), 3), Fraction(0))
    if scheme == "s4":
        return PrelogRequirement(
            Fraction(2 * m * t * (8 * t * t + 3 * t - 2), 36 * t * t),
            Fraction(3 * m * (3 * t * t - 1), 18 * t * t),
        )
    if scheme == "s5":
        return PrelogRequirement(
            Fraction(6 * m * t * (2 * t - 1), 36 * t * t),
            Fraction(m * (8 * t ** 3 + 6 * t * t + t - 3), 18 * t * t),
        )
    raise ValueError(f"unknown scheme {scheme!r}")


def assignment_fractions(plan: ClusterPlan, depth: int = 2) -> Dict[str, Fraction]:
    """Census of role fractions over the interior sectors."""
    if plan.assignment is None:
        raise ValueError("plan has no assignment; call assign_messages first")
    counts = {FAST: 0, SLOW: 0, SILENT: 0}
    total = 0
    for (q, r, o), role in plan.assignment.items():
        if plan.net.is_interior_cell((q, r), depth):
            counts[role] += 1
            total += 1
    if total == 0:
        raise ValueError("no interior sectors at this radius")
    return {role: Fraction(n, total) for role, n in counts.items()}
