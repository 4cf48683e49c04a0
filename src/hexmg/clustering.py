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
from collections.abc import Mapping
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, maximum_bipartite_matching

from .lattice import Cell, Network, Sector, SectorMap, SectorSet, cell_distance, cell_index, hex_ball

FAST = "FAST"
SLOW = "SLOW"
SILENT = "SILENT"
#: role names by code, as stored in ``ClusterPlan.roles``
ROLES = (FAST, SLOW, SILENT)

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
    """Whether ``cell = (q, r)`` is a master; elementwise when ``q`` and ``r``
    are arrays."""
    q, r = cell
    return ((q + 2 * r) % (3 * t) == 0) & ((q - r) % (3 * t) == 0)


def master_grid(net: Network, t: int) -> Tuple[Cell, ...]:
    """Master cells of the lattice for parameter ``t`` (origin included), sorted."""
    _check_t(net, t)
    is_master = is_master_cell((net.q, net.r), t)
    return tuple(zip(net.q[is_master].tolist(), net.r[is_master].tolist()))


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


def _torus_index(net: Network, t: int) -> np.ndarray:
    """Per cell: its torus cell ``(q mod 3t)·3t + (r mod 3t)``."""
    period = 3 * t
    return (net.q % period) * period + net.r % period


def _torus_silenced(t: int) -> np.ndarray:
    """Silenced orientations of one period of the master grid, a
    ``(9t^2, 3)`` boolean table with row ``(q mod 3t)·3t + (r mod 3t)``:
    masters repeat every ``3t`` cells along both axial directions, so these
    9t^2 cells decide every cell."""
    period = 3 * t
    table = np.zeros((period * period, 3), dtype=bool)
    for q in range(period):
        for r in range(period):
            table[q * period + r, list(_classify_silenced((q, r), t))] = True
    return table


def silenced_sectors(net: Network, t: int) -> SectorSet:
    """The silencing mask: sectors switched off to decouple the clusters."""
    _check_t(net, t)
    return SectorSet(net, _torus_silenced(t)[_torus_index(net, t)].ravel())


class UncutLatticeError(RuntimeError):
    """A cluster holds more than one master: the silencing failed to cut it."""


@dataclass(frozen=True, eq=False)
class Cluster:
    """One connected block of active sectors; ``master`` is None for the
    partial clusters cut off by the lattice boundary."""

    master: Optional[Cell]
    master_user: Optional[Sector]
    #: ``labels`` is the plan's ``cluster_ids`` and ``label`` the cluster's index
    sectors: SectorSet


@dataclass(frozen=True, eq=False)
class ClusterPlan:
    net: Network
    t: int
    masters: Tuple[Cell, ...]
    silenced: SectorSet
    clusters: Tuple[Cluster, ...]
    #: per sector id: the index of its cluster in ``clusters``, -1 if silenced
    cluster_ids: np.ndarray
    #: per sector id: the index of its role in ``ROLES`` (``assign_messages``)
    roles: Optional[np.ndarray] = None
    mode: Optional[str] = None

    @property
    def assignment(self) -> Optional[Mapping]:
        """``sector -> FAST / SLOW / SILENT``, read off ``roles``; a view for the
        CLI, tests, demos and perfbench, which the library does not read."""
        if self.roles is None:
            return None
        return SectorMap(self.net, lambda i: ROLES[self.roles[i]])

    def cluster_of(self, sector: Sector) -> Optional[Cluster]:
        i = self.net.sector_id.get(sector)
        if i is None:
            return None
        c = self.cluster_ids[i]
        return None if c < 0 else self.clusters[c]

    def interior_masters(self, margin: int = 2) -> List[Cell]:
        """Masters whose whole cluster context lies inside the lattice."""
        ids = _interior_master_ids(self, margin)
        return list(zip(self.net.q[ids].tolist(), self.net.r[ids].tolist()))


def _interior_master_ids(plan: ClusterPlan, margin: int) -> np.ndarray:
    """Cell ids of the masters at least ``t + margin`` hops from the boundary."""
    net = plan.net
    return np.flatnonzero(is_master_cell((net.q, net.r), plan.t) & net.interior_mask(plan.t + margin))


def clusters(net: Network, t: int) -> ClusterPlan:
    """Decompose the lattice into non-interfering clusters for parameter t."""
    masters = master_grid(net, t)
    silenced = silenced_sectors(net, t)
    n = len(net.sectors)
    active = ~silenced.labels
    src, dst = net.directed_edges()
    # the coupling is symmetric: keep each edge between active sectors once
    keep = (dst > src) & active[src] & active[dst]
    graph = csr_matrix(
        (np.ones(np.count_nonzero(keep), dtype=np.int8), (src[keep], dst[keep])), shape=(n, n)
    )
    labels = connected_components(graph, directed=False)[1]

    # active sector ids grouped by component, ascending within each group
    ids = np.flatnonzero(active)
    ids = ids[np.argsort(labels[ids], kind="stable")]
    new_group = np.diff(labels[ids], prepend=-1) != 0
    first = np.flatnonzero(new_group)
    group = np.cumsum(new_group) - 1

    # any sector of a master cell makes that master the group's owner
    cell = ids // 3
    owned = is_master_cell((net.q, net.r), t)[cell]
    pairs = np.unique(group[owned] * len(net.q) + cell[owned])
    owning_group, owner_cell = np.divmod(pairs, len(net.q))
    per_group = np.bincount(owning_group, minlength=len(first))
    if (per_group > 1).any():
        raise UncutLatticeError(f"cluster contains {per_group.max()} master cells")
    owner = np.full(len(first), -1)
    owner[owning_group] = owner_cell

    # masters in cell order, then the partial clusters by their first sector
    # (sector and cell ids sort like the tuples they stand for)
    rank = np.lexsort((np.where(owner >= 0, owner, ids[first]), owner < 0))
    position = np.empty(len(first), dtype=np.intp)
    position[rank] = np.arange(len(first))
    cluster_ids = np.full(n, -1, dtype=np.intp)
    cluster_ids[ids] = position[group]
    stop = np.append(first[1:], len(ids))
    spans = zip(first[rank].tolist(), stop[rank].tolist(), owner[rank].tolist())
    built = []
    for i, (a, b, c) in enumerate(spans):
        user = net.sectors[3 * c] if c >= 0 else None
        sectors = SectorSet(net, cluster_ids, i, ids[a:b])
        built.append(Cluster(None if user is None else user[:2], user, sectors))

    return ClusterPlan(net, t, masters, silenced, tuple(built), cluster_ids)


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
            if silenced[q * period + r, o]:
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

    graph = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(period * period,) * 2)
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
    period = 3 * plan.t
    torus = np.full((period * period, 3), ROLES.index(SLOW), dtype=np.int8)
    if mode == MODE_MIXED:
        for (q, r, o) in fast_pattern(plan.t):
            torus[q * period + r, o] = ROLES.index(FAST)
    roles = torus[_torus_index(plan.net, plan.t)].ravel()
    roles[plan.silenced.labels] = ROLES.index(SILENT)
    return replace(plan, roles=roles, mode=mode)


def _interior_region(plan: ClusterPlan) -> Tuple[Cell, List[Cell]]:
    """Pick an interior master and return it with its owned cell region.

    Cells belong to their lexicographically first nearest master, all within
    ``t`` hops of it, and ownership moves with every master translation: the
    origin master's region, shifted, is the region of any master."""
    net, t = plan.net, plan.t
    ids = _interior_master_ids(plan, margin=1)
    if not len(ids):
        raise ValueError(f"no interior cluster at radius {net.radius}")
    i = ids[np.argmin(net.hops[ids])]  # the nearest to the origin; ties go to the first cell
    m = (int(net.q[i]), int(net.r[i]))
    origin = [c for c in hex_ball(t) if nearest_masters(c, t)[1][0] == (0, 0)]
    return m, [(q + m[0], r + m[1]) for (q, r) in origin]


def count_links(plan: ClusterPlan, side: str) -> int:
    """Enumerate the conferencing links of one interior cluster.

    Links are counted directionally and attributed to the cluster owning the
    cell of their source endpoint: user-to-user links on the ``tx`` side,
    links between adjacent base stations on the ``rx`` side.
    """
    _, region = _interior_region(plan)
    net = plan.net
    cell = cell_index(net.radius, *np.array(region).T)
    if side == TX:
        return int(np.count_nonzero(net.nbr.reshape(len(net.q), -1)[cell] >= 0))
    if side == RX:
        return int(np.count_nonzero(net.adjacent(cell) >= 0))
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
    if plan.roles is None:
        raise ValueError("plan has no assignment; call assign_messages first")
    interior = plan.roles.reshape(-1, 3)[plan.net.interior_mask(depth)]
    if interior.size == 0:
        raise ValueError("no interior sectors at this radius")
    counts = np.bincount(interior.ravel(), minlength=len(ROLES)).tolist()
    return {role: Fraction(n, interior.size) for role, n in zip(ROLES, counts)}
