"""Cluster geometry for cooperative transmission.

Master cells form the triangular sublattice spanned by ``(t, t)`` and
``(2t, -t)``: one master per ``3*t**2`` cells, nearest masters ``2*t`` hops
(equivalently ``3*t`` hexagon side lengths) apart.  Switching off selected
users in the cells exactly ``t`` hops from their nearest masters splits the
interference graph into one finite cluster per master, each a translate of
the origin master's.  Messages are assigned all-slow or mixed; the mixed
mode's fast sectors have density exactly 1/3, no two of them interfere, and
every cluster lays them out alike.

The geometry is periodic in the 3t x 3t torus of the master grid and is
stated once, as arrays over its rows ``(q mod 3t)·3t + (r mod 3t)``: the
nearest masters, the silencing and the fast pattern, a read-only
``(9t^2, 3)`` boolean table.  So the role rule (``role_codes``) and the
link counts (``cluster_link_count``) need no cluster plan.

A ``ClusterPlan`` states everything per sector id: ``cluster_ids`` the
cluster, ``roles`` the role code, and each ``Cluster.sectors`` the
cluster's ascending ids.  Sector tuples appear only where a caller passes
one in (``cluster_of``, set membership) or iterates a set.  ``clusters``
builds every ``Cluster`` of the lattice, each the connected component of
its active sectors: it lays out the clusters the boundary leaves whole by
translating the origin cluster, and finds the cut ones by components; a
silencing whose translates do not tile is refused before any search.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from .lattice import (
    NEIGHBOR_RULE,
    NUM_ORIENTATIONS,
    Cell,
    Network,
    Sector,
    SectorSet,
    cell_distance,
    cell_index,
)
from .schemes import MODE_MIXED, MODE_SLOW_ONLY, UncutLatticeError, positive_int

FAST = "FAST"
SLOW = "SLOW"
SILENT = "SILENT"
#: role names by code, as stored in ``ClusterPlan.roles``
ROLES = (FAST, SLOW, SILENT)

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
    if 3 * positive_int("t", t) > net.radius:
        raise ValueError(f"t={t} too large for lattice radius {net.radius}")


def _torus_index(q: np.ndarray, r: np.ndarray, t: int) -> np.ndarray:
    """Per cell ``(q, r)``: its torus cell ``(q mod 3t)·3t + (r mod 3t)``."""
    period = 3 * t
    return (q % period) * period + r % period


def _torus_rows(table: np.ndarray, net: Network, t: int) -> np.ndarray:
    """Per sector id: its entry in ``table``, a ``(9t^2, 3)`` array over the
    torus rows and orientations."""
    # np.take copies whole rows, several times faster than fancy indexing
    return np.take(table, _torus_index(net.q, net.r, t), axis=0).ravel()


def _torus_nearest(t: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per torus row: the hop distance to the cell's nearest masters, their
    number, and the cell's offsets ``(dq, dr)`` from the lexicographically
    first and last of them.  Every 3t-cell axial shift is a master
    translation, so these rows decide every cell.  The masters
    ``((a + 2b)t, (a - b)t)``, -1 <= a <= 4 and -2 <= b <= 2, hold the 4 x 4
    window of ``(a, b)`` around each period cell's fractional master
    coordinates, and with it all its nearest masters."""
    period = 3 * t
    q, r = np.divmod(np.arange(period * period), period)
    a, b = np.mgrid[-1:5, -2:3].reshape(2, -1)
    mq, mr = (a + 2 * b) * t, (a - b) * t
    order = np.lexsort((mr, mq))
    mq, mr = mq[order], mr[order]
    dist = cell_distance((q[:, None], r[:, None]), (mq, mr))
    nearest = dist == dist.min(axis=1, keepdims=True)
    first = nearest.argmax(axis=1)
    last = len(mq) - 1 - nearest[:, ::-1].argmax(axis=1)
    cell, master = np.column_stack([q, r]), np.column_stack([mq, mr])
    return dist.min(axis=1), nearest.sum(axis=1), cell - master[first], cell - master[last]


def _torus_silenced(t: int) -> np.ndarray:
    """Silenced orientations per torus row, a ``(9t^2, 3)`` boolean table: a
    cell t hops from its nearest masters is silenced entirely if it is an
    "up" triangle centre of three, and in ``_AXIS_ORIENTATION``'s orientation
    if it lies between two.  The tests apply that rule cell by cell."""
    dist, count, first, last = _torus_nearest(t)
    border = dist == t
    if (border & (count == 1)).any():
        raise RuntimeError(f"single nearest master at ring distance t={t}")

    table = np.zeros((len(dist), 3), dtype=bool)
    up = (first[:, None] == list(_up_offsets(t))).all(axis=2).any(axis=1)
    table[border & (count >= 3) & up] = True
    pair = border & (count == 2)
    # the sorted pair's axis is one of master_axes itself, never its negative
    for i, u in enumerate(master_axes(t)):
        table[pair & (first - last == u).all(axis=1), _AXIS_ORIENTATION[i]] = True
    if not table[pair].any(axis=1).all():
        raise RuntimeError(f"unexpected master pair axis at t={t}")
    return table


def silenced_sectors(net: Network, t: int) -> SectorSet:
    """The silencing mask: sectors switched off to decouple the clusters."""
    _check_t(net, t)
    return SectorSet(net, _torus_rows(_torus_silenced(t), net, t))


def _origin_cluster(t: int, silenced: np.ndarray) -> Optional[np.ndarray]:
    """The origin master's cluster under the ``_torus_silenced(t)`` table
    ``silenced``: its sectors' ``(dq, dr, o)`` rows, in ``(q, r, o)`` order.

    Every cluster is a translate of the origin master's, which a search from
    the master's first sector collects, and one period holds the three
    masters ``(0, 0)``, ``(t, t)`` and ``(2t, 2t)``.  None unless that
    cluster ends within ``3t`` hops and its three translates claim every
    active sector of the period once."""
    period = 3 * t
    seen = {(0, 0, 0)}
    stack = [(0, 0, 0)]
    while stack:
        q, r, o = stack.pop()
        for dq, dr, o2 in NEIGHBOR_RULE[o]:
            s = (q + dq, r + dr, o2)
            if s in seen or silenced[(s[0] % period) * period + s[1] % period, o2]:
                continue
            if cell_distance((s[0], s[1]), (0, 0)) > period:
                return None
            seen.add(s)
            stack.append(s)
    cluster = np.array(sorted(seen))
    dq, dr, o = cluster.T
    claims = np.zeros((period * period, 3), dtype=np.intp)
    for mq, mr in ((0, 0), (t, t), (2 * t, 2 * t)):
        np.add.at(claims, (((mq + dq) % period) * period + (mr + dr) % period, o), 1)
    if not np.array_equal(claims, ~silenced):
        return None
    return cluster


def _whole_clusters(net: Network, t: int, master_cells: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The clusters the boundary leaves whole, laid out by translation: the
    indices into ``master_cells`` of their masters, and a ``(clusters,
    size)`` array of each one's ascending sector ids.

    Every cluster is a translate of the origin master's (``_origin_cluster``
    on the ``_torus_silenced`` table; the tests check, per t, that no edge
    between active sectors joins two masters), and one whose master lies a
    cluster radius inside the ball is whole.  A translation keeps the
    ``(q, r, o)`` order, which sector ids follow, so the origin cluster's
    rows, shifted by each master, give its ids in ascending order.
    ``UncutLatticeError`` if the translates do not tile the torus."""
    cluster = _origin_cluster(t, _torus_silenced(t))
    if cluster is None:
        raise UncutLatticeError(
            f"the silencing at t={t} does not cut the lattice into translates of one cluster")
    dq, dr, o = cluster.T
    radius = net.radius
    mq, mr = net.q[master_cells], net.r[master_cells]
    whole = np.flatnonzero(
        cell_distance((mq, mr), (0, 0)) <= radius - cell_distance((dq, dr), (0, 0)).max()
    )
    # cell ids run up each column: the id of (q, r) is column q's id at r = 0, plus r
    column = NUM_ORIENTATIONS * cell_index(radius, np.arange(-radius, radius + 1), 0)
    mq, mr = mq[whole, None] + radius, NUM_ORIENTATIONS * mr[whole, None]
    return whole, column[mq + dq] + mr + (NUM_ORIENTATIONS * dr + o)


def _component_labels(net: Network, active: np.ndarray) -> np.ndarray:
    """Per sector id: for an ``active`` sector, the least id of its connected
    component among the active sectors; for any other, its own id.  Min-label
    propagation with pointer jumping over ``nbr``."""
    labels = np.arange(len(active))
    ids = np.flatnonzero(active)
    src = np.repeat(ids, net.nbr.shape[1])
    dst = net.nbr[ids].ravel()
    keep = (dst >= 0) & active[dst]
    src, dst = src[keep], dst[keep]
    while True:
        a, b = labels[src], labels[dst]
        differ = a != b
        if not differ.any():
            return labels
        # hook the larger root of each edge under the smaller, then jump
        # pointers until every label is a root again
        np.minimum.at(labels, np.maximum(a, b)[differ], np.minimum(a, b)[differ])
        while True:
            up = labels[labels[ids]]
            if np.array_equal(up, labels[ids]):
                break
            labels[ids] = up


class Cluster:
    """One connected block of active sectors; ``master`` is None for the
    partial clusters cut off by the lattice boundary.  Immutable, and equal
    only to itself; ``clusters`` builds thousands, so it has slots."""

    __slots__ = ("master", "sectors")
    master: Optional[Cell]
    #: ``labels`` is the plan's ``cluster_ids`` and ``label`` the cluster's index
    sectors: SectorSet

    def __init__(self, master: Optional[Cell], sectors: SectorSet) -> None:
        _set_master(self, master)
        _set_sectors(self, sectors)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Cluster, (self.master, self.sectors)

    def __repr__(self) -> str:
        return f"Cluster(master={self.master!r}, sectors={self.sectors!r})"


# the slot descriptors store a field past the frozen ``__setattr__``
_set_master = Cluster.master.__set__
_set_sectors = Cluster.sectors.__set__


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

    def cluster_of(self, sector: Sector) -> Optional[Cluster]:
        i = self.net.id_of(sector)
        if i is None:
            return None
        c = self.cluster_ids.item(i)
        return None if c < 0 else self.clusters[c]

    def interior_masters(self) -> List[Cell]:
        """Masters whose whole cluster context lies inside the lattice: at
        least ``t + 2`` hops from the boundary."""
        net = self.net
        inside = is_master_cell((net.q, net.r), self.t) & net.interior_mask(self.t + 2)
        return list(zip(net.q[inside].tolist(), net.r[inside].tolist()))


def clusters(net: Network, t: int) -> ClusterPlan:
    """Decompose the lattice into non-interfering clusters for parameter t;
    ``UncutLatticeError`` unless the silencing tiles it (``_whole_clusters``)."""
    masters = master_grid(net, t)
    silenced = silenced_sectors(net, t)
    is_master = is_master_cell((net.q, net.r), t)
    master_cells = np.flatnonzero(is_master)
    whole, whole_ids = _whole_clusters(net, t, master_cells)
    loose = ~silenced.labels
    loose[whole_ids] = False

    # the loose sector ids grouped by component, ascending within each group
    labels = _component_labels(net, loose)
    ids = np.flatnonzero(loose)
    ids = ids[np.argsort(labels[ids], kind="stable")]
    new_group = np.diff(labels[ids], prepend=-1) != 0
    first = np.flatnonzero(new_group)
    group = np.cumsum(new_group) - 1

    # per cluster, whole ones first: its master's index in ``masters``, or -1.
    # Any sector of a master cell makes that master the group's owner; the
    # tiling puts each group inside one translate, so it holds at most one.
    cell = ids // 3
    owned = is_master[cell]
    at = np.full(len(whole) + len(first), -1)
    at[: len(whole)] = whole
    at[len(whole) + group[owned]] = np.searchsorted(master_cells, cell[owned])

    # masters in cell order, then the partial clusters without one.  A sort
    # by master alone keeps the groups' own order, which is by first sector
    # (sector ids sort like the tuples they stand for), among the clusters
    # without one and those cut by the lattice boundary sharing a master cell.
    rank = np.lexsort((at, at < 0))
    position = np.empty(len(rank), dtype=np.intp)
    position[rank] = np.arange(len(rank))
    cluster_ids = np.full(len(net.nbr), -1, dtype=np.intp)
    cluster_ids[whole_ids] = position[: len(whole), None]
    cluster_ids[ids] = position[len(whole) + group]
    stop = np.append(first[1:], len(ids))
    spans = list(whole_ids) + [ids[a:b] for a, b in zip(first.tolist(), stop.tolist())]
    cells = masters + (None,)
    built = tuple(
        Cluster(cells[k], SectorSet(net, cluster_ids, i, spans[j]))
        for i, (j, k) in enumerate(zip(rank.tolist(), at[rank].tolist()))
    )
    return ClusterPlan(net, t, masters, silenced, built, cluster_ids)


@lru_cache(maxsize=None)
def fast_pattern(t: int) -> np.ndarray:
    """Periodic fast-sector pattern with exact density 1/3, no two fast
    sectors interfering and the same layout in every cluster: a ``(9t^2, 3)``
    boolean table in ``_torus_silenced``'s rows, true at the fast sectors.

    The interference graph is an edge-disjoint union of triangles, two per
    sector; picking fast sectors so that every triangle contains exactly one
    is a perfect matching of the bipartite triangle-adjacency graph over the
    active sectors.  The master translation ``(t, t)`` cycles the torus rows,
    and with them the triangles, in threes; the smallest row of each cycle
    stands for it.  The active sectors of these ``3t^2`` rows, one cluster's
    worth, are matched between triangle cycles, and every row copies its
    cycle's pattern.  Every caller shares the cached table, so it is read-only.
    """
    n = 9 * t * t
    q, r = np.divmod(np.arange(n), 3 * t)
    shift = _torus_index(q + t, r + t, t)
    rep = np.minimum(np.minimum(np.arange(n), shift), shift[shift])
    _, klass = np.unique(rep, return_inverse=True)
    k = n // 3
    # per orientation, end and torus cell: the (row, column) triangles a sector joins
    ends = np.array([[(q, r), (q, r)], [(q - 1, r), (q, r - 1)], [(q - 1, r + 1), (q - 1, r)]])
    ends = klass[_torus_index(ends[:, :, 0], ends[:, :, 1], t)]
    silenced = _torus_silenced(t)
    cell, o = np.nonzero(~silenced & (rep == np.arange(n))[:, None])
    key, edge_sector = np.unique(ends[o, 0, cell] * k + ends[o, 1, cell], return_index=True)
    if len(key) != len(cell):
        raise RuntimeError(f"duplicate triangle edge at t={t}")
    rows, cols = np.divmod(key, k)
    starts = np.searchsorted(rows, np.arange(k + 1)).tolist()
    cols = cols.tolist()
    match = _max_matching([cols[a:b] for a, b in zip(starts, starts[1:])], k)
    if min(match) < 0:
        raise RuntimeError(f"no perfect fast pattern found for t={t}")
    fast = edge_sector[np.searchsorted(key, np.arange(k) * k + match)]
    table = np.zeros((n, 3), dtype=bool)
    table[cell[fast], o[fast]] = True
    table = table[rep]
    if np.count_nonzero(table & ~silenced) != n:
        raise RuntimeError(f"fast pattern degenerate for t={t}")
    table.flags.writeable = False
    return table.view()  # a view of a read-only base cannot be made writable


def _max_matching(adj: List[List[int]], n_cols: int) -> List[int]:
    """A maximum matching of the bipartite graph whose row ``i`` meets the
    columns ``adj[i]``: per row, its column or -1.

    Each row in turn takes its first free column, or else searches for an
    augmenting path, expanding the last pushed row first: a row next to a
    free column flips the path to it, any other row pushes the rows matched
    to its columns that this search has not reached yet.
    """
    row_match = [-1] * len(adj)
    col_match = [-1] * n_cols
    seen = [-1] * n_cols  # per column: the last root whose search reached it
    via = [(-1, -1)] * len(adj)  # per row: the (row, column) it was pushed from
    for root in range(len(adj)):
        stack = [root]
        while stack:
            x = stack.pop()
            y = next((y for y in adj[x] if col_match[y] < 0), -1)
            if y >= 0:
                while x != root:
                    row_match[x], col_match[y] = y, x
                    x, y = via[x]
                row_match[x], col_match[y] = y, x
                break
            for y in adj[x]:
                if seen[y] != root:
                    seen[y] = root
                    via[col_match[y]] = (x, y)
                    stack.append(col_match[y])
    return row_match


def role_codes(net: Network, t: int, mode: str) -> np.ndarray:
    """The role rule: per sector id, the index of its role in ``ROLES``.  A
    sector is SILENT where ``_torus_silenced`` switches it off, else FAST
    where the mixed mode's ``fast_pattern`` has it, else SLOW; both tables
    are torus rows, so the rule needs no cluster plan."""
    if mode not in (MODE_SLOW_ONLY, MODE_MIXED):
        raise ValueError(f"mode must be {MODE_SLOW_ONLY!r} or {MODE_MIXED!r}")
    _check_t(net, t)
    torus = np.full((9 * t * t, 3), ROLES.index(SLOW), dtype=np.int8)
    if mode == MODE_MIXED:
        torus[fast_pattern(t)] = ROLES.index(FAST)
    torus[_torus_silenced(t)] = ROLES.index(SILENT)
    return _torus_rows(torus, net, t)


def assign_messages(plan: ClusterPlan, mode: str) -> ClusterPlan:
    """Attach a message assignment (FAST / SLOW / SILENT) to a cluster plan."""
    return replace(plan, roles=role_codes(plan.net, plan.t, mode), mode=mode)


def count_links(plan: ClusterPlan, side: str) -> int:
    """Enumerate the conferencing links of one interior cluster of ``plan``:
    ``cluster_link_count`` on its lattice and t."""
    return cluster_link_count(plan.net, plan.t, side)


def cluster_link_count(net: Network, t: int, side: str) -> int:
    """Enumerate the conferencing links of one interior cluster for
    parameter t, with no cluster plan.

    Links are counted directionally and attributed to the cluster owning the
    cell of their source endpoint: user-to-user links on the ``tx`` side,
    links between adjacent base stations on the ``rx`` side.  A cell belongs
    to its lexicographically first nearest master, and ownership moves with
    every master translation, so the origin master's cells, read off the
    torus within ``t`` hops, count for any master's; a radius >= 3t
    (``_check_t``) keeps them and every cell adjacent to them on the lattice.
    """
    if side not in (TX, RX):
        raise ValueError(f"side must be {TX!r} or {RX!r}")
    _check_t(net, t)
    q, r = np.mgrid[-t:t + 1, -t:t + 1].reshape(2, -1)
    first = _torus_nearest(t)[2][_torus_index(q, r, t)]
    # the origin owns the cells whose offset from their first master is their position
    own = (first[:, 0] == q) & (first[:, 1] == r)
    cell = cell_index(net.radius, q[own], r[own])
    if side == TX:
        return int(np.count_nonzero(net.nbr.reshape(len(net.q), -1)[cell] >= 0))
    return int(np.count_nonzero(net.adjacent(cell) >= 0))


def role_census(net: Network, roles: np.ndarray, depth: int = 2) -> Dict[str, Fraction]:
    """Census of role fractions over the interior sectors, from per-sector
    role codes such as ``role_codes`` gives."""
    interior = roles.reshape(-1, 3)[net.interior_mask(depth)]
    if interior.size == 0:
        raise ValueError("no interior sectors at this radius")
    counts = np.bincount(interior.ravel(), minlength=len(ROLES)).tolist()
    return {role: Fraction(n, interior.size) for role, n in zip(ROLES, counts)}


def assignment_fractions(plan: ClusterPlan, depth: int = 2) -> Dict[str, Fraction]:
    """Census of role fractions over the interior sectors."""
    if plan.roles is None:
        raise ValueError("plan has no assignment; call assign_messages first")
    return role_census(plan.net, plan.roles, depth)
