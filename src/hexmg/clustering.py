"""Cluster geometry for cooperative transmission.

Master cells form the triangular sublattice spanned by ``(t, t)`` and
``(2t, -t)``: one master per ``3*t**2`` cells, nearest masters ``2*t`` hops
(equivalently ``3*t`` hexagon side lengths) apart.  Selected users in cells at
hop distance exactly ``t`` from their nearest master are switched off, which
splits the interference graph into one finite cluster per master.  On top of
a cluster plan, messages are assigned either all-slow or mixed fast/slow,
where the fast sectors form an exact density-1/3 pattern with no two fast
sectors interfering.  An assigned plan also lays out the links of the origin
master's cluster (``ClusterPlan.origin_links``), once, for the zero-forcing
trials.

One period of the master grid, the 3t x 3t torus, states the periodic
geometry once, as arrays over its rows ``(q mod 3t)·3t + (r mod 3t)``: the
nearest masters, read for the silencing and the origin master's cells that
link counting takes, the cluster owners, and the fast pattern, a read-only
``(9t^2, 3)`` boolean table.

A plan states everything per sector id: ``cluster_ids`` the cluster, ``roles``
the role code, and each ``Cluster.sectors`` the cluster's ascending ids.
Sector tuples appear only where a caller passes one in (``cluster_of``, set
membership) or iterates a set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from .lattice import (
    NEIGHBOR_RULE,
    Cell,
    Network,
    Sector,
    SectorSet,
    cell_distance,
    cell_index,
)

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


def _torus_index(q: np.ndarray, r: np.ndarray, t: int) -> np.ndarray:
    """Per cell ``(q, r)``: its torus cell ``(q mod 3t)·3t + (r mod 3t)``."""
    period = 3 * t
    return (q % period) * period + r % period


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
    return SectorSet(net, _torus_silenced(t)[_torus_index(net.q, net.r, t)].ravel())


def _torus_owners(t: int, silenced: np.ndarray) -> Optional[Tuple[np.ndarray, int]]:
    """Per row of the ``_torus_silenced(t)`` table ``silenced`` and
    orientation: the offset ``(dq, dr)`` from the cell to the master whose
    cluster holds that sector, a ``(9t^2, 3, 2)`` array; and the hop radius
    of a cluster.

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
    dq, dr, o = np.array(list(seen)).T
    offset = np.zeros((period * period, 3, 2), dtype=np.intp)
    claims = np.zeros((period * period, 3), dtype=np.intp)
    for mq, mr in ((0, 0), (t, t), (2 * t, 2 * t)):
        row = ((mq + dq) % period) * period + (mr + dr) % period
        offset[row, o] = np.column_stack([-dq, -dr])
        np.add.at(claims, (row, o), 1)
    if not np.array_equal(claims, ~silenced):
        return None
    return offset, int(cell_distance((dq, dr), (0, 0)).max())


def _component_labels(net: Network, t: int, active: np.ndarray) -> np.ndarray:
    """Per sector id: a label that the ``active`` sectors of one connected
    component share.

    The torus seeds it: ``_torus_owners`` gives every active sector its
    cluster's master (the tests check, per t, that no edge between active
    sectors joins two masters), and a cluster whose master lies a cluster
    radius inside the ball is whole, so its sectors share a label past the
    sector ids, read off the master's coordinates.  Min-label propagation
    with pointer jumping over ``nbr`` joins the sectors of the clusters the
    boundary cuts.  If ``active`` is not what the torus leaves active, the
    seed is dropped and propagation covers every active sector."""
    n = len(active)
    labels = np.arange(n)
    loose = active
    torus = _torus_silenced(t)
    row = _torus_index(net.q, net.r, t)
    owners = _torus_owners(t, torus)
    if owners is not None and np.array_equal(torus[row].ravel(), ~active):
        offset, reach = owners
        radius = net.radius
        master_q = (net.q[:, None] + offset[row, :, 0]).ravel()
        master_r = (net.r[:, None] + offset[row, :, 1]).ravel()
        whole = active & (cell_distance((master_q, master_r), (0, 0)) <= radius - reach)
        # a whole cluster's master has |q|, |r| <= R: its key is in [n, n + (2R + 1)^2)
        key = n + (master_q + radius) * (2 * radius + 1) + master_r + radius
        labels = np.where(whole, key, labels)
        loose = active & ~whole

    ids = np.flatnonzero(loose)
    src = np.repeat(ids, net.nbr.shape[1])
    dst = net.nbr[ids].ravel()
    keep = (dst >= 0) & loose[dst]
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


class UncutLatticeError(RuntimeError):
    """A cluster holds more than one master: the silencing failed to cut it."""


@dataclass(frozen=True, eq=False)
class Cluster:
    """One connected block of active sectors; ``master`` is None for the
    partial clusters cut off by the lattice boundary."""

    master: Optional[Cell]
    #: ``labels`` is the plan's ``cluster_ids`` and ``label`` the cluster's index
    sectors: SectorSet


@dataclass(frozen=True, eq=False)
class LinkLayout:
    """The links of the origin master's cluster, in the order the zero-forcing
    trials draw and sum their channels.

    A position indexes ``ids``, the members' ascending sector ids.  Link k
    runs from transmitter ``tx[k]`` to receiver ``rx[k]``; each receiver's
    links are consecutive, its self link first, then its in-cluster ``nbr``
    links by ascending id.
    ``slots[d]`` holds ``(rx, tx, link)`` for every receiver's d-th link.
    """

    ids: np.ndarray
    rx: np.ndarray
    tx: np.ndarray
    slots: Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    #: per position: the index of its role in ``ROLES``
    roles: np.ndarray
    slow_pos: np.ndarray
    fast_pos: np.ndarray


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
        c = self.cluster_ids[i]
        return None if c < 0 else self.clusters[c]

    @cached_property
    def origin_links(self) -> LinkLayout:
        """The link layout of the cluster owning the origin master cell,
        built on first use; needs the message assignment."""
        if self.roles is None:
            raise ValueError("plan has no assignment; call assign_messages first")
        net = self.net
        label = self.cluster_ids[net.id_of((0, 0, 0))]
        ids = self.clusters[label].sectors.ids
        n = len(ids)
        # column 0 is the self link, then the in-cluster neighbours by
        # ascending position, padded with n
        nbr = net.nbr[ids]
        inside = (nbr >= 0) & (self.cluster_ids[nbr] == label)
        ends = np.sort(np.where(inside, np.searchsorted(ids, nbr), n), axis=1)
        ends = np.column_stack([np.arange(n), ends])
        valid = ends < n
        link = (np.cumsum(valid) - 1).reshape(valid.shape)
        rx, depth = np.nonzero(valid)
        slots = tuple(
            (rx[depth == d], ends[valid[:, d], d], link[valid[:, d], d])
            for d in range(depth.max() + 1)
        )
        roles = self.roles[ids]
        slow_pos = np.flatnonzero(roles == ROLES.index(SLOW))
        fast_pos = np.flatnonzero(roles == ROLES.index(FAST))
        return LinkLayout(ids, rx, ends[valid], slots, roles, slow_pos, fast_pos)

    def interior_masters(self) -> List[Cell]:
        """Masters whose whole cluster context lies inside the lattice: at
        least ``t + 2`` hops from the boundary."""
        net = self.net
        inside = is_master_cell((net.q, net.r), self.t) & net.interior_mask(self.t + 2)
        return list(zip(net.q[inside].tolist(), net.r[inside].tolist()))


def clusters(net: Network, t: int) -> ClusterPlan:
    """Decompose the lattice into non-interfering clusters for parameter t."""
    masters = master_grid(net, t)
    silenced = silenced_sectors(net, t)
    n = len(net.nbr)
    active = ~silenced.labels
    labels = _component_labels(net, t, active)

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
    built = tuple(
        Cluster(
            None if c < 0 else (net.q.item(c), net.r.item(c)),
            SectorSet(net, cluster_ids, i, ids[a:b]),
        )
        for i, (a, b, c) in enumerate(spans)
    )
    return ClusterPlan(net, t, masters, silenced, built, cluster_ids)


@lru_cache(maxsize=None)
def fast_pattern(t: int) -> np.ndarray:
    """Periodic fast-sector pattern with exact density 1/3 and no two fast
    sectors interfering: a ``(9t^2, 3)`` boolean table in
    ``_torus_silenced``'s rows, true at the fast sectors.

    The interference graph is an edge-disjoint union of triangles, two per
    sector; picking fast sectors so that every triangle contains exactly one
    is equivalent to a perfect matching of the bipartite triangle-adjacency
    graph, computed here on the 3t x 3t torus (one period of the master grid)
    with the silenced sectors' edges removed.  Every caller shares the cached
    table, so it is read-only.
    """
    n = 9 * t * t
    q, r = np.divmod(np.arange(n), 3 * t)
    # per orientation, end and torus cell: the (row, column) triangles a sector joins
    ends = np.array([[(q, r), (q, r)], [(q - 1, r), (q, r - 1)], [(q - 1, r + 1), (q - 1, r)]])
    ends = _torus_index(ends[:, :, 0], ends[:, :, 1], t)
    cell, o = np.nonzero(~_torus_silenced(t))
    key, edge_sector = np.unique(ends[o, 0, cell] * n + ends[o, 1, cell], return_index=True)
    if len(key) != len(cell):
        raise RuntimeError(f"duplicate triangle edge at t={t}")
    rows, cols = np.divmod(key, n)
    starts = np.searchsorted(rows, np.arange(n + 1)).tolist()
    cols = cols.tolist()
    match = _hopcroft_karp([cols[a:b] for a, b in zip(starts, starts[1:])], n)
    if min(match) < 0:
        raise RuntimeError(f"no perfect fast pattern found for t={t}")
    fast = edge_sector[np.searchsorted(key, np.arange(n) * n + match)]
    table = np.zeros((n, 3), dtype=bool)
    table[cell[fast], o[fast]] = True
    if np.count_nonzero(table) != n:
        raise RuntimeError(f"fast pattern degenerate for t={t}")
    table.flags.writeable = False
    return table.view()  # a view of a read-only base cannot be made writable


def _hopcroft_karp(adj: List[List[int]], n_cols: int) -> List[int]:
    """A maximum matching of the bipartite graph whose row ``i`` meets the
    columns ``adj[i]`` (ascending): per row, its column or -1.

    Hopcroft & Karp (SIAM J. Comput. 1973), visiting rows and columns in
    the order of the CSR sparse-graph matcher the tests hold it to, so both
    return the same matching:

    - a greedy start gives each row, in order, its first free column;
    - each phase layers the rows by breadth-first search from the free ones
      and stops at the layer ``dd`` that first meets a free column;
    - from each free row in turn, a depth-first search expands rows last
      pushed first, each at most once a phase: a row in layer ``dd - 1``
      takes its first free column and flips the path to it, and a shallower
      row pushes, in column order, the rows one layer deeper matched to its
      columns.
    """
    n_rows = len(adj)
    row_match = [-1] * n_rows
    col_match = [-1] * n_cols
    for x, cols in enumerate(adj):
        for y in cols:
            if col_match[y] < 0:
                row_match[x], col_match[y] = y, x
                break
    unreached = n_rows + 1
    while True:
        free = [x for x in range(n_rows) if row_match[x] < 0]
        dist = [unreached] * n_rows
        for x in free:
            dist[x] = 0
        dd = unreached
        queue = list(free)
        for x in queue:  # grows while it is read
            if dist[x] >= dd:
                break
            for y in adj[x]:
                x2 = col_match[y]
                if x2 < 0:
                    dd = min(dd, dist[x] + 1)
                elif dist[x2] == unreached:
                    dist[x2] = dist[x] + 1
                    queue.append(x2)
        if dd == unreached:
            return row_match

        expanded = [False] * n_rows
        via: List[Tuple[int, int]] = [(-1, -1)] * n_rows  # (row, column) a row was pushed from
        for root in free:
            stack = [root]
            while stack:
                x = stack.pop()
                if expanded[x]:
                    continue
                expanded[x] = True
                if dist[x] + 1 < dd:
                    # all its columns are matched, or dd would be smaller
                    for y in adj[x]:
                        x2 = col_match[y]
                        if dist[x2] == dist[x] + 1 and not expanded[x2]:
                            via[x2] = (x, y)
                            stack.append(x2)
                    continue
                y = next((y for y in adj[x] if col_match[y] < 0), -1)
                if y >= 0:
                    while x != root:
                        row_match[x], col_match[y] = y, x
                        x, y = via[x]
                    row_match[x], col_match[y] = y, x
                    break


def assign_messages(plan: ClusterPlan, mode: str) -> ClusterPlan:
    """Attach a message assignment (FAST / SLOW / SILENT) to a cluster plan."""
    if mode not in (MODE_SLOW_ONLY, MODE_MIXED):
        raise ValueError(f"mode must be {MODE_SLOW_ONLY!r} or {MODE_MIXED!r}")
    period = 3 * plan.t
    torus = np.full((period * period, 3), ROLES.index(SLOW), dtype=np.int8)
    if mode == MODE_MIXED:
        torus[fast_pattern(plan.t)] = ROLES.index(FAST)
    roles = torus[_torus_index(plan.net.q, plan.net.r, plan.t)].ravel()
    roles[plan.silenced.labels] = ROLES.index(SILENT)
    return replace(plan, roles=roles, mode=mode)


def count_links(plan: ClusterPlan, side: str) -> int:
    """Enumerate the conferencing links of one interior cluster.

    Links are counted directionally and attributed to the cluster owning the
    cell of their source endpoint: user-to-user links on the ``tx`` side,
    links between adjacent base stations on the ``rx`` side.  A cell belongs
    to its lexicographically first nearest master, and ownership moves with
    every master translation, so the origin master's cells, read off the
    torus within ``t`` hops, count for any master's; a plan's radius >= 3t
    (``_check_t``) keeps them and every cell adjacent to them on the lattice.
    """
    net, t = plan.net, plan.t
    q, r = np.mgrid[-t:t + 1, -t:t + 1].reshape(2, -1)
    first = _torus_nearest(t)[2][_torus_index(q, r, t)]
    # the origin owns the cells whose offset from their first master is their position
    own = (first[:, 0] == q) & (first[:, 1] == r)
    cell = cell_index(net.radius, q[own], r[own])
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
