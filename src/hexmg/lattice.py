"""Sectorized hexagonal cellular lattice and its interference topology.

Cells live on the axial integer grid ``(q, r)``.  Each cell hosts one base
station and three mobile users, one per antenna sector; sector orientations
are labelled 0, 1, 2 and carry the same geometric meaning in every cell.
A transmission in a sector is heard, besides its own base station, in exactly
four sectors of adjacent cells (interior of the lattice); the coupling rule is
symmetric, translation invariant, and never pairs two sectors of one cell.

A ``Network`` stores the lattice as arrays: the cell coordinates in
``hex_ball`` order and one ``(3·n_cells, 4)`` neighbour array over the
integer sector ids ``3·cell + orientation``.  Since ``hex_ball`` is sorted,
sector ids follow the sorted order of the ``(q, r, o)`` tuples.  The tuple
forms are derived from the arrays: ``sectors`` lists every sector by id,
``cells`` is built on first use, and ``tx_neighbors`` / ``rx_neighbors`` are
read-only mapping views; ``cell_index`` maps coordinates to cell ids.
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, FrozenSet, Iterator, List, Tuple

import numpy as np

Cell = Tuple[int, int]
Sector = Tuple[int, int, int]  # (cell q, cell r, orientation)

#: Axial offsets of the six adjacent cells.
HEX_DIRS: Tuple[Cell, ...] = ((1, 0), (0, 1), (-1, 0), (0, -1), (1, -1), (-1, 1))

NUM_ORIENTATIONS = 3

#: Interference coupling: a sector of orientation ``o`` in cell ``c`` is
#: coupled with sector ``(c + (dq, dr), o2)`` for every ``(dq, dr, o2)`` in
#: ``NEIGHBOR_RULE[o]``.  Two sectors of equal orientation never couple.
NEIGHBOR_RULE: Dict[int, Tuple[Tuple[int, int, int], ...]] = {
    0: ((1, 0, 1), (0, 1, 1), (1, 0, 2), (1, -1, 2)),
    1: ((-1, 0, 0), (0, -1, 0), (0, -1, 2), (1, -1, 2)),
    2: ((-1, 1, 0), (-1, 0, 0), (-1, 1, 1), (0, 1, 1)),
}


def cell_distance(c1: Cell, c2: Cell) -> int:
    """Hop distance between two cells of the hexagonal grid; elementwise when
    the coordinates are arrays."""
    dq = c1[0] - c2[0]
    dr = c1[1] - c2[1]
    return (abs(dq) + abs(dr) + abs(dq + dr)) // 2


def hex_ball(radius: int) -> List[Cell]:
    """All cells within ``radius`` hops of the origin, in sorted order."""
    cells = []
    for q in range(-radius, radius + 1):
        for r in range(-radius, radius + 1):
            if (abs(q) + abs(r) + abs(q + r)) // 2 <= radius:
                cells.append((q, r))
    cells.sort()
    return cells


@dataclass(frozen=True, eq=False)
class Network:
    """Immutable finite lattice.

    ``q`` and ``r`` hold the cell coordinates in ``hex_ball`` order.  Row
    ``3·cell + o`` of ``nbr`` lists the ids of the sectors coupled with sector
    ``(q[cell], r[cell], o)``: column ``k`` is ``NEIGHBOR_RULE[o][k]``, and -1
    where that sector falls off the lattice.  ``tx_neighbors`` maps each sector
    to the set of sectors whose transmissions interfere with it (user-to-user
    conferencing links follow the same pairs).  ``rx_neighbors`` is plain
    6-cell adjacency restricted to the lattice and carries the base-station
    conferencing links.  Both are views kept for the CLI, tests, demos and
    perfbench; the library reads ``nbr`` and ``adjacent`` instead.
    """

    radius: int
    antennas_per_user: int
    q: np.ndarray
    r: np.ndarray
    nbr: np.ndarray
    #: every sector as a ``(q, r, o)`` tuple, indexed by sector id
    sectors: Tuple[Sector, ...]

    @cached_property
    def sector_id(self) -> Dict[Sector, int]:
        """``(q, r, o) -> sector id``, built on the first scalar lookup."""
        return dict(zip(self.sectors, range(len(self.sectors))))

    @cached_property
    def cells(self) -> FrozenSet[Cell]:
        return frozenset(zip(self.q.tolist(), self.r.tolist()))

    @property
    def tx_neighbors(self) -> Mapping:
        return SectorMap(self, self._tx_of)

    @property
    def rx_neighbors(self) -> Mapping:
        return CellMap(self, self._rx_of)

    def _tx_of(self, i: int) -> FrozenSet[Sector]:
        return frozenset(self.sectors[j] for j in self.nbr[i].tolist() if j >= 0)

    def _rx_of(self, i: int) -> FrozenSet[Cell]:
        near = self.adjacent(i)
        near = near[near >= 0]
        return frozenset(zip(self.q[near].tolist(), self.r[near].tolist()))

    def adjacent(self, cell) -> np.ndarray:
        """Per cell id in ``cell`` (an int or an array): the ids of its six
        adjacent cells in ``HEX_DIRS`` order, -1 where one falls off the lattice."""
        dq, dr = np.array(HEX_DIRS).T
        return cell_index(self.radius, self.q[cell, None] + dq, self.r[cell, None] + dr)

    @property
    def hops(self) -> np.ndarray:
        """Per cell: its hop distance from the origin."""
        return cell_distance((self.q, self.r), (0, 0))

    def interior_mask(self, depth: int = 2) -> np.ndarray:
        """Per cell: True if it is at least ``depth`` hops from the boundary."""
        return self.hops <= self.radius - depth

    def directed_edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every coupled pair ``(id, nbr[id])`` as a source and a target id array."""
        src = np.repeat(np.arange(len(self.nbr)), self.nbr.shape[1])
        dst = self.nbr.ravel()
        keep = dst >= 0
        return src[keep], dst[keep]


class SectorMap(Mapping):
    """Read-only ``sector -> value`` view; ``value`` maps a sector id to it."""

    def __init__(self, net: Network, value: Callable[[int], object]) -> None:
        self._net, self._value = net, value

    def __getitem__(self, sector: Sector):
        return self._value(self._net.sector_id[sector])

    def __iter__(self) -> Iterator[Sector]:
        return iter(self._net.sectors)

    def __len__(self) -> int:
        return len(self._net.sectors)


class SectorSet(Set):
    """Read-only set of the sectors whose entry in ``labels``, an array over
    the sector ids (by default a boolean mask), equals ``label``.  ``ids``
    lists their ids in ascending order, which iteration follows; a caller
    that has them already passes them in."""

    _from_iterable = staticmethod(frozenset)

    def __init__(self, net: Network, labels: np.ndarray, label=True, ids=None) -> None:
        self.net, self.labels, self.label = net, labels, label
        self.ids = np.flatnonzero(labels == label) if ids is None else ids

    def __contains__(self, sector) -> bool:
        i = self.net.sector_id.get(sector)
        return i is not None and bool(self.labels[i] == self.label)

    def __iter__(self) -> Iterator[Sector]:
        return map(self.net.sectors.__getitem__, self.ids.tolist())

    def __len__(self) -> int:
        return len(self.ids)


class CellMap(Mapping):
    """Read-only ``cell -> value`` view; ``value`` maps a cell id to it."""

    def __init__(self, net: Network, value: Callable[[int], object]) -> None:
        self._net, self._value = net, value

    def __getitem__(self, cell: Cell):
        i = self._net.sector_id.get((*cell, 0)) if isinstance(cell, tuple) else None
        if i is None:
            raise KeyError(cell)
        return self._value(i // NUM_ORIENTATIONS)

    def __iter__(self) -> Iterator[Cell]:
        return zip(self._net.q.tolist(), self._net.r.tolist())

    def __len__(self) -> int:
        return len(self._net.q)


def cell_index(radius: int, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per coordinate pair: the id of cell ``(q, r)`` in ``hex_ball(radius)``
    order, -1 where it falls off the ball.  That order walks the columns
    q = -R..R (R the radius); column q starts at id ``(q + R)(2R + 1) -
    R(R + 1)/2 - |q|(q - 1)/2``, and its first cell has r = -R + max(0, -q)."""
    start = (q + radius) * (2 * radius + 1) - radius * (radius + 1) // 2 - np.abs(q) * (q - 1) // 2
    cell = start + r + radius - np.maximum(0, -q)
    return np.where(cell_distance((q, r), (0, 0)) <= radius, cell, -1)


def build_network(radius: int, antennas_per_user: int = 1) -> Network:
    """Build the hexagonal ball of the given radius with 3 sectors per cell."""
    if not isinstance(radius, int) or radius < 1:
        raise ValueError(f"radius must be a positive integer, got {radius!r}")
    if not isinstance(antennas_per_user, int) or antennas_per_user < 1:
        raise ValueError(f"antennas_per_user must be a positive integer, got {antennas_per_user!r}")
    q, r = np.mgrid[-radius : radius + 1, -radius : radius + 1].reshape(2, -1)
    inside = cell_distance((q, r), (0, 0)) <= radius
    q, r = q[inside], r[inside]  # sorted by (q, r), as hex_ball
    nbr = np.empty((NUM_ORIENTATIONS * len(q), 4), dtype=np.intp)
    for o, rule in NEIGHBOR_RULE.items():
        for k, (dq, dr, o2) in enumerate(rule):
            cell = cell_index(radius, q + dq, r + dr)
            nbr[o::NUM_ORIENTATIONS, k] = np.where(cell >= 0, NUM_ORIENTATIONS * cell + o2, -1)
    for a in (q, r, nbr):
        a.flags.writeable = False
    qs, rs = np.repeat(q, NUM_ORIENTATIONS).tolist(), np.repeat(r, NUM_ORIENTATIONS).tolist()
    sectors = tuple(zip(qs, rs, list(range(NUM_ORIENTATIONS)) * len(q)))
    return Network(radius, antennas_per_user, q, r, nbr, sectors)


def tx_neighbors(net: Network, sector: Sector) -> FrozenSet[Sector]:
    """Interference neighbourhood of one sector."""
    try:
        return net.tx_neighbors[sector]
    except KeyError:
        raise ValueError(f"unknown sector {sector!r}") from None


def rx_neighbors(net: Network, cell: Cell) -> FrozenSet[Cell]:
    """Adjacent cells (base-station conferencing partners) of one cell."""
    try:
        return net.rx_neighbors[cell]
    except KeyError:
        raise ValueError(f"unknown cell {cell!r}") from None


def interference_graph(net: Network) -> List[Tuple[Sector, Sector]]:
    """Undirected interference edges, each unordered pair listed once, sorted."""
    src, dst = net.directed_edges()
    once = dst > src  # the coupling is symmetric; sector ids sort like sectors
    src, dst = src[once], dst[once]
    order = np.lexsort((dst, src))
    sectors = net.sectors
    return [(sectors[i], sectors[j]) for i, j in zip(src[order].tolist(), dst[order].tolist())]
