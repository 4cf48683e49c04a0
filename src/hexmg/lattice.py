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
read-only mapping views.
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
    conferencing links.
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
        return _RxView(self.cells)

    def _tx_of(self, i: int) -> FrozenSet[Sector]:
        return frozenset(self.sectors[j] for j in self.nbr[i].tolist() if j >= 0)

    @property
    def hops(self) -> np.ndarray:
        """Per cell: its hop distance from the origin."""
        return cell_distance((self.q, self.r), (0, 0))

    def interior_mask(self, depth: int = 2) -> np.ndarray:
        """Per cell: True if it is at least ``depth`` hops from the boundary."""
        return self.hops <= self.radius - depth

    def interior_cells(self, depth: int = 2) -> List[Cell]:
        inside = self.interior_mask(depth)
        return list(zip(self.q[inside].tolist(), self.r[inside].tolist()))

    def directed_edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every coupled pair ``(id, nbr[id])`` as a source and a target id array."""
        src = np.repeat(np.arange(len(self.nbr)), self.nbr.shape[1])
        dst = self.nbr.ravel()
        keep = dst >= 0
        return src[keep], dst[keep]


class SectorMap(Mapping):
    """Read-only ``sector -> value`` view; ``value`` maps a sector id to it."""

    def __init__(self, net: Network, value: Callable[[int], object]) -> None:
        self._net = net
        self._value = value

    def __getitem__(self, sector: Sector):
        return self._value(self._net.sector_id[sector])

    def __iter__(self) -> Iterator[Sector]:
        return iter(self._net.sectors)

    def __len__(self) -> int:
        return len(self._net.sectors)


class SectorSet(Set):
    """Read-only set of the sectors whose entry in a boolean mask over the
    sector ids is True; ``mask`` is there for array code."""

    def __init__(self, net: Network, mask: np.ndarray) -> None:
        self.net = net
        self.mask = mask

    @classmethod
    def _from_iterable(cls, it) -> FrozenSet[Sector]:
        return frozenset(it)

    def __contains__(self, sector) -> bool:
        i = self.net.sector_id.get(sector)
        return i is not None and bool(self.mask[i])

    def __iter__(self) -> Iterator[Sector]:
        return map(self.net.sectors.__getitem__, np.flatnonzero(self.mask).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))


class _RxView(Mapping):
    """``cell -> frozenset`` of its adjacent cells on the lattice."""

    def __init__(self, cells: FrozenSet[Cell]) -> None:
        self._cells = cells

    def __getitem__(self, cell: Cell) -> FrozenSet[Cell]:
        if cell not in self._cells:
            raise KeyError(cell)
        q, r = cell
        return frozenset(
            (q + dq, r + dr) for dq, dr in HEX_DIRS if (q + dq, r + dr) in self._cells
        )

    def __iter__(self) -> Iterator[Cell]:
        return iter(self._cells)

    def __len__(self) -> int:
        return len(self._cells)


def build_network(radius: int, antennas_per_user: int = 1) -> Network:
    """Build the hexagonal ball of the given radius with 3 sectors per cell."""
    if not isinstance(radius, int) or radius < 1:
        raise ValueError(f"radius must be a positive integer, got {radius!r}")
    if not isinstance(antennas_per_user, int) or antennas_per_user < 1:
        raise ValueError(
            f"antennas_per_user must be a positive integer, got {antennas_per_user!r}"
        )
    # hex_ball order walks the columns q = -radius..radius; column q holds
    # r = lo[q]..lo[q] + length[q] - 1 and starts at cell index start[q].
    column = np.arange(-radius, radius + 1)
    lo = np.maximum(-radius, -radius - column)
    length = 2 * radius + 1 - np.abs(column)
    start = np.cumsum(length) - length
    q = np.repeat(column, length)
    r = np.arange(len(q)) - np.repeat(start - lo, length)

    def cell_index(cq: np.ndarray, cr: np.ndarray) -> np.ndarray:
        inside = cell_distance((cq, cr), (0, 0)) <= radius
        col = np.clip(cq, -radius, radius) + radius
        return np.where(inside, start[col] + cr - lo[col], -1)

    nbr = np.empty((NUM_ORIENTATIONS * len(q), 4), dtype=np.intp)
    for o, rule in NEIGHBOR_RULE.items():
        for k, (dq, dr, o2) in enumerate(rule):
            cell = cell_index(q + dq, r + dr)
            nbr[o::NUM_ORIENTATIONS, k] = np.where(cell >= 0, NUM_ORIENTATIONS * cell + o2, -1)
    for a in (q, r, nbr):
        a.flags.writeable = False
    sectors = tuple(zip(
        np.repeat(q, NUM_ORIENTATIONS).tolist(),
        np.repeat(r, NUM_ORIENTATIONS).tolist(),
        list(range(NUM_ORIENTATIONS)) * len(q),
    ))
    return Network(
        radius=radius, antennas_per_user=antennas_per_user, q=q, r=r, nbr=nbr, sectors=sectors
    )


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
