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
sector ids follow the sorted order of the ``(q, r, o)`` tuples.  Ids and
arrays are the library's only representation: ``cell_index`` maps coordinate
arrays to cell ids and ``Network.id_of`` maps one sector tuple to its id, both
in closed form, and the tuple forms a caller outside the library asks for
(``sectors``, ``cells``, ``tx_neighbors``) are built from the arrays on first
use.
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from dataclasses import dataclass
from functools import cached_property
from operator import index
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple

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
    where that sector falls off the lattice; user-to-user conferencing links
    follow the same pairs.  ``adjacent`` states cell adjacency, which carries
    the base-station conferencing links.  ``tx_neighbors`` maps each sector to
    the set of sectors whose transmissions interfere with it; it and the
    cached ``sectors`` and ``cells`` serve callers outside the library, which
    reads the arrays instead.
    """

    radius: int
    q: np.ndarray
    r: np.ndarray
    nbr: np.ndarray

    def id_of(self, sector) -> Optional[int]:
        """The id of sector ``(q, r, o)``, or None unless ``sector`` is a
        3-tuple of integers naming a sector of this lattice."""
        if not isinstance(sector, tuple) or len(sector) != 3:
            return None
        try:
            q, r, o = map(index, sector)
        except TypeError:
            return None
        if not 0 <= o < NUM_ORIENTATIONS or cell_distance((q, r), (0, 0)) > self.radius:
            return None
        return NUM_ORIENTATIONS * _cell_id(self.radius, q, r) + o

    @cached_property
    def sectors(self) -> Tuple[Sector, ...]:
        """Every sector as a ``(q, r, o)`` tuple, indexed by sector id."""
        qs = np.repeat(self.q, NUM_ORIENTATIONS).tolist()
        rs = np.repeat(self.r, NUM_ORIENTATIONS).tolist()
        return tuple(zip(qs, rs, list(range(NUM_ORIENTATIONS)) * len(self.q)))

    @cached_property
    def cells(self) -> FrozenSet[Cell]:
        return frozenset(zip(self.q.tolist(), self.r.tolist()))

    @property
    def tx_neighbors(self) -> Mapping:
        return SectorMap(self, self._tx_of)

    def _tx_of(self, i: int) -> FrozenSet[Sector]:
        q, r = self.q.item(i // NUM_ORIENTATIONS), self.r.item(i // NUM_ORIENTATIONS)
        rule = NEIGHBOR_RULE[i % NUM_ORIENTATIONS]
        return frozenset(
            (q + dq, r + dr, o2) for (dq, dr, o2), j in zip(rule, self.nbr[i].tolist()) if j >= 0
        )

    def adjacent(self, cell) -> np.ndarray:
        """Per cell id in ``cell`` (an int or an array): the ids of its six
        adjacent cells in ``HEX_DIRS`` order, -1 where one falls off the lattice."""
        dq, dr = np.array(HEX_DIRS).T
        return cell_index(self.radius, self.q[cell, None] + dq, self.r[cell, None] + dr)

    def interior_mask(self, depth: int = 2) -> np.ndarray:
        """Per cell: True if it is at least ``depth`` hops from the boundary."""
        return cell_distance((self.q, self.r), (0, 0)) <= self.radius - depth

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
        i = self._net.id_of(sector)
        if i is None:
            raise KeyError(sector)
        return self._value(i)

    def __iter__(self) -> Iterator[Sector]:
        return iter(self._net.sectors)

    def __len__(self) -> int:
        return len(self._net.nbr)


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
        i = self.net.id_of(sector)
        return i is not None and bool(self.labels[i] == self.label)

    def __iter__(self) -> Iterator[Sector]:
        cell, o = np.divmod(self.ids, NUM_ORIENTATIONS)
        return zip(self.net.q[cell].tolist(), self.net.r[cell].tolist(), o.tolist())

    def __len__(self) -> int:
        return len(self.ids)


def _cell_id(radius: int, q, r):
    """The id of the on-ball cell ``(q, r)`` in ``hex_ball(radius)`` order, for
    ints or elementwise for arrays.  That order walks the columns q = -R..R
    (R the radius); column q starts at id ``(q + R)(2R + 1) - R(R + 1)/2 -
    |q|(q - 1)/2``, and its first cell has r = -R + max(0, -q)."""
    start = (q + radius) * (2 * radius + 1) - radius * (radius + 1) // 2 - abs(q) * (q - 1) // 2
    return start + r + radius - (abs(q) - q) // 2


def cell_index(radius: int, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per coordinate pair: the id of cell ``(q, r)`` in ``hex_ball(radius)``
    order, -1 where it falls off the ball."""
    return np.where(cell_distance((q, r), (0, 0)) <= radius, _cell_id(radius, q, r), -1)


def build_network(radius: int) -> Network:
    """Build the hexagonal ball of the given radius with 3 sectors per cell."""
    if not isinstance(radius, int) or radius < 1:
        raise ValueError(f"radius must be a positive integer, got {radius!r}")
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
    # views of read-only bases: a caller cannot set writeable back to True
    return Network(radius, q.view(), r.view(), nbr.view())


def tx_neighbors(net: Network, sector: Sector) -> FrozenSet[Sector]:
    """Interference neighbourhood of one sector."""
    try:
        return net.tx_neighbors[sector]
    except KeyError:
        raise ValueError(f"unknown sector {sector!r}") from None


def interference_graph(net: Network) -> List[Tuple[Sector, Sector]]:
    """Undirected interference edges, each unordered pair listed once, sorted."""
    src, dst = net.directed_edges()
    once = dst > src  # the coupling is symmetric; sector ids sort like sectors
    src, dst = src[once], dst[once]
    order = np.lexsort((dst, src))
    sectors = net.sectors
    return [(sectors[i], sectors[j]) for i, j in zip(src[order].tolist(), dst[order].tolist())]
