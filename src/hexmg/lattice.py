"""Sectorized hexagonal cellular lattice and its interference topology.

Cells live on the axial integer grid ``(q, r)``.  Each cell hosts one base
station and three mobile users, one per antenna sector; sector orientations
are labelled 0, 1, 2 and carry the same geometric meaning in every cell.
A transmission in a sector is heard, besides its own base station, in exactly
four sectors of adjacent cells (interior of the lattice); the coupling rule is
symmetric, translation invariant, and never pairs two sectors of one cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

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
    """Hop distance between two cells of the hexagonal grid."""
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
    """Immutable finite lattice with both neighbourhood maps populated.

    ``tx_neighbors`` maps each sector to the set of sectors whose
    transmissions interfere with it (user-to-user conferencing links follow
    the same pairs).  ``rx_neighbors`` is plain 6-cell adjacency restricted to
    the lattice and carries the base-station conferencing links.
    """

    radius: int
    antennas_per_user: int
    cells: FrozenSet[Cell]
    sectors: Tuple[Sector, ...]
    tx_neighbors: Dict[Sector, FrozenSet[Sector]]
    rx_neighbors: Dict[Cell, FrozenSet[Cell]]

    def is_interior_cell(self, cell: Cell, depth: int = 2) -> bool:
        """True if ``cell`` is at least ``depth`` hops from the boundary."""
        return cell_distance(cell, (0, 0)) <= self.radius - depth

    def interior_cells(self, depth: int = 2) -> List[Cell]:
        return sorted(c for c in self.cells if self.is_interior_cell(c, depth))


def build_network(radius: int, antennas_per_user: int = 1) -> Network:
    """Build the hexagonal ball of the given radius with 3 sectors per cell."""
    if not isinstance(radius, int) or radius < 1:
        raise ValueError(f"radius must be a positive integer, got {radius!r}")
    if not isinstance(antennas_per_user, int) or antennas_per_user < 1:
        raise ValueError(
            f"antennas_per_user must be a positive integer, got {antennas_per_user!r}"
        )
    cell_list = hex_ball(radius)
    cells = frozenset(cell_list)
    sectors = tuple((q, r, o) for (q, r) in cell_list for o in range(NUM_ORIENTATIONS))
    tx: Dict[Sector, FrozenSet[Sector]] = {}
    for (q, r, o) in sectors:
        found = []
        for dq, dr, o2 in NEIGHBOR_RULE[o]:
            target = (q + dq, r + dr)
            if target in cells:
                found.append((target[0], target[1], o2))
        tx[(q, r, o)] = frozenset(found)
    rx: Dict[Cell, FrozenSet[Cell]] = {}
    for c in cell_list:
        rx[c] = frozenset(
            (c[0] + dq, c[1] + dr)
            for dq, dr in HEX_DIRS
            if (c[0] + dq, c[1] + dr) in cells
        )
    return Network(
        radius=radius,
        antennas_per_user=antennas_per_user,
        cells=cells,
        sectors=sectors,
        tx_neighbors=tx,
        rx_neighbors=rx,
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
    edges = set()
    for s, nbrs in net.tx_neighbors.items():
        for t in nbrs:
            edges.add((s, t) if s <= t else (t, s))
    return sorted(edges)
