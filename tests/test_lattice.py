from collections import deque

import pytest

from hexmg.lattice import (
    HEX_DIRS,
    build_network,
    cell_distance,
    hex_ball,
    interference_graph,
    tx_neighbors,
)


@pytest.mark.parametrize("radius,cells,sectors", [(1, 7, 21), (2, 19, 57)])
def test_ball_sizes(radius, cells, sectors):
    net = build_network(radius)
    assert len(net.cells) == cells
    assert len(net.sectors) == sectors


@pytest.mark.parametrize("bad", [0, -1])
def test_rejects_bad_radius_and_m(bad):
    with pytest.raises(ValueError):
        build_network(bad)
    with pytest.raises(ValueError):
        build_network(3, bad)


def test_interior_sectors_have_exactly_four_neighbors():
    net = build_network(8, 3)
    for s in net.sectors:
        if net.is_interior_cell((s[0], s[1])):
            assert len(net.tx_neighbors[s]) == 4


def test_boundary_sector_truncated():
    net = build_network(1)
    sizes = {len(net.tx_neighbors[s]) for s in net.sectors}
    assert max(sizes) <= 4
    assert min(sizes) < 4  # corner sectors lose neighbours


def test_symmetry_exhaustive_radius_4():
    net = build_network(4)
    for s in net.sectors:
        for nb in net.tx_neighbors[s]:
            assert s in net.tx_neighbors[nb]


def test_no_intra_cell_edges_and_adjacent_cells_only():
    net = build_network(4)
    for s, nbrs in net.tx_neighbors.items():
        for nb in nbrs:
            assert (s[0], s[1]) != (nb[0], nb[1])
            assert cell_distance((s[0], s[1]), (nb[0], nb[1])) == 1


def test_unknown_sector_rejected():
    net = build_network(2)
    with pytest.raises(ValueError):
        tx_neighbors(net, (99, 0, 0))


def cell_distance_bfs(c1, c2):
    """Hop distance via breadth-first search; reference oracle for cell_distance."""
    if c1 == c2:
        return 0
    seen = {c1}
    frontier = deque([(c1, 0)])
    while frontier:
        cell, d = frontier.popleft()
        for dq, dr in HEX_DIRS:
            nxt = (cell[0] + dq, cell[1] + dr)
            if nxt == c2:
                return d + 1
            if nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, d + 1))
    raise RuntimeError("unreachable")


def test_cell_distance_against_bfs_oracle():
    for c in hex_ball(4):
        assert cell_distance((0, 0), c) == cell_distance_bfs((0, 0), c)
    assert cell_distance((0, 0), (0, 0)) == 0
    assert cell_distance((0, 0), (3, 0)) == 3
    for d in HEX_DIRS:
        assert cell_distance((0, 0), d) == 1
    # symmetry and triangle inequality on a sample
    pts = hex_ball(3)
    for a in pts[::5]:
        for b in pts[::7]:
            assert cell_distance(a, b) == cell_distance(b, a)
            assert cell_distance(a, b) <= cell_distance(a, (0, 0)) + cell_distance((0, 0), b)


def test_interference_graph_handshake_and_regularity():
    net = build_network(8)
    edges = interference_graph(net)
    degree_sum = sum(len(net.tx_neighbors[s]) for s in net.sectors)
    assert len(edges) == degree_sum // 2
    assert len(edges) == len(set(edges))
    for a, b in edges:
        assert a < b


def test_translation_invariance_interior():
    net = build_network(6)
    base = {
        o: {(dq, dr, o2) for (dq, dr, o2) in
            ((n[0], n[1], n[2]) for n in net.tx_neighbors[(0, 0, o)])}
        for o in range(3)
    }
    for s in net.sectors:
        q, r, o = s
        if not net.is_interior_cell((q, r)):
            continue
        rel = {(nq - q, nr - r, no) for (nq, nr, no) in net.tx_neighbors[s]}
        assert rel == base[o]


def test_determinism():
    a = build_network(5, 2)
    b = build_network(5, 2)
    assert a.sectors == b.sectors
    assert a.tx_neighbors == b.tx_neighbors
    assert a.rx_neighbors == b.rx_neighbors


def test_rx_neighbors_are_cell_adjacency():
    net = build_network(5)
    for c in net.cells:
        expected = {(c[0] + dq, c[1] + dr) for dq, dr in HEX_DIRS} & net.cells
        assert net.rx_neighbors[c] == expected
        if net.is_interior_cell(c):
            assert len(net.rx_neighbors[c]) == 6
