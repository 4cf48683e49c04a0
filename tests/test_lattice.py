from collections import deque, namedtuple
from functools import lru_cache
from operator import index

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hexmg import clustering, partitions, precoding
from hexmg.cli import main
from hexmg.lattice import (
    HEX_DIRS,
    MAX_RADIUS,
    NEIGHBOR_RULE,
    NUM_ORIENTATIONS,
    _cell_id,
    build_network,
    cell_distance,
    cell_index,
    interference_graph,
    tx_neighbors,
)


def hex_ball(radius):
    """All cells within ``radius`` hops of the origin, in sorted order: the
    cell order of ``build_network``."""
    return sorted(
        (q, r)
        for q in range(-radius, radius + 1)
        for r in range(-radius, radius + 1)
        if (abs(q) + abs(r) + abs(q + r)) // 2 <= radius
    )


def is_interior(net, cell, depth=2):
    """Reference for ``Network.interior_mask``: ``depth`` hops from the boundary."""
    return cell_distance(cell, (0, 0)) <= net.radius - depth


def adjacency(net):
    """``cell -> frozenset of adjacent cells``, read off ``Network.adjacent``."""
    cells = list(zip(net.q.tolist(), net.r.tolist()))
    rows = net.adjacent(np.arange(len(cells))).tolist()
    return {c: frozenset(cells[j] for j in row if j >= 0) for c, row in zip(cells, rows)}


# ---------------------------------------------------------------------------
# dict oracle: the lattice built as dicts of frozensets of tuples, sector by
# sector, without integer ids or a neighbour array


def build_network_oracle(radius):
    cell_list = hex_ball(radius)
    cells = frozenset(cell_list)
    sectors = tuple((q, r, o) for (q, r) in cell_list for o in range(NUM_ORIENTATIONS))
    tx = {}
    for (q, r, o) in sectors:
        found = []
        for dq, dr, o2 in NEIGHBOR_RULE[o]:
            target = (q + dq, r + dr)
            if target in cells:
                found.append((target[0], target[1], o2))
        tx[(q, r, o)] = frozenset(found)
    rx = {}
    for c in cell_list:
        rx[c] = frozenset(
            (c[0] + dq, c[1] + dr)
            for dq, dr in HEX_DIRS
            if (c[0] + dq, c[1] + dr) in cells
        )
    return cells, sectors, tx, rx


def interference_graph_oracle(tx):
    edges = set()
    for s, nbrs in tx.items():
        for t in nbrs:
            edges.add((s, t) if s <= t else (t, s))
    return sorted(edges)


@pytest.mark.parametrize("radius", range(1, 11))
@pytest.mark.parametrize("m", [1, 3])
def test_array_network_matches_dict_oracle(radius, m, capsys):
    net = build_network(radius)
    cells, sectors, tx, rx = build_network_oracle(radius)
    assert net.sectors == sectors
    assert net.cells == cells
    for s in sectors:
        assert net.tx_neighbors[s] == tx[s]
        assert tx_neighbors(net, s) == tx[s]
    assert [net.id_of(s) for s in sectors] == list(range(len(sectors)))
    assert all(type(net.id_of(s)) is int for s in sectors)
    off = [(radius + 1, 0, 0), (0, -radius - 1, 1), (radius, 1, 2), (0, 0, 3), (0, 0, -1),
           (0, 0), (0, 0, 0, 0), [0, 0, 0], (0.5, 0, 0), "abc", None]
    assert [net.id_of(s) for s in off] == [None] * len(off)
    assert adjacency(net) == rx
    assert dict(net.tx_neighbors.items()) == tx
    assert net.tx_neighbors == tx
    assert interference_graph(net) == interference_graph_oracle(tx)
    for depth in (0, 1, 2):
        inside = net.interior_mask(depth)
        interior = list(zip(net.q[inside].tolist(), net.r[inside].tolist()))
        assert interior == [c for c in hex_ball(radius) if is_interior(net, c, depth)]
    # the lattice command states the oracle's counts; the lattice does not
    # depend on the antennas per user m, so the command takes no --m
    assert main(["lattice", "--radius", str(radius)]) == 0
    assert capsys.readouterr().out == (
        f"lattice radius={radius}: {len(cells)} cells, {len(sectors)} sectors, "
        f"{sum(map(len, tx.values()))} directed interference links, interior degree 4: ok\n"
    )
    assert main(["lattice", "--radius", str(radius), "--m", str(m)]) == 2
    assert f"unrecognized arguments: --m {m}" in capsys.readouterr().err


def test_neighbor_array_layout():
    net = build_network(5)
    n = len(net.sectors)
    assert net.nbr.shape == (n, 4)
    assert net.nbr.min() == -1 and net.nbr.max() < n
    assert len(net.q) == len(net.r) == n // 3
    for i, (q, r, o) in enumerate(net.sectors):
        assert (net.q[i // 3], net.r[i // 3], i % 3) == (q, r, o)
        for k, (dq, dr, o2) in enumerate(NEIGHBOR_RULE[o]):
            j = net.nbr[i, k]
            want = (q + dq, r + dr, o2)
            assert (net.sectors[j] == want) if j >= 0 else (want[:2] not in net.cells)
    with pytest.raises(ValueError):
        net.nbr[0, 0] = 0  # the arrays are read-only
    for a in (net.q, net.r, net.nbr):
        with pytest.raises(ValueError):
            a.flags.writeable = True  # and stay so
        assert not a.flags.writeable


def twelve_gather_nbr(radius):
    """The neighbour array as ``build_network`` once filled it: one
    ``cell_index`` gather per orientation and rule entry."""
    q, r = np.array(hex_ball(radius)).T
    nbr = np.empty((NUM_ORIENTATIONS * len(q), 4), dtype=np.intp)
    for o, rule in NEIGHBOR_RULE.items():
        for k, (dq, dr, o2) in enumerate(rule):
            cell = cell_index(radius, q + dq, r + dr)
            nbr[o::NUM_ORIENTATIONS, k] = np.where(cell >= 0, NUM_ORIENTATIONS * cell + o2, -1)
    return nbr


@pytest.mark.parametrize("radius", [1, 2, 30, 120])
def test_neighbor_array_matches_twelve_gathers(radius):
    net = build_network(radius)
    assert net.nbr.dtype == np.intp
    assert np.array_equal(net.nbr, twelve_gather_nbr(radius))


def test_tx_neighbors_function_matches_the_mapping():
    """``tx_neighbors(net, s)`` answers as ``net.tx_neighbors[s]`` does, for
    plain and numpy integer coordinates; what is no sector tuple is refused."""
    net = build_network(6)
    for s in net.sectors:
        want = net.tx_neighbors[s]
        assert tx_neighbors(net, s) == want
        assert tx_neighbors(net, tuple(np.array(s))) == want
        assert tx_neighbors(net, (np.int32(s[0]), np.int16(s[1]), np.uint8(s[2]))) == want
    for bad in ([0, 0, 0], (0.0, 0, 0), (0, 0.5, 1), "000"):
        with pytest.raises(ValueError, match="unknown sector"):
            tx_neighbors(net, bad)


def test_tx_neighbors_mapping_refuses_an_unknown_sector_and_counts_every_sector():
    net = build_network(2)
    with pytest.raises(KeyError):
        net.tx_neighbors[(99, 0, 0)]
    assert len(net.tx_neighbors) == len(net.sectors) == 57


def test_sectors_share_one_int_per_coordinate():
    """``sectors`` holds the coordinate arrays' values as tuples, and past
    the interpreter's cache of small ints (below -5) each coordinate value
    is one object, not one per tuple."""
    net = build_network(12)
    qs, rs = np.repeat(net.q, NUM_ORIENTATIONS).tolist(), np.repeat(net.r, NUM_ORIENTATIONS).tolist()
    assert net.sectors == tuple(zip(qs, rs, [0, 1, 2] * len(net.q)))
    low = {id(v) for s in net.sectors for v in s[:2] if v < -5}
    assert len(low) <= 7  # the values -12..-6


@pytest.mark.parametrize("radius,cells,sectors", [(1, 7, 21), (2, 19, 57)])
def test_ball_sizes(radius, cells, sectors):
    net = build_network(radius)
    assert len(net.cells) == cells
    assert len(net.sectors) == sectors


@pytest.mark.parametrize("bad", [0, -1])
def test_rejects_bad_radius_and_m(bad, capsys):
    with pytest.raises(ValueError):
        build_network(bad)
    assert main(["lattice", "--radius", str(bad)]) == 2
    assert "--radius: must be a positive integer" in capsys.readouterr().err
    assert main(["lattice", "--radius", "3", "--m", str(bad)]) == 2
    assert f"unrecognized arguments: --m {bad}" in capsys.readouterr().err


def test_interior_sectors_have_exactly_four_neighbors():
    net = build_network(8)
    for s in net.sectors:
        if is_interior(net, (s[0], s[1])):
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


@pytest.mark.parametrize("sector", [(3, 0, 0), (0, 0, 3), (0, 0, -1), (0, 0)])
def test_malformed_sector_rejected(sector):
    net = build_network(2)
    with pytest.raises(ValueError):
        tx_neighbors(net, sector)


@pytest.mark.parametrize("cell", [(3, 0), (2, 1), (0, 0, 0)])
def test_unknown_cell_rejected(cell):
    """A cell off the ball has no cell id, and none of its sectors is known."""
    net = build_network(2)
    assert cell not in net.cells
    if len(cell) == 2:
        assert cell_index(net.radius, *np.array([cell]).T).tolist() == [-1]
    for o in range(NUM_ORIENTATIONS):
        assert net.id_of((*cell, o)) is None
        with pytest.raises(ValueError):
            tx_neighbors(net, (*cell, o))


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
        if not is_interior(net, (q, r)):
            continue
        rel = {(nq - q, nr - r, no) for (nq, nr, no) in net.tx_neighbors[s]}
        assert rel == base[o]


def test_determinism():
    a = build_network(5)
    b = build_network(5)
    assert a.sectors == b.sectors
    assert np.array_equal(a.nbr, b.nbr)
    assert a.tx_neighbors == b.tx_neighbors
    assert adjacency(a) == adjacency(b)


def test_rx_neighbors_are_cell_adjacency():
    """The base-station (rx) conferencing partners of a cell, read off
    ``Network.adjacent``, are its on-lattice hexagonal neighbours."""
    net = build_network(5)
    near = adjacency(net)
    for c in net.cells:
        expected = {(c[0] + dq, c[1] + dr) for dq, dr in HEX_DIRS} & net.cells
        assert near[c] == expected
        if is_interior(net, c):
            assert len(near[c]) == 6


def test_library_builds_no_sector_tuples(monkeypatch):
    """Ids and arrays are the library's only lattice representation: a whole
    pipeline over one lattice, and a ZF trial over the lattice its design
    point builds, never build a ``sectors`` tuple, which is left for callers
    outside the library."""
    built = []

    def recording(radius):
        built.append(build_network(radius))
        return built[-1]

    monkeypatch.setattr(precoding, "build_network", recording)
    net = build_network(6)
    for t in (1, 2):
        plan = clustering.assign_messages(clustering.clusters(net, t), clustering.MODE_MIXED)
        clustering.count_links(plan, clustering.TX)
        clustering.count_links(plan, clustering.RX)
        clustering.assignment_fractions(plan)
        origin = plan.cluster_of((0, 0, 0))
        assert origin.master == (0, 0) and (0, 0, 0) in list(origin.sectors)
    assert len(tx_neighbors(net, (1, 0, 2))) == 4
    for part in (partitions.partition_two(net), partitions.partition_four(net, 2)):
        partitions.census_fractions(net, part)
    assert precoding.run_trial(precoding.system_template(2, 2, "s4"), seed=5).solvable
    assert len(built) == 1
    assert all("sectors" not in vars(n) for n in (net, *built))
    assert len(net.sectors) == 3 * len(hex_ball(6))  # built on first use
    assert "sectors" in vars(net)


@pytest.mark.parametrize("radius", [1, 2, 4])
def test_adjacent_lists_neighbour_ids_in_hex_dirs_order(radius):
    net = build_network(radius)
    cells = hex_ball(radius)
    table = net.adjacent(np.arange(len(cells)))
    assert table.shape == (len(cells), 6)
    for i, (q, r) in enumerate(cells):
        want = [cells.index(nb) if nb in cells else -1 for nb in ((q + dq, r + dr) for dq, dr in HEX_DIRS)]
        assert table[i].tolist() == want == net.adjacent(i).ravel().tolist()


# ---------------------------------------------------------------------------
# properties of the neighbour array and the tx relation


@settings(max_examples=30, deadline=None)
@given(radius=st.integers(1, 14))
def test_neighbor_array_is_symmetric(radius):
    net = build_network(radius)
    src, dst = net.directed_edges()
    pairs = set(zip(src.tolist(), dst.tolist()))
    assert pairs == {(j, i) for i, j in pairs}  # j in nbr[i] <=> i in nbr[j]
    assert all(i // 3 != j // 3 for i, j in pairs)  # never within one cell


@settings(max_examples=200, deadline=None)
@given(
    radius=st.integers(3, 14),
    data=st.data(),
)
def test_tx_relation_translation_invariant_in_interior(radius, data):
    net = build_network(radius)
    inner = hex_ball(radius - 1)  # every neighbour cell is on the lattice
    q, r = data.draw(st.sampled_from(inner))
    q2, r2 = data.draw(st.sampled_from(inner))
    o = data.draw(st.integers(0, 2))
    dq, dr = q2 - q, r2 - r
    moved = {(a + dq, b + dr, c) for (a, b, c) in net.tx_neighbors[(q, r, o)]}
    assert moved == net.tx_neighbors[(q2, r2, o)]
    assert len(moved) == 4


def _rotate(sector):
    """120 degree rotation about the origin, relabelling orientations."""
    q, r, o = sector
    return (-q - r, q, (2, 0, 1)[o])


@settings(max_examples=200, deadline=None)
@given(radius=st.integers(1, 14), data=st.data())
def test_tx_relation_invariant_under_rotation(radius, data):
    net = build_network(radius)
    s = data.draw(st.sampled_from(net.sectors))
    assert _rotate(_rotate(_rotate(s))) == s
    assert {_rotate(n) for n in net.tx_neighbors[s]} == net.tx_neighbors[_rotate(s)]


# ---------------------------------------------------------------------------
# point-query oracles: ``id_of``, ``tx_neighbors`` and ``cluster_of`` as they
# were written before they answered in plain ints, reading the arrays


def id_of_oracle(net, sector):
    if not isinstance(sector, tuple) or len(sector) != 3:
        return None
    try:
        q, r, o = map(index, sector)
    except TypeError:
        return None
    if not 0 <= o < NUM_ORIENTATIONS or cell_distance((q, r), (0, 0)) > net.radius:
        return None
    return NUM_ORIENTATIONS * _cell_id(net.radius, q, r) + o


def tx_of_oracle(net, i):
    """The sectors coupled with sector id ``i``, read off its row of ``nbr``."""
    q, r = net.q.item(i // NUM_ORIENTATIONS), net.r.item(i // NUM_ORIENTATIONS)
    rule = NEIGHBOR_RULE[i % NUM_ORIENTATIONS]
    return frozenset(
        (q + dq, r + dr, o2) for (dq, dr, o2), j in zip(rule, net.nbr[i].tolist()) if j >= 0
    )


def cluster_of_oracle(plan, sector):
    i = id_of_oracle(plan.net, sector)
    if i is None:
        return None
    c = plan.cluster_ids.item(i)
    return None if c < 0 else plan.clusters[c]


@lru_cache(maxsize=None)
def net_and_plans(radius):
    """The lattice of this radius and its cluster plans for every t with 3t <= radius."""
    net = build_network(radius)
    return net, tuple(clustering.clusters(net, t) for t in range(1, radius // 3 + 1))


def assert_queries_match_oracles(radius, sector):
    """``id_of``, both ``tx_neighbors`` entry points and ``cluster_of`` answer
    ``sector`` as the oracles do, refusals and their messages included."""
    net, plans = net_and_plans(radius)
    want = id_of_oracle(net, sector)
    got = net.id_of(sector)
    assert got == want and type(got) is type(want)
    if want is None:
        with pytest.raises(ValueError) as refused:
            tx_neighbors(net, sector)
        assert str(refused.value) == f"unknown sector {sector!r}"
        with pytest.raises(KeyError):
            net.tx_neighbors[sector]
    else:
        assert tx_neighbors(net, sector) == net.tx_neighbors[sector] == tx_of_oracle(net, want)
    for plan in plans:
        assert plan.cluster_of(sector) is cluster_of_oracle(plan, sector)


@pytest.mark.parametrize("radius", range(1, 13))
def test_point_queries_match_array_oracles_on_every_sector(radius):
    """Every sector of the ball and every cell one step past it, as exact int
    tuples, with orientations -1..3."""
    for q, r in hex_ball(radius + 1):
        for o in range(-1, NUM_ORIENTATIONS + 1):
            assert_queries_match_oracles(radius, (q, r, o))


NamedSector = namedtuple("NamedSector", "q r o")

_coordinate = st.integers(-14, 14)
_numpy_int = st.sampled_from([np.int64, np.int32, np.int16, np.intp])
#: what a caller may pass as a sector: exact int tuples, numpy ints, bools
#: and a namedtuple (all read through ``operator.index``), then floats,
#: strings, lists and tuples of the wrong length, which are refused
sector_like = st.one_of(
    st.tuples(_coordinate, _coordinate, st.integers(-2, 4)),
    st.tuples(_coordinate, _coordinate, st.integers(0, 2)).flatmap(
        lambda s: _numpy_int.map(lambda kind: tuple(kind(v) for v in s))),
    st.tuples(st.one_of(_coordinate, st.booleans()), st.one_of(_coordinate, st.booleans()),
              st.one_of(st.integers(0, 2), st.booleans())),
    st.builds(NamedSector, _coordinate, _coordinate, st.integers(-1, 3)),
    st.tuples(st.one_of(_coordinate, st.floats(-3, 3)), _coordinate, st.integers(0, 2)),
    st.tuples(_coordinate, _coordinate, st.integers(0, 2)).map(list),
    st.lists(_coordinate, min_size=2, max_size=4).map(tuple),
    st.text(max_size=3),
    st.none(),
)


def rim_sectors(radius):
    """Sectors of the cells ``radius`` hops out, which lose their off-ball neighbours."""
    rim = [c for c in hex_ball(radius) if cell_distance(c, (0, 0)) == radius]
    return st.builds(lambda c, o: (*c, o), st.sampled_from(rim), st.integers(0, 2))


@settings(max_examples=200, deadline=None)
@given(radius=st.integers(1, 12), data=st.data())
def test_point_queries_match_array_oracles_on_drawn_inputs(radius, data):
    assert_queries_match_oracles(radius, data.draw(st.one_of(sector_like, rim_sectors(radius))))


def test_radius_past_the_cap_is_refused():
    with pytest.raises(ValueError, match=f"radius {MAX_RADIUS + 1} exceeds the cap of {MAX_RADIUS}"):
        build_network(MAX_RADIUS + 1)
