"""The sparse-graph routines ``hexmg.clustering`` once called, kept as
oracles: ``scipy.sparse.csgraph``'s connected components for ``clusters``,
and its maximum bipartite matching, whose size the library's matcher must
reach and which finds a perfect matching of the torus triangle graph wherever
``fast_pattern`` does.  scipy is a test dependency only; the library
computes both without it."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, maximum_bipartite_matching

from hexmg import clustering
from hexmg.clustering import (
    _max_matching,
    _torus_silenced,
    clusters,
    fast_pattern,
    is_master_cell,
)
from hexmg.lattice import NEIGHBOR_RULE, build_network, cell_distance


def scipy_plan(net, t):
    """The decomposition ``clusters`` must give, from scipy's connected
    components of the sectors ``clustering.silenced_sectors`` leaves active:
    per cluster its master cell (None if it holds none) and its ascending
    ids; the clusters with a master in master cell order, then the rest,
    ties by first id; and the per-sector cluster index."""
    active = ~clustering.silenced_sectors(net, t).labels
    n = len(active)
    src, dst = net.directed_edges()
    keep = active[src] & active[dst]
    ones = np.ones(np.count_nonzero(keep), dtype=np.int8)
    graph = csr_matrix((ones, (src[keep], dst[keep])), shape=(n, n))
    labels = connected_components(graph, directed=False)[1]
    ids = np.flatnonzero(active)
    ids = ids[np.argsort(labels[ids], kind="stable")]
    is_master = is_master_cell((net.q, net.r), t)
    found = []
    for group in np.split(ids, np.flatnonzero(np.diff(labels[ids])) + 1):
        cells = np.unique(group // 3)
        owners = cells[is_master[cells]].tolist()
        assert len(owners) <= 1
        found.append((owners[0] if owners else None, group))
    found.sort(key=lambda c: (c[0] is None, c[1][0] if c[0] is None else c[0], c[1][0]))
    cluster_ids = np.full(n, -1)
    for i, (_, group) in enumerate(found):
        cluster_ids[group] = i
    coords = list(zip(net.q.tolist(), net.r.tolist()))
    return (
        cluster_ids,
        tuple(coords[c] for c in np.flatnonzero(is_master)),
        [None if c is None else coords[c] for c, _ in found],
        [group for _, group in found],
    )


def assert_same_plan(plan, want):
    cluster_ids, masters, cluster_masters, groups = want
    assert np.array_equal(plan.cluster_ids, cluster_ids)
    assert plan.masters == masters
    assert [cl.master for cl in plan.clusters] == cluster_masters
    assert len(plan.clusters) == len(groups)
    assert all(np.array_equal(cl.sectors.ids, g) for cl, g in zip(plan.clusters, groups))


@pytest.mark.parametrize(
    "radius,ts", [(30, range(1, 11)), (31, range(1, 11)), (60, (7,)), (120, (1, 4))]
)
def test_clusters_match_connected_components(radius, ts):
    net = build_network(radius)
    for t in ts:
        assert_same_plan(clusters(net, t), scipy_plan(net, t))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 8).flatmap(lambda t: st.tuples(st.just(t), st.integers(3 * t, 24))))
def test_clusters_match_connected_components_on_small_lattices(t_radius):
    t, radius = t_radius
    net = build_network(radius)
    assert_same_plan(clusters(net, t), scipy_plan(net, t))


@pytest.mark.parametrize("t", [1, 2])
def test_clusters_refuse_a_silencing_that_does_not_tile(monkeypatch, torus_table, t):
    """A silencing whose translates of the origin cluster do not tile, the
    one ``test_torus_owners_refuse_a_silencing_that_does_not_tile`` builds,
    is refused with t named, before any component search."""
    extra = _torus_silenced(t).copy()
    extra[t * 3 * t + t, 0] = True
    torus_table(extra)
    monkeypatch.setattr(clustering, "_component_labels",
                        lambda *a: pytest.fail("a component search ran"))
    with pytest.raises(clustering.UncutLatticeError, match=f"^the silencing at t={t} does not"):
        clusters(build_network(15), t)


@pytest.mark.parametrize("t", range(1, 13))
def test_torus_owners_close_each_cluster(t):
    """No edge between active sectors joins two clusters, anywhere: the
    silencing table and the coupling repeat every 3t cells, so checking the
    edges out of one period covers the plane."""
    period = 3 * t
    silenced = _torus_silenced(t)
    # per torus row and orientation: the offset to the master whose
    # translate of the origin cluster holds that sector
    cq, cr, co = clustering._origin_cluster(t, silenced).T
    offset = np.zeros((period * period, 3, 2), dtype=np.intp)
    for mq, mr in ((0, 0), (t, t), (2 * t, 2 * t)):
        offset[((mq + cq) % period) * period + (mr + cr) % period, co] = np.column_stack([-cq, -cr])
    q, r = np.divmod(np.arange(period * period), period)
    for o, rule in NEIGHBOR_RULE.items():
        for dq, dr, o2 in rule:
            to = ((q + dq) % period) * period + (r + dr) % period
            both = ~silenced[:, o] & ~silenced[to, o2]
            # the master seen from the neighbour equals the sector's own
            assert (offset[to, o2] + (dq, dr) == offset[:, o])[both].all()


@pytest.mark.parametrize("t", [1, 2, 3])
def test_torus_owners_refuse_a_silencing_that_does_not_tile(t):
    """The translation layout exists only if the origin master's cluster
    closes within 3t hops and its translates claim each active torus sector
    once."""
    table = _torus_silenced(t)
    cluster = clustering._origin_cluster(t, table)
    # the origin master's cluster in (q, r, o) order, t hops across
    assert cluster.tolist() == sorted(cluster.tolist())
    assert len(cluster) == 9 * t * t - 3 * t
    assert cell_distance(cluster.T[:2], (0, 0)).max() == t
    assert clustering._origin_cluster(t, np.zeros_like(table)) is None
    # silence the (t, t) master's first sector, which the translate of the
    # origin master's cluster still claims
    extra = table.copy()
    extra[t * 3 * t + t, 0] = True
    assert clustering._origin_cluster(t, extra) is None


def triangle_graph(t):
    """The torus triangle graph, sector by sector: ``(row, column) ->
    sector`` over the active sectors, each joining the row and the column
    triangle it belongs to."""
    period = 3 * t
    silenced = _torus_silenced(t)
    edges = {}
    for q in range(period):
        for r in range(period):
            for o in range(3):
                if silenced[q * period + r, o]:
                    continue
                i, j = (
                    ((q, r), (q, r)),
                    ((q - 1, r), (q, r - 1)),
                    ((q - 1, r + 1), (q - 1, r)),
                )[o]
                key = tuple((a % period) * period + b % period for a, b in (i, j))
                assert key not in edges
                edges[key] = (q, r, o)
    return edges


def test_fast_pattern_is_a_perfect_matching_of_the_triangle_graph():
    """Every row and column triangle of the torus holds exactly one fast
    sector, no fast sector is silenced, and scipy finds a perfect matching
    of the same graph too."""
    for t in range(1, 21):
        period = 3 * t
        n = period * period
        edges = triangle_graph(t)
        cell, o = np.nonzero(fast_pattern(t))
        fast = set(zip((cell // period).tolist(), (cell % period).tolist(), o.tolist()))
        keys = [key for key, sector in edges.items() if sector in fast]
        assert len(keys) == len(fast) == n
        assert sorted(i for i, _ in keys) == sorted(j for _, j in keys) == list(range(n))
        rows, cols = np.array(list(edges)).T
        graph = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        assert (maximum_bipartite_matching(graph, perm_type="column") >= 0).all()


def scipy_matching_size(mask):
    match = maximum_bipartite_matching(csr_matrix(mask.astype(np.int8)), perm_type="column")
    return int(np.count_nonzero(match >= 0))


def assert_maximum_matching(mask):
    """``_max_matching`` returns a matching of ``mask``'s graph, as large as
    scipy's."""
    adj = [np.flatnonzero(row).tolist() for row in mask]
    match = _max_matching(adj, mask.shape[1])
    taken = [(x, y) for x, y in enumerate(match) if y >= 0]
    assert all(mask[x, y] for x, y in taken)
    assert len({y for _, y in taken}) == len(taken) == scipy_matching_size(mask)


def test_max_matching_has_scipys_size_on_sparse_random_graphs():
    """Sparse graphs need augmenting paths past the first free column."""
    rng = np.random.default_rng(0)
    for _ in range(300):
        n_rows, n_cols = rng.integers(10, 90, size=2)
        assert_maximum_matching(rng.random((n_rows, n_cols)) < rng.uniform(1, 4) / n_cols)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 10).flatmap(
        lambda n_cols: st.lists(
            st.lists(st.booleans(), min_size=n_cols, max_size=n_cols), min_size=1, max_size=10
        )
    )
)
def test_max_matching_has_scipys_size_on_small_graphs(grid):
    assert_maximum_matching(np.array(grid, dtype=bool))


def test_imperfect_matching_is_refused(monkeypatch):
    assert _max_matching([[0], [0]], 1) == [0, -1]
    # at t=1 the three sectors (row, orientation) whose triangle edges leave
    # torus row 0, then their translates by (1, 1) into rows 4 and 8
    row_0 = [(0, 0), (3, 1), (5, 2)]
    translates = [(4, 0), (7, 1), (6, 2), (8, 0), (2, 1), (1, 2)]
    for silenced, error in [
        (row_0 + translates, "no perfect fast pattern found for t=1"),
        # a silencing the translation does not keep: a copied fast sector is silenced
        (row_0, "fast pattern degenerate for t=1"),
    ]:
        table = _torus_silenced(1).copy()
        table[tuple(zip(*silenced))] = True
        monkeypatch.setattr(clustering, "_torus_silenced", lambda t: table)
        fast_pattern.cache_clear()
        with pytest.raises(RuntimeError, match=error):
            fast_pattern(1)
