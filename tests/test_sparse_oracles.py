"""The sparse-graph routines ``hexmg.clustering`` once called, kept as
oracles: ``scipy.sparse.csgraph``'s connected components for ``clusters``
and its Hopcroft–Karp matching for ``fast_pattern``.  scipy is a test
dependency only; the library computes both without it."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, maximum_bipartite_matching

from hexmg import clustering
from hexmg.clustering import _hopcroft_karp, _torus_silenced, clusters, fast_pattern
from hexmg.lattice import NEIGHBOR_RULE, SectorSet, build_network


def scipy_labels(net, t, active):
    n = len(active)
    src, dst = net.directed_edges()
    keep = active[src] & active[dst]
    ones = np.ones(np.count_nonzero(keep), dtype=np.int8)
    graph = csr_matrix((ones, (src[keep], dst[keep])), shape=(n, n))
    return connected_components(graph, directed=False)[1]


def scipy_plan(net, t):
    """``clusters`` on scipy's connected components."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clustering, "_component_labels", scipy_labels)
        return clusters(net, t)


def assert_same_plan(plan, want):
    assert np.array_equal(plan.cluster_ids, want.cluster_ids)
    assert plan.masters == want.masters
    assert [cl.master for cl in plan.clusters] == [cl.master for cl in want.clusters]
    assert all(
        np.array_equal(cl.sectors.ids, w.sectors.ids) for cl, w in zip(plan.clusters, want.clusters)
    )


@pytest.mark.parametrize("radius,ts", [(30, range(1, 11)), (31, range(1, 11)), (60, (7,))])
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
def test_clusters_follow_a_silencing_the_torus_does_not_hold(monkeypatch, t):
    """Extra silenced sectors split clusters the torus seed calls whole: the
    seed is dropped, and the components are still scipy's."""
    net = build_network(15)
    before = clusters(net, t)
    extra = np.random.default_rng(t).random(len(net.nbr)) < 0.05
    monkeypatch.setattr(
        clustering, "silenced_sectors",
        lambda net, t: SectorSet(net, before.silenced.labels | extra),
    )
    plan = clusters(net, t)
    # some sectors of whole clusters are cut off from their master
    had_master, has_master = (
        np.array([cl.master is not None for cl in p.clusters]) for p in (before, plan)
    )
    ids = np.flatnonzero(plan.cluster_ids >= 0)
    assert (had_master[before.cluster_ids[ids]] & ~has_master[plan.cluster_ids[ids]]).any()
    assert_same_plan(plan, scipy_plan(net, t))


def test_clusters_without_a_seed_propagate_everywhere(monkeypatch):
    net = build_network(12)
    want = scipy_plan(net, 2)
    monkeypatch.setattr(clustering, "_torus_owners", lambda t, silenced: None)
    assert_same_plan(clusters(net, 2), want)


@pytest.mark.parametrize("t", range(1, 13))
def test_torus_owners_close_each_cluster(t):
    """No edge between active sectors joins two clusters, anywhere: the
    silencing table and the coupling repeat every 3t cells, so checking the
    edges out of one period covers the plane."""
    period = 3 * t
    silenced = _torus_silenced(t)
    offset, _ = clustering._torus_owners(t, silenced)
    q, r = np.divmod(np.arange(period * period), period)
    for o, rule in NEIGHBOR_RULE.items():
        for dq, dr, o2 in rule:
            to = ((q + dq) % period) * period + (r + dr) % period
            both = ~silenced[:, o] & ~silenced[to, o2]
            # the master seen from the neighbour equals the sector's own
            assert (offset[to, o2] + (dq, dr) == offset[:, o])[both].all()


@pytest.mark.parametrize("t", [1, 2, 3])
def test_torus_owners_refuse_a_silencing_that_does_not_tile(t):
    """The seed exists only if the origin master's cluster closes within 3t
    hops and its translates claim each active torus sector once."""
    table = _torus_silenced(t)
    _, reach = clustering._torus_owners(t, table)
    assert reach == t
    assert clustering._torus_owners(t, np.zeros_like(table)) is None
    # silence the (t, t) master's first sector, which the translate of the
    # origin master's cluster still claims
    extra = table.copy()
    extra[t * 3 * t + t, 0] = True
    assert clustering._torus_owners(t, extra) is None


def fast_pattern_oracle(t):
    """``fast_pattern`` on scipy's matching of the same triangle graph."""
    period = 3 * t
    silenced = _torus_silenced(t)
    rows, cols, sector = [], [], {}
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
                rows.append(key[0])
                cols.append(key[1])
                sector[key] = (q, r, o)
    graph = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(period * period,) * 2)
    match = maximum_bipartite_matching(graph, perm_type="column")
    return frozenset(sector[(i, j)] for i, j in enumerate(match.tolist()))


def test_fast_pattern_matches_scipy_matching():
    for t in range(1, 21):
        period = 3 * t
        want = np.zeros((period * period, 3), dtype=bool)
        for q, r, o in fast_pattern_oracle(t):
            want[q * period + r, o] = True
        assert np.array_equal(fast_pattern(t), want)


def scipy_matching(mask):
    return maximum_bipartite_matching(csr_matrix(mask.astype(np.int8)), perm_type="column").tolist()


def test_hopcroft_karp_matches_scipy_on_sparse_random_graphs():
    """Sparse graphs need several phases, where the visiting order shows."""
    rng = np.random.default_rng(0)
    for _ in range(300):
        n_rows, n_cols = rng.integers(10, 90, size=2)
        mask = rng.random((n_rows, n_cols)) < rng.uniform(1, 4) / n_cols
        adj = [np.flatnonzero(row).tolist() for row in mask]
        assert _hopcroft_karp(adj, int(n_cols)) == scipy_matching(mask)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 10).flatmap(
        lambda n_cols: st.lists(
            st.lists(st.booleans(), min_size=n_cols, max_size=n_cols), min_size=1, max_size=10
        )
    )
)
def test_hopcroft_karp_matches_scipy_on_small_graphs(grid):
    mask = np.array(grid, dtype=bool)
    adj = [np.flatnonzero(row).tolist() for row in mask]
    assert _hopcroft_karp(adj, mask.shape[1]) == scipy_matching(mask)


def test_imperfect_matching_is_refused(monkeypatch):
    assert _hopcroft_karp([[0], [0]], 1) == [0, -1]
    # silence the three sectors whose triangle edges leave torus row 0 at t=1
    table = _torus_silenced(1).copy()
    table[[0, 3, 5], [0, 1, 2]] = True
    monkeypatch.setattr(clustering, "_torus_silenced", lambda t: table)
    fast_pattern.cache_clear()
    with pytest.raises(RuntimeError, match="no perfect fast pattern found for t=1"):
        fast_pattern(1)
