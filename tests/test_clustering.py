import copy
import dataclasses
import math
import pickle
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from hexmg import clustering
from hexmg.clustering import (
    FAST,
    MODE_MIXED,
    MODE_SLOW_ONLY,
    ROLES,
    RX,
    SILENT,
    SLOW,
    TX,
    _AXIS_ORIENTATION,
    _up_offsets,
    assign_messages,
    assignment_fractions,
    clusters,
    cluster_link_count,
    count_links,
    fast_pattern,
    is_master_cell,
    master_axes,
    master_grid,
    role_census,
    role_codes,
    silenced_sectors,
)
from hexmg.lattice import HEX_DIRS, Cell, build_network, cell_distance
from hexmg.regions import FAMILY_MIXED, FAMILY_SLOW, _family_prices, required_prelogs
from test_lattice import hex_ball


# ---------------------------------------------------------------------------
# per-cell oracles: silencing, ownership and clusters computed cell by cell
# over the whole lattice, without the 3t x 3t torus or a sparse-graph library


def nearest_masters(cell: Cell, t: int) -> Tuple[int, Tuple[Cell, ...]]:
    """Distance to and sorted list of nearest masters on the infinite grid."""
    q, r = cell
    af = (q + 2 * r) / (3 * t)
    bf = (q - r) / (3 * t)
    best: Optional[int] = None
    winners: List[Cell] = []
    for a in range(math.floor(af) - 1, math.floor(af) + 3):
        for b in range(math.floor(bf) - 1, math.floor(bf) + 3):
            m = ((a + 2 * b) * t, (a - b) * t)
            d = cell_distance(cell, m)
            if best is None or d < best:
                best, winners = d, [m]
            elif d == best:
                winners.append(m)
    return best, tuple(sorted(set(winners)))


def _classify_silenced(cell: Cell, t: int) -> Tuple[int, ...]:
    """Orientations silenced in ``cell`` (empty tuple for active cells)."""
    d, masters = nearest_masters(cell, t)
    if d != t:
        return ()
    if len(masters) >= 3:
        m0 = masters[0]
        off = (cell[0] - m0[0], cell[1] - m0[1])
        if off in _up_offsets(t):
            return (0, 1, 2)
        return ()
    if len(masters) == 2:
        ax = (masters[1][0] - masters[0][0], masters[1][1] - masters[0][1])
        for i, u in enumerate(master_axes(t)):
            if ax == u or ax == (-u[0], -u[1]):
                return (_AXIS_ORIENTATION[i],)
        raise RuntimeError(f"unexpected master pair axis {ax} at {cell}")
    raise RuntimeError(f"single nearest master at ring distance t: {cell}")


def silenced_oracle(net, t):
    return frozenset(
        (q, r, o) for (q, r) in net.cells for o in _classify_silenced((q, r), t)
    )


def interior_region_oracle(net, t):
    """The interior master nearest the origin and the cells it owns."""
    owner = {c: nearest_masters(c, t)[1][0] for c in net.cells}
    for m in sorted(master_grid(net, t), key=lambda c: (cell_distance(c, (0, 0)), c)):
        if cell_distance(m, (0, 0)) + t + 1 <= net.radius:
            return m, sorted(c for c, own in owner.items() if own == m)
    raise ValueError(f"no interior cluster at radius {net.radius}")


def clusters_oracle(net, t, silenced):
    """Union-find over the active interference graph: the ordered
    ``[(master, sectors)]`` list, partial clusters (master None) last."""
    active = [s for s in net.sectors if s not in silenced]
    active_set = frozenset(active)
    parent = {s: s for s in active}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for s in active:
        for nb in net.tx_neighbors[s]:
            if nb in active_set:
                ra, rb = find(s), find(nb)
                if ra != rb:
                    parent[ra] = rb

    groups = {}
    for s in active:
        groups.setdefault(find(s), []).append(s)
    master_set = set(master_grid(net, t))
    out = []
    for members in groups.values():
        owners = sorted({(q, r) for (q, r, _) in members if (q, r) in master_set})
        assert len(owners) <= 1
        out.append((owners[0] if owners else None, frozenset(members)))
    out.sort(key=lambda c: (c[0] is None, c[0] or min(c[1])))
    return out


@pytest.mark.parametrize(
    "t,radius", [(t, radius) for t in (1, 2, 3, 4) for radius in (3 * t, 3 * t + 2, 6 * t)]
)
def test_torus_plan_matches_per_cell_oracles(t, radius):
    net = build_network(radius)
    plan = clusters(net, t)
    silenced = silenced_oracle(net, t)
    assert plan.silenced == silenced
    want = clusters_oracle(net, t, silenced)
    assert [(cl.master, cl.sectors) for cl in plan.clusters] == want
    assert any(master is None for master, _ in want)  # boundary pieces covered
    # the origin is always the interior master nearest itself, and the torus gives it the
    # same cells: those whose offset from their first nearest master is their position
    first = clustering._torus_nearest(t)[2][clustering._torus_index(net.q, net.r, t)]
    own = (first == np.column_stack([net.q, net.r])).all(axis=1)
    region = list(zip(net.q[own].tolist(), net.r[own].tolist()))
    assert interior_region_oracle(net, t) == ((0, 0), region)
    assert len(region) == 3 * t * t

    owner = {s: i for i, (_, sectors) in enumerate(want) for s in sectors}
    off_lattice = [(radius + 1, 0, 0), (0, -radius - 1, 2), (radius, 1, 1)]
    for s in list(net.sectors) + off_lattice:
        i = owner.get(s)
        assert plan.cluster_of(s) is (None if i is None else plan.clusters[i])


@settings(max_examples=40, deadline=None)
@given(
    t=st.integers(1, 3),
    extra=st.integers(0, 4),
    picks=st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20), st.integers(-1, 3)),
                   max_size=30),
    index=st.integers(-200, 200),
    cut=st.tuples(st.integers(-30, 30), st.integers(-30, 30), st.sampled_from([1, 2, -1, -3])),
)
def test_cluster_views_match_frozenset_oracle(t, extra, picks, index, cut):
    """``plan.clusters`` is a tuple in the oracle's order; each ``sectors``
    view behaves as the frozenset the union-find oracle computes."""
    net = build_network(3 * t + extra)
    plan = clusters(net, t)
    want = clusters_oracle(net, t, silenced_oracle(net, t))
    assert len(plan.clusters) == len(want)
    if -len(want) <= index < len(want):
        cl = plan.clusters[index]
        assert cl is plan.clusters[index % len(want)]
        assert (cl.master, cl.sectors) == want[index]
    else:
        with pytest.raises(IndexError):
            plan.clusters[index]
    sliced = plan.clusters[slice(*cut)]
    assert isinstance(sliced, tuple)
    assert [(cl.master, cl.sectors) for cl in sliced] == want[slice(*cut)]
    assert all(a is b for a, b in zip(sliced, list(plan.clusters)[slice(*cut)]))

    for i, (cl, (master, members)) in enumerate(zip(plan.clusters, want)):
        view = cl.sectors
        assert len(view) == len(members)
        assert list(view) == sorted(members)  # ascending iteration
        assert view == members and members == view
        assert all(s in view for s in members)
        assert cl.master == master
        assert plan.cluster_of(next(iter(view))) is cl is plan.clusters[i]
    # membership for lattice, off-lattice, silenced and malformed sectors
    probes = list(picks) + list(plan.silenced)[:5] + [(0, 0, 0), (0, 0)]
    for s in probes:
        for cl, (_, members) in zip(plan.clusters, want):
            assert (s in cl.sectors) == (s in members)


@settings(max_examples=200, deadline=None)
@given(
    t=st.integers(1, 6),
    q=st.integers(-80, 80),
    r=st.integers(-80, 80),
    a=st.integers(-6, 6),
    b=st.integers(-6, 6),
)
def test_silencing_periodic_and_ownership_translates(t, q, r, a, b):
    # silencing repeats every 3t cells along both axial directions
    assert _classify_silenced((q + 3 * t * a, r + 3 * t * b), t) == _classify_silenced((q, r), t)
    # any master translation carries the nearest masters, owner first, along
    m = ((a + 2 * b) * t, (a - b) * t)
    assert is_master_cell(m, t)
    d, near = nearest_masters((q, r), t)
    assert nearest_masters((q + m[0], r + m[1]), t) == (
        d,
        tuple((x + m[0], y + m[1]) for (x, y) in near),
    )


@pytest.mark.parametrize("t", range(1, 9))
def test_torus_silenced_matches_per_cell_classification(t):
    period = 3 * t
    want = np.zeros((period * period, 3), dtype=bool)
    dist, count, first, last = clustering._torus_nearest(t)
    for q in range(period):
        for r in range(period):
            row = q * period + r
            want[row, list(_classify_silenced((q, r), t))] = True
            d, near = nearest_masters((q, r), t)
            assert (dist[row], count[row]) == (d, len(near))
            assert tuple(first[row]) == (q - near[0][0], r - near[0][1])
            assert tuple(last[row]) == (q - near[-1][0], r - near[-1][1])
    assert np.array_equal(clustering._torus_silenced(t), want)


def test_master_grid_contains_origin_and_min_spacing():
    net = build_network(12)
    for t in (1, 2, 3, 4):
        masters = master_grid(net, t)
        assert (0, 0) in masters
        dists = sorted(
            cell_distance(a, b) for i, a in enumerate(masters) for b in masters[i + 1 :]
        )
        assert dists[0] == 2 * t


def test_master_density_against_brute_force_census():
    # one master per 3*t**2 cells on the infinite lattice
    cells = hex_ball(30)
    for t in (1, 2, 3):
        count = sum(1 for c in cells if is_master_cell(c, t))
        frac = Fraction(count, len(cells))
        assert abs(frac - Fraction(1, 3 * t * t)) < Fraction(1, 100)


def test_master_grid_rejects_large_t():
    net = build_network(5)
    with pytest.raises(ValueError):
        master_grid(net, 2)
    with pytest.raises(ValueError):
        master_grid(net, 0)


def test_silenced_cells_sit_at_distance_t():
    net = build_network(12)
    for t in (1, 2, 3):
        for (q, r, _o) in silenced_sectors(net, t):
            d, _ = nearest_masters((q, r), t)
            assert d == t


def test_masters_never_silenced():
    net = build_network(12)
    for t in (1, 2):
        silenced_cells = {(q, r) for (q, r, _o) in silenced_sectors(net, t)}
        assert not silenced_cells & set(master_grid(net, t))


def test_silenced_fraction_tends_to_one_over_3t():
    net = build_network(30)
    for t in (1, 2, 4):
        plan = assign_messages(clusters(net, t), MODE_SLOW_ONLY)
        fr = assignment_fractions(plan)
        assert abs(fr[SILENT] - Fraction(1, 3 * t)) <= Fraction(1, 50)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_clusters_partition_and_single_master(t):
    net = build_network(max(6 * t, 12))
    plan = clusters(net, t)
    seen = set()
    for cl in plan.clusters:
        assert not cl.sectors & seen
        seen |= cl.sectors
    active = {s for s in net.sectors if s not in plan.silenced}
    assert seen == active

    interior = set(plan.interior_masters())
    assert interior
    sizes = set()
    for cl in plan.clusters:
        if cl.master in interior:
            sizes.add(len(cl.sectors))
            # one master, and the master cell's orientation-0 user lives in it
            assert (*cl.master, 0) in cl.sectors
            masters_inside = {
                (q, r) for (q, r, _o) in cl.sectors if is_master_cell((q, r), t)
            }
            assert masters_inside == {cl.master}
            assert max(
                cell_distance((q, r), cl.master) for (q, r, _o) in cl.sectors
            ) <= t
    assert sizes == {9 * t * t - 3 * t}


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_every_cluster_is_built_and_matches_the_labels(t):
    """``clusters`` builds every ``Cluster`` itself.  Each one's ids are its
    label's in ``cluster_ids``, and its master is the master cell among its
    cells, None for a boundary piece that holds none.  A cluster is
    immutable, equal only to itself, copyable and picklable."""
    net = build_network(20)
    plan = clusters(net, t)
    assert type(plan.clusters) is tuple
    assert len(plan.clusters) == plan.cluster_ids.max() + 1
    for i, cl in enumerate(plan.clusters):
        assert type(cl) is clustering.Cluster
        assert np.array_equal(cl.sectors.ids, np.flatnonzero(plan.cluster_ids == i))
        assert (cl.sectors.labels is plan.cluster_ids, cl.sectors.label) == (True, i)
        cells = np.unique(cl.sectors.ids // 3)
        owners = cells[is_master_cell((net.q[cells], net.r[cells]), t)]
        want = [(int(net.q[c]), int(net.r[c])) for c in owners]
        assert len(want) <= 1
        assert cl.master == (want[0] if want else None)

    cl = plan.clusters[0]
    for name in ("master", "sectors", "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cl, name, None)
    twin = clustering.Cluster(cl.master, cl.sectors)
    assert twin != cl and hash(twin) != hash(cl)
    assert len({cl, twin, plan.clusters[0]}) == 2
    clone = copy.copy(cl)
    assert (clone is not cl, clone.master, clone.sectors) == (True, cl.master, cl.sectors)
    thawed = pickle.loads(pickle.dumps(cl))
    assert type(thawed) is clustering.Cluster and thawed.master == cl.master
    assert np.array_equal(thawed.sectors.ids, cl.sectors.ids)


def test_cluster_fields_cannot_be_deleted_and_repr_names_both():
    cl = clusters(build_network(6), 1).cluster_of((0, 0, 0))
    for name in ("master", "sectors"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(cl, name)
    assert cl.master == (0, 0)
    assert repr(cl) == f"Cluster(master=(0, 0), sectors={cl.sectors!r})"


def test_censuses_refuse_what_they_cannot_count():
    """A radius with no interior sector, and a plan not yet assigned, have
    no role census."""
    net = build_network(1)
    with pytest.raises(ValueError, match="^no interior sectors at this radius$"):
        role_census(net, np.zeros(len(net.nbr), dtype=np.intp))
    with pytest.raises(ValueError, match="^plan has no assignment; call assign_messages first$"):
        assignment_fractions(clusters(build_network(6), 1))


def test_no_interference_edge_crosses_clusters():
    net = build_network(12)
    plan = clusters(net, 2)
    owner = {}
    for i, cl in enumerate(plan.clusters):
        for s in cl.sectors:
            owner[s] = i
    for s, i in owner.items():
        for nb in net.tx_neighbors[s]:
            if nb in owner:
                assert owner[nb] == i


def test_cluster_master_is_among_nearest():
    net = build_network(12)
    plan = clusters(net, 2)
    for cl in plan.clusters:
        if cl.master is None:
            continue
        for (q, r, _o) in cl.sectors:
            _, nearest = nearest_masters((q, r), 2)
            assert cl.master in nearest


def count_links_oracle(plan, side):
    """Reference count: the sizes of the tuple neighbourhoods of the cells
    the origin master owns, found cell by cell."""
    region = [c for c in hex_ball(plan.t) if nearest_masters(c, plan.t)[1][0] == (0, 0)]
    if side == TX:
        return sum(len(plan.net.tx_neighbors[(q, r, o)]) for (q, r) in region for o in range(3))
    return sum((q + dq, r + dr) in plan.net.cells for (q, r) in region for dq, dr in HEX_DIRS)


@pytest.mark.parametrize("t", range(1, 9))
def test_link_counts_by_enumeration(t):
    for radius in (3 * t, 3 * t + 1, 6 * t):
        net = build_network(radius)
        plan = clusters(net, t)
        assert count_links(plan, TX) == count_links_oracle(plan, TX) == 36 * t * t
        assert count_links(plan, RX) == count_links_oracle(plan, RX) == 18 * t * t
        assert (cluster_link_count(net, t, TX), cluster_link_count(net, t, RX)) == (
            36 * t * t, 18 * t * t)


def test_link_count_needs_interior_cluster():
    net = build_network(3)
    plan = clusters(net, 1)
    assert count_links(plan, TX) == 36  # radius 3 still holds an interior region
    with pytest.raises(ValueError):
        count_links(plan, "sideways")
    with pytest.raises(ValueError, match="side must be"):
        cluster_link_count(net, 1, "sideways")
    with pytest.raises(ValueError, match="too large"):
        cluster_link_count(net, 2, TX)  # radius 3 < 3t


def test_clusters_refuse_a_lattice_left_uncut(torus_table):
    """With nothing silenced, the origin master's cluster never closes, and
    ``clusters`` refuses the lattice, naming t."""
    torus_table(np.zeros((9, 3), dtype=bool))
    with pytest.raises(clustering.UncutLatticeError, match="^the silencing at t=1 does not cut"):
        clusters(build_network(6), 1)


def roles_of(plan):
    """``sector -> FAST / SLOW / SILENT``, read off the plan's role codes."""
    return {s: ROLES[code] for s, code in zip(plan.net.sectors, plan.roles.tolist())}


def assignment_oracle(net, t, mode):
    """Roles sector by sector from the per-cell silencing and the fast pattern."""
    silenced = silenced_oracle(net, t)
    period = 3 * t
    fast = fast_pattern(t) if mode == MODE_MIXED else np.zeros((period * period, 3), dtype=bool)
    roles = {}
    for s in net.sectors:
        if s in silenced:
            roles[s] = SILENT
        elif fast[(s[0] % period) * period + s[1] % period, s[2]]:
            roles[s] = FAST
        else:
            roles[s] = SLOW
    return roles


@pytest.mark.parametrize("mode", [MODE_MIXED, MODE_SLOW_ONLY])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_assignment_and_fractions_match_sector_oracle(t, mode):
    net = build_network(6 * t + 2)
    plan = assign_messages(clusters(net, t), mode)
    roles = assignment_oracle(net, t, mode)
    assert roles_of(plan) == roles
    for depth in (2, 3):
        interior = [s for s in net.sectors if cell_distance(s[:2], (0, 0)) <= net.radius - depth]
        want = {role: Fraction(sum(roles[s] == role for s in interior), len(interior))
                for role in (FAST, SLOW, SILENT)}
        assert assignment_fractions(plan, depth) == want


def clustered_roles(plan, mode):
    """Role codes on the clustered path: the fast pattern's torus rows, then
    SILENT on the plan's own silencing."""
    period = 3 * plan.t
    torus = np.full((period * period, 3), ROLES.index(SLOW), dtype=np.int8)
    if mode == MODE_MIXED:
        torus[fast_pattern(plan.t)] = ROLES.index(FAST)
    roles = torus[(plan.net.q % period) * period + plan.net.r % period].ravel()
    roles[plan.silenced.labels] = ROLES.index(SILENT)
    return roles


@pytest.mark.parametrize("mode", [MODE_MIXED, MODE_SLOW_ONLY])
@pytest.mark.parametrize("radius", [12, 20, 30, 40])
def test_role_census_matches_the_clustered_path(radius, mode):
    """The role rule builds no cluster plan, yet gives the clustered path's
    codes, which ``assign_messages`` attaches, and its census."""
    net = build_network(radius)
    for t in range(1, radius // 3 + 1)[:4]:
        codes = role_codes(net, t, mode)
        plan = assign_messages(clusters(net, t), mode)
        assert np.array_equal(codes, clustered_roles(plan, mode))
        assert np.array_equal(codes, plan.roles)
        assert role_census(net, codes) == assignment_fractions(plan)


def test_mixed_assignment_fast_is_independent():
    net = build_network(14)
    for t in (1, 2):
        plan = assign_messages(clusters(net, t), MODE_MIXED)
        roles = roles_of(plan)
        fast = {s for s, role in roles.items() if role == FAST}
        for s in fast:
            assert plan.roles[net.id_of(s)] == ROLES.index(FAST)
            for nb in net.tx_neighbors[s]:
                assert roles[nb] != FAST
        assert not fast & plan.silenced


@pytest.mark.parametrize("t", [1, 2, 4])
def test_mixed_assignment_fractions(t):
    net = build_network(30)
    plan = assign_messages(clusters(net, t), MODE_MIXED)
    fr = assignment_fractions(plan)
    tol = Fraction(1, 50)
    assert abs(fr[FAST] - Fraction(1, 3)) <= tol
    assert abs(fr[SLOW] - Fraction(2 * t - 1, 3 * t)) <= tol
    assert abs(fr[SILENT] - Fraction(1, 3 * t)) <= tol


def test_slow_only_assignment():
    net = build_network(12)
    plan = assign_messages(clusters(net, 1), MODE_SLOW_ONLY)
    fr = assignment_fractions(plan)
    assert fr[FAST] == 0
    assert abs(fr[SLOW] - Fraction(2, 3)) <= Fraction(1, 50)
    with pytest.raises(ValueError):
        assign_messages(plan, "HALF")


def test_fast_pattern_exact_density_on_torus():
    for t in (1, 2, 3, 4, 5):
        pat = fast_pattern(t)
        assert pat.shape == (9 * t * t, 3) and pat.dtype == bool
        assert np.count_nonzero(pat) == 9 * t * t  # exactly one third of 27*t**2 sectors


def test_fast_pattern_invariant_under_master_translation():
    for t in range(1, 21):
        period = 3 * t
        q, r = np.divmod(np.arange(period * period), period)
        shifted = ((q + t) % period) * period + (r + t) % period
        assert np.array_equal(fast_pattern(t)[shifted], fast_pattern(t))


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_every_interior_cluster_has_the_origin_clusters_roles(t):
    """Relative to its master, every interior cluster carries the same roles
    as the origin master's, which the zero-forcing trials certify."""
    net = build_network(12 * t)
    plan = assign_messages(clusters(net, t), MODE_MIXED)

    def layout(master):
        ids = plan.cluster_of((*master, 0)).sectors.ids
        cell = ids // 3
        return set(zip((net.q[cell] - master[0]).tolist(), (net.r[cell] - master[1]).tolist(),
                       (ids % 3).tolist(), plan.roles[ids].tolist()))

    masters = plan.interior_masters()
    assert len(masters) > 3
    want = layout((0, 0))
    assert {ROLES[role] for *_, role in want} == {FAST, SLOW}
    assert all(layout(m) == want for m in masters)


def test_fast_pattern_table_is_read_only():
    """Every caller shares the cached table: a write raises, the table cannot
    be made writable again, and later assignments stay as they were."""
    net = build_network(6)
    plan = clusters(net, 2)
    want = assign_messages(plan, MODE_MIXED).roles
    table = fast_pattern(2)
    with pytest.raises(ValueError):
        table[0, 0] = not table[0, 0]
    with pytest.raises(ValueError):
        table[:] = False
    with pytest.raises(ValueError):
        table.flags.writeable = True
    assert not table.flags.writeable
    assert fast_pattern(2) is table
    assert np.array_equal(assign_messages(plan, MODE_MIXED).roles, want)


#: The paper's conferencing messages one cluster sends, ``scheme -> (tx,
#: rx)``, on symbolic or integer t and m.
MESSAGES = {
    "s2": lambda t, m: (0, 6 * m * t**2 * (2 * t - 1)),
    "s3": lambda t, m: (12 * m * t**2 * (2 * t - 1), 0),
    "s4": lambda t, m: (2 * m * t * (8 * t**2 + 3 * t - 2), 3 * m * (3 * t**2 - 1)),
    "s5": lambda t, m: (6 * m * t * (2 * t - 1), m * (8 * t**3 + 6 * t**2 + t - 3)),
}


def messages_over_links(plan, scheme, m):
    """Messages as the library's prelogs times the enumerated links."""
    need = required_prelogs(scheme, plan.t, m)
    return need.mu_tx * count_links(plan, TX), need.mu_rx * count_links(plan, RX)


def test_message_counts_match_closed_forms():
    net = build_network(12)
    plan = clusters(net, 1)
    assert messages_over_links(plan, "s4", 3) == (54, 18)
    assert messages_over_links(plan, "s5", 3)[0] == 18
    assert messages_over_links(plan, "s1", 3) == (0, 0)
    for t in (1, 2, 3, 4):
        plan_t = clusters(net, t) if 3 * t <= net.radius else None
        if plan_t is None:
            continue
        for m in (1, 3):
            for scheme in ("s4", "s5"):
                assert messages_over_links(plan_t, scheme, m) == MESSAGES[scheme](t, m)


def test_required_prelogs_examples():
    assert required_prelogs("s4", 1, 3) == required_prelogs("s4", 1, 3)
    r4 = required_prelogs("s4", 1, 3)
    assert (r4.mu_tx, r4.mu_rx) == (Fraction(3, 2), Fraction(1))
    r5 = required_prelogs("s5", 1, 3)
    assert (r5.mu_tx, r5.mu_rx) == (Fraction(1, 2), Fraction(2))
    r1 = required_prelogs("s1", 7, 2)
    assert (r1.mu_tx, r1.mu_rx) == (0, 0)
    r2 = required_prelogs("s2", 2, 1)
    assert (r2.mu_tx, r2.mu_rx) == (0, Fraction(1))
    r3 = required_prelogs("s3", 2, 1)
    assert (r3.mu_tx, r3.mu_rx) == (Fraction(1), 0)
    with pytest.raises(ValueError):
        required_prelogs("s9", 1, 1)
    with pytest.raises(ValueError):
        required_prelogs("s4", 0, 1)


def test_scheme_4_and_5_prelog_duality():
    for t in range(1, 7):
        for m in (1, 2, 3):
            total = Fraction(m * (4 * t * t - 1) * (2 * t + 3), 18 * t * t)
            assert required_prelogs("s4", t, m).total == total
            assert required_prelogs("s5", t, m).total == total


#: The polynomials of ``required_prelogs``, ``scheme -> (mu_tx, mu_rx)`` on
#: symbolic or integer t and m: messages per cluster over 36t² tx and 18t² rx
#: links.
REQUIRED_PRELOGS = {
    "s2": lambda t, m: (0, m * (2 * t - 1) / 3),
    "s3": lambda t, m: (m * (2 * t - 1) / 3, 0),
    "s4": lambda t, m: (2 * m * t * (8 * t**2 + 3 * t - 2) / (36 * t**2),
                        3 * m * (3 * t**2 - 1) / (18 * t**2)),
    "s5": lambda t, m: (6 * m * t * (2 * t - 1) / (36 * t**2),
                        m * (8 * t**3 + 6 * t**2 + t - 3) / (18 * t**2)),
}


def test_prelog_duality_and_mirror_for_symbolic_t_and_m():
    """s4 and s5 need the same total prelog, m(4t²−1)(2t+3)/(18t²), and s2
    is s3 with the tx and rx sides swapped, for every t and m; the stated
    polynomials are those of ``required_prelogs`` at t = 1..8, m = 1..3."""
    t, m = sympy.symbols("t m", positive=True, integer=True)
    s4, s5 = REQUIRED_PRELOGS["s4"](t, m), REQUIRED_PRELOGS["s5"](t, m)
    total = m * (4 * t**2 - 1) * (2 * t + 3) / (18 * t**2)
    assert sympy.simplify(sum(s4) - total) == 0
    assert sympy.simplify(sum(s5) - total) == 0
    s2, s3 = REQUIRED_PRELOGS["s2"](t, m), REQUIRED_PRELOGS["s3"](t, m)
    assert sympy.simplify(s2[0] - s3[1]) == 0 and sympy.simplify(s2[1] - s3[0]) == 0
    for scheme, poly in REQUIRED_PRELOGS.items():
        for tv in range(1, 9):
            for mv in (1, 2, 3):
                got = required_prelogs(scheme, tv, mv)
                want = [sympy.Rational(v) for v in poly(sympy.Integer(tv), sympy.Integer(mv))]
                assert [sympy.Rational(got.mu_tx), sympy.Rational(got.mu_rx)] == want


def test_family_need_is_the_papers_and_the_required_prelogs_total():
    """The region sweep's need is the paper's: m(4t²−1)(2t+3)/(18t²), the s4
    total, for mixed and m(2t−1)/3, s3's tx side and s2's rx side, for
    all-slow."""
    for t in range(1, 21):
        for m in range(1, 5):
            mixed = Fraction(*_family_prices(FAMILY_MIXED, m, t)[0])
            slow = Fraction(*_family_prices(FAMILY_SLOW, m, t)[0])
            assert mixed == Fraction(m * (4 * t * t - 1) * (2 * t + 3), 18 * t * t)
            assert slow == Fraction(m * (2 * t - 1), 3)
            assert required_prelogs("s4", t, m).total == mixed
            assert required_prelogs("s3", t, m).mu_tx == slow
            assert required_prelogs("s2", t, m).mu_rx == slow


def test_prelogs_equal_messages_over_enumerated_links():
    # dual route: the library's prelogs times counted links vs the paper's messages
    for t in (1, 2, 3):
        plan = clusters(build_network(6 * t), t)
        for m in (1, 2, 3):
            for scheme in ("s2", "s3", "s4", "s5"):
                assert messages_over_links(plan, scheme, m) == MESSAGES[scheme](t, m)


def test_nearest_master_euclidean_spacing_identity():
    # nearest masters are 2t hops apart; with cell centres sqrt(3) hexagon
    # side lengths apart, the straight-line separation is exactly 3t sides
    for t in (1, 2, 5):
        u = (t, t)
        norm_sq = u[0] * u[0] + u[0] * u[1] + u[1] * u[1]  # in centre-spacing units
        assert 3 * norm_sq == (3 * t) ** 2
        assert cell_distance((0, 0), u) == 2 * t
