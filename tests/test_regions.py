from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from hexmg.regions import (
    FAMILY_MIXED,
    FAMILY_NO_COOP,
    FAMILY_SLOW,
    MGPoint,
    SystemParams,
    boundary_samples,
    contains,
    convex_hull,
    inner_bound,
    is_subset,
    max_sum_mg,
    mg_point,
    mixed_dual_t_max,
    outer_bound,
    scheme_point,
    sum_gain_cap,
    _cross,
)

LARGE = SystemParams(m=3, mu_tx=10, mu_rx=10, d=20)
SMALL = SystemParams(m=3, mu_tx=Fraction(1, 10), mu_rx=Fraction(1, 5), d=20)


def as_pairs(region):
    return {(v.sf, v.ss) for v in region.vertices}


def round4(fr: Fraction) -> float:
    return round(float(fr), 4)


# ---------------------------------------------------------------------------
# scheme points

def test_no_coop_point():
    assert scheme_point(FAMILY_NO_COOP, 1, LARGE) == MGPoint(Fraction(3, 2), Fraction(0))


def test_mixed_point_full_cooperation():
    p = scheme_point(FAMILY_MIXED, 4, LARGE)
    assert (p.sf, p.ss) == (Fraction(1), Fraction(7, 4))


def test_mixed_point_small_prelogs_matches_reference_curve():
    p = scheme_point(FAMILY_MIXED, 4, SMALL)
    assert round4(p.sf) == 1.4792
    assert round4(p.ss) == 0.0727
    assert (p.sf, p.ss) == (Fraction(1139, 770), Fraction(4, 55))


def test_slow_point_small_prelogs_matches_reference_curve():
    p = scheme_point(FAMILY_SLOW, 4, SMALL)
    assert p.sf == 0
    assert p.ss == Fraction(3, 2) + Fraction(3, 10) * Fraction(10, 56)
    assert round4(p.ss) == 1.5536


def test_slow_point_rx_only_branch_ignores_mu_tx():
    # beyond d//4 only receiver conferencing contributes
    p_mixed_prelog = SystemParams(m=3, mu_tx=5, mu_rx=Fraction(1, 5), d=20)
    pt = scheme_point(FAMILY_SLOW, 6, p_mixed_prelog)
    lam = Fraction(1, 5) / Fraction(3 * 11, 3)
    assert pt.ss == Fraction(3, 2) + lam * Fraction(3 * 16, 36)


def test_scheme_point_range_validation():
    with pytest.raises(ValueError):
        scheme_point(FAMILY_SLOW, 11, LARGE)  # beyond d//2
    with pytest.raises(ValueError):
        scheme_point(FAMILY_MIXED, 5, LARGE)  # in the gap between branches
    with pytest.raises(ValueError):
        scheme_point(FAMILY_MIXED, 10, LARGE)  # beyond (d-2)//2
    with pytest.raises(ValueError):
        scheme_point("fastest", 1, LARGE)
    scheme_point(FAMILY_MIXED, 9, LARGE)  # rx-only branch upper end is fine


def test_lambda_cap_is_linear_then_saturates():
    need = Fraction(3 * 63 * 11, 18 * 16)
    pts = []
    for k in range(5):
        mu = need * k / 4
        p = SystemParams(m=3, mu_tx=mu, mu_rx=0, d=20)
        pts.append(scheme_point(FAMILY_MIXED, 4, p))
    for k, pt in enumerate(pts):
        lam = Fraction(k, 4)
        assert pt.sf == Fraction(3, 2) - lam * Fraction(1, 2)
        assert pt.ss == lam * Fraction(7, 4)
    beyond = SystemParams(m=3, mu_tx=2 * need, mu_rx=0, d=20)
    assert scheme_point(FAMILY_MIXED, 4, beyond) == pts[-1]


def test_mixed_point_symmetric_in_prelogs_on_dual_branch():
    for t in range(1, mixed_dual_t_max(20) + 1):
        a = SystemParams(m=3, mu_tx=Fraction(1, 10), mu_rx=Fraction(2, 5), d=20)
        b = SystemParams(m=3, mu_tx=Fraction(2, 5), mu_rx=Fraction(1, 10), d=20)
        assert scheme_point(FAMILY_MIXED, t, a) == scheme_point(FAMILY_MIXED, t, b)


def test_sum_gain_preserved_between_slow_and_mixed():
    for t in range(1, 5):
        ps = scheme_point(FAMILY_SLOW, t, LARGE)
        pm = scheme_point(FAMILY_MIXED, t, LARGE)
        assert ps.sf + ps.ss == pm.sf + pm.ss == Fraction(3 * (3 * t - 1), 3 * t)


# ---------------------------------------------------------------------------
# hull machinery

def test_hull_single_point():
    region = convex_hull([mg_point(0, 0)])
    assert as_pairs(region) == {(0, 0)}


def test_hull_absorbs_collinear_midpoint():
    region = convex_hull([mg_point(0, 1), mg_point(1, 0), mg_point(Fraction(1, 2), Fraction(1, 2))])
    assert as_pairs(region) == {(0, 0), (0, 1), (1, 0)}


def test_hull_idempotent_under_duplicates():
    pts = [mg_point(0, 1), mg_point(1, 0), mg_point(1, 0), mg_point(0, 1)]
    assert as_pairs(convex_hull(pts)) == as_pairs(convex_hull(pts[:2]))


def test_hull_is_downward_closed():
    region = convex_hull([mg_point(1, 10), mg_point(10, 1)])
    for v in region.vertices:
        assert contains(region, MGPoint(v.sf, Fraction(0)))
        assert contains(region, MGPoint(Fraction(0), v.ss))


def test_hull_rejects_empty():
    with pytest.raises(ValueError):
        convex_hull([])


def test_contains_origin_always():
    region = outer_bound(SMALL)
    assert contains(region, MGPoint(Fraction(0), Fraction(0)))


def test_boundary_samples_triangle():
    region = convex_hull([mg_point(0, 1), mg_point(1, 0)])
    pts = boundary_samples(region, 2)
    assert [(p.sf, p.ss) for p in pts] == [(0, 1), (1, 0)]
    many = boundary_samples(region, 9)
    assert len(many) == 9
    assert all(contains(region, p) for p in many)
    for v in [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))]:
        assert v in [(p.sf, p.ss) for p in many]
    with pytest.raises(ValueError):
        boundary_samples(region, 1)


def fraction_cross(o, a, b):
    """The cross product ``(a - o) x (b - o)`` in ``Fraction`` arithmetic."""
    return (a.sf - o.sf) * (b.ss - o.ss) - (a.ss - o.ss) * (b.sf - o.sf)


def sign(x):
    return (x > 0) - (x < 0)


#: rationals of either sign, zero included, with denominators up to 10**30
rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-10**6, 10**6).map(Fraction),
    st.fractions(max_denominator=10**30),
)
points = st.builds(MGPoint, rationals, rationals)


@settings(max_examples=200, deadline=None)
@given(o=points, a=points, b=points, k=rationals, collinear=st.booleans())
def test_integer_cross_has_the_sign_of_the_fraction_cross(o, a, b, k, collinear):
    if collinear:  # b on the line through o and a: the cross product is 0
        b = MGPoint(o.sf + k * (a.sf - o.sf), o.ss + k * (a.ss - o.ss))
    got = _cross(o, a, b)
    assert type(got) is int
    assert sign(got) == sign(fraction_cross(o, a, b))
    assert sign(_cross(o, b, a)) == -sign(got)


gains = st.one_of(st.just(Fraction(0)), st.fractions(min_value=0, max_value=4, max_denominator=50))


def half_plane_test(pts):
    """Membership in the convex hull of ``pts``, decided without the hull:
    the point lies in the bounding box and on the inner side of every line
    through two of the points that has all of them on one side."""
    box = (min(q.sf for q in pts), max(q.sf for q in pts),
           min(q.ss for q in pts), max(q.ss for q in pts))
    lines = []
    for u, v in combinations(pts, 2):
        sides = {sign(fraction_cross(u, v, q)) for q in pts}
        if sides <= {0, 1} or sides <= {0, -1}:  # 0 is always there: u and v
            lines.append((u, v, sum(sides)))

    def inside(p):
        if not (box[0] <= p.sf <= box[1] and box[2] <= p.ss <= box[3]):
            return False
        return all(sign(fraction_cross(u, v, p)) in (0, side) for u, v, side in lines)

    return inside


@settings(max_examples=80, deadline=None)
@given(
    pts=st.lists(st.builds(MGPoint, gains, gains), min_size=1, max_size=6),
    queries=st.lists(st.builds(MGPoint, gains, gains), max_size=6),
    lam=st.fractions(min_value=0, max_value=1, max_denominator=20),
)
def test_hull_idempotent_and_contains_matches_half_planes(pts, queries, lam):
    region = convex_hull(pts)
    assert convex_hull(list(region.vertices)) == region
    # the downward closure of pts: the origin and the axis projections join
    inside = half_plane_test(pts + [MGPoint(Fraction(0), Fraction(0)),
                                    MGPoint(max(p.sf for p in pts), Fraction(0)),
                                    MGPoint(Fraction(0), max(p.ss for p in pts))])
    v = region.vertices
    edges = [MGPoint(a.sf + lam * (b.sf - a.sf), a.ss + lam * (b.ss - a.ss))
             for a, b in zip(v, v[1:] + v[:1])]
    nudged = [MGPoint(p.sf + Fraction(1, 10**9), p.ss) for p in v]
    for q in list(v) + edges + nudged + queries + pts:
        assert contains(region, q) == inside(q)


prelogs = st.one_of(st.just(Fraction(0)), st.fractions(min_value=0, max_value=20, max_denominator=1000))
params = st.builds(SystemParams, m=st.integers(1, 4), mu_tx=prelogs, mu_rx=prelogs, d=st.integers(1, 30))


@settings(max_examples=120, deadline=None)
@given(p=params, more=st.fractions(min_value=0, max_value=5, max_denominator=1000))
def test_inner_within_outer_and_monotone_in_each_prelog(p, more):
    inner, outer = inner_bound(p), outer_bound(p)
    assert is_subset(inner, outer)
    for field in ("mu_tx", "mu_rx"):
        q = replace(p, **{field: getattr(p, field) + more})
        assert is_subset(inner, inner_bound(q))
        assert is_subset(outer, outer_bound(q))


# ---------------------------------------------------------------------------
# inner and outer bounds

def test_inner_bound_large_prelogs_reference_vertices():
    region = inner_bound(LARGE, [4])
    assert as_pairs(region) == {
        (0, 0),
        (Fraction(3, 2), 0),
        (1, Fraction(7, 4)),
        (0, Fraction(11, 4)),
    }


def test_inner_bound_small_prelogs_reference_vertices():
    region = inner_bound(SMALL, [4])
    assert as_pairs(region) == {
        (0, 0),
        (Fraction(3, 2), 0),
        (Fraction(1139, 770), Fraction(4, 55)),
        (0, Fraction(87, 56)),
    }


def test_inner_bound_zero_prelogs_degenerates():
    p = SystemParams(m=3, mu_tx=0, mu_rx=0, d=20)
    region = inner_bound(p)
    assert as_pairs(region) == {(0, 0), (0, Fraction(3, 2)), (Fraction(3, 2), 0)}


def test_outer_bound_reference_vertices():
    big = outer_bound(LARGE)
    assert (Fraction(0), Fraction(2523, 842)) in as_pairs(big)
    assert (Fraction(3, 2), Fraction(630, 421)) in as_pairs(big)
    assert round4(max_sum_mg(big)) == 2.9964
    small = outer_bound(SMALL)
    assert (Fraction(0), Fraction(53, 30)) in as_pairs(small)
    assert (Fraction(3, 2), Fraction(4, 15)) in as_pairs(small)


def test_outer_bound_zero_prelogs_triangle():
    for d in (1, 5, 20):
        p = SystemParams(m=3, mu_tx=0, mu_rx=0, d=d)
        region = outer_bound(p)
        assert as_pairs(region) == {(0, 0), (Fraction(3, 2), 0), (0, Fraction(3, 2))}


def test_large_prelog_threshold_emerges_from_cap_logic():
    # the sum cap switches from the conferencing term to the delay term at
    # mu_rx + 2*mu_tx = 945/421, which displays as 2.2446...
    threshold = Fraction(945, 421)
    assert abs(float(threshold) - 2.2446) < 1e-4
    below = SystemParams(m=3, mu_tx=0, mu_rx=threshold - Fraction(1, 1000), d=20)
    above = SystemParams(m=3, mu_tx=0, mu_rx=threshold + Fraction(1, 1000), d=20)
    delay_cap = 3 * (1 - Fraction(1, 2 * 421))
    assert sum_gain_cap(below) < delay_cap
    assert sum_gain_cap(above) == delay_cap


def test_inner_within_outer_reference_case():
    assert is_subset(inner_bound(SMALL, [4]), outer_bound(SMALL))
    assert is_subset(inner_bound(SMALL), outer_bound(SMALL))


def test_inner_within_outer_full_sweep():
    mus = [Fraction(0), Fraction(1, 10), Fraction(1, 5), Fraction(1), Fraction(10)]
    for m in (1, 2, 3):
        for d in (4, 8, 12, 20):
            for mu_tx in mus:
                for mu_rx in mus:
                    p = SystemParams(m=m, mu_tx=mu_tx, mu_rx=mu_rx, d=d)
                    assert is_subset(inner_bound(p), outer_bound(p))


def test_bounds_monotone_in_prelogs_and_delay():
    mus = [Fraction(0), Fraction(1, 10), Fraction(1), Fraction(10)]
    for m in (1, 3):
        prev = None
        for mu in mus:
            p = SystemParams(m=m, mu_tx=mu, mu_rx=mu, d=12)
            cur = (inner_bound(p), outer_bound(p))
            if prev is not None:
                assert is_subset(prev[0], cur[0])
                assert is_subset(prev[1], cur[1])
            prev = cur
        prev = None
        for d in (4, 8, 12, 20):
            p = SystemParams(m=m, mu_tx=1, mu_rx=1, d=d)
            cur = (inner_bound(p), outer_bound(p))
            if prev is not None:
                assert is_subset(prev[0], cur[0])
                assert is_subset(prev[1], cur[1])
            prev = cur


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(m=0, mu_tx=0, mu_rx=0, d=20)
    with pytest.raises(ValueError):
        SystemParams(m=1, mu_tx=-1, mu_rx=0, d=20)
    with pytest.raises(ValueError):
        SystemParams(m=1, mu_tx=0, mu_rx=0, d=0)
    with pytest.raises(ValueError):
        mg_point(-1, 0)


def test_slow_point_equals_literal_min_expression():
    # independent oracle: the published closed form min{full-scheme gain,
    # baseline + prelog-scaled increment} over a grid of prelogs
    for t in (1, 2, 4, 5):
        for num in (0, 1, 3, 7, 20, 100, 1000):
            mu = Fraction(num, 13)
            p = SystemParams(m=3, mu_tx=mu, mu_rx=0, d=20)
            pt = scheme_point(FAMILY_SLOW, t, p)
            expected = min(
                Fraction(3 * (3 * t - 1), 3 * t),
                Fraction(3, 2) + mu * Fraction(3 * t - 2, 2 * t * (2 * t - 1)),
            )
            assert pt.ss == expected
            assert pt.sf == 0


def test_mixed_point_equals_closed_branch_expressions():
    # the slow coordinate follows min{full-scheme gain, prelog-scaled ramp};
    # the fast coordinate starts at the m/2 baseline and time-shares DOWN to
    # m/3 as prelogs grow, i.e. it is capped below by m/3, not above
    for t in (1, 2, 3, 4):
        for num in (0, 1, 3, 7, 20, 100, 1000):
            mu = Fraction(num, 13)
            p = SystemParams(m=3, mu_tx=Fraction(0), mu_rx=mu, d=20)
            pt = scheme_point(FAMILY_MIXED, t, p)
            denom = (4 * t * t - 1) * (2 * t + 3)
            expected_sf = max(
                Fraction(3, 3),
                Fraction(3, 2) - mu * Fraction(3 * t * t, denom),
            )
            expected_ss = min(
                Fraction(3 * (2 * t - 1), 3 * t),
                mu * Fraction(6 * t, 4 * t * t + 8 * t + 3),
            )
            assert pt.sf == expected_sf
            assert pt.ss == expected_ss
