import pickle
import re
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from itertools import combinations
from math import ceil, floor

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from hexmg import regions
from hexmg.checks import SUM_GAIN_CAPS
from hexmg.regions import (
    MAX_SWEEP_POINTS,
    FAMILY_MIXED,
    FAMILY_NO_COOP,
    FAMILY_SLOW,
    MGPoint,
    Region,
    SystemParams,
    boundary_samples,
    contains,
    convex_hull,
    inner_bound,
    is_subset,
    max_sum_mg,
    outer_bound,
    required_prelogs,
    scheme_point,
    sum_gain_cap,
    t_ranges,
    upper_right_chain,
    _base_gains,
    _full_gains,
    _messages,
    _ratios,
    _time_share,
    _turn,
)


def fractions(min_value=None, max_value=None, *, max_denominator):
    """``st.fractions`` for integer bounds (both or neither), drawn the way
    hypothesis draws it: a denominator in ``[1, max_denominator]``, a
    numerator within the bounds scaled by it, then ``limit_denominator``.
    hypothesis builds and validates a new strategy object for each of its
    draws, which costs more than the oracle checks these draws feed."""

    @st.composite
    def draw_fraction(draw):
        denom = draw(st.integers(1, max_denominator))
        low = None if min_value is None else denom * min_value
        high = None if max_value is None else denom * max_value
        return Fraction(draw(st.integers(low, high)), denom).limit_denominator(max_denominator)

    return draw_fraction()


LARGE = SystemParams(m=3, mu_tx=10, mu_rx=10, d=20)
SMALL = SystemParams(m=3, mu_tx=Fraction(1, 10), mu_rx=Fraction(1, 5), d=20)


def mg_point(sf, ss) -> MGPoint:
    return MGPoint(Fraction(sf), Fraction(ss))


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
    for t in range(1, 5):  # the dual branch at d = 20: t <= (20 - 2)/4
        a = SystemParams(m=3, mu_tx=Fraction(1, 10), mu_rx=Fraction(2, 5), d=20)
        b = SystemParams(m=3, mu_tx=Fraction(2, 5), mu_rx=Fraction(1, 10), d=20)
        assert scheme_point(FAMILY_MIXED, t, a) == scheme_point(FAMILY_MIXED, t, b)


def test_sum_gain_preserved_between_slow_and_mixed():
    for t in range(1, 5):
        ps = scheme_point(FAMILY_SLOW, t, LARGE)
        pm = scheme_point(FAMILY_MIXED, t, LARGE)
        assert ps.sf + ps.ss == pm.sf + pm.ss == Fraction(3 * (3 * t - 1), 3 * t)


def test_closed_forms_and_integer_expressions_match_the_lambda_formulas():
    # symbolic t and m: the need read from the scheme table, the lambda = 0
    # and lambda = 1 closed forms, the generic integer time share at
    # lambda = available/need, and the shared sum gain
    t, m, an, ad = sympy.symbols("t m a_n a_d", positive=True)
    available = an / ad
    need = {
        FAMILY_SLOW: m * (2 * t - 1) / 3,
        FAMILY_MIXED: m * (4 * t**2 - 1) * (2 * t + 3) / (18 * t**2),
    }
    paper = {  # (fast, slow) at time-share weight lam
        FAMILY_SLOW: lambda lam: (0, m / 2 + lam * m * (3 * t - 2) / (6 * t)),
        FAMILY_MIXED: lambda lam: (m / 2 - lam * m / 6, lam * m * (2 * t - 1) / (3 * t)),
    }

    def ratio(pair):
        return sympy.Rational(1) * pair[0] / pair[1]

    def same(a, b):
        return sympy.simplify(a - b) == 0

    for family in (FAMILY_SLOW, FAMILY_MIXED):
        # the full scheme's total per-link prelog: s3's for all-slow, s4's for mixed
        tx, rx = _messages("s3" if family == FAMILY_SLOW else "s4", m, t)
        nn, nd = tx + 2 * rx, 36 * t**2
        assert same(ratio((nn, nd)), need[family])
        base, full = _base_gains(family, m), _full_gains(family, m, t)
        for lam, gains in ((0, base), (1, full)):
            for got, want in zip(gains, paper[family](lam)):
                assert same(ratio(got), want)
        shared = [_time_share(b, f, an * nd, ad * nn) for b, f in zip(base, full)]
        for got, want in zip(shared, paper[family](available / need[family])):
            assert same(ratio(got), want)
    full_sums = [sum(ratio(c) for c in _full_gains(f, m, t)) for f in (FAMILY_SLOW, FAMILY_MIXED)]
    assert same(full_sums[0], m * (3 * t - 1) / (3 * t))
    assert same(full_sums[1], m * (3 * t - 1) / (3 * t))


def test_scheme_table_duality_and_mirror_for_symbolic_t_and_m():
    """In the scheme table, s4 and s5 send the same total per-link load (tx
    messages over 36t² links plus rx messages over 18t²), s2 is s3 with the
    tx and rx sides swapped, and s1 sends nothing, for every t and m."""
    t, m = sympy.symbols("t m", positive=True, integer=True)
    (tx4, rx4), (tx5, rx5) = _messages("s4", m, t), _messages("s5", m, t)
    assert sympy.expand(tx4 + 2 * rx4 - tx5 - 2 * rx5) == 0
    (tx2, rx2), (tx3, rx3) = _messages("s2", m, t), _messages("s3", m, t)
    assert (tx2, rx3) == (0, 0) and sympy.expand(tx3 / (36 * t**2) - rx2 / (18 * t**2)) == 0
    assert _messages("s1", m, t) == (0, 0)
    with pytest.raises(ValueError, match="unknown scheme 's6'"):
        _messages("s6", m, t)


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


def fraction_turn(o, a, b):
    """The sign of the cross product ``(a - o) x (b - o)`` in ``Fraction``
    arithmetic, its two products compared rather than subtracted."""
    lhs, rhs = (a.sf - o.sf) * (b.ss - o.ss), (a.ss - o.ss) * (b.sf - o.sf)
    return (lhs > rhs) - (lhs < rhs)


def sign(x):
    return (x > 0) - (x < 0)


#: rationals of either sign, zero included, with denominators up to 10**30
rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-10**6, 10**6).map(Fraction),
    fractions(max_denominator=10**30),
)
points = st.builds(MGPoint, rationals, rationals)


@settings(max_examples=200, deadline=None)
@given(o=points, a=points, b=points, k=rationals, collinear=st.booleans())
def test_integer_cross_has_the_sign_of_the_fraction_cross(o, a, b, k, collinear):
    if collinear:  # b on the line through o and a: the cross product is 0
        b = MGPoint(o.sf + k * (a.sf - o.sf), o.ss + k * (a.ss - o.ss))
    io, ia, ib = _ratios([o, a, b])
    got = _turn(io, ia, ib)
    assert type(got) is int
    assert sign(got) == fraction_turn(o, a, b)
    assert sign(_turn(io, ib, ia)) == -sign(got)


def fraction_contains(region, pt):
    """Membership in ``Fraction`` arithmetic, as ``contains`` decided it
    before it ran on integers: one vertex is the point itself, two are a
    segment, more are passed on the left (or on) of every edge."""
    v = region.vertices
    if len(v) == 1:
        return (pt.sf, pt.ss) == (v[0].sf, v[0].ss)
    if len(v) == 2:
        a, b = v
        return (fraction_turn(a, b, pt) == 0 and min(a.sf, b.sf) <= pt.sf <= max(a.sf, b.sf)
                and min(a.ss, b.ss) <= pt.ss <= max(a.ss, b.ss))
    return all(fraction_turn(a, b, pt) >= 0 for a, b in zip(v, v[1:] + v[:1]))


@settings(max_examples=100, deadline=None)
@given(pts=st.lists(points, min_size=1, max_size=6), other=st.lists(points, min_size=1, max_size=6),
       queries=st.lists(points, max_size=4), k=st.integers(1, 6))
def test_integer_containment_matches_the_fraction_oracle(pts, other, queries, k):
    """``contains`` and ``is_subset`` on integers decide as the ``Fraction``
    oracle does, for a hull's region and for the region of its vertices,
    with denominators up to 10**30 and coordinates of either sign."""
    region, sub, far = convex_hull(pts), convex_hull(pts[:k]), convex_hull(other)
    for a in (region, Region(region.vertices)):
        for q in queries + list(far.vertices) + list(sub.vertices) + pts:
            assert contains(a, q) == fraction_contains(a, q)
        for b in (sub, far, Region(far.vertices)):
            assert is_subset(b, a) == all(fraction_contains(a, v) for v in b.vertices)
            assert is_subset(a, b) == all(fraction_contains(b, v) for v in a.vertices)
    if all(c >= 0 for p in pts for c in p):  # the quadrant, where hulls are downward closed
        assert is_subset(sub, region)


def test_region_is_the_frozen_dataclass_of_its_vertices():
    """A region from ``inner_bound`` equals, hashes and prints as the region
    of copies of its vertices, survives pickling and, like it, takes no
    assignment; ``replace`` gives a region of the new vertices."""
    held = inner_bound(SMALL)
    bare = Region(tuple(MGPoint(v.sf, v.ss) for v in held.vertices))
    assert held == bare and hash(held) == hash(bare) and repr(held) == repr(bare)
    assert repr(bare).startswith("Region(vertices=(MGPoint(sf=Fraction(0, 1)")
    assert pickle.loads(pickle.dumps(held)) == bare
    assert held != bare.vertices
    for region in (held, bare):
        with pytest.raises(FrozenInstanceError):
            region.vertices = ()
        with pytest.raises(FrozenInstanceError):
            del region.vertices
    moved = replace(held, vertices=held.vertices[:2])
    assert not contains(moved, held.vertices[-1])


gains = st.one_of(st.just(Fraction(0)), fractions(min_value=0, max_value=4, max_denominator=50))


def half_plane_test(pts):
    """Membership in the convex hull of ``pts``, decided without the hull:
    the point lies in the bounding box and on the inner side of every line
    through two of the points that has all of them on one side."""
    pts = list(dict.fromkeys(pts))
    box = (min(q.sf for q in pts), max(q.sf for q in pts),
           min(q.ss for q in pts), max(q.ss for q in pts))

    def turn(line, p):
        """``fraction_turn(u, v, p)`` for the line ``(dx, dy, c)`` through
        u and v: the sign of ``dx·p.ss − dy·p.sf − c``."""
        dx, dy, c = line
        lhs, rhs = dx * p.ss, dy * p.sf + c
        return (lhs > rhs) - (lhs < rhs)

    lines = []
    for u, v in combinations(pts, 2):
        dx, dy = v.sf - u.sf, v.ss - u.ss
        line = (dx, dy, dx * u.ss - dy * u.sf)
        sides = {turn(line, q) for q in pts}
        if sides <= {0, 1} or sides <= {0, -1}:  # 0 is always there: u and v
            lines.append((line, sum(sides)))

    def inside(p):
        if not (box[0] <= p.sf <= box[1] and box[2] <= p.ss <= box[3]):
            return False
        return all(turn(line, p) in (0, side) for line, side in lines)

    return inside


@settings(max_examples=80, deadline=None)
@given(
    pts=st.lists(st.builds(MGPoint, gains, gains), min_size=1, max_size=6),
    queries=st.lists(st.builds(MGPoint, gains, gains), max_size=6),
    lam=fractions(min_value=0, max_value=1, max_denominator=20),
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


prelogs = st.one_of(st.just(Fraction(0)), fractions(min_value=0, max_value=20, max_denominator=1000))
params = st.builds(SystemParams, m=st.integers(1, 4), mu_tx=prelogs, mu_rx=prelogs, d=st.integers(1, 30))


@settings(max_examples=120, deadline=None)
@given(p=params, more=fractions(min_value=0, max_value=5, max_denominator=1000))
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
    # cap = m/2: the stated triangle, in the order the hull of its corners gives
    for m in (1, 2, 3, 5):
        for d in (1, 2, 5, 20, 40):
            p = SystemParams(m=m, mu_tx=0, mu_rx=0, d=d)
            assert sum_gain_cap(p) == Fraction(m, 2)
            region = outer_bound(p)
            assert_exact(region, oracle_outer_bound(p))
            half = Fraction(m, 2)
            assert [(v.sf, v.ss) for v in region.vertices] == [(0, 0), (half, 0), (0, half)]


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


@pytest.mark.parametrize("field, value", [("m", 2.0), ("m", Fraction(2)), ("m", "3"),
                                          ("d", 20.0), ("d", Fraction(20)), ("d", "3")])
def test_params_refuse_an_m_or_d_that_is_no_int(field, value):
    """An m or d that is no int is refused by name, before and after a d = 20
    sweep at m = 2 has run, whose 2 and 20 the floats 2.0 and 20.0 hash as;
    ``required_prelogs`` refuses such an m too."""
    text = f"{field} must be a positive integer, got {value!r}"
    if field == "m":
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            required_prelogs("s4", 1, value)
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            SystemParams(**{"m": 2, "mu_tx": 1, "mu_rx": 1, "d": 20, field: value})
        p = SystemParams(m=2, mu_tx=1, mu_rx=1, d=20)
        assert len(inner_bound(p).vertices) == 9 and is_subset(inner_bound(p), outer_bound(p))


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


# ---------------------------------------------------------------------------
# the Fraction implementations the integer arithmetic replaced, as oracles

def oracle_convex_hull(points):
    """The hull over sorted ``Fraction`` tuples and the ``Fraction`` cross."""
    pts = {(p.sf, p.ss) for p in points}
    sf_max = max(p[0] for p in pts)
    ss_max = max(p[1] for p in pts)
    pts.update({(Fraction(0), Fraction(0)), (sf_max, Fraction(0)), (Fraction(0), ss_max)})
    uniq = sorted(pts)
    if len(uniq) == 1:
        return Region((MGPoint(*uniq[0]),))
    mg = [MGPoint(*p) for p in uniq]
    if len(mg) == 2:
        return Region(tuple(mg))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and fraction_turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(mg)
    upper = half(list(reversed(mg)))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        return Region((mg[0], mg[-1]))
    start = hull.index(min(hull, key=lambda p: (p.sf, p.ss)))
    return Region(tuple(hull[start:] + hull[:start]))


def oracle_t_bounds(family, d):
    """The paper's (first, last) t of the dual and the rx-only branch, by
    exact rational floor and ceiling: all-slow 1..⌊d/4⌋ and ⌊d/4⌋+1..⌊d/2⌋,
    mixed 1..⌊(d−2)/4⌋ and ⌈(d+2)/4⌉..⌊(d−2)/2⌋."""
    if family == FAMILY_SLOW:
        return (1, floor(Fraction(d, 4))), (floor(Fraction(d, 4)) + 1, floor(Fraction(d, 2)))
    return (1, floor(Fraction(d - 2, 4))), (ceil(Fraction(d + 2, 4)), floor(Fraction(d - 2, 2)))


def oracle_scheme_point(family, t, p):
    """Time-sharing in ``Fraction`` arithmetic: lam = min(1, available/need)."""
    m = p.m
    if family == FAMILY_NO_COOP:
        return MGPoint(Fraction(m, 2), Fraction(0))
    dual_last = oracle_t_bounds(family, p.d)[0][1]
    available = p.mu_tx + p.mu_rx if t <= dual_last else p.mu_rx
    if family == FAMILY_SLOW:
        need = Fraction(m * (2 * t - 1), 3)
        lam = min(Fraction(1), available / need)
        return MGPoint(Fraction(0), Fraction(m, 2) + lam * Fraction(m * (3 * t - 2), 6 * t))
    need = Fraction(m * (4 * t * t - 1) * (2 * t + 3), 18 * t * t)
    lam = min(Fraction(1), available / need)
    return MGPoint(Fraction(m, 2) - lam * Fraction(m, 6), lam * Fraction(m * (2 * t - 1), 3 * t))


def oracle_scheme_points(p, t_values=None):
    """``(family, t) -> oracle_scheme_point`` for every scheme of ``p``,
    cooperative schemes only at ``t_values`` if given."""
    schemes = [(FAMILY_NO_COOP, 1)]
    for family in (FAMILY_SLOW, FAMILY_MIXED):
        for first, last in oracle_t_bounds(family, p.d):
            ts = range(first, last + 1) if t_values is None else [t for t in t_values if first <= t <= last]
            schemes += [(family, t) for t in ts]
    return {(family, t): oracle_scheme_point(family, t, p) for family, t in schemes}


def oracle_inner_bound(points, t_values=None):
    """The hull of the origin and the ``oracle_scheme_points`` ``points``,
    cooperative schemes only at ``t_values`` if given."""
    pts = [MGPoint(Fraction(0), Fraction(0))]
    pts += [pt for (family, t), pt in points.items()
            if family == FAMILY_NO_COOP or t_values is None or t in t_values]
    return oracle_convex_hull(pts)


def oracle_outer_bound(p):
    """The outer bound as the hull of its corner points, capped by the
    smaller of the paper's two sum-gain caps."""
    m_half = Fraction(p.m, 2)
    cap = min(cap(p) for cap in SUM_GAIN_CAPS.values())
    pts = [MGPoint(Fraction(0), Fraction(0)), MGPoint(Fraction(0), cap)]
    if cap <= m_half:
        pts.append(MGPoint(cap, Fraction(0)))
    else:
        pts += [MGPoint(m_half, Fraction(0)), MGPoint(m_half, cap - m_half)]
    return oracle_convex_hull(pts)


def assert_exact(got, want):
    """Same vertices, same order, every coordinate a ``Fraction``."""
    got_v = got.vertices if isinstance(got, Region) else (got,)
    want_v = want.vertices if isinstance(want, Region) else (want,)
    assert [(v.sf, v.ss) for v in got_v] == [(v.sf, v.ss) for v in want_v]
    assert all(type(c) is Fraction for v in got_v for c in (v.sf, v.ss))


#: prelogs with 0, tiny values, moderate rationals and values >= 100, where
#: every scheme runs in full (lam = 1) for m <= 5 and d <= 40
oracle_prelogs = st.one_of(
    st.just(Fraction(0)),
    st.integers(1, 10**6).map(lambda k: Fraction(1, 10**9 + k)),
    fractions(min_value=0, max_value=30, max_denominator=1000),
    fractions(min_value=100, max_value=10**4, max_denominator=50),
)
oracle_params = st.builds(
    SystemParams, m=st.integers(1, 5), mu_tx=oracle_prelogs, mu_rx=oracle_prelogs, d=st.integers(1, 40)
)


@settings(max_examples=300, deadline=None)
@given(p=oracle_params, data=st.data())
def test_integer_regions_match_fraction_oracles(p, data):
    # each oracle point is computed once and read by all three checks
    points = oracle_scheme_points(p)
    for (family, t), want in points.items():
        assert_exact(scheme_point(family, t, p), want)
    assert_exact(inner_bound(p), oracle_inner_bound(points))
    slow_last = oracle_t_bounds(FAMILY_SLOW, p.d)[1][1]
    subset = data.draw(st.sets(st.integers(1, max(1, slow_last))), label="t_values")
    assert_exact(inner_bound(p, subset), oracle_inner_bound(points, subset))
    assert_exact(outer_bound(p), oracle_outer_bound(p))


@pytest.mark.parametrize("family", [FAMILY_SLOW, FAMILY_MIXED])
def test_t_ranges_are_the_papers_bounds(family):
    """``t_ranges`` holds the oracle's branches for d = 1..200 and for d
    near 10**18, where a float ceiling of (d+2)/4 is off by several units."""
    for d in [*range(1, 201), *range(10**18 - 4, 10**18 + 12)]:
        want = tuple(range(first, last + 1) for first, last in oracle_t_bounds(family, d))
        assert t_ranges(family, d) == want, d


@pytest.mark.parametrize("family", [FAMILY_SLOW, FAMILY_MIXED])
def test_scheme_point_accepts_exactly_the_oracle_ranges(family):
    name = "all-slow" if family == FAMILY_SLOW else "mixed"
    for d in range(1, 61):
        p = SystemParams(m=2, mu_tx=Fraction(1, 3), mu_rx=Fraction(1, 7), d=d)
        bounds = oracle_t_bounds(family, d)
        for t in range(1, d // 2 + 3):
            if any(first <= t <= last for first, last in bounds):
                assert_exact(scheme_point(family, t, p), oracle_scheme_point(family, t, p))
            else:
                with pytest.raises(ValueError, match=f"^t={t} outside the {name} range for d={d}$"):
                    scheme_point(family, t, p)


def test_mixed_gap_is_refused_at_huge_delay():
    """At d = 10**18 + 3 the rx-only mixed branch starts at
    ⌈(d+2)/4⌉ = 250000000000000002; the t just past the dual branch lies in
    the gap (a float ceiling put the start at 250000000000000000)."""
    d = 10**18 + 3
    p = SystemParams(m=1, mu_tx=1, mu_rx=1, d=d)
    gap = (d - 2) // 4 + 1
    with pytest.raises(ValueError, match=f"^t={gap} outside the mixed range for d={d}$"):
        scheme_point(FAMILY_MIXED, gap, p)
    assert t_ranges(FAMILY_MIXED, d)[1][0] == 250000000000000002
    assert_exact(scheme_point(FAMILY_MIXED, gap + 1, p), oracle_scheme_point(FAMILY_MIXED, gap + 1, p))


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("mu", [1, Fraction(1, 7)], ids=["mu-1", "mu-1-7"])
@pytest.mark.parametrize("d", [1_001, 4_001])
def test_full_sweep_matches_the_fraction_oracle_at_scale(d, mu, m):
    """A full sweep of a few thousand points, each on its own denominators,
    is the ``Fraction`` oracle's hull of the oracle's scheme points."""
    p = SystemParams(m=m, mu_tx=mu, mu_rx=mu, d=d)
    assert_exact(inner_bound(p), oracle_inner_bound(oracle_scheme_points(p)))


@pytest.mark.parametrize("mu", [0, 10**12], ids=["zero-prelogs", "full-cooperation"])
def test_inner_bound_at_one_t_visits_only_that_t(mu):
    """A hull at selected t costs the same for any d: at d = 10**12 it
    takes each branch's ends and a t beyond every range at once."""
    d = 10**12
    p = SystemParams(m=1, mu_tx=mu, mu_rx=mu, d=d)
    for t in (1, (d - 2) // 4, (d - 2) // 4 + 1, d // 4 + 1, (d - 2) // 2, d // 2, d // 2 + 1):
        points = oracle_scheme_points(p, [t])
        assert_exact(inner_bound(p, [t]), oracle_inner_bound(points, [t]))
    with pytest.raises(ValueError, match=r"^t must be a positive integer, got 2\.5$"):
        inner_bound(p, [2.5])


@pytest.mark.parametrize("t", [2.0, Fraction(2), np.int64(2)], ids=["float", "Fraction", "int64"])
def test_inner_bound_refuses_a_t_equal_to_a_cached_int(t):
    """A t that equals an int but is none is refused even once the int's
    prices are cached, whose key it would match."""
    inner_bound(SMALL, [2])
    with pytest.raises(ValueError, match=f"^{re.escape(f't must be a positive integer, got {t!r}')}$"):
        inner_bound(SMALL, [t])


def sweep_points(d):
    """The number of scheme points a full sweep of ``inner_bound`` visits at
    delay d."""
    return sum(len(ts) for family in (FAMILY_SLOW, FAMILY_MIXED) for ts in t_ranges(family, d))


@pytest.mark.parametrize("d", [2, 6, 9, 40])
def test_sweep_at_the_cap_is_accepted(monkeypatch, d):
    """A full sweep of exactly ``MAX_SWEEP_POINTS`` scheme points is the hull
    of every admissible t; under a cap one point lower it is refused, with
    the cap named, before any gain is computed."""
    p, n = replace(SMALL, d=d), sweep_points(d)
    monkeypatch.setattr(regions, "MAX_SWEEP_POINTS", n)
    assert inner_bound(p).vertices == inner_bound(p, range(1, d)).vertices
    monkeypatch.setattr(regions, "MAX_SWEEP_POINTS", n - 1)
    monkeypatch.setattr(regions, "_gains", lambda *a: pytest.fail("a gain was computed"))
    text = f"a sweep at d={d} visits {n} scheme points, past the cap of {n - 1}"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        inner_bound(p)


def test_sweep_cap_admits_d_100001():
    """The cap admits the sweep at d = 100,001 (99,998 points) and refuses
    the one at d = 100,002 (100,001 points); a single t is never capped."""
    assert sweep_points(100_001) == 99_998 <= MAX_SWEEP_POINTS < sweep_points(100_002) == 100_001
    inner_bound(SystemParams(m=1, mu_tx=0, mu_rx=0, d=100_001))
    p = replace(SMALL, d=100_002)
    with pytest.raises(ValueError, match=f"past the cap of {MAX_SWEEP_POINTS}$"):
        inner_bound(p)
    assert inner_bound(p, [4]).vertices == inner_bound(replace(SMALL, d=20), [4]).vertices


#: non-negative coordinates: small denominators (ties, duplicates, collinear
#: points) and denominators up to 10**30
hull_coords = st.one_of(
    st.just(Fraction(0)),
    st.integers(0, 6).map(Fraction),
    fractions(min_value=0, max_value=3, max_denominator=12),
    fractions(min_value=0, max_value=10, max_denominator=10**30),
)
hull_points = st.builds(MGPoint, hull_coords, hull_coords)


#: the fixed parts of ``point_sets``, built once: hypothesis validates each
#: strategy object on its first draw, so one built per example costs more
#: than the draw
free_points = st.lists(st.one_of(hull_points, st.builds(MGPoint, rationals, rationals)),
                       min_size=1, max_size=7)
run_signs = st.sampled_from([1, -1])
run_steps = st.lists(fractions(min_value=0, max_value=4, max_denominator=6), min_size=2, max_size=5)
axis_coords = st.lists(hull_coords, max_size=3)


@st.composite
def point_sets(draw):
    """Arbitrary points plus optional collinear runs, axis points and copies."""
    pts = draw(free_points)
    if draw(st.booleans()):  # a collinear run o + k·v
        o, v = draw(hull_points), draw(hull_points)
        v = MGPoint(v.sf, draw(run_signs) * v.ss)
        pts += [MGPoint(o.sf + k * v.sf, o.ss + k * v.ss) for k in draw(run_steps)]
    if draw(st.booleans()):  # on the axes
        pts += [MGPoint(c, Fraction(0)) for c in draw(axis_coords)]
        pts += [MGPoint(Fraction(0), c) for c in draw(axis_coords)]
    copies = draw(st.lists(st.sampled_from(pts), max_size=3))
    return draw(st.permutations(pts + copies))


@settings(max_examples=200, deadline=None)
@given(pts=point_sets())
def test_integer_hull_matches_fraction_oracle(pts):
    assert_exact(convex_hull(pts), oracle_convex_hull(pts))


@pytest.mark.parametrize(
    "pts",
    [
        [(0, 0)],
        [(2, 3)],
        [(Fraction(1, 3), 0), (Fraction(1, 3), 0)],
        [(0, 5), (0, 1)],
        [(1, 0), (2, 0), (3, 0)],
        [(0, 1), (Fraction(1, 2), Fraction(1, 2)), (1, 0), (Fraction(1, 4), Fraction(3, 4))],
        [(1, 1), (1, 1), (2, 2), (3, 3)],
        [(Fraction(1, 10**30), Fraction(10**30 - 1, 10**30)), (1, Fraction(1, 10**29))],
        [(-1, 2), (3, -4)],
    ],
    ids=["origin", "single", "duplicate", "two-on-axis", "collinear-axis", "collinear-edge",
         "diagonal-run", "huge-denominators", "negative"],
)
def test_integer_hull_matches_fraction_oracle_on_edge_cases(pts):
    points = [MGPoint(Fraction(a), Fraction(b)) for a, b in pts]
    assert_exact(convex_hull(points), oracle_convex_hull(points))


def test_upper_right_chain_of_one_and_two_vertices():
    """A point region is its own chain; a segment runs from its slow end to
    its fast end, whichever axis it lies on."""
    origin, fast, slow = MGPoint(0, 0), MGPoint(1, 0), MGPoint(0, 1)
    assert upper_right_chain(convex_hull([origin])) == [origin]
    assert upper_right_chain(convex_hull([fast])) == [origin, fast]
    assert upper_right_chain(convex_hull([slow])) == [slow, origin]
