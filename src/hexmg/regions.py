"""Multiplexing-gain regions over exact rational arithmetic.

The achievable (inner) region is the convex hull of the operating points of
five transmission schemes, each time-shared with the no-cooperation baseline
until the per-link cooperation prelog budget is met; each scheme's cost is
stated once, as the messages one cluster sends (``_messages``), and the
cluster sizes each scheme family may use at a delay once, as two integer
ranges (``t_ranges``).  The
impossibility (outer) region is the intersection of a cap on the fast gain
with two caps on the sum gain, the cap rules of the two partitions
(``densities.cap_rule``) at their limiting densities.  All vertices are
``fractions.Fraction`` pairs; nothing here touches floating point.  The
arithmetic behind them runs on integers: a set of points goes onto one
common denominator (``_scale``), and the hull sorts, dedupes and crosses the
integer pairs.  ``scheme_point`` decides its time-share weight by
cross-multiplying numerators and denominators; ``inner_bound`` hulls the
schemes' integer gains and builds a ``Fraction`` only for a vertex.  A
region keeps its vertices' integer form, so ``contains`` and ``is_subset``
scale each region once and decide every side of a point by one integer
cross product.  ``decimal_str`` writes a rational out exactly, for every
report the command line prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from . import densities

RatLike = Union[int, str, Fraction]

FAMILY_NO_COOP = "no_coop"   # fast-only baseline, ignores cooperation links
FAMILY_SLOW = "slow"         # all-slow schemes (Rx-side or Tx-side conferencing)
FAMILY_MIXED = "mixed"       # alternating fast/slow schemes

_ZERO = Fraction(0)

#: Largest number of scheme points a full sweep of ``inner_bound`` visits,
#: about d of them.  With a positive prelog the points' denominators differ
#: with t, and the hull's common denominator grows with all of them: d =
#: 10,001 (9,998 points) takes about 3.6 s and 50 MB at μ = 1 on a 2-vCPU
#: Xeon, and ten times that d went past 2 minutes and 2.8 GB.
MAX_SWEEP_POINTS = 10_000


def _rat(x: RatLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def decimal_str(fr: Fraction, places: int = 6) -> str:
    """Exact decimal expansion of a rational of any size, round-half-even."""
    n, d = fr.numerator, fr.denominator
    q, r = divmod(abs(n) * 10 ** places, d)
    q += 2 * r > d or (2 * r == d and q & 1)  # round half to even
    whole, frac = divmod(q, 10 ** places)
    return f"{'-' if n < 0 else ''}{whole}.{frac:0{places}d}"


@dataclass(frozen=True)
class MGPoint:
    sf: Fraction
    ss: Fraction

    def __iter__(self):
        return iter((self.sf, self.ss))


@dataclass(frozen=True)
class SystemParams:
    """Antennas per user, cooperation prelogs, and total conferencing delay."""

    m: int
    mu_tx: Fraction
    mu_rx: Fraction
    d: int

    def __post_init__(self):
        object.__setattr__(self, "mu_tx", _rat(self.mu_tx))
        object.__setattr__(self, "mu_rx", _rat(self.mu_rx))
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        if self.d < 1:
            raise ValueError("d must be a positive integer")
        if self.mu_tx < 0 or self.mu_rx < 0:
            raise ValueError("cooperation prelogs must be non-negative")


@dataclass(frozen=True)
class Region:
    """Convex, downward-closed polygon in the (fast, slow) gain quadrant.

    Vertices are counterclockwise, starting at the origin, with no three
    consecutive vertices collinear.  ``_pairs`` holds them as integer pairs
    on one common denominator (``_scale``'s form), for ``contains`` and
    ``is_subset``; ``_scaled`` fills it on first use.  It is no init field,
    so ``dataclasses.replace`` does not carry it to other vertices.
    """

    vertices: Tuple[MGPoint, ...]
    _pairs: Optional[Tuple[int, List[Tuple[int, int]]]] = field(
        default=None, init=False, compare=False, repr=False)


def _scaled(region: Region) -> Tuple[int, List[Tuple[int, int]]]:
    """The region's vertices in ``_scale``'s form, scaled once per region."""
    if region._pairs is None:
        object.__setattr__(region, "_pairs", _scale(region.vertices))
    return region._pairs


def _region_of_pairs(den: int, pairs: List[Tuple[int, int]],
                     vertices: Optional[Tuple[MGPoint, ...]] = None) -> Region:
    """The region whose vertices are ``pairs`` over ``den`` (or, if given,
    ``vertices``, their points), holding that integer form."""
    region = Region(tuple(_point(k, den) for k in pairs) if vertices is None else vertices)
    object.__setattr__(region, "_pairs", (den, pairs))
    return region


def _point(pair: Tuple[int, int], den: int) -> MGPoint:
    """The point of the integer pair over ``den``; a zero coordinate reuses
    _ZERO, so no gcd is taken for it."""
    return MGPoint(*(Fraction(c, den) if c else _ZERO for c in pair))


def _scale(points: Iterable[MGPoint]) -> Tuple[int, List[Tuple[int, int]]]:
    """``(den, pairs)``: the points as integer pairs over the lcm ``den`` of
    their denominators.  A positive common scale keeps their order and the
    sign of every cross product."""
    ratios = [(p.sf.as_integer_ratio(), p.ss.as_integer_ratio()) for p in points]
    return _on_one_denominator(ratios)


def _on_one_denominator(ratios: List[Tuple]) -> Tuple[int, List[Tuple[int, int]]]:
    """``_scale`` of points given as ``((xn, xd), (yn, yd))`` with positive
    denominators."""
    den = lcm(*(d for pair in ratios for _, d in pair))
    return den, [(xn * (den // xd), yn * (den // yd)) for (xn, xd), (yn, yd) in ratios]


def _turn(o: Tuple[int, int], a: Tuple[int, int], b: Tuple[int, int]) -> int:
    """The cross product ``(a - o) x (b - o)`` of integer pairs."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _chain(keys: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """One half of Andrew's monotone chain: the points that turn left."""
    out: List[Tuple[int, int]] = []
    for b in keys:
        while len(out) >= 2 and _turn(out[-2], out[-1], b) <= 0:
            out.pop()
        out.append(b)
    return out


def _hull_keys(keys: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """The canonical downward-closed hull of integer pairs, in ``Region``'s
    vertex order; the origin and the axis projections make it downward
    closed.  A point between the origin and an axis projection lies on the
    segment joining them, so it is never a vertex and the chain skips it."""
    keys = set(keys)
    (rx, _), (_, ty) = max(keys), max(keys, key=lambda k: k[1])
    keys = {(x, y) for x, y in keys if (x or not 0 <= y <= ty) and (y or not 0 <= x <= rx)}
    keys.update(((0, 0), (rx, 0), (0, ty)))
    keys = sorted(keys)
    if len(keys) > 2:
        # counterclockwise from the smallest point, which starts the lower chain
        hull = _chain(keys)[:-1] + _chain(keys[::-1])[:-1]
        keys = hull if len(hull) >= 3 else [keys[0], keys[-1]]  # else all collinear
    return keys


def convex_hull(points: Sequence[MGPoint]) -> Region:
    """Canonical downward-closed hull of a non-empty set of gain pairs.

    The points are scaled to integers over the lcm of their denominators,
    so sorting, deduping and the chain run on the integer pairs.  The hull
    reuses the input points, and an axis projection that is not one of them
    is built from its pair.
    """
    if not points:
        raise ValueError("need at least one point")
    den, keys = _scale(points)
    at: Dict[Tuple[int, int], MGPoint] = {}
    for key, p in zip(keys, points):
        at.setdefault(key, p)
    hull = _hull_keys(keys)
    return _region_of_pairs(den, hull, tuple(at[k] if k in at else _point(k, den) for k in hull))


def _holds(v: List[Tuple[int, int]], pts: List[Tuple[int, int]]) -> bool:
    """Whether the region with vertices ``v`` holds every point of ``pts``,
    all integer pairs over one denominator: a point lies on the left of (or
    on) every edge, or, for fewer than three vertices, on the region."""
    if len(v) == 1:
        return all(p == v[0] for p in pts)
    if len(v) == 2:
        a, b = v
        return all(_turn(a, b, p) == 0 and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
                   and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]) for p in pts)
    # _turn(a, b, p) >= 0 along every edge, each edge's vector taken once
    edges = [(ax, ay, bx - ax, by - ay) for (ax, ay), (bx, by) in zip(v, v[1:] + v[:1])]
    return all(dx * (y - ay) >= dy * (x - ax) for x, y in pts for ax, ay, dx, dy in edges)


def _common(a: Tuple, b: Tuple) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
    """Two ``_scale`` forms' pairs over the product of their denominators."""
    (da, va), (db, vb) = a, b
    return [(x * db, y * db) for x, y in va], [(x * da, y * da) for x, y in vb]


def contains(region: Region, pt: MGPoint) -> bool:
    """Exact membership test."""
    pts, v = _common(_scale([pt]), _scaled(region))
    return _holds(v, pts)


def is_subset(a: Region, b: Region) -> bool:
    """True iff region ``a`` lies inside region ``b`` (both convex)."""
    pts, v = _common(_scaled(a), _scaled(b))
    return _holds(v, pts)


def max_sum_mg(region: Region) -> Fraction:
    """Largest achievable sum of fast and slow gains."""
    return max(v.sf + v.ss for v in region.vertices)


def upper_right_chain(region: Region) -> List[MGPoint]:
    """Boundary vertices from the top of the slow-gain axis down to the end
    of the fast-gain axis."""
    v = list(region.vertices)
    if len(v) == 1:
        return v
    if len(v) == 2:
        return [v[1], v[0]] if v[1].ss > v[0].ss or v[1].sf < v[0].sf else [v[0], v[1]]
    return list(reversed(v[1:]))


def boundary_samples(region: Region, n: int) -> List[MGPoint]:
    """Points tracing the upper-right boundary, vertices always included.

    Returns ``max(n, number of chain vertices)`` points; extra points are
    spread over the chain segments proportionally to their length.
    """
    if n < 2:
        raise ValueError("need n >= 2 samples")
    chain = upper_right_chain(region)
    if len(chain) >= n or len(chain) < 2:
        return chain
    extra = n - len(chain)
    seg_len = []
    for a, b in zip(chain, chain[1:]):
        seg_len.append(float(((b.sf - a.sf) ** 2 + (b.ss - a.ss) ** 2)))
    seg_len = [l ** 0.5 for l in seg_len]
    total = sum(seg_len) or 1.0
    quota = [extra * l / total for l in seg_len]
    counts = [int(x) for x in quota]
    rem = extra - sum(counts)
    order = sorted(range(len(quota)), key=lambda i: (quota[i] - counts[i], -i), reverse=True)
    for i in order[:rem]:
        counts[i] += 1
    out: List[MGPoint] = []
    for (a, b), k in zip(zip(chain, chain[1:]), counts):
        out.append(a)
        for j in range(1, k + 1):
            lam = Fraction(j, k + 1)
            out.append(MGPoint(a.sf + lam * (b.sf - a.sf), a.ss + lam * (b.ss - a.ss)))
    out.append(chain[-1])
    return out


# ---------------------------------------------------------------------------
# Scheme operating points

@lru_cache(maxsize=1024)
def t_ranges(family: str, d: int) -> Tuple[range, range]:
    """The cluster sizes t a scheme family may use at delay d, as ``(dual,
    rx_only)``: on ``dual`` the Tx and Rx cooperation prelogs both pay for
    the scheme, on ``rx_only`` only the Rx prelog does.  All-slow schemes
    take 1..⌊d/4⌋ and ⌊d/4⌋+1..⌊d/2⌋, mixed schemes 1..⌊(d−2)/4⌋ and
    ⌈(d+2)/4⌉..⌊(d−2)/2⌋, in integer arithmetic."""
    if family == FAMILY_SLOW:
        return range(1, d // 4 + 1), range(d // 4 + 1, d // 2 + 1)
    if family == FAMILY_MIXED:
        return range(1, (d - 2) // 4 + 1), range(-(-(d + 2) // 4), (d - 2) // 2 + 1)
    raise ValueError(f"unknown scheme family {family!r}")


# Cooperation prices.  The helpers below only add and multiply, so they
# evaluate on symbolic m, t and λ as well as on ints.

def _messages(scheme: str, m, t) -> Tuple:
    """The scheme table: (tx, rx) unit-prelog conferencing messages one
    cluster of s1–s5 sends, as polynomials in m and t."""
    if scheme == "s1":
        return 0, 0
    if scheme == "s2":
        return 0, 6 * m * t * t * (2 * t - 1)
    if scheme == "s3":
        return 12 * m * t * t * (2 * t - 1), 0
    if scheme == "s4":
        return 2 * m * t * (8 * t * t + 3 * t - 2), 3 * m * (3 * t * t - 1)
    if scheme == "s5":
        return 6 * m * t * (2 * t - 1), m * (8 * t ** 3 + 6 * t * t + t - 3)
    raise ValueError(f"unknown scheme {scheme!r}")


@dataclass(frozen=True)
class PrelogRequirement:
    mu_tx: Fraction
    mu_rx: Fraction

    @property
    def total(self) -> Fraction:
        return self.mu_tx + self.mu_rx


def required_prelogs(scheme: str, t: int, m: int) -> PrelogRequirement:
    """Per-link cooperation prelogs a scheme needs, as exact rationals: its
    messages per cluster over the cluster's 36t² tx and 18t² rx links."""
    _cluster_size(t)
    if m < 1:
        raise ValueError("m must be positive")
    tx, rx = _messages(scheme, m, t)
    return PrelogRequirement(Fraction(tx, 36 * t * t), Fraction(rx, 18 * t * t))


def _base_gains(family: str, m) -> Tuple:
    """(fast, slow) gains at λ = 0, each as (numerator, denominator): the
    no-cooperation baseline, all slow (0, m/2) or all fast (m/2, 0)."""
    if family == FAMILY_SLOW:
        return (0, 1), (m, 2)
    return (m, 2), (0, 1)


def _full_gains(family: str, m, t) -> Tuple:
    """(fast, slow) gains of the full scheme (λ = 1), each as (numerator,
    denominator): all-slow (0, m(3t−1)/(3t)), mixed (m/3, m(2t−1)/(3t))."""
    if family == FAMILY_SLOW:
        return (0, 1), (m * (3 * t - 1), 3 * t)
    return (m, 3), (m * (2 * t - 1), 3 * t)


@lru_cache(maxsize=1024)
def _family_prices(family: str, m: int, t: int) -> Tuple:
    """Need, base and full gains of a family; a sweep reuses a few (m, t).
    The need is the total per-link prelog of the full scheme, s3's for
    all-slow and s4's for mixed, as (numerator, denominator)."""
    need = required_prelogs("s3" if family == FAMILY_SLOW else "s4", t, m).total
    return need.as_integer_ratio(), _base_gains(family, m), _full_gains(family, m, t)


def _time_share(base: Tuple, full: Tuple, ln, ld) -> Tuple:
    """base + λ·(full − base) at λ = ln/ld, as (numerator, denominator)."""
    (bn, bd), (fn, fd) = base, full
    return bn * fd * ld + ln * (fn * bd - bn * fd), bd * fd * ld


def scheme_point(family: str, t: int, p: SystemParams) -> MGPoint:
    """Operating point of one scheme family at parameter t.

    Each cooperative scheme is time-shared with the no-cooperation baseline:
    the point is base + λ·(full − base), with the weight λ capped by the
    available per-link prelog divided by the prelog the full scheme needs.
    ``_gains`` decides it on integers; each coordinate is one ``Fraction``.
    """
    m = p.m
    if family == FAMILY_NO_COOP:
        return MGPoint(Fraction(m, 2), _ZERO)
    _cluster_size(t)

    dual, rx_only = t_ranges(family, p.d)
    on_dual = t in dual
    if not on_dual and t not in rx_only:
        name = "all-slow" if family == FAMILY_SLOW else "mixed"
        raise ValueError(f"t={t} outside the {name} range for d={p.d}")
    gains = _gains(family, m, t, _available(p, on_dual))
    # a zero coordinate (every all-slow fast gain) reuses _ZERO: no gcd taken
    return MGPoint(*(Fraction(n, d) if n else _ZERO for n, d in gains))


def _cluster_size(t: int) -> int:
    """``t``, refused unless a positive int: the cached ``_family_prices``
    would take 2.0 for 2."""
    if not isinstance(t, int) or t < 1:
        raise ValueError(f"t must be a positive integer, got {t!r}")
    return t


def _available(p: SystemParams, dual: bool) -> Tuple[int, int]:
    """The per-link prelog a scheme may spend, as (numerator, denominator):
    mu_rx, plus mu_tx on the dual branch."""
    an, ad = p.mu_rx.as_integer_ratio()
    if dual:
        xn, xd = p.mu_tx.as_integer_ratio()
        an, ad = an * xd + xn * ad, ad * xd
    return an, ad


def _gains(family: str, m: int, t: int, available: Tuple[int, int]) -> Tuple:
    """(fast, slow) gains of the family at t with the ``available`` prelog,
    each as (numerator, denominator) in lowest terms.  λ = min(1,
    available/need) is decided by cross-multiplying integers."""
    an, ad = available
    (nn, nd), (base_sf, base_ss), (sf, ss) = _family_prices(family, m, t)
    if an * nd < ad * nn:  # available < need: λ = (an/ad)/(nn/nd) < 1
        ln, ld = an * nd, ad * nn
        sf, ss = _time_share(base_sf, sf, ln, ld), _time_share(base_ss, ss, ln, ld)
    return _lowest(*sf), _lowest(*ss)


def _lowest(n: int, d: int) -> Tuple[int, int]:
    """n/d in lowest terms, d > 0; zero as (0, 1)."""
    g = gcd(n, d)
    return n // g, d // g


def inner_bound(p: SystemParams, t_values: Optional[Iterable[int]] = None) -> Region:
    """Achievable region: hull of all admissible scheme points.

    ``t_values`` restricts the scheme parameter sweep (e.g. ``[4]`` evaluates
    the bound for a single cluster size); by default every admissible t for
    the delay budget enters the hull, about d points, refused past
    ``MAX_SWEEP_POINTS`` before any is computed.  Only the selected t are
    visited, so a hull at one t costs the same for any d.  The hull runs on
    the schemes' integer gains, and only its vertices become ``Fraction``
    points.
    """
    sel = None if t_values is None else sorted(set(t_values))
    ranges = {family: t_ranges(family, p.d) for family in (FAMILY_SLOW, FAMILY_MIXED)}
    if sel is None:
        n = sum(len(ts) for pair in ranges.values() for ts in pair)
        if n > MAX_SWEEP_POINTS:
            raise ValueError(f"a sweep at d={p.d} visits {n} scheme points, "
                             f"past the cap of {MAX_SWEEP_POINTS}")
    gains = [(_lowest(p.m, 2), (0, 1))]  # no cooperation; the hull adds the origin
    for family, pair in ranges.items():
        for ts, dual in zip(pair, (True, False)):
            # bounds, not `in`: `in` walks the range for a t that is not an int
            picked = ts if sel is None else [
                _cluster_size(t) for t in sel if ts.start <= t < ts.stop]
            if picked:
                available = _available(p, dual)
                gains += [_gains(family, p.m, t, available) for t in picked]
    den, keys = _on_one_denominator(gains)
    return _region_of_pairs(den, _hull_keys(keys))


def sum_gain_cap(p: SystemParams) -> Fraction:
    """Binding cap on the sum multiplexing gain in the outer bound: the
    smaller of the two partitions' cap rules at their limiting densities."""
    return min(
        densities.cap_rule(densities.TWO, densities.fraction_limits(densities.TWO), p),
        densities.cap_rule(densities.FOUR, densities.fraction_limits(densities.FOUR, p.d), p),
    )


def outer_bound(p: SystemParams) -> Region:
    """Impossibility region: fast gain capped at m/2, sum gain capped.

    Since cap >= m/2, it is the triangle (0,0), (cap,0), (0,cap) when
    cap = m/2 and the quadrilateral (0,0), (m/2,0), (m/2, cap−m/2), (0,cap)
    otherwise, counterclockwise from the origin.
    """
    m_half = Fraction(p.m, 2)
    cap = sum_gain_cap(p)
    origin, top = MGPoint(_ZERO, _ZERO), MGPoint(_ZERO, cap)
    if cap <= m_half:
        return Region((origin, MGPoint(cap, _ZERO), top))
    return Region((origin, MGPoint(m_half, _ZERO), MGPoint(m_half, cap - m_half), top))
