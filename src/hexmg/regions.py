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
arithmetic behind them runs on integers, each point on its own
denominators as ``(xn, xd, yn, yd)``: the hull sorts by an exact
cross-multiplied order, dedupes the lowest-terms tuples and crosses them
(``_turn``).  ``scheme_point`` decides its time-share weight by
cross-multiplying numerators and denominators; ``inner_bound`` hulls the
schemes' integer gains and builds a ``Fraction`` only for a vertex, so a
full sweep of about d points costs O(d log d).  ``contains`` and
``is_subset`` make each edge an integer line once and decide every side of
a point by three products.  ``decimal_str`` writes a rational out exactly,
for every report the command line prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from . import densities
from .schemes import positive_int

RatLike = Union[int, str, Fraction]

FAMILY_NO_COOP = "no_coop"   # fast-only baseline, ignores cooperation links
FAMILY_SLOW = "slow"         # all-slow schemes (Rx-side or Tx-side conferencing)
FAMILY_MIXED = "mixed"       # alternating fast/slow schemes

_ZERO = Fraction(0)

#: Largest number of scheme points a full sweep of ``inner_bound`` visits,
#: about d of them.  Each point stays on its own denominators, so a sweep
#: costs O(d log d): at the cap, d = 100,001 (99,998 points, 32,324
#: vertices) takes about 1.6 s and 60 MB at m = 1, μ = 1 on a 2-vCPU Xeon,
#: and ``hexmg region --m 1 --mu-tx 1 --mu-rx 1 --d 100001 --t all --format
#: json`` writes 5.1 MB.
MAX_SWEEP_POINTS = 100_000


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
        positive_int("m", self.m)
        positive_int("d", self.d)
        if self.mu_tx < 0 or self.mu_rx < 0:
            raise ValueError("cooperation prelogs must be non-negative")


@dataclass(frozen=True)
class Region:
    """Convex, downward-closed polygon in the (fast, slow) gain quadrant.

    Vertices are counterclockwise, starting at the origin, with no three
    consecutive vertices collinear.
    """

    vertices: Tuple[MGPoint, ...]


def _ratios(points: Iterable[MGPoint]) -> List[Tuple[int, int, int, int]]:
    """Each point as the integers ``(xn, xd, yn, yd)`` of its coordinates
    in lowest terms, so two equal points give equal tuples."""
    return [p.sf.as_integer_ratio() + p.ss.as_integer_ratio() for p in points]


def _point(key: Tuple[int, int, int, int]) -> MGPoint:
    """The point of ``(xn, xd, yn, yd)`` in lowest terms; a zero coordinate
    reuses _ZERO, so no gcd is taken for it."""
    xn, xd, yn, yd = key
    return MGPoint(Fraction(xn, xd) if xn else _ZERO, Fraction(yn, yd) if yn else _ZERO)


def _xy_order(a: Tuple, b: Tuple) -> int:
    """An integer with the sign of ``a`` against ``b`` in (x, y) order."""
    return a[0] * b[1] - b[0] * a[1] or a[2] * b[3] - b[2] * a[3]


def _turn(o: Tuple, a: Tuple, b: Tuple) -> int:
    """An integer with the sign of the cross product ``(a - o) x (b - o)``
    of ``(xn, xd, yn, yd)`` points.  Each difference is its numerator over
    the product of the two denominators; the factor ``oxd·oyd`` that both
    products of the cross share is left out."""
    oxn, oxd, oyn, oyd = o
    axn, axd, ayn, ayd = a
    bxn, bxd, byn, byd = b
    return ((axn * oxd - oxn * axd) * (byn * oyd - oyn * byd) * ayd * bxd
            - (ayn * oyd - oyn * ayd) * (bxn * oxd - oxn * bxd) * axd * byd)


def _chain(keys: List[Tuple]) -> List[Tuple]:
    """One half of Andrew's monotone chain: the points that turn left."""
    out: List[Tuple] = []
    for b in keys:
        while len(out) >= 2 and _turn(out[-2], out[-1], b) <= 0:
            out.pop()
        out.append(b)
    return out


def _hull_keys(keys: Iterable[Tuple]) -> List[Tuple]:
    """The canonical downward-closed hull of ``(xn, xd, yn, yd)`` points in
    lowest terms, in ``Region``'s vertex order; the origin and the axis
    projections make it downward closed.  A point between the origin and an
    axis projection lies on the segment joining them, so it is never a
    vertex and the chain skips it."""
    keys = set(keys)
    rxn, rxd, _, _ = max(keys, key=cmp_to_key(_xy_order))
    _, _, tyn, tyd = max(keys, key=cmp_to_key(lambda a, b: a[2] * b[3] - b[2] * a[3]))
    keys = {k for k in keys
            if (k[0] or not 0 <= k[2] * tyd <= tyn * k[3])
            and (k[2] or not 0 <= k[0] * rxd <= rxn * k[1])}
    keys.update(((0, 1, 0, 1), (rxn, rxd, 0, 1), (0, 1, tyn, tyd)))
    keys = sorted(keys, key=cmp_to_key(_xy_order))
    if len(keys) > 2:
        # counterclockwise from the smallest point, which starts the lower chain
        hull = _chain(keys)[:-1] + _chain(keys[::-1])[:-1]
        keys = hull if len(hull) >= 3 else [keys[0], keys[-1]]  # else all collinear
    return keys


def convex_hull(points: Sequence[MGPoint]) -> Region:
    """Canonical downward-closed hull of a non-empty set of gain pairs.

    Sorting, deduping and the chain run on each point's own integer
    numerators and denominators.  The hull reuses the input points, and an
    axis projection that is not one of them is built from its integers.
    """
    if not points:
        raise ValueError("need at least one point")
    keys = _ratios(points)
    at: Dict[Tuple, MGPoint] = {}
    for key, p in zip(keys, points):
        at.setdefault(key, p)
    return Region(tuple(at[k] if k in at else _point(k) for k in _hull_keys(keys)))


def _holds(v: List[Tuple], pts: List[Tuple]) -> bool:
    """Whether the region with vertices ``v`` holds every point of ``pts``,
    all ``(xn, xd, yn, yd)`` in lowest terms: a point lies on the left of
    (or on) every edge, and, for two vertices, between them.  In the
    homogeneous form ``(xn·yd, yn·xd, xd·yd)`` of the points, an edge
    ``a → b`` is the line ``a × b``, and a point's dot product with it has
    the sign of ``_turn(a, b, point)``."""
    if len(v) == 1:
        return all(p == v[0] for p in pts)
    hv = [(xn * yd, yn * xd, xd * yd) for xn, xd, yn, yd in v]
    hp = [(xn * yd, yn * xd, xd * yd) for xn, xd, yn, yd in pts]
    # for two vertices the lines are a × b and b × a: both hold only on the line
    lines = [(ay * bw - aw * by, aw * bx - ax * bw, ax * by - ay * bx)
             for (ax, ay, aw), (bx, by, bw) in zip(hv, hv[1:] + hv[:1])]
    if not all(a * x + b * y + c * w >= 0 for x, y, w in hp for a, b, c in lines):
        return False
    if len(v) == 2:  # on the segment: (p - a)·(p - b) <= 0
        (ax, ay, aw), (bx, by, bw) = hv
        return all((x * aw - ax * w) * (x * bw - bx * w) + (y * aw - ay * w) * (y * bw - by * w) <= 0
                   for x, y, w in hp)
    return True


def contains(region: Region, pt: MGPoint) -> bool:
    """Exact membership test."""
    return _holds(_ratios(region.vertices), _ratios([pt]))


def is_subset(a: Region, b: Region) -> bool:
    """True iff region ``a`` lies inside region ``b`` (both convex)."""
    return _holds(_ratios(b.vertices), _ratios(a.vertices))


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
    positive_int("t", t)
    positive_int("m", m)
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
    positive_int("t", t)

    dual, rx_only = t_ranges(family, p.d)
    on_dual = t in dual
    if not on_dual and t not in rx_only:
        name = "all-slow" if family == FAMILY_SLOW else "mixed"
        raise ValueError(f"t={t} outside the {name} range for d={p.d}")
    gains = _gains(family, m, t, _available(p, on_dual))
    # a zero coordinate (every all-slow fast gain) reuses _ZERO: no gcd taken
    return MGPoint(*(Fraction(n, d) if n else _ZERO for n, d in gains))


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
    the schemes' gains as integer numerators and denominators, each point on
    its own, and only its vertices become ``Fraction`` points.
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
                positive_int("t", t) for t in sel if ts.start <= t < ts.stop]
            if picked:
                available = _available(p, dual)
                gains += [_gains(family, p.m, t, available) for t in picked]
    return Region(tuple(_point(k) for k in _hull_keys(sf + ss for sf, ss in gains)))


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
