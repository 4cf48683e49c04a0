"""Multiplexing-gain regions over exact rational arithmetic.

The achievable (inner) region is the convex hull of the operating points of
five transmission schemes, each time-shared with the no-cooperation baseline
until the per-link cooperation prelog budget is met; each scheme's cost is
stated once, as the messages one cluster sends (``_messages``), and the
cluster sizes each scheme family may use at a delay once, as two integer
ranges (``t_ranges``).  The
impossibility (outer) region is the intersection of a cap on the fast gain
with two caps on the sum gain, the cap rules of the two partitions
(``partitions.cap_rule``) at their limiting densities.  All vertices are
``fractions.Fraction`` pairs; nothing here touches floating point.  The
arithmetic behind them runs on integers: ``convex_hull`` puts its points on
one common denominator and sorts, dedupes and crosses the integer pairs,
``scheme_point`` decides its time-share weight by cross-multiplying
numerators and denominators and builds one ``Fraction`` per coordinate, and
``_cross`` gives ``contains`` the sign of a cross product from the integer
numerators and denominators of its three points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from . import partitions

RatLike = Union[int, str, Fraction]

FAMILY_NO_COOP = "no_coop"   # fast-only baseline, ignores cooperation links
FAMILY_SLOW = "slow"         # all-slow schemes (Rx-side or Tx-side conferencing)
FAMILY_MIXED = "mixed"       # alternating fast/slow schemes

_ZERO = Fraction(0)


def _rat(x: RatLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


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
    consecutive vertices collinear.
    """

    vertices: Tuple[MGPoint, ...]


def _cross(o: MGPoint, a: MGPoint, b: MGPoint) -> int:
    """An int with the sign of the cross product ``(a - o) x (b - o)``, for
    callers that only compare it with 0.  Multiplying the product by every
    (positive) denominator of the six coordinates leaves integers, so no
    ``Fraction`` is built and no gcd taken."""
    (oxn, oxd), (oyn, oyd) = o.sf.as_integer_ratio(), o.ss.as_integer_ratio()
    (axn, axd), (ayn, ayd) = a.sf.as_integer_ratio(), a.ss.as_integer_ratio()
    (bxn, bxd), (byn, byd) = b.sf.as_integer_ratio(), b.ss.as_integer_ratio()
    # (a - o).sf = (axn·oxd − oxn·axd) / (axd·oxd), and so on
    return ((axn * oxd - oxn * axd) * (byn * oyd - oyn * byd) * ayd * bxd
            - (ayn * oyd - oyn * ayd) * (bxn * oxd - oxn * bxd) * axd * byd)


def _chain(keys: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """One half of Andrew's monotone chain: the points that turn left."""
    out: List[Tuple[int, int]] = []
    for bx, by in keys:
        while len(out) >= 2:
            (ox, oy), (ax, ay) = out[-2], out[-1]
            if (ax - ox) * (by - oy) - (ay - oy) * (bx - ox) > 0:
                break
            out.pop()
        out.append((bx, by))
    return out


def convex_hull(points: Sequence[MGPoint]) -> Region:
    """Canonical downward-closed hull of a non-empty set of gain pairs.

    The points are scaled to integers over the lcm of their denominators;
    a positive common scale keeps their order, so sorting, deduping and the
    chain run on the integer pairs.  The hull reuses the input points, and
    an axis projection that is not one of them is built from their
    coordinates.
    """
    if not points:
        raise ValueError("need at least one point")
    den = lcm(*(c.denominator for p in points for c in (p.sf, p.ss)))
    at: Dict[Tuple[int, int], MGPoint] = {}
    for p in points:
        key = (p.sf.numerator * (den // p.sf.denominator),
               p.ss.numerator * (den // p.ss.denominator))
        at.setdefault(key, p)
    # axis projections make the hull downward closed
    right = max(at)
    top = max(at, key=lambda k: k[1])
    for key, sf, ss in (((0, 0), _ZERO, _ZERO),
                        ((right[0], 0), at[right].sf, _ZERO),
                        ((0, top[1]), _ZERO, at[top].ss)):
        if key not in at:
            at[key] = MGPoint(sf, ss)
    keys = sorted(at)
    if len(keys) > 2:
        # counterclockwise from the smallest point, which starts the lower chain
        hull = _chain(keys)[:-1] + _chain(keys[::-1])[:-1]
        keys = hull if len(hull) >= 3 else [keys[0], keys[-1]]  # else all collinear
    return Region(tuple(at[k] for k in keys))


def contains(region: Region, pt: MGPoint) -> bool:
    """Exact membership test."""
    v = region.vertices
    if len(v) == 1:
        return (pt.sf, pt.ss) == (v[0].sf, v[0].ss)
    if len(v) == 2:
        a, b = v
        if _cross(a, b, pt) != 0:
            return False
        return (
            min(a.sf, b.sf) <= pt.sf <= max(a.sf, b.sf)
            and min(a.ss, b.ss) <= pt.ss <= max(a.ss, b.ss)
        )
    for i in range(len(v)):
        if _cross(v[i], v[(i + 1) % len(v)], pt) < 0:
            return False
    return True


def is_subset(a: Region, b: Region) -> bool:
    """True iff region ``a`` lies inside region ``b`` (both convex)."""
    return all(contains(b, v) for v in a.vertices)


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
    if not isinstance(t, int) or t < 1:
        raise ValueError(f"t must be a positive integer, got {t!r}")
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
    λ = min(1, available/need) is decided by cross-multiplying integers, and
    each coordinate is one ``Fraction`` built from an integer numerator and
    denominator.
    """
    m = p.m
    if family == FAMILY_NO_COOP:
        return MGPoint(Fraction(m, 2), _ZERO)
    if not isinstance(t, int) or t < 1:
        raise ValueError(f"t must be a positive integer, got {t!r}")

    dual, rx_only = t_ranges(family, p.d)
    on_dual = t in dual
    if not on_dual and t not in rx_only:
        name = "all-slow" if family == FAMILY_SLOW else "mixed"
        raise ValueError(f"t={t} outside the {name} range for d={p.d}")

    # available prelog an/ad: mu_rx, plus mu_tx on the dual branch
    an, ad = p.mu_rx.numerator, p.mu_rx.denominator
    if on_dual:
        xn, xd = p.mu_tx.numerator, p.mu_tx.denominator
        an, ad = an * xd + xn * ad, ad * xd
    (nn, nd), (base_sf, base_ss), (sf, ss) = _family_prices(family, m, t)
    if an * nd < ad * nn:  # available < need: λ = (an/ad)/(nn/nd) < 1
        ln, ld = an * nd, ad * nn
        sf, ss = _time_share(base_sf, sf, ln, ld), _time_share(base_ss, ss, ln, ld)
    # a zero coordinate (every all-slow fast gain) reuses _ZERO: no gcd taken
    return MGPoint(Fraction(*sf) if sf[0] else _ZERO, Fraction(*ss) if ss[0] else _ZERO)


def inner_bound(p: SystemParams, t_values: Optional[Iterable[int]] = None) -> Region:
    """Achievable region: hull of all admissible scheme points.

    ``t_values`` restricts the scheme parameter sweep (e.g. ``[4]`` evaluates
    the bound for a single cluster size); by default every admissible t for
    the delay budget enters the hull.  Only the selected t are visited, so a
    hull at one t costs the same for any d.
    """
    sel = None if t_values is None else sorted(set(t_values))
    pts = [MGPoint(Fraction(0), Fraction(0)), scheme_point(FAMILY_NO_COOP, 1, p)]
    for family in (FAMILY_SLOW, FAMILY_MIXED):
        for ts in t_ranges(family, p.d):
            # bounds, not `in`: `in` walks the range for a t that is not an int
            picked = ts if sel is None else [t for t in sel if ts.start <= t < ts.stop]
            pts += [scheme_point(family, t, p) for t in picked]
    return convex_hull(pts)


def sum_gain_cap(p: SystemParams) -> Fraction:
    """Binding cap on the sum multiplexing gain in the outer bound: the
    smaller of the two partitions' cap rules at their limiting densities."""
    return min(
        partitions.cap_rule(partitions.TWO, partitions.fraction_limits(partitions.TWO), p),
        partitions.cap_rule(partitions.FOUR, partitions.fraction_limits(partitions.FOUR, p.d), p),
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
