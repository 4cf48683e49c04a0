"""Multiplexing-gain regions over exact rational arithmetic.

The achievable (inner) region is the convex hull of the operating points of
five transmission schemes, each time-shared with the no-cooperation baseline
until the per-link cooperation prelog budget is met.  The impossibility
(outer) region is the intersection of a cap on the fast gain with two caps on
the sum gain.  All vertices are ``fractions.Fraction`` pairs; nothing here
touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Iterable, List, Optional, Sequence, Tuple, Union

RatLike = Union[int, str, Fraction]

FAMILY_NO_COOP = "no_coop"   # fast-only baseline, ignores cooperation links
FAMILY_SLOW = "slow"         # all-slow schemes (Rx-side or Tx-side conferencing)
FAMILY_MIXED = "mixed"       # alternating fast/slow schemes


def _rat(x: RatLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class MGPoint:
    sf: Fraction
    ss: Fraction

    def __iter__(self):
        return iter((self.sf, self.ss))


def mg_point(sf: RatLike, ss: RatLike) -> MGPoint:
    p = MGPoint(_rat(sf), _rat(ss))
    if p.sf < 0 or p.ss < 0:
        raise ValueError("multiplexing gains must be non-negative")
    return p


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

    @property
    def sf_max(self) -> Fraction:
        return max(v.sf for v in self.vertices)

    @property
    def ss_max(self) -> Fraction:
        return max(v.ss for v in self.vertices)


def _cross(o: MGPoint, a: MGPoint, b: MGPoint) -> Fraction:
    return (a.sf - o.sf) * (b.ss - o.ss) - (a.ss - o.ss) * (b.sf - o.sf)


def convex_hull(points: Sequence[MGPoint]) -> Region:
    """Canonical downward-closed hull of a non-empty set of gain pairs."""
    if not points:
        raise ValueError("need at least one point")
    pts = {(p.sf, p.ss) for p in points}
    sf_max = max(p[0] for p in pts)
    ss_max = max(p[1] for p in pts)
    # axis projections make the hull downward closed
    pts.update({(Fraction(0), Fraction(0)), (sf_max, Fraction(0)), (Fraction(0), ss_max)})
    uniq = sorted(pts)
    if len(uniq) == 1:
        return Region((MGPoint(*uniq[0]),))
    mg = [MGPoint(*p) for p in uniq]
    if len(mg) == 2:
        return Region(tuple(mg))

    def half(seq: List[MGPoint]) -> List[MGPoint]:
        out: List[MGPoint] = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(mg)
    upper = half(list(reversed(mg)))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # all collinear
        return Region((mg[0], mg[-1]))
    start = hull.index(min(hull, key=lambda p: (p.sf, p.ss)))
    hull = hull[start:] + hull[:start]
    return Region(tuple(hull))


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
    """Boundary vertices from (0, ss_max) down to (sf_max, 0)."""
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

def slow_t_max(d: int) -> int:
    return d // 2


def slow_shared_t_max(d: int) -> int:
    # up to here Tx-side and Rx-side all-slow schemes are interchangeable
    return d // 4


def mixed_dual_t_max(d: int) -> int:
    return (d - 2) // 4


def mixed_rx_t_min(d: int) -> int:
    return ceil((d + 2) / 4)


def mixed_t_max(d: int) -> int:
    return (d - 2) // 2


def mixed_t_values(d: int) -> List[int]:
    vals = list(range(1, mixed_dual_t_max(d) + 1))
    vals += [t for t in range(mixed_rx_t_min(d), mixed_t_max(d) + 1) if t not in vals]
    return vals


def scheme_point(family: str, t: int, p: SystemParams) -> MGPoint:
    """Operating point of one scheme family at parameter t.

    Each cooperative scheme is time-shared with the no-cooperation baseline;
    the time-share weight is capped by the available per-link prelog divided
    by the prelog the full scheme needs.
    """
    m = p.m
    if family == FAMILY_NO_COOP:
        return MGPoint(Fraction(m, 2), Fraction(0))
    if not isinstance(t, int) or t < 1:
        raise ValueError(f"t must be a positive integer, got {t!r}")

    if family == FAMILY_SLOW:
        if t <= slow_shared_t_max(p.d):
            available = p.mu_tx + p.mu_rx
        elif t <= slow_t_max(p.d):
            available = p.mu_rx
        else:
            raise ValueError(f"t={t} outside the all-slow range for d={p.d}")
        need = Fraction(m * (2 * t - 1), 3)
        lam = min(Fraction(1), available / need)
        return MGPoint(Fraction(0), Fraction(m, 2) + lam * Fraction(m * (3 * t - 2), 6 * t))

    if family == FAMILY_MIXED:
        if t <= mixed_dual_t_max(p.d):
            available = p.mu_tx + p.mu_rx
        elif mixed_rx_t_min(p.d) <= t <= mixed_t_max(p.d):
            available = p.mu_rx
        else:
            raise ValueError(f"t={t} outside the mixed range for d={p.d}")
        need = Fraction(m * (4 * t * t - 1) * (2 * t + 3), 18 * t * t)
        lam = min(Fraction(1), available / need)
        return MGPoint(
            Fraction(m, 2) - lam * Fraction(m, 6),
            lam * Fraction(m * (2 * t - 1), 3 * t),
        )

    raise ValueError(f"unknown scheme family {family!r}")


def inner_bound(p: SystemParams, t_values: Optional[Iterable[int]] = None) -> Region:
    """Achievable region: hull of all admissible scheme points.

    ``t_values`` restricts the scheme parameter sweep (e.g. ``[4]`` evaluates
    the bound for a single cluster size); by default every admissible t for
    the delay budget enters the hull.
    """
    sel = None if t_values is None else set(t_values)
    pts = [MGPoint(Fraction(0), Fraction(0)), scheme_point(FAMILY_NO_COOP, 1, p)]
    for t in range(1, slow_t_max(p.d) + 1):
        if sel is None or t in sel:
            pts.append(scheme_point(FAMILY_SLOW, t, p))
    for t in mixed_t_values(p.d):
        if sel is None or t in sel:
            pts.append(scheme_point(FAMILY_MIXED, t, p))
    return convex_hull(pts)


def sum_gain_cap(p: SystemParams) -> Fraction:
    """Binding cap on the sum multiplexing gain in the outer bound."""
    conf_cap = Fraction(p.m, 2) + Fraction(2) * p.mu_rx / 3 + Fraction(4) * p.mu_tx / 3
    delay_cap = p.m * (1 - Fraction(1, 2 * (1 + p.d + p.d * p.d)))
    return min(conf_cap, delay_cap)


def outer_bound(p: SystemParams) -> Region:
    """Impossibility region: fast gain capped at m/2, sum gain capped."""
    m_half = Fraction(p.m, 2)
    cap = sum_gain_cap(p)
    pts = [MGPoint(Fraction(0), Fraction(0)), MGPoint(Fraction(0), cap)]
    if cap <= m_half:
        pts.append(MGPoint(cap, Fraction(0)))
    else:
        pts.append(MGPoint(m_half, Fraction(0)))
        pts.append(MGPoint(m_half, cap - m_half))
    return convex_hull(pts)
