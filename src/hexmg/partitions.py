"""Cell partitions behind the outer bound and their census arithmetic.

Two partitions of the cell set are used.  The two-colour partition paints
alternating columns red and white; a virtual super receiver observing the red
half can decode everything, which prices the sum gain in conferencing
prelogs.  The four-colour partition places red and blue cells on a sparse
triangular sublattice (index d*d + d + 1), surrounds every red cell with six
pink ones, and leaves the rest white; blue cells are reconstructed rather
than observed, which caps the sum gain by the blue density.  Each cap is
stated once, as ``cap_rule`` of a colour density: the outer bound reads it at
the limiting densities (``fraction_limits``), ``bound_arithmetic`` at the
census of a finite lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

import numpy as np

from .lattice import Network

if TYPE_CHECKING:
    from .regions import SystemParams

RED = "RED"
WHITE = "WHITE"
PINK = "PINK"
BLUE = "BLUE"
#: colour names by code, as stored in ``Partition.codes``
COLORS = (WHITE, RED, PINK, BLUE)

TWO = "two"
FOUR = "four"


@dataclass(frozen=True, eq=False)
class Partition:
    kind: str
    d: Optional[int]
    net: Network
    #: per cell id: the index of its colour in ``COLORS``
    codes: np.ndarray

    @property
    def census(self) -> Dict[str, int]:
        """Cells per colour, for the colours that occur."""
        counts = np.bincount(self.codes, minlength=len(COLORS)).tolist()
        return {color: n for color, n in zip(COLORS, counts) if n}


def partition_two(net: Network) -> Partition:
    """Alternating-column two-colouring; red fraction tends to 1/2."""
    codes = np.where((net.q + net.r) % 2 == 0, COLORS.index(RED), COLORS.index(WHITE))
    return Partition(kind=TWO, d=None, net=net, codes=codes.astype(np.int8))


def partition_four(net: Network, d: int) -> Partition:
    """Red/blue on the sublattice spanned by (d, 1), pink around red."""
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"d must be an integer >= 2, got {d!r}")
    if net.radius < 3 * d:
        raise ValueError(f"lattice radius {net.radius} too small for d={d} (need >= {3 * d})")
    n = d * d + d + 1
    a, b = (d + 1) * net.q + net.r, d * net.r - net.q
    on = (a % n == 0) & (b % n == 0)
    red_or_blue = np.where((a // n + b // n) % 2 == 0, COLORS.index(RED), COLORS.index(BLUE))
    codes = np.where(on, red_or_blue, COLORS.index(WHITE)).astype(np.int8)
    red = codes == COLORS.index(RED)
    nb = net.adjacent(np.flatnonzero(red)).ravel()
    codes[nb[(nb >= 0) & (codes[nb] == COLORS.index(WHITE))]] = COLORS.index(PINK)
    return Partition(kind=FOUR, d=d, net=net, codes=codes)


@lru_cache(maxsize=1024)
def fraction_limits(kind: str, d: Optional[int] = None) -> Mapping[str, Fraction]:
    """Limiting colour densities on the infinite lattice, cached per
    ``(kind, d)``; every caller shares the mapping, so it is read-only."""
    if kind == TWO:
        return MappingProxyType({RED: Fraction(1, 2), WHITE: Fraction(1, 2)})
    if kind == FOUR:
        if d is None:
            raise ValueError("four-colour limits need d")
        n = d * d + d + 1
        # six pink cells per red cell, shared by no other red cell once
        # d >= 2; at d = 1 every cell off the sublattice is pink
        pink = min(Fraction(3, n), Fraction(n - 1, n))
        return MappingProxyType({
            RED: Fraction(1, 2 * n),
            BLUE: Fraction(1, 2 * n),
            PINK: pink,
            WHITE: 1 - Fraction(1, n) - pink,
        })
    raise ValueError(f"unknown partition kind {kind!r}")


@dataclass(frozen=True)
class CensusRow:
    color: str
    count: int
    fraction: Fraction
    limit: Fraction

    @property
    def abs_error(self) -> Fraction:
        return abs(self.fraction - self.limit)


def census_fractions(net: Network, part: Partition, depth: int = 2) -> List[CensusRow]:
    """Interior colour census against the limiting densities."""
    interior = part.codes[net.interior_mask(depth)]
    if not interior.size:
        raise ValueError("no interior cells at this radius")
    limits = fraction_limits(part.kind, part.d)
    counts = dict(zip(COLORS, np.bincount(interior, minlength=len(COLORS)).tolist()))
    return [
        CensusRow(color, counts[color], Fraction(counts[color], interior.size), limits[color])
        for color in sorted(limits)
    ]


def cap_rule(kind: str, density: Mapping[str, Fraction], params: SystemParams) -> Fraction:
    """Per-user sum multiplexing-gain cap that a partition proves, at the
    colour densities ``density``.

    Two colours: the red users' own gain, plus the conferencing prelogs the
    super receiver spends on the white users.  Four colours: every user but
    the reconstructed blue ones.
    """
    if kind == TWO:
        red = density[RED]
        return params.m * red + Fraction(4, 3) * (1 - red) * (params.mu_rx + 2 * params.mu_tx)
    if kind == FOUR:
        return params.m * (1 - density[BLUE])
    raise ValueError(f"unknown partition kind {kind!r}")


def bound_arithmetic(part: Partition, params: SystemParams) -> Fraction:
    """``cap_rule`` at the census of the whole finite lattice."""
    k = len(part.codes)
    counts = np.bincount(part.codes, minlength=len(COLORS)).tolist()
    return cap_rule(part.kind, {c: Fraction(n, k) for c, n in zip(COLORS, counts)}, params)
