"""Cell partitions behind the outer bound and their census arithmetic.

Two partitions of the cell set are used.  The two-colour partition paints
alternating columns red and white; a virtual super receiver observing the red
half can decode everything, which prices the sum gain in conferencing
prelogs.  The four-colour partition places red and blue cells on a sparse
triangular sublattice (index d*d + d + 1), surrounds every red cell with six
pink ones, and leaves the rest white; blue cells are reconstructed rather
than observed, which caps the sum gain by the blue density.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

import numpy as np

from .lattice import CellMap, Network
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
    def coloring(self) -> CellMap:
        """``cell -> colour``, read off ``codes``; a view kept for callers
        outside the library, such as the tests, which the library does not read."""
        return CellMap(self.net, lambda i: COLORS[self.codes[i]])

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


def fraction_limits(kind: str, d: Optional[int] = None) -> Dict[str, Fraction]:
    """Limiting colour densities on the infinite lattice."""
    if kind == TWO:
        return {RED: Fraction(1, 2), WHITE: Fraction(1, 2)}
    if kind == FOUR:
        if d is None:
            raise ValueError("four-colour limits need d")
        n = d * d + d + 1
        return {
            RED: Fraction(1, 2 * n),
            BLUE: Fraction(1, 2 * n),
            PINK: Fraction(3, n),
            WHITE: Fraction(d * d + d - 3, n),
        }
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


def bound_arithmetic(part: Partition, params: SystemParams) -> Fraction:
    """Per-user sum multiplexing-gain cap evaluated on the finite census."""
    k = len(part.codes)
    if part.kind == TWO:
        red = part.census.get(RED, 0)
        return Fraction(
            3 * params.m * red, 3 * k
        ) + Fraction(4 * (k - red), 3 * k) * (params.mu_rx + 2 * params.mu_tx)
    if part.kind == FOUR:
        blue = part.census.get(BLUE, 0)
        return params.m * (1 - Fraction(blue, k))
    raise ValueError(f"unknown partition kind {part.kind!r}")
