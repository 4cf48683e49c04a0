"""Colour densities of the outer-bound partitions and the caps they prove.

The two-colour partition paints alternating columns red and white; the
four-colour partition places red and blue cells on a triangular sublattice
of index d*d + d + 1, rings every red cell with six pink ones and leaves the
rest white (``partitions`` paints them on a lattice).  Each partition's cap
on the sum gain is stated once, as ``cap_rule`` of its colour densities: the
outer bound reads it at the limiting densities (``fraction_limits``),
``partitions.bound_arithmetic`` at the census of a finite lattice.  Nothing
here needs numpy, so the outer bound loads none.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Optional

if TYPE_CHECKING:
    from .regions import SystemParams

RED = "RED"
WHITE = "WHITE"
PINK = "PINK"
BLUE = "BLUE"
#: colour names by code, as stored in ``partitions.Partition.codes``
COLORS = (WHITE, RED, PINK, BLUE)

TWO = "two"
FOUR = "four"


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
