from fractions import Fraction

import pytest

from hexmg.lattice import build_network
from hexmg.partitions import (
    BLUE,
    PINK,
    RED,
    WHITE,
    bound_arithmetic,
    census_fractions,
    fraction_limits,
    partition_four,
    partition_two,
)
from hexmg.regions import SystemParams


def test_two_coloring_halves():
    net = build_network(40)
    part = partition_two(net)
    rows = {r.color: r for r in census_fractions(net, part)}
    assert abs(rows[RED].fraction - Fraction(1, 2)) <= Fraction(1, 50)
    assert part.census[RED] + part.census[WHITE] == len(net.cells)


def test_two_coloring_is_column_alternating():
    net = build_network(8)
    part = partition_two(net)
    for (q, r), color in part.coloring.items():
        same = (q + 1, r - 1)  # along the column
        flip = (q + 1, r)
        if same in part.coloring:
            assert part.coloring[same] == color
        if flip in part.coloring:
            assert part.coloring[flip] != color


def test_every_interior_white_cell_has_red_neighbor():
    net = build_network(10)
    part = partition_two(net)
    interior = set(net.interior_cells())
    for c, color in part.coloring.items():
        if color == WHITE and c in interior:
            assert any(part.coloring[nb] == RED for nb in net.rx_neighbors[c])


def test_four_coloring_census_d3():
    net = build_network(40)
    part = partition_four(net, 3)
    rows = {r.color: r for r in census_fractions(net, part)}
    for color, limit in (
        (RED, Fraction(1, 26)),
        (BLUE, Fraction(1, 26)),
        (PINK, Fraction(3, 13)),
        (WHITE, Fraction(9, 13)),
    ):
        assert rows[color].limit == limit
        assert rows[color].abs_error <= Fraction(1, 50), color
    # fractions sum to one exactly on the finite lattice
    assert sum(r.fraction for r in rows.values()) == 1
    assert sum(part.census.values()) == len(net.cells)


def test_each_interior_red_cell_has_six_pink_neighbors():
    net = build_network(20)
    part = partition_four(net, 3)
    interior = set(net.interior_cells(depth=2))
    for c, color in part.coloring.items():
        if color == RED and c in interior:
            nb_colors = [part.coloring[nb] for nb in net.rx_neighbors[c]]
            assert nb_colors.count(PINK) == 6


def test_red_blue_sublattice_index_exact():
    # index of the generating pair (d,1), (-1,d+1) is d*d + d + 1
    for d in (2, 3, 5):
        n = d * d + d + 1
        assert d * (d + 1) - (1 * -1) == n
        net = build_network(4 * d)
        part = partition_four(net, d)
        lattice_cells = [c for c, col in part.coloring.items() if col in (RED, BLUE)]
        # no two sublattice cells closer than d+1 hops
        from hexmg.lattice import cell_distance

        for i, a in enumerate(lattice_cells):
            for b in lattice_cells[i + 1 :]:
                assert cell_distance(a, b) >= d + 1


def test_four_coloring_validation():
    net = build_network(10)
    with pytest.raises(ValueError):
        partition_four(net, 1)
    with pytest.raises(ValueError):
        partition_four(net, 4)  # needs radius >= 12
    with pytest.raises(ValueError):
        fraction_limits("five")


def test_two_color_bound_matches_conferencing_cap():
    net = build_network(40)
    part = partition_two(net)
    params = SystemParams(m=3, mu_tx=Fraction(1, 10), mu_rx=Fraction(1, 5), d=20)
    bound = bound_arithmetic(part, params)
    assert abs(bound - Fraction(53, 30)) <= Fraction(1, 50)  # 1.7667 in the limit


def test_four_color_bound_matches_delay_cap():
    params = SystemParams(m=3, mu_tx=1, mu_rx=1, d=20)
    net = build_network(40)
    bound3 = bound_arithmetic(partition_four(net, 3), params)
    assert abs(bound3 - Fraction(75, 26)) <= Fraction(1, 50)  # 3*(1 - 1/26)
    net60 = build_network(60)
    bound20 = bound_arithmetic(partition_four(net60, 20), params)
    assert abs(bound20 - Fraction(2523, 842)) <= Fraction(1, 50)  # 2.9964...


def test_bound_converges_with_radius():
    params = SystemParams(m=3, mu_tx=Fraction(1, 10), mu_rx=Fraction(1, 5), d=20)
    errs2, errs4 = [], []
    for radius in (20, 40, 60):
        net = build_network(radius)
        errs2.append(abs(bound_arithmetic(partition_two(net), params) - Fraction(53, 30)))
        errs4.append(
            abs(bound_arithmetic(partition_four(net, 3), params) - Fraction(75, 26))
        )
    assert errs2[1] < errs2[0] and errs2[2] < errs2[0]
    assert errs4[1] < errs4[0] and errs4[2] < errs4[0]


def test_bound_kind_checked():
    net = build_network(12)
    part = partition_two(net)
    object.__setattr__(part, "kind", "five")
    with pytest.raises(ValueError):
        bound_arithmetic(part, SystemParams(m=1, mu_tx=0, mu_rx=0, d=1))
