from collections import Counter
from fractions import Fraction

import pytest

from hexmg.lattice import HEX_DIRS, build_network, cell_distance
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


def interior_cells(net, depth=2):
    return {c for c in net.cells if cell_distance(c, (0, 0)) <= net.radius - depth}


# ---------------------------------------------------------------------------
# dict oracles: the colourings built cell by cell over ``net.cells``, without
# colour codes, cell ids or shifted gathers


def partition_two_oracle(net):
    return {c: (RED if (c[0] + c[1]) % 2 == 0 else WHITE) for c in net.cells}


def partition_four_oracle(net, d):
    n = d * d + d + 1
    coloring = {}
    red_cells = []
    for (q, r) in net.cells:
        a_num = (d + 1) * q + r
        b_num = d * r - q
        if a_num % n == 0 and b_num % n == 0:
            color = RED if ((a_num // n) + (b_num // n)) % 2 == 0 else BLUE
            coloring[(q, r)] = color
            if color == RED:
                red_cells.append((q, r))
        else:
            coloring[(q, r)] = WHITE
    for (q, r) in red_cells:
        for dq, dr in HEX_DIRS:
            nb = (q + dq, r + dr)
            if coloring.get(nb) == WHITE:
                coloring[nb] = PINK
    return coloring


def census_fractions_oracle(net, kind, d, coloring, depth=2):
    interior = interior_cells(net, depth)
    limits = fraction_limits(kind, d)
    counts = Counter(coloring[c] for c in interior)
    return [(color, counts[color], Fraction(counts[color], len(interior))) for color in sorted(limits)]


@pytest.mark.parametrize("radius", [9, 10, 11, 12, 13, 14, 30])
def test_colour_codes_match_dict_oracles(radius):
    net = build_network(radius)
    cases = [(partition_two(net), "two", None, partition_two_oracle(net))]
    for d in (2, 3, 4):
        if radius < 3 * d:
            with pytest.raises(ValueError):
                partition_four(net, d)
            continue
        cases.append((partition_four(net, d), "four", d, partition_four_oracle(net, d)))
    for part, kind, d, want in cases:
        assert (part.kind, part.d) == (kind, d)
        assert len(part.coloring) == len(want)
        for cell, color in want.items():
            assert part.coloring[cell] == color, (kind, d, cell)
        assert dict(part.coloring.items()) == want
        assert part.census == dict(Counter(want.values()))
        for depth in (2, 3):
            rows = census_fractions(net, part, depth)
            assert [(row.color, row.count, row.fraction) for row in rows] == census_fractions_oracle(
                net, kind, d, want, depth
            )
    assert (radius + 1, 0) not in part.coloring
    with pytest.raises(KeyError):
        part.coloring[(0, 0, 0)]


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
    interior = interior_cells(net)
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
    interior = interior_cells(net, depth=2)
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
