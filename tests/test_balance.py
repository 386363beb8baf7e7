import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    brute_balance_worst,
    brute_eps_star,
    brute_rainbow_worst_tuples,
    rect_census,
)

from kextract import balance
from kextract.calibration import IP4_EPS_STAR, IP4_WORST_CELLS
from kextract.balance import (
    FeasibilityError,
    RainbowSide,
    Rectangle,
    balance_check_almost,
    measure_eps_star,
    rainbow_check,
    search_rainbow,
)
from kextract.tables import (
    TwoSourceTable,
    gen_constant,
    gen_gf2_mult,
    gen_inner_product,
    gen_random,
)

SMALL_TABLES = [
    gen_inner_product(2),
    gen_gf2_mult(2, 2),
    gen_random(2, 1, 11),
    gen_random(2, 2, 12),
    gen_constant(2, 2, 3),
]


# ------------------------------------------------- almost-balance sweep


def test_worst_cells_match_brute_force():
    for table in SMALL_TABLES:
        for k in (0, 1):
            for u_size in (1, 2):
                rep = balance_check_almost(table, k, 0, 0.0, u_size)
                assert rep.worst_cells == brute_balance_worst(table, k, u_size)


def test_witness_reconstructs():
    rep = balance_check_almost(gen_random(3, 2, 5), k=2, d=0, eps=0.0, u_size=2)
    counts = rect_census(
        gen_random(3, 2, 5).colors,
        rep.worst_rectangle.rows,
        rep.worst_rectangle.cols,
        4,
    )
    assert sum(counts[z] for z in rep.worst_colors) == rep.worst_cells
    assert len(rep.worst_rectangle.rows) == len(rep.worst_rectangle.cols) == 4
    assert rep.rectangle_pairs == 70 * 70


@pytest.mark.parametrize(
    "table, u_size, cells, rows, cols, colors",
    [
        (gen_random(3, 2, 5), 1, 13, (0, 2, 4, 5), (0, 2, 5, 7), (3,)),
        (gen_random(3, 2, 5), 2, 16, (2, 3, 4, 5), (0, 1, 2, 5), (2, 3)),
        (gen_inner_product(3), 1, 13, (0, 1, 2, 4), (0, 1, 2, 4), (0,)),
        (gen_inner_product(3), 2, 16, (0, 1, 2, 3), (0, 1, 2, 3), (0, 1)),
        # 1820 row sets: one block at m=1, two at m=2; the first three
        # witnesses move if the block size halves or doubles
        (gen_random(4, 1, 0), 1, 16, (7, 9, 10, 14), (0, 3, 13, 15), (1,)),
        (gen_random(4, 2, 8), 1, 14, (2, 5, 13, 15), (3, 5, 7, 13), (0,)),
        (gen_random(4, 2, 6), 1, 13, (1, 5, 7, 12), (1, 6, 11, 14), (0,)),
        (gen_random(4, 2, 1), 1, 13, (0, 1, 5, 13), (1, 4, 6, 10), (1,)),
        (gen_random(4, 2, 1), 3, 16, (0, 5, 7, 14), (0, 1, 2, 3), (1, 2, 3)),
    ],
)
def test_almost_witness_tie_break(table, u_size, cells, rows, cols, colors):
    """The witness is the first maximum in row-block order, b2-major
    within a block; changing either order moves some of these values."""
    rep = balance_check_almost(table, k=2, d=0, eps=0.0, u_size=u_size)
    assert rep.worst_cells == cells
    assert rep.worst_rectangle == Rectangle(rows, cols)
    assert rep.worst_colors == colors


def test_pass_fail_threshold():
    # constant table: every cell has color 3, any rectangle is 100% one set
    rep = balance_check_almost(gen_constant(2, 2, 3), 1, 0, 0.0, 1)
    assert not rep.passed
    assert rep.worst_fraction == 1.0
    assert rep.worst_colors == (3,)
    # bound 1/4 + d=2 slack covers everything
    assert balance_check_almost(gen_constant(2, 2, 3), 1, 2, 0.0, 1).passed


def test_inner_product_n4_fixture():
    rep = balance_check_almost(gen_inner_product(4), k=3, d=0, eps=0.25, u_size=1)
    assert rep.passed
    assert rep.worst_cells == 44
    assert rep.worst_fraction == 44 / 64
    assert rep.bound == 0.75


def test_balance_validation():
    t = gen_random(2, 1, 1)
    with pytest.raises(ValueError):
        balance_check_almost(t, 3, 0, 0.0, 1)
    with pytest.raises(ValueError):
        balance_check_almost(t, 1, 0, 0.0, 0)
    with pytest.raises(ValueError):
        balance_check_almost(t, 1, 0, 0.0, 3)
    with pytest.raises(ValueError):
        balance_check_almost(t, 1, 0, -0.1, 1)
    with pytest.raises(ValueError):
        balance_check_almost(t, 1, -1, 0.0, 1)


# ------------------------------------------------------------ eps-star


def test_eps_star_matches_brute_force():
    for table in SMALL_TABLES:
        for k in (0, 1):
            for d in (0, 1):
                got = measure_eps_star(table, k, d)
                assert got == pytest.approx(brute_eps_star(table, k, d), abs=1e-12)


def test_eps_star_inner_product_n4():
    assert measure_eps_star(gen_inner_product(4), 3, 0) == 0.1875


def test_eps_star_monotone_in_d():
    table = gen_random(3, 2, 9)
    values = [measure_eps_star(table, 2, d) for d in range(4)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] == 0.0  # d > m is vacuous


def test_eps_star_edges():
    t = gen_random(2, 2, 3)
    assert measure_eps_star(t, 1, 3) == 0.0
    with pytest.raises(ValueError):
        measure_eps_star(t, 1, -1)
    with pytest.raises(ValueError):
        measure_eps_star(t, 3, 0)
    # full-table "rectangle" of a constant table concentrates everything
    assert measure_eps_star(gen_constant(2, 1, 0), 2, 0) == 0.5


# ---------------------------------------------------------- guard rail


def test_feasibility_guard(monkeypatch):
    table = gen_random(2, 1, 2)
    monkeypatch.setattr(balance, "OPS_LIMIT", 10)
    with pytest.raises(FeasibilityError):
        balance_check_almost(table, 1, 0, 0.0, 1)
    with pytest.raises(FeasibilityError):
        measure_eps_star(table, 1, 0)
    with pytest.raises(FeasibilityError):
        rainbow_check(table, 2, 2)
    # override runs the sweep anyway
    rep = balance_check_almost(table, 1, 0, 0.0, 1, override=True)
    assert rep.worst_cells == brute_balance_worst(table, 1, 1)


def test_feasibility_guard_real_size():
    with pytest.raises(FeasibilityError):
        balance_check_almost(gen_random(5, 2, 1), 4, 0, 0.0, 1)


def test_guard_prices_the_decomposed_sweep(monkeypatch):
    # ip4 at k=3 has 12,870 row sets and 2 colors: the decomposed sweeps
    # cost 12870 * 16 * 2 * (16 + #color sets) < 1e7 ops, the full sweep
    # 12870^2 * 2 > 3e8
    monkeypatch.setattr(balance, "OPS_LIMIT", 10**8)
    table = gen_inner_product(4)
    assert balance_check_almost(table, 3, 0, 0.25, 1).worst_cells == IP4_WORST_CELLS
    assert measure_eps_star(table, 3, 0) == IP4_EPS_STAR


def test_guard_refuses_n5_decomposed_sweeps():
    # C(32, 8) * 32 * 2 * (32 + 2) is about 2.3e10 ops; the guard must
    # refuse before the 10.5M-row subset matrix is built
    table = gen_inner_product(5)
    with pytest.raises(FeasibilityError):
        balance_check_almost(table, 3, 0, 0.0, 1)
    with pytest.raises(FeasibilityError):
        measure_eps_star(table, 3, 0)


def test_decomposed_only_when_color_sets_are_fewer():
    assert balance._plan(1820, 1819, 16, 16, override=False)
    assert not balance._plan(1820, 1820, 16, 16, override=False)


# ------------------------------------------- decomposed vs full sweep


@pytest.mark.parametrize(
    "table, k",
    [
        pytest.param(gen_inner_product(3), 1, id="ip3-k1"),
        pytest.param(gen_inner_product(3), 2, id="ip3-k2"),
        pytest.param(gen_gf2_mult(3, 3), 2, id="gf3-k2"),
        pytest.param(gen_random(3, 2, 5), 1, id="rnd3m2-k1"),
        pytest.param(gen_random(3, 3, 4), 2, id="rnd3m3-k2"),
        pytest.param(gen_constant(3, 2, 1), 2, id="const3-k2"),
        pytest.param(gen_inner_product(4), 2, id="ip4-k2"),
        pytest.param(gen_random(4, 1, 0), 2, id="rnd4m1-k2"),
        pytest.param(gen_random(4, 2, 1), 2, id="rnd4m2-k2"),
        pytest.param(gen_random(4, 3, 6), 2, id="rnd4m3-k2"),
    ],
)
def test_decomposed_sweeps_equal_full_sweeps(table, k):
    for u_size in range(1, table.num_colors + 1):
        decomposed = balance._check_almost(table, k, 0, 0.0, u_size, decomposed=True)
        full = balance._check_almost(table, k, 0, 0.0, u_size, decomposed=False)
        assert decomposed == full
    for d in range(table.m + 2):
        assert balance._eps_star(table, k, d, decomposed=True) == balance._eps_star(
            table, k, d, decomposed=False
        )


# -------------------------------------------------------------- rainbow


def test_rainbow_matches_brute_tuples():
    for m in (1, 2):
        table = gen_random(2, m, 31 + m)
        for rect_side in (1, 2, 3):
            for divisor in (1, 2, 3, 4):
                if divisor > table.num_colors * rect_side:
                    continue
                rep = rainbow_check(table, rect_side, divisor)
                worst = max(rep.per_column.worst_cells, rep.per_row.worst_cells)
                assert worst == brute_rainbow_worst_tuples(
                    table.transposed(), rect_side, divisor
                ) or worst == brute_rainbow_worst_tuples(table, rect_side, divisor)
                # each orientation against its own brute answer
                assert rep.per_column.worst_cells == brute_rainbow_worst_tuples(
                    table, rect_side, divisor
                )
                assert rep.per_row.worst_cells == brute_rainbow_worst_tuples(
                    table.transposed(), rect_side, divisor
                )


def test_rainbow_divisor_one_always_passes():
    # set_size = 2^m covers every color, bound 2/1 is vacuous
    for table in SMALL_TABLES:
        rep = rainbow_check(table, 2, 1)
        assert rep.passed
        assert rep.per_column.worst_cells == 4


def test_rainbow_constant_table_fails():
    rep = rainbow_check(gen_constant(2, 2, 1), 2, 4)
    assert not rep.passed
    assert rep.per_column.worst_cells == 4  # every cell properly colored
    assert all(s == (1,) for s in rep.per_column.color_sets)


def test_rainbow_witness_reconstructs():
    table = gen_random(3, 2, 77)
    rep = rainbow_check(table, 3, 2)
    side = rep.per_column
    total = 0
    for v, colors in zip(side.rectangle.cols, side.color_sets):
        for u in side.rectangle.rows:
            total += int(table.colors[u, v]) in colors
    assert total == side.worst_cells
    assert all(len(s) == rep.set_size for s in side.color_sets)


def test_rainbow_witness_tie_break():
    rep = rainbow_check(gen_random(3, 2, 77), 3, 2)
    assert rep.per_column == RainbowSide(
        passed=True,
        worst_cells=9,
        rectangle=Rectangle((0, 1, 2), (0, 1, 4)),
        color_sets=((0, 1), (0, 1), (1, 3)),
    )
    assert rep.per_row == RainbowSide(
        passed=True,
        worst_cells=9,
        rectangle=Rectangle((0, 1, 2), (0, 1, 3)),
        color_sets=((0, 1), (0, 1), (0, 3)),
    )


def test_rainbow_orientation_flip():
    table = gen_random(3, 2, 13)
    rep = rainbow_check(table, 2, 3)
    flipped = rainbow_check(table.transposed(), 2, 3)
    assert rep.per_column.worst_cells == flipped.per_row.worst_cells
    assert rep.per_row.worst_cells == flipped.per_column.worst_cells
    assert rep.passed == flipped.passed


def test_rainbow_random_n4_fixture():
    table = gen_random(4, 4, 1)
    good = rainbow_check(table, 4, 2)
    assert good.passed
    assert good.set_size == 8
    assert good.per_column.worst_cells == 16
    assert good.per_row.worst_cells == 16
    bad = rainbow_check(table, 4, 4)
    assert not bad.passed
    assert bad.per_column.worst_cells == 16


def test_rainbow_validation():
    t = gen_random(2, 1, 1)
    with pytest.raises(ValueError):
        rainbow_check(t, 0, 1)
    with pytest.raises(ValueError):
        rainbow_check(t, 5, 1)
    with pytest.raises(ValueError):
        rainbow_check(t, 2, 0)
    with pytest.raises(ValueError):
        rainbow_check(t, 2, 5)


# --------------------------------------------------------------- search


def test_search_rainbow_found():
    res = search_rainbow(4, 2, 8, 2, seed=1, max_trials=4)
    assert res.found and not res.exhausted
    assert res.trials == 1
    assert res.seed == 1
    assert res.report.passed
    assert (res.table.colors == gen_random(4, 2, 1).colors).all()


def test_search_rainbow_deterministic():
    a = search_rainbow(3, 2, 4, 2, seed=9, max_trials=8)
    b = search_rainbow(3, 2, 4, 2, seed=9, max_trials=8)
    assert a.found == b.found and a.trials == b.trials and a.seed == b.seed


def test_search_rainbow_exhausted():
    # a 1x1 rectangle is always monochromatic: 1 * 4 > 2 for every table
    res = search_rainbow(2, 2, 1, 4, seed=0, max_trials=5)
    assert res.exhausted
    assert res.trials == 5
    assert res.seed is None and res.table is None and res.report is None
    with pytest.raises(ValueError):
        search_rainbow(2, 2, 1, 4, seed=0, max_trials=0)


# ----------------------------------------------------- property checks

# Rainbow's tuple brute force costs C(2^m, set_size)^side assignments per
# rectangle; (side, divisor) pairs above this many assignments in total
# (only reachable at n=2, m=3) are left to the fixed cases above.
RAINBOW_BRUTE_BUDGET = 20_000


@st.composite
def small_tables(draw):
    n = draw(st.integers(0, 2))
    m = draw(st.integers(0, 3))
    side = 1 << n
    cells = draw(
        st.lists(st.integers(0, (1 << m) - 1), min_size=side * side, max_size=side * side)
    )
    return TwoSourceTable(n, m, np.array(cells).reshape(side, side))


def _rainbow_pairs(table):
    pairs = []
    for rect_side in range(1, table.side + 1):
        for divisor in range(1, table.num_colors * rect_side + 1):
            set_size = max(1, table.num_colors // divisor)
            cost = (
                math.comb(table.num_colors, set_size) ** rect_side
                * math.comb(table.side, rect_side) ** 2
            )
            if cost <= RAINBOW_BRUTE_BUDGET:
                pairs.append((rect_side, divisor))
    return pairs


@settings(max_examples=150, deadline=None)
@given(small_tables(), st.data())
def test_sweeps_match_brute_force_on_random_tables(table, data):
    k = data.draw(st.integers(0, table.n), label="k")
    u_size = data.draw(st.integers(1, table.num_colors), label="u_size")
    d = data.draw(st.integers(0, table.m + 1), label="d")
    rep = balance_check_almost(table, k, d, 0.0, u_size)
    assert rep == balance._check_almost(table, k, d, 0.0, u_size, decomposed=False)
    assert rep.worst_cells == brute_balance_worst(table, k, u_size)
    counts = rect_census(
        table.colors, rep.worst_rectangle.rows, rep.worst_rectangle.cols, table.num_colors
    )
    assert sum(counts[z] for z in rep.worst_colors) == rep.worst_cells
    got = measure_eps_star(table, k, d)
    assert got == balance._eps_star(table, k, d, decomposed=False)
    assert got == pytest.approx(brute_eps_star(table, k, d), abs=1e-12)

    rect_side, divisor = data.draw(st.sampled_from(_rainbow_pairs(table)), label="rainbow")
    rb = rainbow_check(table, rect_side, divisor)
    for oriented, one_side in ((table, rb.per_column), (table.transposed(), rb.per_row)):
        assert one_side.worst_cells == brute_rainbow_worst_tuples(oriented, rect_side, divisor)
