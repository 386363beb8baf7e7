import math
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    brute_almost_witness,
    brute_balance_worst,
    brute_eps_star,
    brute_rainbow_worst_tuples,
    dense_full_sweep,
    rect_census,
)

from kextract import balance
from kextract.calibration import (
    IP4_EPS_STAR,
    IP4_WORST_CELLS,
    SEPARATION_EPS_STAR,
    SEPARATION_M,
    SEPARATION_SEED,
)
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


def _almost_full(table, k, u_size):
    """The census form _num_planes gives almost balance's full sweep."""
    planes = max(1, 4**k // (u_size + 1))
    return "planes" if balance._num_planes(table.num_colors, planes) else "one-hot"


def _eps_cap(k, m, d):
    """eps*'s counts are capped at min(max(1, t), 4^k), t = 2^(2k + d - m)."""
    return min(max(1, 2 ** (2 * k + d - m)), 4**k)


def _eps_planes(table, k, d):
    """Whether _num_planes puts eps*'s full sweep on planes."""
    return bool(balance._num_planes(table.num_colors, _eps_cap(k, table.m, d)))


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


def test_color_63_bitset_eps_star():
    # all 64 colors, with color 63 (bit 63 of the mask) filling the 4 x 4
    # corner: a mask that loses bit 63 counts 0 colors there, not 1
    colors = np.arange(64).reshape(8, 8)
    colors[:4, :4] = 63
    table = TwoSourceTable(3, 6, colors)
    checked = 0
    for k in range(4):
        for d in range(6 - 2 * k + 1):
            got = balance._eps_star(table, k, d, sweep="planes")
            assert got == balance._eps_star(table, k, d, sweep="one-hot")
            assert got == measure_eps_star(table, k, d)
            assert got == pytest.approx(brute_eps_star(table, k, d), abs=1e-12)
            checked += 1
    assert checked == 16
    assert measure_eps_star(table, 2, 0) == 1 - 0.25 / 16


def test_counts_past_int16():
    # one 256 x 256 rectangle: 65,536 cells of one color, which an int16
    # top-u reduction would wrap to 0
    table = gen_constant(8, 2, 3)
    rep = balance_check_almost(table, 8, 0, 0.0, 1)
    assert rep.worst_cells == 65_536
    assert rep.worst_colors == (3,)
    assert rep.worst_fraction == 1.0
    # t = 65,536 / 4 caps the one-hot counts on the integer subset tree,
    # far past the 4 planes
    assert measure_eps_star(table, 8, 0) == 0.75
    assert measure_eps_star(table, 8, 1) == 0.5


def test_counts_past_int8():
    # one 16 x 16 rectangle: 256 cells of one color, past int8's 127
    table = gen_constant(4, 2, 1)
    rep = balance_check_almost(table, 4, 0, 0.0, 1)
    assert rep.worst_cells == 256
    assert rep.worst_colors == (1,)
    assert balance._check_almost(table, 4, 0, 0.0, 1, sweep="decomposed") == rep
    # eps* reads the decomposed sweep's top-u sums directly: (256 - 64) / 256
    for sweep in ("one-hot", "decomposed"):
        assert balance._eps_star(table, 4, 0, sweep) == 0.75
    # one row set of all 128 rows: every column counts 128 cells of the
    # table's color, and the best 128 columns hold 16,384
    rb = rainbow_check(gen_constant(7, 1, 1), 128, 1)
    for one_side in (rb.per_column, rb.per_row):
        assert one_side.worst_cells == 128 * 128
        assert one_side.rectangle == Rectangle(tuple(range(128)), tuple(range(128)))
        assert one_side.color_sets == ((0, 1),) * 128
    assert rb.passed


def test_rank_and_unrank_follow_combinations():
    for side in range(1, 11):
        for size in range(side + 1):
            subsets = list(combinations(range(side), size))
            members = balance._unrank(side, size, np.arange(len(subsets)))
            assert members.shape == (len(subsets), size)
            assert [tuple(row) for row in members.tolist()] == subsets
            assert [tuple(balance._unrank(side, size, r).tolist())
                    for r in (0, len(subsets) - 1)] == [subsets[0], subsets[-1]]
            masks = np.zeros((len(subsets), side), dtype=bool)
            for i, sub in enumerate(subsets):
                masks[i, list(sub)] = True
            assert balance._rank(masks, size).tolist() == list(range(len(subsets)))


@pytest.mark.parametrize("side, size", [(64, 3), (32, 8), (256, 2)])
def test_rank_inverts_unrank(side, size):
    count = math.comb(side, size)
    ranks = np.unique(np.r_[0, 1, count - 2, count - 1,
                            np.random.default_rng(side).integers(0, count, 500)])
    members = balance._unrank(side, size, ranks)
    assert (np.diff(members, axis=1) > 0).all()
    masks = np.zeros((len(ranks), side), dtype=bool)
    np.put_along_axis(masks, members, True, axis=1)
    assert (balance._rank(masks, size) == ranks).all()


@pytest.mark.parametrize("items, size", [(1, 1), (4, 0), (5, 5), (16, 4), (16, 8), (256, 256)])
def test_subset_tree_follows_combinations(items, size):
    """For every chunk width, including one wider than the whole output,
    no chunk holds more than width subsets and the chunks concatenate to
    the same result."""
    rng = np.random.default_rng(items * 31 + size)
    counts = rng.integers(0, 100, (2, items, 3))
    masks = rng.integers(0, 1 << 62, (1, items, 2)).astype(np.uint64)
    for width in (None, 1, 3, math.comb(items, size) + 5):
        for arr, op in ((counts, np.add), (masks, np.bitwise_or)):
            chunks = [c.copy() for c in balance._subset_tree(arr, size, op, width)]
            got = np.concatenate(chunks, axis=1)
            want = [op.reduce(arr[:, list(sub)], axis=1)
                    for sub in combinations(range(items), size)]
            assert got.dtype == arr.dtype
            assert np.array_equal(got, np.stack(want, axis=1))
            if width is not None:
                assert all(1 <= c.shape[1] <= width for c in chunks)


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


def test_guard_prices_the_bitset_sweep(monkeypatch):
    # the seed-740 m=6 table at k=3: the full census would cost
    # 12,870^2 * 64 ~ 1.06e10 ops, past OPS_LIMIT; t = 1 puts eps* on one
    # plane first, priced at (12,870 + 16) * 24,300 ~ 3.13e8 ORs
    table = gen_random(4, SEPARATION_M, SEPARATION_SEED)
    assert measure_eps_star(table, 3, 0) == SEPARATION_EPS_STAR
    monkeypatch.setattr(balance, "OPS_LIMIT", 10**8)
    with pytest.raises(FeasibilityError):
        measure_eps_star(table, 3, 0)


@pytest.mark.parametrize("n, k", [(2, 0), (2, 1), (3, 2), (3, 3), (4, 2)])
def test_bitset_guard_prices_the_ors_the_trees_write(monkeypatch, n, k):
    """One OR tree over rows, then one over columns per row set: the
    guard's estimate is every element the dense sweep's trees write. The
    branch and bound writes no more, its extensions included."""
    priced, written = [], []
    full = balance._full

    def counted(x, y, out):
        written[-1] += out.size
        return np.bitwise_or(x, y, out=out)

    monkeypatch.setattr(balance, "_saturating_add", lambda planes: counted)
    monkeypatch.setattr(balance, "_guard", lambda ops, override: priced.append(ops))
    table = gen_random(n, 6, 1)
    results = []
    for dense in (True, False):
        written.append(0)
        with mock.patch.object(
            balance, "_full",
            lambda *args, slack: full(*args, slack=None if dense else slack),
        ):
            results.append(measure_eps_star(table, k, 0))
    assert results[0] == results[1]
    assert priced[0] == priced[1] == written[0]
    assert written[1] <= written[0]


def test_guard_refuses_n5_decomposed_sweeps():
    # C(32, 8) * 32 * 2 * (32 + 2) is about 2.3e10 ops; the guard must
    # refuse before the 10.5M-row subset matrix is built
    table = gen_inner_product(5)
    with pytest.raises(FeasibilityError):
        balance_check_almost(table, 3, 0, 0.0, 1)
    with pytest.raises(FeasibilityError):
        measure_eps_star(table, 3, 0)


def test_rainbow_guard_prices_the_strip_products(monkeypatch):
    # n=6, m=2, K=3: each orientation multiplies C(64, 3) row sets by a
    # 64 x (64 * 4) one-hot expansion, about 1.4e9 ops over both; the
    # estimate must not drop the factor 2^n (2.1e7)
    monkeypatch.setattr(balance, "OPS_LIMIT", 10**8)
    with pytest.raises(FeasibilityError):
        rainbow_check(gen_random(6, 2, 1), 3, 2)


def test_decomposed_only_when_color_sets_are_fewer():
    # C(16, 4) = 1,820 row sets
    assert balance._plan(16, 4, 16, 1819, 4, override=False) == "decomposed"
    assert balance._plan(16, 4, 16, 1820, 4, override=False) == "planes"
    assert balance._plan(16, 4, 16, 1820, 0, override=False) == "one-hot"
    # eps*'s single plane runs first; more planes keep the order
    assert balance._plan(16, 4, 16, 1819, 1, False, one_plane_first=True) == "planes"
    assert balance._plan(16, 4, 16, 1819, 2, False, one_plane_first=True) == "decomposed"


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
        decomposed = balance._check_almost(table, k, 0, 0.0, u_size, sweep="decomposed")
        full = balance._check_almost(table, k, 0, 0.0, u_size, _almost_full(table, k, u_size))
        assert decomposed == full
    for d in range(table.m + 2):
        full = balance._eps_star(table, k, d, sweep="one-hot")
        assert balance._eps_star(table, k, d, sweep="decomposed") == full
        if _eps_planes(table, k, d):
            assert balance._eps_star(table, k, d, sweep="planes") == full


def _witness(table, k, u_size, block):
    """brute_almost_witness in the shape of a BalanceReport's fields."""
    cells, rows, cols, colors = brute_almost_witness(table, k, u_size, block)
    return cells, Rectangle(rows, cols), colors


def _report_witness(rep):
    return rep.worst_cells, rep.worst_rectangle, rep.worst_colors


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_decomposed_witness_with_small_blocks(monkeypatch, block):
    """Logical blocks of a few row sets put the first maximum at any place
    in its block, so a witness block one row set off moves it; both
    sweeps must find the reference's witness. On the constant table and
    the two-color one (colors 0 and 3 by column parity) every row set
    ties, and so do the color sets of the latter."""
    monkeypatch.setattr(balance, "_block_size", lambda row_cost, values=0: block)
    parity = TwoSourceTable(3, 2, np.tile(3 * (np.arange(8) % 2), (8, 1)))
    for table in (gen_inner_product(3), gen_random(3, 2, 5), gen_gf2_mult(3, 3),
                  gen_constant(3, 2, 1), parity):
        for u_size in sorted({1, 2, table.num_colors}):
            want = _witness(table, 2, u_size, block)
            for sweep in (_almost_full(table, 2, u_size), "decomposed"):
                rep = balance._check_almost(table, 2, 0, 0.0, u_size, sweep)
                assert _report_witness(rep) == want


def test_ip4_witness_on_the_decomposed_sweep():
    rep = balance._check_almost(gen_inner_product(4), 3, 0, 0.0, 1, "decomposed")
    members = (0, 1, 2, 3, 4, 5, 8, 10)
    assert _report_witness(rep) == (44, Rectangle(members, members), (0,))


@st.composite
def witness_tables(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    side = 1 << n
    palette = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=4))
    cells = draw(
        st.lists(st.sampled_from(palette), min_size=side * side, max_size=side * side)
    )
    return TwoSourceTable(n, m, np.array(cells).reshape(side, side))


@settings(max_examples=40, deadline=None)
@given(witness_tables(), st.data())
def test_witness_does_not_depend_on_the_physical_block(table, data):
    """The logical block (_block_size's default budget) defines the
    witness; the sweeps' own blocks (other budgets) are free."""
    k = data.draw(st.integers(1, min(2, table.n)), label="k")
    u_size = data.draw(st.integers(1, table.num_colors), label="u_size")
    logical = data.draw(st.integers(1, 9), label="logical")
    physical = data.draw(st.integers(1, 9), label="physical")

    def block_size(row_cost, values=1 << 23):
        return logical if values == 1 << 23 else physical

    want = _witness(table, k, u_size, logical)
    with mock.patch.object(balance, "_block_size", block_size):
        for sweep in (_almost_full(table, k, u_size), "decomposed"):
            rep = balance._check_almost(table, k, 0, 0.0, u_size, sweep)
            assert _report_witness(rep) == want


@pytest.mark.parametrize(
    "table, k",
    [
        pytest.param(gen_random(3, 2, 21), 3, id="n3-k3"),
        pytest.param(gen_random(3, 2, 21), 2, id="n3-k2"),
        pytest.param(gen_random(4, 1, 22), 4, id="n4-k4"),
        pytest.param(gen_random(4, 1, 22), 3, id="n4-k3"),
    ],
)
def test_sweeps_at_the_largest_rectangles(table, k):
    """k = n and k = n - 1: the column tree keeps only the subsets whose
    first item leaves room for the rest, which prunes most at these sizes.
    n4-k3 has 1.7e8 rectangles, past the brute force, so there the full
    and decomposed sweeps only meet each other."""
    side, rect = table.side, 1 << k
    brute = math.comb(side, rect) <= 70
    block = balance._block_size(math.comb(side, rect) * table.num_colors)
    for u_size in range(1, table.num_colors + 1):
        full = balance._check_almost(table, k, 0, 0.0, u_size, _almost_full(table, k, u_size))
        assert balance._check_almost(table, k, 0, 0.0, u_size, sweep="decomposed") == full
        if brute:
            assert _report_witness(full) == _witness(table, k, u_size, block)
    for d in range(table.m + 1):
        full = balance._eps_star(table, k, d, sweep="one-hot")
        assert balance._eps_star(table, k, d, sweep="decomposed") == full
        if _eps_planes(table, k, d):
            assert balance._eps_star(table, k, d, sweep="planes") == full
        if brute:
            assert full == pytest.approx(brute_eps_star(table, k, d), abs=1e-12)


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
    assert rep == balance._check_almost(table, k, d, 0.0, u_size, _almost_full(table, k, u_size))
    assert rep.worst_cells == brute_balance_worst(table, k, u_size)
    counts = rect_census(
        table.colors, rep.worst_rectangle.rows, rep.worst_rectangle.cols, table.num_colors
    )
    assert sum(counts[z] for z in rep.worst_colors) == rep.worst_cells
    got = measure_eps_star(table, k, d)
    assert got == pytest.approx(brute_eps_star(table, k, d), abs=1e-12)
    # the decomposed sweep tries color sets of at most 4^k // (floor(t) + 1)
    # colors; the other sweeps need no such argument
    for sweep in ("one-hot", "decomposed"):
        assert got == balance._eps_star(table, k, d, sweep)

    rect_side, divisor = data.draw(st.sampled_from(_rainbow_pairs(table)), label="rainbow")
    rb = rainbow_check(table, rect_side, divisor)
    for oriented, one_side in ((table, rb.per_column), (table.transposed(), rb.per_row)):
        assert one_side.worst_cells == brute_rainbow_worst_tuples(oriented, rect_side, divisor)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_top_sum_matches_sort(data):
    dtype = data.draw(st.sampled_from([np.int8, np.int16, np.float64]), label="dtype")
    length = data.draw(st.integers(1, 70), label="length")
    size = data.draw(st.integers(1, length + 3), label="size")
    trailing = data.draw(st.sampled_from([(), (1,), (3,), (2, 5)]), label="trailing")
    # entries small enough that no sum of them wraps an integer dtype;
    # float entries are quarters, so every sum is exact in any order
    bound = {np.int8: 127, np.int16: 32_767, np.float64: 4_000}[dtype] // length
    palette = data.draw(
        st.lists(st.integers(-bound, bound), min_size=1, max_size=6), label="palette"
    )
    count = length * math.prod(trailing)
    values = data.draw(st.lists(st.sampled_from(palette), min_size=count, max_size=count))
    arr = np.array(values, dtype=dtype).reshape(length, *trailing)
    if dtype is np.float64:
        arr /= 4
    got = balance._top_sum(arr, size)
    assert got.dtype == arr.dtype
    assert np.array_equal(got, np.sort(arr, axis=0)[-size:].sum(axis=0))


@st.composite
def many_color_tables(draw):
    """n <= 3 with 16 to 64 colors, cells drawn from a small palette so
    that rectangles repeat colors."""
    n = draw(st.integers(0, 3))
    m = draw(st.sampled_from([4, 5, 6]))
    side = 1 << n
    palette = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=6))
    cells = draw(
        st.lists(st.sampled_from(palette), min_size=side * side, max_size=side * side)
    )
    return TwoSourceTable(n, m, np.array(cells).reshape(side, side))


@settings(max_examples=60, deadline=None)
@given(many_color_tables(), st.data())
def test_eps_star_sweeps_match_brute_force_with_many_colors(table, data):
    """t = 2^(2k + d - m) in {<= 1, 2, 4}: the plane sweep, on one, two or
    four planes, equals the one-hot sweep and the brute force."""
    k = data.draw(st.integers(0, min(2, table.n)), label="k")
    d = data.draw(st.integers(0, min(table.m, table.m - 2 * k + 2)), label="d")
    assert _eps_cap(k, table.m, d) in (1, 2, 4)
    want = brute_eps_star(table, k, d)
    got = measure_eps_star(table, k, d)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == balance._eps_star(table, k, d, sweep="planes")
    assert got == balance._eps_star(table, k, d, sweep="one-hot")
    # 2^16 - 1 color sets: the decomposed sweep is quick only at n <= 2
    if table.m == 4 and table.n <= 2:
        assert got == balance._eps_star(table, k, d, sweep="decomposed")


@st.composite
def constant_tables(draw):
    n = draw(st.integers(0, 3))
    m = draw(st.integers(0, 6))
    color = draw(st.integers(0, (1 << m) - 1))
    return gen_constant(n, m, color)


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(small_tables(), many_color_tables(), witness_tables(), constant_tables()),
    st.data(),
)
def test_pruned_full_sweep_is_exact_at_the_maximum(table, data):
    """The branch and bound returns, per row set, the dense sweep's value
    wherever that is the maximum over all rectangles, and a value below
    the maximum everywhere else, for any physical block. Besides almost
    balance's top-u score (slack 2^k) it holds for the capped eps* score,
    which one more column can only lower (slack 0)."""
    k = data.draw(st.integers(0, table.n), label="k")
    rect = 1 << k
    physical = data.draw(st.integers(1, 9), label="physical")
    if data.draw(st.booleans(), label="top_u"):
        u_size = data.draw(st.integers(1, table.num_colors), label="u_size")

        def score(census):
            return balance._top_sum(census, u_size)

        slack = rect
    else:
        cap = data.draw(st.integers(1, rect * rect), label="cap")

        def score(census):
            return -np.minimum(census, cap).sum(axis=0, dtype=census.dtype)

        slack = 0
    items = balance._one_hot(table.colors, table.num_colors, balance._count_dtype(rect * rect))
    want = dense_full_sweep(items, rect, score)
    budgets = []

    def block_size(row_cost, values=1 << 23):
        budgets.append(values)
        return physical

    with mock.patch.object(balance, "_block_size", block_size):
        got = balance._full(items, rect, score, slack=slack)
    assert budgets and all(values != 1 << 23 for values in budgets)
    top = want.max()
    assert got.shape == want.shape
    assert got.max() == top
    assert np.array_equal(got == top, want == top)


def _striped_table():
    colors = np.zeros((8, 8), np.int64)
    colors[7, :5] = 1
    colors[6, 3:] = 2
    return TwoSourceTable(3, 4, colors)


@pytest.mark.parametrize("physical", [1, 2, 3, 70])
@pytest.mark.parametrize("table", [_striped_table(), gen_random(3, 2, 5)], ids=["striped", "rnd3m2"])
def test_pruned_full_sweep_keeps_ties_at_the_threshold(table, physical):
    """Many row sets reach the maximum only through a last column that
    adds its full 2^k cells, so a pair whose prefix score + slack equals
    the threshold must still be extended, in its block's first score
    level or a later one, and also in a later block."""
    items = balance._one_hot(table.colors, table.num_colors, np.int8)
    for u_size in (1, 2, 3):
        def score(census):
            return balance._top_sum(census, u_size)

        want = dense_full_sweep(items, 4, score)
        with mock.patch.object(balance, "_block_size", lambda row_cost, values=0: physical):
            got = balance._full(items, 4, score, slack=4)
        top = want.max()
        assert np.array_equal(got == top, want == top)
        assert got.max() == top


def test_pruned_full_sweep_scores_few_rectangles():
    """On a seeded m=6 table at k=2 the branch and bound scores each of
    the C(15, 3) prefixes once per row set, and extends to under a tenth
    of the rectangles the dense sweep scores; it still finds every
    maximal row set."""
    table = gen_random(4, 6, 3)
    items = balance._one_hot(table.colors, table.num_colors, np.int8)
    scored = {2: 0, 3: 0}  # extensions [M, E], prefixes and dense chunks [M, #B2, B]

    def top_cells(census):
        scored[census.ndim] += math.prod(census.shape[1:])
        return balance._top_sum(census, 4)

    got = balance._full(items, 4, top_cells, slack=4)
    assert scored[3] == 455 * 1820
    extended = scored[2]
    want = balance._full(items, 4, top_cells)
    assert scored[3] == 455 * 1820 + 1820 * 1820
    assert 10 * extended < 1820 * 1820
    assert got.max() == want.max()
    assert np.array_equal(got == want.max(), want == want.max())


def test_full_eps_star_with_a_cap_past_the_counts():
    """d > m makes t = 2^(2k + d - m) exceed every count; at k=3 t = 128
    no longer fits the int8 counts, which must not matter."""
    table = gen_random(3, 2, 5)
    assert balance._eps_star(table, 3, 3, "one-hot") == 0.0
    for d in range(table.m + 2):
        assert balance._eps_star(table, 3, d, "one-hot") == balance._eps_star(
            table, 3, d, "decomposed"
        )


@settings(max_examples=30, deadline=None)
@given(many_color_tables().filter(lambda table: table.n >= 1), st.data())
def test_eps_star_full_sweep_with_integer_t(table, data):
    """t = 2^(2k + d - m) > 1 and more color sets than row sets: eps* runs
    the full sweep with counts capped at t, on planes up to t = 4."""
    k = data.draw(st.integers(1, min(2, table.n)), label="k")
    d = data.draw(st.integers(max(0, table.m - 2 * k + 1), table.m), label="d")
    plans = []
    plan = balance._plan

    def spy(*args, **kwargs):
        plans.append(plan(*args, **kwargs))
        return plans[-1]

    with mock.patch.object(balance, "_plan", spy):
        got = measure_eps_star(table, k, d)
    assert plans == ["planes" if _eps_planes(table, k, d) else "one-hot"]
    assert got == pytest.approx(brute_eps_star(table, k, d), abs=1e-12)


# ---------------------------------------------------------- bit planes


def _encode(counts, planes, num_colors):
    """counts [M, ...] as bit planes [P, ...]: bit z of plane s is set
    when color z counts more than s."""
    dtype = balance._planes(np.zeros((1, 1), np.int64), num_colors, 1).dtype
    bits = np.left_shift(1, np.arange(num_colors, dtype=np.uint64)).astype(dtype)
    bits = bits.reshape(-1, *[1] * (counts.ndim - 1))
    return np.stack([
        np.bitwise_or.reduce(np.where(counts > s, bits, dtype.type(0)), axis=0)
        for s in range(planes)
    ])


def _decode(census, num_colors):
    z = np.arange(num_colors).reshape(-1, *[1] * (census.ndim - 1))
    return sum(((plane[None] >> z.astype(plane.dtype)) & 1).astype(np.int64) for plane in census)


def test_planes_hold_one_cell_each():
    colors = np.array([[0, 63], [5, 63]])
    items = balance._planes(colors, 64, 3)
    assert items.shape == (3, 2, 2) and items.dtype == np.uint64
    assert np.array_equal(_decode(items, 64), balance._one_hot(colors, 64, np.int64))
    for num_colors, dtype in ((1, np.uint8), (8, np.uint8), (16, np.uint16),
                              (32, np.uint32), (64, np.uint64)):
        assert balance._planes(colors % num_colors, num_colors, 1).dtype == dtype


@pytest.mark.parametrize("num_colors", [2, 8, 16, 32, 64])
@pytest.mark.parametrize("planes", [1, 2, 3, 4, 5])
def test_saturating_add_decodes_to_the_capped_sum(num_colors, planes):
    """Every pair of capped counts, with b broadcast along axis 1 as
    _subset_tree passes it, into a fresh out and into a itself."""
    rng = np.random.default_rng(num_colors * 10 + planes)
    a_counts = rng.integers(0, planes + 1, (num_colors, 3, 7))
    b_counts = rng.integers(0, planes + 1, (num_colors, 3, 1))
    a, b = _encode(a_counts, planes, num_colors), _encode(b_counts, planes, num_colors)
    want = np.minimum(a_counts + b_counts, planes)
    add = balance._saturating_add(planes)
    # axis 0 of the operands is planes x 3 lanes, as in the row tree
    flat = [x.reshape(planes * 3, *x.shape[2:]) for x in (a, b)]
    out = np.empty_like(flat[0])
    add(flat[0], flat[1], out=out)
    assert np.array_equal(_decode(out.reshape(a.shape), num_colors), want)
    add(flat[0], flat[1], out=flat[0])
    assert np.array_equal(_decode(a, num_colors), want)


@pytest.mark.parametrize("num_colors", [1, 2, 4, 16, 64])
def test_top_u_count_from_the_overflow(num_colors):
    """cells less the overflow of the min(count, P) planes is _top_sum's
    top-u count, P = max(1, cells // (u + 1)), for every cells <= 64,
    also where cells // (u + 1) is 0. Past u = 32 every such P is 1, so
    64 colors skip most u there."""
    rng = np.random.default_rng(num_colors)
    sizes = sorted({*range(1, min(num_colors, 33) + 1), num_colors - 1, num_colors} - {0})
    for cells in range(1, 65):
        # 60 censuses of cells each, many of them heaped on a few colors
        alpha = np.repeat([0.1, 1.0, 10.0], 20)[:, None] * np.ones(num_colors)
        counts = np.array([rng.multinomial(cells, rng.dirichlet(a)) for a in alpha]).T
        dtype = balance._count_dtype(cells)
        # plane s does not depend on how many planes follow it
        census = _encode(counts, cells, num_colors)
        for u_size in sizes:
            planes = max(1, cells // (u_size + 1))
            got = cells - balance._overflow(census[:planes], u_size, dtype)
            assert got.dtype == dtype
            assert np.array_equal(got, balance._top_sum(counts.astype(dtype), u_size))


def test_overflow_is_summed_in_the_count_dtype():
    """The overflow of five full planes, 320, needs int16; _check_almost
    sums it in _count_dtype(4^k) at every k."""
    full = np.full((5, 2), np.uint64(2**64 - 1))
    assert balance._overflow(full, 0, np.int16).tolist() == [320, 320]
    assert balance._overflow(full, 60, np.int8).tolist() == [20, 20]
    dtypes = []
    overflow = balance._overflow

    def spy(census, u_size, dtype):
        dtypes.append(dtype)
        return overflow(census, u_size, dtype)

    with mock.patch.object(balance, "_overflow", spy):
        for k in range(5):
            u_size = max(1, 4**k // 5)
            balance._check_almost(gen_random(k, 6, 1), k, 0, 0.0, u_size, "planes")
            assert dtypes and set(dtypes) == {balance._count_dtype(4**k)}
            dtypes.clear()


def test_planes_when_at_most_64_colors_and_4_planes():
    for num_colors in (1, 2, 16, 64, 65, 128):
        for planes in range(1, 9):
            want = planes if num_colors <= 64 and planes <= 4 else 0
            assert balance._num_planes(num_colors, planes) == want
    seen = []
    full = balance._full

    def spy(items, *args, **kwargs):
        seen.append((items.dtype.kind, len(items)))
        return full(items, *args, **kwargs)

    # the full sweeps at k=2: P = 16 // (u + 1) for almost balance, t for
    # eps*; an m=7 table has 128 colors
    m6, m1, m7 = gen_random(3, 6, 2), gen_random(2, 1, 2), gen_random(2, 7, 2)
    cases = [
        (lambda: balance_check_almost(m6, 2, 0, 0.0, 3), ("u", 4)),
        (lambda: balance_check_almost(m6, 2, 0, 0.0, 2), ("i", 64)),
        (lambda: balance_check_almost(m1, 2, 0, 0.0, 1), ("i", 2)),
        (lambda: balance_check_almost(m7, 2, 0, 0.0, 64), ("i", 128)),
        (lambda: measure_eps_star(m6, 2, 0), ("u", 1)),
        (lambda: measure_eps_star(m6, 2, 4), ("u", 4)),
        (lambda: measure_eps_star(m6, 2, 5), ("i", 64)),
        (lambda: measure_eps_star(m7, 2, 0), ("i", 128)),
    ]
    with mock.patch.object(balance, "_full", spy):
        for check, want in cases:
            check()
            assert seen.pop() == want


def _parent_plan(side, rect, num_colors, num_color_sets, distinct):
    """_plan as it was before eps*'s bitset sweep became its one plane:
    the sweep family and the estimate it guarded."""
    num_sets = math.comb(side, rect)
    if distinct:
        ors = math.comb(side + 1, rect) - side + rect - 2
        return "bitset", (num_sets + side) * ors
    if num_color_sets < num_sets:
        return "decomposed", num_sets * side * num_colors * (side + num_color_sets)
    return "full", num_sets * num_sets * num_colors


def test_plan_keeps_every_estimate_and_verdict(monkeypatch):
    """Every n <= 6, m <= 7, k, d <= m and u_size: each check plans the
    sweep and guards the estimate of the parent formulas. The bitset
    sweep is now the one plane, and a full sweep takes planes exactly when
    at most 64 colors need at most 4 of them."""
    priced = []
    monkeypatch.setattr(balance, "_guard", lambda ops, override: priced.append(ops))
    monkeypatch.setattr(balance, "_check_almost", lambda table, *args: args[-1])
    monkeypatch.setattr(balance, "_eps_star", lambda table, *args: args[-1])

    def named(family, num_colors, planes):
        if family == "full":
            return "planes" if num_colors <= 64 and planes <= 4 else "one-hot"
        return {"bitset": "planes"}.get(family, family)

    checked = 0
    for n in range(7):
        side = 1 << n
        for m in range(8):
            table = gen_constant(n, m, 0)
            num_colors = 1 << m
            for k in range(n + 1):
                rect, cells = 1 << k, 4**k
                for u_size in range(1, num_colors + 1):
                    family, ops = _parent_plan(
                        side, rect, num_colors, math.comb(num_colors, u_size), False
                    )
                    want = named(family, num_colors, max(1, cells // (u_size + 1)))
                    assert balance_check_almost(table, k, 0, 0.0, u_size) == want
                    assert priced.pop() == ops
                    checked += 1
                for d in range(m + 1):
                    family, ops = _parent_plan(
                        side, rect, num_colors, 2**num_colors - 1, 2 * k + d <= m <= 6
                    )
                    want = named(family, num_colors, 2 ** max(0, 2 * k + d - m))
                    assert measure_eps_star(table, k, d) == want
                    assert priced.pop() == ops
                    checked += 1
    # 28 (n, k) pairs
    assert checked == 28 * sum(2**m + m + 1 for m in range(8))


@st.composite
def two_color_tables(draw):
    n = draw(st.integers(0, 3))
    m = draw(st.integers(1, 6))
    pair = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=2, max_size=2, unique=True))
    side = 1 << n
    cells = draw(st.lists(st.sampled_from(pair), min_size=side * side, max_size=side * side))
    return TwoSourceTable(n, m, np.array(cells).reshape(side, side))


@settings(max_examples=120, deadline=None)
@given(st.one_of(many_color_tables(), constant_tables(), two_color_tables()), st.data())
def test_plane_sweep_reports_match_the_one_hot_sweep(table, data):
    """Wherever the full sweep takes the planes, its reports and witnesses
    are the one-hot sweep's, for any physical block."""
    num_colors = table.num_colors
    k = data.draw(
        st.integers(0, max(k for k in range(table.n + 1) if 4**k // 5 <= num_colors)),
        label="k",
    )
    cells = 4**k
    u_size = data.draw(st.integers(max(1, cells // 5), num_colors), label="u_size")
    assert balance._num_planes(num_colors, max(1, cells // (u_size + 1)))
    physical = data.draw(st.integers(1, 9), label="physical")
    logical = balance._block_size

    def block_size(row_cost, values=1 << 23):
        return logical(row_cost) if values == 1 << 23 else physical

    with mock.patch.object(balance, "_block_size", block_size):
        got = balance._check_almost(table, k, 0, 0.0, u_size, "planes")
        want = balance._check_almost(table, k, 0, 0.0, u_size, "one-hot")
    assert got == want
