"""Exhaustive rectangle balance verification for two-source tables.

Every check here is exact over all rectangles B1 x B2 with both sides of
a fixed size: almost balance, eps* and rainbow balance each maximize a
per-rectangle score. _per_row_set walks blocks of row sets B1; a one-hot
color expansion times a block of subset-indicator rows gives each row
set's strip (per-column color counts), strip[M, side, B]. Every array
keeps the color axis first and the row set last, so each top-u
(_top_sum, an insertion network of np.maximum/np.minimum passes)
combines whole slices instead of reducing millions of short rows.

- The full sweep builds every census [M, #B2, B] with one integer
  subset tree over columns (_subset_tree with np.add), a chunk at a
  time, reduces it to the top u_size colors or to the cells past a cap,
  and keeps each row set's best column set. No census is ever float32.
- The decomposed sweep fixes B1 and a color set U: the best B2 is then
  the 2^k columns with the most U-cells in the strip, so column sets are
  never enumerated. Almost balance tries the C(2^m, u_size) color sets;
  eps* the 2^M - 1 nonempty ones, because
  sum_z max(c_z - t, 0) = max(0, max_U sum_{z in U} c_z - |U| t).
  Rainbow is always scored this way, per column.
- The bitset sweep serves eps* when t <= 1 and M <= 64: the overshoot is
  then cells - t * (distinct colors in the rectangle). The same tree
  with np.bitwise_or over uint64 color bits gives one mask per row set
  and column, then per rectangle; its popcount counts the colors.

The bitset sweep runs whenever it applies; otherwise the decomposed
sweep runs when there are strictly fewer color sets than row sets, and
the full one when not. Both almost-balance sweeps share one witness
step. The witness is defined by logical blocks of
_block_size(#column sets x M) row sets: it is the first maximum in block
order, b2-major within a block. The step forms, with the same tree, the
censuses of the maximal row sets of the first logical block that holds
one. The full sweep's physical blocks are sized from the tree's working
set instead, and never move the witness.

All values are exact. Strip entries count rows of one row set, at most
2^n <= 4096, so their float32 products are exact. Censuses are summed in
the smallest of int8, int16 and int32 that holds the cell bound, 4^k for
almost balance and eps* and K^2 for rainbow, and no top-u or partial sum
exceeds it. The decomposed sweep's float32 color-set products count at
most 4^k <= 2^24 cells (n <= 12); its eps* subtracts |U| t in float64.

Work is estimated for the sweep that will run before anything is
allocated: rectangle pairs times colors for the full sweep (the tree
still forms #row sets^2 x M census entries), row sets times the strip
and color-set products for the decomposed one, row sets plus columns
times the ORs one tree forms for the bitset one, and both orientations'
strip products (row sets x 2^n x 2^n x M each) for rainbow. Runs past
OPS_LIMIT are refused unless explicitly overridden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Callable, Iterator, Optional

import numpy as np

from . import prng
from .tables import TwoSourceTable, gen_random

OPS_LIMIT = 10_000_000_000


class FeasibilityError(Exception):
    """Raised when an exhaustive sweep would exceed the op budget."""


def _guard(estimated: int, override: bool) -> None:
    if estimated > OPS_LIMIT and not override:
        raise FeasibilityError(
            f"estimated {estimated:.3e} primitive ops exceeds the "
            f"{OPS_LIMIT:.0e} limit; pass override/--override-feasibility "
            "to run anyway"
        )


@dataclass(frozen=True)
class Rectangle:
    rows: tuple[int, ...]
    cols: tuple[int, ...]


@dataclass(frozen=True)
class BalanceReport:
    """Worst color-set concentration over all size-2^k rectangles."""

    passed: bool
    bound: float
    worst_fraction: float
    worst_cells: int
    worst_rectangle: Rectangle
    worst_colors: tuple[int, ...]
    rectangle_pairs: int
    k: int
    d: int
    eps: float
    u_size: int


def _subset_matrix(n_items: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The size-subsets of range(n_items) in lexicographic order: their
    members [#subsets, size] and float32 indicator rows [#subsets, n_items]."""
    count = math.comb(n_items, size)
    flat = chain.from_iterable(combinations(range(n_items), size))
    members = np.fromiter(flat, np.intp, count * size).reshape(count, size)
    mat = np.zeros((count, n_items), dtype=np.float32)
    np.put_along_axis(mat, members, 1.0, axis=1)
    return members, mat


def _subset_tree(items: np.ndarray, size: int, op: np.ufunc) -> Iterator[np.ndarray]:
    """op folded over items[:, i] for every size-subset i of axis 1, in
    lexicographic order, as chunks [items.shape[0], #subsets, ...].

    The j-subsets that start at item v are items[:, v] combined with the
    (j-1)-subsets that start after v, a suffix of level j-1. Level j keeps
    only the subsets whose first item is at least size - j, which can
    still be extended to size items, so the tree costs about
    C(n + 1, size) ops for n items, not sum_j C(n, j). The last level
    passes through one reused buffer: a chunk holds only until the next
    is drawn, and may be a view of items, so callers must not write to it.
    """
    lead, n, rest = items.shape[0], items.shape[1], items.shape[2:]
    if size <= 1:
        yield items if size else np.zeros((lead, 1, *rest), items.dtype)
        return
    level = items[:, size - 1 :]
    for j in range(2, size):
        nxt = np.empty((lead, math.comb(n - size + j, j), *rest), items.dtype)
        pos = 0
        for v in range(size - j, n - j + 1):
            count = math.comb(n - 1 - v, j - 1)
            op(level[:, -count:], items[:, v : v + 1], out=nxt[:, pos : pos + count])
            pos += count
        level = nxt
    # one buffer, as large as the first chunk, spares an allocation (and
    # its page faults) per chunk; packing the smaller ones spares calls
    last = np.empty((lead, math.comb(n - 1, size - 1), *rest), items.dtype)
    pos = 0
    for v in range(n - size + 1):
        count = math.comb(n - 1 - v, size - 1)
        if pos + count > last.shape[1]:
            yield last[:, :pos]
            pos = 0
        op(level[:, -count:], items[:, v : v + 1], out=last[:, pos : pos + count])
        pos += count
    yield last[:, :pos]


def _one_hot_colors(colors: np.ndarray, num_colors: int, dtype: type) -> np.ndarray:
    """(M*N, N) with a 1 at row z*N + v, column u iff colors[u, v] == z."""
    z = np.arange(num_colors).reshape(-1, 1, 1)
    return (colors.T[None] == z).reshape(-1, colors.shape[0]).astype(dtype)


def _count_dtype(bound: int) -> type:
    """The smallest of int8, int16 and int32 that holds counts up to bound."""
    return next(t for t in (np.int8, np.int16, np.int32) if bound <= np.iinfo(t).max)


def _block_size(row_cost: int, values: int = 1 << 23) -> int:
    """Row sets per block when each one expands into row_cost values.

    The block size depends only on the problem dimensions: row_cost is
    how many values the caller expands each row set into (column sets x
    M for the witness's logical blocks, the column tree's working set
    for the full sweep, side x M for rainbow, side x max(M, #color sets)
    for the decomposed one), so a block's working set stays near the
    given number of values.
    """
    return max(1, min(4096, values // row_cost))


def _strip_blocks(
    colors: np.ndarray, num_colors: int, rows_mat: np.ndarray, block: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start, strip[M, side, B]) over row-set blocks in order.

    strip[z, v, b] counts the rows of row set start + b colored z in
    column v, in rows_mat's dtype.
    """
    side = colors.shape[0]
    one_hot = _one_hot_colors(colors, num_colors, rows_mat.dtype)
    for start in range(0, rows_mat.shape[0], block):
        chunk = rows_mat[start : start + block]
        yield start, (one_hot @ chunk.T).reshape(num_colors, side, chunk.shape[0])


def _per_row_set(
    colors: np.ndarray, num_colors: int, rows_mat: np.ndarray, block: int,
    score: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """score(strip) for every row set of rows_mat, in order: score maps a
    block's strips [M, side, B] to one value per row set."""
    return np.concatenate(
        [score(strip) for _, strip in _strip_blocks(colors, num_colors, rows_mat, block)]
    )


def _censuses(strip: np.ndarray, rect: int) -> Iterator[np.ndarray]:
    """The census [M, #B2, B] of every rect-column set on the strips
    [M, side, B], in column-set order, in the count dtype of rect^2 cells."""
    return _subset_tree(strip.astype(_count_dtype(rect * rect)), rect, np.add)


def _full(
    colors: np.ndarray, num_colors: int, rows_mat: np.ndarray, rect: int,
    score: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """The full sweep: for every row set of rows_mat, the most
    score(census) over its rectangles. score maps a chunk of integer
    censuses [M, #B2, B] to one value per rectangle, [#B2, B].

    A block's tree holds a level below rect and one last-level chunk,
    each at most C(side - 1, rect - 1) censuses per color and row set.
    """
    side = colors.shape[0]

    def best(strip: np.ndarray) -> np.ndarray:
        return np.max([score(census).max(axis=0) for census in _censuses(strip, rect)], axis=0)

    # On sweep-colors' m=6 u=4 job (2-core Xeon) these blocks of 576 row
    # sets ran 1.6x faster than blocks of 72.
    block = _block_size(2 * math.comb(side - 1, rect - 1) * num_colors, 1 << 25)
    return _per_row_set(colors, num_colors, rows_mat, block, best)


def _top_sum(arr: np.ndarray, size: int) -> np.ndarray:
    """Sum of the size largest entries along the leading axis, in arr's
    dtype.

    An insertion network over the slices arr[0], arr[1], ...: top[i]
    holds the elementwise (i+1)-th largest value seen so far. Each slice
    walks down the levels; at each, np.maximum keeps the larger value
    there and np.minimum carries the smaller one on, and the last level
    only keeps its maximum: 2 * size - 1 elementwise passes per slice.
    """
    top: list[np.ndarray] = []
    spare = np.empty_like(arr[0])
    low = np.empty_like(arr[0])
    for x in arr:
        cur = x
        for i, level in enumerate(top):
            if i == size - 1:
                np.maximum(level, cur, out=level)
                break
            np.maximum(level, cur, out=spare)
            np.minimum(level, cur, out=low)
            top[i], spare, cur = spare, level, low
        else:
            top.append(np.array(cur))  # a copy, also of a 0-d slice
    total = top[0]
    for level in top[1:]:
        total += level
    return total


def _plan(
    side: int,
    rect: int,
    num_colors: int,
    num_color_sets: int,
    override: bool,
    distinct: bool = False,
) -> str:
    """Guard the sweep that will run and return its name.

    distinct says the reduction is a distinct-color count over at most
    64 colors: the bitset sweep then runs the OR tree once over rows and
    once per row set over columns.
    Otherwise the decomposed sweep, which costs the strip product plus
    the color-set product per row set, runs when there are fewer color
    sets than row sets, and the full sweep costs a census per rectangle.
    """
    num_sets = math.comb(side, rect)
    if distinct:
        # one tree writes sum_{j=2..rect} C(side - rect + j, j) ORs per lane
        ors = math.comb(side + 1, rect) - side + rect - 2
        sweep, ops = "bitset", (num_sets + side) * ors
    elif num_color_sets < num_sets:
        sweep, ops = "decomposed", num_sets * side * num_colors * (side + num_color_sets)
    else:
        sweep, ops = "full", num_sets * num_sets * num_colors
    _guard(ops, override)
    return sweep


def _decomposed(
    side: int, rect: int, color_sets: np.ndarray, offsets: float | np.ndarray
) -> tuple[int, Callable[[np.ndarray], np.ndarray]]:
    """(block, score) of the decomposed sweep for _per_row_set. A row
    set's score is the most U-cells of any rectangle on it, less
    offsets[U], over the color sets U given as the columns of the
    [M, #U] indicator matrix color_sets.

    With the rows and U fixed, the best column set is simply the rect
    columns with the most U-cells in the strip, so no column set is ever
    enumerated.
    """
    num_colors, num_sets = color_sets.shape
    counts = _count_dtype(rect * rect)
    offsets = np.reshape(offsets, (-1, 1))

    def score(strip: np.ndarray) -> np.ndarray:
        per_col = (color_sets.T @ strip.reshape(num_colors, -1)).astype(counts)
        per_col = per_col.reshape(num_sets, side, -1).transpose(1, 0, 2)
        return (_top_sum(per_col, rect) - offsets).max(axis=0)

    # Per-row work is small here: blocks of 2^17 values cost no time and,
    # on sweep-colors, ~10 MB less peak RSS than 2^23-value blocks.
    return _block_size(side * max(num_colors, num_sets), 1 << 17), score


def balance_check_almost(
    table: TwoSourceTable,
    k: int,
    d: int,
    eps: float,
    u_size: int,
    override: bool = False,
) -> BalanceReport:
    """Check every 2^k x 2^k rectangle against the color-set bound.

    For each rectangle and each color set U of size u_size, the fraction
    of rectangle cells colored from U must stay within
    u_size/2^m * 2^d + eps. Only the top-u_size census colors per
    rectangle can maximize the fraction, so the sweep reduces each
    census to its u_size largest entries; the reported worst witness is
    exact and ties break toward the earliest rectangle and smallest
    colors.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    side = 1 << table.n
    rect = 1 << k
    num_colors = table.num_colors
    if rect > side:
        raise ValueError("rectangle side exceeds the table")
    if not 1 <= u_size <= num_colors:
        raise ValueError("u_size must be in [1, 2^m]")
    if not math.isfinite(eps) or eps < 0 or d < 0:
        raise ValueError("eps must be finite and nonnegative, and d nonnegative")
    sweep = _plan(side, rect, num_colors, math.comb(num_colors, u_size), override)
    return _check_almost(table, k, d, eps, u_size, sweep)


def _check_almost(
    table: TwoSourceTable, k: int, d: int, eps: float, u_size: int, sweep: str
) -> BalanceReport:
    """balance_check_almost on the named sweep ("full" or "decomposed"),
    unguarded."""
    side = 1 << table.n
    rect = 1 << k
    num_colors = table.num_colors

    def top_cells(census: np.ndarray) -> np.ndarray:
        return _top_sum(census, u_size)

    members, mat = _subset_matrix(side, rect)
    if sweep == "decomposed":
        _, sets_mat = _subset_matrix(num_colors, u_size)
        block, score = _decomposed(side, rect, sets_mat.T, 0.0)
        best = _per_row_set(table.colors, num_colors, mat, block, score)
    else:
        best = _full(table.colors, num_colors, mat, rect, top_cells)
    # only the maximal row sets of the witness's logical block get censuses
    block = _block_size(len(members) * num_colors)
    start = int(np.argmax(best)) // block * block
    rows = start + np.flatnonzero(best[start : start + block] == best.max())
    _, strip = next(_strip_blocks(table.colors, num_colors, mat[rows], len(rows)))
    values = np.concatenate([top_cells(census) for census in _censuses(strip, rect)])
    b2, off = divmod(int(np.argmax(values)), len(rows))
    worst_cells = int(values[b2, off])
    b1 = int(rows[off])

    grid = table.colors[np.ix_(members[b1], members[b2])]
    census_row = np.bincount(grid.ravel().astype(np.int64), minlength=num_colors)
    order = np.lexsort((np.arange(num_colors), -census_row))
    worst_colors = tuple(sorted(int(z) for z in order[:u_size]))
    fraction = worst_cells / (rect * rect)
    bound = u_size / num_colors * (1 << d) + eps
    return BalanceReport(
        passed=not fraction > bound,
        bound=bound,
        worst_fraction=fraction,
        worst_cells=worst_cells,
        worst_rectangle=Rectangle(tuple(members[b1].tolist()), tuple(members[b2].tolist())),
        worst_colors=worst_colors,
        rectangle_pairs=len(members) ** 2,
        k=k,
        d=d,
        eps=eps,
        u_size=u_size,
    )


def _min_distinct(colors: np.ndarray, rect: int) -> int:
    """Fewest distinct colors in any rect x rect rectangle (colors < 64).

    Each cell becomes the uint64 bit of its color. The OR tree over rows
    gives one color mask per row set and column; per block of row sets,
    the tree over columns gives each rectangle's mask, and popcount its
    number of colors.
    """
    bits = np.left_shift(np.uint64(1), colors.astype(np.uint64))
    row_sets = np.concatenate(
        [masks[0].copy() for masks in _subset_tree(bits[None], rect, np.bitwise_or)]
    )
    fewest = rect * rect
    # blocks of about 2^20 rectangle masks (8 MB) per level
    block = _block_size(math.comb(colors.shape[0], rect), 1 << 20)
    for start in range(0, row_sets.shape[0], block):
        cols = np.ascontiguousarray(row_sets[start : start + block].T)
        for masks in _subset_tree(cols[None], rect, np.bitwise_or):
            fewest = min(fewest, int(np.bitwise_count(masks).min()))
    return fewest


def measure_eps_star(
    table: TwoSourceTable,
    k: int,
    d: int,
    override: bool = False,
) -> float:
    """Smallest eps such that every flat (k, k) source pair pushes the
    table's output to within eps of min-entropy m - d.

    Flat source pairs with supports of size exactly 2^k are the extreme
    points, so the exact answer is the maximum over all support pairs of
    the clipped overshoot above mass 2^-(m-d). Cell censuses are dyadic
    integers scaled by the rectangle size, so the maximum is exact.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    side = 1 << table.n
    rect = 1 << k
    num_colors = table.num_colors
    if rect > side:
        raise ValueError("support size exceeds the table")
    if d < 0:
        raise ValueError("d must be nonnegative")
    if d > table.m:
        return 0.0
    # t = 2^(2k+d-m) <= 1, and every color fits one uint64 mask
    distinct = 2 * k + d <= table.m <= 6
    sweep = _plan(side, rect, num_colors, (1 << num_colors) - 1, override, distinct)
    return _eps_star(table, k, d, sweep)


def _eps_star(table: TwoSourceTable, k: int, d: int, sweep: str) -> float:
    """measure_eps_star on the named sweep, unguarded.

    With t = cells * 2^-(m-d), sum_z max(c_z - t, 0) is
    max(0, max_U sum_{z in U} c_z - |U| t) in the decomposed sweep and
    cells - sum_z min(c_z, t) in the others. t is a power of two; below 1
    the last sum is t times the number of colors present, which the
    bitset sweep counts.
    """
    rect = 1 << k
    num_colors = table.num_colors
    cells = rect * rect
    threshold = cells * 2.0 ** (-(table.m - d))
    if sweep == "bitset":
        return (cells - threshold * _min_distinct(table.colors, rect)) / cells
    _, mat = _subset_matrix(1 << table.n, rect)
    if sweep == "decomposed":
        sets = np.arange(1, 1 << num_colors)
        in_set = ((sets[None, :] >> np.arange(num_colors)[:, None]) & 1).astype(np.float32)
        offsets = in_set.sum(axis=0, dtype=np.float64) * threshold
        block, score = _decomposed(1 << table.n, rect, in_set, offsets)
        best = _per_row_set(table.colors, num_colors, mat, block, score)
        return max(0.0, float(best.max())) / cells
    cap = max(1, int(threshold))

    def uncovered(census: np.ndarray) -> np.ndarray:
        return -np.minimum(census, cap).sum(axis=0, dtype=census.dtype)

    covered = -int(_full(table.colors, num_colors, mat, rect, uncovered).max())
    return (cells - min(threshold, 1.0) * covered) / cells


@dataclass(frozen=True)
class RainbowSide:
    """Worst case for one orientation of the per-column adversary."""

    passed: bool
    worst_cells: int
    rectangle: Rectangle
    color_sets: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class RainbowReport:
    """Both orientations of the size-K rainbow balance check.

    The adversary assigns each selected column (or row, in the flipped
    orientation) its own color set of size max(1, 2^m // divisor); a
    table passes when at most a 2/divisor fraction of the worst
    rectangle is colored by the per-column sets, for both orientations.
    """

    passed: bool
    rect_side: int
    divisor: int
    set_size: int
    per_column: RainbowSide
    per_row: RainbowSide


def rainbow_check(
    table: TwoSourceTable,
    rect_side: int,
    divisor: int,
    override: bool = False,
) -> RainbowReport:
    """Exhaustive K x K rainbow balance verdict for both orientations.

    The properly-colored count of a rectangle splits over selected
    columns, so the adversary's optimum is reached by taking each
    column's top set_size census colors and then the best rect_side
    columns; no tuple enumeration is needed. The verdict compares
    integers (cells * divisor vs 2 * K^2), never fractions.
    """
    side = 1 << table.n
    num_colors = table.num_colors
    if not 1 <= rect_side <= side:
        raise ValueError("rect_side must be in [1, 2^n]")
    if not 1 <= divisor <= num_colors * rect_side:
        raise ValueError("divisor must be in [1, 2^m * rect_side]")
    set_size = max(1, num_colors // divisor)
    num_sets = math.comb(side, rect_side)
    _guard(2 * num_sets * side * side * num_colors, override)
    members, mat = _subset_matrix(side, rect_side)
    block = _block_size(side * num_colors)
    counts = _count_dtype(rect_side * rect_side)

    def cells(strip: np.ndarray) -> np.ndarray:
        # each column's top set_size colors, then the best rect_side columns
        return _top_sum(_top_sum(strip.astype(counts), set_size), rect_side)

    def one_side(colors: np.ndarray) -> RainbowSide:
        per_set = _per_row_set(colors, num_colors, mat, block, cells)
        b1 = int(np.argmax(per_set))
        _, strip = next(_strip_blocks(colors, num_colors, mat[b1 : b1 + 1], 1))
        strip = strip[:, :, 0]
        col_order = np.lexsort((np.arange(side), -_top_sum(strip, set_size)))
        chosen = tuple(sorted(int(v) for v in col_order[:rect_side]))
        sets = []
        for v in chosen:
            z_order = np.lexsort((np.arange(num_colors), -strip[:, v]))
            sets.append(tuple(sorted(int(z) for z in z_order[:set_size])))
        worst = int(per_set[b1])
        return RainbowSide(
            passed=worst * divisor <= 2 * rect_side * rect_side,
            worst_cells=worst,
            rectangle=Rectangle(tuple(members[b1].tolist()), chosen),
            color_sets=tuple(sets),
        )

    per_column = one_side(table.colors)
    per_row = one_side(table.colors.T)
    return RainbowReport(
        passed=per_column.passed and per_row.passed,
        rect_side=rect_side,
        divisor=divisor,
        set_size=set_size,
        per_column=per_column,
        per_row=per_row,
    )


@dataclass(frozen=True)
class RainbowSearchResult:
    found: bool
    trials: int
    seed: Optional[int]
    table: Optional[TwoSourceTable]
    report: Optional[RainbowReport]

    @property
    def exhausted(self) -> bool:
        return not self.found


def search_rainbow(
    n: int,
    m: int,
    rect_side: int,
    divisor: int,
    seed: int,
    max_trials: int,
    override: bool = False,
) -> RainbowSearchResult:
    """Draw seeded random tables until one passes rainbow_check.

    Trial i uses seed + i (mod 2^64). Returns the first passing table,
    or an exhausted result after max_trials draws; exhaustion is an
    outcome, not an error.
    """
    if max_trials < 1:
        raise ValueError("max_trials must be positive")
    for i in range(max_trials):
        trial_seed = (seed + i) & prng.MASK64
        table = gen_random(n, m, trial_seed)
        report = rainbow_check(table, rect_side, divisor, override=override)
        if report.passed:
            return RainbowSearchResult(
                found=True, trials=i + 1, seed=trial_seed, table=table, report=report
            )
    return RainbowSearchResult(
        found=False, trials=max_trials, seed=None, table=None, report=None
    )
