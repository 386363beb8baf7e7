"""Exhaustive rectangle balance verification for two-source tables.

Every check here is exact over all rectangles B1 x B2 with both sides of
a fixed size, and every check walks blocks of row sets B1 through one
generator. A subset-indicator matrix times a one-hot color expansion
gives each row set's strip: per-column color counts. All values are
small integers or dyadic rationals, and float64 sums of those below
2^53 are associative with no rounding, so BLAS products stay exact and
results do not depend on BLAS thread count.

Almost balance and eps* have two sweeps with identical answers:

- The full sweep multiplies each strip by the column-set indicator
  matrix too, giving the color census of every rectangle, and reduces
  it (top-u_size colors, or the clipped overshoot).
- The decomposed sweep fixes B1 and a color set U: the best B2 is then
  the 2^k columns with the most U-cells in the strip, so column sets are
  never enumerated. Almost balance tries the C(2^m, u_size) color sets;
  eps* tries the 2^M - 1 nonempty ones, because
  sum_z max(c_z - t, 0) = max(0, max_U sum_{z in U} c_z - |U| t).
  rainbow_check always decomposes this way, per column.

The decomposed sweep runs when there are strictly fewer color sets than
row sets, otherwise the full one. Both report the same almost-balance
witness: the first maximum in the full sweep's row-block order, b2-major
within a block. The decomposed sweep finds each row set's best value,
then computes full censuses only for the maximal row sets of the first
full-sweep block that holds one.

Work is estimated for the sweep that will run before anything is
allocated: rectangle pairs times colors for the full sweep, row sets
times the strip and color-set products for the decomposed one. Runs
past OPS_LIMIT are refused unless explicitly overridden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional

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


def _subset_matrix(n_items: int, size: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    subsets = list(combinations(range(n_items), size))
    mat = np.zeros((len(subsets), n_items), dtype=np.float64)
    for i, sub in enumerate(subsets):
        mat[i, list(sub)] = 1.0
    return subsets, mat


def _one_hot_colors(colors: np.ndarray, num_colors: int) -> np.ndarray:
    """(N, N*M) float64 with a 1 at column v*M + z iff colors[u, v] == z."""
    side = colors.shape[0]
    flat = np.zeros((side, side * num_colors), dtype=np.float64)
    cols = np.arange(side)[None, :] * num_colors + colors.astype(np.int64)
    rows = np.repeat(np.arange(side)[:, None], side, axis=1)
    flat[rows.ravel(), cols.ravel()] = 1.0
    return flat


def _block_size(row_cost: int, values: int = 1 << 23) -> int:
    """Row sets per block when each one expands into row_cost values.

    The block size depends only on the problem dimensions: row_cost is
    how many values the caller expands each row set into (column sets x
    M for rectangle censuses, side x M for rainbow, side x max(M, #color
    sets) for the decomposed sweep), so a block's working set stays near
    the given number of values.
    """
    return max(1, min(4096, values // row_cost))


def _strip_blocks(
    colors: np.ndarray, num_colors: int, rows_mat: np.ndarray, block: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start, strip[B, side, M]) over row-set blocks in order.

    strip[b, v, z] counts the rows of row set start + b colored z in
    column v.
    """
    side = colors.shape[0]
    one_hot = _one_hot_colors(colors, num_colors)
    for start in range(0, rows_mat.shape[0], block):
        chunk = rows_mat[start : start + block]
        yield start, (chunk @ one_hot).reshape(chunk.shape[0], side, num_colors)


def _rect_census(cols_mat: np.ndarray, strip: np.ndarray) -> np.ndarray:
    """census[numB2, B, M] of every rectangle from a block of strips."""
    count, side, num_colors = strip.shape
    flat = strip.transpose(1, 0, 2).reshape(side, -1)
    return (cols_mat @ flat).reshape(cols_mat.shape[0], count, num_colors)


def _top_sum(arr: np.ndarray, size: int, axis: int) -> np.ndarray:
    """Sum of the size largest entries along axis."""
    cut = arr.shape[axis] - size
    if cut > 0:
        arr = np.split(np.partition(arr, cut, axis=axis), [cut], axis=axis)[1]
    return arr.sum(axis=axis)


def _argmax(arr: np.ndarray) -> tuple[int, int]:
    """(flat index, integer value) of the first maximum."""
    flat = int(np.argmax(arr))
    return flat, int(np.rint(arr.ravel()[flat]))


def _plan(
    num_sets: int, num_color_sets: int, side: int, num_colors: int, override: bool
) -> bool:
    """Guard the sweep that will run; True selects the decomposed one.

    The decomposed sweep costs the strip product plus the color-set
    product per row set; the full sweep costs a census per rectangle.
    """
    decomposed = num_color_sets < num_sets
    if decomposed:
        _guard(num_sets * side * num_colors * (side + num_color_sets), override)
    else:
        _guard(num_sets * num_sets * num_colors, override)
    return decomposed


def _best_per_row_set(
    colors: np.ndarray,
    num_colors: int,
    rows_mat: np.ndarray,
    rect: int,
    color_sets: np.ndarray,
    offsets: float | np.ndarray,
) -> np.ndarray:
    """best[b1] = max over color sets U of (U-cells of the best
    rectangle on row set b1) - offsets[U].

    color_sets is the [M, #U] indicator matrix. With the rows and U
    fixed, the best column set is simply the rect columns with the most
    U-cells in the strip, so no column set is ever enumerated.
    """
    side = colors.shape[0]
    best = np.empty(rows_mat.shape[0])
    # Per-row work is small here, so blocks of about 2^17 values cost no
    # time; on the sweep-colors benchmark, which mixes these with full
    # sweeps in one process, they measured ~10 MB less peak RSS than
    # 2^23-value blocks.
    block = _block_size(side * max(num_colors, color_sets.shape[1]), 1 << 17)
    for start, strip in _strip_blocks(colors, num_colors, rows_mat, block):
        count = strip.shape[0]
        per_col = (strip.reshape(-1, num_colors) @ color_sets).reshape(count, side, -1)
        per_set = _top_sum(per_col, rect, 1)
        per_set -= offsets
        best[start : start + count] = per_set.max(axis=1)
    return best


def _first_max(cols_mat: np.ndarray, strip: np.ndarray, u_size: int) -> tuple[int, int, int]:
    """(b2, row offset, cells) of the first maximum in b2-major order."""
    flat, value = _argmax(_top_sum(_rect_census(cols_mat, strip), u_size, 2))
    b2, off = divmod(flat, strip.shape[0])
    return b2, off, value


def _worst_full(
    colors: np.ndarray, num_colors: int, mat: np.ndarray, u_size: int
) -> tuple[int, int, int]:
    """(cells, b1, b2): the first maximum in row-block order."""
    worst_cells, b1, b2 = -1, -1, -1
    block = _block_size(mat.shape[0] * num_colors)
    for start, strip in _strip_blocks(colors, num_colors, mat, block):
        b2_first, off, value = _first_max(mat, strip, u_size)
        if value > worst_cells:
            worst_cells, b1, b2 = value, start + off, b2_first
    return worst_cells, b1, b2


def _worst_decomposed(
    colors: np.ndarray, num_colors: int, mat: np.ndarray, rect: int, u_size: int
) -> tuple[int, int, int]:
    """_worst_full's answer, witness included, from per-row-set maxima.

    The full sweep's witness lies in the first of its row blocks that
    holds a maximal row set, so only that block's maximal row sets get
    full censuses against every column set.
    """
    _, sets_mat = _subset_matrix(num_colors, u_size)
    best = _best_per_row_set(colors, num_colors, mat, rect, sets_mat.T, 0.0)
    block = _block_size(mat.shape[0] * num_colors)
    first = int(np.argmax(best))
    start = first // block * block
    rows = start + np.flatnonzero(best[start : start + block] == best[first])
    _, strip = next(_strip_blocks(colors, num_colors, mat[rows], block))
    b2, off, value = _first_max(mat, strip, u_size)
    return value, int(rows[off]), b2


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
    side = 1 << table.n
    rect = 1 << k
    num_colors = table.num_colors
    if rect > side:
        raise ValueError("rectangle side exceeds the table")
    if not 1 <= u_size <= num_colors:
        raise ValueError("u_size must be in [1, 2^m]")
    if eps < 0 or d < 0:
        raise ValueError("eps and d must be nonnegative")
    num_sets = math.comb(side, rect)
    decomposed = _plan(
        num_sets, math.comb(num_colors, u_size), side, num_colors, override
    )
    return _check_almost(table, k, d, eps, u_size, decomposed)


def _check_almost(
    table: TwoSourceTable, k: int, d: int, eps: float, u_size: int, decomposed: bool
) -> BalanceReport:
    """balance_check_almost on the chosen sweep, unguarded."""
    rect = 1 << k
    num_colors = table.num_colors
    subsets, mat = _subset_matrix(1 << table.n, rect)
    if decomposed:
        worst_cells, b1, b2 = _worst_decomposed(table.colors, num_colors, mat, rect, u_size)
    else:
        worst_cells, b1, b2 = _worst_full(table.colors, num_colors, mat, u_size)

    census_row = _rectangle_census(table, subsets[b1], subsets[b2])
    order = np.lexsort((np.arange(num_colors), -census_row))
    worst_colors = tuple(sorted(int(z) for z in order[:u_size]))
    fraction = worst_cells / (rect * rect)
    bound = u_size / num_colors * (1 << d) + eps
    return BalanceReport(
        passed=not fraction > bound,
        bound=bound,
        worst_fraction=fraction,
        worst_cells=worst_cells,
        worst_rectangle=Rectangle(subsets[b1], subsets[b2]),
        worst_colors=worst_colors,
        rectangle_pairs=len(subsets) ** 2,
        k=k,
        d=d,
        eps=eps,
        u_size=u_size,
    )


def _rectangle_census(
    table: TwoSourceTable, rows: tuple[int, ...], cols: tuple[int, ...]
) -> np.ndarray:
    grid = table.colors[np.ix_(list(rows), list(cols))]
    return np.bincount(grid.ravel().astype(np.int64), minlength=table.num_colors)


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
    side = 1 << table.n
    rect = 1 << k
    num_colors = table.num_colors
    if rect > side:
        raise ValueError("support size exceeds the table")
    if d < 0:
        raise ValueError("d must be nonnegative")
    if d > table.m:
        return 0.0
    num_sets = math.comb(side, rect)
    decomposed = _plan(num_sets, (1 << num_colors) - 1, side, num_colors, override)
    return _eps_star(table, k, d, decomposed)


def _eps_star(table: TwoSourceTable, k: int, d: int, decomposed: bool) -> float:
    """measure_eps_star on the chosen sweep, unguarded.

    The decomposed sweep uses sum_z max(c_z - t, 0) =
    max(0, max over nonempty U of sum_{z in U} c_z - |U| t).
    """
    rect = 1 << k
    num_colors = table.num_colors
    _, mat = _subset_matrix(1 << table.n, rect)
    cells = rect * rect
    threshold = cells * 2.0 ** (-(table.m - d))

    if decomposed:
        sets = np.arange(1, 1 << num_colors)
        members = (sets[None, :] >> np.arange(num_colors)[:, None]) & 1
        offsets = members.sum(axis=0) * threshold
        best = _best_per_row_set(
            table.colors, num_colors, mat, rect, members.astype(np.float64), offsets
        )
        worst = max(0.0, float(best.max()))
    else:
        worst = 0.0
        block = _block_size(mat.shape[0] * num_colors)
        for _, strip in _strip_blocks(table.colors, num_colors, mat, block):
            excess = _rect_census(mat, strip)
            excess -= threshold
            np.maximum(excess, 0.0, out=excess)
            worst = max(worst, float(excess.sum(axis=2).max()))
    return worst / cells


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
    _guard(2 * num_sets * side * num_colors, override)
    subsets, mat = _subset_matrix(side, rect_side)
    block = _block_size(side * num_colors)

    def one_side(colors: np.ndarray) -> RainbowSide:
        best_cells, best_b1 = -1, -1
        for start, strip in _strip_blocks(colors, num_colors, mat, block):
            per_col = _top_sum(strip, set_size, 2)
            off, value = _argmax(_top_sum(per_col, rect_side, 1))
            if value > best_cells:
                best_cells, best_b1 = value, start + off

        rows = subsets[best_b1]
        strip = np.stack(
            [np.bincount(colors[list(rows), v], minlength=num_colors) for v in range(side)]
        )
        w_row = _top_sum(strip, set_size, 1)
        col_order = np.lexsort((np.arange(side), -w_row))
        chosen = tuple(sorted(int(v) for v in col_order[:rect_side]))
        sets = []
        for v in chosen:
            z_order = np.lexsort((np.arange(num_colors), -strip[v]))
            sets.append(tuple(sorted(int(z) for z in z_order[:set_size])))
        passed = best_cells * divisor <= 2 * rect_side * rect_side
        return RainbowSide(
            passed=passed,
            worst_cells=best_cells,
            rectangle=Rectangle(rows, chosen),
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
