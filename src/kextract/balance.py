"""Exhaustive rectangle balance verification for two-source tables.

Every check here is exact over all rectangles B1 x B2 with both sides of
a fixed size: almost balance, eps* and rainbow balance each maximize a
score of the rectangle's color census. One integer subset tree,
_subset_tree, forms every aggregate by folding np.add (counts) or
np.bitwise_or (uint64 color bits) over each subset of an axis. Over the
rows of a one-hot table [M, side (columns), side (rows)] it gives every
row set's strip (per-column color counts), a block at a time, as
strip[M, side, B]. The color axis stays first and the row set last, so
each top-u (_top_sum, an insertion network of np.maximum/np.minimum
passes) combines whole slices instead of reducing many short rows.

- The full sweep forms censuses [M, #B2, B] with the tree over the
  strip's columns, a chunk at a time, and reduces them to the top u_size
  colors or to the cells past a cap. For almost balance it is a branch
  and bound: every (2^k - 1)-column prefix is scored once per row set,
  and a last column is added only to the prefixes whose top-u count
  plus 2^k (the most one column adds) still reaches the best rectangle
  found so far. eps* scores every census.
- The decomposed sweep fixes B1 and a color set U: the best B2 is then
  the 2^k columns with the most U-cells, which the tree over the strip's
  color axis counts, so column sets are never enumerated. Almost balance
  tries the C(2^m, u_size) color sets; eps* every size, each less |U| t,
  because sum_z max(c_z - t, 0) = max(0, max_U sum_{z in U} c_z - |U| t).
  Rainbow is always scored this way, per column.
- The bitset sweep serves eps* when t <= 1 and M <= 64: the overshoot is
  then cells - t * (distinct colors in the rectangle). It is the full
  sweep over uint64 color bits, with np.bitwise_or and score -popcount.

The bitset sweep runs whenever it applies; otherwise the decomposed
sweep runs when there are strictly fewer color sets than row sets, and
the full one when not. The almost-balance witness is defined by logical
blocks of _block_size(#column sets x M) row sets: it is the first
maximum in block order, b2-major within a block. Both sweeps return
every maximal row set's value exactly (the branch and bound every other
row set's below the maximum), so the witness step reads the maximal row
sets of the first logical block that holds one, unranks them
(_unrank) and sums their strips; the sweeps' own blocks never move it.
After the full sweep it forms their censuses with the same tree. After
the decomposed one it takes, for each of them and each color set, the
lexicographically first best column set, which is read off the U-counts
per column, and ranks it (_rank): the smallest rank is b2, at the cost
of the sweep itself on those row sets. No array over all row sets'
members is built.

All values are exact: strips, censuses and color-set sums are integers
in the smallest of int8, int16 and int32 that holds the cell bound, 4^k
(K^2 for rainbow), which no count or partial sum exceeds; eps* subtracts
the dyadic |U| t in float64.

Work is estimated for the sweep that will run before anything is
allocated: rectangle pairs times colors for the full sweep (every
census, which bounds what the branch and bound forms), row sets
plus columns times the ORs one tree writes for the bitset one, row sets
x 2^n x M x (2^n + #color sets) for the decomposed one and row sets x
2^n x 2^n x M per orientation for rainbow. The last two price dense
products, more than their trees' adds. Runs past OPS_LIMIT are refused
unless explicitly overridden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

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


def _comb_table(side: int, size: int) -> np.ndarray:
    """[side, size + 1] int64: at [v, j], C(side - 1 - v, size - 1 - j),
    the size-subsets that take column v as member j, wherever j members
    and v - j <= side - size non-members can precede v; 0 elsewhere, so
    also at j = size."""
    table = np.zeros((side, size + 1), dtype=np.int64)
    for v in range(side):
        for j in range(max(0, v - side + size), min(v + 1, size)):
            table[v, j] = math.comb(side - 1 - v, size - 1 - j)
    return table


def _unrank(side: int, size: int, rank) -> np.ndarray:
    """The members of the size-subset of range(side) at lexicographic
    rank, [..., size] for an int or an array of ranks.

    With j members taken, column v is the next member when the rank
    left is below C(side - 1 - v, size - 1 - j), the number of subsets
    that take v as member j; otherwise those subsets are passed over and
    the rank left drops by their number.
    """
    rank = np.array(rank, dtype=np.int64)
    members = np.empty((rank.size, size), dtype=np.intp)
    left, taken = rank.reshape(-1), np.zeros(rank.size, dtype=np.intp)
    table = _comb_table(side, size)
    for v in range(side):
        ahead = table[v, taken]
        take = left < ahead
        members[take, taken[take]] = v
        left = np.where(take, left, left - ahead)
        taken += take
    return members.reshape(*rank.shape, size)


def _rank(masks: np.ndarray, size: int) -> np.ndarray:
    """The lexicographic rank of each size-subset of range(side) given as
    a bool mask [..., side]: over each column v that is not a member and
    lies before the last member, C(side - 1 - v, size - 1 - #members
    before v), the subsets that agree before v and take v instead."""
    side = masks.shape[-1]
    before = np.cumsum(masks, axis=-1) - masks
    # past the last member, before == size picks the table's 0 column
    passed = _comb_table(side, size)[np.arange(side), before]
    return np.where(masks, 0, passed).sum(axis=-1)


def _subset_tree(
    items: np.ndarray, size: int, op: np.ufunc, width: Optional[int] = None
) -> Iterator[np.ndarray]:
    """op folded over items[:, i] for every size-subset i of axis 1, in
    lexicographic order, as chunks [items.shape[0], <= width, ...].

    The j-subsets that start at item v are items[:, v] combined with the
    (j-1)-subsets that start after v, a suffix of level j-1. Level j keeps
    only the subsets whose first item is at least size - j, which can
    still be extended to size items, so the tree costs about
    C(n + 1, size) ops for n items, not sum_j C(n, j). The last level
    passes through one reused buffer of width subsets, by default the
    largest group of subsets that share their first item (all n items
    when size is 1). Groups are packed into it; one that does not fit
    starts the next chunk, and one wider than the buffer is split. A
    chunk holds only until the next is drawn, and may be a view of
    items, so callers must not write to it.
    """
    lead, n, rest = items.shape[0], items.shape[1], items.shape[2:]
    if size == 0:
        yield np.zeros((lead, 1, *rest), items.dtype)
        return
    if size == 1:
        width = width or n
        yield from (items[:, v : v + width] for v in range(0, n, width))
        return
    width = min(width or math.comb(n - 1, size - 1), math.comb(n, size))
    level = items[:, size - 1 :]
    for j in range(2, size):
        nxt = np.empty((lead, math.comb(n - size + j, j), *rest), items.dtype)
        pos = 0
        for v in range(size - j, n - j + 1):
            count = math.comb(n - 1 - v, j - 1)
            op(level[:, -count:], items[:, v : v + 1], out=nxt[:, pos : pos + count])
            pos += count
        level = nxt
    # one buffer spares an allocation (and its page faults) per chunk
    last = np.empty((lead, width, *rest), items.dtype)
    pos = 0
    for v in range(n - size + 1):
        group = level[:, level.shape[1] - math.comb(n - 1 - v, size - 1) :]
        if pos and pos + group.shape[1] > width:
            yield last[:, :pos]
            pos = 0
        while group.shape[1]:
            take = min(width - pos, group.shape[1])
            op(group[:, :take], items[:, v : v + 1], out=last[:, pos : pos + take])
            group, pos = group[:, take:], pos + take
            if pos == width:
                yield last
                pos = 0
    if pos:
        yield last[:, :pos]


def _one_hot(colors: np.ndarray, num_colors: int, dtype: type) -> np.ndarray:
    """[M, side (columns), side (rows)]: a 1 at [z, v, u] iff colors[u, v] == z."""
    z = np.arange(num_colors).reshape(-1, 1, 1)
    return (colors.T[None] == z).astype(dtype)


def _count_dtype(bound: int) -> type:
    """The smallest of int8, int16 and int32 that holds counts up to bound."""
    return next(t for t in (np.int8, np.int16, np.int32) if bound <= np.iinfo(t).max)


def _block_size(row_cost: int, values: int = 1 << 23) -> int:
    """Row sets per block when each one expands into row_cost values.

    The block size depends only on the problem dimensions: row_cost is
    how many values the caller expands each row set into (the column
    tree's working set for the full and bitset sweeps, side x M for
    rainbow, side x max(M, #color sets) for the decomposed one), so a
    block's working set stays near the given number of values. The
    almost-balance witness's logical blocks are priced at column sets x
    M, the censuses the full sweep's witness step forms per row set; they
    fix which maximal row sets the witness is drawn from, and so bound
    how many the witness step reads.
    """
    return max(1, min(4096, values // row_cost))


def _per_row_set(
    items: np.ndarray, rect: int, block: int,
    score: Callable[[np.ndarray], np.ndarray], op: np.ufunc = np.add,
) -> np.ndarray:
    """score(strip) for every rect-row set, in order, block row sets at a
    time. items is [M, side (columns), side (rows)], and a row set's strip
    [M, side] is op folded over its rows; score maps a block's strips
    [M, side, B] to one value per row set."""
    lanes = items.reshape(-1, items.shape[2])
    return np.concatenate([
        score(chunk.reshape(*items.shape[:2], -1))
        for chunk in _subset_tree(lanes, rect, op, block)
    ])


def _full(
    items: np.ndarray, rect: int, score: Callable[[np.ndarray], np.ndarray],
    op: np.ufunc = np.add, values: int = 1 << 25, slack: Optional[int] = None,
) -> np.ndarray:
    """The full sweep: for every rect-row set, the most score(census)
    over its rectangles, exact wherever it is the maximum over all
    rectangles and strictly below that maximum everywhere else. items and
    op are as for _per_row_set; score maps censuses [M, ...] to one value
    per census, [...].

    With slack None every column set's census is scored. Otherwise slack
    bounds what one more column can add to a score, and the sweep is a
    branch and bound over the column sets P + {v}: P is a prefix, a
    (rect - 1)-subset of columns 1..side - 1 (the column tree's level
    below rect), and v < min(P). Each block scores every (prefix, row
    set) pair once, then extends its pairs over their v one score level
    at a time, best first. The threshold T is the best extension so far,
    a real rectangle's score, and carries over to later blocks; a level s
    with s + slack < T cannot reach T, so it and every level below it are
    skipped, and their pairs stand as s + slack < T in the result. Once a
    block's levels would extend more than a quarter of its rectangles
    (many tied prefixes), it and every later block are swept densely.

    A block's column tree holds a level below rect and one last-level
    chunk, each at most C(side - 1, rect - 1) censuses per M-slice and
    row set; blocks keep that working set near the given values.
    """
    side = items.shape[1]
    num_sets, num_prefixes = math.comb(side, rect), math.comb(side - 1, rect - 1)
    # On sweep-colors' m=6 u=4 job (2-core Xeon) these blocks of 576 row
    # sets ran 1.6x faster than blocks of 72 in the dense sweep. The
    # branch and bound ran 8% faster with 1,152, but their prefix tree
    # takes 40 MB, more than the dense sweep's 576-row-set tree.
    block = _block_size(2 * num_prefixes * items.shape[0], values)

    def dense(strip: np.ndarray) -> np.ndarray:
        return np.max([score(c).max(axis=0) for c in _subset_tree(strip, rect, op)], axis=0)

    if slack is None:
        return _per_row_set(items, rect, block, dense, op)

    # prefix p extends by the columns v < min(P): its first member, or
    # every column for the empty prefix. C(side - 2 - f, rect - 2)
    # prefixes, in order, start at column f + 1.
    if rect > 1:
        starts = [math.comb(side - 2 - f, rect - 2) for f in range(side - rect + 1)]
        reach = np.repeat(np.arange(1, side - rect + 2), starts)
    else:
        reach = np.array([side])
    # pairs extended per scoring call: their censuses and added columns
    # take at most half the values of the block's prefix censuses
    batch = max(1, num_prefixes * block // (4 * (side - rect + 1)))

    threshold, pruning = -math.inf, True

    def pruned(strip: np.ndarray) -> np.ndarray:
        if not pruning:
            return dense(strip)
        width = strip.shape[2]
        censuses = next(_subset_tree(strip[:, 1:], rect - 1, op, num_prefixes))
        scores = score(censuses).reshape(-1)  # by prefix * width + row set
        best = scores + slack
        # flat [M, ...] arrays, so that np.take gathers contiguous censuses
        columns = strip.reshape(len(strip), -1)

        def extend(source: np.ndarray, index: np.ndarray, pairs: np.ndarray) -> None:
            """Score pairs[i], whose census is source[:, index[i]], over
            its rectangles."""
            nonlocal threshold
            for i in range(0, len(pairs), batch):
                part = pairs[i : i + batch]
                counts = reach[part // width]
                starts = np.cumsum(counts) - counts
                rows = np.repeat(part % width, counts)
                v = np.arange(len(rows)) - np.repeat(starts, counts)
                ext = np.take(source, np.repeat(index[i : i + batch], counts), axis=1)
                op(ext, np.take(columns, v * width + rows, axis=1), out=ext)
                best[part] = np.maximum.reduceat(score(ext), starts)
                threshold = max(threshold, int(best[part].max()))

        spent = 0

        def too_many(extensions: int) -> bool:
            """Count extensions. Past a quarter of the block's rectangles
            the dense tree's adds cost less than gathering each extension,
            and ties this wide tend to recur, so this block and the later
            ones are swept densely."""
            nonlocal spent, pruning
            spent += extensions
            pruning = 4 * spent <= num_sets * width
            return not pruning

        level = int(scores.max())
        if level + slack < threshold:
            return best.reshape(-1, width).max(axis=0)
        top = scores == level
        if too_many(int(reach @ top.reshape(num_prefixes, width).sum(axis=1))):
            return dense(strip)
        top = np.flatnonzero(top)
        extend(censuses.reshape(len(censuses), -1), top, top)
        # gather the pairs that can still reach the threshold, so that the
        # prefix censuses (16.8 MB per block on sweep-colors' m=6 u=4 job)
        # are freed before the lower levels run; gathering from them
        # instead runs as fast but raises the sweep's peak RSS
        cand = np.flatnonzero((scores < level) & (scores >= threshold - slack))
        compact = np.take(censuses.reshape(len(censuses), -1), cand, axis=1)
        del censuses
        cand_scores, cand_reach = scores[cand], reach[cand // width]
        level -= 1
        while level + slack >= threshold:
            sel = np.flatnonzero(cand_scores == level)
            if too_many(int(cand_reach[sel].sum())):
                return dense(strip)
            extend(compact, sel, cand[sel])
            level -= 1
        return best.reshape(-1, width).max(axis=0)

    return _per_row_set(items, rect, block, pruned, op)


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
    once per row set over columns, and is priced at exactly the ORs they
    write. Otherwise the decomposed sweep runs when there are fewer color
    sets than row sets, and the full sweep is priced at a census per
    rectangle: the dense sweep, an upper bound on the censuses that the
    almost-balance branch and bound forms.
    The decomposed estimate prices a dense product per strip and per
    color set, which over-prices the adds of its row and color-set trees;
    weighting each sweep's estimate in seconds is left open.
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
    items: np.ndarray, rect: int, sizes: Sequence[int], threshold: float = 0.0
) -> np.ndarray:
    """The decomposed sweep: for every rect-row set of items (as for
    _per_row_set), the most U-cells of any rectangle on it less
    |U| * threshold, over the color sets U of every size in sizes.

    With the rows and U fixed, the best column set is simply the rect
    columns with the most U-cells in the strip, so no column set is ever
    enumerated. The tree over the strip's color axis gives every U's
    per-column counts, [side, #U, B].
    """
    num_colors, side = items.shape[:2]
    num_sets = sum(math.comb(num_colors, size) for size in sizes)

    def score(strip: np.ndarray) -> np.ndarray:
        per_col = strip.transpose(1, 0, 2)
        return np.max([
            _top_sum(counts, rect).max(axis=0) - size * threshold
            for size in sizes
            for counts in _subset_tree(per_col, size, np.add)
        ], axis=0)

    # Per-row work is small here: blocks of 2^17 values cost no time and,
    # on sweep-colors, ~10 MB less peak RSS than 2^23-value blocks.
    block = _block_size(side * max(num_colors, num_sets), 1 << 17)
    return _per_row_set(items, rect, block, score)


def _almost_bound(u_size: int, num_colors: int, d: int, eps: float) -> float:
    """u_size/2^m * 2^d + eps; a ValueError when it is no finite float."""
    try:
        bound = math.ldexp(u_size / num_colors, d) + eps
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise ValueError(f"the bound u_size/2^m * 2^d + eps overflows at d={d}")
    return bound


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
    _almost_bound(u_size, num_colors, d, eps)
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
    bound = _almost_bound(u_size, num_colors, d, eps)
    counts = _count_dtype(rect * rect)
    one_hot = _one_hot(table.colors, num_colors, counts)

    def top_cells(census: np.ndarray) -> np.ndarray:
        return _top_sum(census, u_size)

    if sweep == "decomposed":
        best = _decomposed(one_hot, rect, [u_size])
    else:
        best = _full(one_hot, rect, top_cells, slack=rect)
    # only the maximal row sets of the witness's logical block are looked at
    num_sets = len(best)
    block = _block_size(num_sets * num_colors)
    start = int(np.argmax(best)) // block * block
    worst_cells = int(best.max())
    rows = start + np.flatnonzero(best[start : start + block] == worst_cells)
    strip = one_hot[:, :, _unrank(side, rect, rows)].sum(axis=3, dtype=counts)
    if sweep == "decomposed":
        b2, off = _color_set_witness(strip, rect, u_size, worst_cells)
    else:
        values = np.concatenate([top_cells(c) for c in _subset_tree(strip, rect, np.add)])
        b2, off = divmod(int(np.argmax(values)), len(rows))
    b1_members, b2_members = _unrank(side, rect, [rows[off], b2])

    grid = table.colors[np.ix_(b1_members, b2_members)]
    census_row = np.bincount(grid.ravel().astype(np.int64), minlength=num_colors)
    order = np.lexsort((np.arange(num_colors), -census_row))
    worst_colors = tuple(sorted(int(z) for z in order[:u_size]))
    fraction = worst_cells / (rect * rect)
    return BalanceReport(
        passed=not fraction > bound,
        bound=bound,
        worst_fraction=fraction,
        worst_cells=worst_cells,
        worst_rectangle=Rectangle(tuple(b1_members.tolist()), tuple(b2_members.tolist())),
        worst_colors=worst_colors,
        rectangle_pairs=num_sets**2,
        k=k,
        d=d,
        eps=eps,
        u_size=u_size,
    )


def _color_set_witness(
    strip: np.ndarray, rect: int, u_size: int, worst: int
) -> tuple[int, int]:
    """(b2, i): the b2-major first maximum over the column sets b2 and the
    row sets i whose strips [M, side, #rows] reach worst U-cells for a
    color set U of u_size colors.

    With the rows and U fixed, let c_v be column v's U-cells and tau the
    rect-th largest: the lexicographically first best column set is every
    column with c_v > tau, then the first columns with c_v = tau. The
    smallest such rank over the (row, U) pairs that reach worst is b2, and
    a row that reaches worst at b2 has b2 as its own smallest rank, so i
    is the first such row.
    """
    side = strip.shape[1]
    ranks, rows = [], []
    for counts in _subset_tree(strip.transpose(1, 0, 2), u_size, np.add):
        color_sets, row = np.nonzero(_top_sum(counts, rect) == worst)
        c = counts[:, color_sets, row]  # [side, #pairs]
        tau = np.sort(c, axis=0)[side - rect]
        above, ties = c > tau, c == tau
        best = above | (ties & (np.cumsum(ties, axis=0) <= rect - above.sum(axis=0)))
        ranks.append(_rank(best.T, rect))
        rows.append(row)
    ranks, rows = np.concatenate(ranks), np.concatenate(rows)
    b2 = int(ranks.min())
    return b2, int(rows[ranks == b2].min())


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
        # each cell is the uint64 bit of its color. 2^19-value blocks hold
        # 576 row sets on sweep-colors, as the full sweep's do; blocks of
        # 4,096 were no faster there (2-core Xeon) and peaked 0.5 MB higher.
        items = np.left_shift(np.uint64(1), table.colors.T.astype(np.uint64))[None]
        op, values = np.bitwise_or, 1 << 19

        def uncovered(census: np.ndarray) -> np.ndarray:
            # one mask per rectangle; its popcount, at most 64, reads the
            # same as int8, so it negates without a widening copy
            return -np.bitwise_count(census[0]).view(np.int8)
    else:
        items = _one_hot(table.colors, num_colors, _count_dtype(cells))
        op, values = np.add, 1 << 25
        if sweep == "decomposed":
            best = _decomposed(items, rect, range(1, num_colors + 1), threshold)
            return max(0.0, float(best.max())) / cells
        # no count exceeds cells, so a larger t caps nothing (and might
        # not fit the count dtype). This score can only drop as columns
        # are added, but _full's branch and bound with slack 0 ran 1.2-1.7x
        # slower than the dense sweep at k=2 on n=4 m=6 tables (2-core
        # Xeon), where many prefixes tie, though 3x faster at t <= 4 on an
        # m=4 table; eps* keeps the dense sweep.
        cap = min(max(1, int(threshold)), cells)

        def uncovered(census: np.ndarray) -> np.ndarray:
            return -np.minimum(census, cap).sum(axis=0, dtype=census.dtype)

    covered = -int(_full(items, rect, uncovered, op, values).max())
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
    integers (cells * divisor vs 2 * K^2), never fractions. The guard
    prices a dense strip product per row set and orientation, row sets x
    2^n x 2^n x M, which over-prices the row tree's adds; weighting it in
    seconds is left open.
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
    block = _block_size(side * num_colors)
    counts = _count_dtype(rect_side * rect_side)

    def cells(strip: np.ndarray) -> np.ndarray:
        # each column's top set_size colors, then the best rect_side columns
        return _top_sum(_top_sum(strip, set_size), rect_side)

    def one_side(colors: np.ndarray) -> RainbowSide:
        one_hot = _one_hot(colors, num_colors, counts)
        per_set = _per_row_set(one_hot, rect_side, block, cells)
        b1 = int(np.argmax(per_set))
        rows = _unrank(side, rect_side, b1)
        strip = one_hot[:, :, rows].sum(axis=2, dtype=counts)
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
            rectangle=Rectangle(tuple(rows.tolist()), chosen),
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
