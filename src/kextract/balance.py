"""Exhaustive rectangle balance verification for two-source tables.

Every check here is exact over all rectangles B1 x B2 with both sides of
a fixed size: almost balance, eps* and rainbow balance each maximize a
score of the rectangle's color census. One integer subset tree,
_subset_tree, forms every aggregate by folding an add over each subset
of an axis. Over the rows of a table of one-cell censuses [lead, side
(columns), side (rows)] it gives every row set's strip (per-column
censuses), a block at a time, as strip[lead, side, B]. A census is held
one of two ways:

- One-hot: M counts (lead = M), added with np.add. The color axis stays
  first and the row set last, so each top-u (_top_sum, an insertion
  network of np.maximum/np.minimum passes) combines whole slices instead
  of reducing many short rows.
- Bit planes: P planes (lead = P) in the narrowest unsigned dtype with M
  bits, plane s - 1 holding the colors counted at least s times, so
  counts saturate at P; _saturating_add adds two censuses in about
  3P^2 / 4 bitwise passes. With N_s the popcount of plane s - 1, a census
  of c cells holds c - sum_{s <= P} max(0, N_s - u) cells of its top u
  colors. This is exact for P = max(1, c // (u + 1)): a color counted s
  times takes s cells, so N_s <= c // s <= u for every s past P. At
  u = 0 it is sum_z max(c_z - P, 0), eps*'s overshoot at t = P.

- The full sweep forms censuses [lead, #B2, B] with the tree over the
  strip's columns, a chunk at a time, and scores them. With a score that
  one more column raises by at most a slack, it is a branch and bound:
  every (2^k - 1)-column prefix is scored once per row set, and a last
  column is added only to the prefixes whose score plus the slack still
  reaches the best rectangle found so far. One rule (_num_planes) picks
  its census: planes when M <= 64 and P <= 4, for almost balance at the
  P above and for eps* at P = min(max(1, t), 4^k); one-hot otherwise.
  On planes (_plane_sweep) the score is the count above, which only
  falls as columns are added (slack 0). One-hot, almost balance scores
  the top-u count with slack 2^k, the most one column adds, which prunes
  the same pairs, and eps* (t >= 8) every census capped at t.
- The decomposed sweep fixes B1 and a color set U: the best B2 is then
  the 2^k columns with the most U-cells, which the tree over the strip's
  color axis counts, so column sets are never enumerated. Almost balance
  tries the C(2^m, u_size) color sets; eps* the sizes up to
  4^k // (floor(t) + 1), each less |U| t, because sum_z max(c_z - t, 0) =
  max(0, max_U sum_{z in U} c_z - |U| t), and the best U, {z : c_z > t},
  is no larger. Rainbow is always scored this way, per column, and its
  row-set sweep opens with a chunk of at most _OPENING row sets and
  stops after the first chunk in which some rectangle holds K^2 properly
  colored cells, the most any can hold: the first maximum, which is the
  witness, lies in that chunk. A search trial's sweep also stops at the
  count that fails the check, and drops the trial there.

The decomposed sweep runs when there are strictly fewer color sets than
row sets, and the full one when not; eps* at t <= 1 runs its one plane
(a distinct-color count, np.bitwise_or) first. The almost-balance
witness is defined by logical blocks of _block_size(#column sets x M)
row sets: it is the first maximum in block order, b2-major within a
block. Both sweeps return every maximal row set's value exactly (the
branch and bound every other row set's below the maximum), so the
witness step reads the maximal row sets of the first logical block that
holds one, unranks them (_unrank) and sums their one-hot strips; the
sweeps' own blocks never move it. After the full sweep it forms their
censuses with the same tree. After the decomposed one it takes, for each
of them and each color set, the lexicographically first best column
set, which is read off the U-counts per column, and ranks it (_rank):
the smallest rank is b2, at the cost of the sweep itself on those row
sets. No array over all row sets' members is built.

All values are exact: strips, censuses and color-set sums are integers
in the smallest of int8, int16 and int32 that holds the cell bound, 4^k
(K^2 for rainbow), which no count or partial sum exceeds, and plane
overflow sums are kept in the same dtype; eps* subtracts the dyadic
|U| t in float64.

Work is estimated for the sweep that will run before anything is
allocated: rectangle pairs times colors for the full sweep (every
census, which bounds what either branch and bound forms), row sets plus
columns times the ORs one tree writes for eps*'s first plane (which its
branch and bound never exceeds), row sets x 2^n x M x (2^n + #color
sets) for the decomposed one and row sets x 2^n x 2^n x M per
orientation for rainbow. The last two price dense products, more than
their trees' adds. Runs past OPS_LIMIT are refused unless explicitly
overridden. The full sweep sizes its blocks in bytes, so a block of
planes holds no more memory than a block of one-hot counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import prng
from .machine import FeasibilityError
from .tables import TwoSourceTable, gen_random

OPS_LIMIT = 10_000_000_000


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


def _binomials(side: int, size: int) -> np.ndarray:
    """[size + 1, side - size + 1] int64: C(c + t, c) at [c, t].

    These are the binomials C(side - 1 - v, size - 1 - j) that count the
    size-subsets taking column v as member j, at c = size - 1 - j and
    t = side - size - (v - j), the non-members left after v; none exceeds
    C(side, size). Each row is the running sum of the one above (and each
    column of the one to its left), so the shorter side sets the number
    of passes.
    """
    table = np.ones((size + 1, side - size + 1), dtype=np.int64)
    if size + 1 <= side - size + 1:
        for c in range(1, size + 1):
            np.cumsum(table[c - 1], out=table[c])
    else:
        for t in range(1, side - size + 1):
            np.cumsum(table[:, t - 1], out=table[:, t])
    return table


def _unrank(side: int, size: int, rank) -> np.ndarray:
    """The members of the size-subset of range(side) at lexicographic
    rank, [..., size] for an int or an array of ranks.

    Member j is column j + i for the i >= the previous member's i (its
    non-members before it): through[i] counts the subsets whose member j
    lies at or before column j + i, so with the subsets passed over
    before the previous member's i added back, one search finds i, and
    the rank left drops by the subsets passed over before it.
    """
    rank = np.asarray(rank, dtype=np.int64)
    members = np.empty((*rank.shape, size), dtype=np.intp)
    # [size, side - size + 1]: member j's counts, from its first column on
    counts = _binomials(side, size)[:size][::-1, ::-1]
    through = np.cumsum(counts, axis=1)
    passed = through - counts
    left, i = rank, np.zeros(rank.shape, dtype=np.intp)
    for j in range(size):
        target = left + passed[j, i]
        i = np.searchsorted(through[j], target, side="right")
        left = target - passed[j, i]
        members[..., j] = j + i
    return members


def _rank(masks: np.ndarray, size: int) -> np.ndarray:
    """The lexicographic rank of each size-subset of range(side) given as
    a bool mask [..., side]: over each column v that is not a member and
    lies before the last member, C(side - 1 - v, size - 1 - #members
    before v), the subsets that agree before v and take v instead."""
    side = masks.shape[-1]
    before = np.cumsum(masks, axis=-1) - masks
    passed = ~masks & (before < size)
    # a passed column has members left and a non-member after it
    c = np.where(passed, size - 1 - before, 0)
    t = np.where(passed, side - size - (np.arange(side) - before), 0)
    return np.where(passed, _binomials(side, size)[c, t], 0).sum(axis=-1)


def _subset_tree(
    items: np.ndarray, size: int, op: Callable, width: Optional[int] = None,
    below: Optional[np.ndarray] = None, first: Optional[int] = None,
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
    starts the next chunk, and one wider than the buffer is split. first,
    when given, caps the first chunk at first subsets; the chunks still
    concatenate to the same subsets in the same order. A chunk holds only
    until the next is drawn, and may be a view of items, so callers must
    not write to it. below, when given, is the level under the last one,
    the (size - 1)-subsets of items 1..n - 1 as the tree would form them,
    and only the last level is formed.
    """
    lead, n, rest = items.shape[0], items.shape[1], items.shape[2:]
    if size == 0:
        yield np.zeros((lead, 1, *rest), items.dtype)
        return
    if size == 1:
        width = width or n
        start = first if first and first < width else 0
        if start:
            yield items[:, :start]
        yield from (items[:, v : v + width] for v in range(start, n, width))
        return
    width = min(width or math.comb(n - 1, size - 1), math.comb(n, size))
    level = below
    if level is None:
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
    pos, cap = 0, min(first or width, width)
    for v in range(n - size + 1):
        group = level[:, level.shape[1] - math.comb(n - 1 - v, size - 1) :]
        if pos and pos + group.shape[1] > cap:
            yield last[:, :pos]
            pos, cap = 0, width
        while group.shape[1]:
            take = min(cap - pos, group.shape[1])
            op(group[:, :take], items[:, v : v + 1], out=last[:, pos : pos + take])
            group, pos = group[:, take:], pos + take
            if pos == cap:
                yield last[:, :pos]
                pos, cap = 0, width
    if pos:
        yield last[:, :pos]


def _one_hot(colors: np.ndarray, num_colors: int, dtype: type) -> np.ndarray:
    """[M, side (columns), side (rows)]: a 1 at [z, v, u] iff colors[u, v] == z."""
    z = np.arange(num_colors).reshape(-1, 1, 1)
    return (colors.T[None] == z).astype(dtype)


def _count_dtype(bound: int) -> type:
    """The smallest of int8, int16 and int32 that holds counts up to bound."""
    return next(t for t in (np.int8, np.int16, np.int32) if bound <= np.iinfo(t).max)


def _num_planes(num_colors: int, planes: int) -> int:
    """planes, the bit planes that count a census exactly, or 0 where the
    full sweep keeps the one-hot census: past 64 colors, or past 4 planes.

    The saturating add costs about 3P^2 / 4 passes over P planes, against
    one-hot's single add of M counts and its top-u network. In-process
    A/B timings of the full almost-balance sweep on n=4 tables (2-core
    Xeon, median of 3; random tables at m = 4, 5, 6 and three seeds each,
    constant and two-color tables at m = 4 and 6, k = 2, and a random m=4
    table at k = 3) put the planes at 0.11-0.91 of the one-hot time at
    every P <= 4 (a two-color m=6 table at u=4: 202 -> 83 ms), but at
    0.66-1.13 at P = 5, slower on five of the eight tables with m <= 5.
    """
    return planes if num_colors <= 64 and planes <= 4 else 0


def _planes(colors: np.ndarray, num_colors: int, planes: int) -> np.ndarray:
    """[P, side (columns), side (rows)], each cell's census in bit planes:
    plane s - 1 holds the colors counted at least s times, in the narrowest
    unsigned dtype with a bit per color. A cell sets its color's bit in
    plane 0."""
    dtype = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                 if num_colors <= np.iinfo(t).bits)
    items = np.zeros((planes, *colors.T.shape), dtype)
    np.left_shift(dtype(1), colors.T.astype(dtype), out=items[0])
    return items


def _saturating_add(planes: int) -> Callable:
    """op(a, b, out) adding two bit-plane censuses, counts saturating at
    planes, for _subset_tree and _full: axis 0 of each operand is planes
    slices of equal length, broadcast as for a ufunc, and out may be a.

    With y_s = a_s | b_s (either count past s) and x_k = a_k & b_k (both
    past k), the sum's plane s is y_s | (x_0 & R), R the plane s - 2 of
    the sum of a and b each less one: both counts are then at least 1, so
    the sum passes s exactly when the lowered counts sum past s - 2.
    Unrolled, plane s is y_s | (x_0 & (y_{s-1} | (x_1 & (... y_{s-d}))))
    down to d = s // 2, with | x_d innermost for odd s: about 3P^2 / 4
    passes in all. Planes are written from the highest down, each reading
    only y at or below it. One plane is plain np.bitwise_or.
    """
    if planes == 1:
        return np.bitwise_or
    # one reused buffer spares an allocation (and its page faults) per call
    spare = np.empty(0, np.uint8)

    def add(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
        nonlocal spare
        a, b, out = (x.reshape(planes, -1, *x.shape[1:]) for x in (a, b, out))
        shape, size = out.shape[1:], out[0].nbytes
        if spare.nbytes < (planes // 2 + 1) * size:
            spare = np.empty((planes // 2 + 1) * size, np.uint8)
        tmp, *both = (spare[i * size : (i + 1) * size].view(out.dtype).reshape(shape)
                      for i in range(planes // 2 + 1))
        for k, x in enumerate(both):
            np.bitwise_and(a[k], b[k], out=x)
        np.bitwise_or(a, b, out=out)
        for s in range(planes - 1, 0, -1):
            d = s // 2
            if s % 2:
                inner = np.bitwise_or(out[s - d], both[d], out=out[s] if d == 0 else tmp)
            else:
                inner = out[s - d]
            for d in range(d - 1, -1, -1):
                np.bitwise_and(both[d], inner, out=tmp)
                inner = np.bitwise_or(out[s - d], tmp, out=out[s] if d == 0 else tmp)

    return add


def _overflow(census: np.ndarray, u_size: int, dtype: type) -> np.ndarray:
    """sum_s max(0, N_s - u_size) over a bit-plane census [P, ...], N_s
    the colors in plane s - 1, in dtype.

    The top u_size colors hold min(N_s, u_size) of the cells counted in
    plane s - 1's layer, so a census's cells less this sum are its top
    u_size count, exactly when N_s <= u_size past plane P: a color counted
    s times takes s cells, so N_s <= cells // s, which is at most u_size
    for every s > cells // (u_size + 1). The sum can only grow as columns
    are added; at u_size 0 it is sum_z min(c_z, P).
    """
    total = np.zeros(census.shape[1:], dtype)
    # np.maximum against a scalar ran 20x slower than against an array of
    # zeros (numpy 2.4, int8)
    zero = np.zeros(census.shape[1:], np.int8)
    for plane in census:
        if plane.dtype == np.uint16:
            # numpy 2.4 counts uint16 4x slower than uint8: count the
            # bytes; the high byte of 257 x (low | high << 8) is low + high
            pairs = np.bitwise_count(plane.view(np.uint8)).view(np.uint16)
            pairs *= 257
            pairs >>= 8
            excess = pairs.astype(np.int8)
        else:
            # at most 64 colors, so the uint8 popcount reads the same as int8
            excess = np.bitwise_count(plane).view(np.int8)
        if u_size:
            excess -= u_size
            np.maximum(excess, zero, out=excess)
        total += excess
    return total


def _block_size(row_cost: int, values: int = 1 << 23) -> int:
    """Row sets per block when each one expands into row_cost values.

    The block size depends only on the problem dimensions: row_cost is
    how many values the caller expands each row set into (the column
    tree's working set in bytes for the full sweep, side x M
    counts for rainbow, side x max(M, #color sets) for the decomposed
    one), so a block's working set stays near the given number. The
    almost-balance witness's logical blocks are priced at column sets x
    M, the censuses the full sweep's witness step forms per row set; they
    fix which maximal row sets the witness is drawn from, and so bound
    how many the witness step reads.
    """
    return max(1, min(4096, values // row_cost))


# Row sets in a bounded sweep's opening chunk, which is all a sweep whose
# first row sets reach its bound scores. On sweep-colors' r5, r6 and
# search jobs (2-vCPU host, in-process medians of 30 passes, two runs per
# value) openings of 16 and 64 ran 2.2-2.3, 2.5-2.8 and 2.6-2.7 reference
# ms, 1 and 256 up to 10% slower, 1,024 up to 20%; a K=8 sweep that never
# reaches its bound pays one more chunk at any value.
_OPENING = 64


def _per_row_set(
    items: np.ndarray, rect: int, block: int,
    score: Callable[[np.ndarray], np.ndarray], op: Callable = np.add,
    bound: Optional[int] = None,
) -> np.ndarray:
    """score(strip) for every rect-row set, in order, block row sets at a
    time. items is [M, side (columns), side (rows)], and a row set's strip
    [M, side] is op folded over its rows; score maps a block's strips
    [M, side, B] to one value per row set.

    bound, when given, is a score at which the sweep may stop: it stops
    after the first block whose maximum reaches it and returns the scores
    up to the end of that block. Where no score exceeds bound, their first
    maximum is the first maximum of the whole sweep, at the same value. A
    bounded sweep's first block is an opening chunk of at most _OPENING
    row sets, so a bound reached at once costs no full block."""
    lanes = items.reshape(-1, items.shape[2])
    scores = []
    first = _OPENING if bound is not None else None
    for chunk in _subset_tree(lanes, rect, op, block, first=first):
        scores.append(score(chunk.reshape(*items.shape[:2], -1)))
        if bound is not None and scores[-1].max() >= bound:
            break
    return np.concatenate(scores)


def _full(
    items: np.ndarray, rect: int, score: Callable[[np.ndarray], np.ndarray],
    op: Callable = np.add, nbytes: int = 1 << 25, slack: Optional[int] = None,
) -> np.ndarray:
    """The full sweep: for every rect-row set, the most score(census)
    over its rectangles, exact wherever it is the maximum over all
    rectangles and strictly below that maximum everywhere else. items and
    op are as for _per_row_set, with one-hot counts or bit planes as the
    lead axis; score maps censuses [lead, ...] to one value per census,
    [...].

    With slack None every column set's census is scored. Otherwise slack
    bounds what one more column can add to a score, and the sweep is a
    branch and bound over the column sets P + {v}: P is a prefix, a
    (rect - 1)-subset of columns 1..side - 1 (the column tree's level
    below rect), and v < min(P). Each block scores every (prefix, row
    set) pair once, then extends its pairs over their v one score level
    at a time, best first. The threshold T is the best extension so far,
    a real rectangle's score, and carries over to later blocks; a level s
    with s + slack < T cannot reach T, so it and every level below it are
    skipped, and their pairs stand as s + slack < T in the result. When a
    block's first level alone would extend more than a quarter of its
    rectangles (many tied prefixes), the block forms the column tree's
    last level from its prefixes instead; when its levels together extend
    more than a quarter, every later block is swept densely. A block thus
    never forms more censuses than the dense sweep does.

    A block's column tree holds a level below rect and one last-level
    chunk, each at most C(side - 1, rect - 1) censuses per lead slice and
    row set; blocks keep that working set near nbytes.
    """
    side = items.shape[1]
    num_sets, num_prefixes = math.comb(side, rect), math.comb(side - 1, rect - 1)
    # On sweep-colors' m=6 u=4 job (2-core Xeon) one-hot blocks of 576 row
    # sets ran 1.6x faster than blocks of 72 in the dense sweep. Its
    # three uint64 planes make blocks of 1,536 at the same bytes; 2^22 to
    # 2^26 bytes ran within 20% of each other there, and 2^20 2x slower.
    block = _block_size(2 * num_prefixes * items.shape[0] * items.itemsize, nbytes)

    def dense(strip: np.ndarray, below: Optional[np.ndarray] = None) -> np.ndarray:
        chunks = _subset_tree(strip, rect, op, below=below)
        return np.max([score(c).max(axis=0) for c in chunks], axis=0)

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
        nonlocal pruning
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

        level = int(scores.max())
        if level + slack < threshold:
            return best.reshape(-1, width).max(axis=0)
        top = scores == level
        spent = int(reach @ top.reshape(num_prefixes, width).sum(axis=1))
        if 4 * spent > num_sets * width:
            # past a quarter of the block's rectangles the tree's last
            # level costs less than gathering each extension, and ties
            # this wide tend to recur: it is formed from the prefixes, and
            # the later blocks are swept densely
            pruning = False
            return dense(strip, censuses)
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
            spent += int(cand_reach[sel].sum())
            extend(compact, sel, cand[sel])
            level -= 1
        # the block finishes by extension, which forms each of its
        # rectangles at most once; past a quarter, later blocks go dense
        pruning = 4 * spent <= num_sets * width
        return best.reshape(-1, width).max(axis=0)

    return _per_row_set(items, rect, block, pruned, op)


def _plane_sweep(table: TwoSourceTable, k: int, planes: int, u_size: int) -> np.ndarray:
    """_full over the 2^k-row sets on censuses in planes bit planes, each
    scored as cells less _overflow(census, u_size), which only falls as
    columns are added."""
    cells = 4**k
    # 2^24-byte blocks at every plane count. On sweep-colors' m=6 tables
    # (2-core Xeon) 768 row sets over three planes ran as fast as 2^25
    # bytes and peaked 9-13 MB lower; 2,304 over one plane ran 3.6-5.4 ms
    # against 4.1-6.0 ms at 2^22 bytes, at a 47 MB peak instead of 39 MB
    return _full(
        _planes(table.colors, table.num_colors, planes), 1 << k,
        lambda census: cells - _overflow(census, u_size, _count_dtype(cells)),
        _saturating_add(planes), 1 << 24, slack=0,
    )


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
    side: int, rect: int, num_colors: int, num_color_sets: int, planes: int,
    override: bool, one_plane_first: bool = False,
) -> str:
    """Guard the sweep that will run and return its name: "decomposed",
    or the full sweep on "planes" (planes from _num_planes) or "one-hot".

    The decomposed sweep runs when there are fewer color sets than row
    sets, priced at a dense product per strip and per color set, which
    over-prices the adds of its row and color-set trees. The full sweep is
    priced at a census per rectangle: the dense one-hot sweep, an upper
    bound on the censuses either branch and bound forms. With
    one_plane_first (eps*, whose decomposed sweep tries every color-set
    size) a single plane runs first, priced at exactly the ORs the dense
    sweep's trees write, once over rows and once per row set over columns,
    which bounds its branch and bound as well: that writes a prefix tree
    per row set, the tree's levels below the last, then at most one OR
    per rectangle. Weighting each estimate in seconds is left open.
    """
    num_sets = math.comb(side, rect)
    full = "planes" if planes else "one-hot"
    if one_plane_first and planes == 1:
        # one tree writes sum_{j=2..rect} C(side - rect + j, j) ORs per lane
        ors = math.comb(side + 1, rect) - side + rect - 2
        sweep, ops = full, (num_sets + side) * ors
    elif num_color_sets < num_sets:
        sweep, ops = "decomposed", num_sets * side * num_colors * (side + num_color_sets)
    else:
        sweep, ops = full, num_sets * num_sets * num_colors
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
    planes = _num_planes(num_colors, max(1, rect * rect // (u_size + 1)))
    sweep = _plan(side, rect, num_colors, math.comb(num_colors, u_size), planes, override)
    return _check_almost(table, k, d, eps, u_size, sweep)


def _check_almost(
    table: TwoSourceTable, k: int, d: int, eps: float, u_size: int, sweep: str
) -> BalanceReport:
    """balance_check_almost on the named sweep ("decomposed", "planes"
    or "one-hot"), unguarded."""
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
    elif sweep == "planes":
        best = _plane_sweep(table, k, max(1, rect * rect // (u_size + 1)), u_size)
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
    if d >= table.m:
        # t >= 4^k, and no color fills more than the 4^k cells
        return 0.0
    # t = 2^(2k+d-m); at t <= 1 every color present counts once
    planes = _num_planes(num_colors, max(1, rect * rect >> (table.m - d)))
    sweep = _plan(side, rect, num_colors, (1 << num_colors) - 1, planes, override,
                  one_plane_first=True)
    return _eps_star(table, k, d, sweep)


def _eps_star(table: TwoSourceTable, k: int, d: int, sweep: str) -> float:
    """measure_eps_star on the named sweep, unguarded.

    With t = cells * 2^-(m-d), a power of two, sum_z max(c_z - t, 0) is
    max(0, max_U sum_{z in U} c_z - |U| t) in the decomposed sweep and
    cells - sum_z min(c_z, max(1, t)) in the others; below t = 1 the
    overshoot is cells - t times the number of colors present.
    """
    rect = 1 << k
    cells = rect * rect
    threshold = cells * 2.0 ** (-(table.m - d))
    # no count exceeds cells, so a larger t caps nothing (and might not
    # fit the count dtype)
    cap = min(max(1, int(threshold)), cells)
    if sweep == "planes":
        best = _plane_sweep(table, k, cap, 0)
    else:
        items = _one_hot(table.colors, table.num_colors, _count_dtype(cells))
        if sweep == "decomposed":
            # the best U, {z : c_z > t}, holds colors of floor(t) + 1 cells or more
            most = min(table.num_colors, cells // (int(threshold) + 1))
            if not most:
                return 0.0
            best = _decomposed(items, rect, range(1, most + 1), threshold)
            return max(0.0, float(best.max())) / cells
        # This score can only drop as columns are added, but _full's
        # branch and bound with slack 0 ran 1.2-1.7x slower than the dense
        # sweep at k=2 on n=4 m=6 tables (2-core Xeon), where many
        # prefixes tie, so the one-hot sweep stays dense.

        def uncovered(census: np.ndarray) -> np.ndarray:
            # np.minimum against a scalar ran 4x slower than against an
            # array (numpy 2.4, int8)
            caps = np.full(census.shape[1:], cap, census.dtype)
            return cells - np.minimum(census, caps).sum(axis=0, dtype=census.dtype)

        best = _full(items, rect, uncovered)
    covered = cells - int(best.max())
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
    integers, never fractions: an orientation passes when cells * divisor
    <= 2 * K^2, that is when cells < floor(2K^2 / divisor) + 1.

    Each orientation's row-set sweep opens with a chunk of at most
    _OPENING row sets, then goes on a block at a time, and stops after the
    first chunk whose best rectangle is fully colored, K^2 cells: no later
    row set scores more, and the witness is the first maximum
    (np.argmax), so the worst count, the rectangle, its color sets and
    the verdict are those of the whole sweep. The guard still prices the
    whole sweep, a dense strip product per row set and orientation, row
    sets x 2^n x 2^n x M, which bounds the work that runs (it over-prices
    the row tree's adds, and the blocks a stop skips); weighting it in
    seconds is left open.
    """
    return _rainbow(table, rect_side, divisor, override, fail_fast=False)


def _rainbow(
    table: TwoSourceTable, rect_side: int, divisor: int, override: bool,
    fail_fast: bool,
) -> Optional[RainbowReport]:
    """rainbow_check's report; with fail_fast, None once an orientation
    is known to fail.

    An orientation fails when its worst rectangle holds fail =
    floor(2K^2 / divisor) + 1 cells or more. With fail_fast each sweep
    stops at min(K^2, fail) cells, and one that reaches fail ends the
    check: the other orientation and the witnesses are never formed. A
    check that is not ended passes, and each of its sweeps either ran to
    the end or stopped at K^2, so its report is rainbow_check's. At
    divisor <= 2, fail > K^2 and fail_fast changes nothing.
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
    # no rectangle holds more than K^2 cells
    cell_bound = rect_side * rect_side
    fail = 2 * cell_bound // divisor + 1
    stop = min(cell_bound, fail) if fail_fast else cell_bound
    counts = _count_dtype(cell_bound)

    def cells(strip: np.ndarray) -> np.ndarray:
        # each column's top set_size colors, then the best rect_side columns
        return _top_sum(_top_sum(strip, set_size), rect_side)

    def one_side(colors: np.ndarray, per_set: np.ndarray) -> RainbowSide:
        b1 = int(np.argmax(per_set))
        rows = _unrank(side, rect_side, b1)
        strip = _one_hot(colors[rows], num_colors, counts).sum(axis=2, dtype=counts)
        col_order = np.lexsort((np.arange(side), -_top_sum(strip, set_size)))
        chosen = tuple(sorted(int(v) for v in col_order[:rect_side]))
        sets = []
        for v in chosen:
            z_order = np.lexsort((np.arange(num_colors), -strip[:, v]))
            sets.append(tuple(sorted(int(z) for z in z_order[:set_size])))
        worst = int(per_set[b1])
        return RainbowSide(
            passed=worst < fail,
            worst_cells=worst,
            rectangle=Rectangle(tuple(rows.tolist()), chosen),
            color_sets=tuple(sets),
        )

    oriented = (table.colors, table.colors.T)
    sweeps = []
    for colors in oriented:
        one_hot = _one_hot(colors, num_colors, counts)
        sweeps.append(_per_row_set(one_hot, rect_side, block, cells, bound=stop))
        if fail_fast and sweeps[-1].max() >= fail:
            return None
    per_column, per_row = map(one_side, oriented, sweeps)
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

    Each trial is rainbow_check with its sweeps stopped at the fail
    count (_rainbow's fail_fast): a trial is dropped as soon as one
    orientation reaches floor(2K^2 / D) + 1 cells, without its other
    orientation or a witness, and the report of the table found is
    rainbow_check's.
    """
    if max_trials < 1:
        raise ValueError("max_trials must be positive")
    for i in range(max_trials):
        trial_seed = (seed + i) & prng.MASK64
        table = gen_random(n, m, trial_seed)
        # a trial that is not dropped passes
        report = _rainbow(table, rect_side, divisor, override, fail_fast=True)
        if report is not None:
            return RainbowSearchResult(
                found=True, trials=i + 1, seed=trial_seed, table=table, report=report
            )
    return RainbowSearchResult(
        found=False, trials=max_trials, seed=None, table=None, report=None
    )
