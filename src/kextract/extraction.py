"""Extraction guarantees checked against exact complexity tables.

Everything here consumes ComplexityTables, so every claim is a finite,
certified statement about the RM-1 machine: dependency scores,
source-pair classes, output deficiencies, and the counting-based
demonstrations (popular colors, popular output prefixes, and the
popularity iteration that recovers a shared range set from bounded
advice).

One rule covers NOT_FOUND: it certifies C >= l_max + 1. Floors,
histogram keys and hardest-preimage witnesses are numpy over
ComplexityTable.lower_bounds rows, where NOT_FOUND is that floor, and
reports carry from_bound of it; a dependency or a range membership
C <= k_adv needs an exact value, so there NOT_FOUND is unknown. Popular
values tie to the smallest, witnesses to the first in pair or value order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .balance import measure_eps_star
from .bits import EMPTY, BitString
from .calibration import DELTA_MARGIN
from .oracle import NOT_FOUND, Complexity, ComplexityTable
from .tables import SingleSourceTable, TwoSourceTable, gen_constant


def dependency(
    table: ComplexityTable, x: BitString, y: BitString
) -> Optional[int]:
    """Largest complexity drop either string suffers given the other.

    dependency = max(C(x) - C(x|y), C(y) - C(y|x)), using the table's
    empty-condition entries for the unconditional values. Returns None
    when any of the four entries is NOT_FOUND: a missing entry only
    bounds the drop on one side, so the score is indeterminate rather
    than a number.
    """
    c_x = table.complexity(x)
    c_xy = table.complexity(x, y)
    c_y = table.complexity(y)
    c_yx = table.complexity(y, x)
    if NOT_FOUND in (c_x, c_xy, c_y, c_yx):
        return None
    return max(c_x - c_xy, c_y - c_yx)


@dataclass(frozen=True, eq=False)
class SourcePairClass:
    """All pairs with complexity floor k and dependency at most alpha.

    `index` holds the members as a read-only [size, 2] intp array of
    (x, y) rows in class order; `pairs` builds the same members as a
    tuple of tuples when read. An array field cannot take part in a
    generated __eq__ or __hash__, so classes compare by identity.
    """

    n: int
    k: int
    alpha: int
    index: np.ndarray
    indeterminate: int

    def __post_init__(self) -> None:
        index = self.index
        if not (
            isinstance(index, np.ndarray)
            and index.dtype.kind in "iu"
            and index.ndim == 2
            and index.shape[1] == 2
        ):
            raise ValueError("class index must be an integer [size, 2] array")
        if index.size and (index.min() < 0 or index.max() >= 1 << self.n):
            raise ValueError(f"class index has a member outside [0, 2^{self.n})")
        # The class holds its own read-only copy, so no caller can change it.
        index = index.astype(np.intp)
        index.flags.writeable = False
        object.__setattr__(self, "index", index)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(*self.index.T.tolist()))

    @property
    def size(self) -> int:
        return len(self.index)


def enumerate_class(
    table: ComplexityTable, k: int, alpha: int
) -> SourcePairClass:
    """Certified members of the (k, alpha) class under a full table.

    A pair joins only when both floors C(x), C(y) >= k are certified by
    lower_bounds and its dependency is a known number <= alpha. Pairs
    whose dependency is indeterminate are excluded and counted, keeping
    the class sound rather than complete.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    n = table.n
    ok = np.flatnonzero(table.lower_bounds() >= k)
    c = table.entries(EMPTY)[ok].astype(np.int64)
    # given[i, j] = C(ok[j] | ok[i]), so C(y | x) = given and C(x | y) = given.T
    given = table.rows(BitString(n, x) for x in ok.tolist())[:, ok].astype(np.int64)
    unknown = (c[:, None] < 0) | (c[None, :] < 0) | (given < 0) | (given.T < 0)
    dep = np.maximum(c[:, None] - given.T, c[None, :] - given)
    return SourcePairClass(
        n=n,
        k=k,
        alpha=alpha,
        index=ok[np.argwhere(~unknown & (dep <= alpha))],
        indeterminate=int(unknown.sum()),
    )


@dataclass(frozen=True)
class DeficiencyReport:
    """Output complexity census of a table over one source-pair class.

    Deficiency of a pair is m - C(f(x, y)); NOT_FOUND outputs land in
    the histogram at m - (l_max + 1), a certified upper bound on their
    deficiency that cannot collide with any exact value. The histogram
    always totals the class size.
    """

    m: int
    class_size: int
    histogram: dict[int, int]
    not_found: int
    min_output_complexity: Complexity
    max_deficiency: Optional[int]
    worst_witness: Optional[tuple[int, int, int]]
    l_max: int

    def is_extractor(self, d: int) -> bool:
        """Every class output certified to satisfy C(f(x,y)) >= m - d."""
        if self.class_size == 0:
            return True
        if self.not_found and self.l_max + 1 < self.m - d:
            return False
        if self.min_output_complexity is NOT_FOUND:
            return True
        return self.min_output_complexity >= self.m - d


def class_outputs(
    table: TwoSourceTable, cls: SourcePairClass
) -> tuple[np.ndarray, np.ndarray]:
    """The class index itself, a read-only [size, 2] array in class
    order, and the table's output on each pair."""
    if table.n != cls.n:
        raise ValueError("table and class disagree on n")
    xs, ys = cls.index.T
    return cls.index, table.colors[xs, ys]


def extraction_check(
    table: TwoSourceTable,
    cls: SourcePairClass,
    output_oracle: ComplexityTable,
) -> DeficiencyReport:
    """Exact deficiency census of table outputs over a class.

    Histogram keys are m minus each output's lower bound; the witness is
    the first class pair whose output has the least bound.
    """
    pairs, outs = class_outputs(table, cls)
    if output_oracle.n != table.m:
        raise ValueError("output oracle must target m-bit strings")
    m = table.m
    bounds = output_oracle.lower_bounds()[outs]
    keys, counts = np.unique(m - bounds, return_counts=True)
    i = int(np.argmin(bounds)) if bounds.size else None
    min_c = NOT_FOUND if i is None else output_oracle.from_bound(bounds[i])
    found = min_c is not NOT_FOUND
    return DeficiencyReport(
        m=m,
        class_size=cls.size,
        histogram=dict(zip(keys.tolist(), counts.tolist())),
        not_found=int((bounds > output_oracle.l_max).sum()),
        min_output_complexity=min_c,
        max_deficiency=m - min_c if found else None,
        worst_witness=(*pairs[i].tolist(), int(outs[i])) if found else None,
        l_max=output_oracle.l_max,
    )


@dataclass(frozen=True)
class PopularColorReport:
    """Pigeonhole witness: the most popular color has a complex preimage."""

    n: int
    m: int
    color: int
    preimages: int
    witness_x: int
    witness_complexity: Complexity
    floor: int
    preimage_bound_met: bool
    floor_certified: bool


def popular_color_demo(
    table: SingleSourceTable, oracle: ComplexityTable
) -> PopularColorReport:
    """Most popular color of a line table and its hardest preimage.

    The popular color has at least 2^(n-m) preimages (checked as the
    exact integer comparison count * 2^m >= 2^n), and the hardest
    preimage has complexity at least n - m: fewer than 2^(n-m) strings
    fit below that, so the preimage set cannot sit entirely under it.
    """
    if oracle.n != table.n:
        raise ValueError("oracle must target the table inputs")
    # argmax takes the first maximum: the smallest color, the first x.
    color = int(np.argmax(np.bincount(table.colors)))
    preimages = np.flatnonzero(table.colors == color)
    bounds = oracle.lower_bounds()[preimages]
    best = int(np.argmax(bounds))
    floor = table.n - table.m
    return PopularColorReport(
        n=table.n,
        m=table.m,
        color=color,
        preimages=preimages.size,
        witness_x=int(preimages[best]),
        witness_complexity=oracle.from_bound(bounds[best]),
        floor=floor,
        preimage_bound_met=preimages.size << table.m >= 1 << table.n,
        floor_certified=bool(bounds[best] >= floor),
    )


@dataclass(frozen=True)
class PrefixReport:
    """Popular output prefix forcing a complex-but-dependent pair."""

    n: int
    m: int
    alpha: int
    prefix: int
    pair_count: int
    witness: tuple[int, int]
    witness_complexity: Complexity
    floor: int
    pair_bound_met: bool
    floor_certified: bool
    output_deficiency: Optional[int]


def popular_prefix_demo(
    table: TwoSourceTable,
    alpha: int,
    pair_oracle: ComplexityTable,
    output_oracle: Optional[ComplexityTable] = None,
) -> PrefixReport:
    """Exhibit a high-complexity pair that any table fails to refresh.

    The most popular alpha-bit output prefix covers at least 2^(2n -
    alpha) cells, and among those cells some concatenation x||y has
    complexity at least 2n - alpha by counting. For that pair the table
    output is pinned to alpha bits of slack: with the optional output
    oracle the report also carries m - C(f(x, y)), the deficiency the
    pinned prefix forces.
    """
    if not 0 <= alpha <= table.m:
        raise ValueError("alpha must be in [0, m]")
    if pair_oracle.n != 2 * table.n:
        raise ValueError("pair oracle must target 2n-bit strings")
    n = table.n
    # Cell x * 2^n + y is the value of the 2n-bit target x||y.
    prefixes = table.colors.reshape(-1) >> (table.m - alpha)
    prefix = int(np.argmax(np.bincount(prefixes)))
    cells = np.flatnonzero(prefixes == prefix)
    bounds = pair_oracle.lower_bounds()[cells]
    best = int(np.argmax(bounds))
    witness = divmod(int(cells[best]), 1 << n)
    floor = 2 * n - alpha
    deficiency = None
    if output_oracle is not None:
        c_out = output_oracle.complexity(BitString(table.m, table.color(*witness)))
        if c_out is not NOT_FOUND:
            deficiency = table.m - c_out
    return PrefixReport(
        n=n,
        m=table.m,
        alpha=alpha,
        prefix=prefix,
        pair_count=cells.size,
        witness=witness,
        witness_complexity=pair_oracle.from_bound(bounds[best]),
        floor=floor,
        pair_bound_met=cells.size << alpha >= 1 << 2 * n,
        floor_certified=bool(bounds[best] >= floor),
        output_deficiency=deficiency,
    )


@dataclass(frozen=True)
class RangeProcedureReport:
    """Outcome of the popularity iteration over bounded-advice ranges.

    The procedure marks all inputs, then repeatedly picks the most
    popular unchosen output among marked inputs' ranges (popularity
    threshold 1/T of the marked set, T = 2^m + 1) and keeps only inputs
    whose range contains it. It stops after K = 2^(k_adv+1) - 1 picks or
    when no output is popular enough; either way, inputs whose range
    equals the chosen set number at least 2^n / T^K, and that bound is
    verified as exact integer arithmetic.
    """

    n: int
    m: int
    k_adv: int
    temperature: int
    max_steps: int
    chosen: tuple[int, ...]
    case: str
    witness_count: int
    witnesses: tuple[int, ...]
    count_bound_met: bool
    ranges_match: bool


def compute_range(
    table: ComplexityTable, x: BitString, k_adv: int
) -> set[int]:
    """All m-bit values with C(z | x) <= k_adv; NOT_FOUND never joins."""
    entries = table.entries(x)
    return {zv for zv in range(entries.size) if 0 <= int(entries[zv]) <= k_adv}


def popular_range_procedure(
    table: ComplexityTable, k_adv: int
) -> RangeProcedureReport:
    """Recover a single shared range set by popularity voting.

    `table` must hold m-bit targets conditioned on every n-bit string.
    Counting caps each range size at K = 2^(k_adv+1) - 1, so if the
    iteration completes K steps every survivor's range is exactly the
    chosen set; if it stops early, strict popularity accounting leaves
    at least a 1/T fraction of survivors whose range is exactly the
    chosen set. Both cases give witness_count * T^K >= 2^n.
    """
    if k_adv < 0:
        raise ValueError("k_adv must be nonnegative")
    lengths = {y.length for y in table.conditions if y.length > 0}
    if len(lengths) != 1:
        raise ValueError("table must be conditioned on strings of one length")
    n = lengths.pop()
    if sum(1 for y in table.conditions if y.length == n) != (1 << n):
        raise ValueError("table must cover every n-bit condition")
    m = table.n
    temperature = (1 << m) + 1
    max_steps = (1 << (k_adv + 1)) - 1

    # in_range[x, z]: C(z | x) <= k_adv is certified, so NOT_FOUND stays out.
    entries = table.rows(BitString(n, xv) for xv in range(1 << n))
    in_range = (entries >= 0) & (entries <= k_adv)
    marked = np.ones(1 << n, dtype=bool)
    is_chosen = np.zeros(1 << m, dtype=bool)
    chosen: list[int] = []
    case = "exhausted"
    for _ in range(max_steps):
        counts = np.where(is_chosen, -1, in_range[marked].sum(axis=0))
        popular = counts * temperature >= np.count_nonzero(marked)
        if not popular.any():
            case = "stalled"
            break
        # The most popular candidate, ties to the smallest value.
        pick = int(np.argmax(np.where(popular, counts, -1)))
        chosen.append(pick)
        is_chosen[pick] = True
        marked &= in_range[:, pick]

    witnesses = tuple(np.flatnonzero((in_range == is_chosen).all(axis=1)).tolist())
    count = len(witnesses)
    # T >= 2, so T^K >= 2^n as soon as K >= n: capping the exponent at n
    # gives the same integer test without raising T to a huge power.
    bound_met = count * temperature ** min(max_steps, n) >= 1 << n
    # Re-derive each witness range straight from the oracle rather than
    # trusting the matrix the iteration used.
    ranges_match = all(
        compute_range(table, BitString(n, xv), k_adv) == set(chosen)
        for xv in witnesses
    )
    return RangeProcedureReport(
        n=n,
        m=m,
        k_adv=k_adv,
        temperature=temperature,
        max_steps=max_steps,
        chosen=tuple(chosen),
        case=case,
        witness_count=count,
        witnesses=witnesses,
        count_bound_met=bound_met,
        ranges_match=ranges_match,
    )


@dataclass(frozen=True)
class EquivalenceReport:
    """Balance-derived class guarantee, compared against a constant table."""

    n: int
    m: int
    k: int
    d: int
    delta: int
    eps_star: float
    alpha: int
    alpha_capped: bool
    class_size: int
    indeterminate: int
    table_report: DeficiencyReport
    constant_report: DeficiencyReport
    separated: bool


def equivalence_report(
    table: TwoSourceTable,
    k: int,
    d: int,
    cond_oracle: ComplexityTable,
    output_oracle: ComplexityTable,
    delta: int = DELTA_MARGIN,
    override: bool = False,
) -> EquivalenceReport:
    """Translate a table's measured eps* into a class-deficiency claim.

    alpha = ceil(log2(1/eps*)) + d + 1 (capped at 2n when eps* vanishes
    or the formula overshoots), the class is taken at floor k + delta,
    and the table's deficiency census over that class is laid beside the
    all-zeros constant table's census. `separated` records whether the
    table's worst deficiency is strictly below the constant table's.
    """
    eps_star = measure_eps_star(table, k, d, override=override)
    cap = 2 * table.n
    if eps_star <= 0:
        alpha, capped = cap, True
    else:
        raw = math.ceil(math.log2(1.0 / eps_star)) + d + 1
        alpha, capped = min(raw, cap), raw > cap
    cls = enumerate_class(cond_oracle, k + delta, alpha)
    table_report = extraction_check(table, cls, output_oracle)
    constant = gen_constant(table.n, table.m, 0)
    constant_report = extraction_check(constant, cls, output_oracle)
    separated = (
        table_report.max_deficiency is not None
        and constant_report.max_deficiency is not None
        and table_report.max_deficiency < constant_report.max_deficiency
    )
    return EquivalenceReport(
        n=table.n,
        m=table.m,
        k=k,
        d=d,
        delta=delta,
        eps_star=eps_star,
        alpha=alpha,
        alpha_capped=capped,
        class_size=cls.size,
        indeterminate=cls.indeterminate,
        table_report=table_report,
        constant_report=constant_report,
        separated=separated,
    )
