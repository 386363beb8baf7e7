"""Independent brute-force reference implementations.

Everything in here trades speed for obviousness: plain loops over the
full object space, no shortcuts shared with the package code. Tests
compare the optimized implementations against these on small instances
and then freeze the values the references produce.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Optional

import numpy as np

from kextract.balance import RainbowSearchResult, rainbow_check
from kextract.bits import EMPTY, BitString
from kextract.distributions import FlatSource, dist_to_min_entropy, push_forward
from kextract.experiments import HittingReport
from kextract.extraction import (
    DeficiencyReport,
    PopularColorReport,
    PrefixReport,
    RangeProcedureReport,
)
from kextract.machine import DEFAULT_BUDGET, FAIL, MachineBudget, run_machine
from kextract.oracle import NOT_FOUND, ComplexityTable, SymmetryReport
from kextract.prng import MASK64
from kextract.tables import gen_random


def brute_complexity_map(
    n: int,
    condition: BitString,
    l_max: int,
    budget: MachineBudget = DEFAULT_BUDGET,
) -> dict[int, int]:
    """Minimal program length per n-bit target, by running every program.

    No parsing shortcuts, no shortest-path relaxation: every program of
    every length up to l_max is executed through run_machine.
    """
    found: dict[int, int] = {}
    for length in range(l_max + 1):
        for value in range(1 << length):
            out = run_machine(BitString(length, value), condition, budget)
            if out is FAIL or out.length != n:
                continue
            if out.value not in found:
                found[out.value] = length
    return found


def fancy_index_matrix(
    n: int, conds: list[BitString], l_max: int, budget: MachineBudget = DEFAULT_BUDGET
) -> np.ndarray:
    """The builder's int32 [condition x target] matrix by the layered
    relaxation with a fancy-index store per edge: every edge forms the
    int64 target of each prefix (each condition row's, for COPY) and
    gathers, compares and stores through those indices.

    Reaches sizes brute_complexity_map cannot (n up to 7, conditions of
    any length), so the builder's strided layer views are compared
    against it on whole matrices.
    """
    unreached = 1 << 30

    def operands(a_top, b_top):
        out = []
        for a in range(1, a_top + 1):
            top = b_top(a)
            fits = max(0, (l_max - 2 * a.bit_length()) // 2)
            out.append((a, min(top, (1 << min(fits, top.bit_length())) - 1)))
        return out

    def relax(dst, rows, targets, cand):
        dst[step:, rows, targets] = np.minimum(dst[step:, rows, targets], cand)

    counts = budget.max_opcodes + 1 if budget.max_opcodes < n else 1
    cap, step = min(n, budget.max_output_bits), int(counts > 1)
    lengths = [y.length for y in conds]
    values = np.array([y.value for y in conds], dtype=object)
    groups = [(length, np.flatnonzero(np.equal(lengths, length))) for length in set(lengths)]
    dist = [np.full((counts, len(conds), 1 << j), unreached, np.int32) for j in range(n + 1)]
    dist[0][0, :, 0] = 0
    for j in range(cap):
        room = cap - j
        src = dist[j][: counts - step]
        v = np.arange(1 << j, dtype=np.int64)
        if l_max >= 2:
            for b in (0, 1):
                relax(dist[j + 1], slice(None), (v << 1) | b, src + 2)
        for a, most in operands(min(j, room), lambda a: room // a):
            mask = (1 << a) - 1
            for r in range(1, most + 1):
                span = a * r
                targets = (v << span) | ((v & mask) * (((1 << span) - 1) // mask))
                cost = 2 * a.bit_length() + 2 * r.bit_length()
                relax(dist[j + span], slice(None), targets, src + cost)
        for length, rows in groups:
            from_rows, bits = src[:, rows], values[rows]
            for a, most in operands(min(room, length), lambda a: length - a + 1):
                mask = (1 << a) - 1
                for q in range(1, most + 1):
                    window = ((bits >> (length - q + 1 - a)) & mask).astype(np.int64)
                    targets = (v << a) | window[:, None]
                    cost = 2 * a.bit_length() + 2 * q.bit_length()
                    relax(dist[j + a], rows[:, None], targets, from_rows + cost)
    best = dist[n].min(axis=0)
    best[best > min(l_max, unreached - 1)] = -1
    return best


def table_to_json(table: ComplexityTable) -> dict:
    """The oracle document whose json.dumps(doc, indent=2, sort_keys=True)
    plus a newline is the table's save_table file; bits are hex-packed
    MSB-first.

    Entries run condition by condition, targets ascending within each;
    NOT_FOUND entries are omitted.
    """
    cond_idx, targets = np.nonzero(table._matrix >= 0)
    values = table._matrix[cond_idx, targets]
    hexes = {x: BitString(table.n, x).pack_hex() for x in np.unique(targets).tolist()}
    return {
        "version": 1,
        "n": table.n,
        "l_max": table.l_max,
        "budget": {
            "out": table.budget.max_output_bits,
            "ops": table.budget.max_opcodes,
        },
        "conditions": [
            {"len": y.length, "hex": y.pack_hex()} for y in table.conditions
        ],
        "entries": [
            {"cond_idx": ci, "target_hex": hexes[x], "c": c}
            for ci, x, c in zip(cond_idx.tolist(), targets.tolist(), values.tolist())
        ],
    }


def _lookup(table, x: int, y: Optional[int] = None) -> Optional[int]:
    """C(x | y) from a ComplexityTable as an int, None for NOT_FOUND;
    y=None is lambda."""
    cond = EMPTY if y is None else BitString(table.n, y)
    value = table.complexity(BitString(table.n, x), cond)
    return value if isinstance(value, int) else None


def brute_class(table, k: int, alpha: int) -> tuple[list[tuple[int, int]], int]:
    """(members, indeterminate) of the (k, alpha) class, pair by pair.

    Both floors must be certified (NOT_FOUND certifies C > l_max); a pair
    with any of its four entries NOT_FOUND is indeterminate, otherwise
    it joins when max(C(x) - C(x|y), C(y) - C(y|x)) <= alpha.
    """
    side = 1 << table.n

    def floor_ok(c):
        return table.l_max + 1 >= k if c is None else c >= k

    members, indeterminate = [], 0
    for x in range(side):
        for y in range(side):
            if not (floor_ok(_lookup(table, x)) and floor_ok(_lookup(table, y))):
                continue
            c_x, c_xy = _lookup(table, x), _lookup(table, x, y)
            c_y, c_yx = _lookup(table, y), _lookup(table, y, x)
            if None in (c_x, c_xy, c_y, c_yx):
                indeterminate += 1
            elif max(c_x - c_xy, c_y - c_yx) <= alpha:
                members.append((x, y))
    return members, indeterminate


def brute_symmetry(singles, pairs) -> SymmetryReport:
    """symmetry_report pair by pair: |C(x||y) - (C(x) + C(y|x))| for
    every (x, y) whose three entries are found, the rest skipped."""
    n = singles.n
    if pairs.n != 2 * n:
        raise ValueError("pair table must target strings of length 2n")
    hist: dict[int, int] = {}
    skipped = 0
    for x in range(1 << n):
        for y in range(1 << n):
            c_x, c_yx = _lookup(singles, x), _lookup(singles, y, x)
            c_pair = _lookup(pairs, (x << n) | y)
            if None in (c_x, c_yx, c_pair):
                skipped += 1
            else:
                dev = abs(c_pair - (c_x + c_yx))
                hist[dev] = hist.get(dev, 0) + 1
    return SymmetryReport(
        n=n,
        max_deviation=max(hist, default=0),
        histogram=dict(sorted(hist.items())),
        pairs_total=1 << 2 * n,
        pairs_skipped=skipped,
    )


def brute_census(table, x: int, alpha: int) -> tuple[list[int], int]:
    """(members, indeterminate) of x's alpha-dependent partners, y by y.

    A missing C(y|x) joins only at alpha = 0; a missing C(y) counts as
    l_max + 1, a lower bound, so the drop it gives certifies membership
    when it reaches alpha and leaves y indeterminate when it does not.
    """
    members, indeterminate = [], 0
    for y in range(1 << table.n):
        c_y, c_yx = _lookup(table, y), _lookup(table, y, x)
        if c_yx is None:
            certified, known = alpha == 0, False
        elif c_y is None:
            certified, known = table.l_max + 1 - c_yx >= alpha, False
        else:
            certified, known = c_y - c_yx >= alpha, True
        if certified:
            members.append(y)
        elif not known:
            indeterminate += 1
    return members, indeterminate


def _meets_floor(value, k: int, l_max: int) -> bool:
    """Is C >= k certified? NOT_FOUND certifies C > l_max."""
    if value is NOT_FOUND:
        return l_max + 1 >= k
    return value >= k


def brute_extraction_check(table, cls, output_oracle) -> DeficiencyReport:
    """extraction_check pair by pair: NOT_FOUND outputs keyed at
    m - (l_max + 1), the witness the first pair with the least found C."""
    if table.n != cls.n:
        raise ValueError("table and class disagree on n")
    if output_oracle.n != table.m:
        raise ValueError("output oracle must target m-bit strings")
    hist: dict[int, int] = {}
    not_found = 0
    min_c = NOT_FOUND
    witness = None
    m = table.m
    for xv, yv in cls.pairs:
        z = table.color(xv, yv)
        c = output_oracle.complexity(BitString(m, z))
        if c is NOT_FOUND:
            not_found += 1
            key = m - (output_oracle.l_max + 1)
        else:
            key = m - c
            if c < min_c:
                min_c = c
                witness = (xv, yv, z)
        hist[key] = hist.get(key, 0) + 1
    return DeficiencyReport(
        m=m,
        class_size=cls.size,
        histogram=dict(sorted(hist.items())),
        not_found=not_found,
        min_output_complexity=min_c,
        max_deficiency=None if min_c is NOT_FOUND else m - min_c,
        worst_witness=witness,
        l_max=output_oracle.l_max,
    )


def brute_popular_color(table, oracle) -> PopularColorReport:
    """popular_color_demo by counting colors and scanning preimages: the
    most frequent color (ties to the smallest), its first hardest x."""
    if oracle.n != table.n:
        raise ValueError("oracle must target the table inputs")
    counts = [0] * table.num_colors
    for xv in range(1 << table.n):
        counts[table.color(xv)] += 1
    color = max(range(table.num_colors), key=lambda z: (counts[z], -z))
    preimages = [xv for xv in range(1 << table.n) if table.color(xv) == color]
    best_x = preimages[0]
    best_c = oracle.complexity(BitString(table.n, best_x))
    for xv in preimages[1:]:
        c = oracle.complexity(BitString(table.n, xv))
        if c > best_c:
            best_x, best_c = xv, c
    floor = table.n - table.m
    return PopularColorReport(
        n=table.n,
        m=table.m,
        color=color,
        preimages=len(preimages),
        witness_x=best_x,
        witness_complexity=best_c,
        floor=floor,
        preimage_bound_met=len(preimages) << table.m >= 1 << table.n,
        floor_certified=_meets_floor(best_c, floor, oracle.l_max),
    )


def brute_popular_prefix(table, alpha, pair_oracle, output_oracle=None) -> PrefixReport:
    """popular_prefix_demo cell by cell: the most frequent alpha-bit
    prefix (ties to the smallest), its first hardest x||y in row order."""
    if not 0 <= alpha <= table.m:
        raise ValueError("alpha must be in [0, m]")
    if pair_oracle.n != 2 * table.n:
        raise ValueError("pair oracle must target 2n-bit strings")
    n = table.n
    side = 1 << n
    counts = [0] * (1 << alpha)
    shift = table.m - alpha
    for xv in range(side):
        for yv in range(side):
            counts[table.color(xv, yv) >> shift] += 1
    prefix = max(range(1 << alpha), key=lambda p: (counts[p], -p))
    best = None
    best_c = -1  # any found value beats this
    for xv in range(side):
        for yv in range(side):
            if table.color(xv, yv) >> shift != prefix:
                continue
            c = pair_oracle.complexity(BitString(2 * n, (xv << n) | yv))
            if best is None or c > best_c:
                best, best_c = (xv, yv), c
    floor = 2 * n - alpha
    deficiency = None
    if output_oracle is not None:
        c_out = output_oracle.complexity(BitString(table.m, table.color(*best)))
        if c_out is not NOT_FOUND:
            deficiency = table.m - c_out
    return PrefixReport(
        n=n,
        m=table.m,
        alpha=alpha,
        prefix=prefix,
        pair_count=counts[prefix],
        witness=best,
        witness_complexity=best_c,
        floor=floor,
        pair_bound_met=counts[prefix] << alpha >= side * side,
        floor_certified=_meets_floor(best_c, floor, pair_oracle.l_max),
        output_deficiency=deficiency,
    )


def brute_range_procedure(table, k_adv: int) -> RangeProcedureReport:
    """popular_range_procedure over Python sets of ranges, one marked
    input and one candidate at a time; ranges_match re-reads the oracle."""
    n = max(y.length for y in table.conditions)
    m = table.n
    temperature = (1 << m) + 1
    max_steps = (1 << (k_adv + 1)) - 1

    def range_of(xv):
        return {
            zv
            for zv in range(1 << m)
            if table.complexity(BitString(m, zv), BitString(n, xv)) <= k_adv
        }

    ranges = {xv: frozenset(range_of(xv)) for xv in range(1 << n)}
    marked = list(range(1 << n))
    chosen: list[int] = []
    case = "exhausted"
    for _ in range(max_steps):
        counts = [0] * (1 << m)
        for xv in marked:
            for zv in ranges[xv]:
                if zv not in chosen:
                    counts[zv] += 1
        candidates = [
            zv
            for zv in range(1 << m)
            if zv not in chosen and counts[zv] * temperature >= len(marked)
        ]
        if not candidates:
            case = "stalled"
            break
        pick = max(candidates, key=lambda zv: (counts[zv], -zv))
        chosen.append(pick)
        marked = [xv for xv in marked if pick in ranges[xv]]
    witnesses = tuple(xv for xv in range(1 << n) if ranges[xv] == set(chosen))
    return RangeProcedureReport(
        n=n,
        m=m,
        k_adv=k_adv,
        temperature=temperature,
        max_steps=max_steps,
        chosen=tuple(chosen),
        case=case,
        witness_count=len(witnesses),
        witnesses=witnesses,
        count_bound_met=len(witnesses) * temperature**max_steps >= 1 << n,
        ranges_match=all(range_of(xv) == set(chosen) for xv in witnesses),
    )


def brute_hitting(table, cls, target_set, output_oracle) -> HittingReport:
    """hitting_demo with its own scans: the set's greatest complexity
    (0 when empty), the class's least output complexity, and the hits."""
    if output_oracle.n != table.m:
        raise ValueError("output oracle must target m-bit strings")
    targets = sorted(set(int(z) for z in target_set))
    if any(not 0 <= z < table.num_colors for z in targets):
        raise ValueError("target set value out of color range")
    max_set = 0
    for z in targets:
        c = output_oracle.complexity(BitString(table.m, z))
        if c > max_set:
            max_set = c
    min_out = NOT_FOUND
    for xv, yv in cls.pairs:
        c = output_oracle.complexity(BitString(table.m, table.color(xv, yv)))
        if c < min_out:
            min_out = c
    applies = bool(targets) and max_set is not NOT_FOUND and min_out > max_set
    hits = tuple((xv, yv) for xv, yv in cls.pairs if table.color(xv, yv) in targets)
    return HittingReport(
        class_size=cls.size,
        set_size=len(targets),
        max_set_complexity=max_set,
        min_output_complexity=min_out,
        threshold_applies=applies,
        hits=hits,
        consistent=(not applies) or not hits,
    )


def rect_census(colors: np.ndarray, rows, cols, num_colors: int) -> list[int]:
    counts = [0] * num_colors
    for u in rows:
        for v in cols:
            counts[int(colors[u, v])] += 1
    return counts


def brute_balance_worst(table, k: int, u_size: int) -> int:
    """Max U-cell count over all 2^k x 2^k rectangles and all size-u_size
    color sets, by enumerating the color sets outright."""
    side = 1 << table.n
    rect = 1 << k
    worst = -1
    for rows in combinations(range(side), rect):
        for cols in combinations(range(side), rect):
            counts = rect_census(table.colors, rows, cols, table.num_colors)
            for colors in combinations(range(table.num_colors), u_size):
                cells = sum(counts[z] for z in colors)
                if cells > worst:
                    worst = cells
    return worst


def brute_almost_witness(table, k: int, u_size: int, block: int):
    """(cells, rows, cols, colors) of almost balance's witness: the first
    rectangle with the most cells in its u_size most frequent colors,
    taking row sets in blocks of `block` and, within a block, every row
    set of the block for each column set in turn (b2-major). colors are
    those u_size colors, ties toward the smaller color."""
    side = 1 << table.n
    rect = 1 << k
    row_sets = list(combinations(range(side), rect))
    best = None
    for start in range(0, len(row_sets), block):
        for cols in combinations(range(side), rect):
            for rows in row_sets[start : start + block]:
                counts = rect_census(table.colors, rows, cols, table.num_colors)
                top = sorted(range(table.num_colors), key=lambda z: (-counts[z], z))[:u_size]
                cells = sum(counts[z] for z in top)
                if best is None or cells > best[0]:
                    best = (cells, rows, cols, tuple(sorted(top)))
    return best


def dense_full_sweep(items: np.ndarray, rect: int, score, op=np.add) -> np.ndarray:
    """The full sweep with nothing pruned: for every rect-row set, in
    lexicographic order, the most score(census) over all rect-column
    sets. items is [M, side (columns), side (rows)]; a row set's strip is
    op folded over its rows and a census op folded over the strip's
    columns, and score maps censuses [M, #column sets] to one value each."""
    side = items.shape[1]
    col_sets = np.array(list(combinations(range(side), rect))).reshape(-1, rect)
    best = []
    for rows in combinations(range(side), rect):
        strip = op.reduce(items[:, :, list(rows)], axis=2)
        best.append(score(op.reduce(strip[:, col_sets], axis=2)).max())
    return np.array(best)


def brute_eps_star(table, k: int, d: int) -> Fraction:
    """eps* by its definition on the probabilistic side: the largest
    distance to min-entropy m - d (at least 0) over the push-forwards of
    every pair of flat sources on 2^k-subsets."""
    sources = [FlatSource(table.n, s) for s in combinations(range(1 << table.n), 1 << k)]
    return max(
        dist_to_min_entropy(push_forward(table, x, y), max(table.m - d, 0))
        for x in sources
        for y in sources
    )


def brute_rainbow_worst_tuples(table, rect_side: int, divisor: int) -> int:
    """Worst properly-colored cell count over all rectangles and all
    per-column color-set tuples: the doubly-exponential definition, no
    per-column decomposition shared with the implementation."""
    from itertools import product

    side = 1 << table.n
    num_colors = table.num_colors
    set_size = max(1, num_colors // divisor)
    all_sets = list(combinations(range(num_colors), set_size))
    worst = -1
    for rows in combinations(range(side), rect_side):
        for cols in combinations(range(side), rect_side):
            for assignment in product(all_sets, repeat=rect_side):
                total = 0
                for v, colors in zip(cols, assignment):
                    total += sum(
                        1 for u in rows if int(table.colors[u, v]) in colors
                    )
                if total > worst:
                    worst = total
    return worst


def search_rainbow_every_trial(
    n: int, m: int, rect_side: int, divisor: int, seed: int, max_trials: int
) -> RainbowSearchResult:
    """search_rainbow as a plain loop: the whole rainbow_check on every
    trial, so no trial is dropped before its report is formed."""
    for i in range(max_trials):
        trial_seed = (seed + i) & MASK64
        table = gen_random(n, m, trial_seed)
        report = rainbow_check(table, rect_side, divisor)
        if report.passed:
            return RainbowSearchResult(True, i + 1, trial_seed, table, report)
    return RainbowSearchResult(False, max_trials, None, None, None)


def gf2_poly_is_irreducible(poly: int, degree: int) -> bool:
    """Trial division over GF(2): no factor of degree 1..degree//2."""

    def gf2_mod(a: int, b: int) -> int:
        db = b.bit_length() - 1
        while a.bit_length() - 1 >= db and a:
            a ^= b << (a.bit_length() - 1 - db)
        return a

    if poly.bit_length() - 1 != degree:
        return False
    for cand in range(2, 1 << (degree // 2 + 1)):
        if gf2_mod(poly, cand) == 0:
            return False
    return True
