"""Census experiments over exact complexity tables.

Two measurements: the per-string census of alpha-dependent partners
(how many y give away at least alpha bits about themselves when x is
known), and hitting-set consistency (a threshold argument on output
complexity versus a direct scan for hits).

Both follow the package's one NOT_FOUND rule: a NOT_FOUND entry
certifies C >= l_max + 1, which ComplexityTable.lower_bounds writes in
as the entry, and report fields carry from_bound of such a floor.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .bits import BitString, all_strings
from .extraction import SourcePairClass, class_outputs, extraction_check
from .oracle import NOT_FOUND, Complexity, ComplexityTable
from .tables import TwoSourceTable


@dataclass(frozen=True)
class DependentCensus:
    """Strings that lose at least alpha bits of complexity given x.

    members holds every y with a certified drop C(y) - C(y|x) >= alpha;
    indeterminate counts y whose drop cannot be certified either way
    because of NOT_FOUND entries. fitted_c is |members| / 2^(n-alpha),
    the constant a 2^(n-alpha)-sized census would fit with.
    """

    x: int
    alpha: int
    members: tuple[int, ...]
    indeterminate: int
    fitted_c: float

    @property
    def size(self) -> int:
        return len(self.members)


def count_dependent(
    table: ComplexityTable, x: BitString, alpha: int
) -> DependentCensus:
    """Exact census of alpha-dependent partners of x.

    NOT_FOUND handling keeps membership certified: a missing
    unconditional entry still certifies a drop of at least
    l_max + 1 - C(y|x), so such y join only when that bound reaches
    alpha; a missing conditional entry leaves the drop unknown and the
    pair is counted indeterminate (a found unconditional entry can
    never certify alpha >= 1 on its own).
    """
    member, indeterminate = _dependent(table, [x], alpha)
    return _census(table.n, x.value, alpha, member[0], indeterminate[0])


def _dependent(
    table: ComplexityTable, xs: list[BitString], alpha: int
) -> tuple[np.ndarray, np.ndarray]:
    """count_dependent's member and indeterminate masks, row i for xs[i],
    column y."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    c_y = table.lower_bounds()[None, :]
    c_yx = table.rows(xs).astype(np.int64)
    found = c_yx >= 0
    # With C(y|x) found, c_y - C(y|x) is a certified floor on the drop.
    member = np.where(found, c_y - c_yx >= alpha, alpha == 0)
    return member, ~member & (~found | (c_y > table.l_max))


def _census(
    n: int, x: int, alpha: int, member: np.ndarray, indeterminate: np.ndarray
) -> DependentCensus:
    members = tuple(np.flatnonzero(member).tolist())
    return DependentCensus(
        x=x,
        alpha=alpha,
        members=members,
        indeterminate=int(indeterminate.sum()),
        fitted_c=math.ldexp(len(members), alpha - n),
    )


@dataclass(frozen=True)
class CensusSweepReport:
    """count_dependent across every x of the table's length."""

    n: int
    alpha: int
    censuses: tuple[DependentCensus, ...]
    max_fitted_c: float
    size_histogram: dict[int, int]
    committed_max_c: Optional[float]
    within_committed: Optional[bool]


def dependent_census_sweep(
    table: ComplexityTable,
    alpha: int,
    committed_max_c: Optional[float] = None,
) -> CensusSweepReport:
    """Census every x; optionally gate the fitted constant against a
    committed calibration value."""
    if committed_max_c is not None and not math.isfinite(committed_max_c):
        raise ValueError("committed max_c must be finite")
    n = table.n
    member, indeterminate = _dependent(table, all_strings(n), alpha)
    censuses = [
        _census(n, xv, alpha, member[xv], indeterminate[xv]) for xv in range(1 << n)
    ]
    hist: dict[int, int] = {}
    max_c = 0.0
    for census in censuses:
        hist[census.size] = hist.get(census.size, 0) + 1
        if census.fitted_c > max_c:
            max_c = census.fitted_c
    within = None
    if committed_max_c is not None:
        within = max_c <= committed_max_c
    return CensusSweepReport(
        n=table.n,
        alpha=alpha,
        censuses=tuple(censuses),
        max_fitted_c=max_c,
        size_histogram=dict(sorted(hist.items())),
        committed_max_c=committed_max_c,
        within_committed=within,
    )


def write_census_csv(censuses: Iterable[DependentCensus], n: int, path: str) -> None:
    """One row per census: x (hex-packed), alpha, size, fitted_c."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_hex", "alpha", "size", "fitted_c"])
        for census in censuses:
            writer.writerow(
                [
                    BitString(n, census.x).pack_hex(),
                    census.alpha,
                    census.size,
                    repr(census.fitted_c),
                ]
            )


@dataclass(frozen=True)
class HittingReport:
    """Threshold argument versus direct scan for class outputs in A.

    If every string of A has complexity below the class's minimum
    output complexity, no class output can land in A. The direct scan
    lists actual hits; `consistent` records that the threshold argument
    never contradicts the scan.
    """

    class_size: int
    set_size: int
    max_set_complexity: Complexity
    min_output_complexity: Complexity
    threshold_applies: bool
    hits: tuple[tuple[int, int], ...]
    consistent: bool


def hitting_demo(
    table: TwoSourceTable,
    cls: SourcePairClass,
    target_set: Sequence[int],
    output_oracle: ComplexityTable,
) -> HittingReport:
    """Compare the complexity-threshold argument with a direct scan.

    The class's least output complexity comes from extraction_check; an
    empty target set has max_set_complexity 0.
    """
    min_out = extraction_check(table, cls, output_oracle).min_output_complexity
    targets = sorted(set(int(z) for z in target_set))
    if any(not 0 <= z < table.num_colors for z in targets):
        raise ValueError("target set value out of color range")
    bounds = output_oracle.lower_bounds()[targets]
    max_set = output_oracle.from_bound(bounds.max(initial=0))

    # NOT_FOUND soundness: an unfound set member leaves the threshold
    # inapplicable, while unfound outputs sit above every found value.
    applies = bool(targets) and max_set is not NOT_FOUND and min_out > max_set
    pairs, outs = class_outputs(table, cls)
    hits = tuple(zip(*pairs[np.isin(outs, targets)].T.tolist()))
    return HittingReport(
        class_size=cls.size,
        set_size=len(targets),
        max_set_complexity=max_set,
        min_output_complexity=min_out,
        threshold_applies=applies,
        hits=hits,
        consistent=(not applies) or not hits,
    )
