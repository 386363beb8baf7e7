"""Exact conditional complexity tables for the RM-1 machine.

A ComplexityTable fixes a target length n, a condition set, and a
program-length ceiling l_max, then records for every (target, condition)
pair the length of the shortest program that outputs the target from the
condition. Minimality is established by enumerating all 2^(l_max+1) - 1
programs in length-lexicographic order; distinct programs are distinct
bit strings (no trailing-bit aliasing), so the counting bound

    |{x : C(x | y) < k}| <= 2^k - 1

holds exactly for every condition y and every k. Targets no program
reaches within l_max are recorded as NOT_FOUND, a sentinel that compares
strictly greater than any int; table values never do arithmetic with
infinities.

The builder parses each candidate program once and derives its output
length before touching any condition: output length does not depend on
the condition content (COPY appends exactly L bits whenever it does not
FAIL), so programs whose output length differs from n are skipped
outright. tests/test_oracle.py replays small tables through run_machine
directly to pin this shortcut to the plain semantics.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

import numpy as np

from .bits import EMPTY, BitString
from .machine import DEFAULT_BUDGET, MachineBudget, execute_ops, parse_program

MAX_L_MAX = 24


class _NotFound:
    """Sentinel for "no program within l_max"; greater than every int."""

    __slots__ = ()
    _instance: Optional["_NotFound"] = None

    def __new__(cls) -> "_NotFound":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NOT_FOUND"

    def __gt__(self, other: object) -> bool:
        return other is not self

    def __ge__(self, other: object) -> bool:
        return True

    def __lt__(self, other: object) -> bool:
        return False

    def __le__(self, other: object) -> bool:
        return other is self


NOT_FOUND = _NotFound()

Complexity = Union[int, _NotFound]


@dataclass
class ComplexityTable:
    """Minimal program lengths for all n-bit targets under fixed conditions.

    Entries are stored per condition as an int32 array indexed by target
    value, with -1 standing for NOT_FOUND. Tables are sealed by the
    builder; a sealed table is immutable and safe to share.
    """

    n: int
    l_max: int
    budget: MachineBudget
    conditions: tuple[BitString, ...]
    _entries: list[np.ndarray] = field(repr=False)
    _cond_index: dict[BitString, int] = field(repr=False)
    sealed: bool = False

    def condition_index(self, y: BitString) -> int:
        try:
            return self._cond_index[y]
        except KeyError:
            raise KeyError(f"condition {y!r} not covered by this table") from None

    def complexity(self, x: BitString, y: BitString = EMPTY) -> Complexity:
        """C_T(x | y), or NOT_FOUND if no program of length <= l_max works."""
        if not self.sealed:
            raise RuntimeError("table is not sealed yet")
        if x.length != self.n:
            raise ValueError(f"target length {x.length} != table n {self.n}")
        raw = int(self._entries[self.condition_index(y)][x.value])
        return NOT_FOUND if raw < 0 else raw

    def complexity_of_value(self, x_value: int, y: BitString = EMPTY) -> Complexity:
        return self.complexity(BitString(self.n, x_value), y)

    def entries(self, y: BitString = EMPTY) -> np.ndarray:
        """Read-only int32 view for one condition (-1 encodes NOT_FOUND)."""
        return self._entries[self.condition_index(y)]

    def count_below(self, k: int, y: BitString = EMPTY) -> int:
        """|{x : C_T(x|y) < k}| as an exact integer; NOT_FOUND never counts."""
        arr = self.entries(y)
        return int(((arr >= 0) & (arr < k)).sum())

    def not_found_count(self, y: BitString = EMPTY) -> int:
        return int((self.entries(y) < 0).sum())

    def seal(self) -> None:
        for arr in self._entries:
            arr.setflags(write=False)
        self.sealed = True


def build_complexity_table(
    n: int,
    conditions: Iterable[BitString],
    l_max: Optional[int] = None,
    budget: MachineBudget = DEFAULT_BUDGET,
    max_l_max: int = MAX_L_MAX,
) -> ComplexityTable:
    """Enumerate all programs up to l_max and record minimal lengths.

    l_max defaults to n + 6, enough for EMIT-only programs plus slack.
    Builds with l_max < 2n get a warning: a COPY of the whole condition
    costs at most 2*floor(log2 n) + 4 <= 2n bits, so conditional entries
    only become NOT_FOUND-free once l_max reaches that scale. The
    max_l_max guard refuses enumerations past 2^(max_l_max+1) programs;
    raise it deliberately if you can afford the run.
    """
    if n < 0:
        raise ValueError("target length must be nonnegative")
    if l_max is None:
        l_max = n + 6
    if l_max < 0:
        raise ValueError("l_max must be nonnegative")
    if l_max > max_l_max:
        raise ValueError(
            f"l_max={l_max} exceeds the enumeration guard {max_l_max}; "
            "pass a larger max_l_max to run anyway"
        )
    if l_max < 2 * n:
        warnings.warn(
            f"l_max={l_max} < 2n={2 * n}: expect NOT_FOUND entries",
            stacklevel=2,
        )
    conds: list[BitString] = []
    seen = set()
    for y in conditions:
        if y not in seen:
            seen.add(y)
            conds.append(y)
    if not conds:
        raise ValueError("need at least one condition")

    size = 1 << n
    entries = [np.full(size, -1, dtype=np.int32) for _ in conds]
    rows = [(entries[i], y.value, y.length) for i, y in enumerate(conds)]
    for length in range(l_max + 1):
        for value in range(1 << length):
            ops = parse_program(value, length)
            if _output_length(ops, budget) != n:
                continue
            for row, cv, cl in rows:
                result = execute_ops(ops, cv, cl, budget)
                if result is None:
                    continue
                out_v = result[0]
                if row[out_v] < 0:
                    row[out_v] = length

    table = ComplexityTable(
        n=n,
        l_max=l_max,
        budget=budget,
        conditions=tuple(conds),
        _entries=entries,
        _cond_index={y: i for i, y in enumerate(conds)},
    )
    table.seal()
    return table


def _output_length(ops: list[tuple[int, int, int]], budget: MachineBudget) -> int:
    """Output length of an op list, or -1 if it FAILs on every condition.

    The length trajectory is condition-independent: EMIT appends 1 bit,
    COPY appends L or FAILs, REPEAT appends L*R or FAILs based only on
    the lengths so far. Only COPY's window check depends on the actual
    condition, and a failing COPY contributes no output anyway.
    """
    out_n = 0
    for executed, (kind, a, b) in enumerate(ops):
        if executed >= budget.max_opcodes:
            return -1
        if kind <= 1:
            out_n += 1
        elif kind == 2:
            out_n += a
        else:
            if out_n < a:
                return -1
            out_n += a * b
        if out_n > budget.max_output_bits:
            return -1
    return out_n


def table_to_json(table: ComplexityTable) -> dict:
    """Portable JSON form; bits are hex-packed MSB-first."""
    entries = []
    for ci in range(len(table.conditions)):
        arr = table._entries[ci]
        for x_value in range(arr.size):
            c = int(arr[x_value])
            if c < 0:
                continue
            entries.append(
                {
                    "cond_idx": ci,
                    "target_hex": BitString(table.n, x_value).pack_hex(),
                    "c": c,
                }
            )
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
        "entries": entries,
    }


def _json_count(value: object, name: str) -> int:
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} {value!r} is not a nonnegative int")
    return value


def table_from_json(doc: dict) -> ComplexityTable:
    """Inverse of table_to_json.

    Raises ValueError on a header count (n, l_max, a condition's len,
    budget out/ops) that is not a nonnegative int, on an entry whose
    cond_idx is not a condition index, whose c lies outside [0, l_max],
    or whose (cond_idx, target) pair repeats an earlier entry, and on
    hex payloads with nonzero padding bits.
    """
    if doc.get("version") != 1:
        raise ValueError(f"unsupported table version {doc.get('version')!r}")
    n = _json_count(doc["n"], "n")
    l_max = _json_count(doc["l_max"], "l_max")
    conds = [
        BitString.unpack_hex(_json_count(c["len"], "condition len"), c["hex"])
        for c in doc["conditions"]
    ]
    entries = [np.full(1 << n, -1, dtype=np.int32) for _ in conds]
    for e in doc["entries"]:
        ci, c = e["cond_idx"], e["c"]
        if type(ci) is not int or not 0 <= ci < len(conds):
            raise ValueError(f"entry cond_idx {ci!r} is not in [0, {len(conds)})")
        if type(c) is not int or not 0 <= c <= l_max:
            raise ValueError(f"entry c {c!r} is not in [0, l_max={l_max}]")
        x = BitString.unpack_hex(n, e["target_hex"])
        if entries[ci][x.value] >= 0:
            raise ValueError(
                f"duplicate entry for cond_idx {ci}, target {e['target_hex']}"
            )
        entries[ci][x.value] = c
    table = ComplexityTable(
        n=n,
        l_max=l_max,
        budget=MachineBudget(
            _json_count(doc["budget"]["out"], "budget out"),
            _json_count(doc["budget"]["ops"], "budget ops"),
        ),
        conditions=tuple(conds),
        _entries=entries,
        _cond_index={y: i for i, y in enumerate(conds)},
    )
    table.seal()
    return table


def save_table(table: ComplexityTable, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table_to_json(table), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_table(path: str) -> ComplexityTable:
    with open(path, "r", encoding="utf-8") as fh:
        return table_from_json(json.load(fh))


@dataclass(frozen=True)
class SymmetryReport:
    """Deviation census for C(x||y) versus C(x) + C(y|x)."""

    n: int
    max_deviation: int
    histogram: dict[int, int]
    pairs_total: int
    pairs_skipped: int


def symmetry_report(
    singles: ComplexityTable, pairs: ComplexityTable
) -> SymmetryReport:
    """Census of |C_T(x||y | lambda) - (C_T(x|lambda) + C_T(y|x))|.

    `singles` must cover every n-bit condition plus lambda; `pairs` must
    target 2n-bit strings under lambda. Pairs with any NOT_FOUND entry
    are skipped and counted, never mixed into the histogram.
    """
    n = singles.n
    if pairs.n != 2 * n:
        raise ValueError("pair table must target strings of length 2n")
    hist: dict[int, int] = {}
    skipped = 0
    max_dev = 0
    for x_value in range(1 << n):
        x = BitString(n, x_value)
        c_x = singles.complexity(x)
        for y_value in range(1 << n):
            y = BitString(n, y_value)
            c_yx = singles.complexity(y, x)
            c_pair = pairs.complexity(BitString(2 * n, (x_value << n) | y_value))
            if c_x is NOT_FOUND or c_yx is NOT_FOUND or c_pair is NOT_FOUND:
                skipped += 1
                continue
            dev = abs(c_pair - (c_x + c_yx))
            hist[dev] = hist.get(dev, 0) + 1
            if dev > max_dev:
                max_dev = dev
    return SymmetryReport(
        n=n,
        max_deviation=max_dev,
        histogram=dict(sorted(hist.items())),
        pairs_total=1 << (2 * n),
        pairs_skipped=skipped,
    )
