"""Exact conditional complexity tables for the RM-1 machine.

A ComplexityTable fixes a target length n, a condition set, and a
program-length ceiling l_max, then records for every (condition, target)
pair the length of the shortest program that outputs the target from the
condition. The counting bound

    |{x : C(x | y) < k}| <= 2^k - 1

holds exactly for every condition y and every k, because distinct
programs are distinct bit strings. Targets no program reaches within
l_max are recorded as NOT_FOUND, a sentinel that compares strictly
greater than any int; table values never do arithmetic with infinities.

The builder finds shortest paths instead of running programs. The
opcode encoding is a prefix code and a dangling tail adds no output, so
a shortest program is the bare encoding of an op sequence. Every op
appends a bit, so these sequences are the paths of a DAG over the output
prefixes of at most n bits, each op an edge weighted by its encoding: 2
bits for EMIT, 2 bitlen(L) + 2 bitlen(Q) for COPY and 2 bitlen(L) +
2 bitlen(R) for REPEAT. Layers of prefixes are relaxed in order of
length, the distances of the j-bit ones an array [condition x 2^j] and
each edge out of them one vectorised minimum. An edge appends s bits to
a j-bit prefix, so it writes layer j + s through a strided view that
gives the appended bits an axis of their own, and names its cells
without a per-cell index: EMIT a strided slice, COPY (per group of
equal-length conditions) one window per condition row, REPEAT one
offset per value of the bits it repeats. Each map is injective in the
prefix, so one store never names a cell twice, and the minimum stored
through the view is exact. An op budget below n adds an op-count axis; a larger one never
binds. The work is cells times edges, capped by MAX_WORK, and distances
past l_max become NOT_FOUND.

Entries live in one int32 matrix [condition x target], with -1 standing
for NOT_FOUND. Consumers read whole rows of it through one rule: a
NOT_FOUND entry certifies C >= l_max + 1, so ComplexityTable.lower_bounds
gives every entry as a certified floor (the value found, or l_max + 1)
and from_bound turns a floor back into the Complexity that reports
carry. tests/test_oracle.py compares the builder with tests/reference.py,
which runs every program through run_machine on small tables and
relaxes with a fancy-index store per edge on larger ones.

save_table writes json.dumps(table_to_json(table), indent=2,
sort_keys=True) plus a newline without building that document, and
load_table reads the same layout back and compares it with a fresh
rendering, so both run one renderer, _canonical_chunks. An entry is a
c piece C(c), a cond_idx piece S(i) and a target piece T(x), and the
entry list C(c_0) S(i_0) T(x_0) C(c_1) ... S(i_m) T(x_m) is regrouped
as C(c_0) followed by S(i_e) Q_e for every entry e, where
Q_e = T(x_e) C(c_(e+1)) and the last Q is T(x_m). The regrouping keeps
every piece and its order, so the bytes are the same. Entries of one
condition share S(i), so a row is S(i) + S(i).join(its Qs): one bytes
piece per entry, gathered from the few distinct (x, next c) keys when
the table has many rows.
"""

from __future__ import annotations

import json
import operator
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .bits import EMPTY, BitString
from .machine import DEFAULT_BUDGET, MachineBudget

# Target lengths past this would allocate more than a 64 MB row per
# condition (2^n int32 entries).
MAX_N = 24
# Condition x target cells past this would allocate more than a 128 MB
# int32 matrix.
MAX_CELLS = 1 << 25
# Entries are int32, so a built or loaded l_max must fit one.
MAX_ENTRY = (1 << 31) - 1
# Builds whose relaxation would make more cell updates than this are
# refused before anything is allocated.
MAX_WORK = 1 << 29
# Distance of an unreached prefix. Real distances (n <= MAX_N ops of a few
# dozen bits each) and the sums it passes on stay far below int32's limit.
_UNREACHED = 1 << 30


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

    Entries are one int32 matrix [condition x target], rows in the order
    of `conditions` and columns indexed by target value, with -1 standing
    for NOT_FOUND. The matrix is made read-only on construction, so a
    table is immutable and safe to share.
    """

    n: int
    l_max: int
    budget: MachineBudget
    conditions: tuple[BitString, ...]
    _matrix: np.ndarray = field(repr=False)
    _cond_index: dict[BitString, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._matrix.setflags(write=False)
        self._cond_index = {y: i for i, y in enumerate(self.conditions)}

    def condition_index(self, y: BitString) -> int:
        try:
            return self._cond_index[y]
        except KeyError:
            raise ValueError(f"condition {y!r} not covered by this table") from None

    def complexity(self, x: BitString, y: BitString = EMPTY) -> Complexity:
        """C_T(x | y), or NOT_FOUND if no program of length <= l_max works."""
        if x.length != self.n:
            raise ValueError(f"target length {x.length} != table n {self.n}")
        raw = self._matrix.item(self.condition_index(y), x.value)
        return NOT_FOUND if raw < 0 else raw

    def complexity_of_value(self, x_value: int, y: BitString = EMPTY) -> Complexity:
        return self.complexity(BitString(self.n, x_value), y)

    def entries(self, y: BitString = EMPTY) -> np.ndarray:
        """Read-only int32 view for one condition (-1 encodes NOT_FOUND)."""
        return self._matrix[self.condition_index(y)]

    def rows(self, conds: Iterable[BitString]) -> np.ndarray:
        """int32 matrix whose row i is entries(conds[i])."""
        return self._matrix[[self.condition_index(y) for y in conds]]

    def lower_bounds(self, y: BitString = EMPTY) -> np.ndarray:
        """int64 row of certified floors on C_T(x | y), indexed by x: the
        value found, or l_max + 1 where the entry is NOT_FOUND."""
        row = self.entries(y).astype(np.int64)
        row[row < 0] = self.l_max + 1
        return row

    def from_bound(self, bound: int) -> Complexity:
        """Inverse of lower_bounds: NOT_FOUND past l_max, else the value."""
        return NOT_FOUND if bound > self.l_max else int(bound)

    def count_below(self, k: int, y: BitString = EMPTY) -> int:
        """|{x : C_T(x|y) < k}| as an exact integer; NOT_FOUND never counts."""
        arr = self.entries(y)
        return int(((arr >= 0) & (arr < k)).sum())

    def not_found_count(self, y: BitString = EMPTY) -> int:
        return int((self.entries(y) < 0).sum())


def check_shape(n: int, num_conditions: int) -> None:
    """Refuse a target length past MAX_N or a matrix past MAX_CELLS."""
    if not 0 <= n <= MAX_N:
        raise ValueError(f"target length n={n} is not in [0, {MAX_N}]")
    if num_conditions << n > MAX_CELLS:
        raise ValueError(
            f"{num_conditions} conditions x 2^{n} targets exceed the "
            f"{MAX_CELLS}-cell cap"
        )


def build_complexity_table(
    n: int,
    conditions: Iterable[BitString],
    l_max: Optional[int] = None,
    budget: MachineBudget = DEFAULT_BUDGET,
) -> ComplexityTable:
    """Relax every op sequence up to l_max bits and record minimal lengths.

    l_max defaults to n + 6, enough for EMIT-only programs plus slack.
    Builds with l_max < 2n get a warning: a COPY of the whole condition
    costs at most 2*floor(log2 n) + 4 <= 2n bits, so conditional entries
    only become NOT_FOUND-free once l_max reaches that scale. Besides
    check_shape, a build is refused when l_max does not fit an int32
    entry or the relaxation would make more than MAX_WORK cell updates.
    """
    conds = list(dict.fromkeys(conditions))
    if not conds:
        raise ValueError("need at least one condition")
    check_shape(n, len(conds))
    if l_max is None:
        l_max = n + 6
    if l_max < 0:
        raise ValueError("l_max must be nonnegative")
    if l_max > MAX_ENTRY:
        raise ValueError(f"l_max {l_max} does not fit an int32 entry")
    # An op adds a bit, so a budget of n or more ops never binds; a
    # smaller one makes the op count a leading axis of the distances.
    counts = budget.max_opcodes + 1 if budget.max_opcodes < n else 1
    cap = min(n, budget.max_output_bits)
    work = counts * _relaxation_work(n, cap, [y.length for y in conds], l_max)
    if work > MAX_WORK:
        raise ValueError(f"the build would make {work:.3g} cell updates, past {MAX_WORK:.3g}")
    if l_max < 2 * n:
        warnings.warn(
            f"l_max={l_max} < 2n={2 * n}: expect NOT_FOUND entries",
            stacklevel=2,
        )
    return ComplexityTable(
        n=n,
        l_max=l_max,
        budget=budget,
        conditions=tuple(conds),
        _matrix=_minimal_lengths(n, cap, conds, l_max, counts),
    )


def _operands(l_max: int, a_top: int, b_top: Callable[[int], int]) -> list[tuple[int, int]]:
    """(a, b_most) for each first operand a in 1..a_top of a COPY or
    REPEAT: its second operands b are 1..b_most, those with b <= b_top(a)
    whose op, 2 bitlen(a) + 2 bitlen(b) bits, fits in l_max."""
    out = []
    for a in range(1, a_top + 1):
        top = b_top(a)
        fits = max(0, (l_max - 2 * a.bit_length()) // 2)
        out.append((a, min(top, (1 << min(fits, top.bit_length())) - 1)))
    return out


def _relaxation_work(n: int, cap: int, lengths: Sequence[int], l_max: int) -> int:
    """Cell updates _minimal_lengths makes per op count: one fill per
    distance cell, and per edge one for each cell it reads (every
    condition's for EMIT and REPEAT, its group's for COPY)."""
    total, per_length = 0, Counter(lengths)
    for j in range(n + 1):
        room = max(cap - j, 0)
        edges = (2 if l_max >= 2 and room else 0) + 1
        edges += sum(most for _, most in _operands(l_max, min(j, room), lambda a: room // a))
        total += len(lengths) * edges << j
        for length, rows in per_length.items():
            copies = _operands(l_max, min(room, length), lambda a: length - a + 1)
            total += rows * sum(most for _, most in copies) << j
    return total


def _relax(dst: np.ndarray, step: int, rows, targets, cand: np.ndarray) -> None:
    """dst[t + step, rows, targets] = min(itself, cand[t]) for every op
    count t, in place. dst is a layer seen through _appended, so an edge
    names its cells by condition rows and appended bits alone. An edge
    maps prefixes to targets injectively, so no cell is named twice and
    the gather, minimum and store are exact."""
    cells = dst[step:, rows, targets]
    dst[step:, rows, targets] = np.minimum(cells, cand, out=cells)


def _appended(layer: np.ndarray, width: int) -> np.ndarray:
    """layer [op count, condition, 2^m] viewed as [op count, condition,
    2^width, 2^(m - width)]: cell [t, c, w, p] is prefix p with the
    width bits w appended."""
    counts, conds, size = layer.shape
    return layer.reshape(counts, conds, size >> width, 1 << width).transpose(0, 1, 3, 2)


def _minimal_lengths(
    n: int, cap: int, conds: Sequence[BitString], l_max: int, counts: int
) -> np.ndarray:
    """Layered shortest-path relaxation; see the module docstring.

    dist[j][t, c, v] holds the fewest bits of a t-op sequence that
    writes the j-bit prefix v under condition c (t stays 0 when counts
    is 1). Layers are relaxed in order of length, so a layer is final
    before an edge leaves it. No edge ends past cap, the output budget,
    so a budget below n leaves every entry NOT_FOUND.

    Every edge appends s bits, so it writes layer j + s through
    _appended and needs no index array wider than the condition rows or
    the 2^a values of a repeated suffix: EMIT a strided slice, COPY one
    window per condition row, REPEAT one offset per value of the a bits
    it repeats (prefixes are split into their high j - a bits and that
    suffix).
    """
    step = int(counts > 1)
    lengths = [y.length for y in conds]
    values = np.array([y.value for y in conds], dtype=object)
    groups = [(length, np.flatnonzero(np.equal(lengths, length))) for length in set(lengths)]
    dist = [
        np.full((counts, len(conds), 1 << j), _UNREACHED, dtype=np.int32)
        for j in range(n + 1)
    ]
    dist[0][0, :, 0] = 0
    for j in range(cap):
        room = cap - j
        src, dist[j] = dist[j][: counts - step], None
        # EMIT0, EMIT1 and REPEAT (the last a <= j bits r more times) map
        # a prefix the same way under every condition.
        if l_max >= 2:
            emit, cand = _appended(dist[j + 1], 1), src + 2
            for b in (0, 1):
                _relax(emit, step, slice(None), b, cand)
        # REPEAT turns a prefix hi.lo, lo its last a bits, into hi.lo.lo...
        # with lo repeated r more times: in layer j + span seen as
        # [2^(a + span) x 2^(j - a)], hi is the prefix and lo one offset.
        for a, most in _operands(l_max, min(j, room), lambda a: room // a):
            low = np.arange(1 << a, dtype=np.int64)
            for r in range(1, most + 1):
                span = a * r
                offsets = (low << span) | (low * (((1 << span) - 1) // ((1 << a) - 1)))
                cost = 2 * a.bit_length() + 2 * r.bit_length()
                cand = _appended(src + cost, a)
                _relax(_appended(dist[j + span], a + span), step, slice(None), offsets, cand)
        # COPY a bits from condition position q, per group of equal-length
        # conditions; windows are cut from int64 values, or from Python
        # ints where a condition does not fit one, so long conditions stay
        # exact.
        for length, rows in groups:
            copies = _operands(l_max, min(room, length), lambda a: length - a + 1)
            if copies:
                from_rows = src[:, rows]
                bits = values[rows].astype(np.int64 if length < 64 else object)
            for a, most in copies:
                mask, layer = (1 << a) - 1, _appended(dist[j + a], a)
                for q in range(1, most + 1):
                    window = ((bits >> (length - q + 1 - a)) & mask).astype(np.int64, copy=False)
                    cost = 2 * a.bit_length() + 2 * q.bit_length()
                    _relax(layer, step, rows, window, from_rows + cost)
    # A view of the last layer when there is one op count, so the
    # matrix is not copied.
    best = dist[n].min(axis=0) if counts > 1 else dist[n][0]
    best[best > min(l_max, _UNREACHED - 1)] = -1
    return best


def table_to_json(table: ComplexityTable) -> dict:
    """Portable JSON form; bits are hex-packed MSB-first.

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


# save_table's layout, json.dumps(table_to_json(table), indent=2,
# sort_keys=True) plus a newline, cut into pieces. Every condition and
# entry is led by a comma, which the first of each list drops, and a
# list that is not empty closes on a line of its own. An entry is a c
# piece, a cond_idx piece and a target piece (its hex digits, then
# _TARGET_END), rendered as ASCII bytes.
_HEAD = '{\n  "budget": {\n    "ops": %d,\n    "out": %d\n  },\n  "conditions": [%s%s],\n  '
_CONDITION = ',\n    {\n      "hex": "%s",\n      "len": %d\n    }'
_ENTRIES_OPEN = '"entries": ['
_C_PIECE = b',\n    {\n      "c": %d,\n      "cond_idx": '
_COND_PIECE = b'%d,\n      "target_hex": "'
_TARGET_END = b'"\n    }'
_TAIL = '%s],\n  "l_max": %d,\n  "n": %d,\n  "version": 1\n}\n'
_ENTRY_BLOCK = 4096
# save_table buffers this many bytes per write: its pieces are rows of a
# few KB, and one write call per piece or per default 8 KB buffer costs
# more than the copy into a larger buffer.
_WRITE_BYTES = 1 << 18
# Digit value -> its lowercase hex byte.
_HEX = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


def _list_end(items: int) -> str:
    """What closes a list of that many items, before its "]"."""
    return "\n  " if items else ""


def _target_pieces(n: int, targets: np.ndarray) -> list[bytes]:
    """The target piece of each n-bit value: BitString.pack_hex's digits
    (MSB-first, zero-padded to whole bytes) and _TARGET_END. All pieces
    are written as the rows of one byte array, then cut apart."""
    digits = 2 * ((n + 7) // 8)
    shifts = np.arange(4 * digits - 4, -1, -4)
    rows = np.empty((len(targets), digits + len(_TARGET_END)), dtype=np.uint8)
    rows[:, :digits] = _HEX[(targets[:, None] << (-n % 8)) >> shifts & 15]
    rows[:, digits:] = np.frombuffer(_TARGET_END, dtype=np.uint8)
    blob, width = rows.tobytes(), rows.shape[1]
    return [blob[at : at + width] for at in range(0, len(blob), width)]


def _canonical_chunks(table: ComplexityTable) -> Iterator[bytes]:
    """save_table's file as ASCII pieces: the header through the first
    entry's c piece, one piece per condition row in each _ENTRY_BLOCK of
    entries, then the rest.

    With C, S and T an entry's c, cond_idx and target pieces, the
    entries read

        C(c_0) + S(i_0) + T(x_0) + C(c_1) + ... + S(i_m) + T(x_m)
          = C(c_0) + sum over e of [S(i_e) + Q_e],

    where Q_e = T(x_e) + C(c_(e+1)) and the last Q is T(x_m) alone: the
    same pieces in the same order, only grouped differently, so the
    bytes are exact. A row's entries share S(i), so its part of a block
    is S(i) + S(i).join(its Qs), one bytes piece per entry.

    C is rendered once per distinct c and Q_e from T(x_e) and C(c_(e+1)).
    Where the (target, next c) keys range over no more values than there
    are entries (a table of many rows), Q is rendered once per distinct
    key and gathered; otherwise (one or a few rows, whose targets seldom
    repeat) once per entry, a block at a time.
    """
    conds = "".join(_CONDITION % (y.pack_hex(), y.length) for y in table.conditions)
    ops, out = table.budget.max_opcodes, table.budget.max_output_bits
    head = _HEAD % (ops, out, conds[1:], _list_end(len(table.conditions))) + _ENTRIES_OPEN
    # Entries in file order by their cells' flat indices, and where each
    # condition's row of them ends.
    cells = np.flatnonzero(table._matrix >= 0)
    values = table._matrix.reshape(-1)[cells]
    ends = np.searchsorted(cells, np.arange(1, len(table.conditions) + 1) << table.n)
    count = len(values)
    tail = (_TAIL % (_list_end(count), table.l_max, table.n)).encode("ascii")
    if not count:
        yield head.encode("ascii") + tail
        return
    # C pieces for every c up to the largest, indexed by c itself, unless
    # that range is wider than the entry list.
    top = int(values.max()) + 1
    if top <= count:
        c_values, c_index = range(top), values
    else:
        c_values, c_index = np.unique(values, return_inverse=True)
    c_pieces = [_C_PIECE % c for c in c_values] + [b""]
    yield head.encode("ascii") + c_pieces[c_index[0]][1:]
    # Key of Q_e: x_e and the index of c_(e+1)'s piece, the empty one
    # past the last entry.
    width = len(c_pieces)
    keys = (cells & ((1 << table.n) - 1)) * width
    keys[:-1] += c_index[1:]
    keys[-1] += width - 1

    def render(keys: np.ndarray) -> list[bytes]:
        nexts = map(c_pieces.__getitem__, (keys % width).tolist())
        return list(map(operator.add, _target_pieces(table.n, keys // width), nexts))

    bound = width << table.n
    if bound <= count:
        # A presence mask over the key range and its cumulative sum give
        # the keys that occur and each entry's rank among them, at a
        # fraction of np.unique(..., return_inverse=True).
        present = np.zeros(bound, dtype=bool)
        present[keys] = True
        rendered = np.array(render(np.flatnonzero(present)), dtype=object)
        ranks = np.cumsum(present)[keys] - 1

        def block(lo: int, hi: int) -> list[bytes]:
            return rendered[ranks[lo:hi]].tolist()

    else:

        def block(lo: int, hi: int) -> list[bytes]:
            return render(keys[lo:hi])

    # qs holds the Qs of the entry block that starts at entry base.
    qs, base, start = [], 0, 0
    for i, end in enumerate(ends.tolist()):
        s = _COND_PIECE % i
        while start < end:
            if start == base + len(qs):
                base, qs = start, block(start, min(start + _ENTRY_BLOCK, count))
            stop = min(end, base + len(qs))
            yield s + s.join(qs[start - base : stop - base])
            start = stop
    yield tail


def save_table(table: ComplexityTable, path: str) -> None:
    """Write json.dumps(table_to_json(table), indent=2, sort_keys=True)
    plus a newline, byte for byte, without building an entry dict: the
    entries are rendered from the matrix a row at a time (see
    _canonical_chunks). load_table reads this layout directly."""
    with open(path, "wb", buffering=_WRITE_BYTES) as fh:
        fh.writelines(_canonical_chunks(table))


def _field(obj: object, key: str, where: str) -> object:
    """obj[key]; obj must be a JSON object holding key."""
    if type(obj) is not dict:
        raise ValueError(f"{where} is not a JSON object")
    if key not in obj:
        raise ValueError(f"{where} has no {key!r} field")
    return obj[key]


def _json_list(value: object, name: str) -> list:
    if type(value) is not list:
        raise ValueError(f"{name} is not a JSON list")
    return value


def _json_str(value: object, name: str) -> str:
    if type(value) is not str:
        raise ValueError(f"{name} {value!r} is not a string")
    return value


def _json_count(value: object, name: str) -> int:
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} {value!r} is not a nonnegative int")
    return value


def _conditions(cond_docs: list) -> list[BitString]:
    """The conditions of an oracle document, checked one at a time in
    list order as table_from_json describes."""
    first: dict[BitString, int] = {}
    for i, c in enumerate(cond_docs):
        y = BitString.unpack_hex(
            _json_count(_field(c, "len", f"condition {i}"), "condition len"),
            _json_str(_field(c, "hex", f"condition {i}"), "condition hex"),
        )
        if first.setdefault(y, i) != i:
            raise ValueError(f"condition {i} repeats condition {first[y]}")
    return list(first)


def _table_header(doc: object) -> tuple[int, int, MachineBudget, list[BitString]]:
    """n, l_max, budget and conditions of an oracle document, checked as
    table_from_json describes."""
    if type(doc) is not dict:
        raise ValueError("oracle table is not a JSON object")
    if doc.get("version") != 1:
        raise ValueError(f"unsupported table version {doc.get('version')!r}")
    n = _json_count(_field(doc, "n", "oracle table"), "n")
    l_max = _json_count(_field(doc, "l_max", "oracle table"), "l_max")
    if l_max > MAX_ENTRY:
        raise ValueError(f"l_max {l_max} does not fit an int32 entry")
    cond_docs = _json_list(_field(doc, "conditions", "oracle table"), "conditions")
    check_shape(n, len(cond_docs))
    conds = _conditions(cond_docs)
    budget_doc = _field(doc, "budget", "oracle table")
    budget = MachineBudget(
        _json_count(_field(budget_doc, "out", "budget"), "budget out"),
        _json_count(_field(budget_doc, "ops", "budget"), "budget ops"),
    )
    return n, l_max, budget, conds


def table_from_json(doc: dict) -> ComplexityTable:
    """Inverse of table_to_json.

    Raises ValueError on a document or budget, condition or entry that
    is not a JSON object or lacks a field; on conditions or entries that
    are not a list; on a header count (n, l_max, a condition's len,
    budget out/ops) that is not a nonnegative int; on l_max past
    MAX_ENTRY, n > MAX_N or a matrix past MAX_CELLS; on a condition that
    repeats an earlier one; on a condition hex or entry target_hex that
    is not a string, of the wrong length or with nonzero padding bits; and
    on an entry whose cond_idx is not a condition index, whose c is not
    an int in [0, l_max], or whose (cond_idx, target) pair repeats an
    earlier entry.

    A document with several faults gets the message of the first one
    checked: the header (version, n, l_max, the conditions one by one,
    budget), then the entries one by one, each as an object with its
    fields, then its cond_idx, c, target_hex and (cond_idx, target) pair.
    """
    n, l_max, budget, conds = _table_header(doc)
    entries = _json_list(_field(doc, "entries", "oracle table"), "entries")
    rows = len(conds)
    matrix = np.full((rows, 1 << n), -1, dtype=np.int32)
    cells = memoryview(matrix.reshape(-1))  # reads and writes Python ints
    value_of: dict[str, int] = {}
    for i, e in enumerate(entries):
        try:
            ci, c, h = e["cond_idx"], e["c"], e["target_hex"]
        except (KeyError, TypeError):
            # Not an object, or a field is missing: _field names which.
            for key in ("cond_idx", "c", "target_hex"):
                _field(e, key, f"entry {i}")
            raise
        if type(ci) is not int or not 0 <= ci < rows:
            raise ValueError(f"entry cond_idx {ci!r} is not in [0, {rows})")
        if type(c) is not int or not 0 <= c <= l_max:
            raise ValueError(f"entry c {c!r} is not in [0, l_max={l_max}]")
        x = value_of.get(h) if type(h) is str else None
        if x is None:
            x = value_of[h] = BitString.unpack_hex(n, _json_str(h, "entry target_hex")).value
        cell = ci << n | x
        if cells[cell] >= 0:
            raise ValueError(f"duplicate entry for cond_idx {ci}, target {h}")
        cells[cell] = c
    return ComplexityTable(
        n=n, l_max=l_max, budget=budget, conditions=tuple(conds), _matrix=matrix
    )


# Where an entry's fields lie around its three ":" bytes a: c runs
# from a[0] + 2 up to a[1] - 18, cond_idx from a[1] + 2 up to a[2] - 20
# and target_hex from a[2] + 3 for its 2 ceil(n/8) digits (ends
# exclusive).
_AFTER_C = len(',\n      "cond_idx"')
_AFTER_COND_IDX = len(',\n      "target_hex"')
# c <= MAX_ENTRY and cond_idx < MAX_CELLS take at most this many digits,
# and this many decimal digits fit an int64.
_MAX_DIGITS = 10
# Base -> (byte -> its value as a digit): decimal, and hex in lowercase.
# Every other byte is 0, so the letters and spaces before a short field
# read as leading zeros.
_DIGITS = {}
for _base in (10, 16):
    _DIGITS[_base] = np.zeros(256, dtype=np.int64)
    _DIGITS[_base][_HEX[:_base]] = np.arange(_base)
# Entries are parsed this many bytes of the file at a time, so the
# parse's temporaries stay block-sized.
_PARSE_BYTES = 1 << 18
# Smaller files load faster through json. Fast path / json + table_from_json on
# the n=4 run's oracles (400-call medians, 2-vCPU Xeon): 473 B 0.105/0.027 ms,
# 5,925 B 0.18/0.12 ms, 19,126 B 0.19/0.52 ms, 20,901 B 0.22/0.30 ms.
_CANONICAL_MIN_BYTES = 1 << 14


def _field_values(data: np.ndarray, ends: np.ndarray, width: int, base: int) -> np.ndarray:
    """The int64 number each field spells in base, read from the width
    bytes of data before its end (exclusive): one multiply-add per digit
    position over every field."""
    digit, value = _DIGITS[base], np.zeros(len(ends), dtype=np.int64)
    at = ends - width
    for _ in range(width):
        value *= base
        value += digit[data[at]]
        at += 1
    return value


def _load_canonical(blob: bytes) -> Optional[ComplexityTable]:
    """The table whose save_table file is blob, or None if blob is not
    such a file; never raises on bad input.

    The header goes through json and _table_header. Each entry's three
    ":" bytes locate its c, cond_idx and target_hex, which are read a
    block of the file at a time, one field at a time: each field's
    digits are accumulated into an int64 value, reading every field of
    the block as wide as its widest, and range-checked. The table is
    then rendered again and each rendered piece compared with blob in
    place at its offset, so it is returned only when every byte of blob
    is save_table's output for it, and then it equals
    table_from_json(json.loads(blob)); a byte that is not a digit of its
    field reads as 0 and fails that comparison.
    """
    opened = blob.find(_ENTRIES_OPEN.encode("ascii"))
    closed = blob.rfind(b"]")  # l_max, n and version follow the entries
    first = opened + len(_ENTRIES_OPEN)
    if opened < 0 or closed < first:
        return None
    try:
        doc = json.loads(blob[:opened] + b'"entries": []' + blob[closed + 1 :])
        n, l_max, budget, conds = _table_header(doc)
    except (ValueError, RecursionError):
        return None
    hex_digits, pad = 2 * ((n + 7) // 8), -n % 8
    matrix = np.full((len(conds), 1 << n), -1, dtype=np.int32)
    data = np.frombuffer(blob, dtype=np.uint8)
    carry = np.empty(0, dtype=np.intp)
    for lo in range(first, closed, _PARSE_BYTES):
        colons = np.flatnonzero(data[lo : min(lo + _PARSE_BYTES, closed)] == ord(":")) + lo
        if len(carry):
            colons = np.concatenate([carry, colons])
        whole = len(colons) - len(colons) % 3
        at, carry = colons[:whole].reshape(-1, 3), colons[whole:]
        if not len(at):
            continue
        c_colon, idx_colon, hex_colon = at.T
        c_end, idx_end = idx_colon - _AFTER_C, hex_colon - _AFTER_COND_IDX
        hex_end = hex_colon + 3 + hex_digits
        c_len, idx_len = c_end - c_colon - 2, idx_end - idx_colon - 2
        c_width, idx_width = int(c_len.max()), int(idx_len.max())
        # Every field but target_hex is nonempty, so the bytes a short
        # field is read with lie inside the file.
        if (
            min(c_len.min(), idx_len.min()) < 1
            or max(c_width, idx_width) > _MAX_DIGITS
            or hex_end[-1] > len(blob)
        ):
            return None
        c = _field_values(data, c_end, c_width, 10)
        cond_idx = _field_values(data, idx_end, idx_width, 10)
        if c.max() > l_max or cond_idx.max() >= len(conds):
            return None
        matrix[cond_idx, _field_values(data, hex_end, hex_digits, 16) >> pad] = c
    if len(carry):
        return None
    table = ComplexityTable(
        n=n, l_max=l_max, budget=budget, conditions=tuple(conds), _matrix=matrix
    )
    pos = 0
    for chunk in _canonical_chunks(table):
        if not blob.startswith(chunk, pos):
            return None
        pos += len(chunk)
    return table if pos == len(blob) else None


def load_table(path: str) -> ComplexityTable:
    """The table in the oracle JSON file at path.

    A file in save_table's layout of at least _CANONICAL_MIN_BYTES is
    read directly (_load_canonical); any other file goes through
    table_from_json(json.loads(...)), with its checks and messages. JSON
    nested too deeply for the decoder is a ValueError naming the file.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) >= _CANONICAL_MIN_BYTES:
        table = _load_canonical(blob)
        if table is not None:
            return table
    try:
        doc = json.loads(blob.decode("utf-8"))
    except RecursionError:
        raise ValueError(f"{path}: JSON nesting is too deep to decode") from None
    return table_from_json(doc)


@dataclass(frozen=True)
class SymmetryReport:
    """Deviation census for C(x||y) versus C(x) + C(y|x)."""

    n: int
    max_deviation: int
    histogram: dict[int, int]
    pairs_total: int
    pairs_skipped: int


# symmetry_report reduces this many (x, y) cells at a time, so its
# temporaries stay a few MB at any n.
_SYMMETRY_BLOCK_CELLS = 1 << 20


def symmetry_report(
    singles: ComplexityTable, pairs: ComplexityTable
) -> SymmetryReport:
    """Census of |C_T(x||y | lambda) - (C_T(x|lambda) + C_T(y|x))|.

    `singles` must cover every n-bit condition plus lambda; `pairs` must
    target 2n-bit strings under lambda. Pairs with any NOT_FOUND entry
    are skipped and counted, never mixed into the histogram. The census
    runs over blocks of x rows and merges their histograms.
    """
    n = singles.n
    if pairs.n != 2 * n:
        raise ValueError("pair table must target strings of length 2n")
    side = 1 << n
    c_x = singles.entries(EMPTY).astype(np.int64)[:, None]
    # Row x, column y of the pair row is the target x||y.
    c_pair = pairs.entries(EMPTY).reshape(side, side)
    block = max(1, _SYMMETRY_BLOCK_CELLS >> n)
    histogram: dict[int, int] = {}
    skipped = 0
    for x0 in range(0, side, block):
        x1 = min(x0 + block, side)
        # dev starts as C(y|x) over the block's rows and ends as the deviation.
        dev = singles.rows(BitString(n, x) for x in range(x0, x1)).astype(np.int64)
        known = (c_x[x0:x1] >= 0) & (dev >= 0) & (c_pair[x0:x1] >= 0)
        dev += c_x[x0:x1]
        np.subtract(c_pair[x0:x1], dev, out=dev)
        devs, counts = np.unique(np.abs(dev[known]), return_counts=True)
        for d, count in zip(devs.tolist(), counts.tolist()):
            histogram[d] = histogram.get(d, 0) + count
        skipped += known.size - int(np.count_nonzero(known))
    return SymmetryReport(
        n=n,
        max_deviation=max(histogram, default=0),
        histogram=dict(sorted(histogram.items())),
        pairs_total=side * side,
        pairs_skipped=skipped,
    )
