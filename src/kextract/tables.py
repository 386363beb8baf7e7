"""Extractor candidate tables: generators and the KEXT binary format.

A two-source table colors the full 2^n x 2^n grid with colors in
[0, 2^m); a single-source table colors the 2^n line. Rows are indexed by
the first argument, columns by the second. Tables are dense uint16
arrays, so n is practically capped by memory: _check_size refuses grids
past MAX_CELLS = 2^24 cells (n > 12), and the generators check it before
they allocate.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import prng

MAX_CELLS = 1 << 24

# Lowest-weight irreducible polynomial per degree, x^n term included,
# e.g. n=2 is x^2+x+1 and n=8 is x^8+x^4+x^3+x+1. test_tables.py
# re-verifies irreducibility by trial division over GF(2).
IRREDUCIBLE_POLYS = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011011,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


@dataclass(frozen=True)
class TwoSourceTable:
    """Color table E : [2^n] x [2^n] -> [2^m], rows = first argument."""

    n: int
    m: int
    colors: np.ndarray

    def __post_init__(self) -> None:
        _freeze_colors(self, (1 << self.n, 1 << self.n))

    @property
    def side(self) -> int:
        return 1 << self.n

    @property
    def num_colors(self) -> int:
        return 1 << self.m

    def color(self, x: int, y: int) -> int:
        return int(self.colors[x, y])

    def transposed(self) -> "TwoSourceTable":
        return TwoSourceTable(self.n, self.m, self.colors.T)


@dataclass(frozen=True)
class SingleSourceTable:
    """Color table f : [2^n] -> [2^m]."""

    n: int
    m: int
    colors: np.ndarray

    def __post_init__(self) -> None:
        _freeze_colors(self, (1 << self.n,))

    @property
    def num_colors(self) -> int:
        return 1 << self.m

    def color(self, x: int) -> int:
        return int(self.colors[x])


def _freeze_colors(table, shape: tuple[int, ...]) -> None:
    """Check a table's header and colors, then store them as a read-only
    uint16 copy."""
    _check_size(table.n, table.m, len(shape) == 2)
    arr = np.array(table.colors, dtype=np.uint16, copy=True)
    if arr.shape != shape:
        raise ValueError(f"colors must have shape {shape}, not {arr.shape}")
    if arr.size and int(arr.max()) >= (1 << table.m):
        raise ValueError("color out of range")
    arr.setflags(write=False)
    object.__setattr__(table, "colors", arr)


def _check_size(n: int, m: int, grid: bool) -> None:
    """The one table-size rule: 0 <= n, m <= 16, and a grid (2^n x 2^n,
    else a 2^n line) of at most MAX_CELLS cells."""
    if not 0 <= n <= 16 or not 0 <= m <= 16:
        raise ValueError(f"need 0 <= n <= 16 and 0 <= m <= 16, not n={n} m={m}")
    if grid and (1 << (2 * n)) > MAX_CELLS:
        raise ValueError(
            f"2^{2 * n} cells will not fit in memory; largest supported n is 12"
        )


def gen_inner_product(n: int) -> TwoSourceTable:
    """One-bit table: parity of the bitwise AND of the two arguments."""
    if n < 1:
        raise ValueError("n must be positive")
    _check_size(n, 1, True)
    side = np.arange(1 << n, dtype=np.uint32)
    grid = side[:, None] & side[None, :]
    return TwoSourceTable(n, 1, (np.bitwise_count(grid) & 1).astype(np.uint16))


def gf2_mult(a: int, b: int, n: int) -> int:
    """Carry-less product reduced by the degree-n polynomial above."""
    poly = IRREDUCIBLE_POLYS[n]
    prod = 0
    while b:
        if b & 1:
            prod ^= a
        a <<= 1
        b >>= 1
    for pos in range(2 * n - 2, n - 1, -1):
        if (prod >> pos) & 1:
            prod ^= poly << (pos - n)
    return prod


def gen_gf2_mult(n: int, m: int) -> TwoSourceTable:
    """Field product in GF(2^n), keeping the m low bits."""
    if not 1 <= m <= n or n not in IRREDUCIBLE_POLYS:
        raise ValueError("need 1 <= m <= n <= 16")
    _check_size(n, m, True)
    poly = IRREDUCIBLE_POLYS[n]
    side = np.arange(1 << n, dtype=np.uint64)
    prod = np.zeros((1 << n, 1 << n), dtype=np.uint64)
    shifted = side.copy()
    for bit in range(n):
        mask = (side >> np.uint64(bit)) & np.uint64(1)
        prod ^= shifted[:, None] * mask[None, :]
        shifted = shifted << np.uint64(1)
    for pos in range(2 * n - 2, n - 1, -1):
        hit = (prod >> np.uint64(pos)) & np.uint64(1)
        prod ^= (hit * np.uint64(poly)) << np.uint64(pos - n)
    return TwoSourceTable(n, m, (prod & np.uint64((1 << m) - 1)).astype(np.uint16))


def gen_random(n: int, m: int, seed: int) -> TwoSourceTable:
    """Seeded table: cell (x, y) takes the low m bits of splitmix64
    output number x * 2^n + y + 1 for the given seed (row-major order)."""
    if m < 1:
        raise ValueError("m must be positive")
    _check_size(n, m, True)
    outs = prng.stream(seed, 1 << (2 * n))
    colors = (outs & np.uint64((1 << m) - 1)).astype(np.uint16)
    return TwoSourceTable(n, m, colors.reshape(1 << n, 1 << n))


def gen_random_single(n: int, m: int, seed: int) -> SingleSourceTable:
    """Seeded line table from the same generator as gen_random."""
    if m < 1:
        raise ValueError("m must be positive")
    _check_size(n, m, False)
    outs = prng.stream(seed, 1 << n)
    return SingleSourceTable(n, m, (outs & np.uint64((1 << m) - 1)).astype(np.uint16))


def gen_constant(n: int, m: int, c: int) -> TwoSourceTable:
    _check_size(n, m, True)
    if not 0 <= c < (1 << m):
        raise ValueError("constant color out of range")
    return TwoSourceTable(n, m, np.full((1 << n, 1 << n), c, dtype=np.uint16))


def gen_truncate(n: int, m: int) -> SingleSourceTable:
    """Keep the m most significant bits of the input."""
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    _check_size(n, m, False)
    vals = np.arange(1 << n, dtype=np.uint32) >> np.uint32(n - m)
    return SingleSourceTable(n, m, vals.astype(np.uint16))


MAGIC = b"KEXT"
VERSION = 0x01
FLAG_TWO_SOURCE = 0
FLAG_SINGLE_SOURCE = 1


def write_table(table, path: str) -> None:
    """KEXT binary: magic, version byte, n and m as u16 LE, a source
    flag byte, then the colors as u16 LE (row-major for grids)."""
    if isinstance(table, TwoSourceTable):
        flag = FLAG_TWO_SOURCE
    elif isinstance(table, SingleSourceTable):
        flag = FLAG_SINGLE_SOURCE
    else:
        raise TypeError(f"not a table: {table!r}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<BHHB", VERSION, table.n, table.m, flag))
        fh.write(np.ascontiguousarray(table.colors, dtype="<u2").tobytes())


def read_table(path: str):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise ValueError("not a KEXT file")
    if len(blob) < 10:
        raise ValueError("truncated KEXT header")
    version, n, m, flag = struct.unpack_from("<BHHB", blob, 4)
    if version != VERSION:
        raise ValueError(f"unsupported KEXT version {version}")
    if len(blob) % 2:  # a u16 payload after the 10-byte header
        raise ValueError("truncated KEXT payload")
    body = np.frombuffer(blob[10:], dtype="<u2")
    if flag == FLAG_TWO_SOURCE:
        if body.size != 1 << (2 * n):
            raise ValueError("truncated KEXT payload")
        return TwoSourceTable(n, m, body.reshape(1 << n, 1 << n))
    if flag == FLAG_SINGLE_SOURCE:
        if body.size != 1 << n:
            raise ValueError("truncated KEXT payload")
        return SingleSourceTable(n, m, body)
    raise ValueError(f"unknown source flag {flag}")
