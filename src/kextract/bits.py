"""Finite bit strings with explicit length.

Bits are held MSB-first in a plain integer: index 0 is the leftmost
symbol, and the empty string is ``BitString(0, 0)``. Keeping the length
explicit means "0001" and "1" are distinct values, which every counting
argument in this package relies on.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BitString:
    """An immutable binary string of known length."""

    length: int
    value: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("negative length")
        if not 0 <= self.value < (1 << self.length):
            raise ValueError(f"value {self.value} does not fit in {self.length} bits")

    @classmethod
    def from01(cls, s: str) -> "BitString":
        """Parse a literal like "0110"; the empty string is allowed."""
        if set(s) - {"0", "1"}:
            raise ValueError(f"not a binary string: {s!r}")
        return cls(len(s), int(s, 2) if s else 0)

    def to01(self) -> str:
        return format(self.value, f"0{self.length}b") if self.length else ""

    def bit(self, i: int) -> int:
        """Bit at position i, counting from the left (MSB first)."""
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.value >> (self.length - 1 - i)) & 1

    def concat(self, other: "BitString") -> "BitString":
        return BitString(
            self.length + other.length,
            (self.value << other.length) | other.value,
        )

    def prefix(self, k: int) -> "BitString":
        if not 0 <= k <= self.length:
            raise ValueError(f"prefix length {k} out of range")
        return BitString(k, self.value >> (self.length - k))

    def pack_hex(self) -> str:
        """Bits packed MSB-first into bytes, zero-padded on the right."""
        nbytes = (self.length + 7) // 8
        return (self.value << (8 * nbytes - self.length)).to_bytes(nbytes, "big").hex()

    @classmethod
    def unpack_hex(cls, length: int, hex_str: str) -> "BitString":
        """Inverse of pack_hex; the padding bits must be zero."""
        raw = bytes.fromhex(hex_str)
        nbytes = (length + 7) // 8
        if len(raw) != nbytes:
            raise ValueError("hex payload does not match bit length")
        pad = 8 * nbytes - length
        packed = int.from_bytes(raw, "big")
        if packed & ((1 << pad) - 1):
            raise ValueError(f"hex payload {hex_str!r} sets padding bits")
        return cls(length, packed >> pad)

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        if self.length <= 64:
            return f"BitString({self.to01()!r})"
        return f"BitString(length={self.length})"


EMPTY = BitString(0, 0)


def all_strings(n: int) -> list[BitString]:
    """Every n-bit string in numeric order."""
    return [BitString(n, v) for v in range(1 << n)]
