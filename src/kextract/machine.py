"""The RM-1 reference machine.

RM-1 is total: every program halts on every condition within an explicit
budget, so minimal program length is computable by plain enumeration. A
program is a bit string parsed MSB-first into opcodes

    00            EMIT0   append 0
    01            EMIT1   append 1
    10 g(L) g(Q)  COPY    append condition bits [Q-1, Q-1+L)
    11 g(L) g(R)  REPEAT  append R copies of the last L output bits

where g() is the Elias gamma code (floor(log2 q) zeros, then the binary
expansion of q; operands are always >= 1). Running off the end of the
program, mid-opcode or mid-operand, is a normal halt with the output
produced so far. A COPY whose window leaves the condition, a REPEAT
longer than the current output, and any budget overrun all FAIL, and a
failed program produces no string at all. That "no partial output on
FAIL" rule keeps the map program -> output single-valued, which the
counting arguments in oracle.py need to be exact. NOT_FOUND, the
sentinel oracle tables record for a target no program up to l_max
outputs, is defined here beside FAIL and exported by oracle.py, and
FeasibilityError, balance.py's refusal of a sweep past its op budget,
beside MachineBudget, so that the CLI can catch it without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .bits import EMPTY, BitString

OP_EMIT0 = 0
OP_EMIT1 = 1
OP_COPY = 2
OP_REPEAT = 3


class _Fail:
    """Singleton returned by run_machine when execution fails."""

    __slots__ = ()
    _instance: Optional["_Fail"] = None

    def __new__(cls) -> "_Fail":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "FAIL"


FAIL = _Fail()

MachineResult = Union[BitString, _Fail]


class _NotFound:
    """Sentinel for "no program within l_max" in oracle tables; greater
    than every int. It is defined beside FAIL, in this numpy-free module,
    so that reports can name it without importing the oracle."""

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


@dataclass(frozen=True)
class MachineBudget:
    """Hard caps that make RM-1 total. Exceeding either one is a FAIL."""

    max_output_bits: int = 4096
    max_opcodes: int = 4096

    def __post_init__(self) -> None:
        if self.max_output_bits <= 0 or self.max_opcodes <= 0:
            raise ValueError("budgets must be positive")


DEFAULT_BUDGET = MachineBudget()


class FeasibilityError(Exception):
    """Raised when an exhaustive sweep would exceed the op budget.

    balance.py raises it and exports it; it is defined in this numpy-free
    module so that the CLI can catch it without importing balance."""


def gamma_encode(q: int) -> BitString:
    """Elias gamma code of q >= 1.

    floor(log2 q) zeros followed by the binary expansion of q, so the
    code of q is exactly 2*floor(log2 q) + 1 bits and starts with its
    own length marker. gamma_encode(1) == "1", gamma_encode(10) ==
    "0001010".
    """
    if q < 1:
        raise ValueError("gamma code is defined for q >= 1")
    return BitString(2 * q.bit_length() - 1, q)


def gamma_decode(s: BitString) -> int:
    """Inverse of gamma_encode; rejects trailing or truncated bits."""
    decoded = _gamma_decode(s.value, s.length, 0)
    if decoded is None:
        raise ValueError("truncated gamma code")
    q, pos = decoded
    if pos != s.length:
        raise ValueError("trailing bits after gamma code")
    return q


def _gamma_decode(value: int, length: int, pos: int) -> Optional[tuple[int, int]]:
    """Decode one gamma operand at bit offset pos; None if bits run out."""
    zeros = 0
    while pos + zeros < length and not (value >> (length - pos - zeros - 1)) & 1:
        zeros += 1
    end = pos + 2 * zeros + 1
    if pos + zeros >= length or end > length:
        return None
    q = (value >> (length - end)) & ((1 << (zeros + 1)) - 1)
    return q, end


def parse_program(value: int, length: int) -> list[tuple[int, int, int]]:
    """Opcodes completed before the program runs out of bits.

    Each op is (kind, a, b); EMIT ops use a as the emitted bit and b=0.
    A dangling opcode or operand simply ends the program (normal halt).
    """
    ops = []
    pos = 0
    while pos + 2 <= length:
        kind = (value >> (length - pos - 2)) & 3
        pos += 2
        if kind == OP_EMIT0 or kind == OP_EMIT1:
            ops.append((kind, kind & 1, 0))
            continue
        first = _gamma_decode(value, length, pos)
        if first is None:
            break
        a, pos = first
        second = _gamma_decode(value, length, pos)
        if second is None:
            break
        b, pos = second
        ops.append((kind, a, b))
    return ops


def execute_ops(
    ops: list[tuple[int, int, int]],
    cond_value: int,
    cond_length: int,
    budget: MachineBudget = DEFAULT_BUDGET,
) -> Optional[tuple[int, int]]:
    """Run parsed opcodes against a condition; None means FAIL.

    Output is accumulated as (value, length) with the first emitted bit
    most significant, matching the BitString convention.
    """
    out_v = 0
    out_n = 0
    max_out = budget.max_output_bits
    for executed, (kind, a, b) in enumerate(ops):
        if executed >= budget.max_opcodes:
            return None
        if kind <= OP_EMIT1:
            if out_n + 1 > max_out:
                return None
            out_v = (out_v << 1) | a
            out_n += 1
        elif kind == OP_COPY:
            if a + b - 1 > cond_length:
                return None
            if out_n + a > max_out:
                return None
            block = (cond_value >> (cond_length - (b - 1) - a)) & ((1 << a) - 1)
            out_v = (out_v << a) | block
            out_n += a
        else:
            if out_n < a:
                return None
            if out_n + a * b > max_out:
                return None
            block = out_v & ((1 << a) - 1)
            for _ in range(b):
                out_v = (out_v << a) | block
            out_n += a * b
    return out_v, out_n


def run_machine(
    program: BitString,
    condition: BitString = EMPTY,
    budget: MachineBudget = DEFAULT_BUDGET,
) -> MachineResult:
    """Run one RM-1 program; returns the output string or FAIL."""
    ops = parse_program(program.value, program.length)
    result = execute_ops(ops, condition.value, condition.length, budget)
    if result is None:
        return FAIL
    return BitString(result[1], result[0])


def pair_encode(x1: BitString, x2: BitString) -> BitString:
    """Self-delimiting encoding of a pair into a single string.

    Layout: each bit of bin(|x2|) doubled, then the separator "01", then
    x1, then x2. bin(0) is the empty string, so ("", "") encodes to just
    "01". Doubling keeps the length header distinguishable from the
    separator, which makes the encoding uniquely decodable.
    """
    header = EMPTY
    n2 = x2.length
    if n2 > 0:
        for ch in format(n2, "b"):
            header = header.concat(BitString.from01(ch + ch))
    return header.concat(BitString.from01("01")).concat(x1).concat(x2)


def pair_decode(s: BitString) -> tuple[BitString, BitString]:
    """Inverse of pair_encode; raises ValueError on malformed input."""
    pos = 0
    header_bits = ""
    while True:
        if pos + 2 > s.length:
            raise ValueError("pair encoding ended inside the length header")
        b0, b1 = s.bit(pos), s.bit(pos + 1)
        pos += 2
        if (b0, b1) == (0, 1):
            break
        if b0 != b1:
            raise ValueError("corrupt doubled bit in pair header")
        header_bits += str(b0)
    n2 = int(header_bits, 2) if header_bits else 0
    remaining = s.length - pos
    n1 = remaining - n2
    if n1 < 0:
        raise ValueError("pair payload shorter than declared second part")
    shift = s.length - pos - n1
    x1 = BitString(n1, (s.value >> shift) & ((1 << n1) - 1))
    x2 = BitString(n2, s.value & ((1 << n2) - 1))
    return x1, x2
