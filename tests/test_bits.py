import pytest
from hypothesis import given
from hypothesis import strategies as st

from kextract.bits import EMPTY, BitString, all_strings

bitstrings = st.integers(0, 64).flatmap(
    lambda n: st.builds(BitString, st.just(n), st.integers(0, (1 << n) - 1))
)


def test_empty_is_valid():
    assert EMPTY.length == 0
    assert EMPTY.value == 0
    assert EMPTY.to01() == ""
    assert len(EMPTY) == 0


def test_construction_rejects_bad_values():
    with pytest.raises(ValueError):
        BitString(-1, 0)
    with pytest.raises(ValueError):
        BitString(2, 4)
    with pytest.raises(ValueError):
        BitString(0, 1)


def test_from01_to01_fixtures():
    assert BitString.from01("0110").value == 6
    assert BitString.from01("0110").to01() == "0110"
    assert BitString.from01("").length == 0
    # leading zeros are significant: "0001" and "1" are different strings
    assert BitString.from01("0001") != BitString.from01("1")
    with pytest.raises(ValueError):
        BitString.from01("012")


@given(bitstrings)
def test_to01_round_trip(s):
    assert BitString.from01(s.to01()) == s


def test_bit_indexing_is_msb_first():
    s = BitString.from01("1010")
    assert [s.bit(i) for i in range(4)] == [1, 0, 1, 0]
    with pytest.raises(IndexError):
        s.bit(4)
    with pytest.raises(IndexError):
        s.bit(-1)


def test_concat_and_prefix():
    a = BitString.from01("10")
    b = BitString.from01("011")
    assert a.concat(b).to01() == "10011"
    assert a.concat(EMPTY) == a
    assert EMPTY.concat(b) == b
    assert a.concat(b).prefix(2) == a
    assert a.concat(b).prefix(0) == EMPTY
    with pytest.raises(ValueError):
        a.prefix(3)


@given(bitstrings, bitstrings)
def test_concat_length_and_order(a, b):
    c = a.concat(b)
    assert c.length == a.length + b.length
    assert c.to01() == a.to01() + b.to01()


@given(bitstrings)
def test_pack_hex_round_trip(s):
    assert BitString.unpack_hex(s.length, s.pack_hex()) == s


def test_pack_hex_pads_on_the_right():
    assert BitString.from01("1").pack_hex() == "80"
    assert BitString.from01("00000001").pack_hex() == "01"
    assert EMPTY.pack_hex() == ""
    with pytest.raises(ValueError):
        BitString.unpack_hex(4, "0000")


@pytest.mark.parametrize("length, hex_str", [(2, "3f"), (1, "01"), (7, "ff"), (12, "fff1")])
def test_unpack_hex_rejects_padding_bits(length, hex_str):
    with pytest.raises(ValueError):
        BitString.unpack_hex(length, hex_str)


def test_all_strings():
    assert all_strings(0) == [EMPTY]
    assert [s.to01() for s in all_strings(2)] == ["00", "01", "10", "11"]
    assert len(all_strings(5)) == 32


def test_hashable_and_frozen():
    s = BitString.from01("01")
    assert {s: 1}[BitString(2, 1)] == 1
    with pytest.raises(AttributeError):
        s.value = 3
