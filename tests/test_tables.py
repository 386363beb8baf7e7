import numpy as np
import pytest
from reference import gf2_poly_is_irreducible

from kextract import prng
from kextract.cli import dispatch
from kextract.tables import (
    IRREDUCIBLE_POLYS,
    SingleSourceTable,
    TwoSourceTable,
    gen_constant,
    gen_gf2_mult,
    gen_inner_product,
    gen_random,
    gen_random_single,
    gen_truncate,
    gf2_mult,
    read_table,
    write_table,
)

# ----------------------------------------------------------- validation


def test_two_source_validation():
    with pytest.raises(ValueError):
        TwoSourceTable(1, 1, np.zeros((2, 3), dtype=np.uint16))
    with pytest.raises(ValueError):
        TwoSourceTable(1, 1, np.full((2, 2), 2, dtype=np.uint16))
    with pytest.raises(ValueError):
        TwoSourceTable(17, 1, np.zeros((2, 2), dtype=np.uint16))
    t = TwoSourceTable(1, 1, np.zeros((2, 2), dtype=np.uint16))
    with pytest.raises(ValueError):
        t.colors[0, 0] = 1


def test_single_source_validation():
    with pytest.raises(ValueError):
        SingleSourceTable(2, 1, np.zeros(3, dtype=np.uint16))
    with pytest.raises(ValueError):
        SingleSourceTable(2, 1, np.array([0, 0, 0, 2], dtype=np.uint16))


def test_cell_guard():
    with pytest.raises(ValueError):
        gen_constant(13, 1, 0)


@pytest.mark.parametrize("generate", [
    lambda n: gen_inner_product(n),
    lambda n: gen_gf2_mult(n, 2),
    lambda n: gen_random(n, 2, 1),
    lambda n: gen_random_single(n, 2, 1),
    lambda n: gen_constant(n, 2, 0),
    lambda n: gen_truncate(n, 2),
])
def test_generators_check_the_size_before_allocating(monkeypatch, generate):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    for name in ("arange", "zeros", "full"):
        monkeypatch.setattr(np, name, refuse)
    monkeypatch.setattr(prng, "stream", refuse)
    for n in (40, 17, -1):
        with pytest.raises(ValueError):
            generate(n)


def test_transposed():
    t = gen_random(2, 2, 3)
    tt = t.transposed()
    assert tt.color(1, 2) == t.color(2, 1)
    assert tt.transposed().colors.tolist() == t.colors.tolist()


# ----------------------------------------------------------- generators


def test_inner_product_fixtures():
    t1 = gen_inner_product(1)
    assert t1.colors.ravel().tolist() == [0, 0, 0, 1]
    t2 = gen_inner_product(2)
    assert t2.color(1, 1) == 1  # x=01, y=01
    assert int(t2.colors.sum()) == 6
    for x in range(4):
        for y in range(4):
            assert t2.color(x, y) == bin(x & y).count("1") % 2


def test_inner_product_symmetry():
    t = gen_inner_product(3)
    assert (t.colors == t.colors.T).all()


def test_polynomials_are_irreducible():
    for degree, poly in IRREDUCIBLE_POLYS.items():
        assert gf2_poly_is_irreducible(poly, degree), hex(poly)


def test_gf2_mult_hand_example():
    # (x+1)^2 = x^2+1, reduced by x^2+x+1 leaves x -> "10"
    assert gf2_mult(3, 3, 2) == 2
    # low bit of "10" is 0
    assert gen_gf2_mult(2, 1).color(3, 3) == 0


def test_gf2_field_axioms():
    for n in (2, 3, 4):
        size = 1 << n
        for a in range(size):
            assert gf2_mult(a, 1, n) == a
            assert gf2_mult(a, 0, n) == 0
            for b in range(size):
                p = gf2_mult(a, b, n)
                assert p < size
                assert p == gf2_mult(b, a, n)
                if a and b:
                    assert p != 0  # no zero divisors in a field
    # associativity, sampled
    for n in (3, 5):
        for a, b, c in [(3, 5, 6), (1, 7, 7), (2, 3, 4)]:
            lhs = gf2_mult(gf2_mult(a, b, n), c, n)
            rhs = gf2_mult(a, gf2_mult(b, c, n), n)
            assert lhs == rhs


def test_gen_gf2_matches_scalar():
    for n in (2, 3, 4, 5):
        for m in (1, n // 2 or 1, n):
            table = gen_gf2_mult(n, m)
            mask = (1 << m) - 1
            for a in range(1 << n):
                for b in range(1 << n):
                    assert table.color(a, b) == (gf2_mult(a, b, n) & mask)


def test_gf2_zero_row():
    assert not gen_gf2_mult(4, 2).colors[0].any()


def test_gen_gf2_validation():
    with pytest.raises(ValueError):
        gen_gf2_mult(4, 5)
    with pytest.raises(ValueError):
        gen_gf2_mult(4, 0)


def test_gen_random_matches_prng_stream():
    t = gen_random(2, 2, 99)
    outs = prng.stream(99, 16)
    expect = [(int(v) & 3) for v in outs]
    assert t.colors.ravel().tolist() == expect  # row-major order
    s = gen_random_single(3, 1, 99)
    outs = prng.stream(99, 8)
    assert s.colors.tolist() == [int(v) & 1 for v in outs]


def test_gen_random_determinism():
    a = gen_random(3, 2, 7)
    b = gen_random(3, 2, 7)
    c = gen_random(3, 2, 8)
    assert (a.colors == b.colors).all()
    assert (a.colors != c.colors).any()


def test_gen_constant():
    t = gen_constant(2, 1, 0)
    assert t.colors.ravel().tolist() == [0] * 16
    with pytest.raises(ValueError):
        gen_constant(2, 1, 2)


def test_gen_truncate():
    t = gen_truncate(3, 2)
    assert t.color(0b101) == 0b10
    assert t.colors.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]
    with pytest.raises(ValueError):
        gen_truncate(2, 3)


# --------------------------------------------------------------- binary


def test_kext_round_trip_two_source(tmp_path):
    t = gen_random(3, 4, 41)
    path = str(tmp_path / "t.kext")
    write_table(t, path)
    back = read_table(path)
    assert isinstance(back, TwoSourceTable)
    assert (back.n, back.m) == (3, 4)
    assert (back.colors == t.colors).all()


def test_kext_round_trip_single_source(tmp_path):
    t = gen_truncate(4, 2)
    path = str(tmp_path / "s.kext")
    write_table(t, path)
    back = read_table(path)
    assert isinstance(back, SingleSourceTable)
    assert (back.colors == t.colors).all()


def test_kext_header_layout(tmp_path):
    t = gen_constant(1, 2, 3)
    path = str(tmp_path / "h.kext")
    write_table(t, path)
    blob = (tmp_path / "h.kext").read_bytes()
    assert blob[:4] == b"KEXT"
    assert blob[4] == 1  # version
    assert blob[5:7] == (1).to_bytes(2, "little")  # n
    assert blob[7:9] == (2).to_bytes(2, "little")  # m
    assert blob[9] == 0  # two-source flag
    assert blob[10:] == b"\x03\x00" * 4  # u16 little-endian colors


def test_kext_rejects_garbage(tmp_path):
    path = str(tmp_path / "bad.kext")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + bytes(6))
    with pytest.raises(ValueError):
        read_table(path)
    t = gen_constant(2, 1, 0)
    good = str(tmp_path / "good.kext")
    write_table(t, good)
    blob = (tmp_path / "good.kext").read_bytes()
    with open(path, "wb") as fh:
        fh.write(blob[:4] + b"\x02" + blob[5:])
    with pytest.raises(ValueError):
        read_table(path)  # unknown version
    with open(path, "wb") as fh:
        fh.write(blob[:-2])
    with pytest.raises(ValueError):
        read_table(path)  # truncated payload
    with open(path, "wb") as fh:
        fh.write(blob[:9] + b"\x07" + blob[10:])
    with pytest.raises(ValueError):
        read_table(path)  # unknown kind flag
    with pytest.raises(TypeError):
        write_table(object(), str(tmp_path / "x.kext"))


@pytest.mark.parametrize(
    "blob, part",
    [
        (b"KEXT", "header"),
        (b"KEXT\x01\x02", "header"),
        # an n=1 grid needs 4 u16 colors; 7 bytes is not a whole number
        (b"KEXT\x01\x01\x00\x01\x00\x00" + bytes(7), "payload"),
        # an n=2 line needs 4 u16 colors; 3 is a whole number but short
        (b"KEXT\x01\x02\x00\x01\x00\x01" + bytes(6), "payload"),
    ],
    ids=["4-byte", "6-byte", "odd-payload", "short-line-payload"],
)
def test_kext_truncated_header_is_a_usage_error(tmp_path, blob, part):
    path = str(tmp_path / "short.kext")
    with open(path, "wb") as fh:
        fh.write(blob)
    with pytest.raises(ValueError, match=f"truncated KEXT {part}"):
        read_table(path)
    code = dispatch(["table", "verify", "--table", path, "--mode", "almost", "--k", "1"])
    assert code == 2
