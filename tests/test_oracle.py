import json
import warnings

import numpy as np
import pytest
from reference import brute_complexity_map

from kextract.bits import EMPTY, BitString, all_strings
from kextract.cli import dispatch
from kextract.machine import FAIL, MachineBudget, parse_program, run_machine
from kextract.oracle import (
    NOT_FOUND,
    _output_length,
    build_complexity_table,
    load_table,
    save_table,
    symmetry_report,
    table_from_json,
    table_to_json,
)


def build_quiet(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_complexity_table(*args, **kwargs)


# ------------------------------------------------- brute-force equality


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_builder_matches_direct_enumeration(n):
    """The output-length prefilter must not change any entry."""
    conditions = [EMPTY] + all_strings(n)
    l_max = 2 * n + 2
    table = build_quiet(n, conditions, l_max=l_max)
    for y in conditions:
        expect = brute_complexity_map(n, y, l_max)
        entries = table.entries(y)
        for xv in range(1 << n):
            got = int(entries[xv])
            assert got == expect.get(xv, -1), (n, y, xv)


def test_builder_matches_direct_enumeration_tight_budget():
    budget = MachineBudget(max_output_bits=3, max_opcodes=2)
    table = build_quiet(2, [EMPTY, BitString.from01("11")], l_max=6, budget=budget)
    for y in table.conditions:
        expect = brute_complexity_map(2, y, 6, budget)
        for xv in range(4):
            assert table.complexity_of_value(xv, y) == expect.get(xv, NOT_FOUND)


def test_output_length_shortcut_agrees_with_execution():
    """_output_length is the builder's only shortcut; pin it to the
    machine semantics program by program."""
    budget = MachineBudget(max_output_bits=16, max_opcodes=8)
    conds = [EMPTY, BitString.from01("1"), BitString.from01("0110")]
    for length in range(11):
        for value in range(1 << length):
            ops = parse_program(value, length)
            predicted = _output_length(ops, budget)
            outs = [run_machine(BitString(length, value), y, budget) for y in conds]
            if predicted < 0:
                assert all(out is FAIL for out in outs)
            else:
                for out in outs:
                    assert out is FAIL or out.length == predicted


# ------------------------------------------------------- machine facts


def test_counting_bound_exact(oracle_n4_all):
    for y in oracle_n4_all.conditions:
        for k in range(oracle_n4_all.l_max + 2):
            assert oracle_n4_all.count_below(k, y) <= (1 << k) - 1


def test_empty_string_costs_nothing():
    table = build_quiet(0, [EMPTY], l_max=0)
    assert table.complexity(EMPTY) == 0


def test_single_bit_costs_two():
    table = build_quiet(1, [EMPTY], l_max=4)
    assert table.complexity(BitString.from01("0")) == 2
    assert table.complexity(BitString.from01("1")) == 2


def test_flat_profile_below_six_bits():
    """One EMIT per bit is optimal for every target up to 5 bits."""
    for n in range(1, 6):
        table = build_quiet(n, [EMPTY], l_max=2 * n)
        assert (table.entries() == 2 * n).all()


def test_six_bit_profile():
    table = build_quiet(6, [EMPTY], l_max=12)
    entries = table.entries()
    # REPEAT first pays off at 6 bits, and only for the two runs
    assert int(entries[0]) == 10
    assert int(entries[63]) == 10
    mid = np.delete(entries, [0, 63])
    assert (mid == 12).all()


def test_all_minimal_lengths_are_even(oracle_n4_all, oracle_n5_all):
    for table in (oracle_n4_all, oracle_n5_all):
        for y in table.conditions:
            arr = table.entries(y)
            assert (arr[arr >= 0] % 2 == 0).all()


def test_four_zeros_fixture(oracle_n4_all):
    # four EMIT0 is already optimal; REPEAT needs 2+2+1+3 = 8 too
    assert oracle_n4_all.complexity(BitString.from01("0000")) == 8


def test_copy_all_bound():
    """C_T(x|x) <= 2 floor(log2 n) + 4 via the COPY-everything program."""
    for n in (1, 2, 3, 4, 6, 8):
        bound = 2 * (n.bit_length() - 1) + 4
        xs = [BitString(n, 0), BitString(n, (1 << n) - 1), BitString(n, 5 % (1 << n))]
        table = build_quiet(n, xs, l_max=bound)
        for x in xs:
            assert table.complexity(x, x) <= bound


def test_conditional_copy_fixture(oracle_n4_all):
    x = BitString.from01("1011")
    assert oracle_n4_all.complexity(x, x) == 8


def test_counting_forces_a_hard_string():
    """n=8: fewer than 2^8 programs of length < 8, so something is hard."""
    table = build_quiet(8, [EMPTY], l_max=14)
    entries = table.entries()
    assert ((entries >= 8) | (entries < 0)).any()


def test_monotone_in_l_max():
    small = build_quiet(3, [EMPTY], l_max=4)
    big = build_quiet(3, [EMPTY], l_max=8)
    s, b = small.entries(), big.entries()
    grown = s >= 0
    assert (b[grown] <= s[grown]).all()
    assert (b >= 0).sum() >= grown.sum()


def test_monotone_in_budget():
    lean = build_quiet(2, [EMPTY], l_max=6, budget=MachineBudget(2, 2))
    full = build_quiet(2, [EMPTY], l_max=6)
    lo, hi = lean.entries(), full.entries()
    found = lo >= 0
    assert (hi[found] <= lo[found]).all()


# ------------------------------------------------------------ plumbing


def test_sentinel_comparisons():
    assert NOT_FOUND > 100
    assert NOT_FOUND >= 100
    assert not NOT_FOUND < 100
    assert not NOT_FOUND <= 100
    assert NOT_FOUND <= NOT_FOUND
    assert not NOT_FOUND > NOT_FOUND
    assert 5 < NOT_FOUND


def test_low_l_max_warns_and_marks_not_found():
    with pytest.warns(UserWarning, match="NOT_FOUND"):
        table = build_complexity_table(4, [EMPTY], l_max=6)
    assert table.not_found_count() == 1 << 4
    assert table.complexity(BitString.from01("1010")) is NOT_FOUND


def test_condition_validation(oracle_n2_all):
    with pytest.raises(KeyError):
        oracle_n2_all.complexity(BitString.from01("00"), BitString.from01("000"))
    with pytest.raises(ValueError):
        oracle_n2_all.complexity(BitString.from01("0"))


def test_builder_guards():
    with pytest.raises(ValueError):
        build_complexity_table(2, [EMPTY], l_max=25)
    with pytest.raises(ValueError):
        build_quiet(2, [EMPTY], l_max=11, max_l_max=10)
    build_quiet(2, [EMPTY], l_max=11, max_l_max=11)  # raising the guard works
    with pytest.raises(ValueError):
        build_complexity_table(2, [])
    with pytest.raises(ValueError):
        build_complexity_table(-1, [EMPTY])


def test_duplicate_conditions_collapse():
    table = build_quiet(1, [EMPTY, BitString.from01("1"), EMPTY], l_max=4)
    assert len(table.conditions) == 2


def test_entries_are_read_only(oracle_n2_all):
    with pytest.raises(ValueError):
        oracle_n2_all.entries()[0] = 0


# -------------------------------------------------------- serialization


def test_json_round_trip(tmp_path, oracle_n2_all):
    path = tmp_path / "t.json"
    save_table(oracle_n2_all, str(path))
    loaded = load_table(str(path))
    assert loaded.n == oracle_n2_all.n
    assert loaded.l_max == oracle_n2_all.l_max
    assert loaded.budget == oracle_n2_all.budget
    assert loaded.conditions == oracle_n2_all.conditions
    for y in loaded.conditions:
        assert (loaded.entries(y) == oracle_n2_all.entries(y)).all()


def test_json_schema_fields(oracle_n2_all):
    doc = table_to_json(oracle_n2_all)
    assert doc["version"] == 1
    assert set(doc) == {"version", "n", "l_max", "budget", "conditions", "entries"}
    assert set(doc["budget"]) == {"out", "ops"}
    assert all(set(c) == {"len", "hex"} for c in doc["conditions"])
    assert all(set(e) == {"cond_idx", "target_hex", "c"} for e in doc["entries"])
    # NOT_FOUND entries are omitted, not serialized as a magic number
    lean = table_to_json(build_quiet(3, [EMPTY], l_max=4))
    assert lean["entries"] == []


def test_json_version_check(oracle_n2_all):
    doc = table_to_json(oracle_n2_all)
    doc["version"] = 2
    with pytest.raises(ValueError):
        table_from_json(doc)


@pytest.mark.parametrize(
    "field, value",
    [
        ("cond_idx", 5),  # past the last of the 5 conditions
        ("cond_idx", -1),  # would alias the last condition
        ("c", 99),  # above l_max = 6
        ("c", -1),
        ("duplicate", None),
        ("target_hex", "3f"),  # "00" with its six padding bits set
        ("l_max", "6"),
        ("l_max", -1),
        ("n", 2.0),
        ("n", None),
        ("len", "2"),  # of the first 2-bit condition
        ("out", True),
        ("ops", -5),
    ],
)
def test_corrupt_json_is_a_usage_error(tmp_path, oracle_n2_all, field, value):
    doc = table_to_json(oracle_n2_all)
    if field == "duplicate":
        doc["entries"].append(dict(doc["entries"][0]))
    elif field in ("n", "l_max"):
        doc[field] = value
    elif field == "len":
        doc["conditions"][1][field] = value
    elif field in ("out", "ops"):
        doc["budget"][field] = value
    else:
        doc["entries"][0][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        table_from_json(doc)
    code = dispatch(["oracle", "query", "--table", str(path), "--target", "00"])
    assert code == 2


def test_save_is_canonical(tmp_path, oracle_n2_all):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_table(oracle_n2_all, str(p1))
    save_table(oracle_n2_all, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    json.loads(p1.read_text())  # well-formed


# ------------------------------------------------------------- symmetry


def test_symmetry_census_n1():
    singles = build_quiet(1, [EMPTY] + all_strings(1), l_max=4)
    pairs = build_quiet(2, [EMPTY], l_max=4)
    report = symmetry_report(singles, pairs)
    assert report.pairs_total == 4
    assert report.pairs_skipped == 0
    assert report.histogram == {0: 4}
    assert report.max_deviation == 0


def test_symmetry_census_n4(oracle_n4_all, oracle_n8_pairs):
    report = symmetry_report(oracle_n4_all, oracle_n8_pairs)
    assert report.pairs_total == 256
    assert report.pairs_skipped == 0
    assert report.max_deviation == 6
    assert report.histogram == {0: 238, 2: 10, 4: 6, 6: 2}


def test_symmetry_requires_pair_table(oracle_n4_all, oracle_n2_all):
    with pytest.raises(ValueError):
        symmetry_report(oracle_n4_all, oracle_n2_all)
