import hashlib
import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference import (
    brute_complexity_map,
    brute_symmetry,
    brute_table_from_json,
    fancy_index_matrix,
)

from kextract import calibration, oracle
from kextract.bits import EMPTY, BitString, all_strings
from kextract.cli import dispatch
from kextract.machine import MachineBudget
from kextract.oracle import (
    MAX_CELLS,
    MAX_ENTRY,
    MAX_N,
    NOT_FOUND,
    ComplexityTable,
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
    """Relaxing shortest paths instead of running programs changes no entry."""
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


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 3),
    l_max=st.integers(0, 9),
    max_out=st.integers(1, 8),
    max_ops=st.integers(1, 6),
    conds=st.lists(
        st.integers(0, 5).flatmap(
            lambda k: st.builds(BitString, st.just(k), st.integers(0, (1 << k) - 1))
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_pruned_builder_matches_running_every_program(n, l_max, max_out, max_ops, conds):
    """The layered relaxation against plain execution of all programs,
    under tiny budgets and conditions of mixed lengths."""
    budget = MachineBudget(max_output_bits=max_out, max_opcodes=max_ops)
    table = build_quiet(n, conds, l_max=l_max, budget=budget)
    for y in table.conditions:
        expect = brute_complexity_map(n, y, l_max, budget)
        got = table.entries(y)
        assert {x: int(got[x]) for x in np.flatnonzero(got >= 0)} == expect, y


def condition_lists(lengths):
    """Lists of conditions whose lengths come from lengths; a repeat
    collapses in the build."""
    return st.lists(
        st.sampled_from(lengths).flatmap(
            lambda k: st.builds(BitString, st.just(k), st.integers(0, (1 << k) - 1))
        ),
        min_size=1,
        max_size=6,
    )


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(0, 7),
    l_max=st.integers(0, 22),
    max_out=st.integers(1, 9),
    max_ops=st.integers(1, 9),
    conds=condition_lists([0, 1, 2, 3, 5, 7, 8, 63, 64, 70, 80]),
)
@example(n=7, l_max=18, max_out=9, max_ops=4, conds=[EMPTY, BitString(7, 5), BitString(7, 99)])
@example(n=7, l_max=20, max_out=5, max_ops=9, conds=[BitString(3, 6), BitString(3, 1)])
@example(
    n=6,
    l_max=16,
    max_out=9,
    max_ops=9,
    conds=[BitString(70, 0b101101 << 64 | 3), BitString(64, (1 << 64) - 1), BitString(70, 1)],
)
def test_view_relaxation_matches_the_fancy_index_reference(n, l_max, max_out, max_ops, conds):
    """Whole matrices against reference.fancy_index_matrix, the
    fancy-index store per edge, past brute_complexity_map's reach: op
    budgets below n (the op-count axis), output caps below n, conditions
    past 63 bits, and several conditions of one length."""
    budget = MachineBudget(max_output_bits=max_out, max_opcodes=max_ops)
    table = build_quiet(n, conds, l_max=l_max, budget=budget)
    expect = fancy_index_matrix(n, list(table.conditions), l_max, budget)
    assert table._matrix.dtype == expect.dtype and np.array_equal(table._matrix, expect)


def test_long_conditions_stay_exact():
    """COPY windows of 70- and 40-bit conditions, past int64; at n=6 a
    COPY is cheaper than six EMITs, so every window shows."""
    conds = [EMPTY, BitString(70, 0b101101 << 64 | 0b010010), BitString(40, 0xF0F0F0F0F0)]
    table = build_quiet(6, conds, l_max=12)
    for y in conds:
        expect = brute_complexity_map(6, y, 12)
        assert {x: table.complexity_of_value(x, y) for x in expect} == expect
        assert table.not_found_count(y) == 64 - len(expect)
    assert table.complexity(BitString(6, 0b101101), conds[1]) == 8  # COPY(6, 1)


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
    with pytest.raises(ValueError, match="not covered"):
        oracle_n2_all.complexity(BitString.from01("00"), BitString.from01("000"))
    with pytest.raises(ValueError):
        oracle_n2_all.complexity(BitString.from01("0"))


def test_builder_guards():
    assert (build_complexity_table(2, [EMPTY], l_max=25).entries() == 4).all()
    with pytest.raises(ValueError):
        build_complexity_table(2, [])
    with pytest.raises(ValueError):
        build_complexity_table(-1, [EMPTY])
    with pytest.raises(ValueError, match="target length"):
        build_complexity_table(MAX_N + 1, [EMPTY], l_max=4)  # refused before allocating
    too_many = all_strings(MAX_CELLS.bit_length() - 1 - 12) + [EMPTY]
    with pytest.raises(ValueError, match="cell cap"):
        build_complexity_table(12, too_many, l_max=4)


def test_negative_l_max_is_refused(tmp_path, capsys):
    with pytest.raises(ValueError, match="l_max must be nonnegative"):
        build_complexity_table(2, [EMPTY], l_max=-1)
    out = str(tmp_path / "o.json")
    assert dispatch(["oracle", "build", "--n", "2", "--l-max", "-1", "--out", out]) == 2
    assert "l_max must be nonnegative" in capsys.readouterr().err


def test_l_max_up_to_an_int32_entry(tmp_path):
    """The largest l_max a file can hold builds, with no int32 overflow,
    and loads back; one more is refused before anything is written."""
    table = build_complexity_table(2, [EMPTY], l_max=MAX_ENTRY)
    assert np.array_equal(table.entries(), build_complexity_table(2, [EMPTY], l_max=6).entries())
    save_table(table, str(tmp_path / "wide.json"))
    loaded = load_table(str(tmp_path / "wide.json"))
    assert loaded.l_max == MAX_ENTRY and np.array_equal(loaded.entries(), table.entries())
    # one op reaches no 2-bit target under lambda, however large l_max is
    lean = build_complexity_table(2, [EMPTY], l_max=MAX_ENTRY, budget=MachineBudget(4096, 1))
    assert lean.not_found_count() == 4
    out = tmp_path / "past.json"
    argv = ["oracle", "build", "--n", "2", "--l-max", str(MAX_ENTRY + 1), "--out", str(out)]
    assert dispatch(argv) == 2
    assert not out.exists()


def test_work_guard_refuses_before_allocating(monkeypatch):
    """COPY positions run to the condition's length, 200,000 of them per
    layer here: minutes of work, refused before the relaxation starts."""

    def never(*args):
        raise AssertionError("the relaxation ran")

    monkeypatch.setattr(oracle, "_minimal_lengths", never)
    with pytest.raises(ValueError, match="cell updates"):
        build_complexity_table(12, [BitString(200_000, 1)], l_max=10**6)


@pytest.mark.parametrize(
    "n, conds, l_max, budget",
    [
        (6, [EMPTY] + all_strings(3), 12, MachineBudget()),
        (5, [EMPTY, BitString(9, 300), BitString.from01("1")], 7, MachineBudget()),
        (5, [EMPTY] + all_strings(2), 10, MachineBudget(4, 4096)),  # output cap < n
        (4, [EMPTY] + all_strings(4), 1, MachineBudget()),  # no op fits
        (4, [EMPTY] + all_strings(2), 8, MachineBudget(8, 2)),  # op-count axis
    ],
)
def test_work_estimate_counts_the_relaxation(monkeypatch, n, conds, l_max, budget):
    """The guard's price is the cells the relaxation fills plus the cells
    each edge reads, times the op counts kept: a cap of exactly that
    lets the build run, one less refuses it."""
    done = []
    real_full, real_relax = np.full, oracle._relax

    def full(shape, *args, **kwargs):
        done.append(int(np.prod(shape)))
        return real_full(shape, *args, **kwargs)

    def relax(dst, step, rows, targets, cand):
        done.append(dst.shape[0] * cand[0].size)  # priced at every op count
        real_relax(dst, step, rows, targets, cand)

    monkeypatch.setattr(oracle.np, "full", full)
    monkeypatch.setattr(oracle, "_relax", relax)
    build_quiet(n, conds, l_max=l_max, budget=budget)
    monkeypatch.setattr(oracle, "MAX_WORK", sum(done))
    build_quiet(n, conds, l_max=l_max, budget=budget)
    monkeypatch.setattr(oracle, "MAX_WORK", oracle.MAX_WORK - 1)
    with pytest.raises(ValueError, match="cell updates"):
        build_quiet(n, conds, l_max=l_max, budget=budget)


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


# The field each malformed-structure case's message names.
NAMED_FAULTS = {
    "document": "oracle table is not a JSON object",
    "entry": "entry 0 is not a JSON object",
    "entries": "entries is not a JSON list",
    "missing": "entry 0 has no 'c' field",
    "target_type": "entry target_hex .* is not a string",
    "hex": "condition hex .* is not a string",
    "repeat": "condition 1 repeats condition 0",
    "wide": "l_max 1099511627776 does not fit an int32 entry",
}


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
        ("l_max", 1 << 31),  # c is int32
        pytest.param("wide", 1 << 35, id="l_max-wide"),  # and c past int32
        pytest.param("repeat", "lambda", id="repeat-lambda"),
        ("n", 2.0),
        ("n", None),
        ("n", 40),  # a 2^40-entry row per condition
        ("n", 24),  # five 2^24-entry rows pass the cell cap
        ("len", "2"),  # of the first 2-bit condition
        ("out", True),
        ("ops", -5),
        ("document", "list"),
        ("entry", "list"),
        ("entries", "dict"),
        ("missing", "c"),
        ("target_type", 5),
        pytest.param("target_type", [1], id="target_type-list"),
        ("target_type", None),
        ("hex", 5),
        pytest.param("hex", [1], id="hex-list"),
        ("hex", None),
    ],
)
def test_corrupt_json_is_a_usage_error(tmp_path, oracle_n2_all, field, value):
    doc = table_to_json(oracle_n2_all)
    if field == "duplicate":
        doc["entries"].append(dict(doc["entries"][0]))
    elif field in ("n", "l_max"):
        doc[field] = value
    elif field == "wide":
        doc["l_max"] = 1 << 40
        doc["entries"][0]["c"] = value
    elif field == "repeat":
        # Condition 1 becomes lambda, which condition 0 already is.
        doc["conditions"][1] = {"len": 0, "hex": ""}
    elif field in ("len", "hex"):
        doc["conditions"][1][field] = value
    elif field in ("out", "ops"):
        doc["budget"][field] = value
    elif field == "document":
        doc = [doc]
    elif field == "entry":
        doc["entries"][0] = list(doc["entries"][0].values())
    elif field == "entries":
        doc["entries"] = {}
    elif field == "missing":
        del doc["entries"][0][value]
    elif field == "target_type":
        doc["entries"][0]["target_hex"] = value
    else:
        doc["entries"][0][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=NAMED_FAULTS.get(field)):
        table_from_json(doc)
    code = dispatch(["oracle", "query", "--table", str(path), "--target", "00"])
    assert code == 2


def test_l_max_up_to_int32_loads(oracle_n2_all):
    doc = table_to_json(oracle_n2_all)
    doc["l_max"] = (1 << 31) - 1
    doc["entries"][0]["c"] = (1 << 31) - 1  # C('00')
    del doc["entries"][1]  # C('01') becomes NOT_FOUND
    table = table_from_json(doc)
    assert table.complexity(BitString.from01("00")) == (1 << 31) - 1
    # The NOT_FOUND floor, l_max + 1, is past int32 and still exact.
    assert table.lower_bounds()[:2].tolist() == [(1 << 31) - 1, 1 << 31]


def canonical_bytes(table):
    return (json.dumps(table_to_json(table), indent=2, sort_keys=True) + "\n").encode()


def test_save_is_canonical(tmp_path, oracle_n2_all):
    path = tmp_path / "a.json"
    save_table(oracle_n2_all, str(path))
    assert path.read_bytes() == canonical_bytes(oracle_n2_all)


@st.composite
def small_tables(draw):
    """Tables with arbitrary entries: n=0 included, some with no entry at
    all, conditions up to 80 bits."""
    n = draw(st.integers(0, 4))
    l_max = draw(st.integers(0, 40))
    conds = draw(
        st.lists(
            st.integers(0, 80).flatmap(
                lambda k: st.builds(BitString, st.just(k), st.integers(0, (1 << k) - 1))
            ),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    cells = len(conds) << n
    values = st.just(-1) if draw(st.integers(0, 3)) == 0 else st.integers(-1, l_max)
    matrix = np.array(draw(st.lists(values, min_size=cells, max_size=cells)), np.int32)
    return ComplexityTable(
        n=n,
        l_max=l_max,
        budget=MachineBudget(draw(st.integers(1, 5000)), draw(st.integers(1, 5000))),
        conditions=tuple(conds),
        _matrix=matrix.reshape(len(conds), 1 << n),
    )


@settings(max_examples=200, deadline=None)
@given(table=small_tables())
def test_save_writes_the_canonical_dump(tmp_path_factory, table):
    """The streamed writer against json.dumps of table_to_json, and back."""
    path = tmp_path_factory.mktemp("save") / "t.json"
    save_table(table, str(path))
    assert path.read_bytes() == canonical_bytes(table)
    loaded = load_table(str(path))
    assert (loaded.n, loaded.l_max, loaded.budget) == (table.n, table.l_max, table.budget)
    assert loaded.conditions == table.conditions
    assert (loaded._matrix == table._matrix).all()


@st.composite
def row_tables(draw):
    """Tables of up to 12 conditions, so cond_idx takes one or two
    digits, with rows left empty and c on both sides of 9/10; one
    condition often, where the (target, next c) key range passes the
    matrix."""
    n = draw(st.integers(0, 4))
    rows = draw(st.one_of(st.just(1), st.integers(1, 12)))
    l_max = draw(st.integers(11, 40))
    values = draw(
        st.sampled_from(
            [st.sampled_from([-1, 0, 9, 10]), st.integers(8, 11), st.integers(-1, l_max)]
        )
    )
    matrix = np.full((rows, 1 << n), -1, dtype=np.int32)
    for row in matrix:
        if draw(st.booleans()):
            row[:] = draw(st.lists(values, min_size=1 << n, max_size=1 << n))
    return ComplexityTable(
        n=n,
        l_max=l_max,
        budget=MachineBudget(16, 16),
        conditions=tuple(BitString(i, 0) for i in range(rows)),
        _matrix=matrix,
    )


@settings(max_examples=200, deadline=None)
@given(table=row_tables(), block=st.integers(1, 7))
def test_save_splits_rows_across_entry_blocks(tmp_path_factory, table, block):
    """Entry blocks of 1 to 7 entries, so rows are split between blocks:
    save_table still writes json.dumps's bytes, and the fast path reads
    them back."""
    path = tmp_path_factory.mktemp("blocks") / "t.json"
    with mock.patch.object(oracle, "_ENTRY_BLOCK", block):
        save_table(table, str(path))
        blob = path.read_bytes()
        assert blob == canonical_bytes(table)
        loaded = oracle._load_canonical(blob)
    assert loaded is not None
    assert (loaded.l_max, loaded.conditions) == (table.l_max, table.conditions)
    assert (loaded._matrix == table._matrix).all()


def test_target_pieces_spell_pack_hex():
    """The renderer's target pieces, written as one byte array, against
    BitString.pack_hex at every target length, padded widths included."""
    for n in range(MAX_N + 1):
        xs = sorted({0, ((1 << n) - 1) // 3, (1 << n) - 1})
        assert oracle._target_pieces(n, np.array(xs)) == [
            f'{BitString(n, x).pack_hex()}"\n    }}'.encode() for x in xs
        ]


def load_outcome(loader, doc):
    """What a loader makes of doc: the table's contents or its message."""
    try:
        t = loader(doc)
    except ValueError as exc:
        return "error", str(exc)
    return t.n, t.l_max, t.budget, t.conditions, t._matrix.tolist()


NOT_INTS = st.sampled_from([True, False, 1.0, "1", None, [0], {}])


ENTRY_FAULTS = ["cond_idx", "cond_idx_type", "c", "c_type", "hex", "padding", "duplicate"]
FAULTS = [None, *ENTRY_FAULTS, "condition"]


def draw_fault(doc, fault, i, table, data):
    """Draw a fault of the given kind into entry i of doc, or for
    "condition" into its conditions."""
    entries = doc["entries"]
    e = entries[i]
    if fault == "condition":
        conds = doc["conditions"]
        assume(len(conds) > 1)
        j = data.draw(st.integers(1, len(conds) - 1))
        conds[j] = dict(conds[data.draw(st.integers(0, j - 1))])
    elif fault in ("cond_idx", "c"):
        top = len(table.conditions) if fault == "cond_idx" else table.l_max + 1
        e[fault] = data.draw(st.sampled_from([-1, top, -(1 << 40), top + (1 << 40)]))
    elif fault in ("cond_idx_type", "c_type"):
        e[fault[:-5]] = data.draw(NOT_INTS)
    elif fault == "hex":
        e["target_hex"] = data.draw(st.sampled_from(["zz", "0g", "0", "000000"]))
    elif fault == "padding":
        assume(table.n % 8)
        e["target_hex"] = f"{int(e['target_hex'], 16) | 1:02x}"
    else:
        twin = dict(e, c=data.draw(st.integers(0, table.l_max)))
        twin["target_hex"] = data.draw(st.sampled_from([str.lower, str.upper]))(
            twin["target_hex"]
        )
        entries.insert(data.draw(st.integers(i + 1, len(entries))), twin)


def faulty_doc(table, fault, data):
    """table_to_json(table) with one fault of the given kind drawn in
    and, on half the draws, a second entry fault in another entry, which
    may come before or after the first."""
    doc = table_to_json(table)
    entries = doc["entries"]
    if fault is None:
        return doc
    if not entries:
        zero = BitString(table.n, 0).pack_hex()
        entries.append({"cond_idx": 0, "target_hex": zero, "c": 0})
    first = data.draw(st.integers(0, len(entries) - 1))
    faults = [(first, fault)]
    if data.draw(st.booleans()):
        assume(len(entries) > 1)
        other = data.draw(st.integers(0, len(entries) - 1).filter(lambda j: j != first))
        faults.append((other, data.draw(st.sampled_from(ENTRY_FAULTS))))
    # The later entry first, so a duplicate's twin, inserted after its
    # entry, moves neither faulted entry.
    for i, kind in sorted(faults, reverse=True):
        draw_fault(doc, kind, i, table, data)
    return doc


@settings(max_examples=300, deadline=None)
@given(table=small_tables(), fault=st.sampled_from(FAULTS), data=st.data())
def test_loader_matches_entry_by_entry_reference(table, fault, data):
    """table_from_json against reference.brute_table_from_json: equal
    tables on valid documents, the same message, the first fault's in
    document order, on one fault or two."""
    doc = faulty_doc(table, fault, data)
    got = load_outcome(table_from_json, doc)
    assert got == load_outcome(brute_table_from_json, doc)
    assert (got[0] == "error") == (fault is not None)


def test_first_entry_fault_in_document_order_is_reported():
    """Two faulty entries: the message is the earlier entry's, whichever
    field each fault is in."""
    table = ComplexityTable(1, 4, MachineBudget(9, 9), (EMPTY,), np.array([[1, 2]], np.int32))
    doc = table_to_json(table)
    doc["entries"][0]["c"] = 99
    doc["entries"][1]["cond_idx"] = 9
    with pytest.raises(ValueError, match=r"^entry c 99 is not in \[0, l_max=4\]$"):
        table_from_json(doc)
    doc["entries"].reverse()
    with pytest.raises(ValueError, match=r"^entry cond_idx 9 is not in \[0, 1\)$"):
        table_from_json(doc)


def load_file(path):
    """load_table(path) with every file size offered to the fast path."""
    with mock.patch.object(oracle, "_CANONICAL_MIN_BYTES", 0):
        return load_table(str(path))


@settings(max_examples=300, deadline=None)
@given(table=small_tables(), fault=st.sampled_from(FAULTS), data=st.data())
def test_file_loader_matches_dict_loader(tmp_path_factory, table, fault, data):
    """Each document above written in save_table's layout: load_table
    gives table_from_json's table or message, and the fast path takes
    exactly the valid ones, which are save_table's own files."""
    doc = faulty_doc(table, fault, data)
    blob = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    path = tmp_path_factory.mktemp("faults") / "t.json"
    path.write_bytes(blob)
    assert load_outcome(load_file, path) == load_outcome(table_from_json, doc)
    assert (oracle._load_canonical(blob) is None) == (fault is not None)


def swap_entries(blob, i):
    """blob with entries i and i + 1 (not the last) in the other order."""
    head, entries = blob.split(b'"entries": [')
    items = entries.split(b"},")
    items[i], items[i + 1] = items[i + 1], items[i]
    return head + b'"entries": [' + b"},".join(items)


def swap_across_rows(blob):
    """blob with the last entry of condition 0 and the first of
    condition 1 in the other order."""
    entries = json.loads(blob)["entries"]
    return swap_entries(blob, sum(e["cond_idx"] == 0 for e in entries) - 1)


# Files one edit away from save_table's output, and whether they are
# still a valid table; the fast path refuses them all.
NEAR_CANONICAL = {
    "uppercase-hex": (lambda b: b.replace(b'"c0"', b'"C0"', 1), True),
    "leading-zero-c": (lambda b: b.replace(b'"c": ', b'"c": 0', 1), False),
    "negative-c": (lambda b: b.replace(b'"c": ', b'"c": -', 1), False),
    "crlf": (lambda b: b.replace(b"\n", b"\r\n"), True),
    "no-trailing-newline": (lambda b: b[:-1], True),
    "trailing-space": (lambda b: b + b" ", True),
    "utf8-bom": (lambda b: b"\xef\xbb\xbf" + b, False),
    "entries-out-of-order": (lambda b: swap_entries(b, 0), True),
    "rows-out-of-order": (swap_across_rows, True),
    "letter-in-c": (lambda b: b.replace(b'"c": ', b'"c": 1a', 1), False),
    "ten-digit-cond-idx": (
        lambda b: b.replace(b'"cond_idx": ', b'"cond_idx": 100000000', 1),
        False,
    ),
    "eleven-digit-c": (lambda b: b.replace(b'"c": ', b'"c": 1000000000', 1), False),
}


@pytest.mark.parametrize("case", sorted(NEAR_CANONICAL))
def test_fast_path_refuses_near_canonical_files(tmp_path, oracle_n2_all, case):
    edit, valid = NEAR_CANONICAL[case]
    path = tmp_path / "t.json"
    save_table(oracle_n2_all, str(path))
    blob = edit(path.read_bytes())
    path.write_bytes(blob)
    assert oracle._load_canonical(blob) is None
    got = load_outcome(load_file, path)
    assert got == load_outcome(lambda b: table_from_json(json.loads(b.decode("utf-8"))), blob)
    if valid:
        assert got == load_outcome(lambda t: t, oracle_n2_all)
    else:
        assert got[0] == "error"
        assert dispatch(["oracle", "query", "--table", str(path), "--target", "00"]) == 2


def test_fast_path_reads_the_widest_entry(tmp_path):
    """c = 2^31 - 1 takes ten digits and still loads without json."""
    matrix = np.array([[MAX_ENTRY, -1, 0, 7]], dtype=np.int32)
    table = ComplexityTable(2, MAX_ENTRY, MachineBudget(9, 9), (EMPTY,), matrix)
    path = tmp_path / "t.json"
    save_table(table, str(path))
    loaded = oracle._load_canonical(path.read_bytes())
    assert loaded is not None and (loaded._matrix == matrix).all()
    assert loaded.l_max == MAX_ENTRY and loaded.budget == table.budget


@pytest.mark.parametrize("n", [0, 2, 4, 5, 8])
def test_load_reads_save_output_without_json(tmp_path, monkeypatch, n):
    """save_table's files load through the fast path alone, padded hex
    widths included; table_from_json, the general path, is never run."""
    table = build_quiet(n, [EMPTY] + all_strings(8), l_max=16)
    path = tmp_path / "t.json"
    save_table(table, str(path))
    assert path.stat().st_size >= oracle._CANONICAL_MIN_BYTES

    def refuse(doc):
        raise AssertionError("the general path ran")

    monkeypatch.setattr(oracle, "table_from_json", refuse)
    loaded = load_table(str(path))
    assert (loaded.n, loaded.l_max, loaded.budget) == (table.n, table.l_max, table.budget)
    assert loaded.conditions == table.conditions
    assert (loaded._matrix == table._matrix).all()


def test_large_oracle_file_is_pinned(tmp_path):
    """n=8 over lambda and every 8-bit condition: 65,792 entries, so the
    writer and the loader's byte check both cross entry blocks. Size and
    digest were recorded with json.dump."""
    table = build_complexity_table(8, [EMPTY] + all_strings(8), l_max=16)
    path = tmp_path / "o8.json"
    save_table(table, str(path))
    blob = path.read_bytes()
    assert len(blob) == 4_984_246
    assert (
        hashlib.sha256(blob).hexdigest()
        == "9ad0967af12defb516c42b2607a8edf0fbe15ad134757bc181c26bed31db919d"
    )
    assert (load_table(str(path))._matrix == table._matrix).all()


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


@pytest.mark.parametrize(
    "n, constant, histogram",
    [
        (5, calibration.SYMMETRY_MAX_DEVIATION_N5, {0: 894, 2: 56, 4: 56, 6: 18}),
        (6, calibration.SYMMETRY_MAX_DEVIATION_N6, {0: 3106, 2: 608, 4: 302, 6: 76, 8: 4}),
    ],
)
def test_symmetry_constants(n, constant, histogram):
    """Singles at l_max=2n and pairs at l_max=4n, as calibration records."""
    singles = build_complexity_table(n, [EMPTY] + all_strings(n), l_max=2 * n)
    pairs = build_complexity_table(2 * n, [EMPTY], l_max=4 * n)
    report = symmetry_report(singles, pairs)
    assert (report.max_deviation, report.pairs_skipped) == (constant, 0)
    assert report.histogram == histogram


@st.composite
def symmetry_inputs(draw):
    """Singles over lambda and every n-bit condition, in a drawn order,
    and a 2n-bit pair table, both with NOT_FOUND entries among small
    values so that deviations tie and pairs get skipped."""
    n = draw(st.integers(0, 3))
    conds = draw(st.permutations([EMPTY] + all_strings(n)))

    def table(bits, conds):
        l_max = draw(st.integers(0, 6))
        cells = len(conds) << bits
        values = draw(st.lists(st.integers(-1, l_max), min_size=cells, max_size=cells))
        return ComplexityTable(
            n=bits,
            l_max=l_max,
            budget=MachineBudget(64, 64),
            conditions=tuple(conds),
            _matrix=np.array(values, np.int32).reshape(len(conds), 1 << bits),
        )

    return table(n, conds), table(2 * n, [EMPTY])


@settings(max_examples=200, deadline=None)
@given(inputs=symmetry_inputs(), block_cells=st.integers(1, 80))
def test_symmetry_matches_reference(inputs, block_cells):
    """Any block size, down to one x row per block, gives the pair-by-pair
    census, histogram keys in increasing order."""
    singles, pairs = inputs
    with mock.patch.object(oracle, "_SYMMETRY_BLOCK_CELLS", block_cells):
        report = symmetry_report(singles, pairs)
    assert report == brute_symmetry(singles, pairs)
    assert list(report.histogram) == sorted(report.histogram)


def test_symmetry_requires_pair_table(oracle_n4_all, oracle_n2_all):
    with pytest.raises(ValueError):
        symmetry_report(oracle_n4_all, oracle_n2_all)
