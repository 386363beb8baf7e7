import warnings

import numpy as np
import pytest
from reference import brute_class

from kextract.bits import EMPTY, BitString, all_strings
from kextract.cli import dispatch
from kextract.extraction import (
    DELTA_MARGIN,
    SourcePairClass,
    class_outputs,
    compute_range,
    dependency,
    enumerate_class,
    equivalence_report,
    extraction_check,
    popular_color_demo,
    popular_prefix_demo,
    popular_range_procedure,
)
from kextract.machine import MachineBudget
from kextract.oracle import NOT_FOUND, ComplexityTable, build_complexity_table, save_table
from kextract.tables import (
    SingleSourceTable,
    gen_constant,
    gen_random,
    gen_random_single,
    gen_truncate,
)

# ------------------------------------------------------------ dependency


def test_dependency_zero_everywhere_n4(oracle_n4_all):
    for xv in (0, 3, 9, 15):
        for yv in (0, 7, 15):
            assert dependency(oracle_n4_all, BitString(4, xv), BitString(4, yv)) == 0


def test_dependency_indeterminate_on_not_found():
    # one opcode only: nothing but C(x|x)=6 single-COPY programs survive
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t = build_complexity_table(
            2, [EMPTY] + [BitString(2, v) for v in range(4)],
            l_max=8, budget=MachineBudget(4096, 1),
        )
    x, y = BitString(2, 1), BitString(2, 2)
    assert t.complexity(x) is NOT_FOUND
    assert dependency(t, x, y) is None
    assert dependency(t, x, x) is None  # C(x|x)=6 but C(x) is unknown


def test_lower_bounds_and_from_bound(mixed_oracles):
    for name, table in mixed_oracles.items():
        assert table.from_bound(table.l_max) == table.l_max
        assert table.from_bound(table.l_max + 1) is NOT_FOUND  # C >= l_max + 1
        for y in table.conditions:
            bounds = table.lower_bounds(y)
            assert bounds.dtype == np.int64 and bounds.flags.writeable
            for xv, bound in enumerate(bounds.tolist()):
                c = table.complexity(BitString(table.n, xv), y)
                assert bound == (table.l_max + 1 if c is NOT_FOUND else c), name
                assert table.from_bound(bound) == c, name
            # a fresh row each call: writing one leaves the table alone
            bounds[:] = -5
            assert (table.lower_bounds(y) >= 0).all()


# ----------------------------------------------------------- class census


def test_enumerate_class_full_and_empty(oracle_n4_all):
    full = enumerate_class(oracle_n4_all, 8, 0)
    assert full.size == 256
    assert full.indeterminate == 0
    assert full.pairs[0] == (0, 0) and full.pairs[-1] == (15, 15)
    assert enumerate_class(oracle_n4_all, 9, 0).size == 0
    with pytest.raises(ValueError):
        enumerate_class(oracle_n4_all, 8, -1)


def test_class_matches_brute_force(mixed_oracles):
    for name, table in mixed_oracles.items():
        for k in range(table.l_max + 3):
            for alpha in range(4):
                cls = enumerate_class(table, k, alpha)
                pairs, indeterminate = brute_class(table, k, alpha)
                assert cls.pairs == tuple(pairs), (name, k, alpha)
                assert cls.indeterminate == indeterminate, (name, k, alpha)


def test_class_index_is_a_read_only_intp_array(oracle_n4_all):
    for k, size in ((8, 256), (9, 0)):
        cls = enumerate_class(oracle_n4_all, k, 0)
        assert cls.index.dtype == np.intp
        assert cls.index.shape == (size, 2)
        assert not cls.index.flags.writeable
        assert cls.size == size
        with pytest.raises(ValueError):
            cls.index[...] = 0


def test_class_outputs_return_the_index_itself(oracle_n4_all):
    cls = enumerate_class(oracle_n4_all, 3, 2)
    table = gen_random(4, 2, 1)
    pairs, outs = class_outputs(table, cls)
    assert pairs is cls.index and np.shares_memory(pairs, cls.index)
    assert outs.tolist() == [table.color(x, y) for x, y in cls.pairs]


def test_class_holds_a_read_only_copy_of_its_index():
    given = np.array([[1, 2], [3, 0]], dtype=np.uint8)
    cls = SourcePairClass(n=2, k=0, alpha=0, index=given, indeterminate=0)
    assert cls.index.dtype == np.intp and not cls.index.flags.writeable
    given[0, 0] = 0
    assert given.flags.writeable and cls.pairs == ((1, 2), (3, 0))


@pytest.mark.parametrize(
    "index",
    [
        np.zeros((3, 3), dtype=np.intp),
        np.zeros(4, dtype=np.intp),
        np.zeros((2, 2)),  # float
        np.zeros((2, 2), dtype=bool),
        np.array([]),  # an empty list is 1-d float, not [0, 2]
        [[0, 1]],  # not an array
        np.array([[0, 4]]),
        np.array([[-1, 0]]),
        np.array([[0, 1], [2, 1 << 40]]),
    ],
)
def test_class_index_validation(index):
    with pytest.raises(ValueError):
        SourcePairClass(n=2, k=0, alpha=0, index=index, indeterminate=0)


def test_class_monotone_in_k_and_alpha(oracle_n4_all, oracle_n5_all):
    sizes = [enumerate_class(oracle_n4_all, k, 0).size for k in range(12)]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    by_alpha = [enumerate_class(oracle_n5_all, 10, a).size for a in range(4)]
    assert all(a <= b for a, b in zip(by_alpha, by_alpha[1:]))
    # n=5 dependencies take both values, so alpha really filters
    assert enumerate_class(oracle_n5_all, 10, 0).size < 1024
    assert enumerate_class(oracle_n5_all, 10, 2).size == 1024


# ------------------------------------------------------ deficiency census


def test_extraction_check_random_n4(oracle_n4_all, oracle_m2_out):
    cls = enumerate_class(oracle_n4_all, 3, 2)
    rep = extraction_check(gen_random(4, 2, 1), cls, oracle_m2_out)
    assert rep.class_size == 256
    assert rep.histogram == {-2: 256}
    assert rep.not_found == 0
    assert rep.min_output_complexity == 4
    assert rep.max_deficiency == -2
    assert rep.worst_witness == (0, 0, 1)
    assert rep.is_extractor(0)
    assert sum(rep.histogram.values()) == rep.class_size


def test_extraction_check_not_found_outputs(oracle_n4_all):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        shallow = build_complexity_table(2, [EMPTY], l_max=1)
    cls = enumerate_class(oracle_n4_all, 0, 0)
    rep = extraction_check(gen_random(4, 2, 1), cls, shallow)
    assert rep.not_found == 256
    assert rep.histogram == {0: 256}  # m - (l_max + 1) = 0
    assert rep.min_output_complexity is NOT_FOUND
    assert rep.max_deficiency is None and rep.worst_witness is None
    assert rep.is_extractor(0)  # NOT_FOUND certifies C >= 2 = m
    assert not rep.is_extractor(-1)


def test_extraction_check_m0_and_empty_class(oracle_n2_all):
    zero_out = build_complexity_table(0, [EMPTY])
    cls = enumerate_class(oracle_n2_all, 0, 0)
    rep = extraction_check(gen_constant(2, 0, 0), cls, zero_out)
    assert rep.histogram == {0: 16}
    assert rep.max_deficiency == 0
    assert rep.is_extractor(0)
    empty = enumerate_class(oracle_n2_all, 7, 0)
    rep = extraction_check(gen_random(2, 1, 4), empty, build_complexity_table(1, [EMPTY], l_max=4))
    assert rep.class_size == 0 and rep.histogram == {}
    assert rep.max_deficiency is None
    assert rep.is_extractor(0)


def test_extraction_check_validation(oracle_n2_all, oracle_m1_out, oracle_m2_out):
    cls = enumerate_class(oracle_n2_all, 0, 0)
    with pytest.raises(ValueError):
        extraction_check(gen_random(3, 1, 1), cls, oracle_m1_out)
    with pytest.raises(ValueError):
        extraction_check(gen_random(2, 1, 1), cls, oracle_m2_out)


# -------------------------------------------------------- popular colors


def test_popular_color_truncate_fixture(oracle_n4_all):
    rep = popular_color_demo(gen_truncate(4, 2), oracle_n4_all)
    assert rep.color == 0
    assert rep.preimages == 4
    assert rep.witness_x == 0
    assert rep.witness_complexity == 8
    assert rep.floor == 2
    assert rep.preimage_bound_met and rep.floor_certified


def test_popular_color_constant_line(oracle_n2_all):
    table = SingleSourceTable(2, 1, np.ones(4, dtype=np.uint16))
    rep = popular_color_demo(table, oracle_n2_all)
    assert rep.color == 1 and rep.preimages == 4
    assert rep.witness_complexity == 4
    assert rep.preimage_bound_met and rep.floor_certified


def test_popular_color_pigeonhole_property(oracle_n2_all, oracle_n4_all):
    oracles = {2: oracle_n2_all, 3: build_complexity_table(3, [EMPTY], l_max=8), 4: oracle_n4_all}
    for n, oracle in oracles.items():
        for m in range(1, min(n, 3)):
            for seed in (0, 7, 19):
                rep = popular_color_demo(gen_random_single(n, m, seed), oracle)
                assert rep.preimage_bound_met
                assert rep.floor_certified
                assert rep.preimages * (1 << m) >= (1 << n)
    with pytest.raises(ValueError):
        popular_color_demo(gen_truncate(3, 1), oracle_n4_all)


# ------------------------------------------------------- popular prefixes


def test_popular_prefix_fixture(oracle_n8_pairs, oracle_m2_out):
    rep = popular_prefix_demo(gen_random(4, 2, 1), 1, oracle_n8_pairs, oracle_m2_out)
    assert rep.prefix == 1
    assert rep.pair_count == 130
    assert rep.witness == (0, 9)
    assert rep.witness_complexity == 16
    assert rep.floor == 7
    assert rep.pair_bound_met and rep.floor_certified
    assert rep.output_deficiency == -2


def test_popular_prefix_bound_property(oracle_n8_pairs):
    for seed in (2, 5, 8):
        table = gen_random(4, 3, seed)
        for alpha in (0, 1, 2, 3):
            rep = popular_prefix_demo(table, alpha, oracle_n8_pairs)
            assert rep.pair_count << alpha >= 256
            assert rep.floor == 8 - alpha
            assert rep.output_deficiency is None


def test_popular_prefix_validation(oracle_n8_pairs, oracle_n4_all):
    table = gen_random(4, 2, 1)
    with pytest.raises(ValueError):
        popular_prefix_demo(table, 3, oracle_n8_pairs)
    with pytest.raises(ValueError):
        popular_prefix_demo(table, -1, oracle_n8_pairs)
    with pytest.raises(ValueError):
        popular_prefix_demo(table, 1, oracle_n4_all)


# -------------------------------------------------------- range procedure


def test_compute_range_flat(oracle_m2_cond4):
    # C(z|x) = 4 for every 2-bit z: two EMITs beat any COPY encoding
    x = BitString(4, 5)
    assert compute_range(oracle_m2_cond4, x, 3) == set()
    assert compute_range(oracle_m2_cond4, x, 4) == {0, 1, 2, 3}


def test_range_procedure_stalls_empty(oracle_m2_cond4):
    for k_adv in (0, 1):
        rep = popular_range_procedure(oracle_m2_cond4, k_adv)
        assert rep.case == "stalled"
        assert rep.chosen == ()
        assert rep.witness_count == 16
        assert rep.temperature == 5
        assert rep.max_steps == (1 << (k_adv + 1)) - 1
        assert rep.count_bound_met and rep.ranges_match


def test_range_procedure_picks_all_colors(oracle_m2_cond4):
    rep = popular_range_procedure(oracle_m2_cond4, 4)
    assert rep.case == "stalled"
    assert rep.chosen == (0, 1, 2, 3)
    assert rep.witness_count == 16
    assert rep.count_bound_met and rep.ranges_match


def _fabricated_oracle(ranges: dict[int, set[int]], n: int, m: int, c: int):
    """Range oracle where C(z|x) = c exactly for z in ranges[x]."""
    matrix = np.full((1 << n, 1 << m), -1, dtype=np.int32)
    for xv, zs in ranges.items():
        matrix[xv, sorted(zs)] = c
    return ComplexityTable(m, 8, MachineBudget(4096, 4096), tuple(all_strings(n)), matrix)


def _empty_oracle(m: int, conds: list[BitString]) -> ComplexityTable:
    """An m-bit oracle at l_max 8 whose every entry is NOT_FOUND."""
    matrix = np.full((len(conds), 1 << m), -1, dtype=np.int32)
    return ComplexityTable(m, 8, MachineBudget(4096, 4096), tuple(conds), matrix)


def test_range_procedure_filters_then_stalls():
    oracle = _fabricated_oracle({0: {0}, 1: {0}, 2: {0, 1}, 3: {1}}, 2, 2, 1)
    rep = popular_range_procedure(oracle, 1)
    assert rep.case == "stalled"
    assert rep.chosen == (0, 1)  # popular first, then the survivor's second
    assert rep.witnesses == (2,)
    assert rep.count_bound_met  # 1 * 5^3 >= 4
    assert rep.ranges_match


def test_range_procedure_exhausts_steps():
    oracle = _fabricated_oracle({xv: {1} for xv in range(4)}, 2, 2, 0)
    rep = popular_range_procedure(oracle, 0)
    assert rep.case == "exhausted"
    assert rep.chosen == (1,)
    assert rep.witness_count == 4
    assert rep.count_bound_met and rep.ranges_match


def test_range_procedure_validation(oracle_m2_cond4, oracle_m2_out, oracle_n2_all):
    with pytest.raises(ValueError):
        popular_range_procedure(oracle_m2_cond4, -1)
    with pytest.raises(ValueError):
        popular_range_procedure(oracle_m2_out, 1)  # lambda-only table
    # mixed condition lengths: lambda plus 2-bit strings is fine, but a
    # table covering only some 2-bit strings is not
    partial = _fabricated_oracle({0: {0}}, 1, 2, 1)
    rep = popular_range_procedure(partial, 1)  # 1-bit conditions, covered
    assert rep.n == 1
    broken = _empty_oracle(2, [BitString(2, 0), BitString(3, 0)])
    with pytest.raises(ValueError):
        popular_range_procedure(broken, 1)


def test_range_procedure_needs_every_condition(tmp_path, capsys):
    """Conditions of one length that miss one n-bit string are refused,
    also through `demo vv` as a usage error."""
    partial = _empty_oracle(2, all_strings(2)[:3])
    with pytest.raises(ValueError, match="every n-bit condition"):
        popular_range_procedure(partial, 1)
    path = str(tmp_path / "partial.json")
    save_table(partial, path)
    assert dispatch(["demo", "vv", "--oracle", path, "--advice", "1"]) == 2
    assert "every n-bit condition" in capsys.readouterr().err


# ----------------------------------------------------------- equivalence


def test_equivalence_smoke_n2(oracle_n2_all, oracle_m1_out):
    table = gen_random(2, 1, 3)
    rep = equivalence_report(table, 1, 0, oracle_n2_all, oracle_m1_out)
    assert rep.delta == DELTA_MARGIN
    assert rep.class_size == 16  # every n=2 pair is complex and independent
    if rep.eps_star > 0:
        import math

        manual = math.ceil(math.log2(1.0 / rep.eps_star)) + 0 + 1
        assert rep.alpha == min(manual, 4)
    assert rep.table_report.class_size == rep.class_size
    assert rep.constant_report.class_size == rep.class_size
    assert rep.separated == (
        rep.table_report.max_deficiency < rep.constant_report.max_deficiency
    )


def test_equivalence_alpha_caps_when_eps_star_vanishes(oracle_n2_all, oracle_m1_out):
    # d = m makes the min-entropy demand vacuous: eps* = 0, alpha capped at 2n
    rep = equivalence_report(gen_random(2, 1, 5), 1, 1, oracle_n2_all, oracle_m1_out)
    assert rep.eps_star == 0.0
    assert rep.alpha == 4 and rep.alpha_capped


def test_equivalence_constant_never_separated_from_itself(oracle_n2_all, oracle_m1_out):
    rep = equivalence_report(gen_constant(2, 1, 0), 1, 0, oracle_n2_all, oracle_m1_out)
    assert rep.table_report == rep.constant_report
    assert not rep.separated
