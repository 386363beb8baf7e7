import warnings

import pytest
from reference import brute_census

from kextract import calibration
from kextract.bits import EMPTY, BitString
from kextract.experiments import (
    count_dependent,
    dependent_census_sweep,
    hitting_demo,
    write_census_csv,
)
from kextract.extraction import enumerate_class
from kextract.machine import MachineBudget
from kextract.oracle import NOT_FOUND, build_complexity_table
from kextract.tables import gen_random

# ------------------------------------------------------ dependent census


def test_census_n4(oracle_n4_all):
    x = BitString(4, 6)
    c0 = count_dependent(oracle_n4_all, x, 0)
    assert c0.size == 16 and c0.indeterminate == 0
    assert c0.fitted_c == 1.0
    c1 = count_dependent(oracle_n4_all, x, 1)
    assert c1.members == ()
    assert c1.fitted_c == 0.0


def test_census_diagonal_drop_n5(oracle_n5_all):
    # COPY beats EMITs only from length 5 up, so each x gives away
    # exactly two bits about itself and nothing about anyone else
    x = BitString(5, 19)
    c2 = count_dependent(oracle_n5_all, x, 2)
    assert c2.members == (19,)
    assert c2.fitted_c == 0.125
    assert count_dependent(oracle_n5_all, x, 3).members == ()


def test_census_monotone_in_alpha(oracle_n5_all):
    for xv in (0, 11, 31):
        x = BitString(5, xv)
        prev = None
        for alpha in range(6):
            members = set(count_dependent(oracle_n5_all, x, alpha).members)
            if prev is not None:
                assert members <= prev
            prev = members


def test_census_alpha_validation(oracle_n2_all, oracle_m2_out):
    with pytest.raises(ValueError):
        count_dependent(oracle_n2_all, BitString(2, 0), -1)
    with pytest.raises(ValueError, match="not covered"):
        count_dependent(oracle_m2_out, BitString(2, 0), 0)  # lambda-only table


def test_census_not_found_paths():
    # one opcode: only C(y|y) = 6 (a single COPY) exists, all else NOT_FOUND
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t = build_complexity_table(
            2, [EMPTY] + [BitString(2, v) for v in range(4)],
            l_max=8, budget=MachineBudget(4096, 1),
        )
    x = BitString(2, 2)
    assert t.complexity(x, x) == 6
    c0 = count_dependent(t, x, 0)
    assert c0.size == 4 and c0.indeterminate == 0
    c1 = count_dependent(t, x, 1)  # l_max + 1 - 6 = 3 certifies the drop
    assert c1.members == (2,) and c1.indeterminate == 3
    c3 = count_dependent(t, x, 3)
    assert c3.members == (2,) and c3.indeterminate == 3
    c4 = count_dependent(t, x, 4)  # the certified bound stops at 3
    assert c4.members == () and c4.indeterminate == 4


# --------------------------------------------------------------- sweeps


def test_census_matches_brute_force(mixed_oracles):
    for name, table in mixed_oracles.items():
        for alpha in range(5):
            sweep = dependent_census_sweep(table, alpha)
            for xv, census in enumerate(sweep.censuses):
                members, indeterminate = brute_census(table, xv, alpha)
                assert census.members == tuple(members), (name, alpha, xv)
                assert census.indeterminate == indeterminate, (name, alpha, xv)
                single = count_dependent(table, BitString(table.n, xv), alpha)
                assert single == census, (name, alpha, xv)


def test_sweep_n4(oracle_n4_all):
    sw = dependent_census_sweep(oracle_n4_all, 0)
    assert sw.max_fitted_c == 1.0
    assert sw.size_histogram == {16: 16}
    assert sw.committed_max_c is None and sw.within_committed is None
    sw2 = dependent_census_sweep(oracle_n4_all, 2)
    assert sw2.max_fitted_c == 0.0
    assert sw2.size_histogram == {0: 16}
    assert len(sw2.censuses) == 16


def test_sweep_alpha_past_l_max(oracle_n4_all):
    # no drop past l_max + 1 is certified, and 2^-(alpha - n) underflows
    # to 0.0 at alpha = 1100, which a division by it would not survive
    for alpha in (oracle_n4_all.l_max + 2, 1100):
        sw = dependent_census_sweep(oracle_n4_all, alpha)
        assert all(census.members == () for census in sw.censuses)
        assert sw.max_fitted_c == 0.0


def test_sweep_n5_against_committed(oracle_n5_all):
    sw = dependent_census_sweep(
        oracle_n5_all, 2, committed_max_c=calibration.MAX_FITTED_C_N5_ALPHA2
    )
    assert sw.max_fitted_c == 0.125
    assert sw.size_histogram == {1: 32}
    assert sw.within_committed
    lo = dependent_census_sweep(oracle_n5_all, 1)
    hi = dependent_census_sweep(oracle_n5_all, 3)
    assert lo.max_fitted_c == 0.0625
    assert hi.max_fitted_c == 0.0
    tight = dependent_census_sweep(oracle_n5_all, 2, committed_max_c=0.1)
    assert tight.within_committed is False


def test_census_csv(tmp_path, oracle_n2_all):
    sw = dependent_census_sweep(oracle_n2_all, 0)
    path = str(tmp_path / "census.csv")
    write_census_csv(sw.censuses, 2, path)
    lines = (tmp_path / "census.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x_hex,alpha,size,fitted_c"
    assert len(lines) == 1 + 4
    assert lines[1] == "00,0,4,1.0"
    assert lines[2].startswith("40,0,")  # x=1 packs MSB-first


# --------------------------------------------------------------- hitting


def test_hitting_fixture(oracle_n4_all, oracle_m2_out):
    cls = enumerate_class(oracle_n4_all, 3, 2)
    rep = hitting_demo(gen_random(4, 2, 1), cls, [1], oracle_m2_out)
    assert rep.class_size == 256
    assert rep.set_size == 1
    assert rep.max_set_complexity == 4
    assert rep.min_output_complexity == 4
    assert not rep.threshold_applies  # threshold needs a strict gap
    assert len(rep.hits) == 66
    assert rep.consistent


def test_hitting_threshold_applies(oracle_n4_all, oracle_m6_out):
    # seed 740 colors no cell 0 or 63, the only 6-bit outputs under 12 bits
    cls = enumerate_class(oracle_n4_all, 3, 2)
    rep = hitting_demo(gen_random(4, 6, 740), cls, [0], oracle_m6_out)
    assert rep.max_set_complexity == 10
    assert rep.min_output_complexity == 12
    assert rep.threshold_applies
    assert rep.hits == ()
    assert rep.consistent


def test_hitting_all_colors_and_empty(oracle_n4_all, oracle_m2_out):
    table = gen_random(4, 2, 1)
    cls = enumerate_class(oracle_n4_all, 3, 2)
    rep = hitting_demo(table, cls, [0, 1, 2, 3], oracle_m2_out)
    assert not rep.threshold_applies
    assert len(rep.hits) == 256
    assert rep.consistent
    rep = hitting_demo(table, cls, [], oracle_m2_out)
    assert rep.set_size == 0 and not rep.threshold_applies and rep.consistent
    empty_cls = enumerate_class(oracle_n4_all, 11, 0)
    rep = hitting_demo(table, empty_cls, [0], oracle_m2_out)
    assert rep.min_output_complexity is NOT_FOUND
    assert rep.threshold_applies  # vacuously: no outputs exist at all
    assert rep.hits == () and rep.consistent


def test_hitting_not_found_set_member(oracle_n4_all):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        shallow = build_complexity_table(2, [EMPTY], l_max=1)
    cls = enumerate_class(oracle_n4_all, 0, 0)
    rep = hitting_demo(gen_random(4, 2, 1), cls, [3], shallow)
    assert rep.max_set_complexity is NOT_FOUND
    assert not rep.threshold_applies  # unfound set member blocks the argument
    assert rep.consistent


def test_hitting_validation(oracle_n4_all, oracle_m2_out, oracle_m1_out):
    cls = enumerate_class(oracle_n4_all, 3, 2)
    table = gen_random(4, 2, 1)
    with pytest.raises(ValueError):
        hitting_demo(table, cls, [4], oracle_m2_out)
    with pytest.raises(ValueError):
        hitting_demo(table, cls, [0], oracle_m1_out)
    # duplicate targets collapse
    rep = hitting_demo(table, cls, [1, 1, 1], oracle_m2_out)
    assert rep.set_size == 1
