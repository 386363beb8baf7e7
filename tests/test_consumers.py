"""Oracle consumers against the pair-by-pair loops in tests/reference.py.

extraction_check, both popular demos, the range procedure and
hitting_demo are numpy over lower-bound rows; the references walk every
pair, cell and candidate with the table's own complexity lookups. Each
report must match field for field, witnesses and tie-breaks included,
on the mixed_oracles fixture (every NOT_FOUND case), on seeded and
constant tables, and under hypothesis on tables full of ties.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    brute_extraction_check,
    brute_hitting,
    brute_popular_color,
    brute_popular_prefix,
    brute_range_procedure,
)

from kextract.bits import EMPTY, BitString, all_strings
from kextract.experiments import hitting_demo
from kextract.extraction import (
    SourcePairClass,
    enumerate_class,
    extraction_check,
    popular_color_demo,
    popular_prefix_demo,
    popular_range_procedure,
)
from kextract.machine import DEFAULT_BUDGET
from kextract.oracle import ComplexityTable
from kextract.tables import (
    SingleSourceTable,
    TwoSourceTable,
    gen_constant,
    gen_random,
    gen_random_single,
    gen_truncate,
)

SEEDS = (1, 740)


def classes(table):
    """Classes of a full-condition oracle at a few floors and alphas,
    the empty class included."""
    return [
        enumerate_class(table, k, alpha)
        for k in (0, table.l_max // 2, table.l_max + 1, table.l_max + 2)
        for alpha in (0, 2)
    ]


def two_source_tables(n, m):
    return [gen_random(n, m, seed) for seed in SEEDS] + [gen_constant(n, m, (1 << m) - 1)]


def test_extraction_check_and_hitting_match_reference(mixed_oracles):
    for cls_name, cond in mixed_oracles.items():
        for cls in classes(cond):
            for out_name, out in mixed_oracles.items():
                for table in two_source_tables(cond.n, out.n):
                    where = (cls_name, cls.k, cls.alpha, out_name)
                    got = extraction_check(table, cls, out)
                    assert got == brute_extraction_check(table, cls, out), where
                    for targets in ([], [0], [1, (1 << out.n) - 1], range(1 << out.n)):
                        got = hitting_demo(table, cls, targets, out)
                        assert got == brute_hitting(table, cls, targets, out), where


def test_popular_color_matches_reference(mixed_oracles):
    for name, oracle in mixed_oracles.items():
        n = oracle.n
        lines = [gen_truncate(n, m) for m in range(1, n + 1)]
        lines += [gen_random_single(n, m, s) for m in range(1, min(n, 3) + 1) for s in SEEDS]
        lines.append(SingleSourceTable(n, 2, np.full(1 << n, 3, dtype=np.uint16)))
        for line in lines:
            got = popular_color_demo(line, oracle)
            assert got == brute_popular_color(line, oracle), (name, line.m)


def test_popular_prefix_matches_reference(mixed_oracles, oracle_n8_pairs):
    # (table n, pair oracle): every 2n-bit oracle of the fixtures
    pair_oracles = [
        (1, mixed_oracles["n2"]),
        (1, mixed_oracles["n2-edited"]),
        (2, mixed_oracles["n4"]),
        (4, oracle_n8_pairs),
    ]
    for n, pair_oracle in pair_oracles:
        for out in (None, *mixed_oracles.values()):
            m = 2 if out is None else out.n
            for table in two_source_tables(n, m):
                for alpha in range(m + 1):
                    got = popular_prefix_demo(table, alpha, pair_oracle, out)
                    want = brute_popular_prefix(table, alpha, pair_oracle, out)
                    assert got == want, (n, m, alpha)


def test_range_procedure_matches_reference(mixed_oracles):
    for name, table in mixed_oracles.items():
        for k_adv in range(table.l_max + 3):
            got = popular_range_procedure(table, k_adv)
            assert got == brute_range_procedure(table, k_adv), (name, k_adv)


# ------------------------------------------------------------ hypothesis


@st.composite
def oracles(draw, n, conds):
    """A table over conds with small entries, NOT_FOUND (-1) among them,
    so that floors and witnesses tie often."""
    l_max = draw(st.integers(0, 4))
    cells = len(conds) << n
    values = draw(st.lists(st.integers(-1, l_max), min_size=cells, max_size=cells))
    return ComplexityTable(
        n=n,
        l_max=l_max,
        budget=DEFAULT_BUDGET,
        conditions=tuple(conds),
        _matrix=np.array(values, dtype=np.int32).reshape(len(conds), 1 << n),
    )


def colors(draw, shape, m):
    """Colors from at most three values, to force popularity ties."""
    palette = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=3))
    size = int(np.prod(shape))
    picks = draw(st.lists(st.sampled_from(palette), min_size=size, max_size=size))
    return np.array(picks, dtype=np.uint16).reshape(shape)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_class_consumers_match_reference_on_ties(data):
    """Any pair list in any order, repeats allowed: first-minimum
    witnesses and hits keep class order."""
    n, m = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    side = 1 << n
    table = TwoSourceTable(n, m, colors(data.draw, (side, side), m))
    pair = st.tuples(st.integers(0, side - 1), st.integers(0, side - 1))
    pairs = data.draw(st.lists(pair, max_size=20))
    index = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    cls = SourcePairClass(n=n, k=0, alpha=0, index=index, indeterminate=0)
    assert cls.pairs == tuple(pairs)
    out = data.draw(oracles(m, [EMPTY]))
    assert extraction_check(table, cls, out) == brute_extraction_check(table, cls, out)
    targets = data.draw(st.lists(st.integers(0, (1 << m) - 1), max_size=4))
    assert hitting_demo(table, cls, targets, out) == brute_hitting(table, cls, targets, out)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_popular_demos_match_reference_on_ties(data):
    n, m = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 3))
    line = SingleSourceTable(2 * n, m, colors(data.draw, (1 << 2 * n,), m))
    pair_oracle = data.draw(oracles(2 * n, [EMPTY]))
    assert popular_color_demo(line, pair_oracle) == brute_popular_color(line, pair_oracle)
    table = TwoSourceTable(n, m, colors(data.draw, (1 << n, 1 << n), m))
    alpha = data.draw(st.integers(0, m))
    out = data.draw(st.none() | oracles(m, [EMPTY]))
    got = popular_prefix_demo(table, alpha, pair_oracle, out)
    assert got == brute_popular_prefix(table, alpha, pair_oracle, out)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_range_procedure_matches_reference_on_ties(data):
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2))
    conds = data.draw(st.sampled_from([[], [EMPTY]])) + all_strings(n)
    table = data.draw(oracles(m, conds))
    k_adv = data.draw(st.integers(0, table.l_max + 1))
    assert popular_range_procedure(table, k_adv) == brute_range_procedure(table, k_adv)


@pytest.mark.parametrize("z", [0, 5, 9])
def test_popular_prefix_witness_is_the_pair_target(oracle_n8_pairs, z):
    """The witness cell index x * 2^n + y is the 2n-bit target x||y."""
    rep = popular_prefix_demo(gen_random(4, 4, z), 4, oracle_n8_pairs)
    x, y = rep.witness
    target = BitString(4, x).concat(BitString(4, y))
    assert oracle_n8_pairs.complexity(target) == rep.witness_complexity
