"""Shared oracle fixtures.

The small complexity tables are built once per session; everything else
is cheap enough to construct inline. Builds below 2n intentionally carry
NOT_FOUND entries, so warnings are silenced where that is the point.
"""

from __future__ import annotations

import warnings

import pytest

from kextract.bits import EMPTY, BitString, all_strings
from kextract.machine import MachineBudget
from kextract.oracle import build_complexity_table, table_from_json, table_to_json


@pytest.fixture(scope="session")
def oracle_n2_all():
    """2-bit targets, lambda plus every 2-bit condition, l_max=6."""
    return build_complexity_table(2, [EMPTY] + all_strings(2), l_max=6)


@pytest.fixture(scope="session")
def oracle_n4_all():
    """4-bit targets, lambda plus every 4-bit condition, l_max=10."""
    return build_complexity_table(4, [EMPTY] + all_strings(4), l_max=10)


@pytest.fixture(scope="session")
def oracle_n5_all():
    """5-bit targets, lambda plus every 5-bit condition, l_max=10."""
    return build_complexity_table(5, [EMPTY] + all_strings(5), l_max=10)


@pytest.fixture(scope="session")
def oracle_n8_pairs():
    """8-bit targets under lambda, for 4-bit pair concatenations."""
    return build_complexity_table(8, [EMPTY], l_max=16)


@pytest.fixture(scope="session")
def oracle_m1_out():
    """1-bit outputs under lambda."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_complexity_table(1, [EMPTY], l_max=4)


@pytest.fixture(scope="session")
def oracle_m2_out():
    """2-bit outputs under lambda."""
    return build_complexity_table(2, [EMPTY], l_max=4)


@pytest.fixture(scope="session")
def oracle_m2_cond4():
    """2-bit targets conditioned on lambda and every 4-bit string."""
    return build_complexity_table(2, [EMPTY] + all_strings(4), l_max=6)


@pytest.fixture(scope="session")
def oracle_m6_out():
    """6-bit outputs under lambda."""
    return build_complexity_table(6, [EMPTY], l_max=12)


@pytest.fixture(scope="session")
def mixed_oracles():
    """Full-condition tables covering each NOT_FOUND case of the class
    and census rules, by name."""
    conds3 = [EMPTY] + all_strings(3)
    n2 = build_complexity_table(2, [EMPTY] + all_strings(2), l_max=6)
    # A loaded file may lack C(x|y) while holding C(x) and C(y|x), which
    # no build gives: here C(10 | 01) is dropped.
    doc = table_to_json(n2)
    dropped = (n2.condition_index(BitString(2, 1)), BitString(2, 2).pack_hex())
    doc["entries"] = [
        e for e in doc["entries"] if (e["cond_idx"], e["target_hex"]) != dropped
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return {
            "n2": n2,
            "n2-edited": table_from_json(doc),
            # two ops: C(y) is NOT_FOUND, only C(y|y) = 6 exists
            "n3-two-ops": build_complexity_table(
                3, conds3, l_max=6, budget=MachineBudget(8, 2)
            ),
            # l_max below the EMIT cost of every 3-bit target
            "n3-l5": build_complexity_table(3, conds3, l_max=5),
            # two ops at n=5: C(y) is found only for 00000 and 11111,
            # C(y|x) for targets one EMIT from a window of x
            "n5-two-ops": build_complexity_table(
                5, [EMPTY] + all_strings(5), l_max=10, budget=MachineBudget(8, 2)
            ),
            "n4": build_complexity_table(4, [EMPTY] + all_strings(4), l_max=9),
        }
