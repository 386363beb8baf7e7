"""End-to-end acceptance gate.

Ten criteria, each printed as one PASS/FAIL line with its runtime. Every
numeric expectation here is either a mathematical bound (counting,
pigeonhole, popularity) checked exactly, or a frozen measurement from
the calibration module. Budgets are asserted inside each criterion.
"""

import os
import time
import warnings
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from reference import brute_rainbow_worst_tuples

from kextract import calibration
from kextract.balance import balance_check_almost, rainbow_check
from kextract.bits import EMPTY, BitString
from kextract.distributions import (
    Distribution,
    dist_to_min_entropy,
    flatten_top,
    heavy_set,
    statistical_distance,
)
from kextract.experiments import hitting_demo
from kextract.extraction import (
    compute_range,
    enumerate_class,
    equivalence_report,
    popular_color_demo,
    popular_prefix_demo,
    popular_range_procedure,
)
from kextract.oracle import build_complexity_table
from kextract.pipeline import artifact_digests, run_pipeline
from kextract.tables import gen_inner_product, gen_random, gen_random_single


@contextmanager
def criterion(capsys, num: int, label: str):
    ok = False
    t0 = time.time()
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(
                f"\nACCEPTANCE {num} [{label}]: "
                f"{'PASS' if ok else 'FAIL'} ({time.time() - t0:.1f}s)"
            )


def test_acceptance_01_counting_bound(capsys):
    with criterion(capsys, 1, "counting bound, n=1..8"):
        t0 = time.time()
        for n in range(1, 9):
            l_max = n + 6
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                table = build_complexity_table(n, [EMPTY], l_max=l_max)
            for k in range(l_max + 1):
                assert table.count_below(k) <= (1 << k) - 1, (n, k)
        assert time.time() - t0 < 120


def test_acceptance_02_popular_color(capsys):
    with criterion(capsys, 2, "popular colors, 50 seeded tables"):
        t0 = time.time()
        oracles = {n: build_complexity_table(n, [EMPTY], l_max=2 * n) for n in range(2, 7)}
        combos = [(n, m) for n in range(2, 7) for m in range(1, 4) if m < n]
        for seed in range(50):
            n, m = combos[seed % len(combos)]
            table = gen_random_single(n, m, seed)
            rep = popular_color_demo(table, oracles[n])
            recount = sum(1 for xv in range(1 << n) if table.color(xv) == rep.color)
            assert recount == rep.preimages
            assert rep.preimages * (1 << m) >= (1 << n)
            assert rep.preimage_bound_met
            assert rep.witness_complexity >= n - m  # everything found at 2n
            assert rep.floor_certified
        assert time.time() - t0 < 300


def test_acceptance_03_heavy_and_flatten(capsys):
    with criterion(capsys, 3, "heavy sets and flattening, 10^4 distributions"):
        t0 = time.time()
        rng = np.random.default_rng(2024)
        temps = [1.0, 1.5, 2.0, 4.0]
        for i in range(10_000):
            n = int(rng.integers(1, 7))
            # exact masses: each Dirichlet float taken as the dyadic it is
            d = Distribution.from_masses(n, rng.dirichlet(np.ones(1 << n)))
            k = int(rng.integers(0, n + 1))
            t = temps[i % len(temps)]
            eps_k = dist_to_min_entropy(d, k)
            heavy_mass = Fraction(sum(d.weights[a] for a in heavy_set(d, k, t)), d.total)
            assert heavy_mass <= 1 / Fraction(t) + eps_k
            top_k = int(rng.integers(1, (1 << n) + 1))
            eps = Fraction(sum(sorted(d.weights, reverse=True)[:top_k]), d.total)
            flat, _ = flatten_top(d, top_k)
            assert statistical_distance(d, flat) <= eps
            # min-entropy >= log2(top_k / eps), stated exactly
            assert Fraction(max(flat.weights), flat.total) <= eps / top_k
        assert time.time() - t0 < 60


def test_acceptance_04_inner_product_balance(capsys):
    with criterion(capsys, 4, "inner-product almost balance at n=4"):
        t0 = time.time()
        rep = balance_check_almost(gen_inner_product(4), k=3, d=0, eps=0.25, u_size=1)
        assert rep.passed
        assert rep.worst_fraction <= 0.5 + 0.25
        assert rep.worst_cells == calibration.IP4_WORST_CELLS
        assert time.time() - t0 < 300


def test_acceptance_05_prefix_floor(capsys):
    with criterion(capsys, 5, "popular prefix floors, n=2..5"):
        t0 = time.time()
        # the default l_max 2n + 6 is below 2 * 2n at n = 4 and 5
        with pytest.warns(UserWarning, match="expect NOT_FOUND") as caught:
            pair_oracles = {
                n: build_complexity_table(2 * n, [EMPTY]) for n in range(2, 6)
            }
        assert [str(w.message) for w in caught] == [
            f"l_max={l_max} < 2n={2 * n}: expect NOT_FOUND entries"
            for l_max, n in ((14, 8), (16, 10))
        ]
        tables = [gen_inner_product(4)]
        for n in range(2, 6):
            m = min(n, 3)
            tables += [gen_random(n, m, seed) for seed in (1, 2)]
        for table in tables:
            n = table.n
            for alpha in range(0, min(3, table.m) + 1):
                rep = popular_prefix_demo(table, alpha, pair_oracles[n])
                assert rep.pair_bound_met
                assert rep.floor == 2 * n - alpha
                assert rep.floor_certified
        assert time.time() - t0 < 600


def test_acceptance_06_range_recovery(capsys, oracle_m2_cond4):
    with criterion(capsys, 6, "shared-range recovery, n=4 m=2"):
        t0 = time.time()
        for k_adv in (0, 1):
            rep = popular_range_procedure(oracle_m2_cond4, k_adv)
            temperature = (1 << 2) + 1
            max_steps = (1 << (k_adv + 1)) - 1
            assert rep.witness_count * temperature**max_steps >= 1 << 4
            assert rep.count_bound_met
            chosen = set(rep.chosen)
            for xv in rep.witnesses:
                assert compute_range(oracle_m2_cond4, BitString(4, xv), k_adv) == chosen
            assert rep.ranges_match
        assert time.time() - t0 < 120


def test_acceptance_07_separation(capsys, oracle_n4_all, oracle_m6_out):
    with criterion(capsys, 7, "random beats constant after balance"):
        t0 = time.time()
        table = gen_random(4, calibration.SEPARATION_M, calibration.SEPARATION_SEED)
        balance = balance_check_almost(
            table, k=3, d=0, eps=calibration.SEPARATION_EPS_BALANCE, u_size=1,
            override=True,
        )
        assert balance.passed
        rep = equivalence_report(
            table, 3, 0, oracle_n4_all, oracle_m6_out, override=True
        )
        assert rep.eps_star == calibration.SEPARATION_EPS_STAR
        assert rep.alpha == calibration.SEPARATION_ALPHA
        assert rep.class_size > 0
        assert rep.table_report.max_deficiency < rep.constant_report.max_deficiency
        assert rep.separated
        with capsys.disabled():
            print(
                f"\n  separation: eps*={rep.eps_star} alpha={rep.alpha} "
                f"table_max_def={rep.table_report.max_deficiency} "
                f"constant_max_def={rep.constant_report.max_deficiency}"
            )
        assert time.time() - t0 < 600


def test_acceptance_08_rainbow_greedy_vs_brute(capsys):
    with criterion(capsys, 8, "rainbow greedy equals tuple brute force"):
        t0 = time.time()
        tested = 0
        for seed in range(100):
            m = 1 + seed % 2
            rect_side = 1 + seed % 3
            divisor = 1 + seed % ((1 << m) * rect_side)
            table = gen_random(2, m, seed)
            rep = rainbow_check(table, rect_side, divisor)
            assert rep.per_column.worst_cells == brute_rainbow_worst_tuples(
                table, rect_side, divisor
            )
            assert rep.per_row.worst_cells == brute_rainbow_worst_tuples(
                table.transposed(), rect_side, divisor
            )
            tested += 1
        assert tested == 100
        assert time.time() - t0 < 60


def test_acceptance_09_hitting_consistency(capsys, oracle_n4_all, oracle_m2_out):
    with criterion(capsys, 9, "hitting threshold vs scan, 20 configs"):
        t0 = time.time()
        out3 = build_complexity_table(3, [EMPTY])
        cls = enumerate_class(oracle_n4_all, 3, 2)
        for seed in range(20):
            m = 2 + seed % 2
            oracle = oracle_m2_out if m == 2 else out3
            table = gen_random(4, m, seed)
            if seed % 2:
                row = table.colors[seed % 16]
                counts = np.bincount(row, minlength=table.num_colors)
                targets = [int(np.argmax(counts))]
            else:
                targets = sorted({seed % (1 << m), (seed // 3) % (1 << m)})
            rep = hitting_demo(table, cls, targets, oracle)
            assert rep.consistent
            if rep.threshold_applies:
                assert rep.hits == ()
        assert time.time() - t0 < 120


def test_acceptance_10_pipeline_determinism(capsys, tmp_path):
    with criterion(capsys, 10, "n=4 pipeline byte-identical across reruns"):
        out = str(tmp_path / "run")
        assert run_pipeline(None, "n4", out) == 0
        first = artifact_digests(out)
        assert len(first) == 21
        assert run_pipeline(None, "n4", out) == 0
        assert artifact_digests(out) == first
        assert os.path.exists(os.path.join(out, "pipeline_summary.json"))
