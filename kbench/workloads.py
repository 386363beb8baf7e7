"""The three benchmark workloads and the checks on their outputs.

A workload is a closed loop: one client in one process runs its jobs in
order, each after the previous one returns. `setup()` builds the inputs
the jobs only consume (it is timed as setup_s and repeated), `prepare()`
runs untimed before each pass, `jobs()` lists the timed calls, and
`check()` inspects the results after the pass and returns, per job, the
checks that failed. Every call goes through kextract's public modules as
attributes (`balance.measure_eps_star`, not an imported name), so the
tracer's wrappers see the benchmark's own calls too.

Checks recompute results independently with numpy wherever that is
cheap, and pin exact values: calibration constants, the pipeline's
artifact digest, and per-job results for the default seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil

import numpy as np

from kextract import balance, calibration, oracle, pipeline, tables
from kextract import experiments, extraction
from kextract.bits import EMPTY, BitString, all_strings

DEFAULT_SEED = 1


class PipelineN4:
    """`run_pipeline(None, "n4", out_dir)`: the reproduction run users
    perform. The pipeline is fixed, so the seed is unused."""

    name = "pipeline-n4"
    # sha256 over the sorted (artifact, digest) pairs of one pass; the
    # out_dir is a fixed relative path, so report params do not vary.
    DIGEST = "a37439dbd534d34854a1aeafbc789728360b7b2c32474a97cd32fc7b435f7375"
    ARTIFACTS = 21

    def __init__(self, seed, work_dir):
        self.out_dir = os.path.join(work_dir, "out")
        steps = pipeline.preflight(pipeline.load_config(None, "n4"), self.out_dir, 1)
        self.step_names = {tuple(s["argv"]): s["name"] for s in steps}

    def setup(self):
        pass

    def prepare(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def jobs(self):
        def run(ctx):
            with contextlib.redirect_stdout(io.StringIO()):
                return pipeline.run_pipeline(None, "n4", self.out_dir)

        return [("run_pipeline", run)]

    def check(self, ctx):
        bad = []
        if ctx["run_pipeline"] != 0:
            bad.append(f"exit code {ctx['run_pipeline']}")
        digests = pipeline.artifact_digests(self.out_dir)
        self.artifacts = len(digests)
        if len(digests) != self.ARTIFACTS:
            bad.append(f"{len(digests)} artifacts")
        combined = hashlib.sha256(
            json.dumps(sorted(digests.items())).encode()
        ).hexdigest()
        if combined != self.DIGEST:
            bad.append(f"artifact digest {combined}")
        almost = _report_data(self.out_dir, "verify_ip4_almost.json")
        if almost["worst_cells"] != calibration.IP4_WORST_CELLS:
            bad.append(f"worst_cells {almost['worst_cells']}")
        eps = _report_data(self.out_dir, "eps_star_ip4.json")
        if eps["eps_star"] != calibration.IP4_EPS_STAR:
            bad.append(f"eps_star {eps['eps_star']}")
        return {"run_pipeline": bad}


def _report_data(out_dir, name):
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)["data"]


class OracleN8:
    """n=8 oracles and every consumer of them; `balance` does no work.

    Builds the all-condition oracle at l_max=16 and the lambda-only one
    at l_max=18, writes and reads one back, and runs the class, census,
    symmetry and range consumers with seed-drawn parameters. Parameter
    ranges keep the work per pass the same for every seed: a class floor
    k <= 10 lets every x through (min C(x) is 10 here), and census and
    range cost barely depends on alpha or k_adv.
    """

    name = "oracle-n8"
    N = 8
    L_MAX = 16
    L_MAX_LAMBDA = 18
    QUERIES = 4096

    def __init__(self, seed, work_dir):
        rng = np.random.default_rng(seed)
        self.class_k = int(rng.integers(8, 11))
        # Every n=8 entry is an even length, so an odd alpha selects the
        # same pairs as the even one above it; even values keep the
        # boundary case dep == alpha in play.
        self.class_alpha = int(rng.choice([2, 4, 6]))
        self.census_alpha = int(rng.choice([2, 4, 6]))
        self.k_adv = int(rng.integers(10, 14))
        self.query_x = rng.integers(0, 1 << self.N, self.QUERIES)
        # Condition value -1 stands for lambda.
        self.query_y = rng.integers(-1, 1 << self.N, self.QUERIES)
        self.path = os.path.join(work_dir, "oracle_n8.json")

    def setup(self):
        # The n=4 singles are an input symmetry_report only consumes.
        self.singles = oracle.build_complexity_table(
            4, [EMPTY] + all_strings(4), l_max=8
        )
        self.queries = [
            (BitString(self.N, int(x)), EMPTY if y < 0 else BitString(self.N, int(y)))
            for x, y in zip(self.query_x, self.query_y)
        ]

    def prepare(self):
        if os.path.exists(self.path):
            os.remove(self.path)

    def jobs(self):
        conds = [EMPTY] + all_strings(self.N)
        return [
            ("build_all", lambda c: oracle.build_complexity_table(
                self.N, conds, l_max=self.L_MAX)),
            ("build_lambda", lambda c: oracle.build_complexity_table(
                self.N, [EMPTY], l_max=self.L_MAX_LAMBDA)),
            ("save", lambda c: oracle.save_table(c["build_all"], self.path)),
            ("load", lambda c: oracle.load_table(self.path)),
            ("queries", lambda c: [c["load"].complexity(x, y) for x, y in self.queries]),
            ("class", lambda c: extraction.enumerate_class(
                c["build_all"], self.class_k, self.class_alpha)),
            ("census", lambda c: experiments.dependent_census_sweep(
                c["build_all"], self.census_alpha)),
            ("symmetry", lambda c: oracle.symmetry_report(self.singles, c["build_all"])),
            ("range", lambda c: extraction.popular_range_procedure(
                c["build_all"], self.k_adv)),
        ]

    def check(self, ctx):
        full = ctx["build_all"]
        lam = ctx["build_lambda"]
        n, side = self.N, 1 << self.N
        # E[i, x] = C(x | condition i); row 0 is lambda, row 1 + y is y.
        idx = [full.condition_index(EMPTY)] + [
            full.condition_index(BitString(n, y)) for y in range(side)
        ]
        E = np.stack([full.entries(full.conditions[i]) for i in idx]).astype(np.int64)
        bad = {job: [] for job, _ in self.jobs()}

        for name, table in (("build_all", full), ("build_lambda", lam)):
            for y in table.conditions:
                for k in range(table.l_max + 2):
                    if table.count_below(k, y) > (1 << k) - 1:
                        bad[name].append(f"counting bound k={k} y={y!r}")
        if (full.n, full.l_max, len(full.conditions)) != (n, self.L_MAX, side + 1):
            bad["build_all"].append("shape")
        lam16, lam18 = E[0], lam.entries(EMPTY)
        expect16 = np.where((lam18 >= 0) & (lam18 <= self.L_MAX), lam18, -1)
        if not np.array_equal(lam16, expect16):
            bad["build_lambda"].append("lambda@16 differs from lambda@18 <= 16")

        if os.path.getsize(self.path) == 0:
            bad["save"].append("empty file")
        loaded = ctx["load"]
        if loaded.conditions != full.conditions or loaded.l_max != full.l_max or not all(
            np.array_equal(loaded.entries(y), full.entries(y)) for y in full.conditions
        ):
            bad["load"].append("round trip differs")
        expect_q = E[self.query_y + 1, self.query_x]
        got_q = np.array([-1 if c is oracle.NOT_FOUND else c for c in ctx["queries"]])
        if not np.array_equal(got_q, expect_q):
            bad["queries"].append("query values differ from the built table")

        # M[x, y] = C(x | y); cx = C(x | lambda).
        cx, M = E[0], E[1:].T
        A = M.T  # A[x, y] = C(y | x)
        floor = np.where(cx < 0, self.L_MAX + 1 >= self.class_k, cx >= self.class_k)
        both = floor[:, None] & floor[None, :]
        unknown = (cx[:, None] < 0) | (M < 0) | (cx[None, :] < 0) | (A < 0)
        dep = np.maximum(cx[:, None] - M, cx[None, :] - A)
        member = both & ~unknown & (dep <= self.class_alpha)
        cls = ctx["class"]
        if cls.pairs != tuple(map(tuple, np.argwhere(member).tolist())):
            bad["class"].append("class pairs differ from the numpy recount")
        if cls.indeterminate != int((both & unknown).sum()):
            bad["class"].append("indeterminate count differs")

        a = self.census_alpha
        cy = cx[None, :]
        dependent = np.where(
            A < 0, a == 0, np.where(cy < 0, self.L_MAX + 1 - A >= a, cy - A >= a)
        )
        census = ctx["census"]
        for xv, c in enumerate(census.censuses):
            if c.members != tuple(np.flatnonzero(dependent[xv]).tolist()):
                bad["census"].append(f"members of x={xv}")
                break
        if census.max_fitted_c != dependent.sum(axis=1).max() / 2.0 ** (n - a):
            bad["census"].append("max fitted c")

        sym = ctx["symmetry"]
        if (sym.max_deviation, sym.pairs_total, sym.pairs_skipped) != (
            calibration.SYMMETRY_MAX_DEVIATION_N4, 256, 0
        ):
            bad["symmetry"].append(f"symmetry {sym.max_deviation} {sym.pairs_skipped}")

        rng_report = ctx["range"]
        chosen = set(rng_report.chosen)
        if not (rng_report.count_bound_met and rng_report.ranges_match):
            bad["range"].append("range procedure bound")
        for xv in rng_report.witnesses:
            row = E[1 + xv]
            if set(np.flatnonzero((row >= 0) & (row <= self.k_adv)).tolist()) != chosen:
                bad["range"].append(f"witness {xv} range")
        return bad


class SweepColors:
    """Many-color rectangle sweeps at n=4, k=2, plus rainbow at n=5-6.

    There are C(16,4) = 1,820 row sets but 16 or 64 colors here, so a
    sweep decomposed by color sets cannot win and the full census runs;
    the rainbow check covers the strip-only path. Tables are drawn from
    the seed (m=4 and m=6) beside the committed separation table. Sizes
    are chosen so that no single call dominates a pass.
    """

    name = "sweep-colors"
    K = 2
    EPS = 0.25
    RAINBOW = [(5, 2, 4, 2), (6, 2, 3, 2)]  # (n, m, side K, divisor D)
    SEARCH = (5, 2, 3, 4, 6)  # (n, m, K, D, max_trials)
    SAMPLE = 256  # random rectangles for the maximality checks

    # Results for DEFAULT_SEED; "sep_" jobs are pinned for every seed.
    PINS = {
        "t4_eps": 0.6875,
        "t4_u1": [9, [0, 3, 6, 12], [0, 2, 6, 11], [8]],
        "t4_u4": [15, [0, 1, 3, 15], [0, 2, 7, 11], [7, 8, 11, 12]],
        "t6_eps": 0.875,
        "t6_u4": [12, [9, 10, 14, 15], [0, 2, 7, 8], [13, 16, 51, 54]],
        "sep_u1": [6, [0, 5, 7, 13], [0, 2, 9, 11], [47]],
        "r5_rainbow": [16, 16, True],
        "r6_rainbow": [9, 9, True],
        "search": [False, 6],
    }

    def __init__(self, seed, work_dir):
        self.seed = seed
        rng = np.random.default_rng(seed)
        seeds = [int(s) for s in rng.integers(0, 2**63, 5)]
        self.specs = {
            "t4": (4, 4, seeds[0]),
            "t6": (4, 6, seeds[1]),
            "sep": (4, calibration.SEPARATION_M, calibration.SEPARATION_SEED),
            "r5": (5, 2, seeds[2]),
            "r6": (6, 2, seeds[3]),
        }
        self.search_seed = seeds[4]
        self.sample_rects = [
            [tuple(sorted(rng.choice(16, 1 << self.K, replace=False))) for _ in range(2)]
            for _ in range(self.SAMPLE)
        ]
        self.work_dir = work_dir

    def setup(self):
        self.tables = {}
        for key, (n, m, seed) in self.specs.items():
            path = os.path.join(self.work_dir, f"{key}.kext")
            made = tables.gen_random(n, m, seed)
            tables.write_table(made, path)
            back = tables.read_table(path)
            if not np.array_equal(back.colors, made.colors):
                raise RuntimeError(f"KEXT round trip changed table {key}")
            self.tables[key] = back

    def prepare(self):
        pass

    def jobs(self):
        t, k, eps = self.tables, self.K, self.EPS
        n, m, side, div, trials = self.SEARCH
        jobs = [
            ("t4_eps", lambda c: balance.measure_eps_star(t["t4"], k, 0)),
            ("t4_u1", lambda c: balance.balance_check_almost(t["t4"], k, 0, eps, 1)),
            ("t4_u4", lambda c: balance.balance_check_almost(t["t4"], k, 0, eps, 4)),
            ("t6_eps", lambda c: balance.measure_eps_star(t["t6"], k, 0)),
            ("t6_u4", lambda c: balance.balance_check_almost(t["t6"], k, 0, eps, 4)),
            ("sep_u1", lambda c: balance.balance_check_almost(t["sep"], k, 0, eps, 1)),
        ]
        for key, (_, _, rside, rdiv) in zip(("r5", "r6"), self.RAINBOW):
            jobs.append((f"{key}_rainbow", lambda c, key=key, rside=rside, rdiv=rdiv:
                         balance.rainbow_check(t[key], rside, rdiv)))
        jobs.append(("search", lambda c: balance.search_rainbow(
            n, m, side, div, seed=self.search_seed, max_trials=trials)))
        return jobs

    def check(self, ctx):
        bad = {job: [] for job, _ in self.jobs()}
        cells = 1 << (2 * self.K)
        for job in ("t4_u1", "t4_u4", "t6_u4", "sep_u1"):
            rep = ctx[job]
            colors = self.tables[job.split("_")[0]].colors
            grid = colors[np.ix_(rep.worst_rectangle.rows, rep.worst_rectangle.cols)]
            recount = int(np.isin(grid, rep.worst_colors).sum())
            if recount != rep.worst_cells or len(rep.worst_colors) != rep.u_size:
                bad[job].append(f"witness census {recount} != {rep.worst_cells}")
            if rep.rectangle_pairs != math.comb(16, 1 << self.K) ** 2:
                bad[job].append("rectangle pairs")
            if rep.passed != (rep.worst_cells / cells <= rep.bound):
                bad[job].append("verdict")
            sampled = max(
                np.sort(np.bincount(colors[np.ix_(r, c)].ravel()))[-rep.u_size:].sum()
                for r, c in self.sample_rects
            )
            if sampled > rep.worst_cells:
                bad[job].append(f"sampled rectangle beats the worst ({sampled})")
        for job in ("t4_eps", "t6_eps"):
            key = job.split("_")[0]
            table = self.tables[key]
            eps_star = ctx[job]
            threshold = cells * 2.0 ** -table.m
            scaled = eps_star * cells * (1 << table.m)
            if scaled != int(scaled):
                bad[job].append(f"eps* {eps_star} is not a multiple of 2^-(m+2k)")
            sampled = max(
                np.maximum(
                    np.bincount(table.colors[np.ix_(r, c)].ravel()) - threshold, 0
                ).sum()
                for r, c in self.sample_rects
            ) / cells
            if sampled > eps_star:
                bad[job].append(f"sampled rectangle overshoot {sampled} > eps*")
        for job in ("r5_rainbow", "r6_rainbow"):
            rep = ctx[job]
            colors = self.tables[job.split("_")[0]].colors
            for side, grid in ((rep.per_column, colors), (rep.per_row, colors.T)):
                hit = sum(
                    int(np.isin(grid[list(side.rectangle.rows), v], zs).sum())
                    for v, zs in zip(side.rectangle.cols, side.color_sets)
                )
                if hit != side.worst_cells:
                    bad[job].append(f"rainbow witness {hit} != {side.worst_cells}")
                if side.passed != (side.worst_cells * rep.divisor <= 2 * rep.rect_side**2):
                    bad[job].append("rainbow verdict")
        search = ctx["search"]
        n, m, _, _, trials = self.SEARCH
        if search.found:
            if not search.report.passed or not np.array_equal(
                search.table.colors, tables.gen_random(n, m, search.seed).colors
            ):
                bad["search"].append("found table does not match its seed")
        elif search.trials != trials:
            bad["search"].append(f"exhausted after {search.trials} trials")

        pins = self.PINS if self.seed == DEFAULT_SEED else {
            job: v for job, v in self.PINS.items() if job.startswith("sep_")
        }
        for job, expect in pins.items():
            if _summary(ctx[job]) != expect:
                bad[job].append(f"pinned value {_summary(ctx[job])!r}")
        return bad


def _summary(result):
    """The exact values pinned per job."""
    if isinstance(result, float):
        return result
    if isinstance(result, balance.BalanceReport):
        r = result.worst_rectangle
        return [result.worst_cells, list(r.rows), list(r.cols), list(result.worst_colors)]
    if isinstance(result, balance.RainbowReport):
        return [result.per_column.worst_cells, result.per_row.worst_cells, result.passed]
    return [result.found, result.trials]


WORKLOADS = {w.name: w for w in (PipelineN4, OracleN8, SweepColors)}
