"""Per-layer spans recorded around kextract's public functions.

Nothing under src/ is edited. While a `Tracer.unit(...)` block is open,
each function listed in TRACED is replaced, in every loaded kextract
module namespace that holds it, by a wrapper that records a span; the
originals are restored when the block closes. Replacing the name in every
namespace is what makes calls between modules visible (cli -> balance,
extraction -> balance, balance.search_rainbow -> balance.rainbow_check).
The machine module is not wrapped: it runs once per enumerated program,
only inside oracle builds, and per-program spans would swamp the build.

A span is a record {name, metric, layer, unit, start, end, parent}, kept
in memory and dumped by the caller at exit. A layer's self time is its
spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _count_build(bound, table):
    found = sum(int((table.entries(y) >= 0).sum()) for y in table.conditions)
    return {
        "oracle.build_calls": 1,
        # Every program of length 0..l_max is enumerated once.
        "oracle.programs_enumerated": (1 << (table.l_max + 1)) - 1,
        "oracle.entries_found": found,
        "oracle.entry_cells": len(table.conditions) << table.n,
    }


def _count_save(bound, _result):
    return {"oracle.json_bytes": os.path.getsize(bound.arguments["path"])}


def _count_almost(bound, report):
    return {"balance.rect_pairs": report.rectangle_pairs}


def _count_eps_star(bound, _result):
    table, k, d = (bound.arguments[a] for a in ("table", "k", "d"))
    if d > table.m:  # measure_eps_star returns 0.0 without sweeping
        return {}
    return {"balance.rect_pairs": math.comb(1 << table.n, 1 << k) ** 2}


def _count_search(bound, result):
    return {"balance.search_trials": result.trials}


def _count_class(bound, cls):
    return {
        "extraction.class_pairs": cls.size,
        "extraction.class_indeterminate": cls.indeterminate,
    }


# (module, function, metric its span time adds to, counter or None).
# A metric of None means "cli.step_s.<pipeline step name>".
TRACED = [
    ("oracle", "build_complexity_table", "oracle.build_s", _count_build),
    ("oracle", "save_table", "oracle.save_s", _count_save),
    ("oracle", "load_table", "oracle.load_s", None),
    ("oracle", "symmetry_report", "oracle.symmetry_s", None),
    ("balance", "balance_check_almost", "balance.almost_s", _count_almost),
    ("balance", "measure_eps_star", "balance.eps_star_s", _count_eps_star),
    ("balance", "rainbow_check", "balance.rainbow_s", None),
    ("balance", "search_rainbow", "balance.search_s", _count_search),
    ("tables", "gen_inner_product", "tables.gen_s", None),
    ("tables", "gen_gf2_mult", "tables.gen_s", None),
    ("tables", "gen_random", "tables.gen_s", None),
    ("tables", "gen_random_single", "tables.gen_s", None),
    ("tables", "gen_constant", "tables.gen_s", None),
    ("tables", "gen_truncate", "tables.gen_s", None),
    ("tables", "write_table", "tables.kext_write_s", None),
    ("tables", "read_table", "tables.kext_read_s", None),
    ("extraction", "enumerate_class", "extraction.class_s", _count_class),
    ("extraction", "extraction_check", "extraction.check_s", None),
    ("extraction", "popular_color_demo", "extraction.demo_s", None),
    ("extraction", "popular_prefix_demo", "extraction.demo_s", None),
    ("extraction", "popular_range_procedure", "extraction.range_s", None),
    ("experiments", "dependent_census_sweep", "experiments.census_s", None),
    ("experiments", "hitting_demo", "experiments.hitting_s", None),
    ("reports", "write_report", "reports.write_s", None),
    ("cli", "dispatch", None, None),
    ("pipeline", "run_pipeline", "pipeline.run_s", None),
]

# Self time per layer; the pipeline layer's self time is its overhead
# around the steps, and reports has a single traced function.
SELF_METRIC = {
    "oracle": "oracle.self_s",
    "balance": "balance.self_s",
    "tables": "tables.self_s",
    "extraction": "extraction.self_s",
    "experiments": "experiments.self_s",
    "cli": "cli.self_s",
    "pipeline": "pipeline.overhead_s",
}

COUNTS = [
    "oracle.build_calls",
    "oracle.programs_enumerated",
    "oracle.entries_found",
    "oracle.json_bytes",
    "balance.rect_pairs",
    "balance.search_trials",
    "extraction.class_pairs",
    "extraction.class_indeterminate",
]

RATIOS = {
    "oracle.programs_per_s": ("oracle.programs_enumerated", ("oracle.build_s",)),
    "oracle.found_ratio": ("oracle.entries_found", ("oracle.entry_cells",)),
    "balance.rect_pairs_per_s": (
        "balance.rect_pairs",
        ("balance.almost_s", "balance.eps_star_s"),
    ),
}


def metric_names(step_names):
    """Every per-layer metric `Tracer.summary` reports."""
    spans = {m for _, _, m, _ in TRACED if m is not None} - {"pipeline.run_s"}
    steps = {f"cli.step_s.{s}" for s in step_names}
    return spans | steps | set(SELF_METRIC.values()) | set(COUNTS) | set(RATIOS)


class Tracer:
    """Span recorder over units (one setup repetition or one pass)."""

    def __init__(self, step_names):
        self.step_names = step_names  # argv tuple -> pipeline step name
        self.spans = []
        self.t0 = time.perf_counter()
        self._stack = []
        self._unit = None

    @contextmanager
    def unit(self, kind, index):
        """Record spans for one unit while the wrappers are installed."""
        self._unit = (kind, index)
        restore = self._install()
        try:
            yield
        finally:
            for mod, name, value in restore:
                setattr(mod, name, value)
            self._unit = None

    def _install(self):
        targets = [
            (importlib.import_module(f"kextract.{mod}"), mod, fn, metric, counter)
            for mod, fn, metric, counter in TRACED
        ]
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "kextract" or n.startswith("kextract."))
        ]
        restore = []
        for home, mod_name, fn_name, metric, counter in targets:
            orig = getattr(home, fn_name)
            wrapper = self._wrap(mod_name, fn_name, orig, metric, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        return restore

    def _wrap(self, layer, fn_name, orig, metric, counter):
        sig = inspect.signature(orig)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            name = metric
            if name is None:
                name = "cli.step_s." + self.step_names.get(tuple(args[0]), "unknown")
            span = {
                "name": f"{layer}.{fn_name}",
                "metric": name,
                "layer": layer,
                "unit": self._unit,
                "parent": self._stack[-1] if self._stack else None,
            }
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span["start"] = time.perf_counter() - self.t0
            try:
                result = orig(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter() - self.t0
                self._stack.pop()
            if counter is not None:
                span["counts"] = counter(sig.bind(*args, **kwargs), result)
            return result

        return wrapper

    def unit_totals(self, unit):
        """Metric totals over the spans of one unit."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s["unit"] == unit]
        covered = defaultdict(float)
        for _, s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(float)
        for i, s in spans:
            dur = s["end"] - s["start"]
            out[s["metric"]] += dur
            if s["layer"] in SELF_METRIC:
                out[SELF_METRIC[s["layer"]]] += dur - covered[i]
            for key, value in s.get("counts", {}).items():
                out[key] += value
        return out

    def summary(self, names, units):
        """Per metric: median over setup units plus median over passes.

        Work counts are exact per unit, so their medians are the counts
        themselves; times are medians of per-unit totals. Ratios are taken
        of these sums.
        """
        by_kind = defaultdict(list)
        for unit in units:
            by_kind[unit[0]].append(self.unit_totals(unit))
        keys = {k for totals in by_kind.values() for t in totals for k in t}
        result = defaultdict(float)
        for key in keys:
            result[key] = sum(
                statistics.median(t.get(key, 0.0) for t in totals)
                for totals in by_kind.values()
            )
        for key, (num, dens) in RATIOS.items():
            den = sum(result[d] for d in dens)
            result[key] = result[num] / den if den > 0 else 0.0
        return {name: result[name] for name in names}

    def records(self):
        """Spans as JSON-ready dicts, with their times in seconds since
        the tracer started."""
        for i, s in enumerate(self.spans):
            yield dict(s, id=i, unit=f"{s['unit'][0]}#{s['unit'][1]}")
