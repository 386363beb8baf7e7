"""Exact Kolmogorov-extraction laboratory.

A total reference machine with exhaustively computed conditional
complexity tables, distribution tooling for min-entropy geometry,
balanced extractor tables with exact rectangle verification, and
counting-based extraction demonstrations built on top.

`import kextract` loads no submodule and no numpy. Each exported name is
looked up in its home module, imported on first use, whenever it is read
here (PEP 562), so `from kextract import X` and `kextract.X` work as they
always have and always give the home module's current X. The submodules
listed in _SUBMODULES load as attributes the same way.
"""

import importlib

__version__ = "0.1.0"

# Home module -> the names it exports here, in __all__ order.
_EXPORTS = {
    "bits": ("BitString", "EMPTY", "all_strings"),
    "machine": (
        "MachineBudget", "DEFAULT_BUDGET", "FAIL", "run_machine",
        "gamma_encode", "gamma_decode", "pair_encode", "pair_decode",
    ),
    "oracle": (
        "NOT_FOUND", "ComplexityTable", "build_complexity_table", "save_table",
        "load_table", "symmetry_report",
    ),
    "distributions": (
        "Distribution", "FlatSource", "min_entropy", "statistical_distance",
        "heavy_set", "flatten_top", "dist_to_min_entropy", "dist_to_json",
        "dist_from_json", "push_forward",
    ),
    "tables": (
        "TwoSourceTable", "SingleSourceTable", "gen_inner_product", "gen_gf2_mult",
        "gen_random", "gen_random_single", "gen_constant", "gen_truncate",
        "write_table", "read_table",
    ),
    "balance": (
        "FeasibilityError", "balance_check_almost", "measure_eps_star",
        "rainbow_check", "search_rainbow",
    ),
    "extraction": (
        "dependency", "enumerate_class", "SourcePairClass", "extraction_check",
        "popular_color_demo", "popular_prefix_demo", "popular_range_procedure",
        "equivalence_report",
    ),
    "experiments": (
        "count_dependent", "dependent_census_sweep", "hitting_demo", "write_census_csv",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)
# The submodules reachable as attributes of a bare `import kextract`.
_SUBMODULES = frozenset(_EXPORTS) | {"prng", "calibration"}


def __getattr__(name: str):
    if name in _SUBMODULES:  # importing binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Not cached here: a name first read while its home module's binding
    # is patched (by a tracer, say) would keep the patch once it is undone.
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
