"""The package's import surface: what `import kextract` loads and exports.

`import kextract` loads no submodule. Names resolve from their home
modules on first use, and the CLI imports the compute modules per
subcommand, so the runs below that do no computing never load numpy.
Each of those checks runs in a fresh interpreter, since this process
has long loaded everything.
"""

import importlib
import os
import subprocess
import sys
import types

import pytest

import kextract

SRC = os.path.dirname(os.path.dirname(os.path.abspath(kextract.__file__)))

# Home module -> the names `kextract` exported from it before names were
# resolved lazily, in that release's __all__ order.
EXPORTS = {
    "bits": ["BitString", "EMPTY", "all_strings"],
    "machine": ["MachineBudget", "DEFAULT_BUDGET", "FAIL", "run_machine",
                "gamma_encode", "gamma_decode", "pair_encode", "pair_decode"],
    "oracle": ["NOT_FOUND", "ComplexityTable", "build_complexity_table", "save_table",
               "load_table", "symmetry_report"],
    "distributions": ["Distribution", "FlatSource", "min_entropy", "statistical_distance",
                      "heavy_set", "flatten_top", "dist_to_min_entropy", "dist_to_json",
                      "dist_from_json", "push_forward"],
    "tables": ["TwoSourceTable", "SingleSourceTable", "gen_inner_product", "gen_gf2_mult",
               "gen_random", "gen_random_single", "gen_constant", "gen_truncate",
               "write_table", "read_table"],
    "balance": ["FeasibilityError", "balance_check_almost", "measure_eps_star",
                "rainbow_check", "search_rainbow"],
    "extraction": ["dependency", "enumerate_class", "SourcePairClass", "extraction_check",
                   "popular_color_demo", "popular_prefix_demo", "popular_range_procedure",
                   "equivalence_report"],
    "experiments": ["count_dependent", "dependent_census_sweep", "hitting_demo",
                    "write_census_csv"],
}
# The submodules a bare `import kextract` bound as attributes when it
# imported them all eagerly.
SUBMODULES = ["bits", "machine", "oracle", "distributions", "tables", "prng",
              "balance", "calibration", "extraction", "experiments"]

# Runs `python -m kextract` with the probe's arguments through runpy, then
# says on stderr whether numpy was loaded; the exit code passes through.
MODULE_PROBE = """
import runpy, sys
sys.argv = ["kextract"] + sys.argv[1:]
try:
    runpy.run_module("kextract", run_name="__main__", alter_sys=True)
finally:
    print("numpy loaded:", "numpy" in sys.modules, file=sys.stderr)
"""


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60)


def test_all_is_pinned():
    assert kextract.__all__ == [name for names in EXPORTS.values() for name in names]
    assert len(kextract.__all__) == 54


@pytest.mark.parametrize("home", list(EXPORTS))
def test_each_name_is_its_home_modules_object(home):
    module = importlib.import_module(f"kextract.{home}")
    for name in EXPORTS[home]:
        assert getattr(kextract, name) is getattr(module, name), name


def test_star_import_and_dir_cover_every_name():
    namespace = {}
    exec("from kextract import *", namespace)
    assert set(kextract.__all__) <= set(namespace)
    for name in kextract.__all__:
        assert namespace[name] is getattr(kextract, name)
    listed = dir(kextract)
    assert set(kextract.__all__) | set(SUBMODULES) <= set(listed)
    assert "__version__" in listed


def test_a_name_first_read_under_a_patch_is_the_original_once_it_is_undone():
    code = (
        "import kextract, kextract.balance as b; orig = b.measure_eps_star; "
        "b.measure_eps_star = patched = lambda *a: None; "
        "assert kextract.measure_eps_star is patched; "
        "b.measure_eps_star = orig; "
        "from kextract import measure_eps_star; "
        "print(kextract.measure_eps_star is orig and measure_eps_star is orig)"
    )
    out = _python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True"


def test_feasibility_error_is_one_class_and_not_a_value_error():
    from kextract import balance, machine

    assert kextract.FeasibilityError is balance.FeasibilityError is machine.FeasibilityError
    assert not issubclass(kextract.FeasibilityError, ValueError)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        kextract.no_such_name
    assert not hasattr(kextract, "pipeline_run")
    with pytest.raises(ImportError):
        exec("from kextract import no_such_name", {})


@pytest.mark.parametrize("statement", [
    "import kextract",
    "from kextract import BitString, run_machine",
])
def test_import_loads_no_numpy(statement):
    out = _python("-c", f"{statement}; import sys; print('numpy' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_bare_import_still_exposes_the_submodules():
    code = (
        "import kextract, types; "
        f"print(all(isinstance(getattr(kextract, m), types.ModuleType) for m in {SUBMODULES!r}))"
    )
    out = _python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True"
    assert all(isinstance(getattr(kextract, m), types.ModuleType) for m in SUBMODULES)


@pytest.mark.parametrize("argv, code", [
    (["--version"], 0),
    (["--help"], 0),
    (["table"], 2),  # usage error: no subcommand
])
def test_cli_runs_that_compute_nothing_load_no_numpy(argv, code):
    out = _python("-c", MODULE_PROBE, *argv)
    assert out.returncode == code, out.stderr
    assert out.stderr.splitlines()[-1] == "numpy loaded: False"
    if argv == ["--version"]:
        assert out.stdout.strip() == kextract.__version__
