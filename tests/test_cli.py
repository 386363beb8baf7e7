import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import kextract
from kextract import balance, calibration, cli
from kextract.cli import GUARDED, build_parser, dispatch, main
from kextract.oracle import load_table, save_table
from kextract.reports import load_report
from kextract.tables import read_table


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Small oracles and tables shared by the CLI tests, built via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "o2all": str(root / "o2all.json"),
        "o4pairs": str(root / "o4pairs.json"),
        "oc4": str(root / "oc4.json"),
        "om1": str(root / "om1.json"),
        "rnd2": str(root / "rnd2.kext"),
        "ip2": str(root / "ip2.kext"),
        "const2": str(root / "const2.kext"),
        "trunc2": str(root / "trunc2.kext"),
    }
    builds = [
        ["oracle", "build", "--n", "2", "--conditions", "all", "--l-max", "6",
         "--out", paths["o2all"]],
        ["oracle", "build", "--n", "4", "--out", paths["o4pairs"]],
        ["oracle", "build", "--n", "2", "--conditions", "all:4", "--l-max", "6",
         "--out", paths["oc4"]],
        ["oracle", "build", "--n", "1", "--l-max", "4", "--out", paths["om1"]],
        ["table", "gen", "--kind", "random", "--n", "2", "--m", "1", "--seed", "3",
         "--out", paths["rnd2"]],
        ["table", "gen", "--kind", "inner-product", "--n", "2", "--out", paths["ip2"]],
        ["table", "gen", "--kind", "constant", "--n", "2", "--m", "1",
         "--out", paths["const2"]],
        ["table", "gen", "--kind", "truncate", "--n", "2", "--m", "1",
         "--out", paths["trunc2"]],
    ]
    for argv in builds:
        assert dispatch(argv) == 0
    paths["root"] = root
    return paths


def _run_module(args, cwd):
    """Run ``python -m kextract`` in a fresh interpreter that imports this very package.

    The package's parent directory leads ``PYTHONPATH``, so neither the cwd
    nor another installed copy can shadow the code under test.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(kextract.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "kextract", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


def test_version_subprocess(tmp_path):
    out = _run_module(["--version"], cwd=tmp_path)
    assert out.returncode == 0
    assert out.stdout.strip() == kextract.__version__


@pytest.mark.skipif(shutil.which("kextract") is None, reason="console script not installed")
def test_installed_console_script():
    exe = shutil.which("kextract")
    out = subprocess.run([exe, "--version"], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0
    assert out.stdout.strip() == kextract.__version__


def test_module_entry_is_declared_script():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts["kextract"] == "kextract.cli:main"
    import kextract.__main__ as module_entry

    assert module_entry.main is main


def test_module_entry_exit_codes(workdir, tmp_path):
    """``python -m kextract`` keeps dispatch's 0/1/2 exit-code contract."""
    census = ["exp", "dep-census", "--oracle", workdir["o2all"], "--alpha", "0"]
    assert _run_module(census, cwd=tmp_path).returncode == 0
    assert _run_module(census + ["--max-c", "0.5"], cwd=tmp_path).returncode == 1
    assert _run_module(["oracle", "build", "--n", "1"], cwd=tmp_path).returncode == 2


def test_argparse_usage_errors():
    with pytest.raises(SystemExit) as exc:
        dispatch(["table", "search", "--n", "2", "--m", "1", "--side", "2",
                  "--divisor", "1", "--max-trials", "1"])  # no --seed
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        dispatch(["no-such-group"])
    with pytest.raises(SystemExit) as exc:
        dispatch(["table", "verify", "--table", "t.kext", "--mode", "almost",
                  "--k", "1", "--threads", "2"])  # the option no longer exists
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        dispatch(["oracle", "build", "--n", "2", "--max-l-max", "30"])  # nor this one
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        dispatch([])


def test_dispatch_builds_one_parser(monkeypatch, workdir):
    built = []

    def counting():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    argv = ["table", "eps-star", "--table", workdir["rnd2"], "--k", "1", "--d", "0"]
    assert dispatch(argv) == 0
    assert dispatch(argv) == 0
    assert len(built) == 1 and cli._parser() is built[0]


def test_parse_error_leaves_the_parser_usable(workdir):
    parser = cli._parser()
    with pytest.raises(SystemExit) as exc:
        dispatch(["table", "eps-star", "--table", workdir["rnd2"], "--k", "x"])
    assert exc.value.code == 2
    argv = ["table", "eps-star", "--table", workdir["rnd2"], "--k", "1", "--d", "0"]
    assert dispatch(argv) == 0
    assert cli._parser() is parser


def test_override_flag_only_where_a_sweep_is_guarded(workdir, tmp_path):
    unguarded = [
        ["oracle", "query", "--table", workdir["o2all"], "--target", "00"],
        ["table", "gen", "--kind", "inner-product", "--n", "2",
         "--out", str(tmp_path / "g.kext")],
        ["extract", "check", "--table", workdir["rnd2"], "--cond-oracle",
         workdir["o2all"], "--output-oracle", workdir["om1"], "--k", "3",
         "--alpha", "0"],
    ]
    for argv in unguarded:
        assert dispatch(argv) == 0
        with pytest.raises(SystemExit) as exc:
            dispatch(argv + ["--override-feasibility"])
        assert exc.value.code == 2
    guarded = [
        ["table", "verify", "--table", workdir["rnd2"], "--mode", "almost", "--k", "1",
         "--d", "2"],
        ["table", "search", "--n", "2", "--m", "2", "--side", "1", "--divisor", "4",
         "--max-trials", "1", "--seed", "0"],
        ["table", "eps-star", "--table", workdir["rnd2"], "--k", "1", "--d", "0"],
        ["extract", "equiv", "--table", workdir["rnd2"], "--cond-oracle",
         workdir["o2all"], "--output-oracle", workdir["om1"], "--k", "1", "--d", "0"],
        ["pipeline", "run", "--out-dir", str(tmp_path / "p")],  # no config: exit 2
    ]
    parser = build_parser()
    for argv in guarded:
        assert tuple(argv[:2]) in GUARDED or argv[0] == "pipeline"
        assert parser.parse_args(argv + ["--override-feasibility"]).override_feasibility
        assert dispatch(argv + ["--override-feasibility"]) == dispatch(argv)


def test_oracle_build_and_query(workdir, tmp_path):
    out = str(tmp_path / "q.json")
    code = dispatch(["oracle", "query", "--table", workdir["o2all"],
                     "--target", "00", "--cond", "01", "--out", out])
    assert code == 0
    rep = load_report(out)
    assert rep["command"] == "oracle query"
    assert rep["params"] == {"table": workdir["o2all"], "target": "00", "cond": "01"}
    assert rep["data"] == {"complexity": 4}
    assert dispatch(["oracle", "build", "--n", "1"]) == 2  # --out required


def test_out_is_checked_before_any_work(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("ran before the missing --out was refused")

    monkeypatch.setattr(cli, "build_complexity_table", never)
    monkeypatch.setattr(cli, "gen_inner_product", never)
    assert dispatch(["oracle", "build", "--n", "8", "--conditions", "all"]) == 2
    assert dispatch(["table", "gen", "--kind", "inner-product", "--n", "4"]) == 2


@pytest.mark.parametrize("spec", ["all:-1", "all:25", "all:30", "all:20"])
def test_condition_length_is_capped(monkeypatch, tmp_path, spec):
    """all:<len> outside [0, MAX_N], or past the cell cap at n=8, is a
    usage error raised before the 2^len conditions are listed."""
    def never(*args, **kwargs):
        raise AssertionError("listed the conditions before refusing them")

    monkeypatch.setattr(cli, "all_strings", never)
    argv = ["oracle", "build", "--n", "8", "--conditions", spec,
            "--out", str(tmp_path / "o.json")]
    assert dispatch(argv) == 2


def test_unknown_condition_spec_is_a_usage_error(tmp_path, capsys):
    argv = ["oracle", "build", "--n", "2", "--conditions", "bogus",
            "--out", str(tmp_path / "o.json")]
    assert dispatch(argv) == 2
    assert "unknown condition spec 'bogus'" in capsys.readouterr().err


def test_pipeline_run_has_no_out(tmp_path):
    with pytest.raises(SystemExit) as exc:
        dispatch(["pipeline", "run", "--standard", "n4", "--out-dir",
                  str(tmp_path / "p"), "--out", str(tmp_path / "s.json")])
    assert exc.value.code == 2
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize(
    "argv, prefix, full, dest",
    [
        (["oracle", "build", "--n", "2"], "--l", "--l-max", "l_max"),
        (["table", "verify", "--table", "t.kext", "--mode", "almost", "--k", "1"],
         "--u", "--u-size", "u_size"),
    ],
)
def test_option_prefixes_are_usage_errors(argv, prefix, full, dest):
    assert getattr(build_parser().parse_args([*argv, full, "30"]), dest) == 30
    with pytest.raises(SystemExit) as exc:
        dispatch([*argv, prefix, "30"])
    assert exc.value.code == 2


def test_oracle_query_missing_file(tmp_path):
    assert dispatch(["oracle", "query", "--table", str(tmp_path / "nope.json"),
                     "--target", "0"]) == 2


def test_oversized_table_gen_is_a_usage_error(tmp_path, capsys):
    out = str(tmp_path / "t.kext")
    argv = ["table", "gen", "--kind", "truncate", "--n", "40", "--m", "2", "--out", out]
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n=40" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [
    pytest.param(lambda w, d: ["table", "gen", "--kind", "inner-product", "--n", "2",
                               "--out", d], id="out-is-a-directory"),
    pytest.param(lambda w, d: ["pipeline", "run", "--standard", "n4",
                               "--out-dir", w["rnd2"]], id="out-dir-is-a-file"),
    pytest.param(lambda w, d: ["oracle", "query", "--table", d, "--target", "0"],
                 id="table-is-a-directory"),
])
def test_unusable_user_path_is_a_usage_error(workdir, tmp_path, capsys, argv):
    assert dispatch(argv(workdir, str(tmp_path))) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    pytest.param(lambda p: ["oracle", "query", "--table", p, "--target", "0"], id="oracle"),
    pytest.param(lambda p: ["pipeline", "run", "--config", p, "--out-dir", p + ".out"],
                 id="pipeline-config"),
])
def test_deeply_nested_json_is_a_usage_error(tmp_path, capsys, argv):
    """JSON nested past the decoder's recursion limit is malformed input,
    not a crash."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    assert dispatch(argv(str(path))) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(path) in err[0]


def test_table_gen_kinds(workdir, tmp_path):
    for kind, extra in [
        ("gf2", ["--m", "1"]),
        ("random-single", ["--m", "1", "--seed", "5"]),
    ]:
        out = str(tmp_path / f"{kind}.kext")
        assert dispatch(["table", "gen", "--kind", kind, "--n", "2", *extra,
                         "--out", out]) == 0
        read_table(out)
    assert dispatch(["table", "gen", "--kind", "gf2", "--n", "2",
                     "--out", str(tmp_path / "x.kext")]) == 2  # gf2 needs --m
    assert dispatch(["table", "gen", "--kind", "random", "--n", "2", "--m", "1",
                     "--out", str(tmp_path / "y.kext")]) == 2  # random needs --seed
    assert dispatch(["table", "gen", "--kind", "random", "--n", "2",
                     "--out", str(tmp_path / "z.kext")]) == 2  # and --m


def test_table_verify_almost(workdir, tmp_path):
    out = str(tmp_path / "v.json")
    code = dispatch(["table", "verify", "--table", workdir["ip2"], "--mode", "almost",
                     "--k", "1", "--d", "2", "--out", out])
    assert code == 0
    rep = load_report(out)
    assert rep["assertions"][0]["name"] == "balance_pass"
    assert rep["params"]["eps"] == 0.25  # the default is recorded
    assert "threads" not in rep["params"]
    # a constant table concentrates every cell on one color
    code = dispatch(["table", "verify", "--table", workdir["const2"], "--mode",
                     "almost", "--k", "1", "--eps", "0", "--out", str(tmp_path / "c.json")])
    assert code == 1
    assert dispatch(["table", "verify", "--table", workdir["ip2"],
                     "--mode", "almost"]) == 2  # --k missing
    assert dispatch(["table", "verify", "--table", workdir["trunc2"], "--mode",
                     "almost", "--k", "1"]) == 2  # single-source table


@pytest.mark.parametrize(
    "argv, message",
    [
        (["table", "verify", "--mode", "almost", "--k", "1", "--eps", "nan",
          "--u-size", "1"], "eps must be finite"),
        (["table", "verify", "--mode", "almost", "--k", "1", "--eps", "inf"],
         "eps must be finite"),
        (["table", "verify", "--mode", "almost", "--k", "-1"], "k must be nonnegative"),
        (["table", "eps-star", "--k", "-1", "--d", "0"], "k must be nonnegative"),
    ],
)
def test_balance_parameters_are_checked(workdir, tmp_path, capsys, argv, message):
    """A NaN eps used to pass every check (not fraction > nan) and write
    "bound": NaN; neither it nor an infinite eps is a bound."""
    out = tmp_path / "bad.json"
    argv = argv[:2] + ["--table", workdir["ip2"]] + argv[2:] + ["--out", str(out)]
    assert dispatch(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("d", ["1100", str(10**30)])
def test_overflowing_bound_is_a_usage_error(workdir, tmp_path, capsys, monkeypatch, d):
    """u_size/2^m * 2^d + eps past the largest float used to crash with an
    OverflowError (exit 3) after the whole sweep; now nothing is swept."""
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep was planned")

    monkeypatch.setattr(balance, "_plan", no_sweep)
    out = tmp_path / "bad.json"
    assert dispatch(["table", "verify", "--table", workdir["ip2"], "--mode", "almost",
                     "--k", "1", "--d", d, "--out", str(out)]) == 2
    assert "overflows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("max_c", ["inf", "nan"])
def test_committed_max_c_must_be_finite(workdir, tmp_path, capsys, max_c):
    out = tmp_path / "bad.json"
    assert dispatch(["exp", "dep-census", "--oracle", workdir["o2all"], "--alpha", "0",
                     "--max-c", max_c, "--out", str(out)]) == 2
    assert "max_c must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_table_verify_rainbow(workdir, tmp_path):
    out = str(tmp_path / "r.json")
    assert dispatch(["table", "verify", "--table", workdir["rnd2"], "--mode",
                     "rainbow", "--side", "2", "--divisor", "1", "--out", out]) == 0
    rep = load_report(out)
    assert rep["data"]["per_column"]["worst_cells"] == 4
    assert dispatch(["table", "verify", "--table", workdir["rnd2"], "--mode",
                     "rainbow", "--side", "2"]) == 2  # --divisor missing


def test_table_search(workdir, tmp_path):
    out = str(tmp_path / "s.json")
    table_out = str(tmp_path / "found.kext")
    code = dispatch(["table", "search", "--n", "4", "--m", "2", "--side", "8",
                     "--divisor", "2", "--max-trials", "4", "--seed", "1",
                     "--out", out, "--table-out", table_out])
    assert code == 0
    rep = load_report(out)
    assert rep["data"]["found"] is True
    assert rep["data"]["trials"] == 1
    assert read_table(table_out).n == 4
    # exhaustion is an outcome, not a failure
    out2 = str(tmp_path / "s2.json")
    code = dispatch(["table", "search", "--n", "2", "--m", "2", "--side", "1",
                     "--divisor", "4", "--max-trials", "3", "--seed", "0",
                     "--out", out2])
    assert code == 0
    rep = load_report(out2)
    assert rep["data"]["found"] is False and rep["data"]["trials"] == 3


def test_table_eps_star(workdir, tmp_path):
    out = str(tmp_path / "e.json")
    assert dispatch(["table", "eps-star", "--table", workdir["rnd2"], "--k", "1",
                     "--d", "0", "--out", out]) == 0
    rep = load_report(out)
    assert 0.0 <= rep["data"]["eps_star"] <= 1.0
    assert rep["params"] == {"table": workdir["rnd2"], "k": 1, "d": 0}


def test_extract_check(workdir, tmp_path):
    base = ["extract", "check", "--table", workdir["rnd2"],
            "--cond-oracle", workdir["o2all"], "--output-oracle", workdir["om1"],
            "--k", "3", "--alpha", "0"]
    out = str(tmp_path / "x.json")
    assert dispatch(base + ["--require-d", "1", "--out", out]) == 0
    rep = load_report(out)
    assert rep["data"]["class_size"] == 16
    assert rep["data"]["max_deficiency"] == -1
    assert rep["assertions"][0]["name"] == "extracts_within_d=1"
    assert dispatch(base + ["--require-d", "-2"]) == 1
    assert dispatch(base) == 0  # no gate requested, census only


def test_extract_equiv(workdir, tmp_path):
    out = str(tmp_path / "eq.json")
    code = dispatch(["extract", "equiv", "--table", workdir["rnd2"],
                     "--cond-oracle", workdir["o2all"],
                     "--output-oracle", workdir["om1"],
                     "--k", "1", "--d", "0", "--out", out])
    assert code == 1  # n=2 complexities are flat: nothing separates here
    rep = load_report(out)
    names = {a["name"]: a["passed"] for a in rep["assertions"]}
    assert names["class_nonempty"] is True
    assert names["separated"] is False
    assert rep["params"]["delta"] == 2
    assert rep["data"]["alpha_capped"] in (True, False)


def test_demo_popular(workdir, tmp_path):
    out = str(tmp_path / "p.json")
    assert dispatch(["demo", "popular", "--table", workdir["trunc2"],
                     "--oracle", workdir["o2all"], "--out", out]) == 0
    rep = load_report(out)
    assert rep["data"]["preimages"] == 2
    assert all(a["passed"] for a in rep["assertions"])
    assert dispatch(["demo", "popular", "--table", workdir["rnd2"],
                     "--oracle", workdir["o2all"]]) == 2  # needs single-source


@pytest.mark.parametrize("command", [["extract", "check", "--alpha", "0"],
                                     ["extract", "equiv", "--d", "0"]])
def test_extract_needs_a_two_source_table(workdir, capsys, command):
    argv = [*command, "--table", workdir["trunc2"], "--cond-oracle", workdir["o2all"],
            "--output-oracle", workdir["om1"], "--k", "1"]
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {command[0]} {command[1]} needs a two-source table" in err
    assert "Traceback" not in err


def test_demo_curse(workdir, tmp_path):
    out = str(tmp_path / "c.json")
    code = dispatch(["demo", "curse", "--table", workdir["rnd2"], "--alpha", "1",
                     "--pair-oracle", workdir["o4pairs"],
                     "--output-oracle", workdir["om1"], "--out", out])
    assert code == 0
    rep = load_report(out)
    assert rep["data"]["floor"] == 3  # 2n - alpha
    assert rep["data"]["pair_count"] >= 8
    assert rep["data"]["output_deficiency"] == -1
    # output oracle optional
    assert dispatch(["demo", "curse", "--table", workdir["rnd2"], "--alpha", "0",
                     "--pair-oracle", workdir["o4pairs"]]) == 0


def test_demo_vv(workdir, tmp_path):
    out = str(tmp_path / "v.json")
    code = dispatch(["demo", "vv", "--oracle", workdir["oc4"], "--advice", "1",
                     "--n", "4", "--m", "2", "--out", out])
    assert code == 0
    rep = load_report(out)
    assert rep["data"]["case"] == "stalled"
    assert rep["data"]["witness_count"] == 16
    assert dispatch(["demo", "vv", "--oracle", workdir["oc4"], "--advice", "1",
                     "--m", "3"]) == 2  # oracle targets 2-bit strings
    assert dispatch(["demo", "vv", "--oracle", workdir["oc4"], "--advice", "1",
                     "--n", "3"]) == 2  # conditions are 4-bit
    assert dispatch(["demo", "vv", "--oracle", workdir["om1"], "--advice", "1"]) == 2


def test_demo_vv_at_a_huge_advice(workdir, tmp_path):
    """Advice 64 gives advice 22's report but for the advice and its K."""
    reports = {}
    for advice in (22, 64):
        out = str(tmp_path / f"v{advice}.json")
        assert dispatch(["demo", "vv", "--oracle", workdir["oc4"], "--advice", str(advice),
                         "--n", "4", "--m", "2", "--out", out]) == 0
        reports[advice] = load_report(out)
    small, huge = reports[22], reports[64]
    assert huge["data"]["max_steps"] == (1 << 65) - 1
    small["params"]["advice"] = small["data"]["k_adv"] = 64
    small["data"]["max_steps"] = huge["data"]["max_steps"]
    assert huge == small


def test_exp_dep_census(workdir, tmp_path):
    out = str(tmp_path / "d.json")
    csv_path = str(tmp_path / "census.csv")
    assert dispatch(["exp", "dep-census", "--oracle", workdir["o2all"],
                     "--alpha", "0", "--csv", csv_path, "--out", out]) == 0
    assert Path(csv_path).read_text(encoding="utf-8").startswith("x_hex,")
    rep = load_report(out)
    assert rep["data"]["max_fitted_c"] == 1.0
    # committed gate failure flips the exit code
    assert dispatch(["exp", "dep-census", "--oracle", workdir["o2all"],
                     "--alpha", "0", "--max-c", "0.5"]) == 1


def test_exp_hitting(workdir, tmp_path):
    base = ["exp", "hitting", "--table", workdir["rnd2"],
            "--cond-oracle", workdir["o2all"], "--output-oracle", workdir["om1"],
            "--k", "3", "--alpha", "0"]
    out = str(tmp_path / "h.json")
    assert dispatch(base + ["--set", "0", "--out", out]) == 0
    rep = load_report(out)
    assert rep["params"]["set"] == [0]
    assert dispatch(base + ["--set-popular-row", "0"]) == 0
    # Row 1 of the n=2 inner product is 0, 1, 0, 1: the tie goes to 0.
    ip = base[:2] + ["--table", workdir["ip2"]] + base[4:]
    assert dispatch(ip + ["--set-popular-row", "1", "--out", out]) == 0
    assert load_report(out)["params"]["set"] == [0]
    assert dispatch(base + ["--set", "0", "--set-popular-row", "0"]) == 2
    assert dispatch(base) == 2  # one of the two selectors is required


@pytest.mark.parametrize("row", ["9", "-1"])
def test_set_popular_row_is_range_checked(workdir, row):
    # the n=2 table has rows 0..3; 9 used to raise IndexError and -1 to
    # pick the last row
    argv = ["exp", "hitting", "--table", workdir["rnd2"],
            "--cond-oracle", workdir["o2all"], "--output-oracle", workdir["om1"],
            "--k", "3", "--alpha", "0", "--set-popular-row", row]
    assert dispatch(argv) == 2


def test_crash_exits_3_with_traceback(workdir, monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "measure_eps_star", crash)
    argv = ["table", "eps-star", "--table", workdir["rnd2"], "--k", "1", "--d", "0"]
    assert dispatch(argv) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "KeyError: 'bug'" in err


def test_uncovered_condition_is_a_usage_error(workdir, capsys):
    argv = ["oracle", "query", "--table", workdir["om1"], "--target", "0", "--cond", "1"]
    assert dispatch(argv) == 2
    assert "not covered" in capsys.readouterr().err


def test_reports_reproducible_from_params(workdir, tmp_path):
    argv = ["table", "eps-star", "--table", workdir["rnd2"], "--k", "1", "--d", "0"]
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert dispatch(argv + ["--out", a]) == 0
    assert dispatch(argv + ["--out", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()
    # the params block alone is enough to rebuild the invocation
    params = load_report(a)["params"]
    rebuilt = ["table", "eps-star", "--table", params["table"],
               "--k", str(params["k"]), "--d", str(params["d"])]
    c = str(tmp_path / "c.json")
    assert dispatch(rebuilt + ["--out", c]) == 0
    assert Path(c).read_bytes() == Path(a).read_bytes()


def test_report_json_is_canonical(workdir, tmp_path):
    out = str(tmp_path / "r.json")
    dispatch(["oracle", "query", "--table", workdir["o2all"], "--target", "11",
              "--out", out])
    blob = Path(out).read_bytes()
    doc = json.loads(blob)
    assert blob == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


# ------------------------------------------- n4 assertions that can fail
#
# One row per assertion of the standard n4 pipeline: the input (a seeded
# or constant table, or an oracle) and the exit code it gives with that
# step's arguments. rainbow_pass at D = 2 and extracts_within_d=0 at m = 2
# hold for every table, so their rows are constant tables that pass.


def _gen(root, name, kind, *args, m="2"):
    path = str(root / f"{name}.kext")
    assert dispatch(["table", "gen", "--kind", kind, "--n", "4", "--m", m, *args,
                     "--out", path]) == 0
    return path


def test_balance_pass_fails_a_constant_table(tmp_path):
    """verify-ip4-almost's arguments: one color fills every 8 x 8
    rectangle, 64 cells against the bound 2^-1 + 0.25 of them."""
    table = _gen(tmp_path, "const", "constant", m="1")
    out = str(tmp_path / "a.json")
    assert dispatch(["table", "verify", "--table", table, "--mode", "almost", "--k", "3",
                     "--d", "0", "--eps", "0.25", "--u-size", "1", "--out", out]) == 1
    rep = load_report(out)
    assert rep["data"]["worst_cells"] == 64
    assert rep["assertions"] == [{"name": "balance_pass", "passed": False, "detail": 1.0}]


def test_within_committed_c_fails_an_n5_oracle(tmp_path, oracle_n5_all):
    """exp-dep-census's arguments: the n=5 all-conditions oracle fits
    c = 0.125 (MAX_FITTED_C_N5_ALPHA2) at alpha = 2, past --max-c 0.0."""
    oracle = str(tmp_path / "o5.json")
    save_table(oracle_n5_all, oracle)
    out = str(tmp_path / "c.json")
    assert dispatch(["exp", "dep-census", "--oracle", oracle, "--alpha", "2",
                     "--max-c", "0.0", "--out", out]) == 1
    assert load_report(out)["assertions"] == [{
        "name": "within_committed_c", "passed": False,
        "detail": calibration.MAX_FITTED_C_N5_ALPHA2,
    }]


@pytest.mark.parametrize("seed, worst, code", [
    (1, 40, 0), (2, 39, 0), (3, 41, 0), (4, 39, 0),
    (5, 45, 1),  # the per-row worst passes 2 * 8^2 / 3 = 42.7 cells
])
def test_rainbow_verdict_at_divisor_3_varies(tmp_path, capsys, seed, worst, code):
    table = _gen(tmp_path, "rnd", "random", "--seed", str(seed))
    out = str(tmp_path / "r.json")
    assert dispatch(["table", "verify", "--table", table, "--mode", "rainbow",
                     "--side", "8", "--divisor", "3", "--out", out]) == code
    assert "holds for every table" not in capsys.readouterr().err
    rep = load_report(out)
    sides = (rep["data"]["per_column"], rep["data"]["per_row"])
    assert max(side["worst_cells"] for side in sides) == worst
    assert rep["assertions"] == [{"name": "rainbow_pass", "passed": not code, "detail": None}]


@pytest.mark.parametrize("side", ["4", "8"])
def test_rainbow_at_divisor_2_passes_a_constant_table(tmp_path, capsys, side):
    """worst * 2 <= 2K^2 holds for every table, since no rectangle has more
    than K^2 cells: verify-rnd4-rainbow's and search-rainbow's D = 2. Both
    commands say so on stderr."""
    table = _gen(tmp_path, "const", "constant")
    out = str(tmp_path / "r.json")
    assert dispatch(["table", "verify", "--table", table, "--mode", "rainbow",
                     "--side", side, "--divisor", "2", "--out", out]) == 0
    assert load_report(out)["data"]["per_column"]["worst_cells"] == int(side) ** 2
    assert dispatch(["table", "search", "--n", "2", "--m", "2", "--side", "2",
                     "--divisor", "1", "--seed", "1", "--max-trials", "1"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "note: at D=2 <= 2 rainbow_pass holds for every table",
        "note: at D=1 <= 2 rainbow_pass holds for every table",
    ]


def test_extracts_within_d0_at_m2_passes_a_constant_table(tmp_path):
    """extract-check-rnd4's arguments: every 2-bit string costs 4 bits on
    the output oracle, so every output's deficiency is 2 - 4."""
    cond, outs = str(tmp_path / "cond.json"), str(tmp_path / "outs.json")
    assert dispatch(["oracle", "build", "--n", "4", "--conditions", "all", "--l-max", "8",
                     "--out", cond]) == 0
    assert dispatch(["oracle", "build", "--n", "2", "--conditions", "lambda", "--l-max", "4",
                     "--out", outs]) == 0
    assert load_table(outs).lower_bounds().tolist() == [4, 4, 4, 4]
    table = _gen(tmp_path, "const", "constant")
    out = str(tmp_path / "x.json")
    assert dispatch(["extract", "check", "--table", table, "--cond-oracle", cond,
                     "--output-oracle", outs, "--k", "3", "--alpha", "2",
                     "--require-d", "0", "--out", out]) == 0
    rep = load_report(out)
    assert rep["data"]["max_deficiency"] == -2
    assert rep["assertions"][0]["name"] == "extracts_within_d=0"
