import hashlib
import json
import os

import pytest

from kextract import balance
from kextract.cli import dispatch
from kextract.pipeline import (
    STANDARD_N4,
    STANDARDS,
    SUMMARY_NAME,
    _step,
    artifact_digests,
    load_config,
    preflight,
    run_pipeline,
)
from kextract.reports import build_report, load_report, write_report

TINY = {
    "steps": [
        {
            "name": "gen",
            "argv": ["table", "gen", "--kind", "random", "--n", "2", "--m", "1",
                     "--seed", "3", "--out", "{out}/t.kext"],
            "inputs": [],
            "outputs": ["{out}/t.kext"],
        },
        {
            "name": "verify",
            "argv": ["table", "verify", "--table", "{out}/t.kext", "--mode",
                     "almost", "--k", "1", "--d", "2", "--out", "{out}/v.json"],
            "inputs": ["{out}/t.kext"],
            "outputs": ["{out}/v.json"],
        },
        {
            "name": "eps",
            "argv": ["table", "eps-star", "--table", "{out}/t.kext", "--k", "1",
                     "--d", "0", "--out", "{out}/e.json"],
            "inputs": ["{out}/t.kext"],
            "outputs": ["{out}/e.json"],
        },
    ]
}


def test_load_config(tmp_path):
    assert load_config(None, "n4") is STANDARD_N4
    with pytest.raises(ValueError):
        load_config(None, None)
    with pytest.raises(ValueError):
        load_config("x.json", "n4")
    with pytest.raises(ValueError):
        load_config(None, "n5")
    path = str(tmp_path / "c.json")
    with open(path, "w") as fh:
        json.dump(TINY, fh)
    assert load_config(path, None) == TINY


def test_preflight_templating(tmp_path):
    steps = preflight(TINY, str(tmp_path))
    assert steps[0]["argv"][-1] == f"{tmp_path}/t.kext"
    # the former third argument (a worker count) is accepted and ignored
    assert preflight(TINY, str(tmp_path), 7) == steps
    assert steps[1]["inputs"] == [f"{tmp_path}/t.kext"]
    # inputs satisfied by earlier outputs pass even before files exist
    assert not os.path.exists(f"{tmp_path}/t.kext")


def test_preflight_rejects_dangling_input(tmp_path):
    config = {
        "steps": [
            {"name": "use", "argv": ["table", "eps-star", "--table",
             "{out}/absent.kext", "--k", "1", "--d", "0"],
             "inputs": ["{out}/absent.kext"], "outputs": []},
        ]
    }
    with pytest.raises(FileNotFoundError):
        preflight(config, str(tmp_path))
    out = str(tmp_path / "run")
    code = run_pipeline(None, None, out)  # invalid selector
    assert code == 2
    path = str(tmp_path / "c.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    code = run_pipeline(path, None, out)
    assert code == 2
    # nothing ran, nothing was written
    assert os.listdir(out) == []


GEN = TINY["steps"][0]


@pytest.mark.parametrize(
    "config, message",
    [
        ([], '"steps" is a list'),
        ({}, '"steps" is a list'),
        ({"steps": 5}, '"steps" is a list'),
        ({"steps": [5]}, "step 0 is not an object"),
        ({"steps": [GEN, {**GEN, "name": 7}]}, 'step 1: "name"'),
        ({"steps": [{k: v for k, v in GEN.items() if k != "argv"}]}, 'step 0: "argv"'),
        ({"steps": [{**GEN, "argv": ["table", 5]}]}, 'step 0: "argv"'),
        ({"steps": [{**GEN, "inputs": "{out}/t.kext"}]}, 'step 0: "inputs"'),
        ({"steps": [GEN, {**GEN, "outputs": "{out}/t.kext"}]}, 'step 1: "outputs"'),
    ],
)
def test_malformed_config_is_a_usage_error(tmp_path, capsys, config, message):
    with pytest.raises(ValueError, match=message):
        preflight(config, str(tmp_path))
    path = str(tmp_path / "c.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    out = str(tmp_path / "run")
    assert run_pipeline(path, None, out) == 2
    assert message in capsys.readouterr().err
    assert os.listdir(out) == []  # no step ran


def test_tiny_pipeline_runs_and_reruns_identically(tmp_path):
    config_path = str(tmp_path / "tiny.json")
    with open(config_path, "w") as fh:
        json.dump(TINY, fh)
    out = str(tmp_path / "work")
    assert run_pipeline(config_path, None, out) == 0
    summary = load_report(os.path.join(out, SUMMARY_NAME))
    assert summary["params"]["steps"] == 3
    assert [a["name"] for a in summary["assertions"]] == [
        "step_gen", "step_verify", "step_eps",
    ]
    assert all(a["passed"] for a in summary["assertions"])
    first = artifact_digests(out)
    assert set(first) == {"t.kext", "v.json", "e.json", SUMMARY_NAME}
    # rerun into the same directory
    assert run_pipeline(config_path, None, out) == 0
    assert artifact_digests(out) == first


def test_pipeline_via_cli(tmp_path):
    config_path = str(tmp_path / "tiny.json")
    with open(config_path, "w") as fh:
        json.dump(TINY, fh)
    out = str(tmp_path / "work")
    assert dispatch(["pipeline", "run", "--config", config_path,
                     "--out-dir", out]) == 0
    assert os.path.exists(os.path.join(out, SUMMARY_NAME))
    assert dispatch(["pipeline", "run", "--out-dir", out]) == 2


def test_failed_step_keeps_going(tmp_path):
    config = {
        "steps": [
            {"name": "gen", "argv": ["table", "gen", "--kind", "constant",
             "--n", "2", "--m", "1", "--out", "{out}/c.kext"],
             "inputs": [], "outputs": ["{out}/c.kext"]},
            {"name": "verify", "argv": ["table", "verify", "--table",
             "{out}/c.kext", "--mode", "almost", "--k", "1", "--eps", "0",
             "--out", "{out}/v.json"],
             "inputs": ["{out}/c.kext"], "outputs": ["{out}/v.json"]},
            {"name": "eps", "argv": ["table", "eps-star", "--table",
             "{out}/c.kext", "--k", "1", "--d", "0", "--out", "{out}/e.json"],
             "inputs": ["{out}/c.kext"], "outputs": ["{out}/e.json"]},
        ]
    }
    config_path = str(tmp_path / "c.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    out = str(tmp_path / "work")
    assert run_pipeline(config_path, None, out) == 1
    summary = load_report(os.path.join(out, SUMMARY_NAME))
    flags = {a["name"]: a["passed"] for a in summary["assertions"]}
    assert flags == {"step_gen": True, "step_verify": False, "step_eps": True}
    assert os.path.exists(os.path.join(out, "e.json"))  # later steps still ran


def test_usage_error_aborts_without_summary(tmp_path):
    config = {
        "steps": [
            {"name": "gen", "argv": ["table", "gen", "--kind", "random",
             "--n", "2", "--m", "1", "--seed", "4", "--out", "{out}/t.kext"],
             "inputs": [], "outputs": ["{out}/t.kext"]},
            {"name": "bad", "argv": ["table", "gen", "--kind", "gf2", "--n", "2",
             "--out", "{out}/z.kext"],
             "inputs": [], "outputs": ["{out}/z.kext"]},
        ]
    }
    config_path = str(tmp_path / "c.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    out = str(tmp_path / "work")
    assert run_pipeline(config_path, None, out) == 2
    assert os.path.exists(os.path.join(out, "t.kext"))  # the good step ran
    assert not os.path.exists(os.path.join(out, SUMMARY_NAME))


def test_missing_declared_output_aborts(tmp_path, capsys):
    config = json.loads(json.dumps(TINY))
    config["steps"][0]["outputs"].append("{out}/never.json")
    config_path = str(tmp_path / "ghost.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    out = str(tmp_path / "work")
    assert run_pipeline(config_path, None, out) == 2
    err = capsys.readouterr().err
    assert "'gen'" in err and os.path.join(out, "never.json") in err
    assert os.path.exists(os.path.join(out, "t.kext"))  # the step itself ran
    assert not os.path.exists(os.path.join(out, "v.json"))  # later steps did not
    assert not os.path.exists(os.path.join(out, SUMMARY_NAME))


def test_crashing_step_aborts_with_exit_3(tmp_path, monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr(balance, "measure_eps_star", crash)
    config_path = str(tmp_path / "tiny.json")
    with open(config_path, "w") as fh:
        json.dump(TINY, fh)
    out = str(tmp_path / "work")
    assert dispatch(["pipeline", "run", "--config", config_path, "--out-dir", out]) == 3
    assert "'eps'" in capsys.readouterr().err
    assert os.path.exists(os.path.join(out, "v.json"))  # the step before ran
    assert not os.path.exists(os.path.join(out, SUMMARY_NAME))


def test_old_threads_flag_is_a_usage_error(tmp_path):
    config = json.loads(json.dumps(TINY))
    config["steps"][1]["argv"] += ["--threads", "{threads}"]
    config_path = str(tmp_path / "old.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    out = str(tmp_path / "work")
    assert run_pipeline(config_path, None, out) == 2
    assert os.path.exists(os.path.join(out, "t.kext"))  # the step before ran
    assert not os.path.exists(os.path.join(out, SUMMARY_NAME))


def test_override_reaches_table_steps(tmp_path, monkeypatch):
    config_path = str(tmp_path / "tiny.json")
    with open(config_path, "w") as fh:
        json.dump(TINY, fh)
    monkeypatch.setattr(balance, "OPS_LIMIT", 10)
    out1 = str(tmp_path / "no_override")
    assert run_pipeline(config_path, None, out1) == 2
    out2 = str(tmp_path / "with_override")
    assert run_pipeline(config_path, None, out2, override=True) == 0


# sha256 of the sorted (artifact, digest) pairs of the standard n4 run
# into the relative out_dir "out". Report params record the paths, so the
# digest depends on that name; any change to a report's command, params,
# data or assertions changes it.
STANDARD_N4_DIGEST = "e2447bb01cc7e4533f607d6627073b5ffb5d3cd875519251003e600d455a9307"


def test_standard_n4_artifacts_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_pipeline(None, "n4", "out") == 0
    digests = artifact_digests("out")
    assert len(digests) == 21
    combined = hashlib.sha256(json.dumps(sorted(digests.items())).encode()).hexdigest()
    assert combined == STANDARD_N4_DIGEST
    # both rainbow steps run at D = 2 and note it on stderr, which no
    # artifact records
    assert capsys.readouterr().err.count("rainbow_pass holds for every table") == 2


def test_artifact_digests_hash_raw_bytes(tmp_path):
    write_report(build_report("c", {"x": 1}, {"v": 2}), str(tmp_path / "a.json"))
    with open(tmp_path / "blob.bin", "wb") as fh:
        fh.write(b"\x00\x01")
    with open(tmp_path / "broken.json", "w") as fh:
        fh.write("{not json")
    os.mkdir(tmp_path / "sub")
    digests = artifact_digests(str(tmp_path))
    assert set(digests) == {"a.json", "blob.bin", "broken.json"}  # no directories
    for name, digest in digests.items():
        assert digest == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()


def test_stray_file_in_out_dir_is_refused(tmp_path, capsys):
    """A file no step declares would be digested as if the run made it,
    so the run refuses it before any step runs; the summary is allowed."""
    config_path = str(tmp_path / "tiny.json")
    with open(config_path, "w") as fh:
        json.dump(TINY, fh)
    out = tmp_path / "work"
    (out / "sub").mkdir(parents=True)
    (out / SUMMARY_NAME).write_text("{}")
    (out / "v.json").write_text("{}")  # declared: rewritten by the run
    (out / "stale.json").write_text("{}")
    with pytest.raises(ValueError, match="stale.json"):
        preflight(TINY, str(out))
    assert run_pipeline(config_path, None, str(out)) == 2
    err = capsys.readouterr().err
    assert "stale.json" in err and "v.json" not in err
    assert sorted(os.listdir(out)) == sorted([SUMMARY_NAME, "stale.json", "sub", "v.json"])
    os.remove(out / "stale.json")
    assert run_pipeline(config_path, None, str(out)) == 0


def test_standard_n4_shape():
    names = [s["name"] for s in STANDARD_N4["steps"]]
    assert len(names) == len(set(names)) == 18
    produced = set()
    for step in STANDARD_N4["steps"]:
        for path in step["inputs"]:
            assert path in produced, f"{step['name']} reads {path} before it exists"
        produced.update(step["outputs"])
        assert all(p.startswith("{out}/") for p in step["outputs"])


def test_builtin_steps_derive_their_declared_paths():
    step = _step("s", "table search --table-out {out}/t.kext --table {out}/in.kext"
                      " --csv {out}/c.csv --seed 1 --out {out}/r.json")
    assert step["argv"][:2] == ["table", "search"] and step["argv"][-1] == "{out}/r.json"
    assert step["inputs"] == ["{out}/in.kext"]
    assert step["outputs"] == ["{out}/r.json", "{out}/t.kext", "{out}/c.csv"]
    for config in STANDARDS.values():
        for step in config["steps"]:
            paths = [a for a in step["argv"] if a.startswith("{out}")]
            assert sorted(step["inputs"] + step["outputs"]) == sorted(paths)
