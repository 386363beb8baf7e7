"""Committed multi-step runs with a single aggregated summary.

A pipeline config is a JSON object {"steps": [...]} where each step has
a name, a CLI argv list, and declared inputs/outputs. Path-valued
entries use the "{out}" placeholder for the output directory; no other
placeholder is expanded. The built-in pipelines in STANDARDS write each
step as its argv alone and derive the declared lists from it; config
files declare them. Inputs are checked up front against earlier
outputs: a dangling reference aborts with exit 2 before any step runs,
so a broken pipeline leaves no partial summary. So does a file already
in the output directory that no step declares, since artifact_digests
would hash it as if the run had made it. A step that exits with
neither 0 nor 1 aborts the run with its code: 2 when the CLI rejects
its argv (an old config's --threads, say), 3 when it crashes. A step
that returns without writing a declared output aborts with exit 2.
With override set, --override-feasibility is appended to the steps whose
subcommand is in cli.GUARDED, the ones that reach the op guard.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Optional

from .reports import all_passed, assertion, build_report, write_report

SUMMARY_NAME = "pipeline_summary.json"

# The argv options whose "{out}" value a built-in step writes, in the
# order of its declared outputs. Every other "{out}" value is an input.
_OUTPUT_OPTIONS = ("--out", "--table-out", "--csv")


def _step(name: str, argv: str) -> dict:
    """A built-in step from its argv, one space-separated string, with
    its declared inputs and outputs read off the argv's "{out}" values."""
    tokens = argv.split()
    paths = [(opt, value) for opt, value in zip(tokens, tokens[1:])
             if value.startswith("{out}/")]
    return {
        "name": name,
        "argv": tokens,
        "inputs": [value for opt, value in paths if opt not in _OUTPUT_OPTIONS],
        "outputs": [value for out in _OUTPUT_OPTIONS for opt, value in paths if opt == out],
    }


# The committed n=4 reproduction pipeline: oracles, tables,
# verifications, demos, experiments. Every assertion in every step is
# expected to pass, and a rerun must reproduce every artifact byte for
# byte.
STANDARD_N4 = {"steps": [_step(name, argv) for name, argv in (
    ("oracle-n4-cond", "oracle build --n 4 --conditions all --l-max 8"
                       " --out {out}/oracle_n4_cond.json"),
    ("oracle-n8-pairs", "oracle build --n 8 --conditions lambda --l-max 16"
                        " --out {out}/oracle_n8_pairs.json"),
    ("oracle-m2-out", "oracle build --n 2 --conditions lambda --l-max 4"
                      " --out {out}/oracle_m2_out.json"),
    ("oracle-m2-cond4", "oracle build --n 2 --conditions all:4 --l-max 6"
                        " --out {out}/oracle_m2_cond4.json"),
    ("gen-ip4", "table gen --kind inner-product --n 4 --out {out}/ip4.kext"),
    ("gen-gf4", "table gen --kind gf2 --n 4 --m 2 --out {out}/gf4.kext"),
    ("gen-rnd4", "table gen --kind random --n 4 --m 2 --seed 1 --out {out}/rnd4.kext"),
    ("gen-trunc4", "table gen --kind truncate --n 4 --m 2 --out {out}/trunc4.kext"),
    ("verify-ip4-almost", "table verify --table {out}/ip4.kext --mode almost --k 3 --d 0"
                          " --eps 0.25 --u-size 1 --out {out}/verify_ip4_almost.json"),
    ("eps-star-ip4", "table eps-star --table {out}/ip4.kext --k 3 --d 0"
                     " --out {out}/eps_star_ip4.json"),
    ("verify-rnd4-rainbow", "table verify --table {out}/rnd4.kext --mode rainbow --side 4"
                            " --divisor 2 --out {out}/verify_rnd4_rainbow.json"),
    ("search-rainbow", "table search --n 4 --m 2 --side 8 --divisor 2 --seed 1 --max-trials 4"
                       " --table-out {out}/rainbow_found.kext --out {out}/search_rainbow.json"),
    ("extract-check-rnd4", "extract check --table {out}/rnd4.kext"
                           " --cond-oracle {out}/oracle_n4_cond.json"
                           " --output-oracle {out}/oracle_m2_out.json --k 3 --alpha 2"
                           " --require-d 0 --out {out}/extract_check_rnd4.json"),
    ("demo-popular", "demo popular --table {out}/trunc4.kext --oracle {out}/oracle_n4_cond.json"
                     " --out {out}/demo_popular.json"),
    ("demo-curse", "demo curse --table {out}/rnd4.kext --alpha 1"
                   " --pair-oracle {out}/oracle_n8_pairs.json"
                   " --output-oracle {out}/oracle_m2_out.json --out {out}/demo_curse.json"),
    ("demo-vv", "demo vv --oracle {out}/oracle_m2_cond4.json --advice 1 --n 4 --m 2"
                " --out {out}/demo_vv.json"),
    ("exp-dep-census", "exp dep-census --oracle {out}/oracle_n4_cond.json --alpha 2"
                       " --max-c 0.0 --csv {out}/census_n4_a2.csv"
                       " --out {out}/exp_dep_census.json"),
    ("exp-hitting", "exp hitting --table {out}/rnd4.kext --cond-oracle {out}/oracle_n4_cond.json"
                    " --output-oracle {out}/oracle_m2_out.json --k 3 --alpha 2"
                    " --set-popular-row 0 --out {out}/exp_hitting.json"),
)]}

# The built-in pipelines by their --standard name.
STANDARDS = {"n4": STANDARD_N4}


def load_config(config_path: Optional[str], standard: Optional[str]) -> dict:
    if (config_path is None) == (standard is None):
        raise ValueError("pass exactly one of --config / --standard")
    if standard is not None:
        if standard not in STANDARDS:
            raise ValueError(f"unknown standard pipeline {standard!r}")
        return STANDARDS[standard]
    with open(config_path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{config_path}: JSON nesting is too deep to decode") from None


def _resolve_step(index: int, raw: object, out_dir: str) -> dict:
    """Step index of a config with "{out}" resolved to out_dir; a
    ValueError naming the step and field unless it is an object with a
    string name, a list of strings argv and, optionally, lists of
    strings inputs and outputs."""
    if not isinstance(raw, dict):
        raise ValueError(f"step {index} is not an object")
    if not isinstance(raw.get("name"), str):
        raise ValueError(f'step {index}: "name" must be a string')
    step = {"name": raw["name"]}
    for field, default in (("argv", None), ("inputs", []), ("outputs", [])):
        value = raw.get(field, default)
        if not isinstance(value, list) or not all(isinstance(a, str) for a in value):
            raise ValueError(f'step {index}: "{field}" must be a list of strings')
        step[field] = [a.replace("{out}", out_dir) for a in value]
    return step


def preflight(config: dict, out_dir: str, _unused: object = None) -> list[dict]:
    """Check the config's shape, resolve "{out}", check the input/output
    dependency chain and refuse regular files in out_dir that no step
    declares, the summary aside.

    The optional third argument is ignored. It was the worker count of
    the former signature, and kbench/workloads.py still passes it.
    """
    raw_steps = config.get("steps") if isinstance(config, dict) else None
    if not isinstance(raw_steps, list):
        raise ValueError('a pipeline config is an object whose "steps" is a list')
    steps = []
    produced: set[str] = set()
    for index, raw in enumerate(raw_steps):
        step = _resolve_step(index, raw, out_dir)
        for path in step["inputs"]:
            if path not in produced and not os.path.exists(path):
                raise FileNotFoundError(
                    f"step {step['name']!r} needs {path}, which no earlier "
                    "step produces and which does not exist"
                )
        produced.update(step["outputs"])
        steps.append(step)
    declared = {os.path.abspath(path) for step in steps
                for path in step["inputs"] + step["outputs"]}
    stray = [name for name in _files(out_dir) if name != SUMMARY_NAME
             and os.path.abspath(os.path.join(out_dir, name)) not in declared]
    if stray:
        raise ValueError(f"{out_dir} holds files no step declares: {', '.join(stray)}")
    return steps


def run_pipeline(
    config_path: Optional[str],
    standard: Optional[str],
    out_dir: str,
    override: bool = False,
) -> int:
    from .cli import GUARDED, dispatch

    try:
        config = load_config(config_path, standard)
        os.makedirs(out_dir, exist_ok=True)
        steps = preflight(config, out_dir)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results = []
    for step in steps:
        argv = list(step["argv"])
        if override and tuple(argv[:2]) in GUARDED:
            argv.append("--override-feasibility")
        print(f"== step {step['name']}")
        try:
            code = dispatch(argv)
        except SystemExit:  # argparse rejected the step's argv
            code = 2
        if code not in (0, 1):  # 2 is a usage/feasibility error, 3 a crash
            print(f"error: step {step['name']!r} aborted the run with exit code {code}",
                  file=sys.stderr)
            return code
        missing = [path for path in step["outputs"] if not os.path.exists(path)]
        if missing:
            print(f"error: step {step['name']!r} did not write its declared "
                  f"outputs {', '.join(missing)}", file=sys.stderr)
            return 2
        results.append({"name": step["name"], "exit_code": code})

    checks = [
        assertion(f"step_{r['name']}", r["exit_code"] == 0, r["exit_code"])
        for r in results
    ]
    summary = build_report(
        "pipeline run",
        {"standard": standard, "config": config_path, "steps": len(steps)},
        {"results": results},
        checks,
    )
    summary_path = os.path.join(out_dir, SUMMARY_NAME)
    write_report(summary, summary_path)
    print(f"[pipeline run] {len(steps)} steps -> {summary_path}")
    return 0 if all_passed(summary) else 1


def _files(out_dir: str) -> list[str]:
    """Names of the regular files in out_dir, sorted; none if it is missing."""
    if not os.path.isdir(out_dir):
        return []
    return sorted(name for name in os.listdir(out_dir)
                  if os.path.isfile(os.path.join(out_dir, name)))


def artifact_digests(out_dir: str) -> dict[str, str]:
    """sha256 of the bytes of each regular file in out_dir, by name."""
    digests = {}
    for name in _files(out_dir):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests
