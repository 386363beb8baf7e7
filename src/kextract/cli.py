"""Command-line front end.

Subcommands: oracle build|query, table gen|verify|search|eps-star,
extract check|equiv, demo popular|curse|vv, exp dep-census|hitting,
pipeline run. Every subcommand echoes a one-screen summary, and all but
pipeline run (whose summary goes into --out-dir) can write a report
envelope with --out; the report's command and params come from the
parsed arguments. Exit codes: 0 on pass/complete, 1 when a report
assertion fails, 2 on usage or feasibility errors (a user-named path
that cannot be read or written among them), 3 when a command crashes
(its traceback goes to stderr).

Randomized subcommands require an explicit --seed; nothing here reads
environmental entropy. Every sweep runs sequentially in a fixed order.
--override-feasibility lifts the op guard. Only the subcommands in
GUARDED reach that guard (table verify, table search, table eps-star,
extract equiv), so only they and pipeline run, which passes the flag on
to its steps among them, accept it; elsewhere it is a usage error. It
never changes results and is not recorded in reports.

Importing this module loads neither numpy nor the compute modules. The
parser needs only the numpy-free bits, machine, calibration, pipeline
and reports, so --version, --help and usage errors never load numpy.
Each cmd_* handler imports what it runs when it runs, by a function-local
import from the home module, so a wrapper patched onto that module's
name (a tracer, say) sees the call.
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback

from . import __version__, calibration
from .bits import EMPTY, BitString, all_strings
from .machine import DEFAULT_BUDGET, FeasibilityError, MachineBudget
from .pipeline import STANDARDS
from .reports import all_passed, assertion, build_report, write_report

# (group, command) of the subcommands whose sweeps reach the feasibility
# guard.
GUARDED = frozenset(
    {("table", "verify"), ("table", "search"), ("table", "eps-star"), ("extract", "equiv")}
)

# table gen --kind -> (options it needs besides --n, generator call on
# the tables module). cmd_table_gen imports tables when it runs and the
# calls look the gen_* names up on it then, so a wrapper patched onto
# those module names (a tracer, say) sees every generation.
TABLE_KINDS = {
    "inner-product": ((), lambda t, a: t.gen_inner_product(a.n)),
    "gf2": (("m",), lambda t, a: t.gen_gf2_mult(a.n, a.m)),
    "random": (("m", "seed"), lambda t, a: t.gen_random(a.n, a.m, a.seed)),
    "random-single": (("m", "seed"), lambda t, a: t.gen_random_single(a.n, a.m, a.seed)),
    "constant": (("m",), lambda t, a: t.gen_constant(a.n, a.m, a.color)),
    "truncate": (("m",), lambda t, a: t.gen_truncate(a.n, a.m)),
}


def _group(top, group: str, help: str):
    """Add a subcommand group; return a function that adds its subcommands.

    Every parser turns off prefix matching, so an option spelled short or
    a removed option's old name is a usage error instead of silently
    binding to a longer option (`--l` to `--l-max`).
    """
    sub = top.add_parser(group, help=help, allow_abbrev=False).add_subparsers(
        dest="command", required=True
    )

    def command(name, func, help=None, out_help="write a JSON report here"):
        """out_help=None leaves the subcommand without --out."""
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        if out_help is not None:
            p.add_argument("--out", help=out_help)
        if (group, name) in GUARDED or group == "pipeline":
            p.add_argument(
                "--override-feasibility",
                action="store_true",
                help="run sweeps past the primitive-op guard",
            )
        p.set_defaults(func=func)
        return p

    return command


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kextract",
        description="Exact Kolmogorov-extraction laboratory",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    top = parser.add_subparsers(dest="group", required=True)

    oracle = _group(top, "oracle", "complexity table builds and lookups")
    p = oracle("build", cmd_oracle_build, "build a table of shortest program lengths",
               out_help="write the oracle table JSON here")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--conditions",
        default="lambda",
        help="'lambda', 'all' (lambda plus all n-bit), or 'all:<len>'",
    )
    p.add_argument("--l-max", type=int, default=None)
    p.add_argument("--budget-out", type=int, default=DEFAULT_BUDGET.max_output_bits)
    p.add_argument("--budget-ops", type=int, default=DEFAULT_BUDGET.max_opcodes)
    p = oracle("query", cmd_oracle_query, "look up one complexity value")
    p.add_argument("--table", required=True)
    p.add_argument("--target", required=True, help="target as a 01 string")
    p.add_argument("--cond", default="", help="condition as a 01 string; empty = lambda")

    table = _group(top, "table", "generate and verify color tables")
    p = table("gen", cmd_table_gen, "write a table in KEXT binary form",
              out_help="write the KEXT table here")
    p.add_argument("--kind", required=True, choices=list(TABLE_KINDS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--color", type=int, default=0, help="constant tables only")
    p = table("verify", cmd_table_verify, "exhaustive rectangle balance verdict")
    p.add_argument("--table", required=True)
    p.add_argument("--mode", required=True, choices=["almost", "rainbow"])
    p.add_argument("--k", type=int, help="almost: log2 of the rectangle side")
    p.add_argument("--d", type=int, default=0)
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--u-size", type=int, default=1)
    p.add_argument("--side", type=int, help="rainbow: rectangle side K")
    p.add_argument("--divisor", type=int, help="rainbow: imbalance divisor D")
    p = table("search", cmd_table_search, "draw seeded tables until rainbow passes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--side", type=int, required=True)
    p.add_argument("--divisor", type=int, required=True)
    p.add_argument("--max-trials", type=int, required=True)
    p.add_argument("--table-out", help="write the passing table here")
    p.add_argument("--seed", type=int, required=True)
    p = table("eps-star", cmd_table_eps_star, "exact eps* over flat source pairs")
    p.add_argument("--table", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    extract = _group(top, "extract", "class deficiency checks")
    p = extract("check", cmd_extract_check, "deficiency census over a class")
    p.add_argument("--table", required=True)
    p.add_argument("--cond-oracle", required=True)
    p.add_argument("--output-oracle", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--require-d", type=int, default=None)
    p = extract("equiv", cmd_extract_equiv, "balance-to-class comparison report")
    p.add_argument("--table", required=True)
    p.add_argument("--cond-oracle", required=True)
    p.add_argument("--output-oracle", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--delta", type=int, default=calibration.DELTA_MARGIN)

    demo = _group(top, "demo", "counting demonstrations")
    p = demo("popular", cmd_demo_popular, "popular color pigeonhole witness")
    p.add_argument("--table", required=True, help="single-source KEXT table")
    p.add_argument("--oracle", required=True)
    p = demo("curse", cmd_demo_curse, "popular output prefix witness pair")
    p.add_argument("--table", required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--pair-oracle", required=True)
    p.add_argument("--output-oracle", default=None)
    p = demo("vv", cmd_demo_vv, "shared-range recovery by popularity voting")
    p.add_argument("--oracle", required=True, help="m-bit targets, all n-bit conditions")
    p.add_argument("--advice", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="validate the condition length")
    p.add_argument("--m", type=int, default=None, help="validate the target length")

    exp = _group(top, "exp", "census and hitting experiments")
    p = exp("dep-census", cmd_exp_dep_census, "alpha-dependent partner census sweep")
    p.add_argument("--oracle", required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--csv", default=None)
    p.add_argument("--max-c", type=float, default=None)
    p = exp("hitting", cmd_exp_hitting, "threshold argument vs direct scan")
    p.add_argument("--table", required=True)
    p.add_argument("--cond-oracle", required=True)
    p.add_argument("--output-oracle", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--set", dest="target_set", default=None, help="comma-separated colors")
    p.add_argument(
        "--set-popular-row",
        type=int,
        default=None,
        help="use the most popular color of this row as the set",
    )

    pipe = _group(top, "pipeline", "run committed step sequences")
    p = pipe("run", cmd_pipeline_run, out_help=None)
    p.add_argument("--config", default=None, help="JSON step list")
    p.add_argument("--standard", default=None, choices=list(STANDARDS), help="built-in pipeline")
    p.add_argument("--out-dir", required=True)

    return parser


def _parse_bits(text: str) -> BitString:
    if text in ("", "-"):
        return EMPTY
    return BitString.from01(text)


def _conditions_for(spec: str, n: int) -> list[BitString]:
    from .oracle import MAX_N, check_shape

    if spec == "lambda":
        return [EMPTY]
    if spec == "all":
        length = n
    elif spec.startswith("all:"):
        length = int(spec.split(":", 1)[1])
    else:
        raise ValueError(f"unknown condition spec {spec!r}")
    if not 0 <= length <= MAX_N:
        raise ValueError(f"condition length {length} is not in [0, {MAX_N}]")
    check_shape(n, 1 + (1 << length))
    return [EMPTY] + all_strings(length)


def _params(args, *names: str) -> dict:
    """The report params: each named option as it was parsed."""
    return {name: getattr(args, name) for name in names}


def _shape(table) -> str:
    """The name a table's errors and summaries use for its kind."""
    from .tables import TwoSourceTable

    return "two-source" if isinstance(table, TwoSourceTable) else "single-source"


def _read_table(path: str, shape: str, what: str):
    """The KEXT table at path; a ValueError naming the shape that what
    needs unless the table has that shape."""
    from .tables import read_table

    table = read_table(path)
    if _shape(table) != shape:
        raise ValueError(f"{what} needs a {shape} table")
    return table


def _finish(args, params: dict, data, assertions: list[dict]) -> int:
    report = build_report(f"{args.group} {args.command}", params, data, assertions)
    for entry in assertions:
        print(f"  {'PASS' if entry['passed'] else 'FAIL'} {entry['name']}")
    if args.out:
        write_report(report, args.out)
        print(f"  report -> {args.out}")
    return 0 if all_passed(report) else 1


def cmd_oracle_build(args) -> int:
    from .oracle import build_complexity_table, save_table

    if not args.out:
        raise ValueError("oracle build needs --out for the table file")
    conds = _conditions_for(args.conditions, args.n)
    budget = MachineBudget(args.budget_out, args.budget_ops)
    table = build_complexity_table(args.n, conds, l_max=args.l_max, budget=budget)
    save_table(table, args.out)
    print(
        f"[oracle build] n={table.n} l_max={table.l_max} "
        f"conditions={len(table.conditions)} not_found(lambda)="
        f"{table.not_found_count() if EMPTY in table.conditions else 'n/a'} "
        f"-> {args.out}"
    )
    return 0


def cmd_oracle_query(args) -> int:
    from .oracle import load_table

    table = load_table(args.table)
    target = _parse_bits(args.target)
    cond = _parse_bits(args.cond)
    value = table.complexity(target, cond)
    print(f"[oracle query] C({target.to01()!r} | {cond.to01()!r}) = {value}")
    params = dict(_params(args, "table"), target=target.to01(), cond=cond.to01())
    return _finish(args, params, {"complexity": value}, [])


def cmd_table_gen(args) -> int:
    from . import tables

    if not args.out:
        raise ValueError("table gen needs --out for the KEXT file")
    needs, generate = TABLE_KINDS[args.kind]
    if any(getattr(args, name) is None for name in needs):
        raise ValueError(f"{args.kind} needs " + " and ".join(f"--{o}" for o in needs))
    table = generate(tables, args)
    tables.write_table(table, args.out)
    print(f"[table gen] {args.kind} n={table.n} m={table.m} ({_shape(table)}) "
          f"-> {args.out}")
    return 0


def _note_rainbow_divisor(divisor: int) -> None:
    """The pass bound is worst * D <= 2K^2 and worst <= K^2, so it cannot
    fail at D <= 2; say so on stderr, which no report records."""
    if divisor <= 2:
        print(f"note: at D={divisor} <= 2 rainbow_pass holds for every table",
              file=sys.stderr)


def cmd_table_verify(args) -> int:
    from .balance import balance_check_almost, rainbow_check

    table = _read_table(args.table, "two-source", "verification")
    if args.mode == "almost":
        if args.k is None:
            raise ValueError("--mode almost needs --k")
        report = balance_check_almost(
            table,
            args.k,
            args.d,
            args.eps,
            args.u_size,
            override=args.override_feasibility,
        )
        print(
            f"[table verify almost] worst={report.worst_cells}/{1 << (2 * args.k)} "
            f"fraction={report.worst_fraction} bound={report.bound} "
            f"passed={report.passed}"
        )
        params = _params(args, "table", "mode", "k", "d", "eps", "u_size")
        checks = [assertion("balance_pass", report.passed, report.worst_fraction)]
        return _finish(args, params, report, checks)
    if args.side is None or args.divisor is None:
        raise ValueError("--mode rainbow needs --side and --divisor")
    report = rainbow_check(
        table,
        args.side,
        args.divisor,
        override=args.override_feasibility,
    )
    _note_rainbow_divisor(args.divisor)
    print(
        f"[table verify rainbow] K={args.side} D={args.divisor} "
        f"per_column={report.per_column.worst_cells} "
        f"per_row={report.per_row.worst_cells} passed={report.passed}"
    )
    params = _params(args, "table", "mode", "side", "divisor")
    return _finish(args, params, report, [assertion("rainbow_pass", report.passed)])


def cmd_table_search(args) -> int:
    from .balance import search_rainbow
    from .tables import write_table

    result = search_rainbow(
        args.n,
        args.m,
        args.side,
        args.divisor,
        seed=args.seed,
        max_trials=args.max_trials,
        override=args.override_feasibility,
    )
    _note_rainbow_divisor(args.divisor)
    print(
        f"[table search] found={result.found} trials={result.trials} "
        f"seed={result.seed}"
    )
    if result.found and args.table_out:
        write_table(result.table, args.table_out)
        print(f"  table -> {args.table_out}")
    params = _params(args, "n", "m", "side", "divisor", "seed", "max_trials")
    data = {
        "found": result.found,
        "trials": result.trials,
        "seed_used": result.seed,
        "report": result.report,
    }
    return _finish(args, params, data, [])


def cmd_table_eps_star(args) -> int:
    from .balance import measure_eps_star

    table = _read_table(args.table, "two-source", "eps-star")
    value = measure_eps_star(
        table,
        args.k,
        args.d,
        override=args.override_feasibility,
    )
    print(f"[table eps-star] k={args.k} d={args.d} eps*={value!r}")
    return _finish(args, _params(args, "table", "k", "d"), {"eps_star": value}, [])


def cmd_extract_check(args) -> int:
    from .extraction import enumerate_class, extraction_check
    from .oracle import load_table

    table = _read_table(args.table, "two-source", "extract check")
    cond_oracle = load_table(args.cond_oracle)
    output_oracle = load_table(args.output_oracle)
    cls = enumerate_class(cond_oracle, args.k, args.alpha)
    report = extraction_check(table, cls, output_oracle)
    print(
        f"[extract check] class={cls.size} (indeterminate {cls.indeterminate}) "
        f"max_deficiency={report.max_deficiency} min_C={report.min_output_complexity}"
    )
    params = _params(
        args, "table", "cond_oracle", "output_oracle", "k", "alpha", "require_d"
    )
    checks = []
    if args.require_d is not None:
        checks.append(
            assertion(
                f"extracts_within_d={args.require_d}",
                report.is_extractor(args.require_d),
                report.max_deficiency,
            )
        )
    return _finish(args, params, report, checks)


def cmd_extract_equiv(args) -> int:
    from .extraction import equivalence_report
    from .oracle import load_table

    table = _read_table(args.table, "two-source", "extract equiv")
    cond_oracle = load_table(args.cond_oracle)
    output_oracle = load_table(args.output_oracle)
    report = equivalence_report(
        table,
        args.k,
        args.d,
        cond_oracle,
        output_oracle,
        delta=args.delta,
        override=args.override_feasibility,
    )
    print(
        f"[extract equiv] eps*={report.eps_star!r} alpha={report.alpha} "
        f"class={report.class_size} table_max_def={report.table_report.max_deficiency} "
        f"constant_max_def={report.constant_report.max_deficiency} "
        f"separated={report.separated}"
    )
    params = _params(args, "table", "cond_oracle", "output_oracle", "k", "d", "delta")
    checks = [
        assertion("class_nonempty", report.class_size > 0, report.class_size),
        assertion("separated", report.separated),
    ]
    return _finish(args, params, report, checks)


def cmd_demo_popular(args) -> int:
    from .extraction import popular_color_demo
    from .oracle import load_table

    table = _read_table(args.table, "single-source", "demo popular")
    oracle = load_table(args.oracle)
    report = popular_color_demo(table, oracle)
    print(
        f"[demo popular] color={report.color} preimages={report.preimages} "
        f"witness_x={report.witness_x} C={report.witness_complexity} "
        f"floor={report.floor}"
    )
    checks = [
        assertion("preimage_bound_met", report.preimage_bound_met, report.preimages),
        assertion("floor_certified", report.floor_certified, report.floor),
    ]
    return _finish(args, _params(args, "table", "oracle"), report, checks)


def cmd_demo_curse(args) -> int:
    from .extraction import popular_prefix_demo
    from .oracle import load_table

    table = _read_table(args.table, "two-source", "demo curse")
    pair_oracle = load_table(args.pair_oracle)
    output_oracle = load_table(args.output_oracle) if args.output_oracle else None
    report = popular_prefix_demo(table, args.alpha, pair_oracle, output_oracle)
    print(
        f"[demo curse] prefix={report.prefix} cells={report.pair_count} "
        f"witness={report.witness} C={report.witness_complexity} "
        f"floor={report.floor} deficiency={report.output_deficiency}"
    )
    params = _params(args, "table", "alpha", "pair_oracle", "output_oracle")
    checks = [
        assertion("pair_bound_met", report.pair_bound_met, report.pair_count),
        assertion("floor_certified", report.floor_certified, report.floor),
    ]
    return _finish(args, params, report, checks)


def cmd_demo_vv(args) -> int:
    from .extraction import popular_range_procedure
    from .oracle import load_table

    oracle = load_table(args.oracle)
    if args.m is not None and oracle.n != args.m:
        raise ValueError(f"oracle targets {oracle.n}-bit strings, not m={args.m}")
    report = popular_range_procedure(oracle, args.advice)
    if args.n is not None and report.n != args.n:
        raise ValueError(f"oracle conditions are {report.n}-bit, not n={args.n}")
    print(
        f"[demo vv] chosen={list(report.chosen)} case={report.case} "
        f"witnesses={report.witness_count} bound_met={report.count_bound_met}"
    )
    checks = [
        assertion("count_bound_met", report.count_bound_met, report.witness_count),
        assertion("ranges_match", report.ranges_match),
    ]
    return _finish(args, _params(args, "oracle", "advice", "n", "m"), report, checks)


def cmd_exp_dep_census(args) -> int:
    from .experiments import dependent_census_sweep, write_census_csv
    from .oracle import load_table

    oracle = load_table(args.oracle)
    report = dependent_census_sweep(oracle, args.alpha, committed_max_c=args.max_c)
    print(
        f"[exp dep-census] alpha={args.alpha} max_c={report.max_fitted_c!r} "
        f"sizes={report.size_histogram}"
    )
    if args.csv:
        write_census_csv(report.censuses, report.n, args.csv)
        print(f"  csv -> {args.csv}")
    checks = []
    if args.max_c is not None:
        checks.append(
            assertion("within_committed_c", bool(report.within_committed), report.max_fitted_c)
        )
    data = {
        "n": report.n,
        "alpha": report.alpha,
        "max_fitted_c": report.max_fitted_c,
        "size_histogram": report.size_histogram,
    }
    return _finish(args, _params(args, "oracle", "alpha", "max_c"), data, checks)


def cmd_exp_hitting(args) -> int:
    import numpy as np

    from .experiments import hitting_demo
    from .extraction import enumerate_class
    from .oracle import load_table

    table = _read_table(args.table, "two-source", "exp hitting")
    cond_oracle = load_table(args.cond_oracle)
    output_oracle = load_table(args.output_oracle)
    if (args.target_set is None) == (args.set_popular_row is None):
        raise ValueError("pass exactly one of --set / --set-popular-row")
    if args.target_set is not None:
        targets = [int(z) for z in args.target_set.split(",") if z != ""]
    else:
        row = args.set_popular_row
        if not 0 <= row < table.side:
            raise ValueError(f"--set-popular-row {row} is outside [0, {table.side})")
        # The row's most popular color, ties to the smallest.
        targets = [int(np.argmax(np.bincount(table.colors[row])))]
    cls = enumerate_class(cond_oracle, args.k, args.alpha)
    report = hitting_demo(table, cls, targets, output_oracle)
    print(
        f"[exp hitting] set={targets} applies={report.threshold_applies} "
        f"hits={len(report.hits)} consistent={report.consistent}"
    )
    params = dict(
        _params(args, "table", "cond_oracle", "output_oracle", "k", "alpha"), set=targets
    )
    checks = [assertion("consistent", report.consistent, len(report.hits))]
    return _finish(args, params, report, checks)


def cmd_pipeline_run(args) -> int:
    from .pipeline import run_pipeline

    return run_pipeline(
        config_path=args.config,
        standard=args.standard,
        out_dir=args.out_dir,
        override=args.override_feasibility,
    )


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser. Parsing leaves it unchanged, so dispatch
    builds it once per process, not once per call."""
    return build_parser()


def dispatch(argv: list[str]) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    # OSError: a user-named path that is missing, a directory or a file
    except (FeasibilityError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a bug, never a check verdict
        traceback.print_exc()
        return 3


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
