#!/usr/bin/env python3
"""Extraction floors: popular colors, popular prefixes, and ranges.

Each argument here has the same shape. Pigeonhole produces a popular
output (a color, a prefix, a range element) with many preimages; a
short description of the table plus the output's index inside the
popular set then pins the complexity of some witness input from below.
The punchline is the prefix demo: conditioning on the pair oracle costs
an alpha that the output's own complexity does not pay back, so the
floor certifies a deficiency. Run with --separation to reproduce the
seed-740 random-vs-constant split as well (about 2 s on a 2-core host;
its m=6 eps* has t = 1, so it runs on one bit plane, a distinct-color
count).

Every oracle below is built live, so this script has no stored numbers
to go stale.
"""

import argparse
import warnings

from kextract.bits import EMPTY, BitString, all_strings
from kextract.extraction import (
    compute_range,
    equivalence_report,
    popular_color_demo,
    popular_prefix_demo,
    popular_range_procedure,
)
from kextract.oracle import build_complexity_table
from kextract.tables import gen_random, gen_truncate


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
    ap.add_argument(
        "--separation",
        action="store_true",
        help="also run the seed-740 separation experiment",
    )
    args = ap.parse_args()

    print("== a popular color has a complex preimage")
    oracle4 = build_complexity_table(4, [EMPTY], l_max=10)
    rep = popular_color_demo(gen_truncate(4, 2), oracle4)
    print(f"  truncation 4 -> 2: color {rep.color} has {rep.preimages} preimages")
    print(
        f"  witness x={rep.witness_x}: C = {rep.witness_complexity}"
        f" >= floor {rep.floor} = n - m, certified = {rep.floor_certified}"
    )

    print("\n== the curse of conditioning, in one prefix")
    pair_oracle = build_complexity_table(8, [EMPTY], l_max=16)
    out_oracle = build_complexity_table(2, [EMPTY], l_max=4)
    rep = popular_prefix_demo(gen_random(4, 2, 1), 1, pair_oracle, out_oracle)
    print(f"  popular 1-bit output prefix {rep.prefix}: {rep.pair_count} table cells")
    print(
        f"  witness pair {rep.witness}: C(x1 x2) = {rep.witness_complexity}"
        f" >= floor {rep.floor} = 2n - alpha, certified = {rep.floor_certified}"
    )
    print(
        f"  but C(output) - m = {rep.output_deficiency}: the pair floor"
        " says nothing about the output being incompressible"
    )

    print("\n== recovering an adversary's range")
    # C(z|x) = 4 for every 2-bit z given any 4-bit x (two EMITs), so the
    # range {z : C(z|x) <= k_adv} jumps from empty to everything at 4.
    cond_oracle = build_complexity_table(2, [EMPTY] + all_strings(4), l_max=6)
    x = BitString(4, 5)
    for k_adv in (1, 4, 5):
        print(f"  k_adv={k_adv}: range(x=0101) = {sorted(compute_range(cond_oracle, x, k_adv))}")
    for k_adv in (1, 5):
        rep = popular_range_procedure(cond_oracle, k_adv)
        print(
            f"  procedure at k_adv={k_adv}: {rep.case},"
            f" chose {rep.chosen}, {rep.witness_count} witnesses,"
            f" bound met = {rep.count_bound_met}"
        )

    print("\n== equivalence check at toy size")
    cond2 = build_complexity_table(2, [EMPTY] + all_strings(2), l_max=6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 1-bit outputs need l_max < 2n
        out1 = build_complexity_table(1, [EMPTY], l_max=4)
    eq = equivalence_report(gen_random(2, 1, 3), 1, 0, cond2, out1)
    print(f"  n=2 random table: eps* = {eq.eps_star} -> alpha = {eq.alpha}")
    print(
        f"  max deficiency {eq.table_report.max_deficiency} vs constant"
        f" {eq.constant_report.max_deficiency}: separated = {eq.separated}"
    )
    print("  (2-bit strings are all equally simple; no room to separate)")

    if args.separation:
        print("\n== seed-740 separation at n=4, m=6 (exhaustive)")
        table = gen_random(4, 6, 740)
        cond4 = build_complexity_table(4, [EMPTY] + all_strings(4), l_max=10)
        out6 = build_complexity_table(6, [EMPTY], l_max=12)
        eq = equivalence_report(table, 3, 0, cond4, out6)
        print(f"  eps* = {eq.eps_star} -> alpha = {eq.alpha}")
        print(
            f"  max deficiency {eq.table_report.max_deficiency} vs constant"
            f" {eq.constant_report.max_deficiency}: separated = {eq.separated}"
        )
    else:
        print("\n(skipping the separation run; pass --separation to see it)")


if __name__ == "__main__":
    main()
