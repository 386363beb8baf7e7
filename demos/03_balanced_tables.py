#!/usr/bin/env python3
"""Almost-balance and rainbow balance, measured exhaustively.

A two-source table is useful when no small rectangle of inputs can
force a skewed output. The almost-balance sweep checks every 2^k x 2^k
rectangle against a color-mass bound; eps* inverts the question and
reports the best bound the table actually achieves. Rainbow balance is
the stricter per-tuple variant the extraction arguments lean on. All
three are exhaustive integer counts, which is why the sweeps guard
themselves with an op estimate instead of quietly running for a week.
"""

from kextract.balance import (
    FeasibilityError,
    balance_check_almost,
    measure_eps_star,
    rainbow_check,
    search_rainbow,
)
from kextract.tables import gen_inner_product, gen_random


def main() -> None:
    ip4 = gen_inner_product(4)

    print("== almost balance of the inner-product table (takes a few seconds)")
    rep = balance_check_almost(ip4, k=3, d=0, eps=0.25, u_size=1)
    print(f"  rectangles checked: {rep.rectangle_pairs}")
    print(
        f"  worst rectangle: {rep.worst_cells}/64 cells of one color"
        f" = {rep.worst_fraction}"
    )
    print(f"  bound 1/2 + eps = {rep.bound}, passed = {rep.passed}")
    print(f"  witness rows {rep.worst_rectangle.rows} cols {rep.worst_rectangle.cols}")

    print("\n== eps* is the tightest eps the table supports")
    star = measure_eps_star(ip4, k=3, d=0)
    print(f"  eps*(k=3, d=0) = {star}  (so eps=0.25 above had slack)")

    print("\n== rainbow balance of a random table")
    rnd4 = gen_random(4, 4, 1)
    for divisor in (2, 4):
        rep = rainbow_check(rnd4, rect_side=4, divisor=divisor)
        worst = max(rep.per_column.worst_cells, rep.per_row.worst_cells)
        # Verdict is the integer compare worst * divisor <= 2 * K^2.
        print(
            f"  color sets of 16/{divisor}={rep.set_size}:"
            f" worst {worst} cells x {divisor} = {worst * divisor}"
            f" vs 2K^2 = 32, passed = {rep.passed}"
        )

    print("\n== searching for a rainbow-balanced table")
    res = search_rainbow(4, 2, rect_side=8, divisor=2, seed=1, max_trials=4)
    print(f"  found = {res.found} after {res.trials} trial(s), seed {res.seed}")
    assert res.report is not None
    print(
        f"  verdict: worst {res.report.per_column.worst_cells} cells"
        f" vs 2K^2/divisor = {2 * 8 * 8 // 2}"
    )

    print("\n== the sweeps refuse infeasible work")
    try:
        balance_check_almost(gen_random(5, 2, 1), k=4, d=0, eps=0.25, u_size=1)
    except FeasibilityError as e:
        print(f"  FeasibilityError: {e}")


if __name__ == "__main__":
    main()
