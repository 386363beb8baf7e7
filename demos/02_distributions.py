#!/usr/bin/env python3
"""Min-entropy, heavy sets, and the flattening trick.

A source with min-entropy k gives no single string more than 2^-k
mass. Extraction arguments here never need the whole shape of a
distribution, just two handles on it: which strings are "too heavy"
relative to a target entropy, and how far the distribution sits from
the nearest one that meets the target. Flattening shows the two
handles are really one: averaging the heaviest masses buys entropy at
a statistical-distance price equal to the mass that was averaged.

Masses are exact (integer weights over a shared denominator); the
values printed below are float() of those exact fractions.
"""

import math
from fractions import Fraction

import numpy as np

from kextract.distributions import (
    Distribution,
    FlatSource,
    dist_from_json,
    dist_to_json,
    dist_to_min_entropy,
    flatten_top,
    heavy_set,
    min_entropy,
    push_forward,
    statistical_distance,
)
from kextract.tables import gen_inner_product


def main() -> None:
    print("== min-entropy is about the single heaviest string")
    d = Distribution(2, (4, 2, 1, 1))
    print(f"  mass {masses(d)}")
    print(f"  min_entropy = {min_entropy(d)}  (top mass 0.5 = 2^-1)")

    print("\n== distance to the entropy-k ball")
    # Clipping every mass to the 2^-k cap and re-spreading the excess is
    # the cheapest repair, so the distance is just the total overshoot.
    for k in (0, 1, 2):
        print(f"  k={k}: eps_k = {float(dist_to_min_entropy(d, k))}")

    print("\n== heavy sets")
    # Strings with mass above t * 2^-k. Their combined mass is at most
    # 1/t once you pay the eps_k it costs to reach the ball.
    for t in (1.0, 1.5, 2.0):
        hs = sorted(heavy_set(d, 2, t))
        hs_mass = Fraction(sum(d.weights[a] for a in hs), d.total)
        bound = 1 / Fraction(t) + dist_to_min_entropy(d, 2)
        print(f"  t={t}: heavy = {hs}, mass {float(hs_mass):.3f} <= {float(bound):.3f}")

    print("\n== flattening the top masses")
    rng = np.random.default_rng(7)
    d6 = Distribution.from_masses(6, rng.dirichlet(np.ones(64)))
    for top_k in (4, 16, 64):
        eps = Fraction(sum(sorted(d6.weights, reverse=True)[:top_k]), d6.total)
        flat, h = flatten_top(d6, top_k)
        sd = statistical_distance(d6, flat)
        print(
            f"  top_k={top_k:2d}: moved {float(sd):.4f} <= {float(eps):.4f},"
            f" min_entropy {min_entropy(d6):.3f} -> {h:.3f}"
            f" (>= log2(k/eps) = {math.log2(top_k / eps):.3f})"
        )

    print("\n== pushing flat sources through a table")
    # Independent uniform picks from two support sets; the output mass
    # of a color is its census inside the support rectangle.
    x = FlatSource(4, (0, 3, 5, 9))
    y = FlatSource(4, (1, 2, 4, 8))
    out = push_forward(gen_inner_product(4), x, y)
    print(f"  IP4 on 4x4 supports: output mass {masses(out)}")
    full = FlatSource(4, tuple(range(16)))
    out = push_forward(gen_inner_product(4), full, full)
    print(f"  IP4 on full supports: output mass {masses(out)}")

    print("\n== JSON round-trip")
    doc = dist_to_json(d)
    back = dist_from_json(doc)
    print(f"  doc = {doc}")
    print(f"  distance(original, decoded) = {float(statistical_distance(d, back))}")


def masses(d: Distribution) -> list[float]:
    return [w / d.total for w in d.weights]


if __name__ == "__main__":
    main()
