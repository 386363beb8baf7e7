"""Flat-source distributions over n-bit strings, in exact integers.

Integer weights over one shared denominator make every mass, distance
and comparison exact; min_entropy alone is a float, -log2 of an exact
mass. Sizes are tiny (0 <= n <= 16), so every formula is exhaustive.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


def _integer(name: str, v, lo: int, hi: int) -> int:
    """v as an int in [lo, hi], else a ValueError that names it."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) or not lo <= v <= hi:
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}], not {v!r}")
    return int(v)


def _rational(name: str, v) -> Fraction:
    """v exactly (a float is dyadic), else a ValueError that names it."""
    if isinstance(v, float) and math.isfinite(v) or isinstance(v, numbers.Rational):
        return Fraction(v)
    raise ValueError(f"{name} must be a finite rational, not {v!r}")


@dataclass(frozen=True)
class Distribution:
    """Mass weights[a] / total on each n-bit string a; total is the sum of
    the weights, Python ints so that no arithmetic on them wraps."""

    n: int
    weights: tuple[int, ...]
    total: int = field(init=False)

    def __post_init__(self) -> None:
        size = 1 << _integer("n", self.n, 0, 16)
        w = tuple(self.weights)
        if len(w) != size or not all(type(v) is int and v >= 0 for v in w) or not any(w):
            raise ValueError(f"weights must be {size} nonnegative ints with a positive sum")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "total", sum(w))

    @classmethod
    def from_masses(cls, n: int, masses) -> "Distribution":
        """The distribution proportional to masses, each taken exactly."""
        exact = [_rational("masses entry", v) for v in masses]
        den = math.lcm(*(f.denominator for f in exact))
        return cls(n, [f.numerator * (den // f.denominator) for f in exact])

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        return cls(n, (1,) * (1 << _integer("n", n, 0, 16)))

    @classmethod
    def point(cls, n: int, a: int) -> "Distribution":
        return FlatSource(n, (a,)).to_distribution()


@dataclass(frozen=True)
class FlatSource:
    """Uniform distribution on an explicit support set."""

    n: int
    support: tuple[int, ...]

    def __post_init__(self) -> None:
        top = (1 << _integer("n", self.n, 0, 16)) - 1
        sup = tuple(sorted({_integer("support value", v, 0, top) for v in self.support}))
        if not sup:
            raise ValueError("flat source needs a nonempty support")
        object.__setattr__(self, "support", sup)

    @property
    def size(self) -> int:
        return len(self.support)

    def to_distribution(self) -> Distribution:
        return Distribution(self.n, np.bincount(self.support, minlength=1 << self.n).tolist())


def min_entropy(d: Distribution) -> float:
    """-log2 of the largest point mass."""
    return math.log2(d.total / max(d.weights))


def statistical_distance(a: Distribution, b: Distribution) -> Fraction:
    """Half the L1 distance between the mass vectors."""
    if a.n != b.n:
        raise ValueError("distributions live on different lengths")
    l1 = sum(abs(x * b.total - y * a.total) for x, y in zip(a.weights, b.weights))
    return Fraction(l1, 2 * a.total * b.total)


def heavy_set(d: Distribution, k: int, t) -> set[int]:
    """Values whose mass strictly exceeds t * 2^-k (0 <= k <= n, t > 0)."""
    k, t = _integer("k", k, 0, d.n), _rational("t", t)
    if t <= 0:
        raise ValueError(f"t must be positive, not {t}")
    return {a for a, w in enumerate(d.weights) if (w * t.denominator) << k > t.numerator * d.total}


def flatten_top(d: Distribution, top_k: int) -> tuple[Distribution, float]:
    """Average the top_k heaviest masses in place, ties toward smaller values.

    Weights are scaled by top_k to keep the average an integer. Returns the
    flattened distribution and its min-entropy, -log2(top mass sum / top_k).
    """
    top_k = _integer("top_k", top_k, 1, 1 << d.n)
    top = set(sorted(range(1 << d.n), key=lambda a: (-d.weights[a], a))[:top_k])
    top_sum = sum(d.weights[a] for a in top)
    flat = Distribution(d.n, [top_sum if a in top else w * top_k for a, w in enumerate(d.weights)])
    return flat, min_entropy(flat)


def dist_to_min_entropy(d: Distribution, k: int) -> Fraction:
    """Exact statistical distance from d to the min-entropy-k ball, 0 <= k <= n:
    the nearest distribution clips each mass to 2^-k and spreads the excess
    under the cap, so the distance is the overshoot sum_a max(mass(a) - 2^-k, 0)."""
    k = _integer("k", k, 0, d.n)
    return Fraction(sum(max((w << k) - d.total, 0) for w in d.weights), d.total << k)


def dist_to_json(d: Distribution) -> dict:
    """{n, total, weights}: exact integers, so fixture files never drift."""
    return {"n": d.n, "total": d.total, "weights": list(d.weights)}


def dist_from_json(doc: dict) -> Distribution:
    """Inverse of dist_to_json; a malformed document is a ValueError."""
    for name, kind in (("n", int), ("total", int), ("weights", list)):
        if not isinstance(doc, dict) or not isinstance(doc.get(name), kind):
            raise ValueError(f"field {name!r} must be a JSON {kind.__name__}")
    d = Distribution(doc["n"], doc["weights"])
    _integer("total", doc["total"], d.total, d.total)
    return d


def push_forward(table, x: FlatSource, y: FlatSource) -> Distribution:
    """Output distribution of a two-source table on independent flat sources:
    each color weighs its census in the support rectangle (of 4^k cells for
    2^k-supports), as every cell of it is equally likely."""
    if x.n != table.n or y.n != table.n:
        raise ValueError("flat source length does not match the table")
    grid = table.colors[np.ix_(x.support, y.support)]
    return Distribution(table.m, np.bincount(grid.ravel(), minlength=1 << table.m).tolist())
