import json
import math
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest

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
from kextract.tables import gen_constant, gen_inner_product

NAN = float("nan")
INF = float("inf")


def random_distribution(rng: np.random.Generator, n: int) -> Distribution:
    return Distribution.from_masses(n, rng.dirichlet(np.ones(1 << n)))


def masses(d: Distribution) -> list[Fraction]:
    return [Fraction(w, d.total) for w in d.weights]


def mass_of(d: Distribution, values) -> Fraction:
    return Fraction(sum(d.weights[a] for a in values), d.total)


# ----------------------------------------------------------- invariants


def test_distribution_validation():
    d = Distribution(1, [7, 2])  # any positive total is the denominator
    assert (d.weights, d.total) == ((7, 2), 9)
    for n, weights in [
        (1, (0.7, 0.3)),  # floats are not weights: Distribution.from_masses takes them
        (1, (3, -1)),
        (2, (1, 1)),
        (1, (0, 0)),
        (1, (True, False)),
        (1, np.array([1, 1])),  # numpy ints could wrap
        (1, ("1", "1")),
    ]:
        with pytest.raises(ValueError, match="weights"):
            Distribution(n, weights)


def test_nan_masses_are_refused():
    with pytest.raises(ValueError, match="weights"):
        Distribution(1, np.array([NAN, NAN]))
    with pytest.raises(ValueError, match="masses entry"):
        Distribution.from_masses(1, np.array([NAN, NAN]))
    with pytest.raises(ValueError, match="weights"):
        dist_from_json({"n": 1, "total": 2, "weights": [NAN, NAN]})


@pytest.mark.parametrize("n", [-1, 17, 40, 1.5, True, "2"])
def test_size_rule_is_checked_before_allocating(n):
    """0 <= n <= 16: n=40 would be 2^40 weights, n=-1 a negative shift."""
    for make in (
        lambda: Distribution.uniform(n),
        lambda: Distribution.point(n, 0),
        lambda: Distribution(n, (1,)),
        lambda: FlatSource(n, (0,)),
    ):
        with pytest.raises(ValueError, match="n must be an integer in \\[0, 16\\]"):
            make()


def test_largest_size_is_allowed():
    assert Distribution.uniform(16).total == 1 << 16
    assert Distribution.point(16, (1 << 16) - 1).weights[-1] == 1


def test_distribution_is_read_only():
    src = [1, 1]
    d = Distribution(1, src)
    src[0] = 9  # the constructor must have copied
    assert d.weights == (1, 1)
    with pytest.raises(FrozenInstanceError):
        d.total = 3


def test_from_masses_is_exact():
    assert Distribution.from_masses(2, [0.5, 0.25, 0.125, 0.125]) == Distribution(2, (4, 2, 1, 1))
    assert Distribution.from_masses(1, [Fraction(1, 3), Fraction(2, 3)]).weights == (1, 2)
    d = Distribution.from_masses(1, [0.1, 0.9])  # the floats, not 1/10 and 9/10
    assert masses(d)[0] == Fraction(0.1) / (Fraction(0.1) + Fraction(0.9))
    for bad in ([INF, 1.0], [-INF, 1.0], ["0.5", "0.5"], [None, 1]):
        with pytest.raises(ValueError, match="masses entry"):
            Distribution.from_masses(1, bad)
    with pytest.raises(ValueError, match="weights"):
        Distribution.from_masses(1, [1.5, -0.5])


def test_flat_source():
    f = FlatSource(2, (3, 1, 3))
    assert f.support == (1, 3)
    assert f.size == 2
    d = f.to_distribution()
    assert (d.weights, d.total) == ((0, 1, 0, 1), 2)
    for support in [(), (4,), (-1,), (1.0,)]:
        with pytest.raises(ValueError):
            FlatSource(2, support)
    assert Distribution.point(3, 5).weights == (0, 0, 0, 0, 0, 1, 0, 0)
    with pytest.raises(ValueError):
        Distribution.point(3, 8)


# ---------------------------------------------------------- min-entropy


def test_min_entropy_fixtures():
    assert min_entropy(Distribution.uniform(2)) == 2.0
    assert min_entropy(Distribution.point(3, 5)) == 0.0
    assert min_entropy(Distribution(2, (4, 2, 1, 1))) == 1.0
    assert min_entropy(FlatSource(2, (0, 1, 2)).to_distribution()) == math.log2(3)


# ------------------------------------------------------------- distance


def test_distance_fixtures():
    u1 = Distribution.uniform(1)
    assert statistical_distance(u1, u1) == 0
    assert statistical_distance(Distribution.point(1, 0), u1) == Fraction(1, 2)
    assert statistical_distance(Distribution(1, (1, 0)), Distribution(1, (0, 1))) == 1
    assert statistical_distance(Distribution(1, (1, 1)), Distribution(1, (5, 5))) == 0
    with pytest.raises(ValueError):
        statistical_distance(u1, Distribution.uniform(2))


def test_distance_is_a_metric():
    """Exact: symmetric, zero on the diagonal, the triangle inequality
    with no slack, and half the L1 distance equals either overshoot."""
    rng = np.random.default_rng(8)
    for _ in range(200):
        a, b, c = (random_distribution(rng, 3) for _ in range(3))
        ab = statistical_distance(a, b)
        assert ab == statistical_distance(b, a)
        assert ab <= statistical_distance(a, c) + statistical_distance(c, b)
        assert statistical_distance(a, a) == 0
        pa, pb = masses(a), masses(b)
        assert ab == sum(abs(p - q) for p, q in zip(pa, pb)) / 2
        assert ab == sum(max(p - q, 0) for p, q in zip(pa, pb))
        assert ab == sum(max(q - p, 0) for p, q in zip(pa, pb))


# ------------------------------------------------------------ heavy set


def test_heavy_set_fixtures():
    assert heavy_set(Distribution.uniform(2), 2, 2.0) == set()
    assert heavy_set(Distribution.point(2, 0), 2, 2.0) == {0}
    d = random_distribution(np.random.default_rng(9), 3)
    assert heavy_set(d, 3, 1 << 3) == set()  # threshold is 1


def test_heavy_set_is_strict():
    d = Distribution(1, (1, 1))
    assert heavy_set(d, 1, 1.0) == set()  # mass == t*2^-k does not count


def test_heavy_set_takes_a_float_t_exactly():
    p = Fraction(0.1)  # a little above 1/10
    d = Distribution(1, (p.numerator, p.denominator - p.numerator))
    assert heavy_set(d, 0, 0.1) == {1}  # value 0 has mass exactly 0.1
    assert heavy_set(d, 0, Fraction(1, 10)) == {0, 1}


def test_heavy_set_validates_its_arguments():
    d = Distribution.uniform(2)
    for t in (0, 0.0, -1, NAN, INF, -INF, "2", None):
        with pytest.raises(ValueError, match="t must be"):
            heavy_set(d, 1, t)
    for k in (-1, 3, 1.5, "1", True):
        with pytest.raises(ValueError, match="k must be"):
            heavy_set(d, k, 1)


def test_heavy_mass_bound():
    """Lemma part 1: mass(HEAVY_{k,t}) <= 1/t + dist_to_min_entropy(d,k)."""
    rng = np.random.default_rng(10)
    for _ in range(500):
        n = int(rng.integers(1, 7))
        d = random_distribution(rng, n)
        k = int(rng.integers(0, n + 1))
        eps = dist_to_min_entropy(d, k)
        for t in (1.0, 1.5, 2.0, 4.0):
            assert mass_of(d, heavy_set(d, k, t)) <= 1 / Fraction(t) + eps


# ----------------------------------------------------------- flatten_top


def test_flatten_preserves_mass_and_support_order():
    d = Distribution(2, (4, 3, 2, 1))
    flat, ell = flatten_top(d, 2)
    avg = Fraction(4 + 3, 2 * 10)
    assert masses(flat) == [avg, avg, Fraction(2, 10), Fraction(1, 10)]
    assert ell == min_entropy(flat) == math.log2(20 / 7)
    for top_k in (0, 5, 1.5):
        with pytest.raises(ValueError, match="top_k"):
            flatten_top(d, top_k)


def test_flatten_breaks_ties_toward_smaller_values():
    d = Distribution.uniform(2)
    flat, _ = flatten_top(d, 1)
    assert masses(flat) == masses(d)
    d = Distribution(2, (2, 3, 3, 2))
    flat, _ = flatten_top(d, 3)
    # the three heaviest are values 1, 2, then tie 0-vs-3 -> 0
    assert masses(flat) == [Fraction(8, 30)] * 3 + [Fraction(2, 10)]


def test_flatten_is_idempotent_on_its_output():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = random_distribution(rng, 3)
        k = int(rng.integers(1, 9))
        flat, _ = flatten_top(d, k)
        again, _ = flatten_top(flat, k)
        assert masses(again) == masses(flat)


def test_flatten_conclusion():
    """Lemma part 2: top-K mass eps gives distance <= eps and
    min-entropy >= log2(K/eps), that is, top mass <= eps / K."""
    rng = np.random.default_rng(12)
    for _ in range(500):
        n = int(rng.integers(1, 7))
        d = random_distribution(rng, n)
        top_k = int(rng.integers(1, (1 << n) + 1))
        eps = mass_of(d, sorted(range(1 << n), key=lambda a: -d.weights[a])[:top_k])
        flat, _ = flatten_top(d, top_k)
        assert statistical_distance(d, flat) <= eps
        assert max(masses(flat)) == eps / top_k


# --------------------------------------------------- dist_to_min_entropy


def test_dist_to_min_entropy_fixtures():
    assert dist_to_min_entropy(Distribution.uniform(3), 3) == 0
    assert dist_to_min_entropy(Distribution.point(1, 0), 1) == Fraction(1, 2)
    d = Distribution(2, (2, 1, 1, 0))
    assert dist_to_min_entropy(d, 2) == Fraction(1, 4)
    for k in (3, -1, 1.5, "1", None):
        with pytest.raises(ValueError, match="k must be"):
            dist_to_min_entropy(d, k)


def test_dist_to_min_entropy_zero_iff_entropy_met():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        d = random_distribution(rng, n)
        k = int(rng.integers(0, n + 1))
        met = max(masses(d)) <= Fraction(1, 1 << k)
        assert (dist_to_min_entropy(d, k) == 0) == met


def test_dist_to_min_entropy_against_grid_search():
    """n=1 brute force: scan all distributions on a 1/64 grid whose
    min-entropy clears k=1, take the closest."""
    grid = [Distribution(1, (a, 64 - a)) for a in range(65)]
    candidates = [c for c in grid if max(c.weights) <= 32]
    for d in grid:
        # the grid contains the exact optimum here, so they agree
        assert dist_to_min_entropy(d, 1) == min(statistical_distance(d, c) for c in candidates)


def test_dist_to_min_entropy_is_achievable():
    """The clip formula is witnessed: some distribution at min-entropy k
    sits exactly at that distance."""
    rng = np.random.default_rng(14)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        d = random_distribution(rng, n)
        k = int(rng.integers(0, n + 1))
        cap = Fraction(1, 1 << k)
        eps = dist_to_min_entropy(d, k)
        clipped = [min(p, cap) for p in masses(d)]
        slack = [cap - p for p in clipped]
        total = sum(slack)
        witness = [p + s * eps / total for p, s in zip(clipped, slack)] if total else clipped
        w = Distribution.from_masses(n, witness)
        assert masses(w) == witness
        assert dist_to_min_entropy(w, k) == 0
        assert statistical_distance(d, w) == eps


# ----------------------------------------------------------- push-forward


def test_push_forward_constant_table():
    x = FlatSource(2, (0, 1, 2, 3))
    d = push_forward(gen_constant(2, 2, 3), x, x)
    assert (d.weights, d.total) == ((0, 0, 0, 16), 16)


def test_push_forward_inner_product_fixture():
    s = FlatSource(2, (1, 2))
    d = push_forward(gen_inner_product(2), s, s)
    assert (d.weights, d.total) == ((2, 2), 4)


def test_push_forward_full_support_counts():
    t = gen_inner_product(2)
    full = FlatSource(2, tuple(range(4)))
    d = push_forward(t, full, full)
    ones = int(t.colors.sum())
    assert d.weights == (16 - ones, ones)
    assert d.total == 16


def test_push_forward_dimension_check():
    t = gen_inner_product(2)
    with pytest.raises(ValueError):
        push_forward(t, FlatSource(3, (0,)), FlatSource(2, (0,)))


# ------------------------------------------------------------------ json


def test_json_round_trip_is_exact():
    rng = np.random.default_rng(15)
    for _ in range(20):
        d = random_distribution(rng, 4)
        doc = json.loads(json.dumps(dist_to_json(d)))
        assert all(type(w) is int for w in doc["weights"])
        assert dist_from_json(doc) == d  # the same integers, not just close


@pytest.mark.parametrize("doc, field", [
    ([1, 1], "n"),
    ({"n": 1, "mass": ["nan", "nan"]}, "total"),
    ({"total": 2, "weights": [1, 1]}, "n"),
    ({"n": 1, "total": 2}, "weights"),
    ({"n": "1", "total": 2, "weights": [1, 1]}, "n"),
    ({"n": True, "total": 2, "weights": [1, 1]}, "n"),
    ({"n": 17, "total": 2, "weights": [1, 1]}, "n"),
    ({"n": 1, "total": "2", "weights": [1, 1]}, "total"),
    ({"n": 1, "total": 3, "weights": [1, 1]}, "total"),
    ({"n": 1, "total": 2, "weights": 5}, "weights"),
    ({"n": 1, "total": 2, "weights": "11"}, "weights"),
    ({"n": 1, "total": 2, "weights": [1.0, 1.0]}, "weights"),
    ({"n": 1, "total": 2, "weights": ["1", "1"]}, "weights"),
    ({"n": 2, "total": 2, "weights": [1, 1]}, "weights"),
    ({"n": 1, "total": 0, "weights": [0, 0]}, "weights"),
    ({"n": 1, "total": 2, "weights": [3, -1]}, "weights"),
    (json.loads('{"n": 1, "total": 2, "weights": [NaN, NaN]}'), "weights"),
])
def test_malformed_json_is_a_value_error_naming_the_field(doc, field):
    with pytest.raises(ValueError, match=field):
        dist_from_json(doc)
