"""The benchmark's oracles against the pointwise grid oracle and plain sums."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from helpers import circ_dist, grid_measure, in_arc, rand_grid_arcs

import oracles as O


def member(segs, x):
    return any(lo <= x < hi for lo, hi in segs)


@pytest.mark.parametrize("seed", range(40))
def test_sweep_agrees_with_grid_oracle(seed):
    rng = random.Random(seed)
    denom = rng.choice([6, 8, 12, 24, 30])
    arcs = rand_grid_arcs(rng, denom, max_arcs=6)
    segs = O.arcs_segments(arcs)
    in_set = lambda x: any(in_arc(x, s, l) for s, l in arcs)  # noqa: E731
    assert O.measure(segs) == grid_measure(in_set, denom)
    # canonical: sorted, disjoint, non-touching, inside [0, 1]
    assert all(0 <= lo < hi <= 1 for lo, hi in segs)
    assert all(a[1] < b[0] for a, b in zip(segs, segs[1:]))
    for j in range(denom):
        x = Fraction(2 * j + 1, 2 * denom)
        assert member(segs, x) == in_set(x)


@pytest.mark.parametrize("seed", range(20))
def test_boolean_oracles_agree_with_grid_oracle(seed):
    rng = random.Random(1000 + seed)
    denom = 24
    a_arcs, b_arcs = rand_grid_arcs(rng, denom), rand_grid_arcs(rng, denom)
    a, b = O.arcs_segments(a_arcs), O.arcs_segments(b_arcs)
    in_a = lambda x: any(in_arc(x, s, l) for s, l in a_arcs)  # noqa: E731
    in_b = lambda x: any(in_arc(x, s, l) for s, l in b_arcs)  # noqa: E731
    assert O.measure(O.intersect(a, b)) == grid_measure(lambda x: in_a(x) and in_b(x), denom)
    assert O.measure(O.difference(a, b)) == grid_measure(lambda x: in_a(x) and not in_b(x), denom)
    assert O.measure(O.complement(a)) == grid_measure(lambda x: not in_a(x), denom)
    starts = [lo for lo, _ in a]
    for j in range(denom):
        x = Fraction(2 * j + 1, 2 * denom)
        assert (bool(a) and O.contains(a, starts, x)) == in_a(x)


@pytest.mark.parametrize(
    "n_max,pred,c,a",
    [(6, O.Pred("all"), Fraction(1, 3), 1), (5, O.Pred("ndvd", 2), Fraction(1, 2), 1),
     (6, O.Pred("or", 0, O.Pred("sq", 2), O.Pred("exact", 3)), Fraction(1, 4), 1),
     (4, O.Pred("all"), Fraction(1), 3), (4, O.Pred("all"), Fraction(2), 1)],
)
def test_tail_union_sweep_agrees_with_grid_oracle(n_max, pred, c, a):
    delta = O.PowerDelta(c, a)
    segs = O.tail_union_segments(2, n_max, pred, delta)
    # every endpoint m/n +- delta_n lies on the grid of this denominator
    denom = 1
    for n in range(2, n_max + 1):
        denom = lcm(denom, n * delta(n).denominator)

    def in_union(x):
        return any(
            circ_dist(x, Fraction(m, n)) < delta(n)
            for n in range(2, n_max + 1) if pred(n)
            for m in range(n) if gcd(m, n) == 1
        )

    assert O.measure(segs) == grid_measure(in_union, denom)


def test_tail_union_sweep_matches_library():
    from circlelab import All, NotDiv, Power, TailUnionSpec, tail_union

    for n_max, pred, lib_pred, c, a in [
        (60, O.Pred("all"), All(), Fraction(1), 3),
        (80, O.Pred("ndvd", 2), NotDiv(2), Fraction(1, 4), 2),
    ]:
        got = tail_union(TailUnionSpec(2, n_max, lib_pred, Power(c, a))).segments
        assert tuple(O.tail_union_segments(2, n_max, pred, O.PowerDelta(c, a))) == got


def test_full_and_empty_thickenings():
    assert O.raw_arcs(3, Fraction(1, 2)) == [(0, 1, 1)]
    assert O.raw_arcs(3, Fraction(0)) == []
    assert O.sweep([]) == []


@pytest.mark.parametrize("c,a", [(Fraction(1), 1), (Fraction(7, 3), 2), (Fraction(1, 10), 3)])
def test_weighted_totient_sums(c, a):
    phi = [0] + [int(sympy.totient(n)) for n in range(1, 65)]
    cutoffs = [2, 4, 8, 16, 32, 64]
    expected = [sum((phi[n] * c / n**a for n in range(1, k + 1)), Fraction(0)) for k in cutoffs]
    assert O.weighted_totient_sums(phi, c, a, 1, cutoffs) == expected
    tail = sum((phi[n] * c / n**a for n in range(5, 65)), Fraction(0))
    assert O.weighted_totient_sums(phi, c, a, 5, [64]) == [tail]


@pytest.mark.parametrize("seed", range(10))
def test_witness_scan_agrees_with_library(seed):
    from circlelab import CirclePoint, Power, membership_witnesses

    rng = random.Random(seed)
    q = rng.randint(2, 500)
    x = Fraction(rng.randrange(q), q)
    c, a = rng.choice([Fraction(1), Fraction(1, 2), Fraction(2)]), rng.choice([1, 2])
    n_max = 40
    assert O.witnesses(x, O.PowerDelta(c, a), n_max) == membership_witnesses(CirclePoint(x), Power(c, a), n_max)
