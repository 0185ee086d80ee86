"""The integer affine-map kernels against the Fraction arithmetic they replaced.

translate, mul_image and preimage write integer pieces over one
denominator per segment, and CirclePoint's group operations work on
integer numerators over b*d; each must give exactly the set or point that
Fraction arithmetic gives (the oracles in helpers.py).
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from circlelab import AffineCircleMap, ArcSet, CirclePoint, arc, circle_point, invariant_set_search
from helpers import (
    add_by_fraction,
    invariant_sets_brute_force,
    mul_image_by_fraction,
    neg_by_fraction,
    preimage_by_fraction,
    rmul_by_fraction,
    sub_by_fraction,
    translate_by_fraction,
)

BIG = (2**64 + 13, 2**61 - 1, 3 * 2**70, 10**30 + 57)
# small denominators share factors with one another and with the offsets' denominators
SMALL = (1, 2, 3, 4, 6, 8, 9, 10, 12, 15, 30, 36)

denominators = st.sampled_from(SMALL + BIG)


@st.composite
def fractions_below_one(draw, dens=denominators):
    d = draw(dens)
    return Fraction(draw(st.integers(min_value=0, max_value=d - 1)), d)


@st.composite
def arc_sets(draw):
    """Unions of up to four arcs: some cross the seam, some touch or overlap, some are the full circle."""
    arcs = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        start = draw(fractions_below_one())
        d = draw(denominators)
        arcs.append(arc(start, Fraction(draw(st.integers(min_value=1, max_value=d)), d)))
        if draw(st.booleans()):  # a second arc that starts where this one ends
            d = draw(denominators)
            arcs.append(arc(start + arcs[-1].length, Fraction(draw(st.integers(min_value=1, max_value=d)), d)))
    return ArcSet.from_arcs(arcs)


points = fractions_below_one().map(CirclePoint)


def _valid(s: ArcSet) -> bool:
    """Reduced Fraction endpoints with 0 <= lo < hi <= 1, sorted and not touching."""
    ends = [x for seg in s.segments for x in seg]
    return all(type(x) is Fraction for x in ends) and all(
        x < y for x, y in zip(ends, ends[1:])) and all(0 <= x <= 1 for x in ends)


@given(arc_sets(), points)
@settings(max_examples=300)
def test_translate_matches_fraction_oracle(s, a):
    image = s.translate(a)
    assert image == translate_by_fraction(s, a) and _valid(image)


@given(arc_sets(), st.integers(min_value=1, max_value=7))
@settings(max_examples=300)
def test_mul_image_matches_fraction_oracle(s, m):
    image = s.mul_image(m)
    assert image == mul_image_by_fraction(s, m) and _valid(image)


@given(arc_sets(), st.integers(min_value=1, max_value=6), points)
@settings(max_examples=300)
def test_preimage_matches_fraction_oracle(s, n, x):
    t = AffineCircleMap(n, x)
    pre = t.preimage(s)
    assert pre == preimage_by_fraction(t, s) and _valid(pre)
    assert t.is_invariant(s) == (preimage_by_fraction(t, s) == s)


def test_map_kernels_on_edge_cases():
    full, empty = ArcSet.full(), ArcSet.empty()
    wrap = ArcSet.from_arcs([arc("3/4", "1/2")])  # crosses the seam
    # pieces of a translate that touch: the two halves of a wrapped arc meet again
    halves = ArcSet.from_arcs([arc("7/8", "1/4"), arc("1/3", "1/6")])
    big = ArcSet.from_arcs([arc(Fraction(5, 2**64 + 13), Fraction(7, 3 * 2**70)),
                            arc(Fraction(2**64, 2**64 + 13), Fraction(1, 6))])
    sets = [full, empty, wrap, halves, big, ArcSet(((Fraction(1, 6), Fraction(1, 4)),))]
    offsets = [circle_point(x) for x in (0, "1/2", "1/4", "5/6", "7/12", Fraction(3, 2**64 + 13))]
    for s in sets:
        for a in offsets:
            assert s.translate(a) == translate_by_fraction(s, a)
            for n in (1, 2, 3, 5):
                t = AffineCircleMap(n, a)
                assert t.preimage(s) == preimage_by_fraction(t, s)
        for m in (1, 2, 3, 4, 12):
            assert s.mul_image(m) == mul_image_by_fraction(s, m)
    assert full.translate(circle_point("1/3")) == full == full.mul_image(5)
    assert empty.translate(circle_point("1/3")) == empty == empty.mul_image(5)
    assert AffineCircleMap(1).preimage(halves) == halves
    # m * length >= 1 for one arc gives the full circle, whatever the others do
    assert ArcSet.from_arcs([arc("0", "1/3"), arc("1/2", "1/8")]).mul_image(3) == full
    assert ArcSet.from_arcs([arc("0", "1/3")]).mul_image(2) == ArcSet.from_arcs([arc("0", "2/3")])


def test_map_kernels_match_fraction_oracle_on_seeded_sets():
    rng = random.Random(83)
    dens = SMALL + BIG
    for _ in range(300):
        arcs = []
        for _ in range(rng.randint(0, 6)):
            d1, d2 = rng.choice(dens), rng.choice(dens)
            arcs.append(arc(Fraction(rng.randrange(d1), d1), Fraction(rng.randint(1, d2), d2)))
        s = ArcSet.from_arcs(arcs)
        f = rng.choice(dens)
        a = circle_point(Fraction(rng.randrange(f), f))
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        assert s.translate(a) == translate_by_fraction(s, a)
        assert s.mul_image(m) == mul_image_by_fraction(s, m)
        t = AffineCircleMap(n, a)
        assert t.preimage(s) == preimage_by_fraction(t, s)


def test_search_with_offsets_sharing_factors_with_the_grid():
    for n, x, k in ((1, "1/6", 12), (2, "1/4", 12), (3, "5/6", 9), (2, "3/8", 8), (4, "1/2", 10), (5, "2/3", 6)):
        t = AffineCircleMap(n, circle_point(x))
        assert invariant_set_search(t, k) == invariant_sets_brute_force(t, k)


# -- CirclePoint's group operations -----------------------------------------------------

rationals = st.one_of(
    st.fractions(min_value=-7, max_value=7, max_denominator=60),
    st.builds(Fraction, st.integers(min_value=-2**80, max_value=2**80), st.sampled_from(BIG)),
)


def _reduced(p: CirclePoint) -> bool:
    v = p.value
    return type(v) is Fraction and 0 <= v < 1 and v == Fraction(v.numerator, v.denominator)


@given(rationals, rationals, st.integers(min_value=-9, max_value=9))
@settings(max_examples=400)
def test_point_arithmetic_matches_fraction_oracle(r, s, k):
    p, q = CirclePoint(r), CirclePoint(s)
    for got, want in ((p + q, add_by_fraction(p, q)), (p - q, sub_by_fraction(p, q)),
                      (-p, neg_by_fraction(p)), (k * p, rmul_by_fraction(k, p))):
        assert got == want and _reduced(got)
        assert (got.value.numerator, got.value.denominator) == (want.value.numerator, want.value.denominator)


def test_point_arithmetic_edge_cases():
    zero, half = circle_point(0), circle_point("1/2")
    assert 0 * circle_point("3/7") == zero and _reduced(0 * circle_point("3/7"))
    assert -zero == zero and zero - zero == zero and half + half == zero
    assert -3 * circle_point("1/5") == circle_point("2/5") == rmul_by_fraction(-3, circle_point("1/5"))
    assert circle_point("1/6") + circle_point("1/3") == half and (circle_point("1/6") + circle_point("1/3")).order() == 2
    p = CirclePoint(Fraction(2**64, 2**64 + 13))
    assert p + p == add_by_fraction(p, p) and 7 * p == rmul_by_fraction(7, p)


def test_public_constructor_normalises_every_input():
    for given_value, value in ((Fraction(-1, 4), Fraction(3, 4)), ("-9/4", Fraction(3, 4)), (3, Fraction(0)),
                               ("7/3", Fraction(1, 3)), (Fraction(1), Fraction(0)), (Fraction(2, 6), Fraction(1, 3)),
                               (-2**70 - 1, Fraction(0))):
        p = CirclePoint(given_value)
        assert p.value == value and type(p.value) is Fraction
    assert CirclePoint(Fraction(-1, 4)) == CirclePoint("3/4") and hash(CirclePoint("-1/4")) == hash(CirclePoint("3/4"))


def test_search_checks_only_the_trivial_candidates_when_every_cell_reaches_all(monkeypatch):
    """Where the preimages of every cell reach every cell, only the empty set and the circle are tried.

    That holds for n >= 2, and for a rotation by half a cell, whose last
    cell reaches the first only across the seam.  A touched cell left out
    of the integer reach would not change the result, which the exact check
    filters, but would leave more candidates to check.
    """
    calls = 0
    plain = AffineCircleMap.preimage

    def counting(t, s):
        nonlocal calls
        calls += 1
        return plain(t, s)

    monkeypatch.setattr(AffineCircleMap, "preimage", counting)
    for n, x, k in ((2, "0", 16), (3, "1/2", 18), (2, "1/3", 12), (5, "3/4", 20), (4, "5/6", 7),
                     (1, "11/12", 6)):
        calls = 0
        found = invariant_set_search(AffineCircleMap(n, circle_point(x)), k)
        assert found == [ArcSet.empty(), ArcSet.full()] and calls == 2, (n, x, k, calls)
