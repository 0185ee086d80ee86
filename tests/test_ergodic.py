import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from circlelab import ergodic
from circlelab import (
    AffineCircleMap,
    ArcSet,
    arc,
    circle_point,
    conjugation_check,
    grid_cells,
    invariant_set_search,
    union_all,
)
from helpers import invariant_sets_brute_force, rand_arcset, rand_point

arcsets = st.lists(
    st.tuples(
        st.fractions(min_value=0, max_value=1, max_denominator=20).filter(lambda q: q < 1),
        st.fractions(min_value=0, max_value=1, max_denominator=20).filter(lambda q: q > 0),
    ),
    max_size=3,
).map(lambda pairs: ArcSet.from_arcs(arc(s, l) for s, l in pairs))
multipliers = st.integers(min_value=1, max_value=6)
offsets = st.fractions(min_value=0, max_value=1, max_denominator=20).filter(lambda q: q < 1).map(
    circle_point
)


def S(*pairs) -> ArcSet:
    return ArcSet.from_arcs(arc(s, l) for s, l in pairs)


def test_apply_examples():
    assert AffineCircleMap(2)(circle_point("3/8")) == circle_point("3/4")
    assert AffineCircleMap(1)(circle_point("4/7")) == circle_point("4/7")
    assert AffineCircleMap(3, circle_point("1/2"))(circle_point("1/6")) == circle_point(0)


def test_multiplier_must_be_natural():
    with pytest.raises(ValueError):
        AffineCircleMap(-1)


def test_preimage_doubling_quarter_arc():
    pre = AffineCircleMap(2).preimage(S((0, "1/4")))
    assert pre == S((0, "1/8"), ("1/2", "1/8"))
    assert pre.measure == Fraction(1, 4)


def test_preimage_identity_and_rotation():
    s = S(("1/8", "1/4"), ("2/3", "1/6"))
    assert AffineCircleMap(1).preimage(s) == s
    rot = AffineCircleMap(1, circle_point("1/2"))
    assert rot.preimage(s) == s.translate(circle_point("1/2"))


def test_preimage_three_arcs_example():
    pre = AffineCircleMap(3, circle_point("1/3")).preimage(S((0, "1/3")))
    assert pre == S(("2/9", "1/9"), ("5/9", "1/9"), ("8/9", "1/9"))
    assert pre.measure == Fraction(1, 3)


def test_preimage_of_full_and_empty():
    t = AffineCircleMap(4, circle_point("2/7"))
    assert t.preimage(ArcSet.full()) == ArcSet.full()
    assert t.preimage(ArcSet.empty()) == ArcSet.empty()


def test_preimage_rejects_constant_map():
    with pytest.raises(ValueError):
        AffineCircleMap(0).preimage(S((0, "1/2")))


def test_preimage_pointwise():
    # y lands in s exactly when y is in the preimage
    rng = random.Random(13)
    for _ in range(80):
        t = AffineCircleMap(rng.randint(1, 5), rand_point(rng, 12))
        s = rand_arcset(rng, max_arcs=3, max_den=12)
        pre = t.preimage(s)
        for _ in range(10):
            y = rand_point(rng, 60)
            assert (t(y) in s) == (y in pre)


@given(multipliers, offsets, arcsets)
def test_preimage_preserves_measure(n, x, s):
    t = AffineCircleMap(n, x)
    assert t.preimage(s).measure == s.measure


@given(multipliers, offsets, arcsets, arcsets)
@settings(max_examples=60)
def test_preimage_commutes_with_boolean_ops(n, x, s, u):
    t = AffineCircleMap(n, x)
    assert t.preimage(~s) == ~t.preimage(s)
    assert t.preimage(s | u) == t.preimage(s) | t.preimage(u)
    assert t.preimage(s & u) == t.preimage(s) & t.preimage(u)


def test_preserves_measure_on_sample():
    rng = random.Random(29)
    sample = [rand_arcset(rng) for _ in range(100)]
    assert AffineCircleMap(5, circle_point("2/3")).preserves_measure_on(sample)


def test_is_invariant_examples():
    double = AffineCircleMap(2)
    assert double.is_invariant(ArcSet.empty())
    assert double.is_invariant(ArcSet.full())
    half = S((0, "1/2"))
    assert not double.is_invariant(half)
    assert double.preimage(half) == S((0, "1/4"), ("1/2", "1/4"))


# -- invariant-set search ------------------------------------------------------------


def test_search_doubling_grid8():
    sets = invariant_set_search(AffineCircleMap(2), 8)
    assert sets == [ArcSet.empty(), ArcSet.full()]


def test_search_tripling_grid9():
    sets = invariant_set_search(AffineCircleMap(3), 9)
    assert sets == [ArcSet.empty(), ArcSet.full()]


def test_search_affine_doubling_grid8():
    sets = invariant_set_search(AffineCircleMap(2, circle_point("1/2")), 8)
    assert sets == [ArcSet.empty(), ArcSet.full()]


def test_search_identity_grid2():
    sets = invariant_set_search(AffineCircleMap(1), 2)
    assert len(sets) == 4  # identity fixes every cell union


def test_search_half_rotation_grid4():
    sets = invariant_set_search(AffineCircleMap(1, circle_point("1/2")), 4)
    expected = [
        ArcSet.empty(),
        S((0, "1/4"), ("1/2", "1/4")),
        S(("1/4", "1/4"), ("3/4", "1/4")),
        ArcSet.full(),
    ]
    assert sets == expected


def test_search_grid_range_validation():
    with pytest.raises(ValueError):
        invariant_set_search(AffineCircleMap(2), 0)
    with pytest.raises(ValueError):
        invariant_set_search(AffineCircleMap(2), 21)


def test_search_refuses_too_many_unions_before_writing_one(monkeypatch):
    def no_union(groups):
        raise AssertionError("a union was written")

    monkeypatch.setattr(ergodic, "_integer_union", no_union)
    # the identity leaves all 2**k unions of k cells invariant
    for k in (17, 20):
        with pytest.raises(ValueError, match=f"more than 65536 unions of {k} grid cells"):
            invariant_set_search(AffineCircleMap(1), k)
    # 2**16 unions are still searched: the first is written
    with pytest.raises(AssertionError, match="a union was written"):
        invariant_set_search(AffineCircleMap(1), 16)


def test_search_matches_brute_force_oracle():
    # every offset e/q with q <= 6 under every multiplier n <= 5, on one small grid and one larger;
    # the rotations (n = 1) on the 1/12 grid, where each such offset moves whole cells and many
    # unions are invariant, some of them through cell orbits that cross the seam; and the grids
    # k = n + 1, n and n - 1, where the image of a cell, n cells long, falls one cell short of the
    # circle, is the circle, and is longer, its edges on cell boundaries when q divides k (x = 0 too)
    offsets = sorted({Fraction(e, q) for q in range(1, 7) for e in range(q)})
    rng = random.Random(59)
    for n in range(1, 6):
        for x in offsets:
            t = AffineCircleMap(n, circle_point(x))
            for k in (rng.randint(1, 8), 12 if n == 1 else rng.randint(9, 10), *range(max(n - 1, 1), n + 2)):
                assert invariant_set_search(t, k) == invariant_sets_brute_force(t, k), (n, x, k)


def test_grid_cells_cover_circle():
    cells = grid_cells(7)
    assert union_all(cells) == ArcSet.full()
    assert all(c.measure == Fraction(1, 7) for c in cells)


# -- conjugation -----------------------------------------------------------------------


def test_conjugation_examples():
    assert conjugation_check(3, circle_point("1/2"), [circle_point("1/5")])
    assert conjugation_check(2, circle_point(0), [circle_point("3/7"), circle_point("1/9")])
    rng = random.Random(61)
    ys = [rand_point(rng, 50) for _ in range(50)]
    assert conjugation_check(5, circle_point("1/3"), ys)


def test_conjugation_random_sweep():
    rng = random.Random(67)
    for n in range(2, 7):
        xs = [rand_point(rng, 30) for _ in range(20)]
        ys = [rand_point(rng, 30) for _ in range(20)]
        for x in xs:
            assert conjugation_check(n, x, ys)


def test_conjugation_rejects_small_multiplier():
    with pytest.raises(ValueError):
        conjugation_check(1, circle_point("1/2"), [circle_point("1/5")])
