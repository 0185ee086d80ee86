"""The integer affine-map kernels against the Fraction arithmetic they replaced.

translate, mul_image and preimage write integer pieces over one
denominator per segment, and CirclePoint's group operations work on
integer numerators over b*d; each must give exactly the set or point that
Fraction arithmetic gives (the oracles in helpers.py).  is_invariant
decides the image inclusion T(s) <= s and check_inclusion_iv a
translate's inclusion in the set, both through arcs._union_within
(test_inclusion_kernels.py holds the other inclusions), and
conjugation_check compares integer numerators; each must agree with the
whole sets or points that it no longer builds.
"""

import json
import random
import signal
from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

import pytest

import circlelab.arcs as arcs_module
import circlelab.ergodic as ergodic_module
from circlelab import (
    AffineCircleMap,
    ArcSet,
    CirclePoint,
    approx_order_set,
    arc,
    check_inclusion_iv,
    circle_point,
    conjugation_check,
    invariant_set_search,
    union_all,
)
from circlelab.approx import _ao_groups
from circlelab.arcs import _affine_groups, _integer_union, _union_within
from circlelab.cli import main
from circlelab.ergodic import _conjugated_images
from helpers import (
    add_by_integers,
    arcset_of_segments,
    conjugated_images_by_points,
    inclusion_iv_by_translate,
    invariant_sets_brute_force,
    is_invariant_by_preimage,
    mul_image_by_fraction,
    neg_by_integers,
    preimage_by_fraction,
    rand_point,
    rmul_by_integers,
    sub_by_integers,
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


def test_preimage_cases_match_fraction_oracle_with_no_sort(monkeypatch):
    """x = 0, n = 1, the empty set, the circle, sets across the seam, x at an endpoint and inside a segment,
    and copies that touch at j/n (where x lies inside a segment, or is 0 and the set holds both seam pieces):
    each matches the Fraction oracle, and preimage keys, sorts and merges no piece."""
    seam = ArcSet.from_arcs([arc("3/4", "1/2")])  # [0, 1/4) and [3/4, 1)
    sets = [ArcSet.empty(), ArcSet.full(), seam, ArcSet.from_arcs([arc("3/4", "1/2"), arc("1/3", "1/12")]),
            ArcSet.from_arcs([arc("1/5", "2/5")]), ArcSet.from_arcs([arc("1/2", "1/2")]),
            ArcSet.from_arcs([arc(0, "1/2")]), ArcSet.from_arcs([arc("1/3", "1/6"), arc("2/3", "1/12")]),
            ArcSet.from_arcs([arc(Fraction(2**64, 2**64 + 13), Fraction(1, 6)), arc(Fraction(1, 3), Fraction(1, 9))])]
    offsets = [0, "1/8", "7/8", "3/4", "1/4", "1/3", "1/2", "2/3", "3/4", "5/6", Fraction(2**64, 2**64 + 13)]
    cases = [(s, circle_point(x), n) for s in sets for x in offsets for n in (1, 2, 3, 5)]
    calls = []
    keyed_pieces = arcs_module._keyed_pieces
    monkeypatch.setattr(arcs_module, "_keyed_pieces", lambda *a: calls.append(a) or keyed_pieces(*a))
    for s, x, n in cases:
        t = AffineCircleMap(n, x)
        before = len(calls)
        pre = t.preimage(s)
        assert len(calls) == before, (s, x, n)
        assert pre == preimage_by_fraction(t, s) and _valid(pre), (s, x, n)
    # the copies of [1/5, 3/5) - 1/3 = [0, 4/15) and [13/15, 1) touch at j/3, where each pair is one segment
    pre = AffineCircleMap(3, circle_point("1/3")).preimage(sets[4])
    assert pre.segments == ((0, Fraction(4, 45)), (Fraction(13, 45), Fraction(19, 45)),
                            (Fraction(28, 45), Fraction(34, 45)), (Fraction(43, 45), 1))


def test_preimage_of_the_circle_is_answered_at_once_and_large_preimages_are_refused(monkeypatch):
    s = ArcSet.from_arcs([arc("1/7", "1/9"), arc("1/2", "1/5"), arc("5/6", "1/4")])  # four segments
    for n in (1, 2, 10**8, 10**30 + 57):
        t = AffineCircleMap(n, circle_point("1/3"))
        assert t.preimage(ArcSet.full()) == ArcSet.full() and t.preimage(ArcSet.empty()) == ArcSet.empty()
    with pytest.raises(ValueError, match="2\\*\\*22"):
        AffineCircleMap(2**20 + 1).preimage(s)
    monkeypatch.setattr(ergodic_module, "MAX_PREIMAGE_PIECES", 16)
    t = AffineCircleMap(4, circle_point("1/3"))
    assert t.preimage(s) == preimage_by_fraction(t, s)
    written = []
    monkeypatch.setattr(ergodic_module, "_triple", lambda *a: written.append(a))
    with pytest.raises(ValueError, match="2\\*\\*22"):
        AffineCircleMap(5, circle_point("1/3")).preimage(s)
    assert not written


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
    """The oracles read r and s themselves, so a fault in the constructor's normalisation shows too."""
    p, q = CirclePoint(r), CirclePoint(s)
    for got, want in ((p + q, add_by_integers(r, s)), (p - q, sub_by_integers(r, s)),
                      (-p, neg_by_integers(r)), (k * p, rmul_by_integers(k, r))):
        assert (got.value.numerator, got.value.denominator) == want and _reduced(got)


def test_point_arithmetic_edge_cases():
    zero, half = circle_point(0), circle_point("1/2")
    assert 0 * circle_point("3/7") == zero and _reduced(0 * circle_point("3/7"))
    assert -zero == zero and zero - zero == zero and half + half == zero
    assert -3 * circle_point("1/5") == circle_point("2/5") and rmul_by_integers(-3, Fraction(1, 5)) == (2, 5)
    assert circle_point("1/6") + circle_point("1/3") == half and (circle_point("1/6") + circle_point("1/3")).order() == 2
    x = Fraction(2**64, 2**64 + 13)
    p = CirclePoint(x)
    assert (p + p).value.as_integer_ratio() == add_by_integers(x, x) == (2**64 - 13, 2**64 + 13)
    assert (7 * p).value.as_integer_ratio() == rmul_by_integers(7, x)


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
    cell reaches the first only across the seam.  With n = 2 on the 1/3
    grid and a rotation by three quarters of a cell, some cell's image
    crosses the seam into a cell other than itself.  A touched cell left out
    of the integer reach would not change the result, which the exact check
    filters, but would leave more candidates to check.
    """
    calls = 0
    plain = AffineCircleMap.is_invariant

    def counting(t, s):
        nonlocal calls
        calls += 1
        return plain(t, s)

    monkeypatch.setattr(AffineCircleMap, "is_invariant", counting)
    for n, x, k in ((2, "0", 16), (3, "1/2", 18), (2, "1/3", 12), (5, "3/4", 20), (4, "5/6", 7),
                     (1, "11/12", 6), (2, "0", 3), (1, "1/4", 3)):
        calls = 0
        found = invariant_set_search(AffineCircleMap(n, circle_point(x)), k)
        assert found == [ArcSet.empty(), ArcSet.full()] and calls == 2, (n, x, k, calls)


# -- equality as inclusion both ways ----------------------------------------------------


def _arcs(*arcs) -> list[tuple]:
    """Writer groups of one integer arc [lo/den, (lo + width)/den) each, given as (lo, width, den)."""
    return [((lo,), 1, 0, width, den, 0) for lo, width, den in arcs]


def _union_equals(groups: list[tuple], s: ArcSet) -> bool:
    """Whether the union of groups is exactly s: inclusion both ways, through the one kernel."""
    segments = s._groups()
    return _union_within(groups, segments) and _union_within(segments, groups)


def test_union_equals_on_each_early_exit():
    s = ArcSet.from_arcs([arc("1/8", "1/8"), arc("1/2", "1/4")])
    # the same set from two touching pieces and another denominator
    assert _union_equals(_arcs((2, 1, 16), (3, 1, 16), (4, 2, 8)), s)
    # different segment counts: one too few, one too many, none
    assert not _union_equals(_arcs((2, 2, 16)), s)
    assert not _union_equals(_arcs((2, 2, 16), (4, 2, 8), (7, 1, 9)), s)
    assert not _union_equals([], s) and _union_equals([], ArcSet.empty())
    # equal counts, and only the last endpoint differs, by 1/1000 and by 2**-70
    assert not _union_equals(_arcs((2, 2, 16), (500, 251, 1000)), s)
    assert not _union_equals(_arcs((2, 2, 16), (2**69, 2**68 + 1, 2**70)), s)
    # equal counts, and only the first endpoint differs
    assert not _union_equals(_arcs((4, 2, 24), (4, 2, 8)), s)
    # seam-crossing arcs are cut at 0 and must merge again with s's two seam pieces
    wrap = ArcSet.from_arcs([arc("7/8", "1/4")])
    assert wrap.segments == ((0, Fraction(1, 8)), (Fraction(7, 8), 1))
    assert _union_equals(_arcs((7, 2, 8)), wrap)
    assert _union_equals(_arcs((21, 3, 24), (0, 3, 24)), wrap)
    assert not _union_equals(_arcs((15, 3, 16)), wrap)  # starts at 15/16
    assert not _union_equals(_arcs((7, 3, 8)), wrap)  # ends at 1/4
    assert _union_equals(_arcs((3, 8, 8)), ArcSet.full()) and _union_equals(_arcs((0, 5, 5)), ArcSet.full())
    # denominators above 2**64 and a seam-crossing arc; then one numerator is off by one
    d1, d2 = 2**64 + 13, 3 * 2**70
    big = ArcSet.from_arcs([arc(Fraction(5, d1), Fraction(7, d2)), arc(Fraction(d1 - 1, d1), Fraction(2, d1))])
    den = d1 * d2
    pieces = [(5 * d2, 7 * d1, den), ((d1 - 1) * d2, 2 * d2, den)]
    assert len(big.segments) == 3 and _union_equals(_arcs(*pieces), big)
    for changed in ([(5 * d2, 7 * d1 + 1, den), pieces[1]], [pieces[0], ((d1 - 1) * d2 + 1, 2 * d2 - 1, den)]):
        assert not _union_equals(_arcs(*changed), big)


def test_union_equals_matches_the_built_union_on_seeded_sets():
    """Every endpoint of a seeded union moved in turn by 1/den: the kernel says what == on the ArcSet says."""
    rng = random.Random(89)
    dens = SMALL + BIG
    for _ in range(150):
        groups = []
        for _ in range(rng.randint(0, 6)):
            d = rng.choice(dens)
            groups += _arcs((rng.randrange(d), rng.randint(1, d), d))
        union = _integer_union(groups)
        assert _union_equals(groups, union)
        ends = [x for seg in union.segments for x in seg]
        for i in range(len(ends)):
            for step in (Fraction(-1, 7 * ends[i].denominator), Fraction(1, 7 * ends[i].denominator)):
                moved = ends[:i] + [ends[i] + step] + ends[i + 1:]
                if 0 <= moved[0] and moved[-1] <= 1 and all(x < y for x, y in zip(moved, moved[1:])):
                    other = arcset_of_segments(zip(moved[0::2], moved[1::2]))
                    assert union != other and not _union_equals(groups, other)


def test_is_invariant_on_the_invariant_unions_of_rotations():
    """n = 1: a rotation by j/k leaves invariant the unions of its cell orbits, and no others."""
    for x, k in (("1/4", 8), ("1/3", 9), ("5/6", 12), ("0", 6), ("1/2", 10)):
        t = AffineCircleMap(1, circle_point(x))
        found = invariant_set_search(t, k)
        assert found == invariant_sets_brute_force(t, k) and len(found) > 2
        cells = [_integer_union(_arcs(*((j, 1, k) for j in range(k) if bits >> j & 1))) for bits in range(1 << k)]
        assert [s for s in cells if t.is_invariant(s)] == found
        assert all(t.is_invariant(s) == is_invariant_by_preimage(t, s) for s in cells)


def test_is_invariant_matches_preimage_oracle_on_seeded_sets():
    """Sets with an arc whose image is the circle, the shortcut of _affine_groups, which are invariant
    only when they are the circle; and rotations by offsets whose denominators divide none of the
    set's, of unions of orbits (invariant), of all but one translate and of one translate alone."""
    rng = random.Random(109)
    full = 0
    for trial in range(300):
        n = rng.randint(2, 6)
        d = rng.choice(SMALL[1:] + BIG)
        width = rng.randint(-(-d // n), d)  # at least d/n
        long_arc = arc(Fraction(rng.randrange(d - width + 1), d), Fraction(width, d))  # does not cross the seam
        arcs = [long_arc] + [arc(Fraction(rng.randrange(b), b), Fraction(rng.randint(1, b), b))
                             for b in rng.choices(SMALL + BIG, k=rng.randint(0, 3))]
        if trial % 4 == 0 and width < d:  # and the rest of the circle
            arcs.append(arc(long_arc.start.value + long_arc.length, 1 - long_arc.length))
        s = ArcSet.from_arcs(arcs)
        t = AffineCircleMap(n, rand_point(rng, rng.choice(SMALL + BIG)))
        assert _affine_groups(s._groups(), n, *t.offset.value.as_integer_ratio()) == [((0,), 1, 0, 1, 1, 0)]
        assert t.is_invariant(s) == is_invariant_by_preimage(t, s) == s.is_full(), (t, s)
        full += s.is_full()
    assert full >= 75
    verdicts, mixed = {True: 0, False: 0}, 0
    for trial in range(300):
        q = rng.choice((3, 5, 7, 11, 13))
        t = AffineCircleMap(1, circle_point(Fraction(rng.choice([e for e in range(1, q) if gcd(e, q) == 1]), q)))
        base = ArcSet.from_arcs(arc(Fraction(rng.randrange(b), b), Fraction(rng.randint(1, max(1, b // (2 * q))), b))
                                for b in rng.choices([b for b in SMALL + BIG if b % q], k=rng.randint(1, 3)))
        orbit = [base.translate(j * t.offset) for j in range(q)]
        s = (union_all(orbit), union_all(orbit[:-1]), base)[trial % 3]
        mixed += any(x.denominator % q for seg in s.segments for x in seg)
        want = is_invariant_by_preimage(t, s)
        assert t.is_invariant(s) == want, (t, s)
        assert want or trial % 3 != 0
        verdicts[want] += 1
    assert min(verdicts.values()) >= 100 and mixed >= 250, (verdicts, mixed)


def test_is_invariant_rejects_multiplier_zero():
    t = AffineCircleMap(0, circle_point("1/3"))
    for s in (ArcSet.empty(), ArcSet.full(), ArcSet.from_arcs([arc("1/4", "1/2")])):
        with pytest.raises(ValueError, match="multiplier >= 1"):
            t.is_invariant(s)


@given(arc_sets(), st.integers(min_value=1, max_value=6), points)
@settings(max_examples=200)
def test_is_invariant_matches_preimage_oracle(s, n, x):
    t = AffineCircleMap(n, x)
    assert t.is_invariant(s) == is_invariant_by_preimage(t, s)
    assert t.is_invariant(t.preimage(s)) == is_invariant_by_preimage(t, t.preimage(s))


def test_inclusion_iv_matches_translate_oracle():
    """check_inclusion_iv's kernel, also on translates whose order is not admitted, where it can be False."""
    rng = random.Random(97)
    for _ in range(200):
        q = rng.randint(2, 6)
        a = circle_point(Fraction(rng.randrange(1, q), q))
        d = Fraction(1, rng.randint(2, 400))
        n = q * q * rng.randint(1, 5)
        assert check_inclusion_iv(a, n, d) and inclusion_iv_by_translate(a, n, d)
        n = rng.randint(1, 40)
        s = _ao_groups(n, d)
        image = _affine_groups(s, 1, *a.value.as_integer_ratio())
        want = inclusion_iv_by_translate(a, n, d)
        assert _union_within(image, s) == want == _union_equals(image, approx_order_set(n, d))
    s = _ao_groups(9, Fraction(1, 100))
    assert not _union_within(_affine_groups(s, 1, 1, 9), s)


# -- searches where n >= k -------------------------------------------------------------------


@pytest.fixture
def writer_capped(monkeypatch):
    """A writer that refuses more than 10**5 pieces, so a search that writes n pieces fails at once."""
    keyed_pieces = arcs_module._keyed_pieces

    def capped(groups, k):
        pieces = sum(len(g[0]) for g in groups)
        if pieces > 10**5:
            raise AssertionError(f"the writer was asked for {pieces} pieces")
        return keyed_pieces(groups, k)

    monkeypatch.setattr(arcs_module, "_keyed_pieces", capped)


def _too_slow(signum, frame):
    raise TimeoutError("the search took work that grows with n")


def test_search_for_large_multipliers_writes_no_preimage(writer_capped, capsys):
    """For n >= k the search answers at once; a scan of the n pieces of each cell fails on the alarm."""
    trivial = [ArcSet.empty(), ArcSet.full()]
    handler = signal.signal(signal.SIGALRM, _too_slow)
    signal.alarm(30)
    try:
        for n, x, k in ((10**8, "1/3", 20), (10**6, "0", 1), (10**12 + 39, "5/7", 13), (200001, "1/2", 20)):
            assert invariant_set_search(AffineCircleMap(n, circle_point(x)), k) == trivial
        assert main(["ergodic-search", "--n", "100000000", "--x", "1/3", "--grid", "20"]) == 0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert [ArcSet.from_json_dict(d) for d in json.loads(capsys.readouterr().out)] == trivial
    with pytest.raises(AssertionError):  # the cap fires on a writer asked for 10**5 + 1 grid cells
        _integer_union([(range(10**5 + 1), 1, 0, 1, 10**5 + 1, 0)])


def test_search_around_n_equal_to_k_matches_brute_force_oracle():
    """Every n <= 3k for k <= 6, and n in {k - 1, k, 3k} for 7 <= k <= 12."""
    rng = random.Random(101)
    for k in range(1, 13):
        ns = range(1, 3 * k + 1) if k <= 6 else (k - 1, k, 3 * k)
        for n in ns:
            t = AffineCircleMap(n, rand_point(rng, 6))
            assert invariant_set_search(t, k) == invariant_sets_brute_force(t, k), (n, t.offset, k)


# -- conjugation ----------------------------------------------------------------------------


def test_conjugated_images_match_point_oracle():
    """Each sample's two values, for the shift x/(n-1) and for shifts that do not conjugate."""
    rng = random.Random(103)
    dens = SMALL + BIG
    for _ in range(60):
        n = rng.randint(2, 9)
        f = rng.choice(dens)
        x = circle_point(Fraction(rng.randrange(f), f))
        sample = [circle_point(Fraction(rng.randrange(d), d)) for d in rng.choices(dens, k=8)]
        d = rng.choice(dens)
        for shift in (CirclePoint(x.value / (n - 1)), circle_point(Fraction(rng.randrange(d), d))):
            got = list(_conjugated_images(n, x, shift.value.as_integer_ratio(), sample))
            want = conjugated_images_by_points(n, x, shift, sample)
            for (left, right, den), (p, q) in zip(got, want, strict=True):
                assert 0 <= left < den and 0 <= right < den
                assert Fraction(left, den) == p.value and Fraction(right, den) == q.value
            assert all(left == right for left, right, _ in got) == all(p == q for p, q in want)
        assert conjugation_check(n, x, sample)


def test_conjugation_fails_for_a_shift_other_than_x_over_n_minus_1():
    sample = [circle_point(Fraction(j, 13)) for j in range(13)]
    x = circle_point("1/2")
    for n, shift in ((3, (1, 5)), (3, (1, 2)), (2, (1, 3)), (5, (0, 1)), (4, (1, 7))):
        got = list(_conjugated_images(n, x, shift, sample))
        assert not any(left == right for left, right, _ in got), (n, shift)
    # a shift that differs from x/(n-1) by a point of order dividing n - 1 conjugates as well
    assert all(left == right for left, right, _ in _conjugated_images(3, x, (3, 4), sample))


def test_conjugated_images_disagree_for_the_shift_x_over_n():
    """The two sides differ by x - (n-1)*shift for every y: by x/n for the shift x/n, which is not 0 for x != 0.

    So the check is not vacuous, though its sample checks one identity: a single sample point decides it.
    """
    rng = random.Random(107)
    for n in range(2, 10):
        for x in (circle_point("1/2"), circle_point("1/3"), circle_point(Fraction(5, 2**64 + 13)), rand_point(rng)):
            if x.value == 0:
                continue
            e, f = x.value.as_integer_ratio()
            for y in (circle_point(0), circle_point("1/7"), rand_point(rng), rand_point(rng, 2**70)):
                (left, right, den), = _conjugated_images(n, x, (e, f * n), [y])
                assert left != right and Fraction(left - right, den) % 1 == x.value / n, (n, x, y)
                (left, right, _), = _conjugated_images(n, x, (e, f * (n - 1)), [y])
                assert left == right
    # for x = 0 the shifts x/n and x/(n-1) are both 0, and 0 conjugates
    assert all(left == right for left, right, _ in _conjugated_images(4, circle_point(0), (0, 4), [circle_point("1/5")]))


def test_conjugation_check_fails_when_its_images_differ(monkeypatch):
    """conjugation_check's verdict comes from the images: with its shift moved, it must say False."""
    images = ergodic_module._conjugated_images
    monkeypatch.setattr(ergodic_module, "_conjugated_images",
                        lambda n, x, shift, sample: images(n, x, (shift[0] + 1, shift[1]), sample))
    assert not conjugation_check(3, circle_point("1/2"), [circle_point("1/5"), circle_point("2/3")])
    assert not conjugation_check(6, circle_point("2/7"), [circle_point(0)])
