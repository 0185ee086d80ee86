"""The inclusion checks (i)-(iv) on integer arcs against the ArcSet forms they replaced.

arcs._affine_groups maps groups of integer arcs under y -> m*y + e/f, and
arcs._union_within decides whether one union of groups lies inside another
by looking up each inner piece among the outer union's merged keys.  Both
must agree with the Fraction oracles in helpers.py on seeded groups where
the answer is True and where it is False: full-circle images, empty
groups, arcs across the seam, offsets whose denominator does not divide
the arcs' own, and endpoints that differ by 2**-70.  approx._ao_groups must write the set that tail_union writes over
the one index n, and each check must answer as its ArcSet form does.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from circlelab import (
    All,
    ArcSet,
    CirclePoint,
    Constant,
    TailUnionSpec,
    approx_order_set,
    check_inclusion_i,
    check_inclusion_ii,
    check_inclusion_iii,
    check_inclusion_iv,
    tail_union,
)
from circlelab.approx import _ao_groups
from circlelab.arcs import _affine_groups, _integer_union, _union_within
from helpers import (
    inclusion_i_by_sets,
    inclusion_ii_by_sets,
    inclusion_iii_by_sets,
    inclusion_iv_by_translate,
    mul_image_by_fraction,
    subset_by_fraction,
    translate_by_fraction,
    union_of_groups_by_fraction,
)

SMALL = (1, 2, 3, 4, 6, 8, 9, 10, 12, 15, 30, 36)
BIG = (2**64 + 13, 2**61 - 1, 3 * 2**70, 10**30 + 57)
# a nudge far below the spacing of the small denominators' rationals
EPS = Fraction(1, 2**70)


def _rand_groups(rng: random.Random, dens=SMALL + BIG) -> list[tuple]:
    """Up to three groups of up to four arcs (some with none), mostly short, some across the seam."""
    groups = []
    for _ in range(rng.randint(0, 3)):
        den = rng.choice(dens)
        ms = [rng.randrange(-den, 2 * den) for _ in range(rng.randint(0, 4))]
        width = rng.randint(1, max(1, den // rng.choice((1, 3, 10, 40))))
        groups.append((ms, rng.randrange(den), rng.randrange(-den, den), width, den, rng.randint(0, 3)))
    return groups


def _rand_map(rng: random.Random) -> tuple[int, int, int]:
    """m in 1..6 and an offset e/f, not reduced and not in [0, 1), over a denominator that need not divide the arcs'."""
    f = rng.choice(SMALL + BIG + (7, 11, 25))
    return rng.randint(1, 6), rng.randrange(-2 * f, 2 * f), f


def _image_by_fraction(groups, m: int, e: int, f: int) -> ArcSet:
    return translate_by_fraction(mul_image_by_fraction(union_of_groups_by_fraction(groups), m),
                                 CirclePoint(Fraction(e, f)))


def _one_arc_groups(segments) -> list[tuple]:
    """Canonical segments [a/b, c/d) as one-arc groups over b*d."""
    return [((lo.numerator * hi.denominator,), 1, 0, hi.numerator * lo.denominator - lo.numerator * hi.denominator,
             lo.denominator * hi.denominator, 0) for lo, hi in segments]


def _nudged(segments, rng: random.Random, grow: bool) -> list:
    """segments with one end moved out by EPS if grow (a superset), else in (a subset without that sliver)."""
    segments = list(segments)
    i = rng.randrange(len(segments))
    lo, hi = segments[i]
    moves = [(lo - EPS, hi), (lo, hi + EPS)] if grow else [(lo + EPS, hi), (lo, hi - EPS)]
    rng.shuffle(moves)
    segments[i] = next((s for s in moves if 0 <= s[0] and s[1] <= 1), (lo, hi))
    return segments


def test_affine_groups_match_fraction_oracle():
    rng = random.Random(211)
    full = 0
    for _ in range(3000):
        groups, (m, e, f) = _rand_groups(rng), _rand_map(rng)
        image = _affine_groups(groups, m, e, f)
        want = _image_by_fraction(groups, m, e, f)
        assert _integer_union(image) == want, (groups, m, e, f)
        assert union_of_groups_by_fraction(image) == want
        full += want.is_full()
    assert 300 < full < 2700
    # no arcs map to no arcs, even when the group's width would fill the circle
    assert _affine_groups([], 3, 1, 2) == []
    assert _integer_union(_affine_groups([((), 1, 0, 5, 5, 0)], 3, 1, 2)).is_empty()


def test_union_within_matches_fraction_oracle_both_ways():
    """Random outer sets, outer sets that hold the image and nudged ones, each side with the large denominators."""
    rng = random.Random(223)
    verdicts = {True: 0, False: 0}
    for trial in range(4000):
        groups, (m, e, f) = _rand_groups(rng), _rand_map(rng)
        inner = _affine_groups(groups, m, e, f)
        mode = trial % 4
        if mode == 0:
            outer = _rand_groups(rng)
        elif mode == 1:
            outer = inner + _rand_groups(rng)
        else:
            # the image nudged by 2**-70: outer has large denominators and inner small ones, or the other way
            small = _affine_groups(_rand_groups(rng, SMALL), m, e, f % 36 + 1)
            segments = union_of_groups_by_fraction(small).segments
            if not segments:
                continue
            nudged = _one_arc_groups(_nudged(segments, rng, grow=rng.random() < 0.5))
            inner, outer = (small, nudged) if mode == 2 else (nudged, small)
        want = subset_by_fraction(union_of_groups_by_fraction(inner).segments,
                                  union_of_groups_by_fraction(outer).segments)
        assert _union_within(inner, outer) == want, (inner, outer)
        verdicts[want] += 1
    assert min(verdicts.values()) > 800, verdicts


def test_union_within_edge_cases():
    half, quarter = [((0,), 1, 0, 1, 2, 0)], [((1,), 1, 0, 1, 4, 0)]
    assert _union_within([], []) and _union_within([], half) and _union_within([((), 1, 0, 1, 2, 0)], [])
    assert _union_within(quarter, half) and not _union_within(half, quarter) and not _union_within(half, [])
    # an arc across the seam, [3/4, 5/4), inside [1/2, 1) and [0, 1/4) but not inside [1/2, 1) alone
    seam = [((3,), 1, 0, 2, 4, 0)]
    assert _union_within(seam, half + [((1,), 1, 0, 1, 2, 0)]) and not _union_within(seam, [((1,), 1, 0, 1, 2, 0)])
    assert _union_within(seam, [((2,), 1, 0, 3, 4, 0)])
    # under a shift taken from the small denominator alone, 1/2 + 2**-70 has the key of 1/2,
    # and 1/3 - 2**-70 that of 1/3
    past_half, third = [((0,), 1, 0, 2**69 + 1, 2**70, 0)], [((0,), 1, 0, 1, 3, 0)]
    below_third = [((0,), 1, 0, 2**70 - 3, 3 * 2**70, 0)]
    assert not _union_within(past_half, half) and _union_within(half, past_half)
    assert not _union_within(third, below_third) and _union_within(below_third, third)
    # an arc with m*width >= den maps onto the circle, and the circle lies inside nothing less
    assert _affine_groups(quarter, 6, 1, 3) == [((0,), 1, 0, 1, 1, 0)]
    circle = _affine_groups(quarter, 4, 1, 3)
    assert _integer_union(circle).is_full() and not _union_within(circle, _affine_groups(quarter, 3, 0, 1))
    assert _union_within(_affine_groups(half, 2, 0, 1), [((0,), 1, 0, 7, 7, 0)])
    # [1/4, 3/4) across the touching [0, 1/2) and [1/2, 1), which merge; across the gap [1/4, 1/2)
    assert _union_within([((1,), 1, 0, 2, 4, 0)], half + [((1,), 1, 0, 1, 2, 0)])
    eighths = [((0,), 1, 0, 2, 8, 0), ((4,), 1, 0, 4, 8, 0)]  # [0, 1/4) and [1/2, 1)
    assert not _union_within([((1,), 1, 0, 4, 8, 0)], eighths)
    # [1/8, 3/8) starts before the first outer start, 1/4, and would fit the last outer segment's end
    assert not _union_within([((1,), 1, 0, 2, 8, 0)], [((2,), 1, 0, 2, 8, 0), ((6,), 1, 0, 2, 8, 0)])
    # half-open: [1/2, 3/4) starts at the end of [0, 1/2) and is outside it, [1/4, 1/2) ends there and is inside
    assert not _union_within([((2,), 1, 0, 1, 4, 0)], half) and _union_within([((1,), 1, 0, 1, 4, 0)], half)
    # [7/8, 9/8) across the seam, its pieces [7/8, 1) and [0, 1/8) in different outer segments
    seam_eighth = [((7,), 1, 0, 2, 8, 0)]
    assert _union_within(seam_eighth, [((0,), 1, 0, 2, 8, 0), ((6,), 1, 0, 2, 8, 0)])
    assert not _union_within(seam_eighth, [((0,), 1, 0, 1, 16, 0), ((6,), 1, 0, 2, 8, 0)])
    assert not _union_within(seam_eighth, [((0,), 1, 0, 2, 8, 0), ((6,), 1, 0, 1, 8, 0)])


RADII = (lambda n: Fraction(-1, 5), lambda n: Fraction(0), lambda n: Fraction(1, 5 * n), lambda n: Fraction(1, 2 * n),
         lambda n: Fraction(2, 3 * n), lambda n: Fraction(1, 2), lambda n: Fraction(5, 7))


def test_ao_groups_write_the_tail_union_over_one_index():
    for n in range(1, 41):
        for radius in RADII + (lambda n: Fraction(1, 3), lambda n: Fraction(7, 2)):
            d = radius(n)
            want = tail_union(TailUnionSpec(n, n, All(), Constant(d)))
            assert _integer_union(_ao_groups(n, d)) == approx_order_set(n, d) == want, (n, d)
    for n in (0, -3):
        with pytest.raises(ValueError, match="order must be a positive integer"):
            _ao_groups(n, Fraction(1, 10))


def test_inclusion_checks_match_their_arcset_forms_on_a_grid():
    """n <= 40, m <= 6, radii <= 0, 1/(2n) and >= 1/2 among them; inputs the checks refuse go to their kernels,
    where the answer can be False."""
    false = 0
    for n in range(1, 41):
        for m in range(1, 7):
            for radius in RADII:
                d = radius(n)
                got = _union_within(_affine_groups(_ao_groups(n, d), m, 0, 1), _ao_groups(n, m * d))
                assert got == inclusion_i_by_sets(m, n, d), (m, n, d)
                if gcd(m, n) == 1:
                    assert check_inclusion_i(m, n, d) and got
                false += not got
                assert check_inclusion_ii(m, n, d) == inclusion_ii_by_sets(m, n, d) is True, (m, n, d)
                a = CirclePoint(Fraction(m - 1 if m > 2 else 1, m))  # of order m
                got = _union_within(_affine_groups(_ao_groups(n, d), 1, *a.value.as_integer_ratio()),
                                    _ao_groups(m * n, d))
                assert got == inclusion_iii_by_sets(a, n, d), (a, n, d)
                if gcd(m, n) == 1:
                    assert check_inclusion_iii(a, n, d) and got
                if n % (m * m) == 0:
                    assert check_inclusion_iv(a, n, d) and inclusion_iv_by_translate(a, n, d)
                false += not got
    assert false > 100
