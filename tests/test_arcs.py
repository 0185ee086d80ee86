import copy
import pickle
import random
import re
from bisect import bisect_left
from fractions import Fraction
from itertools import groupby, permutations, product
from math import factorial, gcd, lcm, prod
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from circlelab import (
    AffineCircleMap,
    Arc,
    ArcSet,
    Power,
    TailUnionSpec,
    approx_order_set,
    arc,
    circle_point,
    format_fraction,
    gallagher_decomposition,
    parse_predicate,
    tail_union,
    thicken,
    union_all,
)
from circlelab import Or, Table, approx as approx_module, arcs as arcs_module
from circlelab.numtheory import DivBySquare, ExactlyOnce, NotDiv
from helpers import (
    FractionArcSet,
    RSUB,
    SUB,
    XOR,
    arcs_by_sort,
    canonical_by_fraction_sort,
    complement_by_gap_walk,
    grid_measure,
    grid_segments,
    in_arc,
    measure_per_denominator,
    rand_arcset,
    rand_grid_arcs,
    runs_by_bisection,
    subset_by_fraction,
    sweep_by_fraction,
    symm_diff_by_fraction,
    thicken_by_arcs,
)

starts = st.fractions(min_value=0, max_value=1, max_denominator=24).filter(lambda q: q < 1)
lengths = st.fractions(min_value=0, max_value=1, max_denominator=24).filter(lambda q: q > 0)
arc_pairs = st.tuples(starts, lengths)
arcsets = st.lists(arc_pairs, max_size=4).map(
    lambda pairs: ArcSet.from_arcs(arc(s, l) for s, l in pairs)
)
points = st.fractions(min_value=0, max_value=1, max_denominator=24).filter(lambda q: q < 1).map(
    circle_point
)


def S(*pairs) -> ArcSet:
    return ArcSet.from_arcs(arc(s, l) for s, l in pairs)


# -- construction and canonical form -------------------------------------------


def test_arc_validation():
    with pytest.raises(ValueError):
        arc(0, 0)
    with pytest.raises(ValueError):
        arc(0, "5/4")
    assert arc("1/2", 1).length == 1


def test_adjacent_arcs_merge():
    assert S((0, "1/4"), ("1/4", "1/4")) == S((0, "1/2"))


def test_wrap_arc_splits_and_rejoins():
    s = S(("3/4", "1/2"))
    assert s.segments == ((Fraction(0), Fraction(1, 4)), (Fraction(3, 4), Fraction(1)))
    (a,) = s.arcs
    assert (a.start.value, a.length) == (Fraction(3, 4), Fraction(1, 2))


def test_full_circle_is_single_arc():
    full = ArcSet.full()
    assert full.measure == 1
    assert S((0, "1/2"), ("1/2", "1/2")) == full
    assert full.arcs == (Arc(circle_point(0), Fraction(1)),)


def test_raw_segments_rejected_out_of_range():
    half = Fraction(1, 2)
    bad = [(half, Fraction(3, 2)), (Fraction(3, 4), Fraction(1, 4)), (-half, half), (0, 2), (Fraction(5, 4), 2)]
    for lo, hi in bad:
        # the message names the caller's own values
        with pytest.raises(ValueError, match=re.escape(f"segment out of range: ({lo}, {hi})")):
            ArcSet(((0, Fraction(1, 4)), (lo, hi)))
    # an empty pair is dropped before its range is checked
    assert ArcSet(((2, 2),)) == ArcSet.empty()
    assert ArcSet(((-half, -half), (0, half), (Fraction(3, 2), Fraction(3, 2)))).segments == ((0, half),)


def test_canonicalisation_idempotent():
    rng = random.Random(11)
    for _ in range(200):
        s = ArcSet.from_arcs(arc(st_, ln) for st_, ln in rand_grid_arcs(rng, 36))
        assert ArcSet(s.segments) == s
        assert ArcSet.from_arcs(s.arcs) == s


# -- boolean algebra -------------------------------------------------------------


def test_inter_example():
    assert S((0, "1/2")) & S(("1/4", "1/2")) == S(("1/4", "1/4"))


def test_complement_of_empty_is_full():
    assert ArcSet.empty().complement() == ArcSet.full()
    assert ArcSet.full().complement() == ArcSet.empty()


def test_symm_diff_measure_examples():
    h = S((0, "1/2"))
    assert h.symm_diff_measure(h) == 0
    assert h.symm_diff_measure(S(("1/2", "1/2"))) == 1
    assert h.symm_diff_measure(S(("1/4", "1/2"))) == Fraction(1, 2)


@given(arcsets)
def test_complement_involution(s):
    assert s.complement().complement() == s


def test_complement_matches_gap_walk_oracle():
    """~s is the full circle less s by the sweep; the oracle walks the gaps between s's segments."""
    rng = random.Random(4115)
    sets = [ArcSet.empty(), ArcSet.full(), S((0, "1/3")), S(("2/3", "1/3")), S(("3/4", "1/2")), S(("1/7", "1/7"))]
    sets += [rand_arcset(rng) for _ in range(200)]
    # up to 60 short arcs: enough segments for runs of many endpoints
    sets += [S(*((Fraction(rng.randrange(500), 500), Fraction(1, rng.randint(200, 2000))) for _ in range(60)))
             for _ in range(200)]
    # sets that touch 0 only, 1 only, both (a wrapping arc) and neither are all among them
    ends = {(s.segments[0][0] == 0, s.segments[-1][1] == 1) for s in sets if s.segments}
    assert ends == {(False, False), (False, True), (True, False), (True, True)}
    assert max(len(s.segments) for s in sets) > 16
    for s in sets:
        assert (~s).segments == complement_by_gap_walk(s), s


def test_arcs_match_sort_oracle():
    """arcs puts the seam arc last; the oracle sorts all arcs by start after joining it."""
    rng = random.Random(5731)
    sets = [ArcSet.empty(), ArcSet.full(), S(("3/4", "1/2")), S(("1/2", "1/2")), S((0, "1/2"))]
    # several arcs, then one that crosses the seam
    for _ in range(300):
        pairs = [(Fraction(rng.randrange(1, 400), 500), Fraction(1, rng.randint(50, 500)))
                 for _ in range(rng.randint(1, 12))]
        pairs.append((1 - Fraction(1, rng.randint(20, 60)), Fraction(1, rng.randint(5, 15))))
        sets.append(S(*pairs))
    seam = [s for s in sets if len(s.segments) > 1 and s.segments[0][0] == 0 and s.segments[-1][1] == 1]
    assert len(seam) == 301 and max(len(s.segments) for s in seam) > 8
    for s in sets:
        want = arcs_by_sort(s)
        assert s.arcs == want, s
        assert s.to_json_dict() == {
            "arcs": [{"start": format_fraction(a.start.value), "length": format_fraction(a.length)} for a in want]
        }
        assert str(s) == ("∅" if s.is_empty() else "full circle" if s.is_full() else " ∪ ".join(map(str, want)))


@given(arcsets, arcsets)
def test_de_morgan(s, t):
    assert ~(s | t) == ~s & ~t
    assert ~(s & t) == ~s | ~t


@given(arcsets, arcsets, arcsets)
@settings(max_examples=60)
def test_distributivity_and_absorption(s, t, u):
    assert s & (t | u) == (s & t) | (s & u)
    assert s | (t & u) == (s | t) & (s | u)
    assert s | (s & t) == s
    assert s & (s | t) == s


@given(arcsets, arcsets)
def test_commutativity_and_inclusion_exclusion(s, t):
    assert s | t == t | s
    assert s & t == t & s
    assert (s | t).measure + (s & t).measure == s.measure + t.measure


@given(arcsets, arcsets)
def test_subset_and_difference(s, t):
    assert (s - t) <= s
    assert ((s - t) & t).is_empty()
    assert (s & t) <= s


# -- measure ----------------------------------------------------------------------


def test_measure_examples():
    assert S((0, "1/3")).measure == Fraction(1, 3)
    assert ArcSet.empty().measure == 0
    assert S((0, "1/8"), ("1/2", "1/4")).measure == Fraction(3, 8)


def _measure_of_segments(segments) -> Fraction:
    """arcs._measure of Fraction segments, given the numerators of hi - lo added per denominator."""
    by_den: dict[int, int] = {}
    for lo, hi in segments:
        by_den[hi.denominator] = by_den.get(hi.denominator, 0) + hi.numerator
        by_den[lo.denominator] = by_den.get(lo.denominator, 0) - lo.numerator
    return arcs_module._measure(by_den)


def test_measure_matches_per_denominator_oracle():
    rng = random.Random(4107)
    assert _measure_of_segments([]) == 0 == measure_per_denominator([])
    # touching segments: the numerators over 3 cancel to 0
    chain = [(Fraction(1, 5), Fraction(1, 3)), (Fraction(1, 3), Fraction(2, 5)), (Fraction(2, 5), Fraction(1, 2))]
    assert _measure_of_segments(chain) == Fraction(3, 10) == measure_per_denominator(chain)
    for _ in range(300):
        dens = [rng.randint(1, 60) for _ in range(rng.randint(1, 6))]
        segments = []
        for _ in range(rng.randint(1, 40)):
            lo = Fraction(rng.randrange(d := rng.choice(dens)), d)
            segments.append((lo, lo + Fraction(rng.randint(1, 60), rng.choice(dens) * 60)))
        assert _measure_of_segments(segments) == measure_per_denominator(segments)
        assert _measure_of_segments(segments) == sum((hi - lo for lo, hi in segments), Fraction(0))
    # distinct denominators of about 133 bits, each start and end over its own
    segments = []
    for _ in range(200):
        q, r = (rng.getrandbits(133) | 1 << 132 for _ in range(2))
        segments.append((Fraction(rng.randrange(q), q), Fraction(q - 1, q) + Fraction(1, r)))
    assert _measure_of_segments(segments) == measure_per_denominator(segments)


def test_measure_against_grid_oracle():
    rng = random.Random(23)
    denoms = (24, 36, 48)
    for _ in range(150):
        d = rng.choice(denoms)
        a_arcs = rand_grid_arcs(rng, d)
        b_arcs = rand_grid_arcs(rng, d)
        a = ArcSet.from_arcs(arc(s, l) for s, l in a_arcs)
        b = ArcSet.from_arcs(arc(s, l) for s, l in b_arcs)

        def in_a(x, arcs=a_arcs):
            return any(in_arc(x, s, l) for s, l in arcs)

        def in_b(x, arcs=b_arcs):
            return any(in_arc(x, s, l) for s, l in arcs)

        assert a.measure == grid_measure(in_a, d)
        assert (a | b).measure == grid_measure(lambda x: in_a(x) or in_b(x), d)
        assert (a & b).measure == grid_measure(lambda x: in_a(x) and in_b(x), d)
        assert (a - b).measure == grid_measure(lambda x: in_a(x) and not in_b(x), d)
        assert (~a).measure == grid_measure(lambda x: not in_a(x), d)


@given(arcsets, points)
def test_membership_matches_arcs(s, x):
    expected = any(in_arc(x.value, a.start.value, a.length) for a in s.arcs)
    assert (x in s) == expected


# -- translation and scaling --------------------------------------------------------


def test_translate_examples():
    assert S((0, "1/4")).translate(circle_point("1/2")) == S(("1/2", "1/4"))
    s = S(("1/8", "1/4"), ("5/8", "1/8"))
    assert s.translate(circle_point(0)) == s
    assert S(("1/2", "1/2")).translate(circle_point("3/4")) == S(("1/4", "1/2"))


@given(arcsets, points)
def test_translation_preserves_measure(s, a):
    assert s.translate(a).measure == s.measure


@given(arcsets, points, points)
def test_translation_composes(s, a, b):
    assert s.translate(a).translate(b) == s.translate(a + b)


def test_mul_image_examples():
    assert S((0, "1/4")).mul_image(2) == S((0, "1/2"))
    assert S((0, "1/2")).mul_image(3) == ArcSet.full()
    r = Fraction(1, 100)
    s = S((Fraction(1, 3) - r, 2 * r), (Fraction(2, 3) - r, 2 * r))
    expected = S((Fraction(2, 3) - 2 * r, 4 * r), (Fraction(1, 3) - 2 * r, 4 * r))
    assert s.mul_image(2) == expected


def test_mul_image_by_one_is_identity():
    rng = random.Random(5)
    for _ in range(50):
        s = ArcSet.from_arcs(arc(a, l) for a, l in rand_grid_arcs(rng, 30))
        assert s.mul_image(1) == s


def test_mul_image_rejects_zero():
    with pytest.raises(ValueError):
        S((0, "1/4")).mul_image(0)


def test_mul_image_membership_oracle():
    # x lies in m*S iff some preimage branch (x + k)/m lies in S
    rng = random.Random(31)
    for _ in range(60):
        d = 24
        pairs = rand_grid_arcs(rng, d)
        s = ArcSet.from_arcs(arc(a, l) for a, l in pairs)
        m = rng.randint(1, 5)
        image = s.mul_image(m)

        def in_s(x, arcs=pairs):
            return any(in_arc(x, a, l) for a, l in arcs)

        assert image.measure == grid_measure(
            lambda x: any(in_s(Fraction(x + k, m) % 1) for k in range(m)), d * m
        )


# -- thickening ------------------------------------------------------------------------


def test_thicken_examples():
    t = thicken([circle_point(0)], Fraction(1, 4))
    assert t == S(("3/4", "1/2"))
    assert t.measure == Fraction(1, 2)
    assert thicken([circle_point("1/3")], 0) == ArcSet.empty()
    assert thicken([], Fraction(1, 10)) == ArcSet.empty()
    two = thicken([circle_point("1/4"), circle_point("3/4")], Fraction(1, 100))
    assert len(two.arcs) == 2
    assert two.measure == Fraction(4, 100)


def test_thicken_negative_is_empty_and_half_is_full():
    assert thicken([circle_point("1/2")], Fraction(-1, 10)) == ArcSet.empty()
    assert thicken([circle_point("1/7")], Fraction(1, 2)) == ArcSet.full()


@given(
    st.lists(points, min_size=1, max_size=4),
    st.fractions(min_value=0, max_value=1, max_denominator=40),
    st.fractions(min_value=0, max_value=1, max_denominator=40),
)
def test_thicken_monotone(pts, d1, d2):
    lo, hi = min(d1, d2), max(d1, d2)
    assert thicken(pts, lo) <= thicken(pts, hi)


# -- union_all ----------------------------------------------------------------------


def test_union_all_matches_pairwise():
    rng = random.Random(17)
    for _ in range(40):
        sets = [
            ArcSet.from_arcs(arc(a, l) for a, l in rand_grid_arcs(rng, 30)) for _ in range(4)
        ]
        acc = ArcSet.empty()
        for s in sets:
            acc = acc | s
        assert union_all(sets) == acc
    assert union_all([]) == ArcSet.empty()


def test_thicken_examples_against_arc_oracle():
    pts = [circle_point(x) for x in ("0", "1/3", "1/2", "5/7", "99/100")]
    for d in (Fraction(-1, 3), Fraction(0), Fraction(1, 1000), Fraction(1, 7), Fraction(1, 4), Fraction(1, 2), 2):
        assert thicken(pts, d).segments == thicken_by_arcs(pts, Fraction(d))


@given(
    st.lists(st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(lambda q: q < 1), max_size=6),
    st.fractions(min_value=-1, max_value=1, max_denominator=10**6),
)
def test_thicken_matches_arc_oracle(xs, d):
    pts = [circle_point(x) for x in xs]
    assert thicken(pts, d).segments == thicken_by_arcs(pts, d)


# -- exact keys ------------------------------------------------------------------------

Q1 = 2**60 - 93
Q2 = 2**60 - 57


def _neighbours(q1: int, q2: int) -> tuple[Fraction, Fraction]:
    """a/q1 < b/q2 with b/q2 - a/q1 == 1/(q1*q2), both in (0, 1)."""
    a = pow(-q2, -1, q1)  # b*q1 - a*q2 == 1 needs a*q2 == -1 mod q1
    b = (1 + a * q2) // q1
    assert b * q1 - a * q2 == 1
    return Fraction(a, q1), Fraction(b, q2)


def test_keys_merge_shared_endpoint_near_2_60():
    x, y = _neighbours(Q1, Q2)
    lo, hi = Fraction(0), Fraction(1)
    for shared in (x, y):
        assert ArcSet(((shared, hi), (lo, shared))).segments == ((lo, hi),)
    # arcs that wrap and touch at an endpoint computed as start + length
    left, right = arc(x, 1 - x + Fraction(1, Q2)), arc(Fraction(1, Q2), x - Fraction(1, Q2))
    assert ArcSet.from_arcs([left, right]) == ArcSet.full()


def test_keys_keep_gap_of_one_over_q1_q2():
    x, y = _neighbours(Q1, Q2)
    lo, hi = Fraction(0), Fraction(1)
    assert lo < x < y < hi
    expected = ((lo, x), (y, hi))
    assert ArcSet(((y, hi), (lo, x))).segments == expected
    # starts 1/(q1*q2) apart sort by value, not by denominator
    assert ArcSet(((y, hi), (x, y))).segments == ((x, hi),)
    assert ArcSet(((x, hi), (y, hi))).segments == ((x, hi),)
    assert ArcSet(((x, y), (lo, x))).segments == ((lo, y),)
    assert (circle_point(x) in ArcSet(expected), circle_point(y) in ArcSet(expected)) == (False, True)
    assert ArcSet(expected).measure == hi - lo - (y - x)


def _seam_split_by_fraction(arcs) -> list:
    """The line segments of the arcs (start, length), each cut at 1 by Fraction arithmetic."""
    raw = []
    for start, length in arcs:
        end = start + length
        raw.extend([(start, end)] if end <= 1 else [(start, Fraction(1)), (Fraction(0), end - 1)])
    return raw


def test_from_arcs_matches_fraction_sort_oracle():
    p = 2**61 - 1
    cases = [
        [],
        [(Fraction(3, 4), Fraction(1, 2))],  # across the seam
        [(Fraction(p - 1, p), Fraction(2, p)), (Fraction(1, 3), Fraction(1, 3))],
        [(Fraction(1, 3), Fraction(1))],  # a full circle that starts off 0
        [(Fraction(5, 7), Fraction(1)), (Fraction(1, 2), Fraction(1, 4))],
    ]
    rng = random.Random(31)
    dens = (2, 3, 5, 7, 11, 13, p, 10**40 + 3)
    for _ in range(300):
        arcs = []
        for _ in range(rng.randint(0, 8)):
            d1, d2 = rng.choice(dens), rng.choice(dens)
            arcs.append((Fraction(rng.randrange(d1), d1), Fraction(rng.randint(1, d2), d2)))
        cases.append(arcs)
    for arcs in cases:
        s = ArcSet.from_arcs(arc(start, length) for start, length in arcs)
        assert s.segments == canonical_by_fraction_sort(_seam_split_by_fraction(arcs))
        assert all(type(x) is Fraction for seg in s.segments for x in seg)
    assert ArcSet.from_arcs([]) == ArcSet.empty()
    assert ArcSet.from_arcs([arc(Fraction(1, 3), 1)]) == ArcSet.full()


def test_canonical_matches_fraction_sort_oracle():
    rng = random.Random(29)
    dens = (3, 7, 2**31 - 1, Q1, Q2, 2**61 - 1, 10**40 + 3)
    for _ in range(300):
        raw = []
        for _ in range(rng.randint(0, 8)):
            d1, d2 = rng.choice(dens), rng.choice(dens)
            lo = Fraction(rng.randrange(d1), d1)
            hi = Fraction(rng.randrange(d2 + 1), d2)
            raw.append((lo, hi) if lo <= hi else (hi, lo))
        assert ArcSet(tuple(raw)).segments == canonical_by_fraction_sort(raw)


# -- measures of sorted keyed arcs without merging ------------------------------------------


def _run_measure_and_oracle(groups):
    """_run_measure of the groups' sorted keyed items, and the Fraction sort-and-merge measure of their pieces."""
    keyed = sorted(arcs_module._keyed_pieces(groups, arcs_module._key_bits(max((g[4] for g in groups), default=1))))
    oracle = measure_per_denominator(canonical_by_fraction_sort(
        (Fraction(lo, den), Fraction(hi, den)) for _, _, lo, hi, den, _ in keyed))
    return arcs_module._run_measure(keyed, groups), oracle


def _pieces(*pieces):
    """Groups of one integer arc each, from (lo, hi, den) with 0 <= lo < hi <= den."""
    return [((lo,), 1, 0, hi - lo, den, 0) for lo, hi, den in pieces]


RUN_MEASURE_CASES = {
    "empty": [],
    # touching at 1/5 = 2/10, over different denominators, and again at 1/2 = 5/10
    "touching": _pieces((0, 1, 5), (2, 5, 10), (1, 2, 2)),
    "nested": _pieces((1, 6, 10), (2, 4, 10), (3, 5, 10)),
    "equal": _pieces((1, 6, 10), (1, 6, 10), (2, 12, 20)),
    # three overlapping items whose middle one is the widest, and a chain where it ends the run
    "widest-middle": _pieces((0, 3, 10), (1, 9, 10), (2, 5, 10)),
    "widest-middle-chain": _pieces((0, 3, 10), (2, 8, 10), (7, 9, 10), (9, 10, 10)),
    # arcs across the seam, cut into two pieces each
    "seam": [((9, 2), 1, 0, 3, 10, 1), ((0,), 1, 6, 3, 7, 2)],
    # a full-circle arc that starts off 0, with the other arcs inside it
    "full": [((5,), 1, 0, 10, 10, 3), ((1, 3), 1, 0, 2, 7, 4)],
}


@pytest.mark.parametrize("groups", RUN_MEASURE_CASES.values(), ids=RUN_MEASURE_CASES.keys())
def test_run_measure_matches_merged_measure(groups):
    measure, oracle = _run_measure_and_oracle(groups)
    assert measure == oracle == arcs_module._integer_union(groups).measure


def test_run_measure_matches_merged_measure_on_random_groups():
    rng = random.Random(37)
    dens = (2, 3, 5, 10, 12, 30, 2**31 - 1, 10**20 + 39)
    for _ in range(300):
        groups = []
        for tag in range(rng.randint(0, 6)):
            den = rng.choice(dens)
            ms = [rng.randrange(den) for _ in range(rng.randint(1, 5))]
            groups.append((ms, rng.randint(1, 3), rng.randrange(den), rng.randint(1, den), den, tag))
        measure, oracle = _run_measure_and_oracle(groups)
        assert measure == oracle, groups


def _start_key_orders(keyed, rng, limit=200):
    """Orders of the keyed items sorted on their start keys alone: every order of the items that share
    a start key if there are at most limit of them, else limit shuffles sorted stably on that key."""
    blocks = [list(block) for _, block in groupby(sorted(keyed), key=itemgetter(0))]
    if prod(factorial(len(b)) for b in blocks) <= limit:
        for choice in product(*(permutations(b) for b in blocks)):
            yield [item for block in choice for item in block]
        return
    for _ in range(limit):
        items = list(keyed)
        rng.shuffle(items)
        yield sorted(items, key=itemgetter(0))


def _assert_exact_in_any_start_order(groups, rng):
    """_run_measure of the groups' items in each order of equal start keys equals the Fraction oracle;
    returns how many items share a start key with another."""
    keyed = arcs_module._keyed_pieces(groups, arcs_module._key_bits(max((g[4] for g in groups), default=1)))
    _, oracle = _run_measure_and_oracle(groups)
    for items in _start_key_orders(keyed, rng):
        assert arcs_module._run_measure(items, groups) == oracle, (groups, items)
    starts = [item[0] for item in keyed]
    return sum(starts.count(s) > 1 for s in starts)


def test_run_measure_is_exact_in_any_order_of_equal_starts():
    """Keyed items sorted on their start keys alone, ties in any order, measure as the Fraction merge does:
    groups over 12, 24 and 36 whose starts fall on the twelfths, so that many coincide across denominators."""
    rng = random.Random(2503)
    shared = 0
    for _ in range(200):
        groups = []
        for tag in range(rng.randint(1, 5)):
            r = rng.choice((1, 2, 3))
            ms = [rng.randrange(12) for _ in range(rng.randint(1, 4))]
            groups.append((ms, r, 0, rng.randint(1, 12 * r), 12 * r, tag))
        shared += _assert_exact_in_any_start_order(groups, rng)
    assert shared > 500


def _half_circle_pair(delta, m, pred, n_min, n_max):
    """The clipped groups of the tail unions at radii delta_n and m*delta_n, as scaled_tail_union_comparison
    writes them, and those of each alone."""
    t1 = approx_module._tail_terms(pred, delta, [n_min], n_max)[1]
    tm = approx_module._tail_terms(pred, delta.scale(m), [n_min], n_max)[1]
    g1, gm = map(arcs_module._half_circle_groups, approx_module._with_residues([t1, tm]))
    return g1, gm


def test_run_measure_is_exact_on_equal_starts_of_tail_unions():
    """A table whose terms start at one point, delta_2 = 1/4 and delta_3 = 1/12 give [1/4, 3/4) and
    [1/4, 5/12), clipped to [1/4, 1/2) and [1/4, 5/12); and cassels' merged lists, whose two unions
    share starts (every one of them at m = 1)."""
    rng = random.Random(2504)
    table = Table((Fraction(0), Fraction(1, 4), Fraction(1, 12)))
    g1, gm = _half_circle_pair(table, Fraction(3, 2), parse_predicate("all"), 2, 3)
    pieces = arcs_module._keyed_pieces(g1, 16)
    assert sorted((Fraction(lo, den), Fraction(hi, den)) for _, _, lo, hi, den, _ in pieces) == [
        (Fraction(1, 4), Fraction(5, 12)), (Fraction(1, 4), Fraction(1, 2))]
    assert _assert_exact_in_any_start_order(g1, rng) == 2
    # (delta, m, pred, n_min, n_max, whether the two unions share a start)
    cases = [
        (table, Fraction(1), parse_predicate("all"), 2, 3, True),
        (table, Fraction(3, 2), parse_predicate("all"), 2, 3, True),
        (Power(Fraction(1, 8), 2), Fraction(3, 2), Or(DivBySquare(2), ExactlyOnce(2)), 6, 60, False),
        (Power(Fraction(1, 8), 2), Fraction(2), Or(DivBySquare(2), ExactlyOnce(2)), 6, 60, False),
        (Power(Fraction(1, 10), 2), Fraction(2), Or(NotDiv(5), ExactlyOnce(3)), 4, 40, False),
        (Power(Fraction(1, 2), 3), Fraction(1), Or(NotDiv(5), ExactlyOnce(3)), 2, 40, True),
    ]
    for delta, m, pred, n_min, n_max, shares in cases:
        g1, gm = _half_circle_pair(delta, m, pred, n_min, n_max)
        assert (_assert_exact_in_any_start_order(g1 + gm, rng) > 0) == shares, (delta, m)
        # the library's merge: each union's items sorted on their start keys, then the two lists together
        (k1, _), (km, _) = arcs_module._keyed_half_thickenings(
            *approx_module._with_residues([approx_module._tail_terms(pred, d, [n_min], n_max)[1]
                                           for d in (delta, delta.scale(m))]))
        merged = sorted(k1 + km, key=itemgetter(0))
        assert arcs_module._run_measure(merged, g1 + gm) == _run_measure_and_oracle(g1 + gm)[1]


# -- boolean operations against the grid oracle -------------------------------------------


@st.composite
def grid_sets(draw):
    denom = draw(st.sampled_from((12, 24, 36)))
    cells = st.integers(min_value=0, max_value=denom - 1)
    arcs_ = draw(st.lists(st.tuples(cells, cells), max_size=5))
    return denom, [(Fraction(j, denom), Fraction(k + 1, denom)) for j, k in arcs_]


@given(grid_sets(), grid_sets())
@settings(max_examples=150)
def test_boolean_ops_match_grid_oracle(ga, gb):
    (da, a_arcs), (db, b_arcs) = ga, gb
    d = lcm(da, db)
    a = ArcSet.from_arcs(arc(s, l) for s, l in a_arcs)
    b = ArcSet.from_arcs(arc(s, l) for s, l in b_arcs)

    def in_a(x):
        return any(in_arc(x, s, l) for s, l in a_arcs)

    def in_b(x):
        return any(in_arc(x, s, l) for s, l in b_arcs)

    assert (a & b).measure == grid_measure(lambda x: in_a(x) and in_b(x), d)
    assert (a | b).measure == grid_measure(lambda x: in_a(x) or in_b(x), d)
    assert (a - b).measure == grid_measure(lambda x: in_a(x) and not in_b(x), d)
    assert a.symm_diff_measure(b) == grid_measure(lambda x: in_a(x) != in_b(x), d)
    assert (a <= b) == (grid_measure(lambda x: in_a(x) and not in_b(x), d) == 0)
    # grid-aligned results: each result cell is in or out as a whole
    probes = [Fraction(2 * j + 1, 2 * d) for j in range(d)]
    assert [circle_point(x) in (a - b) for x in probes] == [in_a(x) and not in_b(x) for x in probes]


def _assert_canonical_sweep(a: ArcSet, b: ArcSet, keep: tuple[bool, ...]) -> None:
    """_sweep(a, b, keep) is canonical: reduced triples in range, strictly increasing with a gap between
    neighbours, and each one that is a segment of a or b is that operand's own triple."""
    out = arcs_module._sweep(a, b, keep)
    for lo, hi, den in out:
        assert 0 <= lo < hi <= den and gcd(lo, hi, den) == 1
    for (_, hi, d), (lo, _, den) in zip(out, out[1:]):
        assert hi * den < lo * d
    own_a, own_b = ({t: t for t in s.triples} for s in (a, b))
    for t in out:
        if t in own_a or t in own_b:
            assert t is own_a.get(t) or t is own_b.get(t), t


@pytest.mark.parametrize("seed", [1, 2, 8])
def test_sweep_runs_match_grid_segments(seed):
    """Large sets against small ones, so that one operand has long runs of endpoints, and sets of equal size."""
    rng = random.Random(41 + seed)
    d = 240
    for _ in range(100):
        sizes = rng.choice([(60, 1), (1, 60), (40, 3), (3, 40), (30, 30), (0, 25), (25, 0)])
        a_cells, b_cells = ([(rng.randrange(d), rng.randint(1, 4)) for _ in range(k)] for k in sizes)
        a = ArcSet.from_arcs(arc(Fraction(j, d), Fraction(k, d)) for j, k in a_cells)
        b = ArcSet.from_arcs(arc(Fraction(j, d), Fraction(k, d)) for j, k in b_cells)
        cells_a = {(j + t) % d for j, k in a_cells for t in range(k)}
        cells_b = {(j + t) % d for j, k in b_cells for t in range(k)}

        def in_a(x):
            return x.numerator * d // x.denominator in cells_a

        def in_b(x):
            return x.numerator * d // x.denominator in cells_b

        assert (a & b).segments == grid_segments(lambda x: in_a(x) and in_b(x), d)
        assert (a | b).segments == grid_segments(lambda x: in_a(x) or in_b(x), d)
        assert (a - b).segments == grid_segments(lambda x: in_a(x) and not in_b(x), d)
        assert (b - a).segments == grid_segments(lambda x: in_b(x) and not in_a(x), d)
        assert a.symm_diff_measure(b) == grid_measure(lambda x: in_a(x) != in_b(x), d)
        assert (a <= b) == (not grid_segments(lambda x: in_a(x) and not in_b(x), d))
        assert (b <= a) == (not grid_segments(lambda x: in_b(x) and not in_a(x), d))
        assert (a & b) <= a and a <= (a | b)
        for keep in (arcs_module._OR, arcs_module._AND, arcs_module._SUB, XOR):
            _assert_canonical_sweep(a, b, keep)
            _assert_canonical_sweep(b, a, keep)


def test_sweep_reuses_whole_segments():
    """Segments of an operand that are whole in the result are its own triples, not copies."""
    big = thicken([circle_point(Fraction(m, 97)) for m in range(97)], Fraction(1, 400))
    ball = ArcSet(((Fraction(1, 3), Fraction(1, 2)),))
    outside = [t for t, (lo, hi) in zip(big.triples, big.segments)
               if hi < ball.segments[0][0] or lo > ball.segments[0][1]]
    assert len(outside) > 80
    kept = {id(t) for t in (big - ball).triples}
    assert all(id(t) in kept for t in outside)


def _count_exact_comparisons(monkeypatch) -> list[int]:
    """Count every exact comparison from here on, arcs._cmp and Fraction's own, in the one-item list returned."""
    compared = [0]

    def counting(plain):
        def count(*args):
            compared[0] += 1
            return plain(*args)
        return count

    monkeypatch.setattr(arcs_module, "_cmp", counting(arcs_module._cmp))
    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, name, counting(getattr(Fraction, name)))
    return compared


def test_sweep_cost_follows_runs_not_size(monkeypatch):
    """A ball against a set of 3,000 segments takes O(log n) comparisons, not O(n)."""
    big = thicken([circle_point(Fraction(m, 3001)) for m in range(3001)], Fraction(1, 9000))
    ball = ArcSet(((Fraction(1, 3), Fraction(1, 3) + Fraction(1, 1000)),))
    compared = _count_exact_comparisons(monkeypatch)
    for op in (ArcSet.intersection, ArcSet.issubset, ArcSet.__ge__, ArcSet.symm_diff_measure):
        compared[0] = 0
        op(big, ball)
        assert compared[0] < 200, (op.__name__, compared[0])


def _crowded_raw(rng: random.Random, points: list) -> list:
    """Raw segments between sampled points, each cut once more into two touching pieces where it can be."""
    gap = Fraction(1, 2**70)
    ends = sorted(rng.sample(points, 2 * rng.randint(0, 12)))
    raw = []
    for lo, hi in zip(ends[::2], ends[1::2]):
        cut = lo + gap * rng.randint(1, 3)
        raw.extend([(lo, cut), (cut, hi)] if cut < hi else [(lo, hi)])
    return raw


def _crowded_points(rng: random.Random) -> list:
    """0, 1, and clusters of points 2**-70 apart around three points over 2**40 + 15."""
    q, gap = 2**40 + 15, Fraction(1, 2**70)
    bases = sorted(Fraction(rng.randrange(1, q), q) for _ in range(3))
    return [Fraction(0)] + [c + t * gap for c in bases for t in range(24)] + [Fraction(1)]


def _crowded_pair(rng: random.Random) -> tuple[ArcSet, ArcSet]:
    """Two sets whose endpoints crowd into clusters 2**-70 apart around points over 2**40 + 15.

    Distinct endpoints of a cluster often share a 63-bit key; the sets share
    endpoints, touch each other, and are built from touching raw segments.
    """
    points = _crowded_points(rng)
    return ArcSet(_crowded_raw(rng, points)), ArcSet(_crowded_raw(rng, points))


@pytest.mark.parametrize("seed", [1, 2, 8])
def test_key_ties_are_settled_exactly(seed):
    """Every boolean operation and lookup agrees with the Fraction sweep where keys tie."""
    rng = random.Random(1729 + seed)
    ops = ((arcs_module._OR, ArcSet.union), (arcs_module._AND, ArcSet.intersection),
           (arcs_module._SUB, ArcSet.difference))
    tied_within = tied_across = 0
    for _ in range(150):
        a, b = _crowded_pair(rng)
        ka, kb = a._keys, b._keys
        tied_within += sum(x == y for x, y in zip(ka, ka[1:]))
        exact_by_key = {k: x for k, x in zip(ka, (x for seg in a.segments for x in seg))}
        tied_across += sum(k in exact_by_key and exact_by_key[k] != x
                           for k, x in zip(kb, (x for seg in b.segments for x in seg)))
        for s, t in ((a, b), (b, a)):
            for keep, op in ops:
                assert op(s, t).segments == tuple(sweep_by_fraction(s.segments, t.segments, keep))
            assert s.symm_diff_measure(t) == symm_diff_by_fraction(s.segments, t.segments)
            assert (s <= t) == subset_by_fraction(s.segments, t.segments)
            assert (s >= t) == subset_by_fraction(t.segments, s.segments)
        ends = [x for seg in a.segments + b.segments for x in seg]
        probes = {y for x in ends for y in (x, x - Fraction(1, 2**80), x + Fraction(1, 2**80)) if 0 <= y < 1}
        for x in probes:
            assert (circle_point(x) in a) == any(lo <= x < hi for lo, hi in a.segments)
    assert tied_within > 50 and tied_across > 50


@pytest.mark.parametrize("m, n, d", [(3, 10, Fraction(1, 100)), (5, 29, Fraction(1, 300)), (2, 7, Fraction(1, 50))])
def test_shared_endpoints_cost_one_fraction_comparison_per_key_tie(monkeypatch, m, n, d):
    """In an inclusion-(i) check the two sets share every endpoint: each key tie costs one exact comparison
    of the triples' integers (arcs._cmp), and no Fraction is compared."""
    a, b = approx_order_set(n, d).mul_image(m), approx_order_set(n, m * d)
    ties = len(set(a._keys) & set(b._keys))
    assert ties == 2 * len(a.triples) > 0
    points = [circle_point(x) for seg in a.segments for x in seg]
    compared = _count_exact_comparisons(monkeypatch)
    assert a <= b and b <= a
    assert compared[0] == 2 * ties
    compared[0] = 0
    assert [x in b for x in points] == [True, False] * len(a.triples)
    assert compared[0] == ties


class _CountingKeys:
    """A key sequence that counts its reads."""

    def __init__(self, keys):
        self.keys, self.reads = keys, 0

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, i):
        self.reads += 1
        return self.keys[i]


def _with_counting_keys(s: ArcSet) -> tuple[ArcSet, _CountingKeys]:
    """A copy of s whose cached keys count their reads, and those keys."""
    t = ArcSet(s.segments)
    keys = vars(t)["_keys"] = _CountingKeys(s._keys)
    return t, keys


def test_sweep_reads_log_n_keys_for_a_ball():
    """A ball against 3,001 segments reads O(log n) of their keys, whatever it keeps or measures."""
    big = thicken([circle_point(Fraction(m, 3001)) for m in range(3001)], Fraction(1, 9000))
    ball = ArcSet(((Fraction(1, 3), Fraction(1, 3) + Fraction(1, 1000)),))
    bound = 8 * len(big.segments).bit_length()
    for keep in (arcs_module._OR, arcs_module._AND, arcs_module._SUB, XOR):
        for big_first in (True, False):
            counted, big_keys = _with_counting_keys(big)
            a, b = (counted, ball) if big_first else (ball, counted)
            list(arcs_module._sweep(a, b, keep))
            assert big_keys.reads < bound, (keep, big_first, big_keys.reads)
    for big_first in (True, False):
        counted, big_keys = _with_counting_keys(big)
        a, b = (counted, ball) if big_first else (ball, counted)
        assert a.symm_diff_measure(b) == symm_diff_by_fraction(a.segments, b.segments)
        assert big_keys.reads < bound, (big_first, big_keys.reads)


@pytest.fixture(scope="module")
def standing_pair() -> tuple[ArcSet, ArcSet]:
    """The benchmark's standing sets: the tail unions over [2, 300] at radii 1/n^3 and 1/(4 n^2)."""
    return tuple(tail_union(TailUnionSpec(2, 300, parse_predicate("all"), d))
                 for d in (Power(Fraction(1), 3), Power(Fraction(1, 4), 2)))


def _walk(walk, a: ArcSet, b: ArcSet) -> list[tuple[int, int]]:
    return list(walk(a._keys, b._keys, a.triples, b.triples))


def _steps(a: ArcSet, b: ArcSet) -> list[tuple[int, int, int, int]]:
    """The steps (i, j, ni, nj) of the walk of a and b, after checking them against the bisection walk."""
    after = _walk(arcs_module._runs, a, b)
    assert after == _walk(runs_by_bisection, a, b)
    return [(i, j, ni, nj) for (i, j), (ni, nj) in zip([(0, 0)] + after, after)]


def _walk_pairs(rng: random.Random, standing_pair) -> list[tuple[ArcSet, ArcSet]]:
    """Pairs whose walks take runs of every length, end on either operand, tie keys and share endpoints."""
    d = 240
    pairs = list(product((ArcSet.empty(), ArcSet.full(), S(("1/4", "1/4")), S(("3/4", "1/2"))), repeat=2))
    pairs.append((S(("0", "1/4"), ("1/2", "1/8")), S(("1/8", "5/8"))))  # a run of 3 that ends a
    for sizes in [(60, 1), (1, 60), (40, 3), (3, 40), (30, 30), (0, 25), (25, 0)] * 8:
        a, b = (S(*[(Fraction(rng.randrange(d), d), Fraction(rng.randint(1, 4), d)) for _ in range(k)])
                for k in sizes)
        pairs.append((a, b))
    big = thicken([circle_point(Fraction(m, 307)) for m in range(307)], Fraction(1, 1000))
    pairs += [(big, S((x, "1/40"))) for x in ("0", "1/3", "0.9", "0.99")]
    pairs += [_crowded_pair(rng) for _ in range(40)]
    pairs += [(approx_order_set(n, r).mul_image(m), approx_order_set(n, m * r))
              for m, n, r in [(3, 10, Fraction(1, 100)), (2, 7, Fraction(1, 50))]]
    pairs.append(standing_pair)
    return pairs + [(b, a) for a, b in pairs]


@pytest.mark.parametrize("seed", [1, 2, 8])
def test_runs_match_bisection_walk(seed, standing_pair):
    """The walk that probes a run's own segment before bisecting steps exactly as the walk that bisects
    for every run, on runs of 1, 2, 3 and hundreds of endpoints, on operands that run out first, on the
    empty set and the full circle, on key ties and shared endpoints, and on the standing tail unions."""
    rng = random.Random(3301 + seed)
    lengths, last_runs, ties = set(), set(), 0
    for a, b in _walk_pairs(rng, standing_pair):
        na, nb = 2 * len(a.triples), 2 * len(b.triples)
        for i, j, ni, nj in _steps(a, b):
            if nj == j:
                lengths.add(ni - i)
                if ni == na and nj < nb:  # a runs out first: the probes fall on its last endpoint or past it
                    last_runs.add(ni - i)
            elif ni == i:
                lengths.add(nj - j)
            elif i < na and j < nb:
                ties += 1
    assert {1, 2, 3} <= lengths and max(lengths) > 300
    assert {1, 2, 3} <= last_runs
    assert ties > 100


def test_walks_bisect_once_per_run_longer_than_a_segment(monkeypatch, standing_pair):
    """On the standing pair most runs are one whole segment, two endpoints, which the probes take without
    a bisection: every boolean walk bisects at most once per run of more than two endpoints."""
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return bisect_left(*args)

    monkeypatch.setattr(arcs_module, "bisect_left", counting)
    for a, b in (standing_pair, standing_pair[::-1]):
        steps = _steps(a, b)
        long_runs = sum(max(ni - i, nj - j) > 2 for i, j, ni, nj in steps)
        assert len(steps) > 7000 and 0 < long_runs < len(steps) // 10
        for op in (ArcSet.intersection, ArcSet.difference, ArcSet.symm_diff_measure, ArcSet.issubset,
                   ArcSet.__ge__):
            calls[0] = 0
            op(a, b)
            assert calls[0] <= long_runs, (op.__name__, calls[0], long_runs)


def test_symm_diff_measure_from_each_smallest_piece():
    """mu(A ^ B) is right whichever of A & B, A - B and B - A has the fewest boundaries, and each does in turn.

    A and B share a base set and add extras of their own, so the extras'
    sizes decide which difference is smallest; two sparse sets make the
    intersection smallest.  The oracle sweeps A ^ B on Fractions.
    """
    rng = random.Random(2203)
    d = 600

    def cells(k: int, width: int) -> list:
        return [(Fraction(rng.randrange(d), d), Fraction(rng.randint(1, width), d)) for _ in range(k)]

    smallest = []
    for t in range(300):
        if t % 3 == 0:
            a, b = S(*cells(rng.randint(1, 8), 6)), S(*cells(rng.randint(1, 8), 6))
        else:
            base, few, many = cells(rng.randint(5, 25), 30), cells(1, 3), cells(rng.randint(3, 6), 3)
            a, b = S(*base, *few), S(*base, *many)
            if t % 3 == 2:
                a, b = b, a
        assert a.symm_diff_measure(b) == symm_diff_by_fraction(a.segments, b.segments), (a, b)
        sizes = [len(tuple(sweep_by_fraction(a.segments, b.segments, keep)))
                 for keep in (arcs_module._AND, SUB, RSUB)]
        if sizes.count(min(sizes)) == 1:
            smallest.append(sizes.index(min(sizes)))
    assert {smallest.count(p) > 20 for p in range(3)} == {True}, smallest


@pytest.mark.parametrize("c, a", [(Fraction(1), 3), (Fraction(1, 4), 2)])
def test_large_tail_unions_match_fraction_sweeps(c, a):
    """Boolean operations on the benchmark's standing set, a tail union over [2, 300], against the Fraction sweep.

    The other operand is the other standing set, its half [0, 1/2), a ball
    and a thickening of the order-97 points.
    """
    big = tail_union(TailUnionSpec(2, 300, parse_predicate("all"), Power(c, a)))
    other = Power(Fraction(1, 4), 2) if a == 3 else Power(Fraction(1), 3)
    others = [tail_union(TailUnionSpec(2, 300, parse_predicate("all"), other)),
              ArcSet(((Fraction(0), Fraction(1, 2)),)), S(("1/3", "1/50")),
              thicken([circle_point(Fraction(m, 97)) for m in range(97)], Fraction(1, 500))]
    assert len(big.segments) > 4000 and len(others[0].segments) > 4000
    for t in others:
        for s, u in ((big, t), (t, big)):
            for keep, op in ((arcs_module._OR, ArcSet.union), (arcs_module._AND, ArcSet.intersection),
                             (arcs_module._SUB, ArcSet.difference)):
                assert op(s, u).segments == tuple(sweep_by_fraction(s.segments, u.segments, keep))
                _assert_canonical_sweep(s, u, keep)
            assert s.symm_diff_measure(u) == symm_diff_by_fraction(s.segments, u.segments)
            assert (s <= u) == subset_by_fraction(s.segments, u.segments)
    assert big & others[0] <= big and not big <= big & others[0]


def test_large_booleans_compare_fractions_only_on_key_ties(monkeypatch):
    """Two sets of thousands of segments share keys only at 0 and 1, so a sweep compares few Fractions."""
    a = thicken([circle_point(Fraction(m, 3001)) for m in range(3001)], Fraction(1, 9000))
    b = thicken([circle_point(Fraction(m, 2003)) for m in range(2003)], Fraction(1, 5000))
    ties = len(set(a._keys) & set(b._keys))
    assert ties == 2
    compared = _count_exact_comparisons(monkeypatch)
    for op in (ArcSet.intersection, ArcSet.union, ArcSet.difference, ArcSet.symm_diff_measure,
               ArcSet.issubset, ArcSet.__ge__):
        compared[0] = 0
        op(a, b)
        assert compared[0] <= 2 * ties, (op.__name__, compared[0])


def _mirror_image_operands(rng: random.Random) -> list[ArcSet]:
    """Tail unions over overlapping ranges, or the parts A, B, C of one gallagher_decomposition: sets
    that are their own mirror images and keep their halves."""
    if rng.random() < 0.5:
        p, n_min = rng.choice((2, 3, 5)), rng.randint(1, 8)
        return list(gallagher_decomposition(p, n_min, n_min + rng.randint(0, 40),
                                            Power(Fraction(1, rng.randint(1, 6)), rng.randint(1, 3))))
    preds = [parse_predicate("all"), NotDiv(2), ExactlyOnce(3), DivBySquare(2), Or(NotDiv(3), DivBySquare(2))]
    specs = []
    for _ in range(3):
        n_min = rng.randint(1, 12)
        delta = rng.choice((Power(Fraction(1, rng.randint(1, 8)), rng.randint(1, 3)),
                            Table(tuple(Fraction(rng.randint(-1, 6), rng.randint(8, 40)) for _ in range(30)))))
        specs.append(TailUnionSpec(n_min, n_min + rng.randint(0, 30), rng.choice(preds), delta))
    return [tail_union(spec) for spec in specs]


def _plain(s: ArcSet) -> ArcSet:
    """A copy of s with no half, which the general sweep takes."""
    return ArcSet._trusted(s.triples)


def test_booleans_of_mirror_images_run_on_their_halves(monkeypatch):
    """|, &, -, symm_diff_measure, <= and >= of two mirror images of themselves agree with the general
    sweep on half-less copies and walk only the halves; booleans keep a half, so chains stay on the
    halves, and a pair with one half-less operand takes the general sweep."""
    rng = random.Random(3003)
    upper = ArcSet(((Fraction(0), Fraction(1, 2)),))
    swept = []
    sweep = arcs_module._sweep

    def recording(a, b, keep):
        swept.append((a, b))
        return sweep(a, b, keep)

    monkeypatch.setattr(arcs_module, "_sweep", recording)
    subsets = []
    for _ in range(120):
        a, b, c = _mirror_image_operands(rng)
        pa, pb, pc = map(_plain, (a, b, c))
        for op in (ArcSet.union, ArcSet.intersection, ArcSet.difference):
            swept.clear()
            r = op(a, b)
            assert swept == [(a._half, b._half)]
            assert r == op(pa, pb) and r._half == _plain(r) & upper, op.__name__
            swept.clear()
            mixed = op(a, pb)
            assert swept == [(a, pb)] and mixed == r and mixed._half is None
        chain = (a | b) - c
        assert chain == (pa | pb) - pc and chain._half is not None
        assert (a & b) | c == (pa & pb) | pc and (a - b) & c == (pa - pb) & pc
        for s, t in ((a, b), (b, a), (a | b, b), (a & b, a)):
            s, t = arcs_module._mirrored(s._half), arcs_module._mirrored(t._half)  # with no keys computed yet
            ps, pt = _plain(s), _plain(t)
            halves = s.symm_diff_measure(t), s <= t, s >= t
            # the halves path walks the halves alone: the sets' own keys are not computed
            assert "_keys" not in vars(s) and "_keys" not in vars(t)
            assert halves == (ps.symm_diff_measure(pt), ps <= pt, ps >= pt)
            assert halves == (s.symm_diff_measure(pt), s <= pt, s >= pt) == (ps.symm_diff_measure(t), ps <= t, ps >= t)
            subsets.append(halves[1])
    assert 100 < subsets.count(True) < len(subsets) - 100


def test_half_is_kept_only_by_mirror_images():
    """A set keeps its half only when the mirror writer built it; ==, hash, repr, copies and pickles
    ignore the half, and every other writer builds sets with none."""
    w = tail_union(TailUnionSpec(1, 30, parse_predicate("all"), Power(Fraction(1, 3), 2)))
    plain = _plain(w)
    assert w._half is not None and (w, hash(w), repr(w)) == (plain, hash(plain), repr(plain))
    for x in (pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)):
        assert x == w and x._half is None
    others = [plain, ArcSet(w.segments), ArcSet.from_arcs(w.arcs), ArcSet.from_json(w.to_json()), ~w,
              w.translate(circle_point(Fraction(1, 3))), w.mul_image(2), union_all([w]), w | plain,
              approx_order_set(7, Fraction(1, 100)), thicken([circle_point(Fraction(1, 3))], Fraction(1, 9)),
              AffineCircleMap(2, circle_point(Fraction(1, 5))).preimage(w), ArcSet.full(), ArcSet.empty()]
    assert [x._half for x in others] == [None] * len(others)


# endpoints of the oracle's sets: each of 1/3, 1/2 and 2/3 is written over several denominators, as the
# triples of segments such as [1/4, 1/3) over 12 and [1/3, 2/5) over 15 share it
_SHARED_POINTS = [Fraction(0), Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2),
                  Fraction(3, 5), Fraction(2, 3), Fraction(3, 4), Fraction(1)]


def _oracle_raw(rng: random.Random, crowded: list) -> list:
    """Raw segments of one seeded set: small arcs that cross the seam, touch and repeat; segments between
    points shared over several denominators; crowded points whose 63-bit keys tie; the empty or full set."""
    kind = rng.randrange(6)
    if kind == 0:
        return [] if rng.random() < 0.5 else [(Fraction(0), Fraction(1))]
    if kind == 1:
        arcs = [(Fraction(rng.randrange(d), d), Fraction(rng.randint(1, d), d))
                for d in rng.choices((1, 2, 3, 4, 5, 6, 8, 12), k=rng.randint(1, 6))]
        return _seam_split_by_fraction(arcs + arcs[:rng.randint(0, 1)])
    if kind == 2:
        ends = sorted(rng.sample(_SHARED_POINTS, 2 * rng.randint(1, 4)))
        return list(zip(ends[0::2], ends[1::2]))
    if kind == 3:  # the seam pieces [0, a) and [b, 1) of one arc, and more over large denominators
        q = rng.choice((2**33 + 1, 2**40 + 15))
        a, b = sorted(Fraction(rng.randrange(1, q), q) for _ in range(2))
        return [(Fraction(0), a), (b, Fraction(1))] + _crowded_raw(rng, crowded)[:2]
    return _crowded_raw(rng, crowded)


def test_arcset_matches_fraction_endpoint_oracle():
    """Every operation on seeded sets against the ArcSet on Fraction endpoints that the library once was."""
    rng = random.Random(2671)
    q = 2**40 + 15
    shifts = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(5, 6), Fraction(rng.randrange(q), q)]
    tied = 0
    for _ in range(150):
        crowded = _crowded_points(rng)
        raws = [_oracle_raw(rng, crowded), _oracle_raw(rng, crowded)]
        (a, b), (fa, fb) = [ArcSet(raw) for raw in raws], [FractionArcSet(raw) for raw in raws]
        for s, f in ((a, fa), (b, fb)):
            assert s.segments == f.segments and s == f.as_arcset() and hash(s) == hash(f.as_arcset())
            assert all(gcd(*t) == 1 for t in s.triples)
            assert s.measure == f.measure and s.to_json() == f.to_json()
            assert ~s == (~f).as_arcset()
            x, m, n = rng.choice(shifts), rng.randint(1, 4), rng.randint(1, 3)
            assert s.translate(circle_point(x)) == f.translate(circle_point(x)).as_arcset()
            assert s.mul_image(m) == f.mul_image(m).as_arcset()
            t = AffineCircleMap(n, circle_point(x))
            assert t.preimage(s) == f.preimage(t).as_arcset()
        for s, t, f, g in ((a, b, fa, fb), (b, a, fb, fa)):
            assert s | t == (f | g).as_arcset() and s & t == (f & g).as_arcset() and s - t == (f - g).as_arcset()
            assert (s <= t) == (f <= g) and s.symm_diff_measure(t) == f.symm_diff_measure(g)
        ends = {x for seg in fa.segments + fb.segments for x in seg}
        tied += len({(x.numerator << 63) // x.denominator for x in ends}) < len(ends)
        probes = {y for x in ends for y in (x, x - Fraction(1, 2**80), x + Fraction(1, 2**80)) if 0 <= y < 1}
        for y in probes:
            p = circle_point(y)
            assert (p in a, p in b) == (p in fa, p in fb)
    assert tied > 20


def test_triples_are_reduced_and_unique():
    """One set written over different denominators, reduced or not, is one tuple of reduced triples."""
    s = ArcSet(((Fraction(1, 4), Fraction(1, 3)), (Fraction(1, 3), Fraction(2, 5))))
    assert s.triples == ((5, 8, 20),)
    assert ArcSet.from_arcs([arc("3/12", "2/24"), arc("4/12", "1/15")]) == s
    assert arcs_module._integer_union([((6,), 1, 0, 6, 40, 0)]).triples == ((3, 6, 20),)
    assert ArcSet(((Fraction(1, 2), Fraction(1)),)).triples == ((1, 2, 2),)
    assert ArcSet.full().triples == ((0, 1, 1),) == ArcSet(((Fraction(0), Fraction(1)),)).triples
    assert arcs_module._triple(2, 4, 3, 6) == (1, 1, 2) and arcs_module._triple(0, 7, 1, 7) == (0, 1, 7)
    assert arcs_module._triple(5, 15, 4, 12) == (1, 1, 3)


def test_key_cache_is_invisible():
    """Computing a set's keys, measure or Fraction segments changes none of ==, hash, repr, copies or pickles."""
    s = thicken([circle_point(Fraction(m, 17)) for m in range(0, 17, 3)], Fraction(1, 40))
    t = ArcSet(((Fraction(1, 5), Fraction(3, 4)),))
    caches = {"_keys", "measure", "segments"}

    def views(x: ArcSet) -> tuple:
        return x, hash(x), repr(x), pickle.dumps(x), copy.copy(x), copy.deepcopy(x)

    before = views(s)
    assert not caches & vars(s).keys() and "segments" not in vars(t)
    assert circle_point(Fraction(3, 17)) in s
    results = [s | t, s & t, s - t, t - s]
    assert "_keys" in vars(s) and not {"measure", "segments"} & vars(s).keys()
    assert views(s) == before
    assert s.symm_diff_measure(~t) == s.measure + (~t).measure - 2 * (s & ~t).measure
    assert "measure" in vars(s) and "segments" not in vars(s) and "segments" not in vars(t)
    assert views(s) == before
    assert s.measure == measure_per_denominator(s.segments) and "segments" in vars(s)
    assert s.segments is s.segments and views(s) == before
    thawed = pickle.loads(pickle.dumps(s))
    assert thawed == s and not caches & vars(thawed).keys()
    assert thawed & t == s & t and thawed.measure == s.measure
    for x in (copy.copy(s), copy.deepcopy(s)):
        assert x == s and not caches & vars(x).keys()
    for r in results:
        rebuilt = ArcSet(r.segments)
        assert (r, hash(r), repr(r)) == (rebuilt, hash(rebuilt), repr(rebuilt))
        assert vars(r).keys() == {"triples", "segments"} and not caches & vars(rebuilt).keys()


def test_integer_endpoints_become_fractions():
    s = ArcSet(((0, Fraction(1, 2)), (Fraction(3, 4), 1)))
    assert all(type(x) is Fraction for seg in s.segments for x in seg)
    assert s.measure == Fraction(3, 4)
    assert s.symm_diff_measure(ArcSet(((0, 1),))) == Fraction(1, 4)
