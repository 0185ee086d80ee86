import random
import weakref
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest

from circlelab import (
    All,
    ArcSet,
    Constant,
    DeltaSequence,
    DivBySquare,
    ExactlyOnce,
    NotDiv,
    Or,
    Power,
    Table,
    TailUnionSpec,
    approx_order_set,
    arc,
    check_inclusion_i,
    check_inclusion_ii,
    check_inclusion_iii,
    check_inclusion_iv,
    circle_point,
    finite_order_points,
    gallagher_decomposition,
    tail_union,
    thicken,
    totient,
)
from circlelab import approx as approx_module
from circlelab.numtheory import prime_factors, smallest_prime_factors
from circlelab import arcs as arcs_module
import helpers
from helpers import golden_check


def S(*pairs) -> ArcSet:
    return ArcSet.from_arcs(arc(s, l) for s, l in pairs)


# -- delta sequences ---------------------------------------------------------------


def test_power_eval_and_scale():
    d = Power(Fraction(1), 2)
    assert d.eval_at(1) == 1
    assert d.eval_at(10) == Fraction(1, 100)
    assert d.scale(Fraction(3, 2)).eval_at(2) == Fraction(3, 8)
    assert Power(Fraction(2, 3), 0).eval_at(7) == Fraction(2, 3)


def test_power_validation():
    with pytest.raises(ValueError):
        Power(Fraction(0), 2)
    with pytest.raises(ValueError):
        Power(Fraction(-1), 2)
    with pytest.raises(ValueError):
        Power(Fraction(1), -1)
    with pytest.raises(ValueError):
        Power(Fraction(1), 2).eval_at(0)


def test_constant_and_table():
    assert Constant(Fraction(-1, 4)).eval_at(3) == Fraction(-1, 4)
    t = Table((Fraction(1, 4), Fraction(1, 9)))
    assert t.eval_at(1) == Fraction(1, 4)
    assert t.eval_at(2) == Fraction(1, 9)
    assert t.eval_at(3) == 0  # out of range
    assert t.scale(2).eval_at(2) == Fraction(2, 9)


_RATIO_DELTAS = [
    *(Power(c, a) for a in (0, 1, 2, 3) for c in (Fraction(1), Fraction(7, 3), Fraction(1, 10))),
    Constant(Fraction(1, 10)),
    Constant(Fraction(0)),
    Constant(Fraction(-1, 3)),
    Table((Fraction(1, 4), Fraction(0), Fraction(-1, 9), Fraction(2, 7), Fraction(-5))),
    Table(()),
]


def _reference(delta):
    """delta_n, nonincreasing and divergent, worked out here from each kind's fields, not through ratios."""
    if isinstance(delta, Power):
        return (lambda n: delta.coeff / n**delta.exponent), True, delta.exponent in (0, 1, 2)
    if isinstance(delta, Constant):
        return (lambda n: delta.value), True, delta.value == Fraction(1, 10)
    return (lambda n: delta.values[n - 1] if n <= len(delta.values) else Fraction(0)), False, None


@pytest.mark.parametrize("delta", _RATIO_DELTAS, ids=str)
def test_ratios_match_eval_at(delta):
    radius, nonincreasing, divergent = _reference(delta)
    assert isinstance(delta, DeltaSequence)
    assert (delta.nonincreasing, delta.divergent) == (nonincreasing, divergent)
    # ranges inside, across and past the end of the table, and empty ones
    for lo, hi in [(1, 2), (1, 30), (3, 6), (4, 9), (6, 12), (7, 7), (9, 4)]:
        pairs = list(delta.ratios(lo, hi))
        assert all(q > 0 for _, q in pairs)
        expected = [radius(n) for n in range(lo, hi)]
        assert [Fraction(p, q) for p, q in pairs] == expected
        assert [delta.eval_at(n) for n in range(lo, hi)] == expected
    with pytest.raises(ValueError):
        delta.ratios(0, 3)


# -- order-n points and their thickenings ----------------------------------------------


def test_finite_order_points_examples():
    assert finite_order_points(4) == [circle_point("1/4"), circle_point("3/4")]
    assert finite_order_points(1) == [circle_point(0)]
    fifths = finite_order_points(5)
    assert fifths == [circle_point(f"{m}/5") for m in (1, 2, 3, 4)]
    assert len(fifths) == 4


def test_finite_order_points_counts_and_orders():
    for n in range(1, 60):
        pts = finite_order_points(n)
        assert len(pts) == totient(n)
        assert all(p.order() == n for p in pts)
        assert pts == sorted(pts)


def test_approx_order_set_examples():
    s = approx_order_set(5, Fraction(1, 100))
    assert len(s.arcs) == 4
    assert s.measure == Fraction(8, 100)
    assert approx_order_set(3, 0) == ArcSet.empty()
    assert approx_order_set(2, Fraction(1, 3)) == S(("1/6", "2/3"))


def test_approx_order_set_refuses_an_order_above_the_bound_before_factorising(monkeypatch):
    def no_factorize(n):
        raise AssertionError(f"factorised {n} before refusing it")

    monkeypatch.setattr(approx_module, "factorize", no_factorize)
    top = approx_module.MAX_AO_ORDER
    for n in (top + 1, 10**12):
        with pytest.raises(ValueError, match=r"order must be at most 2\*\*20"):
            approx_order_set(n, Fraction(1, 4 * 10**15))
        # a radius of 1/2 or more is the circle, and one of 0 or less the empty set, with no arc written
        assert approx_order_set(n, Fraction(1, 2)) == ArcSet.full()
        assert approx_order_set(n, 0) == ArcSet.empty()
    with pytest.raises(AssertionError, match="factorised"):  # the bound itself is admitted
        approx_order_set(top, Fraction(1, 10))


def test_approx_order_set_matches_per_point_thickening():
    # empty, disjoint, touching (1/(2n)), overlapping and full cases
    for n in range(1, 61):
        for delta in (Fraction(-1, 3), Fraction(0), Fraction(1, 7 * n), Fraction(1, 2 * n), Fraction(1, n),
                      Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
            assert approx_order_set(n, delta) == thicken(finite_order_points(n), delta), (n, delta)


def test_approx_order_set_rejects_nonpositive_order():
    for n in (0, -2):
        with pytest.raises(ValueError, match="order must be a positive integer"):
            approx_order_set(n, Fraction(1, 10))


def test_approx_order_set_small_delta_measure():
    for n in range(1, 40):
        delta = Fraction(1, 4 * n)  # below the merge threshold 1/(2n)
        s = approx_order_set(n, delta)
        assert len(s.arcs) == totient(n)
        assert s.measure == 2 * totient(n) * delta


# -- tail unions -----------------------------------------------------------------------


def test_tail_union_single_term():
    spec = TailUnionSpec(5, 5, All(), Power(Fraction(1, 100), 0))
    assert tail_union(spec) == approx_order_set(5, Fraction(1, 100))


def test_tail_union_predicate_filters():
    spec = TailUnionSpec(2, 4, NotDiv(2), Constant(Fraction(1, 100)))
    assert tail_union(spec) == approx_order_set(3, Fraction(1, 100))


def test_tail_union_golden_value():
    w = tail_union(TailUnionSpec(2, 50, All(), Power(Fraction(1), 2)))
    assert Fraction(1, 2) < w.measure < 1
    assert golden_check("tail_union_power_1_2_all_2_50", w.measure)


def test_golden_check_fails_on_missing_key(tmp_path, monkeypatch):
    path = tmp_path / "measures.json"
    monkeypatch.setattr(helpers, "GOLDEN_PATH", path)
    monkeypatch.delenv("CIRCLELAB_REGEN_GOLDEN", raising=False)
    assert not golden_check("no_such_key", Fraction(99, 7))
    assert not path.exists()
    monkeypatch.setenv("CIRCLELAB_REGEN_GOLDEN", "1")
    assert golden_check("no_such_key", Fraction(99, 7))
    monkeypatch.delenv("CIRCLELAB_REGEN_GOLDEN")
    assert golden_check("no_such_key", Fraction(99, 7))
    assert not golden_check("no_such_key", Fraction(1, 7))


def test_tail_union_membership_matches_scan_oracle():
    # the canonical union must agree pointwise with a direct distance scan
    w = tail_union(TailUnionSpec(2, 25, All(), Power(Fraction(1), 2)))
    rng = random.Random(53)
    for _ in range(150):
        den = rng.randint(2, 9973)
        x = Fraction(rng.randrange(den), den)
        member = any(
            min(
                min((x - Fraction(m, n)) % 1, (Fraction(m, n) - x) % 1)
                for m in range(n)
                if gcd(m, n) == 1
            )
            < Fraction(1, n * n)
            for n in range(2, 26)
        )
        assert member == (circle_point(x) in w)


def test_tail_union_spec_validation():
    with pytest.raises(ValueError):
        TailUnionSpec(0, 5, All(), Constant(Fraction(1, 10)))
    with pytest.raises(ValueError):
        TailUnionSpec(6, 5, All(), Constant(Fraction(1, 10)))


@pytest.mark.parametrize(
    "n_mins, n_max, message",
    [([0], 3, "n_min must be >= 1, got 0"), ([5], 3, r"need n_min <= n_max, got \[5, 3\]"),
     ([2, 0], 3, "n_min must be >= 1, got 0")],
)
@pytest.mark.parametrize("delta", [Table((Fraction(1, 4),)), Power(Fraction(1), 2), Constant(Fraction(1, 2))], ids=str)
def test_measure_queries_check_the_range(delta, n_mins, n_max, message):
    """Direct calls refuse a start below 1 or above n_max, as TailUnionSpec does, rather than answer."""
    with pytest.raises(ValueError, match=message):
        approx_module.tail_union_measures(All(), delta, n_mins, n_max)
    with pytest.raises(ValueError, match=message):
        approx_module.scaled_tail_union_comparison(All(), delta, Fraction(2), min(n_mins), n_max)


@pytest.mark.parametrize("delta", [Table((Fraction(1, 4),)), Power(Fraction(1), 2), Constant(Fraction(1, 2))], ids=str)
def test_measure_queries_check_every_start(delta):
    """A start above n_max is refused even when a lower start is in range, and no start at all is refused."""
    with pytest.raises(ValueError, match=r"need n_min <= n_max, got \[50, 30\]"):
        approx_module.tail_union_measures(All(), delta, [2, 50], 30)
    with pytest.raises(ValueError, match="no start n_min given"):
        approx_module.tail_union_measures(All(), delta, [], 30)


def test_tail_union_monotone_in_range():
    delta = Power(Fraction(1), 2)
    rng = random.Random(41)
    for _ in range(25):
        n_min = rng.randint(2, 10)
        n_max = rng.randint(n_min + 1, 30)
        inner = tail_union(TailUnionSpec(n_min + 1, n_max, All(), delta))
        base = tail_union(TailUnionSpec(n_min, n_max, All(), delta))
        wider = tail_union(TailUnionSpec(n_min, n_max + 1, All(), delta))
        assert inner <= base <= wider


def test_tail_union_or_identity():
    delta = Power(Fraction(1), 2)
    rng = random.Random(43)
    primes = (2, 3, 5, 7, 11, 13)

    def rand_pred():
        kind = rng.randrange(4)
        p = rng.choice(primes)
        return (All(), NotDiv(p), ExactlyOnce(p), DivBySquare(p))[kind]

    for _ in range(40):
        p, q = rand_pred(), rand_pred()
        n_min, n_max = 2, rng.randint(10, 30)
        combined = tail_union(TailUnionSpec(n_min, n_max, Or(p, q), delta))
        separate = tail_union(TailUnionSpec(n_min, n_max, p, delta)) | tail_union(
            TailUnionSpec(n_min, n_max, q, delta)
        )
        assert combined == separate


def test_tail_union_subadditive_bound():
    cases = [
        (Power(Fraction(1), 2), 2, 40),
        (Power(Fraction(1), 3), 3, 50),
        (Constant(Fraction(1, 50)), 2, 30),
        (Constant(Fraction(-1, 10)), 2, 30),
        (Table((Fraction(1, 4), Fraction(-1, 9), Fraction(1, 16))), 1, 10),
    ]
    for delta, n_min, n_max in cases:
        w = tail_union(TailUnionSpec(n_min, n_max, All(), delta))
        bound = sum(
            (2 * totient(n) * max(delta.eval_at(n), Fraction(0)) for n in range(n_min, n_max + 1)),
            Fraction(0),
        )
        assert w.measure <= bound


def test_tail_union_negative_radii_empty():
    assert tail_union(TailUnionSpec(1, 20, All(), Constant(Fraction(-1, 7)))) == ArcSet.empty()


Q60 = 2**60 - 93

PER_TERM_CASES = [
    # power laws, with overlapping arcs within a term when c / n**a > 1 / (2n)
    (Power(Fraction(1), 2), All(), 2, 40),
    (Power(Fraction(1), 3), NotDiv(3), 1, 45),
    (Power(Fraction(3, 7), 1), ExactlyOnce(2), 1, 30),
    (Power(Fraction(1, 5), 0), DivBySquare(2), 1, 40),
    (Power(Fraction(1, 3), 2), Or(DivBySquare(3), NotDiv(2)), 1, 35),
    # delta <= 0 skips the term; 2 * delta >= 1 gives the full circle
    (Constant(Fraction(-1, 3)), All(), 1, 12),
    (Constant(Fraction(0)), All(), 1, 12),
    (Constant(Fraction(1, 2)), NotDiv(2), 3, 9),
    (Constant(Fraction(3, 4)), All(), 5, 6),
    (Constant(Fraction(1, 5)), All(), 2, 12),
    (Constant(Fraction(1, 50)), ExactlyOnce(3), 2, 40),
    (Table((Fraction(1, 4), Fraction(-1, 9), Fraction(0), Fraction(1, 16), Fraction(2, 5))), All(), 1, 8),
    (Table((Fraction(1, 9), Fraction(1, 2), Fraction(1, 100))), All(), 1, 3),
    # arcs of different terms touching exactly, at 1/5 and at 4/5
    (Table((Fraction(1, 5), Fraction(0), Fraction(2, 15))), All(), 1, 3),
    # denominators near 2**60, where a Fraction sort and exact keys must agree
    (Table((Fraction(1, 4), Fraction(Q60 // 7, Q60), Fraction(1, Q60), Fraction(Q60 // 5, Q60 + 2))), All(), 1, 4),
]


@pytest.mark.parametrize("delta, pred, n_min, n_max", PER_TERM_CASES)
def test_tail_union_matches_per_term_oracle(delta, pred, n_min, n_max):
    spec = TailUnionSpec(n_min, n_max, pred, delta)
    segments = tail_union(spec).segments
    assert segments == helpers.tail_union_per_term(spec).segments
    # the same union with no exact keys: Fraction arcs, merged by a Fraction sort
    arcs = [
        seg
        for n in range(n_min, n_max + 1)
        if pred(n)
        for seg in helpers.thicken_by_arcs(finite_order_points(n), delta.eval_at(n))
    ]
    assert segments == helpers.canonical_by_fraction_sort(arcs)


def test_tail_union_edge_cases_exact():
    assert tail_union(TailUnionSpec(3, 9, NotDiv(2), Constant(Fraction(1, 2)))) == ArcSet.full()
    assert tail_union(TailUnionSpec(1, 2, All(), Table((Fraction(1, 5), Fraction(3, 10))))) == ArcSet.full()
    # [-1/5, 1/5) touches [1/5, 7/15), and [8/15, 4/5) touches [4/5, 1)
    touching = Table((Fraction(1, 5), Fraction(0), Fraction(2, 15)))
    assert tail_union(TailUnionSpec(1, 3, All(), touching)).segments == (
        (Fraction(0), Fraction(7, 15)),
        (Fraction(8, 15), Fraction(1)),
    )


# -- inclusion checks ----------------------------------------------------------------


def test_inclusion_i_examples():
    assert check_inclusion_i(2, 3, Fraction(1, 100))
    assert check_inclusion_i(1, 7, Fraction(1, 50))
    assert check_inclusion_i(3, 4, Fraction(1, 200))


def test_inclusion_i_rejects_non_coprime():
    with pytest.raises(ValueError):
        check_inclusion_i(2, 4, Fraction(1, 100))


def test_inclusion_ii_examples():
    assert check_inclusion_ii(2, 3, Fraction(1, 100))
    assert check_inclusion_ii(1, 5, Fraction(1, 50))
    assert check_inclusion_ii(3, 2, Fraction(1, 300))


def test_inclusion_iii_examples():
    assert check_inclusion_iii(circle_point("1/2"), 3, Fraction(1, 100))
    assert check_inclusion_iii(circle_point(0), 4, Fraction(1, 50))
    assert check_inclusion_iii(circle_point("1/3"), 4, Fraction(1, 200))


def test_inclusion_iii_rejects_non_coprime():
    with pytest.raises(ValueError):
        check_inclusion_iii(circle_point("1/2"), 4, Fraction(1, 100))


def test_inclusion_iv_examples():
    assert check_inclusion_iv(circle_point("1/2"), 4, Fraction(1, 100))
    assert check_inclusion_iv(circle_point(0), 9, Fraction(1, 50))
    assert check_inclusion_iv(circle_point("1/3"), 9, Fraction(1, 100))


def test_inclusion_iv_rejects_bad_order():
    with pytest.raises(ValueError):
        check_inclusion_iv(circle_point("1/2"), 6, Fraction(1, 100))


def test_inclusion_checks_random():
    rng = random.Random(47)
    for _ in range(60):
        m = rng.randint(1, 10)
        n = rng.randint(1, 200 // m)
        delta = Fraction(rng.randint(1, 8), 32 * n * m)
        if gcd(m, n) == 1:
            assert check_inclusion_i(m, n, delta)
        assert check_inclusion_ii(m, n, delta)


# -- decomposition -----------------------------------------------------------------


def test_decomposition_single_term():
    a, b, c = gallagher_decomposition(2, 3, 3, Constant(Fraction(1, 100)))
    assert a == approx_order_set(3, Fraction(1, 100))
    assert b == ArcSet.empty()
    assert c == ArcSet.empty()


def test_decomposition_classifies_2_3_4():
    d = Constant(Fraction(1, 100))
    a, b, c = gallagher_decomposition(2, 2, 4, d)
    assert a == approx_order_set(3, Fraction(1, 100))
    assert b == approx_order_set(2, Fraction(1, 100))
    assert c == approx_order_set(4, Fraction(1, 100))


def test_decomposition_reassembles_whole():
    delta = Power(Fraction(1), 2)
    a, b, c = gallagher_decomposition(3, 2, 30, delta)
    w = tail_union(TailUnionSpec(2, 30, All(), delta))
    assert a | b | c == w


def test_decomposition_rejects_composite():
    for delta in (Constant(Fraction(1, 100)), Power(1, 2)):
        with pytest.raises(ValueError, match="^4 is not prime$"):
            gallagher_decomposition(4, 2, 10, delta)


# -- coprime residues -----------------------------------------------------------------


def test_coprime_residues_match_gcd_scan():
    for n in range(1, 2001):
        assert list(approx_module._coprime_residues(n)) == helpers.coprime_residues_scan(n), n


def test_table_residues_match_gcd_scan():
    """The residues sieved by the primes of a smallest-prime-factor table, over [0, n) and over the half
    circle's [0, n // 2 + 1), for every n <= 3000."""
    spf = smallest_prime_factors(3000)
    for n in range(1, 3001):
        scan = helpers.coprime_residues_scan(n)
        for stop in (n, n // 2 + 1):
            got = approx_module._coprime_residues(n, stop, prime_factors(n, spf))
            assert got == [m for m in scan if m < stop], (n, stop)


def _arcs_of(items, table):
    """The packed arcs items as (start, end, list, index) with Fraction endpoints, in order."""
    out = []
    for x in items:
        f, width, den, _, i, n = table.rows[x & ((1 << table.s) - 1)]
        lo = (x >> table.s) // f
        out.append((F(lo, den), F(lo + width, den), i, n))
    return out


def test_half_arcs_sieve_once_per_index(monkeypatch):
    """One table up to the largest index, and one residue list per index, sieved for all the term lists in
    descending n and gone once the next index's is packed; each list's packed arcs are its own terms'."""
    tables, sieved, alive = [], [], []
    coprime_residues = approx_module._coprime_residues

    class Residues(list):  # a list that a weak reference can follow
        pass

    def counting(limit):
        tables.append(limit)
        return smallest_prime_factors(limit)

    def recording(n, stop, primes):
        assert all(ref() is None for ref in alive[:-1]), sieved  # all but the last index's are gone
        ms = Residues(coprime_residues(n, stop, primes))
        sieved.append((n, list(ms)))
        alive.append(weakref.ref(ms))
        return ms

    lists = [[(12, (1, 288)), (7, (1, 98))], [(12, (1, 144)), (1, (1, 2))]]
    expected = [[(F(lo, den), F(hi, den), i, n) for _, _, lo, hi, den, n in keyed]
                for i, (keyed, _) in enumerate(helpers.keyed_half_thickenings(*helpers.with_half_residues(lists)))]
    monkeypatch.setattr(approx_module, "smallest_prime_factors", counting)
    monkeypatch.setattr(approx_module, "factorize", None)
    monkeypatch.setattr(approx_module, "_coprime_residues", recording)
    (a, b), table = approx_module._half_arcs(lists)
    assert tables == [12] and sieved == [(12, [1, 5]), (7, [1, 2, 3]), (1, [0])]
    assert all(ref() is None for ref in alive)
    # rows (f, width, den, count, list, n) in descending n; the full term's one arc [0, 1/2) is clipped at 0
    assert [row[3:] for row in table.rows] == [(2, 0, 12), (2, 1, 12), (3, 0, 7), (0, 1, 1), (1, 1, 1)]
    assert [_arcs_of(a, table), _arcs_of(b, table)] == expected
    # the residues stop at n // 2, so n = 2 keeps its centre 1/2
    sieved.clear()
    (two,), table = approx_module._half_arcs([[(2, (1, 8)), (10, (1, 400))]])
    assert sieved == [(10, [1, 3]), (2, [1])]
    assert [arc[:2] for arc in _arcs_of(two, table)] == [
        (F(1, 10) - F(1, 400), F(1, 10) + F(1, 400)), (F(3, 10) - F(1, 400), F(3, 10) + F(1, 400)),
        (F(3, 8), F(1, 2))]
    assert approx_module._half_arcs([[]]) == ([[]], arcs_module._Table([], 0, 1, []))


# -- tail-union measures on integer endpoints ---------------------------------------------

F = Fraction

MEASURE_CASES = [
    (Power(F(1), 2), All(), [2, 5, 17, 40], 40),  # the last start is n_max
    (Power(F(1), 3), NotDiv(3), [1, 9, 30], 45),
    (Power(F(3, 7), 1), ExactlyOnce(2), [1, 2, 11], 30),
    (Power(F(1, 5), 0), DivBySquare(2), [4], 40),  # a single start
    (Power(F(1, 3), 2), Or(DivBySquare(3), NotDiv(2)), [1, 3, 20, 35], 35),
    (Constant(F(-1, 3)), All(), [1, 6], 12),
    (Constant(F(0)), All(), [3], 12),
    (Constant(F(1, 5)), All(), [2, 7, 12], 12),
    (Constant(F(1, 2)), NotDiv(2), [3, 9], 9),
    # a full-circle term at index 5 (2 * 1/2 >= 1) and at 7 (2 * 3/5 > 1): starts on both sides
    (Table((F(1, 9), F(1, 100), F(-1, 4), F(1, 16), F(1, 2), F(1, 30), F(3, 5), F(1, 50), F(0), F(1, 40))),
     All(), [1, 4, 5, 6, 7, 8, 10], 10),
    (Table((F(1, 4), F(-1, 9), F(0), F(1, 16), F(2, 5))), All(), [1, 2, 3, 4, 5, 8], 8),
    # arcs of different terms touching exactly, at 1/5 and at 4/5
    (Table((F(1, 5), F(0), F(2, 15))), All(), [1, 2, 3], 3),
    (Table((F(1, 4), F(Q60 // 7, Q60), F(1, Q60), F(Q60 // 5, Q60 + 2))), All(), [1, 2, 4], 4),
    # full for n <= 6, where the predicate drops 6: the last full term is 5
    (Power(F(3), 1), NotDiv(2), [1, 5, 6, 7, 20], 30),
    # full for n <= 3, where the predicate admits no index
    (Power(F(9, 2), 2), DivBySquare(2), [1, 3, 4], 20),
]


# measured on the half circle: arcs that cross 0 or 1/2 are clipped
HALF_CIRCLE_CASES = [
    # the arc around 0 (n = 1) crosses 0 and the one around 1/2 (n = 2) crosses 1/2
    (Power(F(1, 5), 1), All(), [1, 2, 3], 12),
    (Constant(F(1, 7)), All(), [1, 2], 2),
    # radii above 1/(2n): the arc around 1/3 at 9/20 is clipped at both ends, the one
    # around 1/4 at 1/4 is exactly [0, 1/2), and those around 2/5 and 4/9 cross 1/2
    (Table((F(1, 3), F(1, 5), F(9, 20), F(1, 4), F(1, 7), F(1, 9), F(1, 9), F(1, 15), F(1, 13))),
     All(), [1, 2, 3, 4, 5, 8], 9),
    (Table((F(0), F(0), F(9, 20))), All(), [3], 3),
    (Table((F(0), F(0), F(0), F(1, 4))), All(), [4], 4),
    (Table((F(0), F(1, 8), F(0), F(1, 8))), All(), [2], 4),  # [0, 1/8) meets [1/8, 3/8) and [3/8, 1/2)
    (Constant(F(3, 10)), All(), [1, 2, 5, 17], 30),
    (Constant(F(9, 20)), NotDiv(2), [1, 3, 6], 15),
    # full terms at 2 and 6, with starts below, at and above each
    (Table((F(1, 3), F(1, 2), F(1, 5), F(2, 9), F(1, 11), F(3, 5), F(1, 8), F(1, 17))),
     All(), [1, 2, 3, 6, 7, 8], 8),
]


@pytest.mark.parametrize("delta, pred, starts, n_max", MEASURE_CASES + HALF_CIRCLE_CASES)
def test_tail_union_measures_match_per_term_oracle(delta, pred, starts, n_max):
    measures = approx_module.tail_union_measures(pred, delta, starts, n_max)
    assert measures == helpers.tail_union_measures_full_circle(pred, delta, starts, n_max)
    specs = [TailUnionSpec(n_min, n_max, pred, delta) for n_min in starts]
    assert measures == [helpers.tail_union_per_term(spec).measure for spec in specs]
    assert measures == [tail_union(spec).measure for spec in specs]


def test_tail_union_measures_random_against_per_term_oracle():
    rng = random.Random(2302)
    preds = [All(), NotDiv(2), ExactlyOnce(3), DivBySquare(2), Or(NotDiv(3), DivBySquare(2))]
    for _ in range(60):
        kind = rng.randrange(3)
        if kind == 0:
            delta = Power(F(rng.randint(1, 4), rng.randint(1, 6)), rng.randint(0, 3))
        elif kind == 1:
            delta = Constant(F(rng.randint(-2, 3), rng.randint(1, 12)))
        else:
            delta = Table(tuple(F(rng.randint(-1, 4), rng.randint(2, 30)) for _ in range(rng.randint(1, 20))))
        pred = rng.choice(preds)
        n_max = rng.randint(1, 40)
        starts = sorted(rng.sample(range(1, n_max + 1), min(n_max, rng.randint(1, 4))))
        expected = [helpers.tail_union_per_term(TailUnionSpec(s, n_max, pred, delta)).measure for s in starts]
        measures = approx_module.tail_union_measures(pred, delta, starts, n_max)
        assert measures == expected, (delta, pred, starts, n_max)


def test_tail_terms_of_a_nonincreasing_delta_skip_the_full_prefix(monkeypatch):
    """power:1:1 is full for n <= 2: a union from 1 reads delta_n at O(log n_max) indices, as integer pairs."""
    delta = Power(F(1), 1)
    top = helpers.tail_union_per_term(TailUnionSpec(1499, 1500, All(), delta)).measure
    calls = []
    ratios = Power.ratios

    def counting(self, lo, hi):
        assert hi - lo <= 10**4, f"read {hi - lo} radii at once"  # fails before a long pass is made
        calls.append(hi - lo)
        return ratios(self, lo, hi)

    monkeypatch.setattr(Power, "ratios", counting)
    monkeypatch.setattr(Power, "eval_at", None)  # the bisection builds no Fraction
    for n_max in (1500, 15000, 10**12):
        calls.clear()
        assert approx_module.tail_union_measures(All(), delta, [1], n_max) == [1]
        assert sum(calls) <= 2 * n_max.bit_length()
    calls.clear()
    # a start above the full prefix reads only the indices from there on
    assert approx_module.tail_union_measures(All(), delta, [1, 1499], 1500) == [1, top]
    assert sum(calls) <= 2 * (1500).bit_length() + 2


def test_tail_union_queries_refuse_an_index_above_the_bound_before_sieving(monkeypatch):
    """A term with a radius in (0, 1/2) above MAX_AO_ORDER is refused before any residue is sieved;
    the full prefix, a table past its last positive entry and a non-positive constant answer at any n_max."""
    def no_sieve(n):
        raise AssertionError(f"sieved to {n} before refusing")

    monkeypatch.setattr(approx_module, "smallest_prime_factors", no_sieve)
    monkeypatch.setattr(approx_module, "factorize", no_sieve)
    top, big = approx_module.MAX_AO_ORDER, 10**12
    delta = Power(F(1), 2)
    for n_mins, n_max, got in [([big], big, big), ([2], big, big), ([2, 3], top + 5, top + 5)]:
        message = rf"index must be at most 2\*\*20 for a radius below 1/2, got {got}$"
        with pytest.raises(ValueError, match=message):
            approx_module.tail_union_measures(All(), delta, n_mins, n_max)
        with pytest.raises(ValueError, match=message):
            approx_module.scaled_tail_union_comparison(All(), delta, F(2), n_mins[0], n_max)
        with pytest.raises(ValueError, match=message):
            tail_union(TailUnionSpec(n_mins[0], n_max, All(), delta))
    # the highest index that writes arcs is checked, not n_max: 9 divides top - 4 and top + 5
    with pytest.raises(ValueError, match=rf"got {top + 5}$"):
        approx_module.tail_union_measures(DivBySquare(3), delta, [2], top + 5)
    with pytest.raises(AssertionError, match="sieved"):
        approx_module.tail_union_measures(DivBySquare(3), delta, [2], top + 4)
    with pytest.raises(AssertionError, match="sieved"):  # the bound itself is admitted
        approx_module.tail_union_measures(All(), delta, [top], top)
    with pytest.raises(ValueError, match=r"order must be at most 2\*\*20, got 1048577"):
        finite_order_points(top + 1)
    monkeypatch.undo()
    assert approx_module.tail_union_measures(All(), Power(F(1), 1), [1], big) == [1]
    table = Table((F(0), F(1, 4), F(1, 12), F(0)))
    assert approx_module.tail_union_measures(All(), table, [2, 3], big) == [F(1, 2), F(1, 3)]
    assert approx_module.tail_union_measures(All(), Constant(F(0)), [2], big) == [0]
    assert approx_module.tail_union_measures(All(), Constant(F(1, 2)), [2], big) == [1]


def test_tail_union_measures_write_no_arcs_below_a_full_term(monkeypatch):
    """Starts up to the last full-circle term measure 1; only the terms from the next start on are written,
    each with at most n // 2 + 1 residues, those of the centres m/n in [0, 1/2]."""
    written = []
    packed_half_thickenings = approx_module._packed_half_thickenings

    def counting(term_lists, residues):
        written.extend(len(terms) for terms in term_lists)

        def checked(n):
            ms = residues(n)
            assert len(ms) <= n // 2 + 1 and all(2 * m <= n for m in ms), (n, ms)
            return ms

        return packed_half_thickenings(term_lists, checked)

    monkeypatch.setattr(approx_module, "_packed_half_thickenings", counting)
    delta = Power(F(1), 1)  # 2 * delta_n >= 1 for n <= 2
    assert approx_module.tail_union_measures(All(), delta, [1, 2], 2000) == [1, 1]
    assert written == [0]
    expected = helpers.tail_union_per_term(TailUnionSpec(40, 60, All(), delta)).measure
    assert approx_module.tail_union_measures(All(), delta, [2, 40], 60) == [1, expected]
    assert written == [0, 21]


def test_tail_union_measures_and_comparisons_at_workload_shapes():
    """Seeded unions of benchmark size: exponents 3 and 2, n_max 100-200, predicates, three starts."""
    rng = random.Random(4102)
    preds = [All(), NotDiv(2), ExactlyOnce(3), Or(DivBySquare(2), NotDiv(5)), Or(NotDiv(3), ExactlyOnce(2))]
    for a, cs in [(3, (F(1), F(3, 4), F(2))), (2, (F(1, 4), F(1, 6), F(1, 10)))] * 2:
        delta, pred, n_max = Power(rng.choice(cs), a), rng.choice(preds), rng.randint(100, 200)
        starts = sorted(rng.sample(range(2, n_max // 2), 3))
        unions = [tail_union(TailUnionSpec(s, n_max, pred, delta)) for s in starts]
        assert approx_module.tail_union_measures(pred, delta, starts, n_max) == [u.measure for u in unions]
        m = rng.choice([F(3, 2), F(2)])
        w1, wm = unions[0], tail_union(TailUnionSpec(starts[0], n_max, pred, delta.scale(m)))
        assert approx_module.scaled_tail_union_comparison(pred, delta, m, starts[0], n_max) == (
            w1.measure, wm.measure, w1.symm_diff_measure(wm), w1 <= wm, wm <= w1)


COMPARISON_CASES = [
    (Power(F(1), 2), F(1, 2), All(), 2, 30),
    (Power(F(1), 2), F(1), NotDiv(2), 2, 30),
    (Power(F(1), 2), F(2), ExactlyOnce(2), 2, 40),
    (Power(F(2, 3), 3), F(3, 2), DivBySquare(2), 1, 60),
    (Power(F(1, 10), 2), F(2), Or(NotDiv(5), ExactlyOnce(3)), 4, 50),
    (Power(F(1, 8), 1), F(2, 3), Or(DivBySquare(3), NotDiv(2)), 3, 25),
    # full-circle terms: every scaled one; the unscaled one at n = 1; the scaled one at n = 3
    (Power(F(1, 8), 0), F(4), All(), 2, 12),
    (Power(F(1, 2), 1), F(1, 3), All(), 1, 15),
    (Table((F(1, 9), F(1, 100), F(1, 4), F(1, 16), F(1, 30))), F(3), All(), 1, 5),
    (Constant(F(-1, 5)), F(2), All(), 1, 10),
    # the scaled union is the full circle, so the merged union collapses to one segment
    (Power(F(1), 2), F(2), All(), 2, 300),
]


HALF_CIRCLE_COMPARISONS = [
    (Power(F(2, 3), 3), F(1, 2), Or(DivBySquare(2), NotDiv(3)), 3, 60),  # a scale below 1
    (Power(F(1, 5), 1), F(2), All(), 1, 12),  # n = 1 and 2, and scaled full terms
    (Table((F(1, 3), F(1, 5), F(9, 20), F(1, 4), F(1, 7))), F(2, 3), All(), 1, 5),
    (Constant(F(3, 10)), F(3, 2), All(), 1, 20),  # scaled radii 9/20: every scaled arc is clipped
    (Table((F(1, 9), F(1, 6), F(3, 5), F(1, 12), F(1, 20), F(1, 30))), F(2), NotDiv(5), 1, 6),  # full at 3
]


@pytest.mark.parametrize("delta, m, pred, n_min, n_max", COMPARISON_CASES + HALF_CIRCLE_COMPARISONS)
def test_scaled_comparison_matches_arcset_path(delta, m, pred, n_min, n_max):
    """The measure identities agree with the Fraction sweep of the two tail unions and with the full-circle walk."""
    w1 = tail_union(TailUnionSpec(n_min, n_max, pred, delta)).segments
    wm = tail_union(TailUnionSpec(n_min, n_max, pred, delta.scale(m))).segments
    got = approx_module.scaled_tail_union_comparison(pred, delta, m, n_min, n_max)
    assert got == helpers.scaled_comparison_full_circle(pred, delta, m, n_min, n_max)
    assert got == (
        helpers.measure_per_denominator(w1),
        helpers.measure_per_denominator(wm),
        helpers.symm_diff_by_fraction(w1, wm),
        helpers.subset_by_fraction(w1, wm),
        helpers.subset_by_fraction(wm, w1),
    )


# -- measures on the half circle -------------------------------------------------------

def _rand_wide_delta(rng: random.Random) -> DeltaSequence:
    """Radii up to and past 1/2, so that arcs cross 0 and 1/2 and some terms are full."""
    kind = rng.randrange(3)
    if kind == 0:
        return Power(F(rng.randint(1, 6), rng.randint(1, 5)), rng.randint(0, 2))
    if kind == 1:
        return Constant(F(rng.randint(-1, 10), rng.choice([12, 20, 21, 30])))
    return Table(tuple(F(rng.randint(-1, 10), rng.choice([8, 20, 21])) for _ in range(rng.randint(1, 24))))


def test_half_circle_measures_random_against_full_circle_oracle():
    rng = random.Random(1907)
    preds = [All(), NotDiv(2), ExactlyOnce(2), DivBySquare(3), Or(NotDiv(3), DivBySquare(2))]
    for _ in range(80):
        delta, pred, n_max = _rand_wide_delta(rng), rng.choice(preds), rng.randint(1, 36)
        starts = sorted(rng.sample(range(1, n_max + 1), min(n_max, rng.randint(1, 4))))
        measures = approx_module.tail_union_measures(pred, delta, starts, n_max)
        assert measures == helpers.tail_union_measures_full_circle(pred, delta, starts, n_max), (delta, pred, starts)
        assert measures == [tail_union(TailUnionSpec(s, n_max, pred, delta)).measure for s in starts]
        m = rng.choice([F(1, 3), F(1, 2), F(3, 2), F(2), F(5, 2)])
        assert approx_module.scaled_tail_union_comparison(pred, delta, m, starts[0], n_max) == (
            helpers.scaled_comparison_full_circle(pred, delta, m, starts[0], n_max)), (delta, pred, m, starts[0])


def test_tail_union_is_its_own_mirror_image():
    """The premise of the half-circle measure: y -> 1 - y maps every tail union onto itself."""
    rng = random.Random(1931)
    preds = [All(), NotDiv(2), ExactlyOnce(3), DivBySquare(2)]
    for _ in range(80):
        delta, pred, n_max = _rand_wide_delta(rng), rng.choice(preds), rng.randint(1, 40)
        segments = tail_union(TailUnionSpec(rng.randint(1, n_max), n_max, pred, delta)).segments
        assert tuple((1 - hi, 1 - lo) for lo, hi in reversed(segments)) == segments, (delta, pred)


def test_tail_union_writes_its_half_and_mirrors_it():
    """tail_union writes its part in [0, 1/2) and mirrors it: on seeded specs it equals the full-circle
    writer and the union of one set per term, and it keeps its half, the set's part in [0, 1/2)."""
    # the arc around 0 crosses the seam and stays split there; the one around 1/2 is one middle segment
    w = tail_union(TailUnionSpec(1, 2, All(), Constant(F(1, 10))))
    assert w.triples == ((0, 1, 10), (2, 3, 5), (9, 10, 10)) and w._half.triples == ((0, 1, 10), (4, 5, 10))
    rng = random.Random(3001)
    preds = [All(), NotDiv(2), ExactlyOnce(3), DivBySquare(2), Or(NotDiv(3), DivBySquare(2))]
    upper = ArcSet(((F(0), F(1, 2)),))
    seen = set()
    for i in range(320):
        delta, pred = _rand_wide_delta(rng), preds[i % len(preds)]
        n_min = 1 if i % 3 == 0 else rng.randint(1, 30)
        spec = TailUnionSpec(n_min, n_min + rng.randint(0, 24), pred, delta)
        w = tail_union(spec)
        assert w == helpers.tail_union_full_circle(spec) == helpers.tail_union_per_term(spec), spec
        assert w._half == ArcSet._trusted(w.triples) & upper, spec
        radii = {n: delta.eval_at(n) for n in range(spec.n_min, spec.n_max + 1) if pred(n)}
        seen.add(type(delta))
        seen.add(type(pred))
        seen |= {"empty term" for r in radii.values() if r <= 0} | {"full term" for r in radii.values() if 2 * r >= 1}
        if 0 < radii.get(1, 0) < F(1, 2):
            seen.add("seam")
        if 0 < radii.get(2, 0) < F(1, 2):
            seen.add("middle")
    assert seen == {Power, Constant, Table, All, NotDiv, ExactlyOnce, DivBySquare, Or,
                    "empty term", "full term", "seam", "middle"}


def test_packed_kernels_match_the_keyed_oracle():
    """On 320 seeded specs, tail_union's triples, tail_union_measures and scaled_tail_union_comparison equal
    those of the keyed 6-tuples that the packed integers replaced (helpers.keyed_half_thickenings): Power
    radii up to exponent 3, Constant and Table ones, starts at 1, and every predicate kind."""
    rng = random.Random(3107)
    preds = [All(), NotDiv(2), ExactlyOnce(3), DivBySquare(2), Or(NotDiv(3), DivBySquare(2))]
    for i in range(320):
        delta = Power(F(rng.randint(1, 6), rng.randint(1, 5)), 3) if i % 4 == 0 else _rand_wide_delta(rng)
        pred = preds[i % len(preds)]
        n_min = 1 if i % 3 == 0 else rng.randint(1, 30)
        n_max = n_min + rng.randint(0, 40)
        spec = TailUnionSpec(n_min, n_max, pred, delta)
        assert tail_union(spec).triples == helpers.tail_union_by_keyed_half(spec).triples, spec
        starts = sorted(rng.sample(range(n_min, n_max + 1), min(n_max - n_min + 1, 3)))
        assert approx_module.tail_union_measures(pred, delta, starts, n_max) == (
            helpers.tail_union_measures_by_keyed_half(pred, delta, starts, n_max)), (delta, pred, starts)
        m = rng.choice([F(1, 3), F(1, 2), F(3, 2), F(2), F(5, 2)])
        assert approx_module.scaled_tail_union_comparison(pred, delta, m, n_min, n_max) == (
            helpers.scaled_comparison_by_keyed_half(pred, delta, m, n_min, n_max)), (delta, pred, m)


def test_half_circle_groups_clip_at_0_and_at_one_half():
    """Over 2*den the half circle is [0, den): arcs inside it stay in their term's group,
    and each arc that crosses 0 or den is a group of its own, clipped.  Radii are integer pairs (p, q)."""
    groups = arcs_module._half_circle_groups
    # 1/3 +- 9/20 over 120: [-14, 94) clipped at both ends to [0, 60)
    assert groups([(3, [1], (9, 20))]) == [([], 40, -54, 108, 120, 3), ((0,), 1, 0, 60, 120, 3)]
    # 1/4 +- 1/4 over 8: exactly [0, 4), clipped nowhere
    assert groups([(4, [1], (1, 4))]) == [([1], 2, -2, 4, 8, 4)]
    # 0 +- 1/5 and 1/2 +- 1/10 over 10 and 20: [-2, 2) and [8, 12), clipped to [0, 2) and [8, 10)
    assert groups([(1, [0], (1, 5)), (2, [1], (1, 10))]) == [
        ([], 10, -2, 4, 10, 1), ((0,), 1, 0, 2, 10, 1),
        ([], 10, -2, 4, 20, 2), ((8,), 1, 0, 2, 20, 2),
    ]
    # 1/7, 2/7 and 3/7 +- 1/10 over 140: only 3/7's arc [46, 74) crosses 70
    assert groups([(7, [1, 2, 3], (1, 10))]) == [([1, 2], 20, -14, 28, 140, 7), ((46,), 1, 0, 24, 140, 7)]


def test_half_circle_groups_keep_the_widest_arc_across_0_and_one_half():
    """Clipped, a term's arcs that cross 0 all start there and those that cross 1/2 all end there, so each
    kind is written as its widest alone; the union is that of every arc clipped."""
    groups = arcs_module._half_circle_groups
    # 1/11 and 2/11 +- 1/5 over 110 cross 0, and 4/11 and 5/11 cross 1/2 (55): [0, 42) and [18, 55) stand for them
    assert groups([(11, [1, 2, 3, 4, 5], (1, 5))]) == [
        ([3], 10, -22, 44, 110, 11), ((0,), 1, 0, 42, 110, 11), ((18,), 1, 0, 37, 110, 11)]
    # 1/7 and 2/7 +- 2/5 over 70 cross both 0 and 1/2, and 3/7 crosses 1/2 alone
    assert groups([(7, [1, 2, 3], (2, 5))]) == [
        ([], 10, -28, 56, 70, 7), ((0,), 1, 0, 35, 70, 7), ((2,), 1, 0, 33, 70, 7)]
    for n, ms, pq in ((11, [1, 2, 3, 4, 5], (1, 5)), (7, [1, 2, 3], (2, 5)), (9, [0, 1, 2, 4], (3, 10))):
        p, q = pq
        clipped = [(max(F(m, n) - F(p, q), F(0)), min(F(m, n) + F(p, q), F(1, 2))) for m in ms]
        assert arcs_module._integer_union(groups([(n, ms, pq)])).segments == (
            helpers.canonical_by_fraction_sort(clipped)), (n, ms, pq)
