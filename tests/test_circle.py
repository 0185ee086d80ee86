import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from circlelab import CirclePoint, Power, circle_point, format_fraction, parse_fraction, totient_range
from circlelab import circle as circle_module
from helpers import dist_to_order_scan, partial_sums_sequential, rand_fraction

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=60)
small_orders = st.integers(min_value=1, max_value=40)


def test_normalization():
    assert circle_point("7/3").value == Fraction(1, 3)
    assert circle_point(0).value == 0
    assert circle_point("-1/4").value == Fraction(3, 4)
    assert circle_point(Fraction(5)).value == 0


def test_norm_examples():
    assert circle_point("3/4").norm() == Fraction(1, 4)
    assert circle_point(0).norm() == 0
    assert circle_point("1/2").norm() == Fraction(1, 2)


def test_order_examples():
    assert circle_point("2/5").order() == 5
    assert circle_point(0).order() == 1
    assert circle_point("6/8").order() == 4


def test_group_op_examples():
    assert circle_point("3/4") + circle_point("1/2") == circle_point("1/4")
    assert 3 * circle_point("2/5") == circle_point("1/5")
    assert -circle_point("1/3") == circle_point("2/3")


def test_dist_to_order_examples():
    assert circle_point("1/2").dist_to_order(3) == Fraction(1, 6)
    assert circle_point("1/4").dist_to_order(4) == 0
    assert circle_point(0).dist_to_order(1) == 0


def test_dist_to_order_scan_oracle():
    # independent scan over the four reduced fifths
    x = Fraction(89, 144)
    expected = min(min((x - Fraction(m, 5)) % 1, (Fraction(m, 5) - x) % 1) for m in (1, 2, 3, 4))
    assert expected == Fraction(13, 720)
    assert circle_point("89/144").dist_to_order(5) == expected


def test_dist_to_order_matches_scan_oracle():
    rng = random.Random(71)
    pairs = [(Fraction(0), n) for n in range(1, 41)] + [(rand_fraction(rng, 60), 1) for _ in range(40)]
    pairs += [(rand_fraction(rng, 200), rng.randint(1, 120)) for _ in range(2000)]
    for x, n in pairs:
        assert circle_point(x).dist_to_order(n) == dist_to_order_scan(x, n), (x, n)


def test_dist_to_order_rejects_bad_n():
    with pytest.raises(ValueError):
        circle_point("1/2").dist_to_order(0)


@given(rationals, rationals)
def test_normalize_is_additive(r, s):
    assert circle_point(r + s) == circle_point(r) + circle_point(s)


@given(rationals, rationals)
def test_norm_symmetry_and_triangle(r, s):
    x, y = circle_point(r), circle_point(s)
    assert x.norm() == (-x).norm()
    assert (x + y).norm() <= x.norm() + y.norm()
    assert 0 <= x.norm() <= Fraction(1, 2)


@given(rationals, st.integers(min_value=1, max_value=20))
def test_order_of_multiple_divides_order(r, k):
    x = circle_point(r)
    assert x.order() % (k * x).order() == 0


@given(rationals, small_orders)
def test_dist_to_order_bound_and_zero_iff_order(r, n):
    x = circle_point(r)
    d = x.dist_to_order(n)
    assert d <= Fraction(1, 2 * n) + Fraction(1, 2)
    assert (d == 0) == (x.order() == n)


def test_dist_to_order_zero_iff_order_bulk():
    rng = random.Random(7)
    for _ in range(100):
        den = rng.randint(1, 30)
        x = circle_point(Fraction(rng.randrange(den), den))
        assert x.dist_to_order(x.order()) == 0


def test_fraction_formatting():
    assert format_fraction(Fraction(1, 2)) == "1/2"
    assert format_fraction(Fraction(3)) == "3"
    assert format_fraction(Fraction(-1, 4)) == "-1/4"
    assert parse_fraction("89/144") == Fraction(89, 144)
    assert parse_fraction("1/1") == 1


def test_parse_fraction_refuses_an_exponent_above_4300_before_computing_it():
    """Fraction would compute 10**N in full; an exponent beyond 4,300 in magnitude is refused at once."""
    t0 = time.process_time()
    for bad in ("1e30000000", " 1E-4301 ", "-2.5e+1_000_000", "1e" + "9" * 5000, "3e0000000004301"):
        with pytest.raises(ValueError, match="exponent above 4300 in magnitude"):
            parse_fraction(bad, "x")
    with pytest.raises(ValueError, match="exponent above 4300"):
        circle_point("1e30000000")
    assert time.process_time() - t0 < 1
    assert parse_fraction("1e4300") == 10**4300 and parse_fraction("-1e-4300") == Fraction(-1, 10**4300)
    assert parse_fraction("2.5E-0_3") == Fraction(1, 400) and parse_fraction("7e00004300") == 7 * 10**4300
    # no exponent: plain literals of any length, and what Fraction refuses anyway
    assert parse_fraction("1" * 5000 + "/7") == Fraction(int("1" * 4000) * 10**1000 + int("1" * 1000), 7)
    for bad in ("1e", "e5", "1/2e3"):
        with pytest.raises(ValueError):
            parse_fraction(bad)


def test_points_are_hashable_and_ordered():
    pts = {circle_point("1/2"), circle_point("2/4"), circle_point("1/3")}
    assert len(pts) == 2
    assert sorted([circle_point("2/3"), circle_point("1/3")])[0] == circle_point("1/3")


def test_point_str():
    assert str(CirclePoint(Fraction(6, 8))) == "[3/4]"


# -- the exact summation tree -----------------------------------------------------------


def _sum_by_fraction(pairs, a=1) -> Fraction:
    return sum((Fraction(p, q**a) for p, q in pairs), Fraction(0))


def _reduced_sum(pairs, a=1) -> Fraction:
    p, r = circle_module._sum_ratios(pairs, a)
    return Fraction(p, r**a)


# denominator sizes below and above the level size at which pairs are added over their lcm
_SMALL_BITS, _LARGE_BITS = 40, circle_module._LCM_BITS + 100


def _coprime_denominators(k: int, bits: int) -> list[int]:
    """k pairwise-coprime denominators above 2**bits: powers of distinct primes."""
    primes = [p for p in range(2, 1000) if all(p % f for f in range(2, p))][:k]
    return [p ** (bits // (p.bit_length() - 1) + 1) for p in primes]


@pytest.mark.parametrize("bits", [_SMALL_BITS, _LARGE_BITS])
def test_sum_ratios_matches_fraction_sum(bits):
    rng = random.Random(1300 + bits)
    sum_ratios = _reduced_sum
    assert sum_ratios([]) == 0
    q = rng.getrandbits(bits) | 1 << bits
    assert sum_ratios([(-3, q)]) == Fraction(-3, q)
    shared = [(rng.randint(-10**6, 10**6), q) for _ in range(37)]
    coprime = [(rng.randint(-9, 9), d) for d in _coprime_denominators(25, bits)]
    common = rng.getrandbits(bits) | 1  # every denominator shares a large factor
    mixed = [(rng.randint(-10**9, 10**9), common * rng.randint(1, 2**bits)) for _ in range(61)]
    # the totals per denominator that the measures add: signed, cancelling, some sharing factors
    per_den = [(rng.randint(-2**bits, 2**bits), rng.choice((q, common, 1)) * rng.randint(1, 500))
               for _ in range(45)]
    cases = [shared, coprime, mixed, per_den, [(5, 7)] + mixed, mixed + coprime + shared]
    for pairs in cases:
        assert sum_ratios(pairs) == _sum_by_fraction(pairs)
        assert sum_ratios(iter(pairs)) == _sum_by_fraction(pairs)
    assert sum_ratios([(1, q), (-1, q)]) == 0


@pytest.mark.parametrize("a", [2, 3])
@pytest.mark.parametrize("bits", [_SMALL_BITS, _LARGE_BITS // 2])
def test_sum_ratios_of_powers_matches_fraction_sum(bits, a):
    """Pairs (p, r) read as p/r**a: shared, coprime and gcd-sharing r, product and lcm levels both."""
    rng = random.Random(1400 + bits + a)
    r = rng.getrandbits(bits) | 1 << bits
    assert _reduced_sum([(-3, r)], a) == Fraction(-3, r**a)
    assert _reduced_sum([(1, r), (-1, r)], a) == 0
    shared = [(rng.randint(-10**6, 10**6), r) for _ in range(37)]
    coprime = [(rng.randint(-9, 9), d) for d in _coprime_denominators(25, bits)]
    common = rng.getrandbits(bits) | 1
    mixed = [(rng.randint(-10**9, 10**9), common * rng.randint(1, 2**bits)) for _ in range(61)]
    small = [(rng.randint(-50, 50), rng.randint(1, 60)) for _ in range(200)]
    for pairs in [shared, coprime, mixed, small, mixed + coprime + shared]:
        assert _reduced_sum(pairs, a) == _sum_by_fraction(pairs, a)
        assert _reduced_sum(iter(pairs), a) == _sum_by_fraction(pairs, a)
    assert max(r.bit_length() for _, r in mixed) * a * 64 > circle_module._LCM_BITS  # the top levels use the lcm


@pytest.mark.parametrize("a", [1, 2, 3])
def test_sum_ratios_of_totient_blocks_matches_series_oracle(a):
    """The doubling blocks of the totient series to 2^12 sum, block by block, to the running oracle.

    Each block is summed as pairs (phi(n), n) read as phi(n)/n**a, and as pairs (phi(n), n**a) with a = 1.
    """
    phi = totient_range(2**12)
    cutoffs = [2**k for k in range(1, 13)]
    totals, total, lo = [], Fraction(0), 1
    widest = 0
    for cutoff in cutoffs:
        block = [(phi[n], n) for n in range(lo, cutoff + 1)]
        total += _reduced_sum(block, a)
        assert _reduced_sum([(f, n**a) for f, n in block]) == total - (totals[-1] if totals else 0)
        totals.append(total)
        widest = max(widest, sum((n**a).bit_length() for _, n in block))
        lo = cutoff + 1
    assert widest > 4 * circle_module._LCM_BITS  # the top levels of the widest block add over the lcm
    assert totals == partial_sums_sequential(Power(Fraction(1), a), cutoffs)
