import pickle
import random
from itertools import combinations
from math import gcd

import pytest
import sympy

from circlelab import (
    All,
    DivBySquare,
    ExactlyOnce,
    NotDiv,
    Or,
    is_prime,
    parse_predicate,
    totient,
    totient_range,
)
from circlelab.numtheory import factorize, prime_factors, smallest_prime_factors


def test_totient_examples():
    assert totient(5) == 4
    assert totient(1) == 1
    # brute-force gcd count
    assert totient(12) == sum(1 for m in range(1, 13) if gcd(m, 12) == 1) == 4


def test_totient_against_sympy():
    for n in range(1, 400):
        assert totient(n) == sympy.totient(n)


def test_totient_range_matches_pointwise():
    phi = totient_range(5000)
    assert phi[0] == 0
    for n in range(1, 5001):
        assert phi[n] == totient(n)
    assert totient_range(1) == [0, 1]
    assert totient_range(2) == [0, 1, 1]
    assert totient_range(3) == [0, 1, 1, 2]
    assert totient_range(4) == [0, 1, 1, 2, 2]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31, 47, 53])
def test_totient_range_at_prime_squares(p):
    """A limit of p**2, p**2 - 1 or p**2 + 1 for a prime p: the sieve's largest factor, just in range or not."""
    for limit in (p * p - 1, p * p, p * p + 1):
        phi = totient_range(limit)
        assert phi == [0] + [totient(n) for n in range(1, limit + 1)]
    assert totient_range(p * p)[p * p] == p * (p - 1)
    assert totient_range(p**3)[p**3] == p * p * (p - 1)


def test_smallest_prime_factors_match_factorize():
    spf = smallest_prime_factors(10**4)
    assert spf[:2] == [0, 1] and len(spf) == 10**4 + 1
    for n in range(2, 10**4 + 1):
        primes = sorted(factorize(n))
        assert spf[n] == primes[0], n
        assert list(prime_factors(n, spf)) == primes, n
    assert list(prime_factors(1, spf)) == []
    assert smallest_prime_factors(1) == [0, 1]
    assert smallest_prime_factors(4) == [0, 1, 2, 3, 2]


@pytest.mark.parametrize("limit", [1, 2, 3, 4, 97, 1000])
def test_totient_range_against_sympy(limit):
    assert totient_range(limit) == [0] + [sympy.totient(n) for n in range(1, limit + 1)]


def test_totient_multiplicative():
    pairs = [(m, n) for m in range(1, 60) for n in range(1, 60) if gcd(m, n) == 1]
    for m, n in pairs:
        assert totient(m * n) == totient(m) * totient(n)
    rng = random.Random(3)
    checked = 0
    while checked < 200:
        m, n = rng.randint(1, 500), rng.randint(1, 500)
        if gcd(m, n) == 1:
            assert totient(m * n) == totient(m) * totient(n)
            checked += 1


def test_totient_rejects_nonpositive():
    with pytest.raises(ValueError):
        totient(0)
    with pytest.raises(ValueError):
        totient_range(0)


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    for n in range(-3, 2000):
        assert is_prime(n) == sympy.isprime(n), n


# -- predicates -------------------------------------------------------------------


def test_predicate_examples():
    assert ExactlyOnce(3)(12) is True
    assert ExactlyOnce(2)(12) is False
    assert NotDiv(5)(12) is True
    assert All()(1) is True
    assert DivBySquare(2)(12) is True
    assert Or(NotDiv(2), DivBySquare(2))(4) is True
    assert Or(NotDiv(2), DivBySquare(2))(6) is False


def test_predicates_partition():
    primes = [p for p in range(2, 51) if is_prime(p)]
    for p in primes:
        a, b, c = NotDiv(p), ExactlyOnce(p), DivBySquare(p)
        for n in range(1, 10_001):
            assert a(n) + b(n) + c(n) == 1


def test_predicates_require_prime():
    for cls in (NotDiv, ExactlyOnce, DivBySquare):
        with pytest.raises(ValueError):
            cls(4)
        with pytest.raises(ValueError):
            cls(1)


def test_predicate_primes_above_10_to_the_12_are_refused_before_factorising():
    # trial division would run to sqrt(p), about 10**9 steps for this prime near 10**18
    with pytest.raises(ValueError, match=r"^a predicate prime must be at most 10\*\*12, got 1000000000000000003$"):
        parse_predicate("ndvd:1000000000000000003")
    for cls in (NotDiv, ExactlyOnce, DivBySquare):
        with pytest.raises(ValueError, match=r"at most 10\*\*12"):
            cls(10**12 + 39)  # prime, but above the bound
    assert parse_predicate("sq:999999999989") == DivBySquare(999999999989)  # the largest prime below it


def test_predicate_text_round_trip():
    for pred, text in (
        (All(), "All()"),
        (NotDiv(3), "NotDiv(p=3)"),
        (ExactlyOnce(2), "ExactlyOnce(p=2)"),
        (DivBySquare(5), "DivBySquare(p=5)"),
        (Or(NotDiv(2), DivBySquare(3)), "Or(left=NotDiv(p=2), right=DivBySquare(p=3))"),
        (Or(Or(NotDiv(2), ExactlyOnce(3)), DivBySquare(5)),
         "Or(left=Or(left=NotDiv(p=2), right=ExactlyOnce(p=3)), right=DivBySquare(p=5))"),
    ):
        parsed, unpickled = parse_predicate(str(pred)), pickle.loads(pickle.dumps(pred))
        assert parsed == unpickled == pred and hash(parsed) == hash(unpickled) == hash(pred)
        assert type(parsed) is type(unpickled) is type(pred)
        assert repr(parsed) == repr(unpickled) == repr(pred) == text
    # the kinds of one prime are unequal, and so are the primes of one kind
    kinds = [NotDiv(3), ExactlyOnce(3), DivBySquare(3), NotDiv(5)]
    assert all(a != b for a, b in combinations(kinds, 2))
    assert [str(pred) for pred in kinds] == ["ndvd:3", "exact:3", "sq:3", "ndvd:5"]


def test_parse_predicate_rejects_garbage():
    for bad in ("nope", "ndvd:", "ndvd:x", "or(all)", "or(all,", ""):
        with pytest.raises(ValueError):
            parse_predicate(bad)
