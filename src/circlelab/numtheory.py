"""Integer helpers: totient, primality, and divisibility predicates.

The predicates of one prime p, ``ndvd:p``, ``exact:p`` and ``sq:p``, share
a private frozen base that holds p, checks it prime and at most 10**12,
and renders ``name:p``; each kind adds only its name and its test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import isqrt
from typing import ClassVar, Iterator


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation by trial division; desk scale (n <= 10**6)."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    out: dict[int, int] = {}
    while n % 2 == 0:
        out[2] = out.get(2, 0) + 1
        n //= 2
    p = 3
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def totient(n: int) -> int:
    """Count of 1 <= m <= n coprime to n."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    out = n
    for p in factorize(n):
        out = (out // p) * (p - 1)
    return out


def smallest_prime_factors(limit: int) -> list[int]:
    """spf[n], the smallest prime factor of n, for 2 <= n <= limit; spf[0] = 0 and spf[1] = 1.

    Written a slice per p <= sqrt(limit) from the largest p down, so that
    each n keeps the smallest p that divides it.
    """
    spf = list(range(limit + 1))
    for p in range(isqrt(limit), 1, -1):
        spf[p * p::p] = [p] * len(range(p * p, limit + 1, p))
    return spf


def prime_factors(n: int, spf: list[int]) -> Iterator[int]:
    """The distinct primes that divide n, in increasing order, read from a table of smallest prime factors."""
    while n > 1:
        p = spf[n]
        yield p
        while n % p == 0:
            n //= p


def totient_range(limit: int) -> list[int]:
    """Sieve phi(0..limit); phi[0] is 0 by convention.

    The table of smallest prime factors gives phi(n) = phi(m) * (p or p - 1)
    for n = p*m, by whether p divides m.
    """
    if limit < 1:
        raise ValueError(f"expected a positive limit, got {limit}")
    spf = smallest_prime_factors(limit)
    phi = [0, 1] + [0] * (limit - 1)
    for n in range(2, limit + 1):
        p = spf[n]
        m = n // p
        phi[n] = phi[m] * (p if m % p == 0 else p - 1)
    return phi


class IndexPredicate:
    """Divisibility-shaped predicate on positive integers; see subclasses."""

    def __call__(self, n: int) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class All(IndexPredicate):
    def __call__(self, n: int) -> bool:
        return True

    def __str__(self) -> str:
        return "all"


@dataclass(frozen=True)
class _PrimePredicate(IndexPredicate):
    """A predicate of one prime p, written ``name:p``; the subclasses add only name and __call__."""

    p: int
    name: ClassVar[str]

    def __post_init__(self) -> None:
        # trial division runs to sqrt(p): about 0.1 s at 10**12, over a minute at 10**18
        if self.p > 10**12:
            raise ValueError(f"a predicate prime must be at most 10**12, got {self.p}")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def __str__(self) -> str:
        return f"{self.name}:{self.p}"


class NotDiv(_PrimePredicate):
    """True when p does not divide n."""

    name = "ndvd"

    def __call__(self, n: int) -> bool:
        return n % self.p != 0


class ExactlyOnce(_PrimePredicate):
    """True when p divides n exactly once (p | n and p**2 does not)."""

    name = "exact"

    def __call__(self, n: int) -> bool:
        return n % self.p == 0 and n % (self.p * self.p) != 0


class DivBySquare(_PrimePredicate):
    """True when p**2 divides n."""

    name = "sq"

    def __call__(self, n: int) -> bool:
        return n % (self.p * self.p) == 0


@dataclass(frozen=True)
class Or(IndexPredicate):
    left: IndexPredicate
    right: IndexPredicate

    def __call__(self, n: int) -> bool:
        return self.left(n) or self.right(n)

    def __str__(self) -> str:
        return f"or({self.left},{self.right})"


def parse_predicate(text: str) -> IndexPredicate:
    """Parse the textual predicate form all | ndvd:p | exact:p | sq:p | or(a,b), <= 64 deep."""
    if max(accumulate((ch == "(") - (ch == ")") for ch in text), default=0) > 64:
        raise ValueError("predicate nests more than 64 levels deep")
    text = text.strip()
    if text == "all":
        return All()
    if text.startswith("or(") and text.endswith(")"):
        inner = text[3:-1]
        depth = 0
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                return Or(parse_predicate(inner[:i]), parse_predicate(inner[i + 1:]))
        raise ValueError(f"malformed or-predicate: {text!r}")
    kind, sep, arg = text.partition(":")
    if sep:
        try:
            p = int(arg)
        except ValueError:
            raise ValueError(f"bad predicate argument in {text!r}") from None
        for cls in (NotDiv, ExactlyOnce, DivBySquare):
            if kind == cls.name:
                return cls(p)
    raise ValueError(f"unknown predicate: {text!r}")
