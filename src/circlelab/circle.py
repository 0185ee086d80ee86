"""Exact points on the circle of circumference 1.

Every point is stored as its unique rational representative in [0, 1),
kept in lowest terms by ``fractions.Fraction``.  All group operations are
pure and exact, so set-level equality downstream stays decidable.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import gcd
from typing import Iterable, Union

RationalLike = Union[Fraction, int, str]


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, a 'p/q' string, or a Fraction to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    return parse_fraction(value) if isinstance(value, str) else Fraction(value)


def format_fraction(q: Fraction) -> str:
    """Render 'p/q', omitting the denominator when it is 1."""
    return _format_ratio(q.numerator, q.denominator)


def _format_ratio(num: int, den: int) -> str:
    """num/den in lowest terms, den > 0, as format_fraction renders it."""
    try:
        p, q = str(num), str(den)
    except ValueError:  # beyond sys.get_int_max_str_digits(); Decimal prints exact digits
        p, q = str(Decimal(num)), str(Decimal(den))
    return p if q == "1" else f"{p}/{q}"


# Levels whose denominators r**a have more bits than this add each pair over lcm(r1, r2)**a.
# Timed on the duffin-schaeffer series (c/n^a, a = 1, 2 to cap 4096, a = 3 to 2048,
# a = 2 to 65536) with the gcds taken of r, switches from 256 to 1536 bits ran within
# 10 % of each other; 2048 bits ran up to 12 % slower, 4096 bits 10-30 %, and product
# steps alone 1.5-2.3x.  The short per-denominator sums of the measures stay below it.
_LCM_BITS = 1024


def _sum_ratios(pairs: Iterable[tuple[int, int]], a: int = 1) -> tuple[int, int]:
    """Exact sum of p/r**a over integer pairs (p, r) with r > 0, as an unreduced pair (p, r) read the same way.

    Neighbours are added level by level in a balanced tree, so the
    operands of each product are of equal size (binary splitting), where a
    running sum would run one gcd on a growing denominator per term.  A
    level of small denominators adds pairs as (p1*r2**a + p2*r1**a, r1*r2),
    or (p1 + p2, r) over a shared r, without reducing.  Past _LCM_BITS a
    level adds them over lcm(r1, r2) instead, which keeps each node near
    the size of the reduced sum: for the totient series at cap 4096 and
    a = 2, about 12 kbit instead of 48.  Its gcds are of r, a times
    shorter than r**a.  Callers reduce the result once.
    """
    level = list(pairs)
    while len(level) > 1:
        odd_one_out = level[-1:] if len(level) & 1 else []
        it = iter(level)
        if level[0][1].bit_length() * a > _LCM_BITS:
            level = [_add_over_lcm(p1, r1, p2, r2, a) for (p1, r1), (p2, r2) in zip(it, it)]
        elif a == 1:  # the step below with no powers, which cost the short sums a quarter more
            level = [
                (p1 + p2, q1) if q1 == q2 else (p1 * q2 + p2 * q1, q1 * q2)
                for (p1, q1), (p2, q2) in zip(it, it)
            ]
        else:
            level = [
                (p1 + p2, r1) if r1 == r2 else (p1 * r2**a + p2 * r1**a, r1 * r2)
                for (p1, r1), (p2, r2) in zip(it, it)
            ]
        level += odd_one_out
    return level[0] if level else (0, 1)


def _add_over_lcm(p1: int, r1: int, p2: int, r2: int, a: int) -> tuple[int, int]:
    """p1/r1**a + p2/r2**a as (p1*(r2/g)**a + p2*(r1/g)**a, r1/g*r2), read the same way, with g = gcd(r1, r2)."""
    g = gcd(r1, r2)
    r1 //= g
    return p1 * (r2 // g) ** a + p2 * r1**a, r1 * r2


_LONG_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")

# Fraction('1e30000000') computes 10**30000000 in full, for minutes; larger exponents are refused,
# and this one is the number of digits that int() reads by default
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][+-]?([0-9_]+)$")


def parse_fraction(text: str, name: str = "value") -> Fraction:
    """Read what format_fraction writes, or any other literal that Fraction accepts with an exponent of
    magnitude at most _MAX_EXPONENT."""
    if not isinstance(text, str):
        raise ValueError(f"{name} must be a string such as '1/4', got {text!r}")
    text = text.strip()
    exponent = _EXPONENT.search(text)
    if exponent is not None:
        digits = exponent[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or "0") > _MAX_EXPONENT:
            raise ValueError(f"{name} has an exponent above {_MAX_EXPONENT} in magnitude")
    try:
        return Fraction(text)
    except ValueError:
        # past sys.get_int_max_str_digits() int() refuses p/q; Decimal reads exact digits
        match = _LONG_RATIONAL.fullmatch(text)
        if match is None:
            raise
        num, den = match.groups()
        return Fraction(int(Decimal(num)), int(Decimal(den or "1")))


# int() reads a string of up to this many digits whatever sys.set_int_max_str_digits allows
_INT_DIGITS = 640


def parse_ratio(text: str, name: str = "value") -> tuple[int, int]:
    """parse_fraction(text, name) as an integer pair (p, q), q > 0, not always reduced.

    A plain 'p' or 'p/q' of ASCII digits, short enough for int(), with q
    nonzero, is read by int() alone; every other value goes through
    parse_fraction, so the values accepted and the errors raised are its own.
    """
    if isinstance(text, str) and len(text) <= _INT_DIGITS and text.isascii():
        p, slash, q = text.partition("/")
        if p.isdigit() and (q.isdigit() or not slash):
            den = int(q) if slash else 1
            if den:
                return int(p), den
    return parse_fraction(text, name).as_integer_ratio()


def parse_json(text: str) -> object:
    """json.loads, with input nested too deeply for the decoder raised as a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


@dataclass(frozen=True, order=True)
class CirclePoint:
    """A point of the circle, i.e. a real number taken modulo 1.

    Construction normalizes any rational input to the representative in
    [0, 1); ``CirclePoint(Fraction(7, 3))`` equals ``CirclePoint(Fraction(1, 3))``.
    Immutable; safe to share.
    """

    value: Fraction

    def __post_init__(self) -> None:
        v = as_fraction(self.value)
        object.__setattr__(self, "value", v if 0 <= v.numerator < v.denominator else v % 1)

    def norm(self) -> Fraction:
        """Distance to the nearest integer; lies in [0, 1/2]."""
        return min(self.value, 1 - self.value)

    def order(self) -> int:
        """Least k >= 1 with k * self == zero, i.e. the reduced denominator."""
        return self.value.denominator

    def dist_to_order(self, n: int) -> Fraction:
        """Distance to the nearest reduced fraction with denominator exactly n.

        For n == 1 the only candidate is the zero point.
        """
        if n < 1:
            raise ValueError(f"order must be a positive integer, got {n}")
        return Fraction(self._dist_num(n), self.value.denominator * n)

    def _dist_num(self, n: int) -> int:
        """dist_to_order(n) times v*n for self = u/v in lowest terms and n >= 1.

        Walks down from floor(x*n) and up from floor(x*n) + 1 to the nearest
        numerators coprime to n; the nearer of the two is the answer.
        """
        u, v = self.value.as_integer_ratio()
        un = u * n
        below = un // v
        above = below + 1
        while gcd(below, n) != 1:
            below -= 1
        while gcd(above, n) != 1:
            above += 1
        return min(un - below * v, above * v - un)

    def __add__(self, other: "CirclePoint") -> "CirclePoint":
        if not isinstance(other, CirclePoint):
            return NotImplemented
        return CirclePoint(self.value + other.value)

    def __neg__(self) -> "CirclePoint":
        return CirclePoint(-self.value)

    def __sub__(self, other: "CirclePoint") -> "CirclePoint":
        if not isinstance(other, CirclePoint):
            return NotImplemented
        return CirclePoint(self.value - other.value)

    def __rmul__(self, k: int) -> "CirclePoint":
        if not isinstance(k, int):
            return NotImplemented
        return CirclePoint(k * self.value)

    def __str__(self) -> str:
        return f"[{format_fraction(self.value)}]"


ZERO_POINT = CirclePoint(Fraction(0))


def circle_point(value: RationalLike) -> CirclePoint:
    """Convenience constructor accepting ints, 'p/q' strings, and Fractions."""
    return CirclePoint(as_fraction(value))
