"""Approximate-order sets and their truncated tail unions.

The set of points of approximate order n (up to distance delta) is the
thickening of the finitely many order-n points of the circle: for small
delta it is totient(n) disjoint arcs of length 2*delta.  The
well-approximable set at truncation is the union of these over an index
range filtered by a divisibility predicate.  Infinite limsups are never
materialised; callers work with the monotone family of truncations plus
the subadditive upper bound.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, repeat
from math import gcd
from operator import mul
from typing import Iterable, Iterator, Sequence

from .arcs import (
    ArcSet,
    _affine_groups,
    _integer_union,
    _mirrored,
    _packed_half_thickenings,
    _packed_measure,
    _packed_union,
    _Table,
    _thickening_groups,
    _union_within,
)
from .circle import CirclePoint, RationalLike, as_fraction, format_fraction, parse_fraction, parse_json
from .numtheory import DivBySquare, ExactlyOnce, IndexPredicate, NotDiv
from .numtheory import factorize, prime_factors, smallest_prime_factors


# -- radius sequences ---------------------------------------------------------


class DeltaSequence:
    """A radius sequence delta_1, delta_2, ...: a kind gives delta_n only through ratios(lo, hi).

    nonincreasing (its full terms are a prefix of any range), divergent (of the series of
    totient(n)*delta_n, None if unknown) and last_positive (the last n with delta_n > 0, 0 if
    there is none and None if there is no last) answer what callers would otherwise ask of its type.
    """

    nonincreasing = True
    last_positive = None

    def eval_at(self, n: int) -> Fraction:
        (p, q), = self.ratios(n, n + 1)
        return Fraction(p, q)


@dataclass(frozen=True)
class Power(DeltaSequence):
    """delta_n = coeff / n**exponent, with coeff > 0 and exponent >= 0."""

    coeff: Fraction
    exponent: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeff", as_fraction(self.coeff))
        if self.coeff <= 0:
            raise ValueError(f"power-law coefficient must be positive, got {self.coeff}")
        if self.exponent < 0:
            raise ValueError(f"power-law exponent must be >= 0, got {self.exponent}")

    @property
    def divergent(self) -> bool:
        return self.exponent <= 2

    def ratios(self, lo: int, hi: int) -> Iterator[tuple[int, int]]:
        """delta_n for lo <= n < hi as unreduced pairs (p, q), q > 0, made as they are read."""
        _check_index(lo)
        p, d = self.coeff.as_integer_ratio()
        return zip(repeat(p), map(mul, repeat(d), map(pow, range(lo, hi), repeat(self.exponent))))

    def scale(self, m: RationalLike) -> "Power":
        return Power(self.coeff * as_fraction(m), self.exponent)

    def __str__(self) -> str:
        return f"power:{format_fraction(self.coeff)}:{self.exponent}"


@dataclass(frozen=True)
class Constant(DeltaSequence):
    """delta_n = value for every n; the value may be <= 0 (empty thickenings)."""

    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", as_fraction(self.value))

    @property
    def divergent(self) -> bool:
        return self.value > 0  # a non-positive constant gives the zero series

    @property
    def last_positive(self) -> int | None:
        return None if self.value > 0 else 0

    def ratios(self, lo: int, hi: int) -> Iterator[tuple[int, int]]:
        """delta_n for lo <= n < hi as pairs (p, q), q > 0."""
        _check_index(lo)
        return repeat(self.value.as_integer_ratio(), hi - lo)

    def scale(self, m: RationalLike) -> "Constant":
        return Constant(self.value * as_fraction(m))

    def __str__(self) -> str:
        return f"const:{format_fraction(self.value)}"


@dataclass(frozen=True)
class Table(DeltaSequence):
    """Explicitly tabulated radii delta_1, delta_2, ...; out of range is 0."""

    values: tuple[Fraction, ...]
    nonincreasing = False
    divergent = None  # no almost-everywhere claim is made from finite data

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(as_fraction(v) for v in self.values))

    @property
    def last_positive(self) -> int:
        return next((n for n in range(len(self.values), 0, -1) if self.values[n - 1] > 0), 0)

    def ratios(self, lo: int, hi: int) -> Iterator[tuple[int, int]]:
        """delta_n for lo <= n < hi as pairs (p, q), q > 0; (0, 1) past the table."""
        _check_index(lo)
        listed = map(Fraction.as_integer_ratio, self.values[lo - 1:hi - 1])
        return chain(listed, repeat((0, 1), hi - max(lo, len(self.values) + 1)))

    def scale(self, m: RationalLike) -> "Table":
        f = as_fraction(m)
        return Table(tuple(v * f for v in self.values))

    def __str__(self) -> str:
        return "table:" + ",".join(format_fraction(v) for v in self.values)


def _check_index(n: int) -> None:
    if n < 1:
        raise ValueError(f"sequence index must be >= 1, got {n}")


def delta_from_json_dict(data: dict) -> DeltaSequence:
    kind = data.get("kind") if isinstance(data, dict) else None
    fields = {"power": ("c", "a"), "constant": ("c",), "table": ("values",)}.get(kind)
    if fields is None:
        raise ValueError(f"delta JSON needs 'kind' power, constant or table, got {kind!r}")
    if not all(name in data for name in fields):
        raise ValueError(f"a {kind} delta needs {' and '.join(map(repr, fields))}")
    if kind == "power":
        a = data["a"]
        if type(a) is str:
            try:
                a = int(a)
            except ValueError:
                pass  # still a str: refused below
        if type(a) is not int:
            raise ValueError(f"'a' must be an integer, got {data['a']!r}")
        return Power(parse_fraction(data["c"], "'c'"), a)
    if kind == "constant":
        return Constant(parse_fraction(data["c"], "'c'"))
    if not isinstance(data["values"], list):
        raise ValueError(f"'values' must be a list, got {data['values']!r}")
    return Table(tuple(parse_fraction(v, f"values[{i}]") for i, v in enumerate(data["values"])))


def parse_delta(text: str) -> DeltaSequence:
    """Parse either the JSON form or the inline form power:c:a | const:c | table:v1,v2,..."""
    text = text.strip()
    if text.startswith("{"):
        return delta_from_json_dict(parse_json(text))
    kind, sep, rest = text.partition(":")
    if sep:
        if kind == "power":
            c, _, a = rest.partition(":")
            c = parse_fraction(c)
            try:
                a = int(a)
            except ValueError:
                raise ValueError(f"cannot parse delta sequence: {text!r}") from None
            return Power(c, a)
        if kind in ("const", "constant"):
            return Constant(parse_fraction(rest))
        if kind == "table":
            return Table(tuple(parse_fraction(v) for v in rest.split(",")))
    raise ValueError(f"cannot parse delta sequence: {text!r}")


# -- approximate-order sets ----------------------------------------------------


# the largest order whose arcs are written below radius 1/2: on a shared 2-core host, ao --radius
# 1/4000000000000000 took 21 s and 1.1 GB at the prime 2**20 - 3, 40 s and 2.2 GB at 2**22 (a prime: twice)
MAX_AO_ORDER = 2**20


def finite_order_points(n: int) -> list[CirclePoint]:
    """The totient(n) points of order exactly n, sorted: reduced fractions m/n."""
    if n < 1:
        raise ValueError(f"order must be a positive integer, got {n}")
    if n > MAX_AO_ORDER:
        raise ValueError(f"order must be at most 2**20, got {n}")
    return [CirclePoint(Fraction(m, n)) for m in _coprime_residues(n)]


def _coprime_residues(n: int, stop: int | None = None, primes: Iterable[int] | None = None) -> list[int]:
    """The m in [0, stop) coprime to n, stop = n unless given, sieved by the primes that divide n,
    factorize(n) unless given; a list, so arcs._half_circle_groups can bisect it and count a term's arcs."""
    stop = n if stop is None else stop
    mask = bytearray(b"\x01") * stop
    for p in factorize(n) if primes is None else primes:
        mask[::p] = bytes(-(-stop // p))
    return list(compress(range(stop), mask))


def _half_arcs(term_lists: Sequence[list]) -> tuple[list[list[int]], _Table]:
    """The arcs of each list of terms (n, (p, q)) of _tail_terms clipped to [0, 1/2), packed and sorted, and
    their table (see arcs._packed_half_thickenings).

    The residues of an index are the m coprime to n in [0, n // 2], those of
    the centres m/n in [0, 1/2], the only arcs that tail unions and their
    measures write.  They are sieved once per index, for all the lists,
    by the primes of n from one table of smallest prime factors up to the
    largest n.
    """
    spf = smallest_prime_factors(max((n for terms in term_lists for n, _ in terms), default=1))
    return _packed_half_thickenings(term_lists, lambda n: _coprime_residues(n, n // 2 + 1, prime_factors(n, spf)))


def approx_order_set(n: int, delta: RationalLike) -> ArcSet:
    """Thickening of the order-n points by delta: the tail union over the one index n at radius delta.

    For 0 < delta < 1/(2n) this is totient(n) disjoint arcs of length
    2*delta, total measure 2*totient(n)*delta.
    """
    return _integer_union(_ao_groups(n, as_fraction(delta)))


def _ao_groups(n: int, delta: Fraction) -> list[tuple]:
    """The arcs of approx_order_set(n, delta) as groups of the writer (see arcs._keyed_pieces): none for
    delta <= 0, and for 2*delta >= 1 the one arc [-1/2, 1/2) that _tail_terms writes for a full term."""
    if n < 1:
        raise ValueError(f"order must be a positive integer, got {n}")
    if delta <= 0:
        return []
    if 2 * delta >= 1:
        return _thickening_groups([(1, [0], (1, 2))])
    if n > MAX_AO_ORDER:
        raise ValueError(f"order must be at most 2**20 for a radius below 1/2, got {n}")
    return _thickening_groups([(n, _coprime_residues(n), delta.as_integer_ratio())])


@dataclass(frozen=True)
class TailUnionSpec:
    """Finite truncation of a predicate-bounded tail of approximate-order sets."""

    n_min: int
    n_max: int
    pred: IndexPredicate
    delta: DeltaSequence

    def __post_init__(self) -> None:
        if self.n_min < 1:
            raise ValueError(f"n_min must be >= 1, got {self.n_min}")
        if self.n_min > self.n_max:
            raise ValueError(f"need n_min <= n_max, got [{self.n_min}, {self.n_max}]")


def _tail_terms(
    pred: IndexPredicate, delta: DeltaSequence, n_mins: Sequence[int], n_max: int
) -> tuple[int, list]:
    """The last index in [min(n_mins), n_max] whose term is the full circle (or 0), and the
    terms from n_max down to it, from the lowest start that lies above it for a nonincreasing delta.

    Checks the lowest and the highest start first, as TailUnionSpec does.  The
    terms are (n, (p, q)) for the n with pred(n), where p/q = delta_n, reduced,
    with q > 0; each caller picks the residues m of its arcs.  The radii are read
    from delta.ratios down from n_max, or from delta.last_positive if lower, a
    block at a time: a term with p <= 0 is empty and left out, and one with
    2*p >= q is the full circle, so every tail union from a start up to its
    index is full; the highest such term comes last, as (1, (1, 2)), whose one
    arc [-1/2, 1/2) is the full circle.  A term with 0 < 2*p < q above
    MAX_AO_ORDER is refused, before any residue is sieved.
    """
    if not n_mins:
        raise ValueError("no start n_min given")
    for n_min in sorted({min(n_mins), max(n_mins)}):
        TailUnionSpec(n_min, n_max, pred, delta)
    full = 0
    if delta.nonincreasing:
        # the full terms of a nonincreasing delta are a prefix of the range
        indices = range(min(n_mins), n_max + 1)
        prefix = indices[:bisect_left(indices, True, key=lambda n: _is_partial(delta, n))]
        full = next((n for n in reversed(prefix) if pred(n)), 0)
    first = min((s for s in n_mins if s > full), default=n_max + 1)
    top = n_max if delta.last_positive is None else min(n_max, delta.last_positive)
    terms = []
    for n, (p, q) in _descending_radii(delta, first, top):
        if p <= 0 or not pred(n):
            continue
        if 2 * p >= q:  # only a Table's term can be full here
            full = n
            break
        if n > MAX_AO_ORDER:
            raise ValueError(f"index must be at most 2**20 for a radius below 1/2, got {n}")
        g = gcd(p, q)
        terms.append((n, (p // g, q // g)))
    if full:
        terms.append((1, (1, 2)))
    return full, terms


def _descending_radii(delta: DeltaSequence, lo: int, hi: int) -> Iterator[tuple[int, tuple[int, int]]]:
    """(n, (p, q)) from delta.ratios for n from hi down to lo, read 4096 indices at a time, so that a
    range far above MAX_AO_ORDER is refused with no list of its radii."""
    for top in range(hi, lo - 1, -4096):
        bottom = max(lo, top - 4095)
        yield from zip(range(top, bottom - 1, -1), reversed(list(delta.ratios(bottom, top + 1))))


def _is_partial(delta: DeltaSequence, n: int) -> bool:
    """Whether 2 * delta_n < 1, read from the integer pair of delta.ratios with no Fraction."""
    (p, q), = delta.ratios(n, n + 1)
    return 2 * p < q


def tail_union(spec: TailUnionSpec) -> ArcSet:
    """Union of the order-i points thickened by delta_i over n_min <= i <= n_max with pred(i).

    The union is its own mirror image under y -> -y, so only its part in
    [0, 1/2) is written: the arcs around m/n with m <= n/2, clipped to
    [0, 1/2) and packed as in tail_union_measures, go into one sort and one
    merge (arcs._packed_union), and the merged half is mirrored
    (arcs._mirrored).  The result keeps its half, and booleans, symmetric
    differences and inclusions of two such unions run on their halves.  A
    term with delta_i <= 0 is empty, and one with 2*delta_i >= 1 is the
    full circle, written as one arc like any other term.  approx_order_set
    is the case of one index at a constant radius.
    """
    _, terms = _tail_terms(spec.pred, spec.delta, [spec.n_min], spec.n_max)
    (items,), table = _half_arcs([terms])
    return _mirrored(ArcSet._trusted(_packed_union(items, table)))


def tail_union_measures(
    pred: IndexPredicate, delta: DeltaSequence, n_mins: Sequence[int], n_max: int
) -> list[Fraction]:
    """The measure of the tail union over [N, n_max] for each start N in n_mins.

    Each union W is its own mirror image, so mu(W) = 2 mu(W & [0, 1/2)): only
    the arcs around m/n with m <= n/2 are written, clipped to [0, 1/2) and
    packed one integer per arc (see _half_arcs), and sorted once.  For each
    start, one walk takes the arcs of indices >= N in that order: their
    total width, in closed form per row, less the parts where they overlap
    (see arcs._packed_measure).  No merged or filtered list is built.
    """
    full, terms = _tail_terms(pred, delta, n_mins, n_max)
    starts = [n_min for n_min in n_mins if n_min > full]
    first = min(starts, default=n_max + 1)
    (items,), table = _half_arcs([[t for t in terms if t[0] >= first]])
    measures = {s: 2 * _packed_measure(items, table, lambda _, n, s=s: n >= s) for s in starts}
    return [measures.get(n_min, Fraction(1)) for n_min in n_mins]


def scaled_tail_union_comparison(
    pred: IndexPredicate, delta: DeltaSequence, scale: Fraction, n_min: int, n_max: int
) -> tuple[Fraction, Fraction, Fraction, bool, bool]:
    """The tail unions W1 at radii delta_n and Wm at radii scale*delta_n over [n_min, n_max]:
    their measures, the measure of their symmetric difference, W1 <= Wm and Wm <= W1.

    The arcs of each union, a full term's one arc among them, are clipped
    to [0, 1/2) and packed as in tail_union_measures, with one table and one
    sieve per index for both, sorted once and measured without merging (see
    arcs._packed_measure), and W1 | Wm, a mirror image of itself too, from
    the two sorted lists together; each measure is doubled, and the rest
    follows from the three.
    """
    _, t1 = _tail_terms(pred, delta, [n_min], n_max)
    _, tm = _tail_terms(pred, delta.scale(scale), [n_min], n_max)
    (i1, im), table = _half_arcs([t1, tm])
    mu_1 = 2 * _packed_measure(i1, table, lambda i, _: i == 0)
    mu_m = 2 * _packed_measure(im, table, lambda i, _: i == 1)
    mu_both = 2 * _packed_measure(sorted(i1 + im), table, lambda i, _: True)  # Timsort merges the two runs
    return mu_1, mu_m, 2 * mu_both - mu_1 - mu_m, mu_both == mu_m, mu_both == mu_1


# -- scaling/translation inclusion checks ----------------------------------------

# Each check realises one exactly-verifiable containment between
# approximate-order sets and must return True on every valid input; they
# are exposed as self-checks over the arc algebra, on integer arcs (arcs._union_within).


def check_inclusion_i(m: int, n: int, delta: RationalLike) -> bool:
    """m * AO(n, delta) inside AO(n, m*delta), for coprime m, n: AO(n, delta)'s arcs times m among AO(n, m*delta)'s."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if gcd(m, n) != 1:
        raise ValueError(f"m={m} and n={n} must be coprime")
    d = as_fraction(delta)
    return _union_within(_affine_groups(_ao_groups(n, d), m, 0, 1), _ao_groups(n, m * d))


def check_inclusion_ii(m: int, n: int, delta: RationalLike) -> bool:
    """m * AO(n*m, delta) inside AO(n, m*delta): AO(n*m, delta)'s arcs times m among AO(n, m*delta)'s."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    d = as_fraction(delta)
    return _union_within(_affine_groups(_ao_groups(n * m, d), m, 0, 1), _ao_groups(n, m * d))


def check_inclusion_iii(a: CirclePoint, n: int, delta: RationalLike) -> bool:
    """a + AO(n, delta) inside AO(order(a)*n, delta), for order(a) coprime to n: AO(n, delta)'s arcs moved by a."""
    if n < 1:
        raise ValueError("n must be positive")
    q = a.order()
    if gcd(q, n) != 1:
        raise ValueError(f"order(a)={q} and n={n} must be coprime")
    d = as_fraction(delta)
    return _union_within(_affine_groups(_ao_groups(n, d), 1, *a.value.as_integer_ratio()), _ao_groups(q * n, d))


def check_inclusion_iv(a: CirclePoint, n: int, delta: RationalLike) -> bool:
    """a + AO(n, delta) equals AO(n, delta) exactly, when order(a)**2 divides n.

    Decided as the translate's inclusion in AO(n, delta), as is_invariant decides invariance: it has the
    same measure, and a nonempty difference of half-open sets has positive measure, so it is equality.
    """
    if n < 1:
        raise ValueError("n must be positive")
    q = a.order()
    if n % (q * q) != 0:
        raise ValueError(f"order(a)**2 = {q * q} must divide n = {n}")
    s = _ao_groups(n, as_fraction(delta))
    return _union_within(_affine_groups(s, 1, *a.value.as_integer_ratio()), s)


def gallagher_decomposition(
    p: int, n_min: int, n_max: int, delta: DeltaSequence
) -> tuple[ArcSet, ArcSet, ArcSet]:
    """Split the truncated well-approximable set by divisibility at a prime p.

    Returns (A, B, C): the tail unions over indices with p not dividing n,
    p dividing n exactly once, and p**2 dividing n.  Their union is exactly
    the unfiltered tail union over the same range, since the three
    predicates partition the positive integers.
    """
    a = tail_union(TailUnionSpec(n_min, n_max, NotDiv(p), delta))
    b = tail_union(TailUnionSpec(n_min, n_max, ExactlyOnce(p), delta))
    c = tail_union(TailUnionSpec(n_min, n_max, DivBySquare(p), delta))
    return a, b, c
