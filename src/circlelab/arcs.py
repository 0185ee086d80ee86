"""Finite unions of half-open arcs on the circle, with exact set algebra.

Canonical form
--------------
An :class:`ArcSet` is stored as a sorted tuple of pairwise-disjoint,
non-touching line segments ``(lo, hi)`` with ``0 <= lo < hi <= 1``.  Arcs
that cross the 0/1 seam are split at 0 internally and re-joined only for
presentation (:attr:`ArcSet.arcs`) and JSON output.  Touching segments are
always merged, so the internal form is unique per subset: two ArcSets are
equal as Python values exactly when they denote the same subset of the
circle.

Everything here is half-open ``[a, b)``.  Boundary points are finite sets
of measure zero, so measures and containments computed on the half-open
canonicalisations are exact for the sets of interest.

Exact keys
----------
The one writer that builds ArcSets (below) sorts on integers, never on
Fractions or floats.  The key of an endpoint a/b is ``(a << k) // b``
with ``k = 2 * maxbits + 2``, where every b in play is below
``2 ** maxbits``.  Two distinct such rationals differ by more than
``2 ** -(2 * maxbits)``, so their keys differ and order as the rationals
do; equal rationals, reduced or not, get equal keys.  Boolean operations
on canonical sets need no sort: one sweep over the endpoints of both
operands serves them all, the complement too, which is the full circle
less the set.  The sweep gallops over long runs of one operand's
endpoints, so its cost follows the interleaving of the operands and the
size of the result, not the size of the larger operand.

The sweep and membership compare cached keys first.  Each ArcSet keeps
``floor(x * 2**63)`` of its endpoints x in a flat ``array("Q")``, computed
on the first sweep or lookup that needs it.  Floor is monotone, so
unequal keys order as the endpoints do; only endpoints with equal keys
are compared as Fractions, which settles ties exactly.  Most ties are
shared endpoints, which one exact == settles without ordering them.

Measures and inclusions
-----------------------
On canonical half-open sets, mu(A ^ B) = mu(A) + mu(B) - 2 mu(A & B)
= 2 mu(A | B) - mu(A) - mu(B), and A <= B exactly when mu(A | B) = mu(B),
since a nonempty difference of half-open sets has positive measure.  An
ArcSet caches its measure, so :meth:`ArcSet.symm_diff_measure` sweeps
only for the intersection.  The tail-union experiments that report only
measures and inclusions never build an ArcSet, sweep or merge.  The
measure of a union of integer arcs is their total width, in closed form
per term, less their overlaps, which one walk over the arcs in key order
finds (:func:`_run_measure`).  A tail union is its own mirror image under
y -> -y, as the arc around m/n pairs with the one around (n - m)/n, so its
measure is twice that of its part in [0, 1/2).  So only the arcs around
m/n with m <= n/2 are written, over 2*den so that 1/2 is an integer, and
clipped to [0, 1/2) (:func:`_half_circle_groups`): the part of [0, 1/2)
that the arc around 1 - m/n covers lies inside the clipped arc around m/n,
and no arc crosses the seam.  A and B are each measured from their own
sorted arcs, and A | B, symmetric too, from the two lists sorted together;
Fractions are made only in the final per-denominator sums.

Integer writer
--------------
One writer builds every ArcSet that is not already canonical, from
integer arcs ``[lo/den, (lo + width)/den)`` in groups whose starts run
through an arithmetic progression mod den: one start per raw segment of
``ArcSet(...)``, per arc of :meth:`ArcSet.from_arcs` and per segment of
:meth:`ArcSet.translate` or :meth:`ArcSet.mul_image`; one per point
of a :func:`thicken` (``ball``, arbitrary point sets); the residues m of
the terms (n, residues, delta_n) that ``approx.tail_union`` and
``approx._ao_groups`` hand to :func:`_thickening_groups`; the n pieces of
a preimage; the cells j/k of a union in ``invariant_set_search``.
Callers put a segment, an arc's start and length, or a segment and a
map's offset over one denominator, so images are integer arithmetic on
numerators (:func:`_affine_groups`).  The writer cuts the arcs at the
seam, keys and merges them, and builds a Fraction only for each merged
endpoint.

Equality and inclusion are decided on integer arcs, with no set or
Fraction built.  A union of groups equals an ArcSet, as
``AffineCircleMap.is_invariant`` asks, when its merged endpoints lo/den
cross-multiply to the set's (:func:`_union_equals`); one lies inside
another, as the inclusion checks of ``approx`` ask, when merging both
leaves the other's merged keys as they are (:func:`_union_within`).

All values are immutable and all operations pure.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from operator import itemgetter
from typing import Generator, Iterable, Iterator, Sequence

from .circle import (
    CirclePoint,
    RationalLike,
    _sum_ratios,
    as_fraction,
    format_fraction,
    parse_fraction,
    parse_json,
)

Segment = tuple[Fraction, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)

# an ArcSet's endpoint x in [0, 1] has the key floor(x * 2**_KEY_BITS), which fits array("Q")
_KEY_BITS = 63


@dataclass(frozen=True)
class Arc:
    """Half-open arc ``{start + t : 0 <= t < length}``; length 1 is the full circle."""

    start: CirclePoint
    length: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "length", as_fraction(self.length))
        if not ZERO < self.length <= ONE:
            raise ValueError(f"arc length must satisfy 0 < length <= 1, got {self.length}")

    def __str__(self) -> str:
        end = self.start.value + self.length
        return f"[{format_fraction(self.start.value)}, {format_fraction(end)})"


def arc(start: RationalLike | CirclePoint, length: RationalLike) -> Arc:
    """Build an Arc from plain rationals; ``arc('3/4', '1/2')`` wraps past 1."""
    if not isinstance(start, CirclePoint):
        start = CirclePoint(as_fraction(start))
    return Arc(start, as_fraction(length))


def _key_bits(max_den: int) -> int:
    """The shift k that gives exact keys (num << k) // den for denominators up to max_den."""
    return 2 * max_den.bit_length() + 2


def _canonical(keyed: list[tuple]) -> list[tuple[tuple, tuple]]:
    """Sort nonempty segments by exact key and merge those that overlap or touch.

    Each item starts with ``(lo_key, hi_key)``; the rest is its endpoints in
    whatever form the caller keeps them.  Returns one ``(first, last)`` pair
    of items per merged segment: ``first`` holds its start and ``last`` its end.
    """
    keyed.sort()
    merged = []
    items = iter(keyed)
    first = last = next(items, None)
    if first is None:
        return merged
    for item in items:
        if item[0] <= last[1]:
            if item[1] > last[1]:
                last = item
        else:
            merged.append((first, last))
            first = last = item
    merged.append((first, last))
    return merged


def _run_measure(keyed: Iterable[tuple], groups: Iterable[tuple]) -> Fraction:
    """Measure of the union of the arcs of groups (see _keyed_pieces), given their keyed items in key order.

    The measure is the arcs' total width, len(ms) * width over den per
    group (so ms must be sized), less their overlaps, which one walk over
    the items finds without merging them.  A run is the union of the items
    so far that overlap in a chain, and ``end`` is its end's key.  An item
    that starts before the end overlaps the run up to the end, or wholly
    if it ends inside it; one that starts at or past the end starts a new
    run.  The overlaps are taken off the numerators per denominator, which
    are added in one tree.
    """
    by_den: dict[int, int] = {}
    for ms, _, _, width, den, _ in groups:
        by_den[den] = by_den.get(den, 0) + len(ms) * width
    last, end = None, -1
    for item in keyed:
        if item[0] >= end:
            last, end = item, item[1]
        elif item[1] <= end:
            by_den[item[4]] -= item[3] - item[2]
        else:
            by_den[last[4]] -= last[3]
            by_den[item[4]] += item[2]
            last, end = item, item[1]
    return _sum_ratios((num, den) for den, num in by_den.items() if num)


def _keyed_pieces(groups: Iterable[tuple], k: int) -> list:
    """Keyed items ``(lo_key, hi_key, lo, hi, den, tag)`` of groups of integer arcs, keyed with shift k.

    A group ``(ms, step, offset, width, den, tag)`` holds the arcs
    [lo/den, (lo + width)/den) with lo = (m*step + offset) mod den for m in
    ms, and 0 < width <= den.  An arc that crosses 1 is cut at the seam into
    two items.
    """
    keyed = []
    for ms, step, offset, width, den, tag in groups:
        for m in ms:
            lo = (m * step + offset) % den
            hi = lo + width
            if hi <= den:
                keyed.append(((lo << k) // den, (hi << k) // den, lo, hi, den, tag))
            else:
                keyed.append(((lo << k) // den, 1 << k, lo, den, den, tag))
                keyed.append((0, ((hi - den) << k) // den, 0, hi - den, den, tag))
    return keyed


def _thickening_groups(terms: Iterable[tuple[int, Iterable[int], Fraction]]) -> list[tuple]:
    """The arcs [m/n - d, m/n + d) for the terms (n, ms, d), m in ms, as groups of _keyed_pieces tagged n.

    Needs 0 < d <= 1/2.  With d = p/q and g = gcd(n, q), the endpoints of a
    term are integers over den = lcm(n, q) = n * (q/g): the arc around m/n
    starts at (m*(q/g) - p*(n/g)) mod den and has length 2*p*(n/g).
    """
    groups = []
    for n, ms, d in terms:
        g = gcd(n, d.denominator)
        step = d.denominator // g
        pn = d.numerator * (n // g)
        groups.append((ms, step, -pn, 2 * pn, n * step, n))
    return groups


def _half_circle_groups(terms: Iterable[tuple[int, Sequence[int], Fraction]]) -> list[tuple]:
    """The arcs [m/n - d, m/n + d) for the terms (n, ms, d), clipped to [0, 1/2), as groups of
    _keyed_pieces tagged n.

    Needs 0 < d <= 1/2 and ms sorted in [0, n/2].  Each term is put over 2*den,
    den as in _thickening_groups, so 1/2 is the integer den: the arc around
    m/n is [2*(m*step - pn), 2*(m*step + pn)).  The arcs inside [0, den) are
    one group; the few that cross 0 or den, found by bisection, are one-arc
    groups of their clipped widths.
    """
    groups = []
    for n, ms, d in terms:
        g = gcd(n, d.denominator)
        step = d.denominator // g
        pn = d.numerator * (n // g)
        half = n * step
        i = bisect_left(ms, -(-pn // step))
        j = bisect_right(ms, (half - 2 * pn) // (2 * step))
        groups.append((ms[i:j], 2 * step, -2 * pn, 4 * pn, 2 * half, n))
        for m in ms[:i] + ms[max(i, j):]:
            lo = max(2 * (m * step - pn), 0)
            groups.append(((lo,), 1, 0, min(2 * (m * step + pn), half) - lo, 2 * half, n))
    return groups


def _keyed_half_thickenings(*term_lists: Iterable[tuple[int, Sequence[int], Fraction]]) -> list[tuple[list, list]]:
    """For each term list, the keyed items ``(lo_key, hi_key, lo, hi, den, n)`` of its thickenings
    clipped to [0, 1/2), in key order, and its groups (see _half_circle_groups).

    All lists share one key shift, so their keys compare as the rationals do.
    """
    grids = [_half_circle_groups(terms) for terms in term_lists]
    k = _key_bits(max((t[4] for grid in grids for t in grid), default=1))
    return [(sorted(_keyed_pieces(grid, k)), grid) for grid in grids]


# the start and the end of a merged keyed segment, as (numerator, denominator)
_LO = itemgetter(2, 4)
_HI = itemgetter(3, 4)


def _merged(groups: Sequence[tuple]) -> list[tuple[tuple, tuple]]:
    """_canonical of the pieces of groups of integer arcs; the pieces it does not return are freed."""
    return _canonical(_keyed_pieces(groups, _key_bits(max((g[4] for g in groups), default=1))))


def _integer_union(groups: Sequence[tuple]) -> "ArcSet":
    """The one canonicaliser: the union of groups of integer arcs (see _keyed_pieces) as an ArcSet.

    Fractions are built only for merged endpoints.
    """
    merged = _merged(groups)
    merged.reverse()
    segments = []
    while merged:  # popping frees each keyed item once its Fractions are built
        first, last = merged.pop()
        segments.append((Fraction(*_LO(first)), Fraction(*_HI(last))))
    return ArcSet._trusted(tuple(segments))


def _union_within(inner: Sequence[tuple], outer: Sequence[tuple]) -> bool:
    """Whether the union of the groups inner (see _keyed_pieces) lies inside that of outer.

    It does exactly when outer alone and both together merge to the same key pairs.  All are keyed
    with one shift, so equal keys are equal endpoints (see Exact keys).
    """
    k = _key_bits(max((g[4] for g in chain(inner, outer)), default=1))
    keyed = _keyed_pieces(outer, k)
    alone = [(first[0], last[1]) for first, last in _canonical(keyed)]
    return alone == [(first[0], last[1]) for first, last in _canonical(keyed + _keyed_pieces(inner, k))]


def _affine_groups(groups: Iterable[tuple], m: int, e: int, f: int) -> list[tuple]:
    """The images of the arcs of groups (see _keyed_pieces) under y -> m*y + e/f, m >= 1, as groups.

    Over d = lcm(den, f) = s*den, the arc [lo, lo + width) maps to one of width m*width*s that starts
    at m*lo*s + e*(d/f).  If an arc has m*width >= den, the image is the full circle, as one arc.
    """
    images = []
    for ms, step, offset, width, den, tag in groups:
        if m * width >= den and ms:
            return [((0,), 1, 0, 1, 1, tag)]
        s = lcm(den, f) // den
        images.append((ms, m * step * s, m * offset * s + e * (s * den // f), m * width * s, s * den, tag))
    return images


def _union_equals(groups: Sequence[tuple], s: "ArcSet") -> bool:
    """Whether the union of groups of integer arcs (see _keyed_pieces) is exactly s.

    Compares the number of merged segments, then each merged endpoint lo/den
    with s's a/b as lo * b == a * den, up to the first that differs.
    """
    merged = _merged(groups)
    if len(merged) != len(s.segments):
        return False
    for (first, last), (x, y) in zip(merged, s.segments):
        a, b = x.as_integer_ratio()
        c, d = y.as_integer_ratio()
        if first[2] * b != a * first[4] or last[3] * d != c * last[4]:
            return False
    return True


def _over_one_denominator(segments: Iterable[Segment], f: int) -> Iterator[tuple[int, int, int]]:
    """Each pair (a/b, c/d), such as a segment [a/b, c/d), as integers ``(lo, hi, den)`` over lcm(b, d, f)."""
    for x, y in segments:
        a, b = x.as_integer_ratio()
        c, d = y.as_integer_ratio()
        den = lcm(b, d, f)
        yield a * (den // b), c * (den // d), den


# above every key: the next key of a swept-through operand
_PAST_END = 1 << (_KEY_BITS + 1)
# endpoints in a row from one operand after which a sweep gallops
_GALLOP_AFTER = 8

# keep[2 * in_a + in_b]: whether a point inside a or not, and b or not, is in the result
_OR = (False, True, True, True)
_AND = (False, False, False, True)
_SUB = (False, False, True, False)


def _bisect(segs: Sequence[Segment], keys: Sequence, x, x_key, lo: int, hi: int, side=bisect_left) -> int:
    """Where endpoint x goes among the flattened endpoints of segs, as bisect_left or bisect_right.

    keys[lo:hi] holds the place by key; endpoints whose keys tie with x's
    are compared with x exactly, first by one == with the first of them,
    which settles the usual tie, an endpoint equal to x.
    """
    k = bisect_left(keys, x_key, lo, hi)
    if k < len(keys) and keys[k] == x_key:
        if segs[k >> 1][k & 1] == x:
            return k + 1 if side is bisect_right else k
        k += side(range(k, bisect_right(keys, x_key, k)), x, key=lambda t: segs[t >> 1][t & 1])
    return k


def _run_end(segs: Sequence[Segment], keys: Sequence, i: int, other: Sequence[Segment],
             other_keys: Sequence, j: int) -> int:
    """The first flattened index after i whose endpoint is not below other's endpoint j, given endpoint i is.

    Gallops over keys 1, 2, 4, ... places ahead and bisects the last step,
    so a run of r endpoints costs O(log r) key comparisons.
    """
    n = len(keys)
    if j == len(other_keys):
        return n
    y_key = other_keys[j]
    lo, hi, step = i + 1, i + 1, 1
    while hi < n and keys[hi] < y_key:
        lo = hi + 1
        hi += step
        step *= 2
    return _bisect(segs, keys, other[j >> 1][j & 1], y_key, lo, min(hi, n))


def _take(start: Fraction | None, segs: Sequence[Segment], i: int, k: int,
          inside: bool) -> Generator[Segment, None, Fraction | None]:
    """Yield the result's segments that end at endpoints i to k - 1 of segs; return the open start.

    Over these endpoints the result is inside segs (``inside``) or outside
    it.  Inside, the result's segments are segs' own, and those are reused;
    outside, they are the gaps between segs' segments.
    """
    if inside:
        if i & 1:  # endpoint i ends the segment the result is in
            seg = segs[i >> 1]
            yield seg if start is seg[0] else (start, seg[1])
            i += 1
        yield from segs[i >> 1:k >> 1]
        return segs[k >> 1][0] if k & 1 else None
    ends = list(chain.from_iterable(segs[i >> 1:(k + 1) >> 1]))
    ends = ends[i & 1:len(ends) - (k & 1)]
    if start is not None:
        ends.insert(0, start)
    yield from zip(ends[0::2], ends[1::2])
    return ends[-1] if len(ends) & 1 else None


def _sweep(a: Sequence[Segment], b: Sequence[Segment], keep: tuple[bool, ...],
           a_keys: Sequence[int], b_keys: Sequence[int]) -> Iterator[Segment]:
    """Yield, in order, the canonical segments of {x : keep[2 * (x in a) + (x in b)]}.

    a and b are canonical, so each one's flattened endpoints (index i is
    ``segs[i >> 1][i & 1]``) strictly increase and a point lies inside
    after an odd number of them.  a_keys and b_keys are the flattened
    endpoints' 63-bit keys, which order as the endpoints do wherever they
    differ; endpoints whose keys are equal are compared themselves.  The
    sweep steps through both lists in order; once _GALLOP_AFTER endpoints
    in a row come from one operand, the rest of that run (its endpoints
    below the other's next one) is found by galloping and taken at once,
    since all of them bound the result or none do.  So a ball against a
    large set costs O(log n) comparisons plus its output.  Segments of a
    or b that are whole in the result are yielded as they are, not
    rebuilt.  Measures of symmetric differences and inclusions need no
    sweep of their own: see the module docstring.
    """
    na, nb = len(a_keys), len(b_keys)
    start = None  # where the result's open segment began
    i = j = 0
    streak = 0  # endpoints taken in a row: > 0 from a, < 0 from b
    while i < na or j < nb:
        x = a_keys[i] if i < na else _PAST_END
        y = b_keys[j] if j < nb else _PAST_END
        if x == y:  # equal keys: one exact == settles equal endpoints, and only unequal ones are ordered
            x, y = a[i >> 1][i & 1], b[j >> 1][j & 1]
            if x == y:
                x = y = 0  # neither is below the other: both are taken at once below
        if x < y:
            streak = streak + 1 if streak > 0 else 1
            if streak == _GALLOP_AFTER:
                k = _run_end(a, a_keys, i, b, b_keys, j)
                if keep[2 + (j & 1)] != keep[j & 1]:
                    start = yield from _take(start, a, i, k, keep[2 + (j & 1)])
                i, streak = k, 0
                continue
            segs, t = a, i
            i += 1
        elif y < x:
            streak = streak - 1 if streak < 0 else -1
            if streak == -_GALLOP_AFTER:
                k = _run_end(b, b_keys, j, a, a_keys, i)
                if keep[2 * (i & 1) + 1] != keep[2 * (i & 1)]:
                    start = yield from _take(start, b, j, k, keep[2 * (i & 1) + 1])
                j, streak = k, 0
                continue
            segs, t = b, j
            j += 1
        else:
            segs, t = a, i
            i += 1
            j += 1
            streak = 0
        if keep[2 * (i & 1) + (j & 1)] != (start is not None):
            seg = segs[t >> 1]
            if start is None:
                start = seg[t & 1]
            else:
                # a segment of a or b that the result holds whole is reused
                yield seg if t & 1 and start is seg[0] else (start, seg[t & 1])
                start = None


def _measure(segments: Iterable[Segment]) -> Fraction:
    """Sum of hi - lo over segments.

    The numerators are added per denominator first, and the sums per denominator in one tree.
    """
    by_den: dict[int, int] = {}
    for lo, hi in segments:
        num, d = hi.as_integer_ratio()
        by_den[d] = by_den.get(d, 0) + num
        num, d = lo.as_integer_ratio()
        by_den[d] = by_den.get(d, 0) - num
    return _sum_ratios((num, den) for den, num in by_den.items() if num)



@dataclass(frozen=True)
class ArcSet:
    """A finite union of half-open arcs in canonical form.

    Construct via :meth:`from_arcs`, :func:`thicken`, or the set operations;
    the raw constructor accepts any iterable of in-range segments and
    canonicalises it.  Supports ``|  &  -  ~  <=  in`` with exact semantics.
    """

    segments: tuple[Segment, ...] = field(default=())

    def __post_init__(self) -> None:
        raw = tuple(self.segments)
        groups = []
        for (x, y), (lo, hi, den) in zip(raw, _over_one_denominator(raw, 1)):
            if lo != hi:  # empty pairs are dropped, others checked
                if not 0 <= lo < hi <= den:
                    raise ValueError(f"segment out of range: ({x}, {y})")
                groups.append(((lo,), 1, 0, hi - lo, den, 0))
        object.__setattr__(self, "segments", _integer_union(groups).segments)

    @cached_property
    def _keys(self) -> array:
        """The flattened endpoints' keys, computed on the first sweep or lookup that needs them.

        A cache: it takes no part in ==, hash, repr, copies or pickles.
        """
        return array("Q", ((x.numerator << _KEY_BITS) // x.denominator for seg in self.segments for x in seg))

    def __getstate__(self) -> dict:
        return {"segments": self.segments}

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, segments: tuple[Segment, ...]) -> "ArcSet":
        """Wrap segments that are already canonical, skipping canonicalisation."""
        s = object.__new__(cls)
        object.__setattr__(s, "segments", segments)
        return s

    @classmethod
    def empty(cls) -> "ArcSet":
        return cls._trusted(())

    @classmethod
    def full(cls) -> "ArcSet":
        return cls._trusted(((ZERO, ONE),))

    @classmethod
    def from_arcs(cls, arcs: Iterable[Arc]) -> "ArcSet":
        return _integer_union([((lo,), 1, 0, width, den, 0) for lo, width, den
                               in _over_one_denominator(((a.start.value, a.length) for a in arcs), 1)])

    # -- predicates and measure --------------------------------------------

    def is_empty(self) -> bool:
        return not self.segments

    def is_full(self) -> bool:
        return self.segments == ((ZERO, ONE),)

    @cached_property
    def measure(self) -> Fraction:
        """The total length, computed once; like _keys, a cache that no comparison or copy sees."""
        return _measure(self.segments)

    def __contains__(self, point: CirclePoint) -> bool:
        v, keys = point.value, self._keys
        # a point is inside after an odd number of endpoints
        return _bisect(self.segments, keys, v, (v.numerator << _KEY_BITS) // v.denominator,
                       0, len(keys), bisect_right) & 1 == 1

    # -- boolean algebra ----------------------------------------------------

    def complement(self) -> "ArcSet":
        """The full circle less self, by the same sweep as every other boolean operation."""
        return ArcSet.full().difference(self)

    __invert__ = complement

    def _boolean(self, other: "ArcSet", keep: tuple[bool, ...]) -> Iterator[Segment]:
        return _sweep(self.segments, other.segments, keep, self._keys, other._keys)

    def union(self, other: "ArcSet") -> "ArcSet":
        return ArcSet._trusted(tuple(self._boolean(other, _OR)))

    __or__ = union

    def intersection(self, other: "ArcSet") -> "ArcSet":
        return ArcSet._trusted(tuple(self._boolean(other, _AND)))

    __and__ = intersection

    def difference(self, other: "ArcSet") -> "ArcSet":
        return ArcSet._trusted(tuple(self._boolean(other, _SUB)))

    __sub__ = difference

    def symm_diff_measure(self, other: "ArcSet") -> Fraction:
        """measure(self \\ other) + measure(other \\ self); zero iff equal."""
        return self.measure + other.measure - 2 * _measure(self._boolean(other, _AND))

    def issubset(self, other: "ArcSet") -> bool:
        return next(self._boolean(other, _SUB), None) is None

    __le__ = issubset

    def __ge__(self, other: "ArcSet") -> bool:
        return other.issubset(self)

    # -- geometric actions ---------------------------------------------------

    def _groups(self) -> list[tuple]:
        """The segments as one-arc groups of the writer (see _keyed_pieces)."""
        return [((lo,), 1, 0, hi - lo, den, 0) for lo, hi, den in _over_one_denominator(self.segments, 1)]

    def translate(self, a: CirclePoint) -> "ArcSet":
        """Exact image {a + y : y in self}; preserves measure."""
        return _integer_union(_affine_groups(self._groups(), 1, *a.value.as_integer_ratio()))

    def mul_image(self, m: int) -> "ArcSet":
        """Exact image under y -> m*y; an arc of length L maps to one of length min(1, m*L)."""
        if m < 1:
            raise ValueError(f"multiplier must be >= 1, got {m}")
        return _integer_union(_affine_groups(self._groups(), m, 0, 1))

    # -- presentation ---------------------------------------------------------

    @property
    def arcs(self) -> tuple[Arc, ...]:
        """The set as wrap-joined arcs, sorted by start point."""
        segs = self.segments
        if len(segs) > 1 and segs[0][0] == ZERO and segs[-1][1] == ONE:
            # the two seam pieces are one arc of the circle, and it starts last
            segs = segs[1:-1] + ((segs[-1][0], ONE + segs[0][1]),)
        return tuple(Arc(CirclePoint(lo), hi - lo) for lo, hi in segs)

    def to_json_dict(self) -> dict:
        return {
            "arcs": [
                {"start": format_fraction(a.start.value), "length": format_fraction(a.length)}
                for a in self.arcs
            ]
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "ArcSet":
        items = data.get("arcs") if isinstance(data, dict) else None
        if not isinstance(items, list):
            raise ValueError("arc-set JSON must be an object with an 'arcs' list")
        out = []
        for i, item in enumerate(items):
            if not isinstance(item, dict) or not {"start", "length"} <= item.keys():
                raise ValueError(f"arcs[{i}] must be an object with 'start' and 'length'")
            start = parse_fraction(item["start"], f"arcs[{i}].start")
            out.append(Arc(CirclePoint(start), parse_fraction(item["length"], f"arcs[{i}].length")))
        return cls.from_arcs(out)

    @classmethod
    def from_json(cls, text: str) -> "ArcSet":
        return cls.from_json_dict(parse_json(text))

    def __str__(self) -> str:
        if self.is_empty():
            return "∅"
        if self.is_full():
            return "full circle"
        return " ∪ ".join(str(a) for a in self.arcs)


def union_all(sets: Iterable[ArcSet]) -> ArcSet:
    """Union of arbitrarily many ArcSets in one canonicalisation pass."""
    return ArcSet(chain.from_iterable(s.segments for s in sets))


def thicken(points: Iterable[CirclePoint], delta: RationalLike) -> ArcSet:
    """Open thickening of a finite point set, as half-open arcs [p - delta, p + delta).

    delta <= 0 gives the empty set (the open condition d < delta is
    unsatisfiable); delta >= 1/2 gives the full circle for nonempty input.
    """
    d = as_fraction(delta)
    values = [p.value for p in points]
    if d <= 0 or not values:
        return ArcSet.empty()
    if 2 * d >= ONE:
        return ArcSet.full()
    return _integer_union(_thickening_groups((v.denominator, (v.numerator,), d) for v in values))
