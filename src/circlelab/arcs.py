"""Finite unions of half-open arcs on the circle, with exact set algebra.

Canonical form
--------------
An :class:`ArcSet` is stored as a sorted tuple of pairwise-disjoint,
non-touching line segments ``[lo/den, hi/den)`` with ``0 <= lo < hi <= den``,
each as its reduced integer triple ``(lo, hi, den)``: ``gcd(lo, hi, den) == 1``,
so den is the lcm of the endpoints' reduced denominators and the triple of
a segment is unique (:func:`_triple`).  Arcs that cross the 0/1 seam are
split at 0 internally and re-joined only for presentation
(:attr:`ArcSet.arcs`) and JSON output.  Touching segments are always
merged, so the internal form is unique per subset: two ArcSets are equal as
Python values, hash alike and pickle alike exactly when they denote the
same subset of the circle.  Fractions appear only at the edge:
``ArcSet(...)`` and :meth:`ArcSet.from_arcs` read them, :attr:`ArcSet.arcs`
and ``str`` build one pair per arc from the triples, and
:attr:`ArcSet.segments` builds the segments' pairs on its first read, only
as a cache for outside readers.  JSON is read and written without them:
the reader takes each start and length to an integer pair, a plain
``p/q`` by ``int()`` alone (:meth:`ArcSet.from_json_dict`), and the
writer renders each number from the triples with one gcd.

Everything here is half-open ``[a, b)``.  Boundary points are finite sets
of measure zero, so measures and containments computed on the half-open
canonicalisations are exact for the sets of interest.

Exact keys
----------
Arc writers sort on integers, never on Fractions or floats.  The general
writer (below) keys an endpoint a/b as ``(a << k) // b`` with
``k = 2 * maxbits + 2``, where every b in play is below
``2 ** maxbits``.  Two distinct such rationals differ by more than
``2 ** -(2 * maxbits)``, so their keys differ and order as the rationals
do; equal rationals, reduced or not, get equal keys.

Tail unions are written from packed integers, one per arc, with no tuple
(:func:`_packed`).  With b the bit length of the call's largest den and
``k = 3*b + 3``, an arc [lo/den, (lo + width)/den) of row g of the
call's table becomes ``x = (lo*f << s) + g`` with ``f = 2**k // den``,
where s has room for every row; the row holds f, width, den and the arc
count.  So a whole group is packed in C, as ``lo*f << s`` is
``m*(step*f << s) + (offset*f << s)``, and ``list.sort`` sorts plain
ints.  ``x & (2**s - 1)`` is the row, ``(x >> s) // f`` is lo exactly,
and x plus the row's ``width*f << s`` less g is the end's key, shifted.
The key bound: two distinct endpoints over dens below ``2**b`` differ by
at least ``2**-(2b)``, that is by ``2**(k - 2b) = 2**(b + 3)`` units of
``2**-k``; and a key ``num*f`` lies below ``num * 2**k / den`` by less
than num <= den < ``2**b`` units.  So the keys of distinct endpoints
differ by more than ``7 * 2**b`` and order as the rationals do, while
those of one endpoint over two dens, which may differ, lie within
``2**b`` of each other: a start is at or before an end exactly when its
key is below the end's key plus ``2**b``.  The measure walk
(:func:`_packed_measure`) is exact whichever way equal endpoints
compare, and the merge (:func:`_packed_union`) takes that sum as its
touching test.  The general writer's keyed 6-tuples still serve
:func:`_integer_union` and :func:`_union_within`, whose arcs cross the
seam and come with a width per piece, mostly a few at a time.

Boolean operations on canonical sets need no sort: one walk over the
endpoints of both operands (:func:`_runs`) serves them all, the
complement too, which is the full circle less the set.  The walk takes a
run at a time, the endpoints of one operand below the other's next one.
A canonical set has two endpoints per segment, so a run is most often
the rest of one segment: the walk compares the operand's next two keys
with the other's next key, and bisects the keys only for a run longer
than that.  The sweep keeps or drops each run whole and builds its
result as one list, a kept run of whole segments as one slice of the
operand's triples, so its cost follows the interleaving of the operands
and the size of the result, not the size of the larger operand.

The walk and membership compare cached keys first.  Each ArcSet keeps the
keys ``floor(x * 2**63)`` of its flattened endpoints in one flat list,
computed on the first walk or lookup that needs it; endpoint i is
``lo`` or ``hi`` of triple ``i >> 1`` over its den.  Floor is monotone, so
unequal keys order as the endpoints do; only endpoints with equal keys
are compared exactly, a/b against c/d as a*d against c*b (:func:`_cmp`),
which settles ties.  Most ties are shared endpoints, which one such
comparison settles.

Measures and inclusions
-----------------------
On canonical half-open sets, mu(A ^ B) = mu(A) + mu(B) - 2 mu(A & B)
= 2 mu(A | B) - mu(A) - mu(B), and A <= B exactly when mu(A | B) = mu(B),
since a nonempty difference of half-open sets has positive measure.  An
ArcSet caches its measure, and mu(A ^ B) is also mu(B) - mu(A) +
2 mu(A - B) and mu(A) - mu(B) + 2 mu(B - A).  So
:meth:`ArcSet.symm_diff_measure` takes the boundaries of A & B, A - B and
B - A from one walk, as index ranges, and measures only the piece with
the fewest: against a small ball, the intersection.  The same walk decides
A <= B: A - B is empty exactly when no run bounds it, so
:meth:`ArcSet.issubset` stops at the first run that does and writes no
segment.  The tail-union
experiments that report only measures and inclusions never build an
ArcSet, sweep or merge.  The measure of a union of packed arcs is their
total width, in closed form per row, less their overlaps, which one walk
over the arcs in order of their starts finds (:func:`_packed_measure`).
Keys of distinct endpoints order as the rationals do, and each way that
equal ones may compare is exact: an arc that starts at the run's end adds
nothing, whether it starts a run or takes off an overlap of end - lo = 0;
one that ends at the run's end takes off its own width or the part up to
the end, which are equal; and of two arcs with one start, the union
gains the wider one's width whichever comes first.  So the walk compares
only the packed integers, and finds each overlap's numerators from the
shifted keys, divided by f once per row.  A tail union is its own mirror
image under y -> -y, as the arc around m/n pairs with the one around
(n - m)/n, so its measure is twice that of its part in [0, 1/2).  So only
the arcs around m/n with m <= n/2 are written, over 2*den so that 1/2 is
an integer, and clipped to [0, 1/2) (:func:`_half_circle_groups`): the
part of [0, 1/2) that the arc around 1 - m/n covers lies inside the
clipped arc around m/n, and no arc crosses the seam.  A and B are each
measured from their own sorted arcs, and A | B, symmetric too, from the
two lists sorted together; radii come as integer pairs, and Fractions
are made only in the final per-denominator sums.

Tail unions themselves are written as their half: the same packed arcs
are merged once (:func:`_packed_union`), and :func:`_mirrored` appends the
mirror image of the merged half, which the result keeps as its ``_half``.
Booleans, symmetric differences and inclusions of two such sets, and the
complement of one, run on their halves.  The
endpoints of each are symmetric, so mirroring maps each open interval
between consecutive endpoints of both to one where each operand, and so
the result, is the same: the canonical segments [lo, hi) of any boolean
of the two map exactly to [1 - hi, 1 - lo).  So a boolean sweeps the
halves and mirrors the swept half, and its result keeps that half, so a
chain of booleans stays on halves; mu(A ^ B) is twice that of the halves,
and A <= B exactly when the halves are so.  The complement is mirrored
from [0, 1/2) less the half.  A pair of which either set has no half
takes the general sweep.

Integer writer
--------------
One writer builds every ArcSet that is not already canonical and not a
tail union, from integer arcs ``[lo/den, (lo + width)/den)`` in groups
whose starts run through an arithmetic progression mod den: one start
per raw segment of ``ArcSet(...)``, per arc of :meth:`ArcSet.from_arcs`
and of :meth:`ArcSet.from_json_dict`, and per segment of
:meth:`ArcSet.translate` or :meth:`ArcSet.mul_image`; one per point of a
:func:`thicken` (``ball``, arbitrary point sets); the residues m of the
terms (n, residues, (p, q)), delta_n = p/q, that ``approx._ao_groups``
hands to :func:`_thickening_groups`; the cells j/k of a union in
``invariant_set_search``.  Callers put a segment, an arc's start and
length, or a segment and a map's offset over one denominator, and a
set's triples are such groups as they are (:meth:`ArcSet._groups`), so
images are integer arithmetic on numerators (:func:`_affine_groups`).
The writer (:func:`_integer_union`) cuts the arcs at the seam, keys them
as 6-tuples (:func:`_keyed_pieces`), merges them (:func:`_canonical`) and
writes each merged segment as its reduced triple (:func:`_written`).

``approx.tail_union`` writes its half from packed arcs instead: the
residues m <= n/2 of its terms, sieved once per index and freed as their
arcs are packed (:func:`_packed_half_thickenings`), give arcs clipped to
[0, 1/2) (:func:`_half_circle_groups`), which one walk merges, writing
each merged segment's triple from its first arc's row and that of the
arc that ends it (:func:`_packed_union`); :func:`_mirrored` mirrors the
half.  A preimage needs no writer: its n copies of the set come out in
order and disjoint, and ``AffineCircleMap.preimage`` writes each piece's
triple in turn.  The boolean operations reuse the operands' triples for
the segments they keep whole and write a triple only where a result's
segment has endpoints from two segments; those of two tail unions do so
on the halves, and mirror the result.

Inclusion is decided on integer arcs, with no set or Fraction built, by
one kernel (:func:`_union_within`): the outer union is merged once, and
each inner piece is looked up among its segments by one bisection.  The
inclusion checks of ``approx`` use it, and so does
``AffineCircleMap.is_invariant``: for T: y -> n*y + x with n >= 1,
T^-1 S = S exactly when T(S) <= S, as then S <= T^-1(T S) <= T^-1 S, of
equal measure.  The first inner piece outside the outer union shows
where an answer is False.

All values are immutable and all operations pure.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, repeat
from math import gcd, lcm
from operator import add, itemgetter, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .circle import (
    CirclePoint,
    RationalLike,
    _format_ratio,
    _sum_ratios,
    as_fraction,
    format_fraction,
    parse_json,
    parse_ratio,
)

Segment = tuple[Fraction, Fraction]
Triple = tuple[int, int, int]

ZERO = Fraction(0)
ONE = Fraction(1)

# an ArcSet's endpoint x in [0, 1] has the key floor(x * 2**_KEY_BITS)
_KEY_BITS = 63


@dataclass(frozen=True)
class Arc:
    """Half-open arc ``{start + t : 0 <= t < length}``; length 1 is the full circle."""

    start: CirclePoint
    length: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "length", as_fraction(self.length))
        if not ZERO < self.length <= ONE:
            raise _length_error(self.length)

    def __str__(self) -> str:
        end = self.start.value + self.length
        return f"[{format_fraction(self.start.value)}, {format_fraction(end)})"


def _length_error(length: Fraction) -> ValueError:
    return ValueError(f"arc length must satisfy 0 < length <= 1, got {length}")


def arc(start: RationalLike | CirclePoint, length: RationalLike) -> Arc:
    """Build an Arc from plain rationals; ``arc('3/4', '1/2')`` wraps past 1."""
    if not isinstance(start, CirclePoint):
        start = CirclePoint(as_fraction(start))
    return Arc(start, as_fraction(length))


def _key_bits(max_den: int) -> int:
    """The shift k that gives exact keys (num << k) // den for denominators up to max_den."""
    return 2 * max_den.bit_length() + 2


def _canonical(keyed: list[tuple]) -> list[tuple[tuple, tuple]]:
    """Sort nonempty segments on their exact start keys and merge those that overlap or touch.

    Each item starts with ``(lo_key, hi_key)``; the rest is its endpoints in
    whatever form the caller keeps them.  Returns one ``(first, last)`` pair
    of items per merged segment: ``first`` holds its start and ``last`` its end.
    Keys are exact, so items with equal start keys start at one point, and
    the merge takes them in any order: the sort compares no more of the items.
    """
    keyed.sort(key=itemgetter(0))
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


def _thickening_groups(terms: Iterable[tuple[int, Iterable[int], tuple[int, int]]]) -> list[tuple]:
    """The arcs [m/n - p/q, m/n + p/q) for the terms (n, ms, (p, q)), m in ms, as groups of _keyed_pieces
    tagged n.

    Needs 0 < p/q <= 1/2 with p/q reduced.  With g = gcd(n, q), the endpoints
    of a term are integers over den = lcm(n, q) = n * (q/g): the arc around
    m/n starts at (m*(q/g) - p*(n/g)) mod den and has length 2*p*(n/g).
    """
    groups = []
    for n, ms, (p, q) in terms:
        g = gcd(n, q)
        step = q // g
        pn = p * (n // g)
        groups.append((ms, step, -pn, 2 * pn, n * step, n))
    return groups


def _half_circle_groups(terms: Iterable[tuple[int, Sequence[int], tuple[int, int]]]) -> list[tuple]:
    """The arcs [m/n - p/q, m/n + p/q) for the terms (n, ms, (p, q)), clipped to [0, 1/2), as groups of
    _keyed_pieces or _packed tagged n, at most three per term.

    Needs 0 < p/q <= 1/2 reduced and ms sorted in [0, n/2].  Each group of
    _thickening_groups is put over 2*den, so 1/2 is the integer den: the
    arc around m/n is [2*(m*step + offset), 2*(m*step + offset + width)).
    The arcs inside [0, den) are one group, which is ms itself when it
    holds them all.  Those that cross 0 or den, found by bisection, all
    start at 0 or all end at den once clipped, so each kind lies inside its
    widest: the last to cross 0 and the first to cross den alone, each as a
    one-arc group of its clipped width, stand for them.
    """
    groups = []
    for ms, step, offset, width, half, n in _thickening_groups(terms):
        i = bisect_left(ms, -(offset // step))
        j = bisect_right(ms, (half - width) // (2 * step))
        groups.append((ms if i == 0 and j == len(ms) else ms[i:j], 2 * step, 2 * offset, 2 * width, 2 * half, n))
        if i:
            groups.append(((0,), 1, 0, min(2 * (ms[i - 1] * step + offset + width), half), 2 * half, n))
        if max(i, j) < len(ms):
            lo = 2 * (ms[max(i, j)] * step + offset)
            groups.append(((lo,), 1, 0, half - lo, 2 * half, n))
    return groups


class _Table(NamedTuple):
    """The rows of packed arcs (see _packed), their shift s, the bit length b of their largest den, and
    the shifted width ``ends[g]`` of each row g, which takes a packed arc of the row to its end.

    Row g is ``(f, width, den, count, i, tag)``: its count arcs
    [lo/den, (lo + width)/den), of a group tagged tag in list i, are each
    packed as ``x = (lo * f << s) + g``, with f = 2**(3*b + 3) // den, and
    x + ends[g] = (lo + width) * f << s.
    """

    rows: list[tuple]
    s: int
    b: int
    ends: list[int]


def _packed(groups: Iterable[tuple[int, tuple]], lists: int, max_den: int, max_rows: int
            ) -> tuple[list[list[int]], _Table]:
    """The arcs of groups (i, (ms, step, offset, width, den, tag)) packed one integer per arc into lists
    0 to lists - 1, each sorted, and their table (see Exact keys).

    Each group is a row; its arcs [lo/den, (lo + width)/den), lo = m*step +
    offset for m in ms, must lie in [0, 1], with den at most max_den, and
    there may be at most max_rows groups.  The arcs of a group are packed in
    C, by map over its ms, and groups may be made as they are read.
    """
    b = max_den.bit_length()
    k = 3 * b + 3
    s = max_rows.bit_length()
    rows: list[tuple] = []
    ends: list[int] = []
    packed: list[list[int]] = [[] for _ in range(lists)]
    den = f = 0
    for i, (ms, step, offset, width, d, tag) in groups:
        if d != den:
            den, f = d, (1 << k) // d
        g = len(rows)
        rows.append((f, width, den, len(ms), i, tag))
        ends.append((width * f << s) - g)
        packed[i] += map(add, map(mul, ms, repeat(step * f << s)), repeat((offset * f << s) + g))
    for items in packed:
        items.sort()
    return packed, _Table(rows, s, b, ends)


def _packed_half_thickenings(
    term_lists: Sequence[Sequence[tuple[int, tuple[int, int]]]], residues: Callable[[int], list[int]]
) -> tuple[list[list[int]], _Table]:
    """For each list of terms (n, (p, q)) in descending n, its thickenings clipped to [0, 1/2), packed
    (see _packed) and sorted; and their table, whose rows come in descending n.

    The lists are taken together in descending n, and residues(n), the
    sorted m in [0, n/2] of index n, is called once per index for all of
    them and let go when the next index's are sieved: the build holds the
    packed arcs and the residues of one index, or two while it sieves.
    Each term's groups (see _half_circle_groups), at most three, are rows
    of the table.
    """
    def groups():
        ms, last = None, 0
        for n, i, pq in sorted(((n, i, pq) for i, terms in enumerate(term_lists) for n, pq in terms),
                               key=itemgetter(0), reverse=True):
            if n != last:
                ms, last = residues(n), n
            for group in _half_circle_groups([(n, ms, pq)]):
                yield i, group

    max_den = max((2 * n * (q // gcd(n, q)) for terms in term_lists for n, (_, q) in terms), default=1)
    return _packed(groups(), len(term_lists), max_den, 3 * sum(map(len, term_lists)))


def _packed_measure(items: Iterable[int], table: _Table, keep: Callable[[int, int], bool]) -> Fraction:
    """Measure of the union of those of the packed arcs items, sorted, whose rows (i, tag) of table keep
    holds for.

    The measure is the kept rows' total width, count * width over den per
    row, less the arcs' overlaps, which one walk over the items finds
    without merging them; it passes over the items of other rows.  A run
    is the union of the items so far that overlap in a chain, ``end`` its
    end's key shifted by s, and ``last`` the row of the item that ends it.
    An item that starts before the end overlaps the run up to the end, or
    wholly if it ends inside it; one that starts at or past the end starts
    a new run.  Keys order distinct endpoints as the rationals do, so only
    equal endpoints over two dens may compare either way, and either way
    is exact (see Exact keys).  The overlaps up to the end are taken off
    per row as sums of shifted keys lo * f << s, which are divided by f
    once, at the end.
    """
    s, ends = table.s, table.ends
    mask = (1 << s) - 1
    walked = [keep(row[4], row[5]) for row in table.rows]
    nested = [0] * len(ends)
    overlap = [0] * len(ends)
    end, last = -1, 0
    for x in items:
        g = x & mask
        if not walked[g]:
            continue
        if x >= end:
            end, last = x + ends[g], g
        elif x + ends[g] <= end:
            nested[g] += 1
        else:
            overlap[last] -= end
            overlap[g] += x - g
            end, last = x + ends[g], g
    by_den: dict[int, int] = {}
    for g in compress(range(len(ends)), walked):
        f, width, den, count, _, _ = table.rows[g]
        by_den[den] = by_den.get(den, 0) + (count - nested[g]) * width + (overlap[g] >> s) // f
    return _measure(by_den)


def _packed_union(items: Iterable[int], table: _Table) -> tuple[Triple, ...]:
    """The canonical segments of the union of the packed arcs items, sorted, as reduced triples in order.

    One walk merges the items that overlap or touch.  ``end`` is the key of
    the merged segment's end plus 2**b, shifted by s, so an item below it
    starts at or before the end (see Exact keys).  Each segment is written
    from the start of its first item and the end of the item that ends it,
    ``last``, as key // f over their rows' dens.
    """
    s = table.s
    mask = (1 << s) - 1
    touch = 1 << (table.b + s)
    ends = [e + touch for e in table.ends]
    fs = [row[0] for row in table.rows]
    dens = [row[2] for row in table.rows]
    triples = []

    def write(first: int, end: int, last: int) -> None:
        g = first & mask
        triples.append(_triple((first >> s) // fs[g], dens[g], ((end - touch) >> s) // fs[last], dens[last]))

    items = iter(items)
    first = next(items, None)
    if first is None:
        return ()
    end, last = first + ends[first & mask], first & mask
    for x in items:
        g = x & mask
        if x >= end:
            write(first, end, last)
            first, end, last = x, x + ends[g], g
        elif x + ends[g] > end:
            end, last = x + ends[g], g
    write(first, end, last)
    return tuple(triples)


def _triple(a: int, b: int, c: int, d: int) -> Triple:
    """The reduced triple (lo, hi, den) of the segment [a/b, c/d), b, d > 0, with gcd(lo, hi, den) == 1.

    Also any pair of rationals over one denominator, such as an arc's start and length.
    """
    if b != d:
        den = lcm(b, d)
        a, c, b = a * (den // b), c * (den // d), den
    g = gcd(a, c, b)
    return (a, c, b) if g == 1 else (a // g, c // g, b // g)


def _cmp(a: int, b: int, c: int, d: int) -> int:
    """A number of the sign of a/b - c/d, for b, d > 0: the exact comparison that settles a key tie."""
    return a * d - c * b


def _integer_union(groups: Sequence[tuple]) -> "ArcSet":
    """The one canonicaliser: the union of groups of integer arcs (see _keyed_pieces) as an ArcSet.

    Each merged segment is written as its reduced triple; no Fraction is built.
    """
    k = _key_bits(max((g[4] for g in groups), default=1))
    return ArcSet._trusted(_written(_canonical(_keyed_pieces(groups, k))))


def _written(merged: list[tuple[tuple, tuple]]) -> tuple[Triple, ...]:
    """The reduced triples of the merged segments of _canonical, in order.

    Popping frees each keyed item once its triple is written, when the caller keeps no other reference.
    """
    merged.reverse()
    triples = []
    while merged:
        first, last = merged.pop()
        triples.append(_triple(first[2], first[4], last[3], last[4]))
    return tuple(triples)


def _mirrored(half: "ArcSet") -> "ArcSet":
    """The set that is its own image under y -> -y and meets [0, 1/2) in half, which lies in [0, 1/2).

    Its triples are half's, then their images ``(den - hi, den - lo, den)``
    in reverse order, with a segment of half that ends at 1/2 joined to its
    own image; the seam pieces stay split at 0.  The result keeps half as
    its ``_half``, on which booleans of two such sets run (see Measures and
    inclusions).
    """
    segs = half.triples
    images = [(den - hi, den - lo, den) for lo, hi, den in reversed(segs)]
    if segs and 2 * segs[-1][1] == segs[-1][2]:
        lo, _, den = segs[-1]
        images[0] = _triple(lo, den, den - lo, den)
        segs = segs[:-1]
    s = ArcSet._trusted(segs + tuple(images))
    object.__setattr__(s, "_half", half)
    return s


def _union_within(inner: Sequence[tuple], outer: Sequence[tuple]) -> bool:
    """Whether the union of the groups inner (see _keyed_pieces) lies inside that of outer.

    Only outer is merged.  Its segments neither overlap nor touch, so an inner piece [lo, hi) lies
    inside it exactly when hi is at most the end of the last one that starts at or before lo, found by
    bisection.  All are keyed with one shift, so equal keys are equal endpoints (see Exact keys).
    """
    k = _key_bits(max((g[4] for g in chain(inner, outer)), default=1))
    merged = _canonical(_keyed_pieces(outer, k))
    starts = [first[0] for first, _ in merged]
    ends = [last[1] for _, last in merged]
    for piece in _keyed_pieces(inner, k):
        i = bisect_right(starts, piece[0]) - 1
        if i < 0 or piece[1] > ends[i]:
            return False
    return True


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


# keep[2 * in_a + in_b]: whether a point inside a or not, and b or not, is in the result
_OR = (False, True, True, True)
_AND = (False, False, False, True)
_SUB = (False, False, True, False)


def _runs(a_keys: Sequence[int], b_keys: Sequence[int], a_segs: Sequence[Triple],
          b_segs: Sequence[Triple]) -> Iterator[tuple[int, int]]:
    """Walk the flattened endpoints of a and b in order; yield the positions (i, j) after each step.

    A step takes a run: one operand's endpoints below the other's next one,
    or all that are left of one operand once the other's are taken.  A
    canonical set has two endpoints per segment, so a run is most often the
    rest of one segment: the step compares the operand's next two keys, the
    rest of its segment and the next start, with the other's key, and
    bisects the keys only when both are below.  A key tie stops a run and
    is settled exactly by one _cmp of the triples' integers: equal
    endpoints are one step that moves both i and j, and otherwise the lower
    endpoint alone is a run.  Every other step moves only i or only j.
    """
    na, nb = len(a_keys), len(b_keys)
    i = j = 0
    while i < na and j < nb:
        x, y = a_keys[i], b_keys[j]
        if x < y:
            i += 1
            if i < na and a_keys[i] < y:
                i += 1
                if i < na and a_keys[i] < y:
                    i = bisect_left(a_keys, y, i + 1)
        elif y < x:
            j += 1
            if j < nb and b_keys[j] < x:
                j += 1
                if j < nb and b_keys[j] < x:
                    j = bisect_left(b_keys, x, j + 1)
        else:
            s, t = a_segs[i >> 1], b_segs[j >> 1]
            c = _cmp(s[i & 1], s[2], t[j & 1], t[2])
            if c <= 0:
                i += 1
            if c >= 0:
                j += 1
        yield i, j
    if i < na or j < nb:
        yield na, nb


def _run_segments(out: list[Triple], start: tuple[int, int] | None, segs: Sequence[Triple], i: int, k: int,
                  inside: bool) -> tuple[int, int] | None:
    """Append to out the result's segments that end at endpoints i to k - 1 of segs; return the result's
    open start after them.

    Over these endpoints the result is inside segs (``inside``) or outside
    it.  Inside, the result's segments are segs' own, and those triples are
    reused; outside, they are the gaps between segs' segments, each written
    by _triple.  The open start is an endpoint as a pair (num, den).
    """
    if inside:
        if i & 1:  # endpoint i ends the segment the result is in
            seg = segs[i >> 1]
            out.append(seg if start == (seg[0], seg[2]) else _triple(*start, seg[1], seg[2]))
            i += 1
        out += segs[i >> 1:k >> 1]
        return (segs[k >> 1][0], segs[k >> 1][2]) if k & 1 else None
    if start is not None:  # endpoint i starts a segment of segs, where the result's open segment ends
        seg = segs[i >> 1]
        out.append(_triple(*start, seg[0], seg[2]))
        i += 1
    # the endpoints left alternately end a segment of segs, where a gap starts, and start the next one
    q, r = i >> 1, (k - 1) >> 1
    out += [_triple(s[1], s[2], t[0], t[2]) for s, t in zip(segs[q:r], segs[q + 1:r + 1])]
    return (segs[r][1], segs[r][2]) if (k - i) & 1 else None


def _sweep(a: "ArcSet", b: "ArcSet", keep: tuple[bool, ...]) -> list[Triple]:
    """The canonical segments of {x : keep[2 * (x in a) + (x in b)]}, in order.

    a and b are canonical, so each one's flattened endpoints strictly
    increase and a point lies inside after an odd number of them.  Over a
    run of a's endpoints (see _runs) whether a point is in b is fixed, so
    either every endpoint of the run bounds the result or none does, and
    likewise for b; the run is kept or dropped whole.  So a ball against a
    large set costs O(log n) key comparisons plus its output.  A kept run
    from a segment's start to a segment's start is whole segments of the
    operand, copied with one slice of its triples; _run_segments writes
    the rest, where the result starts or ends inside an operand's segment.
    """
    out: list[Triple] = []
    start = None  # where the result's open segment began
    a_keys, b_keys, a_segs, b_segs = a._keys, b._keys, a.triples, b.triples
    i = j = 0
    for ni, nj in _runs(a_keys, b_keys, a_segs, b_segs):
        if nj == j:
            inside = keep[2 + (j & 1)]
            if keep[j & 1] != inside:
                if inside and not (i | ni) & 1:
                    out += a_segs[i >> 1:ni >> 1]
                else:
                    start = _run_segments(out, start, a_segs, i, ni, inside)
        elif ni == i:
            inside = keep[2 * (i & 1) + 1]
            if keep[2 * (i & 1)] != inside:
                if inside and not (j | nj) & 1:
                    out += b_segs[j >> 1:nj >> 1]
                else:
                    start = _run_segments(out, start, b_segs, j, nj, inside)
        elif keep[2 * (ni & 1) + (nj & 1)] != (start is not None):
            # the result starts or ends at an endpoint of both
            s, t = a_segs[i >> 1], b_segs[j >> 1]
            if start is not None:  # it ends: a segment of a or b that starts where it does is kept whole
                out.append(s if i & 1 and start == (s[0], s[2]) else t if j & 1 and start == (t[0], t[2])
                           else _triple(*start, s[i & 1], s[2]))
                start = None
            else:  # it starts, written as the endpoint of the segment that may end it, so that one is reused
                if not (i | j) & 1:  # both start here: the result ends with the first to end, or stays in
                    x, y = a_keys[i + 1], b_keys[j + 1]
                    b_first = y < x or y == x and _cmp(t[1], t[2], s[1], s[2]) < 0
                    use_b = not keep[2] if b_first else keep[1]  # keep[2]: in a alone, keep[1]: in b alone
                else:
                    use_b = not j & 1
                start = (t[0], t[2]) if use_b else (s[i & 1], s[2])
        i, j = ni, nj
    return out


def _measure(by_den: dict[int, int]) -> Fraction:
    """Sum of num/den over the items ``den: num`` of by_den, numerators already added per denominator.

    The sums per denominator are added in one tree.
    """
    return Fraction(*_sum_ratios((num, den) for den, num in by_den.items() if num))


@dataclass(frozen=True, init=False)
class ArcSet:
    """A finite union of half-open arcs in canonical form, stored as reduced triples (see Canonical form).

    Construct via :meth:`from_arcs`, :func:`thicken`, or the set operations;
    the raw constructor accepts any iterable of in-range segments ``(lo, hi)``
    of rationals and canonicalises it.  Supports ``|  &  -  ~  <=  in`` with
    exact semantics.
    """

    triples: tuple[Triple, ...] = ()
    # the set's part in [0, 1/2) when _mirrored wrote it, else None; not a field, so like the caches below
    # it takes no part in ==, hash, repr, copies or pickles
    _half = None

    def __init__(self, segments: Iterable[Segment] = ()) -> None:
        groups = []
        for x, y in segments:
            lo, hi, den = _triple(*x.as_integer_ratio(), *y.as_integer_ratio())
            if lo != hi:  # empty pairs are dropped, others checked
                if not 0 <= lo < hi <= den:
                    raise ValueError(f"segment out of range: ({x}, {y})")
                groups.append(((lo,), 1, 0, hi - lo, den, 0))
        object.__setattr__(self, "triples", _integer_union(groups).triples)

    @cached_property
    def segments(self) -> tuple[Segment, ...]:
        """The segments as Fraction pairs ``(lo, hi)``, built on first read.

        A cache, like _keys and measure: it takes no part in ==, hash, repr, copies or pickles.
        """
        return tuple((Fraction(lo, den), Fraction(hi, den)) for lo, hi, den in self.triples)

    @cached_property
    def _keys(self) -> list[int]:
        """The flattened endpoints' keys, computed on the first walk or lookup that needs them."""
        return [(x << _KEY_BITS) // den for lo, hi, den in self.triples for x in (lo, hi)]

    def __getstate__(self) -> dict:
        return {"triples": self.triples}

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, triples: tuple[Triple, ...]) -> "ArcSet":
        """Wrap reduced triples that are already canonical, skipping canonicalisation."""
        s = object.__new__(cls)
        object.__setattr__(s, "triples", triples)
        return s

    @classmethod
    def empty(cls) -> "ArcSet":
        return cls._trusted(())

    @classmethod
    def full(cls) -> "ArcSet":
        return cls._trusted(((0, 1, 1),))

    @classmethod
    def from_arcs(cls, arcs: Iterable[Arc]) -> "ArcSet":
        starts_and_lengths = (_triple(*a.start.value.as_integer_ratio(), *a.length.as_integer_ratio()) for a in arcs)
        return _integer_union([((lo,), 1, 0, width, den, 0) for lo, width, den in starts_and_lengths])

    # -- predicates and measure --------------------------------------------

    def is_empty(self) -> bool:
        return not self.triples

    def is_full(self) -> bool:
        return self.triples == ((0, 1, 1),)

    @cached_property
    def measure(self) -> Fraction:
        """The total length, computed once; like _keys, a cache that no comparison or copy sees."""
        by_den: dict[int, int] = {}
        for lo, hi, den in self.triples:
            by_den[den] = by_den.get(den, 0) + hi - lo
        return _measure(by_den)

    def __contains__(self, point: CirclePoint) -> bool:
        u, w = point.value.as_integer_ratio()
        keys, segs = self._keys, self.triples
        key = (u << _KEY_BITS) // w
        k = bisect_left(keys, key)
        # endpoints whose keys tie are compared exactly, in order, while they are at most the point
        while k < len(keys) and keys[k] == key and _cmp(segs[k >> 1][k & 1], segs[k >> 1][2], u, w) <= 0:
            k += 1
        return k & 1 == 1  # a point is inside after an odd number of endpoints

    # -- boolean algebra ----------------------------------------------------

    def complement(self) -> "ArcSet":
        """The full circle less self, by the same sweep as every other boolean operation.

        The complement of a mirror image of itself (see _mirrored) is one too, and is the mirrored
        [0, 1/2) less its half.
        """
        if self._half is not None:
            return _mirrored(_HALF_CIRCLE.difference(self._half))
        return ArcSet.full().difference(self)

    __invert__ = complement

    def _boolean(self, other: "ArcSet", keep: tuple[bool, ...]) -> "ArcSet":
        if self._half is not None and other._half is not None:
            return _mirrored(self._half._boolean(other._half, keep))
        return ArcSet._trusted(tuple(_sweep(self, other, keep)))

    def union(self, other: "ArcSet") -> "ArcSet":
        return self._boolean(other, _OR)

    __or__ = union

    def intersection(self, other: "ArcSet") -> "ArcSet":
        return self._boolean(other, _AND)

    __and__ = intersection

    def difference(self, other: "ArcSet") -> "ArcSet":
        return self._boolean(other, _SUB)

    __sub__ = difference

    def symm_diff_measure(self, other: "ArcSet") -> Fraction:
        """measure(self \\ other) + measure(other \\ self); zero iff equal.

        One walk (see _runs) finds the runs of boundaries of self & other,
        self - other and other - self, as index ranges, and counts them;
        only the piece with the fewest is measured, and the result follows
        from the cached measures of self and other.  Two mirror images of
        themselves (see _mirrored) are compared on their halves.
        """
        if self._half is not None and other._half is not None:
            return 2 * self._half.symm_diff_measure(other._half)
        a_segs, b_segs = self.triples, other.triples
        both, a_only, b_only = pieces = ([], [], [])  # the boundaries of self & other, self - other, other - self
        n_both = n_a = n_b = 0  # their sizes
        i = j = 0
        for ni, nj in _runs(self._keys, other._keys, a_segs, b_segs):
            if nj == j:  # a run of self's endpoints, all inside other or all outside it
                run = (a_segs, i, ni)
                if j & 1:
                    both.append(run)
                    b_only.append(run)
                    n_both += ni - i
                    n_b += ni - i
                else:
                    a_only.append(run)
                    n_a += ni - i
            elif ni == i:
                run = (b_segs, j, nj)
                if i & 1:
                    both.append(run)
                    a_only.append(run)
                    n_both += nj - j
                    n_a += nj - j
                else:
                    b_only.append(run)
                    n_b += nj - j
            elif i & 1 == j & 1:  # an endpoint of both, where both start or both end
                both.append((a_segs, i, ni))
                n_both += 1
            else:
                a_only.append((a_segs, i, ni))
                b_only.append((a_segs, i, ni))
                n_a += 1
                n_b += 1
            i, j = ni, nj
        sizes = [n_both, n_a, n_b]
        p = sizes.index(min(sizes))
        by_den: dict[int, int] = {}
        sign = -1  # a piece's boundaries alternate start, end
        for segs, i, k in pieces[p]:
            for m in range(i, k):
                seg = segs[m >> 1]
                by_den[seg[2]] = by_den.get(seg[2], 0) + sign * seg[m & 1]
                sign = -sign
        piece = _measure(by_den)
        if p == 0:
            return self.measure + other.measure - 2 * piece
        return (other.measure - self.measure if p == 1 else self.measure - other.measure) + 2 * piece

    def issubset(self, other: "ArcSet") -> bool:
        """Whether no run of the walk (see _runs) bounds self - other, classified as in symm_diff_measure.

        Two mirror images of themselves (see _mirrored) are compared on their halves.
        """
        if self._half is not None and other._half is not None:
            return self._half.issubset(other._half)
        i = j = 0
        for ni, nj in _runs(self._keys, other._keys, self.triples, other.triples):
            if (not j & 1) if nj == j else (i & 1) if ni == i else (i & 1 != j & 1):
                return False
            i, j = ni, nj
        return True

    __le__ = issubset

    def __ge__(self, other: "ArcSet") -> bool:
        return other.issubset(self)

    # -- geometric actions ---------------------------------------------------

    def _groups(self) -> list[tuple]:
        """The triples as one-arc groups of the writer (see _keyed_pieces)."""
        return [((lo,), 1, 0, hi - lo, den, 0) for lo, hi, den in self.triples]

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
        """The set as wrap-joined arcs, sorted by start point, one per triple of _arc_triples."""
        return tuple(Arc(CirclePoint(Fraction(lo, den)), Fraction(hi - lo, den))
                     for lo, hi, den in self._arc_triples())

    def _arc_triples(self) -> Sequence[Triple]:
        """The wrap-joined arcs as triples (lo, hi, den), not always reduced: the two seam pieces are
        one arc of the circle, which comes last, with hi > den."""
        segs = self.triples
        if len(segs) > 1 and segs[0][0] == 0 and segs[-1][1] == segs[-1][2]:
            (_, hi, d), (lo, _, den) = segs[0], segs[-1]
            m = lcm(d, den)  # the seam arc [lo/den, 1 + hi/d) over m
            return [*segs[1:-1], (lo * (m // den), m + hi * (m // d), m)]
        return segs

    def to_json_dict(self) -> dict:
        """The wrap-joined arcs as in :attr:`arcs`, each start and length rendered from the triples."""
        return {"arcs": [{"start": _reduced_text(lo, den), "length": _reduced_text(hi - lo, den)}
                         for lo, hi, den in self._arc_triples()]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "ArcSet":
        """The union of the arcs of arc-set JSON, ``{"arcs": [{"start": "p/q", "length": "p/q"}, ...]}``.

        Each start and length is read to an integer pair (circle.parse_ratio)
        and the length checked on integers; a Fraction is built only for the
        message of a length outside (0, 1].  Each arc is one group of the
        writer, which takes its start mod 1.
        """
        items = data.get("arcs") if isinstance(data, dict) else None
        if not isinstance(items, list):
            raise ValueError("arc-set JSON must be an object with an 'arcs' list")
        groups = []
        for i, item in enumerate(items):
            if not isinstance(item, dict) or not {"start", "length"} <= item.keys():
                raise ValueError(f"arcs[{i}] must be an object with 'start' and 'length'")
            a, b = parse_ratio(item["start"], f"arcs[{i}].start")
            c, d = parse_ratio(item["length"], f"arcs[{i}].length")
            if not 0 < c <= d:
                raise _length_error(Fraction(c, d))
            lo, width, den = _triple(a, b, c, d)
            groups.append(((lo,), 1, 0, width, den, 0))
        return _integer_union(groups)

    @classmethod
    def from_json(cls, text: str) -> "ArcSet":
        return cls.from_json_dict(parse_json(text))

    def __str__(self) -> str:
        if self.is_empty():
            return "∅"
        if self.is_full():
            return "full circle"
        return " ∪ ".join(str(a) for a in self.arcs)


_HALF_CIRCLE = ArcSet._trusted(((0, 1, 2),))  # [0, 1/2)


def _reduced_text(num: int, den: int) -> str:
    """num/den rendered as format_fraction renders the Fraction, reduced by one gcd."""
    g = gcd(num, den)
    return _format_ratio(num // g, den // g)


def union_all(sets: Iterable[ArcSet]) -> ArcSet:
    """Union of arbitrarily many ArcSets in one canonicalisation pass."""
    return _integer_union([g for s in sets for g in s._groups()])


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
    pq = d.as_integer_ratio()
    return _integer_union(_thickening_groups((v.denominator, (v.numerator,), pq) for v in values))
