"""Shared test utilities: random generators, independent oracles, golden files.

The membership oracle here deliberately avoids the ArcSet sweep machinery:
sets are probed pointwise with raw Fraction arithmetic on a common grid,
so measures of boolean combinations can be cross-checked against an
implementation that shares no code with the library's canonicalisation.
The brute-force oracles check the library's structured searches against
plain enumeration, and the slow-path oracles keep the library's earlier
algorithms: the ArcSet on Fraction endpoints (FractionArcSet), a Fraction
sort for canonicalisation, a sweep that compares Fraction endpoints for
boolean operations, a walk that bisects for every run of endpoints, one set per term for tail
unions, one Fraction addition per term for exact sums, Fraction
arithmetic for the affine maps, integer pairs for the circle's group
operations, every residue's arc on the whole circle for tail unions and
their measures, which the library writes and takes on the half circle,
keyed 6-tuples for the half-circle arcs, which the library packs into one
integer each, a
walk over the gaps for the complement, a sort for the wrap-joined arcs,
one Decimal division for the 12-digit rendering of a rational, a loop
for the doubling schedule of partial-sum cutoffs,
a Fraction, CirclePoint and Arc per arc for the arc-set JSON reader,
and whole ArcSets or CirclePoints compared for invariance, the
inclusions (i)-(iv) and conjugation.
"""

from __future__ import annotations

import json
import os
import random
from bisect import bisect_left
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from itertools import chain
from math import gcd
from operator import itemgetter
from pathlib import Path
from typing import Callable

from circlelab import (
    AffineCircleMap,
    Arc,
    ArcSet,
    CirclePoint,
    TailUnionSpec,
    arc,
    finite_order_points,
    format_fraction,
    grid_cells,
    parse_fraction,
    thicken,
    totient,
    union_all,
)
from circlelab.approx import _coprime_residues, _tail_terms
from circlelab.arcs import (
    _half_circle_groups,
    _integer_union,
    _key_bits,
    _keyed_pieces,
    _measure,
    _mirrored,
    _thickening_groups,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "measures.json"


# -- random generators -------------------------------------------------------


def rand_fraction(rng: random.Random, max_den: int = 32) -> Fraction:
    d = rng.randint(1, max_den)
    return Fraction(rng.randrange(d), d)


def rand_point(rng: random.Random, max_den: int = 32) -> CirclePoint:
    return CirclePoint(rand_fraction(rng, max_den))


def rand_arc(rng: random.Random, max_den: int = 32) -> Arc:
    d = rng.randint(1, max_den)
    start = Fraction(rng.randrange(d), d)
    length = Fraction(rng.randint(1, d), d)
    return arc(start, length)


def rand_arcset(rng: random.Random, max_arcs: int = 4, max_den: int = 32) -> ArcSet:
    return ArcSet.from_arcs(rand_arc(rng, max_den) for _ in range(rng.randint(0, max_arcs)))


def rand_grid_arcs(rng: random.Random, denom: int, max_arcs: int = 4) -> list[tuple[Fraction, Fraction]]:
    """Random (start, length) pairs with endpoints on the 1/denom grid."""
    out = []
    for _ in range(rng.randint(0, max_arcs)):
        start = Fraction(rng.randrange(denom), denom)
        length = Fraction(rng.randint(1, denom), denom)
        out.append((start, length))
    return out


# -- pointwise membership oracle ----------------------------------------------


def in_arc(x: Fraction, start: Fraction, length: Fraction) -> bool:
    """Membership in the half-open arc [start, start + length), mod 1."""
    return (x - start) % 1 < length


def circ_dist(x: Fraction, y: Fraction) -> Fraction:
    d = (x - y) % 1
    return min(d, 1 - d)


def grid_measure(member: Callable[[Fraction], bool], denom: int) -> Fraction:
    """Exact measure of a set that is a union of 1/denom grid cells.

    Probes the midpoint of every cell; valid whenever all boundary points
    of the set lie on the grid.
    """
    hits = sum(1 for j in range(denom) if member(Fraction(2 * j + 1, 2 * denom)))
    return Fraction(hits, denom)


def grid_segments(member: Callable[[Fraction], bool], denom: int) -> tuple:
    """Canonical segments of a union of 1/denom grid cells, from the midpoint of every cell."""
    out: list[tuple[Fraction, Fraction]] = []
    for j in range(denom):
        if not member(Fraction(2 * j + 1, 2 * denom)):
            continue
        lo, hi = Fraction(j, denom), Fraction(j + 1, denom)
        if out and out[-1][1] == lo:
            lo = out.pop()[0]
        out.append((lo, hi))
    return tuple(out)


# -- brute-force oracles ----------------------------------------------------------


def invariant_sets_brute_force(t: AffineCircleMap, k: int) -> list[ArcSet]:
    """Every union of 1/k grid cells with t.preimage(s) == s, in cell-bitmask order; 2**k tries."""
    cells = grid_cells(k)
    found = []
    for bits in range(1 << k):
        s = union_all(cells[j] for j in range(k) if bits >> j & 1)
        if t.preimage(s) == s:
            found.append(s)
    return found


def coprime_residues_scan(n: int) -> list[int]:
    """The m in [0, n) with gcd(m, n) == 1, by one gcd per m."""
    return [m for m in range(n) if gcd(m, n) == 1]


def dist_to_order_scan(x: Fraction, n: int) -> Fraction:
    """Circle distance from x to the nearest m/n with gcd(m, n) == 1, scanning all n numerators."""
    return min(circ_dist(x, Fraction(m, n)) for m in range(n) if gcd(m, n) == 1)


# -- slow-path oracles -------------------------------------------------------------


def canonical_by_fraction_sort(raw) -> tuple:
    """Canonical segments of raw (lo, hi) pairs by sorting and merging Fractions directly."""
    segs = sorted((lo, hi) for lo, hi in raw if lo != hi)
    merged: list[list[Fraction]] = []
    for lo, hi in segs:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def arcset_of_segments(segments) -> ArcSet:
    """The ArcSet of canonical segments (lo, hi) of rationals, its reduced triples (lo, hi, den) found here:
    den is the lcm of the endpoints' reduced denominators, with no library writer."""
    triples = []
    for lo, hi in segments:
        (a, b), (c, d) = Fraction(lo).as_integer_ratio(), Fraction(hi).as_integer_ratio()
        den = b * d // gcd(b, d)
        triples.append((a * (den // b), c * (den // d), den))
    return ArcSet._trusted(tuple(triples))


class FractionArcSet:
    """ArcSet as the library once stored it, with Fraction endpoints, every operation by the Fraction oracles
    here: canonical form by Fraction sort, boolean operations by the Fraction sweep, the maps by Fraction
    arithmetic, and JSON from the wrap-joined arcs sorted by start."""

    def __init__(self, raw=()):
        self.segments = canonical_by_fraction_sort((Fraction(lo), Fraction(hi)) for lo, hi in raw)

    def as_arcset(self) -> ArcSet:
        return arcset_of_segments(self.segments)

    def _swept(self, other: "FractionArcSet", keep) -> "FractionArcSet":
        return FractionArcSet(sweep_by_fraction(self.segments, other.segments, keep))

    def __or__(self, other):
        return self._swept(other, OR)

    def __and__(self, other):
        return self._swept(other, AND)

    def __sub__(self, other):
        return self._swept(other, SUB)

    def __invert__(self):
        return FractionArcSet(complement_by_gap_walk(self))

    def __le__(self, other) -> bool:
        return subset_by_fraction(self.segments, other.segments)

    def symm_diff_measure(self, other) -> Fraction:
        return symm_diff_by_fraction(self.segments, other.segments)

    def __contains__(self, point: CirclePoint) -> bool:
        return any(lo <= point.value < hi for lo, hi in self.segments)

    @property
    def measure(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.segments), Fraction(0))

    def translate(self, a: CirclePoint) -> "FractionArcSet":
        return FractionArcSet(translate_by_fraction(self, a).segments)

    def mul_image(self, m: int) -> "FractionArcSet":
        return FractionArcSet(mul_image_by_fraction(self, m).segments)

    def preimage(self, t: AffineCircleMap) -> "FractionArcSet":
        return FractionArcSet(preimage_by_fraction(t, self).segments)

    def to_json(self) -> str:
        return json.dumps({"arcs": [{"start": format_fraction(a.start.value), "length": format_fraction(a.length)}
                                    for a in arcs_by_sort(self)]})


class _PastEnd:
    """Above every Fraction: the next endpoint of a swept-through operand."""

    def __gt__(self, other) -> bool:
        return True

    def __lt__(self, other) -> bool:
        return False

    __ge__, __le__ = __gt__, __lt__


_PAST_END = _PastEnd()


def _run_end_by_fraction(segs, i: int, y) -> int:
    """The first flattened index after i whose endpoint is not below y, galloping over segment starts."""
    n = len(segs)
    lo, hi, step = i >> 1, (i >> 1) + 1, 1
    while hi < n and segs[hi][0] < y:
        lo = hi
        step *= 2
        hi = lo + step
    s = bisect_left(segs, y, lo + 1, min(hi, n), key=itemgetter(0))
    return 2 * s - 1 if segs[s - 1][1] >= y else 2 * s


def _take_by_fraction(start, segs, i: int, k: int, inside: bool):
    """Yield the result's segments that end at endpoints i to k - 1 of segs; return the open start."""
    if inside:
        if i & 1:
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


def sweep_by_fraction(a, b, keep: tuple[bool, ...], gallop_after: int = 8):
    """The canonical segments of {x : keep[2 * (x in a) + (x in b)]}, comparing the endpoints themselves.

    The library's earlier sweep: it steps through both operands' endpoints
    in order and gallops over runs of gallop_after or more from one of them.
    """
    na, nb = 2 * len(a), 2 * len(b)
    start = None
    i = j = 0
    streak = 0
    while i < na or j < nb:
        x = a[i >> 1][i & 1] if i < na else _PAST_END
        y = b[j >> 1][j & 1] if j < nb else _PAST_END
        seg = None
        if x < y:
            streak = streak + 1 if streak > 0 else 1
            if streak == gallop_after:
                k = _run_end_by_fraction(a, i, y)
                if keep[2 + (j & 1)] != keep[j & 1]:
                    start = yield from _take_by_fraction(start, a, i, k, keep[2 + (j & 1)])
                i, streak = k, 0
                continue
            if i & 1:
                seg = a[i >> 1]
            i += 1
        elif y < x:
            streak = streak - 1 if streak < 0 else -1
            if streak == -gallop_after:
                k = _run_end_by_fraction(b, j, x)
                if keep[2 * (i & 1) + 1] != keep[2 * (i & 1)]:
                    start = yield from _take_by_fraction(start, b, j, k, keep[2 * (i & 1) + 1])
                j, streak = k, 0
                continue
            if j & 1:
                seg = b[j >> 1]
            x = y
            j += 1
        else:
            i += 1
            j += 1
            streak = 0
        if keep[2 * (i & 1) + (j & 1)] != (start is not None):
            if start is None:
                start = x
            else:
                yield seg if seg is not None and start is seg[0] else (start, x)
                start = None


# keep tables for sweep_by_fraction: keep[2 * (x in a) + (x in b)]
OR = (False, True, True, True)
AND = (False, False, False, True)
SUB = (False, False, True, False)
RSUB = (False, True, False, False)
XOR = (False, True, True, False)


def runs_by_bisection(a_keys, b_keys, a_segs, b_segs):
    """The library's earlier walk of the flattened endpoints of a and b: yield the positions (i, j) after
    each step.

    Each step bisects one operand's keys for its run below the other's next
    key; a key tie is settled by comparing the triples' integers, and equal
    endpoints move both.
    """
    na, nb = len(a_keys), len(b_keys)
    i = j = 0
    while i < na and j < nb:
        x, y = a_keys[i], b_keys[j]
        if x < y:
            i = bisect_left(a_keys, y, i + 1)
        elif y < x:
            j = bisect_left(b_keys, x, j + 1)
        else:
            s, t = a_segs[i >> 1], b_segs[j >> 1]
            c = s[i & 1] * t[2] - t[j & 1] * s[2]
            if c <= 0:
                i += 1
            if c >= 0:
                j += 1
        yield i, j
    if i < na or j < nb:
        yield na, nb


def symm_diff_by_fraction(a, b) -> Fraction:
    """The measure of the symmetric difference of canonical segments a and b, from the Fraction sweep."""
    return sum((hi - lo for lo, hi in sweep_by_fraction(a, b, XOR)), Fraction(0))


def subset_by_fraction(a, b) -> bool:
    """Whether canonical segments a lie inside b: the Fraction sweep of a - b yields nothing."""
    return next(sweep_by_fraction(a, b, SUB), None) is None


def complement_by_gap_walk(s: ArcSet) -> tuple:
    """The gaps between s's canonical segments, and those before the first and after the last, by one walk."""
    gaps = []
    cursor = Fraction(0)
    for lo, hi in s.segments:
        if cursor < lo:
            gaps.append((cursor, lo))
        cursor = hi
    if cursor < 1:
        gaps.append((cursor, Fraction(1)))
    return tuple(gaps)


def arcs_by_sort(s) -> tuple:
    """s.arcs as the library once built them: the two seam pieces joined first, then all sorted by start."""
    segs = s.segments
    out = []
    if len(segs) > 1 and segs[0][0] == 0 and segs[-1][1] == 1:
        wrap_lo = segs[-1][0]
        out.append(Arc(CirclePoint(wrap_lo), (1 - wrap_lo) + segs[0][1]))
        segs = segs[1:-1]
    out.extend(Arc(CirclePoint(lo), hi - lo) for lo, hi in segs)
    out.sort(key=lambda a: a.start.value)
    return tuple(out)


def _split_at_one(start: Fraction, end: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Segments of [start, end) for 0 <= start < 1 and end <= start + 1, cut at 1."""
    if end <= 1:
        return [(start, end)]
    return [(start, Fraction(1)), (Fraction(0), end - 1)]


def translate_by_fraction(s: ArcSet, a: CirclePoint) -> ArcSet:
    """{a + y : y in s}, one Fraction mod, add and seam cut per segment."""
    raw = []
    for lo, hi in s.segments:
        start = (lo + a.value) % 1
        raw.extend(_split_at_one(start, start + (hi - lo)))
    return arcset_of_segments(canonical_by_fraction_sort(raw))


def mul_image_by_fraction(s: ArcSet, m: int) -> ArcSet:
    """{m * y : y in s} for m >= 1, from Fraction lengths and starts."""
    raw = []
    for lo, hi in s.segments:
        length = m * (hi - lo)
        if length >= 1:
            return ArcSet.full()
        start = (m * lo) % 1
        raw.extend(_split_at_one(start, start + length))
    return arcset_of_segments(canonical_by_fraction_sort(raw))


def preimage_by_fraction(t: AffineCircleMap, s: ArcSet) -> ArcSet:
    """The preimage of s under y -> n*y + x, n >= 1: n Fraction sub-arcs per segment."""
    n, x = t.multiplier, t.offset.value
    raw = []
    for lo, hi in s.segments:
        base = (lo - x) % 1
        sub = (hi - lo) / n
        for k in range(n):
            start = (base + k) / n
            raw.extend(_split_at_one(start, start + sub))
    return arcset_of_segments(canonical_by_fraction_sort(raw))


def arcset_from_json_by_fraction(data) -> ArcSet:
    """ArcSet.from_json_dict as it was: each start and length read by parse_fraction to a Fraction, the arc
    built as an Arc, which checks its length, and the set by from_arcs."""
    items = data.get("arcs") if isinstance(data, dict) else None
    if not isinstance(items, list):
        raise ValueError("arc-set JSON must be an object with an 'arcs' list")
    out = []
    for i, item in enumerate(items):
        if not isinstance(item, dict) or not {"start", "length"} <= item.keys():
            raise ValueError(f"arcs[{i}] must be an object with 'start' and 'length'")
        start = parse_fraction(item["start"], f"arcs[{i}].start")
        out.append(Arc(CirclePoint(start), parse_fraction(item["length"], f"arcs[{i}].length")))
    return ArcSet.from_arcs(out)


def is_invariant_by_preimage(t: AffineCircleMap, s: ArcSet) -> bool:
    """Invariance as the library once decided it: the whole preimage ArcSet, then ==."""
    return t.preimage(s) == s


def union_of_groups_by_fraction(groups) -> ArcSet:
    """The union of groups of integer arcs (see arcs._keyed_pieces): one Fraction arc per m, cut at 1, merged
    by Fraction sort."""
    raw = []
    for ms, step, offset, width, den, _ in groups:
        for m in ms:
            start = Fraction((m * step + offset) % den, den)
            raw.extend(_split_at_one(start, start + Fraction(width, den)))
    return arcset_of_segments(canonical_by_fraction_sort(raw))


def ao_by_arcs(n: int, delta: Fraction) -> ArcSet:
    """AO(n, delta), the order-n points thickened by delta, from Fraction arcs merged by Fraction sort."""
    return arcset_of_segments(thicken_by_arcs(finite_order_points(n), delta))


# the inclusion checks (i)-(iv) as the library once decided them, on whole ArcSets, here built, mapped and
# compared by the Fraction oracles above; none checks the condition on its arguments, so each can be False
def inclusion_i_by_sets(m: int, n: int, delta: Fraction) -> bool:
    """m * AO(n, delta) inside AO(n, m*delta)."""
    return subset_by_fraction(mul_image_by_fraction(ao_by_arcs(n, delta), m).segments,
                              ao_by_arcs(n, m * delta).segments)


def inclusion_ii_by_sets(m: int, n: int, delta: Fraction) -> bool:
    """m * AO(n*m, delta) inside AO(n, m*delta)."""
    return subset_by_fraction(mul_image_by_fraction(ao_by_arcs(n * m, delta), m).segments,
                              ao_by_arcs(n, m * delta).segments)


def inclusion_iii_by_sets(a: CirclePoint, n: int, delta: Fraction) -> bool:
    """a + AO(n, delta) inside AO(order(a)*n, delta)."""
    return subset_by_fraction(translate_by_fraction(ao_by_arcs(n, delta), a).segments,
                              ao_by_arcs(a.order() * n, delta).segments)


def inclusion_iv_by_translate(a: CirclePoint, n: int, delta: Fraction) -> bool:
    """a + AO(n, delta) == AO(n, delta)."""
    s = ao_by_arcs(n, delta)
    return translate_by_fraction(s, a) == s


def conjugated_images_by_points(n: int, x: CirclePoint, shift: CirclePoint, sample) -> list:
    """For each y, the points shift + g(y - shift) and f(y) for g: y -> n*y + x and f: y -> n*y."""
    g, f = AffineCircleMap(n, x), AffineCircleMap(n)
    return [(shift + g(y - shift), f(y)) for y in sample]


# CirclePoint's group operations on the rationals x and y themselves, as integer pairs (numerator, denominator)
def _mod_one(num: int, den: int) -> tuple[int, int]:
    """num/den mod 1 for den > 0, as the lowest-terms pair (a, b) with 0 <= a < b, by gcd and floor division."""
    g = gcd(num, den)
    a, b = num // g, den // g
    return a - (a // b) * b, b


def add_by_integers(x: Fraction, y: Fraction) -> tuple[int, int]:
    (a, b), (c, d) = x.as_integer_ratio(), y.as_integer_ratio()
    return _mod_one(a * d + c * b, b * d)


def sub_by_integers(x: Fraction, y: Fraction) -> tuple[int, int]:
    (a, b), (c, d) = x.as_integer_ratio(), y.as_integer_ratio()
    return _mod_one(a * d - c * b, b * d)


def neg_by_integers(x: Fraction) -> tuple[int, int]:
    a, b = x.as_integer_ratio()
    return _mod_one(-a, b)


def rmul_by_integers(k: int, x: Fraction) -> tuple[int, int]:
    a, b = x.as_integer_ratio()
    return _mod_one(k * a, b)


def thicken_by_arcs(points, delta: Fraction) -> tuple:
    """Canonical segments of the thickening: Fraction arcs cut at the seam, merged by Fraction sort."""
    if delta <= 0:
        return ()
    length = min(Fraction(1), 2 * delta)
    starts = [(p.value - delta) % 1 for p in points]
    return canonical_by_fraction_sort(seg for start in starts for seg in _split_at_one(start, start + length))


def tail_union_per_term(spec: TailUnionSpec) -> ArcSet:
    """The tail union as the union of one per-point thickening of the order-n points per admitted index."""
    return union_all(
        thicken(finite_order_points(n), spec.delta.eval_at(n))
        for n in range(spec.n_min, spec.n_max + 1)
        if spec.pred(n)
    )


def tail_union_full_circle(spec: TailUnionSpec) -> ArcSet:
    """tail_union as the library once wrote it: every residue's arc on the whole circle, in one sort and
    one merge, with no half kept."""
    _, terms = _tail_terms(spec.pred, spec.delta, [spec.n_min], spec.n_max)
    return _integer_union(_thickening_groups((n, _coprime_residues(n), d) for n, d in terms))


def run_measure(keyed, groups) -> Fraction:
    """Measure of the union of the arcs of groups (see arcs._keyed_pieces), given their keyed items in order
    of their exact start keys, those with equal start keys in any order: the walk the library took before
    it packed each arc into one integer (arcs._packed_measure).

    The measure is the arcs' total width, len(ms) * width over den per
    group, less their overlaps: an item that starts at or past the run's
    end starts a new run, one that ends inside it is taken off whole, and
    one that ends past it is taken off up to the end.
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
    return _measure(by_den)


def with_half_residues(term_lists) -> list[list]:
    """Each list of terms (n, (p, q)) as terms (n, ms, (p, q)), ms the m coprime to n in [0, n // 2]."""
    return [[(n, _coprime_residues(n, n // 2 + 1), d) for n, d in terms] for terms in term_lists]


def keyed_half_thickenings(*term_lists) -> list[tuple[list, list]]:
    """For each list of terms (n, ms, (p, q)), the keyed items (lo_key, hi_key, lo, hi, den, n) of its
    thickenings clipped to [0, 1/2), sorted on their start keys alone, and its groups
    (arcs._half_circle_groups), all with one exact key shift: the 6-tuples the library sorted and walked
    before it packed each arc into one integer (arcs._packed_half_thickenings)."""
    grids = [_half_circle_groups(terms) for terms in term_lists]
    k = _key_bits(max((g[4] for grid in grids for g in grid), default=1))
    return [(sorted(_keyed_pieces(grid, k), key=itemgetter(0)), grid) for grid in grids]


def tail_union_by_keyed_half(spec: TailUnionSpec) -> ArcSet:
    """tail_union as the library wrote it before it packed each arc into one integer: the keyed half
    merged by arcs._integer_union's sort and merge, then mirrored."""
    _, terms = _tail_terms(spec.pred, spec.delta, [spec.n_min], spec.n_max)
    (_, grid), = keyed_half_thickenings(*with_half_residues([terms]))
    return _mirrored(_integer_union(grid))


def tail_union_measures_by_keyed_half(pred, delta, n_mins, n_max) -> list[Fraction]:
    """tail_union_measures as the library took them before it packed each arc into one integer."""
    full, terms = _tail_terms(pred, delta, n_mins, n_max)
    starts = [n_min for n_min in n_mins if n_min > full]
    first = min(starts, default=n_max + 1)
    (keyed, groups), = keyed_half_thickenings(*with_half_residues([[t for t in terms if t[0] >= first]]))
    measures = {s: 2 * run_measure([a for a in keyed if a[5] >= s], [g for g in groups if g[5] >= s])
                for s in starts}
    return [measures.get(n_min, Fraction(1)) for n_min in n_mins]


def scaled_comparison_by_keyed_half(pred, delta, scale, n_min, n_max) -> tuple:
    """scaled_tail_union_comparison as the library took it before it packed each arc into one integer."""
    _, t1 = _tail_terms(pred, delta, [n_min], n_max)
    _, tm = _tail_terms(pred, delta.scale(scale), [n_min], n_max)
    (k1, g1), (km, gm) = keyed_half_thickenings(*with_half_residues([t1, tm]))
    mu_1, mu_m = 2 * run_measure(k1, g1), 2 * run_measure(km, gm)
    mu_both = 2 * run_measure(sorted(k1 + km, key=itemgetter(0)), g1 + gm)
    return mu_1, mu_m, 2 * mu_both - mu_1 - mu_m, mu_both == mu_m, mu_both == mu_1


def _keyed_full_circle(*term_lists) -> list[tuple[list, list]]:
    """For each list of terms (n, delta_n) of _tail_terms, the keyed items of every residue's arc, cut at
    the seam and sorted, and their groups, all with one key shift."""
    grids = [_thickening_groups((n, _coprime_residues(n), d) for n, d in terms) for terms in term_lists]
    k = _key_bits(max((g[4] for grid in grids for g in grid), default=1))
    return [(sorted(_keyed_pieces(grid, k)), grid) for grid in grids]


def tail_union_measures_full_circle(pred, delta, n_mins, n_max) -> list[Fraction]:
    """tail_union_measures as the library once took them: the arcs of all residues on the whole circle,
    cut at the seam, walked once per start and not doubled."""
    full, terms = _tail_terms(pred, delta, n_mins, n_max)
    starts = [n_min for n_min in n_mins if n_min > full]
    (keyed, groups), = _keyed_full_circle([t for t in terms if t[0] >= min(starts, default=n_max + 1)])
    measures = {s: run_measure([a for a in keyed if a[5] >= s], [g for g in groups if g[5] >= s]) for s in starts}
    return [measures.get(n_min, Fraction(1)) for n_min in n_mins]


def scaled_comparison_full_circle(pred, delta, scale, n_min, n_max) -> tuple:
    """scaled_tail_union_comparison as the library once took it, from the arcs of all residues on the whole circle."""
    _, t1 = _tail_terms(pred, delta, [n_min], n_max)
    _, tm = _tail_terms(pred, delta.scale(scale), [n_min], n_max)
    (k1, g1), (km, gm) = _keyed_full_circle(t1, tm)
    mu_1, mu_m, mu_both = run_measure(k1, g1), run_measure(km, gm), run_measure(sorted(k1 + km), g1 + gm)
    return mu_1, mu_m, 2 * mu_both - mu_1 - mu_m, mu_both == mu_m, mu_both == mu_1


def partial_sums_sequential(delta, cutoffs) -> list[Fraction]:
    """Sums of totient(n) * max(delta_n, 0) over n <= each cutoff, one Fraction addition per term."""
    total, n, sums = Fraction(0), 1, []
    for cutoff in cutoffs:
        while n <= cutoff:
            total += totient(n) * max(delta.eval_at(n), Fraction(0))
            n += 1
        sums.append(total)
    return sums


def doubling_schedule_by_loop(cap: int) -> list[int]:
    """The cutoffs 2, 4, 8, ... up to cap, or [cap] when there are none, by doubling in a loop."""
    ms = []
    m = 2
    while m <= cap:
        ms.append(m)
        m *= 2
    return ms or [cap]


def decimal_string_by_division(q: Fraction) -> str:
    """q to 12 significant digits, half-even, as the library once rendered it: one Decimal division."""
    with localcontext() as ctx:
        ctx.prec = 12
        ctx.rounding = ROUND_HALF_EVEN
        d = Decimal(q.numerator) / Decimal(q.denominator)
    return str(d)


def measure_per_denominator(segments) -> Fraction:
    """Sum of hi - lo, with the numerators added per denominator and the sums added in turn."""
    by_den: dict[int, int] = {}
    for lo, hi in segments:
        by_den[hi.denominator] = by_den.get(hi.denominator, 0) + hi.numerator
        by_den[lo.denominator] = by_den.get(lo.denominator, 0) - lo.numerator
    return sum((Fraction(num, den) for den, num in by_den.items()), Fraction(0))


# -- golden values --------------------------------------------------------------


def golden_check(name: str, value: Fraction) -> bool:
    """Compare against the frozen value.

    A missing key fails, so a renamed key is never silently re-blessed.
    With CIRCLELAB_REGEN_GOLDEN=1 a missing key is written and passes.
    """
    data = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    if name not in data:
        if os.environ.get("CIRCLELAB_REGEN_GOLDEN") != "1":
            return False
        data[name] = format_fraction(value)
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        return True
    return parse_fraction(data[name]) == value
