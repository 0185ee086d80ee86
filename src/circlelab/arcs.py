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

All values are immutable and all operations pure.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .circle import (
    CirclePoint,
    RationalLike,
    as_fraction,
    format_fraction,
    parse_fraction,
)

Segment = tuple[Fraction, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Arc:
    """Half-open arc ``{start + t : 0 <= t < length}``; length 1 is the full circle."""

    start: CirclePoint
    length: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "length", as_fraction(self.length))
        if not ZERO < self.length <= ONE:
            raise ValueError(f"arc length must satisfy 0 < length <= 1, got {self.length}")

    def segments(self) -> list[Segment]:
        """Split at the 0/1 seam into line segments inside [0, 1]."""
        return _split_at_seam(self.start.value, self.start.value + self.length)

    def __str__(self) -> str:
        end = self.start.value + self.length
        return f"[{format_fraction(self.start.value)}, {format_fraction(end)})"


def _split_at_seam(start: Fraction, end: Fraction) -> list[Segment]:
    """Segments of [start, end) for 0 <= start < 1 and end <= start + 1, cut at 1."""
    if end <= ONE:
        return [(start, end)]
    return [(start, ONE), (ZERO, end - 1)]


def arc(start: RationalLike | CirclePoint, length: RationalLike) -> Arc:
    """Build an Arc from plain rationals; ``arc('3/4', '1/2')`` wraps past 1."""
    if not isinstance(start, CirclePoint):
        start = CirclePoint(as_fraction(start))
    return Arc(start, as_fraction(length))


def _canonical(raw: Iterable[Segment]) -> tuple[Segment, ...]:
    segs = []
    for lo, hi in raw:
        if lo == hi:
            continue
        if not (ZERO <= lo < hi <= ONE):
            raise ValueError(f"segment out of range: ({lo}, {hi})")
        segs.append((lo, hi))
    segs.sort()
    merged: list[list[Fraction]] = []
    for lo, hi in segs:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


@dataclass(frozen=True)
class ArcSet:
    """A finite union of half-open arcs in canonical form.

    Construct via :meth:`from_arcs`, :func:`thicken`, or the set operations;
    the raw constructor accepts any iterable of in-range segments and
    canonicalises it.  Supports ``|  &  -  ~  <=  in`` with exact semantics.
    """

    segments: tuple[Segment, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", _canonical(self.segments))

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls) -> "ArcSet":
        return cls(())

    @classmethod
    def full(cls) -> "ArcSet":
        return cls(((ZERO, ONE),))

    @classmethod
    def from_arcs(cls, arcs: Iterable[Arc]) -> "ArcSet":
        return cls(tuple(seg for a in arcs for seg in a.segments()))

    # -- predicates and measure --------------------------------------------

    def is_empty(self) -> bool:
        return not self.segments

    def is_full(self) -> bool:
        return self.segments == ((ZERO, ONE),)

    @property
    def measure(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.segments), ZERO)

    def __contains__(self, point: CirclePoint) -> bool:
        v = point.value
        starts = [lo for lo, _ in self.segments]
        i = bisect_right(starts, v) - 1
        return i >= 0 and v < self.segments[i][1]

    # -- boolean algebra ----------------------------------------------------

    def complement(self) -> "ArcSet":
        gaps = []
        cursor = ZERO
        for lo, hi in self.segments:
            if cursor < lo:
                gaps.append((cursor, lo))
            cursor = hi
        if cursor < ONE:
            gaps.append((cursor, ONE))
        return ArcSet(tuple(gaps))

    __invert__ = complement

    def union(self, other: "ArcSet") -> "ArcSet":
        return ArcSet(self.segments + other.segments)

    __or__ = union

    def intersection(self, other: "ArcSet") -> "ArcSet":
        return (~self | ~other).complement()

    __and__ = intersection

    def difference(self, other: "ArcSet") -> "ArcSet":
        return self & ~other

    __sub__ = difference

    def symm_diff_measure(self, other: "ArcSet") -> Fraction:
        """measure(self \\ other) + measure(other \\ self); zero iff equal."""
        return (self - other).measure + (other - self).measure

    def issubset(self, other: "ArcSet") -> bool:
        return (self - other).is_empty()

    __le__ = issubset

    def __ge__(self, other: "ArcSet") -> bool:
        return other.issubset(self)

    # -- geometric actions ---------------------------------------------------

    def translate(self, a: CirclePoint) -> "ArcSet":
        """Exact image {a + y : y in self}; preserves measure."""
        raw = []
        for lo, hi in self.segments:
            start = (lo + a.value) % 1
            raw.extend(_split_at_seam(start, start + (hi - lo)))
        return ArcSet(tuple(raw))

    def mul_image(self, m: int) -> "ArcSet":
        """Exact image under y -> m*y; an arc of length L maps to one of length min(1, m*L)."""
        if m < 1:
            raise ValueError(f"multiplier must be >= 1, got {m}")
        raw = []
        for lo, hi in self.segments:
            length = m * (hi - lo)
            if length >= ONE:
                return ArcSet.full()
            start = (m * lo) % 1
            raw.extend(_split_at_seam(start, start + length))
        return ArcSet(tuple(raw))

    # -- presentation ---------------------------------------------------------

    @property
    def arcs(self) -> tuple[Arc, ...]:
        """The set as wrap-joined arcs, sorted by start point."""
        segs = self.segments
        if not segs:
            return ()
        if self.is_full():
            return (Arc(CirclePoint(ZERO), ONE),)
        out = []
        if segs[0][0] == ZERO and segs[-1][1] == ONE:
            # the two seam pieces are one arc of the circle
            wrap_lo = segs[-1][0]
            out.append(Arc(CirclePoint(wrap_lo), (ONE - wrap_lo) + segs[0][1]))
            segs = segs[1:-1]
        out.extend(Arc(CirclePoint(lo), hi - lo) for lo, hi in segs)
        out.sort(key=lambda a: a.start.value)
        return tuple(out)

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
        return cls.from_json_dict(json.loads(text))

    def __str__(self) -> str:
        if self.is_empty():
            return "∅"
        if self.is_full():
            return "full circle"
        return " ∪ ".join(str(a) for a in self.arcs)


def union_all(sets: Iterable[ArcSet]) -> ArcSet:
    """Union of arbitrarily many ArcSets in one canonicalisation pass."""
    raw: list[Segment] = []
    for s in sets:
        raw.extend(s.segments)
    return ArcSet(tuple(raw))


def thicken(points: Iterable[CirclePoint], delta: RationalLike) -> ArcSet:
    """Open thickening of a finite point set, as half-open arcs [p - delta, p + delta).

    delta <= 0 gives the empty set (the open condition d < delta is
    unsatisfiable); delta >= 1/2 gives the full circle for nonempty input.
    """
    d = as_fraction(delta)
    if d <= 0:
        return ArcSet.empty()
    length = min(ONE, 2 * d)
    return ArcSet.from_arcs(Arc(p + CirclePoint(-d), length) for p in points)
