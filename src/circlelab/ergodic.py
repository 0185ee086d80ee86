"""Affine maps of the circle: exact preimages, invariance, and grid searches.

The map y -> n*y + x preserves arc-length measure for every n >= 1, and for
n >= 2 admits no nontrivial exactly-invariant set.  Neither is provable by
finite computation in full generality; this module instead provides the
exact preimage machinery, measure-preservation self-checks, and an exact
search for invariant sets among unions of grid cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterable, Iterator, Sequence

from .arcs import ArcSet, _affine_groups, _integer_union, _triple, _union_within
from .circle import ZERO_POINT, CirclePoint


# on a shared 2-core host the preimage of a set of 1,024 segments took 0.96 s and 242 MB at
# n = 1,024 (2**20 pieces), and 3.7 s and 916 MB at n = 4,096 (2**22); each doubling doubles both
MAX_PREIMAGE_PIECES = 1 << 22


@dataclass(frozen=True)
class AffineCircleMap:
    """The map y -> multiplier * y + offset on the circle."""

    multiplier: int
    offset: CirclePoint = ZERO_POINT

    def __post_init__(self) -> None:
        if self.multiplier < 0:
            raise ValueError(f"multiplier must be a natural number, got {self.multiplier}")

    def __call__(self, y: CirclePoint) -> CirclePoint:
        return self.multiplier * y + self.offset

    def preimage(self, s: ArcSet) -> ArcSet:
        """Exact inverse image T^-1 s = the union over j < n of (s - x + j)/n, for T: y -> n*y + x.

        s - x is written once: each arc of s (the seam pieces joined, see
        ArcSet.arcs) moved by -x, those that start at or past x first, so
        they run in order of start from 0 and only the last can cross 1.
        The n copies scaled by 1/n are then in order, and no two pieces
        touch, as no two arcs of s do: each piece is one reduced triple,
        with no sort or merge.  The last copy of an arc that crosses 1 is
        cut there, and its piece from 0 comes first.  The empty set and the
        circle are their own preimages, for any n.  Measure is preserved
        exactly.  A multiplier of 0 is rejected: the constant map's
        preimages are degenerate and not measure-preserving.  So is a
        preimage of more than MAX_PREIMAGE_PIECES pieces, before any is
        written.
        """
        n = self.multiplier
        if n < 1:
            raise ValueError("preimage requires multiplier >= 1")
        if s.is_empty() or s.is_full():
            return s
        if n * len(s.triples) > MAX_PREIMAGE_PIECES:
            raise ValueError(f"preimage must have at most 2**22 pieces, got {n} x {len(s.triples)} segments")
        e, f = self.offset.value.as_integer_ratio()
        head, tail = [], []  # the arcs of s that start at or past x, and before it, moved by -x mod 1
        for lo, hi, den in s._arc_triples():
            d = lcm(den, f)
            a, b = lo * (d // den) - e * (d // f), hi * (d // den) - e * (d // f)
            if a >= 0:
                head.append((a, b, d))
            else:
                tail.append((a + d, b + d, d))
        rotated = head + tail
        pieces = [_triple(lo + j * d, n * d, hi + j * d, n * d) for j in range(n) for lo, hi, d in rotated]
        lo, hi, d = rotated[-1]
        if hi > d:  # its last copy crosses 1
            pieces[-1] = _triple(lo + (n - 1) * d, n * d, n * d, n * d)
            pieces.insert(0, _triple(0, n * d, hi - d, n * d))
        return ArcSet._trusted(tuple(pieces))

    def preserves_measure_on(self, sample: Iterable[ArcSet]) -> bool:
        """Exact self-check: preimages of every sampled set keep its measure."""
        return all(self.preimage(s).measure == s.measure for s in sample)

    def is_invariant(self, s: ArcSet) -> bool:
        """True iff the preimage of s equals s, decided as the image inclusion T(s) <= s (see arcs).

        The image, one integer arc per segment of s or the circle, is looked up among the merged
        segments of s (arcs._union_within), and no preimage is written.  A multiplier of 0 is
        rejected, as by preimage, whatever s is.
        """
        n = self.multiplier
        if n < 1:
            raise ValueError("preimage requires multiplier >= 1")
        groups = s._groups()
        return _union_within(_affine_groups(groups, n, *self.offset.value.as_integer_ratio()), groups)


def grid_cells(denominator: int) -> list[ArcSet]:
    """The cells [j/k, (j+1)/k) of the uniform grid of the given denominator."""
    if denominator < 1:
        raise ValueError(f"grid denominator must be >= 1, got {denominator}")
    return [_integer_union([((j,), 1, 0, 1, denominator, 0)]) for j in range(denominator)]


# ergodic-search at grid 16 under the identity (all 65,536 unions, 19 MB of JSON) took
# 8-10 s and 305 MB on a shared 2-core host; each further cell doubles both
_MAX_UNIONS = 1 << 16


def invariant_set_search(t: AffineCircleMap, grid_denominator: int) -> list[ArcSet]:
    """All unions of grid cells that the map leaves exactly invariant, sorted by cell bitmask.

    A union of cells is invariant exactly when it holds every cell that the
    image of one of its cells touches, as invariance is the inclusion
    T(s) <= s (see is_invariant).  So the invariant unions are the unions
    of the closures reach[j], each still verified exactly by is_invariant.
    The image of a cell is one range of cells mod k, written as one
    bitmask with no cell walked, so the work does not grow with n: for
    n >= k it is every cell, and only the empty set and the circle are left.
    k is capped at 20, and the unions of the closures at _MAX_UNIONS: for
    n = 1 all 2**k unions can be invariant, so a search that would check
    more is refused before any union is written.
    """
    k = grid_denominator
    if not 1 <= k <= 20:
        raise ValueError(f"grid denominator must lie in 1..20, got {k}")
    n, (e, f) = t.multiplier, t.offset.value.as_integer_ratio()
    every = (1 << k) - 1
    reach = []
    for j in range(k):
        # over k*f, the image of cell j is [p, p + n*f) with p = n*j*f + e*k,
        # which touches the cells lo = p // f to hi - 1 = ceil((p + n*f) / f) - 1, mod k
        p = n * j * f + e * k
        lo, hi = p // f, -(-(p + n * f) // f)
        bits = every if hi - lo >= k else ((1 << (hi - lo)) - 1) << (lo % k)
        reach.append(1 << j | (bits | bits >> k) & every)
    for m in range(k):  # Warshall: reach[j] becomes its transitive closure
        for j in range(k):
            if reach[j] >> m & 1:
                reach[j] |= reach[m]
    closed = {0}
    for r in reach:
        closed |= {c | r for c in closed}
        if len(closed) > _MAX_UNIONS:
            raise ValueError(f"more than {_MAX_UNIONS} unions of {k} grid cells to check, use a smaller grid")
    # as in grid_cells, the cells j in bits are integer arcs [j/k, (j+1)/k), here in one group
    unions = (_integer_union([([j for j in range(k) if bits >> j & 1], 1, 0, 1, k, 0)])
              for bits in sorted(closed))
    return [s for s in unions if t.is_invariant(s)]


def conjugation_check(n: int, x: CirclePoint, sample: Sequence[CirclePoint]) -> bool:
    """Self-check that translation by x/(n-1) conjugates y -> n*y + x to y -> n*y.

    The shift is computed from the canonical representative of x; any other
    representative differs by a point of order dividing n - 1, which
    conjugates the same pair of maps.  Both sides are integer numerators
    over one denominator per sample (see _conjugated_images), with no
    CirclePoint built.  Must return True for every sample, which checks one identity: for every y
    the two sides differ by x - (n-1)*shift, so a single point decides the verdict.
    """
    if n < 2:
        raise ValueError(f"conjugation needs multiplier >= 2, got {n}")
    e, f = x.value.as_integer_ratio()
    return all(left == right for left, right, _ in _conjugated_images(n, x, (e, f * (n - 1)), sample))


def _conjugated_images(n: int, x: CirclePoint, shift: tuple[int, int],
                       sample: Iterable[CirclePoint]) -> Iterator[tuple[int, int, int]]:
    """For each y in sample, shift + g(y - shift) and f(y), for g: y -> n*y + x, f: y -> n*y and shift = r/d.

    Each pair comes as numerators in [0, den) over den = lcm(v, d, den(x))
    for y = u/v, followed by den.
    """
    r, d = shift
    e, f = x.value.as_integer_ratio()
    m = lcm(d, f)
    for y in sample:
        u, v = y.value.as_integer_ratio()
        den = lcm(v, m)
        yu, sr = u * (den // v), r * (den // d)
        yield (sr + n * (yu - sr) + e * (den // f)) % den, n * yu % den, den
