"""Independent reference computations for the benchmark's output checks.

Nothing here imports circlelab.  Sets are plain sorted lists of disjoint,
non-touching half-open segments ``(lo, hi)`` inside [0, 1] with Fraction
endpoints, the same shape as ``ArcSet.segments``, so results compare with
``==``.  The tail-union sweep sorts raw arc endpoints by exact integer keys
instead of comparing Fractions, so it shares no code and no method with the
library's canonicalisation.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable

Segment = tuple[Fraction, Fraction]
ZERO = Fraction(0)
ONE = Fraction(1)


# -- radius sequences and predicates, kept apart from the library's parsers ----


class PowerDelta:
    """delta_n = c / n**a, rendered in the CLI's inline form."""

    def __init__(self, c: Fraction, a: int):
        self.c = Fraction(c)
        self.a = a

    def __call__(self, n: int) -> Fraction:
        return self.c / n**self.a

    def scaled(self, m: Fraction) -> "PowerDelta":
        return PowerDelta(self.c * m, self.a)

    def text(self) -> str:
        return f"power:{frac_text(self.c)}:{self.a}"


class Pred:
    """Index predicate as a tiny expression tree: all | ndvd:p | exact:p | sq:p | or(a,b)."""

    def __init__(self, kind: str, p: int = 0, left: "Pred | None" = None, right: "Pred | None" = None):
        self.kind, self.p, self.left, self.right = kind, p, left, right

    def __call__(self, n: int) -> bool:
        k, p = self.kind, self.p
        if k == "all":
            return True
        if k == "ndvd":
            return n % p != 0
        if k == "exact":
            return n % p == 0 and n % (p * p) != 0
        if k == "sq":
            return n % (p * p) == 0
        return self.left(n) or self.right(n)

    def text(self) -> str:
        if self.kind == "all":
            return "all"
        if self.kind == "or":
            return f"or({self.left.text()},{self.right.text()})"
        return f"{self.kind}:{self.p}"


def frac_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def phi_table(limit: int) -> list[int]:
    """phi(0..limit) by a plain sieve; used for sizing inputs, not for checks."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    return phi


# -- sort-and-sweep over raw arcs ------------------------------------------------


def sweep(raw: Iterable[tuple[int, int, int]]) -> list[Segment]:
    """Union of raw segments given as integer triples (lo, hi, den), 0 <= lo < hi <= den.

    Endpoints are sorted by the key ``(num << K) // den`` with K twice the
    largest denominator's bit length: distinct rationals get distinct keys in
    the same order and equal rationals equal keys, so the sweep compares
    integers only and builds Fractions just for the merged endpoints.
    """
    raw = list(raw)
    if not raw:
        return []
    k = 2 * max(d for _, _, d in raw).bit_length() + 2
    keyed = sorted(((lo << k) // d, (hi << k) // d, lo, hi, d) for lo, hi, d in raw)
    out: list[Segment] = []
    klo, khi, lo, hi, d = keyed[0]
    cur_hi = (hi, d)
    cur_lo = (lo, d)
    for klo2, khi2, lo2, hi2, d2 in keyed[1:]:
        if klo2 <= khi:
            if khi2 > khi:
                khi, cur_hi = khi2, (hi2, d2)
        else:
            out.append((Fraction(*cur_lo), Fraction(*cur_hi)))
            khi, cur_lo, cur_hi = khi2, (lo2, d2), (hi2, d2)
    out.append((Fraction(*cur_lo), Fraction(*cur_hi)))
    return out


def raw_arcs(n: int, delta: Fraction) -> list[tuple[int, int, int]]:
    """The arcs [m/n - delta, m/n + delta) for m coprime to n, as integer triples.

    Returns [(0, 1, 1)] when the arcs cover the circle, [] when delta <= 0.
    """
    if delta <= 0:
        return []
    if 2 * delta >= 1:
        return [(0, 1, 1)]
    dn, dd = delta.numerator, delta.denominator
    den = n * dd
    width = 2 * dn * n
    out = []
    for m in range(n):
        if gcd(m, n) != 1:
            continue
        lo = (m * dd - dn * n) % den
        hi = lo + width
        if hi <= den:
            out.append((lo, hi, den))
        else:
            out.append((lo, den, den))
            out.append((0, hi - den, den))
    return out


def tail_union_segments(
    n_min: int, n_max: int, pred: Callable[[int], bool], delta: Callable[[int], Fraction]
) -> list[Segment]:
    raw = []
    for n in range(n_min, n_max + 1):
        if pred(n):
            raw.extend(raw_arcs(n, delta(n)))
    return sweep(raw)


def arcs_segments(arcs: Iterable[tuple[Fraction, Fraction]]) -> list[Segment]:
    """Union of (start, length) arcs taken mod 1."""
    raw = []
    for start, length in arcs:
        s = start % 1
        if length >= 1:
            return [(ZERO, ONE)]
        d = (s.denominator * length.denominator) // gcd(s.denominator, length.denominator)
        lo = s.numerator * (d // s.denominator)
        hi = lo + length.numerator * (d // length.denominator)
        if hi <= d:
            raw.append((lo, hi, d))
        else:
            raw.append((lo, d, d))
            raw.append((0, hi - d, d))
    return sweep(raw)


def ball_segments(x: Fraction, r: Fraction) -> list[Segment]:
    if r <= 0:
        return []
    return arcs_segments([(x - r, min(ONE, 2 * r))])


# -- reads on verified segment lists ----------------------------------------------


def measure(segs: Iterable[Segment]) -> Fraction:
    return sum((hi - lo for lo, hi in segs), ZERO)


def contains(segs: list[Segment], starts: list[Fraction], x: Fraction) -> bool:
    i = bisect_right(starts, x % 1) - 1
    return i >= 0 and x % 1 < segs[i][1]


def intersect(a: list[Segment], b: list[Segment]) -> list[Segment]:
    """Two-pointer clip of two canonical segment lists."""
    out: list[Segment] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            if out and out[-1][1] == lo:
                out[-1] = (out[-1][0], hi)
            else:
                out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def complement(a: list[Segment]) -> list[Segment]:
    out = []
    cursor = ZERO
    for lo, hi in a:
        if cursor < lo:
            out.append((cursor, lo))
        cursor = hi
    if cursor < ONE:
        out.append((cursor, ONE))
    return out


def difference(a: list[Segment], b: list[Segment]) -> list[Segment]:
    return intersect(a, complement(b))


# -- scans and series ----------------------------------------------------------------


def witnesses(x: Fraction, delta: Callable[[int], Fraction], n_max: int) -> list[int]:
    """Orders n with some reduced m/n at circle distance < delta_n from x, by full scan."""
    p, q = x.numerator, x.denominator
    out = []
    for n in range(1, n_max + 1):
        d = delta(n)
        qn = q * n
        for m in range(n):
            if gcd(m, n) != 1:
                continue
            r = (p * n - m * q) % qn
            dist = min(r, qn - r)
            # dist / qn < d  <=>  dist * den(d) < num(d) * qn
            if dist * d.denominator < d.numerator * qn:
                out.append(n)
                break
    return out


def weighted_totient_sums(
    phi: list[int], c: Fraction, a: int, lo: int, cutoffs: list[int]
) -> list[Fraction]:
    """sum_{lo <= n <= cutoff} phi(n) * c / n**a at each cutoff, over one common denominator."""
    top = cutoffs[-1]
    lcm = 1
    for n in range(max(lo, 1), top + 1):
        na = n**a
        lcm = lcm * na // gcd(lcm, na)
    out = []
    acc = 0
    n = lo
    for cutoff in cutoffs:
        while n <= cutoff:
            acc += phi[n] * (lcm // n**a)
            n += 1
        out.append(c * Fraction(acc, lcm))
    return out
