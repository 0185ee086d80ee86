"""Closed balls, the doubling bound, and exact density ratios."""

from __future__ import annotations

from fractions import Fraction

from .arcs import ONE, ArcSet, thicken
from .circle import CirclePoint, RationalLike, as_fraction


def ball(center: CirclePoint, radius: RationalLike) -> ArcSet:
    """Ball of the given radius as a half-open arc; measure is min(1, 2*radius).

    Radius 0 yields the empty set, which is measure-equivalent to the
    singleton the closed ball denotes.
    """
    r = as_fraction(radius)
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    return thicken([center], r)


def doubling_check(eps: RationalLike) -> bool:
    """Self-check that doubling the radius at most doubles the ball measure.

    Centre-independent by translation invariance; must hold for every
    eps > 0.
    """
    e = as_fraction(eps)
    if e <= 0:
        raise ValueError(f"eps must be positive, got {e}")
    return min(ONE, 4 * e) <= 2 * min(ONE, 2 * e)


def density_ratio(s: ArcSet, x: CirclePoint, eps: RationalLike) -> Fraction:
    """measure(s ∩ ball(x, eps)) / measure(ball(x, eps)), exact in [0, 1]."""
    e = as_fraction(eps)
    if e <= 0:
        raise ValueError(f"eps must be positive, got {e}")
    b = ball(x, e)
    return (s & b).measure / b.measure


def density_profile(
    s: ArcSet, x: CirclePoint, schedule: list[Fraction]
) -> list[tuple[Fraction, Fraction]]:
    """Density ratios along a strictly decreasing positive eps schedule.

    For x interior to an arc of s the profile is eventually constantly 1.
    """
    eps = [as_fraction(e) for e in schedule]
    if not eps:
        raise ValueError("schedule must be nonempty")
    if any(e <= 0 for e in eps):
        raise ValueError("schedule entries must be positive")
    if any(a <= b for a, b in zip(eps, eps[1:])):
        raise ValueError("schedule must be strictly decreasing")
    return [(e, density_ratio(s, x, e)) for e in eps]
