"""Delivery-time lower bounds, optimal tradeoff curves and achievable points.

Everything here is exact: curves are piecewise-linear functions of the
fractional cache size mu with rational breakpoints, built from the affine
bound components and from cataloged achievable corner points. No floating
point enters any comparison.

Each cost is paid once: a curve is evaluated over a sorted list of mu
values in one walk over its segments (``NdtCurve.values``), and the
lower-bound curve of an (M, K) is built once per process and shared
(curves are frozen).
"""
from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .model import NetworkConfig, Rational, as_rational

# Closed-form optimal-NDT branches a + b*mu for every (M, K) whose full
# tradeoff curve is proven, written down directly (not derived from the
# bound enumeration). The constant 1 joins them in _optimal_lines.
_OPTIMAL_BRANCHES: dict[tuple[int, int], tuple[tuple[Rational, Rational], ...]] = {
    (1, 1): ((Fraction(2), Fraction(-1)),),
    (1, 2): ((Fraction(3), Fraction(-2)),),
    (1, 3): ((Fraction(4), Fraction(-3)), (Fraction(2), Fraction(-1, 2))),
    (2, 1): ((Fraction(3), Fraction(-4)),),
    (2, 2): ((Fraction(4), Fraction(-6)), (Fraction(2), Fraction(-3, 2)),
             (Fraction(3, 2), Fraction(-1, 2))),
}
CHARACTERIZED = frozenset(_OPTIMAL_BRANCHES)


class UncharacterizedConfigError(ValueError):
    """The optimal tradeoff for this (M, K) is an open problem; only the
    lower bound and the achievable envelope are available."""


@dataclass(frozen=True)
class BoundComponentIndex:
    """Index (ell, s) of one affine bound component: s user output signals
    combined with ell relay cache contents."""

    ell: int
    s: int


@dataclass(frozen=True)
class AchievablePoint:
    """A (mu, ndt) pair attained by a concrete delivery scheme."""

    mu: Rational
    ndt: Rational
    scheme_label: str
    proven_optimal: bool


@dataclass(frozen=True)
class NdtCurve:
    """Piecewise-linear NDT as a function of mu on [0, 1].

    Breakpoints are (mu, ndt) pairs with strictly increasing mu, starting
    at mu = 0 and ending at mu = 1. The curve must be convex,
    non-increasing and everywhere >= 1.
    """

    breakpoints: tuple[tuple[Rational, Rational], ...]

    def __post_init__(self) -> None:
        bps = tuple((Fraction(x), Fraction(y)) for x, y in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        if len(bps) < 2:
            raise ValueError("curve needs at least the mu = 0 and mu = 1 breakpoints")
        if bps[0][0] != 0 or bps[-1][0] != 1:
            raise ValueError("curve must span mu in [0, 1]")
        xs = [x for x, _ in bps]
        if any(x1 >= x2 for x1, x2 in zip(xs, xs[1:])):
            raise ValueError("breakpoint mu values must be strictly increasing")
        if any(y < 1 for _, y in bps):
            raise ValueError("NDT cannot drop below 1")
        slopes = [
            (y2 - y1) / (x2 - x1) for (x1, y1), (x2, y2) in zip(bps, bps[1:])
        ]
        if any(s > 0 for s in slopes):
            raise ValueError("curve must be non-increasing in mu")
        if any(s1 > s2 for s1, s2 in zip(slopes, slopes[1:])):
            raise ValueError("curve must be convex (slopes non-decreasing)")

    def evaluate(self, mu: Rational) -> Rational:
        """Exact value at mu via linear interpolation between breakpoints."""
        return self.values([mu])[0]

    def values(self, mus: Iterable[Rational]) -> list[Rational]:
        """Exact values at non-decreasing mus, by linear interpolation in
        one walk over the segments; each segment's slope is computed at
        most once. Each mu goes through as_rational, so a binary float is
        a TypeError, as it is for NetworkConfig."""
        bps, out = self.breakpoints, []
        i, line, last = 0, None, 0  # line: (a, b) of segment i as a + b*mu
        for mu in mus:
            mu = as_rational(mu)
            if not last <= mu <= 1:
                if 0 <= mu <= 1:
                    raise ValueError(f"mu values must be non-decreasing, got {mu} after {last}")
                raise ValueError(f"mu must lie in [0, 1], got {mu}")
            last = mu
            while bps[i + 1][0] < mu:
                i, line = i + 1, None
            if line is None:
                (x1, y1), (x2, y2) = bps[i], bps[i + 1]
                slope = (y2 - y1) / (x2 - x1)
                line = (y1 - slope * x1, slope)
            out.append(line[0] + line[1] * mu)
        return out


def bound_component_indices(M: int, K: int) -> list[BoundComponentIndex]:
    """All admissible (ell, s): s in [1 : min(M+1, K)], ell in [M+1-s : M]."""
    if M < 1 or K < 1:
        raise ValueError("M and K must be positive")
    return [
        BoundComponentIndex(ell=ell, s=s)
        for s in range(1, min(M + 1, K) + 1)
        for ell in range(M + 1 - s, M + 1)
    ]


def _component_line(M: int, K: int, ell: int, s: int) -> tuple[Rational, Rational]:
    """One bound component as an affine function a + b*mu of mu:
    a = (K + ell)/s, b = -(sbar*(K - s + (sbar-1)/2) + ell*(ell+1)/2)/s,
    each one Fraction of two integers."""
    sbar = M + 1 - s
    return (Fraction(K + ell, s),
            Fraction(-(sbar * (2 * (K - s) + sbar - 1) + ell * (ell + 1)), 2 * s))


def delta_lb_component(cfg: NetworkConfig, idx: BoundComponentIndex) -> Rational:
    """Value of the (ell, s) bound component at cfg.mu:

        (K + ell - mu*(sbar*(K - s + (sbar-1)/2) + ell*(ell+1)/2)) / s

    with sbar = M + 1 - s. Raises if (ell, s) is outside the admissible
    range for this network.
    """
    if not 1 <= idx.s <= min(cfg.M + 1, cfg.K):
        raise ValueError(f"s={idx.s} outside [1 : min(M+1, K)] for M={cfg.M}, K={cfg.K}")
    if not cfg.M + 1 - idx.s <= idx.ell <= cfg.M:
        raise ValueError(f"ell={idx.ell} outside [M+1-s : M] for M={cfg.M}, s={idx.s}")
    a, b = _component_line(cfg.M, cfg.K, idx.ell, idx.s)
    return a + b * cfg.mu


def lower_bound(cfg: NetworkConfig) -> Rational:
    """Converse: max of 1 and every bound component, evaluated at cfg.mu."""
    best = Fraction(1)
    for idx in bound_component_indices(cfg.M, cfg.K):
        best = max(best, delta_lb_component(cfg, idx))
    return best


def _lower_hull(points: Iterable[tuple[Rational, Rational]]) -> list[tuple[Rational, Rational]]:
    """Vertices of the lower convex hull of exact (x, y) points, by
    increasing x (Andrew's monotone chain). Only the lowest y at each x
    counts, and collinear vertices are dropped."""
    hull: list[tuple[Rational, Rational]] = []
    for x, y in sorted(points):
        if hull and hull[-1][0] == x:
            continue  # sorted: the first point at this x is the lowest
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) > 0:
                break
            hull.pop()
        hull.append((x, y))
    return hull


def _upper_envelope(lines: list[tuple[Rational, Rational]]) -> NdtCurve:
    """Exact pointwise max of affine lines (a + b*mu) over mu in [0, 1],
    reduced to its vertices.

    By duality the lines on the envelope, in order of increasing slope,
    are the lower hull of the points (b, -a); hull line i is on top
    between cuts[i-1] and cuts[i], the slopes of the hull edges.
    """
    hull = _lower_hull((Fraction(b), -Fraction(a)) for a, b in lines)
    cuts = [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(hull, hull[1:])]
    breakpoints = []
    for x in [Fraction(0), *(x for x in cuts if 0 < x < 1), Fraction(1)]:
        b, y = hull[bisect_left(cuts, x)]  # the line on top at x
        breakpoints.append((x, b * x - y))
    return NdtCurve(tuple(breakpoints))


@cache
def lower_bound_curve(M: int, K: int) -> NdtCurve:
    """Exact lower-bound curve: upper envelope of all bound components and
    the constant 1, as a function of mu. Built once per (M, K) and shared."""
    lines = [(Fraction(1), Fraction(0))]
    lines += [_component_line(M, K, idx.ell, idx.s) for idx in bound_component_indices(M, K)]
    return _upper_envelope(lines)


def _optimal_lines(M: int, K: int) -> list[tuple[Rational, Rational]]:
    """Closed-form optimal-NDT branches for the characterized (M, K)."""
    if (M, K) not in _OPTIMAL_BRANCHES:
        raise UncharacterizedConfigError(
            f"uncharacterized configuration (M={M}, K={K}): optimal NDT is an open problem"
        )
    return [*_OPTIMAL_BRANCHES[M, K], (Fraction(1), Fraction(0))]


def optimal_ndt(cfg: NetworkConfig) -> Rational:
    """Proven-optimal NDT at cfg.mu for the characterized (M, K) pairs.

    Raises UncharacterizedConfigError for all other configurations; use
    lower_bound and the achievable envelope separately there.
    """
    return max(a + b * cfg.mu for a, b in _optimal_lines(cfg.M, cfg.K))


def optimal_ndt_curve(M: int, K: int) -> NdtCurve:
    """Closed-form optimal tradeoff curve for the characterized (M, K)."""
    return _upper_envelope(_optimal_lines(M, K))


def achievable_catalog(M: int, K: int) -> list[AchievablePoint]:
    """All paper-proven achievable corner points for (M, K), sorted by mu.

    Always: unicasting at mu = 0 and MISO zero-forcing at mu = 1. The
    combined ZF / subspace-alignment point (4/5, 8/5) exists for
    (M, K) = (1, 3); the X-channel point (1/2, (K+2)/2) for M = 1,
    K >= 3, and the M = 2 interior breakpoints are cataloged value-only
    (their constructions are not implemented here).
    """
    points = [
        AchievablePoint(Fraction(0), Fraction(K + M), "unicast", True),
        AchievablePoint(Fraction(1), max(Fraction(K, M + 1), Fraction(1)), "miso-zf", True),
    ]
    if M == 1 and K >= 3:
        points.append(
            AchievablePoint(Fraction(1, 2), Fraction(K + 2, 2), "x-channel-catalog", False)
        )
    if (M, K) == (1, 3):
        points.append(AchievablePoint(Fraction(4, 5), Fraction(8, 5), "zf-ia-m1k3", True))
    if (M, K) == (2, 1):
        points.append(AchievablePoint(Fraction(1, 2), Fraction(1), "m2-catalog", True))
    if (M, K) == (2, 2):
        points.append(AchievablePoint(Fraction(4, 9), Fraction(4, 3), "m2-catalog", True))
        points.append(AchievablePoint(Fraction(1, 2), Fraction(5, 4), "m2-catalog", True))
    points.sort(key=lambda p: p.mu)
    bound = lower_bound_curve(M, K).values([p.mu for p in points])
    for p, lb in zip(points, bound):
        # achievability can never beat the converse
        assert p.ndt >= lb, f"catalog point {p} below the lower bound"
    return points


def memory_sharing_envelope(points: list[AchievablePoint]) -> NdtCurve:
    """Lower convex envelope of achievable points (time/memory sharing).

    Needs points at both mu = 0 and mu = 1. The result is the best NDT
    obtainable by splitting files across the cataloged schemes; every
    input point lies on or above the returned curve.
    """
    pts = [(Fraction(p.mu), Fraction(p.ndt)) for p in points]
    if not {0, 1} <= {mu for mu, _ in pts}:
        raise ValueError("memory sharing needs points at both mu = 0 and mu = 1")
    return NdtCurve(tuple(_lower_hull(pts)))
