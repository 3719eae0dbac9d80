"""Delivery-time lower bounds, achievable points and optimal tradeoff curves.

Everything here is exact: curves are piecewise-linear functions of the
fractional cache size mu with rational breakpoints, built from the affine
bound components and from cataloged achievable corner points. No floating
point enters any comparison. No optimal curve is written down: it is the
lower-bound curve once that meets the achievable envelope.

The exact work runs on Python integers, and a Fraction is built only for
a value that leaves the layer (a breakpoint or a curve value). The one
hull routine scales its points to a common denominator and runs on
integer pairs; the lower-bound curve builds its points as integers
straight from the component formula (``_components``).

Each cost is paid once: a curve is evaluated over a sorted list of mu
values in one integer walk over its segments (``NdtCurve._walk``), which
returns each value as an integer pair (numerator, denominator);
``NdtCurve.values`` is its Fraction view, and the CLI reads the pairs.
The lower-bound curve of an (M, K) is built once per process and shared
(curves are frozen).
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm

from .model import NetworkConfig, Rational, as_count, as_rational

# The pairs whose optimal tradeoff the paper characterizes (M + K <= 4);
# optimal_ndt_curve checks on each that the converse meets the catalog.
CHARACTERIZED = frozenset({(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)})


class UncharacterizedConfigError(ValueError):
    """The optimal tradeoff for this (M, K) is an open problem; only the
    lower bound and the achievable envelope are available."""


@dataclass(frozen=True)
class AchievablePoint:
    """A cataloged achievable (mu, ndt) pair. A label ending in "-catalog"
    marks a point cataloged by value only, whose scheme is not implemented."""

    mu: Rational
    ndt: Rational
    scheme_label: str


@dataclass(frozen=True)
class NdtCurve:
    """Piecewise-linear NDT as a function of mu on [0, 1].

    Breakpoints are (mu, ndt) pairs with strictly increasing mu, starting
    at mu = 0 and ending at mu = 1. The curve must be convex,
    non-increasing and everywhere >= 1.
    """

    breakpoints: tuple[tuple[Rational, Rational], ...]

    def __post_init__(self) -> None:
        bps = tuple((as_rational(x), as_rational(y)) for x, y in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        if len(bps) < 2:
            raise ValueError("curve needs at least the mu = 0 and mu = 1 breakpoints")
        if bps[0][0] != 0 or bps[-1][0] != 1:
            raise ValueError("curve must span mu in [0, 1]")
        pts, d = _scaled(bps)
        steps = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(pts, pts[1:])]
        if any(dx <= 0 for dx, _ in steps):
            raise ValueError("breakpoint mu values must be strictly increasing")
        if any(y < d for _, y in pts):
            raise ValueError("NDT cannot drop below 1")
        if any(dy > 0 for _, dy in steps):
            raise ValueError("curve must be non-increasing in mu")
        # slope dy0/dx0 above the next one dy1/dx1, both dx > 0
        if any(dy0 * dx1 > dy1 * dx0 for (dx0, dy0), (dx1, dy1) in zip(steps, steps[1:])):
            raise ValueError("curve must be convex (slopes non-decreasing)")

    def evaluate(self, mu: Rational) -> Rational:
        """Exact value at mu via linear interpolation between breakpoints."""
        return self.values([mu])[0]

    def values(self, mus: Iterable[Rational]) -> list[Rational]:
        """Exact values at non-decreasing mus: the Fraction view of _walk.
        A mu that is not a Fraction goes through as_rational, so a binary
        float is a TypeError, as it is for NetworkConfig."""
        return [Fraction(n, d) for n, d in self._walk(
            (mu if isinstance(mu, Fraction) else as_rational(mu)).as_integer_ratio()
            for mu in mus)]

    def _walk(self, mus: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
        """The value at each mu = p/q (q > 0, mus non-decreasing) as an
        integer pair (n, d) with d > 0, by linear interpolation in one walk
        over the segments. A segment's line (a*q + b*p) / (c*q) is built at
        most once, over the lcm e of its own breakpoints' denominators."""
        bps, out = self.breakpoints, []
        i, seg, last_p, last_q = 0, None, 0, 1
        xs = [x.as_integer_ratio() for x, _ in bps]
        for p, q in mus:
            if not (last_p * q <= p * last_q and p <= q):
                if 0 <= p <= q:
                    raise ValueError(f"mu values must be non-decreasing, "
                                     f"got {Fraction(p, q)} after {Fraction(last_p, last_q)}")
                raise ValueError(f"mu must lie in [0, 1], got {Fraction(p, q)}")
            last_p, last_q = p, q
            while xs[i + 1][0] * q < p * xs[i + 1][1]:
                i, seg = i + 1, None
            if seg is None:
                ((x0, y0), (x1, y1)), e = _scaled(bps[i:i + 2])
                a, b, c = y0 * x1 - y1 * x0, (y1 - y0) * e, (x1 - x0) * e
                g = gcd(a, b, c)
                seg = a // g, b // g, c // g
            a, b, c = seg
            out.append((a * q + b * p, c * q))
        return out


def _scaled(points: Iterable[tuple[Rational, Rational]]) -> tuple[list[tuple[int, int]], int]:
    """Exact (x, y) points as integer pairs over their common denominator
    d, and d."""
    points = list(points)
    d = lcm(*(c.denominator for point in points for c in point))
    if d == 1:  # int() keeps an int as it is, with no copy
        return [(int(x), int(y)) for x, y in points], d
    return [(x.numerator * (d // x.denominator), y.numerator * (d // y.denominator))
            for x, y in points], d


def _network_size(M: int, K: int) -> tuple[int, int]:
    """M and K as ints (numpy integers count, floats are a TypeError),
    both at least 1."""
    M, K = as_count("M", M), as_count("K", K)
    if M < 1 or K < 1:
        raise ValueError("M and K must be positive")
    return M, K


def _components(M: int, K: int) -> Iterator[tuple[int, int, int]]:
    """Every bound component as integers (s, a, b), the line (a + b*mu)/(2s):

        (K + ell - mu*(sbar*(K - s + (sbar-1)/2) + ell*(ell+1)/2)) / s

    with sbar = M + 1 - s, for s in [1 : min(M+1, K)], ell in [M+1-s : M]."""
    for s in range(1, min(M + 1, K) + 1):
        sbar = M + 1 - s
        for ell in range(sbar, M + 1):
            yield s, 2 * (K + ell), -(sbar * (2 * (K - s) + sbar - 1) + ell * (ell + 1))


def lower_bound(cfg: NetworkConfig) -> Rational:
    """Converse: max of 1 and every bound component at cfg.mu, one
    Fraction each. It builds no hull and no curve, so it stays the oracle,
    independent of how lower_bound_curve is built, that the tests and the
    benchmark check the curve against."""
    return max(chain([Fraction(1)], ((a + b * cfg.mu) / (2 * s)
                                      for s, a, b in _components(cfg.M, cfg.K))))


def _lower_hull(points: Iterable[tuple[Rational, Rational]]) -> tuple[list[tuple[int, int]], int]:
    """Vertices of the lower convex hull of exact (x, y) points, by
    increasing x (Andrew's monotone chain), as integer pairs over the
    points' common denominator d, and d. Only the lowest y at each x
    counts, and collinear vertices are dropped."""
    points, d = _scaled(points)
    hull: list[tuple[int, int]] = []
    for x, y in sorted(points):
        if hull and hull[-1][0] == x:
            continue  # sorted: the first point at this x is the lowest
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) > 0:
                break
            hull.pop()
        hull.append((x, y))
    return hull, d


def _upper_envelope(lines: Iterable[tuple[Rational, Rational]], d: int = 1) -> NdtCurve:
    """Exact pointwise max of the affine lines (a + b*mu)/d over mu in
    [0, 1], reduced to its vertices.

    By duality the lines on the envelope, in order of increasing slope,
    are the lower hull of the points (b, -a); hull line i is on top
    between the slopes dy/dx of hull edges i - 1 and i, the cuts.
    """
    hull, e = _lower_hull((b, -a) for a, b in lines)
    d *= e
    edges = [(y1 - y0, x1 - x0) for (x0, y0), (x1, y1) in zip(hull, hull[1:])]
    # (i, p, q): hull line i is on top at mu = p/q; cuts increase, so the
    # line on top at 0 (at 1) follows the cuts below 0 (below 1)
    tops = [(sum(dy < 0 for dy, _ in edges), 0, 1),
            *((i, dy, dx) for i, (dy, dx) in enumerate(edges) if 0 < dy < dx),
            (sum(dy < dx for dy, dx in edges), 1, 1)]
    return NdtCurve(tuple((Fraction(p, q), Fraction(hull[i][0] * p - hull[i][1] * q, d * q))
                          for i, p, q in tops))


@lru_cache(maxsize=None, typed=True)
def lower_bound_curve(M: int, K: int) -> NdtCurve:
    """Exact lower-bound curve: upper envelope of all bound components and
    the constant 1, as a function of mu. Built once per (M, K) and shared
    (the cache is typed, so K = 2.0 reaches the count check instead of
    the curve of K = 2).

    Component (a + b*mu)/(2s) enters as the integer line (a, b)*d/(2s)
    over d = 2*lcm(1..s_max), and the constant 1 as (d, 0)."""
    M, K = _network_size(M, K)
    d = 2 * lcm(*range(1, min(M + 1, K) + 1))
    lines = ((a * (d // (2 * s)), b * (d // (2 * s))) for s, a, b in _components(M, K))
    return _upper_envelope(chain([(d, 0)], lines), d)


def achievable_catalog(M: int, K: int) -> list[AchievablePoint]:
    """All cataloged achievable corner points for (M, K), sorted by mu.

    Always: unicasting at mu = 0 and MISO zero-forcing at mu = 1. The
    combined ZF / subspace-alignment point (4/5, 8/5) exists for
    (M, K) = (1, 3). The X-channel point (1/2, (K+2)/2) for M = 1,
    K >= 3, and the M = 2 interior breakpoints are cataloged by value
    only (their constructions are not implemented here). Every point is
    checked against the lower bound; one below it raises RuntimeError.
    """
    M, K = _network_size(M, K)
    points = [
        AchievablePoint(Fraction(0), Fraction(K + M), "unicast"),
        AchievablePoint(Fraction(1), max(Fraction(K, M + 1), Fraction(1)), "miso-zf"),
    ]
    if M == 1 and K >= 3:
        points.append(AchievablePoint(Fraction(1, 2), Fraction(K + 2, 2), "x-channel-catalog"))
    if (M, K) == (1, 3):
        points.append(AchievablePoint(Fraction(4, 5), Fraction(8, 5), "zf-ia-m1k3"))
    if (M, K) == (2, 1):
        points.append(AchievablePoint(Fraction(1, 2), Fraction(1), "m2-catalog"))
    if (M, K) == (2, 2):
        points.append(AchievablePoint(Fraction(4, 9), Fraction(4, 3), "m2-catalog"))
        points.append(AchievablePoint(Fraction(1, 2), Fraction(5, 4), "m2-catalog"))
    points.sort(key=lambda p: p.mu)
    bound = lower_bound_curve(M, K).values([p.mu for p in points])
    for p, lb in zip(points, bound):
        if p.ndt < lb:  # achievability can never beat the converse
            raise RuntimeError(f"catalog point {p} below the lower bound {lb}")
    return points


def memory_sharing_envelope(points: list[AchievablePoint]) -> NdtCurve:
    """Lower convex envelope of achievable points (time/memory sharing).

    Needs points at both mu = 0 and mu = 1. The result is the best NDT
    obtainable by splitting files across the cataloged schemes; every
    input point lies on or above the returned curve.
    """
    pts = [(as_rational(p.mu), as_rational(p.ndt)) for p in points]
    if not {0, 1} <= {mu for mu, _ in pts}:
        raise ValueError("memory sharing needs points at both mu = 0 and mu = 1")
    hull, d = _lower_hull(pts)
    return NdtCurve(tuple((Fraction(x, d), Fraction(y, d)) for x, y in hull))


def optimal_ndt_curve(M: int, K: int) -> NdtCurve:
    """Optimal tradeoff curve of a characterized (M, K), certified: the
    lower-bound curve, once it equals the memory-sharing envelope of
    achievable_catalog(M, K) (else RuntimeError, also under python -O).
    It rests on that catalog: for M = 1 on the implemented unicast, MISO
    zero-forcing and (1, 3) ZF / subspace-alignment schemes; for (2, 1)
    and (2, 2) on the "m2-catalog" points, cataloged by value only, whose
    constructions are not implemented. Every other (M, K) raises
    UncharacterizedConfigError."""
    M, K = _network_size(M, K)
    if (M, K) not in CHARACTERIZED:
        raise UncharacterizedConfigError(f"uncharacterized configuration (M={M}, K={K}): "
                                         "optimal NDT is an open problem")
    bound = lower_bound_curve(M, K)
    if memory_sharing_envelope(achievable_catalog(M, K)) != bound:
        raise RuntimeError(f"(M={M}, K={K}): achievable envelope does not meet the lower bound")
    return bound


def optimal_ndt(cfg: NetworkConfig) -> Rational:
    """Optimal NDT at cfg.mu: lower_bound(cfg), under optimal_ndt_curve's certificate."""
    optimal_ndt_curve(cfg.M, cfg.K)
    return lower_bound(cfg)
