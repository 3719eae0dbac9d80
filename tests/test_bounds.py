import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndtcache.bounds import (
    CHARACTERIZED,
    AchievablePoint,
    NdtCurve,
    UncharacterizedConfigError,
    _components,
    _upper_envelope,
    achievable_catalog,
    lower_bound,
    lower_bound_curve,
    memory_sharing_envelope,
    optimal_ndt,
    optimal_ndt_curve,
)
from ndtcache.model import NetworkConfig


def cfg(M, K, mu):
    return NetworkConfig(M=M, K=K, N=M + K, mu=mu)


def brute_force_bound(M, K, mu):
    """Independent re-derivation of the converse: literal enumeration of
    (K + ell - mu*(sbar*(K - s + (sbar-1)/2) + ell*(ell+1)/2)) / s."""
    best = Fraction(1)
    for s in range(1, min(M + 1, K) + 1):
        sbar = M + 1 - s
        for ell in range(sbar, M + 1):
            num = K + ell - mu * (sbar * (K - s + Fraction(sbar - 1, 2)) + Fraction(ell * (ell + 1), 2))
            best = max(best, Fraction(num, s))
    return best


def component_index(M, K):
    """The admissible (ell, s), as a test-local double loop in the order
    of _components."""
    return [(ell, s) for s in range(1, min(M + 1, K) + 1) for ell in range(M + 1 - s, M + 1)]


def component(M, K, ell, s, mu):
    """Value at mu of the (ell, s) line of _components, (a + b*mu)/(2s)."""
    lines = dict(zip(component_index(M, K), _components(M, K)))
    s_, a, b = lines[ell, s]
    assert s_ == s
    return (a + b * mu) / (2 * s)


GRID = [Fraction(i, 60) for i in range(61)]

# The paper's closed forms of the optimal tradeoff: the branches a + b*mu
# of each characterized (M, K), joined by the constant 1 in optimal_lines.
# They are written down here, independent of the converse and the catalog
# from which optimal_ndt_curve certifies its curve.
OPTIMAL_BRANCHES = {
    (1, 1): ((Fraction(2), Fraction(-1)),),
    (1, 2): ((Fraction(3), Fraction(-2)),),
    (1, 3): ((Fraction(4), Fraction(-3)), (Fraction(2), Fraction(-1, 2))),
    (2, 1): ((Fraction(3), Fraction(-4)),),
    (2, 2): ((Fraction(4), Fraction(-6)), (Fraction(2), Fraction(-3, 2)),
             (Fraction(3, 2), Fraction(-1, 2))),
}


def optimal_lines(M, K):
    return [*OPTIMAL_BRANCHES[M, K], (Fraction(1), Fraction(0))]


def pairwise_envelope(lines):
    """Reference upper envelope of lines a + b*mu on [0, 1]: the value at
    every pairwise intersection inside (0, 1) and at the ends, then the
    collinear points dropped. Cubic in the number of lines."""
    candidates = {Fraction(0), Fraction(1)}
    for (a1, b1), (a2, b2) in combinations(lines, 2):
        if b1 != b2:
            x = Fraction(a2 - a1) / (b1 - b2)
            if 0 < x < 1:
                candidates.add(x)
    pts = [(x, max(a + b * x for a, b in lines)) for x in sorted(candidates)]
    kept = [pts[0]]
    for i in range(1, len(pts) - 1):
        x0, y0 = kept[-1]
        x1, y1 = pts[i]
        x2, y2 = pts[i + 1]
        if (y1 - y0) * (x2 - x1) != (y2 - y1) * (x1 - x0):
            kept.append(pts[i])
    kept.append(pts[-1])
    return NdtCurve(tuple(kept))


def pairwise_sharing(points, mu):
    """Reference memory-sharing value at mu: the best convex combination
    over every pair of points whose mu values bracket it."""
    best = None
    for p, q in combinations(points, 2):
        lo, hi = sorted((p, q), key=lambda r: r.mu)
        if lo.mu <= mu <= hi.mu:
            t = (mu - lo.mu) / (hi.mu - lo.mu) if hi.mu != lo.mu else Fraction(0)
            val = lo.ndt + t * (hi.ndt - lo.ndt)
            best = val if best is None else min(best, val)
    return best


def outcome(envelope, lines):
    """Breakpoints of the envelope, or the ValueError it raised."""
    try:
        return envelope(lines).breakpoints
    except ValueError as exc:
        return str(exc)


def assert_vertices_only(curve):
    bps = curve.breakpoints
    slopes = [(y2 - y1) / (x2 - x1) for (x1, y1), (x2, y2) in zip(bps, bps[1:])]
    assert all(s1 < s2 for s1, s2 in zip(slopes, slopes[1:])), "collinear breakpoint"


def scan_evaluate(curve, mu):
    """Reference interpolation: scan the segments for the first holding mu."""
    for (x1, y1), (x2, y2) in zip(curve.breakpoints, curve.breakpoints[1:]):
        if x1 <= mu <= x2:
            return y1 + (y2 - y1) * (mu - x1) / (x2 - x1)
    raise AssertionError(f"no segment holds {mu}")


small = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4))
# Large, pairwise coprime denominators, so the hull's exact turn tests
# multiply large numerators and denominators.
LARGE_PRIMES = (999983, 1000003, 2147483647, 4294967291, 10**12 + 39)
large = st.builds(Fraction, st.integers(-10**15, 10**15), st.sampled_from(LARGE_PRIMES))


@st.composite
def line_sets(draw):
    """A few lines a + b*mu, some sharing a slope and some meeting at one
    point."""
    lines = draw(st.lists(st.tuples(small, small), min_size=1, max_size=6))
    for a, b in draw(st.lists(st.sampled_from(lines), max_size=3)):
        lines.append((a + draw(st.integers(-2, 2)), b))
    if draw(st.booleans()):
        x0 = Fraction(draw(st.integers(0, 4)), 4)
        y0 = draw(small)
        lines += [(y0 - b * x0, b) for b in draw(st.lists(small, min_size=2, max_size=4))]
    return draw(st.permutations(lines))


# mu values in (0, 1) over one of the large coprime denominators
large_mu = st.sampled_from(LARGE_PRIMES).flatmap(
    lambda q: st.builds(Fraction, st.integers(1, q - 1), st.just(q)))


@st.composite
def convex_curves(draw, coprime=False):
    """A valid curve: breakpoints on a mu grid of twelfths, non-decreasing
    non-positive slopes, and an end value >= 1. With coprime, the inner
    breakpoints, the slopes and the end value have large coprime
    denominators."""
    if coprime:
        inner = draw(st.sets(large_mu, max_size=5))
        xs = [Fraction(0), *sorted(inner), Fraction(1)]
        slope = st.builds(lambda a, q: Fraction(-abs(a), q), st.integers(0, 10**15),
                          st.sampled_from(LARGE_PRIMES))
        end = st.builds(lambda a, q: Fraction(abs(a), q), large, st.sampled_from(LARGE_PRIMES))
    else:
        inner = draw(st.sets(st.integers(1, 11), max_size=5))
        xs = [Fraction(0), *(Fraction(i, 12) for i in sorted(inner)), Fraction(1)]
        slope = st.builds(Fraction, st.integers(-20, 0), st.integers(1, 5))
        end = st.builds(Fraction, st.integers(0, 9), st.integers(1, 3))
    slopes = sorted(draw(st.lists(slope, min_size=len(xs) - 1, max_size=len(xs) - 1)))
    ys = [1 + draw(end)]
    for x1, x2, slope in reversed(list(zip(xs, xs[1:], slopes))):
        ys.append(ys[-1] - slope * (x2 - x1))
    return NdtCurve(tuple(zip(xs, reversed(ys))))


@st.composite
def point_sets(draw, coords=None):
    """Achievable points on a coarse mu grid, so mu values repeat, with
    both ends present and the lowest NDT at mu = 1, as memory sharing of
    real schemes gives."""
    mus, ndts = coords or (st.builds(Fraction, st.integers(0, 6), st.just(6)),
                           st.builds(Fraction, st.integers(3, 24), st.integers(1, 3)))
    pairs = draw(st.lists(st.tuples(mus, ndts), max_size=8)) + [(Fraction(0), draw(ndts))]
    pairs.append((Fraction(1), min(ndt for _, ndt in pairs)))
    return [AchievablePoint(mu, ndt, "random") for mu, ndt in draw(st.permutations(pairs))]


class TestDeltaLbComponent:
    def test_known_values(self):
        assert component(1, 3, 1, 1, 0) == 4
        # M=2, K=2, (ell=2, s=1) is the line 4 - 6*mu
        for mu in GRID:
            assert component(2, 2, 2, 1, mu) == 4 - 6 * mu
        assert component(1, 3, 1, 2, Fraction(4, 5)) == Fraction(8, 5)
        assert component(2, 2, 1, 2, 1) == 1

    def test_zero_cache_full_relay_component_is_k_plus_m(self):
        for M in range(1, 7):
            for K in range(1, 7):
                assert component(M, K, M, 1, 0) == K + M

    def test_index_enumeration_ranges(self):
        # ell read back from a = 2*(K + ell)
        for M in range(1, 7):
            for K in range(1, 7):
                index = [(a // 2 - K, s) for s, a, _ in _components(M, K)]
                assert index == component_index(M, K)
        for ell, s in [(a // 2 - 4, s) for s, a, _ in _components(3, 4)]:
            assert 1 <= s <= 4
            assert 4 - s <= ell <= 3
        assert len(list(_components(1, 1))) == 1


class TestLowerBound:
    def test_known_values(self):
        assert lower_bound(cfg(1, 3, "4/5")) == Fraction(8, 5)
        assert lower_bound(cfg(2, 1, 0)) == 3
        assert lower_bound(cfg(1, 1, 1)) == 1
        # frozen after confirming with brute_force_bound (the enumeration
        # max is attained at (ell=2, s=2), not on the s=3 components)
        assert lower_bound(cfg(3, 4, "1/3")) == Fraction(5, 3)
        assert brute_force_bound(3, 4, Fraction(1, 3)) == Fraction(5, 3)

    def test_matches_brute_force_on_grid(self):
        for M in range(1, 13):
            for K in range(1, 13):
                for mu in GRID[::6]:
                    assert lower_bound(cfg(M, K, mu)) == brute_force_bound(M, K, mu)

    def test_at_least_one_everywhere(self):
        for M in range(1, 5):
            for K in range(1, 5):
                for mu in GRID:
                    assert lower_bound(cfg(M, K, mu)) >= 1

    def test_non_increasing_and_convex_on_grid(self):
        for M in range(1, 5):
            for K in range(1, 5):
                vals = [lower_bound(cfg(M, K, mu)) for mu in GRID]
                for v1, v2 in zip(vals, vals[1:]):
                    assert v2 <= v1
                for v1, v2, v3 in zip(vals, vals[1:], vals[2:]):
                    assert v2 - v1 <= v3 - v2  # uniform grid: slope differences suffice

    def test_endpoints_match_extremal_schemes(self):
        for M in range(1, 7):
            for K in range(1, 7):
                assert lower_bound(cfg(M, K, 0)) == K + M
                assert lower_bound(cfg(M, K, 1)) == max(Fraction(K, M + 1), Fraction(1))


class TestLowerBoundCurve:
    def test_known_breakpoints(self):
        assert lower_bound_curve(1, 3).breakpoints == (
            (0, 4), (Fraction(4, 5), Fraction(8, 5)), (1, Fraction(3, 2)),
        )
        assert lower_bound_curve(2, 2).breakpoints == (
            (0, 4), (Fraction(4, 9), Fraction(4, 3)),
            (Fraction(1, 2), Fraction(5, 4)), (1, 1),
        )
        assert lower_bound_curve(1, 1).breakpoints == ((0, 2), (1, 1))

    def test_built_once_per_network(self):
        assert lower_bound_curve(4, 7) is lower_bound_curve(4, 7)
        assert lower_bound_curve(4, 7) is not lower_bound_curve(7, 4)

    def test_curve_equals_pointwise_max_at_random_rationals(self):
        import random

        rnd = random.Random(20240817)
        curve = {}
        for _ in range(1000):
            M, K = rnd.randint(1, 4), rnd.randint(1, 4)
            mu = Fraction(rnd.randint(0, 997), 997)
            if (M, K) not in curve:
                curve[(M, K)] = lower_bound_curve(M, K)
            assert curve[(M, K)].evaluate(mu) == brute_force_bound(M, K, mu)

    def test_m1_branches_reproduced(self):
        # K+1-mu*K, (K+1-mu)/2 and K/2 are the only active branches for M=1
        for K in range(1, 7):
            for mu in GRID:
                branches = [Fraction(1), K + 1 - mu * K]
                if K >= 2:
                    branches += [Fraction(K + 1 - mu, 2), Fraction(K, 2)]
                assert lower_bound_curve(1, K).evaluate(mu) == max(branches)


class TestExactHull:
    """The hull-based envelope against the cubic pairwise reference."""

    @settings(max_examples=300, deadline=None)
    @given(line_sets())
    def test_random_lines_match_pairwise_reference(self, lines):
        assert outcome(_upper_envelope, lines) == outcome(pairwise_envelope, lines)

    @settings(max_examples=300, deadline=None)
    @given(line_sets())
    def test_decreasing_lines_give_the_reference_curve(self, lines):
        # non-increasing lines and the constant 1 always make a valid curve
        lines = [(a, -abs(b)) for a, b in lines] + [(Fraction(1), Fraction(0))]
        curve = _upper_envelope(lines)
        assert curve.breakpoints == pairwise_envelope(lines).breakpoints
        assert_vertices_only(curve)

    @pytest.mark.parametrize(
        "M,K", [(M, K) for M in range(1, 9) for K in range(1, 9)] + [(30, 60), (60, 80)]
    )
    def test_lower_bound_curve_is_the_pointwise_bound(self, M, K):
        # a convex max that meets a segment at both ends and its midpoint
        # equals it on the whole segment
        curve = lower_bound_curve(M, K)
        bps = curve.breakpoints
        mids = [((x1 + x2) / 2, (y1 + y2) / 2) for (x1, y1), (x2, y2) in zip(bps, bps[1:])]
        for mu, ndt in bps + tuple(mids):
            assert lower_bound(cfg(M, K, mu)) == ndt
        assert_vertices_only(curve)
        if M <= 8:
            lines = [(Fraction(1), Fraction(0))] + [
                (Fraction(a, 2 * s), Fraction(b, 2 * s)) for s, a, b in _components(M, K)
            ]
            assert bps == pairwise_envelope(lines).breakpoints

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(large, large), min_size=1, max_size=7))
    def test_large_coprime_denominators_match_pairwise_reference(self, lines):
        lines = [(a, -abs(b)) for a, b in lines] + [(Fraction(1), Fraction(0))]
        assert _upper_envelope(lines).breakpoints == pairwise_envelope(lines).breakpoints

    @settings(max_examples=200, deadline=None)
    @given(point_sets((st.builds(Fraction, st.integers(0, 10**6), st.just(10**6 + 3)),
                       st.builds(lambda a, q: 1 + Fraction(a, q), st.integers(0, 10**15),
                                 st.sampled_from(LARGE_PRIMES)))))
    def test_large_coprime_points_match_pairwise_oracle(self, points):
        env = memory_sharing_envelope(points)
        for mu in {p.mu for p in points} | {x for x, _ in env.breakpoints}:
            assert env.evaluate(mu) == pairwise_sharing(points, mu)
        assert_vertices_only(env)


class TestComponentLine:
    @pytest.mark.parametrize("M", range(1, 13))
    def test_matches_the_fraction_formula(self, M):
        for K in range(1, 13):
            lines = list(_components(M, K))
            assert len(lines) == len(component_index(M, K))
            for (ell, s), line in zip(component_index(M, K), lines):
                sbar = M + 1 - s
                slope = -Fraction(1, s) * (sbar * (K - s + Fraction(sbar - 1, 2))
                                           + Fraction(ell * (ell + 1), 2))
                # integers (s, a, b) of the line (a + b*mu) / (2s)
                assert all(type(c) is int for c in line)
                s_, a, b = line
                assert s_ == s
                assert (Fraction(a, 2 * s), Fraction(b, 2 * s)) == (Fraction(K + ell, s), slope)


class TestNdtCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            NdtCurve(((0, 4),))  # must span [0, 1]
        with pytest.raises(ValueError):
            NdtCurve(((0, 4), (Fraction(1, 2), 5), (1, 1)))  # increasing segment
        with pytest.raises(ValueError):
            NdtCurve(((0, 4), (Fraction(1, 2), 1), (1, Fraction(1, 2))))  # drops below 1
        with pytest.raises(ValueError):
            NdtCurve(((0, 4), (Fraction(1, 2), 3), (1, 1)))  # concave kink

    def test_evaluate_interpolates_exactly(self):
        curve = NdtCurve(((0, 4), (Fraction(4, 5), Fraction(8, 5)), (1, Fraction(3, 2))))
        assert curve.evaluate(Fraction(2, 5)) == Fraction(14, 5)
        assert curve.evaluate(Fraction(9, 10)) == Fraction(31, 20)
        with pytest.raises(ValueError):
            curve.evaluate(Fraction(6, 5))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_walk_equals_per_point_values(self, data):
        # with large coprime denominators in the curve and in the mus, the
        # walk's cross-multiplied segment test compares large products
        coprime = data.draw(st.booleans())
        curve = data.draw(convex_curves(coprime))
        pool = [Fraction(0), Fraction(1), *(x for x, _ in curve.breakpoints)]
        pool += data.draw(st.lists(large_mu if coprime else
                                   st.builds(Fraction, st.integers(0, 24), st.just(24)),
                                   max_size=10))
        mus = sorted(data.draw(st.lists(st.sampled_from(pool), max_size=20)))
        assert curve.values(mus) == [scan_evaluate(curve, mu) for mu in mus]
        assert curve.values(mus) == [curve.evaluate(mu) for mu in mus]

    def test_walk_rejects_out_of_range_and_unsorted(self):
        curve = lower_bound_curve(1, 3)
        with pytest.raises(ValueError, match=r"^mu must lie in \[0, 1\], got -1/2$"):
            curve.values([Fraction(-1, 2)])
        with pytest.raises(ValueError, match=r"^mu must lie in \[0, 1\], got 6/5$"):
            curve.values([Fraction(1, 2), Fraction(6, 5)])
        with pytest.raises(ValueError, match=r"^mu values must be non-decreasing, got 1/3 after 1/2$"):
            curve.values([Fraction(1, 2), Fraction(1, 3)])
        assert curve.values([]) == []

    def test_binary_float_is_the_model_type_error(self):
        # 0.8 as a float is 3602879701896397/4503599627370496, not 4/5
        with pytest.raises(TypeError) as from_model:
            NetworkConfig(M=1, K=3, N=4, mu=0.8)
        curve = lower_bound_curve(1, 3)
        ends = [AchievablePoint(Fraction(0), Fraction(2), "unicast"),
                AchievablePoint(Fraction(1), Fraction(1), "miso-zf")]
        for call in (lambda: curve.evaluate(0.8), lambda: curve.values([Fraction(1, 2), 0.8]),
                     lambda: NdtCurve(((0, 2), (0.8, 1.2), (1, 1))),
                     lambda: NdtCurve(((0, 2), (Fraction(4, 5), 1.2), (1, 1))),
                     lambda: memory_sharing_envelope([*ends, AchievablePoint(0.8, 2, "float")]),
                     lambda: memory_sharing_envelope([*ends, AchievablePoint(Fraction(1, 2), 1.2,
                                                                             "float")])):
            with pytest.raises(TypeError) as from_curve:
                call()
            assert str(from_curve.value) == str(from_model.value)
        assert curve.evaluate("0.8") == curve.evaluate(Fraction(4, 5)) == Fraction(8, 5)


class TestOptimalNdt:
    def test_known_values(self):
        assert optimal_ndt(cfg(1, 2, "1/2")) == 2
        assert optimal_ndt(cfg(2, 1, "1/2")) == 1
        assert optimal_ndt(cfg(2, 2, "4/9")) == Fraction(4, 3)
        assert optimal_ndt(cfg(1, 3, 1)) == Fraction(3, 2)

    def test_rejects_uncharacterized(self):
        for M, K in [(3, 3), (1, 4), (2, 3), (4, 1)]:
            with pytest.raises(UncharacterizedConfigError):
                optimal_ndt(cfg(M, K, 0))
            with pytest.raises(UncharacterizedConfigError):
                optimal_ndt_curve(M, K)

    def test_closed_forms_match_enumerated_bound(self):
        # the paper's closed forms, the literal enumeration of the converse
        # and the certified curve are three independent routes
        assert set(OPTIMAL_BRANCHES) == CHARACTERIZED
        for M, K in sorted(CHARACTERIZED):
            lines = optimal_lines(M, K)
            assert optimal_ndt_curve(M, K).breakpoints == pairwise_envelope(lines).breakpoints
            for mu in GRID:
                assert max(a + b * mu for a, b in lines) == brute_force_bound(M, K, mu)

    @pytest.mark.parametrize("pair", sorted(CHARACTERIZED))
    @settings(max_examples=100, deadline=None)
    @given(mu=st.fractions(min_value=0, max_value=1, max_denominator=10**9))
    def test_optimal_is_the_bound_at_random_mu(self, pair, mu):
        closed_form = max(a + b * mu for a, b in optimal_lines(*pair))
        assert optimal_ndt(cfg(*pair, mu)) == lower_bound(cfg(*pair, mu)) == closed_form

    def test_certificate_holds_on_exactly_the_characterized_pairs(self):
        pairs = [(M, K) for M in range(1, 13) for K in range(1, 13)]
        assert CHARACTERIZED == {(M, K) for M, K in pairs if lower_bound_curve(M, K)
                                 == memory_sharing_envelope(achievable_catalog(M, K))}

    def test_certificate_survives_optimize(self):
        # python -O strips assert statements; a catalog point above the
        # bound, or a bound below the catalog, must still raise
        script = textwrap.dedent("""
            import dataclasses
            from fractions import Fraction
            import ndtcache.bounds as B
            from ndtcache.model import NetworkConfig
            catalog, bound = B.achievable_catalog, B.lower_bound_curve
            patches = [
                ("achievable_catalog", lambda M, K: [
                    dataclasses.replace(p, ndt=Fraction(9, 5)) if p.mu == Fraction(4, 5) else p
                    for p in catalog(M, K)]),
                ("lower_bound_curve", lambda M, K: B.NdtCurve(((0, 1), (1, 1)))),
            ]
            for name, patch in patches:
                setattr(B, name, patch)
                for call in (lambda: B.optimal_ndt_curve(1, 3),
                             lambda: B.optimal_ndt(NetworkConfig(M=1, K=3, N=4, mu=0))):
                    try:
                        call()
                    except RuntimeError as exc:
                        print(exc)
                B.achievable_catalog, B.lower_bound_curve = catalog, bound
        """)
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "(M=1, K=3): achievable envelope does not meet the lower bound\n" * 4


class TestAchievableCatalog:
    def test_corner_entries_always_present(self):
        for M in range(1, 5):
            for K in range(1, 5):
                points = achievable_catalog(M, K)
                by_mu = {p.mu: p for p in points}
                assert by_mu[Fraction(0)].ndt == K + M
                assert by_mu[Fraction(0)].scheme_label == "unicast"
                assert by_mu[Fraction(1)].ndt == max(Fraction(K, M + 1), Fraction(1))
                assert by_mu[Fraction(1)].scheme_label == "miso-zf"

    def test_special_points(self):
        p = {x.scheme_label: x for x in achievable_catalog(1, 3)}["zf-ia-m1k3"]
        assert (p.mu, p.ndt) == (Fraction(4, 5), Fraction(8, 5))
        p = {x.scheme_label: x for x in achievable_catalog(1, 4)}["x-channel-catalog"]
        assert (p.mu, p.ndt) == (Fraction(1, 2), Fraction(3))
        labels = {x.scheme_label for x in achievable_catalog(2, 2)}
        assert "m2-catalog" in labels
        assert {x.scheme_label for x in achievable_catalog(2, 3)} == {"unicast", "miso-zf"}

    def test_never_beats_the_converse(self):
        for M in range(1, 5):
            for K in range(1, 5):
                for p in achievable_catalog(M, K):
                    assert p.ndt >= lower_bound(cfg(M, K, p.mu))

    def test_converse_check_survives_optimize(self):
        # python -O strips assert statements; the check must still raise
        # when the bound curve sits above a catalog point
        script = textwrap.dedent("""
            import ndtcache.bounds as B
            B.lower_bound_curve = lambda M, K: B.NdtCurve(((0, 100), (1, 100)))
            try:
                B.achievable_catalog(1, 3)
            except RuntimeError as exc:
                print(exc)
        """)
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == ("catalog point AchievablePoint(mu=Fraction(0, 1), ndt=Fraction(4, 1), "
                               "scheme_label='unicast') below the lower bound 100\n")


class TestCountGuard:
    """M and K are counts: numpy integers count, floats are a TypeError
    that names the argument, and values below 1 stay a ValueError."""

    CALLS = {
        "lower_bound_curve": lower_bound_curve,
        "achievable_catalog": achievable_catalog,
        "optimal_ndt_curve": optimal_ndt_curve,
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_numpy_integers_give_the_plain_result(self, name):
        call = self.CALLS[name]
        assert call(np.int64(2), np.int8(2)) == call(2, 2)

    def test_numpy_integers_do_not_overflow_the_bound_curve(self):
        # the bound curve's integers reach past 64 bits
        assert lower_bound_curve(np.int64(60), np.int64(80)) == lower_bound_curve(60, 80)

    @pytest.mark.parametrize("name", CALLS)
    @pytest.mark.parametrize("arg", ["M", "K"])
    def test_float_names_the_argument(self, name, arg):
        call = self.CALLS[name]
        call(2, 2)  # a cached result for the ints must not serve the float
        args = {"M": 2, "K": 2, arg: 2.0}
        with pytest.raises(TypeError, match=f"^{arg} must be an int, got 2.0$"):
            call(args["M"], args["K"])

    @pytest.mark.parametrize("name", CALLS)
    def test_below_one_is_a_value_error(self, name):
        for M, K in ((0, 2), (2, 0), (-1, -1)):
            with pytest.raises(ValueError, match=f"^{re.escape('M and K must be positive')}$"):
                self.CALLS[name](M, K)


class TestMemorySharingEnvelope:
    def test_two_points_make_a_line(self):
        from ndtcache.bounds import AchievablePoint

        pts = [
            AchievablePoint(Fraction(0), Fraction(2), "unicast"),
            AchievablePoint(Fraction(1), Fraction(1), "miso-zf"),
        ]
        env = memory_sharing_envelope(pts)
        assert env.breakpoints == ((0, 2), (1, 1))
        assert env.evaluate(Fraction(1, 3)) == Fraction(5, 3)

    def test_requires_both_endpoints(self):
        from ndtcache.bounds import AchievablePoint

        with pytest.raises(ValueError):
            memory_sharing_envelope([AchievablePoint(Fraction(0), Fraction(2), "unicast")])

    def test_envelope_slopes(self):
        env = memory_sharing_envelope(achievable_catalog(1, 3))
        assert env.breakpoints == (
            (0, 4), (Fraction(4, 5), Fraction(8, 5)), (1, Fraction(3, 2)),
        )
        slopes = [
            (y2 - y1) / (x2 - x1)
            for (x1, y1), (x2, y2) in zip(env.breakpoints, env.breakpoints[1:])
        ]
        assert slopes == [Fraction(-3), Fraction(-1, 2)]

        env = memory_sharing_envelope(achievable_catalog(1, 4))
        slopes = [
            (y2 - y1) / (x2 - x1)
            for (x1, y1), (x2, y2) in zip(env.breakpoints, env.breakpoints[1:])
        ]
        assert slopes == [Fraction(-4), Fraction(-2)]

    def test_inputs_lie_on_or_above(self):
        for M in range(1, 5):
            for K in range(1, 5):
                points = achievable_catalog(M, K)
                env = memory_sharing_envelope(points)
                for p in points:
                    assert p.ndt >= env.evaluate(p.mu)

    def test_grid_oracle_matches_hull(self):
        points = achievable_catalog(1, 4)
        env = memory_sharing_envelope(points)
        for mu in GRID:
            assert env.evaluate(mu) == pairwise_sharing(points, mu)

    @settings(max_examples=300, deadline=None)
    @given(point_sets())
    def test_random_points_match_pairwise_oracle(self, points):
        env = memory_sharing_envelope(points)
        mus = set(GRID[::5]) | {p.mu for p in points} | {x for x, _ in env.breakpoints}
        for mu in mus:
            assert env.evaluate(mu) == pairwise_sharing(points, mu)
        assert_vertices_only(env)


class TestDominance:
    def test_envelope_at_least_bound_at_least_one(self):
        for M in range(1, 5):
            for K in range(1, 5):
                env = memory_sharing_envelope(achievable_catalog(M, K))
                lb = lower_bound_curve(M, K)
                for mu in GRID:
                    e, b = env.evaluate(mu), lb.evaluate(mu)
                    assert e >= b >= 1

    def test_characterized_cases_are_tight(self):
        for M, K in sorted(CHARACTERIZED):
            env = memory_sharing_envelope(achievable_catalog(M, K))
            for mu in GRID:
                opt = optimal_ndt(cfg(M, K, mu))
                assert opt == lower_bound(cfg(M, K, mu)) == env.evaluate(mu)
