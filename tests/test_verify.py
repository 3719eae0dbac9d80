import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndtcache.model import NetworkConfig
from ndtcache.verify import (
    RateEstimate,
    VerificationFailure,
    draw_channels,
    finite_snr_rates,
    rank_with_gap,
    verify_corner,
    verify_m1k3,
)


def rational_rank(rows):
    """Exact rank by Gaussian elimination over Fractions (oracle)."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        pivot = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        m[row] = [v * inv for v in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        row += 1
        rank += 1
        if row == len(m):
            break
    return rank


class TestDrawChannels:
    def test_deterministic(self):
        a = draw_channels(42, 8, 1, 3)
        b = draw_channels(42, 8, 1, 3)
        np.testing.assert_array_equal(a.f, b.f)
        np.testing.assert_array_equal(a.g, b.g)
        np.testing.assert_array_equal(a.H, b.H)

    def test_dimension_count(self):
        ch = draw_channels(0, 8, 1, 3)
        assert ch.f.size + ch.g.size + ch.H.size == 8 + 24 + 24
        assert ch.f.shape == (8, 1)
        assert ch.g.shape == (8, 3)
        assert ch.H.shape == (8, 3, 1)

    def test_slots_differ(self):
        ch = draw_channels(1, 4, 2, 2)
        assert not np.array_equal(ch.g[0], ch.g[1])

    def test_unit_variance(self):
        ch = draw_channels(3, 2000, 1, 2)
        power = np.mean(np.abs(ch.g) ** 2)
        assert abs(power - 1.0) < 0.05

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            draw_channels(0, 0, 1, 1)


class TestRankWithGap:
    def test_identity(self):
        rank, gap = rank_with_gap(np.eye(8), 1e-12)
        assert rank == 8
        assert gap == math.inf

    def test_duplicate_column(self):
        m = np.array([[1.0, 2.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        rank, gap = rank_with_gap(m, 1e-9)
        assert rank == 2
        assert gap > 1e10

    def test_zero_matrix(self):
        rank, gap = rank_with_gap(np.zeros((3, 3)), 1e-9)
        assert rank == 0
        assert gap == math.inf

    def test_three_generator_construction(self):
        # 11 columns drawn from 3 generators: numerical rank must be 3 and
        # must agree with exact elimination on an integer instance
        rng = np.random.default_rng(5)
        gens = rng.integers(-5, 6, size=(8, 3))
        coeff = rng.integers(-3, 4, size=(3, 11))
        m = gens @ coeff
        rank, gap = rank_with_gap(m.astype(float), 1e-9)
        assert rank == rational_rank(m.tolist()) == 3
        assert gap > 1e6

    def test_column_permutation_and_scaling_invariance(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((6, 4)) @ rng.standard_normal((4, 9))
        base = rank_with_gap(m, 1e-9)[0]
        perm = rng.permutation(9)
        assert rank_with_gap(m[:, perm], 1e-9)[0] == base
        scales = 10.0 ** rng.integers(-3, 4, size=9)
        assert rank_with_gap(m * scales, 1e-9)[0] == base

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            rank_with_gap(np.zeros((0, 3)), 1e-9)


class TestVerifyM1K3:
    def test_small_run_passes(self):
        report = verify_m1k3(seed=1, trials=50, tol=1e-9)
        assert report.failures == 0
        assert report.trials == 50
        assert report.redraws <= 2
        assert report.ndt == Fraction(8, 5)
        assert report.per_ue_dof == Fraction(5, 8)
        assert report.rn_dof == Fraction(1, 8)
        assert report.sum_dof == 2
        assert report.decode_max_error <= 1e-6
        for sub in report.ue_reports:
            assert (sub.desired_rank, sub.interference_rank, sub.total_rank) == (5, 3, 8)
            assert sub.desired_rank + sub.interference_rank == sub.total_rank
            assert sub.zf_residual <= 1e-10
            assert sub.alignment_residual <= 1e-8
        (rn,) = report.rn_reports
        assert rn.desired_rank == 4

    def test_deterministic_reports(self):
        a = verify_m1k3(seed=9, trials=10)
        b = verify_m1k3(seed=9, trials=10)
        assert a == b
        assert repr(a) == repr(b)

    def test_report_scalars_are_plain_python_floats(self):
        # numpy scalars would leak their repr into CSV cells
        report = verify_m1k3(seed=9, trials=3)
        for sub in report.ue_reports + report.rn_reports:
            assert type(sub.zf_residual) is float
            assert type(sub.alignment_residual) is float
        assert type(report.decode_max_error) is float

    def test_different_seeds_differ(self):
        a = verify_m1k3(seed=1, trials=5)
        b = verify_m1k3(seed=2, trials=5)
        assert a.decode_max_error != b.decode_max_error

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            verify_m1k3(seed=0, trials=0)


class TestVerifyCorner:
    def test_zero_cache(self):
        report = verify_corner(3, 20, NetworkConfig(M=1, K=3, N=4, mu=0))
        assert report.ndt == 4
        assert report.failures == 0
        assert report.decode_max_error <= 1e-12
        assert len(report.ue_reports) == 3
        assert len(report.rn_reports) == 1
        assert report.sum_dof == 1

    def test_full_cache(self):
        report = verify_corner(3, 20, NetworkConfig(M=1, K=3, N=4, mu=1))
        assert report.ndt == Fraction(3, 2)
        assert report.failures == 0
        assert all(u.zf_residual <= 1e-10 for u in report.ue_reports)
        assert report.rn_reports == ()
        assert report.sum_dof == 2

    def test_full_cache_more_antennas_than_users(self):
        report = verify_corner(4, 10, NetworkConfig(M=2, K=2, N=4, mu=1))
        assert report.ndt == 1
        assert report.per_ue_dof == 1

    def test_rejects_interior_cache_size(self):
        with pytest.raises(ValueError):
            verify_corner(0, 5, NetworkConfig(M=1, K=2, N=3, mu="1/2"))

    def test_deterministic(self):
        cfg = NetworkConfig(M=2, K=3, N=5, mu=1)
        assert verify_corner(11, 10, cfg) == verify_corner(11, 10, cfg)


class TestFiniteSnrRates:
    def test_slopes_near_dof(self):
        estimates = finite_snr_rates(2, [40.0, 50.0, 60.0], trials=60)
        slopes = {e.receiver: e.fitted_slope for e in estimates}
        for ue in ("ue1", "ue2", "ue3"):
            assert abs(slopes[ue] - 5 / 8) / (5 / 8) < 0.10
        assert abs(slopes["rn"] - 1 / 8) / (1 / 8) < 0.10

    def test_rates_nonnegative_and_increasing_in_snr(self):
        estimates = finite_snr_rates(4, [30.0, 40.0, 50.0], trials=20)
        by_receiver: dict[str, list[RateEstimate]] = {}
        for e in estimates:
            by_receiver.setdefault(e.receiver, []).append(e)
        for ests in by_receiver.values():
            rates = [e.rate for e in sorted(ests, key=lambda e: e.snr_db)]
            assert all(r >= 0 for r in rates)
            assert rates == sorted(rates)

    def test_slope_stabilizes_with_wider_span(self):
        # finite-SNR slopes approach the asymptotic value from below, so a
        # higher span cannot reduce the fit
        lo = finite_snr_rates(5, [30.0, 40.0, 50.0], trials=15)
        hi = finite_snr_rates(5, [50.0, 60.0, 70.0], trials=15)
        lo_s = {e.receiver: e.fitted_slope for e in lo}
        hi_s = {e.receiver: e.fitted_slope for e in hi}
        for r in lo_s:
            assert hi_s[r] >= lo_s[r] - 1e-9

    def test_preconditions(self):
        with pytest.raises(ValueError):
            finite_snr_rates(0, [], trials=5)
        with pytest.raises(ValueError):
            finite_snr_rates(0, [40.0, 50.0], trials=5)
        with pytest.raises(ValueError):
            finite_snr_rates(0, [40.0, 45.0, 50.0], trials=5)
        with pytest.raises(ValueError):
            finite_snr_rates(0, [40.0, 50.0, 60.0], trials=0)

    def test_deterministic(self):
        a = finite_snr_rates(6, [40.0, 50.0, 60.0], trials=5)
        b = finite_snr_rates(6, [40.0, 50.0, 60.0], trials=5)
        assert a == b


class TestVerificationFailure:
    def test_failure_carries_report(self):
        # force a failure by injecting an impossible decode threshold
        import ndtcache.verify as V

        original = V.DECODE_ERROR_MAX
        V.DECODE_ERROR_MAX = 0.0
        try:
            with pytest.raises(VerificationFailure) as exc_info:
                verify_m1k3(seed=1, trials=3)
        finally:
            V.DECODE_ERROR_MAX = original
        report = exc_info.value.report
        assert report is not None
        assert report.failures == 3
        assert "trial 0" in str(exc_info.value)


class TestRedrawExhaustion:
    def test_m1k3_partial_report(self):
        # at tol 8e-2 trial 48 of seed 0 is degenerate on all nine draws
        with pytest.raises(VerificationFailure) as exc_info:
            verify_m1k3(seed=0, trials=60, tol=8e-2)
        assert str(exc_info.value) == "trial 48: 9 consecutive degenerate channel draws"
        report = exc_info.value.report
        assert report.trials == 49
        assert report.failures == 1
        assert report.redraws >= 8
        assert all(sub.total_rank == 8 for sub in report.ue_reports)

    def test_miso_exhausted_at_first_trial(self):
        cfg = NetworkConfig(M=1, K=2, N=3, mu=1)
        with pytest.raises(VerificationFailure) as exc_info:
            verify_corner(0, 3, cfg, tol=0.999)
        assert "trial 0: 9 consecutive" in str(exc_info.value)
        report = exc_info.value.report
        assert (report.trials, report.failures, report.redraws) == (1, 1, 8)
        # no block was checked, yet the MISO corner keeps its fixed ranks
        assert all((sub.desired_rank, sub.interference_rank, sub.total_rank) == (1, 0, 1)
                   for sub in report.ue_reports)

    def test_rates_exhaustion_is_a_verification_failure(self, monkeypatch):
        import ndtcache.verify as V

        solve = V._solve_m1k3  # rates fix tol at 1e-9; make every draw degenerate
        monkeypatch.setattr(V, "_solve_m1k3", lambda tol: solve(0.9))
        with pytest.raises(VerificationFailure, match="9 consecutive") as exc_info:
            finite_snr_rates(0, [40.0, 50.0, 60.0], trials=2)
        assert exc_info.value.report == []  # out of redraws at trial 0

        # at tol 8e-2 trial 48 of seed 0 is degenerate on all nine draws: the
        # failure carries the rates of trials 0-47
        monkeypatch.setattr(V, "_solve_m1k3", lambda tol: solve(8e-2))
        with pytest.raises(VerificationFailure) as exc_info:
            finite_snr_rates(0, [40.0, 50.0, 60.0], trials=60)
        assert str(exc_info.value) == "trial 48: 9 consecutive degenerate channel draws"
        assert exc_info.value.report == finite_snr_rates(0, [40.0, 50.0, 60.0], trials=48)


class TestForcedZfFailure:
    """A ZF threshold below the rounding floor fails trials. The message,
    decode error and residuals are then rounding noise, pinned so that any
    change to the arithmetic shows; the trial, redraw and rank pins are
    exact."""

    def test_m1k3(self, monkeypatch):
        import ndtcache.verify as V

        monkeypatch.setattr(V, "ZF_RESIDUAL_MAX", 1e-16)
        with pytest.raises(VerificationFailure) as exc_info:
            verify_m1k3(seed=1, trials=5)
        assert str(exc_info.value) == "trial 0: ue3 ZF residual 1.020e-16"
        report = exc_info.value.report
        assert (report.trials, report.failures, report.redraws) == (5, 5, 0)
        assert report.decode_max_error == 3.720519263133502e-14
        assert [(s.receiver, s.zf_residual, s.alignment_residual)
                for s in report.ue_reports + report.rn_reports] == [
            ("ue1", 2.2649179860254926e-16, 2.737290595109619e-16),
            ("ue2", 1.0762249095646033e-16, 2.1076331473219863e-16),
            ("ue3", 1.985731730379723e-16, 2.525242939215067e-16),
            ("rn1", 0.0, 0.0),
        ]
        assert [(s.desired_rank, s.interference_rank, s.total_rank)
                for s in report.ue_reports + report.rn_reports] == [(5, 3, 8)] * 3 + [(4, 0, 4)]

    def test_miso(self, monkeypatch):
        import ndtcache.verify as V

        monkeypatch.setattr(V, "ZF_RESIDUAL_MAX", 1e-16)
        with pytest.raises(VerificationFailure) as exc_info:
            verify_corner(1, 5, NetworkConfig(M=2, K=3, N=5, mu=1))
        assert str(exc_info.value) == "trial 0: nulling residual 6.873e-15"
        report = exc_info.value.report
        assert (report.trials, report.failures, report.redraws) == (5, 5, 0)
        assert report.decode_max_error == 1.1100721022615804e-14
        assert report.rn_reports == ()
        assert [(s.receiver, s.zf_residual, s.alignment_residual) for s in report.ue_reports] == [
            ("ue1", 3.4680711509574343e-15, 0.0),
            ("ue2", 6.873135227246949e-15, 0.0),
            ("ue3", 3.764491187568542e-15, 0.0),
        ]
        for sub in report.ue_reports:
            assert (sub.desired_rank, sub.interference_rank, sub.total_rank) == (1, 0, 1)


class TestForcedDecodeFailure:
    def test_unicast_checks_its_decode_error(self, monkeypatch):
        import ndtcache.verify as V

        # the mu = 0 decode error is rounding noise above 0 on every trial
        monkeypatch.setattr(V, "DECODE_ERROR_MAX", 0.0)
        with pytest.raises(VerificationFailure) as exc_info:
            verify_corner(0, 70, NetworkConfig(M=2, K=3, N=5, mu=0))
        assert str(exc_info.value) == "trial 0: decode error 2.242e-16"
        report = exc_info.value.report
        assert (report.trials, report.failures, report.redraws) == (70, 70, 0)
        assert report.decode_max_error == 2.957631486462343e-16


class TestReportFields:
    def test_ranks_are_worst_over_all_trials(self, monkeypatch):
        import ndtcache.verify as V

        # a coarse rank cut misjudges a few trials' total rank
        monkeypatch.setattr(V, "RANK_REL_TOL", 1e-3)
        with pytest.raises(VerificationFailure) as exc_info:
            verify_m1k3(seed=4, trials=300)
        assert "ranks (5,3,7)" in str(exc_info.value)
        assert min(sub.total_rank for sub in exc_info.value.report.ue_reports) == 7
        assert verify_m1k3(seed=4, trials=1).ue_reports[0].total_rank == 8


class TestToleranceGuards:
    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9, 1.0])
    def test_library_entry_points_reject_bad_tol(self, tol):
        from ndtcache.corner import miso_zf_plan
        from ndtcache.scheme_m1k3 import T_SLOTS, solve_precoders

        with pytest.raises(ValueError):
            verify_m1k3(0, 2, tol)
        with pytest.raises(ValueError):
            verify_corner(0, 2, NetworkConfig(M=1, K=2, N=3, mu=1), tol)
        ch = draw_channels(0, T_SLOTS, 1, 3)
        with pytest.raises(ValueError):
            solve_precoders(ch.g, ch.H[..., 0], tol)
        ch = draw_channels(0, 1, 1, 2)
        with pytest.raises(ValueError):
            miso_zf_plan(ch.g, ch.H, tol)
        with pytest.raises(ValueError):
            rank_with_gap(np.eye(3), tol)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rates_reject_non_finite_snr(self, bad):
        with pytest.raises(ValueError):
            finite_snr_rates(0, [bad, 50.0, 60.0], trials=2)

    @pytest.mark.filterwarnings("error")  # no numpy warning may come before the message
    @pytest.mark.parametrize("snr_db", [[4000.0, 5000.0, 6000.0], [-4000.0, -5000.0, -6000.0]])
    def test_rates_reject_powers_that_overflow_or_vanish(self, snr_db):
        # 10**(dB/10) is inf above about 3083 dB and 0 below about -3233 dB
        message = f"SNR points must have a finite, positive power 10**(dB/10), got {snr_db}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            finite_snr_rates(0, snr_db, trials=2)

    @pytest.mark.filterwarnings("error")  # no numpy warning may come before the message
    def test_rates_reject_points_whose_rates_overflow(self):
        # each power is finite, but power times channel gain is not
        snr_db = [3040.0, 3060.0, 3080.0]
        message = f"SNR points must give finite rates, got {snr_db}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            finite_snr_rates(0, snr_db, trials=2)


class TestSeedGuard:
    @pytest.mark.parametrize("call", [
        lambda: verify_m1k3(-1, 2),
        lambda: draw_channels(-1, 8, 1, 3),
        lambda: finite_snr_rates(-1, [40.0, 50.0, 60.0], 2),
        lambda: verify_corner(-1, 2, NetworkConfig(M=1, K=2, N=3, mu=0)),
        lambda: verify_corner(-1, 2, NetworkConfig(M=1, K=2, N=3, mu=1)),
    ], ids=["verify_m1k3", "draw_channels", "finite_snr_rates", "verify_corner_mu0",
            "verify_corner_mu1"])
    def test_negative_seed_names_the_seed(self, call):
        with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
            call()

    def test_negative_entry_of_a_tuple_seed(self):
        with pytest.raises(ValueError, match=r"^seed must be non-negative, got \(3, -2\)$"):
            draw_channels((3, -2), 1, 1, 2)

    @pytest.mark.parametrize("seed", [1.5, (1, 2.0), "3"], ids=["float", "tuple_float", "str"])
    @pytest.mark.parametrize("call", [
        lambda seed: verify_m1k3(seed, 2),
        lambda seed: draw_channels(seed, 8, 1, 3),
        lambda seed: finite_snr_rates(seed, [40.0, 50.0, 60.0], 2),
        lambda seed: verify_corner(seed, 2, NetworkConfig(M=1, K=2, N=3, mu=0)),
        lambda seed: verify_corner(seed, 2, NetworkConfig(M=1, K=2, N=3, mu=1)),
    ], ids=["verify_m1k3", "draw_channels", "finite_snr_rates", "verify_corner_mu0",
            "verify_corner_mu1"])
    def test_non_integer_seed_is_a_type_error(self, call, seed):
        message = f"seed must be an int or a tuple of ints, got {seed!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            call(seed)


class TestCountGuard:
    @pytest.mark.parametrize("value", [2.0, "2"], ids=["float", "str"])
    @pytest.mark.parametrize("name, call", [
        ("trials", lambda n: verify_m1k3(0, n)),
        ("trials", lambda n: finite_snr_rates(0, [40.0, 50.0, 60.0], n)),
        ("trials", lambda n: verify_corner(0, n, NetworkConfig(M=1, K=2, N=3, mu=0))),
        ("trials", lambda n: verify_corner(0, n, NetworkConfig(M=1, K=2, N=3, mu=1))),
        ("T", lambda n: draw_channels(0, n, 1, 3)),
        ("M", lambda n: draw_channels(0, 8, n, 3)),
        ("K", lambda n: draw_channels(0, 8, 1, n)),
    ], ids=["verify_m1k3", "finite_snr_rates", "verify_corner_mu0", "verify_corner_mu1",
            "draw_channels_T", "draw_channels_M", "draw_channels_K"])
    def test_non_integer_count_names_the_argument(self, name, call, value):
        message = f"{name} must be an int, got {value!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            call(value)

    def test_integer_like_counts_are_counts(self):
        # numpy integers convert through operator.index, as seeds do
        assert verify_m1k3(0, np.int64(2)) == verify_m1k3(0, 2)
        a, b = draw_channels(0, np.int64(8), np.int8(1), np.uint16(3)), draw_channels(0, 8, 1, 3)
        np.testing.assert_array_equal(a.H, b.H)


class TestEngineKernels:
    def test_engine_calls_its_kernels_through_the_public_names(self, monkeypatch):
        import ndtcache.verify as V

        runs = {
            "verify_m1k3": (lambda: verify_m1k3(1, 2),
                            ("solve_precoders", "effective_channel_matrix")),
            "finite_snr_rates": (lambda: finite_snr_rates(1, [40.0, 50.0, 60.0], 2),
                                 ("solve_precoders", "effective_channel_matrix")),
            "verify_corner": (lambda: verify_corner(1, 2, NetworkConfig(M=1, K=2, N=3, mu=1)),
                              ("miso_zf_plan",)),
        }
        unpatched = {name: call() for name, (call, _) in runs.items()}
        calls = Counter()

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in ("solve_precoders", "effective_channel_matrix", "miso_zf_plan"):
            monkeypatch.setattr(V, name, counting(name, getattr(V, name)))
        for name, (call, kernels) in runs.items():
            calls.clear()
            assert call() == unpatched[name], name
            assert all(calls[kernel] > 0 for kernel in kernels), (name, calls)


class TestStackedKernels:
    def test_stacked_rank_with_gap_matches_single_calls(self):
        rng = np.random.default_rng(8)
        stack = rng.standard_normal((6, 5, 4)) @ rng.standard_normal((6, 4, 7))
        stack[2] = 0.0
        ranks, gaps = rank_with_gap(stack, 1e-9)
        assert [rank_with_gap(m, 1e-9) for m in stack] == list(zip(ranks, gaps))

    def test_precoder_and_receive_kernels_match_wrappers_bitwise(self):
        # one call on a stack of draws gives the bits of one call per draw
        from ndtcache.scheme_m1k3 import T_SLOTS, effective_channel_matrix, solve_precoders

        chans = [draw_channels((21, i), T_SLOTS, 1, 3) for i in range(5)]
        f, g, H = (np.stack([getattr(ch, a) for ch in chans]) for a in ("f", "g", "H"))
        stacked = solve_precoders(g, H[..., 0])
        assert not stacked[-1].any()
        nu, beta = stacked[:2]
        receive = lambda r: effective_channel_matrix(nu, beta, f, g, H[..., 0], r)
        for i, ch in enumerate(chans):
            one = solve_precoders(ch.g, ch.H[..., 0])
            for single, batch in zip(one, stacked):
                assert single.shape == batch.shape[1:]
                np.testing.assert_array_equal(single, batch[i])
            for r in ("ue1", "ue2", "ue3", "rn"):
                np.testing.assert_array_equal(
                    effective_channel_matrix(*one[:2], ch.f, ch.g, ch.H[..., 0], r), receive(r)[i])

    def test_miso_kernel_matches_wrapper_bitwise(self):
        # one call on a stack of draws gives the bits of one call per draw
        from ndtcache.corner import miso_zf_plan, user_groups

        chans = [draw_channels((22, i), len(user_groups(2, 5)), 2, 5) for i in range(4)]
        g, H = np.stack([ch.g for ch in chans]), np.stack([ch.H for ch in chans])
        beamformers, cross, degenerate = miso_zf_plan(g, H)
        assert not degenerate.any()
        assert cross.shape == (4, 5)
        for i, ch in enumerate(chans):
            one_w, one_cross, one_degenerate = miso_zf_plan(ch.g, ch.H)
            assert one_degenerate.shape == () and not one_degenerate
            np.testing.assert_array_equal(one_cross, cross[i])
            for single, stacked in zip(one_w, beamformers):
                np.testing.assert_array_equal(single, stacked[i])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 16), shape=st.sampled_from(
        [(8, 5), (8, 4)]), consistent=st.booleans())
    def test_stacked_least_squares_matches_per_trial_lstsq(self, seed, n, shape, consistent):
        from ndtcache.verify import _least_squares

        rng = np.random.default_rng(seed)
        cn = lambda *s: rng.standard_normal(s) + 1j * rng.standard_normal(s)
        A, x = cn(n, *shape), cn(n, shape[1], 1)
        b = A @ x if consistent else cn(n, shape[0], 1)
        reference = np.stack([np.linalg.lstsq(A[i], b[i], rcond=None)[0] for i in range(n)])
        stacked = _least_squares(A, b)
        assert stacked.shape == reference.shape
        scale = np.abs(reference).max(axis=(-2, -1))
        assert (np.abs(stacked - reference).max(axis=(-2, -1)) <= 1e-12 * scale).all()

    def test_degenerate_mask_flags_only_the_bad_draw(self):
        from ndtcache.scheme_m1k3 import solve_precoders

        g = np.ones((2, 8, 3), complex)
        h = np.tile(np.array([1.0, 2.0, 3.0], complex), (2, 8, 1))
        h[1, 3] = [1.0, 2.0, 2.0]  # g2*h3 = g3*h2 in one slot of draw 1
        assert solve_precoders(g, h)[-1].tolist() == [False, True]
