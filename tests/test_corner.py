import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndtcache.bounds import lower_bound
from ndtcache.corner import miso_zf_plan, unicast_schedule, user_groups, user_rows
from ndtcache.layout import miso_ndt_and_dof
from ndtcache.model import NetworkConfig
from ndtcache.verify import draw_channels, verify_corner
from test_verify import _prescribed


def cfg(M, K, mu):
    return NetworkConfig(M=M, K=K, N=M + K, mu=mu)


class TestUnicastSchedule:
    @pytest.mark.parametrize("M, K", [(1, 1), (1, 3), (2, 2)])
    def test_slot_count_and_ndt(self, M, K):
        assert len(unicast_schedule(cfg(M, K, 0))) == K + M
        assert verify_corner(0, 1, cfg(M, K, 0)).ndt == K + M

    def test_each_demand_served_once(self):
        assert unicast_schedule(cfg(2, 3, 0)) == (
            ("ue", 1), ("ue", 2), ("ue", 3), ("rn", 1), ("rn", 2))

    def test_rejects_nonzero_cache(self):
        with pytest.raises(ValueError):
            unicast_schedule(cfg(1, 1, "1/2"))

    def test_ndt_matches_lower_bound(self):
        for M in range(1, 7):
            for K in range(1, 7):
                assert len(unicast_schedule(cfg(M, K, 0))) == lower_bound(cfg(M, K, 0))


class TestMisoZfPlan:
    def test_single_user_matched_direction(self):
        ch = draw_channels(1, 1, 2, 1)
        _, cross, degenerate = miso_zf_plan(ch.g, ch.H)
        groups = user_groups(2, 1)
        assert groups == ((1,),)
        assert miso_ndt_and_dof(groups)[0] == 1
        assert not degenerate
        assert cross.max() == 0.0

    def test_two_users_one_relay_served_together(self):
        ch = draw_channels(2, 1, 1, 2)
        _, cross, degenerate = miso_zf_plan(ch.g, ch.H)
        groups = user_groups(1, 2)
        assert groups == ((1, 2),)
        assert miso_ndt_and_dof(groups)[0] == 1
        assert not degenerate
        assert cross.max() < 1e-10

    def test_three_users_one_relay(self):
        ch = draw_channels(3, 2, 1, 3)
        beamformers, cross, _ = miso_zf_plan(ch.g, ch.H)
        groups = user_groups(1, 3)
        assert groups == ((1, 2), (3,))
        assert [W.shape for W in beamformers] == [(2, 2), (2, 1)]
        assert cross.shape == (3,)
        assert miso_ndt_and_dof(groups)[0] == Fraction(3, 2)

    def test_groups_cover_every_user_once(self):
        for M in range(1, 4):
            for K in range(1, 5):
                ch = draw_channels((4, M, K), 4, M, K)
                groups = user_groups(M, K)
                beamformers, cross, _ = miso_zf_plan(ch.g, ch.H)
                served = [k for group in groups for k in group]
                assert sorted(served) == list(range(1, K + 1))
                assert all(len(g) <= M + 1 for g in groups)
                assert [W.shape for W in beamformers] == [(M + 1, len(g)) for g in groups]
                assert cross.shape == (K,)

    def test_ndt_matches_lower_bound_at_full_cache(self):
        for M in range(1, 7):
            for K in range(1, 7):
                ndt, dof = miso_ndt_and_dof(user_groups(M, K))
                assert ndt == lower_bound(cfg(M, K, 1))
                assert ndt == max(Fraction(K, M + 1), Fraction(1))
                assert dof == min(M + 1, K)

    def test_nulling_residuals_over_many_draws(self):
        worst = 0.0
        for seed in range(300):
            ch = draw_channels((6, seed), 2, 2, 4)
            worst = max(worst, miso_zf_plan(ch.g, ch.H)[1].max())
        assert worst < 1e-10

    def test_cross_gains_vanish(self):
        ch = draw_channels(7, 1, 2, 3)
        beamformers, *_ = miso_zf_plan(ch.g, ch.H)
        (group,) = user_groups(2, 3)
        rows = np.stack(
            [np.concatenate(([ch.g[0, k - 1]], ch.H[0, k - 1, :])) for k in group]
        )
        gains = rows @ beamformers[0]
        off = gains - np.diag(np.diag(gains))
        assert np.abs(off).max() < 1e-10
        assert np.allclose(np.diag(gains), 1.0, rtol=1e-8)

    def test_rejects_wrong_cache_size(self):
        # the plan takes no cache size; its one caller, verify_corner, refuses
        # every mu but 0 (unicast) and 1 (this plan)
        with pytest.raises(ValueError, match=r"needs mu in \{0, 1\}, got 1/2$"):
            verify_corner(8, 1, cfg(1, 2, "1/2"))

    def test_rejects_too_few_slots(self):
        ch = draw_channels(9, 1, 1, 4)  # needs 2 group slots
        with pytest.raises(ValueError, match=r"^need at least 2 slots, got T = 1$"):
            miso_zf_plan(ch.g, ch.H)

    def test_rejects_mismatched_shapes(self):
        g = np.ones((2, 3), complex)
        for H_shape in [(2, 3), (2, 4, 1), (1, 3, 1), (3, 2, 3, 1), (2, 3, 0)]:
            message = f"g (..., T, K) and H (..., T, K, M) must match with K, M >= 1, " \
                      f"got (2, 3) and {H_shape}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                miso_zf_plan(g, np.ones(H_shape, complex))

    def test_degenerate_group_matrix_is_masked(self):
        # two users with identical rows make the group matrix singular
        g = np.array([[1.0 + 0j, 1.0 + 0j]])
        H = np.array([[[2.0 + 0j], [2.0 + 0j]]])
        degenerate = miso_zf_plan(g, H)[-1]
        assert degenerate.shape == () and degenerate

    def test_all_zero_group_is_masked(self):
        # no singular value above zero: masked like a singular group
        degenerate = miso_zf_plan(np.zeros((1, 2), complex), np.zeros((1, 2, 1), complex))[-1]
        assert degenerate.shape == () and degenerate

    def test_non_finite_rows_raise_or_are_masked(self):
        # the verifiers check coefficients first; the kernel alone leaves a
        # NaN to the SVD, which raises, and masks NaN singular values,
        # which this LAPACK returns for an infinite entry
        g, H = np.ones((1, 2), complex), np.ones((1, 2, 1), complex)
        g[0, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            miso_zf_plan(g, H)
        g[0, 0] = np.inf
        try:
            degenerate = miso_zf_plan(g, H)[-1]
        except np.linalg.LinAlgError:
            return
        assert degenerate


def miso_draws(seed, M, K, batch, ratio=None, offset=0):
    """A batch of Gaussian (g, H) for the groups of (M, K). With ``ratio``,
    one group's rows in one draw are U diag(s) V^H with s_max = 1 and
    s_min = ratio * (1 + offset)."""
    rng = np.random.default_rng(seed)
    groups = user_groups(M, K)
    cn = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    g, H = cn(batch, len(groups), K), cn(batch, len(groups), K, M)
    if ratio is not None:
        t = int(rng.integers(len(groups)))
        rows = [k - 1 for k in groups[t]]
        s_min = ratio * (1 + offset)
        s = np.concatenate([[1.0], s_min ** rng.uniform(0, 1, max(len(rows) - 2, 0)), [s_min]])
        C = _prescribed(rng, (len(rows), M + 1), s[:len(rows)])
        b = int(rng.integers(batch))
        g[b, t, rows], H[b, t, rows] = C[:, 0], C[:, 1:]
    return g, H


def svd_mask(g, H, tol, values_only=True):
    """The degenerate mask of one SVD per group: by default a values-only
    SVD, a second SVD beside pinv's; else pinv's own, of C.conj()."""
    mask = np.zeros(g.shape[:-2], dtype=bool)
    for t, group in enumerate(user_groups(H.shape[-1], g.shape[-1])):
        C = user_rows(g[..., t, :], H[..., t, :, :], group)
        sv = (np.linalg.svd(C, compute_uv=False) if values_only
              else np.linalg.svd(C.conj(), full_matrices=False)[1])
        mask |= sv[..., -1] < tol * sv[..., 0]
    return mask


def count_svds(monkeypatch, fn):
    """fn's result and its SVDs: np.linalg.svd calls plus np.linalg.pinv
    calls, each of which runs one."""
    calls = []
    with monkeypatch.context() as patch:
        for name in ("svd", "pinv"):
            def counting(*args, _real=getattr(np.linalg, name), **kwargs):
                calls.append(_real)
                return _real(*args, **kwargs)
            patch.setattr(np.linalg, name, counting)
        return fn(), len(calls)


# s_min / s_max at tol (1 +- 10^-e), e <= 15, or a Gaussian draw (None)
NEAR = st.none() | st.tuples(st.sampled_from([-1, 1]), st.integers(0, 15)).map(
    lambda near: near[0] * 10.0 ** -near[1])


class TestMisoOneSvd:
    """miso_zf_plan's one SVD per group against pinv and a values-only SVD.
    Its mask is that of the SVD it shares with pinv; a draw within a few
    eps of the cut may fall on the other side in a values-only SVD, so
    planted near-cut draws are checked against pinv's SVD."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), M=st.integers(1, 3), K=st.integers(1, 4),
           batch=st.integers(1, 6), tol=st.sampled_from([1e-9, 0.1, 0.5]), offset=NEAR)
    def test_mask_equals_the_values_only_svd(self, seed, M, K, batch, tol, offset):
        ratio = None if offset is None else tol
        g, H = miso_draws(seed, M, K, batch, ratio, offset or 0)
        np.testing.assert_array_equal(miso_zf_plan(g, H, tol)[2],
                                      svd_mask(g, H, tol, values_only=offset is None))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), M=st.integers(1, 3), K=st.integers(1, 4),
           batch=st.integers(1, 6), ratio=st.sampled_from([None, 1e-15, 1e-9, 0.5]),
           offset=NEAR)
    def test_beamformers_are_pinv_bit_for_bit(self, seed, M, K, batch, ratio, offset):
        # ratio 1e-15 puts s_min at pinv's own cut
        g, H = miso_draws(seed, M, K, batch, ratio, offset or 0)
        for t, (group, W) in enumerate(zip(user_groups(M, K), miso_zf_plan(g, H)[0])):
            pinv = np.linalg.pinv(user_rows(g[:, t], H[:, t], group))
            assert W.dtype == pinv.dtype and W.tobytes() == pinv.tobytes()

    def test_one_svd_per_group(self, monkeypatch):
        g, H = miso_draws(10, 1, 4, 64)  # groups (1, 2) and (3, 4)
        (_, _, degenerate), svds = count_svds(monkeypatch, lambda: miso_zf_plan(g, H))
        assert svds == 2 and not degenerate.any()
        # one draw planted within 1e-15 of the cut, where the SVD's rounding
        # decides; with K <= M + 1 its one group is the planted one
        for M, K, tol, seed, offset in [(1, 2, 0.1, 33, -1e-15), (2, 3, 0.5, 41, -1e-15),
                                        (3, 4, 0.1, 24, 1e-15)]:
            g, H = miso_draws(seed, M, K, 1, tol, offset)
            assert count_svds(monkeypatch, lambda: miso_zf_plan(g, H, tol))[1] == 1
