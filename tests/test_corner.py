import re
from fractions import Fraction

import numpy as np
import pytest

from ndtcache.bounds import lower_bound
from ndtcache.corner import miso_ndt_and_dof, miso_zf_plan, unicast_schedule, user_groups
from ndtcache.model import NetworkConfig
from ndtcache.verify import draw_channels, verify_corner


def cfg(M, K, mu):
    return NetworkConfig(M=M, K=K, N=M + K, mu=mu)


class TestUnicastSchedule:
    @pytest.mark.parametrize("M, K", [(1, 1), (1, 3), (2, 2)])
    def test_slot_count_and_ndt(self, M, K):
        assert len(unicast_schedule(cfg(M, K, 0))) == K + M
        assert verify_corner(0, 1, cfg(M, K, 0)).ndt == K + M

    def test_each_demand_served_once(self):
        assert unicast_schedule(cfg(2, 3, 0)) == ("ue1", "ue2", "ue3", "rn1", "rn2")

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
