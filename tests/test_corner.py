from fractions import Fraction

import numpy as np
import pytest

from ndtcache.bounds import lower_bound
from ndtcache.corner import miso_ndt_and_dof, miso_zf_plan, unicast_schedule
from ndtcache.model import ChannelSet, DegenerateChannel, NetworkConfig
from ndtcache.verify import draw_channels


def cfg(M, K, mu):
    return NetworkConfig(M=M, K=K, N=M + K, mu=mu)


class TestUnicastSchedule:
    @pytest.mark.parametrize("M, K", [(1, 1), (1, 3), (2, 2)])
    def test_slot_count_and_ndt(self, M, K):
        schedule = unicast_schedule(cfg(M, K, 0))
        assert len(schedule.slots) == K + M
        assert schedule.ndt == K + M

    def test_each_demand_served_once(self):
        schedule = unicast_schedule(cfg(2, 3, 0))
        receivers = [r for r, _ in schedule.slots]
        files = [f for _, f in schedule.slots]
        assert receivers == ["ue1", "ue2", "ue3", "rn1", "rn2"]
        assert files == [1, 2, 3, 4, 5]

    def test_rejects_nonzero_cache(self):
        with pytest.raises(ValueError):
            unicast_schedule(cfg(1, 1, "1/2"))

    def test_ndt_matches_lower_bound(self):
        for M in range(1, 7):
            for K in range(1, 7):
                assert unicast_schedule(cfg(M, K, 0)).ndt == lower_bound(cfg(M, K, 0))


class TestMisoZfPlan:
    def test_single_user_matched_direction(self):
        ch = draw_channels(1, 1, 2, 1)
        plan = miso_zf_plan(ch, cfg(2, 1, 1))
        assert plan.groups == ((1,),)
        assert plan.ndt == 1
        assert plan.nulling_residual == 0.0

    def test_two_users_one_relay_served_together(self):
        ch = draw_channels(2, 1, 1, 2)
        plan = miso_zf_plan(ch, cfg(1, 2, 1))
        assert plan.groups == ((1, 2),)
        assert plan.ndt == 1
        assert plan.nulling_residual < 1e-10

    def test_three_users_one_relay(self):
        ch = draw_channels(3, 2, 1, 3)
        plan = miso_zf_plan(ch, cfg(1, 3, 1))
        assert plan.groups == ((1, 2), (3,))
        assert plan.slot_shares == (Fraction(1), Fraction(1, 2))
        assert plan.ndt == Fraction(3, 2)

    def test_groups_cover_every_user_once(self):
        for M in range(1, 4):
            for K in range(1, 5):
                ch = draw_channels((4, M, K), 4, M, K)
                plan = miso_zf_plan(ch, cfg(M, K, 1))
                served = [k for group in plan.groups for k in group]
                assert sorted(served) == list(range(1, K + 1))
                assert all(len(g) <= M + 1 for g in plan.groups)

    def test_ndt_matches_lower_bound_at_full_cache(self):
        for M in range(1, 7):
            for K in range(1, 7):
                ch = draw_channels((5, M, K), 6, M, K)
                plan = miso_zf_plan(ch, cfg(M, K, 1))
                assert plan.ndt == lower_bound(cfg(M, K, 1))
                assert plan.ndt == max(Fraction(K, M + 1), Fraction(1))
                assert miso_ndt_and_dof(plan.groups) == (plan.ndt, min(M + 1, K))

    def test_nulling_residuals_over_many_draws(self):
        worst = 0.0
        for seed in range(300):
            ch = draw_channels((6, seed), 2, 2, 4)
            plan = miso_zf_plan(ch, cfg(2, 4, 1))
            worst = max(worst, plan.nulling_residual)
        assert worst < 1e-10

    def test_cross_gains_vanish(self):
        ch = draw_channels(7, 1, 2, 3)
        plan = miso_zf_plan(ch, cfg(2, 3, 1))
        (group,) = plan.groups
        rows = np.stack(
            [np.concatenate(([ch.g[0, k - 1]], ch.H[0, k - 1, :])) for k in group]
        )
        gains = rows @ plan.beamformers[0]
        off = gains - np.diag(np.diag(gains))
        assert np.abs(off).max() < 1e-10
        assert np.allclose(np.diag(gains), 1.0, rtol=1e-8)

    def test_rejects_wrong_cache_size(self):
        ch = draw_channels(8, 1, 1, 2)
        with pytest.raises(ValueError):
            miso_zf_plan(ch, cfg(1, 2, "1/2"))

    def test_rejects_too_few_slots(self):
        ch = draw_channels(9, 1, 1, 4)  # needs 2 group slots
        with pytest.raises(ValueError):
            miso_zf_plan(ch, cfg(1, 4, 1))

    def test_degenerate_group_matrix_raises(self):
        # two users with identical rows make the group matrix singular
        g = np.array([[1.0 + 0j, 1.0 + 0j]])
        H = np.array([[[2.0 + 0j], [2.0 + 0j]]])
        f = np.array([[1.0 + 0j]])
        ch = ChannelSet(T=1, f=f, g=g, H=H)
        with pytest.raises(DegenerateChannel):
            miso_zf_plan(ch, cfg(1, 2, 1))
