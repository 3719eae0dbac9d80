import re

import numpy as np
import pytest

from ndtcache.model import ChannelSet
from ndtcache.scheme_m1k3 import (
    ALIGNED_COLS,
    ALIGNMENT_GROUPS,
    COLUMN,
    DENB_COLS,
    DENB_SYMBOLS,
    DESIRED_COLS,
    ETA45,
    INTERFERENCE_COLS,
    RN_CACHED,
    RN_CACHED_POS,
    RN_SYMBOLS,
    T_SLOTS,
    TRANSMITTED_SYMBOLS,
    UNCACHED,
    UNCACHED_POS,
    ZERO_FORCED,
    ZERO_FORCED_COLS,
    SymbolId,
    effective_channel_matrix,
    rn_cache_cancel,
    solve_precoders,
)
from ndtcache.verify import draw_channels


def constant_channels(g_row, h_col, f_val=1.0):
    g = np.tile(np.asarray(g_row, dtype=complex), (T_SLOTS, 1))
    H = np.tile(np.asarray(h_col, dtype=complex).reshape(1, 3, 1), (T_SLOTS, 1, 1))
    f = np.full((T_SLOTS, 1), f_val, dtype=complex)
    return ChannelSet(T=T_SLOTS, f=f, g=g, H=H)


def solve(ch):
    """solve_precoders on one draw: (nu, beta, scale, slot_scale, degenerate)."""
    return solve_precoders(ch.g, ch.H[..., 0])


def receive(nu, beta, ch, receiver):
    return effective_channel_matrix(nu, beta, ch.f, ch.g, ch.H[..., 0], receiver)


def raw_chain(ch):
    """The chain's nu and beta before normalization, columns by COLUMN."""
    nu, beta, scale, slot_scale, degenerate = solve(ch)
    assert not degenerate
    undo = slot_scale[..., None] * scale[..., None, :]
    return nu / undo, beta / undo


def zero_plan():
    zeros = np.zeros((T_SLOTS, len(TRANSMITTED_SYMBOLS)), complex)
    return zeros, zeros


class TestSymbolLayout:
    def test_relay_target_symbol_is_uncached_and_sent_by_base_station(self):
        assert SymbolId(4, 5) in DENB_SYMBOLS
        assert SymbolId(4, 5) not in RN_CACHED

    def test_transmit_counts(self):
        assert len(set(DENB_SYMBOLS)) == len(DENB_SYMBOLS) == 13
        assert len(set(RN_SYMBOLS)) == len(RN_SYMBOLS) == 12
        assert set(DENB_SYMBOLS) | set(RN_SYMBOLS) == set(TRANSMITTED_SYMBOLS)
        assert len(set(TRANSMITTED_SYMBOLS)) == 16

    def test_cache_holds_four_fifths_of_every_file(self):
        for i in range(1, 5):
            cached = {s for s in RN_CACHED if s.file == i}
            assert len(cached) == 4
            assert {s.index for s in cached} == {1, 2, 3, 4}
        assert len(RN_CACHED) == 16

    def test_index4_relay_only_index5_base_station_only(self):
        for i in range(1, 4):
            assert SymbolId(i, 4) not in DENB_SYMBOLS
            assert SymbolId(i, 4) in RN_SYMBOLS
            assert SymbolId(i, 5) in DENB_SYMBOLS
            assert SymbolId(i, 5) not in RN_SYMBOLS

    def test_integer_tables_are_columns_of_the_symbol_tables(self):
        assert COLUMN == {s: n for n, s in enumerate(TRANSMITTED_SYMBOLS)}
        col = lambda symbols: [COLUMN[s] for s in symbols]
        pos = lambda symbols: [DENB_SYMBOLS.index(s) for s in symbols]
        for k in (1, 2, 3):
            desired = [SymbolId(k, j) for j in range(1, 6)]
            interference = [s for s in TRANSMITTED_SYMBOLS if s.file != k]
            assert DESIRED_COLS[k - 1].tolist() == col(desired)
            assert INTERFERENCE_COLS[k - 1].tolist() == col(interference)
            assert ZERO_FORCED_COLS[k - 1].tolist() == col(ZERO_FORCED[k])
            assert [cols.tolist() for cols in ALIGNED_COLS[k - 1]] == [
                col(group) for group in ALIGNMENT_GROUPS[k]]
        assert DENB_COLS.tolist() == col(DENB_SYMBOLS)
        assert RN_CACHED_POS.tolist() == pos(s for s in DENB_SYMBOLS if s in RN_CACHED)
        assert UNCACHED_POS.tolist() == pos(UNCACHED)
        assert UNCACHED[ETA45] == SymbolId(4, 5)


class TestZfAssignment:
    def test_exact_map(self):
        assert set(ZERO_FORCED[1]) == {SymbolId(2, 1), SymbolId(2, 2), SymbolId(3, 3)}
        assert set(ZERO_FORCED[2]) == {SymbolId(3, 1), SymbolId(3, 2), SymbolId(1, 3)}
        assert set(ZERO_FORCED[3]) == {SymbolId(1, 1), SymbolId(1, 2), SymbolId(2, 3)}
        assert sorted(ZERO_FORCED) == [1, 2, 3]
        with pytest.raises(KeyError):
            ZERO_FORCED[4]

    def test_each_symbol_nulled_exactly_once_never_at_its_requester(self):
        seen = []
        for k in (1, 2, 3):
            for s in ZERO_FORCED[k]:
                seen.append(s)
                assert s.file != k  # user k wants file k
        assert len(seen) == 9
        assert len(set(seen)) == 9
        assert set(seen) == {SymbolId(i, j) for i in (1, 2, 3) for j in (1, 2, 3)}


class TestAlignmentGraph:
    def test_group_sizes_and_partition(self):
        for k in (1, 2, 3):
            groups = ALIGNMENT_GROUPS[k]
            assert tuple(len(g) for g in groups) == (2, 3, 3)
            members = [s for g in groups for s in g]
            assert len(members) == len(set(members)) == 8
            interference = {s for s in TRANSMITTED_SYMBOLS if s.file != k}
            assert set(members) == interference - set(ZERO_FORCED[k])
        assert sorted(ALIGNMENT_GROUPS) == [1, 2, 3]
        with pytest.raises(KeyError):
            ALIGNMENT_GROUPS[0]

    def test_chain_linkage(self):
        # index-4 symbols appear in layer 1 at one user and layer 2 at
        # another; index-5 symbols of files 1..3 link layers 2 and 3
        for i in (1, 2, 3):
            layer_of = {}
            for k in (1, 2, 3):
                for ln, group in enumerate(ALIGNMENT_GROUPS[k], start=1):
                    if SymbolId(i, 4) in group:
                        layer_of.setdefault(SymbolId(i, 4), set()).add(ln)
                    if SymbolId(i, 5) in group:
                        layer_of.setdefault(SymbolId(i, 5), set()).add(ln)
            assert layer_of[SymbolId(i, 4)] == {1, 2}
            assert layer_of[SymbolId(i, 5)] == {2, 3}


class TestSolvePrecoders:
    def test_fixed_slot_raw_values(self):
        # g = (1,1,1), h = (1,2,3): j13 = 1, j23 = -2, j33 = 1, so the
        # chain seed is 1*(-2)*1 * 1*1*1 * 1*2*3 = -12
        nu, beta = raw_chain(constant_channels([1, 1, 1], [1, 2, 3]))
        assert np.allclose(nu[:, COLUMN[SymbolId(4, 5)]], -12.0)
        assert np.allclose(beta[:, COLUMN[SymbolId(2, 4)]], -12.0)
        assert np.allclose(beta[:, COLUMN[SymbolId(3, 4)]], -12.0 / 2.0)
        assert np.allclose(beta[:, COLUMN[SymbolId(1, 4)]], -12.0 / 3.0)

    def test_zero_pattern(self):
        nu, beta, *_ = solve(draw_channels(5, T_SLOTS, 1, 3))
        for i in (1, 2, 3):
            assert np.all(nu[:, COLUMN[SymbolId(i, 4)]] == 0)
            assert np.all(beta[:, COLUMN[SymbolId(i, 5)]] == 0)
        assert np.all(beta[:, COLUMN[SymbolId(4, 5)]] == 0)
        # columns of symbols a transmitter does not send stay zero
        assert not nu[:, [COLUMN[s] for s in TRANSMITTED_SYMBOLS if s not in DENB_SYMBOLS]].any()
        assert not beta[:, [COLUMN[s] for s in TRANSMITTED_SYMBOLS if s not in RN_SYMBOLS]].any()

    def test_zf_conditions_enforced(self):
        ch = draw_channels(6, T_SLOTS, 1, 3)
        nu, beta, *_ = solve(ch)
        for k in (1, 2, 3):
            g, h = ch.g[:, k - 1], ch.H[:, k - 1, 0]
            for s in ZERO_FORCED[k]:
                resid = np.abs(g * nu[:, COLUMN[s]] + h * beta[:, COLUMN[s]])
                assert resid.max() < 1e-12

    def test_unscaled_per_slot_equalities(self):
        # stricter check than colinearity: before normalization both sides
        # of every alignment equality agree slot by slot
        ch = draw_channels(7, T_SLOTS, 1, 3)
        raw_nu, raw_beta = raw_chain(ch)
        nxt = lambda k, d: (k + d - 1) % 3 + 1  # k + d wrapped into [1:3]
        for k in (1, 2, 3):
            g, h = ch.g[:, k - 1], ch.H[:, k - 1, 0]
            nu = lambda s: raw_nu[:, COLUMN[s]]
            beta = lambda s: raw_beta[:, COLUMN[s]]
            lhs1 = nu(SymbolId(4, 5)) * g
            rhs1 = beta(SymbolId(nxt(k, 1), 4)) * h
            np.testing.assert_allclose(lhs1, rhs1, rtol=1e-10)
            l2a = beta(SymbolId(nxt(k, 2), 4)) * h
            l2b = beta(SymbolId(nxt(k, 2), 2)) * h + nu(SymbolId(nxt(k, 2), 2)) * g
            l2c = nu(SymbolId(nxt(k, 1), 5)) * g
            np.testing.assert_allclose(l2a, l2b, rtol=1e-10)
            np.testing.assert_allclose(l2a, l2c, rtol=1e-10)
            l3a = nu(SymbolId(nxt(k, 2), 5)) * g
            l3b = beta(SymbolId(nxt(k, 2), 1)) * h + nu(SymbolId(nxt(k, 2), 1)) * g
            l3c = beta(SymbolId(nxt(k, 1), 3)) * h + nu(SymbolId(nxt(k, 1), 3)) * g
            np.testing.assert_allclose(l3a, l3b, rtol=1e-10)
            np.testing.assert_allclose(l3a, l3c, rtol=1e-10)

    def test_degenerate_j_term_is_masked(self):
        # g2*h3 = g3*h2 kills the first j term; a clean draw is not flagged
        degenerate = solve(constant_channels([1, 1, 1], [1, 2, 2]))[-1]
        assert degenerate.shape == () and degenerate
        assert not solve(constant_channels([1, 1, 1], [1, 2, 3]))[-1]

    def test_per_slot_determinism(self):
        ch1 = draw_channels(8, T_SLOTS, 1, 3)
        ch2 = draw_channels(9, T_SLOTS, 1, 3)
        # splice slot 0 of ch1 into ch2: slot-0 raw precoders must agree
        f = ch2.f.copy()
        g = ch2.g.copy()
        H = ch2.H.copy()
        f[0], g[0], H[0] = ch1.f[0], ch1.g[0], ch1.H[0]
        spliced = ChannelSet(T=T_SLOTS, f=f, g=g, H=H)
        # equality up to the rounding of undoing the two normalizations
        for one, other in zip(raw_chain(ch1), raw_chain(spliced)):
            np.testing.assert_allclose(one[0], other[0], rtol=1e-12)

    def test_scaled_peak_magnitude_is_one(self):
        nu, beta, *_ = solve(draw_channels(10, T_SLOTS, 1, 3))
        peaks = np.maximum(np.abs(nu), np.abs(beta)).max(axis=0)
        np.testing.assert_allclose(peaks, 1.0, rtol=1e-12)

    def test_rejects_wrong_dimensions(self):
        for g_shape, h_shape in [
            ((T_SLOTS, 2), (T_SLOTS, 2)),  # two users
            ((4, 3), (4, 3)),  # four slots
            ((T_SLOTS * 3,), (T_SLOTS * 3,)),  # flattened
            ((T_SLOTS, 3), (2, T_SLOTS, 3)),  # g one draw, h a stack
            ((2, T_SLOTS, 3), (3, T_SLOTS, 3)),  # stacks of different sizes
        ]:
            g, h = np.ones(g_shape, complex), np.ones(h_shape, complex)
            message = f"g and h must both have shape (..., 8, 3), got {g_shape} and {h_shape}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                solve_precoders(g, h)


class TestEffectiveChannelMatrix:
    def test_zero_plan_gives_zero_matrix(self):
        ch = draw_channels(11, T_SLOTS, 1, 3)
        for receiver in ("ue1", "ue2", "ue3", "rn"):
            E = receive(*zero_plan(), ch, receiver)
            assert not E.any()
        assert receive(*zero_plan(), ch, "rn").shape == (8, 13)

    def test_zero_forced_columns_vanish(self):
        ch = draw_channels(12, T_SLOTS, 1, 3)
        nu, beta, *_ = solve(ch)
        for k in (1, 2, 3):
            E = receive(nu, beta, ch, f"ue{k}")
            peak = np.abs(E).max()
            for s in ZERO_FORCED[k]:
                assert np.abs(E[:, COLUMN[s]]).max() / peak < 1e-12

    def test_alignment_groups_are_colinear(self):
        ch = draw_channels(13, T_SLOTS, 1, 3)
        nu, beta, *_ = solve(ch)
        for k in (1, 2, 3):
            E = receive(nu, beta, ch, f"ue{k}")
            for group in ALIGNMENT_GROUPS[k]:
                sub = E[:, [COLUMN[s] for s in group]]
                sv = np.linalg.svd(sub, compute_uv=False)
                assert sv[1] / sv[0] < 1e-12

    def test_rejects_unknown_receiver(self):
        ch = draw_channels(14, T_SLOTS, 1, 3)
        nu, beta, *_ = solve(ch)
        for receiver in ("ue0", "ue4", "rn2", "bogus"):
            with pytest.raises(ValueError):
                receive(nu, beta, ch, receiver)

    def test_subspace_ranks_over_many_draws(self):
        for seed in range(200):
            ch = draw_channels((15, seed), T_SLOTS, 1, 3)
            nu, beta, *_ = solve(ch)
            for k in (1, 2, 3):
                E = receive(nu, beta, ch, f"ue{k}")
                des = [COLUMN[SymbolId(k, j)] for j in range(1, 6)]
                intf = [n for n in range(16) if n not in des]
                sv_d = np.linalg.svd(E[:, des], compute_uv=False)
                sv_i = np.linalg.svd(E[:, intf], compute_uv=False)
                sv_t = np.linalg.svd(E, compute_uv=False)
                assert (sv_d >= 1e-12 * sv_d[0]).sum() == 5
                assert (sv_i >= 1e-12 * sv_i[0]).sum() == 3
                assert (sv_t >= 1e-12 * sv_t[0]).sum() == 8
                assert sv_i[2] / sv_i[3] > 1e6

    def test_dimension_accounting(self):
        # per user: 5 desired + 8 aligned + 3 zero-forced symbols; the
        # receive space splits into 5 + 3 = 8 = T occupied dimensions
        for k in (1, 2, 3):
            aligned = sum(len(g) for g in ALIGNMENT_GROUPS[k])
            assert 5 + aligned + len(ZERO_FORCED[k]) == 16
            assert 5 + len(ALIGNMENT_GROUPS[k]) == T_SLOTS


class TestRnCacheCancel:
    def test_keeps_the_four_uncached_columns(self):
        ch = draw_channels(16, T_SLOTS, 1, 3)
        rn = receive(*solve(ch)[:2], ch, "rn")
        cancelled = rn_cache_cancel(rn)
        assert cancelled.shape == (8, 4)
        assert UNCACHED == (SymbolId(1, 5), SymbolId(2, 5), SymbolId(3, 5), SymbolId(4, 5))
        for n, s in enumerate(UNCACHED):
            assert np.array_equal(cancelled[:, n], rn[:, DENB_SYMBOLS.index(s)])

    def test_generic_rank_four(self):
        for seed in range(100):
            ch = draw_channels((17, seed), T_SLOTS, 1, 3)
            cancelled = rn_cache_cancel(receive(*solve(ch)[:2], ch, "rn"))
            sv = np.linalg.svd(cancelled, compute_uv=False)
            assert (sv >= 1e-12 * sv[0]).sum() == 4

    def test_zero_plan_rank_zero(self):
        ch = draw_channels(18, T_SLOTS, 1, 3)
        cancelled = rn_cache_cancel(receive(*zero_plan(), ch, "rn"))
        assert not cancelled.any()

    def test_stack_equals_one_call_per_matrix(self):
        stack = np.stack([receive(*solve(ch)[:2], ch, "rn")
                          for ch in (draw_channels((19, n), T_SLOTS, 1, 3) for n in range(5))])
        assert stack.shape == (5, 8, 13)
        cancelled = rn_cache_cancel(stack)
        assert cancelled.shape == (5, 8, 4)
        for rn, one in zip(stack, cancelled):
            assert np.array_equal(rn_cache_cancel(rn), one)

    def test_rejects_wrong_shape(self):
        for shape in [(8, 16), (5, 8, 16), (5, 13, 8), (13,)]:
            with pytest.raises(ValueError):
                rn_cache_cancel(np.zeros(shape, complex))


class TestPrecoderPlanValidation:
    def test_symbol_id_ranges(self):
        with pytest.raises(ValueError):
            SymbolId(0, 1)
        with pytest.raises(ValueError):
            SymbolId(5, 1)
        with pytest.raises(ValueError):
            SymbolId(1, 6)

    def test_canonical_orders(self):
        assert len(TRANSMITTED_SYMBOLS) == 16
        assert len(DENB_SYMBOLS) == 13
        assert len(RN_SYMBOLS) == 12
