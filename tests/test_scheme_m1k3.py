import re
from fractions import Fraction

import numpy as np
import pytest
import sympy

from ndtcache.layout import RN_SYMBOLS
from ndtcache.model import DEGENERACY_TOL, ChannelSet
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
    T_SLOTS,
    TRANSMITTED_SYMBOLS,
    UNCACHED,
    UNCACHED_POS,
    ZERO_FORCED,
    ZERO_FORCED_COLS,
    SymbolId,
    _chain,
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
    """solve_precoders on one draw: (nu, beta, degenerate)."""
    return solve_precoders(ch.g, ch.H[..., 0])


RECEIVERS = ("ue1", "ue2", "ue3", "rn")


def receive(nu, beta, ch, receiver):
    """One receiver's matrix, picked from effective_channel_matrix's four by name."""
    matrices = tuple(effective_channel_matrix(nu, beta, ch.f, ch.g, ch.H[..., 0]))
    return matrices[RECEIVERS.index(receiver)]


def rational_channels(seed, shape=(T_SLOTS, 3)):
    """g and h as object arrays of random nonzero Fractions, for _chain."""
    rng = np.random.default_rng(seed)
    def draw():
        p = rng.integers(1, 10**6, shape) * rng.choice([-1, 1], shape)
        q = rng.integers(1, 10**6, shape)
        return np.array([Fraction(int(a), int(b)) for a, b in zip(p.flat, q.flat)],
                        dtype=object).reshape(shape)
    return draw(), draw()


def zero_plan():
    zeros = np.zeros((T_SLOTS, len(TRANSMITTED_SYMBOLS)), complex)
    return zeros, zeros


def hand_precoders(g, h, tol=DEGENERACY_TOL):
    """The precoder chain written out by hand, user by user, with its
    normalization and degeneracy mask: an oracle for solve_precoders."""
    nxt = lambda k, d: (k + d - 1) % 3 + 1  # k + d wrapped into [1:3]
    col = lambda i, j: COLUMN[SymbolId(i, j)]
    gk = {k: g[..., k - 1] for k in (1, 2, 3)}
    hk = {k: h[..., k - 1] for k in (1, 2, 3)}
    j13 = gk[2] * hk[3] - gk[3] * hk[2]
    j23 = gk[3] * hk[1] - gk[1] * hk[3]
    j33 = gk[1] * hk[2] - gk[2] * hk[1]
    # determinant of the (alignment at UE a, ZF at UE b) system
    det = {(1, 2): j33, (2, 3): j13, (3, 1): j23,
           (2, 1): -j33, (3, 2): -j13, (1, 3): -j23}

    chan_scale = np.max(np.abs(np.concatenate([g, h], axis=-1)), axis=-1)
    degenerate = np.zeros(g.shape[:-2], dtype=bool)
    for j in (j13, j23, j33):
        degenerate |= np.any(np.abs(j) < tol * chan_scale**2, axis=-1)
    small = tol * chan_scale[..., None]
    degenerate |= np.any((np.abs(g) < small) | (np.abs(h) < small), axis=(-2, -1))

    nu = np.zeros(g.shape[:-1] + (len(TRANSMITTED_SYMBOLS),), dtype=complex)
    beta = np.zeros_like(nu)
    with np.errstate(all="ignore"):
        nu45 = j13 * j23 * j33 * gk[1] * gk[2] * gk[3] * hk[1] * hk[2] * hk[3]
        nu[..., col(4, 5)] = nu45
        for k in (1, 2, 3):
            beta[..., col(nxt(k, 1), 4)] = nu45 * gk[k] / hk[k]
        for k in (1, 2, 3):
            nu[..., col(nxt(k, 1), 5)] = beta[..., col(nxt(k, 2), 4)] * hk[k] / gk[k]
        for k in (1, 2, 3):
            i2, b = nxt(k, 2), nxt(k, 1)  # b zero-forces eta_{i2,1} and eta_{i2,2}
            target2 = beta[..., col(i2, 4)] * hk[k]
            nu[..., col(i2, 2)] = target2 * hk[b] / det[(k, b)]
            beta[..., col(i2, 2)] = -target2 * gk[b] / det[(k, b)]

            target3 = nu[..., col(i2, 5)] * gk[k]
            nu[..., col(i2, 1)] = target3 * hk[b] / det[(k, b)]
            beta[..., col(i2, 1)] = -target3 * gk[b] / det[(k, b)]

            i3, b3 = nxt(k, 1), nxt(k, 2)  # b3 zero-forces eta_{i3,3}
            nu[..., col(i3, 3)] = target3 * hk[b3] / det[(k, b3)]
            beta[..., col(i3, 3)] = -target3 * gk[b3] / det[(k, b3)]

        slot_peak = np.maximum(np.abs(nu), np.abs(beta)).max(axis=-1)
        degenerate |= np.any(slot_peak == 0, axis=-1)
        slot_scale = 1.0 / slot_peak
        nu *= slot_scale[..., None]
        beta *= slot_scale[..., None]
        peak = np.maximum(np.abs(nu), np.abs(beta)).max(axis=-2)
        degenerate |= np.any(peak == 0, axis=-1)
        scale = 1.0 / peak
        nu *= scale[..., None, :]
        beta *= scale[..., None, :]
        return nu, beta, degenerate


def assert_bitwise_equal(got, want):
    assert len(got) == len(want) == 3
    for one, other in zip(got, want):
        assert one.dtype == other.dtype and one.shape == other.shape
        assert np.array_equal(one, other, equal_nan=True)


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

    def test_layer_walk_solves_each_symbol_once_after_its_anchor(self):
        # solve_precoders walks layer 1 for users 1..3, then layer 2, then
        # layer 3: every anchor is solved before its group, by one
        # transmitter, and the members are solved there, once each; the
        # members both transmitters send are exactly the zero-forced ones
        zero_forced = {s for k in (1, 2, 3) for s in ZERO_FORCED[k]}
        solved = [SymbolId(4, 5)]
        for layer in range(3):
            for k in (1, 2, 3):
                anchor, *members = ALIGNMENT_GROUPS[k][layer]
                assert anchor in solved
                assert (anchor in DENB_SYMBOLS) != (anchor in RN_SYMBOLS)
                for s in members:
                    assert (s in DENB_SYMBOLS and s in RN_SYMBOLS) == (s in zero_forced)
                solved += members
        assert sorted(solved) == sorted(TRANSMITTED_SYMBOLS)


class TestSolvePrecoders:
    def test_fixed_slot_raw_values(self):
        # g = (1,1,1), h = (1,2,3): j13 = 1, j23 = -2, j33 = 1, so the
        # chain seed is 1*(-2)*1 * 1*1*1 * 1*2*3 = -12
        exact = lambda values: np.array([Fraction(v) for v in values], dtype=object)
        nu, beta, _ = _chain(exact([1, 1, 1]), exact([1, 2, 3]))
        assert nu[COLUMN[SymbolId(4, 5)]] == -12
        assert beta[COLUMN[SymbolId(2, 4)]] == -12
        assert beta[COLUMN[SymbolId(3, 4)]] == Fraction(-12, 2)
        assert beta[COLUMN[SymbolId(1, 4)]] == Fraction(-12, 3)

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
        # of every alignment equality agree slot by slot, exactly
        all_g, all_h = rational_channels(7)
        raw_nu, raw_beta, _ = _chain(all_g, all_h)
        nxt = lambda k, d: (k + d - 1) % 3 + 1  # k + d wrapped into [1:3]
        for k in (1, 2, 3):
            g, h = all_g[:, k - 1], all_h[:, k - 1]
            nu = lambda s: raw_nu[:, COLUMN[s]]
            beta = lambda s: raw_beta[:, COLUMN[s]]
            lhs1 = nu(SymbolId(4, 5)) * g
            rhs1 = beta(SymbolId(nxt(k, 1), 4)) * h
            np.testing.assert_array_equal(lhs1, rhs1)
            l2a = beta(SymbolId(nxt(k, 2), 4)) * h
            l2b = beta(SymbolId(nxt(k, 2), 2)) * h + nu(SymbolId(nxt(k, 2), 2)) * g
            l2c = nu(SymbolId(nxt(k, 1), 5)) * g
            np.testing.assert_array_equal(l2a, l2b)
            np.testing.assert_array_equal(l2a, l2c)
            l3a = nu(SymbolId(nxt(k, 2), 5)) * g
            l3b = beta(SymbolId(nxt(k, 2), 1)) * h + nu(SymbolId(nxt(k, 2), 1)) * g
            l3c = beta(SymbolId(nxt(k, 1), 3)) * h + nu(SymbolId(nxt(k, 1), 3)) * g
            np.testing.assert_array_equal(l3a, l3b)
            np.testing.assert_array_equal(l3a, l3c)

    def test_identities_hold_for_symbolic_channels(self):
        # one slot's six coefficients as symbols: at every user the
        # zero-forced symbols cancel and each alignment group collapses
        # onto its anchor as rational functions, so for every channel
        # off the zero sets of the chain's divisors
        g = np.array(sympy.symbols("g1:4"), dtype=object)
        h = np.array(sympy.symbols("h1:4"), dtype=object)
        nu, beta, _ = _chain(g, h)
        for k in (1, 2, 3):
            received = lambda s: g[k - 1] * nu[COLUMN[s]] + h[k - 1] * beta[COLUMN[s]]
            for s in ZERO_FORCED[k]:
                assert sympy.cancel(received(s)) == 0
            for anchor, *members in ALIGNMENT_GROUPS[k]:
                for s in members:
                    assert sympy.cancel(received(s) - received(anchor)) == 0

    def test_degenerate_j_term_is_masked(self):
        # g2*h3 = g3*h2 kills the first j term; a clean draw is not flagged
        degenerate = solve(constant_channels([1, 1, 1], [1, 2, 2]))[-1]
        assert degenerate.shape == () and degenerate
        assert not solve(constant_channels([1, 1, 1], [1, 2, 3]))[-1]

    @pytest.mark.parametrize("which", [0, 1])
    def test_a_nan_coefficient_is_masked(self, which):
        # a NaN makes its slot's channel scale NaN, which no "<" test flags;
        # the other draw of the batch keeps its mask
        rng = np.random.default_rng(22)
        g, h = (rng.standard_normal((2, T_SLOTS, 3)) + 1j * rng.standard_normal((2, T_SLOTS, 3))
                for _ in range(2))
        (g, h)[which][0, 2, 1] = np.nan
        assert solve_precoders(g, h)[-1].tolist() == [True, False]

    def test_per_slot_determinism(self):
        g1, h1 = rational_channels(8)
        g2, h2 = rational_channels(9)
        # splice slot 0 of draw 1 into draw 2: slot-0 raw precoders must agree
        g, h = g2.copy(), h2.copy()
        g[0], h[0] = g1[0], h1[0]
        for one, other in zip(_chain(g1, h1)[:2], _chain(g, h)[:2]):
            np.testing.assert_array_equal(one[0], other[0])

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

    @pytest.mark.parametrize("tol", [DEGENERACY_TOL, 3e-2])
    def test_bitwise_equal_to_the_hand_written_chain(self, tol):
        # 1024 draws on two batch axes; at tol 3e-2 about a fifth of them
        # are flagged degenerate
        rng = np.random.default_rng(20)
        shape = (8, 128, T_SLOTS, 3)
        g, h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
        want = hand_precoders(g, h, tol)
        assert want[-1].any() == (tol > DEGENERACY_TOL)
        assert_bitwise_equal(solve_precoders(g, h, tol), want)

    def test_bitwise_equal_to_the_hand_written_chain_when_degenerate(self):
        ch = constant_channels([1, 1, 1], [1, 2, 2])
        want = hand_precoders(ch.g, ch.H[..., 0])
        assert want[-1]
        assert_bitwise_equal(solve(ch), want)

    def test_hashes_no_symbol_id(self, monkeypatch):
        calls = []
        original = SymbolId.__hash__
        monkeypatch.setattr(SymbolId, "__hash__", lambda s: calls.append(s) or original(s))
        rng = np.random.default_rng(21)
        g, h = (rng.standard_normal((4, 16, T_SLOTS, 3)) + 0j for _ in range(2))
        solve_precoders(g, h)
        assert calls == []
        COLUMN[SymbolId(4, 5)]  # the patched hash does count a lookup
        assert calls == [SymbolId(4, 5)]


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

    def test_yields_the_formulas_bitwise_one_at_a_time(self):
        # a 64-trial block: each matrix comes when asked for, with the bits of
        # the expressions that built all four at once
        chans = [draw_channels((16, i), T_SLOTS, 1, 3) for i in range(64)]
        f, g, H = (np.stack([getattr(ch, a) for ch in chans]) for a in ("f", "g", "H"))
        h = H[..., 0]
        nu, beta, degenerate = solve_precoders(g, h)
        assert not degenerate.any()
        received = effective_channel_matrix(nu, beta, f, g, h)
        for k in range(3):
            assert np.array_equal(next(received), g[..., k : k + 1] * nu + h[..., k : k + 1] * beta)
        assert np.array_equal(next(received), f * nu[..., DENB_COLS])
        assert next(received, None) is None

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
