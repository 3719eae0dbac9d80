"""The blocked trial runner gives the same reports as one trial per block,
whatever the trial count and wherever redraws fall relative to block
boundaries."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ndtcache.verify as V
from ndtcache.model import NetworkConfig

SETTINGS = settings(max_examples=15, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])
# trials per block, None for the whole run
BLOCKS = st.none() | st.integers(2, 16)


def outcome(fn):
    """The report, or the failure message and its partial report."""
    try:
        return fn()
    except V.VerificationFailure as exc:
        return str(exc), exc.report


def with_block_size(monkeypatch, size, fn):
    """fn's outcome with the byte budget set to ``size`` of its run's trials,
    or to the whole run if ``size`` is None."""
    init = V._TrialRun.__init__
    with monkeypatch.context() as patch:
        def init_and_budget(run, *args, **kwargs):
            init(run, *args, **kwargs)
            patch.setattr(V, "BLOCK_BYTES", (size or run.n) * run.trial_bytes)

        patch.setattr(V._TrialRun, "__init__", init_and_budget)
        return outcome(fn)


def traced_peak(fn, warm_up):
    """The tracemalloc peak of fn(), traced after warm_up() has done the
    imports and one-time caches."""
    warm_up()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def block_sizes(monkeypatch, fn):
    """The trials of each block fn's run draws (redraws included)."""
    sizes = []
    draw = V._draw_cn

    def counting(prefix, extra, *rest):
        sizes.append(len(extra))
        return draw(prefix, extra, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(V, "_draw_cn", counting)
        outcome(fn)
    return sizes


@SETTINGS
@given(
    seed=st.integers(0, 2**31 - 1),
    trials=st.integers(1, 40),
    block=BLOCKS,
    # 3e-2 redraws about 18% of draws; 8e-2 often exhausts the redraws
    tol=st.sampled_from([1e-9, 3e-2, 8e-2]),
)
def test_m1k3_block_size_does_not_change_the_report(monkeypatch, seed, trials, block, tol):
    run = lambda: V.verify_m1k3(seed, trials, tol)
    assert with_block_size(monkeypatch, block, run) == with_block_size(monkeypatch, 1, run)


@SETTINGS
@given(
    seed=st.integers(0, 2**31 - 1),
    trials=st.integers(1, 30),
    block=BLOCKS,
    m=st.integers(1, 3),
    k=st.integers(1, 4),
    # mu = 0 unicasts, mu = 1 zero-forces
    mu=st.sampled_from([0, 1]),
    tol=st.sampled_from([1e-9, 0.1, 0.5]),
)
def test_miso_block_size_does_not_change_the_report(monkeypatch, seed, trials, block, m, k,
                                                    mu, tol):
    run = lambda: V.verify_corner(seed, trials, NetworkConfig(m, k, m + k, mu), tol)
    assert with_block_size(monkeypatch, block, run) == with_block_size(monkeypatch, 1, run)


@SETTINGS
@given(seed=st.integers(0, 2**31 - 1), trials=st.integers(1, 30), block=BLOCKS)
def test_rates_block_size_does_not_change_the_estimates(monkeypatch, seed, trials, block):
    run = lambda: V.finite_snr_rates(seed, [40.0, 50.0, 60.0], trials)
    assert with_block_size(monkeypatch, block, run) == with_block_size(monkeypatch, 1, run)


def test_redraws_straddle_a_block_boundary(monkeypatch):
    # at tol 3e-2 some trial on each side of the boundary is redrawn
    run = lambda: V.verify_m1k3(11, 24, 3e-2)
    small = with_block_size(monkeypatch, 7, run)
    assert small.redraws > 0
    assert small == with_block_size(monkeypatch, 1, run)


# BLOCK_BYTES is a 64-trial verify_m1k3 block (test_byte_budget_sizes_the_blocks)
@pytest.mark.parametrize("trials", [63, 65])
def test_default_block_size_matches_single_trial_blocks(monkeypatch, trials):
    run = lambda: V.verify_m1k3(4, trials, 3e-2)
    assert outcome(run) == with_block_size(monkeypatch, 1, run)


def test_byte_budget_sizes_the_blocks(monkeypatch):
    # a 64-trial verify_m1k3 block is the budget; rates, with no symbols, fits a few more
    assert block_sizes(monkeypatch, lambda: V.verify_m1k3(5, 200)) == [64, 64, 64, 8]
    assert block_sizes(monkeypatch, lambda: V.finite_snr_rates(5, [0.0, 10.0, 20.0], 70)) \
        == [68, 2]
    # the benchmark's largest corner command runs as one block
    corner = lambda m, k, trials: V.verify_corner(5, trials, NetworkConfig(m, k, m + k, 0))
    assert block_sizes(monkeypatch, lambda: corner(3, 4, 200)) == [200]
    # a (3, 4) unicast trial holds 1,792 bytes, no H: 301 trials a block
    assert block_sizes(monkeypatch, lambda: corner(3, 4, 600)) == [301, 299]
    # a (60, 60) unicast trial holds 0.46 MB, more than half the budget: one trial a block
    assert block_sizes(monkeypatch, lambda: corner(60, 60, 3)) == [1, 1, 1]


def test_a_unicast_run_holds_no_h():
    # a (60, 60) unicast trial holds f, g and symbols, 14,520 complex values;
    # its H (432,000 values) streams through a scratch of at most BLOCK_BYTES
    T, M, K = 120, 60, 60
    held = np.dtype(complex).itemsize * (T * M + T * K + T)
    peak = traced_peak(lambda: V.verify_corner(1, 1, NetworkConfig(M=M, K=K, N=M + K, mu=0)),
                       warm_up=lambda: V.verify_corner(1, 1, NetworkConfig(M=1, K=1, N=2, mu=0)))
    assert peak < 2 * V.BLOCK_BYTES + held


# the (1, 3) runs of n trials, and the symbol groups a trial draws
M1K3_RUNS = {
    "verify_m1k3": (lambda n: V.verify_m1k3(5, n), (16,)),
    "verify_m1k3_redraw": (lambda n: V.verify_m1k3(5, n, 3e-2), (16,)),
    "finite_snr_rates": (lambda n: V.finite_snr_rates(5, [0.0, 10.0, 20.0], n), ()),
}


@pytest.mark.parametrize("name", M1K3_RUNS)
def test_no_block_outlives_its_turn(name):
    # ten blocks peak where one does: each block, and each receive matrix
    # of it, is freed before the next is built
    run, sym_sizes = M1K3_RUNS[name]
    block = V.BLOCK_BYTES // V._trial_bytes((V.T_SLOTS, 1, 3), sym_sizes, V._M1K3_HELD)
    one = traced_peak(lambda: run(block), warm_up=lambda: run(1))
    ten = traced_peak(lambda: run(10 * block), warm_up=lambda: run(1))
    assert ten < 1.10 * one
    # from the shapes: a trial's f, g, H and symbols, each value with its pair
    # of floats, plus nu, beta and one 8 x 16 receive matrix, and as much again
    # for the checks' temporaries (a Gram factorization's copies, SVD factors)
    size = np.dtype(complex).itemsize
    counted = 2 * size * (V.T_SLOTS * (1 + 3 + 3) + sum(sym_sizes)) + 3 * size * V.T_SLOTS * 16
    assert one < 2 * block * counted
