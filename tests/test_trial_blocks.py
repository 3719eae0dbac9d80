"""The blocked trial runner gives the same reports as one trial per block,
whatever the trial count and wherever redraws fall relative to block
boundaries."""
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ndtcache.verify as V
from ndtcache.model import NetworkConfig

SETTINGS = settings(max_examples=15, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def outcome(fn):
    """The report, or the failure message and its partial report."""
    try:
        return fn()
    except V.VerificationFailure as exc:
        return str(exc), exc.report


def with_block_size(monkeypatch, size, fn):
    monkeypatch.setattr(V, "BLOCK_TRIALS", size)
    return outcome(fn)


@SETTINGS
@given(
    seed=st.integers(0, 2**31 - 1),
    trials=st.integers(1, 40),
    block=st.integers(2, 16),
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
    block=st.integers(2, 16),
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
@given(seed=st.integers(0, 2**31 - 1), trials=st.integers(1, 30), block=st.integers(2, 16))
def test_rates_block_size_does_not_change_the_estimates(monkeypatch, seed, trials, block):
    run = lambda: V.finite_snr_rates(seed, [40.0, 50.0, 60.0], trials)
    assert with_block_size(monkeypatch, block, run) == with_block_size(monkeypatch, 1, run)


def test_redraws_straddle_a_block_boundary(monkeypatch):
    # at tol 3e-2 some trial on each side of the boundary is redrawn
    run = lambda: V.verify_m1k3(11, 24, 3e-2)
    small = with_block_size(monkeypatch, 7, run)
    assert small.redraws > 0
    assert small == with_block_size(monkeypatch, 1, run)


@pytest.mark.parametrize("trials", [V.BLOCK_TRIALS - 1, V.BLOCK_TRIALS + 1])
def test_default_block_size_matches_single_trial_blocks(monkeypatch, trials):
    run = lambda: V.verify_m1k3(4, trials, 3e-2)
    assert outcome(run) == with_block_size(monkeypatch, 1, run)
