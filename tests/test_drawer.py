"""The block drawer gives, bit for bit, the draws of one generator per key
drawing each part in turn (a trial's symbols after its channels), and
keeps ChannelSet's finite and nonzero guarantee for a whole block. The
generator states it computes for a block at once are those PCG64 seeded
with each key would have."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ndtcache.verify as V
from ndtcache.model import NetworkConfig

SEEDS = st.one_of(
    st.integers(0, 2**63),
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4).map(tuple),
)
DIMS = st.integers(1, 8)


def per_part_channels(seed, T, M, K, sym_sizes=()):
    """The reference recipe: one generator draws f, then g, then H, then
    each symbol group of ``sym_sizes``, each as its real parts, then its
    imaginary parts, over sqrt 2."""
    rng = np.random.default_rng(seed)

    def cn(shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)

    return [cn((T, M)), cn((T, K)), cn((T, K, M)), *(cn((n,)) for n in sym_sizes)]


def assert_bit_equal(new, old):
    assert new.shape == old.shape
    assert new.tobytes() == old.tobytes()


@settings(max_examples=80, deadline=None)
@given(seed=SEEDS, T=DIMS, M=DIMS, K=DIMS)
def test_draw_channels_is_bit_equal_to_the_per_part_recipe(seed, T, M, K):
    ch = V.draw_channels(seed, T, M, K)
    for new, old in zip((ch.f, ch.g, ch.H), per_part_channels(seed, T, M, K)):
        assert_bit_equal(new, old)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, T=DIMS, M=DIMS, K=DIMS,
       attempts=st.lists(st.integers(0, 8), min_size=1, max_size=6), start=st.integers(0, 200))
def test_trial_block_channels_are_bit_equal_to_one_draw_per_trial(seed, T, M, K, attempts, start):
    run = V._TrialRun(seed, 1, (T, M, K), solve=None)
    trials = range(start, start + len(attempts))
    block = run._draw(trials, attempts)
    for i, (t, a) in enumerate(zip(trials, attempts)):
        for new, old in zip(block, per_part_channels(V._key(seed, t, a), T, M, K)):
            assert_bit_equal(new[i], old)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, T=DIMS, M=DIMS, K=DIMS,
       sizes=st.one_of(st.sampled_from([(2, 2, 1), (3, 1), (16,)]),
                       st.lists(st.integers(1, 6), min_size=1, max_size=4).map(tuple)),
       attempts=st.lists(st.integers(0, 8), min_size=1, max_size=6), start=st.integers(0, 200))
def test_trial_symbols_follow_the_channels_in_one_generator(seed, T, M, K, sizes, attempts,
                                                            start):
    run = V._TrialRun(seed, 1, (T, M, K), solve=None, sym_sizes=sizes)
    trials = range(start, start + len(attempts))
    block = run._draw(trials, attempts)
    assert len(block) == 3 + len(sizes)
    for i, (t, a) in enumerate(zip(trials, attempts)):
        for new, old in zip(block, per_part_channels(V._key(seed, t, a), T, M, K, sizes)):
            assert_bit_equal(new[i], old)


# Words of a SeedSequence key: 0 is one word, ints of 2**32 or more split.
EDGES = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1])
PREFIX_INTS = st.one_of(EDGES, st.integers(0, 2**130))
EXTRA_INTS = st.one_of(EDGES, st.integers(0, 2**64 - 1))


@settings(max_examples=150, deadline=None)
@given(prefix=st.lists(PREFIX_INTS, max_size=3).map(tuple), columns=st.integers(0, 2),
       data=st.data())
def test_block_states_equal_pcg64_seeded_with_each_key(prefix, columns, data):
    # one to 19 words a key, lengths mixed within a block
    columns = max(columns, 0 if prefix else 1)
    rows = data.draw(st.lists(st.lists(EXTRA_INTS, min_size=columns, max_size=columns),
                              min_size=1, max_size=6))
    extra = np.array(rows, dtype=np.uint64).reshape(len(rows), columns)
    states = V._pcg64_states(*V._key_words(prefix, extra))
    for row, (state, inc) in zip(rows, states):
        expected = np.random.PCG64(prefix + tuple(row)).state["state"]
        assert (state, inc) == (expected["state"], expected["inc"])


@pytest.mark.parametrize("seed", [7, 2**32, (2**64 + 1, 3)])
def test_trials_on_both_sides_of_two_to_the_32_share_a_block(seed):
    # trial 2**32 - 1 has a one-word index, trial 2**32 a two-word one
    T, M, K = 2, 2, 3
    run = V._TrialRun(seed, 1, (T, M, K), solve=None, sym_sizes=(2,))
    trials, attempts = range(2**32 - 2, 2**32 + 2), [0, 3, 1, 0]
    block = run._draw(trials, attempts)
    for i, (t, a) in enumerate(zip(trials, attempts)):
        for new, old in zip(block, per_part_channels(V._key(seed, t, a), T, M, K, (2,))):
            assert_bit_equal(new[i], old)


class _OneBadCoefficient:
    """Stands in for np.random.Generator, which the drawer sets to each
    key's state in turn: fills every row with ones, except that
    coefficient 0 of one part gets ``value`` in its real and imaginary
    parts."""

    def __init__(self, shape, part, value):
        T, M, K = shape
        sizes = {"f": T * M, "g": T * K, "H": T * K * M}
        start = {"f": 0, "g": 2 * sizes["f"], "H": 2 * (sizes["f"] + sizes["g"])}[part]
        self.spots = (start, start + sizes[part])
        self.value = value

    def __call__(self, bit_generator):
        return self

    def standard_normal(self, out):
        out[:] = 1.0
        out[list(self.spots)] = self.value


@pytest.mark.parametrize("value, problem", [(0.0, "zero"), (np.nan, "non-finite")])
@pytest.mark.parametrize("part", ["f", "g", "H"])
def test_bad_draws_raise_channel_set_messages(monkeypatch, part, value, problem):
    message = f"{part} contains {problem} coefficients"
    shape = (3, 1, 2)  # unicast at M = 1, K = 2: one slot per receiver
    monkeypatch.setattr(np.random, "Generator", _OneBadCoefficient(shape, part, value))
    with pytest.raises(ValueError, match=f"^{message}$"):
        V.draw_channels(0, *shape)
    with pytest.raises(ValueError, match=f"^{message}$"):
        V.verify_corner(0, 5, NetworkConfig(M=1, K=2, N=3, mu=0))
