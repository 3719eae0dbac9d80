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


# T, M, K = 3, 2, 2 with one symbol group of 5: a key's row is f's 12 floats,
# g's 12, H's 24, then the symbols' 10 (58 floats in all)
SMALL, SMALL_SYMBOLS = (3, 2, 2), (5,)


@pytest.mark.parametrize("unheld", [(), (2,)])  # the parts not held: none, or H
@pytest.mark.parametrize("floats, keys", [
    (7, 3),  # fills end at 7 (in f), 14, 21 (in g), 28, 35, 42 (in H), 49, 56 (in the symbols)
    (1, 2),  # one float a fill
    (2 * 58 + 1, 5),  # whole rows, two a fill, the last fill one row
])
def test_a_small_scratch_keeps_the_bits(monkeypatch, unheld, floats, keys):
    monkeypatch.setattr(V, "BLOCK_BYTES", 8 * floats)
    extra = np.column_stack([np.arange(keys), np.arange(keys) % 3])
    drawn = V._draw_cn(V._key(9), extra, SMALL, SMALL_SYMBOLS, reads_H=not unheld)
    for i, (t, a) in enumerate(extra):
        recipe = per_part_channels(V._key(9, t, a), *SMALL, SMALL_SYMBOLS)
        for p, (new, old) in enumerate(zip(drawn, recipe)):
            if p in unheld:
                assert new is None
            else:
                assert_bit_equal(new[i], old)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, T=st.integers(1, 4), M=st.integers(1, 4), K=st.integers(1, 4),
       sizes=st.lists(st.integers(1, 6), max_size=3).map(tuple), keys=st.integers(1, 5),
       budget=st.integers(8, 3000), reads_H=st.booleans())
def test_any_scratch_size_keeps_the_bits(seed, T, M, K, sizes, keys, budget, reads_H):
    run = V._TrialRun(seed, 1, (T, M, K), solve=None, sym_sizes=sizes, reads_H=reads_H)
    trials, attempts = range(keys), [t % 2 for t in range(keys)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(V, "BLOCK_BYTES", budget)
        block = run._draw(trials, attempts)
    assert (block[2] is None) == (not reads_H)
    for i, (t, a) in enumerate(zip(trials, attempts)):
        for new, old in zip(block, per_part_channels(V._key(seed, t, a), T, M, K, sizes)):
            if new is not None:
                assert_bit_equal(new[i], old)


class _BadCoefficients:
    """Stands in for np.random.Generator, which the drawer sets to each
    key's state in turn: every key's row of floats is ones, except that
    each (part, coefficient, value) of ``faults`` puts its value in that
    coefficient's real part (half 0) and imaginary part (half 1), or in
    the ``halves`` given. A fault (part, coefficient, value, keys) is in
    the keys of that collection alone, counted from 0 in each drawer call.
    A row larger than the drawer's scratch comes in several fills, so the
    double counts the floats of the current key, starting again when the
    drawer sets the bit generator to the next key's state."""

    def __init__(self, shape, faults, halves=(0, 1)):
        T, M, K = shape
        sizes = {"f": T * M, "g": T * K, "H": T * K * M}
        start = {"f": 0, "g": 2 * sizes["f"], "H": 2 * (sizes["f"] + sizes["g"])}
        self.spots = [(start[part] + c + half * sizes[part], value, keys[0] if keys else None)
                      for part, c, value, *keys in faults for half in halves]

    def __call__(self, bit_generator):
        self.bits, self.key, self.index, self.at = bit_generator, None, -1, 0
        return self

    def standard_normal(self, out):
        key = self.bits.state["state"]
        if key != self.key:  # the next key's row
            self.key, self.index, self.at = key, self.index + 1, 0
        out[:] = 1.0
        for spot, value, keys in self.spots:
            if self.at <= spot < self.at + len(out) and (keys is None or self.index in keys):
                out[spot - self.at] = value
        self.at += len(out)


UNICAST = (3, 1, 2)  # unicast at M = 1, K = 2: one slot per receiver
# 5 floats a fill: H's first coefficient has its real part in one fill, its
# imaginary part in the next
SEGMENTED = 5 * 8


def raises_on_both_paths(monkeypatch, faults, message, budget=None, halves=(0, 1)):
    """draw_channels (every part held) and verify_corner at mu = 0 (H not
    held) raise ``message`` on ``faults``, or nothing if it is None."""
    if budget:
        monkeypatch.setattr(V, "BLOCK_BYTES", budget)
    monkeypatch.setattr(np.random, "Generator", _BadCoefficients(UNICAST, faults, halves))
    for run in (lambda: V.draw_channels(0, *UNICAST),
                lambda: V.verify_corner(0, 5, NetworkConfig(M=1, K=2, N=3, mu=0))):
        if message is None:
            run()
        else:
            with pytest.raises(ValueError, match=f"^{message}$"):
                run()


@pytest.mark.parametrize("value, problem", [(0.0, "zero"), (np.nan, "non-finite")])
@pytest.mark.parametrize("part", ["f", "g", "H"])
def test_bad_draws_raise_channel_set_messages(monkeypatch, part, value, problem):
    raises_on_both_paths(monkeypatch, [(part, 0, value)], f"{part} contains {problem} coefficients")


@pytest.mark.parametrize("value, problem", [(0.0, "zero"), (np.nan, "non-finite"),
                                            (-np.inf, "non-finite")])
@pytest.mark.parametrize("part", ["f", "g", "H"])
def test_bad_draws_in_segmented_rows_raise_the_same_messages(monkeypatch, part, value, problem):
    raises_on_both_paths(monkeypatch, [(part, 0, value)], f"{part} contains {problem} coefficients",
                         SEGMENTED)


@pytest.mark.parametrize("budget", [None, SEGMENTED])
@pytest.mark.parametrize("faults, message", [
    ([("f", 1, 0.0), ("H", 0, np.nan)], "f contains zero coefficients"),
    ([("g", 2, np.nan), ("H", 3, 0.0)], "g contains non-finite coefficients"),
    ([("H", 0, 0.0), ("H", 5, np.nan)], "H contains non-finite coefficients"),
    ([("H", 1, 0.0), ("H", 4, 0.0)], "H contains zero coefficients"),
])
def test_a_block_with_several_faults_raises_what_channel_set_would(monkeypatch, budget, faults,
                                                                  message):
    # f, then g, then H, and within a part non-finite before zero
    raises_on_both_paths(monkeypatch, faults, message, budget)


@pytest.mark.parametrize("budget", [None, SEGMENTED])
@pytest.mark.parametrize("part", ["f", "g", "H"])
@pytest.mark.parametrize("half", [0, 1])
def test_a_zero_part_alone_is_not_a_zero_coefficient(monkeypatch, budget, part, half):
    raises_on_both_paths(monkeypatch, [(part, 0, 0.0), (part, 1, 0.0)], None, budget, (half,))


@pytest.mark.parametrize("budget", [None, SEGMENTED])
@pytest.mark.parametrize("part", ["f", "g", "H"])
@pytest.mark.parametrize("half", [0, 1])
def test_one_non_finite_part_makes_a_non_finite_coefficient(monkeypatch, budget, part, half):
    raises_on_both_paths(monkeypatch, [(part, 2, np.inf)],
                         f"{part} contains non-finite coefficients", budget, (half,))


@pytest.mark.parametrize("budget", [None, SEGMENTED])
@pytest.mark.parametrize("reads_H", [True, False])
def test_a_block_raises_the_first_bad_part_whichever_key_holds_it(monkeypatch, budget, reads_H):
    # H is bad in the first key, f only in the last: the block still raises f's message
    keys = 5
    if budget:
        monkeypatch.setattr(V, "BLOCK_BYTES", budget)
    monkeypatch.setattr(np.random, "Generator", _BadCoefficients(
        UNICAST, [("H", 0, np.nan, {0}), ("f", 1, 0.0, {keys - 1})]))
    run = V._TrialRun(0, keys, UNICAST, solve=None, sym_sizes=(3,), reads_H=reads_H)
    with pytest.raises(ValueError, match="^f contains zero coefficients$"):
        run._draw(range(keys), np.zeros(keys, int))
