"""The scan's hill-climb step draws and mass transfers against the numpy calls they replace.

``bounds._StepDraws`` reads the step draws straight from a generator's bit
stream; each draw must equal the ``Generator`` call it stands for, and leave
the stream where that call leaves it, or the scan's bytes change.
``bounds._transfer`` builds its ``Pdf`` without the constructor's checks; the
result must equal what the checked constructor builds.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import phientropy as pe
from phientropy.bounds import _StepDraws, _transfer

DIMS = (1, 2, 3, 4, 5, 16, 17, 64, 65, 1000)
SEEDS = range(300)
STEPS = 30


def _twins(seed: int, n: int):
    """Two generators on the same stream: one for numpy's draws, one for the helper's."""
    make = lambda: np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n,)))
    return make(), make()


@pytest.mark.parametrize("n", DIMS)
def test_step_draws_match_generator_calls(n):
    for seed in SEEDS:
        want, got = _twins(seed, n)
        draws = _StepDraws(got)
        for _ in range(STEPS):
            assert draws.bounded(1) == want.integers(0, 2)
            if n > 1:
                assert draws.pair(n) == tuple(want.choice(n, size=2, replace=False).tolist())
            assert (got.random(), got.random()) == tuple(want.uniform(0.0, 1.0, size=2).tolist())
            assert draws.bounded(n - 1) == want.integers(0, n)
        # Aligned afterwards: the 32-bit buffer included.
        assert got.bit_generator.state == want.bit_generator.state
        assert got.integers(0, 2**62) == want.integers(0, 2**62)


def test_pair_matches_choice_above_numpy_shuffle_cutoff():
    # choice switches to a tail shuffle for populations above 10000 only when
    # the sample is large; a pair of 20001 must still take Floyd's path.
    for seed in range(20):
        want, got = _twins(seed, 20001)
        draws = _StepDraws(got)
        for _ in range(STEPS):
            assert draws.pair(20001) == tuple(want.choice(20001, size=2, replace=False).tolist())
        assert got.bit_generator.state == want.bit_generator.state


class _Words:
    """A stubbed 32-bit source that counts the words drawn."""

    def __init__(self, words):
        self.words, self.drawn = list(words), 0

    def __call__(self, state):
        self.drawn += 1
        return self.words.pop(0)


def _stubbed(words) -> tuple[_StepDraws, _Words]:
    draws = object.__new__(_StepDraws)
    source = _Words(words)
    draws._state, draws._next_uint32 = None, source
    return draws, source


# high = 2**31: span = 2**31 + 1 and the rejection threshold is
# (2**32 - span) % span = 2**31 - 1.  The word w maps to m = w * span, whose
# low 32 bits are w * 2**31 + w mod 2**32, and the draw is m >> 32.
HIGH = 2**31


def test_lemire_rejection_draws_again():
    # w = 2: low bits 2 < threshold, rejected; w = 3: low bits 2**31 + 3, kept.
    draws, source = _stubbed([2, 3])
    assert draws.bounded(HIGH) == (3 * (HIGH + 1)) >> 32 == 1
    assert source.drawn == 2


def test_lemire_rejects_until_a_word_clears_the_threshold():
    draws, source = _stubbed([0, 2, 4, 1])
    assert draws.bounded(HIGH) == 0
    assert source.drawn == 4


def test_lemire_keeps_a_word_at_the_threshold():
    # Low bits below span but not below the threshold: kept without a redraw.
    # w = 2**32 - 1 gives low bits 2**31 - 1, exactly the threshold.
    w = 2**32 - 1
    assert (w * (HIGH + 1)) & 0xFFFFFFFF == HIGH - 1
    draws, source = _stubbed([w])
    assert draws.bounded(HIGH) == (w * (HIGH + 1)) >> 32
    assert source.drawn == 1


def test_bounded_zero_draws_nothing():
    draws, source = _stubbed([])
    assert draws.bounded(0) == 0
    assert source.drawn == 0


def test_pair_collision_takes_the_last_index():
    # dim 3: bounded(1) gives w >> 31 for a word w, bounded(2) gives (3 w) >> 32.
    # Words 2**31 -> 1, then 2**31 -> 1 again (a collision: j becomes 2), then
    # 0 -> swap (numpy's shuffle of the pair).
    draws, _ = _stubbed([2**31, 2**31, 0])
    assert draws.pair(3) == (2, 1)
    draws, _ = _stubbed([2**31, 2**31, 2**31])
    assert draws.pair(3) == (1, 2)


weights = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12).filter(lambda w: sum(w) > 0)


@given(weights, st.data(), st.floats(1e-12, 0.1))
def test_transfer_equals_checked_constructor(w, data, amount):
    p = pe.normalize(w)
    i = data.draw(st.integers(0, p.n - 1))
    j = data.draw(st.sampled_from([k for k in range(p.n) if k != i]))
    before = p.weights.copy()

    got = _transfer(p, i, j, amount)

    ref = p.weights.copy()
    moved = min(amount, ref[i])
    ref[i] -= moved
    ref[j] += moved
    want = pe.Pdf(ref)
    assert isinstance(got, pe.Pdf)
    assert got.weights.tobytes() == want.weights.tobytes()
    assert not got.weights.flags.writeable
    assert pe.Pdf(got.weights).weights.tobytes() == got.weights.tobytes()  # passes the checks
    assert p.weights.tobytes() == before.tobytes()
