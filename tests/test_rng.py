import numpy as np
import pytest

from walklab.errors import ParameterError
from walklab.rng import _stream_starts, substream

KEYS = [(0, 1), (7, 2**63), (7, 2**64 - 1), (2**64 - 1, 1), (2**64 - 1, 2**64 - 1)]


@pytest.mark.parametrize("seed, index", KEYS)
def test_substream_keys_philox_with_both_words_exactly(seed, index):
    # a plain [seed, index] list mixing words below and above 2^63 became
    # float64: (7, 2^64 - 1) turned into key (7, 0) with a RuntimeWarning
    state = substream(seed, index).bit_generator.state["state"]
    assert state["key"].tolist() == [seed, index]
    assert state["counter"].tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize("seed, index", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_substream_refuses_keys_outside_two_words(seed, index):
    with pytest.raises(ParameterError):
        substream(seed, index)


@pytest.mark.parametrize("seed, index", KEYS)
def test_restart_draws_what_substream_draws(seed, index):
    # a block of up to three streams ending at (seed, index); before each
    # reset the generator is left part way through a 64-value block, with
    # buffered Philox words and a cached 32-bit half word
    first = max(0, index - 2)
    rng = substream(3, 4)
    rng.random(37)
    rng.integers(2**32, dtype=np.uint32)
    count = 0
    for yielded in _stream_starts(rng, seed, first, index - first + 1):
        assert yielded is rng
        fresh = substream(seed, first + count)
        assert rng.random(10_000).tolist() == fresh.random(10_000).tolist()
        # the stale half word is gone too
        assert rng.integers(2**32, size=3, dtype=np.uint32).tolist() == fresh.integers(
            2**32, size=3, dtype=np.uint32
        ).tolist()
        rng.random(37)
        count += 1
    assert count == index - first + 1


@pytest.mark.parametrize("seed, index", KEYS)
def test_restart_leaves_the_state_substream_builds(seed, index):
    # the reset hands Philox plain ints; read back, every field holds the
    # uint64 words and flags of a fresh substream, keys at and above 2^63
    # included
    first = max(0, index - 2)
    rng = substream(3, 4)
    for j, _ in enumerate(_stream_starts(rng, seed, first, index - first + 1)):
        got = rng.bit_generator.state
        fresh = substream(seed, first + j).bit_generator.state
        for field in ("counter", "key"):
            assert got["state"][field].dtype == fresh["state"][field].dtype == np.uint64
            assert got["state"][field].tolist() == fresh["state"][field].tolist()
        assert got["buffer"].dtype == np.uint64
        assert got["buffer"].tolist() == fresh["buffer"].tolist()
        for field in ("buffer_pos", "has_uint32", "uinteger"):
            assert got[field] == fresh[field]
        # leave buffered words and a cached half word for the next reset
        rng.random(37)
        rng.integers(2**32, dtype=np.uint32)


def test_restart_checks_the_key_like_substream():
    # a block is checked at its first and last index, with substream's
    # words, before any reset; a block ending at 2^64 - 1 is accepted
    refusals = [
        (2**64, 1, 1, "seed must lie in [0, 2^64), got 18446744073709551616"),
        (-1, 1, 1, "seed must lie in [0, 2^64), got -1"),
        (0, -1, 2, "stream index must lie in [0, 2^64), got -1"),
        (0, 2**64, 1, "stream index must lie in [0, 2^64), got 18446744073709551616"),
        (0, 2**64 - 2, 3, "stream index must lie in [0, 2^64), got 18446744073709551616"),
        (5, 2**64 - 3, 10, "stream index must lie in [0, 2^64), got 18446744073709551622"),
    ]
    rng = substream(0, 1)
    for seed, first, count, refused in refusals:
        with pytest.raises(ParameterError) as refusal:
            next(_stream_starts(rng, seed, first, count))
        assert str(refusal.value) == refused
        assert rng.bit_generator.state["state"]["key"].tolist() == [0, 1]
    assert len(list(_stream_starts(rng, 0, 2**64 - 2, 2))) == 2
