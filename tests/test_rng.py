import numpy as np
import pytest

from walklab.errors import ParameterError
from walklab.rng import _restart, substream

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
    rng = substream(3, 4)
    # leave the generator part way through a 64-value block, with buffered
    # Philox words and a cached 32-bit half word
    rng.random(37)
    rng.integers(2**32, dtype=np.uint32)
    _restart(rng.bit_generator, seed, index)
    fresh = substream(seed, index)
    assert rng.random(10_000).tolist() == fresh.random(10_000).tolist()
    # the stale half word is gone too
    assert rng.integers(2**32, size=3, dtype=np.uint32).tolist() == fresh.integers(
        2**32, size=3, dtype=np.uint32
    ).tolist()


def test_restart_checks_the_key_like_substream():
    bits = substream(0, 1).bit_generator
    for seed, index in ((2**64, 1), (0, 2**64), (-1, 1)):
        with pytest.raises(ParameterError):
            _restart(bits, seed, index)
