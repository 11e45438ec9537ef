"""Deterministic random-stream plumbing.

Every stochastic routine in the package draws from a counter-based Philox
generator keyed by (seed, stream index). Streams with distinct indices are
independent, and stream `i` produces the same values no matter how many
other streams were consumed first, which is what makes trial results
independent of worker count and scheduling order.

`substream` builds a fresh generator for one stream. The walk engine and
the configuration model run many short trials, so they build one generator
per block of trials and `_stream_starts` resets its Philox to key
(seed, 1 + i), counter 0, before trial i: the same draws as
`substream(seed, 1 + i)` without building a generator per trial. A reset
sets the state from plain Python ints, which numpy's Philox state setter
casts to the same uint64 words as it would from uint64 arrays, at less than
half the cost; the keys are checked against [0, 2^64) before any reset.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

__all__ = ["substream"]

_KEY_WORD = 2**64  # Philox keys are two 64-bit words: (seed, index)
_FRESH = (0, 0, 0, 0)  # counter 0; an empty output buffer


def _key(seed: int, index: int) -> np.ndarray:
    """The Philox key of stream (seed, index), both words checked."""
    if not 0 <= seed < _KEY_WORD:
        raise ParameterError(f"seed must lie in [0, 2^64), got {seed}")
    if not 0 <= index < _KEY_WORD:
        raise ParameterError(f"stream index must lie in [0, 2^64), got {index}")
    # an explicit dtype: a bare [seed, index] list mixing words below and
    # above 2^63 would pass through float64 and lose low bits
    return np.array([seed, index], dtype=np.uint64)


def substream(seed: int, index: int = 0) -> np.random.Generator:
    """Return the generator for stream `index` under `seed`.

    (seed, index) fully determines the stream. Indices must be managed by
    the caller; the convention in this package is index 0 for setup-level
    choices and index 1+i for trial i. Both must lie in [0, 2^64).
    """
    return np.random.Generator(np.random.Philox(key=_key(seed, index)))


def _check_streams(seed: int, first: int, count: int) -> None:
    """Check the keys of streams (seed, first) .. (seed, first + count - 1):
    the first and the last, since the index word only grows between them."""
    _key(seed, first)
    if count:
        _key(seed, first + count - 1)


def _stream_starts(rng: np.random.Generator, seed: int, first: int, count: int):
    """Yield rng `count` times, at the start of streams (seed, first), ...

    Before the j-th yield rng's Philox is put at the start of stream
    (seed, first + j) as substream builds it: counter 0, no buffered words
    and no cached 32-bit half, so it draws exactly what
    `substream(seed, first + j)` draws. `_check_streams` checks the block's
    keys once, when iteration starts; the resets share one state dict and
    its one key list, whose index word each reset sets.
    """
    _check_streams(seed, first, count)
    bits = rng.bit_generator
    key = [seed, first]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": _FRESH, "key": key},
        "buffer": _FRESH,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for index in range(first, first + count):
        key[1] = index
        bits.state = state
        yield rng
