"""Deterministic random-stream plumbing.

Every stochastic routine in the package draws from a counter-based Philox
generator keyed by (seed, stream index). Streams with distinct indices are
independent, and stream `i` produces the same values no matter how many
other streams were consumed first, which is what makes trial results
independent of worker count and scheduling order.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

__all__ = ["substream"]

_KEY_WORD = 2**64  # Philox keys are two 64-bit words: (seed, index)


def substream(seed: int, index: int = 0) -> np.random.Generator:
    """Return the generator for stream `index` under `seed`.

    (seed, index) fully determines the stream. Indices must be managed by
    the caller; the convention in this package is index 0 for setup-level
    choices and index 1+i for trial i. Both must lie in [0, 2^64).
    """
    if not 0 <= seed < _KEY_WORD:
        raise ParameterError(f"seed must lie in [0, 2^64), got {seed}")
    if not 0 <= index < _KEY_WORD:
        raise ParameterError(f"stream index must lie in [0, 2^64), got {index}")
    return np.random.Generator(np.random.Philox(key=[seed, index]))
