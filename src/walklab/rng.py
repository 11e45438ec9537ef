"""Deterministic random-stream plumbing and the compiled kernel.

Every stochastic routine in the package draws from a counter-based Philox
generator keyed by (seed, stream index). Streams with distinct indices are
independent, and stream `i` produces the same values no matter how many
other streams were consumed first, which is what makes trial results
independent of worker count and scheduling order.

`_KERNEL` is walklab's compiled kernel, built from _walk.c when this
module is imported (see `_load_kernel`). It has four callers, which read
it at call time. `walks` steps walk trials in it, a slice of a run on each
of several threads at once (ctypes releases the GIL for each call, and a
call writes only its own memory), and `configmodel` shuffles pairing
attempts in it as Generator.shuffle does and checks them for simplicity;
both read these same streams, word for word, in C. `conductance`
enumerates vertex subsets in it, adding each subset's doubles in numpy's
order, and `spectral` enumerates the cover recursion's connected sets and
builds and stores each size layer's systems in it, every entry by numpy's
operations in numpy's order, while numpy solves them.

The kernel is required for those four jobs, and only for them. Where it
cannot be built or loaded, `_KERNEL` is a stand-in whose every entry point
raises NumericError naming the reason, so the package still imports, the
exact layer that needs no kernel still runs, and a run that needs the
kernel exits 3 in one line.
"""

from __future__ import annotations

import ctypes
import os
import sysconfig
import zlib

import numpy as np

from .errors import NumericError, ParameterError

__all__ = ["substream"]

_KEY_WORD = 2**64  # Philox keys are two 64-bit words: (seed, index)


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


# --- the compiled kernel ---

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_walk.c")
# no -ffast-math or -march: every double as Python makes it. And
# -ffp-contract=off: GCC otherwise fuses a*b + c into one FMA rounding
# wherever the target has FMA (aarch64, or x86-64 under -march), and the
# conductance enumeration's and the cover systems' doubles are compared
# with numpy's to the bit
# (baseline x86-64 has no FMA, so there the flag changes only the cache tag)
_FLAGS = ["-O2", "-ffp-contract=off", "-shared", "-fPIC"]
_POINTER, _INT, _WORD = ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64
# each entry point's argument and result types
_ENTRIES = {
    "walklab_trials": (
        [_INT] + [_POINTER] * 5  # n, then off, nbrs, cum, row and rows
        + [_INT] * 4 + [_POINTER, _INT]  # buckets, shift, start, budget; owed, remaining
        + [_WORD, _WORD, _INT, _POINTER],  # seed, first stream index, count; the steps
        _INT,
    ),
    "walklab_simple": (
        [_POINTER, _INT, _INT]  # the stubs, their number, n
        + [_WORD, _WORD, _INT, _INT, _POINTER],  # seed, first stream index, count, stop; the flags
        _INT,
    ),
    "walklab_words": ([_WORD, _WORD, _INT, _POINTER], None),
    "walklab_shuffle": ([_POINTER, _INT, _WORD, _WORD], None),
    "walklab_conductance": (
        [_INT, _INT] + [_POINTER] * 3  # n, the low bits; pi, q and a
        + [ctypes.c_double, _POINTER],  # the mass limit; the ratio, mass and cut
        _INT,
    ),
    "walklab_connected": ([_INT] + [_POINTER] * 3, _INT),  # n; the neighbour masks, the sets and sizes
    "walklab_cover_layer": (
        [_INT] * 3 + [_POINTER] * 4  # n, k, the set count; p, the masks, row and remaining
        + [_POINTER] * 2,  # a and b
        None,
    ),
    "walklab_cover_store": ([_INT] * 3 + [_POINTER] * 4, None),  # n, k, count; masks, row, x, remaining
}


class _Unavailable:
    """Stands in for a kernel that could not be built or loaded: every
    entry point raises NumericError naming the reason."""

    def __init__(self, reason: str):
        self.reason = reason

    def __getattr__(self, name: str):
        if name.startswith("__"):  # copy, pickle and the like probe these
            raise AttributeError(name)
        raise NumericError(f"walklab's compiled kernel is unavailable: {self.reason}")


def _compile(command: list[str], path: str) -> str | None:
    """Build the library at path; None once built, else why it could not be.

    The compiler runs by os.posix_spawnp, its output sent to os.devnull,
    so a cached import never loads subprocess (about 5 ms). It writes a
    name of this process's own, moved into place once whole, so a process
    racing this one loads either no library or a whole one.
    """
    folder = os.path.dirname(path)
    part = f"{path}.{os.getpid()}.part"
    try:
        os.makedirs(folder, exist_ok=True)
    except OSError as exc:
        return f"cannot create the cache directory {folder}: {exc.strerror or exc}"
    try:
        quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
        pid = os.posix_spawnp(command[0], [*command, "-o", part, _SOURCE], os.environ, file_actions=quiet)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    except (OSError, AttributeError) as exc:  # no compiler, or no posix_spawn
        return f"cannot run the C compiler {command[0]!r}: {getattr(exc, 'strerror', None) or exc}"
    try:
        if status == 0:
            os.replace(part, path)
            return None
        return f"the C compiler {command[0]!r} failed on {_SOURCE} with exit status {status}"
    except OSError as exc:
        return f"cannot write the library {path}: {exc.strerror or exc}"
    finally:
        if os.path.exists(part):
            os.remove(part)


def _remove_stale(path: str, prefix: str, suffix: str) -> None:
    """Unlink the libraries beside path that this build replaces: those
    named prefix + a source CRC + suffix but path itself (the same compiler
    command and platform, another source), and those named _walk- + a CRC +
    suffix, the name before the command had a CRC of its own, which no
    loader reads now. A library another process still holds stays mapped
    there, and one that cannot be removed is left."""
    folder, own = os.path.split(path)
    for name in os.listdir(folder):
        for head in (prefix, "_walk-"):
            tag = name[len(head) : -len(suffix)]
            if name != own and name.startswith(head) and name.endswith(suffix) and _is_crc(tag):
                try:
                    os.remove(os.path.join(folder, name))
                except OSError:
                    pass


def _is_crc(tag: str) -> bool:
    """Whether tag is a CRC-32 as the loader writes it: eight lower-case hex digits."""
    return len(tag) == 8 and all(c in "0123456789abcdef" for c in tag)


def _load_kernel():
    """The library compiled from _walk.c, or an `_Unavailable` saying why not.

    It is cached in __pycache__ as _walk-<command>-<source>-<platform>.so,
    named by the CRC-32 of the compiler command and of the source, so an
    edited source or another compiler builds anew, and a cached import
    costs a read, a checksum and a dlopen. The compiler is the
    interpreter's own (sysconfig's CC). A build removes the libraries it
    replaces, those of the same command and platform built from another
    source or named in the older one-CRC form (see `_remove_stale`). An
    unreadable source, no compiler, an unwritable cache, a failed build or
    load, or a library that lacks any entry point of `_ENTRIES` gives the
    stand-in, which names the first of these that happened.
    """
    try:
        with open(_SOURCE, "rb") as handle:
            code = handle.read()
    except OSError as exc:
        return _Unavailable(f"cannot read its source {_SOURCE}: {exc.strerror or exc}")
    command = (sysconfig.get_config_var("CC") or "cc").split() + _FLAGS
    folder = os.path.join(os.path.dirname(_SOURCE), "__pycache__")
    prefix = f"_walk-{zlib.crc32(' '.join(command).encode()):08x}-"
    suffix = f"-{sysconfig.get_platform()}.so"
    path = os.path.join(folder, f"{prefix}{zlib.crc32(code):08x}{suffix}")
    if not os.path.exists(path):
        failure = _compile(command, path)
        if failure is not None:
            return _Unavailable(failure)
        _remove_stale(path, prefix, suffix)
    try:
        lib = ctypes.CDLL(path)
    except OSError as exc:
        return _Unavailable(f"cannot load {path}: {exc}")
    for name, (arguments, result) in _ENTRIES.items():
        entry = getattr(lib, name, None)
        if entry is None:
            return _Unavailable(f"{path} has no entry point {name}")
        entry.argtypes, entry.restype = arguments, result
    return lib


_KERNEL = _load_kernel()
