import os
import shutil
from pathlib import Path

import pytest

from walklab import rng as walklab_rng
from walklab.errors import NumericError, ParameterError
from walklab.rng import _check_streams, substream

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


def test_check_streams_checks_a_block_at_its_first_and_last_key():
    # with substream's words; a block ending at 2^64 - 1 is accepted
    refusals = [
        (2**64, 1, 1, "seed must lie in [0, 2^64), got 18446744073709551616"),
        (-1, 1, 1, "seed must lie in [0, 2^64), got -1"),
        (0, -1, 2, "stream index must lie in [0, 2^64), got -1"),
        (0, 2**64, 1, "stream index must lie in [0, 2^64), got 18446744073709551616"),
        (0, 2**64 - 2, 3, "stream index must lie in [0, 2^64), got 18446744073709551616"),
        (5, 2**64 - 3, 10, "stream index must lie in [0, 2^64), got 18446744073709551622"),
    ]
    for seed, first, count, refused in refusals:
        with pytest.raises(ParameterError) as refusal:
            _check_streams(seed, first, count)
        assert str(refusal.value) == refused
    _check_streams(0, 2**64 - 2, 2)


# --- the kernel's loader ---

def _loaded(kernel) -> bool:
    return not isinstance(kernel, walklab_rng._Unavailable)


def _kernel_source_in(folder, monkeypatch, text=None):
    """Point the loader at a copy of _walk.c in folder, or at text in its place."""
    source = folder / "_walk.c"
    source.write_text(Path(walklab_rng._SOURCE).read_text() if text is None else text)
    monkeypatch.setattr(walklab_rng, "_SOURCE", str(source))
    return folder / "__pycache__"


def test_a_built_kernel_is_cached_and_loaded_without_a_compile(tmp_path, monkeypatch):
    cache = _kernel_source_in(tmp_path, monkeypatch)
    assert _loaded(walklab_rng._load_kernel())
    [built] = cache.iterdir()
    assert built.name.startswith("_walk-") and built.suffix == ".so"

    def no_compile(*args):
        raise AssertionError("compiled again")

    monkeypatch.setattr(walklab_rng, "_compile", no_compile)
    assert _loaded(walklab_rng._load_kernel())
    assert list(cache.iterdir()) == [built]


def test_a_build_removes_the_libraries_of_older_sources(tmp_path, monkeypatch):
    # _compile stubbed: a copy of the loaded library stands in for each build
    source = tmp_path / "_walk.c"
    cache = _kernel_source_in(tmp_path, monkeypatch)
    library = Path(walklab_rng._KERNEL._name)
    built = []

    def copy(command, path):
        built.append(Path(path))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        shutil.copyfile(library, path)

    monkeypatch.setattr(walklab_rng, "_compile", copy)
    assert _loaded(walklab_rng._load_kernel())
    [old] = built
    _, command, code, platform = old.stem.split("-", 3)
    kept = [
        cache / f"_walk-{command[::-1]}-{code}-{platform}.so",  # another compiler or Python
        cache / f"_walk-{command}-{code}-other-platform.so",
        cache / f"{old.name}.4242.part",  # another process's build in progress
        cache / "walks.cpython-311.pyc",
    ]
    for path in kept:
        shutil.copyfile(library, path)
    # a stale name that cannot be unlinked: the build still loads
    stuck = cache / f"_walk-{command}-0badc0de-{platform}.so"
    stuck.mkdir()
    source.write_text(source.read_text() + "\n/* edited */\n")
    assert _loaded(walklab_rng._load_kernel())
    new = built[-1]
    assert len(built) == 2 and new.name.startswith(f"_walk-{command}-") and new != old
    assert sorted(cache.iterdir()) == sorted([*kept, stuck, new])


def test_a_build_removes_the_one_crc_libraries(tmp_path, monkeypatch):
    # libraries named _walk-<source CRC>-<platform>.so, the name before the
    # compiler command had a CRC of its own, are never loaded; a build for
    # their platform removes them. _compile stubbed, as above
    cache = _kernel_source_in(tmp_path, monkeypatch)
    library = Path(walklab_rng._KERNEL._name)
    built = []

    def copy(command, path):
        built.append(Path(path))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        shutil.copyfile(library, path)

    cache.mkdir()
    platform = library.stem.split("-", 3)[3]
    stale = [cache / f"_walk-{crc}-{platform}.so" for crc in ("1234abcd", "0badc0de")]
    kept = [
        cache / "_walk-1234abcd-other-platform.so",  # another platform's
        cache / f"_walk-notacrc!-{platform}.so",  # no CRC of eight hex digits
        cache / f"_walk-1234ABCD-{platform}.so",  # nor one in the loader's lower case
    ]
    for path in stale + kept:
        shutil.copyfile(library, path)
    monkeypatch.setattr(walklab_rng, "_compile", copy)
    assert _loaded(walklab_rng._load_kernel())
    [new] = built
    assert sorted(cache.iterdir()) == sorted([*kept, new])


BUILD_FAULTS = {
    "no compiler": "cannot run the C compiler 'no-such-compiler-for-walklab'",
    "no source": "cannot read its source",
    "a failed compile": "failed on",
    "an unwritable cache": "cannot create the cache directory",
}


@pytest.mark.parametrize("fault", sorted(BUILD_FAULTS))
def test_a_kernel_that_cannot_be_built_raises_one_error_naming_why(tmp_path, monkeypatch, fault):
    # the loader itself raises nothing and leaves no partial library; the
    # stand-in it returns raises NumericError at the first kernel call
    cache = _kernel_source_in(tmp_path, monkeypatch, "this is not C\n" if fault == "a failed compile" else None)
    if fault == "no compiler":
        monkeypatch.setattr(walklab_rng.sysconfig, "get_config_var", lambda name: "no-such-compiler-for-walklab")
    elif fault == "no source":
        (tmp_path / "_walk.c").unlink()
    elif fault == "an unwritable cache":
        cache.write_text("a file where the cache directory would go\n")
    kernel = walklab_rng._load_kernel()
    assert not _loaded(kernel) and BUILD_FAULTS[fault] in kernel.reason
    assert not cache.is_dir() or list(cache.iterdir()) == []
    for entry in ("walklab_trials", "walklab_simple", "walklab_conductance", "walklab_connected"):
        with pytest.raises(NumericError, match="compiled kernel is unavailable: ") as failure:
            getattr(kernel, entry)
        assert str(failure.value).endswith(kernel.reason)
    with pytest.raises(AttributeError):  # copy and pickle probe dunder names
        kernel.__deepcopy__


@pytest.mark.parametrize(
    "entry",
    [
        "walklab_trials",
        "walklab_simple",
        "walklab_conductance",
        "walklab_connected",
        "walklab_cover_layer",
        "walklab_cover_store",
    ],
)
def test_a_library_without_an_entry_point_is_not_loaded(tmp_path, monkeypatch, entry):
    # a stale or partial source that lacks any one entry point (the walk
    # stepper, the pairing check, the conductance enumeration or a cover
    # recursion entry) gives the stand-in, which names the missing entry,
    # instead of a library that fails at its first call of that entry
    text = Path(walklab_rng._SOURCE).read_text().replace(f"{entry}(", f"{entry}_gone(")
    _kernel_source_in(tmp_path, monkeypatch, text)
    kernel = walklab_rng._load_kernel()
    assert not _loaded(kernel) and kernel.reason.endswith(f"has no entry point {entry}")
