"""Kernel path selection and the compiled-library cache: the C kernels
are built once per source, flags and compiler, published atomically, and
every way the build or load can fail ends on the numpy path."""

import os
import shutil
import stat
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from roilqr import _kernels

SRC = Path(__file__).resolve().parent.parent / "src"
CC = shutil.which("cc")
needs_cc = pytest.mark.skipif(CC is None, reason="no C compiler")


def _fresh_import(env_updates):
    """``(KERNEL_PATH, whether numba was loaded)`` of a fresh interpreter
    importing ``roilqr``."""
    env = {k: v for k, v in os.environ.items() if k != "ROILQR_PURE_NUMPY"}
    env.update({"PYTHONPATH": str(SRC), **env_updates})
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; from roilqr import _kernels; "
         "print(_kernels.KERNEL_PATH, 'numba' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stderr == ""
    path, numba_loaded = out.stdout.split()
    return path, numba_loaded == "True"


def _script(directory, name, body):
    path = directory / name
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(0o755)
    return str(path)


def _files(directory):
    return sorted(p.name for p in Path(directory).iterdir())


def _works(kernels):
    rng = np.random.default_rng(0)
    args = (rng.standard_normal((3, 20)), rng.standard_normal((3, 2)), 0.05,
            0.1, 1e-4, 5)
    np.testing.assert_array_equal(kernels.burgers_batch(*args),
                                  _kernels.burgers_batch_numpy(*args))
    return True


def test_pure_numpy_forces_numpy(tmp_path):
    assert _fresh_import({"ROILQR_PURE_NUMPY": "1",
                          "HOME": str(tmp_path)}) == ("numpy", False)
    assert not (tmp_path / ".cache").exists()   # nothing was built


def test_failing_compiler_at_import_gives_numpy(tmp_path):
    # a cc first on PATH that fails: the import raises nothing, prints
    # nothing and leaves no file in the cache
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    _script(bin_dir, "cc", "exit 1\n")
    env = {"PATH": f"{bin_dir}{os.pathsep}{os.environ['PATH']}",
           "HOME": str(tmp_path)}
    assert _fresh_import(env) == ("numpy", False)
    assert _files(tmp_path / ".cache" / "roilqr") == []


def test_installed_numba_is_not_used(tmp_path):
    # a numba whose njit returns its argument, first on the path: the
    # import neither selects it nor loads it
    stub = tmp_path / "stub" / "numba"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text(
        "def njit(fn, **options):\n    return fn\n")
    path, numba_loaded = _fresh_import(
        {"PYTHONPATH": f"{stub.parent}{os.pathsep}{SRC}"})
    assert path in ("c", "numpy")
    assert not numba_loaded


def test_no_compiler_gives_none(tmp_path):
    assert _kernels.load_compiled(str(tmp_path / "cache"), None) is None


@pytest.mark.parametrize("body", [
    "exit 1\n",
    # a build error that leaves a partial output behind
    'while [ "$1" != -o ]; do shift; done; echo partial > "$2"; exit 1\n',
])
def test_failed_build_leaves_no_file(tmp_path, body):
    cache = tmp_path / "cache"
    compiler = _script(tmp_path, "cc", body)
    assert _kernels.load_compiled(str(cache), compiler) is None
    assert _files(cache) == []


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:   # a zombie is dead but not yet reaped by its new parent
        return Path(f"/proc/{pid}/stat").read_text().split()[2] != "Z"
    except OSError:
        return True


def test_build_timeout_kills_the_compiler(tmp_path, monkeypatch):
    # the compiler's own child must die with it
    monkeypatch.setattr(_kernels, "_COMPILE_TIMEOUT_S", 0.5)
    pid_file = tmp_path / "pid"
    compiler = _script(tmp_path, "cc",
                       f'sleep 60 &\necho $! > "{pid_file}"\nwait\n')
    cache = tmp_path / "cache"
    t0 = time.monotonic()
    assert _kernels.load_compiled(str(cache), compiler) is None
    assert time.monotonic() - t0 < 10
    assert _files(cache) == []
    pid = int(pid_file.read_text())
    deadline = time.monotonic() + 5
    while _alive(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _alive(pid)


@needs_cc
def test_unwritable_cache_gives_none(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert _kernels.load_compiled(str(blocker / "cache"), CC) is None


@needs_cc
def test_cache_others_can_write_is_not_used(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    cache.chmod(0o777)
    assert _kernels.load_compiled(str(cache), CC) is None
    assert _files(cache) == []


@needs_cc
def test_failed_load_gives_none(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    key = _kernels._library_key(Path(_kernels._C_SOURCE).read_bytes(), CC)
    (cache / f"kernels-{key}.so").write_text("not a library")
    assert _kernels.load_compiled(str(cache), CC) is None


class _CountingPopen(subprocess.Popen):
    calls = 0

    def __init__(self, *args, **kwargs):
        type(self).calls += 1
        super().__init__(*args, **kwargs)


# What the cache tests check (one compiler run on a cold cache, a private
# directory, one published file, a warm load without a compiler run, a
# rebuild when the source or the flags change) does not depend on the
# optimization level, so they build with -O0 appended to the flags: about
# a tenth of an optimized build's time.  The production library, which
# every bit-equality test runs, keeps the flags as they are.
QUICK = ("-O0",)


@pytest.fixture(scope="module")
def built_cache(tmp_path_factory):
    """A cache holding the quick library of the current source, flags and
    compiler, built once, cold, for the tests that start from one; with
    the loaded kernels and the compiler runs of that build."""
    cache = tmp_path_factory.mktemp("built") / "cache"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "CFLAGS", _kernels.CFLAGS + QUICK)
        mp.setattr(subprocess, "Popen", _CountingPopen)
        _CountingPopen.calls = 0
        kernels = _kernels.load_compiled(str(cache), CC)
    return cache, kernels, _CountingPopen.calls


@pytest.fixture
def counted_quick_builds(monkeypatch):
    """The quick flags and a compiler-run count starting at 0."""
    monkeypatch.setattr(_kernels, "CFLAGS", _kernels.CFLAGS + QUICK)
    monkeypatch.setattr(subprocess, "Popen", _CountingPopen)
    _CountingPopen.calls = 0


@needs_cc
def test_cold_build_then_warm_load(built_cache, counted_quick_builds):
    cache, kernels, cold_runs = built_cache
    assert _works(kernels)
    assert cold_runs == 1
    # a private directory, holding the one published library
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    [name] = _files(cache)
    assert name.startswith("kernels-") and name.endswith(".so")
    # warm: loaded without running the compiler
    assert _works(_kernels.load_compiled(str(cache), CC))
    assert _CountingPopen.calls == 0
    assert _files(cache) == [name]


@needs_cc
def test_changed_source_is_rebuilt(tmp_path, monkeypatch, built_cache,
                                   counted_quick_builds):
    cache = shutil.copytree(built_cache[0], tmp_path / "cache")
    [old] = _files(cache)
    # the same kernels with one more comment: another key
    source = tmp_path / "_kernels.c"
    source.write_text(Path(_kernels._C_SOURCE).read_text() + "/* v2 */\n")
    monkeypatch.setattr(_kernels, "_C_SOURCE", str(source))
    assert _works(_kernels.load_compiled(str(cache), CC))
    assert _CountingPopen.calls == 1
    assert len(_files(cache)) == 2 and old in _files(cache)


@needs_cc
def test_changed_flags_are_rebuilt(tmp_path, monkeypatch, built_cache,
                                   counted_quick_builds):
    cache = shutil.copytree(built_cache[0], tmp_path / "cache")
    monkeypatch.setattr(_kernels, "CFLAGS", _kernels.CFLAGS + ("-DUNUSED",))
    assert _works(_kernels.load_compiled(str(cache), CC))
    assert _CountingPopen.calls == 1
    assert len(_files(cache)) == 2
