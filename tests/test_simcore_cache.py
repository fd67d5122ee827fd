"""The user-cache build of the C level walk: its key, its warning-free compile, and every way it falls back to _simcore_py.

Each failure gives None from ``_simcore_cache.load`` (so ``simulator``
takes the pure-Python kernel), writes nothing to stdout or stderr, and
runs the compiler at most once per cache key. The build that succeeds is
checked in test_simulator.py, whose exact-path cases also run on a kernel
built through an empty cache.
"""

import hashlib
import os
import pathlib
import shlex
import shutil
import subprocess
import sys
import sysconfig

import pytest

from aoiharvest import _simcore_cache, simulator

SRC = pathlib.Path(simulator.__file__).resolve().parents[1]


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty XDG_CACHE_HOME of its own."""
    base = tmp_path / "cache"
    base.mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(base))
    return base


@pytest.fixture
def compiler(tmp_path, monkeypatch):
    """Make sysconfig's CC a script that logs each call to the returned file and exits with $FAKE_CC_CODE, else 1."""
    log = tmp_path / "compiler.log"
    script = tmp_path / "cc"
    script.write_text(f'#!/bin/sh\necho "$$" >> {log}\nexit ${{FAKE_CC_CODE:-1}}\n')
    script.chmod(0o700)
    real = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: str(script) if name == "CC" else real(name))
    return log


def missing_compiler():
    """Why this interpreter cannot compile _simcore.c (sysconfig's CC is not on PATH), else None."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc or shutil.which(cc[0]) is None:
        return f"no C compiler: sysconfig CC is {cc!r}"
    return None


def calls(log):
    return len(log.read_text().splitlines()) if log.exists() else 0


def test_key_names_the_committed_source(cache):
    # the key holds a digest constant so that an import hashes nothing; a
    # regenerated _simcore.c must come with a new constant, hence a new key
    source = pathlib.Path(_simcore_cache.SOURCE)
    assert source.parent == pathlib.Path(simulator.__file__).parent
    assert hashlib.sha256(source.read_bytes()).hexdigest() == _simcore_cache.SOURCE_SHA256
    name = os.path.basename(_simcore_cache.cache_path())
    stem = f"_simcore-{_simcore_cache.SOURCE_SHA256[:16]}-{source.stat().st_size}"
    assert name == stem + sysconfig.get_config_var("EXT_SUFFIX")


def test_regenerated_source_loads_no_stale_build(cache, compiler, tmp_path, monkeypatch, capfd):
    stale = pathlib.Path(_simcore_cache.cache_path())
    stale.parent.mkdir(mode=0o700)
    stale.write_bytes(b"a build of the committed _simcore.c")
    stale.chmod(0o700)
    regenerated = tmp_path / "_simcore.c"
    regenerated.write_bytes(pathlib.Path(_simcore_cache.SOURCE).read_bytes() + b"/* regenerated */\n")
    monkeypatch.setattr(_simcore_cache, "SOURCE", str(regenerated))
    loaded = []
    monkeypatch.setattr(_simcore_cache, "_load", loaded.append)
    assert _simcore_cache.load() is None
    # a source that does not match SOURCE_SHA256 is not compiled, and the failure is kept
    assert loaded == [] and calls(compiler) == 0
    assert os.path.exists(_simcore_cache.cache_path() + _simcore_cache.FAILED)
    assert stale.read_bytes() == b"a build of the committed _simcore.c"
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("code", [1, 127])
def test_failing_compiler_runs_once_per_key(cache, compiler, monkeypatch, code, capfd):
    monkeypatch.setenv("FAKE_CC_CODE", str(code))
    for _ in range(3):
        assert _simcore_cache.load() is None
    assert calls(compiler) == 1
    path = _simcore_cache.cache_path()
    assert not os.path.exists(path)
    assert "CalledProcessError" in pathlib.Path(path + _simcore_cache.FAILED).read_text()
    assert sorted(os.listdir(cache / "aoiharvest")) == [os.path.basename(path) + _simcore_cache.FAILED]
    assert capfd.readouterr() == ("", "")


def test_missing_compiler_is_recorded(cache, tmp_path, monkeypatch, capfd):
    real = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: str(tmp_path / "no-cc") if name == "CC" else real(name))
    assert _simcore_cache.load() is None
    failed = pathlib.Path(_simcore_cache.cache_path() + _simcore_cache.FAILED)
    assert "FileNotFoundError" in failed.read_text()
    # the record stands for the key: the compiler is not looked for again
    monkeypatch.setattr(_simcore_cache, "_build", lambda path: pytest.fail("built again"))
    assert _simcore_cache.load() is None
    assert capfd.readouterr() == ("", "")


def test_compile_timeout_kills_the_compiler(cache, tmp_path, monkeypatch, capfd):
    pids = tmp_path / "pids"
    script = tmp_path / "cc"
    script.write_text(f'#!/bin/sh\necho "$$" >> {pids}\nexec sleep 60\n')
    script.chmod(0o700)
    real = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: str(script) if name == "CC" else real(name))
    monkeypatch.setattr(_simcore_cache, "BUILD_TIMEOUT_S", 0.5)
    assert _simcore_cache.load() is None
    (pid,) = map(int, pids.read_text().split())
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
    assert "TimeoutExpired" in pathlib.Path(_simcore_cache.cache_path() + _simcore_cache.FAILED).read_text()
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("mode", [0o770, 0o702, 0o777], ids=oct)
def test_writable_by_others_is_neither_written_nor_read(cache, compiler, monkeypatch, mode, capfd):
    directory = cache / "aoiharvest"
    directory.mkdir()
    directory.chmod(mode)
    path = pathlib.Path(_simcore_cache.cache_path())
    path.write_bytes(b"a build someone else could have written")
    loaded = []
    monkeypatch.setattr(_simcore_cache, "_load", loaded.append)
    assert _simcore_cache.load() is None
    assert loaded == [] and calls(compiler) == 0
    assert os.listdir(directory) == [path.name]
    assert directory.stat().st_mode & 0o777 == mode
    assert capfd.readouterr() == ("", "")


def test_writable_by_others_build_is_not_read(cache, compiler, monkeypatch, capfd):
    path = pathlib.Path(_simcore_cache.cache_path())
    path.parent.mkdir(mode=0o700)
    path.write_bytes(b"a build someone else could have written")
    path.chmod(0o722)
    loaded = []
    monkeypatch.setattr(_simcore_cache, "_load", loaded.append)
    assert _simcore_cache.load() is None
    assert loaded == [] and calls(compiler) == 0
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("base", ["relative", "file"])
def test_unusable_cache_home_means_no_build(tmp_path, compiler, monkeypatch, base, capfd):
    monkeypatch.chdir(tmp_path)
    if base == "file":
        (tmp_path / "file").write_text("not a directory")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
    else:
        monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
    before = sorted(os.listdir(tmp_path))
    assert _simcore_cache.load() is None
    assert calls(compiler) == 0 and sorted(os.listdir(tmp_path)) == before
    assert capfd.readouterr() == ("", "")


def test_home_cache_is_made_private(tmp_path, monkeypatch):
    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setattr(_simcore_cache, "_build", lambda path: None)
    assert _simcore_cache.load() is None
    directory = tmp_path / ".cache" / "aoiharvest"
    assert _simcore_cache.cache_path().startswith(str(directory) + os.sep)
    assert directory.stat().st_mode & 0o777 == 0o700


def test_build_that_differs_from_the_python_kernel_is_rejected(cache, tmp_path, monkeypatch, capfd):
    # the "compiler" builds a walk that takes log1p(-u) for log(1 - u):
    # a build that drifted from _simcore_py in the last bits of some draws
    reason = missing_compiler()
    if reason:
        pytest.skip(reason)
    drifted = tmp_path / "drifted.c"
    source = pathlib.Path(_simcore_cache.SOURCE).read_text()
    assert "log(1.0 - u[i])" in source
    drifted.write_text(source.replace("log(1.0 - u[i])", "log1p(-u[i])"))
    real = _simcore_cache._commands
    monkeypatch.setattr(_simcore_cache, "_commands", lambda src, obj, out: real(str(drifted), obj, out))
    assert _simcore_cache.load() is None
    path = _simcore_cache.cache_path()
    assert not os.path.exists(path)
    assert "differs from _simcore_py" in pathlib.Path(path + _simcore_cache.FAILED).read_text()
    assert os.listdir(cache / "aoiharvest") == [os.path.basename(path) + _simcore_cache.FAILED]
    assert capfd.readouterr() == ("", "")


def test_source_compiles_without_warnings(tmp_path):
    reason = missing_compiler()
    if reason:
        pytest.skip(reason)
    cc = shlex.split(sysconfig.get_config_var("CC"))
    # -O2 for the warnings that need the optimizer's flow analysis
    cmd = cc + ["-O2", "-Wall", "-Wextra", "-Werror", "-c", _simcore_cache.SOURCE, "-o", str(tmp_path / "_simcore.o")]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")


def test_import_falls_back_silently():
    # a fresh interpreter whose cache is unusable imports the pure-Python kernel and prints nothing
    env = dict(os.environ, XDG_CACHE_HOME="relative", PYTHONPATH=str(SRC))
    code = "from aoiharvest import simulator; print(simulator.KERNEL, simulator.log_kind(4) != 'libm')"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "python True\n", "")
