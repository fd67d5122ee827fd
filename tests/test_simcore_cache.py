"""The user-cache build of the C level walk: its key, its warning-free compile, and every way it falls back to _simcore_py.

Each failure gives None from ``_simcore_cache.load`` (so ``simulator``
takes the pure-Python kernel), writes nothing to stdout or stderr, and
runs the compiler at most once per cache key. The build that succeeds is
checked in test_simulator.py, whose exact-path cases also run on a kernel
built through an empty cache.
"""

import os
import pathlib
import shlex
import shutil
import subprocess
import sys
import sysconfig
from importlib.util import source_hash

import pytest

from aoiharvest import _simcore_cache, simulator

SRC = pathlib.Path(simulator.__file__).resolve().parents[1]
SOURCE = pathlib.Path(_simcore_cache.SOURCE).read_bytes()


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


def committed_path():
    """The cache path of the committed _simcore.c's build."""
    return _simcore_cache.cache_path(SOURCE)


def test_edited_source_gets_a_new_key_and_loads_no_stale_build(cache, tmp_path, monkeypatch, capfd):
    reason = missing_compiler()
    if reason:
        pytest.skip(reason)
    stale = pathlib.Path(committed_path())
    assert stale.parent == cache / "aoiharvest"
    assert stale.name == f"_simcore-{source_hash(SOURCE).hex()}" + sysconfig.get_config_var("EXT_SUFFIX")
    stale.parent.mkdir(mode=0o700)
    stale.write_bytes(b"a build of the committed _simcore.c")
    stale.chmod(0o700)
    edited = tmp_path / "_simcore.c"
    edited.write_bytes(SOURCE + b"/* edited */\n")
    monkeypatch.setattr(_simcore_cache, "SOURCE", str(edited))
    loaded = []
    real = _simcore_cache._load
    monkeypatch.setattr(_simcore_cache, "_load", lambda path: loaded.append(path) or real(path))
    kernel = _simcore_cache.load()
    # the edited bytes are built under their own key, checked and kept; the
    # stale build is neither loaded nor touched
    assert kernel is not None and kernel.path == _simcore_cache.cache_path(edited.read_bytes()) != str(stale)
    assert os.path.isfile(kernel.path) and str(stale) not in loaded
    assert stale.read_bytes() == b"a build of the committed _simcore.c"
    assert sorted(os.listdir(stale.parent)) == sorted([stale.name, os.path.basename(kernel.path)])
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("code", [1, 127])
def test_failing_compiler_runs_once_per_key(cache, compiler, monkeypatch, code, capfd):
    monkeypatch.setenv("FAKE_CC_CODE", str(code))
    for _ in range(3):
        assert _simcore_cache.load() is None
    assert calls(compiler) == 1
    path = committed_path()
    assert not os.path.exists(path)
    assert "CalledProcessError" in pathlib.Path(path + _simcore_cache.FAILED).read_text()
    assert sorted(os.listdir(cache / "aoiharvest")) == [os.path.basename(path) + _simcore_cache.FAILED]
    assert capfd.readouterr() == ("", "")


def test_missing_compiler_is_recorded(cache, tmp_path, monkeypatch, capfd):
    real = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: str(tmp_path / "no-cc") if name == "CC" else real(name))
    assert _simcore_cache.load() is None
    failed = pathlib.Path(committed_path() + _simcore_cache.FAILED)
    assert "FileNotFoundError" in failed.read_text()
    # the record stands for the key: the compiler is not looked for again
    monkeypatch.setattr(_simcore_cache, "_build", lambda path, source: pytest.fail("built again"))
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
    assert "TimeoutExpired" in pathlib.Path(committed_path() + _simcore_cache.FAILED).read_text()
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("mode", [0o770, 0o702, 0o777], ids=oct)
def test_writable_by_others_is_neither_written_nor_read(cache, compiler, monkeypatch, mode, capfd):
    directory = cache / "aoiharvest"
    directory.mkdir()
    directory.chmod(mode)
    path = pathlib.Path(committed_path())
    path.write_bytes(b"a build someone else could have written")
    loaded = []
    monkeypatch.setattr(_simcore_cache, "_load", loaded.append)
    assert _simcore_cache.load() is None
    assert loaded == [] and calls(compiler) == 0
    assert os.listdir(directory) == [path.name]
    assert directory.stat().st_mode & 0o777 == mode
    assert capfd.readouterr() == ("", "")


def test_writable_by_others_build_is_not_read(cache, compiler, monkeypatch, capfd):
    path = pathlib.Path(committed_path())
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
    monkeypatch.setattr(_simcore_cache, "_build", lambda path, source: None)
    assert _simcore_cache.load() is None
    directory = tmp_path / ".cache" / "aoiharvest"
    assert committed_path().startswith(str(directory) + os.sep)
    assert directory.stat().st_mode & 0o777 == 0o700


def assert_edited_walk_rejected(cache, tmp_path, monkeypatch, capfd, old, new):
    """A copy of _simcore.c with old replaced by new builds, fails the check against _simcore_py and is recorded."""
    reason = missing_compiler()
    if reason:
        pytest.skip(reason)
    assert SOURCE.count(old.encode()) == 1
    edited = tmp_path / "_simcore.c"
    edited.write_bytes(SOURCE.replace(old.encode(), new.encode()))
    monkeypatch.setattr(_simcore_cache, "SOURCE", str(edited))
    assert _simcore_cache.load() is None
    path = _simcore_cache.cache_path(edited.read_bytes())
    assert not os.path.exists(path)
    assert "differs from _simcore_py" in pathlib.Path(path + _simcore_cache.FAILED).read_text()
    assert os.listdir(cache / "aoiharvest") == [os.path.basename(path) + _simcore_cache.FAILED]
    assert capfd.readouterr() == ("", "")


def test_build_that_differs_from_the_python_kernel_is_rejected(cache, tmp_path, monkeypatch, capfd):
    # a walk that takes log1p(-u) for log(1 - u): a build that drifted from
    # _simcore_py in the last bits of some draws
    assert_edited_walk_rejected(cache, tmp_path, monkeypatch, capfd, "log(1.0 - u[i])", "log1p(-u[i])")


def test_build_that_breaks_ties_the_other_way_is_rejected(cache, tmp_path, monkeypatch, capfd):
    # a walk that fires the update when an arrival lands exactly on it: no
    # continuous draw of the stratified runs ties, so only the check's tie run sees it
    assert_edited_walk_rejected(cache, tmp_path, monkeypatch, capfd, "!(cand < t_next)", "!(cand <= t_next)")


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
