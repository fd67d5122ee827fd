"""The compiled simulation kernel: the level walk of ``_simcore.c``, built once into a private user cache.

``simulator`` calls ``load`` at import, from a checkout and from an
installed package alike (``_simcore.c`` ships as package data). The
cache is ``$XDG_CACHE_HOME/aoiharvest``, else ``~/.cache/aoiharvest``;
it is used only when it is a directory of the current user that no
group or other user can write (it is made with mode 0700). A base that
is not an absolute path is not used at all.

The build is stored under a key that names the bytes of ``_simcore.c``
(their ``importlib.util.source_hash``) and the interpreter's EXT_SUFFIX:
``load`` reads the source once, names the build by it and, on a miss,
compiles those same bytes, so an edited source never meets a stale build.

On a miss the bytes are compiled with the running interpreter's
``sysconfig`` CC, CFLAGS, CCSHARED and LDSHARED (the walk includes no
Python header) in a private temporary directory inside the cache. The
kernel, ``_simcore_py.run_cycles`` with the build's walk, is used only
once it matches ``_simcore_py`` bit for bit on the short seeded runs of
``_matches_reference``, at the batteries whose cycles reach the C walk;
only then is the build moved into place, by an atomic ``os.replace``.
Any failure (no compiler, a compile that fails or outlasts
BUILD_TIMEOUT_S, a mismatch) prints nothing, gives None and is recorded
as a ``.failed`` file under the same key, so that later imports do not
compile again. Deleting the cache directory clears the build and the
record alike.
"""

import ctypes
import functools
import math
import os
import stat
import types
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import source_hash

import numpy as np

from . import _simcore_py

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_simcore.c")
BUILD_TIMEOUT_S = 120.0  # for the whole build: compile and link
FAILED = ".failed"

# The bit-identity check of a fresh build against _simcore_py.
CHECK_BATTERIES = (2, 4, 16)
CHECK_CYCLES = 20_000  # more than two of the kernels' 8192-uniform refills


def cache_path(source):
    """Where this interpreter's build of the C source bytes is stored, in ``$XDG_CACHE_HOME/aoiharvest``, else ``~/.cache/aoiharvest``.

    None where that base is not an absolute path.
    """
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):
        return None
    return os.path.join(base, "aoiharvest", f"_simcore-{source_hash(source).hex()}{EXTENSION_SUFFIXES[0]}")


def load():
    """The compiled kernel from the cache, built there on a miss; None where it cannot be had."""
    try:
        with open(SOURCE, "rb") as f:
            source = f.read()
    except OSError:
        return None
    path = cache_path(source)
    if path is None or not _private_dir(os.path.dirname(path)):
        return None
    if os.path.lexists(path + FAILED):
        return None
    # The one boundary between the kernel build and the package's import:
    # whatever goes wrong is recorded for the next import, and the import
    # goes on with the pure-Python kernel.
    try:
        if os.path.lexists(path):
            if not _private_file(path):
                raise OSError(f"{path} is not a private file of this user")
            return _load(path)
        return _build(path, source)
    except Exception as exc:
        _record_failure(path, exc)
        return None


def _private_dir(path):
    """True where path is, or is now made as, a directory of this user that no group or other user can write."""
    if not hasattr(os, "getuid"):
        return False
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.stat(path)
    except OSError:
        return False
    return stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid() and not st.st_mode & 0o022


def _private_file(path):
    st = os.lstat(path)
    return stat.S_ISREG(st.st_mode) and st.st_uid == os.getuid() and not st.st_mode & 0o022


def _load(path):
    """The kernel of the build at path: ``_simcore_py.run_cycles`` with the build's level walk."""
    walk = ctypes.CDLL(path).walk_levels
    walk.restype = ctypes.c_int64
    p, n = ctypes.c_void_p, ctypes.c_int64
    walk.argtypes = (p, n, ctypes.c_double, p, n, p, p, p, n, ctypes.POINTER(n), ctypes.POINTER(ctypes.c_double))

    def walk_levels(taus, mu, level, x_out, s_out):
        """``_simcore_py.walk_levels`` through the C walk, which writes into x_out and s_out in place."""
        tau = np.array(taus)
        L, t = n(level), ctypes.c_double(0.0)
        tau_p, x_p, s_p, size = tau.ctypes.data, x_out.ctypes.data, s_out.ctypes.data, len(x_out)
        # the walk's scratch: one d = log(1 - u) / mu per uniform of a chunk
        d = np.empty(_simcore_py.CHUNK)

        def step(u, c):
            nonlocal d
            u = np.ascontiguousarray(u, dtype=np.float64)
            if len(u) > len(d):
                d = np.empty(len(u))
            # x_out and s_out take 8 bytes an entry; len(tau) also keeps
            # tau, which the walk reads at tau_p, alive
            return c + walk(
                tau_p, len(tau), mu, u.ctypes.data, len(u), d.ctypes.data, x_p + 8 * c, s_p + 8 * c, size - c, L, t
            )

        return step

    return types.SimpleNamespace(path=path, run_cycles=functools.partial(_simcore_py.run_cycles, walk=walk_levels))


def _record_failure(path, exc):
    try:
        with open(path + FAILED, "w", encoding="utf-8") as f:
            f.write(f"{type(exc).__name__}: {exc}\n")
    except OSError:
        pass


class BuildError(Exception):
    """_simcore.c could not be built into a kernel that matches _simcore_py."""


def _build(path, source):
    """Compile the C source bytes, check the build and store it at path; return its kernel."""
    import tempfile
    import time

    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with tempfile.TemporaryDirectory(dir=os.path.dirname(path)) as tmp:
        src = os.path.join(tmp, "_simcore.c")
        obj = os.path.join(tmp, "_simcore.o")
        built = os.path.join(tmp, os.path.basename(path))
        with open(src, "wb") as f:
            f.write(source)
        for cmd in _commands(src, obj, built):
            _run(cmd, tmp, deadline)
        os.chmod(built, 0o700)
        kernel = _load(built)
        if not _matches_reference(kernel):
            raise BuildError("the build differs from _simcore_py")
        os.replace(built, path)
    kernel.path = path
    return kernel


def _commands(src, obj, out):
    """The compile and link commands of this interpreter's sysconfig for src → obj → out."""
    import shlex
    import sysconfig

    def config(name):
        value = sysconfig.get_config_var(name)
        if not value:
            raise BuildError(f"sysconfig has no {name}")
        return shlex.split(value)

    compile_ = config("CC") + config("CFLAGS") + config("CCSHARED") + ["-c", src, "-o", obj]
    # the walk calls libm's log
    return compile_, config("LDSHARED") + [obj, "-o", out, "-lm"]


def _run(cmd, cwd, deadline):
    """Run cmd silently in its own process group; kill the group if it is still running at the deadline."""
    import signal
    import subprocess
    import time

    proc = subprocess.Popen(
        cmd, cwd=cwd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        code = proc.wait(max(deadline - time.monotonic(), 0.0))
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code:
        raise subprocess.CalledProcessError(code, cmd)


def _matches_reference(kernel):
    """True where kernel.run_cycles equals _simcore_py's bit for bit on short seeded runs.

    Each battery size (B = 1 takes the driver's Python screen under both
    kernels, so none is run) runs a stratified policy at mu = 1 (the k-th
    smallest threshold uniform on the k-th of B parts of [0, 4]) from an
    empty and from a full battery, and every threshold at the first draw's
    arrival, formed as both walks form it, from level 1, where that draw
    ties the update; the inter-update times, the post-update levels and
    the generator's final state must all agree.
    """
    for b in CHECK_BATTERIES:
        rng = np.random.default_rng(b)
        stratified = np.array([rng.uniform(k * 4.0 / b, (k + 1) * 4.0 / b) for k in reversed(range(b))])
        tie = 0.0 - math.log(1.0 - np.random.Generator(np.random.PCG64(b)).random()) / 1.0
        for taus, start in ((stratified, 0), (stratified, b), (np.full(b, tie), 1)):
            runs = []
            for run_cycles in (_simcore_py.run_cycles, kernel.run_cycles):
                gen = np.random.Generator(np.random.PCG64(b))
                x, s = run_cycles(taus, 1.0, CHECK_CYCLES, start, gen)
                runs.append((x.dtype, x.tobytes(), s.dtype, s.tobytes(), gen.bit_generator.state))
            if runs[0] != runs[1]:
                return False
    return True
