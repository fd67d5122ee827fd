"""Pure-Python simulation kernel; fallback when the compiled one is absent.

Must stay behaviorally identical to _simcore.pyx: same uniform draw
order (chunked refills from the numpy generator), same firing logic, so
both kernels produce bitwise-identical sample paths from the same seed.

The compiled kernel moves the cycle age by ``t - log(1 - u) / mu`` per
uniform u. Here the logs are taken one CHUNK of uniforms at a time, and
they must be libm's: numpy's contiguous ``np.log`` runs SIMD code that
differs from libm in the last bit on some inputs (6,959 of 2,000,000
draws on an AVX-512 machine), which would fork the sample path.
``_libm_log`` calls ``np.log`` with an output whose stride has the sign
opposite to the input's; numpy then runs its scalar loop, which calls
libm's log for each element (about 9 ns per element on that machine,
against 140 ns for ``math.log`` applied element by element). As that is
numpy's behaviour rather than its promise, the first ``run_cycles`` call
compares ``_libm_log`` with ``math.log`` bit for bit on PROBE seeded
draws and keeps ``math.log`` through ``np.frompyfunc`` if any bit
differs; ``log_kind`` names the choice. A chunk is refilled only when a
cycle needs one more draw, as in the compiled kernel, so the generator
ends in the same state too.

With more than one battery level a loop over the chunk's log(1 - u) / mu,
as Python floats, follows the battery level and forms ``t - d`` itself;
an IEEE divide is correctly rounded in numpy as in Python, so this is
the compiled kernel's ``t - log(1 - u) / mu``. Working memory stays at
the size of one chunk.

With one battery level every cycle takes exactly one draw and fires at
max(tau_1, E), evaluated for a whole chunk at once. A uniform at or below
a per-policy bound ``u_lo`` gives an arrival E below tau_1 for certain,
so the cycle lasts tau_1 and its log is never taken; the log runs on
the other uniforms only (on all of them when tau_1 = 0).
"""

import math

import numpy as np

CHUNK = 8192
PROBE = 4096  # seeded draws on which the first run_cycles call checks _libm_log

# Relative margin of the B = 1 screen: the arrival at u_lo lies this far
# below tau_1, about a million times the few ulps (2^-52 each) by which
# libm's log and the division by mu can move it.
MARGIN = 2.0**-30

_py_log = np.frompyfunc(math.log, 1, 1)


def _libm_log(v):
    """libm's log of each element of the contiguous float64 array v, through numpy's scalar loop.

    The output's stride runs opposite to the input's, which keeps numpy
    off its SIMD log. A single element counts as contiguous whatever its
    stride, so it goes to ``math.log`` directly.
    """
    if len(v) < 2:
        return np.array([math.log(x) for x in v.tolist()])
    out = np.empty(len(v))[::-1]
    np.log(v, out=out)
    return out


def _frompyfunc_log(v):
    """libm's log of each element of v through ``math.log``, one Python call per element."""
    return _py_log(v).astype(np.float64)


_log = None  # the log run_cycles takes, chosen by its first call


def _chunk_log():
    """``_libm_log`` if it equals ``math.log`` bit for bit on PROBE seeded draws, else ``_frompyfunc_log``."""
    global _log
    if _log is None:
        v = 1.0 - np.random.Generator(np.random.PCG64(0)).random(PROBE)
        libm = np.array([math.log(x) for x in v.tolist()])
        _log = _libm_log if _libm_log(v).tobytes() == libm.tobytes() else _frompyfunc_log
    return _log


def log_kind():
    """How run_cycles takes its logs: "numpy-scalar" (``_libm_log``) or "frompyfunc"."""
    return "numpy-scalar" if _chunk_log() is _libm_log else "frompyfunc"


def run_cycles(thresholds, mu, n_cycles, start_state, rng):
    """Simulate n_cycles update cycles; return (inter-update times, post states).

    A cycle starts right after an update with battery level j. Arrivals
    raise the level (clipped at B); the update fires at the first instant
    the cycle age reaches the threshold of the currently occupied level,
    which is max(arrival time of that level, its threshold). Firing
    requires level >= 1, so energy causality holds by construction.
    """
    taus = tuple(float(t) for t in thresholds)
    B = len(taus)
    if not 0 <= start_state <= B:
        raise ValueError("start_state must lie in 0..B")
    mu = float(mu)
    log = _chunk_log()
    x_out = np.empty(n_cycles)
    s_out = np.empty(n_cycles, dtype=np.int64)
    buf = rng.random(CHUNK)
    c = 0
    level = start_state
    if level == B and n_cycles:
        # a full battery fires at tau_B without waiting for an arrival
        x_out[0] = 0.0 if taus[-1] < 0.0 else taus[-1]
        s_out[0] = B - 1
        c = 1
        level = B - 1
    if B == 1:
        # back to level 0 after every update: one arrival, then fire at
        # max(tau_1, its arrival time); every post state is 0
        s_out[c:] = 0
        u_lo = _screen_bound(taus[0], mu)
    t = 0.0
    while c < n_cycles:
        m = min(CHUNK, n_cycles - c)
        if B == 1:
            x_out[c : c + m] = _fire_once(taus[0], mu, u_lo, buf, log)[:m]
        else:
            xs, ss, level, t = _run_levels(taus, (log(1.0 - buf) / mu).tolist(), level, t)
            m = min(len(xs), m)
            x_out[c : c + m] = xs[:m]
            s_out[c : c + m] = ss[:m]
        c += m
        if c < n_cycles:
            buf = rng.random(CHUNK)
    return x_out, s_out


def _screen_bound(tau, mu):
    """The bound u_lo of the B = 1 screen: a uniform at or below it fires at tau (-1.0: none does).

    u_lo = 1 - exp(-mu tau (1 - MARGIN)), shrunk by the same margin and
    capped at the largest uniform below 1, puts the exact arrival of u_lo
    a relative MARGIN below tau. The arrival computed as the kernel
    computes it must still lie half a margin below tau; the arrival grows
    with u, so every smaller uniform's then lies below tau too. The
    rounding of 1 - u, up to 2^-54, can swamp the margin where mu tau is
    below about 2^-23: if it does, no uniform is screened.
    """
    u_lo = min(-math.expm1(-mu * tau * (1.0 - MARGIN)) * (1.0 - MARGIN), math.nextafter(1.0, 0.0))
    if not u_lo > 0.0:
        return -1.0
    arrival = -(math.log(1.0 - u_lo) / mu)
    return u_lo if arrival <= tau * (1.0 - 0.5 * MARGIN) else -1.0


def _fire_once(tau, mu, u_lo, buf, log):
    """The inter-update times of one chunk at B = 1: max(tau, arrival) per uniform."""
    xs = np.full(CHUNK, tau)
    late = np.flatnonzero(buf > u_lo)
    # the arrival as the compiled kernel adds it to t = 0
    arrival = 0.0 + -(log(1.0 - buf[late]) / mu)
    xs[late] = np.where(tau < arrival, arrival, tau)
    return xs


def _run_levels(taus, ds, L, t):
    """The cycles that one chunk of draws completes, for B >= 2.

    Each draw is given as d = log(1 - u) / mu; its arrival comes at t - d.
    The state between draws is the level L < B and the cycle age t at
    which L was reached; cand = max(tau_L, t) is the instant the update
    fires unless the next arrival comes first. Level 0 has an infinite
    threshold: it never fires. Returns the cycles' inter-update times and
    post states, and the state after the last draw.
    """
    B = len(taus)
    top = B - 1
    last = taus[-1]
    threshold = (math.inf,) + taus
    # cand right after an update, where t = 0
    floor = tuple(0.0 if tau < 0.0 else tau for tau in threshold)
    xs = []
    ss = []
    add_x = xs.append
    add_s = ss.append
    cand = threshold[L]
    if cand < t:
        cand = t
    for d in ds:
        t_next = t - d
        if cand < t_next:
            add_x(cand)
            L -= 1
            add_s(L)
            t = 0.0
            cand = floor[L]
        else:
            t = t_next
            L += 1
            if L == B:
                # a full battery fires at max(tau_B, t) with no draw
                cand = last
                if cand < t:
                    cand = t
                add_x(cand)
                add_s(top)
                L = top
                t = 0.0
                cand = floor[top]
            else:
                cand = threshold[L]
                if cand < t:
                    cand = t
    return xs, ss, L, t
