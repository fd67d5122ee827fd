"""The cycle loop that both simulation kernels run, and its pure-Python level walk.

``run_cycles`` drives both kernels: it checks the start state, fires a
full battery's first cycle, screens B = 1, owns the output buffers and
refills the uniforms CHUNK at a time, only when a cycle needs one more
draw. At B >= 2 a level walk takes each chunk: ``walk_levels`` here or
the C walk of ``_simcore.c`` (``_simcore_cache``), which must give the
same bits and leave the generator in the same state.

A uniform completes at most one cycle: it either fires the update or
raises the level, and a level that reaches B fires at once. So a chunk
completes at most CHUNK cycles, and buffers of CHUNK + 1 entries (one
more for a full battery's first cycle, which takes no uniform) hold any
chunk's. Given a sink, ``run_cycles`` walks every chunk into such
buffers and hands the cycles it completed to ``sink(x, s)`` before the
next chunk overwrites them, so its memory does not grow with the number
of cycles; given none, the buffers are the full-length arrays it
returns. The cycles are the same bits either way.

Both walks take a chunk in the same two phases. The first takes
d = log(1 - u) / mu for every uniform u of the chunk, with libm's log;
the second follows the battery level through the chunk, and each
draw's arrival comes at cycle age ``t - d``. The same libm calls and
the same correctly rounded divide, in the same order, give both walks
the same bits. The C walk runs its first phase as a loop with no branch
into a scratch array that its caller owns.

Here the first phase is one numpy call per chunk, and its logs must be
libm's: numpy's contiguous ``np.log`` runs SIMD code that differs from
libm in the last bit on some inputs (6,959 of 2,000,000 draws on an
AVX-512 machine), which would fork the sample path. ``_libm_log`` calls
``np.log`` with an output whose stride has the sign opposite to the
input's; numpy then runs its scalar loop, which calls libm's log for
each element (about 9 ns per element on that machine, against 140 ns
for ``math.log`` applied element by element). As that is numpy's
behaviour rather than its promise, the first call that takes a log here
compares ``_libm_log`` with ``math.log`` bit for bit on PROBE seeded
draws and keeps ``math.log`` through ``np.frompyfunc`` if any bit
differs; ``log_kind`` names the choice. The second phase is a loop over
the chunk's d as Python floats. Working memory stays at the size of one
chunk.

With one battery level, under both kernels, every cycle takes exactly
one draw and fires at max(tau_1, E), evaluated for a whole chunk at
once. A uniform at or below a per-policy bound ``u_lo`` gives an arrival
E below tau_1 for certain, so the cycle lasts tau_1 and its log is never
taken; the log runs on the other uniforms only (on all of them when
tau_1 = 0).
"""

import math

import numpy as np

CHUNK = 8192
PROBE = 4096  # seeded draws on which the first log taken here checks _libm_log

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


_log = None  # the log of the pure-Python walk and the B = 1 screen, chosen at first use


def _chunk_log():
    """``_libm_log`` if it equals ``math.log`` bit for bit on PROBE seeded draws, else ``_frompyfunc_log``."""
    global _log
    if _log is None:
        v = 1.0 - np.random.Generator(np.random.PCG64(0)).random(PROBE)
        libm = np.array([math.log(x) for x in v.tolist()])
        _log = _libm_log if _libm_log(v).tobytes() == libm.tobytes() else _frompyfunc_log
    return _log


def log_kind():
    """How the pure-Python walk and the B = 1 screen take their logs: "numpy-scalar" (``_libm_log``) or "frompyfunc"."""
    return "numpy-scalar" if _chunk_log() is _libm_log else "frompyfunc"


def run_cycles(thresholds, mu, n_cycles, start_state, rng, sink=None, *, walk=None):
    """Simulate n_cycles update cycles: return (inter-update times, post states), or hand them to sink.

    A cycle starts right after an update with battery level j. Arrivals
    raise the level (clipped at B); the update fires at the first instant
    the cycle age reaches the threshold of the currently occupied level,
    which is max(arrival time of that level, its threshold). Firing
    requires level >= 1, so energy causality holds by construction.

    With a sink, the cycles go to sink(x, s) in order, chunk by chunk, as
    views of buffers of CHUNK + 1 entries that the next chunk
    overwrites, and None is returned. Without one, the buffers are the
    full-length arrays returned. Either way the walk writes a chunk from
    the first free entry, with room for the cycles still wanted and no
    more, so it stops where they are complete.

    At B >= 2 ``walk`` (``walk_levels`` unless given) takes each chunk of
    uniforms; B = 1 takes the screen whatever the walk.
    """
    taus = tuple(float(t) for t in thresholds)
    B = len(taus)
    if not 0 <= start_state <= B:
        raise ValueError("start_state must lie in 0..B")
    mu = float(mu)
    # a uniform completes at most one cycle, and a full battery's first
    # cycle takes none: CHUNK + 1 entries hold any chunk's cycles
    size = n_cycles if sink is None else min(n_cycles, CHUNK + 1)
    x_out = np.empty(size)
    s_out = np.empty(size, dtype=np.int64)
    buf = rng.random(CHUNK)
    lo = c = 0  # the cycles in x_out[lo:c] are not yet handed on
    if start_state == B and n_cycles:
        # a full battery fires at tau_B without waiting for an arrival
        x_out[0] = 0.0 if taus[-1] < 0.0 else taus[-1]
        s_out[0] = B - 1
        c = 1
    if B == 1:
        # back to level 0 after every update: every post state is 0
        s_out[:] = 0
        step = _fire_once(taus[0], mu, x_out)
    else:
        step = (walk or walk_levels)(taus, mu, min(start_state, B - 1), x_out, s_out)
    left = n_cycles  # cycles not yet handed on
    while True:
        if c - lo < left:
            c = step(buf, c)
        if sink is not None and c > lo:
            sink(x_out[lo:c], s_out[lo:c])
        left -= c - lo
        if not left:
            return None if sink is not None else (x_out, s_out)
        buf = rng.random(CHUNK)
        # room from c to the buffers' end for the cycles still wanted, and no more
        lo = c = max(size - left, 0)


def walk_levels(taus, mu, L, x_out, s_out):
    """The B >= 2 walk from level L at cycle age 0, as step(u, c) -> c, one chunk of uniforms u a call.

    A step walks every uniform of u, writes the cycles it completes, as
    many as fit, to x_out and s_out from index c, carries the level and
    the cycle age to the next chunk, and returns the new count c.
    """
    log = _chunk_log()
    t = 0.0

    def step(u, c):
        nonlocal L, t
        xs, ss, L, t = _run_levels(taus, (log(1.0 - u) / mu).tolist(), L, t)
        m = min(len(xs), len(x_out) - c)
        x_out[c : c + m] = xs[:m]
        s_out[c : c + m] = ss[:m]
        return c + m

    return step


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


def _fire_once(tau, mu, x_out):
    """The B = 1 cycles as step(u, c) -> c (see walk_levels): each uniform fires once, at max(tau, its arrival)."""
    u_lo = _screen_bound(tau, mu)
    log = _chunk_log()

    def step(u, c):
        u = u[: len(x_out) - c]
        x = x_out[c : c + len(u)]
        x[:] = tau
        late = np.flatnonzero(u > u_lo)
        # the arrival as the level walk adds it to t = 0
        arrival = 0.0 + -(log(1.0 - u[late]) / mu)
        x[late] = np.where(tau < arrival, arrival, tau)
        return c + len(u)

    return step


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
