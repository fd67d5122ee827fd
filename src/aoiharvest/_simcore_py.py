"""Pure-Python simulation kernel; fallback when the compiled one is absent.

Must stay behaviorally identical to _simcore.pyx: same uniform draw
order (chunked refills from the numpy generator), same firing logic, so
both kernels produce bitwise-identical sample paths from the same seed.

The draws are turned into exponential variates one CHUNK at a time,
``E = -(log(1 - u) / mu)``, so that ``t + E`` equals the compiled
kernel's scalar ``t - log(1 - u) / mu`` bit for bit. The log is libm's,
through ``math.log`` applied element by element, and never ``np.log``:
numpy's SIMD log is not libm's and differs from it in the last bit on
some inputs (7,055 of 2,000,000 draws on an AVX-512 machine), which
would fork the sample path. A chunk is refilled only when a cycle needs
one more draw, as in the compiled kernel, so the generator ends in the
same state too.

With one battery level every cycle takes exactly one draw and fires at
max(tau_1, E), which is evaluated for a whole chunk at once. With more
levels a loop over the chunk's draws, in Python floats, follows the
battery level; working memory stays at the size of one chunk.
"""

import math

import numpy as np

CHUNK = 8192

_libm_log = np.frompyfunc(math.log, 1, 1)


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
    t = 0.0
    while c < n_cycles:
        e = -(_libm_log(1.0 - buf).astype(np.float64) / mu)
        if B == 1:
            # back to level 0 after every update: one arrival, then fire
            # at max(tau_1, its arrival time)
            arrival = 0.0 + e
            xs = np.where(taus[0] < arrival, arrival, taus[0])
            ss = np.zeros(CHUNK, dtype=np.int64)
        else:
            xs, ss, level, t = _run_levels(taus, e.tolist(), level, t)
        m = min(len(xs), n_cycles - c)
        x_out[c : c + m] = xs[:m]
        s_out[c : c + m] = ss[:m]
        c += m
        if c < n_cycles:
            buf = rng.random(CHUNK)
    return x_out, s_out


def _run_levels(taus, draws, L, t):
    """The cycles that one chunk of draws completes, for B >= 2.

    The state between draws is the level L < B and the cycle age t at
    which L was reached; cand = max(tau_L, t) is the instant the update
    fires unless the next arrival, at t + E, comes first. Level 0 has an
    infinite threshold: it never fires. Returns the cycles' inter-update
    times and post states, and the state after the last draw.
    """
    B = len(taus)
    top = B - 1
    last = taus[-1]
    threshold = (math.inf,) + taus
    xs = []
    ss = []
    add_x = xs.append
    add_s = ss.append
    cand = threshold[L]
    if cand < t:
        cand = t
    for e in draws:
        t_next = t + e
        if cand < t_next:
            add_x(cand)
            L -= 1
            add_s(L)
            t = 0.0
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
        cand = threshold[L]
        if cand < t:
            cand = t
    return xs, ss, L, t
