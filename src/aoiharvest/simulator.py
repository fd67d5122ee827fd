"""Seeded Monte Carlo simulation of the exact update dynamics.

Independent oracle for the analytic modules: it samples Poisson energy
arrivals, tracks the battery level, and fires updates at the exact first
instant the age reaches the level's threshold. No time discretization
exists anywhere; per-cycle age-penalty mass is accumulated in closed
form through the penalty antiderivative.

One function, ``_simcore_py.run_cycles``, runs the cycles of both
kernels. Its level walk at B >= 2 is compiled where it can be:
``_simcore_cache`` builds the C walk of ``_simcore.c`` once into the
user cache and checks it against ``_simcore_py`` before use. KERNEL is
"c" for that kernel and "python" where no build can be had; B = 1 takes
the pure-Python screen of ``run_cycles`` under both.

Randomness: numpy PCG64, exponential variates by inverse transform, so
sample paths are reproducible across platforms and across kernels.
``run_cycles`` takes uniforms from the generator CHUNK at a time, and
both walks take a chunk in two phases: first d = log(1 - u) / mu for
every uniform, with the C library's log, then the level walk, which
moves the cycle age to t - d per draw. The C walk takes its logs in a
loop with no branch; the pure-Python one in one ``np.log`` call with an
output stride opposite to the input's, which makes numpy call libm's log
per element instead of running its SIMD log (that one differs from libm
in the last bit on some inputs, and one such draw would fork the path).
The first pure-Python walk checks that call against ``math.log`` bit for
bit on seeded draws and falls back to ``math.log`` per element if any
bit differs; ``log_kind`` names the log in use. With one battery level
``run_cycles`` takes only the logs it reads: a uniform whose arrival is
certain to fall below tau_1 gives a cycle of tau_1 with no log taken.
``SimReport.kernel_s`` times the kernel call and ``SimReport.report_s``
the reductions after it, both outside the report's equality and JSON.

Memory: a run's peak is the kernel's output, 8 bytes of inter-update time
and 8 of post-update level per renewal. The levels are counted and
released before the penalty work; the antiderivative (built in place: 8
bytes a renewal for its sum and 8 for the term being formed, past the
first; a 1-byte sign check before) is released after its sums, and x is
squared in place for E[X^2]. So a run peaks at about 17 bytes per
renewal with one power term, as every CLI penalty has (10^8 renewals:
about 1.7 GB), and about 24 with several.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import _simcore_cache, _simcore_py
from .model import PenaltySpec, Policy, SystemParams, is_int

_kernel = _simcore_cache.load() or _simcore_py
KERNEL = "python" if _kernel is _simcore_py else "c"

GENERATOR_ID = "numpy-pcg64"


def log_kind(battery: int) -> str:
    """The log the active kernel takes at this battery size: "libm" (the C walk), else "numpy-scalar" or "frompyfunc"."""
    if KERNEL == "c" and battery > 1:
        return "libm"
    return _simcore_py.log_kind()


class ZeroMeasurementWindow(ValueError):
    """No cycles left after discarding warmup."""


@dataclass(frozen=True)
class SimConfig:
    seed: int
    renewals: int
    warmup: int = 1000
    initial_state: int = 0
    batches: int = 100

    def __post_init__(self):
        counts = (self.seed, self.renewals, self.warmup, self.initial_state, self.batches)
        if not all(map(is_int, counts)):
            raise ValueError(f"seed, renewals, warmup, initial_state and batches must be integers, got {counts!r}")
        if self.renewals < 1 or self.warmup < 0 or self.initial_state < 0 or self.batches < 1:
            raise ValueError("invalid simulation configuration")


@dataclass(frozen=True)
class SimReport:
    avg_penalty: float
    avg_age: float
    mean_x: float
    mean_x2: float
    state_freq: tuple[float, ...]
    stderr: float
    elapsed_sim_time: float
    renewals_measured: int
    seed: int
    renewals: int
    warmup: int
    generator: str = GENERATOR_ID
    kernel: str = KERNEL
    # wall seconds of the cycle kernel and of the reductions after it:
    # diagnostics, outside equality and to_json
    kernel_s: float = field(default=0.0, compare=False, repr=False)
    report_s: float = field(default=0.0, compare=False, repr=False)

    def to_json(self) -> str:
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.compare}
        return json.dumps(d, sort_keys=True)


def simulate(
    params: SystemParams, policy: Policy, p: PenaltySpec, cfg: SimConfig
) -> SimReport:
    """Run cfg.renewals update cycles; report post-warmup renewal statistics.

    Stops on renewal count (not wall-clock time) so every estimate is a
    clean ratio of per-cycle sums. Uncertainty on the average penalty
    comes from batch means over contiguous cycle blocks, which respects
    the Markov dependence between cycles. A statistic outside double
    range raises OverflowError.
    """
    if cfg.renewals <= cfg.warmup:
        raise ZeroMeasurementWindow(
            f"renewals ({cfg.renewals}) must exceed warmup ({cfg.warmup})"
        )
    if cfg.initial_state > params.battery:
        raise ValueError("initial_state cannot exceed the battery size")
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    taus = np.asarray(policy.thresholds, dtype=np.float64)
    # a path outside double range fails the finite check below, with no warnings on the way
    with np.errstate(all="ignore"):
        start = time.perf_counter()
        x, states = _kernel.run_cycles(taus, params.mu_h, cfg.renewals, cfg.initial_state, rng)
        kernel_done = time.perf_counter()
        # Peak memory is the kernel's output: each full-length array is
        # released once its last sum is taken, and x is squared in place last.
        xm = x[cfg.warmup :]
        n = len(xm)
        freq = np.bincount(states[cfg.warmup :], minlength=params.battery)[: params.battery] / n
        del states
        nb = min(cfg.batches, n)
        m = n // nb
        total_x = float(xm.sum())
        bx = xm[: nb * m].reshape(nb, m).sum(axis=1)
        px = p.antiderivative(xm)
        total_p = float(px.sum())
        bp = px[: nb * m].reshape(nb, m).sum(axis=1)
        del px
        mean_x2 = float(np.multiply(xm, xm, out=xm).sum()) / n
        avg_penalty = total_p / total_x
        mean_x = total_x / n
        avg_age = mean_x2 / (2.0 * mean_x)
        ratios = bp / bx
        stderr = float(ratios.std(ddof=1) / np.sqrt(nb)) if nb > 1 else 0.0
        report_done = time.perf_counter()
    if not np.isfinite((avg_penalty, avg_age, mean_x, mean_x2, stderr)).all():
        raise OverflowError("simulated statistics outside double range")

    return SimReport(
        avg_penalty=avg_penalty,
        avg_age=avg_age,
        mean_x=mean_x,
        mean_x2=mean_x2,
        state_freq=tuple(float(f) for f in freq),
        stderr=stderr,
        elapsed_sim_time=total_x,
        renewals_measured=n,
        seed=cfg.seed,
        renewals=cfg.renewals,
        warmup=cfg.warmup,
        kernel_s=kernel_done - start,
        report_s=report_done - kernel_done,
    )


def simulate_greedy(params: SystemParams, p: PenaltySpec, cfg: SimConfig) -> SimReport:
    """Best-effort baseline: update at every opportunity energy permits.

    Equivalent to the all-zero-threshold policy. The nonzero inter-update
    gaps stay exponential, so its average age is 1/mu for every battery
    size -- a useful yardstick the threshold policies beat.
    """
    return simulate(params, Policy((0.0,) * params.battery), p, cfg)
