"""Seeded Monte Carlo simulation of the exact update dynamics.

Independent oracle for the analytic modules: it samples Poisson energy
arrivals, tracks the battery level, and fires updates at the exact first
instant the age reaches the level's threshold. No time discretization
exists anywhere; per-cycle age-penalty mass is accumulated in closed
form through the penalty antiderivative.

The hot per-cycle loop lives in a compiled Cython kernel when available,
with a bit-identical pure-Python fallback selected at import time.

Randomness: numpy PCG64, exponential variates by inverse transform, so
sample paths are reproducible across platforms and across kernels. Both
kernels take uniforms from the generator CHUNK at a time and move the
cycle age by -log(1 - u) / mu with the C library's log: the compiled
kernel one draw at a time; the pure-Python one a chunk's logs at once,
through ``np.log`` with an output stride opposite to the input's, which
makes numpy call libm's log per element instead of running its SIMD log
(that one differs from libm in the last bit on some inputs, and one such
draw would fork the path). The first pure-Python ``run_cycles`` call
checks that call against ``math.log`` bit for bit on seeded draws and
falls back to ``math.log`` per element if any bit differs; ``log_kind``
names the log in use. With one battery level the pure-Python kernel
takes only the logs it reads: a uniform whose arrival is certain to fall
below tau_1 gives a cycle of tau_1 with no log taken.
``SimReport.kernel_s`` times the kernel call, outside the report's
equality and JSON.

Memory: a run's peak is the kernel's output, 8 bytes of inter-update time
and 8 of post-update level per renewal. The levels are counted and
released before the penalty work; the antiderivative (8 bytes a renewal
per power term, and a 1-byte sign check) is released after its sums, and
x is squared in place for E[X^2]. So a run peaks at about 17 bytes per
renewal with one power term, as every CLI penalty has (10^8 renewals:
about 1.7 GB), and about 25 with several.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .model import PenaltySpec, Policy, SystemParams, is_int

try:
    from . import _simcore as _kernel

    KERNEL = "cython"
except ImportError:  # pragma: no cover - depends on build environment
    from . import _simcore_py as _kernel

    KERNEL = "python"

GENERATOR_ID = "numpy-pcg64"


def log_kind() -> str:
    """The log the active kernel takes: "libm" (compiled), else "numpy-scalar" or "frompyfunc"."""
    if KERNEL == "cython":
        return "libm"
    from . import _simcore_py

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
    # wall seconds of the cycle kernel: a diagnostic, outside equality and to_json
    kernel_s: float = field(default=0.0, compare=False, repr=False)

    def to_json(self) -> str:
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "kernel_s"}
        return json.dumps(d, sort_keys=True)


def simulate(
    params: SystemParams, policy: Policy, p: PenaltySpec, cfg: SimConfig
) -> SimReport:
    """Run cfg.renewals update cycles; report post-warmup renewal statistics.

    Stops on renewal count (not wall-clock time) so every estimate is a
    clean ratio of per-cycle sums. Uncertainty on the average penalty
    comes from batch means over contiguous cycle blocks, which respects
    the Markov dependence between cycles.
    """
    if cfg.renewals <= cfg.warmup:
        raise ZeroMeasurementWindow(
            f"renewals ({cfg.renewals}) must exceed warmup ({cfg.warmup})"
        )
    if cfg.initial_state > params.battery:
        raise ValueError("initial_state cannot exceed the battery size")
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    start = time.perf_counter()
    x, states = _kernel.run_cycles(
        np.asarray(policy.thresholds, dtype=np.float64),
        params.mu_h,
        cfg.renewals,
        cfg.initial_state,
        rng,
    )
    kernel_s = time.perf_counter() - start
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
        kernel_s=kernel_s,
    )


def simulate_greedy(params: SystemParams, p: PenaltySpec, cfg: SimConfig) -> SimReport:
    """Best-effort baseline: update at every opportunity energy permits.

    Equivalent to the all-zero-threshold policy. The nonzero inter-update
    gaps stay exponential, so its average age is 1/mu for every battery
    size -- a useful yardstick the threshold policies beat.
    """
    return simulate(params, Policy((0.0,) * params.battery), p, cfg)
