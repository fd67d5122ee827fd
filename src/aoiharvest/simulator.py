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
``SimReport.kernel_s`` times the kernel call less its sink's calls, and
``SimReport.report_s`` the sink's calls and the final combination, both
outside the report's equality and JSON.

Memory: a run holds no array that grows with the renewals. ``simulate``
hands ``run_cycles`` a sink, ``_Sums``, and the kernel passes it each
chunk's cycles from buffers of CHUNK + 1 entries that the next chunk
reuses. The sink keeps one block of BLOCK inter-update times, reduces it
when full (its antiderivative and squares are a block long too), and
keeps the level counts and one row of sums per closed batch. A traced run
peaks at about 0.5 MB whatever the number of renewals, and runs are
capped at 2^53 renewals, where the counts stop being exact doubles.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import _simcore_cache, _simcore_py
from .model import PenaltySpec, Policy, SystemParams, is_int

_kernel = _simcore_cache.load() or _simcore_py
KERNEL = "python" if _kernel is _simcore_py else "c"

GENERATOR_ID = "numpy-pcg64"

# simulate reduces the measured cycles in blocks of BLOCK (see _Sums)
BLOCK = 8192
# Past 2^53 renewals the counts stop being exact doubles.
MAX_RENEWALS = 2**53
_RANGE_ERROR = "simulated statistics outside double range"


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
        if self.renewals > MAX_RENEWALS:
            raise ValueError(f"renewals must be at most 2**53, got {self.renewals}")


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
    n = cfg.renewals - cfg.warmup
    sums = _Sums(params.battery, p, cfg.warmup, n, cfg.batches)
    # a path outside double range fails the finite check below, with no warnings on the way
    try:
        with np.errstate(all="ignore"):
            start = time.perf_counter()
            # the sink goes positionally: a wrapper of run_cycles may pass on positional arguments only
            _kernel.run_cycles(taus, params.mu_h, cfg.renewals, cfg.initial_state, rng, sums)
            kernel_done = time.perf_counter()
            (total_x, total_p, total_x2), batch_x, batch_p = sums.totals()
            avg_penalty = total_p / total_x
            mean_x = total_x / n
            mean_x2 = total_x2 / n
            avg_age = mean_x2 / (2.0 * mean_x)
            nb = len(batch_x)
            ratios = batch_p / batch_x
            stderr = float(ratios.std(ddof=1) / np.sqrt(nb)) if nb > 1 else 0.0
            report_done = time.perf_counter()
    except OverflowError:  # math.fsum's, where finite partials overflow
        raise OverflowError(_RANGE_ERROR) from None
    if not np.isfinite((avg_penalty, avg_age, mean_x, mean_x2, stderr)).all():
        raise OverflowError(_RANGE_ERROR)

    return SimReport(
        avg_penalty=avg_penalty,
        avg_age=avg_age,
        mean_x=mean_x,
        mean_x2=mean_x2,
        state_freq=tuple((sums.counts / n).tolist()),
        stderr=stderr,
        elapsed_sim_time=total_x,
        renewals_measured=n,
        seed=cfg.seed,
        renewals=cfg.renewals,
        warmup=cfg.warmup,
        kernel_s=kernel_done - start - sums.seconds,
        report_s=sums.seconds + report_done - kernel_done,
    )


class _Sums:
    """The sink simulate hands the kernel: it reduces the measured cycles as the walk completes them.

    It drops the first ``warmup`` cycles, counts the post-update levels
    of the rest, and copies their inter-update times x into one block of
    BLOCK cycles. A full block, and the last one, is reduced at once: the
    sums of x, of the penalty antiderivative P(x) and of x^2 over each
    segment of the block, where a segment ends at the block's end or at a
    batch boundary, each one numpy sum (``np.add.reduceat``). A batch is
    one segment of each block it spans, and ``math.fsum`` adds those
    segments when the batch closes; ``totals`` adds the batch sums the
    same way. Each sum thus depends on the measured cycles' indices
    alone, whatever cycles each chunk of the kernel completed.
    ``seconds`` times its calls from the kernel; ``totals`` is left to
    its caller to time.
    """

    def __init__(self, battery: int, penalty: PenaltySpec, warmup: int, n: int, batches: int):
        self.battery = battery
        self.penalty = penalty
        self.skip = warmup
        self.nb = min(batches, n)
        self.m = n // self.nb  # cycles per batch; the last n - nb * m make one more
        self.counts = np.zeros(battery, dtype=np.int64)
        self.block = np.empty(BLOCK)
        self.filled = 0  # cycles in the block
        self.start = 0  # measured index of the block's first cycle
        self.batch = 0  # the open batch
        self.parts = []  # (x, P(x), x^2) sums of the open batch's segments
        self.sums = np.empty((self.nb + 1, 3))  # each closed batch's fsums
        self.seconds = 0.0

    def __call__(self, x, s):
        t0 = time.perf_counter()
        if self.skip:
            k = min(self.skip, len(x))
            self.skip -= k
            x, s = x[k:], s[k:]
        self.counts += np.bincount(s, minlength=self.battery)
        while len(x):
            k = min(BLOCK - self.filled, len(x))
            self.block[self.filled : self.filled + k] = x[:k]
            self.filled += k
            x = x[k:]
            if self.filled == BLOCK:
                self._reduce()
        self.seconds += time.perf_counter() - t0

    def _reduce(self):
        """Add the block's segment sums to their batches and empty the block."""
        lo, xb = self.start, self.block[: self.filled]
        m, nb = self.m, self.nb
        # the batch boundaries k m (1 <= k <= nb) inside the block
        cuts = np.r_[0, m * (lo // m + 1) - lo : min(len(xb), nb * m + 1 - lo) : m]
        parts = np.stack([np.add.reduceat(v, cuts) for v in (xb, self.penalty.antiderivative(xb), xb * xb)], axis=1)
        first = min(lo // m, nb)
        if first != self.batch:
            self._close()
            self.batch = first
        self.parts.append(parts[0].tolist())
        if len(parts) > 1:
            # every segment after the first starts a batch, and all but the last end in the block
            self._close()
            self.sums[first + 1 : first + len(parts) - 1] = parts[1:-1]
            self.batch = first + len(parts) - 1
            self.parts = [parts[-1].tolist()]
        self.start += self.filled
        self.filled = 0

    def _close(self):
        self.sums[self.batch] = [math.fsum(v) for v in zip(*self.parts)]
        self.parts = []

    def totals(self):
        """The sums of x, P(x) and x^2 over every measured cycle, and each batch's sums of x and of P(x)."""
        if self.filled:
            self._reduce()
        self._close()
        batches = self.sums[: self.batch + 1]
        return tuple(math.fsum(v) for v in batches.T.tolist()), batches[: self.nb, 0], batches[: self.nb, 1]


def simulate_greedy(params: SystemParams, p: PenaltySpec, cfg: SimConfig) -> SimReport:
    """Best-effort baseline: update at every opportunity energy permits.

    Equivalent to the all-zero-threshold policy. The nonzero inter-update
    gaps stay exponential, so its average age is 1/mu for every battery
    size -- a useful yardstick the threshold policies beat.
    """
    return simulate(params, Policy((0.0,) * params.battery), p, cfg)
