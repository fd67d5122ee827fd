"""Threshold policy optimization.

One search engine, ``_Search``: Howard's policy iteration for the
semi-Markov decision problem (Puterman 1994, ch. 11). An evaluation gives
the average penalty gamma and, from one more O(B^2) recursion when a step
reads them, the relative values h of the post-update battery levels; the
improvement step then sets every threshold at once from its Bellman
condition

    p(tau_i) = gamma + mu_h (h_{i-1} - h_i)   (i < B),   p(tau_B) = gamma,

the one-step-lookahead stopping rule at each battery level: wait while the
penalty is below the average cost plus the value of one more stored unit.
The paper's fixed point p(tau_B*) = gamma* is the i = B case. Two
optimizers use it:

* ``algorithm1``, a bisection on the full-battery threshold. It rests
  on the structural result that a monotone solution of the moment
  condition 2 tau_B m1 = m2 exists iff tau_B is at least the optimal
  average age, which yields a certified optimality gap of
  1 / (2^{q+1} mu_h) after q iterations. One unpinned run of the
  iteration gives gamma, the optimal unit-rate age, and every step is
  answered by mid >= gamma, at no evaluation; the final search at the
  feasible endpoint (the iteration with tau_B pinned there) starts at the
  optimum with tau_B moved to that endpoint, every upper threshold kept
  at or above it. ``feasible``, one cold pinned search, asks the step's
  question directly and stays as the oracle the tests check the steps
  against;
* ``optimize_penalty``, the iteration over all thresholds for any power
  penalty, certified by the fixed-point property
  p(tau_B) = optimal average penalty.

``grid_search``, an exhaustive zoomed grid over (tau_B, gaps) with
tau_i = tau_{i+1} + d_i, is the oracle both are checked against.

Every search runs at unit rate, on SystemParams(1.0, B): the optimal
thresholds scale as 1/mu_h, tau*(mu_h) = tau*(1) / mu_h, so the
thresholds searched are z = mu_h tau, and the penalty is p(z / mu_h)
(_unit_penalty), whose average is the average penalty at
rate mu_h. ``algorithm1`` bisects on the unit-rate age itself, with the
identity penalty. The rate enters once, where each result is built: the
thresholds are z / mu_h, and algorithm1's objective, gap bound, trace
and residuals are divided by mu_h.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .erlang import _RANGE_ERROR
from .model import PenaltySpec, Policy, PolicyMetrics, SystemParams, is_int, validate_policy
from .renewal import avg_penalties, bellman_levels, policy_metrics

# Largest gap on the grid oracle's axes, at unit rate.
UPPER_CAP_FACTOR = 10.0
# Policy iteration stops once no unit-rate threshold moves more than STEP_TOL:
# above the evaluator's rounding noise, where at large B tighter tolerances
# see steps wander instead of shrink, and far below any reported digit.
STEP_TOL = 1e-10
MAX_ITERATIONS = 100
# Grid vertices per evaluator call: one call holds a round of the default
# 15-point grid up to B = 3, and memory stays bounded for any grid size.
GRID_BATCH = 4096
# Objectives closer than this, relative, are equal: the evaluator's rounding
# grows with B (3e-14 at B = 64), while a step whose Bellman residual is
# still 1e-7 lowers the objective by about 1e-14 more.
OBJECTIVE_TIE = 1e-12
# A tie ends policy iteration only where the Bellman residual of the thresholds
# it moves is at most this, relative to max(1, |objective|), or on a second tie
# in a row: at B = 4096 a step still 3.5e-10 from the fixed point lowers the
# objective by less than OBJECTIVE_TIE.
TIE_RESIDUAL = 1e-12
# The unit-rate bisection bracket [1/2, 1] has width 2^-(q+1) after q
# steps; past about 52 its midpoint rounds onto an endpoint.
MAX_Q = 50


class BudgetExceeded(RuntimeError):
    pass


class BracketInvalid(RuntimeError):
    pass


@dataclass(frozen=True)
class OptimizerConfig:
    q: int = 10
    grid_points: int = 15
    refine_tol: float = 1e-6
    penalty: PenaltySpec = field(default_factory=PenaltySpec.identity)
    grid_rounds: int = 6

    def __post_init__(self):
        counts = (self.q, self.grid_points, self.grid_rounds)
        if not all(map(is_int, counts)):
            raise ValueError(f"q, grid_points and grid_rounds must be integers, got {counts!r}")
        if not 1 <= self.q <= MAX_Q or self.grid_points < 2 or self.grid_rounds < 1:
            raise ValueError(f"need 1 <= q <= {MAX_Q}, grid_points >= 2 and grid_rounds >= 1")
        if not (math.isfinite(self.refine_tol) and self.refine_tol > 0):
            raise ValueError(f"refine_tol must be positive and finite, got {self.refine_tol!r}")


@dataclass(frozen=True)
class OptimizationResult:
    """An optimizer's answer and how it got there.

    evaluations counts the policies evaluated; fixed_point_residual is
    |p(tau_B) - objective| and bellman_residual the largest
    |p(tau_i) - level_i| over the B Bellman conditions
    (renewal.bellman_levels) at the returned policy; both vanish at the
    optimum. stop_reason says why the last search stopped.
    """

    policy: Policy
    objective: float
    gap_bound: float | None
    trace: tuple[tuple[float, float], ...]
    certified: bool = True
    evaluations: int = 0
    fixed_point_residual: float = math.nan
    stop_reason: str = ""
    bellman_residual: float = math.nan


def _cold_start(battery: int, z_b: float = 0.75) -> tuple[float, ...]:
    """tau_B = z_b; tau_i = tau_{i+1} + gap walking upward, with an even gap
    of 0.4, or of 1.25 / (B - 1) where that is smaller (B >= 5): from
    tau_B = 0.75 the start has z_1 <= 2 whatever B, not 0.4 B."""
    gap = min(0.4, 1.25 / max(1, battery - 1))
    taus = [z_b]
    for _ in range(battery - 1):
        taus.append(taus[-1] + gap)
    return tuple(reversed(taus))


def _zoomed_grid(params, penalty, lows, highs, points, rounds):
    """Deterministic multi-round grid refinement over (tau_b, gaps).

    Each round evaluates its points^ndim vertices in batches of at most
    GRID_BATCH, keeps the best vertex (ties broken by lexicographically
    smallest threshold vector; vertices whose objective leaves double range
    are passed over), and shrinks every dimension to one grid step around
    it, clipped to the first round's box [lows, highs].
    """
    blo = lows = np.asarray(lows, dtype=float)
    bhi = highs = np.asarray(highs, dtype=float)
    ndim = len(lows)
    total = points**ndim
    if total > 10**8:
        raise BudgetExceeded(f"{points}^{ndim} grid combinations exceed the budget")
    best_val = math.inf
    best_taus = None
    best_vec = None
    for _ in range(rounds):
        axes = [np.linspace(lows[d], highs[d], points) for d in range(ndim)]
        for start in range(0, total, GRID_BATCH):
            # vertices in itertools.product order: the last axis varies fastest
            index = np.unravel_index(np.arange(start, min(start + GRID_BATCH, total)), (points,) * ndim)
            vecs = np.stack([axes[d][index[d]] for d in range(ndim)], axis=1)
            # tau_B = vec[0], then tau_i = tau_{i+1} + gap_i upward, summed in that order
            taus = np.add.accumulate(vecs[:, [0, *range(ndim - 1, 0, -1)]], axis=1)[:, ::-1]
            vals = avg_penalties(params, taus, penalty)
            if vals.min() == math.inf:
                continue  # no vertex of this batch has a finite objective
            ties = np.flatnonzero(vals == vals.min())
            k = min(ties, key=lambda i: taus[i].tolist())
            val, cand = float(vals[k]), tuple(taus[k].tolist())
            if val < best_val or (val == best_val and cand < best_taus):
                best_val, best_taus, best_vec = val, cand, vecs[k]
        if best_vec is None:
            raise OverflowError("policy metrics outside double range at every grid vertex")
        step = (highs - lows) / (points - 1)
        lows = np.maximum(best_vec - step, blo)
        highs = np.minimum(best_vec + step, bhi)
    return best_taus, best_val


def _unit_penalty(p: PenaltySpec, mu: float) -> PenaltySpec:
    """p(z / mu_h), the penalty of the unit-rate age z = mu_h x.

    Each term c x^a becomes c mu_h^-a z^a. Raises OverflowError when
    mu_h^-a or c mu_h^-a is outside the normal range of doubles: the
    objective is then outside double range too, or the search would see a
    term that lost its digits.
    """
    try:
        factors = [mu**-a for _, a in p.terms]
    except OverflowError:
        raise OverflowError(_RANGE_ERROR) from None
    coefficients = [c * f for (c, _), f in zip(p.terms, factors)]
    if not all(sys.float_info.min <= x <= sys.float_info.max for x in factors + coefficients):
        raise OverflowError(_RANGE_ERROR)
    return PenaltySpec(tuple(zip(coefficients, (a for _, a in p.terms))))


def grid_search(params: SystemParams, config: OptimizerConfig) -> OptimizationResult:
    """Exhaustive zoomed grid over tau_B in [1/(2mu), 1/mu] and gaps.

    Deterministic oracle; the zoom rounds refine resolution without
    enumerating an intractably fine single-pass grid. The grid runs at
    unit rate, tau_B in [1/2, 1] and gaps up to UPPER_CAP_FACTOR.
    """
    B = params.battery
    penalty = _unit_penalty(config.penalty, params.mu_h)
    lows = [0.5] + [0.0] * (B - 1)
    highs = [1.0] + [UPPER_CAP_FACTOR] * (B - 1)
    taus, val = _zoomed_grid(SystemParams(1.0, B), penalty, lows, highs, config.grid_points, config.grid_rounds)
    return OptimizationResult(
        policy=validate_policy(params, [z / params.mu_h for z in taus]),
        objective=val,
        gap_bound=None,
        trace=(),
        evaluations=config.grid_rounds * config.grid_points**B,
        fixed_point_residual=abs(penalty(taus[-1]) - val),
        stop_reason="grid exhausted",
    )


@dataclass(frozen=True)
class _Point:
    """An evaluated policy: thresholds, objective and metrics.

    Its Bellman levels are solved for when first read.
    """

    taus: tuple[float, ...]
    objective: float
    params: SystemParams
    metrics: PolicyMetrics

    @cached_property
    def levels(self) -> np.ndarray:
        return bellman_levels(self.params, self.metrics)


class _Search:
    """Policy iteration on the per-level Bellman conditions.

    Each iteration evaluates the policy (one policy_metrics call, and one
    recursion for the relative values when a step or the certificate reads
    them) and moves every threshold to the age at which the penalty
    reaches its Bellman level, tau_i = p^{-1}(level_i). A pinned run keeps
    tau_B at its start's, so a step whose only threshold is tau_B reads no
    levels. Every threshold is kept at or above the one below it, so the
    policy stays monotone. The search runs at unit rate: its thresholds
    are z = mu_h tau and its penalty one of z. ``evaluations`` counts the
    policies evaluated over all runs, ``stop_reason`` says why the last
    run stopped.
    """

    def __init__(self, battery: int, penalty: PenaltySpec):
        self.params = SystemParams(1.0, battery)
        self.penalty = penalty
        self.evaluations = 0
        self.stop_reason = ""

    def _evaluate(self, taus) -> _Point:
        self.evaluations += 1
        m = policy_metrics(self.params, Policy(taus), self.penalty)
        return _Point(taus, m.avg_penalty, self.params, m)

    def _improve(self, point: _Point, pinned: bool) -> np.ndarray:
        """Every threshold at p^{-1} of its Bellman level, tau_B kept when pinned."""
        if pinned and len(point.taus) == 1:
            return np.array(point.taus)  # the only threshold is pinned
        improved = self.penalty.inverse(point.levels)
        if pinned:
            improved[-1] = point.taus[-1]
        return improved

    def _residual(self, point: _Point, pinned: bool) -> float:
        """max |p(tau_i) - level_i| over the thresholds the run moves (0 where it moves none)."""
        moved = len(point.taus) - pinned
        if not moved:
            return 0.0
        return float(np.abs(self.penalty(np.asarray(point.taus[:moved])) - point.levels[:moved]).max())

    def run(self, taus, pinned: bool = False) -> _Point:
        """Iterate from the thresholds taus; returns the best policy evaluated.

        Stops when no threshold moves more than STEP_TOL, when the objective
        rises by more than OBJECTIVE_TIE, or when it ties within
        OBJECTIVE_TIE where the Bellman residual is at most TIE_RESIDUAL
        relative, or for a second time in a row. With pinned, tau_B stays
        at taus[-1].
        """
        taus = tuple(taus)
        best = None
        tied = False
        self.stop_reason = "iteration limit"
        for _ in range(MAX_ITERATIONS):
            point = self._evaluate(taus)
            tie = 0.0 if best is None else OBJECTIVE_TIE * abs(best.objective)
            falling = best is None or point.objective < best.objective - tie
            if falling or point.objective <= best.objective + tie:
                best = point  # on a tie the later point, nearer the fixed point
            if not falling:
                # the levels read here are the ones the next step reads
                bound = TIE_RESIDUAL * max(1.0, abs(point.objective))
                if best is not point or tied or self._residual(point, pinned) <= bound:
                    self.stop_reason = "objective stopped falling"
                    break
            tied = not falling
            improved = self._improve(point, pinned).tolist()
            if not all(map(math.isfinite, improved)):
                self.stop_reason = "non-finite thresholds"
                break
            # tau_i >= tau_{i+1}: a running maximum from tau_B up that keeps
            # tau_i on a tie, as np.maximum.accumulate does
            for i in range(len(improved) - 2, -1, -1):
                if improved[i + 1] > improved[i]:
                    improved[i] = improved[i + 1]
            if max(abs(new - old) for new, old in zip(improved, taus)) <= STEP_TOL:
                self.stop_reason = "converged"
                break
            taus = tuple(improved)
        return best


def feasible(params: SystemParams, config: OptimizerConfig, tau_b: float) -> bool:
    """Does a monotone solution of 2 tau_B m1 = m2 exist at this tau_B?

    The moment condition rewrites as avg_age = tau_B; avg_age is
    continuous in the upper thresholds and grows without bound, so a
    root exists iff the minimum over upper thresholds is <= tau_B. One
    cold search with tau_B pinned at z_B = mu_h tau_B finds that minimum,
    at unit rate, on the unit-rate age. ``algorithm1`` answers the same
    question from the optimal age; this test asks it directly, so it
    stays as the per-step oracle the tests check the steps against.
    """
    _require_identity(config)
    if not tau_b > 0:  # NaN too
        raise ValueError("tau_b must be positive")
    z_b = tau_b * params.mu_h
    search = _Search(params.battery, config.penalty)
    return search.run(_cold_start(params.battery, z_b), pinned=True).objective <= z_b


def _require_identity(config: OptimizerConfig):
    if config.penalty.terms != ((1.0, 1.0),):
        raise ValueError("the bisection gap certificate holds for the identity penalty only")


def _result(
    params, search: _Search, point: _Point, scale=1.0, tolerance=None, gap_bound=None, trace=()
) -> OptimizationResult:
    """The answer at point, found at unit rate: its thresholds divided by
    mu_h, and its objective, residuals, gap bound and trace by scale (mu_h
    where the search's penalty is the unit-rate age, 1 where it is
    p(z / mu_h)). Certified unless a tolerance is given and the fixed-point
    residual exceeds it. Raises OverflowError when a threshold or the
    objective leaves double range at rate mu_h."""
    thresholds = [z / params.mu_h for z in point.taus]
    if any(map(math.isinf, thresholds)) or math.isinf(point.objective / scale):
        raise OverflowError(_RANGE_ERROR)
    policy = validate_policy(params, thresholds)
    p_taus = search.penalty(np.asarray(point.taus))
    fixed_point_residual = abs(float(p_taus[-1]) - point.objective)
    return OptimizationResult(
        policy=policy,
        objective=point.objective / scale,
        gap_bound=None if gap_bound is None else gap_bound / scale,
        trace=tuple((lo / scale, hi / scale) for lo, hi in trace),
        certified=tolerance is None or fixed_point_residual <= tolerance,
        evaluations=search.evaluations,
        fixed_point_residual=fixed_point_residual / scale,
        stop_reason=search.stop_reason,
        bellman_residual=float(np.abs(p_taus - point.levels).max()) / scale,
    )


def algorithm1(params: SystemParams, config: OptimizerConfig) -> OptimizationResult:
    """Bisection on the full-battery threshold with a certified age gap.

    Starts from the bracket [1/(2 mu), 1/mu]; each step halves the
    interval containing the optimal average age. The steps are answered
    from gamma, the age of the optimum of one unpinned policy iteration:
    tau_B is feasible exactly when it is at least the optimal age, and
    gamma is the age of an evaluated policy, which shows every
    mid >= gamma feasible. ``feasible``, the per-step oracle the tests
    check the steps against, decides the same. The
    returned policy is the inner minimizer at the terminal feasible
    endpoint, so its average age is within 1/(2^{q+1} mu) of optimal. The
    bisection runs at unit rate, on [1/2, 1]; ``evaluations`` counts the
    policy iteration and the final search.
    """
    _require_identity(config)
    search = _Search(params.battery, config.penalty)
    optimum = search.run(_cold_start(params.battery))
    gamma = optimum.objective
    lo, hi = 0.5, 1.0
    if not lo <= gamma <= hi:
        raise BracketInvalid(
            f"optimal average age {gamma / params.mu_h} is outside the bracket "
            f"[{lo / params.mu_h}, {hi / params.mu_h}]"
        )
    trace = [(lo, hi)]
    for _ in range(config.q):
        mid = 0.5 * (lo + hi)
        if mid >= gamma:
            hi = mid
        else:
            lo = mid
        trace.append((lo, hi))
    # the final search starts at the optimum with tau_B moved to hi, every
    # upper threshold kept at or above it
    point = search.run([max(z, hi) for z in optimum.taus[:-1]] + [hi], pinned=True)
    return _result(
        params, search, point, params.mu_h, gap_bound=1.0 / 2.0 ** (config.q + 1), trace=trace
    )


def optimize_penalty(params: SystemParams, config: OptimizerConfig) -> OptimizationResult:
    """Policy iteration over all thresholds for any supported penalty.

    Certified by the fixed point
    |p(tau_B) - objective| <= 10 * refine_tol * max(1, objective).
    """
    search = _Search(params.battery, _unit_penalty(config.penalty, params.mu_h))
    point = search.run(_cold_start(params.battery))
    tolerance = 10.0 * config.refine_tol * max(1.0, point.objective)
    return _result(params, search, point, tolerance=tolerance)
