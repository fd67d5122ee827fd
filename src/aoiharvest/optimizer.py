"""Threshold policy optimization.

One search engine, ``_Search``: Howard's policy iteration for the
semi-Markov decision problem (Puterman 1994, ch. 11). An evaluation gives
the average penalty gamma and, from one more linear solve, the relative
values h of the post-update battery levels; the improvement step then sets
every threshold at once from its Bellman condition

    p(tau_i) = gamma + mu_h (h_{i-1} - h_i)   (i < B),   p(tau_B) = gamma,

the one-step-lookahead stopping rule at each battery level: wait while the
penalty is below the average cost plus the value of one more stored unit.
The paper's fixed point p(tau_B*) = gamma* is the i = B case. Two
optimizers use it:

* ``algorithm1``, a bisection on the full-battery threshold whose
  feasibility test minimizes over the upper thresholds at fixed tau_B
  (the same iteration with tau_B held and every tau_i kept at or above
  it). It rests on the structural result that a monotone solution of the
  moment condition 2 tau_B m1 = m2 exists iff tau_B is at least the
  optimal average age, which yields a certified optimality gap of
  1 / (2^{q+1} mu_h) after q iterations. Each test starts from the gaps
  the previous one ended at and stops at the first policy whose average
  age is at most tau_B, a witness of feasibility; only the final search at
  the feasible endpoint runs to convergence;
* ``optimize_penalty``, the iteration over all thresholds for any power
  penalty, certified by the fixed-point property
  p(tau_B) = optimal average penalty.

``grid_search``, an exhaustive zoomed grid over (tau_B, gaps) with
tau_i = tau_{i+1} + d_i, is the oracle both are checked against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .model import PenaltySpec, Policy, SystemParams, validate_policy
from .renewal import bellman_levels, policy_metrics

# Largest gap on the grid oracle's axes, in units of 1/mu_h.
UPPER_CAP_FACTOR = 10.0
# Policy iteration stops once no threshold moves more than STEP_TOL / mu_h:
# above the evaluator's rounding noise, where at large B tighter tolerances
# see steps wander instead of shrink, and far below any reported digit.
STEP_TOL = 1e-10
MAX_ITERATIONS = 100
# Objectives closer than this, relative, are equal: the evaluator's rounding
# grows with B (3e-14 at B = 64), while a step whose Bellman residual is
# still 1e-7 lowers the objective by about 1e-14 more.
OBJECTIVE_TIE = 1e-12
# The bisection bracket [1/(2 mu), 1/mu] has width 2^-(q+1) / mu after q
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
        if not 1 <= self.q <= MAX_Q or self.grid_points < 2:
            raise ValueError(f"need 1 <= q <= {MAX_Q} and grid_points >= 2")
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


def _build_thresholds(tau_b: float, gaps) -> tuple[float, ...]:
    """tau_B = tau_b; tau_i = tau_{i+1} + gaps[i-1] walking upward."""
    taus = [tau_b]
    for g in reversed(gaps):
        taus.append(taus[-1] + g)
    return tuple(reversed(taus))


def _objective(params: SystemParams, penalty: PenaltySpec, taus) -> float:
    return policy_metrics(params, Policy(taus), penalty).avg_penalty


def _zoomed_grid(params, penalty, lows, highs, bounds, points, rounds):
    """Deterministic multi-round grid refinement over (tau_b, gaps).

    Each round lays a uniform grid per dimension, keeps the best vertex
    (ties broken by lexicographically smallest threshold vector), and
    shrinks every dimension to one grid step around it, clipped to the
    outer bounds.
    """
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    blo = np.asarray([b[0] for b in bounds])
    bhi = np.asarray([b[1] for b in bounds])
    ndim = len(lows)
    if points**ndim > 10**8:
        raise BudgetExceeded(f"{points}^{ndim} grid combinations exceed the budget")
    best_val = math.inf
    best_taus = None
    best_vec = None
    for _ in range(rounds):
        axes = [np.linspace(lows[d], highs[d], points) for d in range(ndim)]
        for vec in itertools.product(*axes):
            taus = _build_thresholds(vec[0], vec[1:])
            val = _objective(params, penalty, taus)
            if val < best_val or (val == best_val and taus < best_taus):
                best_val, best_taus, best_vec = val, taus, np.asarray(vec)
        step = (highs - lows) / (points - 1)
        lows = np.maximum(best_vec - step, blo)
        highs = np.minimum(best_vec + step, bhi)
    return best_taus, best_val


def grid_search(params: SystemParams, config: OptimizerConfig) -> OptimizationResult:
    """Exhaustive zoomed grid over tau_B in [1/(2mu), 1/mu] and gaps.

    Deterministic oracle; the zoom rounds refine resolution without
    enumerating an intractably fine single-pass grid.
    """
    mu = params.mu_h
    B = params.battery
    cap = UPPER_CAP_FACTOR / mu
    lows = [0.5 / mu] + [0.0] * (B - 1)
    highs = [1.0 / mu] + [cap] * (B - 1)
    bounds = list(zip(lows, highs))
    taus, val = _zoomed_grid(
        params, config.penalty, lows, highs, bounds, config.grid_points, config.grid_rounds
    )
    return OptimizationResult(
        policy=validate_policy(params, taus),
        objective=val,
        gap_bound=None,
        trace=(),
        evaluations=config.grid_rounds * config.grid_points**B,
        fixed_point_residual=abs(config.penalty(taus[-1]) - val),
        stop_reason="grid exhausted",
    )


@dataclass(frozen=True)
class _Point:
    """An evaluated policy: thresholds, objective and Bellman levels."""

    taus: tuple[float, ...]
    objective: float
    levels: np.ndarray


class _Search:
    """Policy iteration on the per-level Bellman conditions.

    Each iteration evaluates the policy (one policy_metrics call and one
    solve for the relative values) and moves every threshold to the age at
    which the penalty reaches its Bellman level, tau_i = p^{-1}(level_i).
    With tau_b fixed, tau_B stays put. Every threshold is kept at or above
    the one below it, so the policy stays monotone. The first run starts
    from one fixed point, every later one from the gaps the previous run
    ended at; the start scales with 1/mu_h. ``evaluations`` counts the
    policies evaluated over all runs, ``stop_reason`` says why the last
    run stopped.
    """

    def __init__(self, params: SystemParams, config: OptimizerConfig):
        self.params = params
        self.penalty = config.penalty
        self.gaps = np.full(params.battery - 1, 0.4 / params.mu_h)
        self.evaluations = 0
        self.stop_reason = ""

    def _evaluate(self, taus) -> _Point:
        self.evaluations += 1
        m = policy_metrics(self.params, Policy(taus), self.penalty)
        return _Point(taus, m.avg_penalty, bellman_levels(self.params, m))

    def run(self, tau_b: float | None = None, stop_at: float = -math.inf) -> _Point:
        """Iterate to the optimum; returns the best policy evaluated.

        Stops when no threshold moves more than STEP_TOL / mu_h, when the
        objective stops falling by more than OBJECTIVE_TIE, or at the first
        evaluated policy whose objective is at most stop_at.
        """
        if tau_b is not None and tau_b <= 0:
            raise ValueError("tau_b must be positive")
        mu = self.params.mu_h
        taus = _build_thresholds(0.75 / mu if tau_b is None else tau_b, self.gaps)
        best = None
        self.stop_reason = "iteration limit"
        for _ in range(MAX_ITERATIONS):
            point = self._evaluate(taus)
            tie = 0.0 if best is None else OBJECTIVE_TIE * abs(best.objective)
            falling = best is None or point.objective < best.objective - tie
            if falling or point.objective <= best.objective + tie:
                best = point  # on a tie the later point, nearer the fixed point
            if not falling:
                self.stop_reason = "objective stopped falling"
                break
            if point.objective <= stop_at:
                self.stop_reason = "witness"
                break
            improved = self.penalty.inverse(point.levels)
            if tau_b is not None:
                improved[-1] = tau_b
            improved = np.maximum.accumulate(improved[::-1])[::-1]  # tau_i >= tau_{i+1}
            if not np.isfinite(improved).all():
                self.stop_reason = "non-finite thresholds"
                break
            if np.abs(improved - taus).max() <= STEP_TOL / mu:
                self.stop_reason = "converged"
                break
            taus = tuple(improved.tolist())
        self.gaps = np.diff(best.taus[::-1])[::-1]
        return best


def inner_minimize(
    params: SystemParams, config: OptimizerConfig, tau_b: float
) -> tuple[tuple[float, ...], float]:
    """Minimize the average penalty over the upper thresholds at fixed tau_B.

    Returns (tau_1..tau_{B-1}, objective).
    """
    point = _Search(params, config).run(tau_b)
    return point.taus[:-1], point.objective


def feasible(
    params: SystemParams, config: OptimizerConfig, tau_b: float, search: _Search | None = None
) -> bool:
    """Does a monotone solution of 2 tau_B m1 = m2 exist at this tau_B?

    The moment condition rewrites as avg_age = tau_B; avg_age is
    continuous in the upper thresholds and grows without bound, so a
    root exists iff the minimum over upper thresholds is <= tau_B. Any
    policy with avg_age <= tau_B proves it, so the search stops at the
    first one. ``search`` carries the warm start from test to test.
    """
    level = tau_b + 1e-9
    return (search or _Search(params, config)).run(tau_b, stop_at=level).objective <= level


def _require_identity(config: OptimizerConfig):
    if config.penalty.terms != ((1.0, 1.0),):
        raise ValueError("the bisection gap certificate holds for the identity penalty only")


def _result(params, config, search: _Search, point: _Point, **fields) -> OptimizationResult:
    policy = validate_policy(params, point.taus)
    p_taus = config.penalty(np.asarray(policy.thresholds))
    return OptimizationResult(
        policy=policy,
        objective=point.objective,
        evaluations=search.evaluations,
        fixed_point_residual=abs(float(p_taus[-1]) - point.objective),
        stop_reason=search.stop_reason,
        bellman_residual=float(np.abs(p_taus - point.levels).max()),
        **fields,
    )


def algorithm1(params: SystemParams, config: OptimizerConfig) -> OptimizationResult:
    """Bisection on the full-battery threshold with a certified age gap.

    Starts from the bracket [1/(2 mu), 1/mu]; each feasibility test
    halves the interval containing the optimal average age. The returned
    policy is the inner minimizer at the terminal feasible endpoint, so
    its average age is within 1/(2^{q+1} mu) of optimal.
    """
    _require_identity(config)
    mu = params.mu_h
    lo, hi = 0.5 / mu, 1.0 / mu
    search = _Search(params, config)
    if not feasible(params, config, hi, search):
        raise BracketInvalid(f"upper bracket endpoint {hi} is infeasible")
    trace = [(lo, hi)]
    for _ in range(config.q):
        mid = 0.5 * (lo + hi)
        if feasible(params, config, mid, search):
            hi = mid
        else:
            lo = mid
        trace.append((lo, hi))
    point = search.run(hi)
    return _result(
        params, config, search, point, gap_bound=1.0 / (2.0 ** (config.q + 1) * mu), trace=tuple(trace)
    )


def optimize_penalty(params: SystemParams, config: OptimizerConfig) -> OptimizationResult:
    """Policy iteration over all thresholds for any supported penalty.

    Certified by the fixed point
    |p(tau_B) - objective| <= 10 * refine_tol * max(1, objective).
    """
    search = _Search(params, config)
    result = _result(params, config, search, search.run(), gap_bound=None, trace=())
    certified = result.fixed_point_residual <= 10.0 * config.refine_tol * max(1.0, result.objective)
    return replace(result, certified=certified)
