"""Threshold policy optimization.

One search engine, ``_Search`` (bounded L-BFGS-B with exact gradients),
behind two optimizers:

* ``algorithm1``, a bisection on the full-battery threshold whose
  feasibility test minimizes over the upper thresholds at fixed tau_B. It
  rests on the structural result that a monotone solution of the moment
  condition 2 tau_B m1 = m2 exists iff tau_B is at least the optimal
  average age, which yields a certified optimality gap of
  1 / (2^{q+1} mu_h) after q iterations. Each test starts from the gaps
  the previous one ended at and stops at the first policy whose average
  age is at most tau_B, a witness of feasibility; only the final search at
  the feasible endpoint runs to convergence;
* ``optimize_penalty``, a joint minimization over all thresholds for any
  power penalty, certified by the fixed-point property
  p(tau_B) = optimal average penalty.

``grid_search``, an exhaustive zoomed grid, is the oracle both are checked
against.

Thresholds are searched as (tau_B, gaps): tau_{i} = tau_{i+1} + d_i with
d_i >= 0, so monotonicity holds by construction and ties (empty
intervals) sit on the search-space boundary. The gradient in
(tau_1..tau_B) comes from ``renewal.avg_penalty_gradient``; since every
tau_i moves with tau_B and with the gaps d_k for k >= i, the gradient in
d_k is the sum of the first k entries and the one in tau_B the total.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize

from .model import PenaltySpec, Policy, SystemParams, validate_policy
from .renewal import avg_penalty_gradient, policy_metrics

# Largest gap on the grid oracle's axes, in units of 1/mu_h; the engine's
# bounds allow twice that.
UPPER_CAP_FACTOR = 10.0


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
        if self.q < 1 or self.grid_points < 2 or self.refine_tol <= 0:
            raise ValueError("invalid optimizer configuration")


@dataclass(frozen=True)
class OptimizationResult:
    """An optimizer's answer and how it got there.

    evaluations counts the policies evaluated; fixed_point_residual is
    |p(tau_B) - objective|, which vanishes at the optimum.
    """

    policy: Policy
    objective: float
    gap_bound: float | None
    trace: tuple[tuple[float, float], ...]
    certified: bool = True
    evaluations: int = 0
    fixed_point_residual: float = math.nan


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


def _result(params, config, taus, objective, **fields) -> OptimizationResult:
    policy = validate_policy(params, taus)
    residual = abs(config.penalty(policy.tau_full) - objective)
    return OptimizationResult(policy=policy, objective=objective, fixed_point_residual=residual, **fields)


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
    evaluations = config.grid_rounds * config.grid_points**B
    return _result(params, config, taus, val, gap_bound=None, trace=(), evaluations=evaluations)


class _Witness(Exception):
    """A policy whose objective reached the stop level ends the search."""

    def __init__(self, x, value):
        super().__init__()
        self.x, self.value = x, value


class _Search:
    """Bounded L-BFGS-B minimization of the average penalty, exact gradients.

    Searches (tau_B, gaps) jointly, or the gaps alone when tau_b is fixed.
    The first run starts from one fixed point, every later one from the
    gaps the previous run ended at; the start and the box scale with
    1/mu_h. ``evaluations`` counts the policies evaluated over all runs.
    """

    def __init__(self, params: SystemParams, config: OptimizerConfig):
        self.params = params
        self.penalty = config.penalty
        self.tol = config.refine_tol
        self.gaps = np.full(params.battery - 1, 0.4 / params.mu_h)
        self.evaluations = 0

    def _metrics(self, taus):
        self.evaluations += 1
        policy = Policy(taus)
        return policy, policy_metrics(self.params, policy, self.penalty)

    def run(self, tau_b: float | None = None, stop_at: float = -math.inf) -> tuple[tuple[float, ...], float]:
        """Minimize; returns (tau_1..tau_B, objective).

        Stops at the first evaluated policy whose objective is at most
        stop_at and returns that policy.
        """
        mu = self.params.mu_h
        ngaps = self.params.battery - 1
        bounds = [(0.0, 2.0 * UPPER_CAP_FACTOR / mu)] * ngaps
        x0 = self.gaps
        if tau_b is None:
            x0 = np.concatenate(([0.75 / mu], x0))
            bounds = [(1e-9 / mu, 4.0 / mu)] + bounds
        elif tau_b <= 0:
            raise ValueError("tau_b must be positive")

        def thresholds(v):
            return _build_thresholds(v[0], v[1:]) if tau_b is None else _build_thresholds(tau_b, v)

        def fun(v):
            policy, m = self._metrics(thresholds(v))
            if m.avg_penalty <= stop_at:
                raise _Witness(v.copy(), m.avg_penalty)
            # tau_B moves every tau_i, gap d_k moves tau_1..tau_k
            csum = np.cumsum(avg_penalty_gradient(self.params, policy, self.penalty, m))
            return m.avg_penalty, np.roll(csum, 1) if tau_b is None else csum[:-1]

        if len(x0) == 0:  # B = 1 at fixed tau_B: nothing to search
            x, val = x0, self._metrics((tau_b,))[1].avg_penalty
        else:
            try:
                res = minimize(
                    fun,
                    x0,
                    jac=True,
                    method="L-BFGS-B",
                    bounds=bounds,
                    options={"ftol": 1e-15, "gtol": 1e-4 * self.tol},
                )
                x, val = res.x, float(res.fun)
            except _Witness as w:
                x, val = w.x, w.value
        self.gaps = x[len(x) - ngaps :]
        return thresholds(x), val


def inner_minimize(
    params: SystemParams, config: OptimizerConfig, tau_b: float
) -> tuple[tuple[float, ...], float]:
    """Minimize the average penalty over the upper thresholds at fixed tau_B.

    Returns (tau_1..tau_{B-1}, objective).
    """
    taus, val = _Search(params, config).run(tau_b)
    return taus[:-1], val


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
    _, val = (search or _Search(params, config)).run(tau_b, stop_at=level)
    return val <= level


def _require_identity(config: OptimizerConfig):
    if config.penalty.terms != ((1.0, 1.0),):
        raise ValueError("the bisection gap certificate holds for the identity penalty only")


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
    taus, val = search.run(hi)
    return _result(
        params,
        config,
        taus,
        val,
        gap_bound=1.0 / (2.0 ** (config.q + 1) * mu),
        trace=tuple(trace),
        evaluations=search.evaluations,
    )


def optimize_penalty(params: SystemParams, config: OptimizerConfig) -> OptimizationResult:
    """Joint minimization over all thresholds for any supported penalty.

    Certified by the fixed point |p(tau_B) - objective| <= 10 * refine_tol.
    """
    search = _Search(params, config)
    taus, val = search.run()
    result = _result(params, config, taus, val, gap_bound=None, trace=(), evaluations=search.evaluations)
    certified = result.fixed_point_residual <= 10.0 * config.refine_tol
    return replace(result, certified=certified)
