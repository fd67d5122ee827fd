"""Threshold policy optimization.

One search engine, ``_search`` (bounded L-BFGS-B from one fixed start),
behind two optimizers:

* ``algorithm1``, a bisection on the full-battery threshold whose
  feasibility test minimizes over the upper thresholds at fixed tau_B. It
  rests on the structural result that a monotone solution of the moment
  condition 2 tau_B m1 = m2 exists iff tau_B is at least the optimal
  average age, which yields a certified optimality gap of
  1 / (2^{q+1} mu_h) after q iterations;
* ``optimize_penalty``, a joint minimization over all thresholds for any
  power penalty, certified by the fixed-point property
  p(tau_B) = optimal average penalty.

``grid_search``, an exhaustive zoomed grid, is the oracle both are checked
against.

Thresholds are searched as (tau_B, gaps): tau_{i} = tau_{i+1} + d_i with
d_i >= 0, so monotonicity holds by construction and ties (empty
intervals) sit on the search-space boundary.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .model import PenaltySpec, Policy, SystemParams, validate_policy
from .renewal import policy_metrics

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
    policy: Policy
    objective: float
    gap_bound: float | None
    trace: tuple[tuple[float, float], ...]
    certified: bool = True


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
        policy=validate_policy(params, taus), objective=val, gap_bound=None, trace=()
    )


def _search(
    params: SystemParams, penalty: PenaltySpec, tol: float, tau_b: float | None = None
) -> tuple[tuple[float, ...], float]:
    """Bounded L-BFGS-B minimization of the average penalty.

    Searches (tau_B, gaps) jointly, or the gaps alone when tau_b is fixed,
    with finite-difference gradients, from one fixed start. The start and
    the box scale with 1/mu_h. Returns (tau_1..tau_B, objective).
    """
    mu = params.mu_h
    ngaps = params.battery - 1
    x0 = [0.4 / mu] * ngaps
    bounds = [(0.0, 2.0 * UPPER_CAP_FACTOR / mu)] * ngaps
    if tau_b is None:
        x0 = [0.75 / mu] + x0
        bounds = [(1e-9 / mu, 4.0 / mu)] + bounds

    def thresholds(v):
        return _build_thresholds(v[0], v[1:]) if tau_b is None else _build_thresholds(tau_b, v)

    res = minimize(
        lambda v: _objective(params, penalty, thresholds(v)),
        np.asarray(x0),
        method="L-BFGS-B",
        bounds=bounds,
        options={"ftol": 1e-15, "gtol": 1e-4 * tol},
    )
    return thresholds(res.x), float(res.fun)


def inner_minimize(
    params: SystemParams, config: OptimizerConfig, tau_b: float
) -> tuple[tuple[float, ...], float]:
    """Minimize the average penalty over the upper thresholds at fixed tau_B.

    Returns (tau_1..tau_{B-1}, objective).
    """
    if tau_b <= 0:
        raise ValueError("tau_b must be positive")
    if params.battery == 1:
        return (), _objective(params, config.penalty, (tau_b,))
    taus, val = _search(params, config.penalty, config.refine_tol, tau_b)
    return taus[:-1], val


def feasible(params: SystemParams, config: OptimizerConfig, tau_b: float) -> bool:
    """Does a monotone solution of 2 tau_B m1 = m2 exist at this tau_B?

    The moment condition rewrites as avg_age = tau_B; avg_age is
    continuous in the upper thresholds and grows without bound, so a
    root exists iff the minimum over upper thresholds is <= tau_B.
    """
    _, val = inner_minimize(params, config, tau_b)
    return val <= tau_b + 1e-9


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
    if not feasible(params, config, hi):
        raise BracketInvalid(f"upper bracket endpoint {hi} is infeasible")
    trace = [(lo, hi)]
    for _ in range(config.q):
        mid = 0.5 * (lo + hi)
        if feasible(params, config, mid):
            hi = mid
        else:
            lo = mid
        trace.append((lo, hi))
    uppers, val = inner_minimize(params, config, hi)
    policy = validate_policy(params, uppers + (hi,))
    return OptimizationResult(
        policy=policy,
        objective=val,
        gap_bound=1.0 / (2.0 ** (config.q + 1) * mu),
        trace=tuple(trace),
    )


def optimize_penalty(params: SystemParams, config: OptimizerConfig) -> OptimizationResult:
    """Joint minimization over all thresholds for any supported penalty.

    Certified by the fixed point |p(tau_B) - objective| <= 10 * refine_tol.
    """
    taus, val = _search(params, config.penalty, config.refine_tol)
    policy = validate_policy(params, taus)
    certified = abs(config.penalty(policy.tau_full) - val) <= 10.0 * config.refine_tol
    return OptimizationResult(
        policy=policy, objective=val, gap_bound=None, trace=(), certified=certified
    )
