"""Age-of-information optimal status updating with an energy-harvesting source.

Analytic evaluation of monotone threshold policies, threshold
optimization with a certified gap, closed forms for small batteries, and
a seeded Monte Carlo simulator validating every analytic quantity.
"""

from .chain import cut_tables, stationary, transition_matrix
from .closedform import b1_average_age, b1_optimal, b2_average_age, lambert_w0
from .model import (
    PenaltySpec,
    Policy,
    PolicyMetrics,
    SystemParams,
    policy_from_json,
    policy_to_json,
    validate_policy,
)
from .optimizer import (
    OptimizationResult,
    OptimizerConfig,
    algorithm1,
    feasible,
    grid_search,
    optimize_penalty,
)
from .renewal import (
    bellman_levels,
    interupdate_cdf,
    moment_derivative_check,
    policy_metrics,
)
from .simulator import KERNEL, SimConfig, SimReport, simulate, simulate_greedy

__all__ = [
    "KERNEL",
    "OptimizationResult",
    "OptimizerConfig",
    "PenaltySpec",
    "Policy",
    "PolicyMetrics",
    "SimConfig",
    "SimReport",
    "SystemParams",
    "algorithm1",
    "b1_average_age",
    "b1_optimal",
    "b2_average_age",
    "bellman_levels",
    "cut_tables",
    "feasible",
    "grid_search",
    "interupdate_cdf",
    "lambert_w0",
    "moment_derivative_check",
    "optimize_penalty",
    "policy_from_json",
    "policy_metrics",
    "policy_to_json",
    "simulate",
    "simulate_greedy",
    "stationary",
    "transition_matrix",
    "validate_policy",
]
