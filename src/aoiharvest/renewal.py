"""Exact renewal-reward evaluation of monotone threshold policies.

The inter-update time X starting from post-update battery level j has a
piecewise Erlang CDF over the threshold intervals, with point masses at
the thresholds themselves. All moments are computed by integrating the
survival function over those pieces (which handles the atoms for free):

    E[X | j]    = int (1 - F_j),
    E[X^2 | j]  = int 2x (1 - F_j),
    E[P(X) | j] = int p(x) (1 - F_j),

each piece in closed form via the erlang module. Piece [tau_m, tau_{m-1})
carries Pr(Y_{m-j} > x) from start state j, so one prefix row per piece
(its integral for every Erlang order 0..m) serves every start state: B(B+1)/2
power-exponential integrals per moment instead of one Erlang sum per state
and piece. Long-run averages are stationary mixtures of the per-state
moments; the average penalty is the renewal-reward ratio E[P(X)] / E[X]
(for identity penalty this is the classic E[X^2] / 2 E[X] average age).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import stationary, transition_matrix
from .erlang import INF, ErlangKernel, erlang_cdf, weighted_prefix
from .erlang import penalty_weighted_integral, survival_weighted_integral  # noqa: F401  (patched by perfbench/tracer.py)
from .model import PenaltySpec, Policy, PolicyMetrics, SystemParams


class BadState(ValueError):
    pass


class StepBreaksMonotonicity(ValueError):
    pass


@dataclass(frozen=True)
class ConditionalMoments:
    """Per-start-state moments of the inter-update time."""

    ex: np.ndarray
    ex2: np.ndarray
    epx: np.ndarray


def interupdate_cdf(params: SystemParams, policy: Policy, j: int, x: float) -> float:
    """CDF of the inter-update time given post-update battery level j."""
    B = params.battery
    if not 0 <= j <= B - 1:
        raise BadState(f"state must be in [0, {B - 1}], got {j}")
    taus = policy.thresholds
    if x < taus[-1]:
        return 0.0
    if x >= taus[0]:
        return erlang_cdf(ErlangKernel(params.mu_h, 1 - j), x)
    # locate the piece [tau_m, tau_{m-1}) containing x; ties collapse upward
    for m in range(2, B + 1):
        if taus[m - 1] <= x < taus[m - 2]:
            return erlang_cdf(ErlangKernel(params.mu_h, m - j), x)
    raise AssertionError("unreachable: pieces cover [tau_B, inf)")


def conditional_moments(
    params: SystemParams, policy: Policy, p: PenaltySpec
) -> ConditionalMoments:
    """Closed-form E[X|j], E[X^2|j], E[P(X)|j] for every start state."""
    B = params.battery
    mu = params.mu_h
    tau_b = policy.tau_full
    tau = (INF, *policy.thresholds)  # tau[m] = tau_m, tau_0 = +inf

    def rows(terms):
        # rows(terms)[m-1][k] = int over piece m of p(x) Pr(Y_k > x)
        return [weighted_prefix(mu, tau[m], tau[m - 1], terms, m) for m in range(1, B + 1)]

    r1, r2, rp = rows(((1.0, 0),)), rows(((1.0, 1),)), rows(p.terms)
    ex = np.empty(B)
    ex2 = np.empty(B)
    epx = np.empty(B)
    for j in range(B):
        # survival is 1 on [0, tau_B); pieces m <= j carry zero survival
        e1 = tau_b
        e2 = tau_b * tau_b
        ep = p.antiderivative(tau_b)
        for m in range(B, j, -1):
            e1 += r1[m - 1][m - j]
            e2 += 2.0 * r2[m - 1][m - j]
            ep += rp[m - 1][m - j]
        ex[j], ex2[j], epx[j] = e1, e2, ep
    return ConditionalMoments(ex, ex2, epx)


def policy_metrics(
    params: SystemParams, policy: Policy, p: PenaltySpec | None = None
) -> PolicyMetrics:
    """Long-run average age and age-penalty of a monotone threshold policy."""
    if p is None:
        p = PenaltySpec.identity()
    cm = conditional_moments(params, policy, p)
    pi = stationary(transition_matrix(params, policy)).pi
    m1 = float(pi @ cm.ex)
    m2 = float(pi @ cm.ex2)
    avg_age = m2 / (2.0 * m1)
    avg_penalty = float(pi @ cm.epx) / m1
    per_state = tuple(
        (float(cm.ex[j]), float(cm.ex2[j]), float(cm.epx[j])) for j in range(params.battery)
    )
    return PolicyMetrics(m1=m1, m2=m2, avg_age=avg_age, avg_penalty=avg_penalty, per_state=per_state)


def moment_derivative_check(
    params: SystemParams, policy: Policy, i: int, h: float
) -> float:
    """Max residual of the per-state identity d E[X^2|j] = 2 tau_i d E[X|j].

    Central finite differences in threshold i (1-based). Raises when the
    +-h stencil leaves the monotone region.
    """
    B = params.battery
    if not 1 <= i <= B:
        raise BadState(f"threshold index must be in [1, {B}], got {i}")
    if h <= 0:
        raise ValueError("h must be positive")
    taus = list(policy.thresholds)
    up = taus.copy()
    up[i - 1] += h
    dn = taus.copy()
    dn[i - 1] -= h

    def monotone(v):
        return all(a >= b for a, b in zip(v, v[1:])) and v[-1] >= 0

    if not (monotone(up) and monotone(dn)):
        raise StepBreaksMonotonicity(
            f"perturbing tau_{i} by +-{h} leaves the monotone region"
        )
    ident = PenaltySpec.identity()
    cm_up = conditional_moments(params, Policy(tuple(up)), ident)
    cm_dn = conditional_moments(params, Policy(tuple(dn)), ident)
    d_ex = (cm_up.ex - cm_dn.ex) / (2.0 * h)
    d_ex2 = (cm_up.ex2 - cm_dn.ex2) / (2.0 * h)
    return float(np.abs(d_ex2 - 2.0 * taus[i - 1] * d_ex).max())
