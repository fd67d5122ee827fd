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

Threshold derivatives are endpoint terms by Leibniz's rule: tau_i < tau_B
ends piece i+1 and starts piece i, so d E[f(X)|j] / d tau_i is
f(tau_i) Pr(N(mu tau_i) = i-j) for i >= j and 0 for i < j, and tau_B ends
the head, so d E[f(X)|j] / d tau_B is f(tau_B) Pr(Y_{B-j} <= tau_B).
avg_penalty_gradient combines them with d pi from the chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import stationary, stationary_derivative, transition_matrix
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
    return PolicyMetrics(
        m1=m1, m2=m2, avg_age=avg_age, avg_penalty=avg_penalty, per_state=per_state, pi=tuple(pi.tolist())
    )


def _poisson_rows(z: np.ndarray, n: int) -> np.ndarray:
    """P[r, v] = e^{-z_r} z_r^v / v! for v < n, by erlang_survival's running product."""
    steps = np.empty((len(z), n))
    steps[:, 0] = np.exp(-z)
    steps[:, 1:] = z[:, None] / np.arange(1, n)
    return np.cumprod(steps, axis=1)


def moment_derivatives(params: SystemParams, policy: Policy, p: PenaltySpec) -> ConditionalMoments:
    """Exact threshold derivatives of the conditional moments.

    Each field is a B x B array whose entry [j, i-1] is the derivative of
    the matching ConditionalMoments entry j in tau_i.
    """
    B = params.battery
    taus = np.asarray(policy.thresholds)
    P = _poisson_rows(params.mu_h * taus, B)  # P[i-1, v] = Pr(N(mu tau_i) = v)
    lag = np.arange(1, B + 1) - np.arange(B)[:, None]  # lag[j, i-1] = i - j
    K = np.where(lag >= 0, P[np.arange(B), lag % B], 0.0)
    # Pr(Y_{B-j} <= tau_B) = 1 - Pr(N(mu tau_B) < B - j)
    K[:, -1] = np.maximum(1.0 - np.cumsum(P[-1])[::-1], 0.0)
    return ConditionalMoments(K, K * (2.0 * taus), K * p(taus))


def avg_penalty_gradient(
    params: SystemParams, policy: Policy, p: PenaltySpec, metrics: PolicyMetrics
) -> np.ndarray:
    """d avg_penalty / d tau_i for i = 1..B, given policy_metrics(params, policy, p).

    With N = pi . E[P(X)|.] and m1 = pi . E[X|.], avg_penalty = N / m1 and
    d avg_penalty = (dN - avg_penalty dm1) / m1, where pi moves with
    tau_1..tau_{B-1} through the chain and not with tau_B.
    """
    d = moment_derivatives(params, policy, p)
    pi = np.asarray(metrics.pi)
    ex, _, epx = np.asarray(metrics.per_state).T
    # d C[j, i] / d tau_i is the Erlang-(1+i-j) density at tau_i, mu d E[X|j] / d tau_i
    dcdf = params.mu_h * d.ex[:, :-1]
    dpi = np.zeros((params.battery, params.battery))
    dpi[:, :-1] = stationary_derivative(transition_matrix(params, policy), pi, dcdf)
    d_num = pi @ d.epx + epx @ dpi
    d_m1 = pi @ d.ex + ex @ dpi
    return (d_num - metrics.avg_penalty * d_m1) / metrics.m1


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
