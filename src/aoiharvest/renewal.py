"""Exact renewal-reward evaluation of monotone threshold policies.

The inter-update time X starting from post-update battery level j has a
piecewise Erlang CDF over the threshold intervals, with point masses at
the thresholds themselves. All moments are computed by integrating the
survival function over those pieces (which handles the atoms for free):

    E[X | j]    = int (1 - F_j),
    E[X^2 | j]  = int 2x (1 - F_j),
    E[P(X) | j] = int p(x) (1 - F_j),

each piece in closed form via the erlang module. Survival is 1 on the
head [0, tau_B), and piece [tau_m, tau_{m-1}) carries Pr(Y_{m-j} > x) from
start state j, the sum of the Poisson terms v < m-j.
erlang.threshold_integrals gives the head and every term's integral over
every piece from one table of incomplete gammas at the thresholds, the
table whose exponent-0 entries also give the battery chain
(erlang.threshold_cdfs). Start state j thus collects the head and exactly
the terms whose shortfall m - v exceeds j: with the terms in descending
shortfall, one running sum, read where each state's terms end, gives every
state at once. That is O(B^2) numpy work with no loop over states or
pieces. Every array carries a leading policy axis, so one call evaluates a
batch of policies (batch_metrics); policy_metrics is the batch of one.
Long-run averages are stationary mixtures of the per-state moments; the
average penalty is the renewal-reward ratio E[P(X)] / E[X] (for identity
penalty this is the classic E[X^2] / 2 E[X] average age).

Threshold derivatives are endpoint terms by Leibniz's rule: tau_i < tau_B
ends piece i+1 and starts piece i, so d E[f(X)|j] / d tau_i is
f(tau_i) Pr(N(mu tau_i) = i-j) for i >= j and 0 for i < j, and tau_B ends
the head, so d E[f(X)|j] / d tau_B is f(tau_B) Pr(Y_{B-j} <= tau_B).

The per-level Bellman conditions of the semi-Markov decision problem come
from the relative values h of the per-renewal cost
c_j = E[P(X)|j] - gamma E[X|j], gamma the average penalty: updating at
battery level i < B is worth it once p(age) reaches
gamma + mu_h (h_{i-1} - h_i), the running cost of waiting against the value
of one more stored unit, and at level B once p(age) reaches gamma.
bellman_levels gives these B levels. The exact gradient factors through
them: d avg_penalty / d tau_i = w_i (p(tau_i) - level_i) / m1 with
w_i = sum_j pi_j d E[X|j] / d tau_i >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chain import relative_values, stationary, transition_from_cdfs
from .chain import transition_matrix  # noqa: F401  (patched by perfbench/tracer.py)
from .erlang import _RANGE_ERROR, ErlangKernel, GammaTable, erlang_cdf, gamma_table
from .erlang import threshold_cdfs, threshold_integrals
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


def _terms(p: PenaltySpec) -> tuple[tuple[float, float], ...]:
    """The integrands of E[X], E[X^2] and E[P(X)]: 1, 2x and p's terms."""
    return ((1.0, 0.0), (2.0, 1.0), *p.terms)


@lru_cache(maxsize=32)
def _state_ends(battery: int) -> np.ndarray:
    """Column of threshold_integrals' running sum that ends each start state's terms.

    State j adds the head and the Poisson terms of shortfall m - v > j, which
    come first in piece_orders' descending-shortfall order: shortfall d has
    B - d + 1 terms, so (B-j)(B-j+1)/2 of them.
    """
    k = battery - np.arange(battery)
    ends = k * (k + 1) // 2
    ends.setflags(write=False)
    return ends


def _moments(table: GammaTable, terms) -> np.ndarray:
    """(N, 3, B) array of E[X|j], E[X^2|j], E[P(X)|j] for an (N, B) batch of policies.

    table = gamma_table(mu, taus, terms), terms = _terms(p). One running
    sum along each term's row of threshold_integrals, the head first and
    then the Poisson terms from the largest shortfall down, read at the
    end of each state's terms.
    """
    ends = _state_ends(table.taus.shape[1])
    rows = np.add.accumulate(threshold_integrals(table), axis=-1).take(ends, axis=-1)
    if len(terms) > 3:
        rows = np.concatenate((rows[:, :2], rows[:, 2:].sum(axis=1, keepdims=True)), axis=1)
    return rows


def conditional_moments(
    params: SystemParams, policy: Policy, p: PenaltySpec
) -> ConditionalMoments:
    """Closed-form E[X|j], E[X^2|j], E[P(X)|j] for every start state."""
    taus = np.asarray([policy.thresholds], dtype=float)
    terms = _terms(p)
    ex, ex2, epx = _moments(gamma_table(params.mu_h, taus, terms), terms)[0]
    return ConditionalMoments(ex, ex2, epx)


@dataclass(frozen=True)
class BatchMetrics:
    """policy_metrics of N policies; every field has a leading policy axis.

    moments[n, :, j] = (E[X|j], E[X^2|j], E[P(X)|j]) of policy n.
    """

    m1: np.ndarray
    m2: np.ndarray
    avg_age: np.ndarray
    avg_penalty: np.ndarray
    moments: np.ndarray
    pi: np.ndarray
    transition: np.ndarray


_RATIO = np.array([2.0, 1.0])  # avg_age = m2 / (2 m1), avg_penalty = E[P(X)] / m1


def _evaluate(params: SystemParams, taus: np.ndarray, p: PenaltySpec):
    """Moments, transition matrices, pi, (m1, m2, E[P(X)]) and (avg_age, avg_penalty).

    A moment outside double range makes an average inf or NaN (m2 >= m1^2);
    no floating-point warning is printed.
    """
    terms = _terms(p)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        table = gamma_table(params.mu_h, taus, terms)
        moments = _moments(table, terms)
        chain = transition_from_cdfs(threshold_cdfs(table))
        pi = stationary(chain).pi
        weighted = np.add.reduce(moments * pi[:, None, :], axis=-1)
        averages = weighted[:, 1:] / (weighted[:, :1] * _RATIO)
    return moments, chain.entries, pi, weighted, averages


def avg_penalties(params: SystemParams, thresholds, p: PenaltySpec) -> np.ndarray:
    """avg_penalty of each row of an (N, B) array of monotone thresholds.

    Unlike batch_metrics this does not raise when a policy's metrics leave
    double range: its entry is inf, so a search can pass over it.
    """
    averages = _evaluate(params, np.asarray(thresholds, dtype=float), p)[4]
    return np.where(np.isfinite(averages[:, 1]), averages[:, 1], np.inf)


def batch_metrics(
    params: SystemParams, thresholds, p: PenaltySpec | None = None
) -> BatchMetrics:
    """Long-run metrics of an (N, B) array of monotone thresholds, one policy per row.

    The rows are not validated. Each policy's numbers are bitwise those
    policy_metrics gives for it alone. Raises OverflowError when any of
    them is outside double range.
    """
    taus = np.asarray(thresholds, dtype=float)
    moments, T, pi, weighted, averages = _evaluate(params, taus, p or PenaltySpec.identity())
    if not np.logical_and.reduce(np.isfinite(averages), axis=None):
        raise OverflowError(_RANGE_ERROR)
    return BatchMetrics(
        m1=weighted[:, 0],
        m2=weighted[:, 1],
        avg_age=averages[:, 0],
        avg_penalty=averages[:, 1],
        moments=moments,
        pi=pi,
        transition=T,
    )


def policy_metrics(
    params: SystemParams, policy: Policy, p: PenaltySpec | None = None
) -> PolicyMetrics:
    """Long-run average age and age-penalty of a monotone threshold policy: the batch of one."""
    taus = np.array([policy.thresholds], dtype=float)
    moments, T, pi, weighted, averages = _evaluate(params, taus, p or PenaltySpec.identity())
    m1, m2, _ = weighted[0].tolist()
    avg_age, avg_penalty = averages[0].tolist()
    if not (math.isfinite(avg_age) and math.isfinite(avg_penalty)):
        raise OverflowError(_RANGE_ERROR)
    moments.setflags(write=False)
    return PolicyMetrics(
        m1=m1,
        m2=m2,
        avg_age=avg_age,
        avg_penalty=avg_penalty,
        per_state=tuple(zip(*moments[0].tolist())),
        pi=tuple(pi[0].tolist()),
        transition=T[0],
        moments=moments[0],
    )


def _poisson_rows(z: np.ndarray, n: int) -> np.ndarray:
    """P[r, v] = e^{-z_r} z_r^v / v! for v < n, by erlang_survival's running product."""
    steps = np.empty((len(z), n))
    steps[:, 0] = np.exp(-z)
    steps[:, 1:] = z[:, None] / np.arange(1, n)
    return np.cumprod(steps, axis=1)


def _ex_derivatives(params: SystemParams, taus: np.ndarray) -> np.ndarray:
    """K[j, i-1] = d E[X|j] / d tau_i, the endpoint terms of the module docstring."""
    B = params.battery
    P = _poisson_rows(params.mu_h * taus, B)  # P[i-1, v] = Pr(N(mu tau_i) = v)
    lag = np.arange(1, B + 1) - np.arange(B)[:, None]  # lag[j, i-1] = i - j
    K = np.where(lag >= 0, P[np.arange(B), lag % B], 0.0)
    # Pr(Y_{B-j} <= tau_B) = 1 - Pr(N(mu tau_B) < B - j)
    K[:, -1] = np.maximum(1.0 - np.cumsum(P[-1])[::-1], 0.0)
    return K


def moment_derivatives(params: SystemParams, policy: Policy, p: PenaltySpec) -> ConditionalMoments:
    """Exact threshold derivatives of the conditional moments.

    Each field is a B x B array whose entry [j, i-1] is the derivative of
    the matching ConditionalMoments entry j in tau_i.
    """
    taus = np.asarray(policy.thresholds)
    K = _ex_derivatives(params, taus)
    return ConditionalMoments(K, K * (2.0 * taus), K * p(taus))


def bellman_levels(params: SystemParams, metrics: PolicyMetrics) -> np.ndarray:
    """Penalty levels at which updating pays off, per battery level 1..B.

    Entry i-1 is gamma + mu_h (h_{i-1} - h_i) for i < B and gamma for i = B,
    from metrics = policy_metrics(params, policy, p): its moments, its chain
    and one solve for the relative values h (none at B = 1).
    """
    ex, _, epx = metrics.moments
    gamma = metrics.avg_penalty
    levels = relative_values(metrics.transition, epx - gamma * ex)
    levels[:-1] -= levels[1:]  # h_{i-1} - h_i, and h_{B-1} = 0 at i = B
    levels *= params.mu_h
    levels += gamma
    return levels


def avg_penalty_gradient(
    params: SystemParams, policy: Policy, p: PenaltySpec, metrics: PolicyMetrics
) -> np.ndarray:
    """d avg_penalty / d tau_i for i = 1..B, given policy_metrics(params, policy, p).

    The adjoint form w_i (p(tau_i) - level_i) / m1 of the module docstring:
    one solve for the relative values, on the chain that metrics holds.
    """
    taus = np.asarray(policy.thresholds)
    w = np.asarray(metrics.pi) @ _ex_derivatives(params, taus)
    return w * (p(taus) - bellman_levels(params, metrics)) / metrics.m1


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
