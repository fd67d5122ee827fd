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

The per-level Bellman conditions of the semi-Markov decision problem come
from the relative values h of the per-renewal cost
c_j = E[P(X)|j] - gamma E[X|j], gamma the average penalty: updating at
battery level i < B is worth it once p(age) reaches
gamma + mu_h (h_{i-1} - h_i), the running cost of waiting against the value
of one more stored unit, and at level B once p(age) reaches gamma.
bellman_levels gives these B levels from chain.unit_values, on the same
C, Q and pi as the evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chain import stationary, unit_values
from .chain import transition_matrix  # noqa: F401  (patched by perfbench/tracer.py)
from .erlang import _RANGE_ERROR, ErlangKernel, GammaTable, down_rates, erlang_cdf, gamma_table
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


_RATIO = np.array([2.0, 1.0])  # avg_age = m2 / (2 m1), avg_penalty = E[P(X)] / m1


def _evaluate(params: SystemParams, taus: np.ndarray, p: PenaltySpec):
    """Moments, the chain's C and Q, pi, (m1, m2, E[P(X)]) and (avg_age, avg_penalty).

    A moment outside double range makes an average inf or NaN (m2 >= m1^2);
    no floating-point warning is printed.
    """
    terms = _terms(p)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        table = gamma_table(params.mu_h, taus, terms)
        moments = _moments(table, terms)
        cdfs, down = threshold_cdfs(table), down_rates(table)
        pi = stationary(cdfs, down)
        weighted = np.add.reduce(moments * pi[:, None, :], axis=-1)
        averages = weighted[:, 1:] / (weighted[:, :1] * _RATIO)
    return moments, cdfs, down, pi, weighted, averages


def avg_penalties(params: SystemParams, thresholds, p: PenaltySpec) -> np.ndarray:
    """avg_penalty of each row of an (N, B) array of monotone thresholds.

    Unlike batch_metrics this does not raise when a policy's metrics leave
    double range: its entry is inf, so a search can pass over it.
    """
    averages = _evaluate(params, np.asarray(thresholds, dtype=float), p)[-1]
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
    moments, _, _, pi, weighted, averages = _evaluate(params, taus, p or PenaltySpec.identity())
    if not np.logical_and.reduce(np.isfinite(averages), axis=None):
        raise OverflowError(_RANGE_ERROR)
    return BatchMetrics(
        m1=weighted[:, 0],
        m2=weighted[:, 1],
        avg_age=averages[:, 0],
        avg_penalty=averages[:, 1],
        moments=moments,
        pi=pi,
    )


def policy_metrics(
    params: SystemParams, policy: Policy, p: PenaltySpec | None = None
) -> PolicyMetrics:
    """Long-run average age and age-penalty of a monotone threshold policy: the batch of one."""
    taus = np.array([policy.thresholds], dtype=float)
    moments, cdfs, down, pi, weighted, averages = _evaluate(params, taus, p or PenaltySpec.identity())
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
        moments=moments[0],
        cdfs=cdfs[0],
        down=down[0],
    )


def bellman_levels(params: SystemParams, metrics: PolicyMetrics) -> np.ndarray:
    """Penalty levels at which updating pays off, per battery level 1..B.

    Entry i-1 is gamma + mu_h (h_{i-1} - h_i) for i < B and gamma for i = B,
    from metrics = policy_metrics(params, policy, p): its moments, its
    chain and pi, and chain.unit_values for the differences of the
    relative values h (none at B = 1).
    """
    ex, _, epx = metrics.moments
    gamma = metrics.avg_penalty
    levels = np.full(len(ex), gamma)
    c = epx - gamma * ex
    levels[:-1] += params.mu_h * unit_values(metrics.cdfs, metrics.down, np.array(metrics.pi), c)
    return levels


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
