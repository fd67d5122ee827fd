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

The rate enters here and only here, once per call. erlang works at unit
rate, on the thresholds z = mu_h tau, and the moments follow from its
integrals by scale invariance: with Z = mu_h X, E[X^n] = E[Z^n] / mu_h^n.
_evaluate forms z once and takes each integral row at rho = 2^a, the
power of two at or below mu_h, so that m = mu_h / rho is in [1, 2) and
rho tau and every rho^-n are exact: its Poisson terms are those at unit
rate times m^-(e+1), its head int_0^{rho tau_B} z^e dz, and the
penalty's term c x^e becomes c rho^-e z^e, the power of two applied to
the row (ldexp) rather than to c. Every row thus has about its size at
unit rate, whatever the rate, where E[X^2] ~ mu_h^-2 in time units may
leave double range. The averages come from the weighted sums at rate
rho, and moments, sums and averages reach time units by ldexp (none at
a = 0, mu_h in [1, 2), where every optimizer evaluation runs). A policy
whose unit-rate tau_B passes CERTAIN updates at tau_B from every state;
where its head leaves double range at rate rho, _certain gives its
metrics, applied once at the end of _evaluate, so that every entry point
reads them alike.

erlang.threshold_integrals gives the head and every integrand's integral
over every piece, one row per distinct exponent, from one table of
incomplete gammas at the unit-rate thresholds, the table whose exponent-0
entries also give the battery chain (erlang.threshold_cdfs). Start state
j thus collects the head and exactly the terms whose shortfall m - v
exceeds j. The integrals come in descending shortfall, so one running
sum, read where each state's terms end, gives every state at once. That
is O(B^2) numpy work, with no loop over states or pieces. Every array
carries a leading policy axis, so one call evaluates a batch of policies
(avg_penalties, the objective of each); policy_metrics is the batch of one.
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


# Past this unit-rate tau_B every Poisson term is 0: an arrival before
# tau_B is certain to the last bit, and X = tau_B from every state.
CERTAIN = 1024.0
_RATIO = np.array([2.0, 1.0])  # avg_age = m2 / (2 m1), avg_penalty = E[P(X)] / m1


@lru_cache(maxsize=32)
def _rows(p_powers: tuple[float, ...]) -> tuple[tuple[float, ...], np.ndarray, np.ndarray, tuple[int, ...]]:
    """The distinct exponents e of the integrands 1, x and p's terms
    (p_powers = p.exponents), increasing (0 first); -(e+1) of each; the
    rows of 1, x and p's first term among them, which give the three
    moments; and the rows of p's other terms. Keyed by the exponents alone,
    never by a coefficient or a rate."""
    exponents = tuple(sorted({0.0, 1.0, *p_powers}))
    row = exponents.index
    powers = -(np.array(exponents) + 1.0)
    first = np.array([0, row(1.0), row(p_powers[0])])
    powers.setflags(write=False)
    first.setflags(write=False)
    return exponents, powers, first, tuple(map(row, p_powers[1:]))


def _rated_terms(p: PenaltySpec, a: int) -> list[tuple[float, int]]:
    """(c 2^f, w) of each term c x^e of p, where c rho^-e = c 2^f 2^w at
    rho = 2^a: w = floor(-a e) and f in [0, 1), so that the power of two is
    applied to a row by ldexp and no coefficient leaves double range."""
    out = []
    for c, e in p.terms:
        x = -a * e
        w = math.floor(x)
        out.append((c * 2.0 ** (x - w), w))
    return out


def _rated_moments(mu: float, taus: np.ndarray, p: PenaltySpec) -> tuple[GammaTable, int, int, np.ndarray]:
    """The gamma table at z = mu tau, a, w, and the (N, 3, B) array of
    rho E[X|j], rho^2 E[X^2|j] and 2^-w rho E[P(X)|j] for an (N, B) batch
    of thresholds, at rho = 2^a the power of two at or below mu, so that
    mu = m rho with m in [1, 2).

    One running sum along each exponent's row of threshold_integrals, the
    head first and then the Poisson terms from the largest shortfall down,
    read at the end of each state's terms. Each row is at rate rho: its
    Poisson terms are those at rate 1 times m^-(e+1), folded into their
    poch factors, and its head int_0^{rho tau_B} z^e dz, so that every
    factor rho^-(e+1) that takes it to time units is a power of two.
    rho^2 E[X^2|j] is twice the row of x, and rho E[P(X)|j] the sum over
    p's terms of c rho^-e times the row of x^e (_rated_terms).
    """
    exponents, powers, first, others = _rows(p.exponents)
    a = math.frexp(mu)[1] - 1
    (c, w), *rest = _rated_terms(p, a)
    m = math.ldexp(mu, -a)
    table = gamma_table(mu * taus, exponents)
    J = threshold_integrals(table, np.ldexp(taus[:, -1:], a) if a else taus[:, -1:], m**powers)
    np.add.accumulate(J, axis=-1, out=J)
    b = taus.shape[1]
    rows = J[..., b * b:0:-b]  # state j's terms end with shortfall j + 1, at column (B - j) B
    rated = rows.take(first, axis=1)
    rated *= np.array([[1.0], [2.0], [c]])
    for r, (c, v) in zip(others, rest):
        rated[:, 2] += np.ldexp(rows[:, r] * c, v - w)
    return table, a, w, rated


def _evaluate(params: SystemParams, taus: np.ndarray, p: PenaltySpec):
    """Moments, the chain's C and Q, pi, (m1, m2, E[P(X)]) and (avg_age, avg_penalty).

    The averages are taken from the weighted sums at rate rho, so they stay
    in double range where a moment leaves it. A moment outside double
    range is inf or NaN (0 where it underflows), and so is an average that
    leaves it; no floating-point warning is printed. Where mu tau_B is so
    large that the head leaves double range at rate rho, _certain gives the
    metrics; it runs only for a batch whose unit-rate thresholds pass
    CERTAIN, so the common path pays one comparison.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        table, a, w, moments = _rated_moments(params.mu_h, taus, p)
        cdfs, down = threshold_cdfs(table), down_rates(table)
        pi = stationary(cdfs, down)
        weighted = np.add.reduce(moments * pi[:, None, :], axis=-1)
        averages = weighted[:, 1:] / (weighted[:, :1] * _RATIO)
        if a:  # from rate 2^a to time units, every factor a power of two
            averages = np.ldexp(averages, np.array((-a, w)))
            powers = np.array((-a, -2 * a, w - a))
            moments = np.ldexp(moments, powers[:, None])
            weighted = np.ldexp(weighted, powers)
        if table.top > CERTAIN:
            _certain(table.z[:, -1], taus, p, moments, weighted, averages)
    return moments, cdfs, down, pi, weighted, averages


def _certain(z_b: np.ndarray, taus: np.ndarray, p: PenaltySpec, moments, weighted, averages):
    """The metrics of the policies whose unit-rate tau_B, z_b = mu tau_B,
    passes CERTAIN and whose metrics are not all finite, in place.

    Every Poisson term of such a policy is 0, so from every state
    X = tau_B: E[X|j] = tau_B, E[X^2|j] = tau_B^2, E[P(X)|j] = P(tau_B) with
    P the antiderivative of p, avg_age = tau_B / 2 and
    avg_penalty = P(tau_B) / tau_B, taken here in time units.
    """
    finite = np.isfinite(weighted).all(axis=1) & np.isfinite(averages).all(axis=1)
    sel = np.flatnonzero(~finite & (z_b > CERTAIN))
    if not len(sel):
        return
    c, e = np.array(p.terms).T
    t = taus[sel, -1:]
    slope = (c * (t**e / (e + 1.0))).sum(axis=1, keepdims=True)  # P(tau_B) / tau_B
    head = np.hstack((t, t * t, t * slope))
    moments[sel] = head[:, :, None]
    weighted[sel] = head
    averages[sel] = np.hstack((t * 0.5, slope))


def avg_penalties(params: SystemParams, thresholds, p: PenaltySpec) -> np.ndarray:
    """avg_penalty of each row of an (N, B) array of monotone thresholds.

    The evaluator's batch entry, one call for all rows, which are not
    validated. Where policy_metrics answers for a row alone, the row's entry
    is bitwise its avg_penalty (under p(x) = x, also its avg_age). Unlike
    policy_metrics this does not raise when a moment leaves double range:
    an entry is inf only where its own avg_penalty is not finite, so a
    search can pass over it.
    """
    averages = _evaluate(params, np.asarray(thresholds, dtype=float), p)[-1]
    return np.where(np.isfinite(averages[:, 1]), averages[:, 1], np.inf)


def policy_metrics(
    params: SystemParams, policy: Policy, p: PenaltySpec | None = None
) -> PolicyMetrics:
    """Long-run average age and age-penalty of a monotone threshold policy: the batch of one."""
    taus = np.array([policy.thresholds], dtype=float)
    moments, cdfs, down, pi, weighted, averages = _evaluate(params, taus, p or PenaltySpec.identity())
    values = weighted[0].tolist() + averages[0].tolist()
    if not all(map(math.isfinite, values)):
        raise OverflowError(_RANGE_ERROR)
    m1, m2, epx, avg_age, avg_penalty = values
    moments.setflags(write=False)
    pi.setflags(write=False)
    return PolicyMetrics(
        m1=m1,
        m2=m2,
        avg_age=avg_age,
        avg_penalty=avg_penalty,
        pi=pi[0],
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
    levels[:-1] += params.mu_h * unit_values(metrics.cdfs, metrics.down, metrics.pi, c)
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
    m_up = policy_metrics(params, Policy(tuple(up))).moments
    m_dn = policy_metrics(params, Policy(tuple(dn))).moments
    d_ex, d_ex2 = (m_up[:2] - m_dn[:2]) / (2.0 * h)
    return float(np.abs(d_ex2 - 2.0 * taus[i - 1] * d_ex).max())
