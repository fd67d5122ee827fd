import math
import warnings

import numpy as np
import pytest

from aoiharvest.erlang import gamma_table, threshold_integrals
from aoiharvest.model import PenaltySpec, Policy, SystemParams, validate_policy
from aoiharvest.renewal import (
    BadState,
    avg_penalties,
    StepBreaksMonotonicity,
    bellman_levels,
    interupdate_cdf,
    moment_derivative_check,
    policy_metrics,
)

IDENT = PenaltySpec.identity()


def make(mu, taus):
    params = SystemParams(mu_h=mu, battery=len(taus))
    return params, validate_policy(params, taus)


class TestInterupdateCdf:
    def test_below_smallest_threshold(self):
        params, pol = make(1.0, [1.5, 0.72])
        assert interupdate_cdf(params, pol, 0, 0.5) == 0.0

    def test_middle_piece(self):
        params, pol = make(1.0, [1.5, 0.72])
        assert interupdate_cdf(params, pol, 1, 1.0) == pytest.approx(
            1 - math.exp(-1.0), rel=1e-12
        )

    def test_top_piece_saturates_from_full(self):
        params, pol = make(1.0, [1.5, 0.72])
        assert interupdate_cdf(params, pol, 1, 2.0) == 1.0

    def test_bad_state(self):
        params, pol = make(1.0, [1.5, 0.72])
        with pytest.raises(BadState):
            interupdate_cdf(params, pol, 2, 1.0)

    def test_right_continuous_nondecreasing(self):
        params, pol = make(1.0, [1.8, 1.1, 0.6])
        xs = np.linspace(0, 40, 800)
        for j in range(3):
            vals = [interupdate_cdf(params, pol, j, x) for x in xs]
            assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))
            assert vals[-1] == pytest.approx(1.0, abs=1e-9)


class TestConditionalMoments:
    def test_b1_closed_form(self):
        # E[X] = tau + e^{-mu tau}/mu, E[X^2] = tau^2 + (2/mu^2 + 2 tau/mu) e^{-mu tau}
        params, pol = make(1.0, [1.0])
        ex, ex2, _ = policy_metrics(params, pol, IDENT).moments
        assert ex[0] == pytest.approx(1 + math.exp(-1), rel=1e-12)
        assert ex2[0] == pytest.approx(1 + 4 * math.exp(-1), rel=1e-12)

    def test_b2_frozen_from_quadrature(self):
        # oracle: piecewise quadrature of the survival function
        params, pol = make(1.0, [1.5, 0.72])
        ex, ex2, _ = policy_metrics(params, pol, IDENT).moments
        assert ex[0] == pytest.approx(1.4861407358400482, rel=1e-10)
        assert ex2[0] == pytest.approx(2.8109606983339703, rel=1e-10)
        assert ex[1] == pytest.approx(0.9836220958115418, rel=1e-10)
        assert ex2[1] == pytest.approx(1.0771769597601535, rel=1e-10)

    def test_identity_penalty_reward_is_half_second_moment(self):
        params, pol = make(0.7, [2.1, 1.4, 0.9])
        _, ex2, epx = policy_metrics(params, pol, IDENT).moments
        assert np.allclose(epx, ex2 / 2, rtol=1e-12)

    def test_moment_inequalities(self):
        params, pol = make(1.2, [1.9, 1.3, 0.8, 0.8])
        ex, ex2, _ = policy_metrics(params, pol, IDENT).moments
        assert np.all(ex >= pol.tau_full)
        assert np.all(ex2 >= ex**2)


def per_piece_moments(params, policy, p):
    """Each start state's moments, added up one integral at a time.

    The evaluator takes them at rate rho = 2^a, the power of two at or
    below mu, so mu = m rho with m in [1, 2).
    threshold_integrals gives, at the thresholds z = mu tau and for each
    exponent e of 1, x and p's term c x^e, every Poisson term v of every
    piece m at rate 1; at rate rho each is that times m^-(e+1), which it
    folds into the term's poch factor. State j adds the head
    int_0^{rho tau_B} z^e dz, then the terms of shortfall d = m - v from
    d = B down to j + 1, each shortfall's in ascending v: the evaluator's
    running sum. E[X|j] is the sum of 1's row over rho, E[X^2|j] twice x's
    over rho^2, and E[P(X)|j] c rho^-e times x^e's over rho, the powers of
    two applied by ldexp; so the evaluator's moments must match bitwise.
    """
    mu, B = params.mu_h, params.battery
    [(c, e)] = p.terms  # one penalty term: E[P(X)] is its row alone
    a = math.frexp(mu)[1] - 1
    t = math.ldexp(policy.thresholds[-1], a)
    table = gamma_table(mu * np.array([policy.thresholds]), (0.0, 1.0, e))
    # m^-(e+1) of every exponent from one numpy power, as the evaluator takes them
    factors = math.ldexp(mu, -a) ** -(np.array(table.layout.exponents) + 1.0)
    J = threshold_integrals(table, scale=factors)[0]
    sums = {}
    for power, row in zip(table.layout.exponents, J):
        acc = []
        for j in range(B):
            total = t * (t**power * (1.0 / (power + 1.0)))
            for d in range(B, j, -1):
                for v in range(B - d + 1):
                    total += row[1 + (B - d) * B + v]  # term v of piece d + v
            acc.append(total)
        sums[power] = acc
    w = math.floor(-a * e)
    c *= 2.0 ** (-a * e - w)
    return [
        (math.ldexp(sums[0.0][j], -a), math.ldexp(sums[1.0][j] * 2.0, -2 * a), math.ldexp(sums[e][j] * c, w - a))
        for j in range(B)
    ]


class TestPrefixRows:
    """The per-state moments are exactly the head plus their pieces' terms."""

    @pytest.mark.parametrize(
        "mu,taus",
        [
            (1.0, [0.9]),
            (1.0, [1.5, 0.72]),
            (0.7, [2.1, 1.4, 0.9]),
            (1.0, [1.5, 0.01, 0.01]),
            (2.0, [1.2, 0.9, 0.9, 0.4, 0.0]),
            (1.3, [3.0, 2.6, 2.1, 1.7, 1.2, 0.8, 0.5, 0.2]),
            (0.4, [9.0, 7.5, 7.5, 6.0, 4.4, 3.1, 1.0, 0.0]),
            (1.0, [3.2 - 0.05 * k for k in range(64)]),
        ],
    )
    @pytest.mark.parametrize(
        "p", [IDENT, PenaltySpec.power(0.5), PenaltySpec.power(2.0)], ids=["id", "pow0.5", "pow2"]
    )
    def test_bitwise_equal_to_per_piece_sums(self, mu, taus, p):
        params, pol = make(mu, taus)
        moments = policy_metrics(params, pol, p).moments
        want = per_piece_moments(params, pol, p)
        assert [tuple(moments[:, j]) for j in range(params.battery)] == want


class TestOverflow:
    def test_outside_double_range_raises_without_warnings(self):
        # m2 is about 1e600, while the averages, about 1e300, are in range:
        # the evaluator takes them from the sums at rate 2^-997 (about mu),
        # and raises for the moment it reports
        params, pol = make(1e-300, [1e300, 1e299])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="outside double range"):
                policy_metrics(params, pol)
            ages = avg_penalties(params, [pol.thresholds], IDENT)
        want = policy_metrics(*make(1.0, [1.0, 0.1])).avg_age
        assert ages[0] * 1e-300 == pytest.approx(want, rel=1e-14)


class TestBatch:
    """avg_penalties, the evaluator's batch entry, row for row against policy_metrics."""

    @staticmethod
    def check_rows(params, taus, p):
        got = avg_penalties(params, taus, p).tolist()
        want = [policy_metrics(params, Policy(tuple(row)), p) for row in np.asarray(taus).tolist()]
        assert got == [m.avg_penalty for m in want]
        if p == IDENT:
            assert got == [m.avg_age for m in want]

    def test_grid_round_matches_single_evaluations_bitwise(self):
        # one round of the B = 2 grid: every vertex in one call, bitwise the
        # avg_penalty that policy_metrics gives each vertex alone
        params = SystemParams(mu_h=1.3, battery=2)
        axes = np.linspace(0.5 / 1.3, 1 / 1.3, 15), np.linspace(0, 10 / 1.3, 15)
        tau_b, gap = np.meshgrid(*axes, indexing="ij")
        taus = np.column_stack(((tau_b + gap).ravel(), tau_b.ravel()))
        for p in (IDENT, PenaltySpec.power(0.5), PenaltySpec(((1.0, 1.0), (0.5, 2.5)))):
            self.check_rows(params, taus, p)

    @pytest.mark.parametrize("p", [PenaltySpec.power(2.0), IDENT], ids=["pow2", "id"])
    def test_rows_match_policy_metrics(self, p):
        params = SystemParams(mu_h=0.8, battery=3)
        self.check_rows(params, [[3.0, 2.0, 0.5], [1.0, 1.0, 1.0], [2.5, 0.4, 0.0]], p)

    @pytest.mark.parametrize("p", [PenaltySpec.power(0.5), IDENT], ids=["pow0.5", "id"])
    @pytest.mark.parametrize(
        "mu,taus,certain",
        [
            # tau_B = 0.5 is past CERTAIN at unit rate, where the head leaves
            # double range at rate 2^996, and X = tau_B; the others are taken
            # at that rate
            (1e300, [[1.0, 0.5, 0.5], [3e-300, 2e-300, 5e-301], [1e10, 1e-100, 0.0]], [0]),
            (1e-150, [[3e150, 2e150, 5e149], [1e150, 1e150, 1e150]], []),
        ],
    )
    def test_rows_match_policy_metrics_at_extreme_rates(self, mu, taus, certain, p):
        params = SystemParams(mu_h=mu, battery=3)
        self.check_rows(params, taus, p)
        ages = avg_penalties(params, taus, IDENT)
        for n in certain:
            assert 2.0 * ages[n] == taus[n][-1]

class TestPolicyMetrics:
    def test_b2_table_row(self):
        params, pol = make(1.0, [1.5, 0.72])
        m = policy_metrics(params, pol)
        assert m.m1 == pytest.approx(1.1521569859942833, rel=1e-10)
        assert m.avg_age == pytest.approx(0.7198038206519034, rel=1e-10)
        assert m.avg_penalty == m.avg_age

    def test_arrays_are_the_evaluators_read_only(self):
        # one copy of each result: moments (3, B) and pi (B,), neither writable
        params, pol = make(0.8, [2.0, 1.0, 0.5])
        m = policy_metrics(params, pol)
        assert m.moments.shape == (3, 3) and m.pi.shape == (3,) and m.cdfs.shape == (3, 3)
        for a in (m.moments, m.pi):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_b1_direct(self):
        params, pol = make(1.0, [1.0])
        m = policy_metrics(params, pol)
        want = (0.5 + 2 * math.exp(-1)) / (1 + math.exp(-1))
        assert m.avg_age == pytest.approx(want, rel=1e-12)

    def test_optimum_is_fixed_point(self):
        tau = 0.901201031729666  # 2 W(1/sqrt 2)
        params, pol = make(1.0, [tau])
        assert policy_metrics(params, pol).avg_age == pytest.approx(tau, abs=1e-12)

    def test_consumption_rate_bound(self):
        for mu, taus in [(1.0, [1.5, 0.72]), (2.0, [0.4, 0.1]), (0.5, [4.0, 3.0, 2.0])]:
            params, pol = make(mu, taus)
            m = policy_metrics(params, pol)
            assert m.m1 >= 1.0 / mu - 1e-12
            assert m.m1 >= pol.tau_full
            assert m.m2 >= m.m1**2

    def test_scale_invariance(self):
        base_params, base_pol = make(1.0, [1.5, 0.72])
        base = policy_metrics(base_params, base_pol)
        for c in (0.5, 2.0, 3.7):
            params, pol = make(c, [1.5 / c, 0.72 / c])
            m = policy_metrics(params, pol)
            assert m.m1 == pytest.approx(base.m1 / c, rel=1e-12)
            assert m.m2 == pytest.approx(base.m2 / c**2, rel=1e-12)
            assert m.avg_age == pytest.approx(base.avg_age / c, rel=1e-12)

    def test_cdf_consistency_with_chain(self):
        # total transition mass equals the CDF limit: both are 1
        params, pol = make(1.0, [1.8, 1.1, 0.6])
        from aoiharvest.chain import transition_matrix

        T = transition_matrix(params, pol)
        for j in range(3):
            assert T[j].sum() == pytest.approx(1.0, abs=1e-12)
            assert interupdate_cdf(params, pol, j, 100.0) == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_penalty_reward(self):
        params, pol = make(1.0, [1.5, 0.72])
        m = policy_metrics(params, pol, PenaltySpec.power(2.0))
        # E[X^3]/3 numerator: check against quadrature-frozen conditional moments
        assert m.avg_penalty > 0
        ident = policy_metrics(params, pol)
        assert m.m1 == pytest.approx(ident.m1, rel=1e-12)


class TestMomentDerivative:
    @pytest.mark.parametrize(
        "mu,taus,i",
        [
            (1.0, [1.5, 0.72], 1),
            (1.0, [1.5, 0.72], 2),
            (1.0, [0.9], 1),
            (0.8, [2.2, 1.4, 0.9], 2),
        ],
    )
    def test_residual_small(self, mu, taus, i):
        params, pol = make(mu, taus)
        assert moment_derivative_check(params, pol, i, 1e-5) <= 1e-4

    def test_b1_analytic_derivative(self):
        # dE[X]/dtau = 1 - e^{-mu tau}; dE[X^2]/dtau = 2 tau (1 - e^{-mu tau})
        params, pol = make(1.0, [0.9])
        h = 1e-6
        up = policy_metrics(params, Policy((0.9 + h,)), IDENT).moments
        dn = policy_metrics(params, Policy((0.9 - h,)), IDENT).moments
        d_ex = (up[0, 0] - dn[0, 0]) / (2 * h)
        assert d_ex == pytest.approx(1 - math.exp(-0.9), abs=1e-8)

    def test_tied_thresholds_break_stencil(self):
        params, pol = make(1.0, [1.0, 1.0])
        with pytest.raises(StepBreaksMonotonicity):
            moment_derivative_check(params, pol, 2, 1e-5)


PENALTIES = [IDENT, PenaltySpec.power(0.5), PenaltySpec.power(2.0)]
PENALTY_IDS = ["id", "pow0.5", "pow2"]


def ex_derivatives(params, taus):
    """K[j, i-1] = d E[X|j] / d tau_i, endpoint terms by Leibniz's rule.

    tau_i < tau_B ends piece i+1 and starts piece i, so the derivative is
    Pr(N(mu tau_i) = i-j) for i >= j and 0 for i < j; tau_B ends the head,
    so d E[X|j] / d tau_B = Pr(Y_{B-j} <= tau_B).
    """
    B = params.battery
    z = params.mu_h * np.asarray(taus)
    steps = np.empty((B, B))  # P[i-1, v] = Pr(N(mu tau_i) = v), a running product
    steps[:, 0] = np.exp(-z)
    steps[:, 1:] = z[:, None] / np.arange(1, B)
    P = np.cumprod(steps, axis=1)
    lag = np.arange(1, B + 1) - np.arange(B)[:, None]  # lag[j, i-1] = i - j
    K = np.where(lag >= 0, P[np.arange(B), lag % B], 0.0)
    K[:, -1] = np.maximum(1.0 - np.cumsum(P[-1])[::-1], 0.0)
    return K


def moment_derivatives(params, policy, p):
    """d E[f(X)|j] / d tau_i = f(tau_i) d E[X|j] / d tau_i for f = 1, 2x and p, stacked in that order."""
    taus = np.asarray(policy.thresholds)
    K = ex_derivatives(params, taus)
    return np.stack([K, K * (2.0 * taus), K * p(taus)])


def avg_penalty_gradient(params, policy, p, metrics):
    """The adjoint identity d avg_penalty / d tau_i = w_i (p(tau_i) - level_i) / m1,
    w_i = sum_j pi_j d E[X|j] / d tau_i: it checks the Bellman levels
    independently of the chain's equations."""
    taus = np.asarray(policy.thresholds)
    w = metrics.pi @ ex_derivatives(params, taus)
    return w * (p(taus) - bellman_levels(params, metrics)) / metrics.m1


def difference_quotient(fn, taus, i, h):
    """Derivative of fn in threshold i (0-based) by a second-order stencil.

    Central where +-h keeps the thresholds monotone and non-negative,
    otherwise one-sided into the monotone region (ties, tau_B = 0).
    """

    def at(step):
        v = list(taus)
        v[i] += step
        return np.asarray(fn(Policy(tuple(v))), dtype=float)

    up_ok = i == 0 or taus[i - 1] >= taus[i] + 2 * h
    down_ok = taus[i] - 2 * h >= (taus[i + 1] if i + 1 < len(taus) else 0.0)
    if up_ok and down_ok:
        return (at(h) - at(-h)) / (2 * h)
    if up_ok:
        return (-3 * at(0.0) + 4 * at(h) - at(2 * h)) / (2 * h)
    assert down_ok, "a threshold tied on both sides has no one-sided stencil"
    return (3 * at(0.0) - 4 * at(-h) + at(-2 * h)) / (2 * h)


GRADIENT_CASES = [
    (1.0, [0.9]),
    (0.8, [1.7, 0.6]),
    (1.3, [2.4, 1.1, 0.5]),
    (0.6, [6.0, 4.1, 3.3, 1.9, 0.8]),
    (1.7, [2.2, 1.9, 1.5, 1.2, 1.0, 0.7, 0.4, 0.2]),
    # ties and tau_B = 0: checked one-sided
    (1.0, [1.5, 1.5, 0.7, 0.0]),
    (2.0, [1.2, 0.9, 0.9, 0.4, 0.4]),
    (0.9, [3.0, 2.5, 2.5, 2.0, 1.6, 1.6, 1.0, 0.3]),
]


class TestGradient:
    """The exact threshold gradient against difference quotients of the evaluator."""

    @pytest.mark.parametrize("mu,taus", GRADIENT_CASES)
    @pytest.mark.parametrize("p", PENALTIES, ids=PENALTY_IDS)
    def test_avg_penalty_gradient(self, mu, taus, p):
        params, pol = make(mu, taus)
        grad = avg_penalty_gradient(params, pol, p, policy_metrics(params, pol, p))
        h = 1e-5 / mu
        fd = [
            difference_quotient(lambda q: policy_metrics(params, q, p).avg_penalty, taus, i, h)
            for i in range(len(taus))
        ]
        assert np.abs(grad - fd).max() <= 1e-7 * np.abs(fd).max()

    @pytest.mark.parametrize("mu,taus", GRADIENT_CASES)
    @pytest.mark.parametrize("p", PENALTIES, ids=PENALTY_IDS)
    def test_moment_derivatives(self, mu, taus, p):
        params, pol = make(mu, taus)
        d = moment_derivatives(params, pol, p)
        h = 1e-5 / mu

        def moments(q):
            return policy_metrics(params, q, p).moments

        for i in range(len(taus)):
            fd = difference_quotient(moments, taus, i, h)
            exact = d[:, :, i]
            assert np.abs(exact - fd).max() <= 1e-7 * max(1.0, np.abs(fd).max()), f"tau_{i + 1}"

    @pytest.mark.parametrize("mu,taus", GRADIENT_CASES)
    def test_second_moment_identity(self, mu, taus):
        # d E[X^2|j] = 2 tau_i d E[X|j], to rounding
        params, pol = make(mu, taus)
        d_ex, d_ex2, d_epx = moment_derivatives(params, pol, IDENT)
        assert np.allclose(d_ex2, 2.0 * np.asarray(taus) * d_ex, rtol=1e-15, atol=0.0)
        assert np.allclose(d_epx, d_ex2 / 2.0, rtol=1e-15, atol=0.0)

    def test_b1_closed_form(self):
        # avg_age = (tau^2 + (2/mu^2 + 2 tau/mu) e^{-mu tau}) / (2 (tau + e^{-mu tau}/mu))
        params, pol = make(1.0, [1.0])
        m = policy_metrics(params, pol)
        e = math.exp(-1.0)
        d_num = (2.0 + 2.0 * e - 4.0 * e) / 2.0  # derivative of E[X^2]/2 at tau = 1
        d_m1 = 1.0 - e
        want = (d_num - m.avg_age * d_m1) / m.m1
        assert avg_penalty_gradient(params, pol, IDENT, m)[0] == pytest.approx(want, rel=1e-13)

    def test_tau_b_moves_no_stationary_mass(self):
        # pi does not depend on tau_B, so its gradient entry is moments alone
        params, pol = make(1.0, [1.5, 0.72])
        m = policy_metrics(params, pol)
        d_ex, _, d_epx = moment_derivatives(params, pol, IDENT)
        want = (m.pi @ d_epx[:, -1] - m.avg_penalty * (m.pi @ d_ex[:, -1])) / m.m1
        assert avg_penalty_gradient(params, pol, IDENT, m)[-1] == pytest.approx(want, rel=1e-14)
