import json
import math
import warnings

import mpmath
import numpy as np
import pytest

from aoiharvest import cli
from aoiharvest.chain import TINY, SingularSystem, cut_tables, stationary, transition_matrix, unit_values
from aoiharvest.erlang import ErlangKernel, erlang_cdf, gamma_table, threshold_cdfs
from aoiharvest.model import Policy, SystemParams, validate_policy
from aoiharvest.renewal import bellman_levels, policy_metrics


def make(mu, taus):
    params = SystemParams(mu_h=mu, battery=len(taus))
    return params, validate_policy(params, taus)


def pi_of(params, policy):
    return stationary(*cut_tables(params, policy))


class TestTransitionMatrix:
    def test_single_state_identity(self):
        params, pol = make(1.0, [0.9])
        T = transition_matrix(params, pol)
        assert T.shape == (1, 1) and T[0, 0] == 1.0

    def test_b2_entries_frozen(self):
        params, pol = make(1.0, [1.5, 0.72])
        T = transition_matrix(params, pol)
        # landing full from empty: two arrivals within tau_1
        assert T[0, 1] == pytest.approx(1 - math.exp(-1.5) * 2.5, rel=1e-12)
        # landing full from full: one arrival within tau_1
        assert T[1, 1] == pytest.approx(1 - math.exp(-1.5), rel=1e-12)

    @pytest.mark.parametrize("taus", [[1.5, 0.72], [2.0, 1.0, 0.5], [1.0, 1.0, 1.0, 0.3]])
    def test_rows_stochastic(self, taus):
        params, pol = make(0.8, taus)
        T = transition_matrix(params, pol)
        assert np.all(T >= 0) and np.all(T <= 1)
        assert np.allclose(T.sum(axis=1), 1.0, atol=1e-12)

    def test_reachability(self):
        params, pol = make(1.0, [2.0, 1.5, 1.0, 0.5])
        T = transition_matrix(params, pol)
        power = np.linalg.matrix_power(T, params.battery - 1)
        assert np.all(power > 0)

    @pytest.mark.parametrize(
        "mu,taus",
        [(1.0, [1.5, 0.72]), (0.8, [2.0, 1.0, 1.0, 0.0]), (1.3, [3.0, 2.6, 2.1, 1.7, 1.2, 0.8, 0.5, 0.2])],
    )
    def test_entries_are_cdf_differences(self, mu, taus):
        # T[j, i] = Pr(Y_{1+i-j} <= tau_i) - Pr(Y_{2+i-j} <= tau_{i+1}), tau_0 = inf,
        # level B-1 taking the first term alone, against the scalar Erlang CDF
        params, pol = make(mu, taus)
        B = params.battery
        tau = [math.inf] + taus
        T = transition_matrix(params, pol)
        for j in range(B):
            for i in range(B):
                want = erlang_cdf(ErlangKernel(mu, 1 + i - j), tau[i])
                if i < B - 1:
                    want -= erlang_cdf(ErlangKernel(mu, 2 + i - j), tau[i + 1])
                assert abs(T[j, i] - want) <= 1e-15

    @pytest.mark.parametrize(
        "mu,taus",
        [
            (1.0, [1.5, 0.72]),
            (0.8, [2.0, 1.0, 1.0, 0.0]),
            (1.3, [3.0, 2.6, 2.1, 1.7, 1.2, 0.8, 0.5, 0.2]),
            (1.0, [3.2 - 0.05 * k for k in range(64)]),
        ],
    )
    def test_entries_are_cdf_differences_bitwise(self, mu, taus):
        # the same differences one entry at a time, Pr(Y_n <= tau) = P(n, mu tau)
        # for n >= 1 and 1 for n <= 0, with P from a table of the same battery
        # size whose thresholds all equal tau (C[j, i] = P(1+i-j, mu tau_i)).
        # Every entry is also within 1e-15 of the same differences at 40 digits.
        params, pol = make(mu, taus)
        B = params.battery
        tau = [math.inf] + taus

        def cdf(n, t):
            if n <= 0 or t == math.inf:
                return 1.0
            i = max(n - 1, 1)
            C = threshold_cdfs(gamma_table(mu * np.full((1, B), t), (0.0,)))
            return float(C[0, i + 1 - n, i])

        def reference(n, t):
            if n <= 0 or t == math.inf:
                return mpmath.mpf(1)
            return mpmath.gammainc(n, 0, mu * mpmath.mpf(t), regularized=True)

        T = transition_matrix(params, pol)
        with mpmath.workdps(40):
            for j in range(B):
                for i in range(B):
                    want = cdf(1 + i - j, tau[i])
                    exact = reference(1 + i - j, tau[i])
                    if i < B - 1:
                        want -= cdf(2 + i - j, tau[i + 1])
                        exact -= reference(2 + i - j, tau[i + 1])
                    assert T[j, i] == want
                    assert abs(T[j, i] - float(exact)) <= 1e-15

    def test_batch_rows_are_single_matrices(self):
        params = SystemParams(mu_h=0.9, battery=4)
        taus = np.array([[3.0, 2.0, 1.0, 0.5], [1.0, 1.0, 1.0, 1.0], [4.0, 0.3, 0.2, 0.0]])
        T = transition_matrix(params, taus)
        pi = pi_of(params, taus)
        assert T.shape == (3, 4, 4) and pi.shape == (3, 4)
        for n, row in enumerate(taus):
            pol = validate_policy(params, row)
            assert np.array_equal(T[n], transition_matrix(params, pol))
            assert np.array_equal(pi[n], pi_of(params, pol))

    def test_tau_full_invariance_bitwise(self):
        params, base = make(1.0, [1.5, 1.0, 0.72])
        T0 = transition_matrix(params, base)
        pi0 = pi_of(params, base)
        for tb in (0.3, 0.9, 1.0):
            pol = validate_policy(params, [1.5, 1.0, tb])
            assert np.array_equal(T0, transition_matrix(params, pol))
            assert np.array_equal(pi0, pi_of(params, pol))


class TestCutTables:
    def test_down_rates_are_upper_tails(self):
        # Q_k = e^{-mu tau_k} from the table's upper tails, relative accuracy
        # kept where 1 - P would have rounded to 0; Q_0 = 0 at tau_0 = inf
        params, pol = make(2.0, [30.0, 10.0, 1.0])
        C, Q = cut_tables(params, pol)
        assert C.shape == (3, 3) and Q.shape == (3,)
        assert Q[0] == 0.0
        for k in (1, 2):
            assert Q[k] == pytest.approx(math.exp(-2.0 * pol.thresholds[k - 1]), rel=1e-15)
        assert C[1, 1] == 1.0  # P(1, 60) rounds to 1; Q(1, 60) = 8.8e-27 does not

    def test_down_rate_is_the_one_downward_entry(self):
        params, pol = make(1.3, [2.5, 1.8, 1.1, 0.6, 0.4])
        T = transition_matrix(params, pol)
        Q = cut_tables(params, pol)[1]
        for k in range(1, params.battery):
            assert T[k, k - 1] == pytest.approx(Q[k], rel=1e-13)
            assert np.all(T[k, : k - 1] == 0.0)


class TestStationary:
    def test_single_state(self):
        params, pol = make(1.0, [0.9])
        assert pi_of(params, pol).tolist() == [1.0]

    def test_b2_closed_form(self):
        # balance equation gives pi_0 = e^{-a} / (1 - a e^{-a}) with a = mu tau_1
        params, pol = make(1.0, [1.5, 0.72])
        pi = pi_of(params, pol)
        a = 1.5
        pi0 = math.exp(-a) / (1 - a * math.exp(-a))
        assert pi[0] == pytest.approx(pi0, rel=1e-15)
        assert pi[1] == pytest.approx(1 - pi0, rel=1e-15)

    @pytest.mark.parametrize("taus", [[1.5, 0.72], [2.5, 1.8, 1.1, 0.6, 0.4]])
    def test_fixed_point_residual(self, taus):
        params, pol = make(1.3, taus)
        pi = pi_of(params, pol)
        T = transition_matrix(params, pol)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(pi @ T - pi).max() <= 1e-15

    def test_cut_balance(self):
        params, pol = make(0.7, [6.0, 4.1, 3.3, 1.9, 0.8, 0.3])
        C, Q = cut_tables(params, pol)
        pi = pi_of(params, pol)
        for k in range(1, params.battery):
            assert pi[k] * Q[k] == pytest.approx(pi[:k] @ C[:k, k], rel=1e-14)

    def test_mass_past_double_range_is_rescaled(self):
        # from pi_0 = 1 the masses reach e^{3900}: an unscaled recursion
        # overflows. The batch rescales every policy by powers of two,
        # which leaves the small policy's bits as they are alone.
        params = SystemParams(1.0, 64)
        steep = np.linspace(125.0, 0.5, 64)
        small = np.linspace(1.76, 0.5, 64)
        pi = pi_of(params, np.stack((steep, small)))
        assert np.isfinite(pi).all() and (pi >= 0).all()
        assert pi.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-14)
        assert pi[0, 0] == 0.0 and pi[0, -1] > 0.5  # pi_0 / pi_63 is far below 1e-308
        assert np.array_equal(pi[1], pi_of(params, small[None])[0])
        C, Q = cut_tables(params, steep)
        k = 40  # a cut where both sides are in double range
        assert pi[0, k] * Q[k] == pytest.approx(pi[0, :k] @ C[:k, k], rel=1e-13)


class TestZeroDownRate:
    """Q(1, mu tau) = 0 past tau = 745/mu, and it counts as 0 below 2^-1000:
    the levels below are transient. The expected values are those of the
    LU solves the recursions replaced."""

    CASES = {
        "800,700,1": ([0.0, 0.0, 1.0], [3.0155807857068013, 2.0781158373364206, 0.9034121320549927]),
        "800,1,0.5": (
            [0.0, 0.5819767068693265, 0.41802329313067355],
            [2.1745589535994765, 1.4813445985088816, 0.7627383144783652],
        ),
    }

    @pytest.mark.parametrize("thresholds", list(CASES))
    def test_evaluate_matches_the_lu_solve(self, capsys, thresholds):
        pi_want, levels_want = self.CASES[thresholds]
        argv = ["evaluate", "--mu", "1", "--battery", "3", "--thresholds", thresholds]
        assert cli.main(argv) == 0
        pi = json.loads(capsys.readouterr().out)["stationary"]
        assert max(abs(a - b) for a, b in zip(pi, pi_want)) <= 1e-12
        assert math.copysign(1.0, pi[0]) == 1.0  # +0.0; the LU gave -0.0
        params, pol = make(1.0, [float(t) for t in thresholds.split(",")])
        levels = bellman_levels(params, policy_metrics(params, pol))
        assert np.abs(levels - levels_want).max() <= 1e-12

    def test_huge_rate_exits_without_traceback(self, capsys):
        # mu = 1e300 once met a zero down-rate at the optimizer's start and
        # exited with SingularSystem; at unit rate it answers. Its objective
        # under the power-2 penalty, about 1e-600, leaves double range.
        argv = ["optimize", "--mu", "1e300", "--battery", "2", "--mode", "penalty"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["certified"] is True
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv + ["--penalty", "power", "--exponent", "2"]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err == "error: OverflowError: policy metrics outside double range\n"


class TestRelativeValues:
    @pytest.mark.parametrize("taus", [[0.9], [1.5, 0.72], [2.5, 1.8, 1.1, 0.6, 0.4], [1.0, 1.0, 1.0, 0.3]])
    def test_solves_poisson_equation(self, taus):
        params, pol = make(1.3, taus)
        C, Q = cut_tables(params, pol)
        T = transition_matrix(params, pol)
        pi = pi_of(params, pol)
        c = np.linspace(-1.0, 2.0, len(taus))
        c -= pi @ c  # the equation has a solution iff pi . c = 0
        d = unit_values(C, Q, pi, c)
        h = np.append(np.cumsum(d[::-1])[::-1], 0.0)  # h_{m-1} = h_m + d_m, h_{B-1} = 0
        assert np.abs(h - T @ h - c).max() <= 1e-12

    def test_unreachable_level_raises(self):
        # tau_{B-1} = 0: level B-1 is never reached and its unit value is undetermined
        params, pol = make(1.0, [1.0, 0.0, 0.0])
        C, Q = cut_tables(params, pol)
        pi = pi_of(params, pol)
        with pytest.raises(SingularSystem):
            unit_values(C, Q, pi, np.array([0.5, -0.5, 0.0]) - 0.5 * (pi[0] - pi[1]))


def mpmath_reference(C, Q, ex, epx, mu):
    """pi, Bellman levels and gamma at 50 digits from the same float C and Q.

    T[k, k-1] = Q_k and T[j, i] = C[j, i] - C[j, i+1] above, with C[j, B] = 0,
    the diagonal taking the rest of each row; gamma is recomputed from the
    float moments.
    """
    B = len(Q)
    with mpmath.workdps(50):
        Cm = [[mpmath.mpf(float(x)) for x in row] + [mpmath.mpf(0)] for row in C]
        T = mpmath.zeros(B, B)
        for j in range(B):
            if j:
                T[j, j - 1] = mpmath.mpf(float(Q[j]))
            for i in range(j + 1, B):
                T[j, i] = Cm[j][i] - Cm[j][i + 1]
            T[j, j] = 1 - sum(T[j, i] for i in range(B) if i != j)
        A = T.T - mpmath.eye(B)
        for i in range(B):
            A[B - 1, i] = 1
        rhs = mpmath.zeros(B, 1)
        rhs[B - 1] = 1
        pi = list(mpmath.lu_solve(A, rhs)) if B > 1 else [mpmath.mpf(1)]
        exm = [mpmath.mpf(float(x)) for x in ex]
        epxm = [mpmath.mpf(float(x)) for x in epx]
        gamma = mpmath.fsum(p * x for p, x in zip(pi, epxm)) / mpmath.fsum(p * x for p, x in zip(pi, exm))
        c = [e - gamma * x for e, x in zip(epxm, exm)]
        h = list(mpmath.lu_solve(mpmath.eye(B - 1) - T[: B - 1, : B - 1], mpmath.matrix(c[: B - 1]))) + [0]
        levels = [gamma + mu * (h[i - 1] - h[i]) for i in range(1, B)] + [gamma]
        return pi, levels, gamma


# Thresholds U[low, high] / mu at these B leave pi_0 below _FLOOR = 2^-500
# with no down-rate below TINY, so unit_values takes its cut rows from the
# recursion of _prefix_rows (8 and 11 steps).
PREFIX_RECURSION = {24: (20.0, 30.0), 32: (15.0, 25.0)}


def contract_families(B, mu):
    rng = np.random.default_rng(B)
    yield "U[0,4]", sorted(rng.uniform(0.0, 4.0 / mu, B).tolist(), reverse=True)
    yield "linspace", (np.linspace(1.76, 0.5, B) / mu).tolist()
    yield "U[2,6]", sorted(rng.uniform(2.0 / mu, 6.0 / mu, B).tolist(), reverse=True)
    if B in PREFIX_RECURSION:
        low, high = PREFIX_RECURSION[B]
        taus = np.random.default_rng(B).uniform(low / mu, high / mu, B)
        yield f"U[{low:g},{high:g}]", sorted(taus.tolist(), reverse=True)


@pytest.mark.parametrize("battery", sorted(PREFIX_RECURSION))
def test_prefix_recursion_family_reaches_the_recursion(battery):
    mu = 0.8
    *_, (_, taus) = contract_families(battery, mu)
    params, pol = make(mu, taus)
    _, Q = cut_tables(params, pol)
    assert policy_metrics(params, pol).pi[0] < 2.0**-500 and Q[1:].min() >= TINY


@pytest.mark.parametrize("battery", [2, 4, 8, 16, 24, 32, 64, 128])
def test_accuracy_contract_against_mpmath(battery):
    # pi within 1e-13 relative per entry, down to masses of 1e-100, and the
    # Bellman levels within 1e-13 of max |level - gamma|. Solving the rows
    # of the Poisson equation directly (row 0 dropped) misses the level bound
    # from B = 8 on, by a factor of 1e18 at B = 64.
    mu = 0.8
    params = SystemParams(mu, battery)
    for name, taus in contract_families(battery, mu):
        pol = Policy(tuple(taus))
        m = policy_metrics(params, pol)
        C, Q = cut_tables(params, pol)
        ex, _, epx = m.moments
        pi_ref, levels_ref, gamma_ref = mpmath_reference(C, Q, ex, epx, mu)
        pi_err = max(abs((p - r) / r) for p, r in zip(m.pi, pi_ref))
        assert pi_err <= 1e-13, f"{name}: pi off by {float(pi_err):.2e} relative"
        levels = bellman_levels(params, m)
        scale = max(abs(r - gamma_ref) for r in levels_ref)
        level_err = max(abs(x - r) for x, r in zip(levels, levels_ref)) / scale
        assert level_err <= 1e-13, f"{name}: levels off by {float(level_err):.2e} of the scale"
