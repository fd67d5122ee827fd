import math

import numpy as np
import pytest

from aoiharvest.chain import relative_values, stationary, transition_matrix
from aoiharvest.erlang import ErlangKernel, erlang_cdf
from aoiharvest.model import SystemParams, validate_policy


def make(mu, taus):
    params = SystemParams(mu_h=mu, battery=len(taus))
    return params, validate_policy(params, taus)


class TestTransitionMatrix:
    def test_single_state_identity(self):
        params, pol = make(1.0, [0.9])
        T = transition_matrix(params, pol).entries
        assert T.shape == (1, 1) and T[0, 0] == 1.0

    def test_b2_entries_frozen(self):
        params, pol = make(1.0, [1.5, 0.72])
        T = transition_matrix(params, pol).entries
        # landing full from empty: two arrivals within tau_1
        assert T[0, 1] == pytest.approx(1 - math.exp(-1.5) * 2.5, rel=1e-12)
        # landing full from full: one arrival within tau_1
        assert T[1, 1] == pytest.approx(1 - math.exp(-1.5), rel=1e-12)

    @pytest.mark.parametrize("taus", [[1.5, 0.72], [2.0, 1.0, 0.5], [1.0, 1.0, 1.0, 0.3]])
    def test_rows_stochastic(self, taus):
        params, pol = make(0.8, taus)
        T = transition_matrix(params, pol).entries
        assert np.all(T >= 0) and np.all(T <= 1)
        assert np.allclose(T.sum(axis=1), 1.0, atol=1e-12)

    def test_reachability(self):
        params, pol = make(1.0, [2.0, 1.5, 1.0, 0.5])
        T = transition_matrix(params, pol).entries
        power = np.linalg.matrix_power(T, params.battery - 1)
        assert np.all(power > 0)

    @pytest.mark.parametrize(
        "mu,taus",
        [(1.0, [1.5, 0.72]), (0.8, [2.0, 1.0, 1.0, 0.0]), (1.3, [3.0, 2.6, 2.1, 1.7, 1.2, 0.8, 0.5, 0.2])],
    )
    def test_entries_are_cdf_differences_bitwise(self, mu, taus):
        # T[j, i] = Pr(Y_{1+i-j} <= tau_i) - Pr(Y_{2+i-j} <= tau_{i+1}), tau_0 = inf;
        # level B-1 takes the first term alone, and tiny negatives clamp to 0
        params, pol = make(mu, taus)
        B = params.battery
        tau = [math.inf] + taus
        T = transition_matrix(params, pol).entries
        for j in range(B):
            for i in range(B):
                want = erlang_cdf(ErlangKernel(mu, 1 + i - j), tau[i])
                if i < B - 1:
                    want -= erlang_cdf(ErlangKernel(mu, 2 + i - j), tau[i + 1])
                    if -1e-14 < want < 0.0:
                        want = 0.0
                assert T[j, i] == want

    def test_tau_full_invariance_bitwise(self):
        params, base = make(1.0, [1.5, 1.0, 0.72])
        T0 = transition_matrix(params, base).entries
        pi0 = stationary(transition_matrix(params, base)).pi
        for tb in (0.3, 0.9, 1.0):
            pol = validate_policy(params, [1.5, 1.0, tb])
            T = transition_matrix(params, pol).entries
            pi = stationary(transition_matrix(params, pol)).pi
            assert np.array_equal(T0, T)
            assert np.array_equal(pi0, pi)


class TestStationary:
    def test_single_state(self):
        params, pol = make(1.0, [0.9])
        assert stationary(transition_matrix(params, pol)).pi.tolist() == [1.0]

    def test_b2_closed_form(self):
        # balance equation gives pi_0 = e^{-a} / (1 - a e^{-a}) with a = mu tau_1
        params, pol = make(1.0, [1.5, 0.72])
        pi = stationary(transition_matrix(params, pol)).pi
        a = 1.5
        pi0 = math.exp(-a) / (1 - a * math.exp(-a))
        assert pi[0] == pytest.approx(pi0, rel=1e-12)
        assert pi[1] == pytest.approx(1 - pi0, rel=1e-12)

    @pytest.mark.parametrize("taus", [[1.5, 0.72], [2.5, 1.8, 1.1, 0.6, 0.4]])
    def test_fixed_point_residual(self, taus):
        params, pol = make(1.3, taus)
        tm = transition_matrix(params, pol)
        pi = stationary(tm).pi
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(pi @ tm.entries - pi).max() <= 1e-10


class TestRelativeValues:
    @pytest.mark.parametrize("taus", [[0.9], [1.5, 0.72], [2.5, 1.8, 1.1, 0.6, 0.4], [1.0, 1.0, 1.0, 0.3]])
    def test_solves_poisson_equation(self, taus):
        params, pol = make(1.3, taus)
        tm = transition_matrix(params, pol)
        T, pi = tm.entries, stationary(tm).pi
        c = np.linspace(-1.0, 2.0, len(taus))
        c -= pi @ c  # the equation has a solution iff pi . c = 0
        h = relative_values(T, c)
        assert h[-1] == 0.0
        assert np.abs(h - T @ h - c).max() <= 1e-12
