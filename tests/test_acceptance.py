"""Acceptance gate: ten numbered criteria, one test (one pass/fail line) each.

Each criterion checks a hard numeric target at a stated tolerance. None of
the tolerances are tuned to the implementation. Where a published reference
row is beaten by a point confirmed optimal by independent oracles, the
published row is kept as a named constant, and the test asserts the
confirmed point and the margin by which it wins, so it fails if the
optimizer ever settles on the published row again.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from aoiharvest.chain import cut_tables, stationary, transition_matrix
from aoiharvest.closedform import b1_average_age, b1_optimal, b2_average_age
from aoiharvest.model import PenaltySpec, Policy, SystemParams, validate_policy
from aoiharvest.optimizer import OptimizerConfig, algorithm1, grid_search, optimize_penalty
from aoiharvest.renewal import interupdate_cdf, moment_derivative_check, policy_metrics
from aoiharvest.simulator import SimConfig, _kernel, simulate

REF_AGE = {1: 0.90, 2: 0.72, 3: 0.64, 4: 0.604}
REF_TAUS = {
    1: (0.90,),
    2: (1.5, 0.72),
    3: (1.5, 1.2, 0.64),
    4: (1.64, 1.24, 1.00, 0.604),
}
# B = 4 row of the paper's Table 1, as published. Its upper thresholds are
# not the optimum of the model: its own average age is 0.60625 (mpmath at 40
# digits agrees to 1e-15), not its tau_B of 0.604, so it misses the fixed
# point p(tau_B) = avg age by 2.3e-3. Multi-start Nelder-Mead, the mpmath
# oracle and a Monte Carlo simulator all put the optimum at
# (1.63659, 1.24339, 1.00480, 0.60234) with age 0.602343, which the
# REF_TAUS[4] row above rounds to 2 decimals.
PUBLISHED_TAUS_B4 = (1.5, 1.2, 0.86, 0.604)


@pytest.fixture(scope="module")
def table1_results():
    """Optimal policies for B = 1..4 at mu = 1, shared across criteria."""
    out = {}
    t0 = time.monotonic()
    for b in range(1, 5):
        config = OptimizerConfig(grid_points=11 if b < 4 else 9, penalty=PenaltySpec.identity())
        out[b] = optimize_penalty(SystemParams(mu_h=1.0, battery=b), config)
    return out, time.monotonic() - t0


def test_criterion_01_table1_reproduction(table1_results):
    results, elapsed = table1_results
    assert elapsed <= 300.0
    for b in range(1, 5):
        r = results[b]
        assert r.objective == pytest.approx(REF_AGE[b], abs=0.01), f"B={b} age"
        assert r.policy.thresholds[-1] == pytest.approx(REF_TAUS[b][-1], abs=0.02), f"B={b} tau_B"
        for i, (got, ref) in enumerate(zip(r.policy.thresholds[:-1], REF_TAUS[b][:-1]), 1):
            assert got == pytest.approx(ref, abs=0.1), f"B={b} tau_{i}"
    b4 = results[4]
    published = policy_metrics(SystemParams(mu_h=1.0, battery=4), Policy(PUBLISHED_TAUS_B4))
    assert published.avg_age - b4.objective >= 3e-3, "B=4 margin over the published row"
    assert abs(b4.policy.thresholds[-1] - b4.objective) <= 1e-6, "B=4 fixed point"


def test_criterion_02_lambert_w_optimum():
    tau, age = b1_optimal(1.0)
    assert abs(tau * tau - 2.0 * math.exp(-tau)) <= 1e-10
    assert age == pytest.approx(tau, abs=1e-9)  # optimum sits on the fixed point
    g = grid_search(
        SystemParams(mu_h=1.0, battery=1),
        OptimizerConfig(grid_points=21, grid_rounds=10),
    )
    assert g.policy.thresholds[0] == pytest.approx(tau, abs=2e-4)


def test_criterion_03_closed_form_equivalence():
    for mu in (0.5, 1.0, 2.0):
        p1 = SystemParams(mu_h=mu, battery=1)
        p2 = SystemParams(mu_h=mu, battery=2)
        taus = np.linspace(0.05, 3.0, 20) / mu
        for t1 in taus:
            assert b1_average_age(mu, t1) == pytest.approx(
                policy_metrics(p1, Policy((t1,))).avg_age, rel=1e-9
            )
            for t2 in taus:
                if t2 > t1:
                    continue
                assert b2_average_age(mu, t1, t2) == pytest.approx(
                    policy_metrics(p2, Policy((t1, t2))).avg_age, rel=1e-9
                )


def test_criterion_04_penalty_fixed_point():
    penalties = [PenaltySpec.identity(), PenaltySpec.power(2.0)]
    for b in (1, 2, 3):
        params = SystemParams(mu_h=1.0, battery=b)
        for pen in penalties:
            r = optimize_penalty(params, OptimizerConfig(grid_points=11, penalty=pen))
            tau_b = r.policy.thresholds[-1]
            assert abs(pen(tau_b) - r.objective) <= 2e-3, (b, pen.terms)


def test_criterion_05_moment_identity():
    rng = np.random.default_rng(20240817)
    params = SystemParams(mu_h=1.0, battery=3)
    h = 1e-5
    for _ in range(3):
        gaps = rng.uniform(0.2, 1.0, size=3)
        taus = tuple(np.cumsum(gaps[::-1])[::-1] + 0.1)
        policy = validate_policy(params, taus)
        for i in (1, 2, 3):
            assert moment_derivative_check(params, policy, i, h) <= 1e-4


def test_criterion_06_algorithm1_gap():
    for b in (2, 3):
        params = SystemParams(mu_h=1.0, battery=b)
        a1 = algorithm1(params, OptimizerConfig(q=10, grid_points=11))
        ref = optimize_penalty(
            params, OptimizerConfig(grid_points=13, refine_tol=1e-8)
        )
        assert a1.gap_bound == pytest.approx(1.0 / 2**11, rel=1e-12)
        assert a1.objective - ref.objective <= a1.gap_bound + 1e-4, f"B={b}"


def test_criterion_07_monte_carlo_agreement():
    params = SystemParams(mu_h=1.0, battery=2)
    policy = Policy((1.5, 0.72))
    t0 = time.monotonic()
    rep = simulate(
        params, policy, PenaltySpec.identity(), SimConfig(seed=1234, renewals=10**6)
    )
    assert time.monotonic() - t0 <= 30.0
    assert abs(rep.avg_age - 0.7198) <= 3.0 * rep.stderr
    pi = stationary(*cut_tables(params, policy))
    n = rep.renewals_measured
    for j in range(2):
        sigma = math.sqrt(pi[j] * (1.0 - pi[j]) / n)
        assert abs(rep.state_freq[j] - pi[j]) <= 3.0 * sigma, f"state {j}"
    assert pi[0] == pytest.approx(0.3354, abs=5e-5)
    assert pi[1] == pytest.approx(0.6646, abs=5e-5)


def test_criterion_08_structural_monotonicity(table1_results):
    results, _ = table1_results
    ages = [results[b].objective for b in range(1, 5)]
    assert all(a > b for a, b in zip(ages, ages[1:]))
    assert ages[-1] > 0.5  # infinite-battery floor 1/(2 mu)
    scaled = []
    for mu in (0.5, 1.0, 2.0):
        r = optimize_penalty(
            SystemParams(mu_h=mu, battery=2), OptimizerConfig(grid_points=11)
        )
        scaled.append(mu * r.objective)
    assert max(scaled) - min(scaled) <= 1e-3


def test_criterion_09_distributional_oracle():
    params = SystemParams(mu_h=1.0, battery=2)
    policy = Policy((1.2, 0.6))
    taus = np.asarray(policy.thresholds)
    per_state = 10**5
    rng = np.random.Generator(np.random.PCG64(99))
    x, post = _kernel.run_cycles(taus, params.mu_h, 450000, 0, rng)
    pre = np.concatenate(([0], post[:-1]))
    vrng = np.random.Generator(np.random.PCG64(100))
    for j in (0, 1):
        samples = x[pre == j][:per_state]
        assert len(samples) == per_state
        # the law has atoms at the thresholds, so test via the randomized
        # probability integral transform, uniform iff the sample follows F
        right = np.array([interupdate_cdf(params, policy, j, float(v)) for v in samples])
        left = np.array(
            [interupdate_cdf(params, policy, j, float(np.nextafter(v, -np.inf))) for v in samples]
        )
        u = left + vrng.random(per_state) * (right - left)
        res = stats.kstest(u, "uniform")
        assert res.pvalue > 0.001, f"start state {j}: p={res.pvalue}"


def test_criterion_10_tau_b_invariance():
    params = SystemParams(mu_h=1.0, battery=3)
    base = Policy((1.4, 0.8, 0.5))
    t_ref = transition_matrix(params, base)
    pi_ref = stationary(*cut_tables(params, base))
    for tau3 in (0.0, 0.2, 0.8):
        pol = Policy((1.4, 0.8, tau3))
        t = transition_matrix(params, pol)
        assert t.tobytes() == t_ref.tobytes()
        assert stationary(*cut_tables(params, pol)).tobytes() == pi_ref.tobytes()
