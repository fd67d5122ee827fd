import dataclasses
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import minimize

from aoiharvest import optimizer
from aoiharvest.model import PenaltySpec, Policy, SystemParams
from aoiharvest.optimizer import (
    BudgetExceeded,
    OptimizerConfig,
    algorithm1,
    feasible,
    grid_search,
    optimize_penalty,
)
from aoiharvest.renewal import avg_penalties, policy_metrics

TAU_STAR_B1 = 0.901201031729666  # 2 W(1/sqrt 2)
SRC = pathlib.Path(optimizer.__file__).resolve().parents[1]


def inner_minimize(params, config, tau_b):
    """The upper thresholds and objective of the policy iteration at fixed tau_B, at mu = 1."""
    assert params.mu_h == 1.0, "the search runs at unit rate"
    search = optimizer._Search(params.battery, config.penalty)
    point = search.run(optimizer._cold_start(params.battery, tau_b), pinned=True)
    return point.taus[:-1], point.objective


def cfg(**kw):
    kw.setdefault("grid_points", 11)
    kw.setdefault("refine_tol", 1e-7)
    return OptimizerConfig(**kw)


class TestGridSearch:
    def test_b1_fine_grid(self):
        params = SystemParams(1.0, 1)
        r = grid_search(params, cfg(grid_points=2001, grid_rounds=1))
        assert r.policy.thresholds[0] == pytest.approx(TAU_STAR_B1, abs=5e-4)
        assert r.objective == pytest.approx(TAU_STAR_B1, abs=2e-4)

    def test_b2_zoomed(self):
        params = SystemParams(1.0, 2)
        r = grid_search(params, cfg(grid_points=13, grid_rounds=6))
        assert r.objective == pytest.approx(0.7198, abs=1e-3)
        assert r.policy.tau_full == pytest.approx(0.72, abs=0.02)

    def test_objective_consistent_with_evaluator(self):
        params = SystemParams(1.0, 2)
        r = grid_search(params, cfg(grid_points=9, grid_rounds=3))
        m = policy_metrics(params, r.policy)
        assert r.objective == pytest.approx(m.avg_penalty, rel=1e-12)

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError, match="grid_rounds >= 1"):
            OptimizerConfig(grid_rounds=0)

    @pytest.mark.parametrize(
        "counts", [dict(q=2.5), dict(q=True), dict(grid_points=2.5), dict(grid_rounds=1.5), dict(grid_rounds=True)]
    )
    def test_config_rejects_non_integer_counts(self, counts):
        # each of these passed the range check and failed later, in algorithm1
        # or grid_search, with a TypeError
        with pytest.raises(ValueError, match="must be integers"):
            OptimizerConfig(**counts)

    def test_budget_guard(self):
        params = SystemParams(1.0, 9)
        with pytest.raises(BudgetExceeded):
            grid_search(params, cfg(grid_points=15))

    def test_passes_over_vertices_outside_double_range(self):
        # p(x) = 1e308 x: the average penalty overflows on the larger gaps of
        # the first round, which the grid searches at unit rate whatever mu
        params, penalty = SystemParams(1.0, 2), PenaltySpec.power(1.0, 1e308)
        axes = [np.linspace(0.5, 1.0, 15), np.linspace(0.0, optimizer.UPPER_CAP_FACTOR, 15)]
        taus = np.array([[a + g, a] for a in axes[0] for g in axes[1]])
        vals = avg_penalties(params, taus, penalty)
        assert 0 < np.isfinite(vals).sum() < len(vals) and not np.isnan(vals).any()
        r = grid_search(params, cfg(grid_points=15, grid_rounds=3, penalty=penalty))
        assert np.isfinite(r.objective)
        assert r.objective <= vals.min()

    def test_no_finite_vertex_raises_overflow(self):
        # p(x) = 1e308 x^2: every vertex's average penalty is past double range
        penalty = PenaltySpec.power(2.0, 1e308)
        with pytest.raises(OverflowError, match="at every grid vertex"):
            grid_search(SystemParams(1.0, 2), cfg(grid_points=5, grid_rounds=2, penalty=penalty))


class TestInnerMinimize:
    def test_b2_at_optimal_tau(self):
        params = SystemParams(1.0, 2)
        uppers, obj = inner_minimize(params, cfg(), 0.72)
        assert obj == pytest.approx(0.7198, abs=1e-3)
        assert uppers[0] == pytest.approx(1.48, abs=0.1)

    def test_b1_degenerate(self):
        params = SystemParams(1.0, 1)
        uppers, obj = inner_minimize(params, cfg(), TAU_STAR_B1)
        assert uppers == ()
        assert obj == pytest.approx(TAU_STAR_B1, abs=1e-6)

    def test_point_below_diagonal_exists(self):
        params = SystemParams(1.0, 2)
        _, obj = inner_minimize(params, cfg(), 0.9)
        assert obj < 0.9


class TestFeasible:
    @pytest.mark.parametrize("tau,expect", [(0.60, False), (0.80, True), (1.0, True)])
    def test_b2(self, tau, expect):
        params = SystemParams(1.0, 2)
        assert feasible(params, cfg(), tau) is expect

    def test_b1_at_one(self):
        params = SystemParams(1.0, 1)
        assert feasible(params, cfg(), 1.0) is True

    def test_monotone_in_tau(self):
        params = SystemParams(1.0, 2)
        flags = [feasible(params, cfg(), t) for t in (0.55, 0.65, 0.75, 0.85, 0.95)]
        # once feasible, stays feasible
        assert flags == sorted(flags)

    @pytest.mark.parametrize("battery", [1, 2, 3, 4, 5])
    def test_feasible_exactly_at_or_above_the_optimal_age(self, battery):
        params, config = SystemParams(1.0, battery), OptimizerConfig()
        gamma = optimize_penalty(params, config).objective
        grid = [*np.linspace(0.5, 1.0, 21), gamma - 1e-8, gamma + 1e-8]
        taus = [tau for tau in grid if abs(tau - gamma) > 1e-9]
        assert [feasible(params, config, tau) for tau in taus] == [tau >= gamma for tau in taus]

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan])
    def test_rejects_a_tau_that_is_not_positive(self, tau):
        with pytest.raises(ValueError, match="tau_b must be positive"):
            feasible(SystemParams(1.0, 2), cfg(), tau)


class TestAlgorithm1:
    def test_b1_converges_to_lambert_threshold(self):
        params = SystemParams(1.0, 1)
        r = algorithm1(params, cfg(q=10))
        assert r.policy.tau_full == pytest.approx(TAU_STAR_B1, abs=1 / 2**11)
        assert r.gap_bound == pytest.approx(1 / 2**11)

    def test_b2_certified_gap(self):
        params = SystemParams(1.0, 2)
        r = algorithm1(params, cfg(q=10))
        assert r.objective - 0.7197539 <= r.gap_bound + 1e-6

    def test_bracket_halves_and_nests(self):
        params = SystemParams(1.0, 2)
        r = algorithm1(params, cfg(q=6))
        widths = [hi - lo for lo, hi in r.trace]
        for a, b in zip(widths, widths[1:]):
            assert b == pytest.approx(a / 2, rel=1e-12)
        los = [lo for lo, _ in r.trace]
        his = [hi for _, hi in r.trace]
        assert los == sorted(los) and his == sorted(his, reverse=True)

    def test_requires_identity_penalty(self):
        params = SystemParams(1.0, 2)
        with pytest.raises(ValueError):
            algorithm1(params, cfg(penalty=PenaltySpec.power(2.0)))


class TestOptimizePenalty:
    def test_identity_matches_algorithm1(self):
        params = SystemParams(1.0, 2)
        r1 = algorithm1(params, cfg(q=12))
        r2 = optimize_penalty(params, cfg())
        assert abs(r1.objective - r2.objective) <= 1e-4
        assert r2.certified

    def test_b1_fixed_point(self):
        params = SystemParams(1.0, 1)
        r = optimize_penalty(params, cfg())
        assert r.policy.tau_full == pytest.approx(TAU_STAR_B1, abs=1e-4)
        assert abs(r.policy.tau_full - r.objective) <= 1e-5

    def test_quadratic_penalty_certificate(self):
        params = SystemParams(1.0, 1)
        r = optimize_penalty(params, cfg(penalty=PenaltySpec.power(2.0)))
        assert r.certified
        assert r.policy.tau_full**2 == pytest.approx(r.objective, abs=1e-5)

    @pytest.mark.parametrize("battery", [4, 6])
    @pytest.mark.parametrize("exponent", [1.0, 0.5, 2.0])
    def test_single_start_matches_multi_start(self, battery, exponent):
        # The optimizer's one fixed start must do at least as well as the
        # best of four seeded random starts of a bounded L-BFGS-B search
        # over (tau_B, gaps), an oracle independent of policy iteration.
        params = SystemParams(1.0, battery)
        pen = PenaltySpec.identity() if exponent == 1.0 else PenaltySpec.power(exponent)
        r = optimize_penalty(params, cfg(penalty=pen))

        def objective(v):
            taus = np.concatenate((np.cumsum(v[:0:-1])[::-1], [0.0])) + v[0]
            return policy_metrics(params, Policy(tuple(taus)), pen).avg_penalty

        rng = np.random.default_rng(battery * 10 + int(2 * exponent))
        bounds = [(1e-9, 4.0)] + [(0.0, 20.0)] * (battery - 1)
        best = min(
            minimize(
                objective,
                np.concatenate(([rng.uniform(0.2, 2.0)], rng.uniform(0.0, 1.0, battery - 1))),
                method="L-BFGS-B",
                bounds=bounds,
                options={"ftol": 1e-15, "gtol": 1e-12},
            ).fun
            for _ in range(4)
        )
        assert r.objective <= best + 1e-10
        assert r.certified

    def test_scale_invariant_argmin(self):
        base = optimize_penalty(SystemParams(1.0, 2), cfg())
        scaled = optimize_penalty(SystemParams(2.0, 2), cfg())
        for a, b in zip(base.policy.thresholds, scaled.policy.thresholds):
            assert b == pytest.approx(a / 2, abs=1e-3)


def test_optimal_age_decreases_in_battery():
    objs = []
    for b in (1, 2, 3, 4, 5, 6):
        objs.append(optimize_penalty(SystemParams(1.0, b), cfg()).objective)
    assert all(a > b for a, b in zip(objs, objs[1:]))
    assert objs[-1] > 0.5  # infinite-battery floor 1/(2 mu)


def test_algorithm1_within_gap_of_joint_optimum_b5():
    params = SystemParams(1.0, 5)
    a1 = algorithm1(params, cfg(q=10))
    ref = optimize_penalty(params, cfg())
    assert a1.gap_bound == pytest.approx(1 / 2**11)
    assert -1e-9 <= a1.objective - ref.objective <= a1.gap_bound


# The finite-difference engine's algorithm1 objective at B = 4, mu = 1, default config.
ALGORITHM1_B4_OBJECTIVE = 0.6023427657200854


@pytest.fixture
def metrics_calls(monkeypatch):
    """One entry per policy_metrics call the optimizer makes."""
    from aoiharvest import optimizer

    calls = []
    real = optimizer.policy_metrics

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(optimizer, "policy_metrics", counted)
    return calls


class TestObservability:
    """Evaluation counts are machine-independent budgets (2x the measured count)."""

    def test_optimize_penalty_budget_b4(self):
        r = optimize_penalty(SystemParams(1.0, 4), OptimizerConfig())
        assert 0 < r.evaluations <= 24  # measured 12; finite differences took 85
        assert r.fixed_point_residual == abs(r.policy.tau_full - r.objective)
        assert r.fixed_point_residual <= 1e-6

    def test_algorithm1_budget_b4(self):
        r = algorithm1(SystemParams(1.0, 4), OptimizerConfig())
        assert 0 < r.evaluations <= 150  # measured 75; cold, unstopped tests took 832
        assert r.fixed_point_residual == abs(r.policy.tau_full - r.objective)

    def test_evaluations_count_policy_metrics_calls(self, metrics_calls):
        params = SystemParams(1.0, 3)
        for run in (algorithm1, optimize_penalty):
            metrics_calls.clear()
            assert run(params, OptimizerConfig()).evaluations == len(metrics_calls)

    def test_grid_counts_every_vertex(self):
        r = grid_search(SystemParams(1.0, 2), cfg(grid_points=5, grid_rounds=3))
        assert r.evaluations == 3 * 5**2


class TestAlgorithm1Bisection:
    """Every bisection step holds under a cold full search at its endpoints."""

    @pytest.mark.parametrize("battery", [2, 3, 4, 5])
    def test_trace_steps_hold_under_cold_search(self, battery):
        params = SystemParams(1.0, battery)
        config = OptimizerConfig()
        r = algorithm1(params, config)
        for lo, hi in r.trace:
            assert inner_minimize(params, config, hi)[1] <= hi + 1e-9
            if lo > 0.5:
                assert inner_minimize(params, config, lo)[1] > lo + 1e-9

    def test_b4_objective_unchanged(self):
        r = algorithm1(SystemParams(1.0, 4), OptimizerConfig())
        assert r.objective == pytest.approx(ALGORITHM1_B4_OBJECTIVE, rel=1e-12)

    @pytest.mark.parametrize("q", [30, 50])
    @pytest.mark.parametrize("battery", [1, 2, 3, 4])
    def test_last_bracket_contains_the_optimum(self, battery, q):
        # a feasibility test that accepted a witness up to 1e-9 above tau_B
        # left the optimum about 1e-9 above the bracket once q reached 29
        params = SystemParams(1.0, battery)
        lo, hi = algorithm1(params, OptimizerConfig(q=q)).trace[-1]
        best = optimize_penalty(params, OptimizerConfig()).objective
        assert lo - 4 * math.ulp(best) <= best <= hi + 4 * math.ulp(best)


def reference_algorithm1(params, config):
    """algorithm1 with one cold feasibility test per step and a cold final search."""
    optimizer._require_identity(config)
    unit = SystemParams(1.0, params.battery)
    lo, hi = 0.5, 1.0
    if not feasible(unit, config, hi):
        raise optimizer.BracketInvalid(f"upper bracket endpoint {hi / params.mu_h} is infeasible")
    trace = [(lo, hi)]
    for _ in range(config.q):
        mid = 0.5 * (lo + hi)
        if feasible(unit, config, mid):
            hi = mid
        else:
            lo = mid
        trace.append((lo, hi))
    search = optimizer._Search(params.battery, config.penalty)
    point = search.run(optimizer._cold_start(params.battery, hi), pinned=True)
    return optimizer._result(
        params, search, point, params.mu_h, gap_bound=1.0 / 2.0 ** (config.q + 1), trace=trace
    )


class TestAlgorithm1FromTheOptimum:
    """Steps answered by mid >= gamma decide as the per-step feasibility tests do."""

    @pytest.mark.parametrize("q", [10, 30])
    @pytest.mark.parametrize("battery", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("mu", [0.5, 0.73, 1.3, 2.0, 1e-200, 1e200])
    def test_same_trace_and_objective_as_feasible(self, mu, battery, q):
        params, config = SystemParams(mu, battery), OptimizerConfig(q=q)
        r = algorithm1(params, config)
        ref = reference_algorithm1(params, config)
        assert r.trace == ref.trace
        assert r.objective == pytest.approx(ref.objective, rel=1e-12, abs=0.0)
        assert r.certified

    @pytest.mark.parametrize("battery", [2, 3, 4])
    def test_evaluation_budget(self, battery):
        # measured 7, 6 and 7; one feasibility test per step took 25, 24 and 24
        assert algorithm1(SystemParams(1.0, battery), OptimizerConfig()).evaluations <= 10

    @pytest.mark.parametrize("battery, evaluations", [(1, 5), (2, 7), (3, 6), (4, 7), (8, 7)])
    def test_final_search_starts_at_the_optimum(self, monkeypatch, battery, evaluations):
        # the optimum's thresholds with tau_B moved to hi: one evaluation
        # fewer at B >= 2 than a start that shifts every gap up to hi (8, 7,
        # 8 and 8); B = 1 has no gap to keep
        runs, evaluated = [], []
        real_run, real_evaluate = optimizer._Search.run, optimizer._Search._evaluate

        def run(self, taus, pinned=False):
            first = len(evaluated)
            point = real_run(self, taus, pinned)
            runs.append((pinned, evaluated[first], point))
            return point

        def evaluate(self, taus):
            evaluated.append(taus)
            return real_evaluate(self, taus)

        monkeypatch.setattr(optimizer._Search, "run", run)
        monkeypatch.setattr(optimizer._Search, "_evaluate", evaluate)
        r = algorithm1(SystemParams(1.0, battery), OptimizerConfig())
        assert r.evaluations == evaluations
        (unpinned, _, optimum), (pinned, start, _) = runs
        hi = r.trace[-1][1]
        assert not unpinned and pinned
        assert list(start) == [max(z, hi) for z in optimum.taus[:-1]] + [hi]

    @pytest.mark.parametrize("gamma", [0.49, 1.01, math.nan])
    def test_optimum_outside_the_bracket_raises(self, monkeypatch, gamma):
        real = optimizer._Search.run

        def run(self, taus, pinned=False):
            point = real(self, taus, pinned)
            return point if pinned else dataclasses.replace(point, objective=gamma)

        monkeypatch.setattr(optimizer._Search, "run", run)
        with pytest.raises(optimizer.BracketInvalid):
            algorithm1(SystemParams(1.0, 2), OptimizerConfig())


@pytest.fixture
def relative_value_solves(monkeypatch):
    """One entry per solve for the unit values (renewal.bellman_levels reads them)."""
    from aoiharvest import renewal

    calls = []
    real = renewal.unit_values

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(renewal, "unit_values", counted)
    return calls


class TestLevelsOnlyWhenRead:
    """A step solves for the relative values only when it reads the Bellman levels."""

    def test_pinned_only_threshold_solves_nothing(self, relative_value_solves):
        # 0.6 is below the B = 1 optimum 0.9012: infeasible, one step, converged
        search = optimizer._Search(1, PenaltySpec.identity())
        assert search.run([0.6], pinned=True).objective > 0.6
        assert search.stop_reason == "converged" and search.evaluations == 1
        assert relative_value_solves == []

    def test_algorithm1_b1_solves_for_four_unpinned_steps_and_the_certificate(self, relative_value_solves):
        # four unpinned steps that read the levels (the optimum's gamma answers
        # every bisection step), one pinned step at the final hi that reads
        # none, and the certificate
        r = algorithm1(SystemParams(1.0, 1), OptimizerConfig())
        assert r.evaluations == 5 and len(relative_value_solves) == 5
        assert r.bellman_residual == r.fixed_point_residual

    @pytest.mark.parametrize("battery", [2, 3, 5])
    def test_one_solve_per_step_at_most(self, relative_value_solves, battery):
        r = optimize_penalty(SystemParams(1.0, battery), OptimizerConfig())
        assert 0 < len(relative_value_solves) <= r.evaluations


def test_large_battery_certified():
    config = OptimizerConfig()
    r16 = optimize_penalty(SystemParams(1.0, 16), config)
    r12 = optimize_penalty(SystemParams(1.0, 12), config)
    assert r16.certified and r16.fixed_point_residual <= 1e-6
    assert r16.objective < r12.objective


class TestPolicyIteration:
    def test_battery_32_certified_within_budget(self):
        r = optimize_penalty(SystemParams(1.0, 32), OptimizerConfig())
        assert r.certified and r.stop_reason in ("converged", "objective stopped falling")
        assert r.bellman_residual <= 1e-10
        assert r.fixed_point_residual <= 1e-10
        assert 0 < r.evaluations <= 30  # measured 10; L-BFGS-B took 592

    @pytest.mark.parametrize("battery, budget", [(64, 8), (256, 10)])
    def test_unit_scale_start_certified_within_budget(self, battery, budget):
        # the start at z_1 <= 2; from z_1 = 0.4 B the halving took 12 and 16
        r = optimize_penalty(SystemParams(1.0, battery), OptimizerConfig())
        assert r.certified and r.bellman_residual <= 1e-10
        assert 0 < r.evaluations <= budget

    @pytest.mark.parametrize(
        "exponent, battery, evaluations, stop_reason",
        [
            (1.0, 1, 4, "converged"),
            (1.0, 2, 5, "objective stopped falling"),
            (1.0, 3, 4, "objective stopped falling"),
            (1.0, 4, 5, "objective stopped falling"),
            (1.0, 8, 5, "converged"),
            (1.0, 16, 6, "objective stopped falling"),
            (0.5, 1, 4, "objective stopped falling"),
            (0.5, 2, 4, "converged"),
            (0.5, 3, 5, "objective stopped falling"),
            (0.5, 4, 5, "objective stopped falling"),
            (0.5, 8, 5, "converged"),
            (0.5, 16, 6, "objective stopped falling"),
        ],
    )
    def test_cold_start_evaluations_and_stop_reason(self, exponent, battery, evaluations, stop_reason):
        # the cold start's counts: a start with other bits would change them
        config = OptimizerConfig(penalty=PenaltySpec.power(exponent))
        r = optimize_penalty(SystemParams(1.0, battery), config)
        assert (r.evaluations, r.stop_reason) == (evaluations, stop_reason)

    @pytest.mark.parametrize("exponent", [1.0, 0.5, 2.0])
    @pytest.mark.parametrize("battery", [64, 256])
    def test_tie_stop_meets_the_residual(self, battery, exponent):
        # an objective tie ends the run only where the Bellman residual is at
        # most TIE_RESIDUAL relative, or on a second tie in a row; each of
        # these runs stops on its first
        r = optimize_penalty(SystemParams(1.0, battery), OptimizerConfig(penalty=PenaltySpec.power(exponent)))
        assert r.stop_reason == "objective stopped falling"
        assert r.bellman_residual <= optimizer.TIE_RESIDUAL * max(1.0, abs(r.objective))

    @pytest.mark.parametrize("exponent, battery", [(1.0, 4), (1.0, 64), (0.5, 16)])
    def test_tie_above_the_residual_steps_on(self, monkeypatch, exponent, battery):
        # where no residual is small enough and no step small enough to
        # converge, a tie takes one more step, and the next tie (or rise)
        # stops the run whatever its residual
        params, config = SystemParams(1.0, battery), OptimizerConfig(penalty=PenaltySpec.power(exponent))
        first = optimize_penalty(params, config)
        assert first.stop_reason == "objective stopped falling"
        monkeypatch.setattr(optimizer, "TIE_RESIDUAL", 0.0)
        monkeypatch.setattr(optimizer, "STEP_TOL", 0.0)
        r = optimize_penalty(params, config)
        assert r.stop_reason == "objective stopped falling"
        assert r.evaluations == first.evaluations + 1
        assert r.objective == pytest.approx(first.objective, rel=optimizer.OBJECTIVE_TIE)

    @pytest.mark.parametrize("exponent", [10.0, 40.0])
    def test_steep_power_penalty_certified(self, exponent):
        # the certificate scales with the objective: 26002 at power 10, 1.9e40 at 40
        r = optimize_penalty(SystemParams(1.0, 2), cfg(penalty=PenaltySpec.power(exponent)))
        assert r.certified
        assert r.fixed_point_residual <= 1e-8 * r.objective
        if exponent == 40.0:
            # the L-BFGS-B search, boxed at tau_B <= 4/mu, stopped at 4.64e40
            assert r.objective < 4.64e40 and r.policy.tau_full > 4.0

    def test_multi_term_penalty_meets_every_bellman_condition(self):
        pen = PenaltySpec(((1.0, 0.0), (2.0, 0.5), (0.5, 2.0)))
        r = optimize_penalty(SystemParams(1.3, 5), cfg(penalty=pen))
        assert r.certified and r.bellman_residual <= 1e-9


def test_no_scipy_optimize_at_import():
    code = "import sys, aoiharvest.cli; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "False"
