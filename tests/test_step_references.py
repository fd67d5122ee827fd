"""A policy-iteration step against copies of the code it replaced.

PenaltySpec.inverse returns the closed form for one power term instead of
setting up a bisection: new and old run the same floating-point operations
in the same order, so they must agree bit for bit. bellman_levels solves
the pi-weighted cut rows by back substitution (chain.unit_values) instead
of the Poisson equation by LU: the LU copy below is an oracle at a stated
bound, LEVELS_TOL relative to the largest level and at least 1. The cut
rows meet the 50-digit contract of tests/test_chain.py; the LU differs
from them by up to 1.6e-12 on these policies.
"""

import numpy as np
import pytest

from aoiharvest.chain import transition_matrix
from aoiharvest.model import PenaltySpec, Policy, SystemParams
from aoiharvest.renewal import bellman_levels, policy_metrics

LEVELS_TOL = 1e-11


def reference_inverse(self, y):
    """PenaltySpec.inverse before the closed form, word for word."""
    rise = np.maximum(np.asarray(y, dtype=float) - sum(c for c, a in self.terms if a == 0), 0.0)
    powers = [(c, a) for c, a in self.terms if a > 0]
    hi = np.min([(rise / c) ** (1.0 / a) for c, a in powers], axis=0)
    lo = np.min([(rise / (len(powers) * c)) ** (1.0 / a) for c, a in powers], axis=0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not ((lo < mid) & (mid < hi)).any():
            break
        above = sum(c * mid**a for c, a in powers) >= rise
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return hi


def reference_relative_values(T, c):
    """chain.relative_values before the cut rows, word for word but for its
    error wrapper: its solve was np.linalg.solve."""
    B = T.shape[0]
    h = np.zeros(B)
    if B > 1:
        h[:-1] = np.linalg.solve(np.eye(B - 1) - T[:-1, :-1], c[:-1])
    return h


def reference_bellman_levels(params, policy, metrics):
    """renewal.bellman_levels before the cut rows, word for word but for the
    transition matrix, which metrics no longer holds, and the moments, which
    it holds as one (3, B) array."""
    ex, _, epx = metrics.moments
    gamma = metrics.avg_penalty
    h = reference_relative_values(transition_matrix(params, policy), epx - gamma * ex)
    return gamma + params.mu_h * np.append(h[:-1] - h[1:], 0.0)


PENALTIES = {
    "identity": PenaltySpec.identity(),
    "power0.5": PenaltySpec.power(0.5),
    "power2": PenaltySpec.power(2.0),
    "2.5x^1.5": PenaltySpec.power(1.5, 2.5),
    "0.3+x^3": PenaltySpec(((0.3, 0.0), (1.0, 3.0))),
    "multi-term": PenaltySpec(((1.0, 0.0), (2.0, 0.5), (0.5, 2.0))),
}
RATES = (0.7, 1.0, 2.3)


def policies(battery, mu, count=4):
    """Seeded monotone policies on [0, 4/mu], plus the optimizer's start."""
    rng = np.random.default_rng(100 * battery + int(10 * mu))
    out = [Policy(tuple(sorted(rng.uniform(0.0, 4.0 / mu, battery).tolist(), reverse=True))) for _ in range(count)]
    out.append(Policy(tuple((0.75 + 0.4 * (battery - 1 - i)) / mu for i in range(battery))))
    return out


def same_bits(new, old):
    new, old = np.asarray(new), np.asarray(old)
    return new.dtype == old.dtype and new.shape == old.shape and new.tobytes() == old.tobytes()


@pytest.mark.parametrize("penalty", list(PENALTIES.values()), ids=list(PENALTIES))
@pytest.mark.parametrize("battery", range(1, 9))
class TestAgainstReferences:
    def test_bellman_levels(self, battery, penalty):
        for mu in RATES:
            params = SystemParams(mu, battery)
            for policy in policies(battery, mu):
                m = policy_metrics(params, policy, penalty)
                new, old = bellman_levels(params, m), reference_bellman_levels(params, policy, m)
                assert np.abs(new - old).max() <= LEVELS_TOL * max(1.0, np.abs(old).max())

    def test_inverse_of_levels(self, battery, penalty):
        for mu in RATES:
            params = SystemParams(mu, battery)
            for policy in policies(battery, mu):
                levels = reference_bellman_levels(params, policy, policy_metrics(params, policy, penalty))
                for y in (levels, levels[:-1], levels[-1], float(levels[0])):
                    assert same_bits(penalty.inverse(y), reference_inverse(penalty, y))


@pytest.mark.parametrize("penalty", list(PENALTIES.values()), ids=list(PENALTIES))
def test_inverse_at_and_below_the_floor(penalty):
    floor = penalty(0.0)
    ys = [floor, floor - 1.0, -3.0, 0.0, floor + 1e-300, floor + 5e-324, 1e300, np.inf]
    with np.errstate(over="ignore"):  # 1e300 squared, in both
        for y in ys:
            new, old = penalty.inverse(y), reference_inverse(penalty, y)
            assert type(new) is type(old) and same_bits(new, old)
        assert same_bits(penalty.inverse(np.array(ys)), reference_inverse(penalty, np.array(ys)))
    grid = np.linspace(floor - 2.0, floor + 50.0, 257).reshape(257, 1)
    assert same_bits(penalty.inverse(grid), reference_inverse(penalty, grid))
