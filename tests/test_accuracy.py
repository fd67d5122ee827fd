"""Accuracy contract of the evaluator against a 40-digit mpmath oracle.

The oracle is ``perfbench/oracle.py``, loaded by path: it integrates the
survival function piecewise with mpmath's incomplete gamma function and
solves the battery chain with mpmath's LU solver, sharing no code with the
package. Bounds: 1e-10 relative on m1, m2, both averages and every
per-state moment; 1e-12 absolute on the stationary vector.
"""

import importlib.util
import pathlib
import random

import pytest

from aoiharvest.chain import stationary, transition_matrix
from aoiharvest.model import PenaltySpec, SystemParams, validate_policy
from aoiharvest.renewal import policy_metrics

ORACLE_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
REL_TOL = 1e-10
PI_TOL = 1e-12


def load_oracle():
    spec = importlib.util.spec_from_file_location("aoiharvest_mpmath_oracle", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def seeded_policy(battery, mu, seed):
    rng = random.Random(seed)
    return sorted((rng.uniform(0.0, 4.0 / mu) for _ in range(battery)), reverse=True)


def rel(x, ref):
    return abs(x - ref) / abs(ref)


CASES = [
    (1.0, seeded_policy(8, 1.0, 8)),
    (0.6, seeded_policy(16, 0.6, 16)),
    # tiny per-state moments on the short pieces next to tau_B
    (1.0, [1.5, 0.01, 0.01]),
]


@pytest.mark.parametrize("mu,taus", CASES, ids=["B8", "B16", "B3-short"])
@pytest.mark.parametrize("exponent", [1.0, 0.5, 2.0], ids=["id", "pow0.5", "pow2"])
def test_matches_mpmath(mu, taus, exponent):
    ref = load_oracle().policy_metrics(mu, taus, exponent)
    params = SystemParams(mu_h=mu, battery=len(taus))
    policy = validate_policy(params, taus)
    m = policy_metrics(params, policy, PenaltySpec.power(exponent))
    for key in ("m1", "m2", "avg_age", "avg_penalty"):
        assert rel(getattr(m, key), ref[key]) <= REL_TOL, key
    for j, (row, ref_row) in enumerate(zip(m.per_state, ref["per_state"])):
        for x, r in zip(row, ref_row):
            assert rel(x, r) <= REL_TOL, f"state {j}"
    pi = stationary(transition_matrix(params, policy)).pi
    assert max(abs(x - r) for x, r in zip(pi, ref["stationary"])) <= PI_TOL
