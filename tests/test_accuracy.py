"""Accuracy contract of the evaluator against a 40-digit mpmath oracle.

The oracle is ``perfbench/oracle.py``, loaded by path: it integrates the
survival function piecewise with mpmath's incomplete gamma function and
solves the battery chain with mpmath's LU solver, sharing no code with the
package. Bounds: 1e-10 relative on m1, m2, both averages and every
per-state moment; 1e-12 absolute on the stationary vector. The B = 32
policy takes the oracle several seconds per penalty. On small policies
with ties and near-zero pieces every per-state moment is also held to
1e-12 relative.
"""

import importlib.util
import pathlib
import random

import pytest

from aoiharvest.chain import cut_tables, stationary
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
    (1.4, seeded_policy(32, 1.4, 32)),
]


@pytest.mark.parametrize("mu,taus", CASES, ids=["B8", "B16", "B3-short", "B32"])
@pytest.mark.parametrize("exponent", [1.0, 0.5, 2.0], ids=["id", "pow0.5", "pow2"])
def test_matches_mpmath(mu, taus, exponent):
    ref = load_oracle().policy_metrics(mu, taus, exponent)
    params = SystemParams(mu_h=mu, battery=len(taus))
    policy = validate_policy(params, taus)
    m = policy_metrics(params, policy, PenaltySpec.power(exponent))
    for key in ("m1", "m2", "avg_age", "avg_penalty"):
        assert rel(getattr(m, key), ref[key]) <= REL_TOL, key
    for j, (row, ref_row) in enumerate(zip(m.moments.T, ref["per_state"])):
        for x, r in zip(row, ref_row):
            assert rel(x, r) <= REL_TOL, f"state {j}"
    pi = stationary(*cut_tables(params, policy))
    assert max(abs(x - r) for x, r in zip(pi, ref["stationary"])) <= PI_TOL


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
    ],
)
@pytest.mark.parametrize("exponent", [1.0, 0.5, 2.0], ids=["id", "pow0.5", "pow2"])
def test_per_state_moments(mu, taus, exponent):
    # tighter than the contract: 1e-12 relative on every conditional moment
    ref = load_oracle().policy_metrics(mu, taus, exponent)["per_state"]
    params = SystemParams(mu_h=mu, battery=len(taus))
    moments = policy_metrics(params, validate_policy(params, taus), PenaltySpec.power(exponent)).moments
    for j, ref_row in enumerate(ref):
        for x, r in zip(moments[:, j], ref_row):
            assert rel(x, r) <= 1e-12, f"state {j}"
