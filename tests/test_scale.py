"""Scale invariance: every finite rate whose answer is in double range answers.

With z = mu_h tau the model does not depend on the rate: the optimal
thresholds and the optimal age scale as 1/mu_h, and under the power penalty
x^a the optimal average penalty as mu_h^-a. The optimizers search at unit
rate and the evaluator takes its moments there, so from mu = 1e-300 to
1e300 the answers are the mu = 1 answers scaled, within a few roundings
(bound 1e-14 relative).
"""

import json
import math

import numpy as np
import pytest

from aoiharvest import cli
from aoiharvest.model import PenaltySpec, SystemParams
from aoiharvest.renewal import avg_penalties

RATES = (1e-300, 1e-8, 0.73, 1e8, 1e300)
PENALTIES = {"identity": ([], 1.0), "power0.5": (["--penalty", "power", "--exponent", "0.5"], 0.5)}
CASES = [
    (mode, battery, penalty)
    for battery in (1, 2, 3)
    for mode, penalties in (("algorithm1", ["identity"]), ("penalty", list(PENALTIES)), ("grid", list(PENALTIES)))
    if mode != "grid" or battery <= 2
    for penalty in penalties
]
TOL = 1e-14


def optimize(capsys, mu, battery, mode, penalty):
    argv = ["optimize", "--mu", repr(mu), "--battery", str(battery), "--mode", mode]
    assert cli.main(argv + PENALTIES[penalty][0]) == 0
    return json.loads(capsys.readouterr().out)


def relative(got, want):
    return abs(got - want) / abs(want)


@pytest.mark.parametrize("mode,battery,penalty", CASES)
def test_optimize_scales_with_the_rate(capsys, mode, battery, penalty):
    a = PENALTIES[penalty][1]
    ref = optimize(capsys, 1.0, battery, mode, penalty)
    for mu in RATES:
        got = optimize(capsys, mu, battery, mode, penalty)
        assert got["certified"] is True
        for t, t_ref in zip(got["thresholds"], ref["thresholds"]):
            assert t * mu == pytest.approx(t_ref, rel=TOL, abs=TOL)
        assert relative(got["objective"] * mu**a, ref["objective"]) <= TOL
        if mode == "algorithm1":
            assert relative(got["gap_bound"] * mu, ref["gap_bound"]) <= TOL
            for (lo, hi), (lo_ref, hi_ref) in zip(got["trace"], ref["trace"]):
                assert relative(lo * mu, lo_ref) <= TOL and relative(hi * mu, hi_ref) <= TOL


@pytest.mark.parametrize("battery", [1, 2, 3])
def test_algorithm1_within_its_gap_at_every_rate(capsys, battery):
    best = optimize(capsys, 1.0, battery, "penalty", "identity")["objective"]
    for mu in RATES:
        got = optimize(capsys, mu, battery, "algorithm1", "identity")
        assert -1e-9 * best <= got["objective"] * mu - best <= got["gap_bound"] * mu * (1.0 + TOL)


@pytest.mark.parametrize("mu", [1e160, 1e300])
@pytest.mark.parametrize("battery,thresholds", [(2, (1.5, 0.72)), (3, (2.5, 1.2, 0.6))])
def test_evaluate_scales_with_the_rate(capsys, mu, battery, thresholds):
    def evaluate(rate):
        taus = ",".join(repr(t / rate) for t in thresholds)
        assert cli.main(["evaluate", "--mu", repr(rate), "--battery", str(battery), "--thresholds", taus]) == 0
        return json.loads(capsys.readouterr().out)

    ref, got = evaluate(1.0), evaluate(mu)
    assert relative(got["avg_age"] * mu, ref["avg_age"]) <= TOL
    assert relative(got["avg_penalty"] * mu, ref["avg_penalty"]) <= TOL
    assert relative(got["m1"] * mu, ref["m1"]) <= TOL
    assert got["stationary"] == pytest.approx(ref["stationary"], rel=TOL)


EXACT = [
    # mu tau_B is past 1e154, where the head z_B^2 / 2 at unit rate would
    # leave double range, while the answer (X = tau_B from every state) is
    # in it; at 1e10 the unit-rate threshold itself is past the largest double
    (["--mu", "1e300", "--battery", "2", "--thresholds", "1,0.5"], {"avg_age": 0.25, "m1": 0.5, "m2": 0.25}),
    (["--mu", "1e300", "--battery", "1", "--thresholds", "1e10"], {"avg_age": 5e9, "m1": 1e10, "m2": 1e20}),
    # the unit-rate coefficient mu^-3 is 1e-330 (past double range) and
    # 1e-315 (subnormal), while E[P(X)] = tau^4 / 4 and the averages are not
    (
        ["--mu", "1e110", "--battery", "1", "--thresholds", "1e-40", "--penalty", "power", "--exponent", "3"],
        {"avg_penalty": 2.5e-121, "m1": 1e-40, "m2": 1e-80},
    ),
    (
        ["--mu", "1e105", "--battery", "1", "--thresholds", "1e-40", "--penalty", "power", "--exponent", "3"],
        {"avg_penalty": 2.5e-121, "m1": 1e-40, "m2": 1e-80},
    ),
    # unit-rate thresholds (1.5, 0.7) at mu = 2^64 under p(x) = x^16: the
    # answer is 2^-1024 times the unit-rate one, in range, where the x^16
    # row taken in time units underflows to 0
    (
        ["--mu", "1.8446744073709552e+19", "--battery", "2", "--thresholds", "8.131516293641283e-20,3.794707603699265e-20"]
        + ["--penalty", "power", "--exponent", "16"],
        {"avg_penalty": 3.4110640707996737e-296},
    ),
]


@pytest.mark.parametrize("argv,want", EXACT, ids=["head-1e300", "inf-threshold", "coef-1e-330", "coef-1e-315", "pow16-2^64"])
def test_evaluate_answers_where_the_answer_is_in_range(capsys, argv, want):
    assert cli.main(["evaluate", *argv]) == 0
    got = json.loads(capsys.readouterr().out)
    for key, value in want.items():
        assert relative(got[key], value) <= TOL


def test_power_penalty_scales_at_every_power_of_two_rate():
    # at mu = 2^k and thresholds z 2^-k, avg_penalty is 2^(-k e) times its
    # value at mu = 1: checked wherever that is a normal double
    z = np.array([[1.5, 0.7], [2.5, 0.4]])
    checked = 0
    for exponent in (14.0, 16.0, 17.0, 20.0):
        p = PenaltySpec.power(exponent)
        ref = avg_penalties(SystemParams(1.0, 2), z, p).tolist()
        for k in range(-70, 71, 2):
            got = avg_penalties(SystemParams(math.ldexp(1.0, k), 2), np.ldexp(z, -k), p).tolist()
            for g, r in zip(got, ref):
                shift = round(-k * exponent)
                if not -1021 <= math.frexp(r)[1] + shift <= 1024:
                    continue  # r 2^shift is subnormal or past the largest double
                want = math.ldexp(r, shift)
                assert relative(g, want) <= 1e-13, (exponent, k, g, want)
                checked += 1
    assert checked >= 400
