"""Seeded operation lists for the three workloads, and their output checks.

Every operation is one ``aoiharvest.cli.main(argv)`` call. A workload is a
fixed *composition* of operations (which subcommands, battery sizes and
penalties, how many of each) whose numeric arguments are drawn from the
seed, so two seeds cost about the same while exercising different inputs.

Harvest rates are log-uniform on [0.5, 2]. Random policies draw B
thresholds uniformly from [0, 4/mu] and sort them (simulate stratifies the
draws, see _stratified_policy), so mu*tau lies in [0, 4]: the span of the
Fig. 5/6 threshold sweeps (tau_2 + 3/mu) around the optimal thresholds,
which all sit below 2/mu.
"""

from __future__ import annotations

import io
import json
import math
import random
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Output-check tolerances, fixed before any measurement was taken.
SUM_TOL = 1e-12  # |sum(stationary) - 1|
IDENTITY_TOL = 1e-12  # relative |avg_penalty - avg_age| under the identity penalty
CLOSED_FORM_TOL = 1e-9  # relative, optimize objective vs closedform.b2_average_age
CSV_TOL = 1e-7  # relative, sweep rows (9 significant digits) vs closedform.b2_average_age
GRID_TOL = 1e-6  # relative, grid optimum vs closedform.b1_optimal and scale invariance
PENALTY_SCALE_TOL = 1e-6  # relative, scale invariance of the penalty-mode optimum
ORACLE_TOL = 1e-10  # relative, evaluator vs mpmath on m1, m2, ages and per-state moments
ORACLE_PI_TOL = 1e-12  # absolute, stationary vector vs mpmath
ORACLE_SHARE = 0.5  # share of the B = 4 evaluate ops checked against mpmath


def load_program():
    """Put the checkout's ``src`` first on sys.path and import the CLI from it."""
    if not (SRC / "aoiharvest" / "cli.py").is_file():
        raise FileNotFoundError(f"no aoiharvest sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from aoiharvest import cli

    if Path(cli.__file__).resolve().parent != SRC / "aoiharvest":
        raise ImportError(f"imported {cli.__file__}, not the checkout's sources")
    return cli


@dataclass
class Op:
    argv: list
    mu: float
    battery: int
    exponent: float = 1.0  # penalty p(x) = x**exponent; 1 is the identity (age)
    mode: str = ""
    twin_of: int | None = None  # evaluate: the op that differs from this one only in tau_B
    oracle: bool = False


def call(main, argv):
    """One in-process call of the CLI entry point: (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed op, not a failed benchmark
            traceback.print_exc()
            rc = -1
    dt = perf_counter() - t0
    if rc != 0:
        print(f"exit {rc}: {' '.join(argv)}\n{err.getvalue()}", file=sys.stderr)
    return rc, out.getvalue(), dt


# -- generators ------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(x, ".6g")


def _rate(rng) -> float:
    return float(_fmt(math.exp(rng.uniform(math.log(0.5), math.log(2.0)))))


def _policy(rng, mu, battery):
    return sorted((float(_fmt(rng.uniform(0.0, 4.0 / mu))) for _ in range(battery)), reverse=True)


def _stratified_policy(rng, mu, battery):
    """Like _policy, but the k-th smallest threshold lies in the k-th of B
    equal parts of [0, 4/mu].

    The simulator's cost per cycle grows with the arrivals a cycle waits
    for, which the thresholds set; stratifying keeps that cost nearly the
    same from seed to seed.
    """
    width = 4.0 / (mu * battery)
    return [float(_fmt(rng.uniform(k * width, (k + 1) * width))) for k in reversed(range(battery))]


def _penalty(exponent):
    if exponent == 1.0:
        return ["--penalty", "identity"]
    return ["--penalty", "power", "--exponent", _fmt(exponent)]


EXPONENTS = (1.0, 0.5, 2.0)


def optimize_ops(rng):
    """Two rates; per rate every mode at B = 1..3 (grid at B <= 2).

    Two rates keep one pass near 9 s, so a run repeats every op at least
    twice and its medians survive one slow pass.
    """
    ops = []
    for _ in range(2):
        mu = _rate(rng)
        for b in (1, 2, 3):
            for mode, a in (("algorithm1", 1.0), ("penalty", 0.5), ("penalty", 2.0), ("grid", 1.0)):
                if mode == "grid" and b > 2:
                    continue
                argv = ["optimize", "--mu", _fmt(mu), "--battery", str(b), "--mode", mode]
                ops.append(Op(argv + _penalty(a), mu, b, a, mode))
    return ops


# (battery, policies per penalty, with a tau_B twin). The mix puts the
# latency median inside the B = 8 group and the 90th percentile inside the
# B = 32 group, so neither percentile sits on the edge between two groups.
EVALUATE_MIX = ((4, 2, True), (8, 1, True), (16, 1, False), (32, 1, True))


def evaluate_ops(rng):
    ops = []
    for battery, per_penalty, twin in EVALUATE_MIX:
        for a in EXPONENTS:
            for _ in range(per_penalty):
                mu = _rate(rng)
                taus = _policy(rng, mu, battery)
                argv = ["evaluate", "--mu", _fmt(mu), "--battery", str(battery)] + _penalty(a)
                ops.append(Op(argv + ["--thresholds", ",".join(map(_fmt, taus))], mu, battery, a))
                if twin:
                    taus = taus[:-1] + [float(_fmt(rng.uniform(0.0, taus[-2])))]
                    twin_argv = argv + ["--thresholds", ",".join(map(_fmt, taus))]
                    ops.append(Op(twin_argv, mu, battery, a, twin_of=len(ops) - 1))
        if battery == 16:
            for fig, flag, lo, hi in ((5, "--tau2", 0.2, 1.2), (5, "--tau2", 0.2, 1.2), (6, "--tau1", 0.8, 2.5)):
                mu = _rate(rng)
                fixed = _fmt(rng.uniform(lo, hi) / mu)
                argv = ["sweep", "--fig", str(fig), "--mu", _fmt(mu), flag, fixed]
                ops.append(Op(argv, mu, 2, mode=f"fig{fig}"))
    small = [i for i, op in enumerate(ops) if op.battery == 4]
    for i in rng.sample(small, round(ORACLE_SHARE * len(small))):
        ops[i].oracle = True
    return ops


# (battery, policies per penalty); identity and power-0.5 penalties.
SIMULATE_MIX = ((1, 1), (4, 2), (16, 1))
RENEWALS = 200_000


def simulate_ops(rng):
    ops = []
    for battery, per_penalty in SIMULATE_MIX:
        for a in (1.0, 0.5):
            for _ in range(per_penalty):
                mu = _rate(rng)
                taus = _stratified_policy(rng, mu, battery)
                argv = ["simulate", "--mu", _fmt(mu), "--battery", str(battery)] + _penalty(a)
                argv += ["--thresholds", ",".join(map(_fmt, taus)), "--check"]
                argv += ["--seed", str(rng.randrange(2**31)), "--renewals", str(RENEWALS)]
                ops.append(Op(argv, mu, battery, a))
    return ops


# -- checks ----------------------------------------------------------------


def _rel(x, ref):
    return abs(x - ref) / abs(ref) if ref else abs(x)


def _json(out):
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return None


def _parse(results, fails):
    """JSON outputs of the ops that exited 0; the others are marked failed."""
    parsed = {}
    for i, (rc, out) in enumerate(results):
        d = _json(out) if rc == 0 else None
        if d is None:
            fails[i] = f"exit code {rc}" if rc != 0 else "output is not JSON"
        else:
            parsed[i] = d
    return parsed


def check_optimize(ops, results):
    """Map op index -> reason for every op whose output fails a check."""
    from aoiharvest.closedform import b1_optimal, b2_average_age

    fails = {}
    parsed = _parse(results, fails)
    for i, d in parsed.items():
        op = ops[i]
        obj, a, mu = d["objective"], op.exponent, op.mu
        if d["certified"] is not True:
            fails[i] = "not certified"
        # Energy causality gives E[X] >= 1/mu; Jensen then bounds the average
        # penalty E[X^(a+1)] / ((a+1) E[X]) below by mu^-a / (a+1).
        elif obj < mu**-a / (a + 1) * (1 - 1e-12):
            fails[i] = f"objective {obj} below the energy-causality bound"
        elif a == 1.0 and op.battery == 1:
            opt = b1_optimal(mu)[1]
            slack = d["gap_bound"] if op.mode == "algorithm1" else GRID_TOL * opt
            if not -1e-12 * opt <= obj - opt <= slack:
                fails[i] = f"objective {obj} vs b1_optimal {opt}"
        elif a == 1.0 and op.battery == 2:
            ref = b2_average_age(mu, *d["thresholds"])
            if _rel(obj, ref) > CLOSED_FORM_TOL:
                fails[i] = f"objective {obj} vs b2_average_age {ref}"
    groups = {}
    for i, d in parsed.items():
        groups.setdefault((ops[i].mode, ops[i].exponent, ops[i].battery), []).append(i)
    for (mode, a, _), idx in groups.items():
        scaled = [ops[i].mu**a * parsed[i]["objective"] for i in idx]
        spread = max(scaled) - min(scaled)
        if mode == "algorithm1":
            # mu * objective lies in [c, c + mu * gap_bound] for every mu.
            limit = max(ops[i].mu * parsed[i]["gap_bound"] for i in idx)
        else:
            limit = (GRID_TOL if mode == "grid" else PENALTY_SCALE_TOL) * min(scaled)
        if spread > limit:
            for i in idx:
                fails.setdefault(i, f"mu^a * objective spreads by {spread:.3g} > {limit:.3g}")
    by_rate = {}
    for i in parsed:
        by_rate.setdefault((ops[i].mu, ops[i].mode, ops[i].exponent), []).append(i)
    for idx in by_rate.values():
        idx.sort(key=lambda i: ops[i].battery)
        for smaller, larger in zip(idx, idx[1:]):
            if not parsed[larger]["objective"] < parsed[smaller]["objective"]:
                fails.setdefault(larger, "optimum does not fall strictly in B")
    return fails


def _check_sweep(op, out):
    from aoiharvest.closedform import b2_average_age

    lines = out.strip().split("\n")
    if lines[0] != "tau_1,tau_2,avg_age" or len(lines) != 62:
        return "unexpected sweep CSV shape"
    fixed = float(op.argv[-1])
    for line in lines[1:]:
        t1, t2, age = map(float, line.split(","))
        if _rel(t2 if op.mode == "fig5" else t1, fixed) > CSV_TOL:
            return f"row {line} does not hold {fixed} fixed"
        ref = b2_average_age(op.mu, t1, t2)
        if _rel(age, ref) > CSV_TOL:
            return f"row {line}: b2_average_age gives {ref}"
    return None


def _check_oracle(op, d):
    import oracle

    taus = [float(t) for t in op.argv[op.argv.index("--thresholds") + 1].split(",")]
    ref = oracle.policy_metrics(op.mu, taus, op.exponent)
    pairs = [(d[k], ref[k]) for k in ("m1", "m2", "avg_age", "avg_penalty")]
    pairs += [(x, r) for row, ref_row in zip(d["per_state"], ref["per_state"]) for x, r in zip(row, ref_row)]
    worst = max(_rel(x, r) for x, r in pairs)
    if worst > ORACLE_TOL:
        return f"relative error {worst:.3g} vs mpmath"
    worst_pi = max(abs(x - r) for x, r in zip(d["stationary"], ref["stationary"]))
    if worst_pi > ORACLE_PI_TOL:
        return f"stationary off by {worst_pi:.3g} vs mpmath"
    return None


def _check_evaluation(op, d, parsed):
    pi = d["stationary"]
    if len(pi) != op.battery or min(pi) < 0 or abs(sum(pi) - 1.0) > SUM_TOL:
        return f"stationary {pi} is not a distribution"
    if op.exponent == 1.0 and _rel(d["avg_penalty"], d["avg_age"]) > IDENTITY_TOL:
        return "avg_penalty != avg_age under the identity penalty"
    if op.twin_of in parsed and pi != parsed[op.twin_of]["stationary"]:
        return "stationary changed with tau_B"
    return _check_oracle(op, d) if op.oracle else None


def check_evaluate(ops, results):
    fails, parsed = {}, {}
    for i, op in enumerate(ops):
        rc, out = results[i]
        if rc != 0:
            reason = f"exit code {rc}"
        elif op.argv[0] == "sweep":
            reason = _check_sweep(op, out)
        elif (d := _json(out)) is None:
            reason = "output is not JSON"
        else:
            parsed[i] = d
            reason = _check_evaluation(op, d, parsed)
        if reason:
            fails[i] = reason
    return fails


def check_simulate(ops, results):
    from aoiharvest.simulator import KERNEL

    fails = {}
    for i, d in _parse(results, fails).items():
        # Exit code 0 under --check already means |z| <= 4.
        if d["kernel"] != KERNEL or d["renewals_measured"] != RENEWALS - d["warmup"]:
            fails[i] = "simulation report does not match the request"
    return fails


def kernel_bit_identity(op):
    """Compare the compiled kernel with the pure-Python one on ``op``'s inputs.

    Returns None when they agree or no compiled kernel is importable, else
    a reason.
    """
    import numpy as np

    from aoiharvest import _simcore_py, simulator

    if simulator.KERNEL == "python":
        return None
    seed = int(op.argv[op.argv.index("--seed") + 1])
    taus = np.array([float(t) for t in op.argv[op.argv.index("--thresholds") + 1].split(",")])
    outputs = [
        kernel.run_cycles(taus, op.mu, RENEWALS, 0, np.random.Generator(np.random.PCG64(seed)))
        for kernel in (_simcore_py, simulator._kernel)
    ]
    (x_py, s_py), (x_c, s_c) = outputs
    if np.array_equal(x_py, x_c) and np.array_equal(s_py, s_c):
        return None
    return f"{simulator.KERNEL} kernel differs from _simcore_py"


WORKLOADS = {
    "optimize": (optimize_ops, check_optimize),
    "evaluate": (evaluate_ops, check_evaluate),
    "simulate": (simulate_ops, check_simulate),
}


def make_ops(workload: str, seed: int):
    return WORKLOADS[workload][0](random.Random(seed))
