"""Command-line surface.

Subcommands: evaluate (analytic metrics of a policy), optimize (grid /
bisection / general-penalty), sweep (CSV tables for rate and threshold
sweeps), simulate (seeded Monte Carlo, optionally cross-checked against
the analytic evaluator), table1 (optimal thresholds for B = 1..4 at
mu = 1 next to the published reference values).

Exit codes: 0 success, 2 validation failure (also an unwritable --output
file, or a result outside double range), 3 search budget exceeded,
4 simulation/analytic disagreement under --check.

JSON output is deterministic for fixed flags and seed; CSV uses a fixed
header and 9 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .chain import SingularSystem
from .chain import stationary, transition_matrix  # noqa: F401  (patched by perfbench/tracer.py)
from .model import PenaltySpec, PolicyError, policy_to_json, validate_policy, SystemParams
from .optimizer import (
    BudgetExceeded,
    OptimizerConfig,
    algorithm1,
    grid_search,
    optimize_penalty,
)
from .renewal import policy_metrics
from .simulator import SimConfig, simulate

EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_CHECK = 4

# Published optimal thresholds and average age at mu = 1 (2-decimal rounding;
# the B=4 bottom entries are printed to 3 decimals in the source table).
REFERENCE_TABLE = {
    1: ((0.90,), 0.90),
    2: ((1.5, 0.72), 0.72),
    3: ((1.5, 1.2, 0.64), 0.64),
    4: ((1.5, 1.2, 0.86, 0.604), 0.604),
}


def _g(v: float) -> str:
    return format(float(v), ".9g")


def _parse_penalty(args) -> PenaltySpec:
    if args.penalty == "identity":
        return PenaltySpec.identity()
    return PenaltySpec.power(args.exponent, args.coeff)


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _dumps(payload) -> str:
    """Deterministic JSON; a non-finite number raises ValueError instead of printing NaN."""
    return json.dumps(payload, sort_keys=True, allow_nan=False)


def _out(args, text: str):
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_evaluate(args) -> int:
    params = SystemParams(mu_h=args.mu, battery=args.battery)
    policy = validate_policy(params, _parse_floats(args.thresholds))
    p = _parse_penalty(args)
    m = policy_metrics(params, policy, p)
    _out(
        args,
        _dumps(
            {
                "mu_h": params.mu_h,
                "battery": params.battery,
                "thresholds": list(policy.thresholds),
                "m1": m.m1,
                "m2": m.m2,
                "avg_age": m.avg_age,
                "avg_penalty": m.avg_penalty,
                "per_state": [list(t) for t in m.per_state],
                "stationary": list(m.pi),
            }
        ),
    )
    return 0


def _make_config(args) -> OptimizerConfig:
    return OptimizerConfig(
        q=args.q,
        grid_points=args.grid_points,
        refine_tol=args.refine_tol,
        penalty=_parse_penalty(args),
    )


def _run_optimizer(mode: str, params: SystemParams, config: OptimizerConfig):
    if mode == "grid":
        return grid_search(params, config)
    if mode == "algorithm1":
        return algorithm1(params, config)
    return optimize_penalty(params, config)


def cmd_optimize(args) -> int:
    params = SystemParams(mu_h=args.mu, battery=args.battery)
    config = _make_config(args)
    result = _run_optimizer(args.mode, params, config)
    _out(
        args,
        _dumps(
            {
                "mode": args.mode,
                "mu_h": params.mu_h,
                "battery": params.battery,
                "thresholds": list(result.policy.thresholds),
                "objective": result.objective,
                "gap_bound": result.gap_bound,
                "certified": result.certified,
                "trace": [list(t) for t in result.trace],
            }
        ),
    )
    return 0


def cmd_sweep(args) -> int:
    if args.fig in (5, 6):
        return _sweep_fig(args)
    mus = _parse_floats(args.mu)
    batteries = [int(tok) for tok in args.battery.split(",") if tok.strip() != ""]
    if not mus or not batteries:
        raise ValueError("empty sweep ranges")
    bmax = max(batteries)
    header = ["mu", "battery"] + [f"tau_{i}" for i in range(1, bmax + 1)] + ["avg_age"]
    rows = [",".join(header)]
    for mu in mus:
        for b in batteries:
            params = SystemParams(mu_h=mu, battery=b)
            config = _make_config(args)
            result = _run_optimizer(args.mode, params, config)
            taus = [_g(t) for t in result.policy.thresholds] + [""] * (bmax - b)
            rows.append(",".join([_g(mu), str(b)] + taus + [_g(result.objective)]))
    _out(args, "\n".join(rows))
    return 0


def _sweep_fig(args) -> int:
    """Average-age surfaces for B = 2: one curve per fixed threshold."""
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    mu = float(_parse_floats(args.mu)[0])
    params = SystemParams(mu_h=mu, battery=2)
    rows = ["tau_1,tau_2,avg_age"]
    if args.fig == 5:
        fixed = _parse_floats(args.tau2)
        if not fixed:
            raise ValueError("--tau2 required for --fig 5")
        for t2 in fixed:
            for t1 in np.linspace(t2, t2 + 3.0 / mu, args.points):
                m = policy_metrics(params, validate_policy(params, [t1, t2]))
                rows.append(",".join([_g(t1), _g(t2), _g(m.avg_age)]))
    else:
        fixed = _parse_floats(args.tau1)
        if not fixed:
            raise ValueError("--tau1 required for --fig 6")
        for t1 in fixed:
            for t2 in np.linspace(0.0, t1, args.points):
                m = policy_metrics(params, validate_policy(params, [t1, t2]))
                rows.append(",".join([_g(t1), _g(t2), _g(m.avg_age)]))
    _out(args, "\n".join(rows))
    return 0


def cmd_simulate(args) -> int:
    params = SystemParams(mu_h=args.mu, battery=args.battery)
    p = _parse_penalty(args)
    if args.optimal:
        policy = optimize_penalty(params, OptimizerConfig(penalty=p)).policy
    elif args.thresholds:
        policy = validate_policy(params, _parse_floats(args.thresholds))
    else:
        raise ValueError("need --thresholds or --optimal")
    cfg = SimConfig(seed=args.seed, renewals=args.renewals, warmup=args.warmup)
    report = simulate(params, policy, p, cfg)
    payload = json.loads(report.to_json())
    payload["policy"] = json.loads(policy_to_json(params, policy))
    code = 0
    if args.check:
        m = policy_metrics(params, policy, p)
        z = (
            abs(report.avg_penalty - m.avg_penalty) / report.stderr
            if report.stderr > 0
            else 0.0
        )
        payload["analytic"] = {
            "m1": m.m1,
            "m2": m.m2,
            "avg_age": m.avg_age,
            "avg_penalty": m.avg_penalty,
        }
        payload["z_score"] = z
        if z > 4.0:
            code = EXIT_CHECK
    _out(args, _dumps(payload))
    return code


def cmd_table1(args) -> int:
    lines = [
        "B   thresholds (computed)                reference            avg_age   ref    |dev|"
    ]
    for b in range(1, 5):
        params = SystemParams(mu_h=1.0, battery=b)
        result = optimize_penalty(params, OptimizerConfig())
        ref_taus, ref_age = REFERENCE_TABLE[b]
        taus = ", ".join(f"{t:.4f}" for t in result.policy.thresholds)
        refs = ", ".join(f"{t:g}" for t in ref_taus)
        dev = abs(result.objective - ref_age)
        lines.append(
            f"{b}   ({taus:<33})   ({refs:<16})   {result.objective:.4f}    {ref_age:<5g}  {dev:.4f}"
        )
    _out(args, "\n".join(lines))
    return 0


def _add_penalty_flags(sp):
    sp.add_argument("--penalty", choices=["identity", "power"], default="identity")
    sp.add_argument("--exponent", type=float, default=2.0, help="power penalty exponent")
    sp.add_argument("--coeff", type=float, default=1.0, help="power penalty coefficient")


def _add_optimizer_flags(sp):
    sp.add_argument("--q", type=int, default=10, help="bisection iterations")
    sp.add_argument(
        "--grid-points", type=int, default=15, help="grid points per axis (--mode grid only)"
    )
    sp.add_argument(
        "--refine-tol",
        type=float,
        default=1e-6,
        help="fixed-point certificate tolerance, relative to max(1, objective) (--mode penalty only)",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="aoiharvest", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("evaluate", help="analytic metrics of a threshold policy")
    sp.add_argument("--mu", type=float, required=True)
    sp.add_argument("--battery", type=int, required=True)
    sp.add_argument("--thresholds", required=True, help="comma-separated tau_1..tau_B")
    _add_penalty_flags(sp)
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("optimize", help="find (near-)optimal thresholds")
    sp.add_argument("--mu", type=float, required=True)
    sp.add_argument("--battery", type=int, required=True)
    sp.add_argument("--mode", choices=["grid", "algorithm1", "penalty"], default="algorithm1")
    _add_penalty_flags(sp)
    _add_optimizer_flags(sp)
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("sweep", help="CSV sweeps over rates, batteries, or thresholds")
    sp.add_argument("--mu", default="1", help="comma-separated harvest rates")
    sp.add_argument("--battery", default="1,2,3,4", help="comma-separated battery sizes")
    sp.add_argument("--mode", choices=["grid", "algorithm1", "penalty"], default="algorithm1")
    sp.add_argument("--fig", type=int, choices=[5, 6], help="threshold-surface sweep for B=2")
    sp.add_argument("--tau1", default="", help="fixed tau_1 values for --fig 6")
    sp.add_argument("--tau2", default="", help="fixed tau_2 values for --fig 5")
    sp.add_argument("--points", type=int, default=61)
    _add_penalty_flags(sp)
    _add_optimizer_flags(sp)
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("simulate", help="seeded Monte Carlo run")
    sp.add_argument("--mu", type=float, required=True)
    sp.add_argument("--battery", type=int, required=True)
    sp.add_argument("--thresholds", default="")
    sp.add_argument("--optimal", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--renewals", type=int, default=100000)
    sp.add_argument("--warmup", type=int, default=1000)
    sp.add_argument("--check", action="store_true", help="cross-check against analytic metrics")
    _add_penalty_flags(sp)
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("table1", help="optimal thresholds for B=1..4 at mu=1")
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_table1)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (PolicyError, ValueError, OSError, OverflowError, SingularSystem) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
