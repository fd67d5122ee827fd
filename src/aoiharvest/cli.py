"""Command-line surface.

Subcommands: evaluate (analytic metrics of a policy), optimize (grid /
bisection / general-penalty), sweep (CSV tables for rate and threshold
sweeps), simulate (seeded Monte Carlo, optionally cross-checked against
the analytic evaluator), table1 (optimal thresholds for B = 1..4 at
mu = 1 next to the published reference values).

Exit codes: 0 success, 2 validation failure (also an unwritable --output
file, a result outside double range, or a request too large to allocate,
such as simulate --renewals 2^59), 3 search budget exceeded,
4 simulation/analytic disagreement under --check.

main parses an argv once: where argv[0] names a subcommand, that
subcommand's own parser reads the rest, and only an argv it does not
accept whole, or one that names no subcommand, goes through the full
parser. Either way the usage, help and error lines are argparse's own.

JSON output is deterministic for fixed flags and seed; CSV uses a fixed
header and 9 significant digits. optimize --stats and simulate --stats add
one JSON line of diagnostics on stderr and leave stdout as it is.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from functools import lru_cache

import numpy as np

from .chain import SingularSystem
from .chain import stationary, transition_matrix  # noqa: F401  (patched by perfbench/tracer.py)
from .erlang import _RANGE_ERROR
from .model import PenaltySpec, PolicyError, policy_to_json, validate_policy, SystemParams
from .optimizer import (
    BudgetExceeded,
    OptimizerConfig,
    algorithm1,
    grid_search,
    optimize_penalty,
)
from .renewal import avg_penalties, policy_metrics
from .simulator import SimConfig, log_kind, simulate

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
                "per_state": m.moments.T.tolist(),
                "stationary": m.pi.tolist(),
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


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


def _stats_line(result, seconds: float) -> str:
    """The optimizer's diagnostics as one JSON line; a residual it did not compute is null."""
    return _dumps(
        {
            "evaluations": result.evaluations,
            "stop_reason": result.stop_reason,
            "bellman_residual": _finite_or_none(result.bellman_residual),
            "fixed_point_residual": _finite_or_none(result.fixed_point_residual),
            "certified": result.certified,
            "wall_s": seconds,
        }
    )


def _simulate_stats_line(report) -> str:
    """The simulator kernel's throughput, and the log it takes, as one JSON line."""
    seconds = report.kernel_s
    return _dumps(
        {
            "kernel": report.kernel,
            "log": log_kind(),
            "cycles": report.renewals,
            "kernel_s": seconds,
            "cycles_per_s": report.renewals / seconds if seconds > 0.0 else None,
        }
    )


def cmd_optimize(args) -> int:
    params = SystemParams(mu_h=args.mu, battery=args.battery)
    config = _make_config(args)
    start = time.perf_counter()
    result = _run_optimizer(args.mode, params, config)
    seconds = time.perf_counter() - start
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
    if args.stats:
        print(_stats_line(result, seconds), file=sys.stderr)
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
    """Average-age surfaces for B = 2: one curve per fixed threshold, one evaluator call per curve.

    Under p(x) = x the average penalty is the average age, so a curve's
    ages are its avg_penalties, and it answers wherever they are in range.
    """
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    rates = _parse_floats(args.mu)
    if len(rates) != 1:
        raise ValueError(f"--fig takes exactly one --mu rate, got {len(rates)}")
    if args.penalty != "identity":
        raise ValueError(f"--fig takes only --penalty identity, got {args.penalty}")
    mu = rates[0]
    params = SystemParams(mu_h=mu, battery=2)
    if args.fig == 5:
        fixed = _parse_floats(args.tau2)
        if not fixed:
            raise ValueError("--tau2 required for --fig 5")
        curves = [
            np.column_stack((np.linspace(t2, t2 + 3.0 / mu, args.points), np.full(args.points, t2)))
            for t2 in fixed
        ]
    else:
        fixed = _parse_floats(args.tau1)
        if not fixed:
            raise ValueError("--tau1 required for --fig 6")
        curves = [
            np.column_stack((np.full(args.points, t1), np.linspace(0.0, t1, args.points)))
            for t1 in fixed
        ]
    rows = ["tau_1,tau_2,avg_age"]
    for taus in curves:
        _validate_curve(params, taus)
        ages = avg_penalties(params, taus, PenaltySpec.identity())
        if not np.isfinite(ages).all():
            raise OverflowError(_RANGE_ERROR)
        rows += ["%.9g,%.9g,%.9g" % (t1, t2, age) for (t1, t2), age in zip(taus.tolist(), ages.tolist())]
    _out(args, "\n".join(rows))
    return 0


def _validate_curve(params: SystemParams, taus: np.ndarray):
    """validate_policy on every row of an (N, 2) curve, as one array test.

    A row passes exactly when both thresholds are finite and
    tau_1 >= tau_2 >= 0; validate_policy reruns on the first row that does
    not, so the error is the one a row-by-row loop raises.
    """
    tau1, tau2 = taus.T
    passes = np.isfinite(taus).all(axis=1) & (tau2 >= 0.0) & (tau1 >= tau2)
    if not passes.all():
        validate_policy(params, taus[np.argmin(passes)])


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
        if report.renewals_measured < 2:
            # one renewal gives no standard error, so no z-score to test
            raise ValueError("--check needs at least 2 measured renewals (--renewals minus --warmup)")
        if not report.stderr > 0.0:
            # tied batch means: a zero standard error tests nothing
            raise ValueError("--check needs a nonzero standard error; the batch means tie (raise --renewals)")
        m = policy_metrics(params, policy, p)
        z = abs(report.avg_penalty - m.avg_penalty) / report.stderr
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
    if args.stats:
        print(_simulate_stats_line(report), file=sys.stderr)
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
    ap.subcommands = sub.choices  # the subcommand parsers by name, filled in by add_parser

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
    sp.add_argument(
        "--stats",
        action="store_true",
        help="also write one JSON line to stderr: evaluations, stop reason, residuals, certificate, wall seconds",
    )
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
    sp.add_argument(
        "--stats",
        action="store_true",
        help="also write one JSON line to stderr: kernel, its log, cycles, kernel seconds, cycles per second",
    )
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("table1", help="optimal thresholds for B=1..4 at mu=1")
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_table1)

    return ap


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """build_parser, once per process: parsing leaves the parser unchanged."""
    return build_parser()


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    """The subcommand parsers of _parser(), by name, as build_parser kept them."""
    return _parser().subcommands


def _parse(argv: list[str]) -> argparse.Namespace:
    """_parser().parse_args(argv), parsed once where argv[0] names a subcommand.

    The full parser's only work before that subcommand's parser takes over
    is to pick it, so that parser alone parses argv[1:] when it accepts
    every argument. Any other argv (none, help, an unknown subcommand,
    arguments left over) goes through the full parser, whose usage, help
    and error lines are the ones printed. An argv the subcommand's parser
    rejects exits from that parser, as it does under the full parser.
    """
    sub = _subcommands().get(argv[0]) if argv else None
    if sub is not None:
        args, extras = sub.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return _parser().parse_args(argv)


def main(argv=None) -> int:
    """Run one command line (sys.argv[1:] by default) and return its exit code.

    The argv is parsed once, by the named subcommand's parser, and falls
    back to the full parser where that parser leaves arguments over or no
    subcommand is named (see _parse). An argv argparse rejects exits with
    code 2 from the parser; a command's own failure prints one
    "error: ..." line on stderr and returns its exit code.
    """
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (PolicyError, ValueError, OSError, OverflowError, MemoryError, SingularSystem) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
