"""Layer timings of the import, the evaluator, the optimizers, the batch callers and the simulator kernel, interleaved across source trees.

    python benchmarks/bench_layers.py --src before=/path/to/other/src --src after=src \
        [--rounds 16] [--out BENCH_30.json]

Each ``--src LABEL=PATH`` names a source tree holding the ``aoiharvest``
package (a checkout's ``src``). A round runs one child process per tree,
in alternating order from round to round, so that drift in machine speed
falls on every tree alike. A child times, with the identity penalty at
mu = 1 on seeded policies (thresholds uniform on [0, 4], sorted):

    import_s           median of IMPORTS fresh interpreters importing
                       aoiharvest.cli from the tree (what every CLI call pays)
    cold_cache_import_s
                       one fresh interpreter importing aoiharvest.cli with an
                       empty user cache (XDG_CACHE_HOME at a new temporary
                       directory): where the tree builds the simulator kernel
                       into that cache on import, this holds the build
    gamma_table_us     one erlang.gamma_table call (L0) for the identity
                       penalty's moments at unit rate, per battery size
    stationary_us      one chain.stationary call (L1) on the battery chain
                       of a batch of one policy (chain.cut_tables), per
                       battery size
    policy_metrics_us  one policy_metrics call, per battery size
    policy_metrics_pow05_us
                       the same with the power-0.5 penalty, whose fractional
                       exponent adds a second family of incomplete gammas
    policy_metrics_mu07_us
                       policy_metrics with the identity penalty at
                       mu = 0.7 on the same policies divided by 0.7, where
                       the evaluator takes its rows at rate 1/2 and scales
                       them to time units by ldexp (mu in [1, 2) skips that)
    step_us            microseconds per policy-iteration step (L3): one
                       optimizer call divided by its evaluations, for
                       optimize_penalty under the identity and the power-0.5
                       penalty and for algorithm1, per battery size in
                       STEP_BATTERIES, at mu = 1 from the default config,
                       and again at mu = 1.3 (names ending in _mu13)
    call_us            microseconds per optimizer call, for the same calls:
                       where two trees take different numbers of steps per
                       call, step_us alone does not compare them
    evaluations        the evaluation count of each of those calls
    bellman_residual   optimize_penalty's Bellman residual at the battery
                       sizes in RESIDUAL_BATTERIES, with its evaluation
                       count in evaluations (one run: both are the same in
                       every round)
    grid_round_ms      one round of the default 15-point grid at B = 2
                       (optimizer._zoomed_grid, 225 vertices)
    fig_curve_ms       one 61-row Fig. 5 curve (cli._sweep_fig, CSV to a buffer)
    parse_us           the parse of each argv in PARSE_ARGVS, as cli.main
                       parses it (cli._parse; _parser().parse_args in
                       trees without it)
    cli_us             one in-process cli.main call of each argv in
                       CLI_ARGVS, stdout to a buffer
    cold_s, cold_rss_mb
                       wall seconds and peak resident set size (MB, the
                       whole process) of one cold policy_metrics call with
                       the identity penalty, per battery size in
                       COLD_BATTERIES, each in a fresh interpreter that
                       imports the package and runs that one call
    cycles_per_s       simulator kernel throughput (run_cycles, L4), per
                       kernel and battery size: KERNEL_CYCLES cycles from an
                       empty battery on a stratified policy (the k-th
                       smallest threshold uniform on the k-th of B parts of
                       [0, 4]), for _simcore_py always, and "compiled",
                       simulator's kernel, where it is not the pure-Python
                       one. Each row of each kernel is timed in a fresh
                       interpreter of its own, which times nothing else, so
                       that no row runs in a heap that earlier rows left
    cycles_per_s_b1    the same at B = 1 for each mu tau_1 in KERNEL_B1_Z,
                       the worst (0.2) and best (3.8) cases of the Python
                       kernel's B = 1 screen, which skips the log of every
                       uniform whose arrival falls below tau_1
    sim_peak_bytes     the tracemalloc peak, in bytes, of one simulate() at
                       B = 4 on the stratified policy, for each number of
                       renewals in SIM_RENEWALS, with the power-0.5 penalty
                       (one term) and with z + z^2 / 2 (two terms), each
                       after a short run that keeps the kernel's one-off
                       set-up out of the trace (deterministic: the same in
                       every round); a simulator whose memory does not grow
                       with the renewals reads a flat row

each as the best of REPEATS timings within the child (for cycles_per_s,
higher is better). The output holds the median over rounds per tree, and
for two or more trees each later tree's difference from and ratio to the
first's median (diff, ratio) and its paired ratio: the median over rounds
of later / first, both taken in the same round, which cancels the
machine's drift from round to round where the ratio of medians does not.
It also records the Python, numpy and (where installed) scipy versions,
the CPU count, and each tree's simulator kernel and source digest (sha256
over the package's .py, .pyx and .c files, as perfbench records it).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

BATTERIES = (1, 2, 4, 16, 32, 64, 128)
RESIDUAL_BATTERIES = (128, 256, 512)
COLD_BATTERIES = (256, 512, 1024, 2048)
STEP_BATTERIES = (1, 2, 3, 4, 8, 16)
KERNEL_BATTERIES = (1, 4, 16)
KERNEL_B1_Z = (0.2, 3.8)
KERNEL_CYCLES = 200_000
KERNELS = ("_simcore_py", "compiled")
SIM_RENEWALS = (200_000, 2_000_000)
REPEATS = 3
BLOCK_S = 0.05  # rough time per timing, to size the number of calls
IMPORTS = 5  # fresh-interpreter imports per child; import_s is their median
EVALUATE_B4 = ["evaluate", "--mu", "1", "--battery", "4", "--thresholds", "2.5,1.5,0.8,0.5"]
EVALUATE_B32 = ["evaluate", "--mu", "1", "--battery", "32", "--thresholds", ",".join(f"{k / 10:g}" for k in range(32, 0, -1))]
OPTIMIZE_B2 = ["optimize", "--mu", "1", "--battery", "2", "--mode", "penalty"]
PARSE_ARGVS = {
    "evaluate": EVALUATE_B4 + ["--penalty", "power", "--exponent", "0.5"],
    "optimize": OPTIMIZE_B2 + ["--penalty", "power", "--exponent", "2"],
}
CLI_ARGVS = {
    "evaluate_b4": EVALUATE_B4,
    "evaluate_b32": EVALUATE_B32,
    "fig5": ["sweep", "--fig", "5", "--mu", "1", "--tau2", "0.5"],
    "optimize_penalty_b2": OPTIMIZE_B2,
}


def _best(fn) -> float:
    """Best seconds per call of REPEATS timings of about BLOCK_S each."""
    n = max(1, int(BLOCK_S / max(timeit.timeit(fn, number=1), 1e-7)))
    return min(timeit.repeat(fn, number=n, repeat=REPEATS)) / n


def _import_s(src: str) -> float:
    """Median seconds of IMPORTS fresh interpreters importing aoiharvest.cli from src."""
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-c", "import aoiharvest.cli"]
    times = []
    for _ in range(IMPORTS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# One cold policy_metrics in a fresh interpreter: its wall seconds and the
# process's peak RSS in MB (ru_maxrss is in KB on Linux).
COLD = """
import resource, sys, time
import numpy as np
from aoiharvest.model import Policy, SystemParams
from aoiharvest.renewal import policy_metrics
b = int(sys.argv[1])
rng = np.random.default_rng(b)
policy = Policy(tuple(float(t) for t in sorted(rng.uniform(0.0, 4.0, b), reverse=True)))
t0 = time.perf_counter()
policy_metrics(SystemParams(1.0, b), policy)
print(time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def _cold_cache_import_s(src: str) -> float:
    """Seconds of one fresh interpreter importing aoiharvest.cli from src with an empty user cache."""
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONPATH=src, XDG_CACHE_HOME=cache)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import aoiharvest.cli"], env=env, check=True)
        return time.perf_counter() - t0


def _cold(src: str, battery: int) -> tuple[float, float]:
    """Seconds and peak RSS (MB) of one cold policy_metrics at this battery size."""
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", COLD, str(battery)], env=env, check=True, capture_output=True, text=True)
    seconds, rss = map(float, done.stdout.split())
    return seconds, rss


# The kernel rows, by (key, row): the stratified policy at each battery
# size, then B = 1 at each mu tau_1.
KERNEL_ROWS = [("cycles_per_s", str(b)) for b in KERNEL_BATTERIES] + [("cycles_per_s_b1", str(z)) for z in KERNEL_B1_Z]


def kernel_child(src: str, name: str, key: str, row: str) -> float | None:
    """Cycles per second of one kernel row, the only one this interpreter times; None where the kernel does not load."""
    sys.path.insert(0, src)
    import numpy as np

    from aoiharvest import _simcore_py, simulator

    if name == "_simcore_py":
        kernel = _simcore_py
    elif simulator.KERNEL != "python":
        kernel = simulator._kernel
    else:
        return None
    if key == "cycles_per_s_b1":
        taus, seed = np.array([float(row)]), 1
    else:
        seed = b = int(row)
        rng = np.random.default_rng(b)
        taus = np.array([rng.uniform(k * 4.0 / b, (k + 1) * 4.0 / b) for k in reversed(range(b))])

    def cycles():
        kernel.run_cycles(taus, 1.0, KERNEL_CYCLES, 0, np.random.Generator(np.random.PCG64(seed)))

    return KERNEL_CYCLES / _best(cycles)


def _kernel_rows(src: str, name: str) -> dict | None:
    """cycles_per_s and cycles_per_s_b1 of one kernel, each row in a fresh interpreter; None where it does not load."""
    out = {key: {} for key, _ in KERNEL_ROWS}
    for key, row in KERNEL_ROWS:
        done = subprocess.run(
            [sys.executable, __file__, "--src", "x=x", "--child", src, "--kernel", name, "--row", f"{key}:{row}"],
            capture_output=True, text=True, check=True,
        )
        value = json.loads(done.stdout)
        if value is None:
            return None
        out[key][row] = value
    return out


def child(src: str) -> dict:
    import_s = _import_s(src)
    cold_cache_import_s = _cold_cache_import_s(src)
    kernels = {name: _kernel_rows(src, name) for name in KERNELS}
    cold = {str(b): _cold(src, b) for b in COLD_BATTERIES}
    sys.path.insert(0, src)
    import numpy as np

    from aoiharvest import chain, cli, optimizer, renewal, simulator
    from aoiharvest.erlang import gamma_table
    from aoiharvest.model import PenaltySpec, Policy, SystemParams
    from aoiharvest.renewal import policy_metrics

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ImportError(f"imported {cli.__file__}, not the tree under {src}")
    identity = PenaltySpec.identity()
    root = PenaltySpec.power(0.5)
    exponents = renewal._rows(identity.exponents)[0]
    out = {"kernel": simulator.KERNEL, "import_s": import_s, "cold_cache_import_s": cold_cache_import_s}
    out["cold_s"] = {b: seconds for b, (seconds, _) in cold.items()}
    out["cold_rss_mb"] = {b: rss for b, (_, rss) in cold.items()}
    for key in ("gamma_table_us", "policy_metrics_us", "policy_metrics_pow05_us", "policy_metrics_mu07_us"):
        out[key] = {}
    for b in BATTERIES:
        rng = np.random.default_rng(b)
        policy = Policy(tuple(float(t) for t in sorted(rng.uniform(0.0, 4.0, b), reverse=True)))
        params = SystemParams(1.0, b)
        taus = np.array([policy.thresholds])
        out["gamma_table_us"][str(b)] = _best(lambda: gamma_table(taus, exponents)) * 1e6
        out["policy_metrics_us"][str(b)] = _best(lambda: policy_metrics(params, policy, identity)) * 1e6
        out["policy_metrics_pow05_us"][str(b)] = _best(lambda: policy_metrics(params, policy, root)) * 1e6
        scaled = Policy(tuple(t / 0.7 for t in policy.thresholds))
        rated = SystemParams(0.7, b)
        out["policy_metrics_mu07_us"][str(b)] = _best(lambda: policy_metrics(rated, scaled, identity)) * 1e6
    out["stationary_us"] = {}
    for b in BATTERIES:
        rng = np.random.default_rng(b)
        taus = np.array([sorted(rng.uniform(0.0, 4.0, b), reverse=True)])
        args = chain.cut_tables(SystemParams(1.0, b), taus)
        out["stationary_us"][str(b)] = _best(lambda: chain.stationary(*args)) * 1e6
    out["step_us"], out["call_us"], out["evaluations"] = {}, {}, {}
    runs = {
        "optimize_penalty": (optimizer.optimize_penalty, identity),
        "optimize_penalty_pow05": (optimizer.optimize_penalty, root),
        "algorithm1": (optimizer.algorithm1, identity),
    }
    for name, (run, penalty) in runs.items():
        config = optimizer.OptimizerConfig(penalty=penalty)
        for mu, suffix in ((1.0, ""), (1.3, "_mu13")):
            for key in ("step_us", "call_us", "evaluations"):
                out[key][name + suffix] = {}
            for b in STEP_BATTERIES:
                params = SystemParams(mu, b)
                evaluations = run(params, config).evaluations
                call_us = _best(lambda: run(params, config)) * 1e6
                out["call_us"][name + suffix][str(b)] = call_us
                out["step_us"][name + suffix][str(b)] = call_us / evaluations
                out["evaluations"][name + suffix][str(b)] = evaluations
    out["bellman_residual"] = {}
    for b in RESIDUAL_BATTERIES:
        r = optimizer.optimize_penalty(SystemParams(1.0, b), optimizer.OptimizerConfig())
        out["bellman_residual"][str(b)] = r.bellman_residual
        out["evaluations"]["optimize_penalty"][str(b)] = r.evaluations
    params = SystemParams(1.0, 2)
    lows, highs = [0.5, 0.0], [1.0, optimizer.UPPER_CAP_FACTOR]

    def grid_round():
        optimizer._zoomed_grid(params, identity, lows, highs, 15, 1)

    out["grid_round_ms"] = _best(grid_round) * 1e3
    args = cli.build_parser().parse_args(["sweep", "--fig", "5", "--mu", "1", "--tau2", "0.5"])

    def curve():
        with redirect_stdout(io.StringIO()):
            cli._sweep_fig(args)

    out["fig_curve_ms"] = _best(curve) * 1e3
    parse = getattr(cli, "_parse", None) or cli._parser().parse_args
    out["parse_us"] = {name: _best(lambda: parse(argv)) * 1e6 for name, argv in PARSE_ARGVS.items()}

    def call(argv):
        with redirect_stdout(io.StringIO()):
            if cli.main(list(argv)) != 0:
                raise RuntimeError(f"exit code not 0: {argv}")

    out["cli_us"] = {name: _best(lambda: call(argv)) * 1e6 for name, argv in CLI_ARGVS.items()}
    out["kernels"] = {name: rows for name, rows in kernels.items() if rows is not None}
    out["sim_peak_bytes"] = {}
    rng = np.random.default_rng(4)
    policy = Policy(tuple(float(rng.uniform(k, k + 1.0)) for k in reversed(range(4))))
    params = SystemParams(1.0, 4)
    penalties = {"power05": root, "two_terms": PenaltySpec(((1.0, 1.0), (0.5, 2.0)))}
    for name, penalty in penalties.items():
        for renewals in SIM_RENEWALS:
            simulator.simulate(params, policy, penalty, simulator.SimConfig(seed=4, renewals=2000))
            tracemalloc.start()
            simulator.simulate(params, policy, penalty, simulator.SimConfig(seed=4, renewals=renewals))
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            out["sim_peak_bytes"][f"{name}.n{renewals}"] = peak
    return out


def _source_digest(src: str) -> str:
    digest = hashlib.sha256()
    for path in sorted((Path(src) / "aoiharvest").iterdir()):
        if path.suffix in (".py", ".pyx", ".c"):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _metrics(result: dict) -> dict:
    flat = {"import_s": result["import_s"], "cold_cache_import_s": result["cold_cache_import_s"]}
    keys = ("gamma_table_us", "policy_metrics_us", "policy_metrics_pow05_us", "policy_metrics_mu07_us")
    for key in keys + ("stationary_us", "bellman_residual", "cold_s", "cold_rss_mb"):
        flat.update({f"{key}.b{b}": v for b, v in result[key].items()})
    for key in ("step_us", "call_us", "evaluations"):
        for name, per_battery in result[key].items():
            flat.update({f"{key}.{name}.b{b}": v for b, v in per_battery.items()})
    flat["grid_round_ms"] = result["grid_round_ms"]
    flat["fig_curve_ms"] = result["fig_curve_ms"]
    for key in ("parse_us", "cli_us"):
        flat.update({f"{key}.{name}": v for name, v in result[key].items()})
    for name, rows in result["kernels"].items():
        flat.update({f"cycles_per_s.{name}.b{b}": v for b, v in rows["cycles_per_s"].items()})
        flat.update({f"cycles_per_s_b1.{name}.z{z}": v for z, v in rows["cycles_per_s_b1"].items()})
    flat.update({f"sim_peak_bytes.{row}": v for row, v in result["sim_peak_bytes"].items()})
    return flat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append", required=True, metavar="LABEL=PATH")
    ap.add_argument("--rounds", type=int, default=16)
    ap.add_argument("--out", default="BENCH_30.json")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--kernel", help=argparse.SUPPRESS)
    ap.add_argument("--row", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(kernel_child(args.child, args.kernel, *args.row.split(":")) if args.kernel else child(args.child)))
        return 0
    trees = dict(item.split("=", 1) for item in args.src)
    runs = {label: [] for label in trees}
    for r in range(args.rounds):
        for label in list(trees)[:: 1 if r % 2 == 0 else -1]:
            done = subprocess.run(
                [sys.executable, __file__, "--src", "x=x", "--child", str(Path(trees[label]).resolve())],
                capture_output=True, text=True, check=True,
            )
            runs[label].append(json.loads(done.stdout))
    import numpy as np

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    report = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "rounds": args.rounds,
        "repeats": REPEATS,
        "trees": {},
    }
    medians, flats = {}, {}
    for label, results in runs.items():
        flat = flats[label] = [_metrics(res) for res in results]
        medians[label] = {k: statistics.median(f[k] for f in flat) for k in flat[0]}
        report["trees"][label] = {
            "src_sha256": _source_digest(trees[label]),
            "kernel": sorted({res["kernel"] for res in results}),
            "median": medians[label],
        }
    first, *later = list(trees)
    for label in later:
        pairs = list(zip(flats[label], flats[first]))
        # a row that only one tree has (a kernel only one of them loads) has no ratio
        report["trees"][label]["vs_" + first] = {
            k: {
                "diff": v - medians[first][k],
                "ratio": v / medians[first][k],
                "paired_ratio": statistics.median(a[k] / b[k] for a, b in pairs),
            }
            for k, v in medians[label].items()
            if k in medians[first]
        }
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps(report["trees"], indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
