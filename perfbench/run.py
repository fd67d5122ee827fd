"""End-to-end and per-layer benchmark of the aoiharvest CLI.

    python3 perfbench/run.py --workload {optimize,evaluate,simulate} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
``src`` directory. Every operation is one in-process ``cli.main(argv)`` call
with stdout captured, in a closed loop with one caller (one process, one
thread). The operation list is generated from ``--seed``; the program sees
only the generated argv.

``--trace 0`` measures the end-to-end metrics:

    setup_s      median time for a fresh interpreter to import aoiharvest.cli
    wall_s       time to run the whole operation list once, warm: the sum over
                 operations of each one's mean latency
    op_p50_ms    median latency of one CLI call
    op_p90_ms    90th-percentile latency of one CLI call
    peak_rss_mb  peak resident set size of this process

The list is repeated until ``--seconds`` have passed (at least once). Each
operation's first output is checked (see workloads.py); every later output
must repeat it byte for byte. An operation fails on a non-zero exit code or
a failed check, and every call of it then counts as failed.

``--trace 1`` runs each operation of the list once untraced and then once
with layer spans (see tracer.py), and reports the per-layer metrics, the
tracing overhead, and the share of operation wall time the layer self times
account for. An operation also fails there when more than UNACCOUNTED_MAX
of its wall time, as timed around the call, lies outside its root span,
that is outside every layer, in the traced call and again in a repeat.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. The line before it records the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import workloads
from tracer import Tracer

SETUP_IMPORTS = 5  # fresh-interpreter imports per run; setup_s is their median
# Largest share of an op's traced wall time allowed outside its root span, where
# only the benchmark's stdout capture runs (measured: under 1% on 3-ms ops).
UNACCOUNTED_MAX = 0.05
EVAL_BATTERIES = (1, 2, 3, 4, 8, 16, 32)
OPTIMIZER_BATTERIES = (1, 2, 3)


def measure_setup():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(workloads.SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import aoiharvest.cli"]
    times = []
    for k in range(SETUP_IMPORTS + 1):  # the first one may write bytecode caches
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=workloads.ROOT, check=True)
        if k:
            times.append(perf_counter() - t0)
    return statistics.median(times)


def _git_commit():
    if not (workloads.ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(workloads.ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((workloads.SRC / "aoiharvest").iterdir()):
        if path.suffix in (".py", ".pyx", ".c"):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args):
    import numpy as np
    import scipy

    from aoiharvest import simulator

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_threads": {
            k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "kernel": simulator.KERNEL,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def warm_up(cli, ops):
    """Call the cheapest op of each (subcommand, mode, penalty) once, untimed."""
    cheapest = {}
    for op in ops:
        key = (op.argv[0], op.mode, op.exponent)
        if key not in cheapest or op.battery < cheapest[key].battery:
            cheapest[key] = op
    for op in cheapest.values():
        workloads.call(cli.main, op.argv)


def measure(cli, ops, seconds):
    """Repeat the op list until ``seconds`` have passed; return per-op latencies and outputs."""
    latencies = [[] for _ in ops]
    first = [None] * len(ops)
    mismatches = [0] * len(ops)
    deadline = perf_counter() + seconds
    passes = 0
    while passes == 0 or perf_counter() < deadline:
        for i, op in enumerate(ops):
            if passes and perf_counter() >= deadline:
                break
            rc, out, dt = workloads.call(cli.main, op.argv)
            latencies[i].append(dt)
            if first[i] is None:
                first[i] = (rc, out)
            elif (rc, out) != first[i]:
                mismatches[i] += 1
        passes += 1
    return latencies, first, mismatches


def count_failures(ops, check, latencies, first, mismatches, extra_fails):
    fails = dict(check(ops, first))
    fails.update(extra_fails)
    for i in range(len(ops)):
        if mismatches[i] and i not in fails:
            fails[i] = f"output changed between calls ({mismatches[i]} times)"
    for i, reason in sorted(fails.items()):
        print(f"FAILED op {i}: {' '.join(ops[i].argv)}: {reason}", file=sys.stderr)
    return sum(len(latencies[i]) if i in fails else mismatches[i] for i in range(len(ops)))


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, cli, ops, check):
    setup_s = measure_setup()
    warm_up(cli, ops)
    latencies, first, mismatches = measure(cli, ops, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    extra = {}
    if args.workload == "simulate":
        reason = workloads.kernel_bit_identity(ops[0])
        if reason:
            extra[0] = reason
    failed = count_failures(ops, check, latencies, first, mismatches, extra)
    samples = [dt for lat in latencies for dt in lat]
    return sum(map(len, latencies)), failed, {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(sum(map(statistics.fmean, latencies)), "s"),
        "op_p50_ms": metric(statistics.median(samples) * 1e3, "ms"),
        "op_p90_ms": metric(statistics.quantiles(samples, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def outside_share(dt, tracer):
    """Share of an op's wall time ``dt`` that lies outside its root span."""
    return (dt - tracer.last_op_s) / dt


def traced(cli, ops, check, header):
    warm_up(cli, ops)
    tracer = Tracer()
    untraced, traced_calls = [], []
    unaccounted = {}
    main = tracer.root(cli.main)
    for i, op in enumerate(ops):
        # Each op runs untraced and then traced, back to back, so that a drift
        # in machine speed does not enter the tracing overhead.
        untraced.append(workloads.call(cli.main, op.argv))
        with tracer:
            traced_calls.append(workloads.call(main, op.argv))
        # The root span holds the layer self times; outside it is only the stdout capture.
        share = outside_share(traced_calls[-1][2], tracer)
        if share > UNACCOUNTED_MAX:
            # A garbage collection or a preemption can land outside the root span
            # once; work outside the layers does so every time. Measure again with
            # a throwaway tracer, which leaves the counters alone.
            probe = Tracer()
            with probe:
                share = outside_share(workloads.call(probe.root(cli.main), op.argv)[2], probe)
        if share > UNACCOUNTED_MAX:
            unaccounted[i] = f"{share:.3%} of the op's wall time lies outside the layer spans"
    first = [(rc, out) for rc, out, _ in untraced]
    mismatches = [int((rc, out) != first[i]) for i, (rc, out, _) in enumerate(traced_calls)]
    latencies = [[untraced[i][2], traced_calls[i][2]] for i in range(len(ops))]
    failed = count_failures(ops, check, latencies, first, mismatches, unaccounted)

    c, s = tracer.counts, tracer.self_s
    untraced_wall = sum(dt for _, _, dt in untraced)
    traced_wall = sum(dt for _, _, dt in traced_calls)
    cycles = c["simulator.cycles"]
    m = {}
    for layer in ("erlang", "chain"):
        m[f"{layer}.calls"] = metric(c[f"{layer}.calls"], "count")
        m[f"{layer}.self_s"] = metric(s[layer], "s")
    m["renewal.evals"] = metric(c["renewal.evals"], "count")
    m["renewal.self_s"] = metric(s["renewal"], "s")
    for b in EVAL_BATTERIES:
        us = tracer.eval_us.get(b)
        m[f"renewal.eval_us.b{b}"] = metric(statistics.median(us) if us else 0.0, "us")
    m["optimizer.evals"] = metric(c["optimizer.evals"], "count")
    for b in OPTIMIZER_BATTERIES:
        m[f"optimizer.evals.b{b}"] = metric(c[f"optimizer.evals.b{b}"], "count")
    m["optimizer.feasible_calls"] = metric(c["optimizer.feasible_calls"], "count")
    m["optimizer.self_s"] = metric(s["optimizer"], "s")
    m["simulator.cycles"] = metric(cycles, "count")
    m["simulator.kernel_s"] = metric(s["kernel"], "s")
    m["simulator.cycles_per_s"] = metric(cycles / s["kernel"] if cycles else 0.0, "1/s")
    m["simulator.post_s"] = metric(s["simulator"], "s")
    m["simulator.kernel"] = metric(int(header["kernel"] != "python"), "compiled")
    m["cli.ops"] = metric(len(ops), "count")
    m["cli.self_ms_per_op"] = metric(s["cli"] / len(ops) * 1e3, "ms")
    m["trace.wall_s"] = metric(traced_wall, "s")
    m["trace.untraced_wall_s"] = metric(untraced_wall, "s")
    m["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    m["trace.accounted_share"] = metric(sum(s.values()) / traced_wall, "ratio")
    return 2 * len(ops), failed, m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        cli = workloads.load_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    ops = workloads.make_ops(args.workload, args.seed)
    check = workloads.WORKLOADS[args.workload][1]
    header = provenance(args)
    print(json.dumps({"provenance": header}, sort_keys=True))
    if args.trace:
        attempted, failed, metrics = traced(cli, ops, check, header)
    else:
        attempted, failed, metrics = end_to_end(args, cli, ops, check)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
