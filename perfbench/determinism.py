"""Determinism test of the benchmark itself.

    python3 perfbench/determinism.py

For every workload it checks that the same seed generates the same argv and
a different seed different argv, and it runs the cheap operations of the
list twice under the tracer: the CLI's stdout must be byte-identical and
the deterministic work counters must repeat exactly. Exits 1 on any
difference.
"""

from __future__ import annotations

import sys

import workloads
from tracer import Tracer

COUNTS = ("optimizer.evals", "renewal.evals", "erlang.calls", "chain.calls", "simulator.cycles")
SEED = 0
CHEAP_BATTERY = {"optimize": 2, "evaluate": 8, "simulate": 4}  # largest battery size run here


def traced_run(cli, ops):
    tracer = Tracer()
    main = tracer.root(cli.main)
    with tracer:
        outputs = [workloads.call(main, op.argv)[:2] for op in ops]
    return outputs, {k: tracer.counts[k] for k in COUNTS}


def main():
    cli = workloads.load_program()
    problems = []
    for name in workloads.WORKLOADS:
        ops = workloads.make_ops(name, SEED)
        argvs = [op.argv for op in ops]
        if argvs != [op.argv for op in workloads.make_ops(name, SEED)]:
            problems.append(f"{name}: one seed generated two different op lists")
        if argvs == [op.argv for op in workloads.make_ops(name, SEED + 1)]:
            problems.append(f"{name}: seeds {SEED} and {SEED + 1} generated the same op list")
        cheap = [op for op in ops if op.battery <= CHEAP_BATTERY[name]]
        (out1, counts1), (out2, counts2) = traced_run(cli, cheap), traced_run(cli, cheap)
        if out1 != out2:
            problems.append(f"{name}: stdout differs between two runs of the same argv")
        if counts1 != counts2:
            problems.append(f"{name}: counters differ: {counts1} vs {counts2}")
        print(f"{name}: {len(cheap)} ops, counters {counts1}")
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
