"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/report.py [--seeds 1,2,3] [--trace 0|1] [--sets 1|2]

Each (workload, seed) is one fresh ``run.py`` process of BENCHMARK.json's
``run_seconds``, so set-up time and peak memory are per run. For every
metric it prints the median over seeds, the quartiles, and their distance
as a share of the median (the spread the benchmark's bounds are compared
with), with the unit; and per workload the operations attempted (``ops``)
and failed (``ops_failed``).

``--sets 2`` runs the whole seed list twice, one set after the other. It
then prints, for every end-to-end metric of every workload, the relative
difference of the second set's median from the first's and whether it lies
within the metric's bound.

The last line of stdout is the whole summary as one JSON object: the first
run's provenance and, per set, workload and metric, the per-seed values
with their median, quartiles and spread.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = BENCH["run_seconds"]
BOUNDS = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}


def run_once(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().split("\n")
    if done.stderr.strip():
        print(done.stderr.strip(), file=sys.stderr)
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def run_set(seeds, trace, report):
    result = {}
    for w in (w["name"] for w in BENCH["workloads"]):
        runs = []
        for seed in seeds:
            prov, run = run_once(w, seed, trace)
            report.setdefault("provenance", prov)
            runs.append(run)
        ops = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        metrics = {}
        for name, m in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": m["unit"], **summarise(values), "values": values}
        result[w] = {"ops": ops, "ops_failed": failed, "metrics": metrics}
        print(f"{w}: ops {ops}, ops_failed {failed}, runs {len(runs)}")
        for name, s in metrics.items():
            print(
                f"  {name:26} {s['median']:>14.6g} {s['unit']:9} "
                f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f}"
            )
    return result


def agreement(first, second):
    """Relative difference of the second set's medians from the first's, against the bounds."""
    out = {}
    print("set 2 vs set 1 medians:")
    for w, d in first.items():
        out[w] = {}
        for name, bound in BOUNDS.items():
            a, b = d["metrics"][name]["median"], second[w]["metrics"][name]["median"]
            diff = (b - a) / a
            out[w][name] = {"difference": diff, "bound": bound, "agree": abs(diff) <= bound}
            print(f"  {w:9} {name:12} {diff:+.4f}  bound {bound}  {'agree' if abs(diff) <= bound else 'DISAGREE'}")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1", help="comma-separated workload seeds")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--sets", type=int, choices=[1, 2], default=1, help="times to run the whole seed list")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    report = {"seconds": SECONDS, "trace": args.trace, "seeds": seeds, "sets": []}
    for k in range(args.sets):
        print(f"set {k + 1}")
        report["sets"].append(run_set(seeds, args.trace, report))
    if args.sets == 2 and not args.trace:
        report["agreement"] = agreement(*report["sets"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
