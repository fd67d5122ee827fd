"""Record the CLI corpus: the exit code and the SHA-256 of stdout and of stderr of every argv below.

``tests/data/cli_corpus.json`` holds one entry per argv, and
``tests/test_cli.py::test_corpus_bytes_unchanged`` replays each through
``cli.main`` in-process. A change meant to alter CLI bytes records the file
again, from the repository root::

    PYTHONPATH=src python tests/record_cli_corpus.py

and its diff names every argv whose bytes changed.

The argvs: every perfbench operation at seeds 1 and 6; ``evaluate`` at
B = 1..64 under 4 penalties and 5 rates, and pinned edge policies;
``optimize`` in each mode at B <= 16 (grid at B <= 2), with and without
``--stats``; ``table1``; ``simulate`` plain, ``--check``, ``--optimal`` and
``--stats``; ``sweep`` over rates and ``--fig 5/6`` curves; help, usage and
error argvs. Two things are left out of the hashes because they are not
the program's answer: the simulator kernel's name (and the log it takes),
which depend on whether the compiled walk could be built, and the wall
times of ``--stats``. A warning counts as one stderr line of its class and
message, where it is raised. ``--output`` argvs are not in the corpus.
"""

import hashlib
import io
import json
import os
import pathlib
import random
import re
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

ROOT = pathlib.Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "data" / "cli_corpus.json"

_KERNEL = re.compile(r'"(kernel|log)": "[^"]*"')
_WALL = re.compile(r'"(wall_s|kernel_s|cycles_per_s|report_s)": [^,}]*')


def _normal(text):
    """text with the kernel's name and log and the --stats wall times replaced by "*"."""
    return _WALL.sub(r'"\1": "*"', _KERNEL.sub(r'"\1": "*"', text))


def _sha256(text):
    return hashlib.sha256(_normal(text).encode()).hexdigest()


def record(argv):
    """The corpus entry of argv: run through cli.main in this process, at a fixed help width."""
    from aoiharvest import cli

    out, err = io.StringIO(), io.StringIO()
    # argparse wraps help and usage to the terminal's width
    with mock.patch.dict(os.environ, COLUMNS="80"), redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, category, *where: err.write(f"{category.__name__}: {message}\n")
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse's help, usage and errors
            code = exc.code
    return {"argv": list(argv), "exit": code, "stdout": _sha256(out.getvalue()), "stderr": _sha256(err.getvalue())}


def _g(x):
    return format(x, ".6g")


def _stratified(rng, mu, battery):
    """The k-th smallest threshold uniform on the k-th of B parts of [0, 4/mu], to 6 digits."""
    width = 4.0 / (mu * battery)
    return ",".join(_g(rng.uniform(k * width, (k + 1) * width)) for k in reversed(range(battery)))


def perfbench_argvs():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return [op.argv for name in workloads.WORKLOADS for seed in (1, 6) for op in workloads.make_ops(name, seed)]


IDENTITY = []
POWER_HALF = ["--penalty", "power", "--exponent", "0.5"]
POWER_TWO = ["--penalty", "power", "--exponent", "2"]
POWER_SCALED = ["--penalty", "power", "--exponent", "1.5", "--coeff", "0.7"]

_LADDER = ",".join(f"{4 - 0.12 * k:.2f}" for k in range(32))  # 4.00, 3.88, ..., 0.28

# B = 1, 4 and 32; the identity, power-0.5 and power-2 penalties; rates in
# and outside [1, 2); the certain regime (mu tau_B past 1024), a zero
# down-rate (pi_0 = +0.0), zero and tied thresholds and a steep power
EVALUATE_EDGES = [
    ["evaluate", "--mu", "1", "--battery", "1", "--thresholds", "0.9"],
    ["evaluate", "--mu", "1.3", "--battery", "4", "--thresholds", "3,2,1,0.5", *POWER_HALF],
    ["evaluate", "--mu", "0.37", "--battery", "4", "--thresholds", "9,6,6,1", *POWER_TWO],
    ["evaluate", "--mu", "2.9e5", "--battery", "4", "--thresholds", "1e-5,8e-6,3e-6,0"],
    ["evaluate", "--mu", "1.4", "--battery", "32", "--thresholds", _LADDER],
    ["evaluate", "--mu", "0.8", "--battery", "32", "--thresholds", _LADDER, *POWER_TWO],
    ["evaluate", "--mu", "1e300", "--battery", "3", "--thresholds", "2,1,0.5", *POWER_HALF],
    ["evaluate", "--mu", "1", "--battery", "3", "--thresholds", "800,700,1"],
    ["evaluate", "--mu", "1", "--battery", "2", "--thresholds", "2000,0"],
    ["evaluate", "--mu", "1", "--battery", "4", "--thresholds", "0,0,0,0", *POWER_SCALED],
    ["evaluate", "--mu", "1", "--battery", "2", "--thresholds", "1,0.5", "--penalty", "power", "--exponent", "165"],
]


def evaluate_argvs():
    argvs = []
    for battery in (1, 2, 3, 4, 8, 16, 32, 64):
        for rate in ("0.001", "0.37", "1", "1.3", "40"):
            rng = random.Random(f"{battery}/{rate}")
            for penalty in (IDENTITY, POWER_HALF, POWER_TWO, POWER_SCALED):
                taus = _stratified(rng, float(rate), battery)
                argvs.append(["evaluate", "--mu", rate, "--battery", str(battery), "--thresholds", taus, *penalty])
    return argvs + EVALUATE_EDGES


def optimize_argvs():
    argvs = []
    for battery in (1, 2, 3, 4, 8, 16):
        for rate in ("0.5", "1", "1.7"):
            argvs.append(["optimize", "--mu", rate, "--battery", str(battery)])
            for penalty in (IDENTITY, POWER_HALF, POWER_TWO):
                argvs.append(["optimize", "--mu", rate, "--battery", str(battery), "--mode", "penalty", *penalty])
            if battery <= 2:
                for penalty in (IDENTITY, POWER_TWO):
                    argvs.append(["optimize", "--mu", rate, "--battery", str(battery), "--mode", "grid", *penalty])
    argvs += [
        ["optimize", "--mu", "1", "--battery", "3", "--stats"],
        ["optimize", "--mu", "0.8", "--battery", "2", "--mode", "penalty", *POWER_HALF, "--stats"],
        ["optimize", "--mu", "1", "--battery", "2", "--mode", "grid", "--grid-points", "9", "--stats"],
        ["optimize", "--mu", "1", "--battery", "32", "--mode", "penalty"],
        ["optimize", "--mu", "1e-200", "--battery", "2", "--mode", "penalty"],
        ["optimize", "--mu", "1.3", "--battery", "4", "--q", "20"],
        ["optimize", "--mu", "1", "--battery", "4", "--mode", "penalty", "--refine-tol", "1e-9"],
        ["table1"],
        ["sweep", "--mu", "0.5,1,2", "--battery", "1,2,3"],
        ["sweep", "--mu", "1,2", "--battery", "1,2", "--mode", "penalty", *POWER_TWO],
        ["sweep", "--mu", "0.5,1", "--battery", "1,2", "--mode", "grid", "--grid-points", "9"],
    ]
    return argvs


def simulate_argvs():
    argvs = []
    for battery in (1, 2, 4, 8, 64):
        rng = random.Random(battery)
        for penalty in (IDENTITY, POWER_HALF):
            taus = _stratified(rng, 1.0, battery)
            argv = ["simulate", "--mu", "1", "--battery", str(battery), "--thresholds", taus, *penalty]
            argvs += [argv + ["--seed", "3", "--renewals", "20000"], argv + ["--seed", "4", "--renewals", "20000", "--check"]]
    for battery in (1, 2, 4):
        argvs.append(["simulate", "--mu", "0.7", "--battery", str(battery), "--optimal", "--check", "--renewals", "20000"])
    argvs += [
        ["simulate", "--mu", "1", "--battery", "1", "--thresholds", "0.9", "--seed", "3", "--renewals", "20000", "--stats"],
        ["simulate", "--mu", "0.8", "--battery", "4", "--thresholds", "3,2,1,0.5", "--seed", "5", "--renewals", "20000", "--check", "--stats"],
        ["simulate", "--mu", "1", "--battery", "2", "--thresholds", "1.5,0.7", "--check", "--renewals", "1002", "--seed", "2"],
        ["simulate", "--mu", "1", "--battery", "2", "--thresholds", "0,0", "--renewals", "5000", "--warmup", "0"],
        ["simulate", "--mu", "1e-3", "--battery", "3", "--thresholds", "2000,1000,1000", "--renewals", "5000", "--warmup", "10", "--check"],
    ]
    return argvs


def sweep_fig_argvs():
    argvs = []
    for fixed, points in (("0", "61"), ("0.3", "61"), ("1,2.5", "7"), ("0.72,1e-9,7", "1")):
        for fig, flag in (("5", "--tau2"), ("6", "--tau1")):
            for rate in ("0.5", "1", "1.7", "3e-5", "2e8"):
                argvs.append(["sweep", "--fig", fig, "--mu", rate, flag, fixed, "--points", points])
    for rate in (1e-160, 1e-200, 1e-300):
        for fig, flag, fixed in (("5", "--tau2", (0.1, 0.72, 5.0)), ("6", "--tau1", (0.1, 1.4, 5.0))):
            values = ",".join(repr(t / rate) for t in fixed)
            argvs.append(["sweep", "--fig", fig, "--mu", repr(rate), flag, values, "--points", "9"])
    return argvs


EVALUATE = ["evaluate", "--mu", "1", "--battery", "2", "--thresholds", "1,0.5"]
SIMULATE = ["simulate", "--mu", "1", "--battery", "2", "--thresholds", "1,0.5"]

# argparse's help, usage and rejections, then each command's own errors
ERROR_ARGVS = [
    [],
    ["-h"],
    ["--help"],
    *([command, "-h"] for command in ("evaluate", "optimize", "sweep", "simulate", "table1")),
    ["bogus"],
    ["Evaluate"],
    ["-x", "evaluate"],
    ["--help", "evaluate"],
    [*EVALUATE, "--bogus"],
    [*EVALUATE, "extra", "args"],
    ["evaluate", "--mu", "x", "--battery", "2", "--thresholds", "1,0.5"],
    ["evaluate", "--battery", "2", "--thresholds", "1,0.5"],
    ["evaluate", "--mu=1", "--battery", "2", "--thresholds", "1,0.5"],
    ["evaluate", "--mu", "1", "--battery", "2", "--thr", "1,0.5"],
    [*EVALUATE, "--"],
    ["evaluate", "--", "--mu", "1", "--battery", "2", "--thresholds", "1,0.5"],
    ["evaluate", "--mu", "-1", "--battery", "2", "--thresholds", "1,0.5"],
    [*EVALUATE, "--thresholds", "2,1"],
    [*EVALUATE, "-h"],
    ["evaluate", "--he"],
    ["optimize", "--mu", "1", "--battery", "2", "--mode", "bogus"],
    ["optimize", "--mu", "1", "--battery", "2", "--m", "penalty"],
    ["table1", "--q", "3"],
    ["table1", "--output"],
    ["table1", "--grid-points", "9"],
    ["table1", "--refine-tol", "1e-3"],
    ["simulate", "--mu", "1", "--battery", "1", "--optimal", "--q", "3"],
    ["simulate", "--mu", "1", "--battery", "1", "--optimal", "--grid-points", "9"],
    ["simulate", "--mu", "1", "--battery", "1", "--optimal", "--refine-tol", "1e-3"],
    ["evaluate", "--mu", "1", "--battery", "2", "--thresholds", "0.5,0.9"],
    ["evaluate", "--mu", "1", "--battery", "3", "--thresholds", "1.0,0.5"],
    ["evaluate", "--mu", "1", "--battery", "2", "--thresholds", "1,nan"],
    ["evaluate", "--mu", "0", "--battery", "2", "--thresholds", "1,0.5"],
    ["evaluate", "--mu", "1", "--battery", "0", "--thresholds", ""],
    *([*EVALUATE, "--penalty", "power", "--exponent", e] for e in ("172", "1e10", "1e300", "-1")),
    ["optimize", "--mu", "1", "--battery", "4", "--mode", "grid", "--grid-points", "400"],
    ["optimize", "--mu", "1", "--battery", "4", "--mode", "penalty", "--refine-tol", "inf"],
    ["optimize", "--mu", "1", "--battery", "4", "--mode", "penalty", "--refine-tol", "nan"],
    ["optimize", "--mu", "1", "--battery", "2", "--q", "2000"],
    ["optimize", "--mu", "1", "--battery", "2", "--q", "51"],
    ["optimize", "--mu", "1e-200", "--battery", "2", "--mode", "penalty", *POWER_TWO],
    ["optimize", "--mu", "1e-320", "--battery", "2"],
    ["optimize", "--mu", "1e-320", "--battery", "2", "--mode", "penalty"],
    ["optimize", "--mu", "1e-320", "--battery", "2", "--mode", "grid", "--grid-points", "5"],
    ["optimize", "--mu", "0.05", "--battery", "2", "--mode", "penalty", "--penalty", "power", "--exponent", "200"],
    ["sweep", "--mu", "1e-320", "--battery", "1"],
    ["sweep", "--battery", "1.5"],
    ["sweep", "--mu", "", "--battery", "1"],
    ["sweep", "--fig", "6", "--mu", "1", "--points", "5"],
    ["sweep", "--fig", "5", "--tau2", "0.5", "--points", "0"],
    ["sweep", "--fig", "5", "--mu", "", "--tau2", "1"],
    ["sweep", "--fig", "5", "--mu", "1,2", "--tau2", "1"],
    *(["sweep", "--fig", fig, "--mu", "1", "--tau1", "1.5", "--tau2", "0.5", "--points", "5", *POWER_TWO] for fig in "56"),
    ["sweep", "--fig", "5", "--mu", "1", "--tau2", "0.5,nan"],
    ["sweep", "--fig", "5", "--mu", "1", "--tau2", "0.5,-1"],
    ["simulate", "--mu", "1", "--battery", "2"],
    [*SIMULATE, "--optimal"],
    [*SIMULATE, "--renewals", "1000"],
    [*SIMULATE, "--renewals", str(2**60)],
    [*SIMULATE, "--renewals", "2000", "--warmup", "-1"],
    ["simulate", "--mu", "1", "--battery", "2", "--thresholds", "1.5,0.7", "--check", "--renewals", "1001", "--seed", "1"],
    ["simulate", "--mu", "1", "--battery", "1", "--thresholds", "3", "--check", "--renewals", "1002", "--seed", "2"],
    # sample paths that leave double range
    ["simulate", "--mu", "1e-320", "--battery", "1", "--thresholds", "1", "--renewals", "100", "--warmup", "0"],
    ["simulate", "--mu", "1", "--battery", "1", "--thresholds", "0", "--renewals", "1000", "--warmup", "0", "--penalty", "power", "--exponent", "400"],
    ["simulate", "--mu", "1", "--battery", "1", "--thresholds", "1e200", "--renewals", "1000", "--warmup", "0", "--check"],
]


def argvs():
    return perfbench_argvs() + evaluate_argvs() + optimize_argvs() + simulate_argvs() + sweep_fig_argvs() + ERROR_ARGVS


def main():
    entries = [record(argv) for argv in argvs()]
    CORPUS.write_text("[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n")
    print(f"{len(entries)} argvs -> {CORPUS.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
