"""End-to-end tests for the command-line interface.

Everything goes through ``cli.main(argv)`` so exit codes and output
formatting are exercised exactly as a shell user would see them.
"""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import warnings

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aoiharvest import cli
from aoiharvest.model import PolicyError, PolicyMetrics  # noqa: F401  (re-export sanity)
from aoiharvest.model import Policy, SystemParams, validate_policy
from aoiharvest.renewal import avg_penalties, policy_metrics


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_without_warnings(argv):
    """cli.main(argv) with every warning turned into an exception."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return cli.main(argv)


class TestEvaluate:
    def test_round_trip_json(self, capsys):
        code, out = run(
            capsys,
            ["evaluate", "--mu", "1", "--battery", "2", "--thresholds", "1.5,0.72"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["thresholds"] == [1.5, 0.72]
        assert payload["avg_age"] == pytest.approx(0.719804, abs=1e-5)
        assert len(payload["stationary"]) == 2
        assert sum(payload["stationary"]) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_output(self, capsys):
        argv = ["evaluate", "--mu", "2", "--battery", "3", "--thresholds", "0.8,0.5,0.2"]
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first == second

    def test_validation_exit_code(self, capsys):
        code, _ = run(
            capsys,
            ["evaluate", "--mu", "1", "--battery", "2", "--thresholds", "0.5,0.9"],
        )
        assert code == cli.EXIT_VALIDATION

    def test_dimension_mismatch(self, capsys):
        code, _ = run(
            capsys,
            ["evaluate", "--mu", "1", "--battery", "3", "--thresholds", "1.0,0.5"],
        )
        assert code == cli.EXIT_VALIDATION

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code = cli.main(
            [
                "evaluate",
                "--mu",
                "1",
                "--battery",
                "1",
                "--thresholds",
                "0.9",
                "--output",
                str(target),
            ]
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["battery"] == 1

    def test_unwritable_output_exit_code(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code = cli.main(["evaluate", "--mu", "1", "--battery", "1", "--thresholds", "0.9", "--output", str(target)])
        assert code == cli.EXIT_VALIDATION
        assert "Traceback" not in capsys.readouterr().err

    # avg_penalty of thresholds (1, 0.5) at mu = 1 under power penalties near
    # the top of double range, as evaluated before the range check was added
    STEEP = {100.0: 5.152934549446844e157, 130.0: 3.570624065078434e219, 165.0: 2.9947701759544884e295}

    @pytest.mark.parametrize("exponent", sorted(STEEP))
    def test_steep_power_penalty_unchanged(self, capsys, exponent):
        argv = ["evaluate", "--mu", "1", "--battery", "2", "--thresholds", "1,0.5", "--penalty", "power"]
        code, out = run(capsys, argv + ["--exponent", repr(exponent)])
        assert code == 0
        assert json.loads(out)["avg_penalty"] == self.STEEP[exponent]

    def test_exponent_past_double_range_exits_at_once(self):
        # poch(v+1, e) used to be a product of floor(e) factors per order and the
        # working block held about e terms per threshold, only to end in this error:
        # 1e7 took 1.7 s, 1e300 never ended. A subprocess bounds the time.
        code = "from aoiharvest import cli; import sys; sys.exit(cli.main(sys.argv[1:]))"
        argv = ["evaluate", "--mu", "1", "--battery", "2", "--thresholds", "1,0.5", "--penalty", "power"]
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        for exponent in ("172", "1e10", "1e300"):
            done = subprocess.run(
                [sys.executable, "-c", code, *argv, "--exponent", exponent],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert done.returncode == cli.EXIT_VALIDATION and done.stdout == ""
            assert done.stderr == "error: OverflowError: policy metrics outside double range\n"

    def test_ignores_grid_points_environment_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("AOIHARVEST_GRID_POINTS", "abc")
        code, out = run(
            capsys,
            ["evaluate", "--mu", "1", "--battery", "2", "--thresholds", "1.5,0.72"],
        )
        assert code == 0
        assert json.loads(out)["battery"] == 2

    # (argv, stdout) pairs: B = 1, 4 and 32; the identity, power-0.5 and
    # power-2 penalties; rates in and outside [1, 2); the certain regime
    # (mu tau_B past 1024) and a zero down-rate (pi_0 = +0.0)
    GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "evaluate_stdout.json").read_text())

    @pytest.mark.parametrize(
        "case",
        GOLDEN,
        ids=lambda case: "mu{2}-B{4}-".format(*case["argv"]) + ("pow" + case["argv"][-1] if "power" in case["argv"] else "id"),
    )
    def test_stdout_bytes_pinned(self, capsys, case):
        # every byte of the JSON line, per_state and stationary included
        assert run(capsys, case["argv"]) == (0, case["stdout"])


class TestOptimize:
    def test_algorithm1_json(self, capsys):
        code, out = run(
            capsys,
            ["optimize", "--mu", "1", "--battery", "2", "--mode", "algorithm1", "--q", "8"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["objective"] == pytest.approx(0.7198, abs=5e-3)
        assert payload["gap_bound"] == pytest.approx(1.0 / 2**9, rel=1e-12)
        assert payload["certified"] is True

    def test_penalty_mode(self, capsys):
        code, out = run(
            capsys,
            ["optimize", "--mu", "1", "--battery", "1", "--mode", "penalty"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["thresholds"][0] == pytest.approx(0.901201, abs=2e-4)

    def test_budget_exit_code(self, capsys):
        code, _ = run(
            capsys,
            [
                "optimize",
                "--mu",
                "1",
                "--battery",
                "4",
                "--mode",
                "grid",
                "--grid-points",
                "400",
            ],
        )
        assert code == cli.EXIT_BUDGET

    @pytest.mark.parametrize(
        "flags",
        [
            # inf certified the unoptimized start point; nan was accepted
            ["--battery", "4", "--mode", "penalty", "--refine-tol", "inf"],
            ["--battery", "4", "--mode", "penalty", "--refine-tol", "nan"],
            # past q = 50 the bisection bracket stops halving; 2000 overflowed
            ["--battery", "2", "--q", "2000"],
            ["--battery", "2", "--q", "51"],
        ],
        ids=["refine-tol-inf", "refine-tol-nan", "q-2000", "q-51"],
    )
    def test_bad_optimizer_config_exit_code(self, capsys, flags):
        code = cli.main(["optimize", "--mu", "1"] + flags)
        captured = capsys.readouterr()
        assert code == cli.EXIT_VALIDATION
        assert captured.out == "" and "Traceback" not in captured.err

    def test_result_outside_double_range_exit_code(self, capsys):
        # mu = 1e-300 once printed "objective": NaN, and numpy overflow warnings
        # reached stderr ahead of the error line; at unit rate it answers. The
        # power-2 objective at mu = 1e-200 is about 1e400: its unit-rate
        # penalty coefficient mu^-2 is past double range.
        argv = ["optimize", "--mu", "1e-200", "--battery", "2", "--mode", "penalty"]
        assert run_without_warnings(argv) == 0
        assert json.loads(capsys.readouterr().out)["objective"] == pytest.approx(0.7197539e200, rel=1e-6)
        code = run_without_warnings(argv + ["--penalty", "power", "--exponent", "2"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_VALIDATION
        assert captured.out == ""
        assert captured.err == "error: OverflowError: policy metrics outside double range\n"
        # at mu = 1e-320 the unit-rate thresholds z / mu_h are past double
        # range; algorithm1 and sweep said "NonFinite: threshold inf is not finite"
        for argv in (
            ["optimize", "--mu", "1e-320", "--battery", "2"],
            ["optimize", "--mu", "1e-320", "--battery", "2", "--mode", "penalty"],
            ["optimize", "--mu", "1e-320", "--battery", "2", "--mode", "grid", "--grid-points", "5"],
            ["sweep", "--mu", "1e-320", "--battery", "1"],
        ):
            code = run_without_warnings(argv)
            captured = capsys.readouterr()
            assert code == cli.EXIT_VALIDATION
            assert captured.out == ""
            assert captured.err == "error: OverflowError: policy metrics outside double range\n"

    def test_non_finite_result_is_not_printed(self, capsys):
        # the objective of this start point is NaN; it was printed as "objective": NaN
        argv = ["optimize", "--mu", "0.05", "--battery", "2", "--mode", "penalty"]
        code = run_without_warnings(argv + ["--penalty", "power", "--exponent", "200"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_VALIDATION
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestOptimizeStats:
    ARGVS = [
        ["optimize", "--mu", "1", "--battery", "3"],
        ["optimize", "--mu", "0.8", "--battery", "2", "--mode", "penalty", "--penalty", "power", "--exponent", "0.5"],
        ["optimize", "--mu", "1", "--battery", "2", "--mode", "grid", "--grid-points", "5"],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=["algorithm1", "penalty", "grid"])
    def test_stdout_unchanged_and_stderr_one_json_line(self, capsys, argv):
        code, plain, err = call(capsys, argv)
        assert (code, err) == (0, "")
        code, out, err = call(capsys, argv + ["--stats"])
        assert code == 0 and out == plain
        assert err.endswith("\n") and err.count("\n") == 1
        stats = json.loads(err)
        assert set(stats) == {
            "evaluations", "stop_reason", "bellman_residual", "fixed_point_residual", "certified", "wall_s",
        }
        assert stats["evaluations"] > 0 and stats["stop_reason"] and stats["wall_s"] > 0.0
        assert stats["certified"] is json.loads(out)["certified"]
        if argv[-1] == "5":  # the grid computes no Bellman levels
            assert stats["bellman_residual"] is None and stats["stop_reason"] == "grid exhausted"
        else:
            assert 0.0 <= stats["fixed_point_residual"] <= stats["bellman_residual"] < 1e-4

    def test_stats_matches_the_result(self, capsys):
        from aoiharvest.optimizer import OptimizerConfig, optimize_penalty
        from aoiharvest.model import SystemParams

        _, _, err = call(capsys, ["optimize", "--mu", "1", "--battery", "4", "--mode", "penalty", "--stats"])
        r = optimize_penalty(SystemParams(1.0, 4), OptimizerConfig())
        stats = json.loads(err)
        assert stats["evaluations"] == r.evaluations and stats["stop_reason"] == r.stop_reason
        assert stats["bellman_residual"] == r.bellman_residual
        assert stats["fixed_point_residual"] == r.fixed_point_residual


class TestSimulateStats:
    ARGVS = [
        ["simulate", "--mu", "1", "--battery", "1", "--thresholds", "0.9", "--seed", "3", "--renewals", "20000"],
        ["simulate", "--mu", "0.8", "--battery", "4", "--thresholds", "3,2,1,0.5", "--seed", "5", "--renewals", "20000", "--check"],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=["b1", "b4-check"])
    def test_stdout_unchanged_and_stderr_one_json_line(self, capsys, argv):
        from aoiharvest.simulator import KERNEL

        code, plain, err = call(capsys, argv)
        assert (code, err) == (0, "")
        code, out, err = call(capsys, argv + ["--stats"])
        assert code == 0 and out == plain
        assert err.endswith("\n") and err.count("\n") == 1
        stats = json.loads(err)
        assert set(stats) == {"kernel", "log", "cycles", "kernel_s", "cycles_per_s"}
        assert stats["kernel"] == KERNEL and stats["cycles"] == 20000
        assert stats["kernel_s"] > 0.0
        assert stats["cycles_per_s"] == pytest.approx(stats["cycles"] / stats["kernel_s"])

    def test_log_names_the_kernels_log(self, capsys, monkeypatch):
        from aoiharvest import _simcore_py, simulator

        argv = self.ARGVS[1] + ["--stats"]
        if simulator.KERNEL == "cython":
            assert json.loads(call(capsys, argv)[2])["log"] == "libm"
            return
        code, out, err = call(capsys, argv)
        assert code == 0 and json.loads(err)["log"] == _simcore_py.log_kind()
        assert _simcore_py.log_kind() in ("numpy-scalar", "frompyfunc")
        # a numpy whose scalar log is not libm's: the kernel falls back, stdout stays
        real = _simcore_py._libm_log
        monkeypatch.setattr(_simcore_py, "_libm_log", lambda v: np.nextafter(real(v), np.inf))
        monkeypatch.setattr(_simcore_py, "_log", None)
        code, fallback, err = call(capsys, argv)
        assert code == 0 and fallback == out
        assert json.loads(err)["log"] == "frompyfunc"


class TestSweep:
    def test_csv_shape(self, capsys):
        code, out = run(
            capsys,
            ["sweep", "--mu", "0.5,1", "--battery", "1,2", "--grid-points", "9"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "mu,battery,tau_1,tau_2,avg_age"
        assert len(lines) == 5
        for line in lines[1:]:
            assert len(line.split(",")) == 5

    def test_scale_invariance_in_csv(self, capsys):
        _, out = run(
            capsys, ["sweep", "--mu", "1,2", "--battery", "1", "--grid-points", "9"]
        )
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        age_mu1 = float(rows[0][-1])
        age_mu2 = float(rows[1][-1])
        assert 2 * age_mu2 == pytest.approx(age_mu1, abs=2e-3)

    def test_fig5_surface(self, capsys):
        code, out = run(
            capsys,
            ["sweep", "--fig", "5", "--mu", "1", "--tau2", "0.5", "--points", "11"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "tau_1,tau_2,avg_age"
        assert len(lines) == 12

    def test_fig6_requires_tau1(self, capsys):
        code, _ = run(capsys, ["sweep", "--fig", "6", "--mu", "1", "--points", "5"])
        assert code == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("rates", ["", "1,2"])
    def test_fig_takes_exactly_one_rate(self, capsys, rates):
        # no rate raised IndexError with a traceback; a second was dropped
        code = run_without_warnings(["sweep", "--fig", "5", "--mu", rates, "--tau2", "1"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_VALIDATION and captured.out == ""
        assert captured.err.startswith("error: ValueError: --fig takes exactly one --mu rate")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("fig", ["5", "6"])
    def test_fig_rejects_a_power_penalty(self, capsys, fig):
        # it printed the identity avg_age curve with exit code 0
        argv = ["sweep", "--fig", fig, "--mu", "1", "--tau1", "1.5", "--tau2", "0.5", "--points", "5"]
        code = run_without_warnings(argv + ["--penalty", "power", "--exponent", "3"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_VALIDATION and captured.out == ""
        assert captured.err.startswith("error: ValueError: --fig takes only --penalty identity")
        code, out = run(capsys, argv + ["--penalty", "identity"])
        assert code == 0 and out == run(capsys, argv)[1]
        assert out.startswith("tau_1,tau_2,avg_age\n") and out.count("\n") == 6

    def test_fractional_battery_exit_code(self, capsys):
        # it ran B = 1 silently
        code, out = run(capsys, ["sweep", "--battery", "1.5"])
        assert code == cli.EXIT_VALIDATION and out == ""

    def test_no_points_exit_code(self, capsys):
        # it printed a header-only CSV with exit code 0
        code, out = run(capsys, ["sweep", "--fig", "5", "--tau2", "0.5", "--points", "0"])
        assert code == cli.EXIT_VALIDATION and out == ""


class TestSimulate:
    ARGV = [
        "simulate",
        "--mu",
        "1",
        "--battery",
        "2",
        "--thresholds",
        "1.5,0.72",
        "--seed",
        "7",
        "--renewals",
        "20000",
    ]

    def test_reproducible(self, capsys):
        _, first = run(capsys, self.ARGV)
        _, second = run(capsys, self.ARGV)
        assert first == second
        payload = json.loads(first)
        assert payload["renewals_measured"] == 19000  # renewals minus warmup
        assert payload["generator"] == "numpy-pcg64"

    def test_check_passes(self, capsys):
        code, out = run(capsys, self.ARGV + ["--check"])
        assert code == 0
        payload = json.loads(out)
        assert payload["z_score"] < 4.0
        assert payload["analytic"]["avg_age"] == pytest.approx(0.719804, abs=1e-5)

    def test_check_failure_exit_code(self, capsys, monkeypatch):
        real = policy_metrics

        def skewed(params, policy, penalty=None):
            m = real(params, policy, penalty)
            return dataclasses.replace(m, avg_penalty=m.avg_penalty + 1.0)

        monkeypatch.setattr(cli, "policy_metrics", skewed)
        code, _ = run(capsys, self.ARGV + ["--check"])
        assert code == cli.EXIT_CHECK

    def test_check_needs_two_measured_renewals(self, capsys):
        # one measured renewal gave stderr 0.0 and z_score 0.0, so the check passed
        argv = ["simulate", "--mu", "1", "--battery", "2", "--thresholds", "1.5,0.7"]
        code = cli.main(argv + ["--check", "--renewals", "1001", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_VALIDATION and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        # seed 2: the two measured renewals differ (under seed 1 both fire at
        # tau_1 = 1.5, and tied batch means are rejected below)
        code, out = run(capsys, argv + ["--check", "--renewals", "1002", "--seed", "2"])
        assert code == 0 and json.loads(out)["renewals_measured"] == 2

    def test_check_rejects_tied_batch_means(self, capsys):
        # two measured renewals that both fire at tau = 3 tie: stderr 0.0 used
        # to give z_score 0.0 and pass the check at age 1.5 against 1.5408
        argv = ["simulate", "--mu", "1", "--battery", "1", "--thresholds", "3"]
        code = cli.main(argv + ["--check", "--renewals", "1002", "--seed", "2"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_VALIDATION and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "standard error" in captured.err

    def test_requires_policy(self, capsys):
        code, _ = run(capsys, ["simulate", "--mu", "1", "--battery", "2"])
        assert code == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("renewals", [2**59, 2**60], ids=["memory-error", "too-big"])
    def test_unallocatable_renewals_exit_2(self, capsys, renewals):
        # 2^59 cycles ask numpy for 4 EiB, which it refuses with a MemoryError
        # (an exit-1 traceback before); 2^60 overflows its size check, a ValueError
        argv = ["simulate", "--mu", "1", "--battery", "2", "--thresholds", "1,0.5", "--renewals", str(renewals)]
        code, out, err = call(capsys, argv)
        assert code == cli.EXIT_VALIDATION and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["table1", "--grid-points", "9"],
        ["table1", "--q", "3"],
        ["simulate", "--mu", "1", "--battery", "1", "--optimal", "--q", "3"],
        ["simulate", "--mu", "1", "--battery", "1", "--optimal", "--grid-points", "9"],
    ],
)
def test_penalty_only_commands_reject_search_flags(capsys, argv):
    # table1 and simulate --optimal run optimize_penalty, which reads neither flag
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_VALIDATION
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["table1", "--refine-tol", "1e-3"], ["simulate", "--mu", "1", "--battery", "1", "--optimal", "--refine-tol", "1e-3"]],
)
def test_commands_without_a_certificate_reject_refine_tol(capsys, argv):
    # refine_tol sets only optimize_penalty's certificate, which neither command reports
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_VALIDATION
    assert "unrecognized arguments" in capsys.readouterr().err


class TestTable1:
    def test_rows_parse(self, capsys):
        code, out = run(capsys, ["table1"])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5
        ages = []
        for b, line in zip(range(1, 5), lines[1:]):
            assert line.startswith(str(b))
            inner = line.split("(")[1].split(")")[0]
            taus = [float(tok) for tok in inner.split(",")]
            assert len(taus) == b
            assert taus == sorted(taus, reverse=True)
            ages.append(float(line.split()[-3]))
        assert ages == sorted(ages, reverse=True)


def call(capsys, argv):
    """(exit code, stdout, stderr) of one cli.main call, argparse rejections included."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


INTERLEAVED = [
    ["evaluate", "--mu", "1", "--battery", "2", "--thresholds", "1.5,0.72"],
    ["optimize", "--mu", "1.3", "--battery", "2", "--mode", "penalty", "--penalty", "power", "--exponent", "2"],
    ["optimize", "--mu", "1", "--battery", "2", "--mode", "bogus"],  # argparse rejects it
    ["sweep", "--fig", "6", "--mu", "0.8", "--tau1", "1.4", "--points", "5"],
    ["evaluate", "--mu", "0.7", "--battery", "3", "--thresholds", "2,1,0.5", "--penalty", "power"],
    ["optimize", "--mu", "1", "--battery", "2", "--grid-points", "9", "--mode", "grid"],
    ["table1", "--q", "3"],  # argparse rejects it
    ["sweep", "--mu", "1,2", "--battery", "1,2"],
]


def test_cached_parser_matches_fresh_parsers(capsys):
    # main builds its parser once per process; interleaving subcommands, their
    # defaults and argparse errors must give what a freshly built parser gives
    fresh = []
    for argv in INTERLEAVED:
        cli._parser.cache_clear()
        fresh.append(call(capsys, argv))
    cli._parser.cache_clear()
    cached = [call(capsys, argv) for argv in INTERLEAVED + INTERLEAVED]
    assert cli._parser.cache_info().misses == 1
    assert cached == fresh + fresh
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 0, 0, 2, 0]


# argvs argparse handles before or instead of a command: no argv, help, an
# unknown subcommand or flag, extra positionals, bad and missing values,
# abbreviations, "--", a negative number and repeated flags
EDGE_ARGVS = [
    [],
    ["-h"],
    ["bogus"],
    ["Evaluate"],
    ["-x", "evaluate"],
    ["--help", "evaluate"],
    ["evaluate", "--mu", "1", "--battery", "2", "--thresholds", "1,0.5", "--bogus"],
    ["evaluate", "--mu", "1", "--battery", "2", "--thresholds", "1,0.5", "extra", "args"],
    ["evaluate", "--mu", "x", "--battery", "2", "--thresholds", "1,0.5"],
    ["evaluate", "--battery", "2", "--thresholds", "1,0.5"],
    ["evaluate", "--mu=1", "--battery", "2", "--thresholds", "1,0.5"],
    ["evaluate", "--mu", "1", "--battery", "2", "--thr", "1,0.5"],
    ["evaluate", "--mu", "1", "--battery", "2", "--thresholds", "1,0.5", "--"],
    ["evaluate", "--", "--mu", "1", "--battery", "2", "--thresholds", "1,0.5"],
    ["evaluate", "--mu", "-1", "--battery", "2", "--thresholds", "1,0.5"],
    ["evaluate", "--mu", "1", "--battery", "2", "--thresholds", "1,0.5", "--thresholds", "2,1"],
    ["evaluate", "--mu", "1", "--battery", "2", "--thresholds", "1,0.5", "-h"],
    ["evaluate", "--he"],
    ["table1", "--q", "3"],
    ["table1", "--output"],
    ["optimize", "--mu", "1", "--battery", "2", "--m", "penalty"],
]
HELP_ARGVS = [[command, "-h"] for command in cli._subcommands()]


@pytest.mark.parametrize(
    "argv",
    INTERLEAVED + [argv for argv in EDGE_ARGVS if argv not in INTERLEAVED] + HELP_ARGVS,
    ids=lambda argv: " ".join(argv) or "no argv",
)
def test_one_parse_matches_the_full_parser(capsys, monkeypatch, argv):
    # main parses with the subcommand's own parser where argv[0] names one;
    # the exit code, stdout and stderr are those of the full parser's path
    fast = call(capsys, argv)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_subcommands", dict)  # no subcommand is dispatched to
        full = call(capsys, argv)
    assert fast == full


def test_an_accepted_argv_skips_the_full_parser(capsys, monkeypatch):
    def refuse(argv):
        raise AssertionError(f"full parser called on {argv}")

    monkeypatch.setattr(cli._parser(), "parse_args", refuse)
    for argv in INTERLEAVED[:2] + [INTERLEAVED[3]]:
        assert call(capsys, argv)[0] == 0


def _g(v: float) -> str:
    return format(float(v), ".9g")


def reference_sweep_fig(args) -> int:
    """The Fig. 5/6 sweep with its checks and its CSV rows taken one row at a time."""
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    rates = cli._parse_floats(args.mu)
    if len(rates) != 1:
        raise ValueError(f"--fig takes exactly one --mu rate, got {len(rates)}")
    if args.penalty != "identity":
        raise ValueError(f"--fig takes only --penalty identity, got {args.penalty}")
    mu = rates[0]
    params = SystemParams(mu_h=mu, battery=2)
    if args.fig == 5:
        fixed = cli._parse_floats(args.tau2)
        if not fixed:
            raise ValueError("--tau2 required for --fig 5")
        curves = [
            np.column_stack((np.linspace(t2, t2 + 3.0 / mu, args.points), np.full(args.points, t2)))
            for t2 in fixed
        ]
    else:
        fixed = cli._parse_floats(args.tau1)
        if not fixed:
            raise ValueError("--tau1 required for --fig 6")
        curves = [
            np.column_stack((np.full(args.points, t1), np.linspace(0.0, t1, args.points)))
            for t1 in fixed
        ]
    rows = ["tau_1,tau_2,avg_age"]
    for taus in curves:
        for row in taus:
            validate_policy(params, row)
        ages = [policy_metrics(params, Policy(tuple(row))).avg_age for row in taus.tolist()]
        rows += [",".join([_g(t1), _g(t2), _g(age)]) for (t1, t2), age in zip(taus, ages)]
    cli._out(args, "\n".join(rows))
    return 0


@pytest.mark.parametrize("mu", ["0.5", "1", "1.7", "3e-5", "2e8"])
@pytest.mark.parametrize("fig,flag", [("5", "--tau2"), ("6", "--tau1")])
@pytest.mark.parametrize("fixed,points", [("0", "61"), ("0.3", "61"), ("1,2.5", "7"), ("0.72,1e-9,7", "1")])
def test_fig_csv_matches_the_row_loop(capsys, mu, fig, flag, fixed, points):
    argv = ["sweep", "--fig", fig, "--mu", mu, flag, fixed, "--points", points]
    code, out, err = call(capsys, argv)
    assert code == reference_sweep_fig(cli.build_parser().parse_args(argv)) == 0
    assert out == capsys.readouterr().out and err == ""
    assert out.count("\n") == 1 + len(fixed.split(",")) * int(points)


@pytest.mark.parametrize("mu", [1e-160, 1e-200, 1e-300])
@pytest.mark.parametrize("fig,flag,fixed", [("5", "--tau2", (0.1, 0.72, 5.0)), ("6", "--tau1", (0.1, 1.4, 5.0))])
def test_fig_answers_wherever_its_ages_are_in_range(capsys, monkeypatch, mu, fig, flag, fixed):
    # at thresholds of 0.1-5 / mu, m2 ~ tau^2 leaves double range while the
    # ages, ~ 1 / mu, do not; a curve prints ages only, so it answers, and
    # its ages scale as 1 / mu to the unit-rate sweep's
    ages = []

    def spy(params, taus, p):
        got = avg_penalties(params, taus, p)
        ages.append(got)
        return got

    monkeypatch.setattr(cli, "avg_penalties", spy)

    def sweep(rate):
        ages.clear()
        values = ",".join(repr(t / rate) for t in fixed)
        code, out, err = call(capsys, ["sweep", "--fig", fig, "--mu", repr(rate), flag, values, "--points", "9"])
        assert (code, err) == (0, "")
        got = np.concatenate(ages)
        assert [row.split(",")[2] for row in out.splitlines()[1:]] == [_g(age) for age in got]
        return got

    scaled = sweep(mu) * mu
    assert np.isfinite(scaled).all()
    np.testing.assert_allclose(scaled, sweep(1.0), rtol=1e-14, atol=0.0)


def _row_loop_error(params, taus):
    try:
        for row in taus:
            validate_policy(params, row)
    except PolicyError as exc:
        return type(exc), str(exc)
    return None


def _curve_error(params, taus):
    try:
        cli._validate_curve(params, taus)
    except PolicyError as exc:
        return type(exc), str(exc)
    return None


_threshold = st.one_of(
    st.floats(min_value=-1.0, max_value=4.0),
    st.sampled_from([0.0, -0.0, -1e-300, 5e-324, math.nan, math.inf, -math.inf]),
)
_row = st.tuples(_threshold, _threshold, st.booleans()).map(
    lambda t: tuple(sorted(t[:2], reverse=True)) if t[2] and not any(map(math.isnan, t[:2])) else t[:2]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_row, min_size=1, max_size=8))
@example([(2.0, 1.0), (1.0, math.nan), (1.0, -1.0)])  # NaN first
@example([(2.0, 1.0), (1.0, -0.5), (-0.5, -1.0)])  # a negative value
@example([(2.0, 1.0), (0.5, 1.0), (1.0, 0.5)])  # a non-monotone row
@example([(1.0, -0.0), (0.0, 0.0)])  # -0.0 passes
def test_curve_check_rejects_what_the_row_loop_rejects(rows):
    params = SystemParams(mu_h=1.0, battery=2)
    taus = np.array(rows, dtype=float)
    assert _curve_error(params, taus) == _row_loop_error(params, taus)


@pytest.mark.parametrize(
    "tau2,error",
    [("nan", "NonFinite: threshold nan is not finite"), ("-1", "NonFinite: threshold -1.0 is negative")],
)
def test_fig5_rejects_a_bad_curve_with_the_row_loops_error(capsys, tau2, error):
    code, out, err = call(capsys, ["sweep", "--fig", "5", "--mu", "1", "--tau2", f"0.5,{tau2}"])
    assert (code, out, err) == (cli.EXIT_VALIDATION, "", f"error: {error}\n")


# Every command, in one process: optimize (grid, algorithm1 and the power-0.5
# penalty), evaluate with thresholds past erlang.SWITCH, a Fig. 5 sweep and a
# checked simulation; then the modules that process loaded.
NO_SCIPY = """
import contextlib, io, sys
from aoiharvest import cli
argvs = [
    ["optimize", "--mu", "1", "--battery", "2", "--mode", "grid", "--grid-points", "5"],
    ["optimize", "--mu", "1", "--battery", "2", "--mode", "algorithm1"],
    ["optimize", "--mu", "1", "--battery", "3", "--mode", "penalty", "--penalty", "power", "--exponent", "0.5"],
    ["evaluate", "--mu", "0.8", "--battery", "3", "--thresholds", "9,5,0.5", "--penalty", "power", "--exponent", "1.5"],
    ["sweep", "--fig", "5", "--mu", "1", "--tau2", "0.5", "--points", "5"],
    ["simulate", "--mu", "1", "--battery", "2", "--thresholds", "1.5,0.72", "--check", "--renewals", "20000", "--seed", "7"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in argvs]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_commands_run_without_scipy():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "[0, 0, 0, 0, 0, 0] []"


def test_optimize_stdout_does_not_depend_on_blas_threads():
    # The stationary vector and the unit values are recursions on the CDF
    # table with no BLAS call: the bytes are the same under 1 and 2 OpenBLAS
    # threads. The LU solves they replaced printed different last digits here.
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    argv = ["-m", "aoiharvest.cli", "optimize", "--mu", "1", "--battery", "128", "--mode", "penalty"]
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, *argv], capture_output=True, env=env, check=True, timeout=120)
        outs.append(done.stdout)
    assert outs[0] == outs[1] and json.loads(outs[0])["objective"] > 0.5
