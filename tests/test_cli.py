"""End-to-end tests for the command-line interface.

Everything goes through ``cli.main(argv)`` so exit codes and output
formatting are exercised exactly as a shell user would see them.
"""

import dataclasses
import json

import pytest

from aoiharvest import cli
from aoiharvest.model import PolicyMetrics  # noqa: F401  (re-export sanity)
from aoiharvest.renewal import policy_metrics


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


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

    def test_ignores_grid_points_environment_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("AOIHARVEST_GRID_POINTS", "abc")
        code, out = run(
            capsys,
            ["evaluate", "--mu", "1", "--battery", "2", "--thresholds", "1.5,0.72"],
        )
        assert code == 0
        assert json.loads(out)["battery"] == 2


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

    def test_requires_policy(self, capsys):
        code, _ = run(capsys, ["simulate", "--mu", "1", "--battery", "2"])
        assert code == cli.EXIT_VALIDATION


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
