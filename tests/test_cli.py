import json

import numpy as np
import pytest
from click.testing import CliRunner

from busemann_lab import cli


@pytest.fixture
def runner():
    return CliRunner()


def load_report(result):
    # The runner interleaves the stderr status lines after the JSON body.
    report, _ = json.JSONDecoder().raw_decode(result.output)
    return report


EXPERIMENTS = [
    "check-intertwine",
    "check-inverse",
    "grsk-verify",
    "stationary-cocycle",
    "parallel-chain",
    "ppp-busemann",
    "jump-count",
    "zero-temp",
    "cif-eta",
    "cif-xi",
    "she-check",
    "calibrate-stats",
]


class TestHelp:
    def test_group_help(self, runner):
        result = runner.invoke(cli.main, ["--help"])
        assert result.exit_code == 0
        for name in EXPERIMENTS:
            assert name in result.output

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_subcommand_help(self, runner, name):
        result = runner.invoke(cli.main, [name, "--help"])
        assert result.exit_code == 0


class TestReportSchema:
    def test_json_shape(self, runner):
        result = runner.invoke(cli.main, ["check-intertwine"])
        assert result.exit_code == 0, result.output
        report = load_report(result)
        assert set(report) == {"config", "checks", "summary"}
        assert report["config"]["experiment"] == "check-intertwine"
        for check in report["checks"]:
            assert set(check) == {"name", "paper_ref", "value", "threshold", "pass"}
        s = report["summary"]
        assert s["total"] == s["passed"] + s["failed"]
        assert "wall_time_s" in s

    def test_csv_shape(self, runner):
        result = runner.invoke(cli.main, ["check-inverse", "--format", "csv",
                                          "--alpha", "3.5",
                                          "--rho", "0.5,1.5,2.5"])
        assert result.exit_code == 0, result.output
        lines = result.output.strip().splitlines()
        assert lines[0] == "name,paper_ref,value,threshold,pass"
        rows = [l for l in lines[1:] if "," in l]
        assert len(rows) == 3
        for row in rows:
            assert row.endswith(",True")

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            cli.main, ["she-check", "--size", "60", "--output", str(out)]
        )
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert report["summary"]["failed"] == 0

    def test_deterministic_modulo_walltime(self, runner):
        args = ["jump-count", "--samples", "2000"]
        a = load_report(runner.invoke(cli.main, args))
        b = load_report(runner.invoke(cli.main, args))
        a["summary"].pop("wall_time_s")
        b["summary"].pop("wall_time_s")
        assert a == b

    def test_seed_changes_values(self, runner):
        a = load_report(
            runner.invoke(cli.main, ["jump-count", "--samples", "2000"])
        )
        b = load_report(
            runner.invoke(
                cli.main, ["jump-count", "--samples", "2000", "--seed", "8"]
            )
        )
        assert a["checks"][0]["value"] != b["checks"][0]["value"]


class TestExperimentRuns:
    @pytest.mark.parametrize(
        "args",
        [
            ["check-intertwine", "--n", "2", "--rho", "0.5,1.0"],
            ["check-inverse", "--alpha", "3.5", "--rho", "0.5,1.5,2.5"],
            ["grsk-verify"],
            ["stationary-cocycle", "--window", "5000"],
            ["parallel-chain", "--window", "8000"],
            ["ppp-busemann", "--samples", "4000"],
            ["jump-count", "--samples", "2000"],
            ["zero-temp", "--samples", "120"],
            ["cif-eta", "--replicas", "400"],
            ["cif-xi", "--replicas", "400"],
            ["she-check", "--size", "60"],
            ["calibrate-stats", "--trials", "150", "--samples", "800"],
        ],
    )
    def test_runs_green(self, runner, args):
        result = runner.invoke(cli.main, args)
        assert result.exit_code == 0, result.output
        report = load_report(result)
        assert report["summary"]["failed"] == 0
        assert report["summary"]["total"] >= 1


class TestExitCodes:
    @pytest.mark.parametrize(
        "args",
        [
            ["stationary-cocycle", "--rho", "5.0"],
            ["check-intertwine", "--rho", "0.5"],
            ["check-intertwine", "--rho", "oops"],
            ["parallel-chain", "--rho", "0.4,1.2"],
            ["ppp-busemann", "--lam", "1.5", "--rho", "0.4"],
            ["zero-temp", "--rho", "1.5"],
            ["jump-count", "--delta", "-1"],
            ["check-intertwine", "--window", "100", "--burn-in", "600"],
            ["cif-eta", "--replicas", "0"],
            ["jump-count", "--samples", "0"],
            ["calibrate-stats", "--trials", "0"],
            # Past 2**22 // 3 replicas the stream ids would alias.
            ["cif-eta", "--replicas", "1398102"],
            ["stationary-cocycle", "--levels", "0"],
            ["she-check", "--size", "0"],
            ["check-intertwine", "--n", "0"],
            ["check-inverse", "--n", "0"],
            ["zero-temp", "--samples", "5"],
            ["calibrate-stats", "--samples", "5"],
            ["ppp-busemann", "--samples", "10"],
            ["jump-count", "--samples", "1"],
            ["she-check", "--size", "1"],
        ],
    )
    def test_config_errors_exit_2(self, runner, args):
        result = runner.invoke(cli.main, args)
        assert result.exit_code == 2, result.output

    @pytest.mark.parametrize(
        "args",
        [
            ["stationary-cocycle", "--levels", "0"],
            ["she-check", "--size", "0"],
            ["check-intertwine", "--n", "0"],
            ["zero-temp", "--samples", "5"],
            ["calibrate-stats", "--samples", "5"],
            ["ppp-busemann", "--samples", "10"],
            ["jump-count", "--samples", "1"],
            ["she-check", "--size", "1"],
            ["parallel-chain", "--window", "10"],
        ],
    )
    def test_bad_count_names_the_option(self, runner, args):
        result = runner.invoke(cli.main, args)
        assert result.exit_code == 2
        assert f"Invalid value for '{args[1]}'" in result.output

    @pytest.mark.parametrize(
        "args, minimum",
        [
            # 20 KS samples from every 16th of window + 1 sites.
            (["parallel-chain", "--window", "303"], "x>=304"),
            # The eternal solution's base sits at size // 2 >= 1.
            (["she-check", "--size", "1"], "x>=2"),
            # The burn-ins of the triangular array at alpha = 2.
            (["grsk-verify", "--window", "10"], "x>=149"),
            # The burn-in margin 41 at alpha = 2, rho = 1, then 304 bulk
            # sites for the vertical KS test.
            (["stationary-cocycle", "--window", "41"], "x>=345"),
            # The first update's burn-in of 104 at alpha = 2 and rho = 0.5;
            # daop's 66 plus two inverse levels need less.
            (["check-inverse", "--window", "10"], "x>=105"),
            # The default comparison margin of 600 exceeds the burn-ins.
            (["check-intertwine", "--window", "10"], "x>=601"),
            # Without it: the sequential step's 104 + 41 + 17 and daop's 66.
            (["check-intertwine", "--window", "228", "--burn-in", "0"], "x>=229"),
        ],
    )
    def test_experiment_minimum_is_named(self, runner, args, minimum):
        result = runner.invoke(cli.main, args)
        assert result.exit_code == 2
        assert f"Invalid value for '{args[1]}': {args[2]} is not in the range {minimum}" in result.output

    @pytest.mark.parametrize(
        "args", [["grsk-verify", "--window", "149"],
                 ["stationary-cocycle", "--window", "345"],
                 ["check-inverse", "--window", "105"],
                 ["check-intertwine", "--window", "601"],
                 ["check-intertwine", "--window", "229", "--burn-in", "0"]],
    )
    def test_named_window_minimum_runs(self, runner, args):
        result = runner.invoke(cli.main, args)
        assert result.exit_code in (0, 1), result.output

    def test_smallest_parallel_chain_window_runs(self, runner):
        result = runner.invoke(cli.main, ["parallel-chain", "--window", "304"])
        assert result.exit_code in (0, 1), result.output

    def test_numerical_failure_exits_1(self, runner, monkeypatch):
        failing = [
            {
                "name": "forced",
                "paper_ref": "none",
                "value": 1.0,
                "threshold": 0.5,
                "pass": False,
            }
        ]
        monkeypatch.setattr(
            cli, "run_check_intertwine", lambda *a, **k: failing
        )
        result = runner.invoke(cli.main, ["check-intertwine"])
        assert result.exit_code == 1

    def test_in_process_failure_raises_system_exit(self, monkeypatch, capsys):
        # The benchmark runs commands with standalone_mode=False and reads
        # the exit code from SystemExit; a click exit would return 0 there.
        failing = [{"name": "forced", "paper_ref": "none", "value": 1.0,
                    "threshold": 0.5, "pass": False}]
        monkeypatch.setattr(cli, "run_check_intertwine", lambda *a, **k: failing)
        with pytest.raises(SystemExit) as exc:
            cli.main.main(["check-intertwine"], standalone_mode=False)
        assert exc.value.code == 1
        assert json.loads(capsys.readouterr().out)["summary"]["failed"] == 1

    @pytest.mark.parametrize("argv", [
        ["parallel-chain", "--rho", "0.5,1.0,1.5"],
        ["zero-temp", "--samples", "5"],
    ])
    def test_in_process_configuration_error_exits_2(self, argv, capsys):
        # Same exit code and message in-process as in standalone mode.
        errors = []
        for standalone in (True, False):
            with pytest.raises(SystemExit) as exc:
                cli.main.main(argv, prog_name="busemann-lab",
                              standalone_mode=standalone)
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1]
        assert "Error: " in errors[1]


class TestArrayCdfs:
    """The array CDFs equal the per-sample closures they replaced."""

    V = np.concatenate((
        [-1.0, -0.0, 0.0, 1e-300, 1.0, 1.5, 40.0], np.linspace(-0.5, 3.0, 701),
    ))

    @staticmethod
    def scalar_beta_cdf(a, b):
        def cdf(v):
            if v <= 0.0:
                return 0.0
            if v >= 1.0:
                return 1.0
            return cli.reg_inc_beta(a, b, v)

        return cdf

    @staticmethod
    def scalar_invgamma_cdf(shape):
        def cdf(v):
            if v <= 0.0:
                return 0.0
            return 1.0 - cli.reg_inc_gamma(shape, 1.0 / v)

        return cdf

    @pytest.mark.parametrize("a,b", [(0.8, 1.2), (1.0, 0.6), (3.0, 0.5)])
    def test_beta_cdf(self, a, b):
        oracle = self.scalar_beta_cdf(a, b)
        want = np.array([oracle(v) for v in self.V])
        assert np.array_equal(cli._beta_cdf(a, b)(self.V), want)

    @pytest.mark.parametrize("shape", [0.4, 1.0, 2.5])
    def test_invgamma_cdf(self, shape):
        oracle = self.scalar_invgamma_cdf(shape)
        want = np.array([oracle(v) for v in self.V])
        assert np.array_equal(cli._invgamma_cdf(shape)(self.V), want)
