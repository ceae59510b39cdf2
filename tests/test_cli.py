import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import busemann_lab
from busemann_lab import cli, experiments
from busemann_lab.seqmaps import NotInImage

from oracles import _i_beta, _p_gamma


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


# Bad values that once reached a library guard, numpy or a crash.  Each
# argv names first the option that its error must name.
NAMED_ERRORS = [
    ["cif-eta", "--replicas", "1398102"],
    ["cif-eta", "--rho", "3.0"],
    ["cif-xi", "--rho", "-1"],
    # Cesaro gaps below 1e-8: no finite burn-in.
    ["cif-eta", "--rho", "1e-12"],
    ["she-check", "--rho", "1e-12"],
    ["parallel-chain", "--rho", "1.2000000001,1.2"],
    # grsk-verify draws shapes alpha + 1, alpha and alpha - 1.
    ["grsk-verify", "--alpha", "0.5"],
    ["grsk-verify", "--alpha", "-1"],
    ["grsk-verify", "--alpha", "1e-3"],
    ["grsk-verify", "--alpha", "1.01"],
    # Inverse-gamma draws of shape below MIN_SHAPE can overflow.
    ["parallel-chain", "--alpha", "0.01", "--rho", "0.005,0.001"],
    # Infinite values, and values outside an option's range.
    ["jump-count", "--delta", "inf"],
    ["jump-count", "--delta", "1e-7"],
    ["jump-count", "--s-hi", "0.2", "--s-lo", "0.5"],
    ["jump-count", "--alpha", "-2"],
    ["stationary-cocycle", "--alpha", "inf"],
    ["ppp-busemann", "--alpha", "inf"],
    ["cif-eta", "--alpha", "inf"],
    # jump-count's s-interval lies in [0, alpha).
    ["jump-count", "--s-hi", "2.0"],
    ["jump-count", "--s-hi", "3.0"],
    ["jump-count", "--s-lo", "-1"],
    # The jump sampler's envelope overflows near alpha.
    ["zero-temp", "--rho", "0.95"],
    ["jump-count", "--s-hi", "1.9"],
    # The expected count underflows to 0.
    ["jump-count", "--delta", "1000"],
    # Far past MAX_SHAPE the burn-ins, and past about 1e9 the expected
    # count at the smallest delta, fail at the other options' defaults.
    ["ppp-busemann", "--alpha", "1e300"],
    ["jump-count", "--alpha", "1e300"],
    ["cif-eta", "--alpha", "1e300"],
    # Past MAX_SHAPE, --rho's range admitted rho = alpha and the run crashed.
    ["cif-eta", "--alpha", "2e15", "--rho", "2e15"],
]

# The counts each run refuses itself, and every empty rho list.
COUNT_ERRORS = [
    ["check-intertwine", "--n", "0"],
    ["check-inverse", "--n", "0"],
    ["stationary-cocycle", "--levels", "0"],
    # 20 KS samples from every 16th of window + 1 sites.
    ["parallel-chain", "--window", "10"],
    ["ppp-busemann", "--samples", "10"],
    # jump-count's dispersion test needs two counts.
    ["jump-count", "--samples", "0"],
    ["jump-count", "--samples", "1"],
    ["zero-temp", "--samples", "5"],
    ["cif-eta", "--replicas", "0"],
    ["she-check", "--size", "0"],
    ["she-check", "--size", "1"],
    ["calibrate-stats", "--trials", "0"],
    ["calibrate-stats", "--samples", "5"],
    ["check-intertwine", "--rho", ""],
    ["parallel-chain", "--rho", ","],
]

# A seed is the root of 64-bit keys: 2**64 would alias seed 0, -1 seed 2**64 - 1.
SEED_ERRORS = [[name, "--seed", seed] for name in EXPERIMENTS for seed in ("-1", str(2 ** 64))]

# The refusal table: values that a run refuses before it draws, with a
# ConfigError in-process and exit 2 through the CLI.  Each argv names
# first the option that its error must name.
REFUSALS = [
    *COUNT_ERRORS,
    *SEED_ERRORS,
    ["stationary-cocycle", "--rho", "5.0"],
    ["check-intertwine", "--rho", "0.5"],
    ["parallel-chain", "--rho", "0.4,1.2"],
    ["ppp-busemann", "--lam", "1.5", "--rho", "0.4"],
    ["zero-temp", "--rho", "1.5"],
    ["jump-count", "--delta", "-1"],
    ["check-intertwine", "--window", "100", "--burn-in", "600"],
    *NAMED_ERRORS,
]

# A cap on the address space of the subprocesses below.
_AS_CAP = 2 * 2 ** 30


class TestExitCodes:
    @staticmethod
    def _both_modes(runner, capsys, args) -> list[tuple[int, str]]:
        """(exit code, message) standalone through CliRunner, then in-process."""
        result = runner.invoke(cli.main, args)
        with pytest.raises(SystemExit) as exc:
            cli.main.main(args, prog_name="busemann-lab", standalone_mode=False)
        return [(result.exit_code, result.output), (exc.value.code, capsys.readouterr().err)]

    # click's type checks, and the refusal table.
    @pytest.mark.parametrize("args", [["check-intertwine", "--rho", "oops"],
                                      ["cif-eta", "--seed", "x"], *REFUSALS])
    def test_config_errors_exit_2(self, runner, capsys, args):
        for code, output in self._both_modes(runner, capsys, args):
            assert code == 2, output
            assert f"Invalid value for '{args[1]}'" in output

    @pytest.mark.parametrize("args", REFUSALS)
    def test_bad_count_names_the_option(self, args):
        # In-process, without the CLI: click only parses the argv, and the
        # run itself refuses the value.
        exp = next(e for e in cli.EXPERIMENTS if e.name == args[0])
        params = cli.main.commands[args[0]].make_context(args[0], args[1:]).params
        del params["output"], params["fmt"]
        with pytest.raises(experiments.ConfigError) as exc:
            getattr(experiments, exp.run)(**params)
        assert exc.value.option == args[1]

    @pytest.mark.parametrize(
        "args",
        [
            # Each asked numpy for 1.3 to 4.6 GiB before it was sized.
            ["cif-eta", "--rho", "1e-7"],
            ["she-check", "--rho", "1e-7"],
            ["parallel-chain", "--rho", "1.2000001,1.2"],
            ["she-check", "--size", "100000"],
            # Each crashed with _ArrayMemoryError under the cap before it
            # was sized.
            ["stationary-cocycle", "--window", "1000000000"],
            ["stationary-cocycle", "--levels", "100000000"],
            ["calibrate-stats", "--samples", "100000000", "--trials", "1"],
            ["calibrate-stats", "--trials", "100000000"],
            ["check-intertwine", "--window", "1000000000"],
            ["check-inverse", "--window", "1000000000"],
            ["grsk-verify", "--window", "100000000"],
            # Each passed the count of its input windows alone and then
            # crashed under the cap: the runs hold many more window-sized
            # arrays at their peaks.
            ["check-intertwine", "--window", "40000000"],
            ["check-inverse", "--window", "40000000"],
            ["grsk-verify", "--window", "40000000"],
            # About 18.5 accepted-point candidates per sample at alpha = 2,
            # rho = 1.2.
            ["ppp-busemann", "--samples", "1000000000"],
            ["jump-count", "--samples", "1000000000"],
            ["zero-temp", "--samples", "1000000000"],
            # Each passed a count of one of its grids and then crashed
            # under the cap: the grid runs hold three or four.
            ["she-check", "--size", "9000"],
            ["stationary-cocycle", "--window", "99999", "--levels", "1100"],
        ],
    )
    def test_oversized_run_names_the_option(self, args):
        # In a subprocess under an address-space cap, so that a run that
        # allocates instead of refusing fails without taking the memory.
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (_AS_CAP, _AS_CAP))

        src = str(Path(busemann_lab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "busemann_lab.cli", *args], capture_output=True,
            text=True, timeout=120, preexec_fn=cap, env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 2, proc.stderr
        assert f"Invalid value for '{args[1]}'" in proc.stderr
        assert "GiB budget" in proc.stderr

    def test_max_shape_is_the_last_that_keeps_min_shape_below_it(self):
        top = experiments.MAX_SHAPE
        assert top - experiments.MIN_SHAPE < top
        above = math.nextafter(top, math.inf)
        assert above - experiments.MIN_SHAPE == above

    def test_calibration_trials_minimum(self, runner):
        # 124 = ceil(1 / (3 * 0.0027)): the fewest trials at which one
        # false positive passes the Pearson rate gate, the tightest.
        assert experiments.MIN_TRIALS == 124
        result = runner.invoke(cli.main, ["calibrate-stats", "--trials", "20"])
        assert result.exit_code == 2
        assert "Invalid value for '--trials': 20 is not in the range x>=124" in result.output
        result = runner.invoke(cli.main, ["calibrate-stats", "--trials", "124", "--samples", "20"])
        assert result.exit_code == 0, result.output

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
            # The cif runs refuse the replica counts click's IntRange did,
            # with its message.
            (["cif-eta", "--replicas", "0"], "1<=x<=1398101."),
            (["cif-xi", "--replicas", "1398102"], "1<=x<=1398101."),
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

    def test_roundoff_outside_image_fails_the_check(self, runner):
        # Roundoff leaves some I~ <= W in the tuple inverse at alpha = 1:
        # a failed inverse, reported as an infinite gap, not a bad config.
        result = runner.invoke(cli.main, ["check-inverse", "--n", "2", "--alpha",
                                          "1.0", "--rho", "0.45,0.5"])
        assert result.exit_code == 1, result.output
        checks = {c["name"]: c for c in load_report(result)["checks"]}
        assert checks["tuple-inverse-max-gap"]["value"] == float("inf")
        assert not checks["tuple-inverse-max-gap"]["pass"]

    def test_single_inverse_outside_image_is_an_infinite_gap(self):
        def invert():
            raise NotInImage("not in image: need I~ > W at every index")

        assert experiments._inverse_gap(invert, None) == float("inf")

    def test_nan_residual_in_any_row_fails_the_check(self):
        rows = [np.array([1e-13, -2e-13]), np.array([np.nan, 0.0]), np.zeros(2)]
        assert np.isnan(experiments._max_abs_rows(rows))
        assert experiments._max_abs_rows(rows[::2]) == 2e-13

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
            experiments, "run_check_intertwine", lambda *a, **k: failing
        )
        result = runner.invoke(cli.main, ["check-intertwine"])
        assert result.exit_code == 1

    def test_in_process_failure_raises_system_exit(self, monkeypatch, capsys):
        # The benchmark runs commands with standalone_mode=False and reads
        # the exit code from SystemExit; a click exit would return 0 there.
        failing = [{"name": "forced", "paper_ref": "none", "value": 1.0,
                    "threshold": 0.5, "pass": False}]
        monkeypatch.setattr(experiments, "run_check_intertwine", lambda *a, **k: failing)
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
    """The array CDFs equal the per-sample closures they replaced, on the
    scalar incomplete gamma and beta functions of tests/oracles.py."""

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
            return _i_beta(a, b, v)

        return cdf

    @staticmethod
    def scalar_invgamma_cdf(shape):
        def cdf(v):
            if v <= 0.0:
                return 0.0
            return 1.0 - _p_gamma(shape, 1.0 / v)

        return cdf

    @pytest.mark.parametrize("a,b", [(0.8, 1.2), (1.0, 0.6), (3.0, 0.5)])
    def test_beta_cdf(self, a, b):
        oracle = self.scalar_beta_cdf(a, b)
        want = np.array([oracle(v) for v in self.V])
        assert np.array_equal(experiments._beta_cdf(a, b)(self.V), want)

    @pytest.mark.parametrize("shape", [0.4, 1.0, 2.5])
    def test_invgamma_cdf(self, shape):
        oracle = self.scalar_invgamma_cdf(shape)
        want = np.array([oracle(v) for v in self.V])
        assert np.array_equal(experiments._invgamma_cdf(shape)(self.V), want)
