"""Golden reports: every experiment's report must not change.

Each case runs one ``busemann-lab`` command and compares the report it
writes with ``--output`` to the file of the same name in
``tests/golden/``, byte for byte except the value of ``wall_time_s``,
and requires the same exit code.  The cases are the configurations of
``test_cli.py::TestExperimentRuns``, eleven experiments at their defaults
(``check-inverse`` fails its inverse gaps, a known conditioning defect,
and exits 1), one CSV report, and the benchmark's deep grid
``stationary-cocycle --window 6000 --levels 400``, the largest grid
that the anti-diagonal ``_evolve`` runs in any report.

A change that means to alter the numerics regenerates the golden files
with ``PYTHONPATH=src python tests/test_golden.py`` and explains in its
description why the reports changed.
"""

import re
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from busemann_lab import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# (file name, argv, exit code)
CASES = [
    ("check-intertwine.json", ["check-intertwine", "--n", "2", "--rho", "0.5,1.0"], 0),
    ("check-inverse.json", ["check-inverse", "--alpha", "3.5", "--rho", "0.5,1.5,2.5"], 0),
    ("grsk-verify.json", ["grsk-verify"], 0),
    ("stationary-cocycle.json", ["stationary-cocycle", "--window", "5000"], 0),
    ("stationary-cocycle-deep.json", ["stationary-cocycle", "--window", "6000",
                                      "--levels", "400"], 0),
    ("parallel-chain.json", ["parallel-chain", "--window", "8000"], 0),
    ("ppp-busemann.json", ["ppp-busemann", "--samples", "4000"], 0),
    ("jump-count.json", ["jump-count", "--samples", "2000"], 0),
    ("zero-temp.json", ["zero-temp", "--samples", "120"], 0),
    ("cif-eta.json", ["cif-eta", "--replicas", "400"], 0),
    ("cif-xi.json", ["cif-xi", "--replicas", "400"], 0),
    ("she-check.json", ["she-check", "--size", "60"], 0),
    ("calibrate-stats.json", ["calibrate-stats", "--trials", "150", "--samples", "800"], 0),
    ("check-inverse-defaults.json", ["check-inverse"], 1),
    ("cif-eta-defaults.json", ["cif-eta"], 0),
    ("cif-xi-defaults.json", ["cif-xi"], 0),
    ("stationary-cocycle-defaults.json", ["stationary-cocycle"], 0),
    ("parallel-chain-defaults.json", ["parallel-chain"], 0),
    ("jump-count-defaults.json", ["jump-count"], 0),
    ("check-intertwine-defaults.json", ["check-intertwine"], 0),
    ("she-check-defaults.json", ["she-check"], 0),
    ("zero-temp-defaults.json", ["zero-temp"], 0),
    ("ppp-busemann-defaults.json", ["ppp-busemann"], 0),
    ("check-inverse.csv", ["check-inverse", "--format", "csv", "--alpha", "3.5",
                           "--rho", "0.5,1.5,2.5"], 0),
]

_WALL_TIME = re.compile(r'("wall_time_s": )[-+0-9.eE]+')


def _normalized(text: str) -> str:
    return _WALL_TIME.sub(r"\1null", text)


def _run(argv, path: Path) -> int:
    result = CliRunner().invoke(cli.main, [*argv, "--output", str(path)])
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    return result.exit_code


@pytest.mark.parametrize("name, argv, code", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(tmp_path, name, argv, code):
    out = tmp_path / name
    assert _run(argv, out) == code
    assert _normalized(out.read_text()) == _normalized((GOLDEN / name).read_text())


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, code in CASES:
        got = _run(argv, GOLDEN / name)
        if got != code:
            sys.exit(f"{name}: exit code {got}, expected {code}")


if __name__ == "__main__":
    regenerate()
