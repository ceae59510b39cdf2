"""Tests of the benchmark runner's result line and correctness gate.

Run from the root of the repository with ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from layers import Tracer

ROOT = Path(__file__).resolve().parent.parent


def _report(checks_pass, wall=0.5):
    checks = [{"name": f"c{i}", "paper_ref": "r", "value": 0.0, "threshold": 1.0,
               "pass": ok} for i, ok in enumerate(checks_pass)]
    failed = sum(1 for ok in checks_pass if not ok)
    return {"config": {"experiment": "x"}, "checks": checks,
            "summary": {"total": len(checks), "passed": len(checks) - failed,
                        "failed": failed, "wall_time_s": wall}}


def _pass(reports, traced=False, wall=1.0):
    steps = {name: {"seconds": 0.25, "report": rep, "code": 1 if not all(
        c["pass"] for c in rep["checks"]) else 0, "error": None}
        for name, rep in reports.items()}
    return {"traced": traced, "tracer": Tracer() if traced else None,
            "steps": steps, "refs": [0.01, 0.02, 0.03], "wall_s": wall}


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_result_metrics_match_benchmark_json():
    passes = [_pass({"a": _report([True, False])}),
              _pass({"a": _report([True, False])}, traced=True, wall=1.5)]
    spec = _benchmark()
    e2e = run.end_to_end(passes, [0.2, 0.3, 0.4])
    assert {k: m["unit"] for k, m in e2e.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e["check_pass_ratio"]["value"] == 0.5
    assert e2e["wall_norm"]["value"] == pytest.approx(1.25 / 0.02)
    assert e2e["setup_s"]["value"] == pytest.approx(0.3 * run.REF_NOMINAL_S / 0.02)
    layers, repeat = run.per_layer(passes)
    assert repeat
    assert {k: m["unit"] for k, m in layers.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layers["trace.overhead_s"]["value"] == pytest.approx(0.5)


def test_changed_report_or_unexplained_exit_code_fails_the_step():
    known = {"b": frozenset({"c0"})}
    same = _pass({"a": _report([True]), "b": _report([False])})
    assert run.step_failures([same, same], known)[:2] == (4, 0)
    # Only the wall time differs: not a failure.
    retimed = _pass({"a": _report([True], wall=9.0), "b": _report([False])})
    assert run.step_failures([same, retimed], known)[:2] == (4, 0)
    changed = _pass({"a": _report([True]), "b": _report([True])})
    attempted, failed, reasons = run.step_failures([same, changed], known)
    assert (attempted, failed) == (4, 1) and reasons[0].startswith("b:")
    bad_code = _pass({"a": _report([True]), "b": _report([False])})
    bad_code["steps"]["b"]["code"] = 0
    assert run.step_failures([bad_code], known)[:2] == (2, 1)


def test_a_failed_check_that_must_pass_fails_the_step():
    one_bad = _pass({"a": _report([True, False]), "b": _report([False, True])})
    attempted, failed, reasons = run.step_failures([one_bad], {"b": {"c0"}})
    assert (attempted, failed) == (2, 1)
    assert reasons == ["a: checks failed that must pass: ['c1']"]
    assert run.step_failures([one_bad])[:2] == (2, 2)


def test_the_numerical_identity_checks_must_pass():
    from workloads import WORKLOADS

    steps = {s.name: s for wl in WORKLOADS.values() for s in wl.steps}
    assert steps["check-inverse"].may_fail == {"tuple-inverse-max-gap",
                                               "single-inverse-max-gap"}
    for name in ("check-intertwine", "grsk-verify", "she-check"):
        assert not steps[name].may_fail
    for name in ("stationary-cocycle", "stationary-cocycle-deep"):
        assert not steps[name].may_fail & {"recovery-residual", "additivity-residual"}
    assert "monotone-ordering" not in steps["parallel-chain"].may_fail
    assert "reparametrization-bound" not in steps["zero-temp"].may_fail


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replicas",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_traced_run_holds_two_traced_passes(monkeypatch):
    from workloads import Step, Workload

    class Instant(Step):
        def run(self, seed):
            return _report([True]), 0

    monkeypatch.setattr(run, "measure_setup", lambda probes: [0.1] * probes)
    workload = Workload("w", (Instant("a", ("a",)),))
    passes, setup = run.run_passes(workload, 1, 1e-9, trace=True)
    assert [p["traced"] for p in passes] == [False, True, True]
    assert len(setup) == run.SETUP_PROBES_FIRST + 3 * run.SETUP_PROBES_PER_PASS
    passes, _ = run.run_passes(workload, 1, 1e-9, trace=False)
    assert [p["traced"] for p in passes] == [False]
