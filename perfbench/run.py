#!/usr/bin/env python3
"""Benchmark of the busemann-lab verifier.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lattice-rows --seed 7 --seconds 35 --trace 0

Runs the workload's steps through the busemann-lab command surface, in
this one process, pass after pass until ``--seconds`` would be exceeded
(at least one pass).  It checks that every report repeats exactly between
passes (wall time aside) and, with ``--trace 1``, between traced and
untraced passes.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``attempted`` counts
steps run and ``failed`` the steps that raised, exited with a code their
report does not explain, failed a check that is not allowed to fail
(see ``workloads.Step``), or changed their report.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
``--workload all`` runs every workload, each in its own process, and
prints one table.  See perfbench/README.md for every metric.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"
SETUP_PROBES_FIRST = 5
SETUP_PROBES_PER_PASS = 4
REF_REPS = 5
# Median time of the reference kernel on the 2-vCPU Xeon VM where the
# benchmark was written; setup_s is scaled to a host of this speed.
REF_NOMINAL_S = 0.0012
SETUP_PROBE = "import busemann_lab.cli"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _pin_environment():
    """One BLAS/OpenMP thread and no replica thread pool, for this process
    and the set-up probes it starts; numpy must not be imported yet."""
    if "numpy" in sys.modules:
        raise RuntimeError("the environment must be pinned before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("BUSEMANN_LAB_THREADS", None)


def _import_package():
    """Import busemann_lab from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import busemann_lab.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import busemann_lab from {SRC}: {exc}")
    import busemann_lab

    found = Path(busemann_lab.__file__).resolve().parent.parent
    if found != SRC:
        sys.exit(f"perfbench: busemann_lab was imported from {found}, not {SRC}")


def git_rev() -> str:
    """Commit of the checkout, or "unknown" outside a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure_setup(probes: int) -> list[float]:
    """Seconds from a fresh interpreter until busemann_lab.cli is imported."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                       check=True)
        times.append(time.perf_counter() - t0)
    return times


def canonical(report: dict) -> str:
    """A report as compared between passes: everything but the wall time."""
    summary = {k: v for k, v in report["summary"].items() if k != "wall_time_s"}
    return json.dumps({**report, "summary": summary}, sort_keys=True)


def run_pass(workload, seed: int, tracer) -> dict:
    """One pass over the workload's steps; tracer is None for an untraced pass.

    The reference kernel runs after every step, outside the step's time,
    so that its timings sample the host's speed all through the run.
    """
    from reference import reference_seconds

    steps, refs = {}, []
    for step in workload.steps:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                report, code = step.run(seed)
            else:
                with tracer.step(f"{step.layer}.{step.name}", step.layer):
                    report, code = step.run(seed)
            error = None
        except Exception as exc:  # a failed step is counted, the pass goes on
            report, code, error = None, None, f"{type(exc).__name__}: {exc}"
        steps[step.name] = {"seconds": time.perf_counter() - t0,
                            "report": report, "code": code, "error": error}
        refs += [reference_seconds() for _ in range(REF_REPS)]
    return {"traced": tracer is not None, "tracer": tracer, "steps": steps,
            "refs": refs, "wall_s": sum(s["seconds"] for s in steps.values())}


def run_passes(workload, seed: int, seconds: float, trace: bool):
    """Passes until another would overrun ``seconds``.  When tracing, one
    untraced pass is followed by two traced ones, and a run holds at least
    those three, so that traced counts are always compared across passes.

    Set-up probes run before the first pass and after every pass, so that
    set-up times sample the whole run as the passes do.  Returns the passes
    and the set-up times.
    """
    from layers import Tracer

    kinds = (False, True, True) if trace else (False,)
    passes, t0 = [], time.perf_counter()
    setup = measure_setup(SETUP_PROBES_FIRST)
    while True:
        traced = kinds[len(passes) % len(kinds)]
        if traced:
            with Tracer() as tracer:
                passes.append(run_pass(workload, seed, tracer))
        else:
            passes.append(run_pass(workload, seed, None))
        setup += measure_setup(SETUP_PROBES_PER_PASS)
        longest = max(p["wall_s"] for p in passes)
        if (len(passes) >= len(kinds)
                and time.perf_counter() - t0 + longest > seconds):
            return passes, setup


def step_failures(passes: list[dict], may_fail: dict | None = None
                  ) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every step of every pass.

    may_fail maps a step name to the checks it may fail without the step
    counting as failed.  Any other failed check fails its step.
    """
    may_fail = may_fail or {}
    attempted, failed, reasons = 0, 0, []
    first = {}
    for n, p in enumerate(passes):
        for name, s in p["steps"].items():
            attempted += 1
            why = s["error"]
            if why is None:
                report = s["report"]
                failed_checks = [c["name"] for c in report["checks"] if not c["pass"]]
                unexpected = [c for c in failed_checks
                              if c not in may_fail.get(name, ())]
                if s["code"] != (1 if failed_checks else 0):
                    why = f"exit code {s['code']} with {len(failed_checks)} failed checks"
                elif unexpected:
                    why = f"checks failed that must pass: {unexpected}"
                elif report["summary"]["total"] != len(report["checks"]):
                    why = "summary total disagrees with the checks table"
                elif first.setdefault(name, canonical(report)) != canonical(report):
                    kind = "traced" if p["traced"] else "untraced"
                    why = f"report differs from the first pass (pass {n}, {kind})"
            if why is not None:
                failed += 1
                reasons.append(f"{name}: {why}")
    return attempted, failed, reasons


def check_outcomes(p: dict) -> tuple[int, list[str]]:
    """(checks run, names of failed checks) in one pass."""
    run, failed = 0, []
    for name, s in p["steps"].items():
        if s["report"] is not None:
            run += len(s["report"]["checks"])
            failed += [f"{name}/{c['name']}" for c in s["report"]["checks"]
                       if not c["pass"]]
    return run, failed


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def wall_s(passes) -> float:
    """Median wall time of one pass, in seconds."""
    return statistics.median(p["wall_s"] for p in passes)


def host_ref_s(passes) -> float:
    """Median time of the reference kernel over the run, in seconds."""
    return statistics.median(r for p in passes for r in p["refs"])


def setup_s(passes, setup_times) -> float:
    """Median set-up time, in seconds at the nominal host speed: scaled by
    REF_NOMINAL_S over the reference kernel's median in the same run."""
    return statistics.median(setup_times) * REF_NOMINAL_S / host_ref_s(passes)


def end_to_end(passes, setup_times) -> dict:
    checks_run, checks_failed = check_outcomes(passes[0])
    return {
        "wall_norm": metric(wall_s(passes) / host_ref_s(passes), "ref"),
        "setup_s": metric(setup_s(passes, setup_times), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "check_pass_ratio": metric(
            (checks_run - len(checks_failed)) / checks_run if checks_run else 0.0,
            "ratio"),
    }


def per_layer(passes) -> tuple[dict, bool]:
    """Per-layer metrics and whether the traced counts repeated exactly."""
    from layers import LAYERS, LayerStats
    from workloads import STEP_NAMES

    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    counts = [p["tracer"].counts() for p in traced]
    repeat = all(c == counts[0] for c in counts)

    def self_s(layer):
        empty = LayerStats()
        return statistics.median(p["tracer"].stats.get(layer, empty).self_s
                                 for p in traced)

    out = {}
    for layer in LAYERS:
        for key in layer.counters:
            out[f"{layer.name}.{key}"] = metric(
                counts[0].get(f"{layer.name}.{key}", 0), "count")
        out[f"{layer.name}.self_s"] = metric(self_s(layer.name), "s")
    out["cli.self_s"] = metric(self_s("cli"), "s")
    for name in STEP_NAMES:
        key = ("busemann.ratio_estimate_s" if name == "ratio-estimate"
               else f"cli.{name}_s")
        out[key] = metric(statistics.median(
            p["steps"][name]["seconds"] if name in p["steps"] else 0.0
            for p in plain), "s")
    out["trace.overhead_s"] = metric(wall_s(traced) - wall_s(plain), "s")
    return out, repeat


def write_spans(passes, workload: str, seed: int) -> Path:
    tracer = next(p["tracer"] for p in passes if p["traced"])
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({
        "spans": [vars(s) for s in tracer.spans],
        "layers": {name: {"counts": st.counts, "total_s": st.total_s,
                          "self_s": st.self_s}
                   for name, st in sorted(tracer.stats.items())},
    }, indent=1) + "\n")
    return path


def provenance(workload, seed: int) -> dict:
    import numpy

    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": version("click"),
        "nproc": os.cpu_count(),
        "seed": seed,
        "env": {v: os.environ[v] for v in THREAD_VARS},
        "busemann_lab_threads": os.environ.get("BUSEMANN_LAB_THREADS"),
        "workload": workload.name,
        "config": [s.config() for s in workload.steps],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    passes, setup_times = run_passes(workload, seed, seconds, trace)
    attempted, failed, reasons = step_failures(
        passes, {s.name: s.may_fail for s in workload.steps})
    checks_run, checks_failed = check_outcomes(passes[0])
    correct = failed == 0
    if trace:
        metrics, repeat = per_layer(passes)
        if not repeat:
            correct = False
            reasons.append("traced layer counts differ between passes")
        spans = str(write_spans(passes, name, seed).relative_to(ROOT))
    else:
        metrics, spans = end_to_end(passes, setup_times), None
    detail = {
        "provenance": provenance(workload, seed),
        "wall_s": wall_s(passes),
        "host_ref_s": host_ref_s(passes),
        "setup_probes_s": setup_times,
        "setup_raw_s": statistics.median(setup_times),
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"],
                    "steps_s": {k: s["seconds"] for k, s in p["steps"].items()}}
                   for p in passes],
        "checks_run": checks_run,
        "checks_failed": checks_failed,
        "check_fail_ratio": len(checks_failed) / checks_run if checks_run else None,
        "step_failures": reasons,
        "spans": spans,
    }
    print(json.dumps({"perfbench": detail}))
    for key, m in metrics.items():
        print(f"{name:>20} {key:<44} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(f"{name:>20} {'check_fail_ratio':<44} "
          f"{len(checks_failed)}/{checks_run} {checks_failed}", file=sys.stderr)
    for reason in reasons:
        print(f"perfbench: {reason}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; one table and one combined line."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        detail, result = json.loads(lines[-2])["perfbench"], json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
        rows.append((name, result["metrics"], detail))
    if not trace:
        print(f"{'workload':<20} {'wall_s':>8} {'wall_norm':>10} {'setup_s':>8} "
              f"{'peak_rss_mb':>12} {'check_fail_ratio':>17} passes")
        for name, m, d in rows:
            ratio = f"{len(d['checks_failed'])}/{d['checks_run']}"
            print(f"{name:<20} {d['wall_s']:>8.3f} {m['wall_norm']['value']:>10.1f} "
                  f"{m['setup_s']['value']:>8.3f} {m['peak_rss_mb']['value']:>12.1f} "
                  f"{ratio:>17} {len(d['passes'])}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _pin_environment()
    _import_package()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
