"""The benchmark's workloads: ordered steps through the busemann-lab commands.

Every step returns the report the experiment wrote (JSON, with its
``checks`` table) and the exit code it ended with.  The workloads are
chosen so that each optimisation on the roadmap does most of its work in
one workload and little in another; the layers they share run at very
different batch sizes (long rows in ``lattice-rows``, thousands of tiny
calls in ``replicas``, few large calls in ``distribution-tests``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from busemann_lab import busemann as bu
from busemann_lab import cli
from busemann_lab import lattice as lat
from busemann_lab import special_functions as sf

# Deep-ratio estimates: the law of large numbers of
# tests/test_busemann.py::TestRatioEstimate::test_lln, with a 3-sigma band
# and field streams taken from the workload seed.
RATIO_ALPHA = 2.0
RATIO_RHO = 1.0
RATIO_DEPTH = 200
RATIO_FIELDS = 60


@dataclass(frozen=True)
class Step:
    """One step of a workload.

    argv holds the busemann-lab arguments without ``--seed``; a step with
    no argv runs the deep-ratio estimates, which have no command.
    may_fail names the checks the step may fail at some seeds without the
    benchmark run failing: statistical checks (a p-value or a sigma band
    on a Monte Carlo estimate), which fail by chance, and the checks of a
    known defect.  Every other check is a numerical identity or a sure
    inequality; if it fails, the run is not correct.
    """

    name: str
    argv: tuple[str, ...] = ()
    may_fail: frozenset[str] = frozenset()

    @property
    def layer(self) -> str:
        """Layer charged with the step's own time outside wrapped calls."""
        return "cli" if self.argv else "bench"

    def config(self) -> dict:
        may_fail = sorted(self.may_fail)
        if self.argv:
            return {"step": self.name, "command": ["busemann-lab", *self.argv],
                    "may_fail": may_fail}
        return {"step": self.name, "call": "busemann.busemann_ratio_estimate",
                "alpha": RATIO_ALPHA, "rho": RATIO_RHO, "depth": RATIO_DEPTH,
                "fields": RATIO_FIELDS, "may_fail": may_fail}

    def run(self, seed: int) -> tuple[dict, int]:
        if self.argv:
            return run_command([*self.argv, "--seed", str(seed)])
        return ratio_estimates(seed), 0


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[Step, ...]


def run_command(args: list[str]) -> tuple[dict, int]:
    """Run one busemann-lab experiment in-process; return (report, exit code)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=args, prog_name="busemann-lab", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return json.loads(out.getvalue()), code


def ratio_estimates(seed: int) -> dict:
    """Report of one 3-sigma check on the mean of deep Busemann ratios."""
    t0 = time.time()
    d = lat.rho_to_xi(lat.RhoParam(RATIO_RHO, RATIO_ALPHA))
    vals = np.array([
        bu.busemann_ratio_estimate(
            lat.WeightField(RATIO_ALPHA, seed, stream_id=100 + r),
            (0, 0), (1, 0), d, RATIO_DEPTH,
        )
        for r in range(RATIO_FIELDS)
    ])
    target = -sf.digamma(RATIO_ALPHA - RATIO_RHO)
    dev = abs(float(vals.mean()) - target)
    band = 3.0 * float(vals.std()) / math.sqrt(RATIO_FIELDS)
    checks = [{"name": "deep-ratio-mean", "paper_ref": "busemann-ratio-lln",
               "value": dev, "threshold": band, "pass": dev < band}]
    failed = sum(1 for c in checks if not c["pass"])
    return {
        "config": {"experiment": "ratio-estimate", "alpha": RATIO_ALPHA,
                   "rho": RATIO_RHO, "depth": RATIO_DEPTH,
                   "fields": RATIO_FIELDS, "seed": seed},
        "checks": checks,
        "summary": {"total": len(checks), "passed": len(checks) - failed,
                    "failed": failed, "wall_time_s": round(time.time() - t0, 3)},
    }


# Checks that test a Monte Carlo estimate, shared by the steps that run
# the same experiment.
STATIONARY_KS = frozenset({"top-row-marginal-ks", "vertical-marginal-ks"})

WORKLOADS = {w.name: w for w in (
    # Long row recursions; the only workload with the log_partition DP.
    Workload(
        "lattice-rows",
        (
            Step("check-intertwine", ("check-intertwine",)),
            # The ill-conditioned inverse of ROADMAP item 5, a known defect:
            # its tuple gap fails at most seeds, its single gap at about
            # two in five.
            Step("check-inverse", ("check-inverse",),
                 may_fail=frozenset({"tuple-inverse-max-gap",
                                     "single-inverse-max-gap"})),
            Step("grsk-verify", ("grsk-verify",)),
            Step("stationary-cocycle", ("stationary-cocycle",),
                 may_fail=STATIONARY_KS),
            Step("parallel-chain", ("parallel-chain",),
                 may_fail=frozenset({"weight-ratio-beta-ks",
                                     "increment-independence"})),
            Step("she-check", ("she-check",)),
            Step("stationary-cocycle-deep",
                 ("stationary-cocycle", "--window", "6000", "--levels", "400"),
                 may_fail=STATIONARY_KS),
            Step("ratio-estimate", may_fail=frozenset({"deep-ratio-mean"})),
        ),
    ),
    # The same layers in tiny batches: thousands of replicas of width-42
    # rows, small Poisson draws, quadrature rebuilds.  One fifth of the
    # default replica counts, so that a run holds several passes.
    # zero-temp runs 80 of its default 400 sample_ppp replicas; its
    # increment sums and KS test, sized by --samples alone, run on 80 of
    # the default 10,000 samples (1/125).
    Workload(
        "replicas",
        (
            Step("cif-eta", ("cif-eta", "--replicas", "2000"),
                 may_fail=frozenset({"separating-direction-cdf"})),
            Step("cif-xi", ("cif-xi", "--replicas", "2000"),
                 may_fail=frozenset({"finite-interface-cdf",
                                     "interface-law-agreement"})),
            Step("zero-temp", ("zero-temp", "--samples", "80"),
                 may_fail=frozenset({"zero-temp-marginal-ks",
                                     "coupling-gap-monotone"})),
        ),
    ),
    # Per-sample CDF callbacks and scalar special functions; few, large
    # Poisson and point-process calls.  calibrate-stats and jump-count run
    # at one fifth of their default samples; calibrate-stats keeps its
    # 1,000 trials, since with fewer its false-positive-rate checks lose
    # their calibration.  ppp-busemann's parallel_chain row length is
    # min(20000, samples), so --samples 4000 cuts those update_raw rows to
    # one fifth of the default as well (its KS tests run at 1/25); with
    # --samples 20000 the rows keep their full length and update_raw
    # would outweigh the KS callbacks in this workload.  Every check here
    # is statistical.
    Workload(
        "distribution-tests",
        (
            Step("calibrate-stats", ("calibrate-stats", "--samples", "2000"),
                 may_fail=frozenset({
                     "one-sample-ks-fpr-at-0.05", "one-sample-ks-fpr-at-0.01",
                     "two-sample-ks-fpr-at-0.05", "two-sample-ks-fpr-at-0.01",
                     "pearson-3sigma-fpr", "dispersion-fpr-at-0.05",
                     "dispersion-fpr-at-0.01"})),
            Step("ppp-busemann", ("ppp-busemann", "--samples", "4000"),
                 may_fail=frozenset({
                     "increment-beta-ks", "marginal-ks",
                     "adjacent-increment-independence", "cross-sampler-ks"})),
            Step("jump-count", ("jump-count", "--samples", "2000"),
                 may_fail=frozenset({"mean-count-vs-quadrature",
                                     "poisson-dispersion"})),
        ),
    ),
)}

STEP_NAMES = tuple(s.name for w in WORKLOADS.values() for s in w.steps)
