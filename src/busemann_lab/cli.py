"""Command-line front end: named experiments with seeded reproducibility.

Each experiment runs a set of deterministic or statistical checks and
writes a machine-readable report (JSON or CSV).  Exit code 0 means all
checks passed, 1 means a numerical check failed, 2 means the
configuration was invalid.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass

import click
import numpy as np

from . import busemann as bu
from . import cif as cifmod
from . import grsk
from . import igamma_process as ig
from . import lattice as lat
from . import seqmaps as sm
from .bruteforce import brute_force_log_partition, brute_force_ratio_array
from .special_functions import (Rng, _libm, digamma, reg_inc_beta,
                                reg_inc_gamma, sample_inverse_gamma, sample_poisson)
from .stats import ks_one_sample, ks_two_sample, pearson, poisson_dispersion

P_THRESHOLD = 0.001


def _check(name: str, ref: str, value: float, threshold: float, ok: bool) -> dict:
    return {
        "name": name,
        "paper_ref": ref,
        "value": float(value),
        "threshold": float(threshold),
        "pass": bool(ok),
    }


def _below(name: str, ref: str, value: float, threshold: float) -> dict:
    return _check(name, ref, value, threshold, value < threshold)


def _pvalue(name: str, ref: str, p: float) -> dict:
    return _check(name, ref, p, P_THRESHOLD, p > P_THRESHOLD)


def _finish(config: dict, checks: list[dict], output: str, fmt: str, t0: float):
    summary = {
        "total": len(checks),
        "passed": sum(1 for c in checks if c["pass"]),
        "failed": sum(1 for c in checks if not c["pass"]),
        "wall_time_s": round(time.time() - t0, 3),
    }
    report = {"config": config, "checks": checks, "summary": summary}
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf, fieldnames=["name", "paper_ref", "value", "threshold", "pass"]
        )
        writer.writeheader()
        for c in checks:
            writer.writerow(c)
        text = buf.getvalue()
    if output == "-":
        click.echo(text, nl=False)
    else:
        with open(output, "w") as fh:
            fh.write(text)
    for c in checks:
        status = "pass" if c["pass"] else "FAIL"
        click.echo(f"{status}  {c['name']}: {c['value']:.6g}", err=True)
    if summary["failed"]:
        sys.exit(1)


def _ig_window(rng: Rng, shape: float, window: int) -> sm.LogSeqWindow:
    """Logs of window + 1 inverse-gamma(shape) draws from rng on [0, window]."""
    vals = np.log(sample_inverse_gamma(rng, shape, size=window + 1))
    return sm.LogSeqWindow(0, window, vals, cesaro_hint=-digamma(shape))


def _ig_windows(rhos, alpha, window, seed) -> sm.SeqTuple:
    lams = sorted((alpha - r for r in rhos), reverse=True)
    if lams[-1] <= 0 or lams[0] >= alpha or len(set(lams)) != len(lams):
        raise click.UsageError("rhos must be distinct and inside (0, alpha)")
    rng = Rng(master_seed=seed)
    wins = [_ig_window(rng.spawn(i + 1), lam, window) for i, lam in enumerate(lams)]
    return sm.SeqTuple(tuple(wins))


def _daop_reach(tup: sm.SeqTuple) -> int:
    """Burn-ins that daop spends from tup's left end.

    Component k iterates the update over inputs j < k, and every output
    keeps input k's Cesaro hint, so the burn-ins follow from the hints.
    """
    wins = tup.windows
    return max(sum(sm.default_burn_in(w, wins[k]) for w in wins[:k])
               for k in range(len(wins)))


def run_check_intertwine(n, alpha, rhos, window, margin, seed) -> list[dict]:
    if len(rhos) != n:
        raise click.UsageError(f"need {n} rhos, got {len(rhos)}")
    tup = _ig_windows(rhos, alpha, window, seed)
    weight = _ig_window(Rng(master_seed=seed).spawn(0), alpha, window)
    # The sequential step updates every input with a weight of W's hint,
    # each from the last one's valid start; the parallel side spends less.
    seq_reach = sum(sm.default_burn_in(weight, w) for w in tup.windows)
    minimum = max(seq_reach + _daop_reach(tup), margin) + 1
    if window < minimum:
        raise _window_below(minimum, window)
    lhs = sm.parallel_step(weight, sm.daop(tup))
    rhs = sm.daop(sm.sequential_step(weight, tup))
    lo = max(lhs.lo, rhs.lo, margin)
    gap = max(
        float(np.max(np.abs(
            a.restrict(lo, window).values - b.restrict(lo, window).values
        )))
        for a, b in zip(lhs.windows, rhs.windows)
    )
    return [_below(
        "intertwine-max-gap", "parallel-sequential-intertwining", gap, 1e-10
    )]


def run_check_inverse(n, alpha, rhos, window, seed) -> list[dict]:
    if len(rhos) != n:
        raise click.UsageError(f"need {n} rhos, got {len(rhos)}")
    tup = _ig_windows(rhos, alpha, window, seed)
    weight = _ig_window(Rng(master_seed=seed).spawn(0), alpha, window)
    # One update of the first input; daop, then one index per inverse level.
    minimum = max(sm.default_burn_in(weight, tup.windows[0]) + 1,
                  _daop_reach(tup) + max(n - 1, 1))
    if window < minimum:
        raise _window_below(minimum, window)
    checks = []
    out = sm.update(weight, tup.windows[0])
    inv = sm.inverse_h(weight.restrict(out.valid_lo, window), out.i_tilde)
    ref = tup.windows[0].restrict(inv.lo, inv.hi)
    checks.append(_below(
        "single-inverse-max-gap", "update-map-inverse",
        float(np.max(np.abs(inv.values - ref.values))), 1e-10,
    ))
    d_gap = float(np.min(out.i_tilde.values
                         - weight.restrict(out.valid_lo, window).values))
    checks.append(_check(
        "d-dominates-weight", "update-output-strictly-above-weight",
        d_gap, 0.0, d_gap > 0.0,
    ))
    da = sm.daop(tup)
    ha = sm.haop(da)
    err = max(
        float(np.max(np.abs(
            ha.windows[i].values
            - tup.windows[i].restrict(ha.lo, ha.hi).values
        )))
        for i in range(n)
    )
    checks.append(_below(
        "tuple-inverse-max-gap", "iterated-map-inverse", err, 1e-10
    ))
    return checks


def _window_below(minimum: int, window: int) -> click.BadParameter:
    """The error for a --window that a burn-in margin exhausts."""
    return click.BadParameter(
        f"{window} is not in the range x>={minimum}.", param_hint="'--window'"
    )


def _triangular_reach(tup: sm.SeqTuple) -> int:
    """Burn-ins that build_triangular spends from tup's left end.

    Cell (i, j) updates X^{i,j-1} with V^{i-1,j-1}, whose Cesaro hints are
    those of inputs i and j - 1, so the burn-ins follow from the hints.
    """
    wins, v_lo, x_lo = tup.windows, [0], 0
    for i in range(2, len(wins) + 1):
        row, x_lo = [], 0
        for j in range(2, i + 1):
            x_lo = max(v_lo[j - 2], x_lo) + sm.default_burn_in(wins[j - 2], wins[i - 1])
            row.append(x_lo)
        v_lo = row + [x_lo]
    return x_lo


def run_grsk_verify(alpha, window, seed) -> list[dict]:
    checks = []
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in (3, 4):
        weights = 1.0 / rng.gamma(alpha, size=(n + 3, n))
        arr = brute_force_ratio_array(weights, n)
        for m in range(n + 1, n + 4):
            arr = grsk.array_insert(arr, grsk.Word(1, np.log(weights[m - 1])))
            for k in range(1, n + 1):
                worst = max(worst, abs(
                    arr.cell(k, 1) - brute_force_log_partition(weights, m, k)
                ))
    checks.append(_below(
        "partition-identity-max-gap", "insertion-array-partition-function",
        worst, 1e-10,
    ))
    n = 3
    arr = brute_force_ratio_array(np.ones((n, n)), n)
    count_err = 0.0
    for m in range(n + 1, n + 6):
        arr = grsk.array_insert(arr, grsk.Word(1, np.zeros(n)))
        for k in range(1, n + 1):
            count_err = max(count_err, abs(
                math.exp(arr.cell(k, 1)) - math.comb(m + k - 2, k - 1)
            ))
    checks.append(_below(
        "all-ones-path-counts", "insertion-counts-lattice-paths",
        count_err, 1e-9,
    ))
    # Unit shape gaps keep the iterated maps well conditioned.
    tup = _ig_windows([0.5, 1.5, 2.5], alpha + 1.5, window, seed)
    try:
        tri = grsk.build_triangular(tup)
    except ValueError as exc:
        if "window exhausted" not in str(exc):
            raise
        raise _window_below(_triangular_reach(tup) + 1, window) from exc
    da = sm.daop(tup)
    lo = max(tri.x_cells[1, 1].lo, da.lo)
    diag_err = max(
        float(np.max(np.abs(
            tri.x_cells[i, i].restrict(lo, window).values
            - da.windows[i - 1].restrict(lo, window).values
        )))
        for i in range(1, 4)
    )
    checks.append(_below(
        "array-diagonal-vs-iterated-map", "triangular-array-diagonal", diag_err, 1e-10
    ))
    return checks


def _positive_cdf(f):
    """Array CDF of a law on (0, inf): 0 where v <= 0, f(v) elsewhere."""
    def cdf(v: np.ndarray) -> np.ndarray:
        out = np.zeros(v.shape)
        pos = v > 0.0
        out[pos] = f(v[pos])
        return out

    return cdf


def _invgamma_cdf(shape: float):
    return _positive_cdf(lambda v: 1.0 - reg_inc_gamma(shape, 1.0 / v))


def _beta_cdf(a: float, b: float):
    return lambda v: reg_inc_beta(a, b, np.clip(v, 0.0, 1.0))


def run_stationary_cocycle(alpha, rho, window, levels, seed) -> list[dict]:
    if not (0.0 < rho < alpha):
        raise click.UsageError("need 0 < rho < alpha")
    # The bulk starts at the burn-in margin; its vertical KS test reads
    # every 16th bulk site, as parallel-chain's does.
    minimum = bu._margin(alpha, rho) + KS_WINDOW.min
    if window < minimum:
        raise _window_below(minimum, window)
    field = lat.WeightField(alpha, seed)
    rng = Rng(master_seed=seed, stream_id=1)
    grid = bu.stationary_cocycle(
        field, lat.RhoParam(rho, alpha), (0, window, levels), rng
    )
    i_blk, j_blk, w_blk = grid.bulk()
    rec = float(np.max(np.abs(
        np.exp(-i_blk) + np.exp(-j_blk) - np.exp(-w_blk)
    )))
    c = grid.bulk_k_lo - grid.k_lo
    add = 0.0
    for t in range(1, grid.t_max + 1):
        lhs = grid.j_vals[t, c + 1:] + grid.i_vals[t - 1, c + 1:]
        rhs = grid.i_vals[t, c + 1:] + grid.j_vals[t, c:-1]
        add = max(add, float(np.max(np.abs(lhs - rhs))))
    checks = [
        _below("recovery-residual", "cocycle-recovery", rec, 1e-12),
        _below("additivity-residual", "cocycle-additivity", add, 1e-12),
    ]
    cdf_i = _invgamma_cdf(alpha - rho)
    top = ks_one_sample(np.exp(grid.i_vals[grid.t_max, c:]), cdf_i)
    checks.append(_pvalue(
        "top-row-marginal-ks", "stationary-horizontal-law", top.p_value
    ))
    j_sp = np.exp(grid.j_vals[grid.t_max, c::16])
    jks = ks_one_sample(j_sp, _invgamma_cdf(rho))
    checks.append(_pvalue(
        "vertical-marginal-ks", "stationary-vertical-law", jks.p_value
    ))
    return checks


def run_parallel_chain(alpha, rhos, window, seed) -> list[dict]:
    if len(rhos) < 2:
        raise click.UsageError("need at least two rhos")
    if any(b >= a for a, b in zip(rhos, rhos[1:])):
        raise click.UsageError("rhos must be strictly decreasing")
    field = lat.WeightField(alpha, seed)
    rng = Rng(master_seed=seed, stream_id=1)
    grids = bu.parallel_chain(
        field, [lat.RhoParam(r, alpha) for r in rhos], (0, window, 1), rng
    )
    c = grids[0].bulk_k_lo - grids[0].k_lo
    order_gap = min(
        float(np.min(hi.i_vals[:, c:] - lo.i_vals[:, c:]))
        for hi, lo in zip(grids, grids[1:])
    )
    checks = [_check(
        "monotone-ordering", "coupled-direction-monotonicity",
        order_gap, 0.0, order_gap >= 0.0,
    )]
    g_small = grids[-1]
    ratio = np.exp(g_small.w_vals[1, c::16] - g_small.i_vals[1, c::16])
    rho2 = rhos[-1]
    r = ks_one_sample(ratio, _beta_cdf(alpha - rho2, rho2))
    checks.append(_pvalue(
        "weight-ratio-beta-ks", "two-direction-joint-law", r.p_value
    ))
    g_hi, g_lo = grids[0], grids[-1]
    d_hi = g_hi.i_vals[1, c::16] - g_lo.i_vals[1, c::16]
    d_lo = g_lo.i_vals[1, c::16] - g_lo.w_vals[1, c::16]
    corr = pearson(d_hi, d_lo)
    bound = 3.0 / math.sqrt(d_hi.shape[0])
    checks.append(_check(
        "increment-independence", "independent-direction-increments",
        abs(corr), bound, abs(corr) < bound,
    ))
    return checks


def run_ppp_busemann(alpha, lam, rho, samples, seed) -> list[dict]:
    if not (0.0 < lam < rho < alpha):
        raise click.UsageError("need 0 < lambda < rho < alpha")
    rng = Rng(master_seed=seed)
    inc = ig.batch_increment_sums(alpha, [lam, rho], samples, rng.spawn(1))
    checks = []
    r = ks_one_sample(np.exp(-inc[:, 1]), _beta_cdf(alpha - rho, rho - lam))
    checks.append(_pvalue("increment-beta-ks", "busemann-profile-increments", r.p_value))
    mres = ig.marginal_check(alpha, rho, samples, rng.spawn(2))
    checks.append(_pvalue("marginal-ks", "busemann-edge-marginal", mres.p_value))
    corr = pearson(inc[:, 0], inc[:, 1])
    bound = 3.0 / math.sqrt(samples)
    checks.append(_check(
        "adjacent-increment-independence", "profile-independent-increments",
        abs(corr), bound, abs(corr) < bound,
    ))
    m = min(20000, samples)
    field = lat.WeightField(alpha, seed + 1)
    grids = bu.parallel_chain(
        field,
        [lat.RhoParam(rho, alpha), lat.RhoParam(lam, alpha)],
        (0, 16 * m, 1),
        Rng(master_seed=seed, stream_id=3),
    )
    c = grids[0].bulk_k_lo - grids[0].k_lo
    lattice_inc = grids[0].i_vals[1, c::16] - grids[1].i_vals[1, c::16]
    r2 = ks_two_sample(inc[:, 1], lattice_inc)
    checks.append(_pvalue(
        "cross-sampler-ks", "edge-law-equals-jump-process", r2.p_value
    ))
    return checks


def run_jump_count(alpha, delta, s_lo, s_hi, samples, seed) -> list[dict]:
    if delta <= 0:
        raise click.UsageError("delta must be positive")
    rng = Rng(master_seed=seed)
    counts = ig.batch_jump_counts(alpha, delta, (s_lo, s_hi), samples, rng)
    mu = ig.expected_jump_count(alpha, delta, (s_lo, s_hi))
    dev = abs(float(counts.mean()) - mu)
    sig3 = 3.0 * float(counts.std()) / math.sqrt(samples)
    checks = [
        _check("mean-count-vs-quadrature", "jump-intensity-measure",
               dev, sig3, dev < sig3),
        _pvalue("poisson-dispersion", "jump-process-poisson-law",
                poisson_dispersion(counts, mu)),
    ]
    return checks


def run_zero_temp(rho, samples, seed) -> list[dict]:
    if not (0.0 < rho < 1.0):
        raise click.UsageError("need 0 < rho < 1")
    rng = Rng(master_seed=seed)
    inc = ig.batch_increment_sums(
        1.0, [rho], samples, rng.spawn(1), thinning=ig.zero_temp_keep_prob
    )[:, 0]
    z0 = -np.log1p(-rng.spawn(2).uniforms(samples)) + inc
    rate = 1.0 - rho
    r = ks_one_sample(z0, _positive_cdf(lambda v: -_libm(np.expm1, -rate * v)))
    checks = [_pvalue(
        "zero-temp-marginal-ks", "exponential-limit-marginal", r.p_value
    )]
    alphas = (0.5, 0.2, 0.1)
    n_rep = min(samples, 400)
    sums = {a: 0.0 for a in alphas}
    for samp in ig.sample_ppp_replicas(1.0, rho, n_rep, rng.spawn(3)):
        for a in alphas:
            _, za, zz = ig.zero_temp_couple(samp, a)
            sums[a] += float(np.max(za - zz))
    means = [sums[a] / n_rep for a in alphas]
    mono = all(x > y for x, y in zip(means, means[1:])) and means[-1] >= 0.0
    checks.append(_check(
        "coupling-gap-monotone", "zero-temperature-coupling-gap",
        means[0] - means[-1], 0.0, mono,
    ))
    worst = 0.0
    for a in (1.0, 0.5, 0.1, 0.01):
        bound = (math.pi ** 2 / 3.0) * a * a
        worst = max(worst, ig.reparam_bound(a) / bound)
    checks.append(_check(
        "reparametrization-bound", "direction-reparametrization-gap",
        worst, 1.0, worst <= 1.0,
    ))
    return checks


def run_cif_eta(alpha, rho, replicas, seed) -> list[dict]:
    p, se = cifmod.eta_cdf_estimate(
        alpha, rho, replicas, Rng(master_seed=seed, stream_id=1)
    )
    dev = abs(p - (alpha - rho) / alpha)
    return [_check(
        "separating-direction-cdf", "interface-direction-law",
        dev, 3.0 * se, dev < 3.0 * se,
    )]


def run_cif_xi(alpha, rho, replicas, seed) -> list[dict]:
    est, se_x = cifmod.xi_star_cdf_check(
        alpha, rho, replicas, Rng(master_seed=seed, stream_id=1)
    )
    dev = abs(est - (alpha - rho) / alpha)
    checks = [_check(
        "finite-interface-cdf", "finite-volume-interface-law",
        dev, 3.0 * se_x, dev < 3.0 * se_x,
    )]
    p, se_h = cifmod.eta_cdf_estimate(
        alpha, rho, replicas, Rng(master_seed=seed + 1, stream_id=1)
    )
    gap = abs(est - p)
    sig = 3.0 * math.hypot(se_x, se_h)
    checks.append(_check(
        "interface-law-agreement", "finite-and-semi-infinite-interface-laws",
        gap, sig, gap < sig,
    ))
    return checks


def run_she_check(alpha, rho, size, seed) -> list[dict]:
    if not (0.0 < rho < alpha):
        raise click.UsageError("need 0 < rho < alpha")
    field = lat.WeightField(alpha, seed)
    rng = Rng(master_seed=seed, stream_id=1)
    margin = bu._margin(alpha, rho)
    grid = bu.stationary_cocycle(
        field, lat.RhoParam(rho, alpha), (0, margin + size, size), rng
    )
    base = (grid.bulk_k_lo + size // 2, size // 2)
    es = bu.eternal_from_cocycle(grid, base)
    c = grid.bulk_k_lo - grid.k_lo
    lz = es.log_z
    worst = 0.0
    for r in range(1, lz.shape[0]):
        resid = np.abs(lz[r, 1:] - (
            np.logaddexp(lz[r, :-1], lz[r - 1, 1:])
            + grid.w_vals[es.t0 + r, c + 1:]
        ))
        worst = max(worst, float(np.max(resid)))
    checks = [_below(
        "heat-recursion-residual", "eternal-solution-recursion", worst, 1e-12
    )]
    i_blk, j_blk, w_blk = grid.bulk()
    psum = np.exp(w_blk - i_blk) + np.exp(w_blk - j_blk)
    perr = float(np.max(np.abs(psum - 1.0)))
    checks.append(_below(
        "backward-probability-normalization", "backward-walk-kernel", perr, 1e-12
    ))
    return checks


def run_calibrate_stats(trials, samples, seed) -> list[dict]:
    rng = Rng(master_seed=seed)
    checks = []
    u = rng.spawn(1).uniforms(trials * samples).reshape(trials, samples)
    p_one = np.array([
        ks_one_sample(u[t], lambda v: np.clip(v, 0.0, 1.0)).p_value
        for t in range(trials)
    ])
    a = rng.spawn(2).uniforms(trials * samples).reshape(trials, samples)
    b = rng.spawn(3).uniforms(trials * samples).reshape(trials, samples)
    p_two = np.array([
        ks_two_sample(a[t], b[t]).p_value for t in range(trials)
    ])
    for name, pvals in (("one-sample-ks", p_one), ("two-sample-ks", p_two)):
        for level in (0.05, 0.01):
            rate = float(np.mean(pvals < level))
            ok = rate <= 3.0 * level
            checks.append(_check(
                f"{name}-fpr-at-{level}", "test-calibration", rate,
                3.0 * level, ok,
            ))
    corr = np.array([
        pearson(a[t], b[t]) for t in range(trials)
    ])
    rate = float(np.mean(np.abs(corr) > 3.0 / math.sqrt(samples)))
    checks.append(_check(
        "pearson-3sigma-fpr", "test-calibration", rate, 3 * 0.0027,
        rate <= 3 * 0.0027,
    ))
    mu = 5.0
    counts = sample_poisson(rng.spawn(4), mu, size=trials * 50).reshape(trials, 50)
    p_disp = np.array([
        poisson_dispersion(counts[t], mu) for t in range(trials)
    ])
    for level in (0.05, 0.01):
        rate = float(np.mean(p_disp < level))
        checks.append(_check(
            f"dispersion-fpr-at-{level}", "test-calibration", rate,
            3.0 * level, rate <= 3.0 * level,
        ))
    return checks


def _parse_rhos(ctx, param, raw: str) -> list[float]:
    try:
        vals = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise click.UsageError(f"cannot parse rho list {raw!r}")
    if not vals:
        raise click.UsageError("empty rho list")
    return vals


def _opt(flag: str, default, dest: str | None = None, **kw) -> click.Option:
    """An option shown with its default; its type is the default's type."""
    kw.setdefault("type", type(default))
    decls = [flag] if dest is None else [flag, dest]
    return click.Option(decls, default=default, show_default=True, **kw)


def _rhos(default: str, **kw) -> click.Option:
    return _opt("--rho", default, "rhos", callback=_parse_rhos, **kw)


COUNT = click.IntRange(min=1)
# jump-count's dispersion test needs 2 counts, she-check a base inside its
# grid (size // 2 >= 1) and a KS test 20 samples; parallel-chain's KS test
# reads every 16th of its window + 1 bulk sites.
COUNT2 = click.IntRange(min=2)
KS_COUNT = click.IntRange(min=20)
KS_WINDOW = click.IntRange(min=16 * (20 - 1))
ALPHA = _opt("--alpha", 2.0)
RHO = _opt("--rho", 1.0)
N = _opt("--n", 3, type=COUNT)
SAMPLES = _opt("--samples", 10000, type=KS_COUNT)
REPLICAS = _opt("--replicas", 10000, type=COUNT)
COMMON = (
    _opt("--format", "json", "fmt", type=click.Choice(["json", "csv"])),
    _opt("--output", "-", help="Report path, '-' for stdout."),
    _opt("--seed", 7),
)


@dataclass(frozen=True)
class Experiment:
    """One command: its options and the name of the run_* function it calls.

    The click parameters, seed included, are passed to the run function
    by name and, under their report names, make up the report's config.
    """

    name: str
    run: str
    help: str
    options: tuple[click.Option, ...]


EXPERIMENTS = (
    Experiment("check-intertwine", "run_check_intertwine",
               "Parallel and sequential one-step maps agree through the tuple map.",
               (N, ALPHA, _rhos("0.5,1.0,1.5"), _opt("--window", 4000),
                _opt("--burn-in", 600, "margin", help="Left comparison margin."))),
    Experiment("check-inverse", "run_check_inverse",
               "Inverse maps undo the update and tuple maps.",
               (N, ALPHA, _rhos("0.5,1.0,1.5"), _opt("--window", 4000))),
    Experiment("grsk-verify", "run_grsk_verify",
               "Row insertion reproduces partition functions and the tuple map.",
               (ALPHA, _opt("--window", 3000))),
    Experiment("stationary-cocycle", "run_stationary_cocycle",
               "Exact cocycle identities and stationary marginals on a grid.",
               (ALPHA, RHO, _opt("--window", 20000),
                _opt("--levels", 3, type=COUNT))),
    Experiment("parallel-chain", "run_parallel_chain",
               "Coupled multi-direction stationary chain and its joint laws.",
               (ALPHA, _rhos("1.2,0.4", help="Strictly decreasing list."),
                _opt("--window", 50000, type=KS_WINDOW))),
    Experiment("ppp-busemann", "run_ppp_busemann",
               "Jump-process sampler reproduces the Busemann edge laws.",
               (ALPHA, _opt("--lam", 0.4), _opt("--rho", 1.2),
                _opt("--samples", 100000, type=KS_COUNT))),
    Experiment("jump-count", "run_jump_count",
               "Counts of large jumps match the intensity quadrature.",
               (ALPHA, _opt("--delta", 1.0), _opt("--s-lo", 0.0),
                _opt("--s-hi", 1.0), _opt("--samples", 10000, type=COUNT2))),
    Experiment("zero-temp", "run_zero_temp",
               "Zero-temperature thinning coupling and its reparametrization bound.",
               (_opt("--rho", 0.5), SAMPLES)),
    Experiment("cif-eta", "run_cif_eta",
               "Annealed law of the semi-infinite separating direction.",
               (ALPHA, RHO, REPLICAS)),
    Experiment("cif-xi", "run_cif_xi",
               "Annealed law of the finite-volume separating direction.",
               (ALPHA, RHO, REPLICAS)),
    Experiment("she-check", "run_she_check",
               "Eternal solutions solve the discrete heat recursion exactly.",
               (ALPHA, RHO, _opt("--size", 200, type=COUNT2))),
    Experiment("calibrate-stats", "run_calibrate_stats",
               "False-positive rates of the statistical tests at fixed seeds.",
               (_opt("--trials", 1000, type=COUNT), SAMPLES)),
)

# Report config keys that differ from the click parameter names.
_CONFIG_KEYS = {"rhos": "rho", "margin": "burn_in", "lam": "lambda"}


def _config(name: str, params: dict) -> dict:
    config = {"experiment": name}
    for key, value in params.items():
        config[_CONFIG_KEYS.get(key, key)] = value
    if "s_lo" in config:
        config["s_interval"] = [config.pop("s_lo"), config.pop("s_hi")]
    return config


def _command(exp: Experiment) -> click.Command:
    def callback(output, fmt, **params):
        t0 = time.time()
        try:
            # Looked up at call time, so a replaced run_* function is used.
            checks = globals()[exp.run](**params)
        except ValueError as exc:
            # Invalid parameter combinations surface as configuration errors.
            raise click.UsageError(str(exc))
        _finish(_config(exp.name, params), checks, output, fmt, t0)

    return click.Command(exp.name, callback=callback,
                         params=[*exp.options, *COMMON], help=exp.help)


class _Group(click.Group):
    """A group whose configuration errors exit 2 in-process as well.

    In standalone mode click prints a usage error and exits 2; with
    ``standalone_mode=False`` it re-raises the error instead, so an
    in-process caller could not tell it from a crash.  Here both modes
    print the same message and raise SystemExit with the error's code.
    """

    def main(self, *args, **kwargs):
        try:
            return super().main(*args, **kwargs)
        except click.ClickException as exc:
            exc.show()
            sys.exit(exc.exit_code)


@click.group(cls=_Group)
def main():
    """Experiments for the inverse-gamma polymer's Busemann process."""


for _exp in EXPERIMENTS:
    main.add_command(_command(_exp))


if __name__ == "__main__":
    main()
