"""The twelve experiments, one run_* function each.

A run function takes its experiment's config by name and returns the
checks.  It checks the whole config, and sizes the run from its burn-ins,
before it draws anything: bad input raises ConfigError, which names the
option at fault.  Any other exception is a defect and propagates.

Every check is a dict with the five report fields, and its pass is
cmp(value, threshold) for one comparison cmp of ``operator``.
"""

from __future__ import annotations

import contextlib
import math
import sys
from operator import ge, gt, le, lt

import numpy as np

from . import busemann as bu
from . import cif as cifmod
from . import grsk
from . import igamma_process as ig
from . import lattice as lat
from . import seqmaps as sm
from .bruteforce import brute_force_ratio_array
from .special_functions import (_CHUNK, POISSON_MEAN_MAX, Rng, _libm, digamma,
                                reg_inc_beta, reg_inc_gamma, sample_inverse_gamma,
                                sample_poisson)
from .stats import ks_one_sample, ks_two_sample, pearson, poisson_dispersion

P_THRESHOLD = 0.001
# A KS test needs 20 samples; a vertical one reads every 16th bulk site.
KS_SAMPLES_MIN = 20
KS_WINDOW_MIN = 16 * (KS_SAMPLES_MIN - 1)
# Hashed uniforms are at least 2^-54, so the boost U^(1/shape) of a gamma
# draw of shape below 1 is at least 2^(-54/shape).  From this shape on it
# stays above 2^-512, half of double's exponent range; the other half
# covers the Ga(shape + 1) factor, so every gamma draw and its reciprocal
# are finite and nonzero.
MIN_SHAPE = 54 / (sys.float_info.max_exp // 2)
# Past this shape alpha - MIN_SHAPE rounds back to alpha, so --rho's range
# (0, alpha - MIN_SHAPE] would admit rho = alpha, a stationary shape of 0.
MAX_SHAPE = 2.0 ** 50
# The most bytes of arrays a run may hold at once.
MEMORY_BUDGET = 2 ** 30


class ConfigError(Exception):
    """Bad input for an experiment, with the option that carries it."""

    def __init__(self, option: str, message: str):
        super().__init__(f"{option}: {message}")
        self.option = option
        self.message = message


def _check(name: str, ref: str, value: float, cmp, threshold: float) -> dict:
    return {
        "name": name,
        "paper_ref": ref,
        "value": float(value),
        "threshold": float(threshold),
        "pass": bool(cmp(value, threshold)),
    }


def _below(name: str, ref: str, value: float, threshold: float) -> dict:
    return _check(name, ref, value, lt, threshold)


def _pvalue(name: str, ref: str, p: float) -> dict:
    return _check(name, ref, p, gt, P_THRESHOLD)


# -- validation ------------------------------------------------------------

def _require(ok: bool, option: str, message: str) -> None:
    if not ok:
        raise ConfigError(option, message)


def _alpha(alpha: float, floor: float = MIN_SHAPE) -> None:
    """alpha is a shape in [floor, MAX_SHAPE]; NaN is not."""
    _require(floor <= alpha <= MAX_SHAPE, "--alpha",
             f"{alpha} is not in the range {floor:.6g}<=x<={MAX_SHAPE:.6g}.")


def _rho(alpha: float, rho: float) -> None:
    """rho leaves the stationary shape alpha - rho at least MIN_SHAPE."""
    _require(0.0 < rho <= alpha - MIN_SHAPE, "--rho",
             f"need 0 < rho <= alpha - {MIN_SHAPE:.6g}, got {rho}")


def _at_least(option: str, value: int, minimum: int) -> None:
    """A count of at least minimum, refused with click's range message."""
    _require(value >= minimum, option, f"{value} is not in the range x>={minimum}.")


def _seed(seed: int) -> None:
    """The keys' root is a 64-bit word: a seed outside [0, 2^64) would
    draw the numbers of the seed it equals modulo 2^64."""
    _require(0 <= seed < 2 ** 64, "--seed", f"{seed} is not in the range 0<=x<={2 ** 64 - 1}.")


def _input_shapes(alpha: float, rhos, n: int | None = None) -> list[float]:
    """The inputs' inverse-gamma shapes alpha - rho, largest first."""
    if n is not None:
        _at_least("--n", n, 1)
    _require(n is None or len(rhos) == n, "--rho", f"need {n} rhos, got {len(rhos)}")
    _alpha(alpha)
    for r in rhos:
        _rho(alpha, r)
    lams = sorted((alpha - r for r in rhos), reverse=True)
    _require(len(set(lams)) == len(lams), "--rho", "rhos must be distinct")
    return lams


@contextlib.contextmanager
def _burn_ins(option: str):
    """Size a run; Cesaro means too close for a finite burn-in name option."""
    try:
        yield
    except sm.CesaroOrderViolated as exc:
        raise ConfigError(option, f"no finite burn-in: {exc}") from None


def _max_abs(x, where=True) -> float:
    """The largest |x| over an array, or a list of numbers, where where
    holds; 0 if there is none, NaN if any is NaN.  An array x is
    overwritten by |x|."""
    x = np.asarray(x)
    return float(np.max(np.abs(x, out=x), initial=0.0, where=where))


def _max_abs_rows(rows) -> float:
    """The largest |x| over an iterable of arrays, NaN if any x is NaN.

    Grid checks pass their residuals row by row, so that no temporary is
    larger than one row.
    """
    return float(np.max([np.max(np.abs(r)) for r in rows], initial=0.0))


# Arrays of _CHUNK elements that the blocked kernels hold at most on top
# of a run's own arrays (7.3 traced): hashing passes, gamma and Poisson
# draws, blocks of weight rows or uniform rows and reparam_bound's grid
# each work on about _CHUNK elements at a time.
_BLOCK_ARRAYS = 10


def _fits(elements: int, option: str) -> None:
    """Refuse a run whose float64 arrays exceed MEMORY_BUDGET: the elements
    it counts for every array it holds at once, and _BLOCK_ARRAYS * _CHUNK
    for the blocked kernels."""
    total = elements + _BLOCK_ARRAYS * _CHUNK
    _require(8 * total <= MEMORY_BUDGET, option,
             f"needs {8 * total / 2 ** 30:.3g} GiB of float64 arrays, over the "
             f"{MEMORY_BUDGET / 2 ** 30:g} GiB budget")


def _windows(n: int, width: int) -> int:
    """Elements that a window run over n inputs of width values holds at
    most, 4n + 8 windows: its inputs and weight, the outputs it keeps, and
    those of the update or inverse then running, with its temporary."""
    return (4 * n + 8) * width


# Rows of its width that a grid run's draws and row-by-row checks hold.
_ROW_ARRAYS = 8


def _grids(arrays: int, rows: int, width: int) -> int:
    """Elements of arrays grids of rows x width values, and of _ROW_ARRAYS
    rows more."""
    return (arrays * rows + _ROW_ARRAYS) * width


def _chain(rhos: int, width: int) -> int:
    """Elements that parallel_chain holds for rhos directions on rows of
    width sites: the joint bottom-row draw, a window run over rhos inputs,
    and the two rows of every direction's I and J grids and of the weights
    they share."""
    return _windows(rhos, width) + _grids(2 * rhos + 1, 2, width)


# A pass of the jump sampler holds at most this many arrays of its counts
# and expected proposals (19.5 traced where proposals outnumber counts); a
# run's arrays of its samples are fewer.
_PASS_ARRAYS = 20


def _jump_sampler(alpha: float, rho_max: float, samples: int, option: str) -> None:
    """The jump sampler's envelope on (0, rho_max] has means it draws
    exactly, and its heaviest pass fits: a pass draws at most
    max(_CHUNK, samples (1 + envelope_peak)) counts and expected proposals."""
    peak = ig.envelope_peak(alpha, rho_max)
    _require(peak <= POISSON_MEAN_MAX, option,
             f"{rho_max} is too close to alpha = {alpha}: the jump sampler's "
             f"envelope needs Poisson means up to {peak:.3g}, over {POISSON_MEAN_MAX:.4g}")
    _fits(_PASS_ARRAYS * max(_CHUNK, math.ceil(samples * (1.0 + peak))), "--samples")


# -- experiments -----------------------------------------------------------


def _ig_windows(lams, window, seed) -> sm.SeqTuple:
    rng = Rng(master_seed=seed)
    return sm.SeqTuple(tuple(sm.ig_window(rng.spawn(i + 1), lam, 0, window)
                             for i, lam in enumerate(lams)))


def _hints(lams) -> list[float]:
    """The Cesaro hints of ig_window draws of these shapes."""
    return [-digamma(lam) for lam in lams]


def _weight(alpha, window, seed) -> sm.LogSeqWindow:
    return sm.ig_window(Rng(master_seed=seed).spawn(0), alpha, 0, window)


def run_check_intertwine(n, alpha, rhos, window, margin, seed) -> list[dict]:
    _seed(seed)
    lams = _input_shapes(alpha, rhos, n)
    hints = _hints(lams)
    with _burn_ins("--rho"):
        # The sequential step updates every input with a weight of W's
        # hint, each from the last one's valid start; the parallel side
        # spends less.
        seq_reach = sum(sm.burn_in(-digamma(alpha), h) for h in hints)
        minimum = max(seq_reach + sm.daop_reach(hints), margin) + 1
    _at_least("--window", window, minimum)
    _fits(_windows(n, window + 1), "--n" if n > window else "--window")
    tup = _ig_windows(lams, window, seed)
    weight = _weight(alpha, window, seed)
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
    _seed(seed)
    lams = _input_shapes(alpha, rhos, n)
    hints = _hints(lams)
    with _burn_ins("--rho"):
        # One update of the first input; daop, then one index per inverse
        # level.
        minimum = max(sm.burn_in(-digamma(alpha), hints[0]) + 1,
                      sm.daop_reach(hints) + max(n - 1, 1))
    _at_least("--window", window, minimum)
    _fits(_windows(n, window + 1), "--n" if n > window else "--window")
    tup = _ig_windows(lams, window, seed)
    weight = _weight(alpha, window, seed)
    checks = []
    d_out = sm.update(weight, tup.windows[0]).i_tilde
    w_out = weight.restrict(d_out.lo, window)
    single = _inverse_gap(lambda: sm.SeqTuple((sm.inverse_h(w_out, d_out),)), tup)
    checks.append(_below(
        "single-inverse-max-gap", "update-map-inverse", single, 1e-10,
    ))
    d_gap = float(np.min(d_out.values - w_out.values))
    checks.append(_check(
        "d-dominates-weight", "update-output-strictly-above-weight",
        d_gap, gt, 0.0,
    ))
    del d_out  # before daop and haop run
    err = _inverse_gap(lambda: sm.haop(sm.daop(tup)), tup)
    checks.append(_below(
        "tuple-inverse-max-gap", "iterated-map-inverse", err, 1e-10
    ))
    return checks


def _inverse_gap(invert, originals: sm.SeqTuple) -> float:
    """Largest gap between what invert() recovers and the originals; inf where
    roundoff leaves an inverse's input outside its map's image."""
    try:
        back = invert()
    except sm.NotInImage:
        return math.inf
    return max(float(np.max(np.abs(b.values - a.restrict(b.lo, b.hi).values)))
               for b, a in zip(back.windows, originals.windows))


def run_grsk_verify(alpha, window, seed) -> list[dict]:
    _seed(seed)
    # The triangular array draws shapes alpha + 1, alpha and alpha - 1:
    # unit shape gaps keep the iterated maps well conditioned.
    _alpha(alpha, 1.0 + MIN_SHAPE)
    lams = [alpha + 1.5 - r for r in (0.5, 1.5, 2.5)]
    with _burn_ins("--alpha"):
        # daop's reach is at most the array's: its burn-ins are a row's.
        minimum = grsk.triangular_reach(_hints(lams)) + 1
    _at_least("--window", window, minimum)
    _fits(_windows(3, window + 1), "--window")
    checks = []
    # Spawns 1-3 are _ig_windows' inputs.
    rng = Rng(master_seed=seed).spawn(4)
    worst = 0.0
    for n in (3, 4):
        weights = sample_inverse_gamma(rng, alpha, (n + 3) * n).reshape(n + 3, n)
        # Entry (m - 1, k - 1) is log Z from (1, 1) to (m, k), both weights in.
        logz = lat._log_partition_table(np.log(weights), True)
        arr = brute_force_ratio_array(weights, n)
        for m in range(n + 1, n + 4):
            arr = grsk.array_insert(arr, grsk.Word(1, np.log(weights[m - 1])))
            for k in range(1, n + 1):
                worst = max(worst, abs(arr.cell(k, 1) - logz[m - 1, k - 1]))
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
    tup = _ig_windows(lams, window, seed)
    tri = grsk.build_triangular(tup)
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


def _cocycle_fold(blocks, c: int):
    """One pass over a stationary grid's RowBlocks or DiagonalBlocks: the
    largest recovery residual |1/I + 1/J - 1/W| over the bulk sites
    (t >= 1, k >= c), the largest additivity residual |log J_k +
    log I_k(t - 1) - log I_k - log J_{k-1}| over those with k >= c + 1,
    and the top row's bulk log I and every 16th of its bulk log J, in
    increasing k.  Each residual has the bits of the site-by-site
    formula, and NaN wins every maximum.  The residuals go through two
    work arrays of the largest block's size."""
    rec, add, top_i, top_j = [], [], [], []
    work = np.empty(0)
    for b in blocks:
        i, j, w = b.i[1:], b.j[1:], b.w[1:]
        if work.size < 2 * i.size:
            work = np.empty(2 * i.size)
        x, y = work[:i.size].reshape(i.shape), work[i.size:2 * i.size].reshape(i.shape)
        np.exp(np.negative(i, out=x), out=x)
        x += np.exp(np.negative(j, out=y), out=y)
        x -= np.exp(np.negative(w, out=y), out=y)
        cols, where = b.bulk(c)
        rec.append(_max_abs(x[:, cols], where=where))
        # Column p of x holds site p's additivity residual from here on.
        cols, i_up, j_left = b.neighbours()
        np.add(j[:, cols], i_up, out=x[:, cols])
        x[:, cols] -= np.add(i[:, cols], j_left, out=y[:, cols])
        cols, where = b.bulk(c + 1)
        add.append(_max_abs(x[:, cols], where=where))
        top_i.append(i[b.top(c)])
        top_j.append(j[b.top(c, 16)])
    return _max_abs(rec), _max_abs(add), np.concatenate(top_i), np.concatenate(top_j)


def run_stationary_cocycle(alpha, rho, window, levels, seed) -> list[dict]:
    _seed(seed)
    _alpha(alpha)
    _rho(alpha, rho)
    _at_least("--levels", levels, 1)
    with _burn_ins("--rho"):
        margin = bu._margin(alpha, rho)
    # The bulk starts at the burn-in margin; its vertical KS test reads
    # every 16th bulk site, as parallel-chain's does.
    _at_least("--window", window, margin + KS_WINDOW_MIN)
    # The grid's I, J and W arrays.  The run streams the grid in blocks
    # and holds far less, but without this count an oversized --window or
    # --levels would run for hours; a bound on the time waits for ROADMAP
    # item 16.
    _fits(_grids(3, levels + 1, window + 1), "--levels" if levels > window else "--window")
    field = lat.WeightField(alpha, seed)
    rng = Rng(master_seed=seed, stream_id=1)
    blocks = bu.stationary_blocks(field, lat.RhoParam(rho, alpha), (0, window, levels), rng)
    rec, add, log_i, log_j = _cocycle_fold(blocks, margin)
    return [
        _below("recovery-residual", "cocycle-recovery", rec, 1e-12),
        _below("additivity-residual", "cocycle-additivity", add, 1e-12),
        _pvalue("top-row-marginal-ks", "stationary-horizontal-law",
                ks_one_sample(np.exp(log_i), _invgamma_cdf(alpha - rho)).p_value),
        _pvalue("vertical-marginal-ks", "stationary-vertical-law",
                ks_one_sample(np.exp(log_j), _invgamma_cdf(rho)).p_value),
    ]


def run_parallel_chain(alpha, rhos, window, seed) -> list[dict]:
    _seed(seed)
    _require(len(rhos) >= 2, "--rho", "need at least two rhos")
    _require(all(b < a for a, b in zip(rhos, rhos[1:])), "--rho",
             "rhos must be strictly decreasing")
    _input_shapes(alpha, rhos)
    _at_least("--window", window, KS_WINDOW_MIN)
    with _burn_ins("--rho"):
        reach = bu.chain_reach(alpha, rhos)
    _fits(_chain(len(rhos), window + reach + 1), "--rho" if reach > window else "--window")
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
        order_gap, ge, 0.0,
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
    checks.append(_below(
        "increment-independence", "independent-direction-increments",
        abs(corr), 3.0 / math.sqrt(d_hi.shape[0]),
    ))
    return checks


def run_ppp_busemann(alpha, lam, rho, samples, seed) -> list[dict]:
    _seed(seed)
    _alpha(alpha)
    _rho(alpha, rho)
    _require(0.0 < lam < rho, "--lam", f"need 0 < lambda < rho, got {lam}")
    _at_least("--samples", samples, KS_SAMPLES_MIN)
    _jump_sampler(alpha, rho, samples, "--rho")
    m = min(20000, samples)
    with _burn_ins("--lam"):
        reach = bu.chain_reach(alpha, [rho, lam])
    # The chain runs while the two columns of increment sums are held.
    _fits(_chain(2, 16 * m + reach + 1) + 2 * samples, "--lam")
    rng = Rng(master_seed=seed)
    inc = ig.batch_increment_sums(alpha, [lam, rho], samples, rng.spawn(1))
    checks = []
    r = ks_one_sample(np.exp(-inc[:, 1]), _beta_cdf(alpha - rho, rho - lam))
    checks.append(_pvalue("increment-beta-ks", "busemann-profile-increments", r.p_value))
    # The two columns sum to Z(rho)'s jump part: all three checks read one draw.
    mres = ig.marginal_check(alpha, rho, inc.sum(axis=1), rng.spawn(2))
    checks.append(_pvalue("marginal-ks", "busemann-edge-marginal", mres.p_value))
    corr = pearson(inc[:, 0], inc[:, 1])
    checks.append(_below(
        "adjacent-increment-independence", "profile-independent-increments",
        abs(corr), 3.0 / math.sqrt(samples),
    ))
    # Field stream 3 would alias the chain's stream: site (x, 0) of a field
    # stream has the key of element 0 of event x of the Rng stream.
    field = lat.WeightField(alpha, seed, stream_id=4)
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
    _seed(seed)
    _require(0.0 < alpha < math.inf, "--alpha", f"{alpha} is not in the range 0<x<inf.")
    _require(ig.Y_MIN < delta < math.inf, "--delta",
             f"{delta} is not in the range {ig.Y_MIN:g}<x<inf: "
             "smaller jumps are not sampled")
    _require(0.0 <= s_lo < alpha, "--s-lo", f"{s_lo} is not in the range 0<=x<{alpha}.")
    _require(s_lo < s_hi < alpha, "--s-hi", f"{s_hi} is not in the range {s_lo}<x<{alpha}.")
    # The dispersion test needs two counts.
    _at_least("--samples", samples, 2)
    _jump_sampler(alpha, s_hi, samples, "--s-hi")
    # The count falls with delta, so if it is 0 at the smallest, alpha is to blame.
    _require(ig.expected_jump_count(alpha, ig.Y_MIN, (s_lo, s_hi)) > 0.0, "--alpha",
             f"{alpha} leaves no jumps with s in [{s_lo}, {s_hi}]: the expected "
             "count is 0 at every --delta")
    mu = ig.expected_jump_count(alpha, delta, (s_lo, s_hi))
    _require(mu > 0.0, "--delta", f"the expected count {mu:g} is not positive")
    rng = Rng(master_seed=seed)
    counts = ig.batch_jump_counts(alpha, delta, (s_lo, s_hi), samples, rng)
    return [
        _below("mean-count-vs-quadrature", "jump-intensity-measure",
               abs(float(counts.mean()) - mu),
               3.0 * float(counts.std()) / math.sqrt(samples)),
        _pvalue("poisson-dispersion", "jump-process-poisson-law",
                poisson_dispersion(counts, mu)),
    ]


def run_zero_temp(rho, samples, seed) -> list[dict]:
    _seed(seed)
    _require(0.0 < rho < 1.0, "--rho", f"{rho} is not in the range 0<x<1.")
    _at_least("--samples", samples, KS_SAMPLES_MIN)
    _jump_sampler(1.0, rho, samples, "--rho")
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
    gaps = ig.coupling_gaps(ig.sample_ppp_replicas(1.0, rho, n_rep, rng.spawn(3)), alphas)
    # Each alpha's gaps summed as Python floats, in replica order.
    means = []
    for row in gaps.tolist():
        total = 0.0
        for gap in row:
            total += gap
        means.append(total / n_rep)
    # Both profiles start at 0, so every mean is at least 0; the gap
    # shrinks with alpha when the smallest step between means is positive.
    checks.append(_check(
        "coupling-gap-monotone", "zero-temperature-coupling-gap",
        min(x - y for x, y in zip(means, means[1:])), gt, 0.0,
    ))
    worst = 0.0
    for a in (1.0, 0.5, 0.1, 0.01):
        bound = (math.pi ** 2 / 3.0) * a * a
        worst = max(worst, ig.reparam_bound(a) / bound)
    checks.append(_check(
        "reparametrization-bound", "direction-reparametrization-gap",
        worst, le, 1.0,
    ))
    return checks


def _cif_sizes(alpha, rho, replicas) -> None:
    # Past this count a stream id's replicas would run into the next one's.
    _require(1 <= replicas <= cifmod._MAX_REPLICAS, "--replicas",
             f"{replicas} is not in the range 1<=x<={cifmod._MAX_REPLICAS}.")
    _alpha(alpha)
    _rho(alpha, rho)
    with _burn_ins("--rho"):
        width = bu._margin(alpha, rho) + 2
    # A block of replicas holds at most 7 arrays of (block, width + 1)
    # values: the keys and logs of the previous block's weights and bottom
    # rows (4) while the next block draws its keys and one gamma draw with
    # its two temporaries (3).  Its stream ids, last-column recursion and
    # ratios are at most 8 vectors of block values; the replicas' results
    # and their standard deviation's temporary are two arrays more.
    block = min(cifmod._BLOCK, replicas)
    _fits(_grids(7, block, width + 1) + 8 * block + 2 * replicas, "--rho")


def run_cif_eta(alpha, rho, replicas, seed) -> list[dict]:
    _seed(seed)
    _cif_sizes(alpha, rho, replicas)
    p, se = cifmod.eta_cdf_estimate(
        alpha, rho, replicas, Rng(master_seed=seed, stream_id=1)
    )
    return [_below(
        "separating-direction-cdf", "interface-direction-law",
        abs(p - (alpha - rho) / alpha), 3.0 * se,
    )]


def run_cif_xi(alpha, rho, replicas, seed) -> list[dict]:
    _seed(seed)
    _cif_sizes(alpha, rho, replicas)
    est, se_x = cifmod.xi_star_cdf_check(
        alpha, rho, replicas, Rng(master_seed=seed, stream_id=1)
    )
    checks = [_below(
        "finite-interface-cdf", "finite-volume-interface-law",
        abs(est - (alpha - rho) / alpha), 3.0 * se_x,
    )]
    p, se_h = cifmod.eta_cdf_estimate(
        alpha, rho, replicas, Rng(master_seed=seed, stream_id=2)
    )
    checks.append(_below(
        "interface-law-agreement", "finite-and-semi-infinite-interface-laws",
        abs(est - p), 3.0 * math.hypot(se_x, se_h),
    ))
    return checks


def run_she_check(alpha, rho, size, seed) -> list[dict]:
    _seed(seed)
    _alpha(alpha)
    _rho(alpha, rho)
    # The eternal solution's base sits at size // 2 >= 1.
    _at_least("--size", size, 2)
    with _burn_ins("--rho"):
        margin = bu._margin(alpha, rho)
    # The grid's I, J and W arrays and the eternal solution's log Z.
    _fits(_grids(4, size + 1, margin + size + 1), "--rho" if margin > size else "--size")
    field = lat.WeightField(alpha, seed)
    rng = Rng(master_seed=seed, stream_id=1)
    grid = bu.stationary_cocycle(
        field, lat.RhoParam(rho, alpha), (0, margin + size, size), rng
    )
    base = (grid.bulk_k_lo + size // 2, size // 2)
    es = bu.eternal_from_cocycle(grid, base)
    c = grid.bulk_k_lo - grid.k_lo
    lz, i, j, w = es.log_z, grid.i_vals, grid.j_vals, grid.w_vals
    worst = _max_abs_rows(
        lz[r, 1:] - (np.logaddexp(lz[r, :-1], lz[r - 1, 1:]) + w[es.t0 + r, c + 1:])
        for r in range(1, lz.shape[0]))
    checks = [_below(
        "heat-recursion-residual", "eternal-solution-recursion", worst, 1e-12
    )]
    perr = _max_abs_rows((np.exp(w[t, c:] - i[t, c:]) + np.exp(w[t, c:] - j[t, c:])) - 1.0
                         for t in range(1, grid.t_max + 1))
    checks.append(_below(
        "backward-probability-normalization", "backward-walk-kernel", perr, 1e-12
    ))
    return checks


# calibrate-stats' gates: a rate of p-values below each level, and of
# Pearson correlations outside 3 sigma, at most 3 times its nominal rate.
CALIBRATION_LEVELS = (0.05, 0.01)
SIGMA3_RATE = 0.0027
# The fewest trials at which one false positive, a rate of 1 / trials,
# passes every one of those gates.
MIN_TRIALS = math.ceil(1.0 / (3.0 * min(*CALIBRATION_LEVELS, SIGMA3_RATE)))


def _per_block(stat, *blocks) -> np.ndarray:
    """stat's per-row results over blocks of rows drawn side by side,
    concatenated along the rows; one set of blocks is held at a time."""
    out = []
    for block in zip(*blocks):
        out.append(np.asarray(stat(*block)))
        del block  # before the next blocks are drawn
    return np.concatenate(out, axis=-1)


def run_calibrate_stats(trials, samples, seed) -> list[dict]:
    _seed(seed)
    _at_least("--samples", samples, KS_SAMPLES_MIN)
    # The dispersion test draws every trial's counts in one event, and the
    # Poisson draw and the statistic hold about 12 arrays of them.  The
    # uniforms come block by block, about _CHUNK at a time; a row longer
    # than that is a block, and a two-sample test holds about 10 arrays of
    # its samples (two rows, then their pooled, sorted and labelled form).
    counts_per_trial = 50
    counts, pooled = _grids(12, trials, counts_per_trial), 10 * samples
    _fits(counts + pooled, "--trials" if counts > pooled else "--samples")
    _require(trials >= MIN_TRIALS, "--trials",
             f"{trials} is not in the range x>={MIN_TRIALS}: with fewer trials "
             "one false positive fails a rate gate")
    rng = Rng(master_seed=seed)
    checks = []
    p_one = _per_block(lambda u: ks_one_sample(u, lambda v: np.clip(v, 0.0, 1.0)).p_value,
                       rng.spawn(1).uniform_rows(trials, samples))
    p_two, corr = _per_block(lambda a, b: (ks_two_sample(a, b).p_value, pearson(a, b)),
                             rng.spawn(2).uniform_rows(trials, samples),
                             rng.spawn(3).uniform_rows(trials, samples))
    for name, pvals in (("one-sample-ks", p_one), ("two-sample-ks", p_two)):
        for level in CALIBRATION_LEVELS:
            checks.append(_check(
                f"{name}-fpr-at-{level}", "test-calibration",
                float(np.mean(pvals < level)), le, 3.0 * level,
            ))
    checks.append(_check(
        "pearson-3sigma-fpr", "test-calibration",
        float(np.mean(np.abs(corr) > 3.0 / math.sqrt(samples))), le, 3.0 * SIGMA3_RATE,
    ))
    mu = 5.0
    counts = sample_poisson(rng.spawn(4), mu, size=trials * counts_per_trial).reshape(
        trials, counts_per_trial)
    p_disp = poisson_dispersion(counts, mu)
    for level in CALIBRATION_LEVELS:
        checks.append(_check(
            f"dispersion-fpr-at-{level}", "test-calibration",
            float(np.mean(p_disp < level)), le, 3.0 * level,
        ))
    return checks
