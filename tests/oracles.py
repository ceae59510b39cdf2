"""Slow reference forms of the package's fast kernels, for the tests.

The one-grid-per-replica construction of the competition-interface ratio
samples, the oracle for their batched draw and last-column recursion;
the row-by-row cocycle evolution and site-by-site anti-diagonal
partition-function table, the oracles for the wavefront update step and
the strided table; the row-wise stationary-cocycle checks on a whole
grid, the oracle for their fold over streamed blocks; the allocating splitmix64 chain, one temporary per
step, the oracle for the fused hashing kernel; the whole-array gamma
sampler, every log test on every lane, the oracle for the blocked one;
the scalar incomplete gamma and beta functions, one Python-float
loop per point, the oracles for their lane kernels; the two-sample
KS test by two searches of the pooled sample, the oracle for the
label-tagged sort of stacked rows; the Poisson draw one key and one
lane at a time, the oracle for the lane loop of poisson_from_keys; the
jump-process marginal check that draws its own increment sums, the
oracle for the one that reads them from its caller's draw; and the
zero-temperature coupling of one sample by searches of its kept points,
the oracle for the stacked profiles of a block of samples.
"""

from __future__ import annotations

import math

import numpy as np

from busemann_lab.busemann import _margin, stationary_cocycle
from busemann_lab.cif import _STREAM_BITS
from busemann_lab.igamma_process import (batch_increment_sums, pos_temp_keep_prob,
                                         small_jump_compensator, zero_temp_keep_prob)
from busemann_lab.lattice import RhoParam, WeightField
from busemann_lab.seqmaps import update_raw
from busemann_lab.special_functions import (_GOLDEN, _MIX1, _MIX2, _SALT_LANE, _U64, Rng,
                                            _as_u64, _check_positive, _hash, _lane_uniforms,
                                            _libm, reg_inc_gamma, sample_gamma)
from busemann_lab.stats import KsResult, _ks_pvalue, ks_one_sample


def per_replica_ratio_samples(
    alpha: float, rho: float, replicas: int, rng: Rng, indicator: bool
) -> np.ndarray:
    """``cif._ratio_samples`` with one stationary cocycle grid per replica.

    Replica r builds a WeightField on stream id base + 3r, draws its
    bottom row from Rng(stream id base + 3r + 1) and, for the indicator,
    its uniform from Rng(stream id base + 3r + 2), base = stream_id << 22.
    """
    margin = _margin(alpha, rho)
    width = margin + 2
    out = np.empty(replicas)
    base = rng.stream_id << _STREAM_BITS
    for r in range(replicas):
        field = WeightField(alpha, rng.master_seed, stream_id=base + 3 * r)
        init = Rng(master_seed=rng.master_seed, stream_id=base + 3 * r + 1)
        grid = stationary_cocycle(field, RhoParam(rho, alpha), (0, width, 1), init)
        ratio = math.exp(grid.w_vals[1, width] - grid.i_vals[1, width])
        if indicator:
            u = Rng(master_seed=rng.master_seed, stream_id=base + 3 * r + 2)
            out[r] = 1.0 if u.uniforms(1)[0] <= ratio else 0.0
        else:
            out[r] = ratio
    return out


def row_by_row_evolve(
    field, log_i0: np.ndarray, k_lo: int, k_hi: int, t_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``busemann._evolve`` with one update_raw call per field row."""
    n = k_hi - k_lo + 1
    i_vals = np.full((t_max + 1, n), np.nan)
    j_vals = np.full((t_max + 1, n), np.nan)
    w_vals = np.full((t_max + 1, n), np.nan)
    i_vals[0] = log_i0
    for t in range(1, t_max + 1):
        log_w = field.log_weight_row(k_lo, k_hi, t)
        log_j, log_it = update_raw(log_w, i_vals[t - 1], float(log_w[0]))
        i_vals[t] = log_it
        j_vals[t] = log_j
        w_vals[t] = log_w
    return i_vals, j_vals, w_vals


def row_wise_cocycle_checks(i_vals, j_vals, w_vals, c: int):
    """``experiments._cocycle_fold`` on whole grids, one row at a time.

    The recovery and additivity residuals' maxima over the bulk columns
    k >= c (k >= c + 1 for additivity) of rows 1.., NaN if any residual
    is NaN, then the top row's log I from k = c and its log J at every
    16th column from there.
    """
    rows = range(1, i_vals.shape[0])
    i, j, w = i_vals, j_vals, w_vals

    def max_abs(residuals):
        return float(np.max([np.max(np.abs(r)) for r in residuals], initial=0.0))

    rec = max_abs(np.exp(-i[t, c:]) + np.exp(-j[t, c:]) - np.exp(-w[t, c:]) for t in rows)
    add = max_abs((j[t, c + 1:] + i[t - 1, c + 1:]) - (i[t, c + 1:] + j[t, c:-1])
                  for t in rows)
    return rec, add, i[-1, c:], j[-1, c::16]


def site_by_site_log_partition_table(w: np.ndarray, include_initial: bool) -> np.ndarray:
    """``lattice._log_partition_table`` with index arrays and edge masks."""
    m, n = w.shape[0] - 1, w.shape[1] - 1
    logz = np.full((m + 1, n + 1), -np.inf)
    logz[0, 0] = w[0, 0] if include_initial else 0.0
    for d in range(1, m + n + 1):
        i = np.arange(max(0, d - n), min(m, d) + 1)
        j = d - i
        left = np.full(i.shape, -np.inf)
        down = np.full(i.shape, -np.inf)
        has_left = i > 0
        has_down = j > 0
        left[has_left] = logz[i[has_left] - 1, j[has_left]]
        down[has_down] = logz[i[has_down], j[has_down] - 1]
        logz[i, j] = np.logaddexp(left, down) + w[i, j]
    return logz


def unfused_mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on uint64 arrays, a new array per step."""
    z = z + _GOLDEN
    z = z ^ (z >> _U64(30))
    z = z * _MIX1
    z = z ^ (z >> _U64(27))
    z = z * _MIX2
    return z ^ (z >> _U64(31))


def unfused_absorb(key: np.ndarray, value, salt: np.uint64) -> np.ndarray:
    """Fold a 64-bit value into a running key."""
    return unfused_mix64(key ^ (_as_u64(value) + salt))


def unfused_to_unit(h: np.ndarray) -> np.ndarray:
    """Map uint64 hashes to uniforms in the open interval (0, 1)."""
    return ((h >> _U64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)


def whole_array_gamma(keys: np.ndarray, shape: float) -> np.ndarray:
    """``gamma_from_keys`` in one pass over all keys: every attempt hashes
    its pending keys as one array and runs the log test on every lane."""
    shape = _check_positive("shape", shape)
    lane0 = 0
    boost = None
    if shape < 1.0:
        boost = _lane_uniforms(keys, 0)
        lane0 = 1
        shape = shape + 1.0
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(keys.shape[0], dtype=np.float64)
    pending = np.arange(keys.shape[0])
    for attempt in range(256):
        if pending.size == 0:
            break
        k = keys[pending]
        base = lane0 + 3 * attempt
        lanes = np.arange(base, base + 3, dtype=_U64)[:, None]
        u1, u2, u = _hash((3, k.size), k, [(lanes, _SALT_LANE)], unit=True)
        x = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
        v = (1.0 + c * x) ** 3
        x2 = x * x
        ok = v > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            squeeze = u < 1.0 - 0.0331 * x2 * x2
            full = np.log(u) < 0.5 * x2 + d - d * v + d * np.log(np.where(ok, v, 1.0))
        accept = ok & (squeeze | full)
        out[pending[accept]] = d * v[accept]
        pending = pending[~accept]
    if pending.size:
        raise RuntimeError("gamma rejection sampler failed to terminate")
    if boost is not None:
        out *= boost ** (1.0 / (shape - 1.0))
    return out


def _p_gamma(s: float, x: float) -> float:
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"x must be a finite nonnegative real, got {x!r}")
    if x == 0.0:
        return 0.0
    log_front = s * math.log(x) - x - math.lgamma(s)
    if x < s + 1.0:
        # Series expansion of P.
        term = 1.0 / s
        total = term
        denom = s
        for _ in range(10000):
            denom += 1.0
            term *= x / denom
            total += term
            if abs(term) < abs(total) * 1e-17:
                break
        return min(1.0, math.exp(log_front) * total)
    # Continued fraction for Q (modified Lentz).
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return max(0.0, 1.0 - math.exp(log_front) * h)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 10000):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h


def _i_beta(a: float, b: float, x: float) -> float:
    if not math.isfinite(x) or x < 0.0 or x > 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_cf(b, a, 1.0 - x) / b


def per_key_poisson(keys: np.ndarray, mean) -> np.ndarray:
    """``poisson_from_keys``, one key at a time: multiply the key's lane
    uniforms until the product reaches exp(-mean); the count is the last lane."""
    means = np.broadcast_to(np.asarray(mean, dtype=np.float64), keys.shape).tolist()
    counts = np.empty(keys.shape[0], dtype=np.int64)
    for i, m in enumerate(means):
        limit = math.exp(-m)
        prod, lane = float(_lane_uniforms(keys[i:i + 1], 0)[0]), 0
        while not prod <= limit:
            lane += 1
            prod *= float(_lane_uniforms(keys[i:i + 1], lane)[0])
        counts[i] = lane
    return counts


def searched_ks_two_sample(a, b) -> KsResult:
    """``stats.ks_two_sample`` of one pair of 1-d samples, by searchsorted."""
    xa = np.sort(np.asarray(a, dtype=np.float64))
    xb = np.sort(np.asarray(b, dtype=np.float64))
    na, nb = xa.shape[0], xb.shape[0]
    pooled = np.concatenate([xa, xb])
    cdf_a = np.searchsorted(xa, pooled, side="right") / na
    cdf_b = np.searchsorted(xb, pooled, side="right") / nb
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    n_eff = na * nb / (na + nb)
    return KsResult(statistic=d, p_value=_ks_pvalue(d, n_eff), n=na + nb)


def drawing_marginal_check(alpha: float, rho: float, n: int, rng: Rng) -> KsResult:
    """KS test of n values Z(0) + (Z(rho) - Z(0)) against the log
    Ga^-1(alpha - rho) law, Z(0) from rng.spawn(0) and the increment sums
    from their own draw on rng.spawn(1)."""
    z0 = -np.log(sample_gamma(rng.spawn(0), alpha, size=n))
    sums = batch_increment_sums(alpha, [rho], n, rng.spawn(1))[:, 0]
    z = z0 + sums
    return ks_one_sample(
        z, lambda v: 1.0 - reg_inc_gamma(alpha - rho, _libm(np.exp, -v))
    )


def per_sample_coupling(sample, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``igamma_process.zero_temp_couple`` of one sample on its own arrays:
    each profile is a cumsum of its kept y, read at a search of its kept s
    for every grid point."""
    rho_grid = np.linspace(0.0, sample.rho_max, 1001)

    def profile(keep: np.ndarray, thinning) -> np.ndarray:
        cum = np.concatenate(([0.0], np.cumsum(sample.y[keep])))
        pos = np.searchsorted(sample.s[keep], rho_grid, side="right")
        return cum[pos] + small_jump_compensator(1.0, 1.0, thinning=thinning) * rho_grid

    keep_a = sample.u <= pos_temp_keep_prob(sample.y, alpha)
    keep_0 = sample.u <= zero_temp_keep_prob(sample.y)
    return (rho_grid, profile(keep_a, lambda y: pos_temp_keep_prob(y, alpha)),
            profile(keep_0, zero_temp_keep_prob))
