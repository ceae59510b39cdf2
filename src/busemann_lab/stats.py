"""Statistical verification primitives.

Deterministic pass/fail machinery for distributional checks: one- and
two-sample Kolmogorov-Smirnov tests with asymptotic p-values, a Pearson
correlation helper, and a chi-square dispersion test for Poisson counts.
All functions are pure; they carry no internal randomness.

Each takes one sample of shape (n,), or a (rows, n) stack of independent
samples, and then returns one result per row with the bits of that row's
own call: a caller with many small tests makes one call.  The two-sample
test sorts each pooled pair once, as order-preserving uint64 keys with
the sample's label in bit 0, and reads both empirical CDFs off a cumsum
of the labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .special_functions import reg_inc_gamma

__all__ = [
    "KsResult",
    "ks_one_sample",
    "ks_two_sample",
    "pearson",
    "poisson_dispersion",
]


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float
    n: int


def _kolmogorov_sf(lam: float) -> float:
    """Q(lam) = 2 sum_{j>=1} (-1)^{j-1} exp(-2 j^2 lam^2)."""
    if lam <= 0.0:
        return 1.0
    total = 0.0
    for j in range(1, 101):
        term = 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
        total += term
        if abs(term) < 1e-16:
            break
    return min(1.0, max(0.0, total))


def _ks_pvalue(d: float, n_eff: float) -> float:
    sqrt_n = math.sqrt(n_eff)
    return _kolmogorov_sf((sqrt_n + 0.12 + 0.11 / sqrt_n) * d)


def _ks_result(d: np.ndarray, n_eff: float, n: int) -> KsResult:
    """Row statistics d with their p-values, as floats for a 0-d d.

    A NaN statistic, from a row holding NaN, has p-value 0.
    """
    p = np.array([0.0 if math.isnan(v) else _ks_pvalue(v, n_eff)
                  for v in d.ravel().tolist()]).reshape(d.shape)
    if d.ndim == 0:
        return KsResult(statistic=float(d), p_value=float(p), n=n)
    return KsResult(statistic=d, p_value=p, n=n)


def _rows(x, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError(f"{what} must be (n,) or (rows, n), got shape {x.shape}")
    return x


def ks_one_sample(samples: Sequence[float] | np.ndarray,
                  cdf: Callable[[np.ndarray], np.ndarray]) -> KsResult:
    """Sup-distance between the empirical CDF of samples and a model CDF.

    samples of shape (n,) give float fields; a (rows, n) stack gives one
    statistic and p-value per row, each with the bits of that row's own
    call.  cdf is called once, on the whole stack sorted along its rows,
    and returns an array of its shape, nondecreasing along the rows with
    range in [0, 1].  p-values come from the asymptotic Kolmogorov
    distribution and need n >= 20.  A row holding NaN gets statistic NaN
    and p-value 0.
    """
    x = np.sort(_rows(samples, "samples"), axis=-1)
    n = x.shape[-1]
    if n < 20:
        raise ValueError(f"need at least 20 samples, got {n}")
    f = np.asarray(cdf(x), dtype=np.float64)
    if f.shape != x.shape:
        raise ValueError(f"cdf returned shape {f.shape} for samples of shape {x.shape}")
    if (np.any(f < -1e-12) or np.any(f > 1.0 + 1e-12)
            or np.any(np.diff(f, axis=-1) < -1e-12)):
        raise ValueError("cdf must be nondecreasing with values in [0, 1]")
    grid = np.arange(1, n + 1, dtype=np.float64) / n
    d = np.maximum(np.max(grid - f, axis=-1), np.max(f - (grid - 1.0 / n), axis=-1))
    # NaN sorts last.
    return _ks_result(np.where(np.isnan(x[..., -1]), np.nan, d), n, n)


# Pooled samples the two-sample test keys per pass: bounds its scratch memory.
_POOLED = 65_536
_SIGN = np.uint64(1 << 63)
_NAN = np.float64(np.nan).view(np.uint64)  # the canonical quiet NaN


def _order_keys(x: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Write uint64 keys that sort as x does into keys; return which rows hold NaN.

    -0.0 and +0.0 share a key, and every NaN gets the canonical quiet
    NaN's, above +inf.  A negative value has every bit flipped, a
    non-negative one its sign bit set.
    """
    values = keys.view(np.float64)
    np.copyto(values, x)
    nan = np.isnan(values)
    np.copyto(keys, _NAN, where=nan)
    values += 0.0
    flip = (keys.view(np.int64) >> 63).view(np.uint64)
    flip |= _SIGN
    keys ^= flip
    return nan.any(axis=-1)


def _two_sample_d(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """D of each row pair of (rows, na) and (rows, nb) samples; NaN for a
    pair holding NaN."""
    na, nb = xa.shape[1], xb.shape[1]
    n = na + nb
    keys = np.empty((xa.shape[0], n), dtype=np.uint64)
    nan_rows = _order_keys(xa, keys[:, :na]) | _order_keys(xb, keys[:, na:])
    keys -= keys.min(axis=1, keepdims=True)
    if keys.max() < _SIGN:
        keys <<= 1
        keys[:, na:] |= 1
        keys.sort(axis=1)
        cb = np.empty(keys.shape)
        np.bitwise_and(keys, 1, out=cb, casting="unsafe")
        np.cumsum(cb, axis=1, out=cb)
        keys >>= 1
    else:
        sorted_b = np.sort(keys[:, na:], axis=1)
        keys.sort(axis=1)
        cb = np.array([np.searchsorted(sb, row, side="right")
                       for sb, row in zip(sorted_b, keys)], dtype=np.float64)
    ends = np.empty(keys.shape, dtype=bool)
    np.not_equal(keys[:, 1:], keys[:, :-1], out=ends[:, :-1])
    ends[:, -1] = True
    del keys
    # Up to a run's end every sample is counted, so F_a = (i + 1 - cb) / na
    # there; the counts are exact in float64.
    ca = np.arange(1, n + 1, dtype=np.float64) - cb
    ca /= na
    cb /= nb
    ca -= cb
    d = np.max(np.abs(ca, out=ca), axis=1, where=ends, initial=0.0)
    return np.where(nan_rows, np.nan, d)


def ks_two_sample(a: Sequence[float] | np.ndarray,
                  b: Sequence[float] | np.ndarray) -> KsResult:
    """Two-sample KS test; symmetric in its arguments.

    a of shape (na,) and b of shape (nb,) give float fields; (rows, na)
    and (rows, nb) stacks give one statistic and p-value per row pair,
    each with the bits of that pair's own call.  A pair holding NaN gets
    statistic NaN and p-value 0.

    Each pair's pooled samples are sorted once, as order-preserving
    uint64 keys less the pair's smallest.  When the keys of every pair in
    a pass fit in 63 bits (samples all of one sign always do), each key
    carries its sample's label in bit 0 and a cumsum of the labels counts
    b at every pooled position; otherwise each pair counts b by searching
    its own sorted keys.  D is |F_a - F_b| at the last key of each run of equal values,
    the same counts that searching the pooled sample with side="right"
    gives.  Pairs go through _POOLED pooled samples at a time, which
    bounds the scratch memory.
    """
    xa, xb = _rows(a, "a"), _rows(b, "b")
    if xa.shape[:-1] != xb.shape[:-1]:
        raise ValueError(f"a and b need the same rows, got shapes {xa.shape} and {xb.shape}")
    na, nb = xa.shape[-1], xb.shape[-1]
    if min(na, nb) < 20:
        raise ValueError("need at least 20 samples on each side")
    n = na + nb
    rows_a, rows_b = xa.reshape(-1, na), xb.reshape(-1, nb)
    step = max(1, _POOLED // n)
    d = np.concatenate([_two_sample_d(rows_a[r:r + step], rows_b[r:r + step])
                        for r in range(0, rows_a.shape[0], step)])
    return _ks_result(d.reshape(xa.shape[:-1]), na * nb / n, n)


def pearson(a: Sequence[float] | np.ndarray,
            b: Sequence[float] | np.ndarray) -> float | np.ndarray:
    """Sample Pearson correlation coefficient; 0.0 when either side is constant.

    a and b of shape (n,) give a float; (rows, n) stacks give one
    coefficient per row, each with the bits of that row's own call.
    """
    xa = np.asarray(a, dtype=np.float64)
    xb = np.asarray(b, dtype=np.float64)
    if xa.shape != xb.shape or xa.ndim not in (1, 2) or xa.shape[-1] < 2:
        raise ValueError("need two equal-shape (n,) or (rows, n) arrays with n >= 2")
    da = xa - xa.mean(axis=-1, keepdims=True)
    db = xb - xb.mean(axis=-1, keepdims=True)
    denom = np.sqrt(np.vecdot(da, da) * np.vecdot(db, db))
    r = np.divide(np.vecdot(da, db), denom, out=np.zeros_like(denom), where=denom != 0.0)
    return float(r) if xa.ndim == 1 else r


def poisson_dispersion(counts: Sequence[int] | np.ndarray, mean: float) -> float | np.ndarray:
    """Two-sided chi-square dispersion p-value for Poisson counts.

    The statistic sum (c - mean)^2 / mean is compared with a chi-square
    distribution on n degrees of freedom (the mean is given, not
    estimated), flagging both over- and under-dispersion.  counts of
    shape (n,) give a float; a (trials, n) stack gives one p-value per row,
    each with the bits of that row's own call.
    """
    c = np.asarray(counts, dtype=np.float64)
    if c.ndim not in (1, 2) or c.shape[-1] < 2:
        raise ValueError("need (n,) or (trials, n) counts with n >= 2")
    if mean <= 0.0:
        raise ValueError("mean must be positive")
    stat = np.sum((c - mean) ** 2, axis=-1) / mean
    # The chi-square CDF with n degrees of freedom.
    lower = reg_inc_gamma(c.shape[-1] / 2.0, stat / 2.0)
    p = np.minimum(1.0, 2.0 * np.minimum(lower, 1.0 - lower))
    return float(p) if c.ndim == 1 else p
