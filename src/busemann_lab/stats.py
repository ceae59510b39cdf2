"""Statistical verification primitives.

Deterministic pass/fail machinery for distributional checks: one- and
two-sample Kolmogorov-Smirnov tests with asymptotic p-values, a Pearson
correlation helper, and a chi-square dispersion test for Poisson counts.
All functions are pure; they carry no internal randomness.
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


def ks_one_sample(samples: Sequence[float],
                  cdf: Callable[[np.ndarray], np.ndarray]) -> KsResult:
    """Sup-distance between the empirical CDF of samples and a model CDF.

    cdf is called once, on the sorted samples, and returns an array of their
    shape, nondecreasing with range in [0, 1].  p-values come from the
    asymptotic Kolmogorov distribution and need n >= 20.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.shape[0]
    if n < 20:
        raise ValueError(f"need at least 20 samples, got {n}")
    f = np.asarray(cdf(x), dtype=np.float64)
    if f.shape != x.shape:
        raise ValueError(f"cdf returned shape {f.shape} for samples of shape {x.shape}")
    if np.any(f < -1e-12) or np.any(f > 1.0 + 1e-12) or np.any(np.diff(f) < -1e-12):
        raise ValueError("cdf must be nondecreasing with values in [0, 1]")
    grid = np.arange(1, n + 1, dtype=np.float64) / n
    d = float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))
    return KsResult(statistic=d, p_value=_ks_pvalue(d, n), n=n)


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> KsResult:
    """Two-sample KS test; symmetric in its arguments."""
    xa = np.sort(np.asarray(a, dtype=np.float64))
    xb = np.sort(np.asarray(b, dtype=np.float64))
    na, nb = xa.shape[0], xb.shape[0]
    if min(na, nb) < 20:
        raise ValueError("need at least 20 samples on each side")
    pooled = np.concatenate([xa, xb])
    cdf_a = np.searchsorted(xa, pooled, side="right") / na
    cdf_b = np.searchsorted(xb, pooled, side="right") / nb
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    n_eff = na * nb / (na + nb)
    return KsResult(statistic=d, p_value=_ks_pvalue(d, n_eff), n=na + nb)


def pearson(a: Sequence[float], b: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient."""
    xa = np.asarray(a, dtype=np.float64)
    xb = np.asarray(b, dtype=np.float64)
    if xa.shape != xb.shape or xa.ndim != 1 or xa.shape[0] < 2:
        raise ValueError("need two equal-length 1-d arrays with at least 2 entries")
    da = xa - xa.mean()
    db = xb - xb.mean()
    denom = math.sqrt(float(da @ da) * float(db @ db))
    if denom == 0.0:
        return 0.0
    return float(da @ db) / denom


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
