"""Annealed laws of the competition interface's direction.

At a bulk site x of a stationary cocycle grid with parameter rho, one
uniform U_x steers the backward polymer walk in direction xi(rho): it
steps to x - e1 when U_x <= W_x / I_x, the Busemann kernel, and to
x - e2 otherwise.  The direction separating e1-moves from e2-moves at x
therefore lies on the e2 side of xi(rho) exactly when U_x <= W_x / I_x.
Its annealed law, and the mean of W / I, are estimated over fresh
one-row stationary grids, one per replica.
"""

from __future__ import annotations

import math

import numpy as np

from .busemann import _margin
from .seqmaps import last_i_tilde
from .special_functions import (
    Rng,
    _as_u64,
    _event_keys,
    _libm,
    gamma_from_keys,
    keys_for_sites,
)

__all__ = [
    "eta_cdf_estimate",
    "xi_star_cdf_check",
]


def eta_cdf_estimate(
    alpha: float, rho: float, replicas: int, rng: Rng
) -> tuple[float, float]:
    """Annealed P(separating direction on the e2 side of xi(rho)).

    Each replica builds a fresh one-step stationary grid and a fresh
    uniform, and records whether U <= W/I at a bulk site.  Returns the
    empirical probability and its standard error; the target value is
    (alpha - rho) / alpha.
    """
    hits = _ratio_samples(alpha, rho, replicas, rng, indicator=True)
    p = float(np.mean(hits))
    se = float(np.std(hits) / math.sqrt(replicas))
    return p, se


def xi_star_cdf_check(
    alpha: float, rho: float, replicas: int, rng: Rng
) -> tuple[float, float]:
    """Annealed CDF of the finite-volume separating direction at xi(rho).

    Estimates E[W/I] over fresh stationary grids; the target value is the
    mean (alpha - rho) / alpha of the Beta(alpha - rho, rho) ratio law.
    Returns the estimate and its standard error.
    """
    ratios = _ratio_samples(alpha, rho, replicas, rng, indicator=False)
    return float(np.mean(ratios)), float(np.std(ratios) / math.sqrt(replicas))


_STREAM_BITS = 22
_MAX_REPLICAS = (1 << _STREAM_BITS) // 3
# Replicas whose draws share one array call; bounds the batch temporaries.
_BLOCK = 256


def _ratio_samples(
    alpha: float, rho: float, replicas: int, rng: Rng, indicator: bool
) -> np.ndarray:
    """W/I at the right end of one fresh stationary row per replica.

    Replica r draws the row-1 weights of a width margin + 2 grid from
    stream id base + 3r, its inverse-gamma bottom row from base + 3r + 1
    and its uniform from base + 3r + 2, with base = stream_id << 22
    (mod 2^64); this is exactly ``stationary_cocycle`` on that stream.
    The keys and gamma draws of a block of replicas are made in one
    array call each, and one last_i_tilde call gives its rows' log I~ at
    the right end.
    """
    if not (0.0 < rho < alpha):
        raise ValueError("need 0 < rho < alpha")
    # Beyond this count the stream ids would run into the next stream
    # id's block.
    if replicas > _MAX_REPLICAS:
        raise ValueError(f"at most {_MAX_REPLICAS} replicas per stream id")
    seed = rng.master_seed
    width = _margin(alpha, rho) + 2
    sites = np.arange(width + 1)
    base = _as_u64(rng.stream_id) << np.uint64(_STREAM_BITS)
    out = np.empty(replicas)
    for start in range(0, replicas, _BLOCK):
        r = np.arange(start, min(start + _BLOCK, replicas), dtype=np.uint64)
        sids = base + np.uint64(3) * r
        shape = (r.size, width + 1)
        w_keys = keys_for_sites(seed, sids[:, None], sites, 1).ravel()
        log_w = -np.log(gamma_from_keys(w_keys, alpha)).reshape(shape)
        i_keys = _event_keys(seed, sids + np.uint64(1), 0, width + 1).ravel()
        log_i0 = np.log(1.0 / gamma_from_keys(i_keys, alpha - rho)).reshape(shape)
        log_it = last_i_tilde(log_w, log_i0, log_w[:, 0])
        ratios = _libm(np.exp, log_w[:, width] - log_it)
        if indicator:
            u = _event_keys(seed, sids + np.uint64(2), 0, 1, unit=True).ravel()
            ratios = np.where(u <= ratios, 1.0, 0.0)
        out[start:start + r.size] = ratios
    return out
