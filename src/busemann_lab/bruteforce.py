"""Brute-force reference computations.

Exponential-cost sums over lattice paths, used as oracles for the
geometric RSK array: the disjoint-path partition functions that seed a
triangular array, and the log-domain point-to-point partition function.
Also the one-grid-per-replica construction of the competition-interface
ratio samples, the oracle for their batched draw and stacked update_raw
rows, and the row-by-row cocycle evolution and site-by-site
anti-diagonal partition-function table, the oracles for the wavefront
update step and the strided table.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import grsk
from .busemann import _margin, stationary_cocycle
from .cif import _STREAM_BITS
from .lattice import RhoParam, WeightField
from .seqmaps import update_raw
from .special_functions import Rng


def _paths_between(start, end):
    (r0, c0), (r1, c1) = start, end
    if r1 < r0 or c1 < c0:
        return []
    out = []
    for comb in itertools.combinations(range((r1 - r0) + (c1 - c0)), r1 - r0):
        cells = [(r0, c0)]
        rr, cc = r0, c0
        for s in range((r1 - r0) + (c1 - c0)):
            if s in comb:
                rr += 1
            else:
                cc += 1
            cells.append((rr, cc))
        out.append(tuple(cells))
    return out


def brute_force_ratio_array(weights: np.ndarray, n: int) -> grsk.FullArray:
    """Initial triangular array from disjoint-path partition functions.

    Cell (k, ell) is the ratio of the ell- and (ell-1)-tuple disjoint
    path sums from starting points (1, r) to endpoints (n, k - ell + r).
    Exponential cost; intended for n <= 4.
    """
    def tau(k, ell):
        if ell == 0:
            return 1.0
        groups = [
            _paths_between((1, r), (n, k - ell + r)) for r in range(1, ell + 1)
        ]
        total = 0.0
        for combo in itertools.product(*groups):
            cells = [c for p in combo for c in p]
            if len(set(cells)) != len(cells):
                continue
            prod = 1.0
            for (rr, cc) in cells:
                prod *= weights[rr - 1, cc - 1]
            total += prod
        return total

    cols = []
    for ell in range(1, n + 1):
        col = [
            math.log(tau(k, ell)) - math.log(tau(k, ell - 1))
            for k in range(ell, n + 1)
        ]
        cols.append(np.array(col))
    return grsk.FullArray(n, tuple(cols))


def brute_force_log_partition(weights: np.ndarray, m: int, k: int) -> float:
    """log of the path sum from (1,1) to (m,k), initial weight included."""
    lw = np.log(weights[:m, :k])
    z = np.full((m, k), -np.inf)
    z[0, 0] = lw[0, 0]
    for i in range(m):
        for j in range(k):
            if i == 0 and j == 0:
                continue
            acc = -np.inf
            if i > 0:
                acc = np.logaddexp(acc, z[i - 1, j])
            if j > 0:
                acc = np.logaddexp(acc, z[i, j - 1])
            z[i, j] = acc + lw[i, j]
    return float(z[m - 1, k - 1])


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
        ratio = math.exp(grid.log_w(width, 1) - grid.log_i(width, 1))
        if indicator:
            u = Rng(master_seed=rng.master_seed, stream_id=base + 3 * r + 2)
            out[r] = 1.0 if u.uniform() <= ratio else 0.0
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
