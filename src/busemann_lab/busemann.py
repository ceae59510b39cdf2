"""Stationary cocycles on the lattice and their consequences.

A cocycle grid holds the exponentiated horizontal and vertical increments
I and J of a stationary cocycle on a rectangle, built by drawing the
bottom row from the stationary law and evolving upward with the update
map driven by the weight field.  From a grid one obtains eternal
solutions of the discrete stochastic heat recursion; independent of
grids, Busemann values are estimated by partition-function ratios from
deep starting points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import (
    Direction,
    RhoParam,
    WeightField,
    _check_point,
    _log_partition_table,
)
from .seqmaps import SeqTuple, _update_step, burn_in, ig_window, update_raw
from .special_functions import _CHUNK, Rng, digamma
from .grsk import build_triangular, triangular_reach

__all__ = [
    "CocycleGrid",
    "EternalSolution",
    "stationary_cocycle",
    "parallel_chain",
    "chain_reach",
    "busemann_ratio_estimate",
    "eternal_from_cocycle",
]

# _evolve sweeps anti-diagonals when the grid's shorter side has at least
# this many sites and runs update_raw row by row otherwise: a diagonal
# step costs a few numpy calls, which only long diagonals amortize.
_WAVEFRONT_MIN = 48


@dataclass(frozen=True)
class CocycleGrid:
    """Log increments of a stationary cocycle on [k_lo, k_hi] x [0, t_max].

    Row t of i_vals holds log I_k(t); rows t >= 1 of j_vals and w_vals
    hold log J_k(t) and the log weights that drove the step from t - 1
    (row 0 of those two is NaN).  Sites with k >= bulk_k_lo and t >= 1
    are the bulk, where the seed of every row recursion has been
    forgotten and the cocycle identities hold to roundoff.
    """

    i_vals: np.ndarray
    j_vals: np.ndarray
    w_vals: np.ndarray
    rho: RhoParam
    k_lo: int
    bulk_k_lo: int

    @property
    def k_hi(self) -> int:
        return self.k_lo + self.i_vals.shape[1] - 1

    @property
    def t_max(self) -> int:
        return self.i_vals.shape[0] - 1


@dataclass(frozen=True)
class EternalSolution:
    """Solution of Z(x) = W_x (Z(x - e1) + Z(x - e2)) normalized at base.

    log_z[t - t0, k - k0] holds log Z(k, t) on the stored rectangle;
    Z(base) = 1.
    """

    base: tuple[int, int]
    k0: int
    t0: int
    log_z: np.ndarray


def _margin(alpha: float, rho: float) -> int:
    """Burn-in of an inverse-gamma(alpha - rho) row under shape-alpha weights."""
    return burn_in(-digamma(alpha), -digamma(alpha - rho))


def _weight_rows(field: WeightField, k_lo: int, k_hi: int, t_max: int) -> np.ndarray:
    """Log-weights of field rows 1..t_max on [k_lo, k_hi]; row 0 is NaN.

    One weight-block draw covers max(1, _CHUNK // n) rows of n sites (fewer
    in the last), the rule of Rng.uniform_rows: the per-call cost of the
    hashing and of the gamma sampler's rejection rounds is paid once per
    block instead of once per row.  Each site's weight is a pure function
    of its key, so the rows have the bits of field.log_weight_row.
    """
    n = k_hi - k_lo + 1
    w_vals = np.full((t_max + 1, n), np.nan)
    step = max(1, _CHUNK // n)
    for t in range(1, t_max + 1, step):
        rows = min(step, t_max + 1 - t)
        w_vals[t:t + rows] = field.log_weight_block((k_lo, t), (n, rows)).T
    return w_vals


def _evolve(
    field: WeightField, log_i0: np.ndarray, k_lo: int, k_hi: int, t_max: int,
    w_vals: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the update recursion bottom-to-top over field rows 1..t_max.

    w_vals, if given, holds those rows as ``_weight_rows`` draws them;
    otherwise they are drawn here, in blocks of rows.  A grid whose shorter
    side has at least _WAVEFRONT_MIN sites is swept by anti-diagonals
    (_sweep_diagonals), a smaller one row by row with update_raw; both
    give the same bits.
    """
    n = k_hi - k_lo + 1
    if w_vals is None:
        w_vals = _weight_rows(field, k_lo, k_hi, t_max)
    i_vals = np.full((t_max + 1, n), np.nan)
    j_vals = np.full((t_max + 1, n), np.nan)
    i_vals[0] = log_i0
    # Each row seeds the vertical increment at the left edge with the
    # weight there; its influence decays geometrically in k.
    if min(t_max, n) >= _WAVEFRONT_MIN:
        _sweep_diagonals(i_vals, j_vals, w_vals)
    else:
        for t in range(1, t_max + 1):
            j_vals[t], i_vals[t] = update_raw(
                w_vals[t], i_vals[t - 1], float(w_vals[t, 0])
            )
    return i_vals, j_vals, w_vals


def _sweep_diagonals(i_vals: np.ndarray, j_vals: np.ndarray, w_vals: np.ndarray) -> None:
    """Rows 1.. of i_vals and j_vals as _evolve's row loop fills them, in place.

    Site (t, k) needs I(t - 1, k) and J(t, k - 1), which both lie on the
    anti-diagonal t + k = s - 1, so each anti-diagonal is one call of
    seqmaps' vector update step over its sites (Lamport's hyperplane
    method), and the values are the bits of the row loop.  In the flat
    C-order arrays diagonal s is a slice of stride n - 1, with I(t - 1, k)
    at offset -n and J(t, k - 1) at offset -1; the site (s, 0) takes the
    weight seed instead.  The step's two buffers are allocated once for
    the longest diagonal, and each step works in their leading slices.
    """
    t_max, n = i_vals.shape[0] - 1, i_vals.shape[1]
    i_flat, j_flat, w_flat = i_vals.reshape(-1), j_vals.reshape(-1), w_vals.reshape(-1)
    step = n - 1
    buf, scratch = np.empty(2 * min(t_max, n)), np.empty(2 * min(t_max, n))
    for s in range(1, t_max + n):
        t_lo, t_hi = max(1, s - step), min(t_max, s)
        lo, hi = s + t_lo * step, s + t_hi * step + 1
        size = t_hi - t_lo + 1
        d = buf[:size]
        log_i = i_flat[lo - n:hi - n:step]
        np.subtract(log_i, j_flat[lo - 1:hi - 1:step], out=d)
        if t_hi == s:
            d[-1] = log_i[-1] - w_flat[s * n]
        _update_step(buf[:2 * size], scratch[:2 * size], w_flat[lo:hi:step],
                     i_flat[lo:hi:step], j_flat[lo:hi:step])


def stationary_cocycle(
    field: WeightField, rho: RhoParam, rect, rng: Rng
) -> CocycleGrid:
    """Build a stationary cocycle grid on rect = (k_lo, k_hi, t_max).

    The bottom row I(0) is drawn i.i.d. inverse-gamma with shape
    alpha - rho from rng; each higher level applies the update map driven
    by the corresponding weight-field row.
    """
    k_lo, k_hi, t_max = (int(r) for r in rect)
    if rho.alpha != field.alpha:
        raise ValueError("rho and field must share one alpha")
    margin = _margin(rho.alpha, rho.rho)
    if k_lo + margin >= k_hi:
        raise ValueError(
            f"rectangle too narrow: burn-in margin {margin} exhausts [{k_lo}, {k_hi}]"
        )
    log_i0 = ig_window(rng, rho.alpha - rho.rho, k_lo, k_hi).values
    i_vals, j_vals, w_vals = _evolve(field, log_i0, k_lo, k_hi, t_max)
    return CocycleGrid(
        i_vals=i_vals,
        j_vals=j_vals,
        w_vals=w_vals,
        rho=rho,
        k_lo=k_lo,
        bulk_k_lo=k_lo + margin,
    )


def parallel_chain(
    field: WeightField, rhos, rect, rng: Rng
) -> list[CocycleGrid]:
    """Jointly coupled stationary grids for two or more directions.

    The RhoParams in rhos must be strictly decreasing.  The bottom rows are
    drawn from the joint stationary law of the simultaneous update chain
    (the diagonal of the triangular array over independent inverse-gamma
    inputs), and every component is then evolved with the same field rows.
    """
    k_lo, k_hi, t_max = (int(r) for r in rect)
    if len(rhos) < 2:
        raise ValueError("need at least two rhos")
    for a, b in zip(rhos, rhos[1:]):
        if not b.rho < a.rho:
            raise ValueError("rhos must be strictly decreasing")
        if a.alpha != field.alpha or b.alpha != field.alpha:
            raise ValueError("rhos and field must share one alpha")
    alpha = field.alpha
    margin = max(_margin(alpha, r.rho) for r in rhos)
    n_comp = len(rhos)
    # The triangular-array construction wants components with strictly
    # increasing Cesaro means, i.e. increasing rho; build in that order
    # and return grids in the caller's order.
    order = sorted(range(n_comp), key=lambda i: rhos[i].rho)
    lams = [alpha - rhos[i].rho for i in order]
    pre = k_lo - chain_reach(alpha, [r.rho for r in rhos])
    tri = build_triangular(SeqTuple(tuple(
        ig_window(rng.spawn(idx + 1), lam, pre, k_hi) for idx, lam in enumerate(lams)
    )))
    diag = [tri.x_cells[i, i] for i in range(1, n_comp + 1)]
    # build_triangular restricts every cell to one common range.
    lo = max(k_lo - margin, diag[0].lo)
    if lo >= k_hi:
        raise ValueError("rectangle too narrow for the joint bottom-row draw")
    grids: list[CocycleGrid] = [None] * n_comp  # type: ignore[list-item]
    w_rows = _weight_rows(field, lo, k_hi, t_max)
    for pos, idx in enumerate(order):
        i0 = diag[pos].restrict(lo, k_hi).values
        i_vals, j_vals, w_vals = _evolve(field, i0, lo, k_hi, t_max, w_rows)
        grids[idx] = CocycleGrid(
            i_vals=i_vals,
            j_vals=j_vals,
            w_vals=w_vals,
            rho=rhos[idx],
            k_lo=lo,
            bulk_k_lo=k_lo,
        )
    return grids


def chain_reach(alpha: float, rhos) -> int:
    """Sites left of k_lo that parallel_chain draws for two or more rhos.

    The widest burn-in margin, then room for the joint bottom-row draw:
    the burn-ins build_triangular spends on inputs in increasing rho.
    """
    margin = max(_margin(alpha, r) for r in rhos)
    return margin + triangular_reach([-digamma(alpha - r) for r in sorted(rhos)]) + 1


def busemann_ratio_estimate(
    field: WeightField, x, y, d: Direction, depth: int
) -> float:
    """Busemann estimate log Z_{x_l, y} - log Z_{x_l, x}.

    The starting point x_l sits near -depth * xi from the coordinatewise
    minimum of x and y, so both endpoints are reachable.  Both partition
    functions come from one table on the block from x_l to the
    coordinatewise maximum of x and y; a table entry depends only on the
    weights below and left of it, so each equals its own log_partition.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    x, y = _check_point(x), _check_point(y)
    base = (min(x[0], y[0]), min(x[1], y[1]))
    a = round(depth * d.xi1)
    x_l = (base[0] - a, base[1] - (depth - a))
    shape = (max(x[0], y[0]) - x_l[0] + 1, max(x[1], y[1]) - x_l[1] + 1)
    logz = _log_partition_table(field.log_weight_block(x_l, shape), False)
    return (float(logz[y[0] - x_l[0], y[1] - x_l[1]])
            - float(logz[x[0] - x_l[0], x[1] - x_l[1]]))


def eternal_from_cocycle(grid: CocycleGrid, base) -> EternalSolution:
    """Eternal solution log Z(x) = B(base, x) on the bulk of the grid.

    Horizontal increments of B are log I, vertical increments log J; path
    independence is the additivity of the cocycle.  The recursion
    Z(x) = W_x (Z(x - e1) + Z(x - e2)) then holds at interior sites by
    the recovery identity.
    """
    bk, bt = int(base[0]), int(base[1])
    k0, t0 = grid.bulk_k_lo, 1
    if not (k0 <= bk <= grid.k_hi and t0 <= bt <= grid.t_max):
        raise ValueError(f"base {base!r} outside bulk")
    c0 = k0 - grid.k_lo
    i_blk = grid.i_vals[t0:, c0:]
    j_blk = grid.j_vals[t0:, c0:]
    n_t, n_k = i_blk.shape
    log_z = np.empty((n_t, n_k))
    rb, cb = bt - t0, bk - k0
    # Base row via horizontal increments, then columns via vertical ones.
    row = np.concatenate(([0.0], np.cumsum(i_blk[rb, cb + 1 :])))
    row_left = -np.cumsum(i_blk[rb, cb:0:-1])[::-1] if cb > 0 else np.empty(0)
    log_z[rb] = np.concatenate((row_left, row))
    for r in range(rb + 1, n_t):
        log_z[r] = log_z[r - 1] + j_blk[r]
    for r in range(rb - 1, -1, -1):
        log_z[r] = log_z[r + 1] - j_blk[r + 1]
    return EternalSolution(base=(bk, bt), k0=k0, t0=t0, log_z=log_z)
