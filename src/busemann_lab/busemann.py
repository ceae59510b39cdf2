"""Stationary cocycles on the lattice and their consequences.

A cocycle grid holds the exponentiated horizontal and vertical increments
I and J of a stationary cocycle on a rectangle, built by drawing the
bottom row from the stationary law and evolving upward with the update
map driven by the weight field.  From a grid one obtains eternal
solutions of the discrete stochastic heat recursion and the backward
polymer walk; independent of grids, Busemann values are estimated by
partition-function ratios from deep starting points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    Direction,
    RhoParam,
    WeightField,
    _check_point,
    _log_partition_table,
    rho_to_xi,
)
from .seqmaps import LogSeqWindow, SeqTuple, update_raw
from .special_functions import Rng, _libm, digamma, sample_inverse_gamma
from .grsk import build_triangular

__all__ = [
    "CocycleGrid",
    "EternalSolution",
    "stationary_cocycle",
    "parallel_chain",
    "busemann_ratio_estimate",
    "eternal_from_cocycle",
    "gibbs_backward_walk",
]

_BURN_IN_RATE = 40.0
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

    def _col(self, k: int) -> int:
        if not (self.k_lo <= k <= self.k_hi):
            raise ValueError(f"k={k} outside [{self.k_lo}, {self.k_hi}]")
        return k - self.k_lo

    def log_i(self, k: int, t: int) -> float:
        return float(self.i_vals[t, self._col(k)])

    def log_j(self, k: int, t: int) -> float:
        return float(self.j_vals[t, self._col(k)])

    def log_w(self, k: int, t: int) -> float:
        return float(self.w_vals[t, self._col(k)])

    def bulk(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(I, J, W) log-values on the bulk, shape (t_max, width)."""
        c = self.bulk_k_lo - self.k_lo
        return self.i_vals[1:, c:], self.j_vals[1:, c:], self.w_vals[1:, c:]


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

    def value(self, k: int, t: int) -> float:
        return float(self.log_z[t - self.t0, k - self.k0])


def _margin(alpha: float, rho: float) -> int:
    gap = digamma(alpha) - digamma(alpha - rho)
    return math.ceil(_BURN_IN_RATE / gap)


def _weight_rows(field: WeightField, k_lo: int, k_hi: int, t_max: int) -> np.ndarray:
    """Log-weights of field rows 1..t_max on [k_lo, k_hi]; row 0 is NaN."""
    w_vals = np.full((t_max + 1, k_hi - k_lo + 1), np.nan)
    for t in range(1, t_max + 1):
        w_vals[t] = field.log_weight_row(k_lo, k_hi, t)
    return w_vals


def _evolve(
    field: WeightField, log_i0: np.ndarray, k_lo: int, k_hi: int, t_max: int,
    w_vals: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the update recursion bottom-to-top over field rows 1..t_max.

    w_vals, if given, holds those rows as ``_weight_rows`` draws them.
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
            j_vals[t], i_vals[t], _ = update_raw(
                w_vals[t], i_vals[t - 1], float(w_vals[t, 0])
            )
    return i_vals, j_vals, w_vals


def _sweep_diagonals(i_vals: np.ndarray, j_vals: np.ndarray, w_vals: np.ndarray) -> None:
    """Rows 1.. of i_vals and j_vals as _evolve's row loop fills them, in place.

    Site (t, k) needs I(t - 1, k) and J(t, k - 1), which both lie on the
    anti-diagonal t + k = s - 1, so each anti-diagonal is one vector step
    (Lamport's hyperplane method).  In the flat C-order arrays diagonal s
    is a slice of stride n - 1, with I(t - 1, k) at offset -n and
    J(t, k - 1) at offset -1; the site (s, 0) takes the weight seed
    instead.  Every element goes through the operations of update_raw in
    its order, with libm's exp and log1p, so the values are the same bits.
    """
    t_max, n = i_vals.shape[0] - 1, i_vals.shape[1]
    i_flat, j_flat, w_flat = i_vals.reshape(-1), j_vals.reshape(-1), w_vals.reshape(-1)
    step = n - 1
    buf = np.empty(2 * min(t_max, n))
    for s in range(1, t_max + n):
        t_lo, t_hi = max(1, s - step), min(t_max, s)
        lo, hi = s + t_lo * step, s + t_hi * step + 1
        size = t_hi - t_lo + 1
        both, d = buf[:2 * size], buf[:size]
        log_i = i_flat[lo - n:hi - n:step]
        np.subtract(log_i, j_flat[lo - 1:hi - 1:step], out=d)
        if t_hi == s:
            d[-1] = log_i[-1] - w_flat[s * n]
        np.negative(d, out=both[size:])
        np.minimum(both, 700.0, out=both)
        out = _libm(np.log1p, _libm(np.exp, both))
        w = w_flat[lo:hi:step]
        np.add(out[:size], w, out=i_flat[lo:hi:step])
        np.add(out[size:], w, out=j_flat[lo:hi:step])


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
    n = k_hi - k_lo + 1
    log_i0 = np.log(sample_inverse_gamma(rng, rho.alpha - rho.rho, size=n))
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
    """Jointly coupled stationary grids for several directions.

    rhos must be strictly decreasing.  The bottom rows are drawn from the
    joint stationary law of the simultaneous update chain (the diagonal of
    the triangular array over independent inverse-gamma inputs), and every
    component is then evolved with the same field rows.
    """
    k_lo, k_hi, t_max = (int(r) for r in rect)
    rhos = [RhoParam(r.rho, r.alpha) if isinstance(r, RhoParam) else
            RhoParam(float(r), field.alpha) for r in rhos]
    for a, b in zip(rhos, rhos[1:]):
        if not b.rho < a.rho:
            raise ValueError("rhos must be strictly decreasing")
        if a.alpha != field.alpha or b.alpha != field.alpha:
            raise ValueError("rhos and field must share one alpha")
    alpha = field.alpha
    margin = max(_margin(alpha, r.rho) for r in rhos)
    n_comp = len(rhos)
    if n_comp == 1:
        grid = stationary_cocycle(field, rhos[0], rect, rng)
        return [grid]
    # The triangular-array construction wants components with strictly
    # increasing Cesaro means, i.e. increasing rho; build in that order
    # and return grids in the caller's order.
    order = sorted(range(n_comp), key=lambda i: rhos[i].rho)
    lams = [alpha - rhos[i].rho for i in order]
    # Extra left margin so the array construction has room for its own
    # burn-ins before the requested rectangle starts: component i of the
    # diagonal consumes one burn-in per update in its chain.
    consumed = 0
    for i in range(1, n_comp):
        total = sum(
            math.ceil(_BURN_IN_RATE / (digamma(lams[j]) - digamma(lams[i])))
            for j in range(i)
        )
        consumed = max(consumed, total)
    pre = k_lo - margin - consumed - 1
    length = k_hi - pre
    wins = []
    for idx, lam in enumerate(lams):
        vals = np.log(sample_inverse_gamma(rng.spawn(idx + 1), lam, size=length + 1))
        wins.append(LogSeqWindow(pre, k_hi, vals, cesaro_hint=-digamma(lam)))
    tri = build_triangular(SeqTuple(tuple(wins)))
    diag = [tri.x_cells[i, i] for i in range(1, n_comp + 1)]
    lo = k_lo - margin
    if max(w.lo for w in diag) > lo:
        lo = max(w.lo for w in diag)
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


def gibbs_backward_walk(
    grid: CocycleGrid, v, steps: int, rng: Rng
) -> list[tuple[int, int]]:
    """Sample the backward polymer walk from v inside the grid bulk.

    Each step moves to x - e1 with probability W_x / I_x and to x - e2
    with probability W_x / J_x; the two sum to 1 by recovery.
    """
    k, t = int(v[0]), int(v[1])
    path = [(k, t)]
    for step in range(int(steps)):
        if k <= grid.bulk_k_lo or t <= 1:
            raise ValueError(
                f"backward walk left the bulk at {(k, t)} after {step} steps"
            )
        p_e1 = math.exp(grid.log_w(k, t) - grid.log_i(k, t))
        if rng.uniform() < p_e1:
            k -= 1
        else:
            t -= 1
        path.append((k, t))
    return path
