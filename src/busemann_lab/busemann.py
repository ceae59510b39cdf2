"""Stationary cocycles on the lattice and their consequences.

A cocycle grid holds the exponentiated horizontal and vertical increments
I and J of a stationary cocycle on a rectangle, built by drawing the
bottom row from the stationary law and evolving upward with the update
map driven by the weight field.  stationary_blocks yields the same sites
in blocks, for a pass that need not hold the grid.  From a grid one
obtains eternal solutions of the discrete stochastic heat recursion;
independent of grids, Busemann values are estimated by
partition-function ratios from deep starting points.
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
    "DiagonalBlock",
    "RowBlock",
    "stationary_cocycle",
    "stationary_blocks",
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
class RowBlock:
    """Rows t0.. of a cocycle grid on rows 0..t_max, as views of its I, J
    and W arrays from row t0 - 1: line r holds row t0 - 1 + r, site
    (t, k) at column k.

    As in a DiagonalBlock, lines 1.. hold the block's sites and line 0
    the sites they read.  bulk(c) gives the sites with t >= 1 and k >= c
    as the columns of lines 1.. and a mask on them that broadcasts;
    neighbours() gives the columns of lines 1.. whose additivity
    neighbours I(t - 1, k) and J(t, k - 1) the block holds, which cover
    bulk(1)'s, and those neighbours aligned with them; top(c, every)
    indexes lines 1.. at every every-th site of row t_max from k = c on.
    """

    i: np.ndarray
    j: np.ndarray
    w: np.ndarray
    t0: int
    t_max: int

    def bulk(self, c: int):
        return slice(c, None), True

    def neighbours(self):
        return slice(1, None), self.i[:-1, 1:], self.j[1:, :-1]

    def top(self, c: int, every: int = 1):
        if self.t0 + self.i.shape[0] - 2 < self.t_max:
            return np.zeros(0, int), np.zeros(0, int)
        return self.i.shape[0] - 2, slice(c, None, every)


@dataclass(frozen=True)
class DiagonalBlock:
    """Anti-diagonals t + k = s0.. of a cocycle grid on n columns and rows
    0..t_max, diagonal-major, with RowBlock's methods.

    Line r >= 1 holds diagonal s = s0 + r - 1 and line 0 diagonal s0 - 1:
    log I, log J and log W at its sites (t, k = s - t), column p holding
    t = lo + p for lo = max(0, s - n + 1) up to t = min(s, t_max); the
    columns past them hold no site.  Sites on row 0 carry the bottom row's
    I, and NaN for J and W.  A block lies on one side of s = n, so
    I(t - 1, k) and J(t, k - 1) of the site in line r, column p sit in
    line r - 1 at columns p - 1 + shift and p + shift, with shift = 1 if
    s0 >= n and 0 otherwise.
    """

    i: np.ndarray
    j: np.ndarray
    w: np.ndarray
    s0: int
    n: int
    t_max: int

    @property
    def shift(self) -> int:
        return int(self.s0 >= self.n)

    def diagonals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """s, lo and the last row min(s, t_max) of lines 1.. of the block."""
        s = np.arange(self.s0, self.s0 + self.i.shape[0] - 1)
        return s, np.maximum(s - (self.n - 1), 0), np.minimum(s, self.t_max)

    def bulk(self, c: int):
        # Rows from max(lo, 1) to the diagonal's last, and k = s - lo - p
        # >= c; away from the grid's corners every line has the same range.
        s, lo, hi = self.diagonals()
        first, last = np.maximum(1 - lo, 0), np.minimum(hi, s - c) - lo
        cols = slice(int(first.min()), max(int(last.max()) + 1, 0))
        if (first == cols.start).all() and (last == cols.stop - 1).all():
            return cols, True
        p = np.arange(cols.start, cols.stop)
        return cols, (p >= first[:, None]) & (p <= last[:, None])

    def neighbours(self):
        a = 1 - self.shift
        return slice(a, a + self.i.shape[1] - 1), self.i[:-1, :-1], self.j[:-1, 1:]

    def top(self, c: int, every: int = 1):
        # Site (t_max, s - t_max) is column t_max - lo of diagonal s.
        s, lo, _ = self.diagonals()
        r = np.flatnonzero((s >= self.t_max + c) & ((s - self.t_max - c) % every == 0))
        return r, self.t_max - lo[r]


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
    otherwise they are drawn here, in blocks of rows, before the I and J
    grids exist.  A grid whose shorter side has at least _WAVEFRONT_MIN
    sites is swept by anti-diagonals (_sweep_diagonals), whose blocks are
    written into the grids one diagonal at a time; a smaller one runs row
    by row with update_raw.  Both give the same bits.
    """
    n = k_hi - k_lo + 1
    if w_vals is None:
        w_vals = _weight_rows(field, k_lo, k_hi, t_max)
    i_vals = np.full((t_max + 1, n), np.nan)
    j_vals = np.full((t_max + 1, n), np.nan)
    if min(t_max, n) < _WAVEFRONT_MIN:
        i_vals[0] = log_i0
        # Each row seeds the vertical increment at the left edge with the
        # weight there; its influence decays geometrically in k.
        for t in range(1, t_max + 1):
            j_vals[t], i_vals[t] = update_raw(w_vals[t], i_vals[t - 1], float(w_vals[t, 0]))
        return i_vals, j_vals, w_vals
    for block in _sweep_diagonals(field, log_i0, k_lo, t_max, w_vals):
        for r, (s, lo, hi) in enumerate(zip(*(v.tolist() for v in block.diagonals())), 1):
            # Sites (t, s - t) of the flat grid, t = lo..hi, a stride n - 1 apart.
            at = slice(s + lo * (n - 1), s + hi * (n - 1) + 1, n - 1)
            i_vals.reshape(-1)[at] = block.i[r, :hi - lo + 1]
            j_vals.reshape(-1)[at] = block.j[r, :hi - lo + 1]
    return i_vals, j_vals, w_vals


def _sweep_diagonals(field: WeightField, log_i0: np.ndarray, k_lo: int, t_max: int,
                     w_vals: np.ndarray | None = None):
    """The grid over log_i0 in DiagonalBlocks, computed, never held whole.

    Site (t, k) needs I(t - 1, k) and J(t, k - 1), which both lie on the
    anti-diagonal t + k = s - 1, so each anti-diagonal is one call of
    seqmaps' vector update step over its sites (Lamport's hyperplane
    method), and the values are the bits of update_raw's row loop.  The
    first site that diagonal s computes, (1, s - 1) or (s - n + 1, n - 1),
    reads I and J from columns 0 and 1 of diagonal s - 1, and each step
    reads two slices there; the site (s, 0) takes the weight seed
    instead.  A block reads the weights of its sites with t >= 1 from
    w_vals, rows as _weight_rows draws them, if given, and otherwise draws
    them by site key, so no site off the grid is drawn.  Its last
    diagonal moves to line 0 for the next block.  The three block buffers
    and the step's two buffers are allocated once, filled with NaN; a
    block's arrays are views of them, which the next block overwrites.
    """
    n = log_i0.shape[0]
    width = min(t_max + 1, n)
    rows = max(1, _CHUNK // width)
    # The weights are drawn in groups of half a block.  A draw of _CHUNK
    # keys allocates and frees about 4 MB of gamma-sampler temporaries,
    # which glibc's heap trimming can hand back to the system after every
    # draw, to be faulted in again by the next.  Measured in the steps of
    # perfbench's lattice-rows workload, in one process: the 6001 x 401
    # sweep took 36,800 page faults and 0.49 s in whole blocks, 2,000 and
    # 0.43 s in halves.
    group = max(1, _CHUNK // 2 // width)
    i_b, j_b, w_b = (np.full((rows + 1, width), np.nan) for _ in range(3))
    if w_vals is None:
        xy = np.empty((2, rows, width), np.int64)
    else:
        w_flat = w_vals.reshape(-1)
    buf, scratch = np.empty(2 * width), np.empty(2 * width)
    p = np.arange(width)
    # Blocks of max(1, _CHUNK // width) diagonals, as Rng.uniform_rows
    # sizes its blocks, none across s = n.
    s0 = 0
    while s0 < t_max + n:
        s1 = min(s0 + rows, n if s0 < n else t_max + n)
        block = DiagonalBlock(i_b[:s1 - s0 + 1], j_b[:s1 - s0 + 1], w_b[:s1 - s0 + 1],
                              s0, n, t_max)
        s, lo, hi = block.diagonals()
        lens = hi - lo + 1
        # Row 0 sites come first on diagonals s < n; the others take
        # their weights.
        a = 1 - block.shift
        if a:
            block.i[1:, 0] = log_i0[s0:s1]
            block.j[1:, 0] = block.w[1:, 0] = np.nan
        if w_vals is not None:
            # Sites (t, d - t) of the flat grid, a stride n - 1 apart.
            for r, (d, t0, t1) in enumerate(zip(s.tolist(), (lo + a).tolist(), hi.tolist()), 1):
                block.w[r, a:a + t1 - t0 + 1] = w_flat[d + t0 * (n - 1):d + t1 * (n - 1) + 1:n - 1]
        else:
            x = np.subtract((k_lo + s - lo)[:, None], p, out=xy[0, :s1 - s0])
            y = np.add(lo[:, None], p, out=xy[1, :s1 - s0])
            for r in range(0, s1 - s0, group):
                g, w_g = slice(r, r + group), block.w[1 + r:1 + r + group]
                if lens[g].min() == width:
                    w_g[:, a:] = field.log_weight_sites(x[g, a:], y[g, a:])
                else:
                    on = (p >= a) & (p < lens[g, None])
                    w_g[on] = field.log_weight_sites(x[g][on], y[g][on])
        i_f, j_f, w_f = (v.reshape(-1) for v in (block.i, block.j, block.w))
        for r, length in enumerate(lens.tolist(), 1):
            back, first, seeded = (r - 1) * width, r * width + a, s0 + r - 1 <= t_max
            m = length - a
            if m > 0:
                np.subtract(i_f[back:back + m - seeded], j_f[back + 1:back + m + 1 - seeded],
                            out=buf[:m - seeded])
                if seeded:
                    buf[m - 1] = i_f[back + m - 1] - w_f[first + m - 1]
                _update_step(buf[:2 * m], scratch[:2 * m], w_f[first:first + m],
                             i_f[first:first + m], j_f[first:first + m])
        yield block
        for v in (i_b, j_b, w_b):
            v[0] = v[s1 - s0]
        s0 = s1


def _row_blocks(i_vals: np.ndarray, j_vals: np.ndarray, w_vals: np.ndarray):
    """Full grids in RowBlocks of max(1, _CHUNK // n) rows, as views."""
    t_max, n = i_vals.shape[0] - 1, i_vals.shape[1]
    step = max(1, _CHUNK // n)
    for t0 in range(1, t_max + 1, step):
        rows = slice(t0 - 1, min(t0 + step, t_max + 1))
        yield RowBlock(i_vals[rows], j_vals[rows], w_vals[rows], t0, t_max)


def _bottom_row(field: WeightField, rho: RhoParam, rect, rng: Rng):
    """A stationary grid's rectangle, burn-in margin and bottom row."""
    k_lo, k_hi, t_max = (int(r) for r in rect)
    if rho.alpha != field.alpha:
        raise ValueError("rho and field must share one alpha")
    margin = _margin(rho.alpha, rho.rho)
    if k_lo + margin >= k_hi:
        raise ValueError(
            f"rectangle too narrow: burn-in margin {margin} exhausts [{k_lo}, {k_hi}]"
        )
    log_i0 = ig_window(rng, rho.alpha - rho.rho, k_lo, k_hi).values
    return k_lo, t_max, margin, log_i0


def stationary_cocycle(
    field: WeightField, rho: RhoParam, rect, rng: Rng
) -> CocycleGrid:
    """Build a stationary cocycle grid on rect = (k_lo, k_hi, t_max).

    The bottom row I(0) is drawn i.i.d. inverse-gamma with shape
    alpha - rho from rng; each higher level applies the update map driven
    by the corresponding weight-field row.
    """
    k_lo, t_max, margin, log_i0 = _bottom_row(field, rho, rect, rng)
    i_vals, j_vals, w_vals = _evolve(field, log_i0, k_lo, k_lo + log_i0.shape[0] - 1, t_max)
    return CocycleGrid(
        i_vals=i_vals,
        j_vals=j_vals,
        w_vals=w_vals,
        rho=rho,
        k_lo=k_lo,
        bulk_k_lo=k_lo + margin,
    )


def stationary_blocks(field: WeightField, rho: RhoParam, rect, rng: Rng):
    """stationary_cocycle's grid as an iterator of blocks, with the same
    draws and bits, for a pass that reads each site once: the
    DiagonalBlocks of a grid that _evolve sweeps by anti-diagonals, which
    is never held whole, or the RowBlocks of a smaller grid that _evolve
    builds row by row.  The bulk starts _margin(alpha, rho) columns from
    k_lo."""
    k_lo, t_max, _, log_i0 = _bottom_row(field, rho, rect, rng)
    n = log_i0.shape[0]
    if min(t_max, n) >= _WAVEFRONT_MIN:
        return _sweep_diagonals(field, log_i0, k_lo, t_max)
    return _row_blocks(*_evolve(field, log_i0, k_lo, k_lo + n - 1, t_max))


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
    del tri  # only the diagonal is used, and the rest outweighs the grids
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
