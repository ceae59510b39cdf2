"""Lattice weight fields, log-domain partition functions, polymer path
marginals, and the inverse-gamma shape function with its direction
parametrization.

Lattice points are pairs of integers (x1, x2); the level of a point is
x1 + x2 and admissible polymer steps are e1 = (1, 0) and e2 = (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special_functions import (
    digamma,
    gamma_from_keys,
    keys_for_sites,
    trigamma,
)

__all__ = [
    "WeightField",
    "ConstantField",
    "Direction",
    "RhoParam",
    "E1_AXIS",
    "E2_AXIS",
    "weight",
    "log_partition",
    "finite_marginal",
    "rho_to_xi",
    "xi_to_rho",
    "shape_function",
]

# Sentinels for the two axis rays; interior directions use Direction.
E1_AXIS = "e1"
E2_AXIS = "e2"

_COORD_LIMIT = 2 ** 31


def _check_point(x) -> tuple[int, int]:
    x1, x2 = int(x[0]), int(x[1])
    if not (-_COORD_LIMIT <= x1 < _COORD_LIMIT and -_COORD_LIMIT <= x2 < _COORD_LIMIT):
        raise ValueError(f"lattice coordinates must fit in signed 32 bits: {x!r}")
    return x1, x2


@dataclass(frozen=True)
class Direction:
    """Interior direction xi = (xi1, 1 - xi1) with 0 < xi1 < 1."""

    xi1: float

    def __post_init__(self):
        if not (0.0 < self.xi1 < 1.0):
            raise ValueError(f"xi1 must lie strictly between 0 and 1, got {self.xi1!r}")

    @property
    def xi2(self) -> float:
        return 1.0 - self.xi1


@dataclass(frozen=True)
class RhoParam:
    """Stationary boundary parameter rho in (0, alpha)."""

    rho: float
    alpha: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and 0.0 < self.rho < self.alpha):
            raise ValueError(f"need 0 < rho < alpha, got rho={self.rho!r}, alpha={self.alpha!r}")


class WeightField:
    """Deterministic seeded field of i.i.d. inverse-gamma weights.

    weight(x) is a pure function of (master_seed, stream_id, x); values are
    produced and stored in the log domain.
    """

    def __init__(self, alpha: float, master_seed: int, stream_id: int = 0):
        if alpha <= 0.0:
            raise ValueError("alpha must be positive")
        self.alpha = float(alpha)
        self.master_seed = int(master_seed)
        self.stream_id = int(stream_id)

    def log_weight(self, x) -> float:
        x1, x2 = _check_point(x)
        keys = keys_for_sites(self.master_seed, self.stream_id, x1, x2)
        return float(-np.log(gamma_from_keys(keys, self.alpha))[0])

    def log_weight_block(self, origin, shape) -> np.ndarray:
        """Log-weights on the block origin + [0, shape0) x [0, shape1)."""
        x1, x2 = _check_point(origin)
        n1, n2 = int(shape[0]), int(shape[1])
        xs = x1 + np.repeat(np.arange(n1), n2)
        ys = x2 + np.tile(np.arange(n2), n1)
        keys = keys_for_sites(self.master_seed, self.stream_id, xs, ys)
        return -np.log(gamma_from_keys(keys, self.alpha)).reshape(n1, n2)

    def log_weight_row(self, k_lo: int, k_hi: int, t: int) -> np.ndarray:
        """Log-weights at sites (k, t) for k in [k_lo, k_hi]."""
        ks = np.arange(k_lo, k_hi + 1)
        keys = keys_for_sites(self.master_seed, self.stream_id, ks, t)
        return -np.log(gamma_from_keys(keys, self.alpha))


class ConstantField:
    """Field with one forced log-weight everywhere (for brute-force tests)."""

    def __init__(self, log_value: float = 0.0):
        self.log_value = float(log_value)

    def log_weight(self, x) -> float:
        _check_point(x)
        return self.log_value

    def log_weight_block(self, origin, shape) -> np.ndarray:
        _check_point(origin)
        return np.full((int(shape[0]), int(shape[1])), self.log_value)

    def log_weight_row(self, k_lo: int, k_hi: int, t: int) -> np.ndarray:
        return np.full(k_hi - k_lo + 1, self.log_value)


def weight(field, x) -> float:
    """Log-weight log W_x of the field at lattice point x."""
    return field.log_weight(x)


def log_partition(field, u, v, include_initial: bool = False) -> float:
    """log Z_{u,v} summed over up-right paths from u to v.

    By default the weight at the initial point u is excluded, so that
    log Z_{v,v} = 0; include_initial=True switches to the convention where
    every visited site, u included, contributes its weight.
    """
    u1, u2 = _check_point(u)
    v1, v2 = _check_point(v)
    m, n = v1 - u1, v2 - u2
    if m < 0 or n < 0:
        raise ValueError(f"unordered endpoints: {u!r} !<= {v!r}")
    w = field.log_weight_block((u1, u2), (m + 1, n + 1))
    return float(_log_partition_table(w, include_initial)[m, n])


def _log_partition_table(w: np.ndarray, include_initial: bool) -> np.ndarray:
    """log Z from the block's corner [0, 0] to every site of the block.

    w holds the block's log-weights; the anti-diagonal recursion and the
    include_initial convention are those of log_partition.
    """
    m, n = w.shape[0] - 1, w.shape[1] - 1
    # logz[i + 1, j + 1] is log Z to site (i, j); the -inf border stands in
    # for the missing neighbours of the block's edges.  The interior starts
    # as the weights, and each anti-diagonal reads its weights before it
    # overwrites them.  In the flat table diagonal i + j = d is a slice of
    # stride n + 1, with the left neighbour (i - 1, j) at offset -(n + 2)
    # and the lower one (i, j - 1) at offset -1.
    logz = np.full((m + 2, n + 2), -np.inf)
    logz[1:, 1:] = w
    logz[1, 1] = w[0, 0] if include_initial else 0.0
    flat = logz.reshape(-1)
    row, step = n + 2, n + 1
    for d in range(1, m + n + 1):
        lo = d + 2 + (max(0, d - n) + 1) * step
        hi = d + 2 + (min(m, d) + 1) * step + 1
        flat[lo:hi:step] = (
            np.logaddexp(flat[lo - row:hi - row:step], flat[lo - 1:hi - 1:step])
            + flat[lo:hi:step]
        )
    return logz[1:, 1:]


def finite_marginal(field, u, v, sites) -> float:
    """Probability that the polymer path from u to v passes through sites.

    Sites must be weakly between u and v and listed on strictly increasing
    levels; the probability is a ratio of products of partition functions,
    evaluated in the log domain.
    """
    pts = [_check_point(u)] + [_check_point(s) for s in sites] + [_check_point(v)]
    for a, b in zip(pts, pts[1:]):
        if not (a[0] <= b[0] and a[1] <= b[1]):
            raise ValueError(f"incompatible sites: {a!r} !<= {b!r}")
    for s, t in zip(pts[1:-1], pts[2:]):
        if s != t and (s[0] + s[1]) >= (t[0] + t[1]) and t != pts[-1]:
            raise ValueError(f"incompatible sites: levels must increase, {s!r} vs {t!r}")
    log_num = sum(log_partition(field, a, b) for a, b in zip(pts, pts[1:]))
    log_den = log_partition(field, pts[0], pts[-1])
    return float(math.exp(log_num - log_den))


def rho_to_xi(p: RhoParam) -> Direction:
    """Direction xi(rho) = (psi_1(rho), psi_1(alpha - rho)) normalized."""
    a = trigamma(p.rho)
    b = trigamma(p.alpha - p.rho)
    return Direction(xi1=a / (a + b))


def xi_to_rho(alpha: float, d: Direction) -> RhoParam:
    """Solve xi1 psi_1(alpha - rho) = xi2 psi_1(rho) by bisection.

    psi_1 is strictly decreasing, so the defect is strictly increasing in
    rho and the bracket (eps, alpha - eps) always contains the root.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    xi1, xi2 = d.xi1, d.xi2

    def defect(rho: float) -> float:
        return xi1 * trigamma(alpha - rho) - xi2 * trigamma(rho)

    lo, hi = 1e-9, alpha - 1e-9
    flo = defect(lo)
    if flo > 0.0:  # root pushed against the e1 end; xi1 extremely close to 1
        return RhoParam(rho=lo, alpha=alpha)
    if defect(hi) < 0.0:
        return RhoParam(rho=hi, alpha=alpha)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if defect(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return RhoParam(rho=0.5 * (lo + hi), alpha=alpha)


def shape_function(alpha: float, d, scale: float = 1.0) -> float:
    """Limit shape Lambda(scale * xi), positively homogeneous of degree 1.

    d may be an interior Direction or one of the axis sentinels E1_AXIS,
    E2_AXIS, where the value is -scale * psi_0(alpha).
    """
    if scale < 0.0:
        raise ValueError("scale must be nonnegative")
    if scale == 0.0:
        return 0.0
    if d in (E1_AXIS, E2_AXIS):
        return -scale * digamma(alpha)
    rho = xi_to_rho(alpha, d).rho
    return scale * (-d.xi1 * digamma(alpha - rho) - d.xi2 * digamma(rho))
