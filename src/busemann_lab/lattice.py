"""Lattice weight fields, log-domain partition functions, and the
characteristic direction xi(rho) of the stationary parameter rho.

Lattice points are pairs of integers (x1, x2); the level of a point is
x1 + x2 and admissible polymer steps are e1 = (1, 0) and e2 = (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .special_functions import gamma_from_keys, keys_for_sites, trigamma

__all__ = [
    "WeightField",
    "Direction",
    "RhoParam",
    "log_partition",
    "rho_to_xi",
]

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

    log_weight(x) is a pure function of (master_seed, stream_id, x);
    values are produced and stored in the log domain.
    """

    def __init__(self, alpha: float, master_seed: int, stream_id: int = 0):
        if alpha <= 0.0:
            raise ValueError("alpha must be positive")
        self.alpha = float(alpha)
        self.master_seed = int(master_seed)
        self.stream_id = int(stream_id)

    def log_weight_sites(self, x, y) -> np.ndarray:
        """Log-weights at the sites (x, y) of coordinate arrays that broadcast."""
        keys = keys_for_sites(self.master_seed, self.stream_id, x, y)
        return -np.log(gamma_from_keys(keys.reshape(-1), self.alpha)).reshape(keys.shape)

    def log_weight(self, x) -> float:
        return float(self.log_weight_sites(*_check_point(x))[0])

    def log_weight_block(self, origin, shape) -> np.ndarray:
        """Log-weights on the block origin + [0, shape0) x [0, shape1)."""
        x1, x2 = _check_point(origin)
        return self.log_weight_sites(x1 + np.arange(int(shape[0]))[:, None],
                                     x2 + np.arange(int(shape[1]))[None, :])

    def log_weight_row(self, k_lo: int, k_hi: int, t: int) -> np.ndarray:
        """Log-weights at sites (k, t) for k in [k_lo, k_hi]."""
        return self.log_weight_sites(np.arange(k_lo, k_hi + 1), t)


def log_partition(field, u, v) -> float:
    """log Z_{u,v} summed over up-right paths from u to v.

    The weight at the initial point u is excluded, so that log Z_{v,v} = 0.
    """
    u1, u2 = _check_point(u)
    v1, v2 = _check_point(v)
    m, n = v1 - u1, v2 - u2
    if m < 0 or n < 0:
        raise ValueError(f"unordered endpoints: {u!r} !<= {v!r}")
    w = field.log_weight_block((u1, u2), (m + 1, n + 1))
    return float(_log_partition_table(w, False)[m, n])


def _log_partition_table(w: np.ndarray, include_initial: bool) -> np.ndarray:
    """log Z from the block's corner [0, 0] to every site of the block.

    w holds the block's log-weights.  With include_initial the corner's
    weight counts too, as in the first column of grsk's arrays;
    log_partition leaves it out.
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


def rho_to_xi(p: RhoParam) -> Direction:
    """Direction xi(rho) = (psi_1(rho), psi_1(alpha - rho)) normalized."""
    a = trigamma(p.rho)
    b = trigamma(p.alpha - p.rho)
    return Direction(xi1=a / (a + b))
