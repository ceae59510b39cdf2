"""Competition-interface couplings.

One shared field of uniforms U_x drives all polymer path couplings: the
finite-volume walk toward a target v follows the quenched transition
probabilities of the polymer measure, and the semi-infinite walk follows
the Busemann transition kernel of a stationary cocycle grid.  The random
direction separating e1-moves from e2-moves at a site is bracketed on a
grid of directions, and its annealed law is estimated over fresh
replicas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .busemann import CocycleGrid, _margin
from .lattice import (
    Direction,
    RhoParam,
    WeightField,
    _log_partition_table,
    rho_to_xi,
)
from .seqmaps import update_raw
from .special_functions import (
    Rng,
    _as_u64,
    _event_keys,
    gamma_from_keys,
    keys_for_sites,
    uniform_from_keys,
)

__all__ = [
    "UniformField",
    "WalkSpec",
    "DirectionBracket",
    "finite_coupled_walk",
    "eta_star",
    "semiinf_walk",
    "eta_cdf_estimate",
    "xi_star_cdf_check",
]


class UniformField:
    """Deterministic seeded field of i.i.d. uniforms on (0, 1)."""

    def __init__(self, master_seed: int, stream_id: int = 0):
        self.master_seed = int(master_seed)
        self.stream_id = int(stream_id)

    def uniform(self, x) -> float:
        keys = keys_for_sites(self.master_seed, self.stream_id, int(x[0]), int(x[1]))
        return float(uniform_from_keys(keys)[0])


@dataclass(frozen=True)
class WalkSpec:
    """Root and steering of a semi-infinite backward walk.

    Exactly one of direction (with the grid supplying its rho) or target
    applies; tiebreaker picks the step at an exact tie U_x = pi.
    """

    root: tuple[int, int]
    direction: Direction | None = None
    tiebreaker: str = "e1"

    def __post_init__(self):
        if self.tiebreaker not in ("e1", "e2"):
            raise ValueError("tiebreaker must be 'e1' or 'e2'")


def finite_coupled_walk(field: WeightField, uf: UniformField, u, v) -> list:
    """Up-right walk from u to v driven by the shared uniforms.

    At x the walk steps to x + e1 when U_x < pi_v(x, x + e1) =
    W_{x+e1} Z_{x+e1, v} / Z_{x, v} and to x + e2 otherwise; walks with
    different starts that meet continue identically.
    """
    u1, u2 = int(u[0]), int(u[1])
    v1, v2 = int(v[0]), int(v[1])
    m, n = v1 - u1, v2 - u2
    if m < 0 or n < 0 or (m == 0 and n == 0):
        raise ValueError(f"unordered endpoints: {u!r} !< {v!r}")
    w = field.log_weight_block((u1, u2), (m + 1, n + 1))
    # logz[x] = log Z_{x, v} - log W_v + log W_x: the forward table of
    # the reversed block, read back in the block's own orientation.
    logz = _log_partition_table(w[::-1, ::-1], False)[::-1, ::-1]
    path = [(u1, u2)]
    i, j = 0, 0
    while (i, j) != (m, n):
        if i == m:
            j += 1
        elif j == n:
            i += 1
        else:
            p_e1 = math.exp(logz[i + 1, j] - logz[i, j] + w[i, j])
            if uf.uniform((u1 + i, u2 + j)) < p_e1:
                i += 1
            else:
                j += 1
        path.append((u1 + i, u2 + j))
    return path


@dataclass(frozen=True)
class DirectionBracket:
    """Bracket [lo, hi] of directions, ordered from the e2 side to e1.

    lo corresponds to rho_hi and hi to rho_lo; bracketed is False when
    the driving uniform fell outside the grid's range of kernel values
    and the widest available bracket is returned.
    """

    lo: Direction
    hi: Direction
    rho_lo: float
    rho_hi: float
    bracketed: bool


def _pi_e1(grid: CocycleGrid, x) -> float:
    """Backward kernel pi(x, x - e1) = W_x / I_x from the grid."""
    k, t = int(x[0]), int(x[1])
    return math.exp(grid.log_w(k, t) - grid.log_i(k, t))


def eta_star(grids, uf: UniformField, x) -> DirectionBracket:
    """Bracket the separating direction at x on a family of grids.

    grids must be jointly coupled stationary grids sorted by strictly
    increasing rho (their kernels pi(x, x - e1) are then nonincreasing).
    The separating direction lies between the last grid direction whose
    kernel is >= U_x and the first whose kernel is <= U_x.
    """
    grids = list(grids)
    if len(grids) < 2:
        raise ValueError("need at least two grid directions")
    rhos = [g.rho.rho for g in grids]
    if any(b <= a for a, b in zip(rhos, rhos[1:])):
        raise ValueError("grids must be sorted by strictly increasing rho")
    pis = [_pi_e1(g, x) for g in grids]
    if any(b > a + 1e-12 for a, b in zip(pis, pis[1:])):
        raise ValueError("kernel values are not monotone; grids are not coupled")
    u = uf.uniform(x)
    alpha = grids[0].rho.alpha
    below = [i for i, p in enumerate(pis) if p >= u]
    above = [i for i, p in enumerate(pis) if p <= u]
    bracketed = bool(below) and bool(above)
    i_lo = max(below) if below else 0  # largest rho with pi >= u
    i_hi = min(above) if above else len(grids) - 1
    rho_a, rho_b = rhos[i_hi], rhos[i_lo]
    if not bracketed:
        rho_a, rho_b = rhos[0], rhos[-1]
    return DirectionBracket(
        lo=rho_to_xi(RhoParam(max(rho_a, rho_b), alpha)),
        hi=rho_to_xi(RhoParam(min(rho_a, rho_b), alpha)),
        rho_lo=min(rho_a, rho_b),
        rho_hi=max(rho_a, rho_b),
        bracketed=bracketed,
    )


def semiinf_walk(
    grid: CocycleGrid, uf: UniformField, spec: WalkSpec, steps: int
) -> list:
    """Backward walk from the root following the grid's Busemann kernel.

    Steps to x - e1 when U_x < pi(x, x - e1), to x - e2 when U_x is
    larger, and per the tiebreaker at exact equality.
    """
    k, t = int(spec.root[0]), int(spec.root[1])
    path = [(k, t)]
    for step in range(int(steps)):
        if k <= grid.bulk_k_lo or t <= 1:
            raise ValueError(
                f"backward walk left the bulk at {(k, t)} after {step} steps"
            )
        p = _pi_e1(grid, (k, t))
        u = uf.uniform((k, t))
        if u < p or (u == p and spec.tiebreaker == "e1"):
            k -= 1
        else:
            t -= 1
        path.append((k, t))
    return path


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
    array call each; only the row recursion runs per replica.
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
        ratios = np.empty(r.size)
        for b in range(r.size):
            _, log_it, _ = update_raw(log_w[b], log_i0[b], log_w[b, 0])
            ratios[b] = math.exp(log_w[b, width] - log_it[width])
        if indicator:
            u = uniform_from_keys(_event_keys(seed, sids + np.uint64(2), 0, 1)).ravel()
            ratios = np.where(u <= ratios, 1.0, 0.0)
        out[start:start + r.size] = ratios
    return out
