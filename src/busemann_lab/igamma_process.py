"""The jump-process law of the Busemann profile across one edge.

The profile rho -> Z(rho) is an initial value Z(0) ~ log Ga^-1(alpha)
plus the jumps of an inhomogeneous Poisson point process on
(0, alpha) x R_{>0} with intensity sigma(s, y) = e^{-y(alpha-s)} / (1 -
e^{-y}).  Points are sampled exactly by banded rejection: on each y-band
[a, b) the intensity is dominated by g(a) e^{bs} with g(y) = e^{-y
alpha} / (1 - e^{-y}) decreasing, and the dominating product measure is
sampled in closed form.  Jumps below a small cutoff y_min are replaced
by their deterministic mean.

Also here: batched counts of large jumps and their quadrature mean, the
thinning coupling between the scaled positive-temperature profile and its
zero-temperature limit, and the direction-reparametrization bound that
controls that limit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .special_functions import (
    Rng,
    _as_u64,
    _event_keys,
    _libm,
    _spawn_ids,
    gamma_from_keys,
    poisson_from_keys,
    reg_inc_gamma,
    sample_gamma,
    trigamma,
)
from .stats import KsResult, ks_one_sample

__all__ = [
    "JumpProcessSample",
    "sample_ppp",
    "sample_ppp_replicas",
    "marginal_check",
    "expected_jump_count",
    "batch_increment_sums",
    "batch_jump_counts",
    "pos_temp_keep_prob",
    "zero_temp_keep_prob",
    "zero_temp_couple",
    "reparam_bound",
    "small_jump_compensator",
]

_DEFAULT_Y_MIN = 1e-6
_BAND_RATIO = 1.25
_TAIL_EXPONENT = 60.0


@dataclass(frozen=True)
class JumpProcessSample:
    """One realization of the marked jump process on (0, rho_max].

    s, y, u are equal-length arrays sorted by s; u are independent
    uniform marks.  Jumps with y < y_min are not listed;
    small_jump_compensator gives their mean total mass.
    """

    alpha: float
    z0: float
    s: np.ndarray
    y: np.ndarray
    u: np.ndarray
    rho_max: float
    y_min: float

    def __post_init__(self):
        for name in ("s", "y", "u"):
            object.__setattr__(
                self, name, np.asarray(getattr(self, name), dtype=np.float64)
            )
        if not (self.s.shape == self.y.shape == self.u.shape):
            raise ValueError("point arrays must have equal length")
        if np.any(np.diff(self.s) < 0):
            raise ValueError("points must be sorted by s")


def _bands(alpha: float, rho_max: float, y_min: float) -> tuple[np.ndarray, np.ndarray]:
    """Geometric y-band edges covering [y_min, y_max]."""
    y_max = _TAIL_EXPONENT / (alpha - rho_max)
    edges = [y_min]
    while edges[-1] < y_max:
        edges.append(edges[-1] * _BAND_RATIO)
    e = np.array(edges)
    return e[:-1], e[1:]


def _log_g(y: np.ndarray, alpha: float) -> np.ndarray:
    """log of e^{-y alpha} / (1 - e^{-y}), the s-independent factor."""
    return -y * alpha - np.log(-np.expm1(-y))


def _band_masses(alpha: float, rho_max: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Envelope mass g(a) (b - a) (e^{b rho} - 1) / b per band."""
    return np.exp(_log_g(a, alpha)) * (b - a) * np.expm1(b * rho_max) / b


@functools.lru_cache(maxsize=None)
def _legendre_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only, per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gauss_legendre(f, lo: float, hi: float, order: int = 64) -> float:
    x, w = _legendre_nodes(order)
    t = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    return 0.5 * (hi - lo) * float(np.sum(w * f(t)))


def small_jump_compensator(
    alpha: float, rho: float, y_min: float, thinning=None
) -> float:
    """Mean total jump mass below y_min up to direction parameter rho.

    Integrates y sigma(s, y) (times an optional thinning probability in
    y) over (0, rho] x (0, y_min].
    """
    if rho <= 0.0 or y_min <= 0.0:
        return 0.0

    def inner(y: np.ndarray) -> np.ndarray:
        # y sigma integrated over s in (0, rho]:
        # y / (1 - e^{-y}) * (e^{-y(alpha-rho)} - e^{-y alpha}) / y
        val = (np.exp(-y * (alpha - rho)) - np.exp(-y * alpha)) / (-np.expm1(-y))
        if thinning is not None:
            val = val * thinning(y)
        return val

    return _gauss_legendre(inner, 0.0, y_min, order=32)


def _accepted_points(
    alpha: float,
    rho_max: float,
    y_min: float,
    n: int,
    seed: int,
    streams: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Accepted (sample index, s, y, u) for n realizations of each stream.

    Sample index m n + i is realization i of stream id streams[m].  Band b
    of a stream draws its n counts from event 0 of the stream's child
    2b + 1.  Its c proposals read event 0 of child 2b + 2: point j takes
    element j for y, c + j for s and 2c + j for acceptance, and element j
    of event 1 for its mark.  Points come band by band, in sample-index
    order within a band.
    """
    a, b = _bands(alpha, rho_max, y_min)
    masses = _band_masses(alpha, rho_max, a, b)
    m = streams.shape[0]
    empty = np.empty(0)
    parts = [(np.empty(0, dtype=np.int64), empty, empty, empty)]
    for band in range(a.shape[0]):
        count_keys = _event_keys(seed, _spawn_ids(streams, 2 * band + 1), 0, n)
        counts = poisson_from_keys(count_keys.ravel(), masses[band])
        k = int(counts.sum())
        if k == 0:
            continue
        owner = np.repeat(np.arange(m * n), counts)
        per_stream = counts.reshape(m, n).sum(axis=1)
        j = np.arange(k) - np.repeat(np.cumsum(per_stream) - per_stream, per_stream)
        c = np.repeat(per_stream, per_stream)
        ids = _spawn_ids(streams, 2 * band + 2)
        # A lone stream's id broadcasts: _event_keys hashes every id it gets.
        if m > 1:
            ids = np.repeat(ids, per_stream)
        idx = np.stack((j, c + j, 2 * c + j))
        us = _event_keys(seed, ids, 0, idx, unit=True)
        lo, hi = a[band], b[band]
        y = lo + (hi - lo) * us[0]
        # s has density proportional to e^{b s} on (0, rho_max]
        s = np.log1p(us[1] * np.expm1(hi * rho_max)) / hi
        # accept with probability sigma(s, y) / (g(a) e^{b s})
        log_g_lo = _log_g(np.full_like(y, lo), alpha)
        log_ratio = _log_g(y, alpha) + y * s - log_g_lo - hi * s
        keep = us[2] < np.exp(log_ratio)
        mark_ids = ids[keep] if m > 1 else ids
        marks = _event_keys(seed, mark_ids, 1, j[keep], unit=True)
        parts.append((owner[keep], s[keep], y[keep], marks))
    return tuple(np.concatenate(p) for p in zip(*parts))


def _realizations(
    alpha: float, rho_max: float, y_min: float, seed: int, streams: np.ndarray
) -> list[JumpProcessSample]:
    """One realization of the jump process from each stream id in streams."""
    if not (0.0 < rho_max < alpha):
        raise ValueError("need 0 < rho_max < alpha")
    if y_min <= 0.0:
        raise ValueError(
            "infinite mass: y_min = 0 requires the compensated small-jump policy"
        )
    z0_keys = _event_keys(seed, _spawn_ids(streams, 0), 0, 1).ravel()
    z0 = [-math.log(g) for g in gamma_from_keys(z0_keys, alpha).tolist()]
    owner, s, y, u = _accepted_points(alpha, rho_max, y_min, 1, seed, streams)
    # Sorting by (owner, s) is each realization's stable sort by s.
    order = np.lexsort((s, owner))
    owner, s, y, u = owner[order], s[order], y[order], u[order]
    ends = np.searchsorted(owner, np.arange(streams.shape[0] + 1))
    return [
        JumpProcessSample(
            alpha=alpha, z0=z0[r], s=s[lo:hi], y=y[lo:hi], u=u[lo:hi],
            rho_max=rho_max, y_min=y_min,
        )
        for r, (lo, hi) in enumerate(zip(ends[:-1].tolist(), ends[1:].tolist()))
    ]


def sample_ppp(
    alpha: float,
    rho_max: float,
    y_min: float = _DEFAULT_Y_MIN,
    rng: Rng | None = None,
) -> JumpProcessSample:
    """Draw one marked realization of the jump process on (0, rho_max]."""
    if rng is None:
        raise ValueError("an Rng is required")
    streams = _as_u64(rng.stream_id)
    return _realizations(alpha, rho_max, y_min, rng.master_seed, streams)[0]


def sample_ppp_replicas(
    alpha: float,
    rho_max: float,
    n: int,
    rng: Rng,
    y_min: float = _DEFAULT_Y_MIN,
) -> list[JumpProcessSample]:
    """n independent realizations of the jump process, drawn together.

    Replica i is bit for bit ``sample_ppp(alpha, rho_max, y_min,
    rng.spawn(i))``: every draw is a pure hash of (seed, stream id,
    counter), so the replicas are the realizations of the n child stream
    ids, and each band makes one draw over all of them.
    """
    ids = _spawn_ids(rng.stream_id, np.arange(n, dtype=np.uint64))
    return _realizations(alpha, rho_max, y_min, rng.master_seed, ids)


def batch_increment_sums(
    alpha: float,
    breaks,
    n: int,
    rng: Rng,
    y_min: float = _DEFAULT_Y_MIN,
    thinning=None,
) -> np.ndarray:
    """Jump sums over consecutive s-intervals for n independent copies.

    breaks is an increasing sequence 0 < b_1 < ... < b_m < alpha; column
    j of the returned (n, m) array holds Z(b_j) - Z(b_{j-1}) (with
    b_0 = 0), small-jump compensation included.  An optional thinning
    probability in y is applied through the uniform marks.
    """
    breaks = np.asarray(breaks, dtype=np.float64)
    if breaks.ndim != 1 or breaks.shape[0] == 0:
        raise ValueError("need at least one break")
    if breaks[0] <= 0.0 or np.any(np.diff(breaks) <= 0) or breaks[-1] >= alpha:
        raise ValueError("breaks must be increasing inside (0, alpha)")
    rho_max = float(breaks[-1])
    owner, s, y, u = _accepted_points(
        alpha, rho_max, y_min, n, rng.master_seed, _as_u64(rng.stream_id)
    )
    if thinning is not None and owner.shape[0]:
        keep = u <= thinning(y)
        owner, s, y = owner[keep], s[keep], y[keep]
    m = breaks.shape[0]
    out = np.zeros((n, m))
    interval = np.searchsorted(breaks, s, side="left")
    np.add.at(out, (owner, interval), y)
    comps = np.array(
        [small_jump_compensator(alpha, r, y_min, thinning=thinning) for r in breaks]
    )
    out += np.diff(np.concatenate(([0.0], comps)))
    return out


def batch_jump_counts(
    alpha: float,
    delta: float,
    s_interval,
    n: int,
    rng: Rng,
    y_min: float = _DEFAULT_Y_MIN,
) -> np.ndarray:
    """Per-replica counts of points with y >= delta and s in the interval."""
    if delta <= y_min:
        raise ValueError("delta must exceed the small-jump cutoff")
    s1, s2 = float(s_interval[0]), float(s_interval[1])
    owner, s, y, _ = _accepted_points(
        alpha, s2, y_min, n, rng.master_seed, _as_u64(rng.stream_id)
    )
    keep = (y >= delta) & (s > s1) & (s <= s2)
    return np.bincount(owner[keep], minlength=n)


def marginal_check(alpha: float, rho: float, n: int, rng: Rng) -> KsResult:
    """KS test of n sampled Z(rho) values against the log Ga^-1(alpha - rho) law."""
    if not (0.0 < rho < alpha):
        raise ValueError("need 0 < rho < alpha")
    z0 = -np.log(sample_gamma(rng.spawn(0), alpha, size=n))
    sums = batch_increment_sums(alpha, [rho], n, rng.spawn(1))[:, 0]
    z = z0 + sums
    return ks_one_sample(
        z, lambda v: 1.0 - reg_inc_gamma(alpha - rho, _libm(np.exp, -v))
    )


def expected_jump_count(alpha: float, delta: float, s_interval) -> float:
    """Quadrature value of the jump intensity over [delta, inf) x interval."""
    s1, s2 = float(s_interval[0]), float(s_interval[1])
    if s2 <= s1:
        return 0.0

    def integrand(y: np.ndarray) -> np.ndarray:
        # sigma integrated over s: (e^{-y(alpha-s2)} - e^{-y(alpha-s1)}) / y
        return (np.exp(-y * (alpha - s2)) - np.exp(-y * (alpha - s1))) / (
            y * (-np.expm1(-y))
        )

    hi = delta + _TAIL_EXPONENT / (alpha - s2)
    return _gauss_legendre(integrand, delta, hi, order=256)


def pos_temp_keep_prob(y: np.ndarray, alpha: float) -> np.ndarray:
    """Thinning probability selecting the scaled alpha-profile's jumps."""
    return -np.expm1(-y) / (-np.expm1(-y / alpha))


def zero_temp_keep_prob(y: np.ndarray) -> np.ndarray:
    """Thinning probability selecting the zero-temperature jumps."""
    return -np.expm1(-y)


@functools.lru_cache(maxsize=None)
def _coupling_rates(alpha: float, y_min: float) -> tuple[float, float]:
    """Small-jump compensator rates of the alpha- and zero-temperature profiles."""
    return (
        small_jump_compensator(
            1.0, 1.0, y_min, thinning=lambda y: pos_temp_keep_prob(y, alpha)
        ),
        small_jump_compensator(1.0, 1.0, y_min, thinning=zero_temp_keep_prob),
    )


def zero_temp_couple(
    sample: JumpProcessSample, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin a reference realization into coupled profiles.

    The sample must be drawn at reference parameter 1.  A point is kept
    for the scaled alpha-profile iff its mark u <= (1 - e^{-y}) / (1 -
    e^{-y/alpha}) and for the zero-temperature profile iff
    u <= 1 - e^{-y}; since the first threshold dominates for alpha <= 1,
    the zero-temperature jumps are a subset.  Returns (rho_grid,
    alpha-profile increments, zero-temperature increments) on 1,001
    equally spaced points of [0, rho_max], both profiles starting from 0
    at rho = 0.
    """
    if sample.alpha != 1.0:
        raise ValueError("the reference sample must be drawn at parameter 1")
    if not (0.0 < alpha <= 1.0):
        raise ValueError("need 0 < alpha <= 1")
    rho_grid = np.linspace(0.0, sample.rho_max, 1001)
    keep_a = sample.u <= pos_temp_keep_prob(sample.y, alpha)
    keep_0 = sample.u <= zero_temp_keep_prob(sample.y)
    comp_a, comp_0 = _coupling_rates(alpha, sample.y_min)

    def profile(keep: np.ndarray, comp_rate: float) -> np.ndarray:
        cum = np.concatenate(([0.0], np.cumsum(sample.y[keep])))
        pos = np.searchsorted(sample.s[keep], rho_grid, side="right")
        return cum[pos] + comp_rate * rho_grid

    return rho_grid, profile(keep_a, comp_a), profile(keep_0, comp_0)


def _zero_temp_rho(xi1: np.ndarray) -> np.ndarray:
    r1 = np.sqrt(1.0 - xi1)
    r2 = np.sqrt(xi1)
    return r1 / (r1 + r2)


def reparam_bound(alpha: float, grid_size: int = 10_000) -> float:
    """Sup over a xi-grid of the l1 direction-reparametrization gap.

    For each direction xi, maps the zero-temperature parameter s0(xi)
    into the alpha-polymer direction through rho = alpha s0(xi) and
    measures |xi^alpha(rho) - xi|_1; bounded by (pi^2 / 3) alpha^2.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    xi1 = np.linspace(0.0, 1.0, grid_size + 2)[1:-1]
    rho = alpha * _zero_temp_rho(xi1)
    t1 = trigamma(rho)
    t2 = trigamma(alpha - rho)
    u1 = t1 / (t1 + t2)
    return float(np.max(2.0 * np.abs(u1 - xi1)))
