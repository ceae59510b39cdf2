"""The jump-process law of the Busemann profile across one edge.

The profile rho -> Z(rho) is an initial value Z(0) ~ log Ga^-1(alpha)
plus the jumps of an inhomogeneous Poisson point process on
(0, alpha) x R_{>0} with intensity sigma(s, y) = e^{-y(alpha-s)} / (1 -
e^{-y}).  Points are sampled exactly by banded rejection: on each y-band
[a, b) the intensity is dominated by g(a) e^{bs} with g(y) = e^{-y
alpha} / (1 - e^{-y}) decreasing, and the dominating product measure is
sampled in closed form.  Jumps below the cutoff Y_MIN are replaced by
their deterministic mean.

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
    _CHUNK,
    Rng,
    _as_u64,
    _event_keys,
    _libm,
    _spawn_ids,
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
    "envelope_peak",
    "batch_increment_sums",
    "batch_jump_counts",
    "pos_temp_keep_prob",
    "zero_temp_keep_prob",
    "zero_temp_couple",
    "coupling_gaps",
    "reparam_bound",
    "small_jump_compensator",
    "Y_MIN",
]

# Jumps below this size are not sampled; small_jump_compensator gives
# their mean total mass.
Y_MIN = 1e-6
_BAND_RATIO = 1.25
_TAIL_EXPONENT = 60.0
# Gauss-Legendre order per geometric panel of expected_jump_count.
_PANEL_ORDER = 16


@dataclass(frozen=True)
class JumpProcessSample:
    """n realizations of the marked jump process on (0, rho_max].

    s, y, u hold the points of every realization, sorted by (realization,
    s): realization i's are those from ends[i] to ends[i + 1], and ends
    holds n + 1 offsets from 0.  u are independent uniform marks.  Jumps
    with y < Y_MIN are not listed.  samples[i] and samples[lo:hi] select
    realizations as views.
    """

    alpha: float
    rho_max: float
    s: np.ndarray
    y: np.ndarray
    u: np.ndarray
    ends: np.ndarray

    def __len__(self) -> int:
        return self.ends.shape[0] - 1

    def __getitem__(self, key) -> JumpProcessSample:
        r = range(len(self))[key]
        if isinstance(r, int):
            r = range(r, r + 1)
        if r.step != 1:
            raise ValueError("realizations are selected by a contiguous slice")
        ends = self.ends[r.start:max(r.start, r.stop) + 1]
        a, b = ends[0], ends[-1]
        return JumpProcessSample(self.alpha, self.rho_max, self.s[a:b], self.y[a:b],
                                 self.u[a:b], ends - a)


def _bands(alpha: float, rho_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Geometric y-band edges covering [Y_MIN, y_max]."""
    y_max = _TAIL_EXPONENT / (alpha - rho_max)
    edges = [Y_MIN]
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


def envelope_peak(alpha: float, rho_max: float) -> float:
    """Largest band mass of the sampler's envelope on (0, rho_max], the
    largest Poisson mean it draws; inf where the envelope overflows.

    The masses grow with y once rho_max > alpha / _BAND_RATIO.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        masses = _band_masses(alpha, rho_max, *_bands(alpha, rho_max))
    return float(np.max(np.where(np.isnan(masses), np.inf, masses), initial=0.0))


@functools.lru_cache(maxsize=None)
def _legendre_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only, per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gauss_legendre(f, lo: float, hi: float) -> float:
    """32-point Gauss-Legendre rule for the integral of f over [lo, hi]."""
    x, w = _legendre_nodes(32)
    t = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    return 0.5 * (hi - lo) * float(np.sum(w * f(t)))


def small_jump_compensator(alpha: float, rho: float, thinning=None) -> float:
    """Mean total jump mass below Y_MIN up to direction parameter rho.

    Integrates y sigma(s, y) (times an optional thinning probability in
    y) over (0, rho] x (0, Y_MIN].
    """
    if rho <= 0.0:
        return 0.0

    def inner(y: np.ndarray) -> np.ndarray:
        # y sigma integrated over s in (0, rho]:
        # y / (1 - e^{-y}) * (e^{-y(alpha-rho)} - e^{-y alpha}) / y
        val = (np.exp(-y * (alpha - rho)) - np.exp(-y * alpha)) / (-np.expm1(-y))
        if thinning is not None:
            val = val * thinning(y)
        return val

    return _gauss_legendre(inner, 0.0, Y_MIN)


def _accepted_points(
    alpha: float,
    rho_max: float,
    n: int,
    seed: int,
    streams: np.ndarray,
    bands: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Accepted (sample index, s, y, u) of one pass: n realizations of each
    stream in the given consecutive bands.

    Sample index m n + i is realization i of stream id streams[m].  Band b
    of a stream draws its n counts from event 0 of the stream's child
    2b + 1.  Its c proposals read event 0 of child 2b + 2: point j takes
    element j for y, c + j for s and 2c + j for acceptance, and element j
    of event 1 for its mark.  The pass makes one hashing call for the
    counts of all its bands and streams, one Poisson draw, one hashing
    call for all their proposals and one for their marks.  Points come
    band by band, in sample-index order within a band.
    """
    a, b = _bands(alpha, rho_max)
    lo, hi = a[bands], b[bands]
    draws = streams.shape[0] * n
    children = 2 * bands.astype(np.uint64)[:, None]
    counts = poisson_from_keys(
        _event_keys(seed, _spawn_ids(streams, children + 1), 0, n).ravel(),
        np.repeat(_band_masses(alpha, rho_max, lo, hi), draws),
    )
    k = int(counts.sum())
    if k == 0:
        return np.empty(0, dtype=np.int64), np.empty(0), np.empty(0), np.empty(0)
    owner = np.repeat(np.arange(counts.shape[0]) % draws, counts)
    # Proposals per (band, stream), band-major.
    per_event = counts.reshape(-1, n).sum(axis=1)
    j = np.arange(k) - np.repeat(np.cumsum(per_event) - per_event, per_event)
    c = np.repeat(per_event, per_event)
    ids = np.repeat(_spawn_ids(streams, children + 2).ravel(), per_event)
    band = np.repeat(np.arange(bands.shape[0]),
                     per_event.reshape(bands.shape[0], -1).sum(axis=1))
    idx = np.stack((j, c + j, 2 * c + j))
    us = _event_keys(seed, ids, 0, idx, unit=True)
    # s has density proportional to e^{b s} on (0, rho_max]
    s_scale = np.expm1(hi * rho_max)[band]
    lo, hi = lo[band], hi[band]
    y = lo + (hi - lo) * us[0]
    s = np.log1p(us[1] * s_scale) / hi
    # accept with probability sigma(s, y) / (g(a) e^{b s})
    log_ratio = _log_g(y, alpha) + y * s - _log_g(lo, alpha) - hi * s
    keep = us[2] < np.exp(log_ratio)
    marks = _event_keys(seed, ids[keep], 1, j[keep], unit=True)
    return owner[keep], s[keep], y[keep], marks


def _passes(alpha: float, rho_max: float, n: int, seed: int, streams: np.ndarray):
    """_accepted_points of every band, pass by pass, bands in order.

    A pass takes consecutive bands while their counts and expected
    proposals, draws (1 + mass) a band for draws = n samples of each
    stream, add up to at most _CHUNK; a heavier band is a pass of its own.
    Every point is a pure function of its band, stream and index, so the
    grouping changes no bits, and a pass holds at most max(_CHUNK,
    draws (1 + envelope_peak)) counts and expected proposals.
    """
    loads = streams.shape[0] * n * (1.0 + _band_masses(alpha, rho_max, *_bands(alpha, rho_max)))
    first, total = 0, 0.0
    for band, load in enumerate(loads.tolist()):
        if band > first and total + load > _CHUNK:
            yield _accepted_points(alpha, rho_max, n, seed, streams, np.arange(first, band))
            first, total = band, 0.0
        total += load
    yield _accepted_points(alpha, rho_max, n, seed, streams, np.arange(first, loads.shape[0]))


def _realizations(
    alpha: float, rho_max: float, seed: int, streams: np.ndarray
) -> JumpProcessSample:
    """One realization of the jump process from each stream id in streams."""
    if not (0.0 < rho_max < alpha):
        raise ValueError("need 0 < rho_max < alpha")
    owner, s, y, u = (np.concatenate(p) for p in zip(*_passes(alpha, rho_max, 1, seed, streams)))
    # Sorting by (owner, s) is each realization's stable sort by s.
    order = np.lexsort((s, owner))
    ends = np.searchsorted(owner[order], np.arange(streams.shape[0] + 1))
    return JumpProcessSample(alpha, rho_max, s[order], y[order], u[order], ends)


def sample_ppp(alpha: float, rho_max: float, rng: Rng) -> JumpProcessSample:
    """Draw one marked realization of the jump process on (0, rho_max]."""
    return _realizations(alpha, rho_max, rng.master_seed, _as_u64(rng.stream_id))


def sample_ppp_replicas(
    alpha: float,
    rho_max: float,
    n: int,
    rng: Rng,
) -> JumpProcessSample:
    """n independent realizations of the jump process, drawn together.

    Replica i, samples[i], is bit for bit ``sample_ppp(alpha, rho_max,
    rng.spawn(i))``: every draw is a pure hash of (seed, stream id,
    counter), so the replicas are the realizations of the n child stream
    ids, and each band makes one draw over all of them.
    """
    ids = _spawn_ids(rng.stream_id, np.arange(n, dtype=np.uint64))
    return _realizations(alpha, rho_max, rng.master_seed, ids)


def batch_increment_sums(
    alpha: float,
    breaks,
    n: int,
    rng: Rng,
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
    out = np.zeros((n, breaks.shape[0]))
    # Pass by pass, in pass order: every cell adds its jumps in band order.
    for owner, s, y, u in _passes(alpha, float(breaks[-1]), n, rng.master_seed,
                                  _as_u64(rng.stream_id)):
        if thinning is not None:
            keep = u <= thinning(y)
            owner, s, y = owner[keep], s[keep], y[keep]
        np.add.at(out, (owner, np.searchsorted(breaks, s, side="left")), y)
    comps = np.array(
        [small_jump_compensator(alpha, r, thinning=thinning) for r in breaks]
    )
    out += np.diff(np.concatenate(([0.0], comps)))
    return out


def batch_jump_counts(
    alpha: float,
    delta: float,
    s_interval,
    n: int,
    rng: Rng,
) -> np.ndarray:
    """Per-replica counts of points with y >= delta and s in the interval."""
    if delta <= Y_MIN:
        raise ValueError("delta must exceed the small-jump cutoff")
    s1, s2 = float(s_interval[0]), float(s_interval[1])
    counts = np.zeros(n, dtype=np.int64)
    for owner, s, y, _ in _passes(alpha, s2, n, rng.master_seed, _as_u64(rng.stream_id)):
        keep = (y >= delta) & (s > s1) & (s <= s2)
        counts += np.bincount(owner[keep], minlength=n)
    return counts


def marginal_check(alpha: float, rho: float, sums: np.ndarray, rng: Rng) -> KsResult:
    """KS test of Z(rho) = Z(0) + sums against the log Ga^-1(alpha - rho) law.

    sums holds independent draws of Z(rho) - Z(0), the jump part with its
    compensator, as ``batch_increment_sums`` gives them; Z(0) =
    -log Ga(alpha) is drawn from rng.spawn(0), one per sum.
    """
    if not (0.0 < rho < alpha):
        raise ValueError("need 0 < rho < alpha")
    z = -np.log(sample_gamma(rng.spawn(0), alpha, size=len(sums))) + sums
    return ks_one_sample(
        z, lambda v: 1.0 - reg_inc_gamma(alpha - rho, _libm(np.exp, -v))
    )


def expected_jump_count(alpha: float, delta: float, s_interval) -> float:
    """Quadrature value of the jump intensity over [delta, inf) x interval.

    The s-integral of sigma is (e^{-y(alpha-s2)} - e^{-y(alpha-s1)}) / y,
    which behaves like (s2 - s1) / y near 0.  So the y-integral runs in
    t = log y, over [delta, delta + 60 / (alpha - s2)] cut into geometric
    panels of ratio at most _BAND_RATIO, the sampler's bands, with one
    Gauss-Legendre rule per panel.
    """
    s1, s2 = float(s_interval[0]), float(s_interval[1])
    if s2 <= s1:
        return 0.0
    lo = math.log(delta)
    hi = math.log(delta + _TAIL_EXPONENT / (alpha - s2))
    panels = max(1, math.ceil((hi - lo) / math.log(_BAND_RATIO)))
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    x, w = _legendre_nodes(_PANEL_ORDER)
    y = np.exp(half * x + 0.5 * (edges[:-1] + edges[1:])[:, None])
    # y times the s-integral, the integrand in t.
    f = np.exp(-y * (alpha - s2)) * -np.expm1(-y * (s2 - s1)) / -np.expm1(-y)
    return float(np.sum(half * w * f))


def pos_temp_keep_prob(y: np.ndarray, alpha: float) -> np.ndarray:
    """Thinning probability selecting the scaled alpha-profile's jumps."""
    return -np.expm1(-y) / (-np.expm1(-y / alpha))


def zero_temp_keep_prob(y: np.ndarray) -> np.ndarray:
    """Thinning probability selecting the zero-temperature jumps."""
    return -np.expm1(-y)


@functools.lru_cache(maxsize=None)
def _coupling_rate(alpha: float) -> float:
    """Small-jump compensator rate of the scaled alpha-profile, and of the
    zero-temperature profile, its alpha -> 0 limit, at alpha = 0."""
    if alpha == 0.0:
        return small_jump_compensator(1.0, 1.0, thinning=zero_temp_keep_prob)
    return small_jump_compensator(1.0, 1.0, thinning=lambda y: pos_temp_keep_prob(y, alpha))


# Points of the coupled profiles' rho-grid, and directions on
# reparam_bound's xi-grid.
_COUPLING_POINTS = 1001
REPARAM_POINTS = 10_000
# Samples whose coupled profiles are built together: no block array is
# larger than reparam_bound's grid.
_COUPLING_BLOCK = max(1, REPARAM_POINTS // _COUPLING_POINTS)


def _coupled_profiles(
    samples: JumpProcessSample, alphas
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The rho-grid, the zero-temperature profiles and, for each alpha in
    alphas, the scaled alpha-profiles of a block of reference realizations,
    one row per realization (see zero_temp_couple).

    Each realization's points fill one row of a zero-padded array from
    column 1, their y where kept and +0.0 where not; a cumsum along the
    rows then gives every realization's sums of kept jumps with the bits
    of a cumsum over its kept y alone.  A profile at grid point rho reads
    its row at the number of the realization's points with s <= rho, kept
    or not: one integer search over keys owner (G + 1) + (grid points
    below s) finds them all, for every profile of the block.
    """
    if samples.alpha != 1.0:
        raise ValueError("the reference sample must be drawn at parameter 1")
    if not all(0.0 < a <= 1.0 for a in alphas):
        raise ValueError("need 0 < alpha <= 1")
    points, n = _COUPLING_POINTS, len(samples)
    s, y, u, ends = samples.s, samples.y, samples.u, samples.ends
    rho_grid = np.linspace(0.0, samples.rho_max, points)
    counts = np.diff(ends)
    owner = np.repeat(np.arange(n), counts)
    col = np.arange(1, s.shape[0] + 1) - ends[owner]
    keys = owner * (points + 1) + np.searchsorted(rho_grid, s, side="left")
    queries = (np.arange(n) * (points + 1))[:, None] + np.arange(points)
    padded = np.zeros((n, int(counts.max(initial=0)) + 1))
    # Flat positions in padded: each row's start, less its points before.
    pos = np.searchsorted(keys, queries, side="right")
    pos += (np.arange(n) * padded.shape[1] - ends[:-1])[:, None]

    def profile(keep: np.ndarray, comp_rate: float) -> np.ndarray:
        padded[owner, col] = np.where(keep, y, 0.0)
        return np.take(np.cumsum(padded, axis=1), pos) + comp_rate * rho_grid

    zero = profile(u <= zero_temp_keep_prob(y), _coupling_rate(0.0))
    return rho_grid, zero, [profile(u <= pos_temp_keep_prob(y, a), _coupling_rate(a))
                            for a in alphas]


def zero_temp_couple(
    sample: JumpProcessSample, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin one reference realization into coupled profiles.

    The sample must hold one realization drawn at reference parameter 1.
    A point is kept for the scaled alpha-profile iff its mark u <= (1 -
    e^{-y}) / (1 - e^{-y/alpha}) and for the zero-temperature profile iff
    u <= 1 - e^{-y}; since the first threshold dominates for alpha <= 1,
    the zero-temperature jumps are a subset.  Returns (rho_grid,
    alpha-profile increments, zero-temperature increments) on 1,001
    equally spaced points of [0, rho_max], both profiles starting from 0
    at rho = 0.
    """
    if len(sample) != 1:
        raise ValueError("need one realization")
    rho_grid, zero, (prof,) = _coupled_profiles(sample, (alpha,))
    return rho_grid, prof[0], zero[0]


def coupling_gaps(samples: JumpProcessSample, alphas) -> np.ndarray:
    """The largest gap of each realization's alpha-profile over its
    zero-temperature profile on the rho-grid, as zero_temp_couple gives
    them: a (len(alphas), len(samples)) array.

    _COUPLING_BLOCK realizations at a time share their arrays; each gap
    has the bits of np.max(za - zz) over that realization's own coupling.
    """
    gaps = np.empty((len(alphas), len(samples)))
    for lo in range(0, len(samples), _COUPLING_BLOCK):
        block = samples[lo:lo + _COUPLING_BLOCK]
        _, zero, profiles = _coupled_profiles(block, alphas)
        for row, prof in zip(gaps, profiles):
            np.max(np.subtract(prof, zero, out=prof), axis=1, out=row[lo:lo + len(block)])
    return gaps


def _zero_temp_rho(xi1: np.ndarray) -> np.ndarray:
    r1 = np.sqrt(1.0 - xi1)
    r2 = np.sqrt(xi1)
    return r1 / (r1 + r2)


def reparam_bound(alpha: float) -> float:
    """Sup over a REPARAM_POINTS-point xi-grid of the l1 direction-reparametrization gap.

    For each direction xi, maps the zero-temperature parameter s0(xi)
    into the alpha-polymer direction through rho = alpha s0(xi) and
    measures |xi^alpha(rho) - xi|_1; bounded by (pi^2 / 3) alpha^2.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    xi1 = np.linspace(0.0, 1.0, REPARAM_POINTS + 2)[1:-1]
    rho = alpha * _zero_temp_rho(xi1)
    t1 = trigamma(rho)
    t2 = trigamma(alpha - rho)
    u1 = t1 / (t1 + t2)
    return float(np.max(2.0 * np.abs(u1 - xi1)))
