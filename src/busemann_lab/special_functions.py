"""Self-contained real special functions and distribution samplers.

Everything here is deterministic: random draws are pure functions of a
(master_seed, stream_id, counter) triple hashed through a splitmix64-style
mixer, so extending a lattice window or re-running an experiment never
perturbs previously drawn values.

Only numpy is used, for vectorized hashing and sampling.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Rng",
    "keys_for_sites",
    "uniform_from_keys",
    "gamma_from_keys",
    "poisson_from_keys",
    "digamma",
    "trigamma",
    "reg_inc_gamma",
    "reg_inc_beta",
    "sample_gamma",
    "sample_inverse_gamma",
    "sample_poisson",
]

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
# Distinct salts keep the key-derivation tree collision-free between the
# different places a 64-bit value is absorbed into a key.
_SALT_STREAM = _U64(0x6A09E667F3BCC909)
_SALT_EVENT = _U64(0xBB67AE8584CAA73B)
_SALT_INDEX = _U64(0x3C6EF372FE94F82B)
_SALT_LANE = _U64(0xA54FF53A5F1D36F1)


def _as_u64(value) -> np.ndarray:
    """Coerce ints or arrays to uint64 arrays of dimension >= 1.

    Plain 0-d arrays are avoided because numpy demotes them to scalars,
    whose overflow (intended here, the mixer works mod 2^64) would warn.
    """
    if isinstance(value, np.ndarray):
        return np.atleast_1d(value).astype(_U64, copy=False)
    return np.asarray([int(value) & 0xFFFFFFFFFFFFFFFF], dtype=_U64)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on uint64 arrays (0-d arrays act as scalars)."""
    z = z + _GOLDEN
    z = z ^ (z >> _U64(30))
    z = z * _MIX1
    z = z ^ (z >> _U64(27))
    z = z * _MIX2
    return z ^ (z >> _U64(31))


def _absorb(key: np.ndarray, value, salt: np.uint64) -> np.ndarray:
    """Fold a 64-bit value into a running key."""
    return _mix64(key ^ (_as_u64(value) + salt))


def _to_unit(h: np.ndarray) -> np.ndarray:
    """Map uint64 hashes to uniforms in the open interval (0, 1)."""
    return ((h >> _U64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)


def _base_key(master_seed: int, stream_id) -> np.ndarray:
    k = _mix64(_as_u64(master_seed))
    return _absorb(k, stream_id, _SALT_STREAM)


def _event_keys(master_seed: int, stream_id, counter: int, n) -> np.ndarray:
    """One uint64 key per element of a size-n draw event.

    stream_id may be an integer array; the keys then have its shape plus a
    trailing axis of length n, and row s equals the keys of stream_id[s].

    n may instead be an integer array of element indices, against which
    stream_id broadcasts: key i is then element n[i] of stream_id[i]'s
    event.  This draws ragged events of many streams in one call.
    """
    k = _absorb(_base_key(master_seed, stream_id), counter, _SALT_EVENT)
    if isinstance(n, np.ndarray):
        idx = n.astype(_U64)
    else:
        idx = np.arange(n, dtype=_U64)
        k = k.reshape(np.shape(stream_id) + (1,))
    return _absorb(k ^ (idx * _GOLDEN), idx, _SALT_INDEX)


def _spawn_ids(stream_id, substream) -> np.ndarray:
    """Stream ids of the children (stream_id, substream), as uint64.

    Either argument may be an integer array; the result has their
    broadcast shape (at least 1-d).  ``Rng.spawn`` takes its child's id
    from here.
    """
    return _absorb(_as_u64(stream_id), substream, _SALT_STREAM)


def _lane_uniforms(keys: np.ndarray, lane: int) -> np.ndarray:
    """Uniform draws for a given attempt lane of per-element keys."""
    return _to_unit(_absorb(keys, lane, _SALT_LANE))


@dataclass
class Rng:
    """Counter-based random stream.

    The same (master_seed, stream_id, counter) always yields the same
    uniforms; distinct stream_ids give independent streams.  The counter
    advances by one per draw event regardless of the event's size, so
    interleaving draws of different sizes stays reproducible.
    """

    master_seed: int
    stream_id: int = 0
    counter: int = 0

    def spawn(self, substream: int) -> "Rng":
        """Derive an independent stream keyed by (stream_id, substream)."""
        return Rng(self.master_seed, int(_spawn_ids(self.stream_id, substream)[0]), 0)

    def _next_event(self, n: int) -> np.ndarray:
        keys = _event_keys(self.master_seed, self.stream_id, self.counter, n)
        self.counter += 1
        return keys

    def uniform(self) -> float:
        return float(_lane_uniforms(self._next_event(1), 0)[0])

    def uniforms(self, n: int) -> np.ndarray:
        return _lane_uniforms(self._next_event(n), 0)


def keys_for_sites(master_seed: int, stream_id, x, y) -> np.ndarray:
    """uint64 keys for lattice sites (x, y), vectorized over coordinate arrays.

    A site's key depends only on (master_seed, stream_id, x, y), so any
    window over the lattice sees the same values: extension-consistency for
    weight fields comes from here.  stream_id may be an integer array that
    broadcasts against the coordinates.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=np.int64)).astype(_U64)
    ys = np.atleast_1d(np.asarray(y, dtype=np.int64)).astype(_U64)
    base = _base_key(master_seed, stream_id)
    xs, ys, base = np.broadcast_arrays(xs, ys, base)
    return _absorb(_absorb(base, xs, _SALT_EVENT), ys, _SALT_INDEX)


def uniform_from_keys(keys: np.ndarray) -> np.ndarray:
    """One uniform in (0, 1) per key."""
    return _lane_uniforms(keys, 0)


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------

def _check_positive(name: str, s: float) -> float:
    s = float(s)
    if not math.isfinite(s) or s <= 0.0:
        raise ValueError(f"{name} must be a finite positive real, got {s!r}")
    return s


def digamma(s: float) -> float:
    """psi_0(s) = Gamma'(s)/Gamma(s) for s > 0.

    Recurrence-shift to s >= 12 followed by the asymptotic series in
    Bernoulli numbers; accurate to better than 12 significant digits.
    """
    s = _check_positive("s", s)
    acc = 0.0
    while s < 12.0:
        acc -= 1.0 / s
        s += 1.0
    inv = 1.0 / s
    inv2 = inv * inv
    series = inv2 * (
        1.0 / 12.0
        - inv2 * (
            1.0 / 120.0
            - inv2 * (
                1.0 / 252.0
                - inv2 * (
                    1.0 / 240.0
                    - inv2 * (1.0 / 132.0 - inv2 * (691.0 / 32760.0 - inv2 / 12.0))
                )
            )
        )
    )
    return acc + math.log(s) - 0.5 * inv - series


def _trigamma_series(inv, inv2):
    """sum_n B_{2n} / s^{2n+1} from inv = 1/s and inv2 = 1/s^2 (floats or arrays)."""
    return inv * inv2 * (
        1.0 / 6.0
        - inv2 * (
            1.0 / 30.0
            - inv2 * (
                1.0 / 42.0
                - inv2 * (
                    1.0 / 30.0
                    - inv2 * (5.0 / 66.0 - inv2 * (691.0 / 2730.0 - inv2 * 7.0 / 6.0))
                )
            )
        )
    )


def trigamma(s):
    """psi_1(s) = psi_0'(s) for s > 0, strictly decreasing.

    s may be an array; a scalar s returns a float and runs on Python
    floats.  Each array element runs the same recurrence shift and series
    as a scalar would, so both paths give the same bits.
    """
    if np.isscalar(s) or np.ndim(s) == 0:
        x = _check_positive("s", s)
        acc = 0.0
        while x < 12.0:
            acc += 1.0 / (x * x)
            x += 1.0
        inv = 1.0 / x
        inv2 = inv * inv
        # 1/s + 1/(2 s^2) + sum_n B_{2n} / s^{2n+1}
        return acc + inv + 0.5 * inv2 + _trigamma_series(inv, inv2)
    arr = np.asarray(s, dtype=np.float64)
    bad = ~(np.isfinite(arr) & (arr > 0.0))
    if np.any(bad):
        _check_positive("s", arr[bad][0])
    acc = np.zeros_like(arr)
    shift = arr < 12.0
    # Lanes already past 12 are computed and discarded; their squares may
    # overflow.
    with np.errstate(over="ignore"):
        while shift.any():
            acc = np.where(shift, acc + 1.0 / (arr * arr), acc)
            arr = np.where(shift, arr + 1.0, arr)
            shift = arr < 12.0
    inv = 1.0 / arr
    inv2 = inv * inv
    return acc + inv + 0.5 * inv2 + _trigamma_series(inv, inv2)


def _per_element(f, x):
    """f applied to every element of x as a Python float, keeping x's shape.

    A scalar x returns f's float.  Each element goes through the same
    scalar code (libm calls included) as a scalar call would, over
    ``tolist()`` as in ``seqmaps.update_raw``.
    """
    # np.isscalar first: np.ndim alone costs a scalar call about 1.7 us.
    if np.isscalar(x) or np.ndim(x) == 0:
        return f(float(x))
    arr = np.asarray(x, dtype=np.float64)
    out = np.fromiter(map(f, arr.ravel().tolist()), np.float64, count=arr.size)
    return out.reshape(arr.shape)


def reg_inc_gamma(s: float, x):
    """Regularized lower incomplete gamma P(s, x) for s > 0, x >= 0.

    x may be an array (the result has its shape); a scalar x returns a float.
    """
    s = _check_positive("s", s)
    return _per_element(functools.partial(_p_gamma, s), x)


def _p_gamma(s: float, x: float) -> float:
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"x must be a finite nonnegative real, got {x!r}")
    if x == 0.0:
        return 0.0
    log_front = s * math.log(x) - x - math.lgamma(s)
    if x < s + 1.0:
        # Series expansion of P.
        term = 1.0 / s
        total = term
        denom = s
        for _ in range(10000):
            denom += 1.0
            term *= x / denom
            total += term
            if abs(term) < abs(total) * 1e-17:
                break
        return min(1.0, math.exp(log_front) * total)
    # Continued fraction for Q (modified Lentz).
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return max(0.0, 1.0 - math.exp(log_front) * h)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 10000):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h


def reg_inc_beta(a: float, b: float, x):
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and 0 <= x <= 1.

    x may be an array (the result has its shape); a scalar x returns a float.
    """
    a = _check_positive("a", a)
    b = _check_positive("b", b)
    return _per_element(functools.partial(_i_beta, a, b), x)


def _i_beta(a: float, b: float, x: float) -> float:
    if not math.isfinite(x) or x < 0.0 or x > 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_cf(b, a, 1.0 - x) / b


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def gamma_from_keys(keys: np.ndarray, shape: float) -> np.ndarray:
    """Vectorized Ga(shape, 1) draws, one per key.

    Marsaglia-Tsang squeeze/rejection for shape >= 1; shapes below 1 are
    boosted through Ga(shape + 1) times U^{1/shape}.  Each rejection attempt
    consumes three dedicated lanes of the per-key counter space, so the
    result is a pure function of the keys.
    """
    shape = _check_positive("shape", shape)
    lane0 = 0
    boost = None
    if shape < 1.0:
        boost = _lane_uniforms(keys, 0)
        lane0 = 1
        shape = shape + 1.0
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(keys.shape[0], dtype=np.float64)
    pending = np.arange(keys.shape[0])
    for attempt in range(256):
        if pending.size == 0:
            break
        k = keys[pending]
        base = lane0 + 3 * attempt
        u1 = _lane_uniforms(k, base)
        u2 = _lane_uniforms(k, base + 1)
        u = _lane_uniforms(k, base + 2)
        x = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
        v = (1.0 + c * x) ** 3
        x2 = x * x
        ok = v > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            squeeze = u < 1.0 - 0.0331 * x2 * x2
            full = np.log(u) < 0.5 * x2 + d - d * v + d * np.log(np.where(ok, v, 1.0))
        accept = ok & (squeeze | full)
        out[pending[accept]] = d * v[accept]
        pending = pending[~accept]
    if pending.size:  # pragma: no cover - acceptance rate makes this unreachable
        raise RuntimeError("gamma rejection sampler failed to terminate")
    if boost is not None:
        out *= boost ** (1.0 / (shape - 1.0))
    return out


def _maybe_scalar(x: np.ndarray, size):
    return float(x[0]) if size is None else x


def sample_gamma(rng: Rng, shape: float, size: int | None = None):
    """Draw from Ga(shape) with unit scale; scalar unless size is given."""
    n = 1 if size is None else int(size)
    return _maybe_scalar(gamma_from_keys(rng._next_event(n), shape), size)


def sample_inverse_gamma(rng: Rng, shape: float, size: int | None = None):
    """Reciprocal of a Ga(shape) draw from the same stream position."""
    n = 1 if size is None else int(size)
    return _maybe_scalar(1.0 / gamma_from_keys(rng._next_event(n), shape), size)


def poisson_from_keys(keys: np.ndarray, mean) -> np.ndarray:
    """Poisson draws by inversion (product of uniforms), one per key.

    mean is a scalar or an array of the keys' length.  Key i multiplies
    the uniforms of its lanes 0, 1, ... until the product falls to
    e^{-mean}, so the result is a pure function of the keys.  Intended
    for the modest means that arise in point-process band sampling; cost
    grows linearly with the mean.
    """
    n = keys.shape[0]
    means = np.broadcast_to(np.asarray(mean, dtype=np.float64), (n,))
    if np.any(means < 0.0) or not np.all(np.isfinite(means)):
        raise ValueError("Poisson mean must be finite and nonnegative")
    limit = np.exp(-means)
    prod = np.ones(n)
    counts = np.full(n, -1, dtype=np.int64)
    pending = np.arange(n)
    lane = 0
    while pending.size:
        prod[pending] *= _lane_uniforms(keys[pending], lane)
        counts[pending] += 1
        done = prod[pending] <= limit[pending]
        pending = pending[~done]
        lane += 1
        if lane > 100000:  # pragma: no cover
            raise RuntimeError("Poisson sampler failed to terminate")
    return counts


def sample_poisson(rng: Rng, mean, size: int | None = None):
    """Poisson draws from one event of the stream; mean may be an array."""
    means = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    n = means.shape[0] if size is None else int(size)
    if means.shape[0] not in (1, n):
        raise ValueError("mean must be scalar or of length size")
    counts = poisson_from_keys(rng._next_event(n), means)
    if size is None and np.isscalar(mean):
        return int(counts[0])
    return counts
