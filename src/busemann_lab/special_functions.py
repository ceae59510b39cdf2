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
_CHUNK = 65_536  # keys hashed per pass: bounds the scratch memory of large draws


def _as_u64(value) -> np.ndarray:
    """Coerce ints or arrays to uint64 arrays of dimension >= 1 (never 0-d:
    numpy demotes those to scalars, whose wraparound mod 2^64 would warn)."""
    if isinstance(value, np.ndarray):
        return np.atleast_1d(value).astype(_U64, copy=False)
    return np.asarray([int(value) & 0xFFFFFFFFFFFFFFFF], dtype=_U64)


def _fold(z: np.ndarray, t: np.ndarray, start, absorbs, spread, unit, lo, n) -> None:
    """``_hash`` in z, the flat keys lo, lo + 1, ... of n-wide rows; t is scratch."""
    for value, salt in absorbs:
        if value is None:  # a pass of several rows wraps the index
            value = np.arange(lo, lo + z.shape[-1], dtype=_U64)
            if lo + z.shape[-1] > n:
                value %= _U64(n)
        if isinstance(value, np.ndarray):
            if spread:
                start = np.bitwise_xor(start, np.multiply(value, _GOLDEN, out=t), out=z)
            value, spread = np.add(value, salt, out=t), False
        else:
            value = _U64((int(value) + int(salt)) & 0xFFFFFFFFFFFFFFFF)
        start = np.bitwise_xor(start, value, out=z)
        z += _GOLDEN
        z ^= np.right_shift(z, _U64(30), out=t)
        z *= _MIX1
        z ^= np.right_shift(z, _U64(27), out=t)
        z *= _MIX2
        z ^= np.right_shift(z, _U64(31), out=t)
    if unit:  # (z >> 11) + 0.5 is exact: the uniforms lie in the open (0, 1)
        u = np.add(np.right_shift(z, _U64(11), out=z), 0.5, out=z.view(np.float64))
        u *= 2.0 ** -53


def _hash(shape, start: np.ndarray, absorbs, spread: bool = False, unit: bool = False):
    """Keys of the given shape, or with unit their uniforms in (0, 1).

    Each key starts from start and absorbs the (value, salt) pairs in turn,
    z = mix64(z ^ (value + salt)) with splitmix64's mix64; where spread, the
    first array value also xors value * GOLDEN in.  start and array values
    broadcast against shape, an int value is the same for every key, and
    None is the key's index along the last axis.  In place, _CHUNK at a time.
    """
    out = np.empty(shape, np.float64 if unit else _U64)
    z = out.view(_U64)
    if out.size <= _CHUNK:
        _fold(z, np.empty_like(z), start, absorbs, spread, unit, 0, shape[-1])
        return out
    arrays = [v for v, _ in absorbs if isinstance(v, np.ndarray)]
    scratch = np.empty(_CHUNK, _U64)
    with np.nditer([start, *arrays, z], ["external_loop", "buffered"],
                   [["readonly"]] * (len(arrays) + 1) + [["writeonly"]],
                   buffersize=_CHUNK, order="C") as it:
        for s, *parts, zc in it:
            parts = iter(parts)
            chunk = [(next(parts) if isinstance(v, np.ndarray) else v, c) for v, c in absorbs]
            _fold(zc, scratch[:zc.size], s, chunk, spread, unit, it.iterindex, shape[-1])
    return out


@functools.lru_cache(maxsize=64)
def _seed_key(master_seed: int) -> np.ndarray:
    """mix64(master_seed), the root of the seed's keys; shared, so read-only."""
    key = _hash((1,), np.zeros(1, _U64), [(master_seed, 0)])
    key.flags.writeable = False
    return key


def _event_keys(master_seed: int, stream_id, counter: int, n, unit: bool = False) -> np.ndarray:
    """One uint64 key per element of a size-n draw event; with unit, its uniform.

    stream_id may be an integer array; the keys then have its shape plus a
    trailing axis of length n, and row s equals the keys of stream_id[s].

    n may instead be an integer array of element indices, against which
    stream_id broadcasts: key i is then element n[i] of stream_id[i]'s
    event.  This draws ragged events of many streams in one call.
    """
    sid = _as_u64(stream_id)
    k = _hash(sid.shape, _seed_key(master_seed), [(sid, _SALT_STREAM), (counter, _SALT_EVENT)])
    if isinstance(n, np.ndarray):
        idx = _as_u64(n)
        shape = np.broadcast(k, idx).shape
    else:
        idx, shape = None, np.shape(stream_id) + (n,)
        k = k.reshape(shape[:-1] + (1,))
    absorbs = [(idx, _SALT_INDEX)] + [(0, _SALT_LANE)] * unit
    return _hash(shape, k, absorbs, spread=True, unit=unit)


def _spawn_ids(stream_id, substream) -> np.ndarray:
    """Stream ids of the children (stream_id, substream), as uint64; either
    may be an integer array, and the result has their broadcast shape."""
    sid = _as_u64(stream_id)
    sub = _as_u64(substream) if isinstance(substream, np.ndarray) else substream
    return _hash(np.broadcast(sid, sub).shape, sid, [(sub, _SALT_STREAM)])


def _lane_uniforms(keys: np.ndarray, lane: int) -> np.ndarray:
    """Uniform draws for a given attempt lane of per-element keys."""
    return _hash(keys.shape, keys, [(lane, _SALT_LANE)], unit=True)


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

    def _next_event(self, n: int, unit: bool = False) -> np.ndarray:
        keys = _event_keys(self.master_seed, self.stream_id, self.counter, n, unit)
        self.counter += 1
        return keys

    def uniforms(self, n: int) -> np.ndarray:
        return self._next_event(n, unit=True)


def keys_for_sites(master_seed: int, stream_id, x, y) -> np.ndarray:
    """uint64 keys for lattice sites (x, y), vectorized over coordinate arrays.

    A site's key depends only on (master_seed, stream_id, x, y), so any
    window over the lattice sees the same values: extension-consistency for
    weight fields comes from here.  stream_id may be an integer array that
    broadcasts against the coordinates.
    """
    # Viewing int64 as uint64 is the two's-complement cast, without a copy.
    xs, ys = (np.atleast_1d(np.asarray(v, dtype=np.int64)).view(_U64) for v in (x, y))
    sid = _as_u64(stream_id)
    base = _hash(sid.shape, _seed_key(master_seed), [(sid, _SALT_STREAM)])
    shape = np.broadcast(base, xs, ys).shape
    return _hash(shape, base, [(xs, _SALT_EVENT), (ys, _SALT_INDEX)])


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


# The ufuncs _libm runs and the libm functions whose bits they must give.
_MATH = {np.exp: math.exp, np.expm1: math.expm1, np.log1p: math.log1p}


def _reversed_loop(f, arr: np.ndarray) -> np.ndarray:
    # A negative-stride input with a fresh contiguous output makes numpy
    # run its scalar loop, which calls libm, instead of its SIMD loop,
    # whose last bits differ from libm's on a few percent of inputs.
    flat = arr.reshape(-1)
    return np.ascontiguousarray(f(flat[::-1])[::-1]).reshape(arr.shape)


def _reversed_loop_is_libm() -> bool:
    """Whether _reversed_loop gives math's bits on a few hundred probes."""
    x = np.linspace(-0.75, 30.0, 256)
    return all(
        _reversed_loop(f, x).tobytes() == np.array(list(map(m, x.tolist()))).tobytes()
        for f, m in _MATH.items()
    )


_LIBM_VECTOR = _reversed_loop_is_libm()


def _libm(f, x) -> np.ndarray:
    """f(x) with the bits of math's function, for f in _MATH and an array x.

    Vectorised where this numpy's scalar loop is libm (probed at import),
    per element through ``_per_element`` otherwise; the values agree on
    every input where the math function is defined.
    """
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if _LIBM_VECTOR:
        return _reversed_loop(f, arr)
    return _per_element(_MATH[f], arr)


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
        lanes = np.arange(base, base + 3, dtype=_U64)[:, None]
        u1, u2, u = _hash((3, k.size), k, [(lanes, _SALT_LANE)], unit=True)
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
