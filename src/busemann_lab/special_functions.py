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
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Rng",
    "keys_for_sites",
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
_LANES = 4_096  # elements per block of the incomplete gamma and beta lane loops
# poisson_from_keys multiplies uniforms down to e^{-mean}; past this mean
# that is no longer a normal double and the counts would stop growing, so
# it refuses larger means.
POISSON_MEAN_MAX = -math.log(sys.float_info.min)


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
        # Shifted into t: a cast from z onto its own float view would copy z.
        u = np.add(np.right_shift(z, _U64(11), out=t), 0.5, out=z.view(np.float64))
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
    """mix64(master_seed), the root of the seed's keys; shared, so read-only.

    A seed outside [0, 2^64) raises ValueError: its 64-bit word would draw
    the numbers of the seed it equals modulo 2^64.  Stream ids keep their
    arithmetic modulo 2^64.
    """
    if not 0 <= master_seed < 2 ** 64:
        raise ValueError(f"master seed {master_seed} is outside [0, 2^64)")
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

    def uniform_rows(self, rows: int, cols: int):
        """``uniforms(rows * cols).reshape(rows, cols)``, block by block.

        The event is taken now, so the counter advances here even if the
        blocks are never read.  The iterator yields (block, cols) arrays of
        max(1, _CHUNK // cols) rows (fewer in the last), which concatenate
        to that reshaped draw: a pass over the rows holds one block at a time.
        """
        event = functools.partial(_event_keys, self.master_seed, self.stream_id,
                                  self.counter, unit=True)
        self.counter += 1
        step = max(1, _CHUNK // cols)
        return (event(np.arange(r * cols, min(r + step, rows) * cols, dtype=_U64).reshape(-1, cols))
                for r in range(0, rows, step))


def keys_for_sites(master_seed: int, stream_id, x, y) -> np.ndarray:
    """uint64 keys for lattice sites (x, y), vectorized over coordinate arrays.

    A site's key depends only on (master_seed, stream_id, x, y), so any
    window over the lattice sees the same values: extension-consistency for
    weight fields comes from here.  stream_id may be an integer array that
    broadcasts against the coordinates.  A master seed outside [0, 2^64)
    raises ValueError (_seed_key).
    """
    # Viewing int64 as uint64 is the two's-complement cast, without a copy.
    xs, ys = (np.atleast_1d(np.asarray(v, dtype=np.int64)).view(_U64) for v in (x, y))
    sid = _as_u64(stream_id)
    base = _hash(sid.shape, _seed_key(master_seed), [(sid, _SALT_STREAM)])
    shape = np.broadcast(base, xs, ys).shape
    return _hash(shape, base, [(xs, _SALT_EVENT), (ys, _SALT_INDEX)])


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
    """sum_n B_{2n} / s^{2n+1} from inv = 1/s and inv2 = 1/s^2."""
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

    s may be an array, and the result has its shape; a scalar s returns a
    float.  Each element shifts by the recurrence to s >= 12 and then sums
    the asymptotic series.  The shift loop runs on the lanes still below
    12 only, and writes each lane back as it passes 12.
    """
    arr = np.array(s, dtype=np.float64)
    bad = ~(np.isfinite(arr) & (arr > 0.0))
    if np.any(bad):
        _check_positive("s", arr[bad][0])
    acc = np.zeros_like(arr)
    flat, acc_flat = arr.reshape(-1), acc.reshape(-1)
    live = np.flatnonzero(flat < 12.0)
    x, a, t = flat[live], acc_flat[live], np.empty(live.size)
    # 1/s^2 overflows to inf below about 1e-154, as psi_1 does.
    with np.errstate(over="ignore"):
        while live.size:
            t = np.multiply(x, x, out=t[:live.size])
            a += np.divide(1.0, t, out=t)
            x += 1.0
            out = x >= 12.0
            if out.any():
                flat[live[out]], acc_flat[live[out]] = x[out], a[out]
                keep = ~out
                live, x, a = live[keep], x[keep], a[keep]
    inv = 1.0 / arr
    inv2 = inv * inv
    # 1/s + 1/(2 s^2) + sum_n B_{2n} / s^{2n+1}
    out = acc + inv + 0.5 * inv2 + _trigamma_series(inv, inv2)
    return float(out) if out.ndim == 0 else out


# The ufuncs _libm runs and the libm functions whose bits they must give.
_MATH = {np.exp: math.exp, np.expm1: math.expm1, np.log: math.log, np.log1p: math.log1p}


def _reversed_loop(f, arr: np.ndarray) -> np.ndarray:
    # A negative-stride input with a fresh contiguous output makes numpy
    # run its scalar loop, which calls libm, instead of its SIMD loop,
    # whose last bits differ from libm's on a few percent of inputs.
    flat = arr.reshape(-1)
    return np.ascontiguousarray(f(flat[::-1])[::-1]).reshape(arr.shape)


def _reversed_softplus(x: np.ndarray, scratch: np.ndarray) -> None:
    # exp reads x backwards into scratch and log1p reads scratch backwards
    # into x, so the reversals cancel; each loop has a negative-stride input
    # and a contiguous output, as in _reversed_loop, and nothing is copied.
    np.exp(x[::-1], out=scratch)
    np.log1p(scratch[::-1], out=x)


def _math_softplus(values: list) -> list:
    """math.log1p(math.exp(v)) for each float v of a list."""
    return list(map(math.log1p, map(math.exp, values)))


def _reversed_loop_is_libm() -> bool:
    """Whether _reversed_loop and _reversed_softplus give math's bits on a
    few hundred probes."""
    x = np.linspace(-0.75, 30.0, 256)
    d = np.linspace(-40.0, 40.0, 256)
    soft = d.copy()
    _reversed_softplus(soft, np.empty_like(d))
    want = np.array(_math_softplus(d.tolist()))
    return soft.tobytes() == want.tobytes() and all(
        _reversed_loop(f, p).tobytes() == np.array(list(map(m, p.tolist()))).tobytes()
        for f, m in _MATH.items() for p in [x + 1.0 if f is np.log else x]
    )


_LIBM_VECTOR = _reversed_loop_is_libm()


def _log1p_exp(x: np.ndarray, scratch: np.ndarray) -> None:
    """x = log1p(exp(x)) in place, with the bits of math's two functions.

    x is a contiguous 1-d float64 array with no finite value above 709
    (math.exp overflows past log(DBL_MAX)); scratch is a float64 array of its size
    that does not overlap it, and its contents are left undefined.  Two
    reversed ufunc loops where _LIBM_VECTOR holds, one math call pair per
    element otherwise.
    """
    if _LIBM_VECTOR:
        _reversed_softplus(x, scratch)
    else:
        x[:] = _math_softplus(x.tolist())


def _libm(f, x) -> np.ndarray:
    """f(x) with the bits of math's function, for f in _MATH and an array x.

    Vectorised where this numpy's scalar loop is libm (probed at import),
    one math call per element otherwise; the values agree on every input
    where the math function is defined.
    """
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if _LIBM_VECTOR:
        return _reversed_loop(f, arr)
    return np.fromiter(map(_MATH[f], arr.ravel().tolist()), np.float64,
                       count=arr.size).reshape(arr.shape)


def _lanes(x, bad, message: str, kernel):
    """kernel over the elements of x in C order, _LANES at a time, in x's
    shape; a scalar x returns a float.

    The first element that bad flags raises ValueError(message.format(v))
    for its value v.  The blocks keep the lane loops' temporaries at a few
    arrays of _LANES values.
    """
    arr = np.asarray(x, dtype=np.float64)
    flat = arr.ravel()
    flags = bad(flat)
    if flags.any():
        raise ValueError(message.format(float(flat[np.argmax(flags)])))
    out = np.empty(flat.shape)
    for lo in range(0, flat.shape[0], _LANES):
        out[lo:lo + _LANES] = kernel(flat[lo:lo + _LANES])
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def reg_inc_gamma(s: float, x):
    """Regularized lower incomplete gamma P(s, x) for s > 0, x >= 0.

    x may be an array (the result has its shape); a scalar x returns a
    float.  Below x = s + 1 the series for P, from there on the modified
    Lentz continued fraction for Q = 1 - P; each lane stops at its own
    convergence test, and the prefactor uses math's log and exp.
    """
    s = _check_positive("s", s)
    log_gamma_s = math.lgamma(s)

    def kernel(block):
        out = np.zeros(block.shape)
        pos = np.flatnonzero(block > 0.0)
        xs = block[pos]
        front = _libm(np.exp, s * _libm(np.log, xs) - xs - log_gamma_s)
        # fmin and fmax are Python's min(1.0, t) and max(0.0, t), NaN included.
        series = xs < s + 1.0
        out[pos[series]] = np.fmin(1.0, front[series] * _gamma_series(s, xs[series]))
        frac = ~series
        out[pos[frac]] = np.fmax(0.0, 1.0 - front[frac] * _gamma_cf(s, xs[frac]))
        return out

    return _lanes(x, lambda v: ~(np.isfinite(v) & (v >= 0.0)),
                  "x must be a finite nonnegative real, got {!r}", kernel)


def _until(state, step, steps: int) -> np.ndarray:
    """Run step over the lanes of state until each lane's own test stops it.

    state is a tuple of equal-length arrays whose first entry is the
    result; step(i, state) returns the next state and the lanes whose
    test passed at iteration i = 1, 2, ...  Stopped lanes keep that
    iteration's result and leave the loop, as a scalar loop's break
    would; lanes still running after the last of steps iterations keep
    their last result.
    """
    out = np.empty_like(state[0])
    live = np.arange(out.shape[0])
    for i in range(1, steps + 1):
        if live.size == 0:
            break
        state, stop = step(i, state)
        if stop.any():
            out[live[stop]] = state[0][stop]
            keep = ~stop
            live = live[keep]
            state = tuple(a[keep] for a in state)
    out[live] = state[0]
    return out


def _gamma_series(s: float, x: np.ndarray) -> np.ndarray:
    """The series sum_i x^i / (s (s + 1) ... (s + i)) of P e^x x^-s Gamma(s),
    lane by lane."""
    term = np.full(x.shape, 1.0 / s)
    denom = [s]  # s + 1.0 + 1.0 + ..., rounded at each step

    def step(i, state):
        total, term, x = state
        denom[0] += 1.0
        term = term * (x / denom[0])
        total = total + term
        return (total, term, x), np.abs(term) < np.abs(total) * 1e-17

    return _until((term.copy(), term, x), step, 10000)


def _gamma_cf(s: float, x: np.ndarray) -> np.ndarray:
    """The modified-Lentz continued fraction of Q e^x x^-s Gamma(s), lane by lane."""
    tiny = 1e-300
    b = x + 1.0 - s
    d = 1.0 / b

    def step(i, state):
        h, b, c, d = state
        an = -i * (i - s)
        b = b + 2.0
        d = an * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + an / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        delta = d * c
        h = h * delta
        return (h, b, c, d), np.abs(delta - 1.0) < 1e-16

    return _until((d, b, np.full(x.shape, 1.0 / tiny), d), step, 9999)


def reg_inc_beta(a: float, b: float, x):
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and 0 <= x <= 1.

    x may be an array (the result has its shape); a scalar x returns a
    float.  The modified-Lentz continued fraction, of I_x(a, b) below
    x = (a + 1) / (a + b + 2) and of I_{1-x}(b, a) from there on; each lane
    stops at its own convergence test, and the prefactor uses math's log,
    log1p and exp.
    """
    a = _check_positive("a", a)
    b = _check_positive("b", b)
    log_beta = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def kernel(block):
        out = np.zeros(block.shape)
        out[block == 1.0] = 1.0
        inner = np.flatnonzero((block > 0.0) & (block < 1.0))
        xs = block[inner]
        front = _libm(np.exp, log_beta + a * _libm(np.log, xs) + b * _libm(np.log1p, -xs))
        direct = xs < (a + 1.0) / (a + b + 2.0)
        out[inner[direct]] = front[direct] * _beta_cf_lanes(a, b, xs[direct]) / a
        flip = ~direct
        out[inner[flip]] = 1.0 - front[flip] * _beta_cf_lanes(b, a, 1.0 - xs[flip]) / b
        return out

    return _lanes(x, lambda v: ~((v >= 0.0) & (v <= 1.0)),
                  "x must lie in [0, 1], got {!r}", kernel)


def _beta_cf_lanes(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """The continued fraction of I_x(a, b) B(a, b) a x^-a (1 - x)^-b, lane by lane."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0

    def lentz(aa, c, d):
        d = 1.0 + aa * d
        d[np.abs(d) < tiny] = tiny
        c = 1.0 + aa / c
        c[np.abs(c) < tiny] = tiny
        return c, 1.0 / d

    def step(m, state):
        h, c, d, x = state
        m2 = 2 * m
        c, d = lentz(m * (b - m) * x / ((qam + m2) * (a + m2)), c, d)
        h = h * (d * c)
        c, d = lentz(-(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)), c, d)
        delta = d * c
        return (h * delta, c, d, x), np.abs(delta - 1.0) < 1e-16

    d = 1.0 - qab * x / qap
    d[np.abs(d) < tiny] = tiny
    d = 1.0 / d
    return _until((d, np.ones(x.shape), d, x), step, 9999)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def gamma_from_keys(keys: np.ndarray, shape: float) -> np.ndarray:
    """Vectorized Ga(shape, 1) draws, one per key.

    Marsaglia-Tsang squeeze/rejection for shape >= 1; shapes below 1 are
    boosted through Ga(shape + 1) times U^{1/shape}.  Each rejection attempt
    consumes three dedicated lanes of the per-key counter space, so the
    result is a pure function of the keys.  Keys are drawn _CHUNK // 4 at
    a time, so that an attempt's three lanes are one hashing pass; every
    element gets the same ufunc calls on contiguous arrays whatever the
    block, so blocks do not change the bits.
    """
    shape = _check_positive("shape", shape)
    boosted = shape < 1.0
    if boosted:
        shape = shape + 1.0
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    n = keys.shape[0]
    out = np.empty(n, dtype=np.float64)
    step = max(1, _CHUNK // 4)
    # Every attempt of every block hashes and computes in these two rows.
    work = np.empty((2, 3 * min(step, n)), dtype=_U64)
    for lo in range(0, n, step):
        block, dest = keys[lo:lo + step], out[lo:lo + step]
        _marsaglia_tsang(block, d, c, int(boosted), dest, work)
        if boosted:
            dest *= _lane_uniforms(block, 0) ** (1.0 / (shape - 1.0))
    return out


def _marsaglia_tsang(keys: np.ndarray, d: float, c: float, lane0: int,
                     out: np.ndarray, work: np.ndarray) -> None:
    """Ga(d + 1/3) draws of keys into out, attempt 0 from lane lane0 on.

    A lane takes d v at the first attempt with v > 0 that passes the
    squeeze u < 1 - 0.0331 x^4 or, failing it, the log test; only lanes
    that reach the log test compute its two logs.  An attempt over m keys
    hashes its lanes u1, u2, u into the first 3m words of work[0] and
    computes x, v and the squeeze in place there and in work[1].
    """
    pending = None
    for attempt in range(256):
        k = keys if pending is None else keys[pending]
        z, t = (row[:3 * k.size].reshape(3, k.size) for row in work)
        base = lane0 + 3 * attempt
        lanes = np.arange(base, base + 3, dtype=_U64)[:, None]
        _fold(z, t, k, [(lanes, _SALT_LANE)], False, True, 0, k.size)
        x, v, u = z.view(np.float64)
        x2, squeeze = t.view(np.float64)[:2]
        # x = sqrt(-2 log u1) cos(2 pi u2) over u1, v = (1 + c x)^3 over u2.
        np.log(x, out=x)
        x *= -2.0
        np.sqrt(x, out=x)
        v *= 2.0 * math.pi
        np.cos(v, out=v)
        x *= v
        np.multiply(x, c, out=v)
        v += 1.0
        np.power(v, 3, out=v)
        np.multiply(x, x, out=x2)
        ok = v > 0.0
        np.multiply(x2, 0.0331, out=squeeze)
        squeeze *= x2
        np.subtract(1.0, squeeze, out=squeeze)
        accept = u < squeeze
        accept &= ok
        test = np.flatnonzero(ok & ~accept)
        vt, x2t = v[test], x2[test]
        accept[test] = np.log(u[test]) < 0.5 * x2t + d - d * vt + d * np.log(vt)
        if pending is None:
            # Rejected lanes are overwritten by the attempt that accepts them.
            np.multiply(v, d, out=out)
            pending = np.flatnonzero(~accept)
        else:
            out[pending[accept]] = d * v[accept]
            pending = pending[~accept]
        if pending.size == 0:
            return
    raise RuntimeError(  # pragma: no cover - acceptance rate makes this unreachable
        "gamma rejection sampler failed to terminate")


def sample_gamma(rng: Rng, shape: float, size: int) -> np.ndarray:
    """size draws from Ga(shape) with unit scale, one event of the stream."""
    return gamma_from_keys(rng._next_event(int(size)), shape)


def sample_inverse_gamma(rng: Rng, shape: float, size: int) -> np.ndarray:
    """Reciprocals of the Ga(shape) draws of sample_gamma at the same position."""
    return 1.0 / gamma_from_keys(rng._next_event(int(size)), shape)


def poisson_from_keys(keys: np.ndarray, mean) -> np.ndarray:
    """Poisson draws by inversion (product of uniforms), one per key.

    mean is a scalar or an array of the keys' length.  Key i multiplies
    the uniforms of its lanes 0, 1, ... until the product falls to
    e^{-mean}, so the result is a pure function of the keys.  Intended
    for the modest means that arise in point-process band sampling; cost
    grows linearly with the mean.  A mean above POISSON_MEAN_MAX raises
    ValueError: its e^{-mean} is not a normal double.
    """
    n = keys.shape[0]
    means = np.broadcast_to(np.asarray(mean, dtype=np.float64), (n,))
    if np.any(means < 0.0) or not np.all(np.isfinite(means)):
        raise ValueError("Poisson mean must be finite and nonnegative")
    if np.any(means > POISSON_MEAN_MAX):
        raise ValueError(f"Poisson mean must be at most {POISSON_MEAN_MAX:.4g}, "
                         f"got {float(np.max(means)):.4g}")
    limit = np.exp(-means)
    # Lane 0 over every key: the product of one uniform is the uniform.
    prod = _lane_uniforms(keys, 0)
    counts = np.zeros(n, dtype=np.int64)
    pending = np.flatnonzero(~(prod <= limit))
    lane = 1
    while pending.size:
        prod[pending] *= _lane_uniforms(keys[pending], lane)
        counts[pending] += 1
        done = prod[pending] <= limit[pending]
        pending = pending[~done]
        lane += 1
        if lane > 100000:  # pragma: no cover
            raise RuntimeError("Poisson sampler failed to terminate")
    return counts


def sample_poisson(rng: Rng, mean, size: int) -> np.ndarray:
    """size Poisson draws from one event of the stream; mean may be an array
    of length size."""
    means = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    n = int(size)
    if means.shape[0] not in (1, n):
        raise ValueError("mean must be scalar or of length size")
    return poisson_from_keys(rng._next_event(n), means)
