import math
import tracemalloc

import numpy as np
import pytest
import scipy.special as sps
import scipy.stats as st

from busemann_lab import special_functions
from busemann_lab.bruteforce import unfused_absorb, unfused_mix64, unfused_to_unit
from busemann_lab.special_functions import (
    _SALT_EVENT,
    _SALT_INDEX,
    _SALT_LANE,
    _SALT_STREAM,
    Rng,
    _as_u64,
    _event_keys,
    _lane_uniforms,
    _libm,
    _spawn_ids,
    digamma,
    gamma_from_keys,
    keys_for_sites,
    poisson_from_keys,
    reg_inc_beta,
    reg_inc_gamma,
    sample_gamma,
    sample_inverse_gamma,
    sample_poisson,
    trigamma,
    uniform_from_keys,
)


_LIBM_FUNCS = [(np.exp, math.exp), (np.log1p, math.log1p), (np.expm1, math.expm1)]


def _libm_inputs(f) -> np.ndarray:
    """10^5 inputs where math's version of f is defined, edge cases first:
    signed zeros, subnormals, the 700 cap of the update map, NaN, inf."""
    rng = np.random.default_rng(17)
    tiny = np.finfo(np.float64).smallest_subnormal
    edge = [0.0, -0.0, tiny, -tiny, 3e-310, -3e-310, 2.2e-308, 1e-300,
            700.0, np.nextafter(700.0, 0.0), 699.5, np.nan, np.inf]
    if f is np.log1p:
        edge += [-0.5, np.nextafter(-1.0, 0.0), 1e300]
        body = np.concatenate((
            rng.uniform(-1.0, 1.0, 40_000),
            np.exp(rng.uniform(-745.0, 700.0, 40_000)),
        ))
    else:
        edge += [-np.inf, -745.0, -708.5, 709.7]
        body = np.concatenate((
            rng.uniform(-745.0, 700.0, 40_000),
            rng.normal(0.0, 2.0, 40_000),
        ))
    body = np.concatenate((body, rng.uniform(-1e-5, 1e-5, 20_000)))
    return np.concatenate((edge, body))[:100_000]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    same = (a.view(np.uint64) == b.view(np.uint64)) | (np.isnan(a) & np.isnan(b))
    return a.shape == b.shape and bool(np.all(same))


class TestLibm:
    @pytest.mark.parametrize("f, m", _LIBM_FUNCS, ids=lambda f: f.__name__)
    def test_matches_math(self, f, m):
        x = _libm_inputs(f)
        assert x.size == 100_000
        ref = np.array([m(v) for v in x.tolist()])
        assert _same_bits(_libm(f, x), ref)
        # Already-reversed and strided views, and a 2-d block.
        assert _same_bits(_libm(f, x[::-1]), ref[::-1])
        assert _same_bits(_libm(f, x[::-3]), ref[::-3])
        assert _same_bits(_libm(f, x[1::2]), ref[1::2])
        assert _same_bits(_libm(f, x.reshape(400, 250)), ref.reshape(400, 250))
        assert _same_bits(_libm(f, x.reshape(400, 250).T), ref.reshape(400, 250).T)

    @pytest.mark.parametrize("f", [f for f, _ in _LIBM_FUNCS], ids=lambda f: f.__name__)
    def test_fallback_gives_the_same_bits(self, monkeypatch, f):
        x = _libm_inputs(f)
        fast = _libm(f, x)
        monkeypatch.setattr(special_functions, "_LIBM_VECTOR", False)
        assert _same_bits(_libm(f, x), fast)
        assert _same_bits(_libm(f, x[::-1]), fast[::-1])

    def test_probe_rejects_a_loop_off_by_one_ulp(self, monkeypatch):
        loop = special_functions._reversed_loop
        monkeypatch.setattr(
            special_functions, "_reversed_loop",
            lambda f, arr: np.nextafter(loop(f, arr), np.inf),
        )
        assert special_functions._reversed_loop_is_libm() is False


class TestSpecialValues:
    @pytest.mark.parametrize("s", [0.01, 0.3, 0.5, 1.0, 1.5, 2.0, 7.3, 40.0, 500.0])
    def test_digamma_matches_scipy(self, s):
        assert digamma(s) == pytest.approx(float(sps.digamma(s)), abs=1e-12, rel=1e-12)

    @pytest.mark.parametrize("s", [0.01, 0.3, 0.5, 1.0, 1.5, 2.0, 7.3, 40.0, 500.0])
    def test_trigamma_matches_scipy(self, s):
        assert trigamma(s) == pytest.approx(
            float(sps.polygamma(1, s)), abs=1e-12, rel=1e-12
        )

    def test_digamma_known_value(self):
        # psi(1) = -Euler-Mascheroni; psi(2) = 1 - gamma.
        gamma_e = 0.5772156649015329
        assert digamma(1.0) == pytest.approx(-gamma_e, abs=1e-13)
        assert digamma(2.0) - digamma(1.0) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("s", [0.2, 1.0, 2.5, 11.0])
    @pytest.mark.parametrize("x", [0.0, 1e-8, 0.1, 1.0, 3.7, 25.0, 400.0])
    def test_reg_inc_gamma_matches_scipy(self, s, x):
        assert reg_inc_gamma(s, x) == pytest.approx(
            float(sps.gammainc(s, x)), abs=1e-13
        )

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.8, 0.8), (2.0, 3.0), (10.0, 0.3)])
    @pytest.mark.parametrize("x", [0.0, 1e-6, 0.25, 0.5, 0.75, 1.0 - 1e-6, 1.0])
    def test_reg_inc_beta_matches_scipy(self, a, b, x):
        assert reg_inc_beta(a, b, x) == pytest.approx(
            float(sps.betainc(a, b, x)), abs=1e-13
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            digamma(0.0)
        with pytest.raises(ValueError):
            trigamma(-1.0)
        with pytest.raises(ValueError):
            reg_inc_gamma(1.0, -0.1)
        with pytest.raises(ValueError):
            reg_inc_beta(1.0, 1.0, 1.5)


class TestRngDeterminism:
    def test_repeatable(self):
        a = Rng(master_seed=5, stream_id=3)
        b = Rng(master_seed=5, stream_id=3)
        assert np.array_equal(a.uniforms(100), b.uniforms(100))

    def test_counter_advances(self):
        r = Rng(master_seed=5)
        assert not np.array_equal(r.uniforms(10), r.uniforms(10))

    def test_streams_differ(self):
        a = Rng(master_seed=5, stream_id=0).uniforms(50)
        b = Rng(master_seed=5, stream_id=1).uniforms(50)
        assert np.max(np.abs(a - b)) > 1e-3

    def test_spawn_reproducible_and_disjoint(self):
        r = Rng(master_seed=9)
        c1 = r.spawn(4).uniforms(20)
        c2 = Rng(master_seed=9).spawn(4).uniforms(20)
        assert np.array_equal(c1, c2)
        assert not np.array_equal(c1, r.spawn(5).uniforms(20))

    def test_site_keys_extension_consistent(self):
        small = keys_for_sites(1, 0, np.arange(5), np.zeros(5, dtype=int))
        big = keys_for_sites(1, 0, np.arange(50), np.zeros(50, dtype=int))
        assert np.array_equal(small, big[:5])

    def test_uniforms_in_open_interval(self):
        u = Rng(master_seed=1).uniforms(10000)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_uniform_from_keys_deterministic(self):
        k = keys_for_sites(2, 7, 3, 4)
        assert uniform_from_keys(k) == uniform_from_keys(k)


class TestStreamIdArrays:
    SIDS = np.array([0, 1, 5, 2**40 + 3, 2**64 - 1], dtype=np.uint64)

    def test_site_keys_equal_stacked_scalar_calls(self):
        xs = np.arange(-3, 9)
        got = keys_for_sites(4, self.SIDS[:, None], xs, 2)
        want = np.stack([keys_for_sites(4, int(sid), xs, 2) for sid in self.SIDS])
        assert got.shape == (self.SIDS.size, xs.size)
        assert np.array_equal(got, want)

    def test_event_keys_equal_stacked_scalar_calls(self):
        got = _event_keys(4, self.SIDS, 3, 7)
        want = np.stack([_event_keys(4, int(sid), 3, 7) for sid in self.SIDS])
        assert got.shape == (self.SIDS.size, 7)
        assert np.array_equal(got, want)

    def test_event_keys_at_index_arrays_equal_whole_events(self):
        # A ragged draw: stream s takes elements idx[owner == s].
        owner = np.array([0, 0, 2, 4, 4, 4, 1])
        idx = np.array([5, 0, 3, 0, 6, 2, 1])
        got = _event_keys(4, self.SIDS[owner], 3, idx)
        want = _event_keys(4, self.SIDS, 3, 7)[owner, idx]
        assert np.array_equal(got, want)
        assert np.array_equal(_event_keys(4, 9, 3, idx), _event_keys(4, 9, 3, 7)[idx])

    def test_spawn_ids_equal_spawned_streams(self):
        subs = np.array([0, 1, 2, 399, 2**40], dtype=np.uint64)
        for sid in self.SIDS:
            got = _spawn_ids(int(sid), subs)
            want = [Rng(1, int(sid)).spawn(int(s)).stream_id for s in subs]
            assert got.tolist() == want
        want = [Rng(1, int(sid)).spawn(6).stream_id for sid in self.SIDS]
        assert _spawn_ids(self.SIDS, 6).tolist() == want


def _unfused_base(seed: int, stream_id) -> np.ndarray:
    return unfused_absorb(unfused_mix64(_as_u64(seed)), stream_id, _SALT_STREAM)


def _unfused_event_keys(seed: int, stream_id, counter: int, n) -> np.ndarray:
    """The allocating chain of ``_event_keys``: index arrays or range(n)."""
    k = unfused_absorb(_unfused_base(seed, stream_id), counter, _SALT_EVENT)
    if isinstance(n, np.ndarray):
        idx = n.astype(np.uint64)
    else:
        idx = np.arange(n, dtype=np.uint64)
        k = k.reshape(np.shape(stream_id) + (1,))
    return unfused_absorb(k ^ (idx * special_functions._GOLDEN), idx, _SALT_INDEX)


def _unfused_site_keys(seed: int, stream_id, x, y) -> np.ndarray:
    xs, ys = (np.atleast_1d(np.asarray(v, dtype=np.int64)).astype(np.uint64)
              for v in (x, y))
    xs, ys, base = np.broadcast_arrays(xs, ys, _unfused_base(seed, stream_id))
    return unfused_absorb(unfused_absorb(base, xs, _SALT_EVENT), ys, _SALT_INDEX)


def _unfused_uniforms(keys: np.ndarray, lane: int) -> np.ndarray:
    return unfused_to_unit(unfused_absorb(keys, lane, _SALT_LANE))


def _same(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)


# A spawned stream id at or above 2^62.
_BIG_SID = Rng(7, 2**62 + 5).spawn(0).stream_id
# Sizes around the borders of the kernel's passes.
_CHUNK_SIZES = [0, 1, 65_535, 65_536, 65_537, 3 * 65_536 + 5]


class TestFusedHashing:
    SIDS = np.array([3, 2**40 + 1, _BIG_SID], dtype=np.uint64)

    def test_big_stream_id(self):
        assert _BIG_SID >= 2**62

    @pytest.mark.parametrize("size", _CHUNK_SIZES)
    def test_event_keys_equal_the_unfused_chain(self, size):
        want = _unfused_event_keys(5, _BIG_SID, 2, size)
        assert _same(_event_keys(5, _BIG_SID, 2, size), want)
        # Two rows of streams: passes straddle the row border.
        sids = self.SIDS[1:]
        assert _same(_event_keys(5, sids, 2, size), _unfused_event_keys(5, sids, 2, size))
        rng = np.random.default_rng(size)
        owner = rng.integers(0, self.SIDS.size, size)
        idx = rng.integers(0, 2**40, size)
        got = _event_keys(5, self.SIDS[owner], 2, idx)
        assert _same(got, _unfused_event_keys(5, self.SIDS[owner], 2, idx))
        assert _same(_event_keys(5, 9, 2, idx), _unfused_event_keys(5, 9, 2, idx))

    @pytest.mark.parametrize("size", _CHUNK_SIZES)
    def test_site_keys_equal_the_unfused_chain(self, size):
        xs = np.arange(size) - 7
        sids = self.SIDS[1:, None]
        assert _same(keys_for_sites(8, sids, xs, 3), _unfused_site_keys(8, sids, xs, 3))
        want = _unfused_site_keys(8, _BIG_SID, 3, xs)
        assert _same(keys_for_sites(8, _BIG_SID, 3, xs), want)

    @pytest.mark.parametrize("size", _CHUNK_SIZES)
    def test_uniforms_equal_the_unfused_chain(self, size):
        keys = _unfused_event_keys(4, 1, 0, size)
        for lane in (0, 5):
            assert _same(_lane_uniforms(keys, lane), _unfused_uniforms(keys, lane))
        assert _same(uniform_from_keys(keys), _unfused_uniforms(keys, 0))
        want = _unfused_uniforms(_unfused_event_keys(4, _BIG_SID, 3, size), 0)
        assert _same(Rng(4, _BIG_SID, 3).uniforms(size), want)
        got = _event_keys(4, self.SIDS[:, None], 3, np.arange(size), unit=True)
        want = _unfused_uniforms(_unfused_event_keys(4, self.SIDS, 3, size), 0)
        assert _same(got, want)

    def test_same_bits_in_passes_of_seven(self, monkeypatch):
        n = 3_001
        keys = _event_keys(6, 2, 0, n)
        xs = np.arange(n // 3)
        draws = {
            "uniforms": lambda: Rng(6, _BIG_SID).uniforms(n),
            "sites": lambda: keys_for_sites(6, self.SIDS[:, None], xs, -2),
            "gamma": lambda: gamma_from_keys(keys, 0.6),
            "poisson": lambda: poisson_from_keys(keys, 3.5),
        }
        want = {name: draw() for name, draw in draws.items()}
        monkeypatch.setattr(special_functions, "_CHUNK", 7)
        for name, draw in draws.items():
            assert _same(draw(), want[name]), name

    @pytest.mark.parametrize("name", ["uniforms", "sites"])
    def test_peak_memory_near_the_output(self, name):
        """tracemalloc sees numpy's buffers: a draw may allocate its output
        and little more, not a full-size temporary per hashing step."""
        xs = np.arange(1_000_000)
        draw = {"uniforms": lambda: Rng(7).uniforms(2_000_000),
                "sites": lambda: keys_for_sites(7, 3, xs, 5)}[name]
        tracemalloc.start()
        try:
            out = draw()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * out.nbytes


def _scalar_trigamma(s: float) -> float:
    """The scalar recurrence-and-series trigamma, the array version's oracle."""
    acc = 0.0
    while s < 12.0:
        acc += 1.0 / (s * s)
        s += 1.0
    inv = 1.0 / s
    inv2 = inv * inv
    series = inv * inv2 * (
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
    return acc + inv + 0.5 * inv2 + series


class TestArrayTrigamma:
    GRID = np.concatenate((np.geomspace(1e-4, 1e3, 4001), np.linspace(0.01, 12.5, 999)))

    def test_array_equals_scalar_recurrence(self):
        want = np.array([_scalar_trigamma(float(v)) for v in self.GRID])
        assert np.array_equal(trigamma(self.GRID), want)

    def test_scalar_path_equals_array_path(self):
        got = np.array([trigamma(float(v)) for v in self.GRID])
        assert np.array_equal(got, trigamma(self.GRID))
        assert trigamma(np.float64(0.7)) == trigamma(np.array([0.7]))[0]

    def test_scalar_in_float_out(self):
        got = trigamma(0.7)
        assert type(got) is float
        assert got == _scalar_trigamma(0.7)

    def test_shape_and_domain(self):
        assert trigamma(np.full((2, 3), 1.5)).shape == (2, 3)
        with pytest.raises(ValueError):
            trigamma(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            trigamma(np.array([np.nan]))


class TestArrayIncomplete:
    """Array x runs the scalar code per element: equal results, same shape."""

    X_GAMMA = np.concatenate(([0.0], np.geomspace(1e-8, 400.0, 3000)))
    X_BETA = np.concatenate((
        [0.0, 1.0], np.linspace(0.0, 1.0, 2001), np.geomspace(1e-12, 1e-2, 500),
        1.0 - np.geomspace(1e-12, 1e-2, 500),
    ))

    @pytest.mark.parametrize("s", [0.2, 1.0, 2.5, 11.0])
    def test_gamma_array_equals_scalars(self, s):
        # Both sides of x = s + 1: the series and the continued fraction.
        assert np.any(self.X_GAMMA < s + 1.0) and np.any(self.X_GAMMA > s + 1.0)
        want = np.array([reg_inc_gamma(s, float(v)) for v in self.X_GAMMA])
        assert np.array_equal(reg_inc_gamma(s, self.X_GAMMA), want)

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.8, 0.8), (2.0, 3.0), (10.0, 0.3)])
    def test_beta_array_equals_scalars(self, a, b):
        # Both sides of x = (a + 1) / (a + b + 2): direct and reflected.
        split = (a + 1.0) / (a + b + 2.0)
        assert np.any(self.X_BETA < split) and np.any(self.X_BETA > split)
        want = np.array([reg_inc_beta(a, b, float(v)) for v in self.X_BETA])
        assert np.array_equal(reg_inc_beta(a, b, self.X_BETA), want)

    def test_shapes(self):
        x = np.linspace(0.0, 1.0, 6).reshape(2, 3)
        assert reg_inc_gamma(1.5, x).shape == (2, 3)
        assert reg_inc_beta(2.0, 3.0, x).shape == (2, 3)
        assert reg_inc_gamma(1.5, np.empty(0)).shape == (0,)
        for x0 in (np.float64(0.3), np.array(0.3), 0.3):
            assert type(reg_inc_gamma(1.5, x0)) is float
            assert type(reg_inc_beta(2.0, 3.0, x0)) is float

    def test_element_out_of_range(self):
        with pytest.raises(ValueError):
            reg_inc_gamma(1.0, np.array([0.5, -0.1]))
        with pytest.raises(ValueError):
            reg_inc_gamma(1.0, np.array([0.5, np.inf]))
        with pytest.raises(ValueError):
            reg_inc_beta(1.0, 1.0, np.array([[0.5], [1.5]]))
        with pytest.raises(ValueError):
            reg_inc_beta(1.0, 1.0, np.array([np.nan]))


class TestSamplerLaws:
    @pytest.mark.parametrize("shape", [0.3, 0.8, 1.0, 2.5, 9.0])
    def test_gamma_ks(self, shape):
        x = sample_gamma(Rng(master_seed=11), shape, size=20000)
        assert st.kstest(x, st.gamma(shape).cdf).pvalue > 1e-3

    @pytest.mark.parametrize("shape", [0.5, 1.5, 2.0])
    def test_inverse_gamma_ks(self, shape):
        x = sample_inverse_gamma(Rng(master_seed=12), shape, size=20000)
        assert st.kstest(x, st.invgamma(shape).cdf).pvalue > 1e-3

    def test_poisson_mean_and_dispersion(self):
        c = sample_poisson(Rng(master_seed=15), 3.7, size=20000)
        assert abs(c.mean() - 3.7) < 3 * math.sqrt(3.7 / 20000)
        assert abs(c.var() - 3.7) < 0.15

    def test_poisson_vector_means(self):
        means = np.array([0.0, 0.5, 4.0])
        c = sample_poisson(Rng(master_seed=16), np.tile(means, 5000), size=15000)
        assert np.all(c[::3] == 0)

    def test_scalar_draws(self):
        r = Rng(master_seed=17)
        assert isinstance(sample_gamma(r, 2.0), float)
        assert isinstance(sample_poisson(Rng(master_seed=17), 2.0), int)

    @pytest.mark.parametrize("mean", [0.0, 0.3, 3.7, 40.0])
    def test_poisson_from_keys_equals_sample_poisson(self, mean):
        want = sample_poisson(Rng(15, 4, 2), mean, size=500)
        got = poisson_from_keys(_event_keys(15, 4, 2, 500), mean)
        assert np.array_equal(got, want)

    def test_poisson_from_keys_vector_means(self):
        means = np.tile([0.0, 0.5, 4.0], 100)
        want = sample_poisson(Rng(master_seed=16), means, size=300)
        got = poisson_from_keys(_event_keys(16, 0, 0, 300), means)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("mean", [math.nan, math.inf, -1.0, -1e-300])
    def test_poisson_from_keys_rejects_bad_means(self, mean):
        keys = _event_keys(1, 0, 0, 3)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            poisson_from_keys(keys, mean)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            poisson_from_keys(keys, np.array([1.0, mean, 2.0]))

    def test_gamma_from_keys_pure(self):
        keys = keys_for_sites(3, 0, np.arange(100), np.arange(100))
        assert np.array_equal(
            gamma_from_keys(keys, 1.3), gamma_from_keys(keys, 1.3)
        )

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            sample_gamma(Rng(master_seed=1), 0.0)
        with pytest.raises(ValueError):
            sample_poisson(Rng(master_seed=1), -1.0)
