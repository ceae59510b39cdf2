import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.special as sps
import scipy.stats as st

import busemann_lab
from busemann_lab import special_functions
from busemann_lab.experiments import MIN_SHAPE
from busemann_lab.igamma_process import REPARAM_POINTS, _zero_temp_rho
from busemann_lab.special_functions import (
    _SALT_EVENT,
    _SALT_INDEX,
    _SALT_LANE,
    _SALT_STREAM,
    POISSON_MEAN_MAX,
    Rng,
    _as_u64,
    _event_keys,
    _lane_uniforms,
    _libm,
    _log1p_exp,
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
)

from oracles import (_i_beta, _p_gamma, per_key_poisson, unfused_absorb, unfused_mix64,
                     unfused_to_unit, where_loop_trigamma, whole_array_gamma)


_LIBM_FUNCS = [(np.exp, math.exp), (np.log1p, math.log1p), (np.expm1, math.expm1),
               (np.log, math.log)]
_TINY = np.finfo(np.float64).smallest_subnormal


def _libm_inputs(f) -> np.ndarray:
    """10^5 inputs where math's version of f is defined, edge cases first:
    signed zeros, subnormals, the 700 cap of the update map, NaN, inf."""
    rng = np.random.default_rng(17)
    tiny = _TINY
    edge = [0.0, -0.0, tiny, -tiny, 3e-310, -3e-310, 2.2e-308, 1e-300,
            700.0, np.nextafter(700.0, 0.0), 699.5, np.nan, np.inf]
    if f is np.log:
        edge = [tiny, 3e-310, 2.2e-308, 1e-300, 0.5, 1.0, np.nextafter(1.0, 0.0),
                np.nextafter(1.0, 2.0), 700.0, 1e300, np.finfo(np.float64).max,
                np.nan, np.inf]
        body = np.concatenate((
            np.exp(rng.uniform(-745.0, 709.0, 40_000)),
            rng.uniform(0.5, 2.0, 40_000),
        ))
    elif f is np.log1p:
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
    near_zero = rng.uniform(-1e-5, 1e-5, 20_000)
    if f is np.log:
        near_zero = np.abs(near_zero) + tiny
    return np.concatenate((edge, body, near_zero))[:100_000]


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

    @pytest.mark.parametrize("vector", [True, False], ids=["vector", "math"])
    def test_log1p_exp_matches_math(self, monkeypatch, vector):
        monkeypatch.setattr(special_functions, "_LIBM_VECTOR", vector)
        # The update map's 700 cap, exp's underflow, signed zeros and
        # subnormals, and where log1p(e^x) starts to round to x.
        edge = [700.0, -745.0, -np.inf, np.nan, 0.0, -0.0, _TINY, -_TINY]
        x = np.concatenate((edge, np.linspace(36.6, 36.8, 201), _libm_inputs(np.exp)))
        ref = np.array([math.log1p(math.exp(v)) for v in x.tolist()])
        got = x.copy()
        _log1p_exp(got, np.empty_like(x))
        assert _same_bits(got, ref)

    def test_probe_rejects_a_softplus_off_by_one_ulp(self, monkeypatch):
        soft = special_functions._reversed_softplus

        def off(x, scratch):
            soft(x, scratch)
            x[:] = np.nextafter(x, np.inf)

        monkeypatch.setattr(special_functions, "_reversed_softplus", off)
        assert special_functions._reversed_loop_is_libm() is False

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

    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**64), 2**64 + 7])
    def test_aliased_seed_refused(self, seed):
        # Its 64-bit word would draw the numbers of seed mod 2^64.
        with pytest.raises(ValueError, match="outside"):
            Rng(master_seed=seed).uniforms(4)
        with pytest.raises(ValueError, match="outside"):
            keys_for_sites(seed, 0, [1], [2])
        with pytest.raises(ValueError, match="outside"):
            Rng(master_seed=seed).spawn(1).uniforms(1)

    # Uniforms 0..2 of Rng(seed, 5) and the keys of sites (1, 5) and (-2, 6)
    # on stream 3, as drawn before seeds were range-checked.
    EDGE_SEEDS = {
        0: ([0x3FECDD3BA7C2994A, 0x3FEB9B857EA54E22, 0x3FEA6B8DC5CF4B56],
            [0x7C2579A84E9B8DF1, 0x27D747322ABE2DBB]),
        2**64 - 1: ([0x3FA4C3F95A3434D8, 0x3FEEF011FCE36786, 0x3FDDB7BBB26C9EED],
                    [0x23F685F1ECF146DF, 0x3521FC45BECE0832]),
    }

    @pytest.mark.parametrize("seed", sorted(EDGE_SEEDS))
    def test_edge_seeds_keep_their_bits(self, seed):
        uniforms, keys = self.EDGE_SEEDS[seed]
        assert Rng(seed, 5).uniforms(3).view(np.uint64).tolist() == uniforms
        assert keys_for_sites(seed, 3, [1, -2], [5, 6]).tolist() == keys

    def test_stream_ids_keep_their_arithmetic_mod_2_64(self):
        assert np.array_equal(Rng(7, -1).uniforms(4), Rng(7, 2**64 - 1).uniforms(4))
        assert np.array_equal(keys_for_sites(7, 2**64 + 3, [1], [2]),
                              keys_for_sites(7, 3, [1], [2]))


class TestUniformRows:
    # Many blocks; one row wider than a hashing pass; one-element rows.
    @pytest.mark.parametrize("rows, cols", [(1000, 2000), (3, 70_000), (7, 1)])
    def test_blocks_equal_the_reshaped_draw(self, rows, cols):
        blocks = list(Rng(4, 9).uniform_rows(rows, cols))
        step = max(1, special_functions._CHUNK // cols)
        assert [len(b) for b in blocks] == [min(step, rows - r) for r in range(0, rows, step)]
        want = Rng(4, 9).uniforms(rows * cols).reshape(rows, cols)
        assert _same_bits(np.concatenate(blocks), want)

    def test_counter_advances_at_call_time(self):
        r = Rng(master_seed=3)
        r.uniform_rows(5, 10)
        assert r.counter == 1
        assert _same_bits(r.uniforms(8), Rng(master_seed=3, counter=1).uniforms(8))

    def test_interleaved_draw_leaves_both_streams(self):
        r = Rng(master_seed=3)
        rows = r.uniform_rows(40, 3000)
        between = r.uniforms(8)
        got = np.concatenate(list(rows))
        assert _same_bits(got, Rng(master_seed=3).uniforms(40 * 3000).reshape(40, 3000))
        assert _same_bits(between, Rng(master_seed=3, counter=1).uniforms(8))


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


_GAMMA_SIZES = [0, 1, special_functions._CHUNK - 1, special_functions._CHUNK + 1,
                3 * special_functions._CHUNK + 5]
_GAMMA_SHAPES = [MIN_SHAPE, 0.7, 1.0, 2.0, 50.0]


class TestBlockedGamma:
    """gamma_from_keys draws _CHUNK // 4 keys at a time and runs the log
    test only where the squeeze fails; its bits are those of the
    whole-array sampler."""

    @pytest.mark.parametrize("shape", _GAMMA_SHAPES)
    @pytest.mark.parametrize("size", _GAMMA_SIZES)
    def test_equals_the_whole_array_sampler(self, size, shape):
        keys = _event_keys(5, _BIG_SID, 1, size)
        assert _same(gamma_from_keys(keys, shape), whole_array_gamma(keys, shape))

    def test_same_bits_in_blocks_of_seven(self, monkeypatch):
        keys = _event_keys(6, _BIG_SID, 0, 3_001)
        want = [whole_array_gamma(keys, shape) for shape in _GAMMA_SHAPES]
        monkeypatch.setattr(special_functions, "_CHUNK", 7)
        for shape, w in zip(_GAMMA_SHAPES, want):
            assert _same(gamma_from_keys(keys, shape), w), shape

    def test_same_bits_without_avx512(self):
        # numpy picks its SIMD loops at import, so the comparison runs in a
        # subprocess with the AVX-512 loops turned off.
        script = (
            "import numpy as np\n"
            "from busemann_lab.special_functions import _CHUNK, _event_keys, gamma_from_keys\n"
            "from oracles import whole_array_gamma\n"
            f"for shape in {_GAMMA_SHAPES!r}:\n"
            "    for size in (1, _CHUNK + 1):\n"
            f"        keys = _event_keys(5, {_BIG_SID}, 1, size)\n"
            "        got, want = gamma_from_keys(keys, shape), whole_array_gamma(keys, shape)\n"
            "        assert np.array_equal(got, want), (shape, size)\n"
        )
        src = Path(busemann_lab.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(src), str(Path(__file__).parent),
                                             os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path,
                   NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr


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

    @pytest.mark.parametrize("grid", [
        [np.nextafter(12.0, 0.0), 12.0, np.nextafter(12.0, 13.0), 11.0, 11.5],
        [1e3, 1e150, 1e300, np.finfo(np.float64).max],
        [1e-300, 1e-160, 1e-100, _TINY, 1e-8],
        [0.25, 3.0, 12.0, 1e-7, 2e5, 7.5, 11.999],
    ], ids=["near-12", "large", "tiny", "mixed"])
    def test_live_lane_loop_equals_where_loop(self, grid):
        # Tiny s overflows 1/s^2 to inf in both forms.
        with np.errstate(divide="ignore"):
            assert trigamma(np.array(grid)).tobytes() == where_loop_trigamma(grid).tobytes()

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
    def test_live_lane_loop_on_the_reparam_grid(self, alpha):
        xi1 = np.linspace(0.0, 1.0, REPARAM_POINTS + 2)[1:-1]
        rho = alpha * _zero_temp_rho(xi1)
        for s in (rho, alpha - rho, rho.reshape(100, -1)):
            assert trigamma(s).tobytes() == where_loop_trigamma(s).tobytes()

    def test_input_is_not_written(self):
        s = np.array([0.5, 3.0, 20.0])
        trigamma(s)
        assert s.tolist() == [0.5, 3.0, 20.0]

    def test_shape_and_domain(self):
        assert trigamma(np.full((2, 3), 1.5)).shape == (2, 3)
        with pytest.raises(ValueError):
            trigamma(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            trigamma(np.array([np.nan]))


def _scalar_calls(f, x: np.ndarray) -> np.ndarray:
    """f on every element of x as a Python float."""
    return np.array([f(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _gamma_points(s: float, n: int = 100_000) -> np.ndarray:
    """n points on [0, inf), n a multiple of 250: the series/fraction switch
    x = s + 1 and its neighbours, 0, 1 and subnormals first."""
    rng = np.random.default_rng(int(1000 * s))
    split = s + 1.0
    edge = [0.0, 1.0, _TINY, 3e-310, split, np.nextafter(split, 0.0),
            np.nextafter(split, np.inf)]
    body = np.concatenate((rng.exponential(s, n // 2), rng.uniform(0.0, 3.0 * split, 2 * n // 5),
                           np.exp(rng.uniform(-700.0, 0.0, n // 10))))
    return np.concatenate((edge, body))[:n]


def _beta_points(a: float, b: float) -> np.ndarray:
    """10^5 points on [0, 1]: the direct/reflected switch x = (a+1)/(a+b+2)
    and its neighbours, 0, 1 and subnormals first."""
    rng = np.random.default_rng(int(1000 * a + b))
    split = (a + 1.0) / (a + b + 2.0)
    edge = [0.0, 1.0, _TINY, 3e-310, 1.0 - 2.0 ** -53, split, np.nextafter(split, 0.0),
            np.nextafter(split, 1.0)]
    body = np.concatenate((rng.uniform(0.0, 1.0, 50_000), rng.beta(a, b, 30_000),
                           np.exp(rng.uniform(-700.0, 0.0, 10_000)),
                           -np.expm1(-np.exp(rng.uniform(-36.0, 3.0, 10_000)))))
    return np.concatenate((edge, body))[:100_000]


class TestArrayIncomplete:
    """The lane kernels run the scalar loops of tests/oracles.py lane by
    lane, each lane stopping at its own test: every element has the bits
    of the scalar oracle's call."""

    @staticmethod
    def _check_views(f, oracle, x: np.ndarray) -> None:
        want = _scalar_calls(oracle, x)
        assert _same_bits(f(x), want)
        # Reversed and strided views, 2-d blocks and an empty array.
        blocks = x.reshape(-1, 250)
        assert _same_bits(f(x[::-1]), want[::-1])
        assert _same_bits(f(x[1::3]), want[1::3])
        assert _same_bits(f(blocks), want.reshape(blocks.shape))
        assert _same_bits(f(blocks.T[::2]), want.reshape(blocks.shape).T[::2])
        for shape in [(0,), (0, 3)]:
            assert f(np.empty(shape)).shape == shape

    # At s = 1/3, s + 1 + ... + 1 rounds apart from s + i from i = 2 on.
    # s = 25 and 1,000 are the dispersion test's n / 2 in calibrate-stats
    # and jump-count; their series run hundreds of terms, so fewer points.
    @pytest.mark.parametrize("s", [0.2, 1.0 / 3.0, 1.0, 2.5, 11.0, 25.0, 1000.0])
    def test_gamma_array_equals_scalars(self, s):
        x = _gamma_points(s, 20_000 if s >= 25.0 else 100_000)
        # Both sides of x = s + 1: the series and the continued fraction.
        assert np.any(x < s + 1.0) and np.any(x == s + 1.0) and np.any(x > s + 1.0)
        self._check_views(lambda v: reg_inc_gamma(s, v), lambda v: _p_gamma(s, v), x)

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.8, 0.8), (2.0, 3.0), (10.0, 0.3)])
    def test_beta_array_equals_scalars(self, a, b):
        x = _beta_points(a, b)
        # Both sides of x = (a + 1) / (a + b + 2): direct and reflected.
        split = (a + 1.0) / (a + b + 2.0)
        assert np.any(x < split) and np.any(x == split) and np.any(x > split)
        self._check_views(lambda v: reg_inc_beta(a, b, v), lambda v: _i_beta(a, b, v), x)

    def test_shapes(self):
        x = np.linspace(0.0, 1.0, 6).reshape(2, 3)
        assert reg_inc_gamma(1.5, x).shape == (2, 3)
        assert reg_inc_beta(2.0, 3.0, x).shape == (2, 3)
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

    @pytest.mark.parametrize("f, oracle, bad", [
        (lambda v: reg_inc_gamma(1.0, v), lambda v: _p_gamma(1.0, v),
         lambda v: not (math.isfinite(v) and v >= 0.0)),
        (lambda v: reg_inc_beta(1.0, 1.0, v), lambda v: _i_beta(1.0, 1.0, v),
         lambda v: not 0.0 <= v <= 1.0),
    ], ids=["gamma", "beta"])
    def test_first_bad_element_raises_the_scalar_error(self, f, oracle, bad):
        x = np.array([[0.5, -0.1, 0.2], [np.inf, 1.5, np.nan]])
        for view in (x, x[::-1, ::-1], x.T, x[:, 2:]):
            first = next(v for v in view.ravel().tolist() if bad(v))
            with pytest.raises(ValueError) as want:
                oracle(first)
            for arg in (view, first):
                with pytest.raises(ValueError) as got:
                    f(arg)
                assert str(got.value) == str(want.value)


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

    # Enough keys that the small means draw some nonzero counts.
    @pytest.mark.parametrize("mean, n", [(0.0, 100), (1e-4, 30000), (0.3, 3000),
                                         (3.7, 1000), (40.0, 200), (708.0, 10)])
    def test_poisson_from_keys_equals_per_key_oracle(self, mean, n):
        keys = _event_keys(15, 4, 2, n)
        got = poisson_from_keys(keys, mean)
        assert np.array_equal(got, per_key_poisson(keys, mean))
        assert mean == 0.0 or np.any(got > 0)

    def test_poisson_from_keys_vector_means_equal_per_key_oracle(self):
        means = np.tile([0.0, 1e-4, 0.3, 3.7, 40.0, 708.0], 20)
        keys = _event_keys(16, 0, 0, means.shape[0])
        assert np.array_equal(poisson_from_keys(keys, means), per_key_poisson(keys, means))

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

    def test_poisson_from_keys_rejects_means_past_the_exact_range(self):
        # e^{-708} is still a normal double, e^{-709} is not.
        assert 708.0 < POISSON_MEAN_MAX < 709.0
        keys = _event_keys(1, 0, 0, 3)
        counts = poisson_from_keys(keys, 708.0)
        assert np.all(np.abs(counts - 708.0) < 6.0 * math.sqrt(708.0))
        for mean in (709.0, np.array([1.0, 709.0, 2.0])):
            with pytest.raises(ValueError, match="at most 708.4"):
                poisson_from_keys(keys, mean)

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            sample_gamma(Rng(master_seed=1), 0.0, size=1)
        with pytest.raises(ValueError):
            sample_poisson(Rng(master_seed=1), -1.0, size=1)
