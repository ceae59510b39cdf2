import math

import numpy as np
import pytest

from busemann_lab import seqmaps
from busemann_lab.seqmaps import (
    LogSeqWindow,
    NotInImage,
    SeqTuple,
    burn_in,
    cesaro_mean,
    d_iterated,
    daop,
    haop,
    inverse_h,
    last_i_tilde,
    parallel_step,
    sequential_step,
    update,
    update_raw,
)
from busemann_lab.special_functions import Rng, digamma, sample_inverse_gamma

from oracles import serial_update_raw


def ig_window(shape, lo, hi, seed, stream=0):
    rng = Rng(master_seed=seed, stream_id=stream)
    vals = np.log(sample_inverse_gamma(rng, shape, size=hi - lo + 1))
    return LogSeqWindow(lo, hi, vals, cesaro_hint=-digamma(shape))


def ig_tuple(shapes, lo, hi, seed):
    return SeqTuple(
        tuple(
            ig_window(s, lo, hi, seed, stream=k + 1)
            for k, s in enumerate(shapes)
        )
    )


class TestWindows:
    def test_restrict_and_shift(self):
        w = LogSeqWindow(2, 6, np.arange(5.0))
        r = w.restrict(3, 5)
        assert (r.lo, r.hi) == (3, 5)
        assert np.array_equal(r.values, [1.0, 2.0, 3.0])

    def test_restrict_out_of_range(self):
        w = LogSeqWindow(0, 3, np.zeros(4))
        with pytest.raises(ValueError):
            w.restrict(-1, 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            LogSeqWindow(0, 3, np.zeros(3))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            LogSeqWindow(0, 1, np.array([0.0, np.inf]))

    def test_tuple_shared_range(self):
        a = LogSeqWindow(0, 3, np.zeros(4))
        b = LogSeqWindow(1, 4, np.zeros(4))
        with pytest.raises(ValueError):
            SeqTuple((a, b))

    def test_cesaro_mean(self):
        w = LogSeqWindow(0, 3, np.array([1.0, 2.0, 3.0, 4.0]))
        assert cesaro_mean(w) == 2.5
        with pytest.raises(ValueError):
            cesaro_mean(LogSeqWindow(0, 0, np.zeros(1)))


class TestUpdateRaw:
    def test_recovery_identity_exact(self):
        rng = np.random.default_rng(0)
        log_w = np.log(1 / rng.gamma(2.0, size=500))
        log_i = np.log(1 / rng.gamma(1.0, size=500))
        log_j, log_it = update_raw(log_w, log_i, 0.3)
        res = np.exp(-log_it) + np.exp(-log_j) - np.exp(-log_w)
        assert np.max(np.abs(res)) < 1e-14

    def test_recursion_values(self):
        # J_k = W_k (1 + J_{k-1}/I_k), I~_k = W_k (1 + I_k/J_{k-1}).
        log_w = np.array([0.1, -0.2])
        log_i = np.array([0.4, 0.3])
        seed = 0.25
        log_j, log_it = update_raw(log_w, log_i, seed)
        j0 = math.exp(0.1) * (1 + math.exp(seed - 0.4))
        assert log_j[0] == pytest.approx(math.log(j0), abs=1e-14)
        it1 = math.exp(-0.2) * (1 + math.exp(0.3) / j0)
        assert log_it[1] == pytest.approx(math.log(it1), abs=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            update_raw(np.zeros(3), np.zeros(4), 0.0)
        with pytest.raises(ValueError):
            update_raw(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(2))

    @staticmethod
    def _check_elementwise(log_w, log_i, seed):
        """update_raw against the recursion on numpy scalars with
        min(., 700) clamping, bit for bit."""
        n = log_w.shape[0]
        log_j, log_it = update_raw(log_w, log_i, seed)
        want_j, want_it = np.empty(n), np.empty(n)
        prev = seed
        for k in range(n):
            wk, ik = log_w[k], log_i[k]
            want_j[k] = wk + math.log1p(math.exp(min(prev - ik, 700.0)))
            want_it[k] = wk + math.log1p(math.exp(min(ik - prev, 700.0)))
            prev = want_j[k]
        assert log_j.shape == log_it.shape == (n,)
        assert np.array_equal(log_j, want_j, equal_nan=True)
        assert np.array_equal(log_it, want_it, equal_nan=True)

    def test_equals_elementwise_recursion(self):
        # Through gaps past the clamp, a NaN input and chunk borders.
        n = 9000
        rng = np.random.default_rng(2)
        log_w = 400.0 * rng.normal(size=n)
        log_i = 400.0 * rng.normal(size=n)
        log_i[n - 5] = np.nan  # NaN propagates through J, so put it last
        self._check_elementwise(log_w, log_i, 0.3)

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("seed", [0.3, -np.inf])
    def test_rows_of_no_one_and_two_sites(self, n, seed):
        rng = np.random.default_rng(n)
        self._check_elementwise(400.0 * rng.normal(size=n), 400.0 * rng.normal(size=n), seed)


def stationary_row(alpha, rho, n, seed):
    """log W of shape alpha and log I of shape alpha - rho, n sites each."""
    log_w = np.log(sample_inverse_gamma(Rng(seed, 1), alpha, n))
    log_i = np.log(sample_inverse_gamma(Rng(seed, 2), alpha - rho, n))
    return log_w, log_i


def assert_loop_bits(log_w, log_i, seed):
    """update_raw's J and I~ have the bits of the one Python-float loop."""
    got_j, got_it = update_raw(log_w, log_i, seed)
    want_j, want_it = serial_update_raw(log_w, log_i, seed)
    assert got_j.tobytes() == want_j.tobytes()
    assert got_it.tobytes() == want_it.tobytes()


class TestLaneSweep:
    @pytest.mark.parametrize("n", [20_000, 64_000])
    def test_stationary_rows(self, n):
        log_w, log_i = stationary_row(2.0, 1.0, n, 7)
        assert seqmaps._lane_plan(log_w, log_i) is not None
        assert_loop_bits(log_w, log_i, 0.3)

    def test_small_gap_row_repairs_a_seam(self):
        # The gap of ppp-busemann's rho = 0.4 row, about 0.3: some lanes
        # have not met the true values after their overlap (this seed's row
        # has such seams), and their repairs keep the loop's bits.
        log_w, log_i = stationary_row(2.0, 0.4, 64_000, 3)
        plan = seqmaps._lane_plan(log_w, log_i)
        assert plan is not None and 0.28 < plan[3] - plan[2] < 0.32
        assert plan[1] == 2 * burn_in(plan[2], plan[3])
        log_j = np.empty(log_w.shape)
        assert seqmaps._lane_j(log_w, log_i, 0.3, log_j, plan) >= 1
        assert log_j.tobytes() == serial_update_raw(log_w, log_i, 0.3)[0].tobytes()
        assert_loop_bits(log_w, log_i, 0.3)

    @pytest.mark.parametrize("overlap", [1, 5])
    def test_every_seam_repaired(self, overlap):
        # Lanes that start a few sites before their block miss at almost
        # every seam, and a repair that reaches its block's end makes the
        # next seam compare again.
        log_w, log_i = stationary_row(2.0, 1.0, 20_000, 4)
        block, _, c_w, c_i = seqmaps._lane_plan(log_w, log_i)
        log_j = np.empty(log_w.shape)
        repairs = seqmaps._lane_j(log_w, log_i, 0.3, log_j, (block, overlap, c_w, c_i))
        assert repairs > 0.9 * (20_000 // block)
        assert log_j.tobytes() == serial_update_raw(log_w, log_i, 0.3)[0].tobytes()

    def test_length_not_a_multiple_of_the_block(self):
        log_w, log_i = stationary_row(2.0, 1.0, 30_007, 5)
        block = seqmaps._lane_plan(log_w, log_i)[0]
        assert 30_007 % block != 0
        assert_loop_bits(log_w, log_i, 0.3)

    def test_mid_row_nan(self):
        # A non-finite mean leaves the row to the loop; lanes given the
        # clean row's plan propagate the NaN with the loop's bits too.
        log_w, log_i = stationary_row(2.0, 1.0, 20_000, 6)
        plan = seqmaps._lane_plan(log_w, log_i)
        log_i[7_777] = np.nan
        assert seqmaps._lane_plan(log_w, log_i) is None
        assert_loop_bits(log_w, log_i, 0.3)
        log_j = np.empty(log_w.shape)
        seqmaps._lane_j(log_w, log_i, 0.3, log_j, plan)
        want = serial_update_raw(log_w, log_i, 0.3)[0]
        assert np.isnan(want[7_777:]).all() and log_j.tobytes() == want.tobytes()

    def test_minus_infinity_seed(self):
        log_w, log_i = stationary_row(2.0, 1.0, 20_000, 8)
        assert seqmaps._lane_plan(log_w, log_i) is not None
        assert_loop_bits(log_w, log_i, -np.inf)

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_rows_at_the_crossover(self, delta):
        n = seqmaps._LANE_MIN + delta
        log_w, log_i = stationary_row(2.0, 1.0, n, 9)
        assert (seqmaps._lane_plan(log_w, log_i) is not None) == (delta >= 0)
        assert_loop_bits(log_w, log_i, 0.3)

    def test_rows_left_to_the_loop(self):
        log_w, log_i = stationary_row(2.0, 1.0, 20_000, 10)
        # No positive gap: the inputs' mean is below the weights'.
        assert seqmaps._lane_plan(log_i, log_w) is None
        assert_loop_bits(log_i, log_w, 0.3)
        # A gap so small that the lanes' overlaps would cost more than the loop.
        log_i = log_w[::-1] + 0.005
        assert seqmaps._lane_plan(log_w, log_i) is None
        assert_loop_bits(log_w, log_i, 0.3)
        # An infinite weight.
        log_w[100] = np.inf
        assert seqmaps._lane_plan(log_w, log_i) is None
        assert_loop_bits(log_w, log_i, 0.3)

    def test_hosts_without_vector_libm_calls_use_the_loop(self, monkeypatch):
        log_w, log_i = stationary_row(2.0, 1.0, 20_000, 11)
        assert seqmaps._lane_plan(log_w, log_i) is not None
        monkeypatch.setattr(seqmaps, "_LIBM_VECTOR", False)
        assert seqmaps._lane_plan(log_w, log_i) is None
        assert_loop_bits(log_w, log_i, 0.3)


class TestLastITilde:
    @pytest.mark.parametrize("rows", [1, 3, 257])
    def test_equals_last_column_of_one_row_calls(self, rows):
        # One seed per row, gaps past the 700 clamp, a NaN in row 1 and
        # infinite inputs and weights in row 2, one at the last column.
        n = 40
        rng = np.random.default_rng(rows)
        log_w = 400.0 * rng.normal(size=(rows, n))
        log_i = 400.0 * rng.normal(size=(rows, n))
        seeds = rng.normal(size=rows)
        seeds[0] = -np.inf
        if rows > 2:
            log_i[1, n // 2] = np.nan
            log_i[2, 5], log_i[2, 7] = np.inf, -np.inf
            log_w[2, 10], log_w[2, n - 1] = np.inf, -np.inf
        got = last_i_tilde(log_w, log_i, seeds)
        assert got.shape == (rows,)
        for r in range(rows):
            want_j, want_it = update_raw(log_w[r], log_i[r], seeds[r])
            assert np.array_equal(got[r:r + 1], want_it[-1:], equal_nan=True)
            if r == 0:
                assert np.max(np.abs(log_i[r, 1:] - want_j[:-1])) > 700.0
        if rows > 2:
            assert math.isnan(got[1]) and got[2] == -np.inf

    @pytest.mark.parametrize("n", [1, 2])
    def test_rows_of_one_and_two_sites(self, n):
        rng = np.random.default_rng(n)
        log_w, log_i = 400.0 * rng.normal(size=(2, 5, n))
        seeds = np.array([0.3, -np.inf, 800.0, -800.0, 0.0])
        got = last_i_tilde(log_w, log_i, seeds)
        want = [update_raw(w, i, seed)[1][-1] for w, i, seed in zip(log_w, log_i, seeds)]
        assert got.tolist() == want

    def test_shapes(self):
        for log_w, log_i in [(np.zeros((2, 3)), np.zeros((2, 4))), (np.zeros(3), np.zeros(3)),
                             (np.zeros((2, 0)), np.zeros((2, 0)))]:
            with pytest.raises(ValueError):
                last_i_tilde(log_w, log_i, np.zeros(2))


class TestUpdate:
    def test_seed_forgotten_past_burn_in(self):
        # update's seed, the Cesaro fixed point, against the weight seed w[0].
        w = ig_window(2.0, 0, 400, seed=2, stream=0)
        i = ig_window(1.0, 0, 400, seed=2, stream=1)
        out = update(w, i)
        cut = burn_in(-digamma(2.0), -digamma(1.0))
        log_j, log_it = update_raw(w.values, i.values, float(w.values[0]))
        assert np.max(np.abs(out.j.values - log_j[cut:])) < 1e-13
        assert np.max(np.abs(out.i_tilde.values - log_it[cut:])) < 1e-13

    def test_default_burn_in_rate(self):
        w = ig_window(2.0, 0, 400, seed=3, stream=0)
        i = ig_window(1.0, 0, 400, seed=3, stream=1)
        gap = digamma(2.0) - digamma(1.0)
        assert burn_in(-digamma(2.0), -digamma(1.0)) == math.ceil(40.0 / gap)
        assert update(w, i).i_tilde.lo == math.ceil(40.0 / gap)

    def test_ig_window_is_the_hinted_draw(self):
        win = seqmaps.ig_window(Rng(master_seed=3, stream_id=1), 1.5, -4, 200)
        ref = ig_window(1.5, -4, 200, seed=3, stream=1)
        assert (win.lo, win.hi) == (-4, 200)
        assert np.array_equal(win.values, ref.values)
        assert win.cesaro_hint == -digamma(1.5)

    def test_dual_weight_definition(self):
        # 1/W~_k = 1/I_k + 1/J_{k-1}, with J_{k-1} read from the j output.
        w = ig_window(2.0, 0, 400, seed=1, stream=0)
        i = ig_window(1.0, 0, 400, seed=1, stream=1)
        out = update(w, i)
        log_i = i.restrict(out.i_tilde.lo + 1, i.hi).values
        expected = -np.logaddexp(-log_i, -out.j.values[:-1])
        assert np.max(np.abs(out.w_tilde.values[1:] - expected)) < 1e-13

    def test_cesaro_order_violated(self):
        w = ig_window(1.0, 0, 100, seed=4, stream=0)
        i = ig_window(2.0, 0, 100, seed=4, stream=1)
        with pytest.raises(ValueError, match="Cesaro order violated"):
            update(w, i)
        # A gap at or below 1e-8 would ask for a burn-in of over 4e9 sites.
        with pytest.raises(ValueError, match="Cesaro order violated"):
            burn_in(0.0, 1e-12)

    def test_window_too_short(self):
        w = ig_window(2.0, 0, 30, seed=5, stream=0)
        i = ig_window(1.0, 0, 30, seed=5, stream=1)
        with pytest.raises(ValueError, match="window too short"):
            update(w, i)

    def test_range_mismatch(self):
        w = ig_window(2.0, 0, 100, seed=7)
        i = ig_window(1.0, 1, 101, seed=7, stream=1)
        with pytest.raises(ValueError, match="share one index range"):
            update(w, i)


class TestInverse:
    def test_round_trip(self):
        w = ig_window(2.5, 0, 3000, seed=8, stream=0)
        i = ig_window(1.0, 0, 3000, seed=8, stream=1)
        out = update(w, i)
        rec = inverse_h(w.restrict(out.i_tilde.lo, 3000), out.i_tilde)
        ref = i.restrict(rec.lo, rec.hi)
        assert np.max(np.abs(rec.values - ref.values)) < 1e-11

    def test_not_in_image(self):
        w = LogSeqWindow(0, 3, np.zeros(4))
        it = LogSeqWindow(0, 3, np.array([0.5, 0.5, -0.5, 0.5]))
        with pytest.raises(ValueError, match="not in image") as exc:
            inverse_h(w, it)
        assert exc.type is NotInImage

    def test_haop_undoes_daop(self):
        tup = ig_tuple([2.5, 1.5, 0.5], 0, 3000, seed=9)
        rec = haop(daop(tup))
        for k in range(3):
            ref = tup.windows[k].restrict(rec.lo, rec.hi)
            assert np.max(np.abs(rec.windows[k].values - ref.values)) < 1e-11


class TestIteratedMaps:
    def test_d_iterated_is_right_fold(self):
        tup = ig_tuple([2.5, 1.5, 0.5], 0, 2000, seed=10)
        via_map = d_iterated(tup)
        inner = update(
            tup.windows[1].restrict(tup.lo, tup.hi), tup.windows[2]
        ).i_tilde
        outer = update(
            tup.windows[0].restrict(inner.lo, inner.hi), inner
        ).i_tilde
        ref = outer.restrict(via_map.lo, via_map.hi)
        assert np.max(np.abs(via_map.values - ref.values)) < 1e-13

    def test_daop_first_component_is_input(self):
        tup = ig_tuple([2.5, 1.5, 0.5], 0, 2000, seed=11)
        out = daop(tup)
        ref = tup.windows[0].restrict(out.lo, out.hi)
        assert np.array_equal(out.windows[0].values, ref.values)

    def test_daop_requires_increasing_means(self):
        tup = ig_tuple([0.5, 1.5], 0, 500, seed=12)
        with pytest.raises(ValueError, match="Cesaro order violated"):
            daop(tup)

    def test_intertwining(self):
        # One parallel step after the tuple map equals the tuple map after
        # one sequential step.
        tup = ig_tuple([2.5, 1.5, 0.5], 0, 3000, seed=13)
        w = ig_window(3.5, 0, 3000, seed=13, stream=9)
        lhs = parallel_step(w, daop(tup))
        rhs = daop(sequential_step(w, tup))
        lo = max(lhs.lo, rhs.lo)
        for a, b in zip(lhs.windows, rhs.windows):
            gap = np.abs(
                a.restrict(lo, 3000).values - b.restrict(lo, 3000).values
            )
            assert np.max(gap) < 1e-12

    def test_three_term_identity(self):
        # D(W, D(I1, I2)) = D(D(W, I1), D(R(W, I1), I2)).
        i1 = ig_window(2.5, 0, 3000, seed=14, stream=1)
        i2 = ig_window(1.5, 0, 3000, seed=14, stream=2)
        w = ig_window(3.5, 0, 3000, seed=14, stream=3)
        inner = update(i1.restrict(i2.lo, i2.hi), i2).i_tilde
        lhs = update(w.restrict(inner.lo, inner.hi), inner).i_tilde
        first = update(w, i1)
        second = update(
            first.w_tilde, i2.restrict(first.i_tilde.lo, 3000)
        ).i_tilde
        rhs = update(
            first.i_tilde.restrict(second.lo, second.hi), second
        ).i_tilde
        lo = max(lhs.lo, rhs.lo)
        gap = np.abs(
            lhs.restrict(lo, 3000).values - rhs.restrict(lo, 3000).values
        )
        assert np.max(gap) < 1e-12

    def test_stationary_output_law(self):
        import scipy.stats as st

        # D preserves the inverse-gamma input law when the weight shape is
        # larger; the output is i.i.d.
        w = ig_window(2.0, 0, 50000, seed=15, stream=0)
        i = ig_window(1.0, 0, 50000, seed=15, stream=1)
        out = update(w, i)
        x = np.exp(out.i_tilde.values)
        assert st.kstest(x, st.invgamma(1.0).cdf).pvalue > 1e-3
