import math

import numpy as np
import pytest
import scipy.special as sps
import scipy.stats as st

from busemann_lab import busemann
from busemann_lab.bruteforce import row_by_row_evolve
from busemann_lab.busemann import (
    _WAVEFRONT_MIN,
    _evolve,
    busemann_ratio_estimate,
    eternal_from_cocycle,
    gibbs_backward_walk,
    parallel_chain,
    stationary_cocycle,
)
from busemann_lab.lattice import RhoParam, WeightField, log_partition, rho_to_xi
from busemann_lab.special_functions import Rng, sample_inverse_gamma


def make_grid(alpha=2.0, rho=1.0, k_hi=600, t_max=4, seed=0):
    field = WeightField(alpha, master_seed=seed)
    rng = Rng(master_seed=seed, stream_id=1)
    return stationary_cocycle(field, RhoParam(rho, alpha), (0, k_hi, t_max), rng)


class TestStationaryCocycle:
    def test_recovery_identity(self):
        grid = make_grid()
        i_blk, j_blk, w_blk = grid.bulk()
        res = np.exp(-i_blk) + np.exp(-j_blk) - np.exp(-w_blk)
        assert np.max(np.abs(res)) < 1e-13

    def test_additivity_identity(self):
        # J_k(t) I_k(t-1) = I_k(t) J_{k-1}(t) on the bulk.
        grid = make_grid()
        c = grid.bulk_k_lo - grid.k_lo
        for t in range(1, grid.t_max + 1):
            lhs = grid.j_vals[t, c + 1 :] + grid.i_vals[t - 1, c + 1 :]
            rhs = grid.i_vals[t, c + 1 :] + grid.j_vals[t, c:-1]
            assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_marginal_laws(self):
        grid = make_grid(k_hi=30000, t_max=2, seed=1)
        c = grid.bulk_k_lo - grid.k_lo
        i = np.exp(grid.i_vals[2, c:])
        assert st.kstest(i, st.invgamma(1.0).cdf).pvalue > 1e-3
        j = np.exp(grid.j_vals[2, c::16])
        assert st.kstest(j, st.invgamma(1.0).cdf).pvalue > 1e-3

    def test_weights_are_field_rows(self):
        field = WeightField(2.0, master_seed=2)
        grid = stationary_cocycle(
            field, RhoParam(1.0, 2.0), (0, 300, 3), Rng(master_seed=2, stream_id=1)
        )
        assert np.array_equal(grid.w_vals[2], field.log_weight_row(0, 300, 2))

    def test_accessors_and_bounds(self):
        grid = make_grid()
        assert grid.k_hi == 600 and grid.t_max == 4
        assert grid.log_i(50, 1) == grid.i_vals[1, 50]
        with pytest.raises(ValueError):
            grid.log_i(601, 1)

    def test_alpha_mismatch(self):
        field = WeightField(2.0, master_seed=0)
        with pytest.raises(ValueError, match="share one alpha"):
            stationary_cocycle(
                field, RhoParam(1.0, 3.0), (0, 300, 2), Rng(master_seed=0)
            )

    def test_narrow_rectangle(self):
        field = WeightField(2.0, master_seed=0)
        with pytest.raises(ValueError, match="too narrow"):
            stationary_cocycle(
                field, RhoParam(1.0, 2.0), (0, 30, 2), Rng(master_seed=0)
            )


class TestEvolve:
    """The anti-diagonal sweep gives the bits of the row-by-row loop."""

    @pytest.mark.parametrize(
        "t_max, n",
        [
            (1, 300),
            (_WAVEFRONT_MIN - 1, _WAVEFRONT_MIN - 1),
            (_WAVEFRONT_MIN, _WAVEFRONT_MIN),
            (_WAVEFRONT_MIN + 1, _WAVEFRONT_MIN + 1),
            (_WAVEFRONT_MIN - 1, 500),
            (_WAVEFRONT_MIN, 500),
            (500, _WAVEFRONT_MIN),
            (120, 60),
            (60, 2),
            (3, 2),
        ],
    )
    def test_matches_row_by_row(self, t_max, n):
        field = WeightField(2.0, master_seed=21)
        log_i0 = np.log(sample_inverse_gamma(Rng(21, 1), 1.0, size=n))
        got = _evolve(field, log_i0, -5, n - 6, t_max)
        want = row_by_row_evolve(field, log_i0, -5, n - 6, t_max)
        for a, b in zip(got, want):
            assert np.array_equal(a, b, equal_nan=True)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("t_max, n", [(10, 30), (2 * _WAVEFRONT_MIN, 80)])
    def test_nan_in_bottom_row(self, t_max, n):
        field = WeightField(2.0, master_seed=22)
        log_i0 = np.log(sample_inverse_gamma(Rng(22, 1), 1.0, size=n))
        log_i0[n // 2] = np.nan
        got = _evolve(field, log_i0, 0, n - 1, t_max)
        want = row_by_row_evolve(field, log_i0, 0, n - 1, t_max)
        assert np.isnan(got[0][t_max, -1])
        for a, b in zip(got, want):
            assert np.array_equal(a, b, equal_nan=True)

    def test_wavefront_path_runs_at_the_crossover(self, monkeypatch):
        calls = []
        sweep = busemann._sweep_diagonals
        monkeypatch.setattr(
            busemann, "_sweep_diagonals", lambda *a: calls.append(1) or sweep(*a)
        )
        field = WeightField(2.0, master_seed=23)
        for size in (_WAVEFRONT_MIN - 1, _WAVEFRONT_MIN):
            _evolve(field, np.zeros(size), 0, size - 1, size)
        assert calls == [1]


class TestParallelChain:
    def make_pair(self, seed=3, k_hi=2500, t_max=2):
        field = WeightField(2.0, master_seed=seed)
        rng = Rng(master_seed=seed, stream_id=1)
        return parallel_chain(
            field,
            [RhoParam(1.2, 2.0), RhoParam(0.4, 2.0)],
            (0, k_hi, t_max),
            rng,
        )

    def test_monotone_ordering(self):
        hi, lo = self.make_pair()
        c = hi.bulk_k_lo - hi.k_lo
        assert np.min(hi.i_vals[:, c:] - lo.i_vals[:, c:]) >= 0.0

    def test_caller_order_and_rho(self):
        hi, lo = self.make_pair()
        assert hi.rho.rho == 1.2 and lo.rho.rho == 0.4
        assert hi.k_lo == lo.k_lo and hi.bulk_k_lo == lo.bulk_k_lo == 0

    def test_component_marginals(self):
        hi, lo = self.make_pair(seed=4, k_hi=25000)
        c = hi.bulk_k_lo - hi.k_lo
        x = np.exp(hi.i_vals[1, c:])
        assert st.kstest(x, st.invgamma(0.8).cdf).pvalue > 1e-3
        y = np.exp(lo.i_vals[1, c:])
        assert st.kstest(y, st.invgamma(1.6).cdf).pvalue > 1e-3

    def test_ratio_beta_law(self):
        # I^{lam} / I^{rho} ~ Beta(alpha - rho, rho - lam) for lam < rho.
        hi, lo = self.make_pair(seed=5, k_hi=25000)
        c = hi.bulk_k_lo - hi.k_lo
        ratio = np.exp(lo.i_vals[1, c::16] - hi.i_vals[1, c::16])
        assert st.kstest(ratio, st.beta(0.8, 0.8).cdf).pvalue > 1e-3

    def test_shared_weights(self):
        hi, lo = self.make_pair()
        c = hi.bulk_k_lo - hi.k_lo
        assert np.array_equal(hi.w_vals[1:, c:], lo.w_vals[1:, c:])

    def test_components_evolve_their_own_bottom_rows(self):
        # The field rows are drawn once for all components; each grid is
        # still the row-by-row evolution of its bottom row.
        field = WeightField(2.0, master_seed=3)
        for grid in self.make_pair():
            want = row_by_row_evolve(
                field, grid.i_vals[0], grid.k_lo, grid.k_hi, grid.t_max
            )
            for a, b in zip((grid.i_vals, grid.j_vals, grid.w_vals), want):
                assert np.array_equal(a, b, equal_nan=True)

    def test_single_component(self):
        field = WeightField(2.0, master_seed=6)
        (grid,) = parallel_chain(
            field, [RhoParam(1.0, 2.0)], (0, 500, 2), Rng(master_seed=6)
        )
        assert grid.rho.rho == 1.0

    def test_ordering_validation(self):
        field = WeightField(2.0, master_seed=0)
        with pytest.raises(ValueError, match="strictly decreasing"):
            parallel_chain(
                field,
                [RhoParam(0.4, 2.0), RhoParam(1.2, 2.0)],
                (0, 500, 2),
                Rng(master_seed=0),
            )


class TestEternalSolution:
    def test_heat_recursion(self):
        grid = make_grid(k_hi=160, t_max=40, seed=7)
        es = eternal_from_cocycle(grid, (grid.bulk_k_lo + 30, 20))
        c = grid.bulk_k_lo - grid.k_lo
        lz = es.log_z
        worst = 0.0
        for r in range(1, lz.shape[0]):
            resid = np.abs(
                lz[r, 1:]
                - (
                    np.logaddexp(lz[r, :-1], lz[r - 1, 1:])
                    + grid.w_vals[es.t0 + r, c + 1 :]
                )
            )
            worst = max(worst, float(np.max(resid)))
        assert worst < 1e-12

    def test_normalized_at_base(self):
        grid = make_grid(k_hi=160, t_max=10, seed=8)
        base = (grid.bulk_k_lo + 5, 4)
        es = eternal_from_cocycle(grid, base)
        assert es.value(*base) == 0.0

    def test_increments_match_cocycle(self):
        grid = make_grid(k_hi=160, t_max=10, seed=9)
        es = eternal_from_cocycle(grid, (grid.bulk_k_lo + 5, 4))
        k = grid.bulk_k_lo + 20
        assert es.value(k + 1, 6) - es.value(k, 6) == pytest.approx(
            grid.log_i(k + 1, 6), abs=1e-12
        )
        assert es.value(k, 7) - es.value(k, 6) == pytest.approx(
            grid.log_j(k, 7), abs=1e-12
        )

    def test_base_outside_bulk(self):
        grid = make_grid(k_hi=160, t_max=10, seed=9)
        with pytest.raises(ValueError, match="outside bulk"):
            eternal_from_cocycle(grid, (0, 4))


class TestBackwardWalk:
    def test_path_shape(self):
        grid = make_grid(k_hi=400, t_max=60, seed=10)
        path = gibbs_backward_walk(
            grid, (380, 60), 50, Rng(master_seed=10, stream_id=5)
        )
        assert len(path) == 51
        for (k1, t1), (k2, t2) in zip(path, path[1:]):
            assert (k2, t2) in ((k1 - 1, t1), (k1, t1 - 1))

    def test_leaving_bulk_raises(self):
        grid = make_grid(k_hi=400, t_max=5, seed=10)
        with pytest.raises(ValueError, match="left the bulk"):
            gibbs_backward_walk(grid, (380, 5), 50, Rng(master_seed=1))

    def test_mean_direction(self):
        # e1-steps happen with probability W/I, whose mean is the CDF value
        # (alpha - rho)/alpha = 1/2 at rho = 1, alpha = 2.
        grid = make_grid(k_hi=6000, t_max=2600, seed=11)
        path = gibbs_backward_walk(
            grid, (5900, 2600), 2500, Rng(master_seed=11, stream_id=9)
        )
        e1 = sum(
            1 for a, b in zip(path, path[1:]) if b[0] == a[0] - 1
        )
        frac = e1 / 2500
        assert abs(frac - 0.5) < 0.05


class TestRatioEstimate:
    def test_lln(self):
        # The deep-ratio estimate of the horizontal Busemann increment has
        # mean E[log I] = -psi0(alpha - rho).
        d = rho_to_xi(RhoParam(1.0, 2.0))
        vals = [
            busemann_ratio_estimate(
                WeightField(2.0, master_seed=100 + r), (0, 0), (1, 0), d, 200
            )
            for r in range(60)
        ]
        vals = np.array(vals)
        target = -float(sps.digamma(1.0))
        se = vals.std() / math.sqrt(len(vals))
        assert abs(vals.mean() - target) < 4 * se + 0.02

    @pytest.mark.parametrize(
        "x, y", [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((3, 5), (2, 7))]
    )
    def test_one_table_equals_two_partition_functions(self, x, y):
        # The one-table estimate against log Z_{x_l, y} - log Z_{x_l, x}.
        field = WeightField(2.0, master_seed=31)
        d = rho_to_xi(RhoParam(0.7, 2.0))
        depth = 40
        base = (min(x[0], y[0]), min(x[1], y[1]))
        a = round(depth * d.xi1)
        x_l = (base[0] - a, base[1] - (depth - a))
        want = log_partition(field, x_l, y) - log_partition(field, x_l, x)
        assert busemann_ratio_estimate(field, x, y, d, depth) == want

    def test_depth_validation(self):
        d = rho_to_xi(RhoParam(1.0, 2.0))
        with pytest.raises(ValueError):
            busemann_ratio_estimate(
                WeightField(2.0, master_seed=0), (0, 0), (1, 0), d, 0
            )
