import numpy as np
import pytest
import scipy.stats as st

from busemann_lab.stats import (
    ks_one_sample,
    ks_two_sample,
    pearson,
    poisson_dispersion,
)


class TestKsOneSample:
    def test_matches_scipy_on_uniforms(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=5000)
        ours = ks_one_sample(x, lambda v: np.clip(v, 0.0, 1.0))
        ref = st.kstest(x, "uniform")
        assert ours.statistic == pytest.approx(ref.statistic, abs=1e-12)
        assert ours.p_value == pytest.approx(ref.pvalue, abs=5e-3)

    def test_rejects_wrong_law(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0.2, 1.0, size=5000)
        res = ks_one_sample(x, st.norm().cdf)
        assert res.p_value < 1e-6

    def test_small_sample_error(self):
        with pytest.raises(ValueError):
            ks_one_sample(np.arange(5), lambda v: 0.5)

    def test_bad_cdf_error(self):
        x = np.linspace(0.1, 0.9, 50)
        with pytest.raises(ValueError):
            ks_one_sample(x, lambda v: 1.0 - v)  # decreasing

    def test_cdf_called_once_on_sorted_samples(self):
        x = np.random.default_rng(3).uniform(size=300)
        calls = []

        def cdf(v):
            calls.append(v.copy())
            return v

        ks_one_sample(x, cdf)
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.sort(x))

    def test_scalar_cdf_result_error(self):
        # A per-sample callback returns one float for the whole array.
        with pytest.raises(ValueError, match="shape"):
            ks_one_sample(np.linspace(0.1, 0.9, 20), lambda v: 0.5)


class TestKsTwoSample:
    def test_matches_scipy(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=3000)
        b = rng.normal(size=4000)
        ours = ks_two_sample(a, b)
        ref = st.ks_2samp(a, b)
        assert ours.statistic == pytest.approx(ref.statistic, abs=1e-12)
        assert ours.p_value == pytest.approx(ref.pvalue, abs=5e-3)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=500), rng.uniform(size=700)
        r1, r2 = ks_two_sample(a, b), ks_two_sample(b, a)
        assert r1.statistic == r2.statistic
        assert r1.p_value == r2.p_value

    def test_detects_shift(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=3000)
        assert ks_two_sample(a, a + 0.3).p_value < 1e-6


class TestPearson:
    def test_matches_numpy(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=1000)
        b = 0.4 * a + rng.normal(size=1000)
        assert pearson(a, b) == pytest.approx(np.corrcoef(a, b)[0, 1], abs=1e-12)

    def test_degenerate_input(self):
        assert pearson(np.ones(10), np.arange(10.0)) == 0.0

    def test_shape_error(self):
        with pytest.raises(ValueError):
            pearson(np.arange(3.0), np.arange(4.0))


class TestPoissonDispersion:
    def test_matches_chi2_formula(self):
        rng = np.random.default_rng(6)
        c = rng.poisson(4.0, size=200)
        stat = np.sum((c - 4.0) ** 2) / 4.0
        lower = st.chi2(200).cdf(stat)
        expected = min(1.0, 2 * min(lower, 1 - lower))
        assert poisson_dispersion(c, 4.0) == pytest.approx(expected, abs=1e-9)

    def test_flags_overdispersion(self):
        rng = np.random.default_rng(7)
        c = rng.poisson(4.0, size=500) + rng.poisson(4.0, size=500)
        assert poisson_dispersion(c, 8.0) > 0.001  # mean is right
        assert poisson_dispersion(2 * rng.poisson(4.0, size=500), 8.0) < 1e-6

    def test_bad_mean(self):
        with pytest.raises(ValueError):
            poisson_dispersion(np.array([1, 2, 3]), 0.0)

    # calibrate-stats' 50 counts at mean 5, and jump-count's regime.
    @pytest.mark.parametrize("trials, n, mean", [(1000, 50, 5.0), (40, 2000, 0.22)])
    def test_rows_equal_one_dimensional_calls(self, trials, n, mean):
        counts = np.random.default_rng(n).poisson(mean, size=(trials, n))
        got = poisson_dispersion(counts, mean)
        assert got.shape == (trials,)
        want = np.array([poisson_dispersion(row, mean) for row in counts])
        assert got.tobytes() == want.tobytes()
        assert type(poisson_dispersion(counts[0], mean)) is float

    @pytest.mark.parametrize("shape", [(3, 1), (1,), (2, 2, 2), ()])
    def test_bad_shapes(self, shape):
        with pytest.raises(ValueError, match="counts"):
            poisson_dispersion(np.ones(shape), 1.0)
