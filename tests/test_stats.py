import numpy as np
import pytest
import scipy.stats as st
from oracles import searched_ks_two_sample

from busemann_lab.stats import (
    ks_one_sample,
    ks_two_sample,
    pearson,
    poisson_dispersion,
)


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.int64)


def _uniform_cdf(v):
    return np.clip(v, 0.0, 1.0)


def _grid(rng, shape):
    """Values on a 1/50 grid in [0, 1]: every row is heavily tied."""
    return rng.integers(0, 51, size=shape) / 50.0


def _zeros_and_inf(rng, shape):
    """Tied non-negative values, with -0.0, +0.0 and +inf among them."""
    x = _grid(rng, shape)
    x[rng.uniform(size=shape) < 0.1] = -0.0
    x[rng.uniform(size=shape) < 0.1] = 0.0
    x[rng.uniform(size=shape) < 0.05] = np.inf
    return x


# (a, b, whether the pairs are too wide for the label bit and search b).
_TWO_SAMPLE_CASES = {
    "uniforms": (lambda r: (r.uniform(size=(40, 500)), r.uniform(size=(40, 500))), False),
    "zeros-and-inf": (lambda r: (_zeros_and_inf(r, (40, 300)), _zeros_and_inf(r, (40, 400))),
                      False),
    "grid-ties": (lambda r: (_grid(r, (40, 500)), _grid(r, (40, 700))), False),
    "unequal-sizes": (lambda r: (r.uniform(size=(30, 200)), r.uniform(size=(30, 350))), False),
    "negatives": (lambda r: (-r.exponential(size=(20, 300)), -r.uniform(size=(20, 250))), False),
    "normals": (lambda r: (r.normal(size=(20, 300)), r.normal(size=(20, 400))), True),
    "normals-1e5": (lambda r: (1e5 * r.normal(size=(20, 300)), r.normal(size=(20, 400))), True),
}


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


class TestStackedRows:
    @pytest.mark.parametrize("case", sorted(_TWO_SAMPLE_CASES))
    def test_two_sample_rows_equal_the_searched_oracle(self, monkeypatch, case):
        make, searched = _TWO_SAMPLE_CASES[case]
        a, b = make(np.random.default_rng(len(case)))
        searches = []
        real = np.searchsorted
        monkeypatch.setattr(np, "searchsorted",
                            lambda *args, **kw: searches.append(1) or real(*args, **kw))
        got = ks_two_sample(a, b)
        monkeypatch.undo()
        assert bool(searches) == searched
        assert got.statistic.shape == got.p_value.shape == (a.shape[0],)
        want = [searched_ks_two_sample(x, y) for x, y in zip(a, b)]
        assert np.array_equal(_bits(got.statistic), _bits([w.statistic for w in want]))
        assert np.array_equal(_bits(got.p_value), _bits([w.p_value for w in want]))
        assert got.n == a.shape[1] + b.shape[1]
        # Each row alone, as a 1-d call, gives the same bits too.
        one = ks_two_sample(a[-1], b[-1])
        assert (one.statistic, one.p_value) == (want[-1].statistic, want[-1].p_value)

    @pytest.mark.parametrize("case", ["uniforms", "grid-ties", "normals"])
    def test_equal_samples_have_statistic_zero(self, case):
        a, _ = _TWO_SAMPLE_CASES[case][0](np.random.default_rng(0))
        got = ks_two_sample(a, a)
        assert np.all(got.statistic == 0.0) and np.all(got.p_value == 1.0)
        assert ks_two_sample(a[0], a[0]).statistic == 0.0

    def test_one_sample_rows_equal_one_dimensional_calls(self):
        u = np.random.default_rng(8).uniform(size=(70, 400))
        calls = []

        def cdf(v):
            calls.append(v.shape)
            return _uniform_cdf(v)

        got = ks_one_sample(u, cdf)
        assert calls == [u.shape]
        want = [ks_one_sample(row, _uniform_cdf) for row in u]
        assert np.array_equal(_bits(got.statistic), _bits([w.statistic for w in want]))
        assert np.array_equal(_bits(got.p_value), _bits([w.p_value for w in want]))

    def test_pearson_rows_equal_one_dimensional_calls(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(200, 300))
        b = 0.3 * a + rng.normal(size=(200, 300))
        b[5] = 1.0  # a constant row has no correlation
        got = pearson(a, b)
        want = [pearson(x, y) for x, y in zip(a, b)]
        assert np.array_equal(_bits(got), _bits(want))
        assert got[5] == 0.0

    def test_one_dimensional_results_are_floats(self):
        x = np.random.default_rng(10).uniform(size=(2, 100))
        one = ks_one_sample(x[0], _uniform_cdf)
        two = ks_two_sample(x[0], x[1])
        for res in (one, two):
            assert type(res.statistic) is float and type(res.p_value) is float
        assert type(pearson(x[0], x[1])) is float

    def test_mismatched_rows_error(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError, match="same rows"):
            ks_two_sample(rng.uniform(size=(3, 50)), rng.uniform(size=(4, 50)))
        with pytest.raises(ValueError, match="rows, n"):
            ks_two_sample(rng.uniform(size=(2, 3, 50)), rng.uniform(size=(2, 3, 50)))
        with pytest.raises(ValueError):
            pearson(rng.uniform(size=(3, 50)), rng.uniform(size=(4, 50)))


class TestNanSamples:
    def test_two_sample_nan_gives_nan_and_zero(self):
        x = np.linspace(0.1, 0.9, 50)
        y = x.copy()
        y[7] = np.nan
        for a, b in ((x, y), (y, x)):
            res = ks_two_sample(a, b)
            assert np.isnan(res.statistic) and res.p_value == 0.0

    def test_one_sample_nan_gives_nan_and_zero(self):
        y = np.linspace(0.1, 0.9, 50)
        y[7] = np.nan
        res = ks_one_sample(y, _uniform_cdf)
        assert np.isnan(res.statistic) and res.p_value == 0.0

    @pytest.mark.parametrize("nan", [np.nan, -np.nan, np.uint64(0xFFF0_0000_0000_0001)])
    def test_stacked_nan_marks_only_its_row(self, monkeypatch, nan):
        # A negative or signalling NaN among non-negative samples neither
        # widens the pair past the label bit nor moves the other rows.
        rng = np.random.default_rng(12)
        a, b = rng.uniform(size=(6, 200)), rng.uniform(size=(6, 300))
        clean = ks_two_sample(a, b)
        bits = np.asarray(nan).view(np.float64) if isinstance(nan, np.uint64) else nan
        b[2, 17] = bits
        searches = []
        monkeypatch.setattr(np, "searchsorted", lambda *args, **kw: searches.append(1))
        got = ks_two_sample(a, b)
        assert not searches
        assert np.isnan(got.statistic[2]) and got.p_value[2] == 0.0
        keep = np.arange(6) != 2
        assert np.array_equal(_bits(got.statistic[keep]), _bits(clean.statistic[keep]))
        assert np.array_equal(_bits(got.p_value[keep]), _bits(clean.p_value[keep]))
        one = ks_one_sample(b, _uniform_cdf)
        assert np.isnan(one.statistic[2]) and one.p_value[2] == 0.0
        assert not np.isnan(one.statistic[keep]).any()
