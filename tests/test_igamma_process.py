import functools
import math

import numpy as np
import pytest
import scipy.integrate as si
import scipy.special as sps
import scipy.stats as st

from busemann_lab.igamma_process import (
    Y_MIN,
    JumpProcessSample,
    _band_masses,
    _bands,
    _legendre_nodes,
    _log_g,
    _passes,
    batch_increment_sums,
    batch_jump_counts,
    coupling_gaps,
    envelope_peak,
    expected_jump_count,
    marginal_check,
    pos_temp_keep_prob,
    reparam_bound,
    sample_ppp,
    sample_ppp_replicas,
    small_jump_compensator,
    zero_temp_couple,
    zero_temp_keep_prob,
)
from busemann_lab import experiments as ex
from busemann_lab import igamma_process as ig
from busemann_lab.special_functions import (_CHUNK, POISSON_MEAN_MAX, Rng, sample_gamma,
                                            sample_poisson)

from oracles import drawing_marginal_check, per_sample_coupling


def intensity(s, y, alpha):
    return math.exp(-y * (alpha - s)) / -math.expm1(-y)


class TestQuadratures:
    def test_compensator_matches_dblquad(self):
        alpha, rho = 2.0, 1.2
        ours = small_jump_compensator(alpha, rho)
        ref, _ = si.dblquad(
            lambda y, s: y * intensity(s, y, alpha), 0.0, rho, 0.0, Y_MIN,
            epsabs=0.0, epsrel=1e-13,
        )
        assert ours == pytest.approx(ref, rel=1e-10)

    def test_compensator_with_thinning(self):
        alpha, rho = 1.0, 0.8
        ours = small_jump_compensator(alpha, rho, thinning=zero_temp_keep_prob)
        ref, _ = si.dblquad(
            lambda y, s: y * intensity(s, y, alpha) * (1.0 - math.exp(-y)),
            0.0, rho, 0.0, Y_MIN, epsabs=0.0, epsrel=1e-13,
        )
        assert ours == pytest.approx(ref, rel=1e-10)

    def test_compensator_trivial_cases(self):
        assert small_jump_compensator(2.0, 0.0) == 0.0

    def test_expected_count_matches_quad(self):
        # Down to twice the small-jump cutoff, where the integrand's 1/y
        # mass near delta defeats a single Gauss-Legendre rule.
        alpha, s1, s2 = 3.0, 0.5, 1.5

        def log_y_integrand(t):
            y = math.exp(t)
            return (math.exp(-y * (alpha - s2)) * -math.expm1(-y * (s2 - s1))
                    / -math.expm1(-y))

        for delta in (1.0, 1e-2, 1e-4, 2 * Y_MIN):
            # At alpha = 2 and s in (0, 1] the intensity integrates over s
            # to e^{-y} / y, so the count is the exponential integral E1.
            ours = expected_jump_count(2.0, delta, (0.0, 1.0))
            assert ours == pytest.approx(sps.exp1(delta), rel=1e-9)
            ref, _ = si.quad(log_y_integrand, math.log(delta), math.log(delta + 80.0),
                             epsabs=0.0, epsrel=1e-12, limit=200)
            assert expected_jump_count(alpha, delta, (s1, s2)) == pytest.approx(ref, rel=1e-9)

    def test_expected_count_empty_interval(self):
        assert expected_jump_count(2.0, 1.0, (0.5, 0.5)) == 0.0

    def test_envelope_peak(self):
        # Flat in y up to rho_max = alpha / 1.25, growing past it, and
        # overflowing (0 * inf in the band masses) near alpha.
        a, b = _bands(1.0, 0.5)
        assert envelope_peak(1.0, 0.5) == np.max(_band_masses(1.0, 0.5, a, b)) < 1.0
        assert 1e27 < envelope_peak(1.0, 0.9) < np.inf
        assert envelope_peak(1.0, 0.95) == np.inf
        # No band reaches past the cutoff: nothing is drawn.
        assert envelope_peak(1e300, 0.5) == 0.0

    def test_sampler_refuses_means_it_cannot_draw_exactly(self):
        assert envelope_peak(1.0, 0.9) > POISSON_MEAN_MAX
        with pytest.raises(ValueError, match="Poisson mean must be at most"):
            sample_ppp(1.0, 0.9, rng=Rng(master_seed=13))

    def test_cached_nodes_are_shared_and_read_only(self):
        x, w = _legendre_nodes(32)
        assert _legendre_nodes(32)[0] is x
        ref_x, ref_w = np.polynomial.legendre.leggauss(32)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        with pytest.raises(ValueError):
            x[0] = 0.0


class TestSampler:
    def test_deterministic(self):
        a = sample_ppp(2.0, 1.2, rng=Rng(master_seed=5))
        b = sample_ppp(2.0, 1.2, rng=Rng(master_seed=5))
        assert a.z0 == b.z0
        assert np.array_equal(a.s, b.s) and np.array_equal(a.y, b.y)

    def test_points_sorted_and_in_range(self):
        smp = sample_ppp(2.0, 1.5, rng=Rng(master_seed=6))
        assert np.all(np.diff(smp.s) >= 0)
        assert np.all((smp.s > 0) & (smp.s <= 1.5))
        assert np.all(smp.y >= Y_MIN)
        assert np.all((smp.u > 0) & (smp.u < 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_ppp(2.0, 2.5, rng=Rng(master_seed=0))


def _oracle_points(alpha, rho_max, n, rng):
    """Accepted (sample index, s, y, u) of n realizations drawn from rng.

    The one-stream band layout written with the public stream API only,
    one band after another: band b draws its n counts from rng.spawn(2b + 1)
    and its k proposals' 3k uniforms, then k marks, from rng.spawn(2b + 2).
    """
    a, b = _bands(alpha, rho_max)
    masses = _band_masses(alpha, rho_max, a, b)
    parts = [(np.empty(0, dtype=np.int64), np.empty(0), np.empty(0), np.empty(0))]
    for band in range(a.shape[0]):
        counts = sample_poisson(rng.spawn(2 * band + 1), masses[band], size=n)
        k = int(counts.sum())
        sub = rng.spawn(2 * band + 2)
        us = sub.uniforms(3 * k).reshape(3, k)
        lo, hi = a[band], b[band]
        y = lo + (hi - lo) * us[0]
        s = np.log1p(us[1] * np.expm1(hi * rho_max)) / hi
        log_ratio = (
            _log_g(y, alpha) + y * s - _log_g(np.full_like(y, lo), alpha) - hi * s
        )
        keep = us[2] < np.exp(log_ratio)
        marks = sub.uniforms(k)
        owner = np.repeat(np.arange(n), counts)
        parts.append((owner[keep], s[keep], y[keep], marks[keep]))
    return tuple(np.concatenate(p) for p in zip(*parts))


def _oracle_sample(alpha, rho, rng):
    """sample_ppp(alpha, rho, rng=rng), from _oracle_points."""
    z0 = -math.log(sample_gamma(rng.spawn(0), alpha, size=1)[0])
    _, s, y, u = _oracle_points(alpha, rho, 1, rng)
    order = np.argsort(s, kind="stable")
    return JumpProcessSample(
        alpha=alpha, z0=z0, s=s[order], y=y[order], u=u[order], rho_max=rho,
    )


@functools.lru_cache(maxsize=None)
def _replica_reference(alpha, rho, seed, stream_id, i):
    return _oracle_sample(alpha, rho, Rng(seed, stream_id).spawn(i))


class TestOracle:
    """The band sampler against _oracle_points.

    The oracle shares the band geometry (_bands, _band_masses, _log_g)
    with the sampler, but not its band loop or its stream layout.
    """

    # Up to n = 300 one pass draws every band.  At n = 10000 (2.0, 1.2)'s
    # 82 bands go 5 or 6 to a pass, and (0.7, 0.3)'s 85 go 6 to a pass and
    # end in a pass of one; at n = 30000 most passes draw one or two.  At
    # (1.0, 0.815), the envelope's limit, the heaviest bands go one to a
    # pass.
    @pytest.mark.parametrize("n", [1, 7, 300, 10000, 30000])
    @pytest.mark.parametrize("alpha, rho", [(2.0, 1.2), (0.7, 0.3), (1.0, 0.815)])
    def test_one_stream_points_equal_oracle(self, n, alpha, rho):
        rng = Rng(5, 2**40 + 3)
        streams = np.array([rng.stream_id], dtype=np.uint64)
        got = tuple(np.concatenate(p) for p in zip(*_passes(alpha, rho, n, 5, streams)))
        want = _oracle_points(alpha, rho, n, rng)
        assert got[0].dtype == want[0].dtype
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("alpha, rho, sizes", [
        (0.7, 0.3, [6] * 14 + [1]),
        # The band loads grow towards band 87; 10000 (1 + mass) exceeds
        # _CHUNK at bands 86 and 87.
        (1.0, 0.815, [5] * 15 + [4, 3, 2, 1, 1, 1, 1]),
    ])
    def test_passes_group_bands_by_load(self, monkeypatch, alpha, rho, sizes):
        passes, draw = [], ig._accepted_points

        def record(alpha, rho_max, n, seed, streams, bands):
            passes.append(bands)
            return draw(alpha, rho_max, n, seed, streams, bands)

        monkeypatch.setattr(ig, "_accepted_points", record)
        list(_passes(alpha, rho, 10000, 5, np.array([3], dtype=np.uint64)))
        assert [p.shape[0] for p in passes] == sizes
        assert np.array_equal(np.concatenate(passes), np.arange(sum(sizes)))
        loads = 10000 * (1.0 + _band_masses(alpha, rho, *_bands(alpha, rho)))
        for bands in passes:
            assert bands.shape[0] == 1 or loads[bands].sum() <= _CHUNK

    @pytest.mark.parametrize("alpha, rho", [(2.0, 1.2), (1.0, 0.5)])
    def test_sample_ppp_equals_oracle(self, alpha, rho):
        got = sample_ppp(alpha, rho, rng=Rng(13, 4))
        want = _oracle_sample(alpha, rho, Rng(13, 4))
        assert got.z0 == want.z0
        for name in ("s", "y", "u"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


class TestReplicaPpp:
    """sample_ppp_replicas against the oracle on rng.spawn(i), bit for bit.

    One reference replica takes about 15 ms, so batches of 257, 400 and
    1,000 are compared at every 25th replica and the last two; the other
    replicas are compared with a smaller batch, and the
    zero-temp-defaults golden report covers all 400 replicas of
    zero-temp's own configuration end to end.
    """

    @staticmethod
    def assert_equal_to_reference(got, alpha, rho, seed, stream_id, indices):
        for i in indices:
            want = _replica_reference(alpha, rho, seed, stream_id, i)
            assert got[i].z0 == want.z0
            assert (got[i].alpha, got[i].rho_max) == (alpha, rho)
            for name in ("s", "y", "u"):
                assert np.array_equal(getattr(got[i], name), getattr(want, name))

    # 1,000 replicas draw 65 bands a pass, then the last 17 to 20 bands.
    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("alpha, rho", [(1.0, 0.5), (2.0, 1.2), (0.7, 0.3)])
    @pytest.mark.parametrize("n", [1, 2, 257, 400, 1000])
    def test_replicas_equal_sample_ppp(self, n, alpha, rho, seed):
        got = sample_ppp_replicas(alpha, rho, n, Rng(seed, 3))
        assert len(got) == n
        indices = range(n) if n <= 2 else [*range(0, n, 25), n - 2, n - 1]
        self.assert_equal_to_reference(got, alpha, rho, seed, 3, indices)

    def test_replicas_do_not_depend_on_the_batch_size(self):
        small = sample_ppp_replicas(2.0, 1.2, 257, Rng(11, 3))
        large = sample_ppp_replicas(2.0, 1.2, 400, Rng(11, 3))
        for a, b in zip(small, large):
            assert a.z0 == b.z0
            assert np.array_equal(a.s, b.s) and np.array_equal(a.y, b.y)
            assert np.array_equal(a.u, b.u)

    def test_64_bit_stream_id(self):
        sid = 2**62 + 5
        got = sample_ppp_replicas(1.0, 0.5, 20, Rng(7, sid))
        self.assert_equal_to_reference(got, 1.0, 0.5, 7, sid, range(20))

    def test_mostly_empty_replicas(self):
        got = sample_ppp_replicas(1.0, 0.01, 60, Rng(7, 9))
        assert sum(r.s.size == 0 for r in got) > 30
        self.assert_equal_to_reference(got, 1.0, 0.01, 7, 9, range(60))

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_ppp_replicas(2.0, 2.5, 3, Rng(master_seed=0))
        assert sample_ppp_replicas(2.0, 1.0, 0, Rng(master_seed=0)) == []


class TestBatchStatistics:
    def test_marginal_law(self):
        rng = Rng(master_seed=9)
        sums = batch_increment_sums(2.0, [1.2], 20000, rng.spawn(1))[:, 0]
        res = marginal_check(2.0, 1.2, sums, rng)
        assert res.p_value > 1e-3

    @pytest.mark.parametrize("alpha, rho, n, seed", [(2.0, 1.2, 3000, 9), (1.0, 0.3, 500, 4)])
    def test_marginal_check_reads_the_sums_it_is_given(self, alpha, rho, n, seed):
        # Fed the sums the old check drew for itself on rng.spawn(1), it
        # returns the old check's p-value, bit for bit.
        rng = Rng(master_seed=seed, stream_id=2)
        sums = batch_increment_sums(alpha, [rho], n, rng.spawn(1))[:, 0]
        got = marginal_check(alpha, rho, sums, rng).p_value
        assert got == drawing_marginal_check(alpha, rho, n, rng).p_value

    def test_ppp_busemann_draws_the_jump_process_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[:3])
            return batch_increment_sums(*args, **kwargs)

        monkeypatch.setattr(ig, "batch_increment_sums", counted)
        checks = ex.run_ppp_busemann(2.0, 0.4, 1.2, 400, 7)
        assert calls == [(2.0, [0.4, 1.2], 400)]
        assert [c["name"] for c in checks] == [
            "increment-beta-ks", "marginal-ks", "adjacent-increment-independence",
            "cross-sampler-ks"]

    def test_increment_beta_law(self):
        # e^{-(Z(rho) - Z(lam))} ~ Beta(alpha - rho, rho - lam).
        inc = batch_increment_sums(2.0, [0.4, 1.2], 20000, Rng(master_seed=10))
        ratio = np.exp(-inc[:, 1])
        assert st.kstest(ratio, st.beta(0.8, 0.8).cdf).pvalue > 1e-3

    def test_increments_independent(self):
        inc = batch_increment_sums(2.0, [0.4, 1.2], 20000, Rng(master_seed=11))
        corr = np.corrcoef(inc[:, 0], inc[:, 1])[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(20000)

    def test_breaks_validation(self):
        with pytest.raises(ValueError):
            batch_increment_sums(2.0, [1.2, 0.4], 10, Rng(master_seed=0))
        with pytest.raises(ValueError):
            batch_increment_sums(2.0, [2.5], 10, Rng(master_seed=0))

    def test_jump_counts_poisson(self):
        counts = batch_jump_counts(2.0, 1.0, (0.0, 1.0), 20000, Rng(master_seed=12))
        mu = expected_jump_count(2.0, 1.0, (0.0, 1.0))
        assert abs(counts.mean() - mu) < 3 * counts.std() / math.sqrt(20000)
        var_ratio = counts.var() / mu
        assert abs(var_ratio - 1.0) < 0.05

    def test_jump_counts_cutoff_check(self):
        with pytest.raises(ValueError):
            batch_jump_counts(2.0, 1e-7, (0.0, 1.0), 10, Rng(master_seed=0))


class TestZeroTemperature:
    def test_keep_probs(self):
        y = np.linspace(1e-4, 10.0, 200)
        p0 = zero_temp_keep_prob(y)
        pa = pos_temp_keep_prob(y, 0.5)
        assert np.all((p0 > 0) & (p0 < 1))
        assert np.all(pa <= 1.0 + 1e-12)
        # The positive-temperature profile keeps every zero-temperature jump.
        assert np.all(pa >= p0 - 1e-12)

    def test_couple_gap_nonnegative(self):
        smp = sample_ppp(1.0, 0.8, rng=Rng(master_seed=13))
        grid, prof_a, prof_0 = zero_temp_couple(smp, 0.3)
        assert np.all(prof_a - prof_0 >= -1e-12)
        assert prof_a[0] == 0.0 and prof_0[0] == 0.0
        assert np.all(np.diff(prof_a) >= 0) and np.all(np.diff(prof_0) >= 0)

    def test_couple_gap_shrinks_with_alpha(self):
        alphas = (0.5, 0.2, 0.1)
        totals = {a: 0.0 for a in alphas}
        for r in range(60):
            smp = sample_ppp(1.0, 0.5, rng=Rng(master_seed=14, stream_id=r))
            for a in alphas:
                _, pa, p0 = zero_temp_couple(smp, a)
                totals[a] += float(np.max(pa - p0))
        gaps = [totals[a] / 60 for a in alphas]
        assert gaps[0] > gaps[1] > gaps[2] >= 0.0

    def test_couple_validation(self):
        smp = sample_ppp(1.0, 0.8, rng=Rng(master_seed=15))
        with pytest.raises(ValueError):
            zero_temp_couple(smp, 1.5)
        other = sample_ppp(2.0, 0.9, rng=Rng(master_seed=15))
        with pytest.raises(ValueError):
            zero_temp_couple(other, 0.5)

    @staticmethod
    def _check_stacked_equals_per_sample(samples):
        alphas = (0.5, 0.2, 0.1)
        gaps = coupling_gaps(samples, alphas)
        assert gaps.shape == (len(alphas), len(samples))
        for lo in range(0, len(samples), ig._COUPLING_BLOCK):
            block = samples[lo:lo + ig._COUPLING_BLOCK]
            grid, zero, profiles = ig._coupled_profiles(block, alphas)
            for r, smp in enumerate(block):
                for a, prof in zip(alphas, profiles):
                    want_grid, want_a, want_0 = per_sample_coupling(smp, a)
                    assert grid.tobytes() == want_grid.tobytes()
                    assert prof[r].tobytes() == want_a.tobytes()
                    assert zero[r].tobytes() == want_0.tobytes()
                    _, one_a, one_0 = zero_temp_couple(smp, a)
                    assert one_a.tobytes() == want_a.tobytes()
                    assert one_0.tobytes() == want_0.tobytes()
        for row, a in zip(gaps.tolist(), alphas):
            for gap, smp in zip(row, samples):
                _, want_a, want_0 = per_sample_coupling(smp, a)
                assert gap == float(np.max(want_a - want_0))

    @pytest.mark.parametrize("rho, replicas", [(0.5, 80), (0.3, 400), (0.8, 50)])
    def test_stacked_profiles_equal_per_sample_coupling(self, rho, replicas):
        samples = sample_ppp_replicas(1.0, rho, replicas, Rng(7, 3))
        self._check_stacked_equals_per_sample(samples)

    def test_stacked_profiles_of_samples_without_points(self):
        samples = sample_ppp_replicas(1.0, 0.01, 60, Rng(7, 9))
        sizes = {smp.s.shape[0] for smp in samples}
        assert 0 in sizes and len(sizes) > 1
        self._check_stacked_equals_per_sample(samples)
        empty = [smp for smp in samples if smp.s.shape[0] == 0][:ig._COUPLING_BLOCK]
        self._check_stacked_equals_per_sample(empty)

    def test_coupling_gaps_validation(self):
        a = sample_ppp(1.0, 0.8, rng=Rng(master_seed=15))
        b = sample_ppp(1.0, 0.5, rng=Rng(master_seed=15))
        with pytest.raises(ValueError, match="one rho_max"):
            coupling_gaps([a, b], (0.5,))
        with pytest.raises(ValueError):
            coupling_gaps([a], (0.0,))
        assert coupling_gaps([], (0.5, 0.2)).shape == (2, 0)

    def test_zero_temp_refuses_few_samples_in_process(self):
        with pytest.raises(ex.ConfigError, match=r"--samples: 5 is not in the range x>=20\."):
            ex.run_zero_temp(0.5, 5, 7)

    def test_zero_profile_marginal(self):
        # Z0(rho) - Z0(0) has jump sums whose total with an Exp(1) initial
        # value is Exp(1 - rho).
        rho = 0.5
        rng = Rng(master_seed=16)
        inc = batch_increment_sums(
            1.0, [rho], 10000, rng.spawn(1), thinning=zero_temp_keep_prob
        )[:, 0]
        z0 = -np.log1p(-rng.spawn(2).uniforms(10000)) + inc
        assert st.kstest(z0, st.expon(scale=1 / (1 - rho)).cdf).pvalue > 1e-3


class TestReparamBound:
    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.1])
    def test_bound_holds(self, alpha):
        assert reparam_bound(alpha) <= (math.pi ** 2 / 3.0) * alpha ** 2

    def test_matches_direct_computation(self):
        alpha = 0.5
        xi1 = np.linspace(0.0, 1.0, 10_002)[1:-1]
        r1 = np.sqrt(1 - xi1)
        s0 = r1 / (r1 + np.sqrt(xi1))
        rho = alpha * s0
        u1 = sps.polygamma(1, rho) / (
            sps.polygamma(1, rho) + sps.polygamma(1, alpha - rho)
        )
        direct = float(np.max(2 * np.abs(u1 - xi1)))
        assert reparam_bound(alpha) == pytest.approx(direct, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            reparam_bound(0.0)
