import math

import numpy as np
import pytest

from busemann_lab.bruteforce import per_replica_ratio_samples
from busemann_lab.busemann import parallel_chain
from busemann_lab.cif import (
    _BLOCK,
    _ratio_samples,
    UniformField,
    WalkSpec,
    eta_cdf_estimate,
    eta_star,
    finite_coupled_walk,
    semiinf_walk,
    xi_star_cdf_check,
)
from busemann_lab.lattice import RhoParam, WeightField, finite_marginal
from busemann_lab.special_functions import Rng


class TestUniformField:
    def test_deterministic_and_in_range(self):
        uf = UniformField(master_seed=3, stream_id=2)
        u = uf.uniform((5, -7))
        assert u == uf.uniform((5, -7))
        assert 0.0 < u < 1.0

    def test_sites_differ(self):
        uf = UniformField(master_seed=3)
        assert uf.uniform((0, 0)) != uf.uniform((0, 1))


class TestFiniteCoupledWalk:
    def test_path_shape(self):
        field = WeightField(2.0, master_seed=4)
        uf = UniformField(master_seed=5)
        path = finite_coupled_walk(field, uf, (0, 0), (4, 6))
        assert path[0] == (0, 0) and path[-1] == (4, 6)
        assert len(path) == 11
        for a, b in zip(path, path[1:]):
            assert (b[0] - a[0], b[1] - a[1]) in ((1, 0), (0, 1))

    def test_coalescence(self):
        # Walks from different starts follow the same uniforms, so once
        # they meet they stay together.
        field = WeightField(2.0, master_seed=6)
        uf = UniformField(master_seed=7)
        p1 = finite_coupled_walk(field, uf, (0, 0), (6, 6))
        p2 = finite_coupled_walk(field, uf, (1, 0), (6, 6))
        met = set(p1) & set(p2)
        assert met
        first = min(met, key=lambda x: x[0] + x[1])
        tail1 = p1[p1.index(first):]
        tail2 = p2[p2.index(first):]
        assert tail1 == tail2

    def test_first_step_frequency_matches_marginal(self):
        field = WeightField(2.0, master_seed=8)
        u, v = (0, 0), (3, 3)
        target = finite_marginal(field, u, v, [(1, 0)])
        hits = 0
        n = 2000
        for r in range(n):
            path = finite_coupled_walk(field, UniformField(9, stream_id=r), u, v)
            hits += path[1] == (1, 0)
        se = math.sqrt(target * (1 - target) / n)
        assert abs(hits / n - target) < 4 * se

    def test_unordered_endpoints(self):
        field = WeightField(2.0, master_seed=0)
        with pytest.raises(ValueError, match="unordered endpoints"):
            finite_coupled_walk(field, UniformField(0), (2, 2), (1, 3))


def chain_grids(seed, rhos=(1.4, 0.6), k_hi=900, t_max=6):
    field = WeightField(2.0, master_seed=seed)
    grids = parallel_chain(
        field,
        [RhoParam(r, 2.0) for r in rhos],
        (0, k_hi, t_max),
        Rng(master_seed=seed, stream_id=1),
    )
    return list(reversed(grids))  # ascending rho


class TestEtaStar:
    def test_bracket_contains_threshold(self):
        grids = chain_grids(10)
        uf = UniformField(master_seed=11)
        x = (500, 3)
        bracket = eta_star(grids, uf, x)
        assert bracket.rho_lo <= bracket.rho_hi
        assert bracket.hi.xi1 >= bracket.lo.xi1
        u = uf.uniform(x)
        pis = [
            math.exp(g.log_w(*x) - g.log_i(*x)) for g in grids
        ]
        if bracket.bracketed:
            assert min(pis) <= u <= max(pis)

    def test_needs_two_grids(self):
        grids = chain_grids(10)
        with pytest.raises(ValueError):
            eta_star(grids[:1], UniformField(0), (500, 3))

    def test_wrong_order_rejected(self):
        grids = chain_grids(10)
        with pytest.raises(ValueError, match="increasing rho"):
            eta_star(list(reversed(grids)), UniformField(0), (500, 3))


class TestSemiInfWalk:
    def test_path_and_determinism(self):
        (grid,) = [chain_grids(12, rhos=(1.0,), k_hi=600, t_max=80)[0]]
        uf = UniformField(master_seed=13)
        spec = WalkSpec(root=(550, 80))
        p1 = semiinf_walk(grid, uf, spec, 60)
        p2 = semiinf_walk(grid, uf, spec, 60)
        assert p1 == p2 and len(p1) == 61
        for a, b in zip(p1, p1[1:]):
            assert (a[0] - b[0], a[1] - b[1]) in ((1, 0), (0, 1))

    def test_leaves_bulk(self):
        (grid,) = [chain_grids(12, rhos=(1.0,), k_hi=600, t_max=3)[0]]
        with pytest.raises(ValueError, match="left the bulk"):
            semiinf_walk(grid, UniformField(0), WalkSpec(root=(550, 3)), 50)

    def test_tiebreaker_validation(self):
        with pytest.raises(ValueError):
            WalkSpec(root=(0, 0), tiebreaker="up")


class TestAnnealedLaws:
    def test_eta_cdf_estimate(self):
        est, se = eta_cdf_estimate(2.0, 1.0, 3000, Rng(master_seed=14, stream_id=2))
        assert se < 0.02
        assert abs(est - 0.5) < 4 * se

    def test_xi_star_cdf(self):
        est, se = xi_star_cdf_check(2.0, 1.0, 3000, Rng(master_seed=15, stream_id=2))
        assert abs(est - 0.5) < 4 * se

    def test_asymmetric_rho(self):
        est, se = eta_cdf_estimate(2.0, 0.5, 1500, Rng(master_seed=16, stream_id=2))
        assert abs(est - 0.75) < 4 * se

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            eta_cdf_estimate(2.0, 2.5, 100, Rng(master_seed=0))


class TestBatchedReplicas:
    """The blocked draw equals one stationary grid per replica, bit for bit."""

    @pytest.mark.parametrize("replicas", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 300])
    @pytest.mark.parametrize("indicator", [True, False])
    @pytest.mark.parametrize("seed", [7, 11])
    def test_equals_per_replica(self, replicas, indicator, seed):
        rng = Rng(master_seed=seed, stream_id=1)
        got = _ratio_samples(2.0, 1.0, replicas, rng, indicator)
        want = per_replica_ratio_samples(2.0, 1.0, replicas, rng, indicator)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("indicator", [True, False])
    def test_spawned_64_bit_stream_id(self, indicator):
        # stream_id << 22 overflows 64 bits; both paths wrap it mod 2^64.
        rng = Rng(master_seed=7, stream_id=1).spawn(3)
        assert rng.stream_id >= 1 << 62
        got = _ratio_samples(3.0, 0.4, 300, rng, indicator)
        want = per_replica_ratio_samples(3.0, 0.4, 300, rng, indicator)
        assert np.array_equal(got, want)
