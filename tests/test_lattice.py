import itertools
import math

import numpy as np
import pytest
import scipy.special as sps

from busemann_lab.lattice import (
    Direction,
    RhoParam,
    WeightField,
    _log_partition_table,
    log_partition,
    rho_to_xi,
)

from oracles import site_by_site_log_partition_table


class ZeroField:
    """Every log-weight 0, so that Z counts up-right paths."""

    def log_weight_block(self, origin, shape):
        return np.zeros(shape)


def brute_log_partition(field, u, v, include_initial=False):
    """Sum over explicitly enumerated up-right paths."""
    m, n = v[0] - u[0], v[1] - u[1]
    total = 0.0
    for comb in itertools.combinations(range(m + n), m):
        x = list(u)
        logw = field.log_weight(u) if include_initial else 0.0
        for s in range(m + n):
            if s in comb:
                x[0] += 1
            else:
                x[1] += 1
            logw += field.log_weight(x)
        total += math.exp(logw)
    return math.log(total)


class TestWeightField:
    def test_block_row_point_consistent(self):
        f = WeightField(2.0, master_seed=3)
        blk = f.log_weight_block((-2, 5), (4, 3))
        for i in range(4):
            for j in range(3):
                assert blk[i, j] == f.log_weight((-2 + i, 5 + j))
        row = f.log_weight_row(-2, 1, 6)
        assert np.array_equal(row, blk[:, 1])

    def test_extension_consistency(self):
        f = WeightField(1.5, master_seed=8)
        small = f.log_weight_block((0, 0), (3, 3))
        big = f.log_weight_block((0, 0), (10, 10))
        assert np.array_equal(small, big[:3, :3])

    def test_streams_independent(self):
        a = WeightField(2.0, master_seed=3, stream_id=0).log_weight_row(0, 99, 0)
        b = WeightField(2.0, master_seed=3, stream_id=1).log_weight_row(0, 99, 0)
        assert np.max(np.abs(a - b)) > 1e-3

    def test_marginal_law(self):
        import scipy.stats as st

        f = WeightField(2.0, master_seed=4)
        w = np.exp(f.log_weight_row(0, 19999, 0))
        assert st.kstest(w, st.invgamma(2.0).cdf).pvalue > 1e-3

    def test_coordinate_range_check(self):
        f = WeightField(2.0, master_seed=0)
        with pytest.raises(ValueError):
            f.log_weight((2 ** 31, 0))


def initial_included(field, u, v):
    """log Z from u to v with u's weight in, from the table of the block."""
    m, n = v[0] - u[0], v[1] - u[1]
    return float(_log_partition_table(field.log_weight_block(u, (m + 1, n + 1)), True)[m, n])


class TestLogPartition:
    def test_matches_brute_force(self):
        f = WeightField(2.0, master_seed=5)
        for u, v in [((0, 0), (3, 4)), ((-2, 1), (2, 3)), ((1, 1), (1, 5))]:
            assert log_partition(f, u, v) == pytest.approx(
                brute_log_partition(f, u, v), abs=1e-12
            )
            assert initial_included(f, u, v) == pytest.approx(
                brute_log_partition(f, u, v, include_initial=True), abs=1e-12
            )

    def test_all_ones_counts_paths(self):
        f = ZeroField()
        val = log_partition(f, (0, 0), (4, 6))
        assert math.exp(val) == pytest.approx(math.comb(10, 4), rel=1e-12)

    def test_point_conventions(self):
        f = WeightField(2.0, master_seed=6)
        assert log_partition(f, (3, 3), (3, 3)) == 0.0
        assert initial_included(f, (3, 3), (3, 3)) == f.log_weight((3, 3))

    def test_unordered_error(self):
        with pytest.raises(ValueError, match="unordered endpoints"):
            log_partition(ZeroField(), (1, 1), (0, 5))

    def test_lln_of_partition_function(self):
        # log Z(n xi) / n approaches the shape function, which at the
        # diagonal of alpha = 2 (rho = 1) is -psi0(1).
        f = WeightField(2.0, master_seed=10)
        n = 2400
        val = log_partition(f, (0, 0), (n // 2, n // 2)) / n
        # Finite-n deficit decays like n^(-2/3); at this depth it is ~0.02.
        assert val == pytest.approx(-float(sps.digamma(1.0)), abs=0.03)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (101, 102)])
    @pytest.mark.parametrize("include_initial", [False, True])
    def test_strided_table_matches_site_by_site(self, shape, include_initial):
        w = WeightField(2.0, master_seed=8).log_weight_block((-3, 4), shape)
        got = _log_partition_table(w, include_initial)
        assert got.shape == shape
        assert np.array_equal(got, site_by_site_log_partition_table(w, include_initial))

    def test_strided_table_of_a_reversed_view(self):
        # The table does not depend on the block's memory layout.
        w = WeightField(2.0, master_seed=9).log_weight_block((0, 0), (30, 17))
        view = w[::-1, ::-1]
        assert np.array_equal(
            _log_partition_table(view, False),
            site_by_site_log_partition_table(view, False),
        )


class TestDirectionMaps:
    def test_characteristic_direction_values(self):
        # xi(rho) = psi1(rho) / (psi1(rho) + psi1(alpha - rho)).
        d = rho_to_xi(RhoParam(0.5, 2.0))
        t1 = float(sps.polygamma(1, 0.5))
        t2 = float(sps.polygamma(1, 1.5))
        assert d.xi1 == pytest.approx(t1 / (t1 + t2), abs=1e-12)

    def test_symmetric_point(self):
        d = rho_to_xi(RhoParam(1.0, 2.0))
        assert d.xi1 == pytest.approx(0.5, abs=1e-12)

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            Direction(0.0)
        with pytest.raises(ValueError):
            RhoParam(2.5, 2.0)
