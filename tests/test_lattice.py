import itertools
import math

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as hst

from busemann_lab.bruteforce import site_by_site_log_partition_table
from busemann_lab.lattice import (
    E1_AXIS,
    E2_AXIS,
    ConstantField,
    Direction,
    RhoParam,
    WeightField,
    _log_partition_table,
    finite_marginal,
    log_partition,
    rho_to_xi,
    shape_function,
    weight,
    xi_to_rho,
)


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

    def test_weight_helper(self):
        f = ConstantField(0.25)
        assert weight(f, (1, 2)) == 0.25


class TestLogPartition:
    def test_matches_brute_force(self):
        f = WeightField(2.0, master_seed=5)
        for u, v in [((0, 0), (3, 4)), ((-2, 1), (2, 3)), ((1, 1), (1, 5))]:
            assert log_partition(f, u, v) == pytest.approx(
                brute_log_partition(f, u, v), abs=1e-12
            )
            assert log_partition(f, u, v, include_initial=True) == pytest.approx(
                brute_log_partition(f, u, v, include_initial=True), abs=1e-12
            )

    def test_all_ones_counts_paths(self):
        f = ConstantField(0.0)
        val = log_partition(f, (0, 0), (4, 6))
        assert math.exp(val) == pytest.approx(math.comb(10, 4), rel=1e-12)

    def test_point_conventions(self):
        f = WeightField(2.0, master_seed=6)
        assert log_partition(f, (3, 3), (3, 3)) == 0.0
        assert log_partition(f, (3, 3), (3, 3), include_initial=True) == (
            f.log_weight((3, 3))
        )

    def test_unordered_error(self):
        with pytest.raises(ValueError, match="unordered endpoints"):
            log_partition(ConstantField(), (1, 1), (0, 5))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (101, 102)])
    @pytest.mark.parametrize("include_initial", [False, True])
    def test_strided_table_matches_site_by_site(self, shape, include_initial):
        w = WeightField(2.0, master_seed=8).log_weight_block((-3, 4), shape)
        got = _log_partition_table(w, include_initial)
        assert got.shape == shape
        assert np.array_equal(got, site_by_site_log_partition_table(w, include_initial))

    def test_strided_table_of_a_reversed_view(self):
        # cif reads the table of the block's reversed view.
        w = WeightField(2.0, master_seed=9).log_weight_block((0, 0), (30, 17))
        view = w[::-1, ::-1]
        assert np.array_equal(
            _log_partition_table(view, False),
            site_by_site_log_partition_table(view, False),
        )


class TestFiniteMarginal:
    def test_single_site_sums_to_one(self):
        f = WeightField(2.0, master_seed=7)
        u, v = (0, 0), (3, 3)
        # The path passes through exactly one site of each antidiagonal level.
        total = sum(
            finite_marginal(f, u, v, [(i, 2 - i)]) for i in range(3)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_matches_path_enumeration(self):
        f = WeightField(2.0, master_seed=9)
        u, v = (0, 0), (2, 3)
        site = (1, 1)
        num = 0.0
        den = 0.0
        for comb in itertools.combinations(range(5), 2):
            x = list(u)
            cells = [tuple(u)]
            logw = 0.0
            for s in range(5):
                if s in comb:
                    x[0] += 1
                else:
                    x[1] += 1
                cells.append(tuple(x))
                logw += f.log_weight(x)
            den += math.exp(logw)
            if site in cells:
                num += math.exp(logw)
        assert finite_marginal(f, u, v, [site]) == pytest.approx(
            num / den, abs=1e-12
        )

    def test_incompatible_sites(self):
        with pytest.raises(ValueError, match="incompatible sites"):
            finite_marginal(ConstantField(), (0, 0), (3, 3), [(4, 0)])


class TestDirectionMaps:
    @pytest.mark.parametrize("rho", [0.2, 0.5, 1.0, 1.7])
    def test_round_trip(self, rho):
        p = RhoParam(rho, 2.0)
        back = xi_to_rho(2.0, rho_to_xi(p))
        assert back.rho == pytest.approx(rho, abs=1e-9)

    def test_characteristic_direction_values(self):
        # xi(rho) = psi1(rho) / (psi1(rho) + psi1(alpha - rho)).
        d = rho_to_xi(RhoParam(0.5, 2.0))
        t1 = float(sps.polygamma(1, 0.5))
        t2 = float(sps.polygamma(1, 1.5))
        assert d.xi1 == pytest.approx(t1 / (t1 + t2), abs=1e-12)

    def test_symmetric_point(self):
        d = rho_to_xi(RhoParam(1.0, 2.0))
        assert d.xi1 == pytest.approx(0.5, abs=1e-12)

    @given(hst.floats(0.05, 0.95))
    @settings(max_examples=50, deadline=None)
    def test_xi_to_rho_solves_balance(self, xi1):
        p = xi_to_rho(2.0, Direction(xi1))
        lhs = xi1 * float(sps.polygamma(1, 2.0 - p.rho))
        rhs = (1 - xi1) * float(sps.polygamma(1, p.rho))
        assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-9)

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            Direction(0.0)
        with pytest.raises(ValueError):
            RhoParam(2.5, 2.0)


class TestShapeFunction:
    def test_axis_values(self):
        val = shape_function(2.0, E1_AXIS)
        assert val == pytest.approx(-float(sps.digamma(2.0)), abs=1e-12)
        assert shape_function(2.0, E2_AXIS) == val

    def test_interior_value(self):
        d = rho_to_xi(RhoParam(1.0, 2.0))
        expected = -0.5 * float(sps.digamma(1.0)) - 0.5 * float(sps.digamma(1.0))
        assert shape_function(2.0, d) == pytest.approx(expected, abs=1e-9)

    def test_homogeneous(self):
        d = Direction(0.3)
        assert shape_function(2.0, d, scale=2.5) == pytest.approx(
            2.5 * shape_function(2.0, d), abs=1e-12
        )
        assert shape_function(2.0, d, scale=0.0) == 0.0

    def test_concavity_on_the_simplex(self):
        xs = np.linspace(0.05, 0.95, 41)
        vals = np.array([shape_function(2.0, Direction(x)) for x in xs])
        second = np.diff(vals, 2)
        assert np.all(second <= 1e-10)

    def test_lln_of_partition_function(self):
        # log Z(n xi) / n approaches the shape function.
        f = WeightField(2.0, master_seed=10)
        n = 2400
        d = rho_to_xi(RhoParam(1.0, 2.0))
        val = log_partition(f, (0, 0), (n // 2, n // 2)) / n
        # Finite-n deficit decays like n^(-2/3); at this depth it is ~0.02.
        assert val == pytest.approx(shape_function(2.0, d), abs=0.03)
