import math

import numpy as np
import pytest

from busemann_lab.bruteforce import brute_force_ratio_array
from busemann_lab.grsk import (
    FullArray,
    TriangularArray,
    Word,
    array_insert,
    build_triangular,
    row_insert,
    triangular_reach,
)
from busemann_lab.seqmaps import LogSeqWindow, SeqTuple, daop, daop_reach
from busemann_lab.special_functions import Rng, digamma, sample_inverse_gamma


def partition_with_initial(weights, m, k):
    z = np.zeros((m, k))
    for i in range(m):
        for j in range(k):
            acc = 0.0
            if i == 0 and j == 0:
                acc = 1.0
            if i > 0:
                acc += z[i - 1, j]
            if j > 0:
                acc += z[i, j - 1]
            z[i, j] = acc * weights[i, j]
    return math.log(z[m - 1, k - 1])


def ig_window(shape, lo, hi, seed, stream=0):
    rng = Rng(master_seed=seed, stream_id=stream)
    vals = np.log(sample_inverse_gamma(rng, shape, size=hi - lo + 1))
    return LogSeqWindow(lo, hi, vals, cesaro_hint=-digamma(shape))


class TestWord:
    def test_empty_sentinel(self):
        w = Word(4, np.empty(0))
        assert w.is_empty and len(w) == 0 and w.start == 4

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Word(0, np.array([0.0, np.nan]))


class TestRowInsert:
    def test_matches_linear_domain(self):
        rng = np.random.default_rng(0)
        xi = rng.uniform(0.5, 2.0, size=6)
        b = rng.uniform(0.5, 2.0, size=6)
        new, dual = row_insert(Word(2, np.log(xi)), Word(2, np.log(b)))
        out = np.empty(6)
        out[0] = b[0] * xi[0]
        for k in range(1, 6):
            out[k] = b[k] * (out[k - 1] + xi[k])
        assert np.max(np.abs(new.entries - np.log(out))) < 1e-13
        dual_ref = b[1:] * xi[1:] * out[:-1] / (xi[:-1] * out[1:])
        assert dual.start == 3 and len(dual) == 5
        assert np.max(np.abs(dual.entries - np.log(dual_ref))) < 1e-13

    def test_conservation(self):
        # The insertion conserves prod(b) * xi_N: telescoping the dual
        # weights gives prod(b') * xi'_N = prod(b) * xi_N.
        rng = np.random.default_rng(1)
        xi = Word(1, np.log(rng.uniform(0.5, 2.0, size=8)))
        b = Word(1, np.log(rng.uniform(0.5, 2.0, size=8)))
        new, dual = row_insert(xi, b)
        lhs = float(np.sum(dual.entries)) + float(new.entries[-1])
        rhs = float(np.sum(b.entries)) + float(xi.entries[-1])
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_word_mismatch(self):
        with pytest.raises(ValueError, match="word mismatch"):
            row_insert(Word(0, np.zeros(3)), Word(1, np.zeros(3)))

    def test_single_letter(self):
        # xi'_ell = b_ell xi_ell exactly: the recursion's seed J = 0 drops out.
        new, dual = row_insert(Word(5, np.array([0.2])), Word(5, np.array([0.3])))
        assert new.entries[0] == 0.3 + 0.2
        assert dual.is_empty and dual.start == 6


class TestArrayInsert:
    def test_first_column_is_partition_function(self):
        rng = np.random.default_rng(2)
        for n in (2, 3):
            weights = 1.0 / rng.gamma(2.0, size=(n + 4, n))
            arr = brute_force_ratio_array(weights, n)
            for m in range(n + 1, n + 5):
                arr = array_insert(arr, Word(1, np.log(weights[m - 1])))
                for k in range(1, n + 1):
                    assert arr.cell(k, 1) == pytest.approx(
                        partition_with_initial(weights, m, k), abs=1e-11
                    )

    def test_all_ones_counts_are_binomials(self):
        n = 3
        arr = brute_force_ratio_array(np.ones((n, n)), n)
        for m in range(n + 1, n + 7):
            arr = array_insert(arr, Word(1, np.zeros(n)))
            for k in range(1, n + 1):
                count = round(math.exp(arr.cell(k, 1)))
                assert count == math.comb(m + k - 2, k - 1)
                assert math.exp(arr.cell(k, 1)) == pytest.approx(count, rel=1e-12)

    def test_initial_array_is_consistent(self):
        # The brute-force starting array already has partition functions in
        # its first column.
        rng = np.random.default_rng(3)
        n = 3
        weights = 1.0 / rng.gamma(2.0, size=(n, n))
        arr = brute_force_ratio_array(weights, n)
        for k in range(1, n + 1):
            assert arr.cell(k, 1) == pytest.approx(
                partition_with_initial(weights, n, k), abs=1e-12
            )

    def test_word_length_check(self):
        arr = brute_force_ratio_array(np.ones((2, 2)), 2)
        with pytest.raises(ValueError):
            array_insert(arr, Word(1, np.zeros(3)))

    def test_full_array_validation(self):
        with pytest.raises(ValueError):
            FullArray(2, (np.zeros(2),))
        arr = brute_force_ratio_array(np.ones((2, 2)), 2)
        with pytest.raises(ValueError):
            arr.cell(1, 2)


class TestBuildTriangular:
    def test_diagonal_matches_tuple_map(self):
        shapes = [2.5, 1.5, 0.5]
        tup = SeqTuple(
            tuple(
                ig_window(s, 0, 3000, seed=5, stream=k + 1)
                for k, s in enumerate(shapes)
            )
        )
        tri = build_triangular(tup)
        da = daop(tup)
        lo = max(tri.x_cells[1, 1].lo, da.lo)
        for i in range(1, 4):
            a = tri.x_cells[i, i].restrict(lo, 3000).values
            b = da.windows[i - 1].restrict(lo, 3000).values
            assert np.max(np.abs(a - b)) < 1e-12

    def test_cells_share_range(self):
        shapes = [2.5, 1.5]
        tup = SeqTuple(
            tuple(
                ig_window(s, 0, 1000, seed=6, stream=k + 1)
                for k, s in enumerate(shapes)
            )
        )
        tri = build_triangular(tup)
        ranges = {
            (w.lo, w.hi)
            for w in list(tri.x_cells.values()) + list(tri.v_cells.values())
        }
        assert len(ranges) == 1
        assert isinstance(tri, TriangularArray)

    def test_window_exhausted(self):
        shapes = [2.5, 1.5, 0.5]
        tup = SeqTuple(
            tuple(
                ig_window(s, 0, 80, seed=7, stream=k + 1)
                for k, s in enumerate(shapes)
            )
        )
        with pytest.raises(ValueError, match="window too short"):
            build_triangular(tup)

    @pytest.mark.parametrize(
        "alpha, rhos, daop_lo, tri_lo",
        [
            (2.0, (0.5, 1.0, 1.5), 66, 116),
            (3.5, (0.5, 1.5, 2.5), 80, 148),
            (1.0, (0.2, 0.5, 0.8), 41, 64),
            (5.0, (0.3, 1.1, 2.7, 4.1), 191, 354),
            (2.0, (1.0,), 0, 0),
        ],
    )
    def test_reach_from_hints(self, alpha, rhos, daop_lo, tri_lo):
        # The reaches follow from the Cesaro hints alone and equal the
        # offsets the maps produce on drawn windows.
        shapes = sorted((alpha - r for r in rhos), reverse=True)
        tup = SeqTuple(tuple(
            ig_window(s, -3, 600, seed=8, stream=k + 1) for k, s in enumerate(shapes)
        ))
        hints = [w.cesaro_hint for w in tup.windows]
        assert daop(tup).lo - tup.lo == daop_reach(hints) == daop_lo
        assert (build_triangular(tup).x_cells[1, 1].lo - tup.lo
                == triangular_reach(hints) == tri_lo)
