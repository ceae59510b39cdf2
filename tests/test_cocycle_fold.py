"""The stationary-cocycle checks folded over streamed blocks.

run_stationary_cocycle never builds its grid: it folds the recovery and
additivity residuals and the top row out of the blocks that
busemann.stationary_blocks yields, anti-diagonal blocks for grids whose
shorter side reaches _WAVEFRONT_MIN and row blocks below.  Its values
must equal, bit for bit, the row-wise checks on the whole grid built
row by row (oracles.row_wise_cocycle_checks).
"""

import numpy as np
import pytest

from busemann_lab import busemann as bu
from busemann_lab import experiments as ex
from busemann_lab.lattice import WeightField
from busemann_lab.seqmaps import ig_window
from busemann_lab.special_functions import Rng
from busemann_lab.stats import ks_one_sample

from oracles import row_by_row_evolve, row_wise_cocycle_checks


def _oracle_values(alpha, rho, window, levels, seed) -> list[float]:
    """run_stationary_cocycle's check values from the whole grid."""
    field = WeightField(alpha, seed)
    log_i0 = ig_window(Rng(master_seed=seed, stream_id=1), alpha - rho, 0, window).values
    grids = row_by_row_evolve(field, log_i0, 0, window, levels)
    rec, add, log_i, log_j = row_wise_cocycle_checks(*grids, bu._margin(alpha, rho))
    return [rec, add, ks_one_sample(np.exp(log_i), ex._invgamma_cdf(alpha - rho)).p_value,
            ks_one_sample(np.exp(log_j), ex._invgamma_cdf(rho)).p_value]


def _same(a, b) -> bool:
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


@pytest.mark.parametrize("alpha, rho, window, levels, seed", [
    (2.0, 1.0, 6000, 400, 7),  # the benchmark's deep grid
    (2.0, 1.0, 400, 700, 7),  # taller than wide
    (2.0, 1.0, 400, bu._WAVEFRONT_MIN - 1, 11),  # the last row-path grid
    (2.0, 1.0, 400, bu._WAVEFRONT_MIN, 11),  # the first anti-diagonal one
    (2.0, 1.0, 1000, 256, 3),
    (2.0, 1.0, 1000, 257, 3),
    (1.0, 0.5, 3000, 60, 5),
    (2.0, 1.0, 5000, 3, 7),  # the golden report's row path
    (2.0, 1.0, 5000, 3, 12),
], ids=["6000x400", "tall-400x700", "row-path-47", "wavefront-48", "1000x256",
        "1000x257", "alpha-1", "5000x3", "5000x3-seed-12"])
def test_run_values_equal_the_row_wise_checks(alpha, rho, window, levels, seed):
    got = [c["value"] for c in ex.run_stationary_cocycle(alpha, rho, window, levels, seed)]
    assert got == _oracle_values(alpha, rho, window, levels, seed)


@pytest.mark.parametrize("window, levels", [(400, 60), (400, 5), (350, 500)])
def test_blocks_of_seven_sites_give_the_same_values(monkeypatch, window, levels):
    # One diagonal, or one row, a block: every block boundary is crossed.
    want = [c["value"] for c in ex.run_stationary_cocycle(2.0, 1.0, window, levels, 9)]
    monkeypatch.setattr(bu, "_CHUNK", 7)
    got = [c["value"] for c in ex.run_stationary_cocycle(2.0, 1.0, window, levels, 9)]
    assert got == want == _oracle_values(2.0, 1.0, window, levels, 9)


def _grids_and_blocks(log_i0, t_max, seed):
    field = WeightField(2.0, seed)
    n = log_i0.shape[0]
    grids = row_by_row_evolve(field, log_i0, 0, n - 1, t_max)
    if min(t_max, n) >= bu._WAVEFRONT_MIN:
        return grids, bu._sweep_diagonals(field, log_i0, 0, t_max)
    return grids, bu._row_blocks(*grids)


@pytest.mark.parametrize("t_max, n", [(10, 300), (2 * bu._WAVEFRONT_MIN, 300),
                                      (300, 2 * bu._WAVEFRONT_MIN)])
def test_nan_in_the_bottom_row_gives_nan_residuals(t_max, n):
    log_i0 = np.log(np.linspace(0.5, 3.0, n))
    log_i0[n // 3] = np.nan
    grids, blocks = _grids_and_blocks(log_i0, t_max, 31)
    c = 40
    got = ex._cocycle_fold(blocks, c)
    want = row_wise_cocycle_checks(*grids, c)
    assert np.isnan(got[0]) and np.isnan(got[1])
    assert all(_same(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("t_max, n", [(1, 500), (bu._WAVEFRONT_MIN, 49), (500, 300)])
def test_fold_equals_the_row_wise_checks(t_max, n):
    log_i0 = np.log(np.linspace(0.5, 3.0, n))
    for c in (0, 1, 17):
        grids, blocks = _grids_and_blocks(log_i0, t_max, 32)
        got = ex._cocycle_fold(blocks, c)
        assert all(_same(a, b) for a, b in zip(got, row_wise_cocycle_checks(*grids, c)))


def test_levels_below_one_are_refused():
    with pytest.raises(ex.ConfigError, match="--levels: 0 is not in the range x>=1."):
        ex.run_stationary_cocycle(2.0, 1.0, 20000, 0, 7)
