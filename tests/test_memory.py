"""Peak memory of the grid-, trial- and sample-sized checks, seen by tracemalloc.

tracemalloc sees numpy's buffers.  A run may hold the arrays its checks
read and little more: the checks stream them row by row, or block by
block, instead of building temporaries of their size.  A run that sizes
itself with experiments._fits holds at most what it counts there.
"""

import tracemalloc

# Imported here: grsk-verify's and the quadratures' first uses would import
# them inside a traced run.
import numpy.polynomial  # noqa: F401
import numpy.random  # noqa: F401
import pytest

from busemann_lab import busemann as bu
from busemann_lab import experiments as ex
from busemann_lab import igamma_process as ig
from busemann_lab.special_functions import Rng


def _peak(run, *args) -> int:
    """The most bytes a run held at once."""
    tracemalloc.start()
    try:
        run(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("window", [5000, 10000])
@pytest.mark.parametrize("run, args", [
    (ex.run_check_intertwine, lambda w: (3, 2.0, [0.5, 1.0, 1.5], w, 0, 7)),
    (ex.run_check_inverse, lambda w: (3, 2.0, [0.5, 1.0, 1.5], w, 7)),
    # From n = 4 on, haop's peeled windows outnumber daop's arrays.
    (ex.run_check_inverse, lambda w: (4, 2.0, [0.5, 1.0, 1.5, 0.25], w, 7)),
    (ex.run_grsk_verify, lambda w: (2.0, w, 7)),
], ids=["check-intertwine", "check-inverse", "check-inverse-n4", "grsk-verify"])
def test_window_runs_hold_at_most_what_fits_counts(monkeypatch, run, args, window):
    counted = []
    monkeypatch.setattr(ex, "_fits", lambda elements, option: counted.append(elements))
    peak = _peak(run, *args(window))
    assert peak <= 8 * max(counted)


# At 2,000 samples one pass draws the counts of 32 bands.
@pytest.mark.parametrize("samples", [2000, 20000, 40000])
@pytest.mark.parametrize("run, args", [
    (ex.run_jump_count, lambda n: (2.0, 1.0, 0.0, 1.0, n, 7)),
    (ex.run_jump_count, lambda n: (1.0, 0.5, 0.0, 0.5, n, 7)),
    (ex.run_zero_temp, lambda n: (0.5, n, 7)),
], ids=["jump-count", "jump-count-alpha-1", "zero-temp"])
def test_jump_runs_hold_at_most_what_fits_counts(monkeypatch, run, args, samples):
    counted = []
    monkeypatch.setattr(ex, "_fits", lambda elements, option: counted.append(elements))
    peak = _peak(run, *args(samples))
    assert peak <= 8 * max(counted)


def test_zero_temp_counts_its_reparametrization_grid(monkeypatch):
    # At 80 samples, reparam_bound's trigamma grid outweighs the jump sampler.
    counted = []
    monkeypatch.setattr(ex, "_fits", lambda elements, option: counted.append(elements))
    peak = _peak(ex.run_zero_temp, 0.5, 80, 7)
    assert peak <= 8 * max(counted)


@pytest.mark.parametrize("samples", [20000, 40000])
@pytest.mark.parametrize("alpha, rho", [(2.0, 1.2), (1.0, 0.5), (1.0, 0.8)])
def test_increment_sums_hold_at_most_what_fits_counts(monkeypatch, alpha, rho, samples):
    # ppp-busemann's --samples part; its parallel_chain rows are counted apart.
    counted = []
    monkeypatch.setattr(ex, "_fits", lambda elements, option: counted.append(elements))
    ex._jump_points_fit(alpha, rho, samples)
    peak = _peak(ig.batch_increment_sums, alpha, [rho], samples, Rng(master_seed=7))
    assert peak <= 8 * counted[0]


def test_stationary_cocycle_holds_its_grids():
    window, levels = 3000, 200
    grids = 3 * 8 * (levels + 1) * (window + 1)
    assert _peak(ex.run_stationary_cocycle, 2.0, 1.0, window, levels, 7) <= 1.25 * grids


def test_calibrate_stats_holds_less_than_one_draw():
    trials, samples = 200, 2000
    assert _peak(ex.run_calibrate_stats, trials, samples, 7) < 8 * trials * samples


def test_she_check_holds_its_grid_and_solution(monkeypatch):
    held = []

    def keep(f):
        def kept(*args):
            held.append(f(*args))
            return held[-1]
        return kept

    monkeypatch.setattr(bu, "stationary_cocycle", keep(bu.stationary_cocycle))
    monkeypatch.setattr(bu, "eternal_from_cocycle", keep(bu.eternal_from_cocycle))
    peak = _peak(ex.run_she_check, 2.0, 1.0, 400, 7)
    grid, es = held
    arrays = (grid.i_vals, grid.j_vals, grid.w_vals, es.log_z)
    assert peak <= 1.25 * sum(a.nbytes for a in arrays)
