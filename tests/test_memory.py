"""Peak memory of the runs, seen by tracemalloc.

tracemalloc sees numpy's buffers.  A run counts, before it draws, every
array it holds at once, by the count of its family: window runs hold
(4n + 8) windows, jump runs their heaviest sampler pass, grid runs their
grids and a few rows.  experiments._fits adds one fixed allowance for the
kernels that work in _CHUNK blocks, and the run holds at most that much.
Each family runs at a size where the allowance dominates and at one where
the run's own arrays do.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

# Imported here: the quadratures' first use would import it inside a
# traced run.
import numpy.polynomial  # noqa: F401
import pytest

import busemann_lab
from busemann_lab import busemann as bu
from busemann_lab import experiments as ex
from busemann_lab import igamma_process as ig
from busemann_lab.special_functions import _CHUNK, Rng

ALLOWANCE = ex._BLOCK_ARRAYS * _CHUNK


def _peak(run, *args) -> int:
    """The most bytes a run held at once."""
    tracemalloc.start()
    try:
        run(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _peak_and_count(monkeypatch, run, *args) -> tuple[int, int]:
    """A run's peak bytes, and the elements its _fits calls count with the
    block allowance."""
    counted = []
    monkeypatch.setattr(ex, "_fits", lambda elements, option: counted.append(elements))
    peak = _peak(run, *args)
    assert counted
    return peak, sum(counted) + ALLOWANCE


EIGHT_RHOS = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6]


@pytest.mark.parametrize("run, args", [
    (ex.run_check_intertwine, (3, 2.0, [0.5, 1.0, 1.5], 5000, 0, 7)),
    (ex.run_check_inverse, (3, 2.0, [0.5, 1.0, 1.5], 5000, 7)),
    (ex.run_check_inverse, (4, 2.0, [0.5, 1.0, 1.5, 0.25], 5000, 7)),
    (ex.run_grsk_verify, (2.0, 5000, 7)),
    (ex.run_check_intertwine, (8, 2.0, EIGHT_RHOS, 1500, 0, 7)),
    # 12 windows of 60,001 values outweigh the allowance; the run holds
    # 11.1 of them.
    (ex.run_check_intertwine, (1, 2.0, [1.0], 60000, 0, 7)),
], ids=["check-intertwine-5000", "check-inverse-5000", "check-inverse-n4-5000",
        "grsk-verify-5000", "check-intertwine-n8-1500", "check-intertwine-n1-60000"])
def test_window_runs_hold_at_most_what_fits_counts(monkeypatch, run, args):
    peak, counted = _peak_and_count(monkeypatch, run, *args)
    assert peak <= 8 * counted


JUMP_RUNS = {
    "jump-count": (ex.run_jump_count, lambda n: (2.0, 1.0, 0.0, 1.0, n, 7)),
    "jump-count-alpha-1": (ex.run_jump_count, lambda n: (1.0, 0.5, 0.0, 0.5, n, 7)),
    "zero-temp": (ex.run_zero_temp, lambda n: (0.5, n, 7)),
    # At the envelope's limit its peak is 31.5, and the heaviest bands
    # are passes of their own.
    "jump-count-s-hi-0.815": (ex.run_jump_count, lambda n: (1.0, 0.5, 0.0, 0.815, n, 7)),
    # The sampler, then parallel_chain on 16 x 400 sites.
    "ppp-busemann": (ex.run_ppp_busemann, lambda n: (2.0, 0.4, 1.2, n, 7)),
}
# The count of a pass is at least _PASS_ARRAYS * _CHUNK.  The heaviest
# pass outweighs that and the allowance at s-hi 0.815 and 4,000 samples,
# 130,000 counts and expected proposals; the other cases lie below them.
JUMP_CASES = [(name, samples) for name in ("jump-count", "jump-count-alpha-1", "zero-temp")
              for samples in (2000, 20000, 40000)]
JUMP_CASES += [("jump-count-s-hi-0.815", 4000), ("ppp-busemann", 400)]
# zero-temp couples min(samples, 400) replicas: at 400 samples the most,
# against the smallest sampler count.
JUMP_CASES += [("zero-temp", 400)]


@pytest.mark.parametrize("name, samples", JUMP_CASES, ids=[f"{n}-{s}" for n, s in JUMP_CASES])
def test_jump_runs_hold_at_most_what_fits_counts(monkeypatch, name, samples):
    run, args = JUMP_RUNS[name]
    peak, counted = _peak_and_count(monkeypatch, run, *args(samples))
    assert peak <= 8 * counted


def test_zero_temp_counts_its_reparametrization_grid(monkeypatch):
    # At 80 samples, reparam_bound's trigamma grid outweighs the jump
    # sampler; the block allowance holds it.
    peak, counted = _peak_and_count(monkeypatch, ex.run_zero_temp, 0.5, 80, 7)
    assert peak <= 8 * counted


@pytest.mark.parametrize("samples", [20000, 40000])
@pytest.mark.parametrize("alpha, rho", [(2.0, 1.2), (1.0, 0.5), (1.0, 0.8)])
def test_increment_sums_hold_at_most_what_fits_counts(monkeypatch, alpha, rho, samples):
    # ppp-busemann's --samples part, under the jump sampler's count alone.
    counted = []
    monkeypatch.setattr(ex, "_fits", lambda elements, option: counted.append(elements))
    ex._jump_sampler(alpha, rho, samples, "--rho")
    peak = _peak(ig.batch_increment_sums, alpha, [rho], samples, Rng(master_seed=7))
    assert peak <= 8 * (counted[0] + ALLOWANCE)


@pytest.mark.parametrize("run, args", [
    (ex.run_stationary_cocycle, (2.0, 1.0, 1000, 60, 7)),
    (ex.run_stationary_cocycle, (2.0, 1.0, 2000, 300, 7)),
    (ex.run_she_check, (2.0, 1.0, 200, 7)),
    (ex.run_she_check, (2.0, 1.0, 600, 7)),
    (ex.run_parallel_chain, (2.0, [1.2, 0.4], 400, 7)),
    (ex.run_parallel_chain, (2.0, [1.2, 0.8, 0.4], 400, 7)),
    (ex.run_cif_eta, (2.0, 1.0, 300, 7)),
    # Two blocks of 256 rows of 604 values.
    (ex.run_cif_eta, (2.0, 0.1, 512, 7)),
    (ex.run_calibrate_stats, (124, 200, 7)),
    (ex.run_calibrate_stats, (2000, 20, 7)),
], ids=["stationary-cocycle-1000x60", "stationary-cocycle-2000x300", "she-check-200",
        "she-check-600", "parallel-chain-400", "parallel-chain-3-rhos-400",
        "cif-eta-300", "cif-eta-rho-0.1", "calibrate-stats-124x200",
        "calibrate-stats-2000x20"])
def test_grid_runs_hold_at_most_what_fits_counts(monkeypatch, run, args):
    peak, counted = _peak_and_count(monkeypatch, run, *args)
    assert peak <= 8 * counted


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


def test_stationary_cocycle_peak_does_not_grow_with_levels():
    # The run folds its checks over blocks of anti-diagonals and keeps
    # only the top row: twice the levels, the same peak.
    low = _peak(ex.run_stationary_cocycle, 2.0, 1.0, 3000, 200, 7)
    high = _peak(ex.run_stationary_cocycle, 2.0, 1.0, 3000, 400, 7)
    assert high <= 1.1 * low


def test_stationary_cocycle_holds_under_a_quarter_of_its_grids():
    window, levels = 3000, 400
    grids = 3 * 8 * (levels + 1) * (window + 1)
    assert _peak(ex.run_stationary_cocycle, 2.0, 1.0, window, levels, 7) < grids / 4


@pytest.mark.parametrize("rhos, rows", [([1.2, 0.4], 16), ([1.2, 0.8, 0.4], 20)])
def test_parallel_chain_keeps_only_the_diagonal_of_its_bottom_row_draw(rhos, rows):
    # Traced: 15.1 and 19.2 rows of its width, against 17.1 and 25.2
    # while the whole triangular array stayed alive.
    window = 50000
    width = window + bu.chain_reach(2.0, rhos) + 1
    assert _peak(ex.run_parallel_chain, 2.0, rhos, window, 7) <= rows * 8 * width


def test_no_experiment_loads_numpy_random():
    # numpy.random's modules add about 6 MB of resident memory to the
    # process that imports them, and every draw comes from the keys.
    script = (
        "import pathlib, sys, tempfile\n"
        "from test_golden import CASES, _run\n"
        "with tempfile.TemporaryDirectory() as d:\n"
        "    for name, argv, code in CASES:\n"
        "        if '-defaults' not in name:\n"
        "            assert _run(argv, pathlib.Path(d) / name) == code, name\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    src = Path(busemann_lab.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), str(Path(__file__).parent),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
