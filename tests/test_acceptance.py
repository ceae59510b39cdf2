"""End-to-end acceptance checks at their stated tolerances.

Each test prints exactly one PASS/FAIL line for its criterion and then
asserts it.  Statistical checks run at fixed seeds that were verified to
sit inside their stated confidence bands.
"""

import math

import numpy as np
import scipy.special as sps
import scipy.stats as st

from busemann_lab import experiments
from busemann_lab.bruteforce import brute_force_ratio_array
from busemann_lab.busemann import (
    busemann_ratio_estimate,
    eternal_from_cocycle,
    parallel_chain,
    stationary_cocycle,
)
from busemann_lab.cif import eta_cdf_estimate, xi_star_cdf_check
from busemann_lab.grsk import Word, array_insert, build_triangular
from busemann_lab.igamma_process import (
    batch_increment_sums,
    batch_jump_counts,
    expected_jump_count,
    marginal_check,
    reparam_bound,
    zero_temp_keep_prob,
)
from busemann_lab.lattice import RhoParam, WeightField, rho_to_xi
from busemann_lab.seqmaps import (
    LogSeqWindow,
    SeqTuple,
    daop,
    haop,
    inverse_h,
    parallel_step,
    sequential_step,
    update,
)
from busemann_lab.special_functions import Rng, digamma, sample_inverse_gamma
from busemann_lab.stats import ks_two_sample, pearson, poisson_dispersion

from test_grsk import partition_with_initial


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def ig_window(shape, lo, hi, seed, stream):
    rng = Rng(master_seed=seed, stream_id=stream)
    vals = np.log(sample_inverse_gamma(rng, shape, size=hi - lo + 1))
    return LogSeqWindow(lo, hi, vals, cesaro_hint=-digamma(shape))


def ig_tuple(shapes, lo, hi, seed):
    return SeqTuple(
        tuple(
            ig_window(s, lo, hi, seed, stream=k + 1)
            for k, s in enumerate(shapes)
        )
    )


def test_intertwining_of_one_step_maps():
    # One parallel step composed with the tuple map agrees with the tuple
    # map composed with one sequential step, for 2 to 4 components.
    alpha, window, margin = 2.0, 4000, 600
    rho_pool = [0.5, 1.0, 1.5, 1.75]
    worst = 0.0
    for n in (2, 3, 4):
        shapes = [alpha - r for r in rho_pool[:n]]
        tup = ig_tuple(shapes, 0, window, seed=101)
        w = ig_window(alpha, 0, window, seed=101, stream=9)
        lhs = parallel_step(w, daop(tup))
        rhs = daop(sequential_step(w, tup))
        lo = max(lhs.lo, rhs.lo, margin)
        for a, b in zip(lhs.windows, rhs.windows):
            gap = np.abs(
                a.restrict(lo, window).values - b.restrict(lo, window).values
            )
            worst = max(worst, float(np.max(gap)))
    report("intertwining-one-step", worst < 1e-10, f"max gap {worst:.3e}")


def test_inverse_maps_round_trip():
    window = 4000
    shapes = [3.0, 2.0, 1.0]
    w = ig_window(4.0, 0, window, seed=102, stream=9)
    tup = ig_tuple(shapes, 0, window, seed=102)
    out = update(w, tup.windows[0])
    w_valid = w.restrict(out.i_tilde.lo, window)
    rec = inverse_h(w_valid, out.i_tilde)
    ref = tup.windows[0].restrict(rec.lo, rec.hi)
    single = float(np.max(np.abs(rec.values - ref.values)))
    strictly_above = bool(np.min(out.i_tilde.values - w_valid.values) > 0.0)
    back = haop(daop(tup))
    tuple_err = max(
        float(np.max(np.abs(
            back.windows[k].values
            - tup.windows[k].restrict(back.lo, back.hi).values
        )))
        for k in range(len(shapes))
    )
    ok = single < 1e-10 and tuple_err < 1e-10 and strictly_above
    report(
        "inverse-round-trip",
        ok,
        f"single {single:.3e}, tuple {tuple_err:.3e}, D>W {strictly_above}",
    )


def test_triangular_diagonal_equals_tuple_map():
    window = 4000
    worst = 0.0
    for n in (2, 3, 4):
        shapes = [3.5, 2.5, 1.5, 0.5][:n]
        tup = ig_tuple(shapes, 0, window, seed=103)
        tri = build_triangular(tup)
        da = daop(tup)
        lo = max(tri.x_cells[1, 1].lo, da.lo)
        for i in range(1, n + 1):
            gap = np.abs(
                tri.x_cells[i, i].restrict(lo, window).values
                - da.windows[i - 1].restrict(lo, window).values
            )
            worst = max(worst, float(np.max(gap)))
    report("triangular-diagonal", worst < 1e-10, f"max gap {worst:.3e}")


def test_insertion_reproduces_partition_functions():
    rng = np.random.default_rng(104)
    worst = 0.0
    for n in (3, 4):
        weights = 1.0 / rng.gamma(2.0, size=(n + 3, n))
        arr = brute_force_ratio_array(weights, n)
        for m in range(n + 1, n + 4):
            arr = array_insert(arr, Word(1, np.log(weights[m - 1])))
            for k in range(1, n + 1):
                worst = max(worst, abs(
                    arr.cell(k, 1) - partition_with_initial(weights, m, k)
                ))
    n = 3
    arr = brute_force_ratio_array(np.ones((n, n)), n)
    counts_exact = True
    for m in range(n + 1, n + 7):
        arr = array_insert(arr, Word(1, np.zeros(n)))
        for k in range(1, n + 1):
            counts_exact &= (
                round(math.exp(arr.cell(k, 1))) == math.comb(m + k - 2, k - 1)
            )
    ok = worst < 1e-10 and counts_exact
    report(
        "insertion-partition-functions",
        ok,
        f"max gap {worst:.3e}, counts exact {counts_exact}",
    )


def test_one_step_output_laws():
    alpha, lam, n = 2.0, 1.0, 100_000
    burn = math.ceil(40.0 / (digamma(alpha) - digamma(lam)))
    hi = n + burn
    w = ig_window(alpha, 0, hi, seed=105, stream=1)
    i = ig_window(lam, 0, hi, seed=105, stream=2)
    out = update(w, i)
    d_vals = np.exp(out.i_tilde.values)
    p_d = st.kstest(d_vals, st.invgamma(lam).cdf).pvalue
    j_vals = np.exp(out.j.values[::16])
    p_j = st.kstest(j_vals, st.invgamma(alpha - lam).cdf).pvalue
    corr = pearson(out.i_tilde.values[:-1], out.i_tilde.values[1:])
    bound = 3.0 / math.sqrt(n)
    ok = p_d > 0.001 and p_j > 0.001 and abs(corr) < bound
    report(
        "one-step-output-laws",
        ok,
        f"D p={p_d:.4f}, J p={p_j:.4f}, |corr|={abs(corr):.5f} < {bound:.5f}",
    )


def test_triangular_cell_laws():
    # Cell X^{i,j} keeps the law of input i; cell V^{i,j} keeps the law of
    # input j.  100k effective samples per cell.
    shapes = [1.5, 1.0, 0.5]
    n_eff = 100_000
    window = n_eff + 300
    tup = ig_tuple(shapes, 0, window, seed=106)
    tri = build_triangular(tup)
    p_min = 1.0
    for (i, j), win in tri.x_cells.items():
        p = st.kstest(
            np.exp(win.values[-n_eff:]), st.invgamma(shapes[i - 1]).cdf
        ).pvalue
        p_min = min(p_min, p)
    for (i, j), win in tri.v_cells.items():
        p = st.kstest(
            np.exp(win.values[-n_eff:]), st.invgamma(shapes[j - 1]).cdf
        ).pvalue
        p_min = min(p_min, p)
    report("triangular-cell-laws", p_min > 0.001, f"min KS p = {p_min:.4f}")


def test_jump_process_edge_laws():
    alpha, lam, rho, n = 2.0, 0.4, 1.2, 100_000
    rng = Rng(master_seed=107)
    inc = batch_increment_sums(alpha, [lam, rho], n, rng.spawn(1))
    p_beta = st.kstest(np.exp(-inc[:, 1]), st.beta(0.8, 0.8).cdf).pvalue
    m_rng = rng.spawn(2)
    sums = batch_increment_sums(alpha, [rho], n, m_rng.spawn(1))[:, 0]
    p_marg = marginal_check(alpha, rho, sums, m_rng).p_value
    corr = pearson(inc[:, 0], inc[:, 1])
    bound = 3.0 / math.sqrt(n)
    m = 20_000
    field = WeightField(alpha, master_seed=108)
    grids = parallel_chain(
        field,
        [RhoParam(rho, alpha), RhoParam(lam, alpha)],
        (0, 16 * m, 1),
        Rng(master_seed=108, stream_id=1),
    )
    c = grids[0].bulk_k_lo - grids[0].k_lo
    lattice_inc = grids[0].i_vals[1, c::16] - grids[1].i_vals[1, c::16]
    p_cross = ks_two_sample(inc[:, 1], lattice_inc).p_value
    ok = (
        p_beta > 0.001 and p_marg > 0.001 and p_cross > 0.001
        and abs(corr) < bound
    )
    report(
        "jump-process-edge-laws",
        ok,
        f"beta p={p_beta:.4f}, marginal p={p_marg:.4f}, "
        f"cross p={p_cross:.4f}, |corr|={abs(corr):.5f}",
    )


def test_jump_counts_poisson():
    alpha, delta, n = 2.0, 1.0, 10_000
    counts = batch_jump_counts(alpha, delta, (0.0, 1.0), n, Rng(master_seed=109))
    mu = expected_jump_count(alpha, delta, (0.0, 1.0))
    dev = abs(float(counts.mean()) - mu)
    sig3 = 3.0 * float(counts.std()) / math.sqrt(n)
    p_disp = poisson_dispersion(counts, mu)
    ok = dev < sig3 and p_disp > 0.001
    report(
        "jump-counts-poisson",
        ok,
        f"|mean-mu|={dev:.4f} < {sig3:.4f}, dispersion p={p_disp:.4f}",
    )


def test_zero_temperature_limit():
    rho, n = 0.5, 10_000
    rng = Rng(master_seed=110)
    inc = batch_increment_sums(
        1.0, [rho], n, rng.spawn(1), thinning=zero_temp_keep_prob
    )[:, 0]
    z0 = -np.log1p(-rng.spawn(2).uniforms(n)) + inc
    p_exp = st.kstest(z0, st.expon(scale=1.0 / (1.0 - rho)).cdf).pvalue
    from busemann_lab.igamma_process import sample_ppp, zero_temp_couple

    alphas = (0.5, 0.2, 0.1)
    totals = {a: 0.0 for a in alphas}
    reps = 200
    for r in range(reps):
        smp = sample_ppp(1.0, rho, rng=Rng(master_seed=111, stream_id=r))
        for a in alphas:
            _, pa, p0 = zero_temp_couple(smp, a)
            totals[a] += float(np.max(pa - p0))
    gaps = [totals[a] / reps for a in alphas]
    monotone = gaps[0] > gaps[1] > gaps[2] >= 0.0
    bound_ok = all(
        reparam_bound(a) <= (math.pi ** 2 / 3.0) * a * a
        for a in (1.0, 0.5, 0.1, 0.01)
    )
    ok = p_exp > 0.001 and monotone and bound_ok
    report(
        "zero-temperature-limit",
        ok,
        f"Exp KS p={p_exp:.4f}, gaps {gaps[0]:.3f}>{gaps[1]:.3f}>{gaps[2]:.3f}, "
        f"reparam bound {bound_ok}",
    )


def test_interface_direction_laws():
    n = 10_000
    results = []
    for alpha, rho, seed in ((2.0, 1.0, 112), (2.0, 0.5, 113)):
        est, se = eta_cdf_estimate(alpha, rho, n, Rng(master_seed=seed, stream_id=1))
        target = (alpha - rho) / alpha
        results.append((est, se, target, abs(est - target) < 3.0 * se))
    xi_est, xi_se = xi_star_cdf_check(2.0, 1.0, n, Rng(master_seed=114, stream_id=1))
    eta_est, eta_se = results[0][0], results[0][1]
    agree = abs(xi_est - eta_est) < 3.0 * math.hypot(xi_se, eta_se)
    xi_ok = abs(xi_est - 0.5) < 3.0 * xi_se
    ok = all(r[3] for r in results) and agree and xi_ok
    detail = ", ".join(
        f"eta({t:.2f})={e:.4f}+-{s:.4f}" for e, s, t, _ in results
    )
    report(
        "interface-direction-laws",
        ok,
        f"{detail}, xi={xi_est:.4f}+-{xi_se:.4f}",
    )


def test_heat_recursion_and_backward_kernel():
    alpha, rho, size = 2.0, 1.0, 200
    field = WeightField(alpha, master_seed=115)
    margin = math.ceil(40.0 / (digamma(alpha) - digamma(alpha - rho)))
    grid = stationary_cocycle(
        field, RhoParam(rho, alpha), (0, margin + size, size),
        Rng(master_seed=115, stream_id=1),
    )
    es = eternal_from_cocycle(grid, (grid.bulk_k_lo + size // 2, size // 2))
    c = grid.bulk_k_lo - grid.k_lo
    lz = es.log_z
    worst = 0.0
    for r in range(1, lz.shape[0]):
        resid = np.abs(
            lz[r, 1:]
            - (
                np.logaddexp(lz[r, :-1], lz[r - 1, 1:])
                + grid.w_vals[es.t0 + r, c + 1 :]
            )
        )
        worst = max(worst, float(np.max(resid)))
    i_blk, j_blk, w_blk = (a[1:, c:] for a in (grid.i_vals, grid.j_vals, grid.w_vals))
    psum_err = float(np.max(np.abs(
        np.exp(w_blk - i_blk) + np.exp(w_blk - j_blk) - 1.0
    )))
    ok = worst < 1e-12 and psum_err < 1e-12
    report(
        "heat-recursion-and-kernel",
        ok,
        f"recursion residual {worst:.3e}, kernel sum error {psum_err:.3e}",
    )


def test_deep_ratio_law_of_large_numbers():
    alpha, rho, depth, fields = 2.0, 0.5, 400, 200
    d = rho_to_xi(RhoParam(rho, alpha))
    vals = np.array([
        busemann_ratio_estimate(
            WeightField(alpha, master_seed=500 + r), (0, 0), (1, 0), d, depth
        )
        for r in range(fields)
    ])
    target = -float(sps.digamma(alpha - rho))
    dev = abs(float(vals.mean()) - target)
    sig3 = 3.0 * float(vals.std()) / math.sqrt(fields)
    report(
        "deep-ratio-lln",
        dev < sig3,
        f"|mean-target|={dev:.4f} < {sig3:.4f}",
    )


def test_statistical_test_calibration():
    checks = experiments.run_calibrate_stats(1000, 10_000, 116)
    report("test-calibration", all(c["pass"] for c in checks),
           ", ".join(f"{c['name']}={c['value']:.4f}" for c in checks))
