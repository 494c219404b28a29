"""Acceptance gate: end-to-end statistical and performance checks.

Each test covers one graduation criterion at desk scale, asserts the
stated tolerance and runtime budget, and prints a one-line verdict so a
plain ``pytest tests/test_acceptance.py -q`` run shows the full
scorecard.  Stochastic checks use fixed seeds throughout; the margins
were chosen from pilot runs so that reruns are stable.
"""

import subprocess
import sys
import time

import numpy as np

from liargrid import (
    GridSeries,
    NoiseSpec,
    assemble_block,
    autocov,
    baseline_mar_als,
    baseline_pixel_ar,
    bic_score,
    box_neighborhood,
    default_d0,
    fit_all,
    fit_spliar,
    holdout_rmse,
    interior_mask,
    linear_to_site,
    mar_holdout_rmse,
    nested_family,
    random_stable_kernels,
    read_gts,
    scatter_block,
    select_all,
    select_site,
    simulate_liar,
    truncated_svd,
    write_gts,
)
from liargrid.fit import assemble_design

from _dgp import loglog_slope, separable_rank1_kernels


def report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {label}] {'PASS' if ok else 'FAIL'} - {detail}")


def box_neighborhoods(shape, radii):
    n = int(np.prod(shape))
    return [
        box_neighborhood(linear_to_site(i, shape), shape, radii)
        for i in range(n)
    ]


# Runs argv[2:] and writes that child's own peak RSS (KiB) to argv[1].
# Linux charges a child, at exec, with the high-water mark of the address
# space it replaces, which a subprocess started straight from pytest
# shares with pytest; this launcher's own is a few MB.
_PEAK_LAUNCHER = (
    "import resource, subprocess, sys\n"
    "code = subprocess.call(sys.argv[2:])\n"
    "with open(sys.argv[1], 'w') as fh:\n"
    "    fh.write(str(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss))\n"
    "sys.exit(code)\n"
)


def mean_kernel_error(estimated, truth):
    """Mean over sites of the Frobenius norm of the coefficient error."""
    errs = [
        np.linalg.norm(a - b)
        for a, b in zip(estimated.coeffs, truth.coeffs)
    ]
    return float(np.mean(errs))


def test_criterion_1_full_grid_matches_dense_var_ols(capsys):
    t0 = time.perf_counter()
    kernels = random_stable_kernels((3, 3), 2, target_norm=0.7, seed=101)
    series = simulate_liar(kernels, 200, NoiseSpec(sigma=1.0, seed=102))
    fitted = fit_all(series, box_neighborhoods((3, 3), 2)).kernels()
    y = series.values[:-1]
    z = series.values[1:]
    theta = np.linalg.lstsq(y, z, rcond=None)[0].T
    dev = max(
        float(np.max(np.abs(fitted.coeffs[i][0] - theta[i])))
        for i in range(9)
    )
    elapsed = time.perf_counter() - t0
    ok = dev < 1e-8 and elapsed < 1.0
    report(capsys, 1, ok,
           f"full-grid fit vs dense VAR(1) OLS, max dev {dev:.2e} "
           f"(tol 1e-08), {elapsed:.2f}s (budget 1s)")
    assert dev < 1e-8
    assert elapsed < 1.0


def test_criterion_2_error_scales_as_inverse_sqrt_t(capsys):
    t0 = time.perf_counter()
    t_grid = (500, 1000, 2000, 4000, 8000)
    n_seeds = 20
    shape = (10, 10)
    nbs = box_neighborhoods(shape, 3)
    errs = np.zeros((n_seeds, len(t_grid)))
    for s in range(n_seeds):
        kernels = random_stable_kernels(shape, 3, target_norm=0.8,
                                        seed=200 + s)
        full = simulate_liar(kernels, t_grid[-1],
                             NoiseSpec(sigma=1.0, seed=250 + s))
        for j, t in enumerate(t_grid):
            fit = fit_all(full.slice_time(0, t), nbs, compute_se=False)
            errs[s, j] = mean_kernel_error(fit.kernels(), kernels)
    slope = loglog_slope(np.array(t_grid), errs.mean(axis=0))
    elapsed = time.perf_counter() - t0
    ok = -0.65 <= slope <= -0.35 and elapsed < 120
    report(capsys, 2, ok,
           f"kernel error vs T log-log slope {slope:.3f} "
           f"(window [-0.65, -0.35]), {elapsed:.1f}s (budget 120s)")
    assert -0.65 <= slope <= -0.35
    assert elapsed < 120


def test_criterion_3_bic_selection_consistency(capsys):
    t0 = time.perf_counter()
    shape = (10, 10)
    n_seeds = 20
    inner = interior_mask(shape, 3)
    rates = {1000: [], 6000: []}
    boundary_rates = []
    for s in range(n_seeds):
        kernels = random_stable_kernels(shape, 3, target_norm=0.8,
                                        seed=300 + s)
        full = simulate_liar(kernels, 6000, NoiseSpec(sigma=1.0, seed=350 + s))
        for t in (1000, 6000):
            sel = select_all(full.slice_time(0, t), max_radius=5)
            ok_mask = np.array([c == 3 for c in sel.chosen_labels()])
            rates[t].append(ok_mask[inner].mean())
            if t == 6000:
                boundary_rates.append(ok_mask[~inner].mean())
    small, big = np.mean(rates[1000]), np.mean(rates[6000])
    boundary = np.mean(boundary_rates)
    elapsed = time.perf_counter() - t0
    ok = big >= 0.8 and small <= big and boundary <= big and elapsed < 180
    report(capsys, 3, ok,
           f"interior success {big:.3f} at T=6000 (floor 0.8), "
           f"{small:.3f} at T=1000, boundary {boundary:.3f}, "
           f"{elapsed:.1f}s (budget 180s)")
    assert big >= 0.8
    assert small <= big
    assert boundary <= big
    assert elapsed < 180


def test_criterion_4_autocovariance_error_rate(capsys):
    t0 = time.perf_counter()
    shape = (10, 10)
    sites = [(r, c) for r in range(3, 8) for c in range(3, 8)]
    kernels = random_stable_kernels(shape, 1, target_norm=0.8, seed=42)
    reference = simulate_liar(kernels, 10**6, NoiseSpec(sigma=1.0, seed=499))
    oracle = autocov(reference, sites).values
    del reference
    t_grid = (500, 1000, 2000, 4000)
    n_seeds = 20
    errs = np.zeros((n_seeds, len(t_grid)))
    for s in range(n_seeds):
        full = simulate_liar(kernels, t_grid[-1],
                             NoiseSpec(sigma=1.0, seed=500 + s))
        for j, t in enumerate(t_grid):
            est = autocov(full.slice_time(0, t), sites).values
            errs[s, j] = np.max(np.abs(est - oracle))
    slope = loglog_slope(np.array(t_grid), errs.mean(axis=0))
    elapsed = time.perf_counter() - t0
    ok = -0.65 <= slope <= -0.35 and elapsed < 120
    report(capsys, 4, ok,
           f"lag-0 covariance sup error slope {slope:.3f} "
           f"(window [-0.65, -0.35], 1e6-frame reference), "
           f"{elapsed:.1f}s (budget 120s)")
    assert -0.65 <= slope <= -0.35
    assert elapsed < 120


def test_criterion_5_beats_pixel_baseline_and_mar_time(capsys):
    t0 = time.perf_counter()
    shape = (20, 20)
    nbs = box_neighborhoods(shape, 2)
    n_seeds = 20
    rmse_local, rmse_pixel = [], []
    time_local, time_mar = [], []
    for s in range(n_seeds):
        kernels = random_stable_kernels(shape, 2, target_norm=0.8,
                                        seed=600 + s)
        series = simulate_liar(kernels, 200, NoiseSpec(sigma=1.0, seed=700 + s))
        train = series.slice_time(0, 180)
        t1 = time.perf_counter()
        fit = fit_all(train, nbs, compute_se=False)
        time_local.append(time.perf_counter() - t1)
        rmse_local.append(holdout_rmse(series, fit.kernels(), 20))
        pixel = baseline_pixel_ar(train)
        rmse_pixel.append(holdout_rmse(series, pixel, 20))
        t1 = time.perf_counter()
        mar = baseline_mar_als(train)
        time_mar.append(time.perf_counter() - t1)
        mar_holdout_rmse(series, mar, 20)
    local, pixel = np.mean(rmse_local), np.mean(rmse_pixel)
    t_local, t_mar = np.mean(time_local), np.mean(time_mar)
    elapsed = time.perf_counter() - t0
    ok = local < pixel and t_local < t_mar and elapsed < 180
    report(capsys, 5, ok,
           f"holdout rmse local {local:.4f} < pixel {pixel:.4f}; "
           f"fit time {t_local * 1e3:.0f}ms < mar-als {t_mar * 1e3:.0f}ms, "
           f"{elapsed:.1f}s (budget 180s)")
    assert local < pixel
    assert t_local < t_mar
    assert elapsed < 180


def test_criterion_6_separable_projection_no_worse(capsys):
    t0 = time.perf_counter()
    shape = (10, 10)
    nbs = box_neighborhoods(shape, 1)
    n_seeds = 20
    err_projected, err_raw = [], []
    for s in range(n_seeds):
        kernels = separable_rank1_kernels(shape, 1, 0.8, seed=800 + s)
        series = simulate_liar(kernels, 2000, NoiseSpec(sigma=1.0, seed=900 + s))
        projected = fit_spliar(series, 1, rank=1).kernels
        raw = fit_all(series, nbs, compute_se=False).kernels()
        err_projected.append(mean_kernel_error(projected, kernels))
        err_raw.append(mean_kernel_error(raw, kernels))
    projected, raw = np.mean(err_projected), np.mean(err_raw)
    elapsed = time.perf_counter() - t0
    ok = projected <= raw and elapsed < 60
    report(capsys, 6, ok,
           f"rank-1 truth kernel error projected {projected:.4f} "
           f"<= unprojected {raw:.4f}, {elapsed:.1f}s (budget 60s)")
    assert projected <= raw
    assert elapsed < 60


def test_criterion_7_property_suite(capsys):
    t0 = time.perf_counter()
    gen = np.random.default_rng(7000)
    checks = {}

    # strict nesting of the default candidate family
    fam = nested_family((4, 4), (9, 9), max_radius=3)
    nested = all(
        set(map(tuple, fam.levels[k].sites))
        < set(map(tuple, fam.levels[k + 1].sites))
        for k in range(fam.n_levels - 1)
    )
    checks["nesting"] = nested

    # residuals orthogonal to the design at every site
    kernels = random_stable_kernels((5, 5), 1, target_norm=0.7, seed=7001)
    series = simulate_liar(kernels, 300, NoiseSpec(sigma=1.0, seed=7002))
    fit = fit_all(series, box_neighborhoods((5, 5), 1))
    worst = 0.0
    for site_fit in fit:
        block = assemble_design(series, site_fit.site, site_fit.neighborhood)
        resid = block.z - block.y @ site_fit.coeffs
        worst = max(worst, float(np.max(np.abs(block.y.T @ resid))))
    checks["residual orthogonality"] = worst < 1e-7

    # RSS non-increasing along the nested scan
    fam = nested_family((4, 4), (9, 9), max_radius=4)
    big = simulate_liar(
        random_stable_kernels((9, 9), 2, target_norm=0.8, seed=7003),
        800, NoiseSpec(sigma=1.0, seed=7004),
    )
    trace = select_site(big, fam)
    checks["rss monotone"] = bool(np.all(np.diff(trace.rss) <= 1e-9))

    # truncated SVD beats random candidates of the same rank
    mat = gen.normal(size=(18, 12))
    best = np.linalg.norm(mat - truncated_svd(mat, 3))
    beat_all = True
    for _ in range(200):
        cand = gen.normal(size=(18, 3)) @ gen.normal(size=(3, 12))
        beat_all &= best <= np.linalg.norm(mat - cand) + 1e-12
    checks["rank truncation optimality"] = beat_all

    # scatter(assemble(fits)) returns the original coefficients
    site_fits = [fit.fits[i] for i in range(25)]
    block = assemble_block(site_fits, (1, 1))
    back = scatter_block(block, [f.neighborhood for f in site_fits])
    checks["assemble/scatter identity"] = all(
        np.array_equal(v, f.coeffs)
        for v, f in zip(back, site_fits)
    )

    # series files round-trip bitwise
    raw = GridSeries((4, 6), gen.normal(size=(40, 24)))
    path = "/tmp/acceptance_roundtrip.gts"
    write_gts(raw, path)
    back_series = read_gts(path)
    checks["gts round-trip"] = (
        back_series.shape == raw.shape
        and np.array_equal(back_series.values, raw.values)
    )

    # worker count never changes results
    one = fit_all(series, box_neighborhoods((5, 5), 1), n_workers=1)
    eight = fit_all(series, box_neighborhoods((5, 5), 1), n_workers=8)
    checks["thread determinism"] = all(
        np.array_equal(one.fits[i].coeffs, eight.fits[i].coeffs)
        and one.fits[i].rss == eight.fits[i].rss
        for i in range(25)
    )

    # reported BIC values recompute from rss and sizes
    d0 = default_d0(big.n_frames)
    audit = max(
        abs(b - bic_score(r, int(sz), 1, big.n_frames, big.shape, d0))
        for b, r, sz in zip(trace.bic, trace.rss, trace.sizes)
        if np.isfinite(b)
    )
    checks["bic audit"] = audit <= 1e-12

    elapsed = time.perf_counter() - t0
    failed = [name for name, good in checks.items() if not good]
    ok = not failed and elapsed < 60
    detail = "all 8 properties hold" if not failed else f"failed: {failed}"
    report(capsys, 7, ok, f"{detail}, {elapsed:.1f}s (budget 60s)")
    assert not failed
    assert elapsed < 60


def test_criterion_8_tensor_selection_and_rate(capsys):
    t0 = time.perf_counter()
    shape = (4, 4, 6)
    truth = (0, 1, 1)
    candidates = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
    nbs = box_neighborhoods(shape, truth)
    inner = interior_mask(shape, truth)
    n_seeds = 10
    hits, err_small, err_big = [], [], []
    for s in range(n_seeds):
        kernels = random_stable_kernels(shape, truth, target_norm=0.8,
                                        seed=1000 + s)
        full = simulate_liar(kernels, 4000, NoiseSpec(sigma=1.0, seed=1100 + s))
        sel = select_all(full, radii_list=candidates)
        ok_mask = np.array([c == truth for c in sel.chosen_labels()])
        hits.append(ok_mask[inner].mean())
        small = fit_all(full.slice_time(0, 1000), nbs, compute_se=False)
        big = fit_all(full, nbs, compute_se=False)
        err_small.append(mean_kernel_error(small.kernels(), kernels))
        err_big.append(mean_kernel_error(big.kernels(), kernels))
    rate = np.mean(hits)
    e1000, e4000 = np.mean(err_small), np.mean(err_big)
    elapsed = time.perf_counter() - t0
    ok = rate >= 0.7 and e4000 < e1000 and elapsed < 180
    report(capsys, 8, ok,
           f"tensor box recovery {rate:.3f} interior (floor 0.7), "
           f"kernel error {e1000:.3f} at T=1000 -> {e4000:.3f} at T=4000, "
           f"{elapsed:.1f}s (budget 180s)")
    assert rate >= 0.7
    assert e4000 < e1000
    assert elapsed < 180


def test_criterion_9_large_grid_cli_fit_memory(capsys, tmp_path, liar_command):
    t0 = time.perf_counter()
    gen = np.random.default_rng(9100)
    frames = gen.normal(size=(960, 91 * 181))
    write_gts(GridSeries((91, 181), frames), tmp_path / "large.gts")
    del frames
    peak_file = tmp_path / "peak_kb"
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_LAUNCHER, str(peak_file),
         *liar_command, "fit", "--input", str(tmp_path / "large.gts"),
         "--K", "2", "--output-dir", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=600,
    )
    peak_kb = int(peak_file.read_text())
    elapsed = time.perf_counter() - t0
    cap_kb = 2 * 1024 * 1024
    ok = proc.returncode == 0 and peak_kb < cap_kb
    report(capsys, 9, ok,
           f"91x181 grid, T=960, K=2 fit through the installed CLI: "
           f"exit {proc.returncode}, peak child memory "
           f"{peak_kb / 1024:.0f} MB (cap 2048 MB), {elapsed:.1f}s")
    assert proc.returncode == 0, proc.stderr
    assert peak_kb < cap_kb
