import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from liargrid import (
    ConfigurationError,
    GridSeries,
    KernelField,
    NoiseSpec,
    assemble_design,
    bic_score,
    default_d0,
    fit_all,
    fit_site,
    nested_family,
    random_stable_kernels,
    select_all,
    select_site,
    simulate_liar,
    site_to_linear,
)
from liargrid.grid import linear_to_site
from liargrid.neighborhoods import box_neighborhood


class TestDefaultD0:
    def test_boundary_value(self):
        assert_allclose(default_d0(16), math.log(math.log(16.0)), rtol=1e-14)
        assert default_d0(16) > 1.0

    def test_large_t(self):
        assert_allclose(default_d0(4000), math.log(math.log(4000.0)),
                        rtol=1e-14)
        assert abs(default_d0(4000) - 2.117) < 2e-3

    def test_small_t_rejected(self):
        with pytest.raises(ConfigurationError, match="D0|D_0|d0"):
            default_d0(10)


class TestBicScore:
    def test_formula_oracle(self):
        got = bic_score(math.e, 9, 1, 900, (10, 10), d0=1.0)
        assert_allclose(got, 1.0 + (9 / 900) * math.log(900), rtol=1e-12)
        assert abs(got - 1.06802) < 1e-5

    def test_penalty_linear_in_size(self):
        base = bic_score(2.0, 5, 1, 400, (8, 8), d0=1.5)
        double = bic_score(2.0, 10, 1, 400, (8, 8), d0=1.5)
        penalty = base - math.log(2.0)
        assert_allclose(double - math.log(2.0), 2 * penalty, rtol=1e-12)

    def test_d0_zero_is_log_rss(self):
        assert_allclose(bic_score(3.7, 9, 2, 100, (5, 5), d0=0.0),
                        math.log(3.7), rtol=1e-14)

    def test_order_scales_penalty(self):
        one = bic_score(1.0, 4, 1, 200, (6, 6), d0=1.0)
        two = bic_score(1.0, 4, 2, 200, (6, 6), d0=1.0)
        assert_allclose(two, 2 * one, rtol=1e-12)

    def test_dims_vs_t_max(self):
        # log(max(dims, T)) switches to the dimension when it dominates
        small_t = bic_score(1.0, 1, 1, 50, (100, 2), d0=1.0)
        assert_allclose(small_t, (1 / 50) * math.log(100), rtol=1e-12)

    def test_exact_fit_sentinel(self):
        assert bic_score(0.0, 3, 1, 100, (4, 4), d0=1.0) == -math.inf
        assert bic_score(-1e-18, 3, 1, 100, (4, 4), d0=1.0) == -math.inf


class TestSelectSite:
    def test_self_only_truth_prefers_zero(self):
        shape = (3, 3)
        nbs = [box_neighborhood(linear_to_site(i, shape), shape, 0)
               for i in range(9)]
        coeffs = [np.full((1, 1), 0.8) for _ in range(9)]
        kern = KernelField(shape, 1, nbs, coeffs)
        fam = nested_family((1, 1), shape, max_radius=1)
        wins = 0
        seeds = 100
        for seed in range(seeds):
            s = simulate_liar(kern, 5000, NoiseSpec(sigma=1.0, seed=seed))
            trace = select_site(s, fam, order=1)
            wins += trace.chosen_k == 0
        assert wins / seeds >= 0.95

    def test_iid_noise_prefers_zero(self):
        gen = np.random.default_rng(0)
        fam = nested_family((1, 1), (3, 3), max_radius=1)
        wins = 0
        seeds = 50
        for seed in range(seeds):
            s = GridSeries((3, 3), gen.normal(size=(2000, 9)))
            trace = select_site(s, fam, order=1)
            wins += trace.chosen_k == 0
        assert wins / seeds >= 0.90

    def test_noiseless_exact_fit_smallest_exact_level(self):
        shape = (5, 5)
        kern = random_stable_kernels(shape, 1, target_norm=0.8, seed=40)
        ops = kern.operators(dense=True)
        gen = np.random.default_rng(41)
        x = gen.normal(size=25)
        frames = [x]
        for _ in range(79):
            frames.append(np.asarray(ops[0]) @ frames[-1])
        s = GridSeries(shape, np.array(frames))
        fam = nested_family((2, 2), shape, max_radius=2)
        trace = select_site(s, fam, order=1)
        assert trace.exact_fit[1]
        assert trace.chosen_k == 1
        assert trace.bic[1] == -np.inf

    def test_zero_series_chooses_smallest(self):
        s = GridSeries((3, 3), np.zeros((50, 9)))
        fam = nested_family((1, 1), (3, 3), max_radius=1)
        trace = select_site(s, fam, order=1)
        assert trace.chosen_k == 0
        assert trace.exact_fit.all()

    def test_underdetermined_levels_dropped(self):
        s = GridSeries((5, 5), np.random.default_rng(3).normal(size=(20, 25)))
        fam = nested_family((2, 2), (5, 5), max_radius=2)
        trace = select_site(s, fam, order=1)
        assert 2 in trace.dropped
        assert list(trace.labels) == [0, 1]

    def test_prefix_scan_matches_independent_refits(self):
        # the incremental QR scan must be numerically identical to
        # fitting each level from scratch
        shape = (6, 6)
        kern = random_stable_kernels(shape, 2, target_norm=0.7, seed=50)
        s = simulate_liar(kern, 300, NoiseSpec(sigma=1.0, seed=51))
        fam = nested_family((3, 3), shape, max_radius=3)
        trace = select_site(s, fam, order=1)
        for k, level in enumerate(fam.levels):
            if fam.labels[k] in trace.dropped:
                continue
            fit = fit_site(assemble_design(s, (3, 3), level, 1))
            assert_allclose(trace.rss[k], fit.rss, rtol=1e-9, atol=1e-12)

    def test_bic_audit_recomputation(self):
        shape = (5, 5)
        kern = random_stable_kernels(shape, 1, target_norm=0.7, seed=60)
        s = simulate_liar(kern, 400, NoiseSpec(sigma=1.0, seed=61))
        d0 = default_d0(400)
        fam = nested_family((2, 2), shape, max_radius=2)
        trace = select_site(s, fam, order=1, d0=d0)
        for k in range(len(trace.labels)):
            want = bic_score(trace.rss[k], int(trace.sizes[k]), 1, 400,
                             shape, d0=d0)
            assert abs(trace.bic[k] - want) <= 1e-12

    def test_rss_monotone_across_trace(self):
        shape = (5, 5)
        kern = random_stable_kernels(shape, 1, target_norm=0.7, seed=62)
        s = simulate_liar(kern, 500, NoiseSpec(sigma=1.0, seed=63))
        fam = nested_family((2, 2), shape, max_radius=2)
        trace = select_site(s, fam, order=1)
        for a, b in zip(trace.rss, trace.rss[1:]):
            assert b <= a * (1 + 1e-9)

    def test_multi_lag_scan(self):
        shape = (4, 4)
        kern = random_stable_kernels(shape, 1, order=2, target_norm=0.6,
                                     seed=64)
        s = simulate_liar(kern, 600, NoiseSpec(sigma=1.0, seed=65))
        fam = nested_family((2, 2), shape, max_radius=2)
        trace = select_site(s, fam, order=2)
        fit = fit_site(assemble_design(s, (2, 2),
                                       fam.levels[list(fam.labels).index(
                                           trace.chosen_k)], 2))
        assert_allclose(trace.fit.rss, fit.rss, rtol=1e-9)

    def test_kept_fit_is_the_chosen_box_fit(self):
        # the chosen level's fit comes off the scan's own factorization,
        # permuted back to lag-major neighborhood order
        shape = (6, 6)
        kern = random_stable_kernels(shape, 1, order=2, target_norm=0.6,
                                     seed=66)
        s = simulate_liar(kern, 500, NoiseSpec(sigma=1.0, seed=67))
        # a light penalty, so that every level wins somewhere
        report = select_all(s, max_radius=2, order=2, d0=0.2)
        chosen = {trace.site: trace.fit.neighborhood for trace in report}
        assert {trace.chosen_k for trace in report} == {0, 1, 2}
        fits = fit_all(s, chosen, order=2)
        for lin, trace in report.traces.items():
            kept, want = trace.fit, fits.fits[lin]
            assert kept.neighborhood == want.neighborhood
            assert not kept.cond_flag and kept.se is None
            err = np.linalg.norm(kept.coeffs - want.coeffs)
            assert err <= 1e-12 * np.linalg.norm(want.coeffs)
            assert_allclose(kept.sigma2, want.sigma2, rtol=1e-12)
            best = trace.labels.index(trace.chosen_k)
            assert kept.rss == trace.rss[best]


class TestRankDeficient:
    def test_duplicate_series_flagged_in_fit_and_selection(self):
        # sites (0, 0) and (2, 2) carry the same series, so the full 3x3
        # box at the center has two equal columns; with d0=0 the scan
        # picks that largest level
        shape = (3, 3)
        values = np.random.default_rng(80).normal(size=(60, 9))
        values[:, site_to_linear((2, 2), shape)] = values[:, 0]
        s = GridSeries(shape, values)
        center = site_to_linear((1, 1), shape)
        nb = box_neighborhood((1, 1), shape, 1)
        design = assemble_design(s, (1, 1), nb, 1)
        want = np.linalg.lstsq(design.y, design.z, rcond=1e-10)[0]

        fitted = fit_all(s, {(1, 1): nb})
        selected = select_all(s, max_radius=1, d0=0.0)
        assert not fitted.errors and not selected.errors
        assert selected.traces[center].chosen_k == 1
        for fit in (fitted.fits[center], selected.traces[center].fit):
            assert fit.neighborhood == nb
            assert fit.cond_flag
            assert fit.se is None
            assert_allclose(fit.coeffs, want, rtol=0, atol=1e-10)
            resid = design.z - design.y @ fit.coeffs
            assert_allclose(fit.rss, resid @ resid, rtol=1e-12)


class TestSelectAll:
    def test_matches_per_site_selection(self):
        shape = (4, 4)
        kern = random_stable_kernels(shape, 1, target_norm=0.7, seed=70)
        s = simulate_liar(kern, 500, NoiseSpec(sigma=1.0, seed=71))
        report = select_all(s, max_radius=2, order=1)
        for lin, trace in report.traces.items():
            site = linear_to_site(lin, shape)
            fam = nested_family(site, shape, max_radius=2)
            solo = select_site(s, fam, order=1)
            assert trace.chosen_k == solo.chosen_k
            assert_allclose(trace.bic, solo.bic, rtol=0, atol=0)

    def test_thread_determinism(self):
        shape = (4, 4)
        kern = random_stable_kernels(shape, 1, target_norm=0.7, seed=72)
        s = simulate_liar(kern, 400, NoiseSpec(sigma=1.0, seed=73))
        a = select_all(s, max_radius=1, order=1, n_workers=1)
        b = select_all(s, max_radius=1, order=1, n_workers=8)
        for lin in a.traces:
            assert a.traces[lin].chosen_k == b.traces[lin].chosen_k
            assert np.array_equal(a.traces[lin].rss, b.traces[lin].rss)

    def test_requires_candidates(self):
        s = GridSeries((3, 3), np.zeros((20, 9)))
        with pytest.raises(ConfigurationError, match="max_radius|radii_list"):
            select_all(s, order=1)

    def test_success_rates_with_truth(self):
        shape = (6, 6)
        kern = random_stable_kernels(shape, 1, target_norm=0.8, seed=74)
        s = simulate_liar(kern, 3000, NoiseSpec(sigma=1.0, seed=75))
        report = select_all(s, max_radius=2, order=1)
        rates = report.success_rates(1)
        assert set(rates) == {"overall", "interior", "boundary"}
        assert 0.0 <= rates["overall"] <= 1.0
        mask = report.success_mask(1)
        assert mask.shape == (36,)
        assert rates["overall"] == pytest.approx(mask.mean())

    def test_json_serializable(self, tmp_path):
        s = GridSeries((3, 3), np.zeros((50, 9)))
        report = select_all(s, max_radius=1, order=1)
        text = json.dumps(report.to_dict())
        data = json.loads(text)
        # exact-fit levels serialize their -inf score as null
        assert data["sites"][0]["bic"][0] is None
        report.save_json(tmp_path / "sel.json")
        assert (tmp_path / "sel.json").exists()

    def test_heatmap_csv(self, tmp_path):
        shape = (3, 4)
        kern = random_stable_kernels(shape, 1, target_norm=0.6, seed=76)
        s = simulate_liar(kern, 300, NoiseSpec(sigma=1.0, seed=77))
        report = select_all(s, max_radius=1, order=1)
        path = tmp_path / "heat.csv"
        report.save_heatmap_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "site_row,site_col,chosen_k"
        assert len(lines) == 1 + 12
        # 1-based coordinates for human consumption
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "1"

    def test_tensor_radii_list(self):
        shape = (3, 3, 4)
        kern = random_stable_kernels(shape, (0, 1, 1), target_norm=0.7,
                                     seed=78)
        s = simulate_liar(kern, 800, NoiseSpec(sigma=1.0, seed=79))
        report = select_all(
            s, radii_list=[(0, 0, 0), (0, 0, 1), (0, 1, 1)], order=1,
        )
        assert len(report.traces) == 36
        labels = {trace.chosen_k for trace in report.traces.values()}
        assert labels <= {(0, 0, 0), (0, 0, 1), (0, 1, 1)}
