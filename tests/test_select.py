import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from liargrid import (
    BicTrace,
    ConfigurationError,
    GridSeries,
    KernelField,
    Neighborhood,
    NeighborhoodFamily,
    NoiseSpec,
    SiteFit,
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
import liargrid.fit
import liargrid.neighborhoods
import liargrid.select
import liargrid.simulate
from liargrid.grid import linear_to_site
from liargrid.neighborhoods import box_field, box_neighborhood

from _dgp import adversarial_series


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
        op = kern.operators()[0].toarray()
        gen = np.random.default_rng(41)
        x = gen.normal(size=25)
        frames = [x]
        for _ in range(79):
            frames.append(op @ frames[-1])
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
        # permuted back to lag-major neighborhood order: for the default
        # family, and for candidates that grow one axis at a time on a grid
        # where every box clips and some families saturate
        uneven = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]
        for shape, order, family, labels, seed in [
                ((6, 6), 2, dict(max_radius=2), {0, 1, 2}, 66),
                ((3, 5), 3, dict(radii_list=uneven), set(uneven), 65)]:
            kern = random_stable_kernels(shape, 1, order=order, target_norm=0.6,
                                         seed=seed)
            s = simulate_liar(kern, 500, NoiseSpec(sigma=1.0, seed=seed + 1))
            # a light penalty, so that every level wins somewhere
            report = select_all(s, order=order, d0=0.2, **family)
            chosen = {trace.site: trace.fit.neighborhood for trace in report}
            assert {trace.chosen_k for trace in report} == labels
            assert any(trace.saturated for trace in report) == (order == 3)
            fits = fit_all(s, chosen, order=order)
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
        trace = selected.traces[center]
        assert trace.chosen_k == 1
        # the scan scores the deficient level by the fit it keeps
        assert trace.rss[1] == trace.fit.rss
        for fit in (fitted.fits[center], selected.traces[center].fit):
            assert fit.neighborhood == nb
            assert fit.cond_flag
            assert fit.se is None
            assert_allclose(fit.coeffs, want, rtol=0, atol=1e-10)
            resid = design.z - design.y @ fit.coeffs
            assert_allclose(fit.rss, resid @ resid, rtol=1e-12)


    @pytest.mark.parametrize("order", [1, 2])
    def test_every_deficient_level_scored_by_its_least_squares_rss(self, order):
        # every scanned level, chosen or not, whose design lstsq finds
        # rank-deficient scores the RSS of an explicit least-squares fit
        # (the RSS does not depend on the column order)
        s = adversarial_series()
        report = select_all(s, max_radius=4, order=order, d0=0.0)
        deficient = 0
        for trace in report:
            levels = nested_family(trace.site, s.shape, max_radius=4).levels
            for k in range(len(trace.labels)):
                design = assemble_design(s, trace.site, levels[k], order)
                coeffs, _, rank, _ = np.linalg.lstsq(design.y, design.z)
                if rank == design.y.shape[1]:
                    continue
                deficient += 1
                resid = design.z - design.y @ coeffs
                want, tiny = resid @ resid, 1e-16 * (design.z @ design.z)
                if not (trace.rss[k] < tiny and want < tiny):
                    assert_allclose(trace.rss[k], want, rtol=1e-12)
        assert deficient

    def test_deficient_site_gathered_once(self, monkeypatch):
        # the minimum-norm fit comes off the site's one R factor
        shape = (3, 3)
        values = np.random.default_rng(80).normal(size=(60, 9))
        values[:, site_to_linear((2, 2), shape)] = values[:, 0]
        s = GridSeries(shape, values)
        center = site_to_linear((1, 1), shape)
        calls, gather = [], liargrid.fit._gather
        spy = lambda *args: calls.append(args[3]) or gather(*args)
        monkeypatch.setattr(liargrid.fit, "_gather", spy)
        monkeypatch.setattr(liargrid.select, "_gather", spy)
        fit = fit_all(s, [box_neighborhood((1, 1), shape, 1)]).fits[center]
        assert fit.cond_flag and calls == [center]
        calls.clear()
        trace = select_site(s, nested_family((1, 1), shape, max_radius=1), d0=0.0)
        assert trace.fit.cond_flag and calls == [center]


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

    @pytest.mark.parametrize("block", [7, None])
    @pytest.mark.parametrize("order", [1, 2])
    def test_adversarial_grid_matches_per_site_bitwise(self, monkeypatch, order, block):
        # d0=0 lets the largest kept level win, rank-deficient ones included
        if block is not None:
            monkeypatch.setattr(liargrid.fit, "_BLOCK", block)
        s = adversarial_series()
        report = select_all(s, max_radius=4, order=order, d0=0.0, n_workers=2)
        traces = list(report)
        assert not report.errors and len(traces) == s.n_sites
        assert any(t.saturated for t in traces) and any(t.dropped for t in traces)
        assert any(t.exact_fit.any() for t in traces)
        assert any(t.fit.cond_flag for t in traces)
        for lin, trace in report.traces.items():
            fam = nested_family(linear_to_site(lin, s.shape), s.shape, max_radius=4)
            solo = select_site(s, fam, order=order, d0=0.0)
            assert (trace.labels, trace.dropped, trace.chosen_k) == (
                solo.labels, solo.dropped, solo.chosen_k)
            for got, want in ((trace.rss, solo.rss), (trace.bic, solo.bic),
                              (trace.fit.coeffs, solo.fit.coeffs)):
                assert_array_equal(got, want)

    def test_non_nesting_candidates_fail_their_sites(self):
        # on 3 rows, radius (1, 1) nests (2, 0) only at the middle row
        s = GridSeries((3, 6), np.random.default_rng(5).normal(size=(40, 18)))
        radii = [(0, 0), (2, 0), (1, 1)]
        report = select_all(s, radii_list=radii, d0=1.0)
        for lin in range(18):
            site = linear_to_site(lin, (3, 6))
            if site[0] == 1:
                assert report.traces[lin].labels == radii
                continue
            with pytest.raises(ConfigurationError) as exc:
                nested_family(site, (3, 6), radii_list=radii)
            assert report.errors[site] == str(exc.value)
            assert "does not nest" in str(exc.value)
        # candidates invalid everywhere are refused once, not per site
        with pytest.raises(ConfigurationError, match="bare center"):
            select_all(s, radii_list=[(1, 1), (2, 2)], d0=1.0)

    @pytest.mark.parametrize("d0", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_penalty_not_finite_and_nonnegative_refused_before_any_fit(self, monkeypatch,
                                                                       d0):
        monkeypatch.setattr(liargrid.select, "_solve_sites",
                            lambda *a, **k: pytest.fail("a site was factored"))
        s = GridSeries((4, 5), np.random.default_rng(6).normal(size=(40, 20)))
        family = nested_family((1, 1), s.shape, max_radius=1)
        for select in (lambda: select_all(s, max_radius=1, d0=d0),
                       lambda: select_site(s, family, d0=d0)):
            with pytest.raises(ConfigurationError,
                               match=f"d0 must be finite and nonnegative, got {d0}"):
                select()

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

    def test_candidate_labels_scored_per_axis(self):
        # a scalar truth k is the radius tuple (k, k): a --candidates run
        # scores the same as the --K0 family with the same boxes
        shape = (8, 8)
        kern = random_stable_kernels(shape, 1, target_norm=0.8, seed=5)
        s = simulate_liar(kern, 600, NoiseSpec(sigma=1.0, seed=5), burn_in=100)
        family = select_all(s, max_radius=2, order=1)
        cand = select_all(s, radii_list=[(0, 0), (1, 1), (2, 2)], order=1)
        expected = np.array([k == 1 for k in family.chosen_labels()])
        assert expected.any()
        assert_array_equal([k == (1, 1) for k in cand.chosen_labels()], expected)
        for report in (family, cand):
            assert_array_equal(report.success_mask(1), expected)
            assert_array_equal(report.success_mask((1, 1)), expected)
        assert cand.success_rates(1) == family.success_rates(1)

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


class TestMomentPath:
    """The scan runs off the Cholesky factor of each site's Gram, assembled
    from shared lag moments; a guard sends doubtful sites to the QR path."""

    @staticmethod
    def _forced_qr(monkeypatch):
        # no moment factor passes a diagonal-ratio test against infinity
        monkeypatch.setattr(liargrid.fit, "_GUARD_RATIO", math.inf)

    @pytest.mark.parametrize("shape,order,family,tile,seed", [
        ((6, 7), 1, dict(max_radius=2), None, 81),
        ((6, 7), 2, dict(max_radius=2), None, 82),
        ((4, 5, 3), 1, dict(max_radius=1), None, 83),
        ((7, 6), 1, dict(radii_list=[(0, 0), (1, 0), (1, 2), (2, 2)]), None, 84),
        ((10, 10), 1, dict(max_radius=5), None, 85),
        ((11, 5), 2, dict(max_radius=2), 4, 86),
    ], ids=["2d", "2d-P2", "3d", "per-axis-radii", "reach-wider-than-grid",
            "lines-in-tiles"])
    def test_matches_the_qr_path(self, monkeypatch, shape, order, family, tile, seed):
        # RSS and BIC within 1e-12, kept coefficients within 1e-11 (relative),
        # the same chosen labels, and no site of a simulated field guarded
        if tile is not None:
            monkeypatch.setattr(liargrid.fit, "_TILE", tile)
        kern = random_stable_kernels(shape, 1, order=order, target_norm=0.7, seed=seed)
        s = simulate_liar(kern, 400, NoiseSpec(sigma=1.0, seed=seed + 100))
        calls, factor = [], liargrid.fit._factor
        monkeypatch.setattr(liargrid.fit, "_factor",
                            lambda aug: calls.append(aug.shape) or factor(aug))
        moments = select_all(s, order=order, d0=0.3, **family)
        assert not calls
        self._forced_qr(monkeypatch)
        qr = select_all(s, order=order, d0=0.3, **family)
        assert len(calls) == s.n_sites
        assert not moments.errors and moments.chosen_labels() == qr.chosen_labels()
        assert len({trace.chosen_k for trace in qr}) > 1
        for lin, trace in moments.traces.items():
            want = qr.traces[lin]
            assert (trace.labels, trace.dropped) == (want.labels, want.dropped)
            assert_allclose(trace.rss, want.rss, rtol=1e-12)
            assert_allclose(trace.bic, want.bic, rtol=0, atol=1e-12)
            err = np.linalg.norm(trace.fit.coeffs - want.fit.coeffs)
            assert err <= 1e-11 * np.linalg.norm(want.fit.coeffs)
            assert trace.fit.neighborhood == want.fit.neighborhood

    def test_grams_match_the_gathered_design(self):
        # every entry of the assembled [Y z]'[Y z], for boxes cut across
        # tiles, against the gathered block's own product
        shape, order = (9, 4, 3), 2
        values = np.random.default_rng(87).normal(size=(50, 108))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(liargrid.fit, "_TILE", 4)
            table = liargrid.fit._lag_moments(values, shape, order, np.array([2, 1, 1]),
                                              None, 2)
        for site in [(0, 0, 0), (4, 2, 1), (8, 3, 2), (3, 0, 2)]:
            lin = site_to_linear(site, shape)
            levels = nested_family(site, shape, radii_list=[(0, 0, 0), (2, 1, 1)]).levels
            inner, outer = levels[0].linear, levels[-1].linear
            groups = [inner, np.setdiff1d(outer, inner)]
            aug = liargrid.fit._gather(values.T, order, groups, lin)
            sites = np.concatenate([np.tile(g, order) for g in groups])
            lags = np.concatenate([np.repeat(np.arange(1, order + 1), g.size)
                                   for g in groups])
            gram = table.grams(np.array([lin]), sites[None], lags)[0]
            assert_allclose(gram, aug.T @ aug, rtol=1e-12, atol=1e-12)

    def test_factor_reads_the_lower_triangle_only(self):
        # grams() reads each Gram's lower triangle and mirrors it; the
        # factors keep their bits because the Cholesky reads no other entry
        gen = np.random.default_rng(94)
        g = gen.normal(size=(3, 7, 7))
        gram = g @ g.transpose(0, 2, 1) + 7 * np.eye(7)
        skewed = np.tril(gram) + np.triu(gen.normal(size=(3, 7, 7)), 1)
        assert_array_equal(liargrid.fit._cholesky(gram), liargrid.fit._cholesky(skewed))

    def test_single_site_matches_select_all_across_tiles(self, monkeypatch):
        # each moment entry comes from one fixed product, whoever asks, and
        # eight workers writing one table lose no entry
        monkeypatch.setattr(liargrid.fit, "_TILE", 3)
        kern = random_stable_kernels((8, 5), 1, order=2, target_norm=0.7, seed=88)
        s = simulate_liar(kern, 300, NoiseSpec(sigma=1.0, seed=89))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more thread switches, more interleavings
        try:
            report = select_all(s, max_radius=2, order=2, d0=0.3, n_workers=8)
        finally:
            sys.setswitchinterval(switch)
        for lin, trace in report.traces.items():
            site = linear_to_site(lin, s.shape)
            solo = select_site(s, nested_family(site, s.shape, max_radius=2), order=2,
                               d0=0.3)
            assert trace.chosen_k == solo.chosen_k
            for got, want in ((trace.rss, solo.rss), (trace.fit.coeffs, solo.fit.coeffs)):
                assert_array_equal(got, want)

    def test_guard_sends_only_doubtful_sites_to_qr(self, monkeypatch):
        # an exact and a near-exact fit, a duplicated column and a
        # near-collinear column: exactly the sites whose largest box holds
        # one reach the QR factor
        shape = (8, 8)
        values = np.random.default_rng(90).normal(size=(200, 64))
        at = lambda *site: site_to_linear(site, shape)
        values[1:, at(1, 5)] = 0.5 * values[:-1, at(0, 5)]
        values[1:, at(6, 2)] = 0.5 * values[:-1, at(6, 3)] + 1e-5 * values[1:, at(0, 0)]
        values[:, at(3, 1)] = values[:, at(1, 1)]
        values[:, at(5, 6)] = values[:, at(5, 5)] + 1e-7 * values[:, at(7, 0)]
        s = GridSeries(shape, values)
        pairs = [(at(1, 1), at(3, 1)), (at(5, 5), at(5, 6))]
        want = {at(1, 5), at(6, 2)} | {lin for lin in range(64) for u, v in pairs
                             if {u, v} <= set(box_neighborhood(linear_to_site(lin, shape),
                                                               shape, 1).linear.tolist())}
        gathered, factored = [], []
        gather, factor = liargrid.select._gather, liargrid.fit._factor
        monkeypatch.setattr(liargrid.select, "_gather",
                            lambda *args: gathered.append(args[3]) or gather(*args))
        monkeypatch.setattr(liargrid.fit, "_factor",
                            lambda aug: factored.append(aug.shape) or factor(aug))
        report = select_all(s, max_radius=1)
        assert not report.errors
        assert sorted(gathered) == sorted(want) and len(factored) == len(want) == 11
        assert report.traces[at(1, 5)].exact_fit[1] and not report.traces[at(6, 2)].exact_fit[1]
        assert report.traces[at(2, 1)].fit.cond_flag == (report.traces[at(2, 1)].chosen_k == 1)

    @pytest.mark.parametrize("n_frames,exact_level", [(10, 1), (2, 0)])
    def test_level_with_as_many_unknowns_as_rows(self, n_frames, exact_level):
        # T - P == P*|J| at a kept level: its block is wide, its QR factor
        # short, and the level fits exactly (RSS 0, scored -inf); the levels
        # below it keep their least-squares RSS, and a lone site agrees
        shape = (5, 5)
        s = GridSeries(shape, np.random.default_rng(92).normal(size=(n_frames, 25)))
        report = select_all(s, max_radius=1, d0=1.0)
        assert not report.errors
        for lin in (0, 6, 12):
            site = linear_to_site(lin, shape)
            trace, family = report.traces[lin], nested_family(site, shape, max_radius=1)
            kept = [nb for nb in family.levels if nb.size <= n_frames - 1]
            want = [np.sum((s.values[1:, lin] - (y := s.values[:-1, nb.linear])
                            @ np.linalg.lstsq(y, s.values[1:, lin], rcond=None)[0]) ** 2)
                    for nb in kept]
            assert_allclose(trace.rss, want, rtol=1e-9, atol=1e-12)
            exact = [nb.size == n_frames - 1 for nb in kept]
            assert list(trace.exact_fit) == exact
            assert all(trace.rss[exact] == 0.0) and all(trace.bic[exact] == -np.inf)
            if any(exact):
                assert trace.chosen_k == trace.labels[exact_level]
            solo = select_site(s, family, d0=1.0)
            assert_array_equal(solo.rss, trace.rss)
            assert_array_equal(solo.fit.coeffs, trace.fit.coeffs)

    def test_moments_reach_only_identifiable_levels(self, monkeypatch):
        # T=16 leaves 15 rows: no radius-3 box (16 sites at a corner) is
        # identified anywhere, so the grid's products stop at radius 2, and
        # the center's at radius 1 (its radius-2 box has 25 sites)
        reaches, moments = [], liargrid.fit._lag_moments
        monkeypatch.setattr(liargrid.fit, "_lag_moments", lambda values, shape, order, reach,
                            *rest: reaches.append(tuple(reach.tolist()))
                            or moments(values, shape, order, reach, *rest))
        s = GridSeries((7, 7), np.random.default_rng(93).normal(size=(16, 49)))
        report = select_all(s, max_radius=3)
        trace = select_site(s, nested_family((3, 3), s.shape, max_radius=3))
        assert reaches == [(2, 2), (1, 1)]
        assert not report.errors and list(report.trace_for((0, 0)).labels) == [0, 1, 2]
        assert list(trace.dropped) == [2, 3]
        assert_array_equal(trace.rss, report.trace_for((3, 3)).rss)

    @pytest.mark.parametrize("entry", ["fit_all", "select_all"])
    def test_no_series_sized_copy(self, entry):
        # a whole-grid call holds the moment table (107 doubles a site here)
        # and a block's Grams, never a copy of the 6.1 MB series
        shape = (12, 16)
        s = GridSeries(shape, np.random.default_rng(91).normal(size=(4000, 192)))
        nbs = box_field(shape, 2)
        tracemalloc.start()
        try:
            if entry == "fit_all":
                report = fit_all(s, nbs, n_workers=2)
            else:
                report = select_all(s, max_radius=2, n_workers=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not report.errors
        assert peak < s.values.nbytes / 2


def _entry(trace):
    """A trace's entry in the selection file, read off the trace itself."""
    label = lambda k: list(k) if isinstance(k, tuple) else k
    entry = {"center": list(trace.site), "k": label(trace.chosen_k),
             "labels": [label(k) for k in trace.labels], "sizes": trace.sizes.tolist(),
             "rss": trace.rss.tolist(),
             "bic": [None if not np.isfinite(b) else b for b in trace.bic],
             "saturated": trace.saturated, "dropped": [label(k) for k in trace.dropped]}
    if trace.fit is not None:
        entry["sites"] = trace.fit.neighborhood.sites.tolist()
    return entry


def _series_3d():
    kern = random_stable_kernels((3, 3, 4), (0, 1, 1), target_norm=0.7, seed=78)
    return simulate_liar(kern, 800, NoiseSpec(sigma=1.0, seed=79))


class TestReportArrays:
    """Selection is held as arrays from the nesting step to the files;
    families, traces, fits and neighborhoods are built only when asked."""

    def test_no_per_site_objects_until_a_trace_is_read(self, monkeypatch, tmp_path):
        built = []
        for cls in (Neighborhood, NeighborhoodFamily, BicTrace, SiteFit):
            monkeypatch.setattr(cls, "__init__", lambda self, *args, init=cls.__init__,
                                name=cls.__name__: built.append(name) or init(self, *args))
        for module in (liargrid.neighborhoods, liargrid.select):  # views skip __init__
            monkeypatch.setattr(module, "_view", lambda *args, view=module._view:
                                built.append("view") or view(*args))
        report = select_all(adversarial_series(), max_radius=4, d0=0.0)
        report.save_json(tmp_path / "selection.json")
        report.save_heatmap_csv(tmp_path / "heat.csv")
        report.success_rates(1)
        report.kernels()
        assert len(report) == len(report.chosen_labels()) == len(list(report.traces)) == 30
        assert built == []
        assert report.trace_for((1, 1)).fit.neighborhood.size
        assert sorted(set(built)) == ["BicTrace", "SiteFit", "view"]

    @pytest.mark.parametrize("case", ["adversarial-P1", "adversarial-P2", "no-fit", "3d",
                                      "non-nesting"])
    def test_files_match_the_per_site_entries(self, monkeypatch, tmp_path, case):
        # written from arrays, a few sites at a time, byte for byte what the
        # traces give one by one: saturated and dropped levels, exact fits
        # (a null BIC), rank-deficient fits, radius-tuple labels, failed sites
        monkeypatch.setattr(liargrid.simulate, "_SITE_BLOCK", 7)
        if case == "3d":
            report = select_all(_series_3d(), radii_list=[(0, 0, 0), (0, 0, 1), (0, 1, 1)])
        elif case == "non-nesting":
            s = GridSeries((3, 6), np.random.default_rng(5).normal(size=(40, 18)))
            report = select_all(s, radii_list=[(0, 0), (2, 0), (1, 1)], d0=1.0)
            assert report.errors
        else:
            report = select_all(adversarial_series(), max_radius=4, d0=0.0,
                                order=2 if case.endswith("P2") else 1,
                                keep_fit=case != "no-fit")
            traces = list(report)
            assert any(t.saturated for t in traces) and any(t.dropped for t in traces)
            assert any(t.exact_fit.any() for t in traces)
            assert case == "no-fit" or any(t.fit.cond_flag for t in traces)
        report.save_json(tmp_path / "selection.json")
        want = json.dumps({"shape": list(report.shape), "P": report.order, "D0": report.d0,
                           "sites": [_entry(trace) for trace in report],
                           "errors": {",".join(map(str, site)): msg
                                      for site, msg in report.errors.items()}})
        assert (tmp_path / "selection.json").read_text() == want
        assert json.dumps(report.to_dict()) == want
        if len(report.shape) == 2:
            report.save_heatmap_csv(tmp_path / "heat.csv")
            label = lambda k: "x".join(map(str, k)) if isinstance(k, tuple) else str(k)
            assert (tmp_path / "heat.csv").read_text() == "site_row,site_col,chosen_k\n" + "".join(
                f"{t.site[0] + 1},{t.site[1] + 1},{label(t.chosen_k)}\n" for t in report)
