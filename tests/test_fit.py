import json
import re
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from liargrid import (
    ConfigurationError,
    GridSeries,
    NoiseSpec,
    UnderdeterminedError,
    assemble_design,
    baseline_mar_als,
    fit_all,
    fit_site,
    random_stable_kernels,
    select_all,
    select_site,
    simulate_liar,
    site_to_linear,
    standard_errors,
)
import liargrid._threads
import liargrid.fit
import liargrid.neighborhoods
import liargrid.simulate
from liargrid.fit import DesignBlock, SiteFit
from liargrid.grid import linear_to_site
from liargrid.neighborhoods import (Neighborhood, box_field, box_neighborhood,
                                    custom_neighborhood, nested_family)

from _dgp import adversarial_series


def _random_series(shape, t, seed):
    gen = np.random.default_rng(seed)
    return GridSeries(shape, gen.normal(size=(t, int(np.prod(shape)))))


class TestAssembleDesign:
    def test_lag1_shapes(self):
        s = _random_series((3, 3), 10, 0)
        nb = box_neighborhood((1, 1), (3, 3), (1, 0))
        d = assemble_design(s, (1, 1), nb, 1)
        assert d.y.shape == (9, 3)
        assert d.z.shape == (9,)

    def test_lag2_shapes(self):
        s = _random_series((3, 3), 10, 0)
        nb = box_neighborhood((1, 1), (3, 3), (1, 0))
        d = assemble_design(s, (1, 1), nb, 2)
        assert d.y.shape == (8, 6)
        assert d.z.shape == (8,)

    def test_constant_series_rows(self):
        s = GridSeries((2, 2), np.full((6, 4), 3.5))
        nb = box_neighborhood((0, 0), (2, 2), 1)
        d = assemble_design(s, (0, 0), nb, 1)
        assert_array_equal(d.y, 3.5)
        assert_array_equal(d.z, 3.5)

    def test_row_content_lag_major(self):
        s = _random_series((3, 3), 24, 4)
        nb = box_neighborhood((1, 1), (3, 3), 1)
        lin = [site_to_linear(tuple(u), (3, 3)) for u in nb.sites]
        d = assemble_design(s, (1, 1), nb, 2)
        center = site_to_linear((1, 1), (3, 3))
        for t in range(2, 24):
            row = d.y[t - 2]
            assert_array_equal(row[:9], s.values[t - 1, lin])
            assert_array_equal(row[9:], s.values[t - 2, lin])
            assert d.z[t - 2] == s.values[t, center]

    def test_underdetermined_names_counts(self):
        s = _random_series((3, 3), 6, 1)
        nb = box_neighborhood((1, 1), (3, 3), 1)
        with pytest.raises(UnderdeterminedError, match="5.*9|9.*5"):
            assemble_design(s, (1, 1), nb, 1)


class TestFitSite:
    def test_exact_interpolation(self):
        gen = np.random.default_rng(3)
        y = gen.normal(size=(40, 5))
        m = gen.normal(size=5)
        z = y @ m
        fit = fit_site(DesignBlock((0, 0), None, 1, y, z))
        assert_allclose(fit.coeffs, m, atol=1e-10)
        assert fit.rss <= 1e-16 * float(z @ z)

    def test_hand_normal_equations(self):
        y = np.array([[1.0], [1.0]])
        z = np.array([0.0, 2.0])
        fit = fit_site(DesignBlock((0, 0), None, 1, y, z))
        assert_allclose(fit.coeffs, [1.0], rtol=1e-14)
        assert_allclose(fit.rss, 2.0, rtol=1e-14)

    def test_orthonormal_design(self):
        gen = np.random.default_rng(5)
        q, _ = np.linalg.qr(gen.normal(size=(30, 4)))
        z = gen.normal(size=30)
        fit = fit_site(DesignBlock((0, 0), None, 1, q, z))
        assert_allclose(fit.coeffs, q.T @ z, atol=1e-12)

    def test_residual_orthogonality(self):
        gen = np.random.default_rng(6)
        y = gen.normal(size=(50, 7))
        z = gen.normal(size=50)
        fit = fit_site(DesignBlock((0, 0), None, 1, y, z))
        resid = z - y @ fit.coeffs
        bound = 1e-8 * (1.0 + np.abs(y.T @ z).max())
        assert np.abs(y.T @ resid).max() <= bound

    def test_rank_deficient_flagged_min_norm(self):
        gen = np.random.default_rng(8)
        col = gen.normal(size=(30, 1))
        y = np.hstack([col, col])
        z = gen.normal(size=30)
        fit = fit_site(DesignBlock((0, 0), None, 1, y, z))
        assert fit.cond_flag
        want = np.linalg.lstsq(y, z, rcond=1e-10)[0]
        assert_allclose(fit.coeffs, want, atol=1e-10)

    def test_fewer_rows_than_columns_refused(self):
        # the solver's identifiability rule holds for hand-built blocks too
        block = DesignBlock((0, 0), None, 1, np.ones((3, 4)), np.ones(3))
        with pytest.raises(UnderdeterminedError, match=r"3 usable rows < 4 unknowns"):
            fit_site(block)

    def test_sigma2_denominator(self):
        gen = np.random.default_rng(9)
        y = gen.normal(size=(20, 3))
        z = gen.normal(size=20)
        fit = fit_site(DesignBlock((0, 0), None, 1, y, z))
        assert_allclose(fit.sigma2, fit.rss / 17, rtol=1e-14)


class TestStandardErrors:
    def test_zero_sigma2_zero_se(self):
        gen = np.random.default_rng(3)
        y = gen.normal(size=(40, 5))
        z = y @ gen.normal(size=5)
        design = DesignBlock((0, 0), None, 1, y, z)
        fit = fit_site(design)
        se = standard_errors(fit, design)
        assert_allclose(se, 0.0, atol=1e-12)

    def test_scaled_orthonormal_columns(self):
        gen = np.random.default_rng(4)
        t = 100
        q, _ = np.linalg.qr(gen.normal(size=(t, 3)))
        y = q * np.sqrt(t)
        z = gen.normal(size=t)
        design = DesignBlock((0, 0), None, 1, y, z)
        fit = fit_site(design)
        se = standard_errors(fit, design)
        assert_allclose(se, np.sqrt(fit.sigma2 / t), rtol=1e-10)

    def test_cond_flag_omits_se(self):
        col = np.ones((30, 1))
        y = np.hstack([col, col])
        z = np.arange(30.0)
        design = DesignBlock((0, 0), None, 1, y, z)
        fit = fit_site(design)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            se = standard_errors(fit, design)
        assert se is None
        assert any("standard error" in str(w.message).lower() or
                   "singular" in str(w.message).lower() or
                   "deficien" in str(w.message).lower() for w in caught)

    def test_fit_site_carries_them_from_one_factor(self, monkeypatch):
        shape, site = (4, 5), (1, 2)
        s = _random_series(shape, 60, 8)
        nb = box_neighborhood(site, shape, 1)
        want = fit_all(s, [nb], order=2).fit_for(site).se
        calls, factor = [], liargrid.fit._factor
        monkeypatch.setattr(liargrid.fit, "_factor",
                            lambda aug: calls.append(aug.shape) or factor(aug))
        design = assemble_design(s, site, nb, 2)
        se = standard_errors(fit_site(design), design)
        assert len(calls) == 1
        assert_array_equal(se, want)

    def test_kept_selection_fit(self):
        shape, site = (4, 4), (2, 1)
        s = _random_series(shape, 80, 9)
        fit = select_site(s, nested_family(site, shape, max_radius=1)).fit
        assert fit.se is None
        design = assemble_design(s, site, fit.neighborhood, 1)
        se = standard_errors(fit, design)
        assert fit.se is se
        assert_array_equal(se, fit_all(s, [fit.neighborhood]).fit_for(site).se)

    def test_empirical_coverage(self):
        # 95% plug-in intervals cover the truth 95% +/- 3% of the time
        shape = (3, 3)
        kern = random_stable_kernels(shape, 1, target_norm=0.8, seed=123)
        center = (1, 1)
        lin = site_to_linear(center, shape)
        nb = box_neighborhood(center, shape, 1)
        true = kern.coeffs[lin][0]
        pos = [tuple(s) for s in nb.sites].index(center)
        hits = 0
        reps = 500
        for rep in range(reps):
            series = simulate_liar(kern, 2000,
                                   NoiseSpec(sigma=1.0, seed=10_000 + rep))
            design = assemble_design(series, center, nb, 1)
            fit = fit_site(design)
            se = standard_errors(fit, design)
            half = 1.96 * se[pos]
            hits += abs(fit.coeffs[pos] - true[pos]) <= half
        assert 0.92 <= hits / reps <= 0.98


class TestFitAll:
    def test_scalar_ar2_oracle(self):
        kern = random_stable_kernels((1, 1), 0, order=2, target_norm=0.7, seed=2)
        s = simulate_liar(kern, 400, NoiseSpec(sigma=1.0, seed=3))
        nb = box_neighborhood((0, 0), (1, 1), 0)
        report = fit_all(s, [nb], order=2)
        x = s.values[:, 0]
        y = np.column_stack([x[1:-1], x[:-2]])
        want = np.linalg.lstsq(y, x[2:], rcond=None)[0]
        assert_allclose(report.fits[0].coeffs, want, atol=1e-10)

    def test_thread_count_invariance(self):
        s = _random_series((4, 4), 80, 11)
        nbs = [box_neighborhood(linear_to_site(i, (4, 4)), (4, 4), 1)
               for i in range(16)]
        a = fit_all(s, nbs, n_workers=1)
        b = fit_all(s, nbs, n_workers=8)
        for i in range(16):
            assert_array_equal(a.fits[i].coeffs, b.fits[i].coeffs)
            assert a.fits[i].rss == b.fits[i].rss
            assert_array_equal(a.fits[i].se, b.fits[i].se)

    @pytest.mark.parametrize("entry,order,block", [
        ("fit_all", 1, 7), ("fit_all", 1, None), ("fit_all", 2, 7), ("fit_all", 2, None),
        ("select_all", 2, 7),
    ], ids=["1-7", "1-None", "2-7", "2-None", "select_all-2-7"])
    def test_adversarial_grid_worker_count_invariance(self, monkeypatch, entry, order,
                                                      block):
        # small blocks split the grid into several, each with sites of more
        # than one column plan; BIC scores and permutations run in the pool
        if block is not None:
            monkeypatch.setattr(liargrid.fit, "_BLOCK", block)
        s = adversarial_series()
        nbs = [box_neighborhood(linear_to_site(i, s.shape), s.shape, 1 + (i % 3 == 0))
               for i in range(s.n_sites)]

        def run(workers):
            if entry == "select_all":
                return select_all(s, max_radius=4, order=order, d0=0.0, n_workers=workers)
            return fit_all(s, nbs, order=order, n_workers=workers, compute_se=True)

        a = run(1)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more thread switches, more interleavings
        try:
            b = run(8)
        finally:
            sys.setswitchinterval(switch)
        assert list(a.errors.items()) == list(b.errors.items())
        if entry == "select_all":
            assert list(a.traces) == list(b.traces)
            assert any(t.fit.cond_flag for t in a) and any(t.chosen_k for t in a)
            for lin, ta in a.traces.items():
                tb = b.traces[lin]
                assert (ta.labels, ta.dropped, ta.chosen_k) == (tb.labels, tb.dropped,
                                                                tb.chosen_k)
                for got, want in ((ta.rss, tb.rss), (ta.bic, tb.bic),
                                  (ta.exact_fit, tb.exact_fit),
                                  (ta.fit.coeffs, tb.fit.coeffs)):
                    assert_array_equal(got, want)
                assert (ta.fit.rss, ta.fit.cond_flag) == (tb.fit.rss, tb.fit.cond_flag)
            return
        assert a.errors
        assert any(f.cond_flag for f in a) and any(not f.cond_flag for f in a)
        assert list(a.fits) == list(b.fits)
        for lin, fa in a.fits.items():
            fb = b.fits[lin]
            assert_array_equal(fa.coeffs, fb.coeffs)
            assert (fa.rss, fa.sigma2, fa.cond_flag) == (fb.rss, fb.sigma2, fb.cond_flag)
            assert (fa.se is None) == fa.cond_flag == (fb.se is None)
            if fa.se is not None:
                assert_array_equal(fa.se, fb.se)

    def test_rss_monotone_in_nesting(self):
        s = _random_series((5, 5), 120, 12)
        center = (2, 2)
        small = box_neighborhood(center, (5, 5), 1)
        big = box_neighborhood(center, (5, 5), 2)
        f_small = fit_site(assemble_design(s, center, small, 1))
        f_big = fit_site(assemble_design(s, center, big, 1))
        assert f_big.rss <= f_small.rss * (1 + 1e-9)

    def test_error_manifest_partial_results(self):
        # T too small to identify the big-box site, fine for the rest
        s = _random_series((3, 3), 8, 13)
        nbs = {}
        for i in range(9):
            site = linear_to_site(i, (3, 3))
            radius = 1 if site == (1, 1) else 0
            nbs[site] = box_neighborhood(site, (3, 3), radius)
        report = fit_all(s, nbs, order=1)
        assert (1, 1) in report.errors
        assert len(report.fits) == 8
        with pytest.raises(Exception):
            report.kernels()

    def test_neighborhood_list_or_dict(self):
        s = _random_series((2, 2), 30, 14)
        nbs_list = [box_neighborhood(linear_to_site(i, (2, 2)), (2, 2), 0)
                    for i in range(4)]
        nbs_dict = {tuple(nb.center): nb for nb in nbs_list}
        a = fit_all(s, nbs_list)
        b = fit_all(s, nbs_dict)
        for i in range(4):
            assert_array_equal(a.fits[i].coeffs, b.fits[i].coeffs)

    def test_dict_key_must_be_the_neighborhood_center(self):
        s = _random_series((3, 3), 30, 14)
        nbs = {linear_to_site(i, (3, 3)): box_neighborhood(linear_to_site(i, (3, 3)),
                                                           (3, 3), 0)
               for i in range(9)}
        nbs[(0, 0)] = box_neighborhood((2, 2), (3, 3), 0)
        with pytest.raises(ConfigurationError, match=r"\(0, 0\) is centered at \(2, 2\)"):
            fit_all(s, nbs)

    def test_duplicate_center_refused(self):
        s = _random_series((3, 3), 30, 14)
        nbs = [box_neighborhood(linear_to_site(i, (3, 3)), (3, 3), 0) for i in range(9)]
        nbs.append(box_neighborhood((1, 2), (3, 3), 1))
        with pytest.raises(ConfigurationError,
                           match=r"duplicate neighborhood for site \(1, 2\)"):
            fit_all(s, nbs)

    def test_report_json_round_trip(self, tmp_path):
        s = _random_series((2, 3), 50, 15)
        nbs = [box_neighborhood(linear_to_site(i, (2, 3)), (2, 3), 1)
               for i in range(6)]
        report = fit_all(s, nbs)
        data = report.to_dict()
        assert len(data["sites"]) == 6
        first = data["sites"][0]
        for key in ("center", "sites", "coeffs", "rss", "sigma2", "se",
                    "cond_flag"):
            assert key in first
        report.save_json(tmp_path / "fit.json")
        assert (tmp_path / "fit.json").exists()

    def test_kernels_round_trip_to_field(self):
        s = _random_series((3, 3), 60, 16)
        nbs = [box_neighborhood(linear_to_site(i, (3, 3)), (3, 3), 1)
               for i in range(9)]
        report = fit_all(s, nbs)
        kern = report.kernels()
        assert kern.shape == (3, 3)
        for i in range(9):
            assert_array_equal(kern.coeffs[i][0], report.fits[i].coeffs)


def _close(got, want, rtol=1e-12):
    """Within ``rtol`` of ``want``'s largest entry."""
    assert np.max(np.abs(np.asarray(got) - want)) <= rtol * np.max(np.abs(want))


def _spy(monkeypatch, name):
    """Record the last argument of every call of ``liargrid.fit.<name>``."""
    calls, call = [], getattr(liargrid.fit, name)
    monkeypatch.setattr(liargrid.fit, name, lambda *args: calls.append(args[-1]) or call(*args))
    return calls


class TestMomentPath:
    """A whole-grid fit of boxes factors each site's Gram off the grid's
    shared lag moments; the guard sends doubtful sites to gather + QR, as
    every other request goes."""

    @pytest.mark.parametrize("order,radii", [(1, [2]), (2, [(1, 2)]), (1, [1, (2, 1)])],
                             ids=["P1", "P2-per-axis", "P1-mixed"])
    def test_matches_fit_site(self, monkeypatch, order, radii):
        # every box of radius 1 or more is clipped at the grid's edges; a
        # mixed field's moments reach the per-axis maximum radius
        shape = (7, 9)
        kern = random_stable_kernels(shape, 1, order=order, target_norm=0.7, seed=70)
        s = simulate_liar(kern, 300, NoiseSpec(sigma=1.0, seed=71))
        nbs = [box_neighborhood(linear_to_site(i, shape), shape, radii[i % len(radii)])
               for i in range(s.n_sites)]
        factored = _spy(monkeypatch, "_factor")
        report = fit_all(s, nbs, order=order)
        assert not factored and not report.errors  # the guard took every site
        monkeypatch.undo()
        for lin, nb in enumerate(nbs):
            got, want = report.fits[lin], fit_site(assemble_design(s, nb.center, nb, order))
            assert not got.cond_flag
            _close(got.coeffs, want.coeffs)
            _close(got.se, want.se)
            _close(got.rss, want.rss)

    @pytest.mark.parametrize("order", [1, 2])
    def test_doubtful_sites_match_a_one_site_fit(self, order):
        # rank-deficient and exact-fit sites go through gather + QR, as a
        # one-site request does, so the two agree bitwise
        s = adversarial_series()
        nbs = [box_neighborhood(linear_to_site(i, s.shape), s.shape, 1 + (i % 3 == 0))
               for i in range(s.n_sites)]
        report = fit_all(s, nbs, order=order)
        doubtful = [lin for lin, fit in report.fits.items() if fit.cond_flag or fit.rss == 0.0]
        assert doubtful and any(report.fits[lin].cond_flag for lin in doubtful)
        for lin in doubtful:
            got = report.fits[lin]
            want = fit_all(s, [nbs[lin]], order=order).fits[lin]
            assert_array_equal(got.coeffs, want.coeffs)
            assert (got.rss, got.sigma2, got.cond_flag) == (want.rss, want.sigma2,
                                                            want.cond_flag)
            assert (got.se is None) == (want.se is None)
            if got.se is not None:
                assert_array_equal(got.se, want.se)

    def test_guard_sends_only_doubtful_sites_to_qr(self, monkeypatch):
        # an exact and a near-exact fit, a duplicated column and a
        # near-collinear column: exactly the sites whose box holds one are
        # gathered and factored
        shape = (8, 8)
        values = np.random.default_rng(90).normal(size=(200, 64))
        at = lambda *site: site_to_linear(site, shape)
        values[1:, at(1, 5)] = 0.5 * values[:-1, at(0, 5)]
        values[1:, at(6, 2)] = 0.5 * values[:-1, at(6, 3)] + 1e-5 * values[1:, at(0, 0)]
        values[:, at(3, 1)] = values[:, at(1, 1)]
        values[:, at(5, 6)] = values[:, at(5, 5)] + 1e-7 * values[:, at(7, 0)]
        s = GridSeries(shape, values)
        nbs = [box_neighborhood(linear_to_site(i, shape), shape, 1) for i in range(64)]
        pairs = [(at(1, 1), at(3, 1)), (at(5, 5), at(5, 6))]
        want = {at(1, 5), at(6, 2)} | {lin for lin in range(64) for u, v in pairs
                                       if {u, v} <= set(nbs[lin].linear.tolist())}
        gathered, factored = _spy(monkeypatch, "_gather"), _spy(monkeypatch, "_factor")
        report = fit_all(s, nbs)
        assert not report.errors
        assert sorted(gathered) == sorted(want) and len(factored) == len(want) == 11
        assert report.fits[at(1, 5)].rss < 1e-20 < report.fits[at(6, 2)].rss
        assert report.fits[at(2, 1)].cond_flag

    def test_moments_reach_only_identified_boxes(self, monkeypatch):
        # T=16 leaves 15 rows: the center's radius-3 box (49 sites) fails
        # unfactored, so the products stop at the others' radius 1
        reaches, moments = [], liargrid.fit._lag_moments
        monkeypatch.setattr(liargrid.fit, "_lag_moments", lambda values, shape, order, reach,
                            *rest: reaches.append(tuple(reach.tolist()))
                            or moments(values, shape, order, reach, *rest))
        shape = (7, 7)
        s = _random_series(shape, 16, 73)
        nbs = [box_neighborhood(linear_to_site(i, shape), shape, 3 if i == 24 else 1)
               for i in range(49)]
        report = fit_all(s, nbs)
        assert reaches == [(1, 1)]
        assert list(report.errors) == [(3, 3)] and len(report) == 48

    @pytest.mark.parametrize("request_kind", ["custom-field", "partial-grid"])
    def test_other_requests_stay_on_qr(self, monkeypatch, request_kind):
        # a field whose neighborhoods are not boxes, or a request that
        # leaves out a site, forms no moments and matches fit_site bitwise
        shape = (5, 6)
        s = _random_series(shape, 80, 72)
        boxes = [box_neighborhood(linear_to_site(i, shape), shape, 1) for i in range(30)]
        if request_kind == "custom-field":
            nbs = [custom_neighborhood(nb.center, shape, nb.sites) for nb in boxes]
        else:
            nbs = boxes[1:]
        moments = _spy(monkeypatch, "_lag_moments")
        report = fit_all(s, nbs, order=2)
        assert not moments and len(report) == len(nbs)
        for nb in nbs:
            got = report.fit_for(nb.center)
            want = fit_site(assemble_design(s, nb.center, nb, 2))
            assert_array_equal(got.coeffs, want.coeffs)
            assert_array_equal(got.se, want.se)
            assert got.rss == want.rss


_BLAS = liargrid._threads._openblas_thread_controls()


class TestOneCheckPerCall:
    """The lag order and frame count are checked once per call, on the
    calling thread; a partial fit is refused by one function."""

    @pytest.mark.parametrize("order", [0, -1])
    @pytest.mark.parametrize("entry", ["fit_all", "select_all", "select_site",
                                       "fit_site"])
    def test_bad_lag_order_refused(self, entry, order):
        s = _random_series((3, 4), 30, 40)
        nb = box_neighborhood((1, 1), (3, 4), 1)
        calls = {
            "fit_all": lambda: fit_all(s, [nb], order=order, n_workers=1),
            "select_all": lambda: select_all(s, max_radius=1, order=order, d0=1.0),
            "select_site": lambda: select_site(s, nested_family((1, 1), (3, 4), 1),
                                               order=order, d0=1.0),
            "fit_site": lambda: fit_site(DesignBlock((1, 1), nb, order,
                                                     np.ones((29, 0)), np.ones(29))),
        }
        with pytest.raises(ConfigurationError, match="lag order must be at least 1"):
            calls[entry]()

    @pytest.mark.parametrize("order", [1.5, 2.0, True, np.float64(1.0), "1"])
    @pytest.mark.parametrize("entry", ["fit_all", "select_all", "select_site",
                                       "assemble_design", "random_stable_kernels",
                                       "baseline_mar_als"])
    def test_non_integer_lag_order_refused(self, entry, order):
        s = _random_series((3, 4), 30, 40)
        nb = box_neighborhood((1, 1), (3, 4), 1)
        calls = {
            "fit_all": lambda: fit_all(s, [nb], order=order, n_workers=1),
            "select_all": lambda: select_all(s, max_radius=1, order=order, d0=1.0),
            "select_site": lambda: select_site(s, nested_family((1, 1), (3, 4), 1),
                                               order=order, d0=1.0),
            "assemble_design": lambda: assemble_design(s, (1, 1), nb, order),
            "random_stable_kernels": lambda: random_stable_kernels((3, 4), 1, order=order),
            "baseline_mar_als": lambda: baseline_mar_als(s, order=order),
        }
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"lag order must be an integer, got {order!r}")):
            calls[entry]()

    @pytest.mark.parametrize("order", [np.int64(2), np.int32(2)])
    def test_numpy_integer_lag_order_accepted(self, order):
        s = _random_series((3, 4), 30, 40)
        nbs = [box_neighborhood(linear_to_site(i, (3, 4)), (3, 4), 1) for i in range(12)]
        got, want = fit_all(s, nbs, order=order), fit_all(s, nbs, order=2)
        assert type(got.order) is int and got.order == 2
        for lin, fit in want.fits.items():
            assert_array_equal(got.fits[lin].coeffs, fit.coeffs)

    @pytest.mark.parametrize("entry", ["fit_all", "select_all"])
    def test_too_few_frames_refused(self, entry):
        s = _random_series((3, 4), 2, 41)
        with pytest.raises(ConfigurationError, match="2 frames, need more than the lag"):
            if entry == "fit_all":
                fit_all(s, [box_neighborhood((0, 0), (3, 4), 0)], order=2)
            else:
                select_all(s, max_radius=1, order=2, d0=1.0)

    def test_checked_once_per_call(self, monkeypatch):
        calls = []
        check = liargrid.fit._check_order
        monkeypatch.setattr(liargrid.fit, "_check_order",
                            lambda *args: calls.append(args) or check(*args))
        s = _random_series((9, 9), 40, 42)
        nbs = [box_neighborhood(linear_to_site(i, (9, 9)), (9, 9), 1) for i in range(81)]
        fit_all(s, nbs, order=2, n_workers=2)
        select_all(s, max_radius=2, order=2, n_workers=2)
        assert calls == [(2, 40), (2, 40)]

    def test_partial_fit_refused_with_first_failure(self):
        s = _random_series((3, 3), 8, 13)
        nbs = [box_neighborhood(linear_to_site(i, (3, 3)), (3, 3),
                                1 if i == 4 else 0) for i in range(9)]
        want = (r"^1 of 9 sites failed; first: site \(1, 1\): 7 usable rows < 9 "
                r"unknowns \(T=8, P=1, \|J\|=9\)$")
        with pytest.raises(UnderdeterminedError, match=want):
            fit_all(s, nbs).kernels()

    def test_unrequested_sites_refused(self):
        s = _random_series((3, 3), 30, 13)
        report = fit_all(s, [box_neighborhood((1, 1), (3, 3), 1)])
        with pytest.raises(ConfigurationError, match="1 of 9 sites fitted"):
            report.kernels()


def _blas_threads():
    return [get() for _, get in _BLAS]


@pytest.mark.skipif(not _BLAS, reason="no OpenBLAS build with thread control loaded")
class TestSingleThreadedBlas:
    """fit_all/select_all pin OpenBLAS to one thread and restore it."""

    @pytest.fixture(autouse=True)
    def two_threads(self):
        # start from a count that differs from the pinned one
        before = _blas_threads()
        for set_threads, _ in _BLAS:
            set_threads(2)
        yield
        for (set_threads, _), n in zip(_BLAS, before):
            set_threads(n)

    def _spy(self, monkeypatch, fail=False):
        """Record the BLAS thread counts inside every call of the shared
        least-squares kernel's factorizations: the QR, and the moment
        path's products and batched Cholesky."""
        seen = []

        def spy(name):
            call = getattr(liargrid.fit, name)

            def spied(*args):
                seen.append(_blas_threads())
                if fail:
                    raise RuntimeError("boom")
                return call(*args)

            monkeypatch.setattr(liargrid.fit, name, spied)

        for name in ("_factor", "_lag_moments", "_cholesky"):
            spy(name)
        return seen

    @staticmethod
    def _run(entry, workers):
        s = _random_series((3, 3), 40, 17)
        if entry == "fit_all":
            nbs = [box_neighborhood(linear_to_site(i, (3, 3)), (3, 3), 1)
                   for i in range(9)]
            fit_all(s, nbs, n_workers=workers)
        else:
            select_all(s, max_radius=1, n_workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("entry", ["fit_all", "select_all"])
    def test_pinned_during_and_restored_after(self, monkeypatch, entry, workers):
        seen = self._spy(monkeypatch)
        self._run(entry, workers)
        assert seen and all(n == [1] * len(_BLAS) for n in seen)
        assert _blas_threads() == [2] * len(_BLAS)

    @pytest.mark.parametrize("entry", ["fit_all", "select_all"])
    def test_restored_when_call_raises(self, monkeypatch, entry):
        seen = self._spy(monkeypatch, fail=True)
        with pytest.raises(RuntimeError, match="boom"):
            self._run(entry, 2)
        assert seen and all(n == [1] * len(_BLAS) for n in seen)
        assert _blas_threads() == [2] * len(_BLAS)

    def test_single_site_calls_match_across_blas_thread_counts(self):
        # unpinned, 1 against 2 OpenBLAS threads moved the scan RSS or the
        # kept coefficients in the last bits at these interior sites
        shape = (10, 10)
        kern = random_stable_kernels(shape, 3, target_norm=0.8, seed=300)
        s = simulate_liar(kern, 6000, NoiseSpec(sigma=1.0, seed=350))
        sites = [linear_to_site(i, shape) for i in (33, 44, 45, 54, 66)]
        runs = []
        for n in (1, 2):
            for set_threads, _ in _BLAS:
                set_threads(n)
            runs.append([])
            for site in sites:
                trace = select_site(s, nested_family(site, shape, max_radius=5))
                fit = fit_site(assemble_design(s, site, box_neighborhood(site, shape, 3)))
                runs[-1].append((trace.rss, trace.bic, trace.fit.coeffs,
                                 fit.coeffs, np.array(fit.rss)))
        for one, two in zip(*runs):
            for a, b in zip(one, two):
                assert_array_equal(a, b)

    def test_no_op_without_set_threads_symbol(self, monkeypatch):
        monkeypatch.setattr(liargrid._threads, "_BLAS_THREAD_SYMBOLS",
                            (("no_such_set_threads", "no_such_get_threads"),))
        monkeypatch.setattr(liargrid._threads, "_blas_controls", None)
        assert liargrid._threads._openblas_thread_controls() == []
        seen = self._spy(monkeypatch)
        self._run("fit_all", 1)
        assert seen and all(n == [2] * len(_BLAS) for n in seen)


class TestSolveLevels:
    """One size class's members are solved in batches by level; each
    member's coefficients and inverse diagonal have the same bits in any
    stack, and from the transposed stacks the moment path holds."""

    @staticmethod
    def _class(n, gen, m=12):
        """R factors of ``m`` random [Y z] blocks with ``n`` regressors,
        member 3's first two columns equal (a zero column when n = 1)."""
        aug = gen.normal(size=(m, n + 30, n + 1))
        aug[3, :, 0] = aug[3, :, 1] if n > 1 else 0.0
        return np.stack([liargrid.fit._factor(a) for a in aug])

    def test_same_bits_in_any_stack(self):
        gen = np.random.default_rng(61)
        for n in range(1, 51):
            r = self._class(n, gen)
            cols = np.unique([(n + 1) // 2, n])
            picks = gen.integers(0, len(cols), size=len(r))
            picks[3] = len(cols) - 1  # the deficient level
            layouts = (r, np.ascontiguousarray(r.transpose(0, 2, 1)).transpose(0, 2, 1))
            want = None
            for stack in (1, 2, 7, len(r)):
                for rs in layouts:
                    got = [], []
                    for a in range(0, len(r), stack):
                        part = rs[a : a + stack]
                        _, _, min_norm = liargrid.fit._scan(part, cols)
                        c, v = liargrid.fit._solve_levels(part, cols, picks[a : a + stack],
                                                          min_norm, True)
                        got[0].extend(c)
                        got[1].extend(v)
                    if want is None:
                        want = got
                        assert want[1][3] is None and all(
                            v is not None for i, v in enumerate(want[1]) if i != 3)
                    for x, y in zip(got[0] + got[1], want[0] + want[1]):
                        assert (x is None) == (y is None)
                        if x is not None:
                            assert_array_equal(x, y)

    def test_inverse_matches_lapack(self):
        gen = np.random.default_rng(62)
        for n in (1, 2, 9, 25, 49):
            tri = self._class(n, gen)[:, :n, :n]
            tri = tri[[i for i in range(len(tri)) if i != 3]]
            assert_allclose(liargrid.fit._inverse(tri), np.linalg.inv(tri),
                            rtol=1e-12, atol=1e-12 * np.abs(np.linalg.inv(tri)).max())


class TestFactorReleasesGil:
    """The pool's speed with workers rests on ``_factor`` releasing the
    GIL; no result depends on it."""

    def test_python_thread_runs_during_factor(self):
        gen = np.random.default_rng(21)
        cols = 400
        while True:  # widen the block until one factorization takes >= 0.2 s
            aug = np.asfortranarray(gen.normal(size=(4000, cols)))
            stamps, stop = [], threading.Event()

            def spin():
                last = time.perf_counter()
                while not stop.is_set():
                    now = time.perf_counter()
                    if now - last > 1e-3:
                        stamps.append(now)
                        last = now

            spinner = threading.Thread(target=spin)
            spinner.start()
            try:
                with liargrid.fit.single_threaded_blas():
                    start = time.perf_counter()
                    liargrid.fit._factor(aug)
                    end = time.perf_counter()
            finally:
                stop.set()
                spinner.join(timeout=10)
            assert not spinner.is_alive()
            if end - start >= 0.2 or cols > 1200:
                break
            cols = cols * 3 // 2
        quarter = (end - start) / 4
        assert end - start >= 0.2
        assert any(start + quarter <= t <= end - quarter for t in stamps)


def _fit_entry(fit):
    """A fit's entry in the report file, read off the fit itself."""
    entry = fit.neighborhood.to_dict()
    entry.update(coeffs=fit.coeffs_by_lag().tolist(), rss=fit.rss, sigma2=fit.sigma2,
                 se=None if fit.se is None else fit.se.tolist(), cond_flag=fit.cond_flag)
    return entry


class TestReportArrays:
    """A fit is held as arrays from the solver to the files; fits and
    neighborhoods are built only when read."""

    def test_no_per_site_objects_until_a_fit_is_read(self, monkeypatch, tmp_path):
        s = _random_series((6, 7), 80, 12)
        nbs = box_field(s.shape, 1)
        built = []
        for cls in (Neighborhood, SiteFit):
            monkeypatch.setattr(cls, "__init__", lambda self, *args, init=cls.__init__,
                                name=cls.__name__: built.append(name) or init(self, *args))
        for module in (liargrid.neighborhoods, liargrid.fit):  # views skip __init__
            monkeypatch.setattr(module, "_view", lambda *args, view=module._view:
                                built.append("view") or view(*args))
        report = fit_all(s, nbs, order=2)
        report.save_json(tmp_path / "fit_report.json")
        report.to_dict()
        report.kernels()
        assert len(report) == len(report.fits) == 42
        assert built == []
        fit = report.fit_for((2, 3))
        assert fit.neighborhood == nbs[site_to_linear((2, 3), s.shape)]
        assert sorted(built) == ["SiteFit", "view"]
        assert report.fit_for((2, 3)) is not fit  # a new one at each read

    @staticmethod
    def _report(case):
        shape = (5, 6)
        s = _random_series(shape, 60, 13)
        if case == "P1-se":
            return fit_all(s, box_field(shape, 1))
        if case == "P2-no-se":
            return fit_all(s, box_field(shape, 1), order=2, compute_se=False)
        if case == "custom":
            return fit_all(s, [custom_neighborhood(nb.center, shape, nb.sites[::2])
                               for nb in box_field(shape, 1)])
        if case == "uneven":
            return fit_all(s, box_field(shape, (1, 2)))
        if case == "partial":  # interior radius-2 boxes are underdetermined
            return fit_all(adversarial_series(), box_field(shape, 2))
        if case == "deficient":  # sites (1, 1) and (3, 1) carry the same series
            return fit_all(adversarial_series(), box_field(shape, 1))
        kern = random_stable_kernels((3, 3, 4), (0, 1, 1), target_norm=0.7, seed=78)
        series = simulate_liar(kern, 300, NoiseSpec(sigma=1.0, seed=79))
        return fit_all(series, box_field(series.shape, (1, 0, 1)))

    @pytest.mark.parametrize("case", ["P1-se", "P2-no-se", "custom", "uneven", "partial",
                                      "deficient", "3d"])
    def test_file_matches_the_per_site_fits(self, monkeypatch, tmp_path, case):
        # written from arrays, 7 sites at a time, byte for byte what the
        # fits give one by one
        monkeypatch.setattr(liargrid.simulate, "_SITE_BLOCK", 7)
        report = self._report(case)
        fits = [report.fits[lin] for lin in report.fits]
        keys = [_fit_entry(fit).get("k") for fit in fits]
        if case == "custom":
            assert keys == [None] * 30
        elif case == "uneven":
            assert all(k == [1, 2] for k in keys)
        else:
            assert None not in keys
        assert (fits[0].se is None) == (case == "P2-no-se")
        assert bool(report.errors) == (case == "partial")
        if case == "deficient":
            flagged = [fit for fit in fits if fit.cond_flag]
            assert flagged and all(fit.se is None for fit in flagged)
        report.save_json(tmp_path / "fit_report.json")
        want = json.dumps({"shape": list(report.shape), "P": report.order,
                           "sites": [_fit_entry(fit) for fit in fits],
                           "errors": {",".join(map(str, site)): msg
                                      for site, msg in report.errors.items()}})
        assert (tmp_path / "fit_report.json").read_text() == want
        assert json.dumps(report.to_dict()) == want
