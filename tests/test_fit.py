import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from liargrid import (
    GridSeries,
    NoiseSpec,
    UnderdeterminedError,
    assemble_design,
    fit_all,
    fit_site,
    random_stable_kernels,
    select_all,
    simulate_liar,
    site_to_linear,
    standard_errors,
)
import liargrid.fit
import liargrid.select
from liargrid.fit import DesignBlock
from liargrid.grid import linear_to_site
from liargrid.neighborhoods import box_neighborhood


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


_BLAS = liargrid.fit._openblas_thread_controls()


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
        least-squares kernel's factorization."""
        seen = []
        factor = liargrid.fit._factor

        def spy(aug):
            seen.append(_blas_threads())
            if fail:
                raise RuntimeError("boom")
            return factor(aug)

        monkeypatch.setattr(liargrid.fit, "_factor", spy)
        monkeypatch.setattr(liargrid.select, "_factor", spy)
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

    def test_no_op_without_set_threads_symbol(self, monkeypatch):
        monkeypatch.setattr(liargrid.fit, "_BLAS_THREAD_SYMBOLS",
                            (("no_such_set_threads", "no_such_get_threads"),))
        monkeypatch.setattr(liargrid.fit, "_blas_controls", None)
        assert liargrid.fit._openblas_thread_controls() == []
        seen = self._spy(monkeypatch)
        self._run("fit_all", 1)
        assert seen and all(n == [2] * len(_BLAS) for n in seen)
