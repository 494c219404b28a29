import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from liargrid import (
    ConfigurationError,
    GridSeries,
    KernelField,
    NoiseSpec,
    SizeError,
    UnderdeterminedError,
    autocov,
    baseline_mar_als,
    baseline_pixel_ar,
    fit_all,
    forecast,
    holdout_rmse,
    mar_forecast,
    mar_holdout_rmse,
    random_stable_kernels,
    rmse,
    simulate_liar,
)
import liargrid.evaluate
from liargrid.grid import linear_to_site, site_to_linear
from liargrid.neighborhoods import box_field, box_neighborhood

from _dgp import mar_kernel_field


def _self_only(shape, a):
    n = int(np.prod(shape))
    nbs = [box_neighborhood(linear_to_site(i, shape), shape, 0)
           for i in range(n)]
    return KernelField(shape, 1, nbs, [np.full((1, 1), a)] * n)


class TestRmse:
    def test_identical_is_zero(self):
        x = np.arange(12.0).reshape(3, 4)
        assert rmse(x, x) == 0.0

    def test_offset_one(self):
        x = np.zeros((2, 5))
        assert rmse(x + 1.0, x) == 1.0

    def test_hand_value(self):
        assert_allclose(rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0])),
                        np.sqrt(25 / 2), rtol=1e-15)

    def test_permutation_invariance(self):
        gen = np.random.default_rng(1)
        pred = gen.normal(size=20)
        truth = gen.normal(size=20)
        perm = gen.permutation(20)
        assert_allclose(rmse(pred, truth), rmse(pred[perm], truth[perm]),
                        rtol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            rmse(np.zeros((2, 2)), np.zeros((2, 3)))


class TestForecast:
    def test_zero_kernels_zero_forecast(self):
        kern = _self_only((3, 3), 0.0)
        s = GridSeries((3, 3), np.random.default_rng(0).normal(size=(10, 9)))
        result = forecast(s, kern, 4)
        assert_array_equal(result.series.values, 0.0)

    def test_noiseless_continuation_exact(self):
        shape = (4, 4)
        kern = random_stable_kernels(shape, 1, order=2, target_norm=0.7,
                                     seed=21)
        s = simulate_liar(kern, 60, NoiseSpec(sigma=1.0, seed=22))
        ops = [o.toarray() for o in kern.operators()]
        state = [s.values[-2].copy(), s.values[-1].copy()]
        truth = []
        for _ in range(5):
            x = ops[0] @ state[-1] + ops[1] @ state[-2]
            truth.append(x)
            state.append(x)
        result = forecast(s, kern, 5, truth=np.array(truth))
        assert result.rmse <= 1e-10
        assert_allclose(result.series.values, truth, atol=1e-10)

    def test_blocks_match_operator_recursion_bitwise(self):
        shape = (6, 7)
        kern = random_stable_kernels(shape, 1, order=2, target_norm=0.7,
                                     seed=23)
        s = simulate_liar(kern, 40, NoiseSpec(sigma=1.0, seed=24))
        ops = kern.operators()
        state = [s.values[-2], s.values[-1]]
        for _ in range(6):
            x = ops[0] @ state[-1]
            x += ops[1] @ state[-2]
            state.append(x)
        assert_array_equal(forecast(s, kern, 6).series.values, state[2:])
        v = s.values
        block = kern.predict([v[1:-1], v[:-2]])
        rows = [kern.predict([v[t - 1:t], v[t - 2:t - 1]])[0] for t in range(2, 40)]
        assert_array_equal(block, rows)

    def test_scalar_power_iteration(self):
        kern = _self_only((1, 1), 0.6)
        s = GridSeries((1, 1), np.array([[2.0]]))
        result = forecast(s, kern, 3)
        assert_allclose(result.series.values[:, 0],
                        [1.2, 0.72, 0.432], rtol=1e-14)

    def test_shape_mismatch(self):
        kern = _self_only((2, 2), 0.5)
        s = GridSeries((3, 3), np.zeros((4, 9)))
        with pytest.raises(ConfigurationError):
            forecast(s, kern, 1)

    def test_truth_series_frames_or_values_score_alike(self):
        kern = random_stable_kernels((3, 4), 1, target_norm=0.7, seed=25)
        s = simulate_liar(kern, 30, NoiseSpec(sigma=1.0, seed=26))
        history, truth = s.slice_time(0, 25), s.slice_time(25, 30)
        want = forecast(history, kern, 5, truth=truth.values).per_frame_rmse
        for same in (truth, truth.frames):
            assert_array_equal(forecast(history, kern, 5, truth=same).per_frame_rmse, want)
        other = GridSeries((4, 3), truth.values)
        for wrong in (other, other.frames):
            with pytest.raises(ConfigurationError, match=r"truth grid \(4, 3\)"):
                forecast(history, kern, 5, truth=wrong)

    def test_per_frame_rmse(self):
        kern = _self_only((2, 2), 0.0)
        s = GridSeries((2, 2), np.ones((3, 4)))
        truth = np.ones((2, 4))
        result = forecast(s, kern, 2, truth=truth)
        assert_allclose(result.per_frame_rmse, [1.0, 1.0])
        assert_allclose(result.rmse, 1.0)


class TestHoldoutRmse:
    def test_matches_manual_one_step(self):
        shape = (3, 3)
        kern = random_stable_kernels(shape, 1, target_norm=0.7, seed=31)
        s = simulate_liar(kern, 50, NoiseSpec(sigma=1.0, seed=32))
        got = holdout_rmse(s, kern, 10)
        op = kern.operators()[0].toarray()
        errs = []
        for t in range(40, 50):
            pred = op @ s.values[t - 1]
            errs.append(s.values[t] - pred)
        want = float(np.sqrt(np.mean(np.square(errs))))
        assert_allclose(got, want, rtol=1e-12)

    def test_n_test_bounds(self):
        kern = _self_only((2, 2), 0.5)
        s = GridSeries((2, 2), np.ones((10, 4)))
        with pytest.raises(ConfigurationError):
            holdout_rmse(s, kern, 0)
        with pytest.raises(ConfigurationError):
            holdout_rmse(s, kern, 10)


class TestAutocov:
    def test_zero_series(self):
        s = GridSeries((3, 3), np.zeros((20, 9)))
        est = autocov(s, [(0, 0), (1, 1)])
        assert_array_equal(est.values, 0.0)

    def test_white_noise_oracle(self):
        gen = np.random.default_rng(5)
        s = GridSeries((2, 3), gen.normal(size=(50_000, 6)))
        est = autocov(s, [(0, 0), (1, 1), (0, 2)])
        got = est.values
        assert np.abs(np.diag(got) - 1.0).max() < 0.05
        off = got[~np.eye(3, dtype=bool)]
        assert np.abs(off).max() < 0.05

    def test_symmetric_when_rows_equal_cols(self):
        gen = np.random.default_rng(6)
        s = GridSeries((3, 3), gen.normal(size=(200, 9)))
        est = autocov(s, [(0, 0), (1, 1), (2, 2)])
        assert np.abs(est.values - est.values.T).max() <= 1e-12

    def test_psd(self):
        gen = np.random.default_rng(7)
        s = GridSeries((3, 3), gen.normal(size=(300, 9)))
        sites = [linear_to_site(i, (3, 3)) for i in range(9)]
        est = autocov(s, sites)
        assert np.linalg.eigvalsh(est.values).min() >= -1e-10

    def test_oversize_refused(self):
        s = GridSeries((3, 3), np.zeros((5, 9)))
        big = [(0, 0)] * 3000
        with pytest.raises(SizeError, match="block"):
            autocov(s, big)

    def test_linear_indices_accepted(self):
        gen = np.random.default_rng(8)
        s = GridSeries((3, 3), gen.normal(size=(100, 9)))
        a = autocov(s, [(0, 0), (2, 2)])
        b = autocov(s, [0, site_to_linear((2, 2), (3, 3))])
        assert_array_equal(a.values, b.values)

    def test_one_axis_grid_reads_coordinates_as_linear(self):
        gen = np.random.default_rng(10)
        s = GridSeries((5,), gen.normal(size=(40, 5)))
        est = autocov(s, [0, 1, 2])
        assert_array_equal(est.values, autocov(s, [(0,), (1,), (2,)]).values)
        assert_array_equal(est.rows, [0, 1, 2])

    def test_matches_definition(self):
        gen = np.random.default_rng(9)
        s = GridSeries((2, 2), gen.normal(size=(64, 4)))
        est = autocov(s, [(0, 0), (1, 1)])
        v = s.values
        lin = [0, site_to_linear((1, 1), (2, 2))]
        want = v[:, lin].T @ v[:, lin] / 64
        assert_allclose(est.values, want, rtol=1e-12)


class TestPixelBaseline:
    def test_equals_radius_zero_fit_all(self):
        shape = (3, 3)
        kern = random_stable_kernels(shape, 1, target_norm=0.7, seed=41)
        s = simulate_liar(kern, 200, NoiseSpec(sigma=1.0, seed=42))
        base = baseline_pixel_ar(s)
        nbs = [box_neighborhood(linear_to_site(i, shape), shape, 0)
               for i in range(9)]
        report = fit_all(s, nbs, compute_se=False)
        want = report.kernels()
        for i in range(9):
            assert_array_equal(base.coeffs[i], want.coeffs[i])

    def test_scalar_ar_oracle(self):
        kern = _self_only((1, 1), 0.8)
        s = simulate_liar(kern, 500, NoiseSpec(sigma=1.0, seed=43))
        base = baseline_pixel_ar(s, order=2)
        x = s.values[:, 0]
        y = np.column_stack([x[1:-1], x[:-2]])
        want = np.linalg.lstsq(y, x[2:], rcond=None)[0]
        assert_allclose(base.coeffs[0].ravel(), want, atol=1e-10)

    def test_needs_frames(self):
        s = GridSeries((2, 2), np.ones((2, 4)))
        with pytest.raises(ConfigurationError):
            baseline_pixel_ar(s, order=2)

    def test_fewer_rows_than_lags_underdetermined(self):
        s = GridSeries((2, 2), np.random.default_rng(44).normal(size=(3, 4)))
        with pytest.raises(UnderdeterminedError):
            baseline_pixel_ar(s, order=2)

    def test_twice_order_frames_fit_like_fit_all(self):
        shape = (2, 2)
        s = GridSeries(shape, np.random.default_rng(45).normal(size=(4, 4)))
        base = baseline_pixel_ar(s, order=2)
        want = fit_all(s, box_field(shape, 0), order=2).kernels()
        for i in range(4):
            assert_array_equal(base.coeffs[i], want.coeffs[i])


class TestMarAls:
    def test_loss_non_increasing(self):
        gen = np.random.default_rng(50)
        a = 0.5 * gen.normal(size=(6, 6)) / np.sqrt(6)
        b = 0.5 * gen.normal(size=(6, 6)) / np.sqrt(6)
        kern = mar_kernel_field((6, 6), a, b)
        s = simulate_liar(kern, 300, NoiseSpec(sigma=1.0, seed=51))
        mar = baseline_mar_als(s)
        diffs = np.diff(mar.loss)
        assert np.all(diffs <= 1e-12 * np.abs(mar.loss[:-1]) + 1e-12)

    def test_recovers_product_on_mar_truth(self):
        # scaled orthogonal factors keep the one-step map well conditioned
        gen = np.random.default_rng(52)
        m = n = 10
        a = 0.9 * np.linalg.qr(gen.normal(size=(m, m)))[0]
        b = 0.9 * np.linalg.qr(gen.normal(size=(n, n)))[0]
        kern = mar_kernel_field((m, n), a, b)
        full = simulate_liar(kern, 2200, NoiseSpec(sigma=1.0, seed=53))
        train = full.slice_time(0, 2000)
        mar = baseline_mar_als(train)
        ahat, bhat = mar.a[0], mar.b[0]
        num = den = 0.0
        for t in range(2000, 2200):
            x = full.frame(t)
            truth = a @ x @ b.T
            diff = ahat @ x @ bhat.T - truth
            num += np.sum(diff * diff)
            den += np.sum(truth * truth)
        assert np.sqrt(num / den) <= 0.05

    def test_zero_series_zero_loss(self):
        s = GridSeries((3, 3), np.zeros((50, 9)))
        mar = baseline_mar_als(s)
        assert mar.loss[-1] == 0.0
        assert mar.ridge_flagged

    def test_b_unit_frobenius(self):
        gen = np.random.default_rng(54)
        s = GridSeries((4, 4), gen.normal(size=(300, 16)))
        mar = baseline_mar_als(s)
        assert_allclose(np.linalg.norm(mar.b[0]), 1.0, rtol=1e-12)

    def test_iteration_caps(self):
        gen = np.random.default_rng(55)
        s = GridSeries((4, 4), gen.normal(size=(200, 16)))
        mar = baseline_mar_als(s, max_iter=3, tol=1e-300)
        assert mar.n_iter <= 3

    def test_order_zero_refused(self):
        s = GridSeries((3, 3), np.zeros((30, 9)))
        with pytest.raises(ConfigurationError, match="order"):
            baseline_mar_als(s, order=0)

    def test_converged_flag(self):
        gen = np.random.default_rng(55)
        s = GridSeries((4, 4), gen.normal(size=(200, 16)))
        assert not baseline_mar_als(s, max_iter=3, tol=1e-300).converged
        gen = np.random.default_rng(50)
        a = 0.5 * gen.normal(size=(6, 6)) / np.sqrt(6)
        b = 0.5 * gen.normal(size=(6, 6)) / np.sqrt(6)
        kern = mar_kernel_field((6, 6), a, b)
        mar = baseline_mar_als(simulate_liar(kern, 300, NoiseSpec(sigma=1.0, seed=51)),
                               max_iter=200)
        assert mar.converged
        assert mar.n_iter < 200
        with pytest.raises(AttributeError):
            mar.converged = False

    @staticmethod
    def _predictions(mar, series):
        v, p = series.values, mar.order
        return mar.predict([v[p - q : len(v) - q] for q in range(1, p + 1)])

    @pytest.mark.parametrize("order", [1, 2])
    def test_moments_match_frame_sweeps(self, order, monkeypatch):
        # a non-square grid pins the [(i, k), (j, l)] moment layout
        gen = np.random.default_rng(70)
        s = GridSeries((5, 7), gen.normal(size=(150, 35)) + 0.2)
        moments = baseline_mar_als(s, order=order, max_iter=25, tol=1e-300)
        monkeypatch.setattr(liargrid.evaluate, "_MOMENT_BUDGET", 0)
        frames = baseline_mar_als(s, order=order, max_iter=25, tol=1e-300)
        assert moments.n_iter == frames.n_iter == 25
        want = self._predictions(frames, s)
        got = self._predictions(moments, s)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
        assert_allclose(moments.loss, frames.loss, rtol=1e-9)

    @pytest.mark.parametrize("order", [1, 2])
    def test_last_loss_is_explicit_residual(self, order):
        gen = np.random.default_rng(71)
        s = GridSeries((5, 7), gen.normal(size=(150, 35)))
        mar = baseline_mar_als(s, order=order)
        resid = self._predictions(mar, s) - s.values[order:]
        assert_allclose(mar.loss[-1], np.sum(resid * resid), rtol=1e-12)

    def test_zero_site_flags_singular_gram(self):
        # on a one-column grid the zero site is a zero row of every frame,
        # so the A-step's Gram matrix is singular and lstsq takes the step
        gen = np.random.default_rng(72)
        frames = gen.normal(size=(120, 5, 1))
        frames[:, 2, 0] = 0.0
        mar = baseline_mar_als(GridSeries.from_frames(frames))
        assert mar.ridge_flagged
        assert all(np.all(np.isfinite(f)) for f in mar.a + mar.b)
        assert np.isfinite(mar.loss[-1])

    def test_ill_conditioned_gram_solved_from_frames(self, monkeypatch):
        # a row 1e-7 the scale of the others puts the A-step's Cholesky
        # pivots further apart than _GRAM_RCOND allows, so lstsq on the
        # frames takes that step, as it does with no moments at all
        gen = np.random.default_rng(74)
        frames = gen.normal(size=(120, 5, 1))
        frames[:, 2, 0] *= 1e-7
        s = GridSeries.from_frames(frames)
        moments = baseline_mar_als(s, max_iter=10, tol=1e-300)
        monkeypatch.setattr(liargrid.evaluate, "_MOMENT_BUDGET", 0)
        want = baseline_mar_als(s, max_iter=10, tol=1e-300).a[0]
        assert np.max(np.abs(moments.a[0] - want)) <= 1e-12 * np.max(np.abs(want))
        assert not moments.ridge_flagged

    def test_over_budget_grid_never_forms_moments(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("lag moments formed above the budget")

        monkeypatch.setattr(liargrid.evaluate, "_lag_moments", refuse)
        gen = np.random.default_rng(73)
        s = GridSeries((91, 181), gen.normal(size=(4, 91 * 181)))
        mar = baseline_mar_als(s, max_iter=2)
        assert mar.n_iter == 2
        assert np.isfinite(mar.loss[-1])


class TestMarForecast:
    def test_matches_manual_recursion(self):
        gen = np.random.default_rng(60)
        s = GridSeries((3, 3), gen.normal(size=(100, 9)))
        mar = baseline_mar_als(s)
        result = mar_forecast(s, mar, 2)
        x = s.frame(99)
        s1 = mar.a[0] @ x @ mar.b[0].T
        s2 = mar.a[0] @ s1 @ mar.b[0].T
        assert_allclose(result.series.frame(0), s1, atol=1e-12)
        assert_allclose(result.series.frame(1), s2, atol=1e-12)

    def test_holdout_matches_manual(self):
        gen = np.random.default_rng(61)
        s = GridSeries((3, 3), gen.normal(size=(80, 9)))
        for order in (1, 2):
            mar = baseline_mar_als(s.slice_time(0, 70), order=order)
            got = mar_holdout_rmse(s, mar, 10)
            errs = []
            for t in range(70, 80):
                pred = sum(mar.a[q] @ s.frame(t - 1 - q) @ mar.b[q].T
                           for q in range(order))
                errs.append((pred - s.frame(t)).ravel())
            want = float(np.sqrt(np.mean(np.square(errs))))
            assert_allclose(got, want, rtol=1e-12)

    def test_names_are_the_shared_functions(self):
        assert mar_forecast is forecast
        assert mar_holdout_rmse is holdout_rmse

    def test_equals_its_kernel_field(self):
        # a non-square grid pins the column-major frame layout of predict
        gen = np.random.default_rng(62)
        shape = (4, 5)
        s = GridSeries(shape, gen.normal(size=(120, 20)))
        mar = baseline_mar_als(s.slice_time(0, 100))
        kern = mar_kernel_field(shape, mar.a[0], mar.b[0])
        assert_allclose(holdout_rmse(s, mar, 20), holdout_rmse(s, kern, 20),
                        rtol=0, atol=1e-12)
        assert_allclose(forecast(s, mar, 6).series.values,
                        forecast(s, kern, 6).series.values, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(4, 4), (3, 3, 3)])
    def test_wrong_grid_refused(self, shape):
        gen = np.random.default_rng(63)
        mar = baseline_mar_als(GridSeries((3, 3), gen.normal(size=(40, 9))))
        n_sites = int(np.prod(shape))
        s = GridSeries(shape, gen.normal(size=(20, n_sites)))
        with pytest.raises(ConfigurationError, match="grid"):
            forecast(s, mar, 2)
        with pytest.raises(ConfigurationError, match="grid"):
            holdout_rmse(s, mar, 5)
