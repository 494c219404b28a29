"""Forecasting, error metrics, auto-covariance, and comparison baselines.

Forecasts iterate the fitted recursion with the innovations set to zero
(the conditional mean), feeding each prediction into the next step.
Auto-covariance sub-blocks come from the plain Gram estimator
(1/T) sum_t x_t x_t'.  Baselines: a pixel-wise AR fit (radius-0
neighborhoods) and a bilinear matrix AR model A X B' fitted by
alternating least squares.
"""

import numpy as np

from .errors import ConfigurationError, SizeError
from .fit import fit_all
from .grid import GridSeries, sites_to_linear
from .neighborhoods import box_field

_AUTOCOV_CAP = 4_000_000  # entries in one requested block


class ForecastResult:
    """Iterated conditional-mean forecast.

    Attributes
    ----------
    series : GridSeries
        The h predicted frames.
    horizon : int
    per_frame_rmse : ndarray or None
        RMSE of each predicted frame against supplied truth.
    rmse : float or None
        Overall RMSE across all frames and entries.
    """

    __slots__ = ("series", "horizon", "per_frame_rmse", "rmse")

    def __init__(self, series, horizon, per_frame_rmse=None, rmse=None):
        self.series = series
        self.horizon = horizon
        self.per_frame_rmse = per_frame_rmse
        self.rmse = rmse


def rmse(pred, truth):
    """Root mean squared error over all entries; shapes must match."""
    pred = pred.values if isinstance(pred, GridSeries) else np.asarray(pred, float)
    truth = truth.values if isinstance(truth, GridSeries) else np.asarray(truth, float)
    if pred.shape != truth.shape:
        raise ConfigurationError(
            f"prediction shape {pred.shape} does not match truth {truth.shape}"
        )
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def forecast(series, kernels, horizon, truth=None):
    """Forecast ``horizon`` frames ahead with a fitted kernel field.

    Parameters
    ----------
    series : GridSeries
        History; its last P frames seed the recursion.
    kernels : KernelField
        Must match the series' grid shape.
    horizon : int
    truth : GridSeries or ndarray, optional
        Held-out frames to score against ((h, n_sites) or (h, *shape)).

    Returns
    -------
    ForecastResult
    """
    if kernels.shape != series.shape:
        raise ConfigurationError(
            f"kernel grid {kernels.shape} does not match series {series.shape}"
        )
    horizon = int(horizon)
    if horizon < 1:
        raise ConfigurationError("horizon must be at least 1")
    p = kernels.order
    if series.n_frames < p:
        raise ConfigurationError(
            f"need at least P={p} frames of history, got {series.n_frames}"
        )
    ops = kernels.operators()
    state = [series.values[series.n_frames - p + j].copy() for j in range(p)]
    preds = np.empty((horizon, series.n_sites))
    for h in range(horizon):
        x = ops[0] @ state[-1]
        for lag in range(2, p + 1):
            x += ops[lag - 1] @ state[-lag]
        preds[h] = x
        state.append(x)
        del state[0]
    out = GridSeries(series.shape, preds)

    per_frame = overall = None
    if truth is not None:
        tvals = truth.values if isinstance(truth, GridSeries) else np.asarray(truth, float)
        if tvals.ndim > 2:
            tvals = tvals.reshape(tvals.shape[0], -1)
        if tvals.shape != preds.shape:
            raise ConfigurationError(
                f"truth shape {tvals.shape} does not match forecast {preds.shape}"
            )
        diff2 = (preds - tvals) ** 2
        per_frame = np.sqrt(diff2.mean(axis=1))
        overall = float(np.sqrt(diff2.mean()))
    return ForecastResult(out, horizon, per_frame, overall)


def holdout_rmse(series, kernels, n_test):
    """One-step-ahead prediction RMSE on the last ``n_test`` frames.

    Each held-out frame is predicted from the actual preceding frames
    (not from earlier predictions), so the score reflects pure
    one-step accuracy of the fitted kernels.

    Parameters
    ----------
    series : GridSeries
        Full series; the fit should have used only the prefix.
    kernels : KernelField
    n_test : int
        Number of trailing frames to score.

    Returns
    -------
    float
    """
    if kernels.shape != series.shape:
        raise ConfigurationError(
            f"kernel grid {kernels.shape} does not match series {series.shape}"
        )
    n_test = int(n_test)
    p = kernels.order
    if not 1 <= n_test <= series.n_frames - p:
        raise ConfigurationError(
            f"n_test must be in [1, {series.n_frames - p}], got {n_test}"
        )
    vals = series.values
    t = vals.shape[0]
    preds = np.zeros((t - p, vals.shape[1]))
    for lag, op in enumerate(kernels.operators(), start=1):
        preds += vals[p - lag : t - lag] @ op.T
    err = preds[-n_test:] - vals[-n_test:]
    return float(np.sqrt(np.mean(err * err)))


class AutoCovEstimate:
    """Lag-0 auto-covariance sub-block with its requested index sets.

    ``values[a, b]`` estimates Cov(x[rows[a]], x[cols[b]]).  The block is
    symmetric (and PSD as a Gram form) when rows and cols coincide.
    """

    __slots__ = ("rows", "cols", "values")

    def __init__(self, rows, cols, values):
        self.rows = rows
        self.cols = cols
        self.values = values

    def __repr__(self):
        return f"AutoCovEstimate(shape={self.values.shape})"


def autocov(series, rows, cols=None):
    """Lag-0 auto-covariance sub-block (1/T) sum_t x_t[rows] x_t[cols]'.

    ``rows``/``cols`` are site lists (tuples, linear indices, or an
    (m, d) array); ``cols`` defaults to ``rows``.  Requests above 4e6
    entries are refused; ask for sub-blocks instead.

    Returns
    -------
    AutoCovEstimate
    """
    r_lin = _site_list_to_linear(series, rows)
    c_lin = r_lin if cols is None else _site_list_to_linear(series, cols)
    if r_lin.size * c_lin.size > _AUTOCOV_CAP:
        raise SizeError(
            f"requested block has {r_lin.size * c_lin.size} entries "
            f"(cap {_AUTOCOV_CAP}); request sub-blocks instead"
        )
    v = series.values
    block = (v[:, r_lin].T @ v[:, c_lin]) / series.n_frames
    return AutoCovEstimate(r_lin, c_lin, block)


def _site_list_to_linear(series, sites):
    arr = np.asarray(sites)
    if arr.ndim == 1 and arr.dtype.kind in "iu" and len(series.shape) > 1:
        # already linear indices
        lin = arr.astype(np.intp)
        if np.any(lin < 0) or np.any(lin >= series.n_sites):
            raise IndexError("linear site index out of range")
        return lin
    if arr.ndim == 1:
        arr = arr[None, :]
    return sites_to_linear(arr.astype(np.intp), series.shape)


def baseline_pixel_ar(series, order=1, n_workers=None):
    """Pixel-wise AR baseline: every neighborhood is the singleton site."""
    if series.n_frames <= 2 * order:
        raise ConfigurationError(
            f"need more than {2 * order} frames for a lag-{order} pixel AR"
        )
    report = fit_all(series, box_field(series.shape, 0), order=order,
                     n_workers=n_workers, compute_se=False)
    if report.errors:
        site, msg = next(iter(report.errors.items()))
        raise ConfigurationError(f"pixel AR failed at site {site}: {msg}")
    return report.kernels()


class MarFit:
    """Bilinear matrix AR fit: X_t ~ sum_p A_p X_{t-p} B_p'.

    ``a`` and ``b`` hold one matrix per lag; ``loss`` is the training
    loss after each alternating sweep (non-increasing); ``ridge_flagged``
    marks sweeps that needed a tiny ridge to regularize a singular
    subproblem.  Only the products A_p (.) B_p' are identified; the
    stored factors fix the scale by unit-Frobenius B.
    """

    __slots__ = ("order", "a", "b", "loss", "ridge_flagged", "n_iter")

    def __init__(self, order, a, b, loss, ridge_flagged, n_iter):
        self.order = order
        self.a = a
        self.b = b
        self.loss = loss
        self.ridge_flagged = ridge_flagged
        self.n_iter = n_iter


def _stacked_lstsq(design, target):
    """Least squares with a ridge fallback for singular designs."""
    sol, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        k = design.shape[1]
        aug = np.vstack([design, np.sqrt(1e-10) * np.eye(k)])
        pad = np.zeros((k, target.shape[1]))
        sol, _, _, _ = np.linalg.lstsq(aug, np.vstack([target, pad]), rcond=None)
        return sol, True
    return sol, False


def baseline_mar_als(series, order=1, max_iter=50, tol=1e-7):
    """Fit the bilinear matrix AR model by alternating least squares.

    Starting from B_p = identity, alternately solves for all A_p with B
    fixed and for all B_p with A fixed (each step a linear least-squares
    problem), normalizing each B_p to unit Frobenius norm with the scale
    absorbed into A_p.  Stops when the relative loss change drops below
    ``tol`` or after ``max_iter`` sweeps.

    Returns
    -------
    MarFit
    """
    if len(series.shape) != 2:
        raise ConfigurationError("the matrix AR baseline needs a 2-D grid")
    if max_iter < 1:
        raise ConfigurationError("max_iter must be at least 1")
    if not tol > 0:
        raise ConfigurationError("tol must be positive")
    p = int(order)
    frames = series.frames
    t, m, n = frames.shape
    if t <= p:
        raise ConfigurationError("need more frames than the lag order")
    targets = frames[p:]
    lagged = [frames[p - q : t - q] for q in range(1, p + 1)]

    a = [np.zeros((m, m)) for _ in range(p)]
    b = [np.eye(n) for _ in range(p)]
    flagged = False

    def current_loss():
        pred = np.zeros_like(targets)
        for q in range(p):
            pred += a[q] @ (lagged[q] @ b[q].T)
        return float(np.sum((targets - pred) ** 2))

    loss = []
    prev = None
    sweeps = 0
    for _ in range(max_iter):
        # A-step: rows of X_t' stacked over (t, column) on regressors X_{t-q} B_q'
        za = [lagged[q] @ b[q].T for q in range(p)]  # (t-p, m, n) each
        design = np.concatenate(za, axis=1)          # (t-p, p*m, n)
        design = design.transpose(0, 2, 1).reshape((t - p) * n, p * m)
        target = targets.transpose(0, 2, 1).reshape((t - p) * n, m)
        sol, f1 = _stacked_lstsq(design, target)
        for q in range(p):
            a[q] = sol[q * m : (q + 1) * m].T

        # B-step: same system with the roles of rows and columns swapped
        zb = [lagged[q].transpose(0, 2, 1) @ a[q].T for q in range(p)]
        design = np.concatenate(zb, axis=1)
        design = design.transpose(0, 2, 1).reshape((t - p) * m, p * n)
        target = targets.reshape((t - p) * m, n)
        sol, f2 = _stacked_lstsq(design, target)
        for q in range(p):
            b[q] = sol[q * n : (q + 1) * n].T
            scale = float(np.linalg.norm(b[q]))
            if scale > 0:
                b[q] /= scale
                a[q] *= scale

        flagged = flagged or f1 or f2
        cur = current_loss()
        loss.append(cur)
        sweeps += 1
        if prev is not None and abs(prev - cur) <= tol * max(prev, 1e-300):
            break
        if cur <= 1e-300:
            break
        prev = cur
    return MarFit(p, a, b, loss, flagged, sweeps)


def mar_forecast(series, mar, horizon, truth=None):
    """Iterated conditional-mean forecast under a fitted matrix AR model."""
    horizon = int(horizon)
    if horizon < 1:
        raise ConfigurationError("horizon must be at least 1")
    p = mar.order
    frames = series.frames
    if frames.shape[0] < p:
        raise ConfigurationError(f"need at least P={p} frames of history")
    state = [frames[frames.shape[0] - p + j].copy() for j in range(p)]
    preds = np.empty((horizon,) + series.shape)
    for h in range(horizon):
        x = np.zeros(series.shape)
        for q in range(1, p + 1):
            x += mar.a[q - 1] @ state[-q] @ mar.b[q - 1].T
        preds[h] = x
        state.append(x)
        del state[0]
    out = GridSeries.from_frames(preds)
    per_frame = overall = None
    if truth is not None:
        tvals = truth.values if isinstance(truth, GridSeries) else np.asarray(truth, float)
        if tvals.ndim > 2:
            tvals = tvals.reshape(tvals.shape[0], -1)
        if tvals.shape != out.values.shape:
            raise ConfigurationError(
                f"truth shape {tvals.shape} does not match forecast "
                f"{out.values.shape}"
            )
        diff2 = (out.values - tvals) ** 2
        per_frame = np.sqrt(diff2.mean(axis=1))
        overall = float(np.sqrt(diff2.mean()))
    return ForecastResult(out, horizon, per_frame, overall)


def mar_holdout_rmse(series, mar, n_test):
    """One-step-ahead prediction RMSE of a matrix AR fit on the last
    ``n_test`` frames, predicting each from the actual history."""
    n_test = int(n_test)
    p = mar.order
    if not 1 <= n_test <= series.n_frames - p:
        raise ConfigurationError(
            f"n_test must be in [1, {series.n_frames - p}], got {n_test}"
        )
    frames = series.frames
    t = frames.shape[0]
    preds = np.zeros((t - p,) + series.shape)
    for q in range(p):
        preds += mar.a[q] @ frames[p - 1 - q : t - 1 - q] @ mar.b[q].T
    err = preds[-n_test:] - frames[-n_test:]
    return float(np.sqrt(np.mean(err * err)))
