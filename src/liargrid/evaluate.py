"""Forecasting, error metrics, auto-covariance, and comparison baselines.

Every model type (``KernelField``, ``MarFit``) has one method,
``predict(lagged)``: the one-step conditional mean from the P lagged
frame blocks.  ``forecast`` iterates it with the innovations set to
zero, feeding each prediction into the next step; ``holdout_rmse``
applies it once to the actual history of the held-out frames.
Auto-covariance sub-blocks come from the plain Gram estimator
(1/T) sum_t x_t x_t'.  Baselines: a pixel-wise AR fit (radius-0
neighborhoods) and a bilinear matrix AR model A X B' fitted by
alternating least squares.
"""

import numpy as np

from .errors import ConfigurationError, SizeError
from .fit import _check_order, fit_all
from .grid import GridSeries, _require_2d, sites_to_linear
from .neighborhoods import box_field
from .simulate import _lag_order

_AUTOCOV_CAP = 4_000_000  # entries in one requested block
_MOMENT_BUDGET = 2**28  # bytes of MAR lag moments, above which ALS sweeps the frames
_GRAM_RCOND = 1e-6  # smallest Cholesky pivot ratio a MAR normal-equation solve accepts


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


def _model_order(series, model):
    """Lag order P of a model fitted on the series' grid."""
    if model.shape != series.shape:
        raise ConfigurationError(
            f"model grid {model.shape} does not match series {series.shape}"
        )
    return model.order


def forecast(series, model, horizon, truth=None):
    """Forecast ``horizon`` frames ahead with a fitted model.

    Parameters
    ----------
    series : GridSeries
        History; its last P frames seed the recursion.
    model : KernelField or MarFit
        Must match the series' grid shape.
    horizon : int
    truth : GridSeries or ndarray, optional
        Held-out frames to score against: a series on the same grid, or
        an (h, n_sites) or naturally indexed (h, *shape) array.

    Returns
    -------
    ForecastResult
    """
    p = _model_order(series, model)
    horizon = int(horizon)
    if horizon < 1:
        raise ConfigurationError("horizon must be at least 1")
    if series.n_frames < p:
        raise ConfigurationError(
            f"need at least P={p} frames of history, got {series.n_frames}"
        )
    buf = np.empty((p + horizon, series.n_sites))
    buf[:p] = series.values[series.n_frames - p:]
    for h in range(p, p + horizon):
        buf[h:h + 1] = model.predict([buf[h - lag : h - lag + 1]
                                      for lag in range(1, p + 1)])
    preds = buf[p:]
    out = GridSeries._adopt(series.shape, preds)

    per_frame = overall = None
    if truth is not None:
        tvals = truth.frames if isinstance(truth, GridSeries) else np.asarray(truth, float)
        if tvals.ndim > 2:  # (h, *shape) frames: flatten each column-major, as values are
            if tvals.shape[1:] != series.shape:
                raise ConfigurationError(
                    f"truth grid {tvals.shape[1:]} does not match series grid {series.shape}")
            tvals = tvals.reshape(tvals.shape[0], -1, order="F")
        if tvals.shape != preds.shape:
            raise ConfigurationError(
                f"truth shape {tvals.shape} does not match forecast {preds.shape}"
            )
        diff2 = (preds - tvals) ** 2
        per_frame = np.sqrt(diff2.mean(axis=1))
        overall = float(np.sqrt(diff2.mean()))
    return ForecastResult(out, horizon, per_frame, overall)


def holdout_rmse(series, model, n_test):
    """One-step-ahead prediction RMSE on the last ``n_test`` frames.

    Each held-out frame is predicted from the actual preceding frames
    (not from earlier predictions), so the score reflects pure
    one-step accuracy of the fitted model.

    Parameters
    ----------
    series : GridSeries
        Full series; the fit should have used only the prefix.
    model : KernelField or MarFit
    n_test : int
        Number of trailing frames to score.

    Returns
    -------
    float
    """
    p = _model_order(series, model)
    n_test = int(n_test)
    if not 1 <= n_test <= series.n_frames - p:
        raise ConfigurationError(
            f"n_test must be in [1, {series.n_frames - p}], got {n_test}"
        )
    vals = series.values
    t = vals.shape[0]
    preds = model.predict([vals[t - n_test - lag : t - lag] for lag in range(1, p + 1)])
    return rmse(preds, vals[t - n_test:])


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
    if arr.ndim == 1 and arr.dtype.kind in "iu":
        # already linear indices (on a 1-D grid, a coordinate is its own)
        lin = arr.astype(np.intp)
        if np.any(lin < 0) or np.any(lin >= series.n_sites):
            raise IndexError("linear site index out of range")
        return lin
    if arr.ndim == 1:
        arr = arr[None, :]
    return sites_to_linear(arr.astype(np.intp), series.shape)


def baseline_pixel_ar(series, order=1, n_workers=None):
    """Pixel-wise AR baseline: every neighborhood is the singleton site,
    under the fit's own frame rules (:func:`fit_all`, ``kernels()``)."""
    report = fit_all(series, box_field(series.shape, 0), order=order,
                     n_workers=n_workers, compute_se=False)
    return report.kernels()


class MarFit:
    """Bilinear matrix AR fit: X_t ~ sum_p A_p X_{t-p} B_p'.

    ``a`` and ``b`` hold one matrix per lag; ``loss`` is the training
    loss after each alternating sweep (non-increasing); ``ridge_flagged``
    marks sweeps that needed a tiny ridge to regularize a singular
    subproblem; ``converged`` is True when a sweep met the tolerance or
    the loss reached 0, False when the fit stopped at ``max_iter``.
    Only the products A_p (.) B_p' are identified; the stored factors fix
    the scale by unit-Frobenius B.
    """

    __slots__ = ("order", "a", "b", "loss", "ridge_flagged", "n_iter", "_converged")

    def __init__(self, order, a, b, loss, ridge_flagged, n_iter, converged=False):
        self.order = order
        self.a = a
        self.b = b
        self.loss = loss
        self.ridge_flagged = ridge_flagged
        self.n_iter = n_iter
        self._converged = bool(converged)

    @property
    def converged(self):
        """True when a sweep met ``tol`` or the loss reached 0."""
        return self._converged

    @property
    def shape(self):
        """Grid shape (M, N) of the fitted frames."""
        return (self.a[0].shape[0], self.b[0].shape[0])

    def predict(self, lagged):
        """One-step conditional mean sum_p A_p X_{t-p} B_p'.

        ``lagged`` holds the P lagged blocks, lag 1 first, each
        (n, n_sites) with frames flattened column-major; returns the
        (n, n_sites) predictions in the same layout.
        """
        m, n = self.shape
        pred = None
        for a, b, x in zip(self.a, self.b, lagged):
            term = a @ x.reshape(-1, n, m).transpose(0, 2, 1) @ b.T
            pred = term if pred is None else pred + term
        return pred.transpose(0, 2, 1).reshape(-1, m * n)


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


def _lstsq_step(targets, lagged, fixed):
    """One half-sweep from the frames: the F_q minimizing
    sum_t ||X_t - sum_q F_q X_{t-q} C_q'||^2 for the ``fixed`` C_q, with
    frames (t, k, c); returns the F_q and whether a ridge was needed."""
    tp, k, c = targets.shape
    z = [x @ f.T for x, f in zip(lagged, fixed)]
    design = np.concatenate(z, axis=1).transpose(0, 2, 1).reshape(tp * c, len(z) * k)
    sol, flagged = _stacked_lstsq(design, targets.transpose(0, 2, 1).reshape(tp * c, k))
    return [sol[q * k : (q + 1) * k].T for q in range(len(z))], flagged


def _lag_moments(values, m, n, p):
    """Second moments M_qr = sum_t x_{t-q} x_{t-r}' of the frames, summed
    over the targets t = p..T-1, for 0 <= q <= r <= p except (0, 0).

    Each is stored permuted to [(i, k), (j, l)] order, an (m*m, n*n)
    matrix holding sum_t X_{t-q}[i, j] X_{t-r}[k, l], so the A-step
    contracts it over (j, l) and the B-step, through its transpose, over
    (i, k).
    """
    t = values.shape[0]
    shifted = [values[p - q : t - q] for q in range(p + 1)]  # column-major x_{t-q}
    moments = {}
    for q in range(p + 1):
        for r in range(max(q, 1), p + 1):
            prod = shifted[q].T @ shifted[r]  # [(j, i), (l, k)]
            moments[q, r] = prod.reshape(n, m, n, m).transpose(1, 3, 0, 2).reshape(m * m, n * n)
    return moments


def _normal_equations(moments, fixed, k, transpose):
    """Normal equations F G = R of one half-sweep from the lag moments:
    the A-step (``transpose`` False, ``fixed`` the B_q) or the B-step
    (``transpose`` True, ``fixed`` the A_q).  Returns G, (P*k, P*k)
    symmetric, and R, (k, P*k), for the free k x k factors F = [F_1 ... F_P].
    """
    p = len(fixed)

    def contract(q, r, weights):
        mom = moments[q, r].T if transpose else moments[q, r]
        return (mom @ weights.ravel()).reshape(k, k)

    g = np.empty((p * k, p * k))
    rhs = np.empty((k, p * k))
    for q in range(1, p + 1):
        rows = slice((q - 1) * k, q * k)
        rhs[:, rows] = contract(0, q, fixed[q - 1])
        for r in range(q, p + 1):
            block = contract(q, r, fixed[q - 1].T @ fixed[r - 1])
            g[rows, (r - 1) * k : r * k] = block
            g[(r - 1) * k : r * k, rows] = block.T
    return g, rhs


def _gram_solve(g, rhs):
    """F with F g = rhs, or None when ``g`` fails its Cholesky
    factorization or its pivots span more than 1/_GRAM_RCOND (the design
    is then too ill-conditioned for the normal equations)."""
    try:
        pivots = np.diag(np.linalg.cholesky(g))
    except np.linalg.LinAlgError:
        return None
    if not pivots.min() > _GRAM_RCOND * pivots.max():
        return None
    return np.linalg.solve(g, rhs.T).T


def _residual(targets, lagged, a, b):
    """Explicit training loss sum_t ||X_t - sum_q A_q X_{t-q} B_q'||^2."""
    resid = -targets
    for x, aq, bq in zip(lagged, a, b):
        resid += aq @ (x @ bq.T)
    return float(np.vdot(resid, resid))


def baseline_mar_als(series, order=1, max_iter=1000, tol=1e-7):
    """Fit the bilinear matrix AR model by alternating least squares.

    Starting from B_p = identity, alternately solves for all A_p with B
    fixed and for all B_p with A fixed (each step a linear least-squares
    problem), normalizing each B_p to unit Frobenius norm with the scale
    absorbed into A_p.  Stops when the relative loss change drops below
    ``tol``, when the loss reaches 0 (to rounding), or after ``max_iter``
    sweeps.

    The normal equations of both steps depend on the frames only through
    their lag-0..P second moments (the iterated least squares of Chen,
    Xiao & Yang, J. Econometrics 222, 2021), so those are accumulated
    once and every sweep, its loss included, costs O((MN)^2) whatever T.
    A step whose Gram matrix fails a Cholesky or conditioning test, and
    every step of a grid whose moments would exceed _MOMENT_BUDGET bytes,
    is solved from the frames by stacked least squares instead.  The
    last loss is always an explicit residual.

    Returns
    -------
    MarFit
    """
    _require_2d(series.shape, "the matrix AR baseline")
    if max_iter < 1:
        raise ConfigurationError("max_iter must be at least 1")
    if not tol > 0:
        raise ConfigurationError("tol must be positive")
    p = _lag_order(order)
    frames = series.frames
    t, m, n = frames.shape
    _check_order(p, t)
    targets = frames[p:]
    lagged = [frames[p - q : t - q] for q in range(1, p + 1)]
    # the B-step is the A-step of the transposed frames
    sides = ((targets, lagged, m),
             (targets.transpose(0, 2, 1), [x.transpose(0, 2, 1) for x in lagged], n))
    moments = None
    if 8 * (m * n) ** 2 * (p * (p + 3) // 2) <= _MOMENT_BUDGET:
        moments = _lag_moments(series.values, m, n, p)
        energy = float(np.vdot(series.values[p:], series.values[p:]))  # ||x||^2

    def step(side, fixed, system=None):
        frames_t, lagged_t, k = sides[side]
        if moments is not None:
            g, rhs = system or _normal_equations(moments, fixed, k, side == 1)
            sol = _gram_solve(g, rhs)
            if sol is not None:
                return [sol[:, q * k : (q + 1) * k] for q in range(p)], False
        return _lstsq_step(frames_t, lagged_t, fixed)

    b = [np.eye(n) for _ in range(p)]
    system = None
    flagged = converged = False
    loss = []
    while len(loss) < max_iter:
        a, f1 = step(0, b, system)
        b, f2 = step(1, a)
        for q in range(p):
            scale = float(np.linalg.norm(b[q]))
            if scale > 0:
                b[q] /= scale
                a[q] *= scale
        flagged = flagged or f1 or f2
        if moments is None:
            cur = _residual(targets, lagged, a, b)
        else:  # ||x||^2 - 2<A, R> + <A G, A> from the next A-step's system
            system = g, rhs = _normal_equations(moments, b, m, False)
            a_all = np.concatenate(a, axis=1)
            cur = energy - 2.0 * float(np.vdot(a_all, rhs)) + float(np.vdot(a_all @ g, a_all))
        loss.append(cur)
        if cur <= 1e-300 or (
                len(loss) > 1 and abs(loss[-2] - cur) <= tol * max(loss[-2], 1e-300)):
            converged = True
            break
    if moments is not None:
        moments = system = None  # freed before the residual's temporaries
        loss[-1] = _residual(targets, lagged, a, b)
    return MarFit(p, a, b, loss, flagged, len(loss), converged)


# the matrix AR names of the shared functions, which take a MarFit too
mar_forecast = forecast
mar_holdout_rmse = holdout_rmse
