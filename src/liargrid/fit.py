"""Per-site least squares for local-interaction AR models.

Each site is fit independently: the response is the site's own series,
the regressors are the lagged values of its neighborhood.  Every solve
goes through one kernel: gather [Y z] (groups of sites, all lags per
group) and take its R factor once, never the normal equations.  For any
leading column count, back substitution on the leading block of R gives
the coefficients, the trailing sum of squares of R's last column the
RSS, and the row norms of the block's inverse the standard errors.  A
fixed box is one group; :mod:`liargrid.select` passes one group per
nested level.  Rank deficiency is non-fatal: the minimum-norm solution
is returned with ``cond_flag`` set.

``fit_all`` distributes sites over a thread pool.  All inputs are
immutable and every worker writes only its own slot, so the result is a
pure function of (series, neighborhoods, order) regardless of thread
count.  The per-site factorizations are small, so OpenBLAS runs on one
thread for the duration of the call (:func:`single_threaded_blas`):
its own threads would only contend with the pool's.

References
----------
Golub, Van Loan (2013), "Matrix Computations", 4th ed., sec. 5.2-5.3.
"""

import contextlib
import ctypes
import json
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, LiarError, UnderdeterminedError
from .grid import site_to_linear
from .simulate import KernelField

_RANK_TOL = 1e-10  # diagonal ratio below which a design counts as rank-deficient

# (set, get) thread-count symbols of an OpenBLAS build, in the order tried:
# numpy's 64-bit-integer scipy-openblas, scipy's scipy-openblas, plain OpenBLAS.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
_blas_controls = None  # [(set, get), ...] per loaded build; found on first use
_blas_lock = threading.Lock()
_blas_depth = 0  # nesting count of single_threaded_blas across threads
_blas_saved = []  # thread counts to restore when the outermost block exits


def _openblas_thread_controls():
    """(set, get) thread-count functions of every OpenBLAS build loaded in
    this process; empty where none is found (e.g. no ``/proc/self/maps``)."""
    global _blas_controls
    if _blas_controls is None:
        try:
            with open("/proc/self/maps") as fh:
                paths = {line.split()[-1] for line in fh if ".so" in line}
        except OSError:
            paths = set()
        controls = []
        for path in sorted(paths):
            if "openblas" not in os.path.basename(path).lower():
                continue
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for set_sym, get_sym in _BLAS_THREAD_SYMBOLS:
                if hasattr(lib, set_sym) and hasattr(lib, get_sym):
                    set_threads, get_threads = getattr(lib, set_sym), getattr(lib, get_sym)
                    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    controls.append((set_threads, get_threads))
                    break
        _blas_controls = controls
    return _blas_controls


@contextlib.contextmanager
def single_threaded_blas():
    """Run OpenBLAS on one thread inside the block, then restore each
    build's previous thread count.  Nested or concurrent blocks restore
    once, when the last one exits.  Does nothing without OpenBLAS."""
    global _blas_depth, _blas_saved
    with _blas_lock:
        controls = _openblas_thread_controls()
        if _blas_depth == 0:
            _blas_saved = [get() for _, get in controls]
            for set_threads, _ in controls:
                set_threads(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                for (set_threads, _), n in zip(controls, _blas_saved):
                    set_threads(n)


def resolve_workers(n_workers=None):
    """Worker count: explicit arg, else LIAR_THREADS, else cpu count."""
    if n_workers is not None:
        n = int(n_workers)
    else:
        env = os.environ.get("LIAR_THREADS", "").strip()
        n = int(env) if env else (os.cpu_count() or 1)
    if n < 1:
        raise ConfigurationError(f"worker count must be positive, got {n}")
    return n


class DesignBlock:
    """Least-squares block for one site.

    Attributes
    ----------
    site : tuple of int
        Center site.
    neighborhood : Neighborhood
    order : int
        Lag order P.
    y : ndarray, shape (T-P, P*s)
        Row t-P is the concatenation of the neighborhood patches of
        frames t-1, ..., t-P (lag-major, column-major within each patch).
    z : ndarray, shape (T-P,)
        Response: the center site's values at frames P, ..., T-1.
    """

    __slots__ = ("site", "neighborhood", "order", "y", "z")

    def __init__(self, site, neighborhood, order, y, z):
        self.site = site
        self.neighborhood = neighborhood
        self.order = order
        self.y = y
        self.z = z


class SiteFit:
    """Least-squares result for one site.

    ``coeffs`` is the flat estimate of length P*s, lag-major; use
    :meth:`coeffs_by_lag` for the (P, s) view.  ``sigma2`` is the
    residual variance rss/(rows-cols) (0 when there are no spare rows).
    ``se`` holds plug-in standard errors once computed, None otherwise.
    """

    __slots__ = ("site", "neighborhood", "order", "coeffs", "rss", "sigma2",
                 "cond_flag", "se")

    def __init__(self, site, neighborhood, order, coeffs, rss, sigma2,
                 cond_flag, se=None):
        self.site = site
        self.neighborhood = neighborhood
        self.order = order
        self.coeffs = coeffs
        self.rss = rss
        self.sigma2 = sigma2
        self.cond_flag = cond_flag
        self.se = se

    def coeffs_by_lag(self):
        return self.coeffs.reshape(self.order, self.neighborhood.size)

    def __repr__(self):
        return (
            f"SiteFit(site={self.site}, k={self.neighborhood.size}, "
            f"rss={self.rss:.6g}, cond_flag={self.cond_flag})"
        )


def _gather(values, order, groups, target):
    """Augmented block [Y z] of one site.

    ``groups`` are arrays of linear site indices; each contributes its
    sites at lags 1..P in turn, so one group gives the lag-major
    :class:`DesignBlock` layout.  The last column is site ``target`` at
    frames P, ..., T-1.
    """
    t = values.shape[0]
    cols = order * sum(g.size for g in groups)
    aug = np.empty((t - order, cols + 1), order="F")  # geqrf copies it as is
    pos = 0
    for group in groups:
        for p in range(1, order + 1):
            aug[:, pos : pos + group.size] = values[order - p : t - p, group]
            pos += group.size
    aug[:, -1] = values[order:, target]
    return aug


def _factor(aug):
    """R factor of [Y z] and the RSS of every leading column count c,
    ``tail[c]``: the trailing sum of squares of R's last column from row c.

    LAPACK's geqrf through scipy, not ``np.linalg.qr``: the latter keeps
    a 2-worker ``fit_all`` slower than a 1-worker one.
    """
    r = np.triu(scipy.linalg.lapack.dgeqrf(aug)[0][: aug.shape[1]])
    w2 = r[:, -1] ** 2
    tail = np.zeros(w2.size + 1)
    tail[:-1] = np.cumsum(w2[::-1])[::-1]
    return r, tail


def _inverse_row_norms(r):
    """Squared row norms of the inverse of an upper-triangular R."""
    rinv = scipy.linalg.solve_triangular(r, np.eye(r.shape[0]))
    return np.sum(rinv * rinv, axis=1)


def _solve(aug, r, tail, cols, with_se):
    """Regress aug's last column on its leading ``cols`` columns, given
    ``_factor(aug)``.

    Returns (coeffs, rss, sigma2, cond_flag, se).  When the leading R
    diagonal is zero or spans more than 1/_RANK_TOL, the minimum-norm
    ``lstsq`` solution and its explicit residual are returned instead,
    with ``cond_flag`` set and ``se`` None.
    """
    r11 = r[:cols, :cols]
    diag = np.abs(np.diag(r11))
    cond_flag = not (diag.size and diag.max() > 0.0
                     and diag.min() >= _RANK_TOL * diag.max())
    if cond_flag:
        y, z = aug[:, :cols], aug[:, -1]
        coeffs = np.linalg.lstsq(y, z, rcond=_RANK_TOL)[0]
        resid = z - y @ coeffs
        rss = float(resid @ resid)
    else:
        coeffs = scipy.linalg.solve_triangular(r11, r[:cols, -1])
        rss = float(tail[cols])
    dof = aug.shape[0] - cols
    sigma2 = rss / dof if dof > 0 else 0.0
    se = None
    if with_se and not cond_flag:
        se = np.sqrt(sigma2 * _inverse_row_norms(r11))
    return coeffs, rss, sigma2, cond_flag, se


def _site_block(series, site, neighborhood, order):
    """Validated [Y z] of one site in the :class:`DesignBlock` layout."""
    if order < 1:
        raise ConfigurationError("lag order must be at least 1")
    t = series.n_frames
    if t <= order:
        raise ConfigurationError(
            f"series has {t} frames, need more than the lag order {order}"
        )
    s = neighborhood.size
    rows = t - order
    cols = order * s
    if rows < cols:
        raise UnderdeterminedError(
            f"site {tuple(site)}: {rows} usable rows < {cols} unknowns "
            f"(T={t}, P={order}, |J|={s})"
        )
    return _gather(series.values, order, [neighborhood.linear],
                   site_to_linear(site, series.shape))


def assemble_design(series, site, neighborhood, order=1):
    """Build the regression block for one site.

    Requires T - P >= P*s usable rows; fewer raises
    :class:`UnderdeterminedError` naming the counts.
    """
    order = int(order)
    aug = _site_block(series, site, neighborhood, order)
    return DesignBlock(tuple(site), neighborhood, order, aug[:, :-1], aug[:, -1])


def fit_site(design):
    """Minimize ||z - Y m||^2 for one design block.

    Full-rank designs (R diagonal ratio >= 1e-10) solve by back
    substitution; deficient ones fall back to the minimum-norm solution
    and set ``cond_flag``.
    """
    aug = np.column_stack((design.y, design.z))
    r, tail = _factor(aug)
    return SiteFit(design.site, design.neighborhood, design.order,
                   *_solve(aug, r, tail, design.y.shape[1], with_se=False))


def standard_errors(fit, design):
    """Plug-in standard errors sqrt(sigma2 * diag((Y'Y)^-1)).

    Returns None with a warning when the design was rank-deficient.
    The result is also stored on ``fit.se``.
    """
    if fit.cond_flag:
        warnings.warn(
            f"site {fit.site}: standard errors omitted for a rank-deficient design",
            stacklevel=2,
        )
        return None
    cols = design.y.shape[1]
    r, _ = _factor(np.column_stack((design.y, design.z)))
    fit.se = np.sqrt(fit.sigma2 * _inverse_row_norms(r[:cols, :cols]))
    return fit.se


def _kernel_field(shape, order, fits, n_failed):
    """KernelField from per-site fits keyed by linear index; every site
    of the grid must have one."""
    n_sites = int(np.prod(shape))
    if len(fits) != n_sites:
        raise ConfigurationError(
            f"{len(fits)} of {n_sites} sites fitted ({n_failed} failed); "
            f"cannot form a kernel field"
        )
    fits = [fits[i] for i in range(n_sites)]
    return KernelField(shape, order, [f.neighborhood for f in fits],
                       [f.coeffs_by_lag() for f in fits])


class FitReport:
    """Per-site fits in canonical order plus an error manifest.

    ``fits`` maps linear site index -> SiteFit for every site that
    succeeded; ``errors`` maps the center tuple -> message for sites
    that failed.
    """

    __slots__ = ("shape", "order", "fits", "errors")

    def __init__(self, shape, order, fits, errors):
        self.shape = tuple(shape)
        self.order = int(order)
        self.fits = fits
        self.errors = dict(errors)

    def __iter__(self):
        return iter(self.fits.values())

    def __len__(self):
        return len(self.fits)

    def fit_for(self, site):
        return self.fits[site_to_linear(site, self.shape)]

    def kernels(self):
        """Package the fit as a KernelField (requires full site coverage)."""
        return _kernel_field(self.shape, self.order, self.fits, len(self.errors))

    def to_dict(self):
        sites = []
        for fit in self.fits.values():
            entry = fit.neighborhood.to_dict()
            entry.update(
                coeffs=fit.coeffs_by_lag().tolist(),
                rss=fit.rss,
                sigma2=fit.sigma2,
                se=None if fit.se is None else fit.se.tolist(),
                cond_flag=fit.cond_flag,
            )
            sites.append(entry)
        return {
            "shape": list(self.shape),
            "P": self.order,
            "sites": sites,
            "errors": {",".join(map(str, k)): v for k, v in self.errors.items()},
        }

    def save_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)


def _normalize_neighborhood_map(series, neighborhoods):
    """Accept a list or a site->Neighborhood map; return (linear, nb) pairs
    sorted canonically."""
    if isinstance(neighborhoods, dict):
        items = list(neighborhoods.items())
        pairs = [(site_to_linear(site, series.shape), nb) for site, nb in items]
    else:
        pairs = [(site_to_linear(nb.center, series.shape), nb) for nb in neighborhoods]
    pairs.sort(key=lambda x: x[0])
    seen = set()
    for lin, nb in pairs:
        if lin in seen:
            raise ConfigurationError(
                f"duplicate neighborhood for site {nb.center}"
            )
        seen.add(lin)
        if nb.shape != series.shape:
            raise ConfigurationError(
                f"neighborhood at {nb.center} built for shape {nb.shape}, "
                f"series has {series.shape}"
            )
    return pairs


def fit_all(series, neighborhoods, order=1, n_workers=None, compute_se=True):
    """Fit every requested site independently, in parallel.

    Parameters
    ----------
    series : GridSeries
    neighborhoods : list of Neighborhood or dict site -> Neighborhood
        Sites to fit; a full canonical list fits the whole grid.
    order : int
        Lag order P.
    n_workers : int, optional
        Threads; defaults to LIAR_THREADS or the machine's cpu count.
        OpenBLAS runs single-threaded for the call whatever the count.
    compute_se : bool
        Attach plug-in standard errors to each clean fit.

    Returns
    -------
    FitReport
        Successful fits in canonical order; per-site failures collected
        in ``report.errors`` rather than raised.
    """
    order = int(order)
    pairs = _normalize_neighborhood_map(series, neighborhoods)
    workers = resolve_workers(n_workers)

    def work(pair):
        lin, nb = pair
        center = tuple(nb.center)
        try:
            aug = _site_block(series, center, nb, order)
            r, tail = _factor(aug)
            fit = SiteFit(center, nb, order,
                          *_solve(aug, r, tail, aug.shape[1] - 1, compute_se))
            return lin, fit, None
        except LiarError as exc:
            return lin, None, (center, str(exc))

    with single_threaded_blas():
        if workers == 1 or len(pairs) <= 1:
            results = [work(p) for p in pairs]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(work, pairs, chunksize=max(1, len(pairs) // (8 * workers))))

    fits, errors = {}, {}
    for lin, fit, err in results:
        if fit is not None:
            fits[lin] = fit
        else:
            errors[err[0]] = err[1]
    return FitReport(series.shape, order, fits, errors)
