"""Per-site least squares for local-interaction AR models.

Each site is fit independently: the response is the site's own series,
the regressors are the lagged values of its neighborhood.  Every solve
goes through one kernel: gather [Y z] (groups of sites, all lags per
group) and take its R factor once, never the normal equations.  For any
leading column count, back substitution on the leading block of R gives
the coefficients, the trailing sum of squares of R's last column the
RSS, and the row norms of the block's inverse the standard errors.
Each site brings its nested levels, smallest first: a fixed box is one
level, :mod:`liargrid.select` brings a family.  Rank deficiency is
non-fatal: the minimum-norm solution, read off the same R factor, is
returned with ``cond_flag`` set.

:func:`_solve_sites` runs the kernel in a thread pool, one task per
block of consecutive sites: each task gathers and factors its sites,
then scores and solves them, all sites with the same level sizes at
once.  The factorization is scipy's ``lapack.dgeqrf``, whose wrapper
releases the GIL, so tasks factor in parallel.  The calling thread
only submits blocks and merges their results; OpenBLAS runs on one
thread throughout (:func:`single_threaded_blas`).  Each result is a pure
function of its site's data, the same for any worker count, block or
BLAS thread setting.  ``fit_site``, ``standard_errors`` and
``select_site`` are batches of one.

References
----------
Golub, Van Loan (2013), "Matrix Computations", 4th ed., sec. 5.2-5.3, 5.5.
"""

import collections
import contextlib
import ctypes
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from itertools import groupby

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, LiarError, UnderdeterminedError
from .grid import _JsonArtifact, site_to_linear, sites_to_linear
from .neighborhoods import custom_neighborhood
from .simulate import KernelField, _lag_order

_RANK_TOL = 1e-10  # diagonal ratio below which a design counts as rank-deficient
_BLOCK = 64  # sites per pool task

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
        if env and not env.isdigit():
            raise ConfigurationError(f"LIAR_THREADS must be a positive integer, got {env!r}")
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


def _site_major(series):
    """The series as a read-only (n_sites, T) copy, one contiguous history
    per site: :func:`_gather` then reads whole rows, where the time-major
    values would be read a column at a time with a row stride that, on
    power-of-two grids, makes the reads alias in cache."""
    values = series.values
    panel = np.empty(values.shape[::-1])
    # 64-frame slabs stay in cache; one whole .T copy took 2.6-3.8x as
    # long on 32x32 and 64x64 grids with T=1500
    for t in range(0, values.shape[0], 64):
        panel[:, t : t + 64] = values[t : t + 64].T
    panel.setflags(write=False)
    return panel


def _gather(panel, order, groups, target):
    """Augmented block [Y z] of one site from the site-major ``panel``
    (:func:`_site_major`, or ``series.values.T`` for a single site).

    ``groups`` are arrays of linear site indices; each contributes its
    sites at lags 1..P in turn, so one group gives the lag-major
    :class:`DesignBlock` layout.  The last column is site ``target`` at
    frames P, ..., T-1.
    """
    t = panel.shape[1]
    cols = order * sum(g.size for g in groups)
    aug = np.empty((t - order, cols + 1), order="F")  # geqrf factors it in place
    pos = 0
    for group in groups:
        for p in range(1, order + 1):
            aug[:, pos : pos + group.size] = panel[group, order - p : t - p].T
            pos += group.size
    aug[:, -1] = panel[target, order:]
    return aug


def _factor(aug):
    """R factor of [Y z]: a copy of the leading square block of
    ``scipy.linalg.lapack.dgeqrf``'s output (R in the upper triangle;
    nothing reads the reflectors below), so the gathered block, factored
    in place, can be freed.  The wrapper releases the GIL for the call."""
    return scipy.linalg.lapack.dgeqrf(aug, overwrite_a=True)[0][: aug.shape[1]].copy()


def _trsolve(r, b):
    """``scipy.linalg.solve_triangular(r, b)`` for a C-ordered ``r``: the
    same LAPACK call and flags, so the same bits (for 1x1, both forms
    compute b / r), without the validation around it."""
    return scipy.linalg.lapack.dtrtrs(r.T, b, lower=1, trans=1)[0]


def _scan(r, cols):
    """Trailing sums of squares of the last columns of the stacked R
    factors ``r`` (sites with the same level sizes), summed from the
    bottom, and the RSS of each leading column count in ``cols``.  A block
    failing the rank test takes the minimum-norm fit of its leading
    triangle (Golub & Van Loan, sec. 5.5) and that fit's RSS, as R alone
    would count a degenerate column's rounding noise as explained variance.
    Returns (tail, rss, {(member, level): minimum-norm coeffs})."""
    tail = np.zeros((r.shape[0], r.shape[1] + 1))
    tail[:, :-1] = np.cumsum(r[:, ::-1, -1] ** 2, axis=1)[:, ::-1]
    # the rank test: a leading block's diagonal is empty or zero, or its
    # smallest entry is below _RANK_TOL times its largest
    diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    top = np.maximum.accumulate(diag, axis=1)[:, cols - 1]
    low = np.minimum.accumulate(diag, axis=1)[:, cols - 1]
    deficient = (cols < 1) | ~((top > 0.0) & (low >= _RANK_TOL * top))
    rss, min_norm = tail[:, cols], {}
    for i, lev in np.argwhere(deficient).tolist():
        n = int(cols[lev])
        r11, b = np.triu(r[i, :n, :n]), r[i, :n, -1]  # R, not geqrf's reflectors
        min_norm[i, lev] = np.linalg.lstsq(r11, b, rcond=_RANK_TOL)[0]
        resid = b - r11 @ min_norm[i, lev]
        rss[i, lev] = resid @ resid + tail[i, n]
    return tail, rss, min_norm


def _check_order(order, n_frames):
    """Raise unless ``n_frames`` frames leave rows for a lag-``order`` fit."""
    _lag_order(order)
    if n_frames <= order:
        raise ConfigurationError(
            f"series has {n_frames} frames, need more than the lag order {order}"
        )


def _check_rows(site, n_frames, order, size):
    """Raise unless ``n_frames`` frames identify a lag-``order`` fit of
    ``site`` on ``size`` neighborhood sites."""
    rows, cols = n_frames - order, order * size
    if rows < cols:
        raise UnderdeterminedError(
            f"site {tuple(site)}: {rows} usable rows < {cols} unknowns "
            f"(T={n_frames}, P={order}, |J|={size})"
        )


def assemble_design(series, site, neighborhood, order=1):
    """Build the regression block for one site.

    Requires T - P >= P*s usable rows; fewer raises
    :class:`UnderdeterminedError` naming the counts.
    """
    order = int(order)
    target = site_to_linear(site, series.shape)
    _check_order(order, series.n_frames)
    _check_rows(site, series.n_frames, order, neighborhood.size)
    aug = _gather(series.values.T, order, [neighborhood.linear], target)
    return DesignBlock(tuple(site), neighborhood, order, aug[:, :-1], aug[:, -1])


def fit_site(design):
    """Minimize ||z - Y m||^2 for one design block; a block with fewer
    rows than columns raises :class:`UnderdeterminedError`.

    Full-rank designs (R diagonal ratio >= 1e-10) solve by back
    substitution and carry their plug-in standard errors on ``se``, from
    the same R factor; deficient ones take the minimum-norm solution from
    it and set ``cond_flag``.
    """
    # the block's columns stand in for its sites, so a hand-built block
    # needs no neighborhood; the solver refuses an order below 1
    size = design.y.shape[1] // max(design.order, 1)
    columns = custom_neighborhood(design.site, (size,), np.arange(size)[:, None])
    done, errors = _solve_sites(lambda *_: np.column_stack((design.y, design.z)),
                                [[(0, design.site, [columns])]], design.order,
                                design.y.shape[0], with_se=True)
    if errors:
        raise next(iter(errors.values()))
    fit = done[0][0]
    fit.neighborhood = design.neighborhood
    return fit


def standard_errors(fit, design):
    """Plug-in standard errors sqrt(sigma2 * diag((Y'Y)^-1)).

    Returns None with a warning when the design was rank-deficient.
    Returns ``fit.se`` when the fit carries them from its own R factor,
    as full-rank fits of :func:`fit_site` and ``fit_all`` do; otherwise
    (a fit kept by selection, or one built by hand) factors ``design``
    again and stores the result on ``fit.se``.
    """
    if fit.cond_flag:
        warnings.warn(
            f"site {fit.site}: standard errors omitted for a rank-deficient design",
            stacklevel=2,
        )
        return None
    if fit.se is None:
        fit.se = fit_site(design).se
    return fit.se


def _require_complete(shape, n_fitted, errors):
    """Refuse a partial fit: :class:`UnderdeterminedError` naming the first
    failed site, :class:`ConfigurationError` for sites never requested."""
    n_sites = int(np.prod(shape))
    if errors:
        site, msg = next(iter(errors.items()))
        raise UnderdeterminedError(f"{len(errors)} of {n_sites} sites failed; first: "
                                   f"site {site}: {msg.removeprefix(f'site {site}: ')}")
    if n_fitted != n_sites:
        raise ConfigurationError(f"{n_fitted} of {n_sites} sites fitted; "
                                 f"a kernel field needs every site")


class FitReport(_JsonArtifact):
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
        self.errors = {site: str(err) for site, err in errors.items()}

    def __iter__(self):
        return iter(self.fits.values())

    def __len__(self):
        return len(self.fits)

    def fit_for(self, site):
        return self.fits[site_to_linear(site, self.shape)]

    def kernels(self):
        """Package the fit as a KernelField (requires full site coverage)."""
        _require_complete(self.shape, len(self.fits), self.errors)
        fits = [self.fits[i] for i in range(len(self.fits))]
        return KernelField(self.shape, self.order, [f.neighborhood for f in fits],
                           [f.coeffs_by_lag() for f in fits])

    def _json_fields(self):
        return {
            "shape": list(self.shape),
            "P": self.order,
            "sites": map(_fit_entry, self.fits.values()),
            "errors": {",".join(map(str, k)): v for k, v in self.errors.items()},
        }


def _fit_entry(fit):
    """A fit's entry in the report file."""
    entry = fit.neighborhood.to_dict()
    entry.update(
        coeffs=fit.coeffs_by_lag().tolist(),
        rss=fit.rss,
        sigma2=fit.sigma2,
        se=None if fit.se is None else fit.se.tolist(),
        cond_flag=fit.cond_flag,
    )
    return entry


def _normalize_neighborhood_map(series, neighborhoods):
    """Accept a list or a site->Neighborhood map; return (linear, nb) pairs
    sorted canonically."""
    if isinstance(neighborhoods, dict):
        for site, nb in neighborhoods.items():
            if tuple(site) != nb.center:
                raise ConfigurationError(
                    f"neighborhood for site {tuple(site)} is centered at {nb.center}"
                )
        neighborhoods = neighborhoods.values()
    nbs = list(neighborhoods)
    try:
        centers = np.array([nb.center for nb in nbs], dtype=np.intp)
        centers = centers.reshape(-1, len(series.shape))
        if len(centers) != len(nbs):
            raise IndexError("centers do not have one coordinate per axis")
        linear = sites_to_linear(centers, series.shape)
    except (ValueError, IndexError):
        for nb in nbs:  # raise the first bad center's own message
            site_to_linear(nb.center, series.shape)
        raise
    order = np.argsort(linear, kind="stable")
    linear = linear[order]
    duplicate = np.zeros(len(nbs), dtype=bool)
    duplicate[1:] = linear[1:] == linear[:-1]
    pairs = []
    for lin, dup, i in zip(linear.tolist(), duplicate.tolist(), order.tolist()):
        nb = nbs[i]
        if dup:
            raise ConfigurationError(f"duplicate neighborhood for site {nb.center}")
        if nb.shape != series.shape:
            raise ConfigurationError(
                f"neighborhood at {nb.center} built for shape {nb.shape}, "
                f"series has {series.shape}"
            )
        pairs.append((lin, nb))
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
    panel = _site_major(series)
    sites = [(lin, nb.center, [nb]) for lin, nb in pairs]
    done, errors = _solve_sites(
        lambda lin, groups: _gather(panel, order, groups, lin),
        (sites[a:b] for a, b in _blocks(len(sites))), order, series.n_frames - order,
        with_se=compute_se, n_workers=n_workers)
    fits = {lin: fit for lin, (fit, *_) in done.items()}
    return FitReport(series.shape, order, fits, errors)


def _blocks(n_sites):
    """(start, stop) of each pool task's block of consecutive sites."""
    return ((a, min(a + _BLOCK, n_sites)) for a in range(0, n_sites, _BLOCK))


def _solve_sites(gather, blocks, order, rows, choose=None, with_se=False, n_workers=1):
    """Least squares at each ``(linear, site, levels)`` of ``blocks``, one
    pool task per block (a list of consecutive sites, in canonical order),
    with OpenBLAS on one thread.

    ``levels`` are the site's nested neighborhoods, smallest first (one
    for a fixed fit), or the message of the error that failed the site.
    A task keeps the levels with P*|J| <= ``rows`` (a prefix, as sizes
    grow), fails the site with :func:`_check_rows` when that leaves none,
    and factors ``gather(linear, groups)`` of their level-major column
    groups: level 0's sites, then each level's new ones.  Then, all sites
    with the same kept sizes at once, it forms every kept level's RSS and
    rank test (:func:`_scan`), keeps level 0 or the level that
    ``choose(rss, tail, sizes)`` picks (it returns the picks and a record
    per site), and solves that level off its R factor in lag-major
    neighborhood order: back substitution, with standard errors when
    ``with_se``, or the minimum-norm fit of a deficient level.

    The lag order and frame count are checked once, before any block.
    The calling thread keeps at most ``n_workers`` + 1 blocks queued and
    merges their results in order.  Returns ``{linear: (SiteFit, levels,
    kept sizes, record)}`` and the error manifest: the :class:`LiarError`
    that failed each site.
    """
    _check_order(order, rows + order)

    def solve(block):
        factored, errors = [], {}
        for lin, site, levels in block:
            try:
                if isinstance(levels, str):
                    raise ConfigurationError(levels)
                nbs = list(levels)
                _check_rows(site, rows + order, order, nbs[0].size)
                kept = [nb for nb in nbs if order * nb.size <= rows]
                groups = [kept[0].linear] + [
                    np.setdiff1d(cur.linear, prev.linear, assume_unique=True)
                    for prev, cur in zip(kept, kept[1:])]
                factored.append((tuple(nb.size for nb in kept), lin, site, levels, kept,
                                 groups, _factor(gather(lin, groups))))
            except LiarError as exc:
                errors[site] = exc
        done = {}
        by_sizes = lambda item: item[0]
        for sizes, members in groupby(sorted(factored, key=by_sizes), by_sizes):
            members = list(members)
            cols = order * np.array(sizes)
            r = np.stack([item[-1] for item in members])
            tail, rss, min_norm = _scan(r, cols)
            picks, records = (choose(rss, tail, sizes) if choose is not None
                              else ([0] * len(members), [None] * len(members)))
            for i, ((_, lin, site, levels, kept, groups, _), best) in enumerate(
                    zip(members, picks)):
                best = int(best)
                nb, n_cols = kept[best], int(cols[best])
                flag = (i, best) in min_norm
                coeffs = (min_norm[i, best] if flag else
                          _trsolve(r[i, :n_cols, :n_cols], r[i, :n_cols, -1]))
                rss_i = float(rss[i, best])
                sigma2 = rss_i / (rows - n_cols) if rows > n_cols else 0.0
                if best:  # lag-major neighborhood position of each level-major column
                    dest = np.concatenate([
                        (q - 1) * nb.size + np.searchsorted(nb.linear, group)
                        for group in groups[: best + 1] for q in range(1, order + 1)
                    ])
                    coeffs, level_major = np.empty_like(coeffs), coeffs
                    coeffs[dest] = level_major
                se = None
                if with_se and not flag:  # sqrt(sigma2) * row norms of R's inverse
                    rinv = _trsolve(r[i, :n_cols, :n_cols], np.eye(n_cols))
                    se = np.sqrt(sigma2 * np.cumsum(rinv * rinv, axis=1)[:, -1])
                done[lin] = (SiteFit(site, nb, order, coeffs, rss_i, sigma2, flag, se),
                             levels, sizes, records[i])
        return [(item[1], done[item[1]]) for item in factored], errors

    done, errors = {}, {}

    def merge(result):
        done.update(result[0])
        errors.update(result[1])

    workers = resolve_workers(n_workers)
    with single_threaded_blas():
        if workers <= 1:
            for block in blocks:
                merge(solve(block))
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                queued = collections.deque()  # at most workers + 1 blocks wait
                for block in blocks:
                    queued.append(pool.submit(solve, block))
                    if len(queued) > workers:
                        merge(queued.popleft().result())
                while queued:
                    merge(queued.popleft().result())
    return done, errors
