"""Per-site least squares for local-interaction AR models.

Each site is fit independently: the response is the site's own series,
the regressors are the lagged values of its neighborhood.  Every solve
goes through one kernel: take the R factor of the augmented block
[Y z] (groups of sites, all lags per group) once.  For any leading
column count, back substitution on the leading block of R gives the
coefficients, the trailing sum of squares of R's last column the RSS,
and the row norms of the block's inverse the standard errors.  Each
site brings its nested levels, smallest first: a fixed box is one
level, :mod:`liargrid.select` brings a family.  Rank deficiency is
non-fatal: the minimum-norm solution, read off the same R factor, is
returned with ``cond_flag`` set.

R comes one of two ways.  Selection, and a ``fit_all`` of box
neighborhoods at every site of the grid, take the Cholesky factor of
the Gram [Y z]'[Y z], which is R up to row signs: the grid's sample lag
moments, which neighboring sites share, are formed once
(:func:`_lag_moments`), each site's Gram is read off them, and all
sites with the same level sizes are factored in one batched call (the
moment form of conditional least squares: Brockwell & Davis 1991, sec.
8.1).  That squares the design's condition number (Higham 2002, ch.
20), so a guard sends each site whose factor it doubts back to QR.
Every other request (some of the grid's sites, a non-box neighborhood,
``fit_site``, ``standard_errors``) gathers [Y z] and takes its QR
factor, never the normal equations.

:func:`_solve_sites` runs the kernel on an in-order pool.  On the QR
path there is one task per block of consecutive sites: each task
gathers and factors its sites, then scores and solves them, all sites
with the same level sizes at once, and those that keep the same level
in one batched solve (:func:`_solve_levels`).  Every factorization and
solve is numpy's LAPACK, whose calls release the GIL, so tasks factor
in parallel; the module never imports scipy.  The moment path splits
the moment products across the pool and solves its blocks on the
calling thread.  OpenBLAS runs on one thread throughout
(:func:`single_threaded_blas`).  Each result is a pure function of its
site's data, the same for any worker count, block or BLAS thread
setting: a batched LAPACK call factors or solves each matrix of its
stack alone.  ``fit_site``, ``standard_errors`` and ``select_site`` are
batches of one.

References
----------
Brockwell, Davis (1991), "Time Series: Theory and Methods", 2nd ed., sec. 8.1.
Golub, Van Loan (2013), "Matrix Computations", 4th ed., sec. 5.2-5.3, 5.5.
Higham (2002), "Accuracy and Stability of Numerical Algorithms", 2nd ed., ch. 20.
"""

import contextlib
import warnings
from itertools import groupby, product

import numpy as np

from ._threads import _in_order, resolve_workers, single_threaded_blas
from .errors import ConfigurationError, LiarError, UnderdeterminedError
from .grid import _JsonArtifact, site_to_linear, sites_to_linear
from .neighborhoods import _box_sites, _grid_centers, custom_neighborhood
from .simulate import KernelField, _lag_order

_RANK_TOL = 1e-10  # diagonal ratio below which a design counts as rank-deficient
_BLOCK = 64  # sites per pool task
# grid-line sites per moment product (see _lag_moments): on a 91x181 grid,
# T=960, radius 3, select_all took 4.4 s at 128, 5.0 at 64, 6.0 at 32 and
# 8.3 at 16 on 2 cores (wide products waste the entries outside their band
# but run at several times the rate), and a lone select_site 28, 16 and 13 ms
_TILE = 128
# a Cholesky factor of moments goes back to QR when its diagonal ratio is at
# most _GUARD_RATIO or its last pivot squared at most _GUARD_FIT times z'z:
# there its coefficients and RSS stay within about 1e-9 (relative) of the QR's,
# and simulated fields sit near 0.8 and 0.6
_GUARD_RATIO = 1e-3
_GUARD_FIT = 1e-6


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


def _gather(panel, order, groups, target):
    """Augmented block [Y z] of one site from ``panel``, the series'
    ``values.T`` (one row per site).

    ``groups`` are arrays of linear site indices; each contributes its
    sites at lags 1..P in turn, so one group gives the lag-major
    :class:`DesignBlock` layout.  The last column is site ``target`` at
    frames P, ..., T-1.
    """
    t = panel.shape[1]
    cols = order * sum(g.size for g in groups)
    aug = np.empty((t - order, cols + 1), order="F")  # LAPACK's layout, copied as is
    pos = 0
    for group in groups:
        for p in range(1, order + 1):
            aug[:, pos : pos + group.size] = panel[group, order - p : t - p].T
            pos += group.size
    aug[:, -1] = panel[target, order:]
    return aug


def _factor(aug):
    """R factor of [Y z] (min(rows, cols) rows, zero below the diagonal):
    LAPACK ``dgeqrf`` through ``np.linalg.qr``, which releases the GIL for
    the call."""
    return np.linalg.qr(aug, mode="r")


def _inverse(tri):
    """Inverses of the stacked upper triangles ``tri``, a row at a time
    from the bottom: row i of R^-1 is (e_i - R[i, i+1:] R^-1[i+1:]) /
    R[i, i] (Golub & Van Loan, sec. 3.1).  A third of the flops of an LU
    inverse.  The triangles are copied C-ordered, so each matrix's
    products are fixed by its size alone, whatever the stack's layout."""
    tri = np.ascontiguousarray(tri)
    inv = np.zeros_like(tri)
    neg = -np.diagonal(tri, axis1=1, axis2=2)[:, :, None, None]
    for i in range(tri.shape[1] - 1, -1, -1):
        row = inv[:, i, None, i:]  # [-1, R[i, i+1:] R^-1[i+1:]] / -R[i, i]
        np.matmul(tri[:, i, None, i + 1 :], inv[:, i + 1 :, i + 1 :], out=row[:, :, 1:])
        row[:, 0, 0] = -1.0
        row /= neg[:, i]
    return inv


def _solve_levels(r, cols, picks, min_norm, with_se):
    """Level-major coefficients of each stacked R factor's picked level,
    and, when ``with_se``, the diagonal of that level's (R'R)^-1 (None for
    a deficient level or without ``with_se``).  ``r`` are the factors of
    one size class, ``cols`` the leading column count of each level,
    ``picks`` the level per member and ``min_norm`` the minimum-norm fits
    of :func:`_scan`, which deficient levels take.  The members that keep
    the same full-rank level are solved at once: one batched
    ``np.linalg.solve`` with their leading triangles and, with
    ``with_se``, one batched :func:`_inverse`, whose squared row norms are
    the diagonal."""
    coeffs, var = [None] * len(r), [None] * len(r)
    for lev in np.unique(picks).tolist():
        full = []
        for i in np.flatnonzero(picks == lev).tolist():
            if (i, lev) in min_norm:
                coeffs[i] = min_norm[i, lev]
            else:
                full.append(i)
        if full:
            n = int(cols[lev])
            tri = r[full, :n, :n]
            solved = np.linalg.solve(tri, r[full, :n, -1:])[:, :, 0]
            sums = (np.cumsum(np.square(_inverse(tri)), axis=2)[:, :, -1] if with_se
                    else [None] * len(full))
            for i, c, v in zip(full, solved, sums):
                coeffs[i], var[i] = c, v
    return coeffs, var


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
        # a C-ordered copy: the moment path's factors are transposed views,
        # and a matrix product rounds by its operand's layout
        r11, b = np.triu(r[i, :n, :n]), r[i, :n, -1]
        min_norm[i, lev] = np.linalg.lstsq(r11, b, rcond=_RANK_TOL)[0]
        resid = b - r11 @ min_norm[i, lev]
        rss[i, lev] = resid @ resid + tail[i, n]
    return tail, rss, min_norm


def _band(coords, h):
    """Keys of the offsets -h..h per axis, numbered column-major, between
    sites at ``coords``: the offset from site a to site b is column
    ``row[a] + col[b]`` of a flattened (site, offset) table.  Returns
    (row, col, offsets per site)."""
    steps = np.cumprod(np.r_[1, 2 * h + 1])
    col = coords @ steps[:-1]
    return np.arange(len(coords)) * steps[-1] - col + h @ steps[:-1], col, int(steps[-1])


class _Moments:
    """Sample lag moments of a series over its usable frames t = P..T-1,
    one row per site of ``sites`` (sorted linear indices; every site of
    the grid when None) and one column per offset δ of a band:
    ``yy[p-1, q-1, a, δ]`` is sum_t x_a(t-p) x_{a+δ}(t-q) for lags p, q =
    1..P and |δ| <= ``h2`` per axis, ``yz[q-1, c, δ]`` is sum_t x_c(t)
    x_{c+δ}(t-q) for |δ| <= ``h1``, and ``zz[c]`` is sum_t x_c(t)^2.  The
    entry of sites a and b, at table rows i and j (:meth:`at`), sits at
    ``row[i] + col[j]`` of its flattened (row, offset) table, with the
    :func:`_band` keys ``row2, col2`` of ``h2`` or ``row1, col1`` of
    ``h1``.  Entries that no request reached stay zero."""

    __slots__ = ("sites", "row1", "col1", "row2", "col2", "yy", "yz", "zz")

    def __init__(self, order, shape, h1, h2, sites=None):
        self.sites = sites
        coords = (_grid_centers(shape) if sites is None
                  else np.stack(np.unravel_index(sites, shape, order="F"), axis=1))
        self.row1, self.col1, size1 = _band(coords, h1)
        self.row2, self.col2, size2 = _band(coords, h2)
        self.yy = np.zeros((order, order, len(coords), size2))
        self.yz = np.zeros((order, len(coords), size1))
        self.zz = np.zeros(len(coords))

    def at(self, lin):
        """Table rows of the linear sites ``lin``."""
        return lin if self.sites is None else np.searchsorted(self.sites, lin)

    def grams(self, centers, sites, lags):
        """Augmented Grams [Y z]'[Y z], one per entry of ``centers`` (the
        linear response sites), whose columns are the linear ``sites[i]``
        at lags ``lags`` (shared), read off the tables by index arithmetic."""
        cols, centers, sites = len(lags), self.at(centers), self.at(sites)
        pair = ((lags[:, None] - 1) * len(self.yy) + lags - 1) * self.yy[0, 0].size
        gram = np.empty((len(centers), cols + 1, cols + 1))
        gram[:, :cols, :cols] = self.yy.reshape(-1)[
            pair + self.row2[sites][:, :, None] + self.col2[sites][:, None, :]]
        gram[:, cols, :cols] = gram[:, :cols, cols] = self.yz.reshape(-1)[
            (lags - 1) * self.yz[0].size + self.row1[centers][:, None] + self.col1[sites]]
        gram[:, cols, cols] = self.zz[centers]
        return gram


def _lag_moments(values, shape, order, reach, centers, workers):
    """The :class:`_Moments` of a (T, n_sites) series ``values`` that the
    Grams of boxes of per-axis radii ``reach`` around the linear sites
    ``centers`` (every site when None) are made of.

    A grid line is the sites that share every coordinate but the first,
    consecutive in linear order; lines are cut into tiles of at most
    ``_TILE`` sites.  Each moment entry comes from one BLAS-3 product over
    the T-P usable frames, fixed by the two tiles holding its two sites and
    its lag pair and never by the sites that asked for it, so any request
    gives an entry the same bits.  Equal lags take one tile order and read
    the other off its transpose.  A product keeps the band of offsets it
    feeds (up to twice the reach, clipped to n - 1 per axis, as in
    ``_box_sites``) and is freed.  Given ``centers``, the table holds the
    sites of the tiles their boxes touch, and only those tiles' products
    are formed.  One task per row tile on the in-order pool; tasks write
    disjoint entries.
    """
    t, grid, shape = values.shape[0], tuple(shape), np.array(shape)
    n0 = int(shape[0])
    n_tiles = -(-n0 // _TILE)
    tile_of = lambda lin: lin // n0 * n_tiles + lin % n0 // _TILE
    reach = np.minimum(reach, shape - 1)  # offsets beyond n - 1 never land on the grid
    h1, h2 = reach, np.minimum(2 * reach, shape - 1)

    def start(g):
        return g // n_tiles * n0 + g % n_tiles * _TILE

    def width(g):
        return min(_TILE, n0 - g % n_tiles * _TILE)

    if centers is None:
        near = centred = None
        rows = range(n_tiles * int(np.prod(shape[1:])))
        m = _Moments(order, grid, h1, h2)
        base = start  # table row of each tile's first site
    else:  # the tiles of the centers' boxes
        coords = np.stack(np.unravel_index(centers, grid, order="F"), axis=1)
        box = _box_sites(coords, grid, tuple(reach.tolist()))[1]
        rows = np.unique(tile_of(box)).tolist()
        near, centred = set(rows), set(tile_of(np.asarray(centers)).tolist())
        sites = np.concatenate([np.arange(start(g), start(g) + width(g)) for g in rows])
        m = _Moments(order, grid, h1, h2, sites)
        base = dict(zip(rows, np.cumsum([0] + [width(g) for g in rows]).tolist())).__getitem__
    line_steps = np.cumprod(np.r_[1, shape[1:]])[:-1]
    pairs = {}

    def partners(g, h):
        """Each tile of ``near`` within the band ``h`` of tile ``g``, with
        the positions in the two tiles, and the table rows, that the band
        pairs."""
        line, k = divmod(g, n_tiles)
        for shift in product(*(range(-x, x + 1) for x in h[1:].tolist())):
            there = line // line_steps % shape[1:] + shift
            if ((there < 0) | (there >= shape[1:])).any():
                continue
            for k2 in range(max(k * _TILE - h[0], 0) // _TILE,
                            min(k * _TILE + _TILE - 1 + h[0], n0 - 1) // _TILE + 1):
                g2 = int(there @ line_steps) * n_tiles + k2
                if near is not None and g2 not in near:
                    continue
                key = (k, k2, int(h[0]))
                if key not in pairs:  # two tasks may both fill it, with equal arrays
                    a, a2 = k * _TILE, k2 * _TILE
                    gap = (np.arange(a2, min(a2 + _TILE, n0))
                           - np.arange(a, min(a + _TILE, n0))[:, None])
                    pairs[key] = np.nonzero(np.abs(gap) <= h[0])
                i, j = pairs[key]
                yield g2, i, j, base(g) + i, base(g2) + j

    def lagged(p, g):  # tile g at lag p over the usable frames
        return values[order - p : t - p, start(g) : start(g) + width(g)]

    def tile(g):
        if centred is None or g in centred:
            now = lagged(0, g)
            m.zz[base(g) : base(g) + now.shape[1]] = np.einsum("ij,ij->j", now, now)
            for g2, i, j, a, b in partners(g, h1):
                for q in range(1, order + 1):
                    c = (now.T @ lagged(q, g2))[i, j]
                    m.yz[q - 1].reshape(-1)[m.row1[a] + m.col1[b]] = c
        for g2, i, j, a, b in partners(g, h2):
            for p in range(1, order + 1):
                for q in range(p, order + 1):
                    if p == q and g2 < g:  # the transpose of tile g2's product
                        continue
                    c = (lagged(p, g).T @ lagged(q, g2))[i, j]
                    m.yy[p - 1, q - 1].reshape(-1)[m.row2[a] + m.col2[b]] = c
                    if p < q or g2 > g:
                        m.yy[q - 1, p - 1].reshape(-1)[m.row2[b] + m.col2[a]] = c

    # tasks return nothing, so all are queued at once: no worker waits for
    # this thread to queue the next
    for _ in (map(tile, rows) if workers <= 1 else _in_order(tile, rows, workers, len(rows))):
        pass
    return m


def _cholesky(grams):
    """Upper Cholesky factors of the stacked ``grams`` (transposed views
    of the lower ones, which LAPACK forms faster here), NaN where one is
    not numerically positive definite.  Each matrix is one LAPACK call,
    alone or in a stack, so its factor has the same bits in any batch."""
    try:
        low = np.linalg.cholesky(grams)
    except np.linalg.LinAlgError:
        low = np.full_like(grams, np.nan)
        for i, gram in enumerate(grams):
            with contextlib.suppress(np.linalg.LinAlgError):
                low[i] = np.linalg.cholesky(gram)
    return low.transpose(0, 2, 1)


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
    order = _lag_order(order)
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
    # the block's columns stand in for its sites, on a line of at least one
    # site, so a hand-built block needs no neighborhood; the solver refuses
    # an order below 1
    size = design.y.shape[1] // max(design.order, 1)
    columns = custom_neighborhood(design.site, (max(size, 1),), np.arange(size)[:, None])
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
        self.order = _lag_order(order)
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

    A request of box neighborhoods (``radii`` set) at every site of the
    grid is solved off the grid's lag moments: P^2 (4K+1)^d + P (2K+1)^d
    + 1 doubles per site of a d-axis grid, for K the largest radius, per
    axis, of a box that T frames identify (each 4K+1 and 2K+1 capped at
    2n-1 on an axis of n sites).  A site whose Gram factor the guard
    doubts, and any other request, is gathered and factored by QR.

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
    order = _lag_order(order)
    pairs = _normalize_neighborhood_map(series, neighborhoods)
    sites = [(lin, nb.center, [nb]) for lin, nb in pairs]
    # a whole grid of boxes is solved off moments as far as the boxes that T
    # frames identify (the others fail unfactored)
    boxes = len(pairs) == series.n_sites and all(nb.radii is not None for _, nb in pairs)
    fitted = [nb.radii for _, nb in pairs if order * nb.size <= series.n_frames - order]
    moments = (series, np.max(fitted, axis=0), None) if boxes and fitted else None
    panel = series.values.T
    done, errors = _solve_sites(
        lambda lin, groups: _gather(panel, order, groups, lin),
        (sites[a:b] for a, b in _blocks(len(sites))), order, series.n_frames - order,
        with_se=compute_se, n_workers=n_workers, moments=moments)
    fits = {lin: fit for lin, (fit, *_) in done.items()}
    return FitReport(series.shape, order, fits, errors)


def _blocks(n_sites):
    """(start, stop) of each pool task's block of consecutive sites."""
    return ((a, min(a + _BLOCK, n_sites)) for a in range(0, n_sites, _BLOCK))


def _solve_sites(gather, blocks, order, rows, choose=None, with_se=False, n_workers=1,
                 moments=None):
    """Least squares at each ``(linear, site, levels)`` of ``blocks``, one
    pool task per block (a list of consecutive sites, in canonical order),
    with OpenBLAS on one thread.

    ``levels`` are the site's nested neighborhoods, smallest first (one
    for a fixed fit), or the message of the error that failed the site.
    A task keeps the levels with P*|J| <= ``rows`` (a prefix, as sizes
    grow), fails the site with :func:`_check_rows` when that leaves none,
    and takes the R factor of [Y z] with the level-major column groups:
    level 0's sites, then each level's new ones.  A site with more kept
    levels than one reads its groups, and the chosen level's column order,
    off one array: the first kept level holding each site of the largest.
    Then, all sites with the same kept sizes at once, it forms every kept
    level's RSS and rank test (:func:`_scan`), keeps level 0 or the level
    that ``choose(rss, tail, sizes)`` picks (it returns the picks and a
    record per site), and solves that level off its R factor in lag-major
    neighborhood order (:func:`_solve_levels`): a batched solve per kept
    level, with standard errors when ``with_se``, or the minimum-norm fit
    of a deficient level.

    R is the QR factor of ``gather(linear, groups)`` (:func:`_factor`),
    unless ``moments`` is given: ``(series, reach, centers)``, whose
    :func:`_lag_moments` are formed once, before any block.  Then the
    Grams of a size class are read off them and factored in one batched
    Cholesky, and a site goes back to the QR factor when its Gram is not
    numerically positive definite, its diagonal ratio is at most
    ``_GUARD_RATIO``, or its last pivot squared is at most ``_GUARD_FIT``
    times z'z (an exact or near-exact fit).  Every rank-deficient site
    is among them.

    The lag order and frame count are checked once, before any block.
    The calling thread keeps at most ``n_workers`` blocks pending and
    merges their results in order; with ``moments`` the pool forms the
    moments and the calling thread solves the blocks.  Returns
    ``{linear: (SiteFit, levels, kept sizes, record)}`` and the error
    manifest: the :class:`LiarError` that failed each site.
    """
    _check_order(order, rows + order)

    def factor(members, pos, lags):
        """Stacked R factors of one size class's ``(sizes, linear, ...,
        groups)`` off the moments, whose level-major columns are the
        ``pos``-th site of the concatenated groups at lag ``lags``."""
        sites = np.stack([np.concatenate(item[-1]) for item in members])[:, pos]
        gram = table.grams(np.array([item[1] for item in members]), sites, lags)
        r = _cholesky(gram)
        diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
        sure = ((diag[:, :-1].min(axis=1) > _GUARD_RATIO * diag[:, :-1].max(axis=1))
                & (diag[:, -1] ** 2 > _GUARD_FIT * gram[:, -1, -1]))
        for i in np.flatnonzero(~sure).tolist():  # NaN fails both tests
            # a level with as many unknowns as rows has a wide block, whose
            # factor lacks R's last rows: they are zero
            qr = _factor(gather(members[i][1], members[i][-1]))
            r[i] = 0.0
            r[i, : len(qr)] = qr
        return r

    def solve(block):
        planned, errors = [], {}
        for lin, site, levels in block:
            try:
                if isinstance(levels, str):
                    raise ConfigurationError(levels)
                nbs = list(levels)
                _check_rows(site, rows + order, order, nbs[0].size)
                kept = [nb for nb in nbs if order * nb.size <= rows]
                first, groups = None, [kept[0].linear]
                if len(kept) > 1:
                    largest = kept[-1].linear
                    first = np.full(largest.size, len(kept) - 1)
                    for j in range(len(kept) - 2, -1, -1):
                        first[np.searchsorted(largest, kept[j].linear)] = j
                    groups += [largest[first == j] for j in range(1, len(kept))]
                # the QR path factors each site at once, the moment path per class
                planned.append((tuple(nb.size for nb in kept), lin, site, levels, kept, first,
                                groups if table is not None else _factor(gather(lin, groups))))
            except LiarError as exc:
                errors[site] = exc
        done = {}
        by_sizes = lambda item: item[0]
        for sizes, members in groupby(sorted(planned, key=by_sizes), by_sizes):
            members, cols = list(members), order * np.array(sizes)
            bounds = list(zip((0,) + sizes, sizes))
            pos = np.concatenate([np.tile(np.arange(a, b), order) for a, b in bounds])
            lags = np.concatenate([np.repeat(np.arange(1, order + 1), b - a)
                                   for a, b in bounds])
            r = (factor(members, pos, lags) if table is not None
                 else np.stack([item[-1] for item in members]))
            tail, rss, min_norm = _scan(r, cols)
            picks, records = (choose(rss, tail, sizes) if choose is not None
                              else (np.zeros(len(members), dtype=int), [None] * len(members)))
            solved, var = _solve_levels(r, cols, picks, min_norm, with_se)
            for i, ((_, lin, site, levels, kept, first, _), best, coeffs, v) in enumerate(
                    zip(members, picks.tolist(), solved, var)):
                nb, n_cols = kept[best], int(cols[best])
                flag = (i, best) in min_norm
                rss_i = float(rss[i, best])
                sigma2 = rss_i / (rows - n_cols) if rows > n_cols else 0.0
                if best:  # lag-major neighborhood position of each level-major column
                    # nb.linear's positions in level-major order
                    at = np.argsort(first[first <= best], kind="stable")
                    coeffs, level_major = np.empty_like(coeffs), coeffs
                    coeffs[(lags[:n_cols] - 1) * nb.size + at[pos[:n_cols]]] = level_major
                se = None if v is None else np.sqrt(sigma2 * v)
                done[lin] = (SiteFit(site, nb, order, coeffs, rss_i, sigma2, flag, se),
                             levels, sizes, records[i])
        return [(item[1], done[item[1]]) for item in planned], errors

    done, errors = {}, {}
    workers = resolve_workers(n_workers)
    with single_threaded_blas():
        table = None if moments is None else _lag_moments(
            moments[0].values, moments[0].shape, order, *moments[1:], workers)
        # one worker solves here: a pool costs more to start than a small
        # site's fit.  Blocks factored off moments are solved here too: their
        # work is mostly Python that holds the GIL, and a pool of them ran
        # slower at 2 workers than at 1
        for found, failed in (map(solve, blocks) if workers <= 1 or table is not None
                              else _in_order(solve, blocks, workers, workers)):
            done.update(found)
            errors.update(failed)
    return done, errors
