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

:func:`_solve_sites` plans the columns of about a thousand sites at a
time from arrays of their levels (:class:`_Plan`) and runs the kernel on
an in-order pool.  On the QR path there is one task per batch of sites
with the same level sizes: each task gathers and factors its sites,
then scores and solves them at once, those that keep the same level in
one batched solve (:func:`_solve_levels`); the results are kept as
arrays in site order (:class:`_Solved`).  Every factorization and
solve is numpy's LAPACK, whose calls release the GIL, so tasks factor
in parallel; the module never imports scipy.  The moment path splits
the moment products across the pool and solves its batches on the
calling thread.  OpenBLAS runs on one thread throughout
(:func:`single_threaded_blas`).  Each result is a pure function of its
site's data, the same for any worker count, batch or BLAS thread
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
from collections.abc import Mapping
from itertools import product

import numpy as np

from ._threads import _in_order, resolve_workers, single_threaded_blas
from .errors import ConfigurationError, LiarError, UnderdeterminedError
from .grid import _JsonArtifact, linear_to_site, site_to_linear, sites_to_linear
from .neighborhoods import _box_sites, _grid_centers, _view
from .simulate import KernelField, _lag_order, _site_blocks

_RANK_TOL = 1e-10  # diagonal ratio below which a design counts as rank-deficient
_BLOCK = 64  # sites per batch of one size class: per pool task, or per stack of Grams
_PLAN = 1024  # sites planned at once (see _Plan)
# Gram entries per batch, at most: a batch of 64 sites with 49-site boxes
# (50x50 Grams) raised select_pow2's peak RSS by 1.2 MB over 52 of them
_GRAM_BATCH = 52 * 50**2
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
        at lags ``lags`` (shared), read off the tables by index arithmetic.
        The lower triangle is read and mirrored: the Cholesky factor reads
        no other entry, so its bits do not depend on whether a symmetric
        product's two halves agree bitwise."""
        cols, centers, sites = len(lags), self.at(centers), self.at(sites)
        # the table of lags (p, q) starts at ((p - 1) P + q - 1) times its size
        lag = (lags - 1) * self.yy[0, 0].size
        row, col = np.tril_indices(cols)
        gram = np.empty((len(centers), cols + 1, cols + 1))
        gram[:, col, row] = gram[:, row, col] = self.yy.reshape(-1)[
            (self.row2[sites] + len(self.yy) * lag)[:, row] + (self.col2[sites] + lag)[:, col]]
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
    # the block's columns stand in for its sites; the solver refuses an
    # order below 1
    size = design.y.shape[1] // max(design.order, 1)
    request = (np.zeros(1, dtype=np.intp), np.array([design.site]),
               [(np.arange(size), np.array([0, size]))], None, {})
    solved, errors = _solve_sites(lambda *_: np.column_stack((design.y, design.z)),
                                  [request], design.order, design.y.shape[0], with_se=True)
    if errors:
        raise next(iter(errors.values()))
    return solved.fit(0, design.site, design.neighborhood)


def standard_errors(fit, design):
    """Plug-in standard errors sqrt(sigma2 * diag((Y'Y)^-1)).

    Returns None with a warning when the design was rank-deficient.
    Returns ``fit.se`` when the fit carries them from its own R factor,
    as full-rank fits of :func:`fit_site` and ``fit_all`` do; otherwise
    (a fit kept by selection, or one built by hand) factors ``design``
    again and stores the result on ``fit.se``, that object's only: a
    report builds a new SiteFit at each read.
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


class _BySite(Mapping):
    """Linear site -> item of the sorted linear sites ``lin``, each built
    by ``item(i)`` (i its position in ``lin``) when read."""

    __slots__ = ("_lin", "_item")

    def __init__(self, lin, item):
        self._lin, self._item = lin, item

    def __contains__(self, lin):
        i = int(np.searchsorted(self._lin, lin)) if np.ndim(lin) == 0 else -1
        return 0 <= i < len(self._lin) and self._lin[i] == lin

    def __getitem__(self, lin):
        if lin not in self:
            raise KeyError(lin)
        return self._item(int(np.searchsorted(self._lin, lin)))

    def __iter__(self):
        return iter(self._lin.tolist())

    def __len__(self):
        return len(self._lin)


class _Report(_JsonArtifact):
    """Solved sites held as arrays in site order (:class:`_Solved`), box
    radii rows (-1 for a custom neighborhood) and the error manifest,
    center tuple -> message.  The report iterates over its per-site
    items, each built by ``_item`` when read; its file and kernel field
    are made from the arrays."""

    __slots__ = ("shape", "order", "errors", "_solved", "_radii")

    def __init__(self, shape, order, solved, radii, errors):
        self.shape = tuple(shape)
        self.order = _lag_order(order)
        self._solved, self._radii = solved, np.array(radii, dtype=np.intp)
        self.errors = {site: str(err) for site, err in errors.items()}

    def _by_site(self):
        return _BySite(self._solved.lin, self._item)

    def _for_site(self, site):
        return self._by_site()[site_to_linear(site, self.shape)]

    def __iter__(self):
        return map(self._item, range(len(self)))

    def __len__(self):
        return len(self._solved.lin)

    def _kernels(self, radii):
        """The KernelField of the fits, with one ``radii`` row per site;
        every site must be solved."""
        s = self._solved
        _require_complete(self.shape, len(s.lin), self.errors)
        if not np.isfinite(s.coef).all():
            raise ConfigurationError("non-finite coefficients")
        return KernelField._from_arrays(self.shape, self.order, s.ptr.copy(), s.linear.copy(),
                                        list(s.coef.copy()), radii)

    def _json_fields(self, **fields):
        return {"shape": list(self.shape), "P": self.order, **fields, "sites": self._entries(),
                "errors": {",".join(map(str, k)): v for k, v in self.errors.items()}}


class FitReport(_Report):
    """Per-site fits in canonical order plus an error manifest.

    ``fits`` maps linear site index -> SiteFit for every site that
    succeeded, a new one built at each read; ``errors`` maps the center
    tuple -> message for sites that failed.
    """

    __slots__ = ()
    fits = property(_Report._by_site)
    fit_for = _Report._for_site

    def _item(self, i):
        s, site = self._solved, linear_to_site(self._solved.lin[i], self.shape)
        return s.fit(i, site, _view(self.shape, site, self._radii[i].tolist(),
                                    s.linear[s.ptr[i] : s.ptr[i + 1]]))

    def kernels(self):
        """Package the fit as a KernelField (requires full site coverage)."""
        return self._kernels(self._radii)

    def _entries(self):
        """Each fit's entry in the report file, converted a block of sites
        at a time."""
        s, p = self._solved, self.order
        values = (*s.coef, *(() if s.se is None else s.se))
        for block, centers, sites, bounds, rows in _site_blocks(self.shape, s.lin, s.ptr,
                                                                s.linear, values):
            for center, radii, rss, sigma2, flag, (i, j) in zip(
                    centers, self._radii[block].tolist(), s.fit_rss[block].tolist(),
                    s.sigma2[block].tolist(), s.flag[block].tolist(), bounds):
                entry = {"center": center, "sites": sites[i:j]}
                if radii[0] >= 0:
                    entry["k"] = radii[0] if len(set(radii)) == 1 else radii
                entry.update(coeffs=[v[i:j] for v in rows[:p]], rss=rss, sigma2=sigma2,
                             se=None if flag or s.se is None
                             else [x for v in rows[p:] for x in v[i:j]], cond_flag=flag)
                yield entry


def _normalize_neighborhood_map(series, neighborhoods):
    """Accept a list or a site->Neighborhood map; return the sites' linear
    indices and their neighborhoods, sorted canonically."""
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
    linear, nbs = linear[order], [nbs[i] for i in order.tolist()]
    for nb, dup in zip(nbs, np.r_[False, linear[1:] == linear[:-1]].tolist()):
        if dup:
            raise ConfigurationError(f"duplicate neighborhood for site {nb.center}")
        if nb.shape != series.shape:
            raise ConfigurationError(
                f"neighborhood at {nb.center} built for shape {nb.shape}, "
                f"series has {series.shape}"
            )
    return linear, nbs


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
    linear, nbs = _normalize_neighborhood_map(series, neighborhoods)
    # a whole grid of boxes is solved off moments as far as the boxes that T
    # frames identify (the others fail unfactored)
    boxes = len(nbs) == series.n_sites and all(nb.radii is not None for nb in nbs)
    fitted = [nb.radii for nb in nbs if order * nb.size <= series.n_frames - order]
    moments = (series, np.max(fitted, axis=0), None) if boxes and fitted else None

    def requests():  # one level per site: its neighborhood
        for a, b in _chunks(len(nbs)):
            run = nbs[a:b]
            bounds = np.zeros(len(run) + 1, dtype=np.intp)
            np.cumsum([nb.size for nb in run], out=bounds[1:])
            yield (linear[a:b], np.array([nb.center for nb in run]),
                   [(np.concatenate([nb.linear for nb in run]), bounds)], None, {})

    panel = series.values.T
    solved, errors = _solve_sites(
        lambda lin, groups: _gather(panel, order, groups, lin), requests(), order,
        series.n_frames - order, with_se=compute_se, n_workers=n_workers, moments=moments)
    d = len(series.shape)
    radii = np.array([nb.radii or (-1,) * d for nb in nbs], dtype=np.intp).reshape(-1, d)
    return FitReport(series.shape, order, solved, radii[np.searchsorted(linear, solved.lin)],
                     errors)


def _chunks(n_sites):
    """(start, stop) of each run of ``_PLAN`` consecutive sites that
    :class:`_Plan` plans at once."""
    return ((a, min(a + _PLAN, n_sites)) for a in range(0, n_sites, _PLAN))


class _Plan:
    """The column plan of a run of sites, made at once from the arrays of a
    request ``(linear, centers, levels, keep, failed)``: the sites' linear
    indices and (m, d) coordinates; per level, a layout (sorted linear
    indices and (m + 1,) offsets), each level nesting the one before; the
    (m, levels) mask of the levels each site brings (all when None); and a
    message for each site (by position) that failed before.

    A site keeps the levels it brings with P*|J| <= ``rows`` (a prefix, as
    sizes grow) and fails with :func:`_check_rows` when that leaves none:
    ``errors`` maps each failed site's center to its :class:`LiarError`.
    For the others, in order: ``lin``; ``levels``, the levels each brings
    (left-packed, -1 after); ``scanned``, how many it keeps; ``sizes``, the
    kept levels' sizes (0 after); ``columns[start[i]:start[i + 1]]``, the
    sites of its largest kept level in level-major order (level 0's, then
    each kept level's new ones, each group in linear order); and
    ``batches``, the sites of each size class (sites with the same kept
    sizes), at most ``_BLOCK`` at a time."""

    __slots__ = ("errors", "lin", "levels", "scanned", "sizes", "start", "columns", "batches")

    def __init__(self, request, order, rows):
        lin, centers, levels, keep, failed = request
        counts = np.stack([np.diff(bounds) for _, bounds in levels], axis=1)
        keep = np.ones(counts.shape, dtype=bool) if keep is None else keep
        kept = keep & (order * counts <= rows)
        kept[list(failed)] = False
        self.errors = {}
        for i in np.flatnonzero(~kept[:, 0]).tolist():
            site = tuple(centers[i].tolist())
            try:
                if i in failed:
                    raise ConfigurationError(failed[i])
                _check_rows(site, rows + order, order, int(counts[i, 0]))
            except LiarError as exc:
                self.errors[site] = exc
        n_levels, scanned = counts.shape[1], kept.sum(axis=1)
        packed = np.argsort(~keep, axis=1, kind="stable")
        packed[~np.take_along_axis(keep, packed, axis=1)] = -1
        sizes = np.take_along_axis(counts, np.maximum(packed, 0), axis=1)
        sizes[np.arange(n_levels) >= scanned[:, None]] = 0
        if (scanned > 1).any():
            # the sorted (site, linear) keys of every kept level: each is a
            # column of its site's largest kept level, held by all its kept
            # levels from the first that holds it on (they nest)
            span = 1 + max(int(linear.max(initial=0)) for linear, _ in levels)
            keys, held = np.unique(np.concatenate([
                (np.repeat(np.arange(len(counts)), n) * span + linear)[np.repeat(kept[:, lev], n)]
                for lev, ((linear, _), n) in enumerate(zip(levels, counts.T))]),
                return_counts=True)
            owner, columns = np.divmod(keys, span)
            # level-major: by site, then first kept level, then linear index
            self.columns = np.sort((owner * n_levels + scanned[owner] - held) * span
                                   + columns) % span
        else:  # level 0's sites are the columns
            self.columns = levels[0][0][np.repeat(kept[:, 0], counts[:, 0])]
        ok = np.flatnonzero(scanned)
        self.lin, self.levels, self.scanned, self.sizes = (
            np.asarray(lin)[ok], packed[ok], scanned[ok], sizes[ok])
        self.start = np.zeros(len(ok) + 1, dtype=np.intp)
        np.cumsum(self.sizes[np.arange(len(ok)), self.scanned - 1], out=self.start[1:])
        # size classes, cut into batches of at most _BLOCK sites and
        # _GRAM_BATCH Gram entries
        by_class = np.lexsort(self.sizes.T[::-1])
        cuts = np.flatnonzero((np.diff(self.sizes[by_class], axis=0) != 0).any(axis=1)) + 1
        self.batches, widths = [], np.diff(self.start)
        for members in np.split(by_class, cuts) if len(ok) else []:
            side = order * int(widths[members[0]]) + 1  # of each Gram
            step = max(1, min(_BLOCK, _GRAM_BATCH // side**2))
            self.batches += [members[a : a + step] for a in range(0, len(members), step)]


class _Solved:
    """The solved sites of :func:`_solve_sites`' ``plans``, in order, as
    arrays: the plans' ``lin``, ``levels``, ``scanned`` and ``sizes``; each
    kept level's ``rss`` and the chooser's ``records``, padded as
    ``sizes``; the chosen level ``best`` (an index into the kept levels);
    and the fit at that level: its neighborhood's sorted linear indices
    ``linear[ptr[i]:ptr[i + 1]]``, the (P, ...) coefficients ``coef`` on
    those columns and, unless None, their standard errors ``se`` (NaN
    without), and per site ``fit_rss``, ``sigma2`` and ``flag``
    (rank-deficient).  Made from each size class's ``(sites, rss, picks,
    records)`` of ``scans`` and each of its chosen levels' ``(sites, front,
    lag, place, coeffs, var, flag, rss)`` of ``fits``: the sites' chosen
    neighborhoods ``front`` and level-major coefficients (and ``var``, the
    diagonal of (R'R)^-1) of lag ``lag`` at neighborhood position
    ``place``."""

    __slots__ = ("lin", "levels", "scanned", "sizes", "rss", "records", "best", "ptr",
                 "linear", "coef", "se", "fit_rss", "sigma2", "flag")

    def __init__(self, plans, scans, fits, order, rows, with_se):
        for name in ("lin", "levels", "scanned", "sizes"):
            setattr(self, name, np.concatenate([getattr(plan, name) for plan in plans])
                    if plans else np.zeros(0, dtype=np.intp))
        n = len(self.lin)
        self.rss, self.best, self.records = np.zeros(self.sizes.shape), np.zeros(n, np.intp), ()
        for sites, rss, picks, records in scans:
            self.rss[sites, : rss.shape[1]], self.best[sites] = rss, picks
            self.records = self.records or tuple(np.zeros(self.rss.shape, r.dtype)
                                                 for r in records)
            for out, record in zip(self.records, records):
                out[sites, : rss.shape[1]] = record
        self.ptr = np.zeros(n + 1, dtype=np.intp)
        for sites, front, *_ in fits:
            self.ptr[sites + 1] = front.shape[1]
        np.cumsum(self.ptr, out=self.ptr)
        self.linear, self.coef = np.empty(self.ptr[-1], np.intp), np.empty((order, self.ptr[-1]))
        self.se = np.full(self.coef.shape, np.nan) if with_se else None
        self.fit_rss, self.sigma2, self.flag = np.empty(n), np.empty(n), np.empty(n, bool)
        for sites, front, lag, place, coeffs, var, flag, rss in fits:
            at, n_cols = self.ptr[sites, None], coeffs.shape[1]
            self.linear[at + np.arange(front.shape[1])] = front
            self.coef[lag, at + place] = coeffs
            sigma2 = rss / (rows - n_cols) if rows > n_cols else np.zeros(len(rss))
            if var is not None:
                self.se[lag, at + place] = np.sqrt(sigma2[:, None] * var)
            self.fit_rss[sites], self.sigma2[sites], self.flag[sites] = rss, sigma2, flag

    def fit(self, i, site, neighborhood):
        """The :class:`SiteFit` of the ``i``-th site."""
        a, b, flag = self.ptr[i], self.ptr[i + 1], bool(self.flag[i])
        se = None if flag or self.se is None else self.se[:, a:b].flatten()
        return SiteFit(site, neighborhood, len(self.coef), self.coef[:, a:b].flatten(),
                       float(self.fit_rss[i]), float(self.sigma2[i]), flag, se)


def _solve_sites(gather, requests, order, rows, choose=None, with_se=False, n_workers=1,
                 moments=None):
    """Least squares at each site of ``requests`` (runs of consecutive
    sites, in canonical order, each planned at once: :class:`_Plan`), one
    pool task per batch of at most ``_BLOCK`` sites with the same kept
    sizes, with OpenBLAS on one thread.

    A task takes the R factor of each site's [Y z] with the level-major
    column groups of its plan.  Then, all its sites at once, it forms
    every kept level's RSS and rank test
    (:func:`_scan`), keeps level 0 or the level that ``choose(rss, tail,
    sizes)`` picks (it returns the picks and a tuple of records, one row
    per site), and solves that level off its R factor
    (:func:`_solve_levels`): a batched solve per kept level, with standard
    errors when ``with_se``, or the minimum-norm fit of a deficient level.
    The chosen level's columns go to lag-major neighborhood order in one
    fancy index per batch and level.

    R is the QR factor of ``gather(linear, groups)`` (:func:`_factor`),
    unless ``moments`` is given: ``(series, reach, centers)``, whose
    :func:`_lag_moments` are formed once, before any batch.  Then the
    Grams of a batch are read off them and factored in one batched
    Cholesky, and a site goes back to the QR factor when its Gram is not
    numerically positive definite, its diagonal ratio is at most
    ``_GUARD_RATIO``, or its last pivot squared is at most ``_GUARD_FIT``
    times z'z (an exact or near-exact fit).  Every rank-deficient site
    is among them.

    The lag order and frame count are checked once, before any batch.
    The calling thread plans the runs and keeps at most ``n_workers``
    batches pending; with ``moments`` the pool forms the moments and the
    calling thread solves the batches.  Returns
    the :class:`_Solved` sites and the error manifest: the
    :class:`LiarError` that failed each site.
    """
    _check_order(order, rows + order)

    def factor(lin, columns, sizes, pos, lags):
        """Stacked R factors of one batch off the moments: sites
        ``lin``, whose level-major columns are ``columns[:, pos]`` at lags
        ``lags``."""
        gram = table.grams(lin, columns[:, pos], lags)
        r = _cholesky(gram)
        diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
        sure = ((diag[:, :-1].min(axis=1) > _GUARD_RATIO * diag[:, :-1].max(axis=1))
                & (diag[:, -1] ** 2 > _GUARD_FIT * gram[:, -1, -1]))
        for i in np.flatnonzero(~sure).tolist():  # NaN fails both tests
            # a level with as many unknowns as rows has a wide block, whose
            # factor lacks R's last rows: they are zero
            qr = _factor(gather(lin[i], np.split(columns[i], sizes[:-1])))
            r[i] = 0.0
            r[i, : len(qr)] = qr
        return r

    def solve(task):
        plan, base, members = task
        sizes = plan.sizes[members[0], : plan.scanned[members[0]]]
        cols, bounds = order * sizes, list(zip([0, *sizes[:-1].tolist()], sizes.tolist()))
        pos = np.concatenate([np.tile(np.arange(a, b), order) for a, b in bounds])
        lags = np.concatenate([np.repeat(np.arange(1, order + 1), b - a) for a, b in bounds])
        lin = plan.lin[members]
        columns = plan.columns[plan.start[members][:, None] + np.arange(sizes[-1])]
        r = (factor(lin, columns, sizes, pos, lags) if table is not None else
             np.stack([_factor(gather(site, np.split(row, sizes[:-1])))
                       for site, row in zip(lin.tolist(), columns)]))
        tail, rss, min_norm = _scan(r, cols)
        picks, records = (choose(rss, tail, sizes) if choose is not None
                          else (np.zeros(len(members), dtype=np.intp), ()))
        scan, fits = (base + members, rss, picks, records), []
        coeffs, var = _solve_levels(r, cols, picks, min_norm, with_se)
        for lev in np.unique(picks).tolist():
            sub = np.flatnonzero(picks == lev)
            width, n_cols = int(sizes[lev]), int(cols[lev])
            front, place = columns[sub, :width], pos[:n_cols]
            if lev:  # the chosen box in linear order, and each column's place in it
                by_site = np.argsort(front, axis=1)
                front = np.take_along_axis(front, by_site, axis=1)
                place = np.argsort(by_site, axis=1)[:, place]
            missing = np.full(n_cols, np.nan)  # a deficient level has no SEs
            fits.append((base + members[sub], front, lags[:n_cols] - 1, place,
                         np.stack([coeffs[i] for i in sub.tolist()]),
                         np.stack([missing if var[i] is None else var[i]
                                   for i in sub.tolist()]) if with_se else None,
                         np.isin(sub, [i for i, at in min_norm if at == lev]),
                         rss[sub, lev]))
        return scan, fits

    plans, scans, fits, errors = [], [], [], {}

    def tasks():
        base = 0  # the position of the plan's first site among all solved
        for request in requests:
            plans.append(plan := _Plan(request, order, rows))
            errors.update(plan.errors)
            yield from ((plan, base, members) for members in plan.batches)
            base += len(plan.lin)

    workers = resolve_workers(n_workers)
    with single_threaded_blas():
        table = None if moments is None else _lag_moments(
            moments[0].values, moments[0].shape, order, *moments[1:], workers)
        # one worker solves here: a pool costs more to start than a small
        # site's fit.  Batches factored off moments are solved here too: their
        # work is mostly Python that holds the GIL, and a pool of them ran
        # slower at 2 workers than at 1
        for scan, solved in (map(solve, tasks()) if workers <= 1 or table is not None
                             else _in_order(solve, tasks(), workers, workers)):
            scans.append(scan)
            fits += solved
    return _Solved(plans, scans, fits, order, rows, with_se), errors
