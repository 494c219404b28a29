"""Entrywise BIC selection of neighborhood size over nested families.

Each site's candidate levels are scored by

    bic(k) = log(rss_k) + d0 * (size_k * P / T) * log(max(dims, T))

and the smallest-score level wins, ties to the smallest k.  An exact fit
(rss numerically zero) scores -inf so the smallest exactly-fitting level
is chosen.

The scan and the chosen level's fit share one factorization: the
design columns are ordered level-major (level-0 sites first, then each
level's new sites, all lags per group), so one R factor of [Y z] from
:mod:`liargrid.fit`'s least-squares kernel yields every level's RSS as
a trailing sum of squares and, by back substitution on its leading
block, the winning level's coefficients.  That R is the Cholesky factor
of the site's Gram [Y z]'[Y z], assembled from lag moments that
neighboring sites share and formed once per call; a site whose factor
fails the kernel's guard (a rank-deficient, nearly collinear or
exactly fitting design) is gathered and factored by QR instead, and a
level whose leading block fails the rank test is scored by its
minimum-norm fit, read off that QR factor.  Selection is the fit's
block solver given each site's family and a BIC choice: all sites with
the same level sizes are factored, scored and solved at once.
``select_all`` forms the moments of the whole grid, ``select_site``
those of its site's largest kept box, by the same products, so both
give a site the same bits.  ``select_all`` lays out the candidate boxes
of about a thousand sites at a time as arrays, one box level at a time,
and plans their columns from them; the scan's records and kept fits stay
arrays in site order, from which the report writes its files and builds
each :class:`BicTrace` (and its fit and neighborhood) only when asked.
"""

import math
from collections.abc import Mapping

import numpy as np

from . import simulate
from .errors import ConfigurationError
from .fit import _check_order, _chunks, _gather, _require_complete, _solve_sites
from .grid import _JsonArtifact, _require_2d, linear_to_site, site_to_linear
from .neighborhoods import _candidates, _grid_centers, _nest, _view, interior_mask
from .simulate import KernelField, _lag_order

_EXACT_FIT_REL = 1e-16  # rss below this times ||z||^2 counts as an exact fit


def default_d0(n_frames):
    """Default penalty strength log(log(T)).

    Requires T >= 16 so the value exceeds 1; below that raise and ask
    for an explicit penalty.
    """
    if n_frames < 16:
        raise ConfigurationError(
            f"default penalty needs at least 16 frames (got {n_frames}); "
            f"pass d0 explicitly"
        )
    return math.log(math.log(n_frames))


def bic_score(rss, size, order, n_frames, dims, d0):
    """Entrywise BIC for one candidate level.

    Parameters
    ----------
    rss : float
        Residual sum of squares at this level.
    size : int
        Neighborhood site count |J[k]|.
    order : int
        Lag order P.
    n_frames : int
        Series length T.
    dims : tuple of int
        Grid extents; the log factor uses max(dims) v T.
    d0 : float
        Penalty strength (see :func:`default_d0`).

    Returns
    -------
    float
        log(rss) + d0*(size*P/T)*log(max(dims, T)); -inf when rss <= 0
        (exact fit sentinel).
    """
    if size < 1:
        raise ConfigurationError(f"size must be at least 1, got {size}")
    _check_order(order, n_frames)
    if rss <= 0.0:
        return float("-inf")
    scale = math.log(max(max(dims), n_frames))
    return math.log(rss) + d0 * (size * order / n_frames) * scale


class BicTrace:
    """Full selection record for one site.

    Attributes
    ----------
    site : tuple of int
    labels : list
        Candidate label per scanned level (scalar radius or radius tuple).
    sizes, rss, bic : ndarray
        Per scanned level.
    chosen_k
        Label of the winning level.
    exact_fit : ndarray of bool
        Levels whose rss is numerically zero.
    saturated : bool
        Clipping merged some candidate levels.
    dropped : list
        Labels skipped as underdetermined at this series length.
    fit : SiteFit or None
        Fit at the winning level, coefficients in lag-major neighborhood
        order; no standard errors.
    """

    __slots__ = ("site", "labels", "sizes", "rss", "bic", "chosen_k",
                 "exact_fit", "saturated", "dropped", "fit")

    def __init__(self, site, labels, sizes, rss, bic, chosen_k, exact_fit,
                 saturated, dropped, fit):
        self.site = site
        self.labels = labels
        self.sizes = sizes
        self.rss = rss
        self.bic = bic
        self.chosen_k = chosen_k
        self.exact_fit = exact_fit
        self.saturated = saturated
        self.dropped = dropped
        self.fit = fit

    def __repr__(self):
        return f"BicTrace(site={self.site}, chosen_k={self.chosen_k})"


def select_site(series, family, order=1, d0=None, keep_fit=True):
    """Scan one site's nested family and pick the BIC-minimizing level.

    Levels too large to identify from T frames are dropped from the scan
    (recorded in ``trace.dropped``); at least one level must remain.

    The site's moments come from the products that :func:`select_all`
    shares between neighboring sites: one per pair of line tiles (up to
    128 sites along axis 0) that its largest kept box touches, over all
    T frames.  So a call costs the same on any grid with the same line
    length, but on long lines far more than one site's own least
    squares; scan a whole grid with :func:`select_all`.

    Returns
    -------
    BicTrace
    """
    if d0 is None:
        d0 = default_d0(series.n_frames)
    center = tuple(family.center)
    lin = site_to_linear(center, series.shape)
    # moments only as far as the levels that T frames identify
    order = _lag_order(order)
    kept = [nb for nb in family if order * nb.size <= series.n_frames - order]
    reach = np.abs(np.concatenate([nb.sites for nb in kept or family]) - center).max(axis=0)
    request = (np.array([lin]), np.array([center]),
               [(nb.linear, np.array([0, nb.size])) for nb in family], None, {})
    solved, errors = _select_sites(series, [request], order, d0, reach, [lin])
    if errors:
        raise errors[center]
    radii = [(-1,) if nb.radii is None else nb.radii for nb in family]
    return SelectionReport(series.shape, order, d0, family.labels, radii, solved,
                           np.array([family.saturated]), keep_fit, {}).traces[lin]


def _select_sites(series, requests, order, d0, reach, centers, n_workers=1):
    """BIC selection at each site of ``requests`` (see fit._Plan) through
    fit._solve_sites, off the lag moments of boxes of per-axis radii
    ``reach`` around the linear sites ``centers`` (every site when None),
    gathering a site the moment path doubts from ``series.values.T``.
    Returns the solved sites (fit._Solved), whose records are ``(bic,
    exact)``, and the error manifest."""
    if not 0.0 <= d0 < math.inf:  # NaN fails both comparisons
        raise ConfigurationError(f"d0 must be finite and nonnegative, got {d0}")
    t, shape = series.n_frames, series.shape

    def choose(rss, tail, sizes):
        exact = rss <= _EXACT_FIT_REL * tail[:, :1]
        # each level's penalty once: bic_score(x) is log(x) + bic_score(1);
        # math.log, as np.log may differ in the last bit
        penalty = np.array([bic_score(1.0, k, order, t, shape, d0) for k in sizes.tolist()])
        bic = np.full(rss.shape, -np.inf)
        live = ~exact
        bic[live] = (np.fromiter(map(math.log, rss[live].tolist()), float, np.count_nonzero(live))
                     + np.broadcast_to(penalty, rss.shape)[live])
        return np.argmin(bic, axis=1), (bic, exact)

    panel = series.values.T
    return _solve_sites(lambda lin, groups: _gather(panel, order, groups, lin), requests,
                        order, t - order, choose, n_workers=n_workers,
                        moments=(series, reach, centers))


def _label_json(label):
    """A candidate label as JSON takes it: a radius tuple as a list."""
    return list(label) if isinstance(label, (tuple, list)) else label


class _Traces(Mapping):
    """Linear site -> :class:`BicTrace` of a :class:`SelectionReport`, in
    canonical order, each trace built when accessed."""

    __slots__ = ("_report", "_lin")

    def __init__(self, report):
        self._report, self._lin = report, report._solved.lin

    def __getitem__(self, lin):
        i = int(np.searchsorted(self._lin, lin)) if np.ndim(lin) == 0 else -1
        if not 0 <= i < len(self._lin) or self._lin[i] != lin:
            raise KeyError(lin)
        return self._report._trace(i)

    def __iter__(self):
        return iter(self._lin.tolist())

    def __len__(self):
        return len(self._lin)


class SelectionReport(_JsonArtifact):
    """Per-site BIC traces in canonical order plus an error manifest.

    The scan is held as arrays in site order (fit._Solved): each site's
    candidate levels (indices into ``labels``, whose boxes have the
    per-axis ``radii``), the kept levels' sizes, RSS, BIC and exact-fit
    flags, the chosen level and its fit.  ``traces`` maps each linear
    site to its :class:`BicTrace`, built when accessed; the files are
    written from the arrays.
    """

    __slots__ = ("shape", "order", "d0", "errors", "_labels", "_radii", "_solved",
                 "_saturated", "_keep_fit")

    def __init__(self, shape, order, d0, labels, radii, solved, saturated, keep_fit, errors):
        self.shape = tuple(shape)
        self.order = _lag_order(order)
        self.d0 = float(d0)
        self._labels, self._radii = list(labels), list(radii)
        self._solved, self._saturated, self._keep_fit = solved, saturated, keep_fit
        self.errors = {site: str(err) for site, err in errors.items()}

    @property
    def traces(self):
        return _Traces(self)

    def _trace(self, i):
        s, labels = self._solved, self._labels
        n, best = int(s.scanned[i]), int(s.best[i])
        kept = [labels[lev] for lev in s.levels[i].tolist() if lev >= 0]
        site = linear_to_site(s.lin[i], self.shape)
        fit = None
        if self._keep_fit:
            nb = _view(self.shape, site, self._radii[s.levels[i, best]],
                       s.linear[s.ptr[i] : s.ptr[i + 1]])
            fit = s.fit(i, site, nb)
        bic, exact = s.records
        return BicTrace(site, kept[:n], s.sizes[i, :n].copy(), s.rss[i, :n].copy(),
                        bic[i, :n].copy(), kept[best], exact[i, :n].copy(),
                        bool(self._saturated[i]), kept[n:], fit)

    def __iter__(self):
        return iter(self.traces.values())

    def __len__(self):
        return len(self._solved.lin)

    def trace_for(self, site):
        return self.traces[site_to_linear(site, self.shape)]

    def _chosen(self):
        """Each solved site's chosen level, an index into the labels."""
        s = self._solved
        return s.levels[np.arange(len(s.lin)), s.best]

    def chosen_labels(self):
        """Chosen label per site, canonical order (list)."""
        chosen = [None] * int(np.prod(self.shape))
        for lin, lev in zip(self._solved.lin.tolist(), self._chosen().tolist()):
            chosen[lin] = self._labels[lev]
        return chosen

    def success_mask(self, truth):
        """Boolean array: chosen label equals ``truth``, both compared as
        per-axis radius tuples (a scalar k is (k,) * d); a failed site
        never matches."""
        d = len(self.shape)
        radii = lambda k: (k,) * d if np.isscalar(k) or k is None else tuple(k)
        truth = radii(truth)
        match = np.array([radii(label) == truth for label in self._labels], dtype=bool)
        mask = np.zeros(int(np.prod(self.shape)), dtype=bool)
        mask[self._solved.lin] = match[self._chosen()]
        return mask

    def success_rates(self, truth, radii=None):
        """Overall, interior, and boundary success rates vs a truth label;
        None for a part with no sites.

        ``radii`` defaults to the truth itself (scalar or tuple): a site
        is interior when a truth-sized box there is unclipped.
        """
        ok = self.success_mask(truth)
        if radii is None:
            radii = truth
        inner = interior_mask(self.shape, radii)
        parts = {"overall": np.ones_like(ok), "interior": inner, "boundary": ~inner}
        return {name: float(np.mean(ok[mask])) if mask.any() else None
                for name, mask in parts.items()}

    def kernels(self):
        """KernelField from the chosen-level fits (full coverage required)."""
        s = self._solved
        if len(s.lin) and not self._keep_fit:
            raise ConfigurationError("selection was run without kept fits")
        _require_complete(self.shape, len(s.lin), self.errors)
        if not np.isfinite(s.coef).all():
            raise ConfigurationError("non-finite coefficients")
        d = len(self.shape)
        radii = np.array([(-1,) * d if r[0] < 0 else r for r in self._radii], dtype=np.intp)
        return KernelField._from_arrays(self.shape, self.order, s.ptr.copy(), s.linear.copy(),
                                        list(s.coef.copy()), radii[self._chosen()])

    def _json_fields(self):
        return {
            "shape": list(self.shape),
            "P": self.order,
            "D0": self.d0,
            "sites": self._entries(),
            "errors": {",".join(map(str, k)): v for k, v in self.errors.items()},
        }

    def _entries(self):
        """Each site's entry in the selection file, converted a block of
        sites at a time."""
        s, labels = self._solved, [_label_json(label) for label in self._labels]
        if not len(s.lin):
            return
        bic = s.records[0].astype(object)
        bic[~np.isfinite(s.records[0])] = None  # the exact-fit sentinel
        step = simulate._SITE_BLOCK
        for a in range(0, len(s.lin), step):
            block = slice(a, a + step)
            ptr = s.ptr[a : a + step + 1]
            sites = (np.stack(np.unravel_index(s.linear[ptr[0] : ptr[-1]], self.shape,
                                               order="F"), axis=1).tolist()
                     if self._keep_fit else None)
            ptr = (ptr - ptr[0]).tolist()
            rows = zip(self._centers(block), s.levels[block].tolist(), s.scanned[block].tolist(),
                       s.best[block].tolist(), s.sizes[block].tolist(), s.rss[block].tolist(),
                       bic[block].tolist(), self._saturated[block].tolist(), ptr, ptr[1:])
            for center, levels, n, best, sizes, rss, row, saturated, i, j in rows:
                kept = [labels[lev] for lev in levels if lev >= 0]
                entry = {"center": center, "k": kept[best], "labels": kept[:n],
                         "sizes": sizes[:n], "rss": rss[:n], "bic": row[:n],
                         "saturated": saturated, "dropped": kept[n:]}
                if sites is not None:
                    entry["sites"] = sites[i:j]
                yield entry

    def _centers(self, block=slice(None)):
        """The solved sites of ``block`` as lists of coordinates."""
        return np.stack(np.unravel_index(self._solved.lin[block], self.shape, order="F"),
                        axis=1).tolist()

    def save_heatmap_csv(self, path):
        """CSV (site_row, site_col, chosen_k), 1-based coordinates; 2-D only."""
        _require_2d(self.shape, "the heatmap format")
        text = ["x".join(map(str, k)) if isinstance(k, (tuple, list)) else str(k)
                for k in self._labels]
        with open(path, "w") as fh:
            fh.write("site_row,site_col,chosen_k\n")
            fh.writelines(f"{i1 + 1},{i2 + 1},{text[lev]}\n"
                          for (i1, i2), lev in zip(self._centers(), self._chosen().tolist()))


def select_all(series, max_radius=None, order=1, d0=None, radii_list=None,
               n_workers=None, keep_fit=True):
    """Run :func:`select_site` at every site, in parallel.

    The call holds the grid's lag moments: P^2 (4K+1)^d + P (2K+1)^d + 1
    doubles per site of a d-axis grid, for K the largest candidate radius
    that T frames identify at a corner (each 4K+1 and 2K+1 capped at 2n-1
    on an axis of n sites).

    Parameters
    ----------
    series : GridSeries
    max_radius : int, optional
        Largest candidate radius K0 (default family mode).
    order : int
        Lag order P.
    d0 : float, optional
        Penalty strength, finite and nonnegative; defaults to log log T.
    radii_list : list of tuple, optional
        Explicit candidate radius tuples (see :func:`nested_family`).
    n_workers : int, optional
        Threads, as for :func:`fit_all`; OpenBLAS runs single-threaded
        for the call.
    keep_fit : bool
        Keep the winning-level fit on each trace.

    Returns
    -------
    SelectionReport
    """
    if max_radius is None and radii_list is None:
        raise ConfigurationError("pass either max_radius or radii_list")
    order = _lag_order(order)
    if d0 is None:
        d0 = default_d0(series.n_frames)
    shape = series.shape
    centers = _grid_centers(shape)

    # a list that is wrong everywhere is refused here, once; a level that
    # does not nest after clipping fails only its own sites
    cand = _candidates(len(shape), max_radius, None, radii_list)

    def requests():  # each run's boxes are laid out as the pool reaches it
        for a, b in _chunks(len(centers)):
            nest = _nest(centers[a:b], shape, *cand)
            yield (np.arange(a, b), nest.centers,
                   [(linear, bounds) for _, linear, bounds in nest.levels], nest.keep,
                   nest.failed)

    # moments only as far as the largest candidate that T frames identify
    # at some site: its smallest box, at a corner
    radii = np.array(cand[0])
    corner = np.prod(np.minimum(radii, np.array(shape) - 1) + 1, axis=1)
    radii = radii[order * corner <= series.n_frames - order]
    solved, errors = _select_sites(series, requests(), order, d0,
                                   radii.max(axis=0, initial=0), None, n_workers)
    saturated = (solved.levels >= 0).sum(axis=1) < len(cand[0])
    return SelectionReport(shape, order, d0, cand[1], cand[0], solved, saturated, keep_fit,
                           errors)
