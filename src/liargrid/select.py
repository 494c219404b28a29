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
give a site the same bits; ``select_all`` builds each block's families
one box level at a time as it reaches the block.
"""

import math

import numpy as np

from .errors import ConfigurationError
from .fit import FitReport, _blocks, _check_order, _gather, _solve_sites
from .grid import _JsonArtifact, _require_2d, site_to_linear
from .neighborhoods import _candidates, _grid_centers, _nest, interior_mask
from .simulate import _lag_order

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
    traces, errors = _select_sites(series, [[(lin, center, family)]], order, d0,
                                   keep_fit, reach, [lin])
    if errors:
        raise errors[center]
    return traces[lin]


def _select_sites(series, blocks, order, d0, keep_fit, reach, centers, n_workers=1):
    """BIC selection at each ``(linear, site, family)`` of ``blocks``
    through fit._solve_sites, off the lag moments of boxes of per-axis
    radii ``reach`` around the linear sites ``centers`` (every site when
    None), gathering a site the moment path doubts from
    ``series.values.T``; a family may instead be the message of the error
    that failed it."""
    if not 0.0 <= d0 < math.inf:  # NaN fails both comparisons
        raise ConfigurationError(f"d0 must be finite and nonnegative, got {d0}")
    t, shape = series.n_frames, series.shape

    def choose(rss, tail, sizes):
        exact = rss <= _EXACT_FIT_REL * tail[:, :1]
        # each level's penalty once: bic_score(x) is log(x) + bic_score(1)
        penalty = [bic_score(1.0, k, order, t, shape, d0) for k in sizes]
        bic = np.array([[float("-inf") if e else math.log(x) + p
                         for x, e, p in zip(*row, penalty)] for row in zip(rss, exact)])
        picks = np.argmin(bic, axis=1)
        return picks, list(zip(rss, bic, exact, picks.tolist()))

    panel = series.values.T
    done, errors = _solve_sites(lambda lin, groups: _gather(panel, order, groups, lin),
                                blocks, order, t - order, choose, n_workers=n_workers,
                                moments=(series, reach, centers))
    traces = {}
    for lin, (fit, family, sizes, (rss, bic, exact, best)) in done.items():
        labels, n = family.labels, len(sizes)
        traces[lin] = BicTrace(fit.site, labels[:n], np.array(sizes), rss, bic,
                               labels[best], exact, family.saturated, labels[n:],
                               fit if keep_fit else None)
    return traces, errors


def _label_json(label):
    """A candidate label as JSON takes it: a radius tuple as a list."""
    return list(label) if isinstance(label, (tuple, list)) else label


def _trace_entry(trace):
    """A site's entry in the selection file."""
    entry = {
        "center": list(trace.site),
        "k": _label_json(trace.chosen_k),
        "labels": [_label_json(l) for l in trace.labels],
        "sizes": trace.sizes.tolist(),
        "rss": trace.rss.tolist(),
        "bic": [None if not np.isfinite(b) else b for b in trace.bic],
        "saturated": trace.saturated,
        "dropped": [_label_json(l) for l in trace.dropped],
    }
    if trace.fit is not None:
        entry["sites"] = trace.fit.neighborhood.sites.tolist()
    return entry


class SelectionReport(_JsonArtifact):
    """Per-site BIC traces in canonical order plus an error manifest."""

    __slots__ = ("shape", "order", "d0", "traces", "errors")

    def __init__(self, shape, order, d0, traces, errors):
        self.shape = tuple(shape)
        self.order = _lag_order(order)
        self.d0 = float(d0)
        self.traces = traces
        self.errors = {site: str(err) for site, err in errors.items()}

    def __iter__(self):
        return iter(self.traces.values())

    def __len__(self):
        return len(self.traces)

    def trace_for(self, site):
        return self.traces[site_to_linear(site, self.shape)]

    def chosen_labels(self):
        """Chosen label per site, canonical order (list)."""
        n_sites = int(np.prod(self.shape))
        return [
            self.traces[i].chosen_k if i in self.traces else None
            for i in range(n_sites)
        ]

    def success_mask(self, truth):
        """Boolean array: chosen label equals ``truth``, both compared as
        per-axis radius tuples (a scalar k is (k,) * d); a failed site
        never matches."""
        d = len(self.shape)
        radii = lambda k: (k,) * d if np.isscalar(k) or k is None else tuple(k)
        truth = radii(truth)
        return np.array([radii(c) == truth for c in self.chosen_labels()])

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
        fits = {lin: trace.fit for lin, trace in self.traces.items()}
        if any(f is None for f in fits.values()):
            raise ConfigurationError("selection was run without kept fits")
        return FitReport(self.shape, self.order, fits, self.errors).kernels()

    def _json_fields(self):
        return {
            "shape": list(self.shape),
            "P": self.order,
            "D0": self.d0,
            "sites": map(_trace_entry, self.traces.values()),
            "errors": {",".join(map(str, k)): v for k, v in self.errors.items()},
        }

    def save_heatmap_csv(self, path):
        """CSV (site_row, site_col, chosen_k), 1-based coordinates; 2-D only."""
        _require_2d(self.shape, "the heatmap format")
        with open(path, "w") as fh:
            fh.write("site_row,site_col,chosen_k\n")
            for trace in self.traces.values():
                i1, i2 = trace.site
                k = trace.chosen_k
                k_str = "x".join(map(str, k)) if isinstance(k, (tuple, list)) else str(k)
                fh.write(f"{i1 + 1},{i2 + 1},{k_str}\n")


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

    def blocks():  # each block's families are built as the pool reaches it
        for a, b in _blocks(len(centers)):
            yield [(a + i, site, family) for i, (site, family) in enumerate(zip(
                map(tuple, centers[a:b].tolist()), _nest(centers[a:b], shape, *cand)))]

    # moments only as far as the largest candidate that T frames identify
    # at some site: its smallest box, at a corner
    radii = np.array(cand[0])
    corner = np.prod(np.minimum(radii, np.array(shape) - 1) + 1, axis=1)
    radii = radii[order * corner <= series.n_frames - order]
    traces, errors = _select_sites(series, blocks(), order, d0, keep_fit,
                                   radii.max(axis=0, initial=0), None, n_workers)
    return SelectionReport(shape, order, d0, traces, errors)
