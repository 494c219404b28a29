"""Entrywise BIC selection of neighborhood size over nested families.

Each site's candidate levels are scored by

    bic(k) = log(rss_k) + d0 * (size_k * P / T) * log(max(dims, T))

and the smallest-score level wins, ties to the smallest k.  An exact fit
(rss numerically zero) scores -inf so the smallest exactly-fitting level
is chosen.

The scan and the chosen level's fit share one factorization: the
design columns are ordered level-major (level-0 sites first, then each
level's new sites, all lags per group), so the R factor of one [Y z]
from :mod:`liargrid.fit`'s least-squares kernel yields every level's RSS
as a trailing sum of squares and, by back substitution on its leading
block, the winning level's coefficients.  One gather and one
factorization per site, whether or not the fit is kept.
"""

import json
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ConfigurationError, LiarError, UnderdeterminedError
from .fit import (SiteFit, _factor, _gather, _kernel_field, _solve,
                  resolve_workers, single_threaded_blas)
from .grid import linear_to_site, site_to_linear
from .neighborhoods import interior_mask, nested_family

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
    if n_frames <= order:
        raise ConfigurationError("need more frames than the lag order")
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

    Returns
    -------
    BicTrace
    """
    if d0 is None:
        d0 = default_d0(series.n_frames)
    order = int(order)
    t = series.n_frames
    if t <= order:
        raise ConfigurationError("need more frames than the lag order")
    rows = t - order

    kept, dropped = [], []
    for label, nb in zip(family.labels, family.levels):
        if order * nb.size <= rows:
            kept.append((label, nb))
        else:
            dropped.append(label)
    if not kept:
        raise UnderdeterminedError(
            f"site {family.center}: no candidate level is identifiable from "
            f"{rows} usable rows"
        )

    center = tuple(family.center)
    level_linear = [nb.linear for _, nb in kept]
    # level-major column layout: each level's new sites, all lags per group
    groups = [level_linear[0]]
    for prev, cur in zip(level_linear, level_linear[1:]):
        groups.append(np.setdiff1d(cur, prev, assume_unique=True))
    aug = _gather(series.values, order, groups, site_to_linear(center, series.shape))
    r, tail = _factor(aug)

    sizes = np.array([nb.size for _, nb in kept])
    labels = [label for label, _ in kept]
    rss = tail[order * sizes]
    exact = rss <= _EXACT_FIT_REL * tail[0]
    bic = np.array(
        [
            float("-inf") if exact[i] else
            bic_score(rss[i], int(sizes[i]), order, t, series.shape, d0)
            for i in range(len(kept))
        ]
    )
    best = int(np.argmin(bic))
    chosen = labels[best]

    fit = None
    if keep_fit:
        nb = kept[best][1]
        solved = _solve(aug, r, tail, order * nb.size, with_se=False)
        # lag-major neighborhood position of each level-major column
        dest = np.concatenate([
            (p - 1) * nb.size + np.searchsorted(nb.linear, group)
            for group in groups[: best + 1] for p in range(1, order + 1)
        ])
        coeffs = np.empty_like(solved[0])
        coeffs[dest] = solved[0]
        fit = SiteFit(center, nb, order, coeffs, *solved[1:])
    return BicTrace(center, labels, sizes, rss, bic, chosen,
                    exact, family.saturated, dropped, fit)


class SelectionReport:
    """Per-site BIC traces in canonical order plus an error manifest."""

    __slots__ = ("shape", "order", "d0", "traces", "errors")

    def __init__(self, shape, order, d0, traces, errors):
        self.shape = tuple(shape)
        self.order = int(order)
        self.d0 = float(d0)
        self.traces = traces
        self.errors = dict(errors)

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
        """Boolean array: chosen label equals ``truth`` (tuples compared
        elementwise)."""
        truth_t = tuple(truth) if not np.isscalar(truth) else truth
        return np.array(
            [
                (tuple(c) if isinstance(c, (tuple, list)) else c) == truth_t
                for c in self.chosen_labels()
            ]
        )

    def success_rates(self, truth, radii=None):
        """Overall, interior, and boundary success rates vs a truth label.

        ``radii`` defaults to the truth itself (scalar or tuple): a site
        is interior when a truth-sized box there is unclipped.
        """
        ok = self.success_mask(truth)
        if radii is None:
            radii = truth
        inner = interior_mask(self.shape, radii)
        rates = {"overall": float(np.mean(ok))}
        rates["interior"] = float(np.mean(ok[inner])) if inner.any() else float("nan")
        outer = ~inner
        rates["boundary"] = float(np.mean(ok[outer])) if outer.any() else float("nan")
        return rates

    def kernels(self):
        """KernelField from the chosen-level fits (full coverage required)."""
        fits = {lin: trace.fit for lin, trace in self.traces.items()}
        if any(f is None for f in fits.values()):
            raise ConfigurationError("selection was run without kept fits")
        return _kernel_field(self.shape, self.order, fits, len(self.errors))

    def to_dict(self):
        sites = []
        for trace in self.traces.values():
            entry = {
                "center": list(trace.site),
                "k": list(trace.chosen_k)
                if isinstance(trace.chosen_k, (tuple, list))
                else trace.chosen_k,
                "labels": [
                    list(l) if isinstance(l, (tuple, list)) else l
                    for l in trace.labels
                ],
                "sizes": trace.sizes.tolist(),
                "rss": trace.rss.tolist(),
                "bic": [None if not np.isfinite(b) else b for b in trace.bic],
                "saturated": trace.saturated,
                "dropped": [
                    list(l) if isinstance(l, (tuple, list)) else l
                    for l in trace.dropped
                ],
            }
            if trace.fit is not None:
                entry["sites"] = trace.fit.neighborhood.sites.tolist()
            sites.append(entry)
        return {
            "shape": list(self.shape),
            "P": self.order,
            "D0": self.d0,
            "sites": sites,
            "errors": {",".join(map(str, k)): v for k, v in self.errors.items()},
        }

    def save_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    def save_heatmap_csv(self, path):
        """CSV (site_row, site_col, chosen_k), 1-based coordinates; 2-D only."""
        if len(self.shape) != 2:
            raise ConfigurationError("the heatmap format is defined for 2-D grids")
        with open(path, "w") as fh:
            fh.write("site_row,site_col,chosen_k\n")
            for trace in self.traces.values():
                i1, i2 = trace.site
                k = trace.chosen_k
                k_str = "x".join(map(str, k)) if isinstance(k, (tuple, list)) else str(k)
                fh.write(f"{i1 + 1},{i2 + 1},{k_str}\n")


def select_all(series, max_radius=None, order=1, d0=None, axis_caps=None,
               radii_list=None, n_workers=None, keep_fit=True):
    """Run :func:`select_site` at every site, in parallel.

    Parameters
    ----------
    series : GridSeries
    max_radius : int, optional
        Largest candidate radius K0 (default family mode).
    order : int
        Lag order P.
    d0 : float, optional
        Penalty strength; defaults to log log T.
    axis_caps : tuple, optional
        Per-axis radius caps for the default families.
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
    if d0 is None:
        d0 = default_d0(series.n_frames)
    workers = resolve_workers(n_workers)
    n_sites = series.n_sites
    shape = series.shape

    def work(lin):
        center = linear_to_site(lin, shape)
        try:
            family = nested_family(center, shape, max_radius=max_radius,
                                   axis_caps=axis_caps, radii_list=radii_list)
            trace = select_site(series, family, order=order, d0=d0,
                                keep_fit=keep_fit)
            return lin, trace, None
        except LiarError as exc:
            return lin, None, (center, str(exc))

    indices = range(n_sites)
    with single_threaded_blas():
        if workers == 1 or n_sites <= 1:
            results = [work(i) for i in indices]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(work, indices))

    traces, errors = {}, {}
    for lin, trace, err in results:
        if trace is not None:
            traces[lin] = trace
        else:
            errors[err[0]] = err[1]
    return SelectionReport(shape, order, d0, traces, errors)
