"""Site neighborhoods: clipped boxes and nested candidate families.

Neighborhoods are axis-aligned boxes around a center site, intersected
with the grid.  Nested families enumerate growing boxes for selection;
levels that stop growing because clipping saturated the grid are dropped
and the family is flagged.  Arbitrary (non-box) site sets can also be
wrapped for fitting.
"""

import numpy as np

from .errors import ConfigurationError
from .grid import linear_to_site, sites_to_linear


class Neighborhood:
    """An ordered set of sites influencing one center site.

    Attributes
    ----------
    center : tuple of int
    shape : tuple of int
        Grid extents the sites live on.
    sites : ndarray, shape (s, d)
        Member sites, strictly sorted by column-major linear index.
    linear : ndarray, shape (s,)
        Linear indices of ``sites``.
    radii : tuple of int or None
        Box radii per axis when the set is a clipped box, else None.
    """

    __slots__ = ("center", "shape", "sites", "linear", "radii")

    def __init__(self, center, shape, sites, radii=None):
        self.center = tuple(int(c) for c in center)
        self.shape = tuple(int(n) for n in shape)
        sites = np.asarray(sites, dtype=np.intp)
        if sites.ndim != 2 or sites.shape[1] != len(self.shape):
            raise ConfigurationError(
                f"sites must be (s, {len(self.shape)}), got {sites.shape}"
            )
        linear = sites_to_linear(sites, self.shape)
        order = np.argsort(linear, kind="stable")
        linear = linear[order]
        if np.any(np.diff(linear) == 0):
            raise ConfigurationError("duplicate sites in neighborhood")
        self.sites = sites[order]
        self.linear = linear
        self.radii = None if radii is None else tuple(int(r) for r in radii)
        self.sites.setflags(write=False)
        self.linear.setflags(write=False)

    @property
    def size(self):
        return self.sites.shape[0]

    def __eq__(self, other):
        if not isinstance(other, Neighborhood):
            return NotImplemented
        return (
            self.center == other.center
            and self.shape == other.shape
            and np.array_equal(self.linear, other.linear)
        )

    def __repr__(self):
        return (
            f"Neighborhood(center={self.center}, size={self.size}, radii={self.radii})"
        )

    def to_dict(self, k=None):
        """JSON-ready mapping {"center": [...], "k": ..., "sites": [[...], ...]}."""
        out = {"center": list(self.center), "sites": self.sites.tolist()}
        if k is not None:
            out["k"] = k
        elif self.radii is not None:
            rs = set(self.radii)
            out["k"] = self.radii[0] if len(rs) == 1 else list(self.radii)
        return out


def box_neighborhood(center, shape, radii):
    """Clipped axis-aligned box around ``center``.

    Parameters
    ----------
    center : tuple of int
    shape : tuple of int
    radii : int or tuple of int
        Per-axis Chebyshev radius; a scalar applies to every axis.

    Returns
    -------
    Neighborhood
        Sites {u : |u_j - center_j| <= radii[j]} clipped to the grid,
        sorted by linear index.
    """
    center = tuple(int(c) for c in center)
    shape = tuple(int(n) for n in shape)
    d = len(shape)
    if np.isscalar(radii):
        radii = (int(radii),) * d
    else:
        radii = tuple(int(r) for r in radii)
    if len(radii) != d:
        raise ConfigurationError(f"need {d} radii for shape {shape}, got {radii}")
    if any(r < 0 for r in radii):
        raise ConfigurationError(f"radii must be nonnegative, got {radii}")
    for c, n in zip(center, shape):
        if not 0 <= c < n:
            raise IndexError(f"center {center} out of bounds for shape {shape}")
    axes = [
        np.arange(max(0, c - r), min(n - 1, c + r) + 1, dtype=np.intp)
        for c, r, n in zip(center, radii, shape)
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    sites = np.stack([g.ravel(order="F") for g in grids], axis=1)
    return Neighborhood(center, shape, sites, radii=radii)


def box_field(shape, radii):
    """Clipped boxes of the same radii around every site, in canonical
    (linear) site order: the neighborhoods of a fixed-radius fit."""
    shape = tuple(int(n) for n in shape)
    return [box_neighborhood(linear_to_site(i, shape), shape, radii)
            for i in range(int(np.prod(shape)))]


def custom_neighborhood(center, shape, sites):
    """Wrap an explicit site list (any shape) for fitting."""
    return Neighborhood(center, shape, np.asarray(sites), radii=None)


class NeighborhoodFamily:
    """Nested candidate neighborhoods for one site.

    Attributes
    ----------
    center, shape : tuples
    levels : list of Neighborhood
        Strictly nested after clipping.
    labels : list
        Candidate label per kept level: the scalar radius k in the
        default mode, or the radius tuple in explicit-list mode.
    saturated : bool
        True when clipping made some candidate levels identical (the
        larger ones were dropped).
    """

    __slots__ = ("center", "shape", "levels", "labels", "saturated")

    def __init__(self, center, shape, levels, labels, saturated):
        self.center = tuple(center)
        self.shape = tuple(shape)
        self.levels = list(levels)
        self.labels = list(labels)
        self.saturated = bool(saturated)

    @property
    def n_levels(self):
        return len(self.levels)

    def sizes(self):
        return [nb.size for nb in self.levels]

    def __repr__(self):
        return (
            f"NeighborhoodFamily(center={self.center}, sizes={self.sizes()}, "
            f"saturated={self.saturated})"
        )


def nested_family(center, shape, max_radius=None, axis_caps=None, radii_list=None):
    """Nested box family at one site.

    Two modes.  Default: levels k = 0..max_radius with per-axis radius
    min(k, axis_caps[j]).  Explicit: ``radii_list`` gives the per-level
    radius tuples (the first must be all zeros); nesting after clipping
    is validated.

    Levels whose clipped boxes coincide with the previous level are
    dropped and the family is flagged saturated.

    Returns
    -------
    NeighborhoodFamily
    """
    shape = tuple(int(n) for n in shape)
    d = len(shape)
    if radii_list is not None:
        if max_radius is not None or axis_caps is not None:
            raise ConfigurationError("radii_list excludes max_radius/axis_caps")
        cand = [tuple(int(r) for r in rs) for rs in radii_list]
        if not cand:
            raise ConfigurationError("radii_list is empty")
        if any(len(rs) != d for rs in cand):
            raise ConfigurationError(f"each radius tuple needs {d} entries")
        if any(r < 0 for rs in cand for r in rs):
            raise ConfigurationError("radii must be nonnegative")
        if any(r != 0 for r in cand[0]):
            raise ConfigurationError(
                f"first candidate must be the bare center, got {cand[0]}"
            )
        labels_all = cand
    else:
        if max_radius is None or max_radius < 0:
            raise ConfigurationError("max_radius must be a nonnegative integer")
        if axis_caps is None:
            caps = (max_radius,) * d
        else:
            caps = tuple(int(c) for c in axis_caps)
            if len(caps) != d or any(c < 0 for c in caps):
                raise ConfigurationError(f"axis_caps must be {d} nonnegative ints")
        cand = [tuple(min(k, c) for c in caps) for k in range(max_radius + 1)]
        labels_all = list(range(max_radius + 1))

    levels, labels = [], []
    saturated = False
    for label, radii in zip(labels_all, cand):
        nb = box_neighborhood(center, shape, radii)
        if levels:
            prev = levels[-1]
            if nb.size == prev.size and np.array_equal(nb.linear, prev.linear):
                saturated = True
                continue
            if not np.all(np.isin(prev.linear, nb.linear)) or nb.size <= prev.size:
                raise ConfigurationError(
                    f"candidate {radii} does not nest the previous level at "
                    f"center {tuple(center)}"
                )
        levels.append(nb)
        labels.append(label)
    return NeighborhoodFamily(center, shape, levels, labels, saturated)


def interior_mask(shape, radii):
    """Boolean mask (canonical site order) of sites whose box is unclipped.

    Parameters
    ----------
    shape : tuple of int
    radii : int or tuple of int

    Returns
    -------
    ndarray of bool, length prod(shape)
    """
    shape = tuple(int(n) for n in shape)
    d = len(shape)
    if np.isscalar(radii):
        radii = (int(radii),) * d
    full = np.ones(shape, dtype=bool)
    for j, (n, r) in enumerate(zip(shape, radii)):
        ax = (np.arange(n) >= r) & (np.arange(n) <= n - 1 - r)
        view = [1] * d
        view[j] = n
        full &= ax.reshape(view)
    return full.ravel(order="F")


def neighborhood_from_sites(center, shape, sites, k=None):
    """Neighborhood of an explicit site list: the clipped box when the
    sites are exactly one, else a custom neighborhood.

    The box radii are ``k`` (scalar or per axis, as in
    :meth:`Neighborhood.to_dict`) when given, else the sites' per-axis
    extent around ``center``.
    """
    sites = np.asarray(sites, dtype=np.intp)
    if k is None:
        radii = tuple(int(r) for r in np.max(np.abs(sites - center), axis=0))
    else:
        radii = k
    box = box_neighborhood(center, shape, radii)
    if box.size == sites.shape[0] and np.array_equal(
        box.linear, np.sort(sites_to_linear(sites, shape))
    ):
        return box
    return custom_neighborhood(center, shape, sites)
