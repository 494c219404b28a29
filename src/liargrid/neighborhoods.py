"""Site neighborhoods: clipped boxes and nested candidate families.

Neighborhoods are axis-aligned boxes around a center site, intersected
with the grid.  Nested families enumerate growing boxes for selection;
levels that stop growing because clipping saturated the grid are dropped
and the family is flagged.  Arbitrary (non-box) site sets can also be
wrapped for fitting.

A field of neighborhoods is one layout: every site's sorted linear
indices in one array, an ``indptr`` of offsets and a radii row per site.
:func:`box_field`, nested-family levels and ``KernelField.neighborhoods``
are read-only views of one, all made by :func:`_views`.
"""

import math
from collections.abc import Sequence

import numpy as np

from .errors import ConfigurationError
from .grid import _check_shape, sites_to_linear


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
        self.shape, _ = _check_shape(shape)
        sites = np.asarray(sites, dtype=np.intp)
        if sites.ndim != 2 or sites.shape[1] != len(self.shape):
            raise ConfigurationError(
                f"sites must be (s, {len(self.shape)}), got {sites.shape}")
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
        return (self.center == other.center and self.shape == other.shape
                and np.array_equal(self.linear, other.linear))

    def __repr__(self):
        return f"Neighborhood(center={self.center}, size={self.size}, radii={self.radii})"

    def to_dict(self):
        """JSON-ready mapping {"center": [...], "k": ..., "sites": [[...], ...]}."""
        out = {"center": list(self.center), "sites": self.sites.tolist()}
        if self.radii is not None:
            rs = set(self.radii)
            out["k"] = self.radii[0] if len(rs) == 1 else list(self.radii)
        return out


class _PerSite(Sequence):
    """Read-only sequence of per-site items, each built when accessed."""

    __slots__ = ("_n", "_item")

    def __init__(self, n, item):
        self._n, self._item = n, item

    def __len__(self):
        return self._n

    def __iter__(self):
        return map(self._item, range(self._n))

    def __getitem__(self, i):
        sites = range(self._n)[i]  # a list's negative indices, slices and IndexError
        return list(map(self._item, sites)) if isinstance(i, slice) else self._item(sites)


def _view(shape, center, radii, linear, sites=None):
    """One :class:`Neighborhood` view of sorted linear indices ``linear``
    (and their rows ``sites``, else unravelled; both read-only), with radii
    ``radii`` (-1 first for a custom neighborhood) and center ``center``."""
    nb = Neighborhood.__new__(Neighborhood)
    if sites is None:
        nb.linear = linear.astype(np.intp)  # scipy's indices may be int32
        nb.sites = np.stack(np.unravel_index(nb.linear, shape, order="F"), axis=1)
        nb.linear.flags.writeable = nb.sites.flags.writeable = False
    else:
        nb.linear, nb.sites = linear, sites
    nb.center, nb.shape = tuple(center), shape
    nb.radii = None if radii[0] < 0 else tuple(radii)
    return nb


def _views(shape, indptr, linear, radii, centers, sites=None):
    """:func:`_view` of each site of one layout, built on access: view i
    holds ``linear[indptr[i]:indptr[i + 1]]`` (and those rows of ``sites``),
    radii row ``radii[i]`` and center ``centers[i]``."""

    def view(i):
        a, b = indptr[i], indptr[i + 1]
        return _view(shape, centers[i], radii[i], linear[a:b],
                     None if sites is None else sites[a:b])

    return _PerSite(len(indptr) - 1, view)


def _box_radii(radii, shape):
    """Validated per-axis radius tuple (a scalar applies to every axis)."""
    d = len(shape)
    if np.isscalar(radii):
        radii = (int(radii),) * d
    else:
        radii = tuple(int(r) for r in radii)
    if len(radii) != d:
        raise ConfigurationError(f"need {d} radii for shape {shape}, got {radii}")
    if any(r < 0 for r in radii):
        raise ConfigurationError(f"radii must be nonnegative, got {radii}")
    return radii


def _box_sites(centers, shape, radii):
    """Sites of the clipped boxes of validated ``radii`` around in-bounds
    ``centers`` (an (m, d) array): the (s, d) sites and their linear
    indices, box after box, and the (m + 1,) box offsets into them.

    The offsets are enumerated column-major, so each box's in-bounds
    sites come out sorted by linear index.
    """
    d = len(shape)
    # offsets beyond n - 1 never land on the grid
    reach = [min(r, n - 1) for r, n in zip(radii, shape)]
    offsets = np.indices([2 * r + 1 for r in reach], dtype=np.intp)
    offsets = offsets.reshape(d, -1, order="F") - np.array(reach)[:, None]
    # per axis, every center's box coordinates, flat; then masked in 1-D
    axes = [(centers[:, j, None] + offsets[j]).ravel() for j in range(d)]
    inside = (axes[0] >= 0) & (axes[0] < shape[0])
    for axis, n in zip(axes[1:], shape[1:]):
        inside &= (axis >= 0) & (axis < n)
    bounds = np.zeros(len(centers) + 1, dtype=np.intp)
    np.cumsum(inside.reshape(len(centers), offsets.shape[1]).sum(axis=1), out=bounds[1:])
    strides = np.array([math.prod(shape[:j]) for j in range(d)])  # column-major
    linear = ((centers @ strides)[:, None] + strides @ offsets).ravel()[inside]
    sites = np.stack([axis[inside] for axis in axes], axis=1)
    rising = np.diff(linear) > 0
    rising[bounds[1:-1] - 1] = True  # box boundaries
    if not rising.all():
        raise ConfigurationError("box sites out of linear order")
    sites.flags.writeable = linear.flags.writeable = False  # views share them
    return sites, linear, bounds


def _boxes(centers, shape, radii):
    """:func:`_views` of :func:`_box_sites`, one per center (an (m, d) array)."""
    sites, linear, bounds = _box_sites(centers, shape, radii)
    return _views(shape, bounds.tolist(), linear, [radii] * len(centers),
                  centers.tolist(), sites)


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
    shape, _ = _check_shape(shape)
    radii = _box_radii(radii, shape)
    return _boxes(np.array([_center(center, shape)]), shape, radii)[0]


def _center(center, shape):
    """``center`` as a tuple of ints, checked to lie on the grid."""
    center = tuple(int(c) for c in center)
    if len(center) != len(shape) or not all(0 <= c < n for c, n in zip(center, shape)):
        raise IndexError(f"center {center} out of bounds for shape {shape}")
    return center


def _grid_centers(shape):
    """Every site of the grid as an (n_sites, d) array, canonical order."""
    return np.stack(np.unravel_index(np.arange(int(np.prod(shape))), shape,
                                     order="F"), axis=1)


def box_field(shape, radii):
    """Clipped boxes of the same radii around every site, in canonical
    (linear) site order: the neighborhoods of a fixed-radius fit."""
    shape, _ = _check_shape(shape)
    return list(_boxes(_grid_centers(shape), shape, _box_radii(radii, shape)))


def custom_neighborhood(center, shape, sites):
    """Wrap an explicit site list (any shape) for fitting."""
    return Neighborhood(center, shape, np.asarray(sites), radii=None)


class NeighborhoodFamily:
    """Nested candidate neighborhoods for one site.

    Attributes
    ----------
    center, shape : tuples
    levels : list of Neighborhood
        Strictly nested after clipping; iterating the family yields them.
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

    def __iter__(self):
        return iter(self.levels)

    def sizes(self):
        return [nb.size for nb in self.levels]

    def __repr__(self):
        return (f"NeighborhoodFamily(center={self.center}, sizes={self.sizes()}, "
                f"saturated={self.saturated})")


def _candidates(d, max_radius, axis_caps, radii_list):
    """Validated candidate radius tuples of a nested family on a d-axis
    grid (see :func:`nested_family`) and their labels."""
    if radii_list is not None:
        if max_radius is not None or axis_caps is not None:
            raise ConfigurationError("radii_list excludes max_radius/axis_caps")
        cand = labels = [tuple(int(r) for r in rs) for rs in radii_list]
        if not cand:
            raise ConfigurationError("radii_list is empty")
        if any(len(rs) != d for rs in cand):
            raise ConfigurationError(f"each radius tuple needs {d} entries")
        if any(r < 0 for rs in cand for r in rs):
            raise ConfigurationError("radii must be nonnegative")
        if any(r != 0 for r in cand[0]):
            raise ConfigurationError(
                f"first candidate must be the bare center, got {cand[0]}")
    else:
        if max_radius is None or max_radius < 0:
            raise ConfigurationError("max_radius must be a nonnegative integer")
        caps = (max_radius,) * d if axis_caps is None else tuple(int(c) for c in axis_caps)
        if len(caps) != d or any(c < 0 for c in caps):
            raise ConfigurationError(f"axis_caps must be {d} nonnegative ints")
        labels = list(range(max_radius + 1))
        cand = [tuple(min(k, c) for c in caps) for k in labels]
    return cand, labels


class _nest(Sequence):
    """Nested boxes of the validated candidates ``cand`` (labelled
    ``labels``) at the centers of an (m, d) array, held as arrays:
    ``levels`` holds one :func:`_box_sites` layout (sites, linear indices,
    offsets) per candidate, ``keep`` (m, candidates) the levels that grow
    on the one before (the others are dropped as saturated), and
    ``failed`` the message for each center (by index) where some level
    does not contain the one before.  Boxes compare by their per-axis
    clipped intervals.  As a sequence it holds each center's
    :class:`NeighborhoodFamily`, or that message, built on access."""

    __slots__ = ("shape", "centers", "cand", "labels", "levels", "keep", "failed")

    def __init__(self, centers, shape, cand, labels):
        self.shape, self.centers, self.cand, self.labels = shape, centers, cand, labels
        self.levels = [_box_sites(centers, shape, radii) for radii in cand]
        lo = [np.maximum(centers - radii, 0) for radii in cand]
        hi = [np.minimum(centers + radii, np.array(shape) - 1) for radii in cand]
        self.keep = np.ones((len(centers), len(cand)), dtype=bool)
        bad = np.full(len(centers), -1)  # first level that does not nest
        for lev in range(1, len(cand)):
            self.keep[:, lev] = ((lo[lev] != lo[lev - 1]) | (hi[lev] != hi[lev - 1])).any(axis=1)
            nests = ((lo[lev] <= lo[lev - 1]) & (hi[lev] >= hi[lev - 1])).all(axis=1)
            bad[~nests & (bad < 0)] = lev
        self.failed = {i: f"candidate {cand[bad[i]]} does not nest the previous level "
                          f"at center {tuple(centers[i].tolist())}"
                       for i in np.flatnonzero(bad >= 0).tolist()}

    def __len__(self):
        return len(self.centers)

    def __getitem__(self, i):
        center = tuple(self.centers[i].tolist())  # IndexError past the end
        if i in self.failed:
            return self.failed[i]
        kept = np.flatnonzero(self.keep[i]).tolist()
        levels = []
        for lev in kept:
            sites, linear, bounds = self.levels[lev]
            a, b = bounds[i], bounds[i + 1]
            levels.append(_view(self.shape, center, self.cand[lev], linear[a:b], sites[a:b]))
        return NeighborhoodFamily(center, self.shape, levels, [self.labels[lev] for lev in kept],
                                  len(kept) < len(self.cand))


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
    shape, _ = _check_shape(shape)
    family = _nest(np.array([_center(center, shape)]), shape,
                   *_candidates(len(shape), max_radius, axis_caps, radii_list))[0]
    if isinstance(family, str):
        raise ConfigurationError(family)
    return family


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
    shape, _ = _check_shape(shape)
    radii = np.array(_box_radii(radii, shape))
    centers = _grid_centers(shape)
    return ((centers >= radii) & (centers <= np.array(shape) - 1 - radii)).all(axis=1)


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
