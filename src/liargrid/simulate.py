"""Kernel fields and stationary simulation of local-interaction AR processes.

A kernel field assigns every grid site a neighborhood and, per lag, a
coefficient vector over that neighborhood.  The induced linear operator
on flattened frames is row-sparse: row i holds site i's lag-p
coefficients in its neighborhood's columns.  Simulation iterates

    x_t = sum_p  Op_p @ x_{t-p} + e_t

after a burn-in, starting from zero frames.  Stability is certified by
the operator norm (sum of per-lag spectral norms when P > 1), computed
matrix-free by Lanczos to rounding level.  scipy's CSR products run the
recursion and its ARPACK the norm; it is imported only by the calls that
use them, so a field that is fitted, written, read or used to predict
never loads it.  ``KernelField.predict`` (forecasts and hold-out scores)
sums each site's products in its own numpy loop, in scipy's order.

All noise comes from the counter-based streams in :mod:`liargrid.rng`,
one stream per site, so output is reproducible bit-for-bit regardless of
scheduling, and a shorter simulation is a prefix of a longer one.
"""

import contextlib
import json
from array import array
from itertools import chain

import numpy as np

from . import rng
from ._threads import _in_order, resolve_workers, single_threaded_blas
from .errors import ConfigurationError, NumericalError, StabilityError
from .grid import (GridSeries, _JsonArtifact, _check_shape, _first_nonfinite, _gc_paused,
                   _integer, linear_to_site, sites_to_linear)
from .neighborhoods import _box_radii, _box_sites, _grid_centers, _PerSite, _views

_NOISE_BLOCK = 2**16  # draws per noise block in simulate_liar
_SITE_BLOCK = 2**8  # site entries converted (or kernels drawn) at a time
_PREDICT_BLOCK = 2**16  # products gathered at a time by KernelField.predict
_NOISE_AHEAD = 4  # noise blocks queued ahead of the recursion, per noise thread
_NORM_TOL = 1e-14  # ARPACK's relative tolerance on the top eigenvalue of Op'Op
_CTX_KERNEL = 1
_CTX_NOISE = 2
_SQRT3 = float(np.sqrt(3.0))


class NoiseSpec:
    """Innovation specification: i.i.d. entries, Gaussian or uniform.

    Parameters
    ----------
    kind : {"iid_gaussian", "iid_uniform"}
    sigma : float
        Per-entry standard deviation, finite and >= 0 (0 means noiseless).
    seed : int
        Stream seed; all draws are pure functions of (seed, site, frame).
    """

    __slots__ = ("kind", "sigma", "seed")

    def __init__(self, kind="iid_gaussian", sigma=1.0, seed=0):
        if kind not in ("iid_gaussian", "iid_uniform"):
            raise ConfigurationError(f"unknown noise kind {kind!r}")
        sigma = float(sigma)
        if not 0.0 <= sigma < np.inf:
            raise ConfigurationError(f"sigma must be finite and nonnegative, got {sigma}")
        self.kind = kind
        self.sigma = sigma
        self.seed = int(seed)

    def __repr__(self):
        return f"NoiseSpec(kind={self.kind!r}, sigma={self.sigma}, seed={self.seed})"


def _lag_order(order):
    """``order`` as an int, refused unless an integer of at least 1."""
    order = _integer(order, "lag order")
    if order < 1:
        raise ConfigurationError("lag order must be at least 1")
    return order


class KernelField(_JsonArtifact):
    """Per-site neighborhoods and lagged coefficient vectors.

    The field is held as the CSR arrays of its P per-lag operators on
    flattened frames: row i holds site i's lag-p coefficients on the
    linear indices of its neighborhood, in increasing order.  The lags
    share one read-only ``indptr``/``indices`` pair and each has its own
    read-only ``data`` array.  Each site also keeps its box radii, or
    none for a custom neighborhood.

    Parameters
    ----------
    shape : tuple of int
        Grid extents.
    order : int
        Lag order P >= 1.  The neighborhood is shared across lags.
    neighborhoods : list of Neighborhood
        One per site, in canonical (linear) site order.
    coeffs : list of ndarray
        Entry i has shape (P, neighborhoods[i].size), row p-1 holding the
        lag-p coefficients aligned to the neighborhood's site order.
    """

    __slots__ = ("shape", "order", "_indptr", "_indices", "_data", "_radii", "_ops",
                 "_layout", "_norm")

    def __init__(self, shape, order, neighborhoods, coeffs):
        shape, n_sites = _check_shape(shape)
        order = _lag_order(order)
        if len(neighborhoods) != n_sites or len(coeffs) != n_sites:
            raise ConfigurationError(
                f"need one neighborhood and coefficient block per site "
                f"({n_sites}), got {len(neighborhoods)} and {len(coeffs)}")
        centers = np.array([nb.center for nb in neighborhoods], dtype=np.intp)
        stray = np.flatnonzero(sites_to_linear(centers, shape) != np.arange(n_sites))
        if stray.size:
            i = int(stray[0])
            raise ConfigurationError(f"neighborhood {i} centered at "
                                     f"{neighborhoods[i].center} is out of canonical order")
        fixed = []
        for nb, c in zip(neighborhoods, coeffs):
            c = np.asarray(c, dtype=np.float64)
            if c.ndim == 1:
                c = c[None, :]
            if c.shape != (order, nb.size):
                raise ConfigurationError(f"site {nb.center}: coefficients {c.shape} do not "
                                         f"match (P={order}, |J|={nb.size})")
            if not np.isfinite(c).all():
                raise ConfigurationError(f"site {nb.center}: non-finite coefficients")
            fixed.append(c)
        bounds = np.zeros(n_sites + 1, dtype=np.intp)
        np.cumsum([nb.size for nb in neighborhoods], out=bounds[1:])
        self._own(shape, order, bounds,
                  np.concatenate([nb.linear for nb in neighborhoods]),
                  [np.concatenate([c[p] for c in fixed]) for p in range(order)],
                  np.array([(-1,) * len(shape) if nb.radii is None else nb.radii
                            for nb in neighborhoods], dtype=np.intp))

    @classmethod
    def _from_arrays(cls, shape, order, indptr, indices, data, radii):
        """Field over validated CSR arrays: ``data`` holds one array per
        lag that no one else writes, ``radii`` one row per site (-1 for a
        custom neighborhood)."""
        field = cls.__new__(cls)
        field._own(shape, order, indptr, indices, data, radii)
        return field

    def _own(self, shape, order, indptr, indices, data, radii):
        for arr in (indptr, indices, radii, *data):
            arr.setflags(write=False)
        self.shape = shape
        self.order = order
        self._indptr, self._indices, self._data = indptr, indices, list(data)
        self._radii = radii
        self._ops = None  # the scipy CSR matrices, built by operators()
        self._layout = None  # the padded slot layout of predict()
        self._norm = None  # stability norm, carried when already known

    @property
    def n_sites(self):
        return self._indptr.size - 1

    @property
    def neighborhoods(self):
        """Per-site :class:`Neighborhood` views, built on access."""
        n = self.n_sites
        return _views(self.shape, self._indptr, self._indices,
                      _PerSite(n, lambda i: self._radii[i].tolist()),
                      _PerSite(n, lambda i: linear_to_site(i, self.shape)))

    @property
    def coeffs(self):
        """Per-site read-only (P, |J|) coefficient arrays, built on access."""
        return _PerSite(self.n_sites, self._coeffs)

    def _coeffs(self, i):
        a, b = self._indptr[i : i + 2]
        c = np.stack([v[a:b] for v in self._data])
        c.setflags(write=False)
        return c

    def operators(self):
        """Per-lag linear operators on flattened frames: P scipy CSR
        matrices over the field's arrays, built on the first call.  The
        stability norm (ARPACK), the simulation recursion and
        :func:`kernel_distance` use them; :meth:`predict` does not."""
        if self._ops is None:
            import scipy.sparse

            n, ops = self.n_sites, []
            for values in self._data:
                ops.append(scipy.sparse.csr_matrix((values, self._indices, self._indptr),
                                                   shape=(n, n)))
                # scipy's index dtype from here on, shared by every lag and
                # by the fields made from this one
                self._indptr, self._indices = ops[0].indptr, ops[0].indices
            self._indptr.setflags(write=False)
            self._indices.setflags(write=False)
            self._ops = ops
        return self._ops

    def _slot_layout(self):
        """The CSR rows as ``width`` slots per site, built on the first call:
        a (width, n_sites) array of column indices, slot s of site i holding
        the s-th entry of row i, and per lag the (width, n_sites)
        coefficients.  A row shorter than ``width`` is padded with
        coefficient 0 on column n_sites, a zero column appended to the
        frames."""
        if self._layout is None:
            n, indptr = self.n_sites, self._indptr
            sizes = np.diff(indptr)
            row = np.repeat(np.arange(n), sizes)
            slot = np.arange(indptr[-1]) - np.repeat(indptr[:-1], sizes)
            cols = np.full((sizes.max(initial=0), n), n, dtype=np.intp)
            cols[slot, row] = self._indices
            coefs = []
            for values in self._data:
                coefs.append(np.zeros(cols.shape))
                coefs[-1][slot, row] = values
            self._layout = cols, coefs
        return self._layout

    def predict(self, lagged):
        """One-step conditional mean sum_p x_{t-p} Op_p'.

        ``lagged`` holds the P lagged blocks, lag 1 first, each
        (n, n_sites); returns the (n, n_sites) predictions.  The bits
        are those of scipy's CSR products on :meth:`operators`: each
        lag's products summed from +0.0 in row order, then the lags
        added in order.  numpy alone computes them, so predicting never
        imports scipy.
        """
        cols, coefs = self._slot_layout()
        n, m = self.n_sites, lagged[0].shape[0]
        step = max(1, _PREDICT_BLOCK // max(1, cols.shape[0] * m))
        frames = np.zeros((n + 1, m))  # row n stays the padding's zero
        # returned transposed, as scipy's product is; a lag's sum is never
        # -0.0, so adding it to +0.0 leaves its bits
        pred = np.zeros((n, m))
        rows = frames[:, 0] if m == 1 else frames  # one frame: gather scalars, not rows
        for x, coef in zip(lagged, coefs):
            frames[:n] = x.T
            for a in range(0, n, step):
                # (width, sites, frames) products, summed over the slots in order
                # (a contiguous copy of the columns gathers about 3x faster)
                terms = rows[np.ascontiguousarray(cols[:, a : a + step])]
                terms = terms.reshape(len(cols), terms.shape[1], m)
                terms *= coef[:, a : a + step, None]
                pred[a : a + step] += np.add.reduce(terms, axis=0, initial=0.0)
        return pred.T

    def scale(self, factor):
        """New field with every coefficient multiplied by ``factor``."""
        return KernelField._from_arrays(self.shape, self.order, self._indptr, self._indices,
                                        [v * factor for v in self._data], self._radii)

    def _json_fields(self):
        return {"shape": list(self.shape), "P": self.order, "sites": self._entries()}

    def _entries(self):
        """Each site's kernel-file entry, converted a block of sites at a time."""
        for _, centers, sites, bounds, values in _site_blocks(
                self.shape, np.arange(self.n_sites), self._indptr, self._indices, self._data):
            for center, (i, j) in zip(centers, bounds):
                yield {"center": center, "neighborhood": sites[i:j],
                       "coeffs": [v[i:j] for v in values]}

    @classmethod
    def from_dict(cls, data):
        """Inverse of :meth:`to_dict`.  A neighborhood that is exactly the
        clipped box of its per-axis extent becomes that box, any other a
        custom neighborhood.  Sites may be listed in any order, and each
        site's neighborhood too, as long as its coefficient rows follow
        the same order."""
        entries = _Entries()
        for item in data["sites"]:
            entries.add(item)
        return cls._from_arrays(*_field_arrays(data["shape"], data["P"], entries))

    @classmethod
    def load_json(cls, path):
        """Read a kernel JSON file as :meth:`from_dict` reads its dict, each
        site entry converted as soon as it is parsed; a malformed file
        raises ConfigurationError."""
        entries = _Entries()
        try:
            with open(path) as fh, _gc_paused():
                data = json.load(fh, object_hook=entries.hook)
            sites = data["sites"]
            for item in sites:
                if item is not entries:
                    entries.add(item)  # raises: the hook took every site entry
            if len(sites) != len(entries.sizes):
                raise ConfigurationError("kernel JSON has site entries outside its site list")
            return cls._from_arrays(*_field_arrays(data["shape"], data["P"], entries))
        except (ConfigurationError, ValueError, KeyError, IndexError, TypeError,
                OverflowError) as exc:
            raise ConfigurationError(f"malformed kernel file {path}: {exc!r}") from exc


def _site_blocks(shape, lin, indptr, linear, values=()):
    """Per block of ``_SITE_BLOCK`` sites of a layout, for the file writers:
    its slice, the coordinates of its sites ``lin`` and of their indices
    ``linear[indptr[a]:indptr[b]]`` (None without ``linear``), each
    site's (start, stop) into those, and ``values`` (arrays along
    ``linear``) over them, as lists."""
    unravel = lambda x: np.stack(np.unravel_index(x, shape, order="F"), axis=1).tolist()
    for a in range(0, len(lin), _SITE_BLOCK):
        block = slice(a, a + _SITE_BLOCK)
        bounds = indptr[a : a + _SITE_BLOCK + 1]
        lo, hi = bounds[0], bounds[-1]
        bounds = (bounds - lo).tolist()
        yield (block, unravel(lin[block]), None if linear is None else unravel(linear[lo:hi]),
               zip(bounds, bounds[1:]), [v[lo:hi].tolist() for v in values])


class _Entries:
    """Kernel-file site entries, each flattened into typed arrays as it is
    added, so a reader never holds the per-site tree.  Per entry: the
    center's coordinate count and coordinates, the neighborhood size, the
    coefficient-row count and each row's width.  Per block of
    ``_SITE_BLOCK`` entries: the listed sites' coordinates and the rows'
    values, in arrays of their own (one pair regrown over the whole paper
    grid left freed copies resident, up to 9 MiB more at the read's
    peak).  :func:`_field_arrays` checks them."""

    __slots__ = ("center_dims", "centers", "sizes", "rows", "widths", "coords", "values",
                 "ragged")

    def __init__(self):
        self.center_dims, self.centers, self.sizes, self.rows, self.widths = (
            array("q") for _ in range(5))
        self.coords, self.values = [], []
        self.ragged = None  # first listed site with another coordinate count than its center

    def add(self, item):
        center, sites, coeffs = item["center"], item["neighborhood"], item["coeffs"]
        if len(self.sizes) % _SITE_BLOCK == 0:
            self.coords.append(array("q"))
            self.values.append(array("d"))
        d = len(center)
        if list(map(len, sites)).count(d) != len(sites) and self.ragged is None:
            self.ragged = next(site for site in sites if len(site) != d)
        try:
            self.centers.extend(center)
            flat = list(chain.from_iterable(sites))
            self.coords[-1].extend(flat)
            if bool in set(map(type, chain(center, flat))):
                raise TypeError  # the arrays took true and false as 1 and 0
        except (TypeError, OverflowError):
            raise ConfigurationError(f"site {tuple(center)}: non-integer coordinates") from None
        self.center_dims.append(d)
        self.sizes.append(len(sites))
        self.rows.append(len(coeffs))
        self.widths.extend(map(len, coeffs))
        self.values[-1].extend(chain.from_iterable(coeffs))

    def hook(self, obj):
        """``json.load``'s object_hook: a site entry is added, and this
        object stands in for it in the parsed tree."""
        if "neighborhood" not in obj:
            return obj
        self.add(obj)
        return self


def _field_arrays(shape, order, entries):
    """(shape, order, indptr, indices, per-lag data, radii) of a kernel
    file's shape, lag order and :class:`_Entries`, for
    :meth:`KernelField.from_dict` and :meth:`KernelField.load_json`.

    The entry count is checked against the grid before anything the size
    of the grid is made.  The sites are then placed a block at a time into
    arrays allocated up front, each block freed once placed: temporaries
    over the whole field would raise the reader's peak.
    """
    if not (isinstance(shape, (list, tuple)) and all(type(n) is int for n in shape)):
        raise ConfigurationError(f"kernel JSON shape {shape!r} is not a list of integers")
    if type(order) is not int:
        raise ConfigurationError(f"kernel JSON lag order {order!r} is not an integer")
    shape, n_sites = _check_shape(shape)
    order = _lag_order(order)
    d = len(shape)
    sizes = np.frombuffer(entries.sizes, np.int64)
    n = sizes.size
    if np.any(sizes == 0):
        raise ConfigurationError("kernel JSON has an empty neighborhood")
    ragged = np.flatnonzero(np.frombuffer(entries.center_dims, np.int64) != d)
    if ragged.size:
        i = int(ragged[0])
        at = sum(entries.center_dims[:i])
        center = entries.centers[at : at + entries.center_dims[i]].tolist()
        raise ConfigurationError(f"kernel JSON site {center} does not have {d} coordinates")
    centers = np.frombuffer(entries.centers, np.int64).reshape(-1, d)
    center_linear = sites_to_linear(centers, shape)
    entry = np.argsort(center_linear, kind="stable")  # item index per linear site
    ranked = center_linear[entry]
    again = ranked[1:] == ranked[:-1]
    missing = n_sites - (n - int(np.count_nonzero(again)))
    if missing:
        raise ConfigurationError(f"kernel JSON is missing {missing} sites")
    if n > n_sites:  # every site is listed, so some site twice
        first = int(entry[:-1][again].min())  # listed first of those listed again later
        raise ConfigurationError(
            f"kernel JSON lists site {tuple(centers[first].tolist())} more than once")
    if entries.ragged is not None:
        raise ConfigurationError(f"kernel JSON site {entries.ragged} "
                                 f"does not have {d} coordinates")
    bad = np.frombuffer(entries.rows, np.int64) != order
    if not bad.any():
        widths = np.frombuffer(entries.widths, np.int64).reshape(-1, order)
        bad = (widths != sizes[:, None]).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ConfigurationError(f"site {tuple(centers[i].tolist())}: coefficients "
                                 f"do not match (P={order}, |J|={sizes[i]})")

    indptr = np.zeros(n_sites + 1, dtype=np.intp)
    np.cumsum(sizes[entry], out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.intp)
    values = [np.empty(indptr[-1]) for _ in range(order)]
    radii = np.empty((n_sites, d), dtype=np.intp)
    for b in range(len(entries.coords)):
        block = slice(b * _SITE_BLOCK, (b + 1) * _SITE_BLOCK)
        size, center, rows = sizes[block], centers[block], center_linear[block]
        sites = np.frombuffer(entries.coords[b], np.int64).reshape(-1, d)
        flat = np.frombuffer(entries.values[b], np.float64)
        entries.coords[b] = entries.values[b] = None  # freed with the views below
        linear = sites_to_linear(sites, shape)
        bounds = np.zeros(size.size + 1, dtype=np.intp)  # item by item, as listed
        np.cumsum(size, out=bounds[1:])
        owner = np.repeat(np.arange(size.size), size)
        perm = np.lexsort((linear, owner))  # each neighborhood in linear order
        linear = linear[perm]
        if np.any((linear[1:] == linear[:-1]) & (owner[1:] == owner[:-1])):
            raise ConfigurationError("duplicate sites in neighborhood")
        # the sites lie inside the box of their extent, so they are that box
        # exactly when they are as many as its clipped size
        extents = np.maximum.reduceat(np.abs(sites - center[owner]), bounds[:-1], axis=0)
        lo = np.maximum(center - extents, 0)
        hi = np.minimum(center + extents, np.array(shape) - 1)
        boxed = np.prod(hi - lo + 1, axis=1) == size
        radii[rows] = np.where(boxed[:, None], extents, -1)
        j = _first_nonfinite(flat)
        if j >= 0:
            i = np.searchsorted(bounds, j // order, side="right") - 1
            raise ConfigurationError(
                f"site {tuple(center[i].tolist())}: non-finite coefficients")
        # item i lists lag p's coefficient j at order * bounds[i] + p * size[i] + j
        at = (np.arange(linear.size) + (order - 1) * bounds[owner])[perm]
        step = size[owner][perm]
        out = np.repeat(indptr[rows] - bounds[:-1], size)
        out += np.arange(linear.size)
        indices[out] = linear
        for p, v in enumerate(values):
            v[out] = flat[at + p * step]
    return shape, order, indptr, indices, values, radii


def operator_norm(kernels):
    """Stability norm of a kernel field.

    For P = 1 this is the largest singular value of the induced operator
    Op: the square root of the largest eigenvalue of Op'Op, found by
    Lanczos (ARPACK's ``eigsh``) on matrix-free products from a fixed
    pseudo-random start, to a relative tolerance of 1e-14 on that
    eigenvalue.  For P > 1 the per-lag spectral norms are summed; the
    sum being below 1 certifies a stationary solution and reduces to
    the P = 1 value when there is one lag.  OpenBLAS runs on one thread
    for the call: split across threads, its dot products on long vectors
    (above about 10000 sites) round differently, and the norm scales
    every random field.  So scipy, and with it the OpenBLAS build that
    ARPACK calls, is imported before the pin, which covers the builds
    loaded as it starts.

    Raises
    ------
    NumericalError
        If ARPACK fails or does not converge.
    """
    import scipy.sparse.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    with single_threaded_blas():
        return float(sum(_spectral_norm(op) for op in kernels.operators()))


def _spectral_norm(op):
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    n = op.shape[0]
    if n == 1 or not op.data.any():  # ARPACK needs n >= 2 and a nonzero product
        return float(np.abs(op.data).max(initial=0.0))
    op_t = op.T.tocsr()
    gram = LinearOperator((n, n), matvec=lambda v: op_t @ (op @ v), dtype=np.float64)
    start = rng.uniforms(rng.derive_key(0x5EED0FF, [n]), np.arange(n)) - 0.5
    try:
        (lam,) = eigsh(gram, k=1, which="LA", v0=start, tol=_NORM_TOL,
                       return_eigenvectors=False)
    except ArpackError as exc:
        raise NumericalError(f"Lanczos failed on the stability norm: {exc}") from exc
    return float(np.sqrt(lam))


def random_stable_kernels(shape, radii, order=1, target_norm=0.8, seed=0):
    """Random kernel field rescaled to a prescribed stability norm.

    Coefficients are i.i.d. uniform(-1, 1) on clipped boxes of the given
    radius, drawn from counter streams keyed by (seed, site, lag), then
    all rescaled by target_norm / operator_norm.  A draw of norm at most
    1e-12 needs every coefficient within 1e-12 of 0 (about a 1e-12 chance
    each) and raises :class:`NumericalError`.  The norm is homogeneous in
    the coefficients, so each drawn field needs one Lanczos run: the
    rescaled field carries its norm (the draw's times the factor) to
    :func:`simulate_liar`.

    Parameters
    ----------
    shape : tuple of int
    radii : int or tuple of int
        Box radius (scalar or per axis).
    order : int
        Lag order P.
    target_norm : float
        Desired operator norm, in (0, 1).
    seed : int

    Returns
    -------
    KernelField
    """
    if not 0.0 < target_norm < 1.0:
        raise ConfigurationError(f"target_norm must be in (0, 1), got {target_norm}")
    shape, _ = _check_shape(shape)
    radii = _box_radii(radii, shape)
    order = _lag_order(order)
    indices, indptr = _box_sites(_grid_centers(shape), shape, radii)[1:]
    sizes = np.diff(indptr)
    counters = np.arange(sizes.max())
    data = [np.empty(indices.size) for _ in range(order)]
    for a in range(0, sizes.size, _SITE_BLOCK):  # so no draw of the whole grid stays
        b = min(a + _SITE_BLOCK, sizes.size)
        # (site, lag) streams, each read from counter 0 up to its box size
        keys = rng.derive_key(seed, [_CTX_KERNEL, np.arange(a, b)[:, None], np.arange(order)])
        draws = 2.0 * rng.uniforms(keys[:, :, None], counters) - 1.0
        drawn = counters < sizes[a:b, None]  # each site's counters, box by box
        for values, draw in zip(data, draws.transpose(1, 0, 2)):
            values[indptr[a] : indptr[b]] = draw[drawn]
    box_radii = np.broadcast_to(np.array(radii, dtype=np.intp), (sizes.size, len(shape)))
    field = KernelField._from_arrays(shape, order, indptr, indices, data, box_radii)
    norm = operator_norm(field)
    if not norm > 1e-12:
        raise NumericalError("kernel draws degenerate (zero norm)")
    factor = target_norm / norm
    scaled = field.scale(factor)
    scaled._norm = norm * factor  # the norm is homogeneous in the coefficients
    return scaled


def simulate_liar(kernels, n_frames, noise, burn_in=500):
    """Simulate a stationary local-interaction AR series.

    Starts from P zero frames, iterates ``burn_in + n_frames`` steps, and
    returns the last ``n_frames``.  Refuses kernel fields whose stability
    norm is not below 1.  The noise is drawn a few blocks ahead of the
    recursion on ``resolve_workers()`` threads; every draw is addressed
    by (site, frame), so the series has the same bits for any count.

    Parameters
    ----------
    kernels : KernelField
    n_frames : int
    noise : NoiseSpec
    burn_in : int
        Transient frames to discard (default 500).

    Returns
    -------
    GridSeries
    """
    blocks = _frame_blocks(kernels, n_frames, noise, burn_in)
    out = np.empty((n_frames, kernels.n_sites))
    t = 0
    for block in blocks:
        out[t : t + block.shape[0]] = block
        t += block.shape[0]
    return GridSeries._adopt(kernels.shape, out)


def _frame_blocks(kernels, n_frames, noise, burn_in):
    """Check :func:`simulate_liar`'s arguments, then return a generator of
    its ``n_frames`` frames in consecutive C-contiguous (b, n_sites)
    blocks, each computed when it is asked for."""
    if n_frames < 1:
        raise ConfigurationError("n_frames must be at least 1")
    if burn_in < 0:
        raise ConfigurationError("burn_in must be nonnegative")
    norm = operator_norm(kernels) if kernels._norm is None else kernels._norm
    if norm >= 1.0:
        raise StabilityError(
            f"kernel field has stability norm {norm!r} >= 1; "
            f"the recursion would not be stationary"
        )
    total = burn_in + n_frames
    if total >= 2**31:
        raise ConfigurationError("frame count exceeds the counter layout limit")
    n = kernels.n_sites
    site_keys = rng.derive_key(noise.seed, [_CTX_NOISE, np.arange(n)])
    # noise is addressed by (site, frame), so the block size never changes
    # the stream; on a 91x181 grid blocks of 2**16 draws ran 1.5x faster
    # than blocks of 2**18 (smaller temporaries)
    chunk = max(1, _NOISE_BLOCK // n)
    ops = kernels.operators()
    starts = range(0, total, chunk)
    workers = resolve_workers()
    ahead = _NOISE_AHEAD * workers

    def draw(start):
        frames = np.arange(start, min(start + chunk, total))
        if noise.sigma == 0.0:
            return np.zeros((frames.size, n))
        if noise.kind == "iid_gaussian":
            block = rng.frame_gaussians(site_keys, frames)
            block *= noise.sigma
            return block
        return noise.sigma * _SQRT3 * (2.0 * rng.frame_uniforms(site_keys, frames) - 1.0)

    def recursion():
        # x_t = sum_p Op_p x_{t-p} + e_t, computed in place on each noise block
        # while the pool draws the next ones (a pool even for one worker)
        state = [np.zeros(n)] * kernels.order  # x_{t-P}, ..., x_{t-1}
        with contextlib.closing(_in_order(draw, starts, workers, ahead)) as blocks:
            for start, block in zip(starts, blocks):
                for x in block:
                    for p, op in enumerate(ops):
                        x += op @ state[-1 - p]
                    state.append(x)
                    del state[0]
                if start + block.shape[0] > burn_in:
                    yield block[max(0, burn_in - start) :]

    return recursion()


def kernel_distance(a, b):
    """Frobenius distance between two kernel fields.

    The norm of the per-lag operator differences: coefficients are
    compared on the union of the two neighborhoods at each site (absent
    sites count as zero), summed over lags and sites.
    """
    if a.shape != b.shape:
        raise ConfigurationError(f"grid shapes differ: {a.shape} vs {b.shape}")
    if a.order != b.order:
        raise ConfigurationError(f"lag orders differ: {a.order} vs {b.order}")
    total = 0.0
    for op_a, op_b in zip(a.operators(), b.operators()):
        total += float(np.sum((op_a - op_b).data ** 2))
    return float(np.sqrt(total))
