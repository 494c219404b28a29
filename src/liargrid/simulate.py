"""Kernel fields and stationary simulation of local-interaction AR processes.

A kernel field assigns every grid site a neighborhood and, per lag, a
coefficient vector over that neighborhood.  The induced linear operator
on flattened frames is row-sparse: row i holds site i's lag-p
coefficients in its neighborhood's columns.  Simulation iterates

    x_t = sum_p  Op_p @ x_{t-p} + e_t

after a burn-in, starting from zero frames.  Stability is certified by
the operator norm (sum of per-lag spectral norms when P > 1), estimated
matrix-free by power iteration.

All noise comes from the counter-based streams in :mod:`liargrid.rng`,
one stream per site, so output is reproducible bit-for-bit regardless of
scheduling, and a shorter simulation is a prefix of a longer one.
"""

import collections
import operator
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from itertools import chain

import numpy as np
import scipy.sparse as sp

from . import rng
from .errors import ConfigurationError, NumericalError, StabilityError
from .grid import GridSeries, _JsonArtifact, _load_json, linear_to_site, sites_to_linear
from .neighborhoods import Neighborhood, _box_radii, _box_sites, _grid_centers

_NOISE_BLOCK = 2**16  # draws per noise block in simulate_liar
_SITE_BLOCK = 2**10  # sites flattened (from_dict) or converted (to JSON) at a time
_NOISE_AHEAD = 4  # noise blocks queued ahead of the recursion, per noise thread
_NORM_RTOL = 1e-8  # relative change that ends power iteration
_NORM_MAX_ITER = 10000
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


class _PerSite(Sequence):
    """Read-only sequence of per-site items, each built when accessed."""

    __slots__ = ("_n", "_item")

    def __init__(self, n, item):
        self._n = n
        self._item = item

    def __len__(self):
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._item(j) for j in range(*i.indices(self._n))]
        i = operator.index(i)
        if not -self._n <= i < self._n:
            raise IndexError(f"site index {i} out of range for {self._n} sites")
        return self._item(i % self._n)


def _lag_order(order):
    """``order`` as an int, refused below 1."""
    order = int(order)
    if order < 1:
        raise ConfigurationError("lag order must be at least 1")
    return order


class KernelField(_JsonArtifact):
    """Per-site neighborhoods and lagged coefficient vectors.

    The field is held as its P per-lag CSR operators on flattened
    frames: row i holds site i's lag-p coefficients on the linear indices
    of its neighborhood, in increasing order.  The operators share one
    ``indptr``/``indices`` pair and each has its own read-only ``data``
    array.  Each site also keeps its box radii, or none for a custom
    neighborhood.

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

    __slots__ = ("shape", "order", "_ops", "_radii", "_norm")

    def __init__(self, shape, order, neighborhoods, coeffs):
        shape = tuple(int(n) for n in shape)
        order = _lag_order(order)
        n_sites = int(np.prod(shape))
        if len(neighborhoods) != n_sites or len(coeffs) != n_sites:
            raise ConfigurationError(
                f"need one neighborhood and coefficient block per site "
                f"({n_sites}), got {len(neighborhoods)} and {len(coeffs)}"
            )
        centers = np.array([nb.center for nb in neighborhoods], dtype=np.intp)
        stray = np.flatnonzero(sites_to_linear(centers, shape) != np.arange(n_sites))
        if stray.size:
            i = int(stray[0])
            raise ConfigurationError(
                f"neighborhood {i} centered at {neighborhoods[i].center} is out of "
                f"canonical order"
            )
        fixed = []
        for nb, c in zip(neighborhoods, coeffs):
            c = np.asarray(c, dtype=np.float64)
            if c.ndim == 1:
                c = c[None, :]
            if c.shape != (order, nb.size):
                raise ConfigurationError(
                    f"site {nb.center}: coefficients {c.shape} do not match "
                    f"(P={order}, |J|={nb.size})"
                )
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
        n = indptr.size - 1
        ops = []
        for values in data:
            values.setflags(write=False)
            ops.append(sp.csr_matrix((values, indices, indptr), shape=(n, n)))
            # scipy's index dtype, shared by every lag
            indptr, indices = ops[0].indptr, ops[0].indices
        for arr in (indptr, indices, radii):
            arr.setflags(write=False)
        self.shape = shape
        self.order = order
        self._ops = ops
        self._radii = radii
        self._norm = None  # stability norm, carried when already known

    @property
    def n_sites(self):
        return self._ops[0].shape[0]

    @property
    def neighborhoods(self):
        """Per-site :class:`Neighborhood` views, built on access."""
        return _PerSite(self.n_sites, self._neighborhood)

    @property
    def coeffs(self):
        """Per-site read-only (P, |J|) coefficient arrays, built on access."""
        return _PerSite(self.n_sites, self._coeffs)

    def _neighborhood(self, i):
        a, b = self._ops[0].indptr[i : i + 2]
        linear = self._ops[0].indices[a:b].astype(np.intp)
        sites = np.stack(np.unravel_index(linear, self.shape, order="F"), axis=1)
        sites.setflags(write=False)
        linear.setflags(write=False)
        radii = self._radii[i].tolist()
        return Neighborhood._from_sorted(linear_to_site(i, self.shape), self.shape,
                                         sites, linear,
                                         None if radii[0] < 0 else tuple(radii))

    def _coeffs(self, i):
        a, b = self._ops[0].indptr[i : i + 2]
        c = np.stack([op.data[a:b] for op in self._ops])
        c.setflags(write=False)
        return c

    def operators(self):
        """Per-lag linear operators on flattened frames: the P CSR
        matrices the field is held as."""
        return self._ops

    def predict(self, lagged):
        """One-step conditional mean sum_p x_{t-p} Op_p'.

        ``lagged`` holds the P lagged blocks, lag 1 first, each
        (n, n_sites); returns the (n, n_sites) predictions.
        """
        # Op @ x' runs scipy's CSR kernel; x @ Op' goes through two transposes
        ops = self.operators()
        pred = (ops[0] @ lagged[0].T).T
        for x, op in zip(lagged[1:], ops[1:]):
            pred += (op @ x.T).T
        return pred

    def scale(self, factor):
        """New field with every coefficient multiplied by ``factor``."""
        op = self._ops[0]
        return KernelField._from_arrays(self.shape, self.order, op.indptr, op.indices,
                                        [o.data * factor for o in self._ops],
                                        self._radii)

    def _json_fields(self):
        return {"shape": list(self.shape), "P": self.order, "sites": self._entries()}

    def _entries(self):
        """Each site's kernel-file entry, converted a block of sites at a time."""
        op = self._ops[0]
        centers = _grid_centers(self.shape)
        for a in range(0, self.n_sites, _SITE_BLOCK):
            bounds = op.indptr[a : a + _SITE_BLOCK + 1]
            lo, hi = bounds[0], bounds[-1]
            sites = np.stack(np.unravel_index(op.indices[lo:hi], self.shape, order="F"),
                             axis=1).tolist()
            values = [o.data[lo:hi].tolist() for o in self._ops]
            bounds = (bounds - lo).tolist()
            for center, i, j in zip(centers[a : a + _SITE_BLOCK].tolist(), bounds,
                                    bounds[1:]):
                yield {"center": center, "neighborhood": sites[i:j],
                       "coeffs": [v[i:j] for v in values]}

    @classmethod
    def from_dict(cls, data):
        """Inverse of :meth:`to_dict`.  A neighborhood that is exactly the
        clipped box of its per-axis extent becomes that box, any other a
        custom neighborhood.  Sites may be listed in any order, and each
        site's neighborhood too, as long as its coefficient rows follow
        the same order."""
        return cls._from_arrays(*_field_arrays(data))

    @classmethod
    def load_json(cls, path):
        """Read a kernel JSON file; a malformed one raises ConfigurationError."""
        try:
            return _load_json(path, cls.from_dict)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ConfigurationError(f"malformed kernel file {path}: {exc!r}") from exc


def _field_arrays(data):
    """(shape, order, indptr, indices, per-lag data, radii) of a kernel
    dict, for :meth:`KernelField.from_dict`.

    The sites are flattened a block at a time into arrays allocated up
    front: temporaries over the whole field (about 40 MB for a 91x181
    radius-2 field) stayed resident on the heap once freed.
    """
    shape = tuple(int(n) for n in data["shape"])
    order = _lag_order(data["P"])
    n_sites, d = int(np.prod(shape)), len(shape)
    items = data["sites"]
    n = len(items)
    sizes = np.fromiter((len(item["neighborhood"]) for item in items), np.intp, n)
    if np.any(sizes == 0):
        raise ConfigurationError("kernel JSON has an empty neighborhood")
    centers = np.array([item["center"] for item in items], dtype=np.intp)
    center_linear = sites_to_linear(centers, shape)
    entry = np.full(n_sites, -1)  # item index per linear site
    entry[center_linear] = np.arange(n)
    missing = int(np.count_nonzero(entry < 0))
    if missing:
        raise ConfigurationError(f"kernel JSON is missing {missing} sites")
    if n > n_sites:  # every site is listed, so some site twice
        first = int(np.flatnonzero(entry[center_linear] != np.arange(n))[0])
        raise ConfigurationError(
            f"kernel JSON lists site {tuple(items[first]['center'])} more than once")

    indptr = np.zeros(n_sites + 1, dtype=np.intp)
    np.cumsum(sizes[entry], out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.intp)
    values = [np.empty(indptr[-1]) for _ in range(order)]
    radii = np.empty((n_sites, d), dtype=np.intp)
    for a in range(0, n, _SITE_BLOCK):
        block = items[a : a + _SITE_BLOCK]
        size, center = sizes[a : a + len(block)], centers[a : a + len(block)]
        listed = list(chain.from_iterable(item["neighborhood"] for item in block))
        ragged = np.fromiter(map(len, listed), np.intp, len(listed)) != d
        if np.any(ragged):
            raise ConfigurationError(f"kernel JSON site {listed[int(np.argmax(ragged))]} "
                                     f"does not have {d} coordinates")
        sites = np.fromiter(chain.from_iterable(listed), np.intp, d * len(listed))
        sites = sites.reshape(-1, d)
        linear = sites_to_linear(sites, shape)
        bounds = np.zeros(len(block) + 1, dtype=np.intp)  # item by item, as listed
        np.cumsum(size, out=bounds[1:])
        owner = np.repeat(np.arange(len(block)), size)
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
        radii[center_linear[a : a + len(block)]] = np.where(boxed[:, None], extents, -1)

        lists = [item["coeffs"] for item in block]
        bad = np.fromiter(map(len, lists), np.intp, len(lists)) != order
        if not bad.any():
            lists = list(chain.from_iterable(lists))
            widths = np.fromiter(map(len, lists), np.intp, len(lists))
            bad = (widths.reshape(-1, order) != size[:, None]).any(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise ConfigurationError(f"site {tuple(center[i].tolist())}: coefficients "
                                     f"do not match (P={order}, |J|={size[i]})")
        flat = np.fromiter(chain.from_iterable(lists), np.float64, order * linear.size)
        finite = np.isfinite(flat)
        if not finite.all():
            i = np.searchsorted(bounds, int(np.argmin(finite)) // order, side="right") - 1
            raise ConfigurationError(
                f"site {tuple(center[i].tolist())}: non-finite coefficients")
        # item i lists lag p's coefficient j at order * bounds[i] + p * size[i] + j
        at = (np.arange(linear.size) + (order - 1) * bounds[owner])[perm]
        step = size[owner][perm]
        out = np.repeat(indptr[center_linear[a : a + len(block)]] - bounds[:-1], size)
        out += np.arange(linear.size)
        indices[out] = linear
        for p, v in enumerate(values):
            v[out] = flat[at + p * step]
    return shape, order, indptr, indices, values, radii


def operator_norm(kernels):
    """Stability norm of a kernel field.

    For P = 1 this is the largest singular value of the induced operator,
    found by power iteration on M'M with matrix-free products.  For
    P > 1 the per-lag spectral norms are summed; the sum being below 1
    certifies a stationary solution and reduces to the P = 1 value when
    there is one lag.  OpenBLAS runs on one thread for the call: split
    across threads, its dot products on long vectors (above about 10000
    sites) round differently, and the norm scales every random field.

    Raises
    ------
    NumericalError
        If power iteration has not converged after 10000 steps (relative
        tolerance 1e-8); the message reports the last two iterates.
    """
    return _operator_norm(kernels)[0]


def _operator_norm(kernels, start=None):
    """:func:`operator_norm` and each lag's converged right singular
    vector; ``start`` holds per-lag starting vectors (a fixed
    pseudo-random one per lag by default)."""
    from .fit import single_threaded_blas  # fit imports this module

    ops = kernels.operators()
    with single_threaded_blas():
        parts = [_spectral_norm(op, v) for op, v in zip(ops, start or [None] * len(ops))]
    return float(sum(norm for norm, _ in parts)), [v for _, v in parts]


def _spectral_norm(op, v=None):
    if v is None:
        n = op.shape[0]
        key = rng.derive_key(0x5EED0FF, [n])
        v = rng.uniforms(key, np.arange(n)) - 0.5
        nv = np.linalg.norm(v)
        if nv == 0.0:
            v = np.ones(n)
            nv = np.linalg.norm(v)
        v /= nv
    op_t = op.T.tocsr()
    lam_prev = None
    for _ in range(_NORM_MAX_ITER):
        w = op_t @ (op @ v)
        lam = float(v @ w)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0 or lam <= 0.0:
            return 0.0, v
        v = w / norm_w
        if lam_prev is not None and abs(lam - lam_prev) <= _NORM_RTOL * max(lam, 1e-300):
            return float(np.sqrt(lam)), v
        lam_prev = lam
    raise NumericalError(
        f"power iteration did not converge in {_NORM_MAX_ITER} steps; "
        f"last two iterates {lam_prev:.17g}, {lam:.17g}"
    )


def random_stable_kernels(shape, radii, order=1, target_norm=0.8, seed=0):
    """Random kernel field rescaled to a prescribed stability norm.

    Coefficients are i.i.d. uniform(-1, 1) on clipped boxes of the given
    radius, drawn from counter streams keyed by (seed, site, lag), then
    all rescaled by target_norm / operator_norm.  A draw of norm at most
    1e-12 needs every coefficient within 1e-12 of 0 (about a 1e-12 chance
    each) and raises :class:`NumericalError`.  The rescaled norm is
    checked by power iteration started from the draw's singular vectors,
    and the field carries it to :func:`simulate_liar`.

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
    shape = tuple(int(n) for n in shape)
    radii = _box_radii(radii, shape)
    order = _lag_order(order)
    _, indices, indptr = _box_sites(_grid_centers(shape), shape, radii)
    sizes = np.diff(indptr)
    box_radii = np.broadcast_to(np.array(radii, dtype=np.intp), (sizes.size, len(shape)))
    site_ids = np.arange(sizes.size)[:, None]
    counters = np.arange(sizes.max())
    drawn = counters < sizes[:, None]  # each site's counters, box by box
    # (site, lag) streams, each read from counter 0 up to its box size
    keys = rng.derive_key(seed, [_CTX_KERNEL, site_ids, np.arange(order)])
    draws = 2.0 * rng.uniforms(keys[:, :, None], counters) - 1.0
    field = KernelField._from_arrays(shape, order, indptr, indices,
                                     [draws[:, p][drawn] for p in range(order)],
                                     box_radii)
    norm, vectors = _operator_norm(field)
    if not norm > 1e-12:
        raise NumericalError("kernel draws degenerate (zero norm)")
    scaled = field.scale(target_norm / norm)
    final, _ = _operator_norm(scaled, vectors)
    if abs(final - target_norm) > 1e-6:
        raise NumericalError(f"rescaled norm {final} missed target {target_norm}")
    scaled._norm = final
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
    from .fit import resolve_workers  # fit imports this module

    if n_frames < 1:
        raise ConfigurationError("n_frames must be at least 1")
    if burn_in < 0:
        raise ConfigurationError("burn_in must be nonnegative")
    norm = operator_norm(kernels) if kernels._norm is None else kernels._norm
    if norm >= 1.0:
        raise StabilityError(
            f"kernel field has stability norm {norm:.6f} >= 1; "
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
        # x_t = sum_p Op_p x_{t-p} + e_t, computed in place on each noise
        # block while the pool draws the next ones
        state = [np.zeros(n)] * kernels.order  # x_{t-P}, ..., x_{t-1}
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            queued = collections.deque(pool.submit(draw, s) for s in starts[:ahead])
            for i, start in enumerate(starts):
                block = queued.popleft().result()
                if i + ahead < len(starts):
                    queued.append(pool.submit(draw, starts[i + ahead]))
                for x in block:
                    for p, op in enumerate(ops):
                        x += op @ state[-1 - p]
                    state.append(x)
                    del state[0]
                if start + block.shape[0] > burn_in:
                    yield block[max(0, burn_in - start) :]
        finally:
            pool.shutdown(cancel_futures=True)

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
