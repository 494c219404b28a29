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

import json

import numpy as np
import scipy.sparse as sp

from . import rng
from .errors import ConfigurationError, NumericalError, StabilityError
from .grid import GridSeries, sites_to_linear
from .neighborhoods import _boxes, box_field, custom_neighborhood

_NOISE_BLOCK = 2**16  # draws per noise block in simulate_liar
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
        Per-entry standard deviation, >= 0 (0 means noiseless).
    seed : int
        Stream seed; all draws are pure functions of (seed, site, frame).
    """

    __slots__ = ("kind", "sigma", "seed")

    def __init__(self, kind="iid_gaussian", sigma=1.0, seed=0):
        if kind not in ("iid_gaussian", "iid_uniform"):
            raise ConfigurationError(f"unknown noise kind {kind!r}")
        sigma = float(sigma)
        if not sigma >= 0.0:
            raise ConfigurationError(f"sigma must be nonnegative, got {sigma}")
        self.kind = kind
        self.sigma = sigma
        self.seed = int(seed)

    def __repr__(self):
        return f"NoiseSpec(kind={self.kind!r}, sigma={self.sigma}, seed={self.seed})"


class KernelField:
    """Per-site neighborhoods and lagged coefficient vectors.

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

    __slots__ = ("shape", "order", "neighborhoods", "coeffs", "_ops")

    def __init__(self, shape, order, neighborhoods, coeffs):
        self.shape = tuple(int(n) for n in shape)
        self.order = int(order)
        if self.order < 1:
            raise ConfigurationError("lag order must be at least 1")
        n_sites = int(np.prod(self.shape))
        if len(neighborhoods) != n_sites or len(coeffs) != n_sites:
            raise ConfigurationError(
                f"need one neighborhood and coefficient block per site "
                f"({n_sites}), got {len(neighborhoods)} and {len(coeffs)}"
            )
        centers = np.array([nb.center for nb in neighborhoods], dtype=np.intp)
        stray = np.flatnonzero(sites_to_linear(centers, self.shape) != np.arange(n_sites))
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
            if c.shape != (self.order, nb.size):
                raise ConfigurationError(
                    f"site {nb.center}: coefficients {c.shape} do not match "
                    f"(P={self.order}, |J|={nb.size})"
                )
            if not np.isfinite(c).all():
                raise ConfigurationError(f"site {nb.center}: non-finite coefficients")
            fixed.append(c)
        self.neighborhoods = list(neighborhoods)
        self.coeffs = fixed
        self._ops = None

    @property
    def n_sites(self):
        return len(self.neighborhoods)

    def operators(self):
        """Per-lag linear operators on flattened frames: a list of P CSR
        matrices, cached."""
        if self._ops is None:
            n = self.n_sites
            rows = np.repeat(np.arange(n), [nb.size for nb in self.neighborhoods])
            cols = np.concatenate([nb.linear for nb in self.neighborhoods])
            self._ops = [
                sp.csr_matrix((np.concatenate([c[p] for c in self.coeffs]),
                               (rows, cols)), shape=(n, n))
                for p in range(self.order)
            ]
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
        return KernelField(
            self.shape,
            self.order,
            self.neighborhoods,
            [c * factor for c in self.coeffs],
        )

    def to_dict(self):
        return {
            "shape": list(self.shape),
            "P": self.order,
            "sites": [
                {
                    "center": list(nb.center),
                    "neighborhood": nb.sites.tolist(),
                    "coeffs": c.tolist(),
                }
                for nb, c in zip(self.neighborhoods, self.coeffs)
            ],
        }

    @classmethod
    def from_dict(cls, data):
        """Inverse of :meth:`to_dict`.  A neighborhood that is exactly the
        clipped box of its per-axis extent becomes that box, any other a
        custom neighborhood."""
        shape = tuple(data["shape"])
        order = int(data["P"])
        n_sites = int(np.prod(shape))
        items = data["sites"]
        sizes = np.array([len(item["neighborhood"]) for item in items], dtype=np.intp)
        if np.any(sizes == 0):
            raise ConfigurationError("kernel JSON has an empty neighborhood")
        centers = np.array([item["center"] for item in items], dtype=np.intp)
        sites = np.array([s for item in items for s in item["neighborhood"]],
                         dtype=np.intp)
        center_linear = sites_to_linear(centers, shape)
        entry = np.full(n_sites, -1)  # item index per linear site
        entry[center_linear] = np.arange(len(items))
        linear = sites_to_linear(sites, shape)
        missing = int(np.count_nonzero(entry < 0))
        if missing:
            raise ConfigurationError(f"kernel JSON is missing {missing} sites")
        if len(items) > n_sites:  # every site is listed, so some site twice
            first = int(np.flatnonzero(entry[center_linear] != np.arange(len(items)))[0])
            raise ConfigurationError(
                f"kernel JSON lists site {tuple(items[first]['center'])} more than once")

        ends = np.cumsum(sizes)
        starts = ends - sizes
        owner = np.repeat(np.arange(len(items)), sizes)
        extents = np.maximum.reduceat(np.abs(sites - centers[owner]), starts, axis=0)
        perm = np.lexsort((linear, owner))  # each item's sites in linear order
        linear = linear[perm]
        unsorted = set(owner[perm != np.arange(perm.size)].tolist())
        neighborhoods = [None] * len(items)
        distinct, group = np.unique(extents, axis=0, return_inverse=True)
        for g, radii in enumerate(distinct.tolist()):
            members = np.flatnonzero(group.ravel() == g)
            boxes = _boxes(centers[members], shape, tuple(radii))
            for i, box in zip(members.tolist(), boxes):
                a, b = starts[i], ends[i]
                if box.size == b - a and np.array_equal(box.linear, linear[a:b]):
                    neighborhoods[i] = box
                else:
                    neighborhoods[i] = custom_neighborhood(
                        box.center, shape, items[i]["neighborhood"])

        def coeffs(i):
            # coefficient columns follow their sites into linear order
            c = np.asarray(items[i]["coeffs"], dtype=np.float64)
            a, b = starts[i], ends[i]
            if i in unsorted and c.shape[-1:] == (b - a,):
                c = c[..., perm[a:b] - a]
            return c

        entry = entry.tolist()
        return cls(shape, order, [neighborhoods[i] for i in entry],
                   [coeffs(i) for i in entry])

    def save_json(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_dict()))

    @classmethod
    def load_json(cls, path):
        """Read a kernel JSON file; a malformed one raises ConfigurationError."""
        with open(path) as fh:
            try:
                return cls.from_dict(json.load(fh))
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise ConfigurationError(f"malformed kernel file {path}: {exc!r}") from exc


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
    from .fit import single_threaded_blas  # fit imports this module

    with single_threaded_blas():
        return float(sum(_spectral_norm(op) for op in kernels.operators()))


def _spectral_norm(op):
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
            return 0.0
        v = w / norm_w
        if lam_prev is not None and abs(lam - lam_prev) <= _NORM_RTOL * max(lam, 1e-300):
            return float(np.sqrt(lam))
        lam_prev = lam
    raise NumericalError(
        f"power iteration did not converge in {_NORM_MAX_ITER} steps; "
        f"last two iterates {lam_prev:.17g}, {lam:.17g}"
    )


def random_stable_kernels(shape, radii, order=1, target_norm=0.8, seed=0):
    """Random kernel field rescaled to a prescribed stability norm.

    Coefficients are i.i.d. uniform(-1, 1) on clipped boxes of the given
    radius, drawn from counter streams keyed by (seed, site, lag), then
    all rescaled by target_norm / operator_norm.  A degenerate draw with
    zero norm is retried with seed+1, at most 5 times.

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
    neighborhoods = box_field(shape, radii)
    site_ids = np.arange(len(neighborhoods))[:, None]
    counters = np.arange(max(nb.size for nb in neighborhoods))
    for attempt in range(6):
        s = seed + attempt
        # (site, lag) streams, each read from counter 0 up to its box size
        keys = rng.derive_key(s, [_CTX_KERNEL, site_ids, np.arange(order)])
        draws = 2.0 * rng.uniforms(keys[:, :, None], counters) - 1.0
        coeffs = [draws[i, :, : nb.size] for i, nb in enumerate(neighborhoods)]
        field = KernelField(shape, order, neighborhoods, coeffs)
        norm = operator_norm(field)
        if norm > 1e-12:
            scaled = field.scale(target_norm / norm)
            final = operator_norm(scaled)
            if abs(final - target_norm) > 1e-6:
                raise NumericalError(
                    f"rescaled norm {final} missed target {target_norm}"
                )
            return scaled
    raise NumericalError("kernel draws degenerate (zero norm) after 5 retries")


def simulate_liar(kernels, n_frames, noise, burn_in=500):
    """Simulate a stationary local-interaction AR series.

    Starts from P zero frames, iterates ``burn_in + n_frames`` steps, and
    returns the last ``n_frames``.  Refuses kernel fields whose stability
    norm is not below 1.

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
    if n_frames < 1:
        raise ConfigurationError("n_frames must be at least 1")
    if burn_in < 0:
        raise ConfigurationError("burn_in must be nonnegative")
    norm = operator_norm(kernels)
    if norm >= 1.0:
        raise StabilityError(
            f"kernel field has stability norm {norm:.6f} >= 1; "
            f"the recursion would not be stationary"
        )
    total = burn_in + n_frames
    if total >= 2**31:
        raise ConfigurationError("frame count exceeds the counter layout limit")
    ops = kernels.operators()
    order = kernels.order
    n = kernels.n_sites
    site_keys = rng.derive_key(noise.seed, [_CTX_NOISE, np.arange(n)])

    out = np.empty((n_frames, n))
    state = [np.zeros(n) for _ in range(order)]
    # noise is addressed by (site, frame), so the block size never changes
    # the stream; on a 91x181 grid blocks of 2**16 draws ran 1.5x faster
    # than blocks of 2**18 (smaller temporaries)
    chunk = max(1, _NOISE_BLOCK // n)
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        frames_idx = np.arange(start, stop)
        if noise.sigma == 0.0:
            block = np.zeros((stop - start, n))
        elif noise.kind == "iid_gaussian":
            block = rng.frame_gaussians(site_keys, frames_idx)
            block *= noise.sigma
        else:
            block = noise.sigma * _SQRT3 * (
                2.0 * rng.frame_uniforms(site_keys, frames_idx) - 1.0
            )
        for local, t in enumerate(range(start, stop)):
            x = block[local]
            for p in range(order):
                x = x + (ops[p] @ state[-1 - p])
            state.append(x)
            del state[0]
            if t >= burn_in:
                out[t - burn_in] = x
    return GridSeries(kernels.shape, out)


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
