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
from .grid import GridSeries, site_to_linear
from .neighborhoods import box_field, neighborhood_from_sites

_DENSE_OPERATOR_LIMIT = 1024  # sites; below this dense matvec beats CSR
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
        fixed = []
        for i, (nb, c) in enumerate(zip(neighborhoods, coeffs)):
            if site_to_linear(nb.center, self.shape) != i:
                raise ConfigurationError(
                    f"neighborhood {i} centered at {nb.center} is out of "
                    f"canonical order"
                )
            c = np.asarray(c, dtype=np.float64)
            if c.ndim == 1:
                c = c[None, :]
            if c.shape != (self.order, nb.size):
                raise ConfigurationError(
                    f"site {nb.center}: coefficients {c.shape} do not match "
                    f"(P={self.order}, |J|={nb.size})"
                )
            if not np.all(np.isfinite(c)):
                raise ConfigurationError(f"site {nb.center}: non-finite coefficients")
            fixed.append(c)
        self.neighborhoods = list(neighborhoods)
        self.coeffs = fixed
        self._ops = None

    @property
    def n_sites(self):
        return len(self.neighborhoods)

    def operators(self, dense=None):
        """Per-lag linear operators on flattened frames.

        Returns a list of P arrays (dense) or CSR matrices, cached.
        ``dense`` forces the representation; default picks dense for
        small grids.
        """
        if self._ops is not None:
            return self._ops
        n = self.n_sites
        if dense is None:
            dense = n <= _DENSE_OPERATOR_LIMIT
        ops = []
        if dense:
            for p in range(self.order):
                m = np.zeros((n, n))
                for i, nb in enumerate(self.neighborhoods):
                    m[i, nb.linear] = self.coeffs[i][p]
                ops.append(m)
        else:
            rows = np.concatenate(
                [np.full(nb.size, i, dtype=np.intp) for i, nb in enumerate(self.neighborhoods)]
            )
            cols = np.concatenate([nb.linear for nb in self.neighborhoods])
            for p in range(self.order):
                data = np.concatenate([c[p] for c in self.coeffs])
                ops.append(sp.csr_matrix((data, (rows, cols)), shape=(n, n)))
        self._ops = ops
        return ops

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
        shape = tuple(data["shape"])
        order = int(data["P"])
        n_sites = int(np.prod(shape))
        entries = [None] * n_sites
        for item in data["sites"]:
            center = tuple(item["center"])
            lin = site_to_linear(center, shape)
            nb = neighborhood_from_sites(center, shape, item["neighborhood"])
            entries[lin] = (nb, np.asarray(item["coeffs"], dtype=np.float64))
        missing = sum(e is None for e in entries)
        if missing:
            raise ConfigurationError(f"kernel JSON is missing {missing} sites")
        return cls(shape, order, [e[0] for e in entries], [e[1] for e in entries])

    def save_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def operator_norm(kernels, rtol=1e-8, max_iter=10000):
    """Stability norm of a kernel field.

    For P = 1 this is the largest singular value of the induced operator,
    found by power iteration on M'M with matrix-free products.  For
    P > 1 the per-lag spectral norms are summed; the sum being below 1
    certifies a stationary solution and reduces to the P = 1 value when
    there is one lag.

    Raises
    ------
    NumericalError
        If power iteration has not converged after ``max_iter`` steps;
        the message reports the last two iterates.
    """
    ops = kernels.operators()
    return float(sum(_spectral_norm(op, rtol, max_iter) for op in ops))


def _spectral_norm(op, rtol, max_iter):
    n = op.shape[0]
    key = rng.derive_key(0x5EED0FF, [n])
    v = rng.uniforms(key, np.arange(n)) - 0.5
    nv = np.linalg.norm(v)
    if nv == 0.0:
        v = np.ones(n)
        nv = np.linalg.norm(v)
    v /= nv
    op_t = op.T if isinstance(op, np.ndarray) else op.T.tocsr()
    lam_prev = None
    for _ in range(max_iter):
        w = op_t @ (op @ v)
        lam = float(v @ w)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0 or lam <= 0.0:
            return 0.0
        v = w / norm_w
        if lam_prev is not None and abs(lam - lam_prev) <= rtol * max(lam, 1e-300):
            return float(np.sqrt(lam))
        lam_prev = lam
    raise NumericalError(
        f"power iteration did not converge in {max_iter} steps; "
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
    for attempt in range(6):
        s = seed + attempt
        coeffs = []
        for i, nb in enumerate(neighborhoods):
            block = np.empty((order, nb.size))
            for p in range(order):
                key = rng.derive_key(s, [_CTX_KERNEL, i, p])
                block[p] = 2.0 * rng.uniforms(key, np.arange(nb.size)) - 1.0
            coeffs.append(block)
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
    chunk = 256
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        frames_idx = np.arange(start, stop)
        if noise.sigma == 0.0:
            block = np.zeros((stop - start, n))
        elif noise.kind == "iid_gaussian":
            block = noise.sigma * rng.frame_gaussians(site_keys, frames_idx)
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

    Coefficients are compared on the union of the two neighborhoods at
    each site (absent sites count as zero), summed over lags and sites.
    """
    if a.shape != b.shape:
        raise ConfigurationError(f"grid shapes differ: {a.shape} vs {b.shape}")
    if a.order != b.order:
        raise ConfigurationError(f"lag orders differ: {a.order} vs {b.order}")
    total = 0.0
    for nb_a, ca, nb_b, cb in zip(a.neighborhoods, a.coeffs, b.neighborhoods, b.coeffs):
        if np.array_equal(nb_a.linear, nb_b.linear):
            total += float(np.sum((ca - cb) ** 2))
            continue
        union = np.union1d(nb_a.linear, nb_b.linear)
        wa = np.zeros((a.order, union.size))
        wb = np.zeros((b.order, union.size))
        wa[:, np.searchsorted(union, nb_a.linear)] = ca
        wb[:, np.searchsorted(union, nb_b.linear)] = cb
        total += float(np.sum((wa - wb) ** 2))
    return float(np.sqrt(total))
