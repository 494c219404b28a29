"""Separable low-rank projection of fitted kernel fields (2-D grids).

The per-site kernel patches of an (M, N) grid with uniform box radii
(K1, K2) tile a block matrix: block (i1, i2) is site (i1, i2)'s patch,
zero-padded where the box was clipped at the boundary.  Under a
separable model this block matrix has low rank, so projecting it onto
its top R singular directions and scattering the blocks back onto the
clipped footprints shrinks estimation noise without changing the model
class.  Outputs are always whole kernels or blocks, never split factors.
"""

import warnings

import numpy as np

from . import rng
from ._threads import single_threaded_blas
from .errors import ConfigurationError, NumericalError, StructureError
from .fit import FitReport, _require_complete, fit_all
from .grid import GridSeries, _require_2d
from .neighborhoods import _box_radii, box_field
from .simulate import KernelField

_DENSE_SVD_LIMIT = 4_000_000  # entries; larger matrices use the subspace path


class BlockKernelMatrix:
    """Dense block layout of one lag's kernel patches.

    Attributes
    ----------
    grid_shape : (M, N)
    radii : (K1, K2)
    lag : int
        1-based lag this block matrix belongs to.
    data : ndarray, shape (M*(2*K1+1), N*(2*K2+1))
        Block (i1, i2) spans rows i1*(2*K1+1):(i1+1)*(2*K1+1) and the
        matching columns; within a block, entry (K1+u1-i1, K2+u2-i2) is
        the coefficient of source site (u1, u2).
    """

    __slots__ = ("grid_shape", "radii", "lag", "data")

    def __init__(self, grid_shape, radii, lag, data):
        self.grid_shape = tuple(grid_shape)
        self.radii = tuple(radii)
        self.lag = int(lag)
        b1, b2 = 2 * self.radii[0] + 1, 2 * self.radii[1] + 1
        expected = (self.grid_shape[0] * b1, self.grid_shape[1] * b2)
        data = np.asarray(data, dtype=np.float64)
        if data.shape != expected:
            raise ConfigurationError(
                f"block data {data.shape} does not match expected {expected}"
            )
        self.data = data

    @property
    def block_shape(self):
        return (2 * self.radii[0] + 1, 2 * self.radii[1] + 1)

    def block(self, i1, i2):
        """View of site (i1, i2)'s padded patch."""
        b1, b2 = self.block_shape
        return self.data[i1 * b1 : (i1 + 1) * b1, i2 * b2 : (i2 + 1) * b2]

    def to_series(self):
        """One-frame GridSeries view of the block matrix (for GTS export)."""
        return GridSeries.from_frames(self.data[None, :, :])


def _cells(neighborhoods, radii):
    """Block-matrix (rows, columns) of each box's sites in turn, for block
    ``radii`` (see :class:`BlockKernelMatrix`), and where each box's run
    ends; :class:`StructureError` for a non-box or a box beyond ``radii``."""
    k = np.array(radii)
    extents = np.array([nb.radii or (-1, -1) for nb in neighborhoods])
    extents = extents.reshape(len(neighborhoods), 2)
    bad = np.flatnonzero((extents < 0).any(axis=1) | (extents > k).any(axis=1))
    if bad.size:
        nb = neighborhoods[bad[0]]
        if nb.radii is None:
            raise StructureError(f"site {nb.center}: non-box neighborhood cannot be tiled")
        raise StructureError(
            f"site {nb.center}: box radii {nb.radii} exceed block radii {radii}")
    sizes = [nb.size for nb in neighborhoods]
    centers = np.array([nb.center for nb in neighborhoods], dtype=np.intp)
    centers = np.repeat(centers.reshape(len(neighborhoods), 2), sizes, axis=0)
    sites = np.concatenate([nb.sites for nb in neighborhoods]
                           + [np.empty((0, 2), dtype=np.intp)])
    cells = centers * (2 * k + 1) + k + (sites - centers)
    return (cells[:, 0], cells[:, 1]), np.cumsum(sizes)


def assemble_block(fits, radii, lag=1):
    """Tile per-site fits into the padded block matrix for one lag.

    Parameters
    ----------
    fits : FitReport or iterable of SiteFit
        One fit per site of a 2-D grid; every fitted neighborhood must be
        a box with radii componentwise <= ``radii``.
    radii : (K1, K2)
    lag : int
        1-based lag whose coefficients are placed.

    Returns
    -------
    BlockKernelMatrix

    Raises
    ------
    StructureError
        For non-box neighborhoods or radii exceeding the block size.
    """
    fit_list = list(fits)
    if isinstance(fits, FitReport):
        _require_complete(fits.shape, len(fit_list), fits.errors)
    elif not fit_list:
        raise ConfigurationError("no fits supplied")
    shape = fit_list[0].neighborhood.shape
    if len(shape) != 2:
        raise StructureError("block assembly is defined for 2-D grids only")
    k1, k2 = (int(r) for r in radii)
    if not 1 <= lag <= fit_list[0].order:
        raise ConfigurationError(f"lag {lag} outside 1..{fit_list[0].order}")
    cells, _ = _cells([fit.neighborhood for fit in fit_list], (k1, k2))
    data = np.zeros((shape[0] * (2 * k1 + 1), shape[1] * (2 * k2 + 1)))
    data[cells] = np.concatenate([fit.coeffs_by_lag()[lag - 1] for fit in fit_list])
    return BlockKernelMatrix(shape, (k1, k2), lag, data)


def scatter_block(block, neighborhoods):
    """Read per-site coefficient vectors back off a block matrix.

    ``neighborhoods`` lists the clipped footprints (canonical site
    order); returns one vector per site aligned to its site order.
    Padded cells outside the footprints are ignored.  Raises
    :class:`StructureError` for a non-box footprint or one larger than
    the block.
    """
    cells, ends = _cells(list(neighborhoods), block.radii)
    return np.split(block.data[cells], ends)[:-1]


def truncated_svd(mat, rank):
    """Best rank-``rank`` Frobenius approximation of a dense matrix.

    Sign convention: each retained left singular vector has its
    largest-magnitude entry positive, so results are reproducible across
    platforms.  When ``rank >= min(mat.shape)`` the input is returned
    unchanged (with a warning).  Dense SVD up to 4e6 entries, an
    iterative subspace solver above; both paths agree to 1e-8.  OpenBLAS
    runs on one thread for the call: split across threads, the SVD of a
    300x300 matrix rounds differently.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ConfigurationError("truncated_svd expects a matrix")
    rank = int(rank)
    if rank < 1:
        raise ConfigurationError(f"rank must be at least 1, got {rank}")
    if rank >= min(mat.shape):
        warnings.warn(
            f"rank {rank} >= min{mat.shape}; returning the input unchanged",
            stacklevel=2,
        )
        return mat.copy()
    if mat.size > _DENSE_SVD_LIMIT:
        v0 = rng.uniforms(rng.derive_key(0x51D5, [min(mat.shape)]),
                          np.arange(min(mat.shape))) - 0.5
        from scipy.sparse.linalg import svds  # before the pin: loads scipy's OpenBLAS
    with single_threaded_blas():
        if mat.size <= _DENSE_SVD_LIMIT:
            u, s, vt = np.linalg.svd(mat, full_matrices=False)
            u, s, vt = u[:, :rank], s[:rank], vt[:rank]
        else:
            try:
                u, s, vt = svds(mat, k=rank, v0=v0)
            except Exception as exc:  # ARPACK failures surface as various types
                raise NumericalError(f"subspace SVD failed: {exc}") from exc
            order = np.argsort(s)[::-1]
            u, s, vt = u[:, order], s[order], vt[order]
        for r in range(rank):
            j = int(np.argmax(np.abs(u[:, r])))
            if u[j, r] < 0:
                u[:, r] = -u[:, r]
                vt[r] = -vt[r]
        return (u * s) @ vt


class SeparableFit:
    """Result of a separable (low-rank projected) fit.

    ``raw`` is the unprojected FitReport; ``blocks`` are the projected
    per-lag block matrices; ``kernels`` the projected per-site field.
    """

    __slots__ = ("shape", "order", "radii", "rank", "raw", "blocks", "kernels")

    def __init__(self, shape, order, radii, rank, raw, blocks, kernels):
        self.shape = shape
        self.order = order
        self.radii = radii
        self.rank = rank
        self.raw = raw
        self.blocks = blocks
        self.kernels = kernels


def _check_separable(shape, radii, rank):
    """Box radii and rank of a separable fit: 2-D, 1 <= rank <= shorter block side."""
    _require_2d(shape, "separable fitting")
    radii = _box_radii(radii, shape)
    rank, top = int(rank), min(2 * r + 1 for r in radii)
    if not 1 <= rank <= top:
        raise ConfigurationError(f"rank must lie in 1..{top} for radii {radii}, got {rank}")
    return radii, rank


def fit_spliar(series, radii, order=1, rank=1, n_workers=None):
    """Fit uniform-box kernels, project each lag's block matrix to low rank.

    Parameters
    ----------
    series : GridSeries (2-D grid)
    radii : (K1, K2) or scalar
        Uniform box radii for every site.
    order : int
        Lag order P.
    rank : int
        Target rank R; must satisfy 1 <= R <= min(2*K1+1, 2*K2+1).
    n_workers : int, optional

    Returns
    -------
    SeparableFit
    """
    radii, rank = _check_separable(series.shape, radii, rank)
    b1, b2 = 2 * radii[0] + 1, 2 * radii[1] + 1
    shape = series.shape
    neighborhoods = box_field(shape, radii)
    raw = fit_all(series, neighborhoods, order=order, n_workers=n_workers,
                  compute_se=False)

    # CSR rows run site by site, each box in linear order, as _cells does
    field = raw.kernels()
    cells, _ = _cells(neighborhoods, radii)
    blocks, data = [], []
    for lag, values in enumerate(field._data, start=1):
        dense = np.zeros((shape[0] * b1, shape[1] * b2))
        dense[cells] = values
        blocks.append(BlockKernelMatrix(shape, radii, lag, truncated_svd(dense, rank)))
        data.append(blocks[-1].data[cells])
    kernels = KernelField._from_arrays(shape, order, field._indptr, field._indices, data,
                                       field._radii)
    return SeparableFit(shape, order, radii, rank, raw, blocks, kernels)
