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
from .fit import FitReport, fit_all
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


def _cells(centers, sites, sizes, extents, radii):
    """Block-matrix (rows, columns) of each box's sites in turn, for block
    ``radii`` (see :class:`BlockKernelMatrix`), and where each box's run
    ends: the boxes centered at the rows of ``centers``, with box radii
    rows ``extents`` (-1 for a non-box) and sizes ``sizes``, their sites
    the rows of ``sites`` box by box; :class:`StructureError` for a
    non-box or a box beyond ``radii``."""
    k = np.array(radii)
    bad = np.flatnonzero((extents < 0).any(axis=1) | (extents > k).any(axis=1))
    if bad.size:
        center, extent = tuple(centers[bad[0]].tolist()), tuple(extents[bad[0]].tolist())
        if extent[0] < 0:
            raise StructureError(f"site {center}: non-box neighborhood cannot be tiled")
        raise StructureError(f"site {center}: box radii {extent} exceed block radii {radii}")
    centers = np.repeat(centers, sizes, axis=0)
    cells = centers * (2 * k + 1) + k + (sites - centers)
    return (cells[:, 0], cells[:, 1]), np.cumsum(sizes)


def _neighborhood_cells(neighborhoods, radii):
    """:func:`_cells` of a list of 2-D :class:`Neighborhood` objects."""
    n = len(neighborhoods)
    return _cells(np.array([nb.center for nb in neighborhoods], dtype=np.intp).reshape(n, 2),
                  np.concatenate([nb.sites for nb in neighborhoods]
                                 + [np.empty((0, 2), dtype=np.intp)]),
                  [nb.size for nb in neighborhoods],
                  np.array([nb.radii or (-1, -1) for nb in neighborhoods]).reshape(n, 2),
                  radii)


def _field_cells(field, radii):
    """:func:`_cells` of a 2-D :class:`KernelField`'s sites: its CSR rows
    run site by site, each neighborhood in linear order."""
    unravel = lambda x: np.stack(np.unravel_index(x, field.shape, order="F"), axis=1)
    return _cells(unravel(np.arange(field.n_sites)), unravel(field._indices),
                  np.diff(field._indptr), field._radii, radii)[0]


def _tile(shape, radii, cells, values):
    """The (M*(2*K1+1), N*(2*K2+1)) block matrix holding ``values`` at ``cells``."""
    data = np.zeros((shape[0] * (2 * radii[0] + 1), shape[1] * (2 * radii[1] + 1)))
    data[cells] = values
    return data


def assemble_block(fits, radii, lag=1):
    """Tile per-site fits into the padded block matrix for one lag.

    A :class:`FitReport` is read from its arrays, through its kernel
    field, with no per-site object built.

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
    if isinstance(fits, FitReport):
        field = fits.kernels()
        shape, order = field.shape, field.order
    else:
        fit_list = list(fits)
        if not fit_list:
            raise ConfigurationError("no fits supplied")
        shape, order = fit_list[0].neighborhood.shape, fit_list[0].order
    if len(shape) != 2:
        raise StructureError("block assembly is defined for 2-D grids only")
    k1, k2 = (int(r) for r in radii)
    radii = (k1, k2)
    if not 1 <= lag <= order:
        raise ConfigurationError(f"lag {lag} outside 1..{order}")
    if isinstance(fits, FitReport):
        cells, values = _field_cells(field, radii), field._data[lag - 1]
    else:
        cells = _neighborhood_cells([fit.neighborhood for fit in fit_list], radii)[0]
        values = np.concatenate([fit.coeffs_by_lag()[lag - 1] for fit in fit_list])
    return BlockKernelMatrix(shape, radii, lag, _tile(shape, radii, cells, values))


def scatter_block(block, neighborhoods):
    """Read per-site coefficient vectors back off a block matrix.

    ``neighborhoods`` lists the clipped footprints (canonical site
    order); returns one vector per site aligned to its site order.
    Padded cells outside the footprints are ignored.  Raises
    :class:`StructureError` for a non-box footprint or one larger than
    the block.
    """
    cells, ends = _neighborhood_cells(list(neighborhoods), block.radii)
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
    raw = fit_all(series, box_field(series.shape, radii), order=order, n_workers=n_workers,
                  compute_se=False)
    return _project(raw, radii, rank)


def _project(raw, radii, rank):
    """The :class:`SeparableFit` of ``raw``, a box :class:`FitReport` of
    every site, at radii and rank checked by :func:`_check_separable`."""
    field = raw.kernels()
    shape, cells = field.shape, _field_cells(field, radii)
    blocks = [BlockKernelMatrix(shape, radii, lag,
                                truncated_svd(_tile(shape, radii, cells, values), rank))
              for lag, values in enumerate(field._data, start=1)]
    kernels = KernelField._from_arrays(shape, field.order, field._indptr, field._indices,
                                       [block.data[cells] for block in blocks], field._radii)
    return SeparableFit(shape, field.order, radii, rank, raw, blocks, kernels)
