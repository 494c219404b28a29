"""Grid time series container, site indexing, and file input-output.

A *site* is a d-tuple of 0-based coordinates on a rectangular grid with
spatial extents ``shape = (N_1, ..., N_d)``.  Sites map to linear indices
column-major (coordinate 0 varies fastest), and every frame of a series
is stored flattened in that order.  All values are 64-bit floats.

The binary ``.gts`` format is little-endian: magic ``GTS1``, one u8 for
d, d u32 extents, one u32 frame count, then the frames as contiguous
f64 values, time-major with column-major sites within each frame.
"""

import contextlib
import csv
import gc
import json
import math
import os
import struct
from itertools import islice

import numpy as np

from .errors import ConfigurationError, GtsFormatError

_GTS_MAGIC = b"GTS1"
_MAX_SITES = 2**31  # per-frame site count guard
_MAX_TOTAL = 2**33  # total value count guard
_FINITE_CHUNK = 2**16  # values per finiteness check (a 64 KB mask)
_READ_BLOCK = 2**17  # values per block read_gts reads and checks (1 MB)
_SAVE_BLOCK = 2**8  # site entries per json.dumps call of _save_json


def _check_gts_size(shape, n_frames):
    """Refuse ``n_frames`` frames on ``shape`` where :func:`read_gts` would:
    below 1, past the header's u32, or over ``_MAX_TOTAL`` values."""
    if not 1 <= n_frames < 2**32 or n_frames * math.prod(shape) > _MAX_TOTAL:
        raise ConfigurationError(f"a GTS file holds 1 to {2**32 - 1} frames and at most "
                                 f"{_MAX_TOTAL} values, not {n_frames} frames of {shape}")


def _require_2d(shape, what):
    """Refuse a grid that is not 2-D for ``what``, which needs one."""
    if len(shape) != 2:
        raise ConfigurationError(f"{what} needs a 2-D grid")


def _integer(value, what):
    """``value`` (a Python or numpy integer) as an int; a bool, a float or
    anything else is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_shape(shape):
    shape = tuple(_integer(n, "a grid extent") for n in shape)
    if len(shape) < 1:
        raise ConfigurationError("grid shape needs at least one axis")
    if any(n < 1 for n in shape):
        raise ConfigurationError(f"grid extents must be positive, got {shape}")
    n_sites = 1
    for n in shape:
        n_sites *= n
    if n_sites > _MAX_SITES:
        raise ConfigurationError(f"grid with {n_sites} sites exceeds the size cap")
    return shape, n_sites


def site_to_linear(site, shape):
    """Column-major linear index of a site.

    Parameters
    ----------
    site : tuple of int
        0-based coordinates, one per axis.
    shape : tuple of int
        Grid extents.

    Returns
    -------
    int
        ``sum_j site[j] * prod_{l<j} shape[l]``.
    """
    site = tuple(int(c) for c in site)
    shape = tuple(int(n) for n in shape)
    if len(site) != len(shape):
        raise IndexError(f"site {site} has {len(site)} coords for a {len(shape)}-axis grid")
    for c, n in zip(site, shape):
        if not 0 <= c < n:
            raise IndexError(f"site {site} out of bounds for shape {shape}")
    return int(np.ravel_multi_index(site, shape, order="F"))


def linear_to_site(index, shape):
    """Inverse of :func:`site_to_linear`."""
    shape = tuple(int(n) for n in shape)
    index = int(index)
    if not 0 <= index < math.prod(shape):
        raise IndexError(f"linear index {index} out of range for shape {shape}")
    return tuple(int(c) for c in np.unravel_index(index, shape, order="F"))


def sites_to_linear(sites, shape):
    """Vectorized site-to-linear map; ``sites`` is an (m, d) array."""
    sites = np.asarray(sites, dtype=np.intp)
    if sites.ndim != 2 or sites.shape[1] != len(shape):
        raise IndexError(f"expected an (m, {len(shape)}) site array, got {sites.shape}")
    for j, n in enumerate(shape):
        bad = (sites[:, j] < 0) | (sites[:, j] >= n)
        if np.any(bad):
            site = tuple(sites[int(np.argmax(bad))].tolist())
            raise IndexError(f"site {site} out of bounds for shape {shape}")
    return np.ravel_multi_index(tuple(sites.T), shape, order="F")


def _first_nonfinite(values):
    """Flat position of the first non-finite entry of a C-contiguous
    array, or -1; checked in chunks, so no full-size mask is made."""
    flat = values.reshape(-1)
    for start in range(0, flat.size, _FINITE_CHUNK):
        ok = np.isfinite(flat[start : start + _FINITE_CHUNK])
        if not ok.all():
            return start + int(np.argmin(ok))
    return -1


class GridSeries:
    """Immutable time series of frames on a fixed grid.

    Parameters
    ----------
    shape : tuple of int
        Spatial extents (N_1, ..., N_d).
    values : ndarray, shape (T, n_sites)
        One row per frame, sites in column-major order.  Copied to a
        read-only float64 array.
    """

    __slots__ = ("shape", "values")

    def __init__(self, shape, values):
        self._own(shape, np.array(values, dtype=np.float64, order="C", copy=True))

    @classmethod
    def _adopt(cls, shape, values, finite=False):
        """Series over ``values``, a C-contiguous float64 array that no
        one else writes, without a copy; ``finite`` says the caller has
        already checked every value."""
        series = cls.__new__(cls)
        series._own(shape, values, finite)
        return series

    def _own(self, shape, values, finite=False):
        shape, n_sites = _check_shape(shape)
        if values.ndim != 2 or values.shape[1] != n_sites:
            raise ConfigurationError(
                f"values must be (T, {n_sites}) for shape {shape}, got {values.shape}"
            )
        if values.shape[0] < 1:
            raise ConfigurationError("a series needs at least one frame")
        if not finite and _first_nonfinite(values) >= 0:
            raise ConfigurationError("series values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("GridSeries is immutable")

    @property
    def n_frames(self):
        return self.values.shape[0]

    @property
    def n_sites(self):
        return self.values.shape[1]

    @property
    def ndim_space(self):
        return len(self.shape)

    @classmethod
    def from_frames(cls, frames, shape=None):
        """Build a series from naturally indexed frames.

        ``frames`` has shape (T, N_1, ..., N_d); each frame is flattened
        column-major.
        """
        frames = np.asarray(frames, dtype=np.float64)
        if shape is None:
            shape = frames.shape[1:]
        if frames.shape[1:] != tuple(shape):
            raise ConfigurationError(
                f"frame array {frames.shape} does not match shape {tuple(shape)}"
            )
        d = len(shape)
        t = frames.shape[0]
        flat = frames.transpose((0,) + tuple(range(d, 0, -1))).reshape(t, -1)
        return cls(shape, flat)

    @property
    def frames(self):
        """View of the data as (T, N_1, ..., N_d) with natural indexing."""
        d = len(self.shape)
        stacked = self.values.reshape((self.n_frames,) + self.shape[::-1])
        return stacked.transpose((0,) + tuple(range(d, 0, -1)))

    def frame(self, t):
        """Frame ``t`` as an (N_1, ..., N_d) array."""
        return self.frames[t]

    def slice_time(self, start, stop):
        """Sub-series of frames [start, stop): a read-only view of this
        series' own rows, neither copied nor checked again."""
        if not 0 <= start < stop <= self.n_frames:
            raise ConfigurationError(
                f"frame range [{start}, {stop}) invalid for {self.n_frames} frames"
            )
        return GridSeries._adopt(self.shape, self.values[start:stop], finite=True)

    def __eq__(self, other):
        if not isinstance(other, GridSeries):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.values, other.values)

    def __repr__(self):
        return f"GridSeries(shape={self.shape}, n_frames={self.n_frames})"


def extract_patch(series, t, sites):
    """Values of frame ``t`` at the given sites, in the given order.

    Parameters
    ----------
    series : GridSeries
    t : int
        Frame index, 0 <= t < n_frames.
    sites : sequence of site tuples or (m, d) array

    Returns
    -------
    ndarray of length m
    """
    if not 0 <= t < series.n_frames:
        raise IndexError(f"frame index {t} out of range for {series.n_frames} frames")
    sites = np.asarray(sites, dtype=np.intp)
    if sites.ndim == 1:
        sites = sites[None, :]
    lin = sites_to_linear(sites, series.shape)
    return series.values[t, lin]


def write_gts(series, path):
    """Write a series to ``path`` in the binary GTS format."""
    _write_gts(path, series.shape, series.n_frames, [series.values])


def _write_gts(path, shape, n_frames, blocks):
    """Write ``n_frames`` frames on ``shape`` to ``path`` in the GTS format,
    each C-contiguous (b, n_sites) block of ``blocks`` as it comes.  A
    block with a non-finite value is refused; when anything fails, the
    partial file is removed."""
    _check_gts_size(shape, n_frames)
    d = len(shape)
    fh = open(path, "wb")
    try:
        with fh:
            fh.write(struct.pack(f"<4sB{d}II", _GTS_MAGIC, d, *shape, n_frames))
            for block in blocks:
                if _first_nonfinite(block) >= 0:
                    raise ConfigurationError("refusing to write non-finite values")
                fh.write(block.astype("<f8", copy=False))
    except BaseException:
        os.remove(path)
        raise


def read_gts(path):
    """Read a binary GTS file, validating layout and finiteness.

    The payload is read straight into the array the series keeps, a
    block of frames at a time, each checked as it arrives.

    Raises
    ------
    GtsFormatError
        Naming the byte offset of the first problem found.
    """
    return _read_gts(path)


def _read_gts(path, last=None):
    """:func:`read_gts`, keeping only the last ``last`` frames when given:
    every frame is still read and checked, through one block-sized
    buffer, and the same problems are reported at the same offsets."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(5)
        if len(head) < 4 or head[:4] != _GTS_MAGIC:
            raise GtsFormatError("bad magic, expected GTS1", 0)
        if len(head) < 5:
            raise GtsFormatError("file ends before the axis-count byte", 4)
        d = head[4]
        if d == 0:
            raise GtsFormatError("axis count must be at least 1", 4)
        header_len = 5 + 4 * d + 4
        if size < header_len:
            raise GtsFormatError(
                f"file ends inside the header ({header_len} bytes needed)", size
            )
        raw = head + fh.read(header_len - 5)
        dims = []
        n_sites = 1
        for j in range(d):
            off = 5 + 4 * j
            (dim,) = struct.unpack_from("<I", raw, off)
            if dim == 0:
                raise GtsFormatError(f"axis {j} has zero extent", off)
            n_sites *= dim
            if n_sites > _MAX_SITES:
                raise GtsFormatError(f"site count overflow at axis {j}", off)
            dims.append(dim)
        t_off = 5 + 4 * d
        (t,) = struct.unpack_from("<I", raw, t_off)
        if t == 0:
            raise GtsFormatError("frame count must be at least 1", t_off)
        count = t * n_sites
        if count > _MAX_TOTAL:
            raise GtsFormatError(f"total value count {count} exceeds the size cap", t_off)
        expected = count * 8
        avail = size - header_len
        if avail < expected:
            raise GtsFormatError(
                f"payload truncated: expected {expected} bytes, found {avail}", size
            )
        if avail > expected:
            raise GtsFormatError("trailing data after payload", header_len + expected)
        first = 0 if last is None else max(t - last, 0)  # first frame kept
        values = np.empty((t - first, n_sites), dtype="<f8")
        step = max(1, _READ_BLOCK // n_sites)  # frames per block
        buf = np.empty((min(step, t), n_sites), dtype="<f8") if first else None
        for start in range(0, t, step):
            stop = min(start + step, t)
            block = values[start:stop] if buf is None else buf[: stop - start]
            got = 8 * start * n_sites + fh.readinto(memoryview(block).cast("B"))
            if got < 8 * stop * n_sites:  # the file shrank after fstat
                raise GtsFormatError(
                    f"payload truncated: expected {expected} bytes, found {got}",
                    header_len + got)
            j = _first_nonfinite(block)
            if j >= 0:
                j += start * n_sites
                raise GtsFormatError(f"non-finite value at position {j}", header_len + 8 * j)
            if buf is not None and stop > first:
                lo = max(start, first)
                values[lo - first : stop - first] = block[lo - start :]
    return GridSeries._adopt(tuple(dims), values.astype(np.float64, copy=False),
                             finite=True)


@contextlib.contextmanager
def _gc_paused():
    """Cyclic collector off inside the block, then back as it was: a kernel
    or report dict holds hundreds of thousands of small lists, which every
    collection would walk again."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class _JsonArtifact:
    """A file of per-site entries.  ``_json_fields()`` gives its top-level
    fields in order, the "sites" one an iterable of entries made as they
    are asked for; :meth:`save_json` writes them a block at a time, and
    :meth:`to_dict` joins them into the dict whose ``json.dumps`` the
    file holds, byte for byte."""

    __slots__ = ()

    def to_dict(self):
        fields = self._json_fields()
        return {**fields, "sites": list(fields["sites"])}

    def save_json(self, path):
        _save_json(path, self._json_fields())


def _save_json(path, fields):
    """Write the dict ``fields`` to ``path`` as compact JSON, with the
    collector paused; its "sites" iterable is written
    ``_SAVE_BLOCK`` entries at a time, so no list of them all is made.
    When anything fails, the partial file is removed."""
    fh = open(path, "w")
    try:
        with fh, _gc_paused():
            sep = "{"
            for key, value in fields.items():
                fh.write(f"{sep}{json.dumps(key)}: ")
                sep = ", "
                if key != "sites":
                    fh.write(json.dumps(value))
                    continue
                entries, between = iter(value), ""
                fh.write("[")
                while block := list(islice(entries, _SAVE_BLOCK)):
                    fh.write(between + json.dumps(block)[1:-1])  # a list dumps as [a, b]
                    between = ", "
                fh.write("]")
            fh.write("}")
    except BaseException:
        os.remove(path)
        raise


def read_csv_frames(path, shape):
    """Read a d=2 series from CSV: T frames of M rows stacked vertically.

    Each CSV row is one grid row (N comma-separated values); an optional
    single header line is skipped.  ``shape`` must be the (M, N) grid
    shape; the number of data rows must be a multiple of M.
    """
    shape, _ = _check_shape(shape)
    _require_2d(shape, "CSV import")
    m, n = shape
    rows = []
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        for idx, row in enumerate(reader):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                rows.append([float(c) for c in row])
            except ValueError:
                if idx == 0 and not rows:
                    continue  # header line
                raise ConfigurationError(f"non-numeric CSV data at line {idx + 1}")
    if not rows:
        raise ConfigurationError("CSV file has no data rows")
    widths = {len(r) for r in rows}
    if widths != {n}:
        raise ConfigurationError(
            f"CSV rows have widths {sorted(widths)}, expected {n} columns"
        )
    if len(rows) % m != 0:
        raise ConfigurationError(
            f"{len(rows)} data rows is not a multiple of {m} grid rows"
        )
    t = len(rows) // m
    arr = np.asarray(rows, dtype=np.float64).reshape(t, m, n)
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError("CSV contains non-finite values")
    return GridSeries.from_frames(arr, shape)
