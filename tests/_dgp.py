"""Data-generating helpers shared across tests.

These build ground-truth kernel fields with known structure so tests
can score estimators against an exact target.
"""
import numpy as np

from liargrid import GridSeries, KernelField, operator_norm
from liargrid.grid import linear_to_site
from liargrid.neighborhoods import box_neighborhood


def separable_rank1_kernels(shape, k, target_norm, seed):
    """Ground truth whose padded block matrix is exactly rank 1.

    Each row index carries a window vector a[i1] over offsets -k..k and
    each column index a window vector b[i2]; out-of-grid offsets are
    zeroed so the kernel patch at every site is the plain outer product
    of full-length windows restricted to its clipped footprint.
    """
    m, n = shape
    b = 2 * k + 1
    gen = np.random.default_rng(seed)
    avec = gen.uniform(-1.0, 1.0, (m, b))
    bvec = gen.uniform(-1.0, 1.0, (n, b))
    for i in range(m):
        for off in range(-k, k + 1):
            if not 0 <= i + off < m:
                avec[i, k + off] = 0.0
    for j in range(n):
        for off in range(-k, k + 1):
            if not 0 <= j + off < n:
                bvec[j, k + off] = 0.0
    nbs, coeffs = [], []
    for lin in range(m * n):
        i1, i2 = linear_to_site(lin, shape)
        nb = box_neighborhood((i1, i2), shape, k)
        c = np.empty(nb.size)
        for idx, (u1, u2) in enumerate(nb.sites):
            c[idx] = avec[i1, k + u1 - i1] * bvec[i2, k + u2 - i2]
        nbs.append(nb)
        coeffs.append(c[None, :])
    kern = KernelField(shape, 1, nbs, coeffs)
    return kern.scale(target_norm / operator_norm(kern))


def mar_kernel_field(shape, a, b):
    """KernelField equivalent of X_t = A X_{t-1} B' + E_t.

    Site (i1,i2) regresses on the full grid with coefficient
    C[u1,u2] = A[i1,u1] * B[i2,u2].
    """
    m, n = shape
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    nbs, coeffs = [], []
    for lin in range(m * n):
        i1, i2 = linear_to_site(lin, shape)
        nb = box_neighborhood((i1, i2), shape, max(m, n))
        c = np.outer(a[i1], b[i2]).reshape(-1, order="F")
        nbs.append(nb)
        coeffs.append(c[None, :])
    return KernelField(shape, 1, nbs, coeffs)


def loglog_slope(x, y):
    """Least-squares slope of log(y) against log(x)."""
    return float(np.polyfit(np.log(np.asarray(x, float)),
                            np.log(np.asarray(y, float)), 1)[0])


def adversarial_series():
    """A 5x6 series, T=18, on which fits and scans meet every special
    case: boxes of radius 1 or more are clipped at the boundary, 0..4
    families saturate (radius 4 covers the grid, and radius 3 does too
    at central sites), large levels are dropped and large boxes are
    underdetermined (17 usable rows at P=1), site (2, 3) is all zeros
    (an exact fit, and a zero column in its neighbors' designs), and
    sites (1, 1) and (3, 1) carry the same series (rank-deficient
    designs wherever both are in the box)."""
    shape = (5, 6)
    values = np.random.default_rng(90).normal(size=(18, 30))
    values[:, 2 + 5 * 3] = 0.0
    values[:, 3 + 5 * 1] = values[:, 1 + 5 * 1]
    return GridSeries(shape, values)
