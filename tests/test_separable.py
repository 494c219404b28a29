import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from liargrid import (
    ConfigurationError,
    GridSeries,
    NoiseSpec,
    StructureError,
    UnderdeterminedError,
    assemble_block,
    fit_all,
    fit_spliar,
    kernel_distance,
    random_stable_kernels,
    scatter_block,
    simulate_liar,
    truncated_svd,
)
import liargrid.separable
from liargrid.fit import SiteFit
from liargrid.grid import linear_to_site, read_gts, write_gts
from liargrid.neighborhoods import box_field, box_neighborhood, custom_neighborhood

from _dgp import separable_rank1_kernels


def _hand_fits(shape, radii, coeff_fn):
    """Build SiteFit objects with prescribed lag-1 coefficients."""
    fits = []
    for lin in range(int(np.prod(shape))):
        site = linear_to_site(lin, shape)
        nb = box_neighborhood(site, shape, radii)
        coeffs = np.array([coeff_fn(site, tuple(u)) for u in nb.sites])
        fits.append(SiteFit(site, nb, 1, coeffs, 0.0, 0.0, False))
    return fits


class TestAssembleBlock:
    def test_scalar_grid(self):
        fits = _hand_fits((1, 1), 0, lambda i, u: 4.25)
        block = assemble_block(fits, (0, 0))
        assert block.data.shape == (1, 1)
        assert block.data[0, 0] == 4.25

    def test_zero_kernels(self):
        fits = _hand_fits((3, 3), 1, lambda i, u: 0.0)
        block = assemble_block(fits, (1, 1))
        assert_array_equal(block.data, 0.0)
        assert block.data.shape == (9, 9)

    def test_hand_placement_2x2(self):
        # block (i1,i2) holds site (i1,i2)'s padded patch: entry for
        # neighbor u sits at row i1*3 + 1 + (u1-i1), col i2*3 + 1 + (u2-i2)
        def coeff(i, u):
            return (i[0] * 2 + i[1]) * 100 + (u[0] - i[0] + 1) * 10 + (u[1] - i[1] + 1)

        fits = _hand_fits((2, 2), 1, coeff)
        block = assemble_block(fits, (1, 1))
        assert block.data.shape == (6, 6)
        for lin in range(4):
            i1, i2 = linear_to_site(lin, (2, 2))
            nb = box_neighborhood((i1, i2), (2, 2), 1)
            expected = np.zeros((3, 3))
            for u1, u2 in map(tuple, nb.sites):
                expected[u1 - i1 + 1, u2 - i2 + 1] = coeff((i1, i2), (u1, u2))
            assert_array_equal(block.block(i1, i2), expected)

    def test_padding_outside_footprint_is_zero(self):
        fits = _hand_fits((3, 3), 1, lambda i, u: 1.0)
        block = assemble_block(fits, (1, 1))
        corner = block.block(0, 0)
        assert corner[0, 0] == 0.0
        assert corner[1, 1] == 1.0

    def test_non_box_rejected(self):
        nb = custom_neighborhood((0, 0), (2, 2), [(0, 0), (1, 1)])
        fit = SiteFit((0, 0), nb, 1, np.zeros(2), 0.0, 0.0, False)
        with pytest.raises(StructureError):
            assemble_block([fit], (1, 1))

    def test_lag_selects_block(self):
        shape = (2, 2)
        fits = []
        for lin in range(4):
            site = linear_to_site(lin, shape)
            nb = box_neighborhood(site, shape, 0)
            fits.append(SiteFit(site, nb, 2,
                                np.array([1.0 + lin, 10.0 + lin]),
                                0.0, 0.0, False))
        b1 = assemble_block(fits, (0, 0), lag=1)
        b2 = assemble_block(fits, (0, 0), lag=2)
        assert_array_equal(np.diag([1.0, 2.0, 3.0, 4.0]),
                           _dense_from_block(b1))
        assert_array_equal(np.diag([10.0, 11.0, 12.0, 13.0]),
                           _dense_from_block(b2))


def _dense_from_block(block):
    m, n = block.grid_shape
    out = np.zeros((m * n, m * n))
    for lin in range(m * n):
        i1, i2 = linear_to_site(lin, (m, n))
        patch = block.block(i1, i2)
        k1, k2 = block.radii
        for d1 in range(patch.shape[0]):
            for d2 in range(patch.shape[1]):
                u1, u2 = i1 + d1 - k1, i2 + d2 - k2
                if 0 <= u1 < m and 0 <= u2 < n and patch[d1, d2] != 0.0:
                    out[lin, u1 + u2 * m] = patch[d1, d2]
    return out


class TestScatterBlock:
    def test_assemble_scatter_identity(self):
        gen = np.random.default_rng(8)
        shape = (4, 5)
        fits = _hand_fits(shape, 1, lambda i, u: gen.normal())
        block = assemble_block(fits, (1, 1))
        nbs = [f.neighborhood for f in fits]
        back = scatter_block(block, nbs)
        for fit, vec in zip(fits, back):
            assert_array_equal(vec, fit.coeffs)

    def test_single_site_and_empty_lists(self):
        fits = _hand_fits((4, 5), 1, lambda i, u: 10.0 * i[0] + i[1] + 0.1 * u[1])
        block = assemble_block(fits, (1, 1))
        [vec] = scatter_block(block, [fits[7].neighborhood])
        assert_array_equal(vec, fits[7].coeffs)
        assert scatter_block(block, []) == []

    def test_oversized_box_refused(self):
        fits = _hand_fits((4, 5), 1, lambda i, u: 1.0)
        block = assemble_block(fits, (1, 1))
        with pytest.raises(StructureError, match=r"\(2, 2\) exceed block radii \(1, 1\)"):
            scatter_block(block, box_field((4, 5), 2))

    def test_non_box_refused(self):
        fits = _hand_fits((2, 2), 1, lambda i, u: 1.0)
        block = assemble_block(fits, (1, 1))
        nb = custom_neighborhood((1, 1), (2, 2), [(0, 0), (1, 1)])
        with pytest.raises(StructureError,
                           match=r"site \(1, 1\): non-box neighborhood cannot be tiled"):
            scatter_block(block, [fits[0].neighborhood, nb])


class TestTruncatedSvd:
    def test_fixed_point_on_low_rank_input(self):
        gen = np.random.default_rng(1)
        mat = np.outer(gen.normal(size=6), gen.normal(size=8))
        out = truncated_svd(mat, 1)
        assert_allclose(out, mat, atol=1e-10)

    def test_diag_3_1(self):
        out = truncated_svd(np.diag([3.0, 1.0]), 1)
        assert_allclose(out, np.diag([3.0, 0.0]), atol=1e-12)

    def test_random_candidate_optimality(self):
        gen = np.random.default_rng(2)
        for _ in range(20):
            mat = gen.normal(size=(10, 10))
            rank = int(gen.integers(1, 5))
            best = truncated_svd(mat, rank)
            err = np.linalg.norm(mat - best)
            for _ in range(20):
                cand = gen.normal(size=(10, rank)) @ gen.normal(size=(rank, 10))
                assert err <= np.linalg.norm(mat - cand) + 1e-12

    def test_full_rank_returns_input_with_note(self):
        mat = np.diag([3.0, 1.0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = truncated_svd(mat, 2)
        assert_array_equal(out, mat)
        assert len(caught) == 1

    def test_dense_and_subspace_agree(self, monkeypatch):
        gen = np.random.default_rng(3)
        mat = gen.normal(size=(40, 30))
        a = truncated_svd(mat, 3)
        monkeypatch.setattr(liargrid.separable, "_DENSE_SVD_LIMIT", 0)
        b = truncated_svd(mat, 3)
        assert np.abs(a - b).max() <= 1e-8

    def test_deterministic_output(self):
        gen = np.random.default_rng(4)
        mat = gen.normal(size=(12, 12))
        assert_array_equal(truncated_svd(mat, 2), truncated_svd(mat, 2))

    def test_rank_validation(self):
        with pytest.raises(ConfigurationError):
            truncated_svd(np.eye(3), 0)

    def test_same_bits_for_any_blas_thread_count(self, src_on_path):
        # split across OpenBLAS threads, the SVD of a 300x300 matrix rounded
        # differently; each count runs in its own process, as OpenBLAS reads
        # the setting when it loads
        script = ("import hashlib, numpy as np; from liargrid import truncated_svd; "
                  "mat = np.random.default_rng(7).normal(size=(300, 300)); "
                  "print(hashlib.sha256(truncated_svd(mat, 1).tobytes()).hexdigest())")
        digests = {subprocess.run([sys.executable, "-c", script], check=True, text=True,
                                  capture_output=True,
                                  env={**os.environ, "OPENBLAS_NUM_THREADS": str(n)}).stdout
                   for n in (1, 2)}
        assert len(digests) == 1


class TestFitSpliar:
    def test_projection_beats_raw_on_separable_truth(self):
        errs_proj, errs_raw = [], []
        for seed in range(3):
            kern = separable_rank1_kernels((10, 10), 1, 0.8, 800 + seed)
            s = simulate_liar(kern, 2000, NoiseSpec(sigma=1.0, seed=900 + seed))
            res = fit_spliar(s, 1, rank=1)
            errs_proj.append(kernel_distance(kern, res.kernels))
            errs_raw.append(kernel_distance(kern, res.raw.kernels()))
        assert np.mean(errs_proj) <= np.mean(errs_raw)

    def test_full_rank_projection_is_identity(self):
        # on a 1-row grid the block matrix has 2K+1 rows, so R = 2K+1
        # keeps every singular value and projection is a no-op
        kern = random_stable_kernels((1, 8), (1, 1), target_norm=0.7, seed=30)
        s = simulate_liar(kern, 400, NoiseSpec(sigma=1.0, seed=31))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = fit_spliar(s, (1, 1), rank=3)
        raw = res.raw.kernels()
        assert kernel_distance(res.kernels, raw) <= 1e-10

    def test_projected_block_rank_bounded(self):
        kern = random_stable_kernels((6, 6), 1, target_norm=0.7, seed=32)
        s = simulate_liar(kern, 900, NoiseSpec(sigma=1.0, seed=33))
        res = fit_spliar(s, 1, rank=2)
        sing = np.linalg.svd(res.blocks[0].data, compute_uv=False)
        assert sing[2] <= 1e-10 * sing[0]

    def test_zero_series_never_nan(self):
        s = GridSeries((4, 4), np.zeros((200, 16)))
        res = fit_spliar(s, 1, rank=1)
        for c in res.kernels.coeffs:
            assert np.isfinite(c).all()

    def test_invalid_rank(self):
        s = GridSeries((4, 4), np.random.default_rng(5).normal(size=(200, 16)))
        with pytest.raises(ConfigurationError):
            fit_spliar(s, 1, rank=4)
        with pytest.raises(ConfigurationError):
            fit_spliar(s, 1, rank=0)

    @pytest.mark.parametrize("radii, message", [
        ((1, 1, 7), "need 2 radii"), ((1,), "need 2 radii"),
        ((-1, 1), "radii must be nonnegative"),
    ])
    def test_radii_parsed_as_for_box_field(self, radii, message):
        s = GridSeries((4, 4), np.random.default_rng(5).normal(size=(200, 16)))
        with pytest.raises(ConfigurationError, match=message):
            fit_spliar(s, radii, rank=1)

    def test_underdetermined_sites_refused(self):
        s = GridSeries((6, 6), np.random.default_rng(6).normal(size=(30, 36)))
        with pytest.raises(UnderdeterminedError,
                           match=r"^12 of 36 sites failed; first: site \(2, 1\): 29 usable"):
            fit_spliar(s, 3, rank=1)

    def test_multi_lag_blocks_independent(self):
        kern = random_stable_kernels((5, 5), 1, order=2, target_norm=0.6,
                                     seed=34)
        s = simulate_liar(kern, 600, NoiseSpec(sigma=1.0, seed=35))
        res = fit_spliar(s, 1, order=2, rank=1)
        assert len(res.blocks) == 2
        for block in res.blocks:
            sing = np.linalg.svd(block.data, compute_uv=False)
            assert sing[1] <= 1e-10 * sing[0]

    def test_block_exports_as_series(self, tmp_path):
        kern = random_stable_kernels((4, 4), 1, target_norm=0.6, seed=36)
        s = simulate_liar(kern, 300, NoiseSpec(sigma=1.0, seed=37))
        res = fit_spliar(s, 1, rank=1)
        exported = res.blocks[0].to_series()
        path = tmp_path / "block.gts"
        write_gts(exported, path)
        back = read_gts(path)
        assert_array_equal(back.frame(0), res.blocks[0].data)

    def test_matches_manual_pipeline(self):
        # fit, assemble, project, scatter by hand: the same bits at every lag
        shape = (5, 5)
        nbs = [box_neighborhood(linear_to_site(i, shape), shape, 1)
               for i in range(25)]
        for order in (1, 2):
            kern = random_stable_kernels(shape, 1, order=order, target_norm=0.7,
                                         seed=38)
            s = simulate_liar(kern, 500, NoiseSpec(sigma=1.0, seed=39))
            res = fit_spliar(s, 1, order=order, rank=1)
            report = fit_all(s, nbs, order=order, compute_se=False)
            for lag in range(1, order + 1):
                block = assemble_block(report, (1, 1), lag=lag)
                block.data[...] = truncated_svd(block.data, 1)
                assert_array_equal(res.blocks[lag - 1].data, block.data)
                vecs = scatter_block(block, nbs)
                for i in range(25):
                    assert_array_equal(res.kernels.coeffs[i][lag - 1], vecs[i])
