import json
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from numpy.testing import assert_allclose, assert_array_equal

from liargrid import (
    ConfigurationError,
    KernelField,
    NoiseSpec,
    StabilityError,
    kernel_distance,
    operator_norm,
    random_stable_kernels,
    select_all,
    simulate_liar,
)
import liargrid.simulate
from liargrid._threads import _openblas_thread_controls
from liargrid.neighborhoods import (box_field, box_neighborhood,
                                    custom_neighborhood, neighborhood_from_sites)


def _self_only_kernels(shape, a, order=1):
    nbs = box_field(shape, 0)
    coeffs = [np.full((order, 1), a) for _ in nbs]
    return KernelField(shape, order, nbs, coeffs)


class TestOperatorNorm:
    def test_zero_kernels(self):
        kern = _self_only_kernels((3, 3), 0.0)
        assert operator_norm(kern) == 0.0

    def test_self_half_is_half(self):
        kern = _self_only_kernels((4, 5), 0.5)
        assert_allclose(operator_norm(kern), 0.5, rtol=1e-10)

    def test_matches_dense_svd_oracle(self):
        shape = (3, 3)
        kern = random_stable_kernels(shape, 1, target_norm=0.7, seed=2)
        dense = kern.operators()[0].toarray()
        want = np.linalg.svd(dense, compute_uv=False)[0]
        assert_allclose(operator_norm(kern), want, rtol=1e-6)

    def test_multi_lag_is_sum_of_lag_norms(self):
        shape = (3, 3)
        kern = random_stable_kernels(shape, 1, order=2, target_norm=0.6, seed=5)
        parts = [
            np.linalg.svd(op.toarray(), compute_uv=False)[0]
            for op in kern.operators()
        ]
        assert_allclose(operator_norm(kern), sum(parts), rtol=1e-6)

    @pytest.mark.parametrize("field", [
        lambda: random_stable_kernels((5, 7), 2, target_norm=0.7, seed=6),
        lambda: random_stable_kernels((5, 7), 2, order=2, target_norm=0.7, seed=6),
        lambda: random_stable_kernels((4, 3, 5), (1, 0, 2), order=2, seed=6),
        lambda: random_stable_kernels((9,), 3, order=3, seed=6),
        # ARPACK takes neither: it needs two sites and a nonzero product
        lambda: KernelField((1, 1), 2, box_field((1, 1), 0), [np.array([[-0.5], [0.25]])]),
        lambda: _self_only_kernels((4, 6), 0.0, order=2),
    ], ids=["clipped-P1", "clipped-P2", "3d-P2", "1d-P3", "one-site", "zero"])
    def test_matches_dense_two_norm_to_rounding(self, field):
        kern = field()
        want = sum(np.linalg.norm(op.toarray(), 2) for op in kern.operators())
        assert_allclose(operator_norm(kern), want, rtol=1e-12)


@pytest.fixture(scope="module")
def paper_field():
    """The seed-4 radius-2 field on the paper's 91x181 grid and its
    norm by ARPACK's SVD."""
    kern = random_stable_kernels((91, 181), 2, seed=4)
    op = kern.operators()[0]
    start = np.linspace(-1.0, 1.0, op.shape[0])
    (top,) = scipy.sparse.linalg.svds(op, k=1, v0=start, return_singular_vectors=False)
    return kern, float(top)


class TestPaperGridNorm:
    def test_matches_svds_to_rounding(self, paper_field):
        kern, top = paper_field
        assert_allclose(kern._norm, top, rtol=1e-12)
        assert_allclose(operator_norm(kern), top, rtol=1e-12)

    def test_field_just_above_one_refused_with_its_digits(self, paper_field):
        kern, top = paper_field
        over = kern.scale((1.0 + 1e-7) / top)
        with pytest.raises(StabilityError) as info:
            simulate_liar(over, 5, NoiseSpec(seed=0), burn_in=0)
        printed = float(re.search(r"norm (\S+) >= 1", str(info.value)).group(1))
        assert printed == operator_norm(over)
        assert_allclose(printed, 1.0 + 1e-7, rtol=1e-12)


class TestRandomStableKernels:
    def test_target_norm_hit(self):
        kern = random_stable_kernels((6, 6), 2, target_norm=0.8, seed=9)
        assert abs(operator_norm(kern) - 0.8) <= 1e-6

    def test_same_seed_identical(self):
        a = random_stable_kernels((5, 5), 1, target_norm=0.5, seed=31)
        b = random_stable_kernels((5, 5), 1, target_norm=0.5, seed=31)
        assert kernel_distance(a, b) == 0.0

    def test_different_seed_differs(self):
        a = random_stable_kernels((5, 5), 1, target_norm=0.5, seed=31)
        b = random_stable_kernels((5, 5), 1, target_norm=0.5, seed=32)
        assert kernel_distance(a, b) > 0.0

    def test_radius_zero_supports(self):
        kern = random_stable_kernels((4, 4), 0, target_norm=0.5, seed=1)
        for nb in kern.neighborhoods:
            assert nb.size == 1

    def test_tensor_radii(self):
        kern = random_stable_kernels((3, 3, 4), (0, 1, 1), target_norm=0.6, seed=4)
        center = kern.neighborhoods[kern.n_sites // 2 + 1]
        assert center.size <= 9

    def test_bad_target(self):
        with pytest.raises(ConfigurationError):
            random_stable_kernels((3, 3), 1, target_norm=1.0, seed=0)

    def test_only_the_field_is_held_through_the_norm(self, monkeypatch):
        # the draw is made a block of sites at a time, so the Lanczos run
        # starts with little more than the field's own arrays traced (the
        # whole-grid draw, its mask and the box coordinates held 2.6x)
        held, norm = [], liargrid.simulate.operator_norm

        def spy(field):
            arrays = sum(a.nbytes for a in (field._indptr, field._indices, *field._data))
            held.append(tracemalloc.get_traced_memory()[0] / arrays)
            return norm(field)

        monkeypatch.setattr(liargrid.simulate, "operator_norm", spy)
        tracemalloc.start()
        try:
            random_stable_kernels((60, 90), 2, seed=3)
        finally:
            tracemalloc.stop()
        assert held and held[0] <= 1.5

    @pytest.mark.skipif(not _openblas_thread_controls(),
                        reason="no OpenBLAS build with thread control loaded")
    def test_large_grid_same_bits_for_any_blas_thread_count(self):
        # above about 10000 sites OpenBLAS splits the norm's dot products
        # across its threads, which moved the scale in the last bits
        controls = _openblas_thread_controls()
        before = [get() for _, get in controls]
        fields = []
        try:
            for n in (1, 2):
                for set_threads, _ in controls:
                    set_threads(n)
                fields.append(random_stable_kernels((91, 181), 1, seed=4))
        finally:
            for (set_threads, _), n in zip(controls, before):
                set_threads(n)
        for a, b in zip(*(field.coeffs for field in fields)):
            assert_array_equal(a, b)


class TestCarriedNorm:
    @staticmethod
    def _count_matvecs(monkeypatch):
        calls = []
        matvec = sp.csr_matrix._matmul_vector

        def counted(self, other):
            calls.append(other.shape)
            return matvec(self, other)

        monkeypatch.setattr(sp.csr_matrix, "_matmul_vector", counted)
        return calls

    @pytest.mark.parametrize("order", [1, 2])
    def test_one_lanczos_run_per_drawn_field(self, monkeypatch, order):
        calls = self._count_matvecs(monkeypatch)
        kern = random_stable_kernels((12, 14), 1, order=order, seed=3)
        drawn = len(calls)
        calls.clear()
        assert abs(operator_norm(kern) - 0.8) <= 1e-6
        cold = len(calls)
        # one Lanczos run on the draw; the rescaled field carries its norm,
        # and Lanczos takes the same steps on a field and on its multiple
        assert drawn == cold
        calls.clear()
        carried = simulate_liar(kern, 30, NoiseSpec(seed=3), burn_in=20)
        assert len(calls) == 50 * order  # the recursion only
        calls.clear()
        fresh = simulate_liar(kern.scale(1.0), 30, NoiseSpec(seed=3), burn_in=20)
        assert len(calls) == cold + 50 * order
        assert carried == fresh

    def test_unstable_field_refused_with_carried_norm(self):
        kern = random_stable_kernels((5, 5), 1, target_norm=0.9, seed=8)
        kern._norm = 1.5
        with pytest.raises(StabilityError, match="norm 1.5 >= 1"):
            simulate_liar(kern, 5, NoiseSpec(seed=0))


class TestSimulate:
    def test_zero_kernels_no_noise(self):
        kern = _self_only_kernels((3, 3), 0.0)
        s = simulate_liar(kern, 10, NoiseSpec(sigma=0.0, seed=0), burn_in=5)
        assert_array_equal(s.values, 0.0)

    def test_stable_kernels_no_noise_fixed_point(self):
        kern = random_stable_kernels((4, 4), 1, target_norm=0.8, seed=3)
        s = simulate_liar(kern, 8, NoiseSpec(sigma=0.0, seed=0), burn_in=20)
        assert_array_equal(s.values, 0.0)

    def test_scalar_ar1_autocorrelation(self):
        kern = _self_only_kernels((1, 1), 0.9)
        s = simulate_liar(kern, 10_000, NoiseSpec(sigma=1.0, seed=77))
        x = s.values[:, 0]
        r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(r1 - 0.9) < 0.05

    def test_uniform_noise_variance(self):
        kern = _self_only_kernels((2, 2), 0.0)
        s = simulate_liar(
            kern, 40_000, NoiseSpec(kind="iid_uniform", sigma=0.7, seed=5),
            burn_in=0,
        )
        assert abs(s.values.std() - 0.7) < 0.02
        # bounded support: |e| <= sigma * sqrt(3)
        assert np.abs(s.values).max() <= 0.7 * np.sqrt(3) + 1e-12

    def test_deterministic_repeat(self):
        kern = random_stable_kernels((5, 5), 1, target_norm=0.7, seed=8)
        a = simulate_liar(kern, 50, NoiseSpec(sigma=1.0, seed=21))
        b = simulate_liar(kern, 50, NoiseSpec(sigma=1.0, seed=21))
        assert_array_equal(a.values, b.values)

    def test_prefix_property(self):
        kern = random_stable_kernels((5, 5), 1, target_norm=0.7, seed=8)
        short = simulate_liar(kern, 50, NoiseSpec(sigma=1.0, seed=21))
        long = simulate_liar(kern, 90, NoiseSpec(sigma=1.0, seed=21))
        assert_array_equal(long.values[:50], short.values)

    def test_refuses_unstable(self):
        kern = _self_only_kernels((3, 3), 1.01)
        with pytest.raises(StabilityError, match="1.01"):
            simulate_liar(kern, 10, NoiseSpec(sigma=1.0, seed=0))

    def test_sample_mean_near_zero(self):
        # mean of each entry within 5 long-run standard errors of 0;
        # the long-run variance of the sample mean of a stable VAR(1)
        # is diag((I-M)^-1 Sigma (I-M)^-T) / T
        shape = (4, 4)
        kern = random_stable_kernels(shape, 1, target_norm=0.8, seed=13)
        t = 10_000
        s = simulate_liar(kern, t, NoiseSpec(sigma=1.0, seed=14))
        m = kern.operators()[0].toarray()
        resolvent = np.linalg.inv(np.eye(m.shape[0]) - m)
        lrv = resolvent @ resolvent.T
        se = np.sqrt(np.diag(lrv) / t)
        assert np.all(np.abs(s.values.mean(axis=0)) < 5 * se)

    def test_recursion_across_noise_blocks(self):
        # 70000 sites take 3 frames per noise block, so 9 frames span 3
        # blocks; the series must still be the one-shot AR(1) recursion
        shape = (70000,)
        kern = _self_only_kernels(shape, 0.5)
        s = simulate_liar(kern, 7, NoiseSpec(sigma=0.5, seed=3), burn_in=2)
        from liargrid import rng
        from liargrid.simulate import _CTX_NOISE
        keys = rng.derive_key(3, [_CTX_NOISE, np.arange(shape[0])])
        noise = 0.5 * rng.frame_gaussians(keys, np.arange(9))
        x = np.zeros(shape[0])
        for t in range(9):
            x = 0.5 * x + noise[t]
            if t >= 2:
                assert_array_equal(s.values[t - 2], x)

    def test_same_bits_for_any_noise_thread_and_blas_thread_count(self, monkeypatch):
        # 4096 sites take 16 frames per noise block: 120 frames span 8
        # blocks, more than one thread queues ahead
        kern = random_stable_kernels((64, 64), 1, order=2, target_norm=0.7, seed=5)
        noise = NoiseSpec(sigma=1.0, seed=6)
        runs = {}
        controls = _openblas_thread_controls()
        before = [get() for _, get in controls]
        try:
            for blas in (1, 2):
                for set_threads, _ in controls:
                    set_threads(blas)
                for workers in ("1", "2"):
                    monkeypatch.setenv("LIAR_THREADS", workers)
                    runs[blas, workers] = simulate_liar(kern, 100, noise, burn_in=20)
        finally:
            for (set_threads, _), n in zip(controls, before):
                set_threads(n)
        first = runs[1, "1"]
        for series in runs.values():
            assert_array_equal(series.values, first.values)
        monkeypatch.setenv("LIAR_THREADS", "2")
        short = simulate_liar(kern, 37, noise, burn_in=20)
        assert_array_equal(short.values, first.values[:37])

    def test_abandoned_simulation_stops_its_noise_threads(self):
        import threading

        from liargrid.simulate import _frame_blocks

        kern = random_stable_kernels((64, 64), 1, target_norm=0.7, seed=5)
        before = threading.active_count()
        blocks = _frame_blocks(kern, 500, NoiseSpec(seed=1), 0)
        next(blocks)
        assert threading.active_count() > before
        blocks.close()
        assert threading.active_count() == before

    def test_multi_lag_recursion_matches_manual(self):
        from liargrid import rng
        from liargrid.simulate import _CTX_NOISE

        shape = (3, 3)
        kern = random_stable_kernels(shape, 1, order=2, target_norm=0.6, seed=6)
        s = simulate_liar(kern, 30, NoiseSpec(sigma=1.3, seed=7), burn_in=0)
        ops = [o.toarray() for o in kern.operators()]
        site_keys = rng.derive_key(7, [_CTX_NOISE, np.arange(9)])
        noise = 1.3 * rng.frame_gaussians(site_keys, np.arange(30))
        x_prev2 = np.zeros(9)
        x_prev1 = np.zeros(9)
        for t in range(30):
            x = ops[0] @ x_prev1 + ops[1] @ x_prev2 + noise[t]
            assert_allclose(s.values[t], x, rtol=0, atol=1e-12)
            x_prev2, x_prev1 = x_prev1, x


class TestNoiseSpec:
    @pytest.mark.parametrize("sigma", [-1.0, np.inf, -np.inf, np.nan])
    def test_refuses_sigma_not_finite_and_nonnegative(self, sigma):
        with pytest.raises(ConfigurationError, match="sigma must be finite"):
            NoiseSpec(sigma=sigma)


class TestKernelField:
    def test_json_round_trip(self, tmp_path):
        kern = random_stable_kernels((4, 5), (1, 2), order=2,
                                     target_norm=0.7, seed=19)
        path = tmp_path / "k.json"
        kern.save_json(path)
        back = KernelField.load_json(path)
        assert back.shape == kern.shape
        assert back.order == kern.order
        assert kernel_distance(kern, back) == 0.0

    def test_from_dict_mixed_field(self):
        # radius-1 boxes (interior and clipped), per-axis boxes, a box
        # minus a site, and a set that is no box
        shape = (5, 6)
        nbs = box_field(shape, 1)
        nbs[7] = box_neighborhood((2, 1), shape, (0, 2))
        nbs[8] = custom_neighborhood((3, 1), shape, nbs[8].sites[1:])
        nbs[14] = custom_neighborhood((4, 2), shape, [(4, 2), (0, 0), (4, 5)])
        nbs[29] = box_neighborhood((4, 5), shape, (4, 0))
        coeffs = [np.arange(2 * nb.size, dtype=float).reshape(2, nb.size)
                  for nb in nbs]
        data = KernelField(shape, 2, nbs, coeffs).to_dict()
        back = KernelField.from_dict(data)
        for item, nb, c, want in zip(data["sites"], back.neighborhoods,
                                     back.coeffs, coeffs):
            ref = neighborhood_from_sites(item["center"], shape, item["neighborhood"])
            assert nb == ref and nb.radii == ref.radii
            assert_array_equal(c, want)
        assert back.neighborhoods[14].radii is None
        assert back.neighborhoods[8].radii is None
        assert back.neighborhoods[29].radii == (4, 0)

        del data["sites"][3]
        with pytest.raises(ConfigurationError, match="missing 1 sites"):
            KernelField.from_dict(data)
        data = KernelField(shape, 2, nbs, coeffs).to_dict()
        data["sites"][5]["neighborhood"][0] = [5, 0]
        with pytest.raises(IndexError):
            KernelField.from_dict(data)
        # as many sites as the box, but one repeated: not a box
        data = KernelField(shape, 2, nbs, coeffs).to_dict()
        data["sites"][9]["neighborhood"][1] = data["sites"][9]["neighborhood"][0]
        with pytest.raises(ConfigurationError, match="duplicate"):
            KernelField.from_dict(data)

    def test_to_dict_bytes_match_the_per_site_form(self):
        # interior and clipped radius-1 boxes, a per-axis box and a custom set
        shape = (5, 6)
        nbs = box_field(shape, 1)
        nbs[7] = box_neighborhood((2, 1), shape, (0, 2))
        nbs[14] = custom_neighborhood((4, 2), shape, [(4, 2), (0, 0), (4, 5)])
        gen = np.random.default_rng(41)
        coeffs = [gen.normal(size=(2, nb.size)) for nb in nbs]
        field = KernelField(shape, 2, nbs, coeffs)
        per_site = {
            "shape": list(shape),
            "P": 2,
            "sites": [{"center": list(nb.center), "neighborhood": nb.sites.tolist(),
                       "coeffs": c.tolist()} for nb, c in zip(nbs, coeffs)],
        }
        text = json.dumps(field.to_dict())
        assert text == json.dumps(per_site)
        back = KernelField.from_dict(json.loads(text))
        assert kernel_distance(field, back) == 0.0
        assert [nb.radii for nb in back.neighborhoods] == [nb.radii for nb in nbs]
        assert [nb.radii for nb in field.neighborhoods] == [nb.radii for nb in nbs]
        assert list(back.neighborhoods) == nbs
        for got, want in zip(back.coeffs, coeffs):
            assert_array_equal(got, want)
        assert json.dumps(back.to_dict()) == text

    def test_views_are_read_only(self):
        kern = random_stable_kernels((4, 5), 1, order=2, target_norm=0.5, seed=2)
        assert len(kern.coeffs) == len(kern.neighborhoods) == 20
        assert kern.neighborhoods[-1] == kern.neighborhoods[19]
        with pytest.raises(IndexError):
            kern.coeffs[20]
        with pytest.raises(ValueError):
            kern.coeffs[3][0, 0] = 1.0
        with pytest.raises(ValueError):
            kern.operators()[1].data[0] = 1.0

    def test_from_dict_rejects_a_site_listed_twice(self):
        shape = (3, 4)
        kern = random_stable_kernels(shape, 1, target_norm=0.5, seed=6)
        data = kern.to_dict()
        again = dict(data["sites"][0], coeffs=[[0.5] * len(data["sites"][0]["coeffs"][0])])
        data["sites"].append(again)
        with pytest.raises(ConfigurationError, match=r"site \(0, 0\) more than once"):
            KernelField.from_dict(data)

    def test_from_dict_pairs_coeffs_with_listed_sites(self):
        shape = (4, 5)
        nbs = box_field(shape, 1)
        nbs[11] = custom_neighborhood((3, 2), shape, [(3, 2), (0, 0), (1, 4), (2, 1)])
        gen = np.random.default_rng(23)
        coeffs = [gen.normal(size=(2, nb.size)) for nb in nbs]
        kern = KernelField(shape, 2, nbs, coeffs)
        data = kern.to_dict()
        saved = json.dumps(data)
        # a box site listed backwards, a custom site shuffled; the
        # coefficients are listed in the same order as their sites
        for i, perm in ((6, np.arange(nbs[6].size)[::-1]), (11, [2, 0, 3, 1])):
            item = data["sites"][i]
            item["neighborhood"] = [item["neighborhood"][j] for j in perm]
            item["coeffs"] = [[row[j] for j in perm] for row in item["coeffs"]]
        back = KernelField.from_dict(data)
        assert kernel_distance(kern, back) == 0.0
        assert back.neighborhoods[6].radii == (1, 1)
        assert back.neighborhoods[11].radii is None
        assert json.dumps(back.to_dict()) == saved

    def test_declared_grid_is_not_allocated(self, tmp_path):
        # 12 entries under a declared 4096x4096 grid are refused as missing
        # sites before anything the size of the grid (128 MiB of int64) is made
        data = random_stable_kernels((3, 4), 1, target_norm=0.5, seed=6).to_dict()
        data["shape"] = [4096, 4096]
        path = tmp_path / "k.json"
        path.write_text(json.dumps(data))
        for read in (lambda: KernelField.from_dict(data), lambda: KernelField.load_json(path)):
            tracemalloc.start()
            try:
                with pytest.raises(ConfigurationError, match=f"missing {4096**2 - 12} sites"):
                    read()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20

    def test_save_holds_a_block_of_entries(self, tmp_path):
        # the file is written _SAVE_BLOCK entries at a time, so the traced
        # peak stays below the 4.2 MiB file (7.1 MiB at 1024 entries a block)
        kern = random_stable_kernels((60, 90), 2, seed=3)
        tracemalloc.start()
        try:
            kern.save_json(tmp_path / "k.json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "k.json").stat().st_size > 4 * 2**20
        assert peak < 4 * 2**20

    def test_scale(self):
        kern = random_stable_kernels((3, 3), 1, target_norm=0.8, seed=2)
        half = kern.scale(0.5)
        assert_allclose(operator_norm(half), 0.4, rtol=1e-6)

    def test_kernel_distance_union_footprint(self):
        a = _self_only_kernels((2, 2), 0.5)
        b = random_stable_kernels((2, 2), 1, target_norm=0.5, seed=3)
        d = kernel_distance(a, b)
        assert d > 0
        assert_allclose(d, kernel_distance(b, a), rtol=1e-15)

    def test_coeff_length_validated(self):
        nb = box_neighborhood((0, 0), (2, 2), 1)
        with pytest.raises(ConfigurationError):
            KernelField((2, 2), 1, [nb] * 4, [np.ones((1, 3))] * 4)


def _operator_products(field, lagged):
    """sum_p x_{t-p} Op_p' through scipy's CSR products on ``operators()``."""
    ops = field.operators()
    pred = (ops[0] @ lagged[0].T).T
    for x, op in zip(lagged[1:], ops[1:]):
        pred += (op @ x.T).T
    return pred


def _uneven_field():
    """BIC-selected kernels of a simulated 8x9 series: per-site radii differ."""
    truth = random_stable_kernels((8, 9), 1, target_norm=0.7, seed=71)
    series = simulate_liar(truth, 300, NoiseSpec(sigma=1.0, seed=72))
    return select_all(series, max_radius=2).kernels()


_PREDICT_FIELDS = {
    "custom": lambda: KernelField.from_dict(_mixed_field_dict()),
    "uneven": _uneven_field,
    "clipped": lambda: random_stable_kernels((4, 4), 3, target_norm=0.7, seed=73),
    "3d": lambda: random_stable_kernels((5, 5, 5), 1, target_norm=0.7, seed=74),
    "1x1": lambda: random_stable_kernels((1, 1), 0, target_norm=0.7, seed=75),
    "P2": lambda: random_stable_kernels((6, 7), (1, 2), order=2, target_norm=0.7, seed=76),
}


class TestPredict:
    """``predict`` has the bits of scipy's CSR products, sign of zero included."""

    @staticmethod
    def _assert_bits(got, want):
        assert got.shape == want.shape
        assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("name", _PREDICT_FIELDS)
    def test_block_and_rows_match_the_operator_products(self, name):
        field = _PREDICT_FIELDS[name]()
        if name == "uneven":
            assert len({nb.radii for nb in field.neighborhoods}) > 1
        gen = np.random.default_rng(77)
        frames = gen.normal(size=(20 + field.order, field.n_sites))
        lagged = [frames[field.order - p : len(frames) - p] for p in range(1, field.order + 1)]
        got = field.predict(lagged)  # its slot layout built before the operators
        self._assert_bits(got, _operator_products(field, lagged))
        for t in range(len(frames) - field.order):
            rows = [x[t : t + 1] for x in lagged]
            self._assert_bits(field.predict(rows), _operator_products(field, rows))

    def test_zero_field_gives_positive_zeros(self):
        shape = (4, 5)
        nbs = box_field(shape, 1)
        field = KernelField(shape, 2, nbs, [np.zeros((2, nb.size)) for nb in nbs])
        frames = -1.0 - np.random.default_rng(78).random(size=(9, field.n_sites))
        for lagged in ([frames[1:], frames[:-1]], [frames[3:4], frames[2:3]]):
            want = _operator_products(field, lagged)
            assert not np.signbit(want).any()
            self._assert_bits(field.predict(lagged), want)


def _mixed_field_dict():
    """``to_dict`` of test_from_dict_mixed_field's field: interior and
    clipped radius-1 boxes, per-axis boxes, a box minus a site and a set
    that is no box, with P=2."""
    shape = (5, 6)
    nbs = box_field(shape, 1)
    nbs[7] = box_neighborhood((2, 1), shape, (0, 2))
    nbs[8] = custom_neighborhood((3, 1), shape, nbs[8].sites[1:])
    nbs[14] = custom_neighborhood((4, 2), shape, [(4, 2), (0, 0), (4, 5)])
    nbs[29] = box_neighborhood((4, 5), shape, (4, 0))
    coeffs = [np.arange(2 * nb.size, dtype=float).reshape(2, nb.size) / 7 for nb in nbs]
    return KernelField(shape, 2, nbs, coeffs).to_dict()


def _set(path, value):
    """An edit of a kernel dict: the item at ``path`` set to ``value``."""
    def edit(data):
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return edit


# one fault each; site 9 is (4, 1), its neighborhood [[3, 0], [4, 0], [3, 1], ...]
_MALFORMED = {
    "missing_site": lambda data: data["sites"].pop(3),
    "site_twice": lambda data: data["sites"].append(data["sites"][0]),
    "repeated_neighbor": _set(["sites", 9, "neighborhood", 1], [3, 0]),
    "ragged_coordinate": _set(["sites", 9, "neighborhood", 2], [4, 0, 0]),
    "ragged_center": _set(["sites", 9, "center"], [4]),
    "coefficient_width": _set(["sites", 9, "coeffs", 1], [0.5]),
    "coefficient_rows": lambda data: data["sites"][9]["coeffs"].pop(),
    "nan_coefficient": _set(["sites", 9, "coeffs", 1, 2], float("nan")),
    "empty_neighborhood": _set(["sites", 9, "neighborhood"], []),
    "off_grid_site": _set(["sites", 9, "neighborhood", 2], [5, 0]),
    "off_grid_center": _set(["sites", 9, "center"], [9, 9]),
    "shape_3.5": _set(["shape"], [3.5, 6]),
    "extent_0": _set(["shape"], [0, 6]),
    "extent_-5": _set(["shape"], [-5, 6]),
    "P_1.5": _set(["P"], 1.5),
    "P_true": _set(["P"], True),
    "coordinate_1.5": _set(["sites", 9, "neighborhood", 2, 0], 1.5),
    "coordinate_0.0": _set(["sites", 9, "neighborhood", 0, 1], 0.0),
    "center_4.0": _set(["sites", 9, "center", 0], 4.0),
    "coordinate_true": _set(["sites", 9, "neighborhood", 2, 0], True),
    "center_false": _set(["sites", 9, "center", 1], False),
    "no_coeffs": lambda data: data["sites"][9].pop("coeffs"),
}


class TestKernelReaders:
    """``KernelField.load_json(path)`` against
    ``KernelField.from_dict(json.load(...))``."""

    @staticmethod
    def _shuffled(data, seed):
        # sites in any order, each neighborhood too, its rows following it
        gen = np.random.default_rng(seed)
        items = [data["sites"][i] for i in gen.permutation(len(data["sites"]))]
        for item in items:
            perm = gen.permutation(len(item["neighborhood"]))
            item["neighborhood"] = [item["neighborhood"][j] for j in perm]
            item["coeffs"] = [[row[j] for j in perm] for row in item["coeffs"]]
        return {**data, "sites": items}

    @pytest.mark.parametrize("layout", ["as_written", "shuffled"])
    def test_both_readers_give_the_same_bits(self, tmp_path, layout):
        data = _mixed_field_dict()
        if layout == "shuffled":
            data = self._shuffled(data, 7)
        path = tmp_path / "k.json"
        path.write_text(json.dumps(data))
        with open(path) as fh:
            want = KernelField.from_dict(json.load(fh))
        got = KernelField.load_json(path)
        assert (got.shape, got.order) == (want.shape, want.order) == ((5, 6), 2)
        for a, b in zip(got.operators(), want.operators()):
            for name in ("indptr", "indices", "data"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        assert got._radii.tobytes() == want._radii.tobytes()
        assert [nb.radii for nb in got.neighborhoods][7:9] == [(0, 2), None]
        assert json.dumps(got.to_dict()) == json.dumps(_mixed_field_dict())

    @pytest.mark.parametrize("edit", list(_MALFORMED))
    def test_both_readers_refuse_alike(self, tmp_path, edit):
        # load_json reports what from_dict raises, after the file's name
        data = _mixed_field_dict()
        _MALFORMED[edit](data)
        path = tmp_path / "k.json"
        path.write_text(json.dumps(data))
        with open(path) as fh:
            data = json.load(fh)
        with pytest.raises((ConfigurationError, IndexError, KeyError)) as want:
            KernelField.from_dict(data)
        with pytest.raises(ConfigurationError) as got:
            KernelField.load_json(path)
        assert str(got.value) == f"malformed kernel file {path}: {want.value!r}"
        if edit not in ("off_grid_site", "off_grid_center", "no_coeffs"):
            assert want.type is ConfigurationError

    def test_refusals_name_the_fault(self):
        # non-integers are refused, not truncated
        messages = {
            "ragged_coordinate": "kernel JSON site [4, 0, 0] does not have 2 coordinates",
            "ragged_center": "kernel JSON site [4] does not have 2 coordinates",
            "shape_3.5": "kernel JSON shape [3.5, 6] is not a list of integers",
            "extent_0": "grid extents must be positive, got (0, 6)",
            "P_1.5": "kernel JSON lag order 1.5 is not an integer",
            "P_true": "kernel JSON lag order True is not an integer",
            "coordinate_1.5": "site (4, 1): non-integer coordinates",
            "coordinate_0.0": "site (4, 1): non-integer coordinates",
            "center_4.0": "site (4.0, 1): non-integer coordinates",
            "coordinate_true": "site (4, 1): non-integer coordinates",
            "center_false": "site (4, False): non-integer coordinates",
        }
        for edit, message in messages.items():
            data = _mixed_field_dict()
            _MALFORMED[edit](data)
            with pytest.raises(ConfigurationError) as exc:
                KernelField.from_dict(data)
            assert str(exc.value) == message

    def test_site_entry_outside_the_site_list_is_refused(self, tmp_path):
        data = _mixed_field_dict()
        data["extra"] = data["sites"][0]
        path = tmp_path / "k.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError, match="site entries outside its site list"):
            KernelField.load_json(path)
