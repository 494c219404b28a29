import numpy as np
import pytest
from numpy.testing import assert_array_equal

from liargrid import (
    ConfigurationError,
    KernelField,
    box_field,
    box_neighborhood,
    custom_neighborhood,
    interior_mask,
    linear_to_site,
    nested_family,
    random_stable_kernels,
    site_to_linear,
)
from liargrid.neighborhoods import (_candidates, _grid_centers, _nest,
                                    neighborhood_from_sites)


class TestBoxNeighborhood:
    def test_interior_square(self):
        nb = box_neighborhood((2, 2), (5, 5), (1, 1))
        assert nb.size == 9
        assert tuple(nb.center) == (2, 2)

    def test_scalar_radius(self):
        assert box_neighborhood((2, 2), (5, 5), 1).size == 9

    def test_corner_clipped(self):
        nb = box_neighborhood((0, 0), (5, 5), (1, 1))
        got = {tuple(s) for s in nb.sites}
        assert got == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_tensor_box(self):
        nb = box_neighborhood((2, 2, 2), (5, 5, 5), (0, 1, 1))
        assert nb.size == 9
        assert all(s[0] == 2 for s in nb.sites)

    def test_sites_sorted_by_linear_index(self):
        nb = box_neighborhood((3, 2), (6, 7), (2, 1))
        lin = [site_to_linear(tuple(s), (6, 7)) for s in nb.sites]
        assert lin == sorted(lin)
        assert len(set(lin)) == len(lin)

    def test_center_in_sites(self):
        nb = box_neighborhood((4, 0), (5, 5), (1, 2))
        assert (4, 0) in {tuple(s) for s in nb.sites}

    def test_radius_zero(self):
        nb = box_neighborhood((1, 3), (4, 4), 0)
        assert nb.size == 1

    def test_invalid_center(self):
        with pytest.raises(IndexError):
            box_neighborhood((5, 0), (5, 5), 1)

    def test_negative_radius(self):
        with pytest.raises(ConfigurationError):
            box_neighborhood((2, 2), (5, 5), (-1, 0))


def _reference_box_sites(center, shape, radii):
    """Clipped box by one meshgrid of per-axis ranges, sorted by linear index."""
    axes = [np.arange(max(0, c - r), min(n - 1, c + r) + 1)
            for c, r, n in zip(center, radii, shape)]
    sites = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    linear = np.ravel_multi_index(tuple(sites.T), shape, order="F")
    order = np.argsort(linear)
    return sites[order], linear[order]


class TestBoxField:
    @pytest.mark.parametrize("shape, radii", [
        ((7,), 0), ((7,), 2), ((7,), 9),
        ((5, 9), 0), ((5, 9), 1), ((5, 9), (2, 0)), ((5, 9), 12),
        ((4, 4, 6), 0), ((4, 4, 6), 1), ((4, 4, 6), (0, 1, 1)), ((4, 4, 6), 7),
    ])
    def test_matches_per_site_meshgrid(self, shape, radii):
        per_axis = (radii,) * len(shape) if np.isscalar(radii) else radii
        field = box_field(shape, radii)
        assert len(field) == int(np.prod(shape))
        for i, nb in enumerate(field):
            center = linear_to_site(i, shape)
            sites, linear = _reference_box_sites(center, shape, per_axis)
            assert nb.center == center and nb.shape == shape
            assert nb.radii == per_axis
            assert_array_equal(nb.sites, sites)
            assert_array_equal(nb.linear, linear)
            assert not nb.sites.flags.writeable
            assert not nb.linear.flags.writeable


@pytest.mark.parametrize("shape", [(0, 5), (3, -2)])
@pytest.mark.parametrize("build", [
    box_field, interior_mask, random_stable_kernels,
    pytest.param(lambda shape, k: box_neighborhood((0, 0), shape, k),
                 id="box_neighborhood"),
    pytest.param(lambda shape, k: nested_family((0, 0), shape, k), id="nested_family"),
    pytest.param(lambda shape, k: custom_neighborhood((0, 0), shape, [(0, 0)]),
                 id="custom_neighborhood"),
    pytest.param(lambda shape, k: KernelField(shape, k, [], []), id="KernelField"),
])
def test_grid_builders_refuse_a_nonpositive_extent(build, shape):
    with pytest.raises(ConfigurationError, match="grid extents must be positive"):
        build(shape, 1)


class TestGridFamilies:
    """The whole-grid builder, one box level at a time, against per-site
    families."""

    # each case has saturated families (and the last, sites that fail)
    @pytest.mark.parametrize("shape, mode", [
        ((4, 5), dict(max_radius=4)),
        ((4, 3, 5), dict(max_radius=3)),
        ((5, 7), dict(max_radius=4, axis_caps=(1, 3))),
        ((4, 3, 5), dict(max_radius=3, axis_caps=(0, 2, 1))),
        ((5, 4), dict(radii_list=[(0, 0), (0, 1), (1, 1), (2, 2), (3, 2)])),
        ((1, 3, 5), dict(radii_list=[(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)])),
        ((3, 6), dict(radii_list=[(0, 0), (2, 0), (2, 1), (1, 1)])),
    ])
    def test_matches_per_site_families(self, shape, mode):
        field = _nest(_grid_centers(shape), shape, *_candidates(
            len(shape), mode.get("max_radius"), mode.get("axis_caps"),
            mode.get("radii_list")))
        assert len(field) == int(np.prod(shape))
        for i, got in enumerate(field):
            center = linear_to_site(i, shape)
            if isinstance(got, str):  # levels that do not nest at this site
                with pytest.raises(ConfigurationError) as exc:
                    nested_family(center, shape, **mode)
                assert got == str(exc.value)
                continue
            want = nested_family(center, shape, **mode)
            assert got.center == want.center and got.shape == want.shape
            assert got.labels == want.labels and got.saturated == want.saturated
            assert got.levels == want.levels
            assert [nb.radii for nb in got.levels] == [nb.radii for nb in want.levels]
        assert any(not isinstance(f, str) and f.saturated for f in field)

    def test_invalid_candidates_raise(self):
        with pytest.raises(ConfigurationError, match="bare center"):
            _candidates(2, None, None, [(1, 1), (2, 2)])


class TestNestedFamily:
    def test_k0_zero_single_level(self):
        fam = nested_family((2, 2), (5, 5), max_radius=0)
        assert fam.n_levels == 1
        assert fam.levels[0].size == 1

    def test_interior_level_sizes(self):
        fam = nested_family((5, 5), (11, 11), max_radius=2)
        assert fam.sizes() == [1, 9, 25]
        assert fam.labels == [0, 1, 2]
        assert not fam.saturated

    def test_tensor_radii_list(self):
        fam = nested_family(
            (2, 2, 6), (5, 5, 12),
            radii_list=[(0, 0, 0), (0, 0, 1), (0, 1, 1)],
        )
        assert fam.sizes() == [1, 3, 9]

    def test_strict_nesting(self):
        fam = nested_family((5, 5), (11, 11), max_radius=3)
        for a, b in zip(fam.levels, fam.levels[1:]):
            small = {tuple(s) for s in a.sites}
            big = {tuple(s) for s in b.sites}
            assert small < big

    def test_non_nested_list_rejected(self):
        with pytest.raises(ConfigurationError, match="nest"):
            nested_family((2, 2), (9, 9),
                          radii_list=[(0, 0), (1, 0), (0, 1)])

    def test_list_must_start_at_self(self):
        with pytest.raises(ConfigurationError):
            nested_family((2, 2), (9, 9), radii_list=[(1, 1), (2, 2)])

    def test_saturation_drops_duplicate_levels(self):
        # on a 3x3 grid the corner box stops growing past radius 2
        fam = nested_family((0, 0), (3, 3), max_radius=4)
        assert fam.saturated
        assert fam.sizes() == sorted(set(fam.sizes()))
        assert fam.sizes()[-1] == 9

    def test_axis_caps(self):
        fam = nested_family((5, 5), (11, 11), max_radius=3, axis_caps=(1, 3))
        sizes = fam.sizes()
        assert sizes[0] == 1
        # axis 0 is capped at radius 1 so levels grow only along axis 1
        assert sizes[-1] == 3 * 7


class TestInteriorMask:
    def test_counts(self):
        mask = interior_mask((5, 5), (1, 1))
        assert mask.sum() == 9
        assert mask[site_to_linear((2, 2), (5, 5))]
        assert not mask[site_to_linear((0, 2), (5, 5))]

    def test_tensor(self):
        mask = interior_mask((4, 4, 6), (0, 1, 1))
        assert mask.sum() == 4 * 2 * 4

    @pytest.mark.parametrize("radii", [-1, (1, -1), (1, 2, 3)])
    def test_bad_radius_refused(self, radii):
        with pytest.raises(ConfigurationError, match="radii"):
            interior_mask((4, 4), radii)


class TestSerialization:
    def test_dict_round_trip(self):
        nb = box_neighborhood((1, 2), (4, 5), (1, 1))
        data = nb.to_dict()
        back = neighborhood_from_sites(data["center"], (4, 5), data["sites"],
                                       data.get("k"))
        assert tuple(back.center) == (1, 2)
        assert_array_equal(back.sites, nb.sites)
        assert back.radii == (1, 1)

    def test_box_inferred_from_extent_else_custom(self):
        clipped = box_neighborhood((0, 4), (4, 5), (1, 2))
        back = neighborhood_from_sites((0, 4), (4, 5), clipped.sites[::-1])
        assert back.radii == (1, 2) and back == clipped
        # a box minus one site, and a box that k does not describe
        holed = neighborhood_from_sites((0, 4), (4, 5), clipped.sites[1:])
        assert holed.radii is None and holed.size == clipped.size - 1
        other = neighborhood_from_sites((0, 4), (4, 5), clipped.sites, k=1)
        assert other.radii is None and other == clipped

    def test_custom_neighborhood_round_trip(self):
        nb = custom_neighborhood((1, 1), (4, 4), [(1, 1), (0, 0), (3, 3)])
        got = [tuple(s) for s in nb.sites]
        # canonical column-major order, deduplicated
        assert got == [(0, 0), (1, 1), (3, 3)]
        assert nb.radii is None
