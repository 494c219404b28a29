import gc
import json
import re
import struct

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import liargrid.grid
import liargrid.simulate
from _dgp import adversarial_series
from liargrid import (
    ConfigurationError,
    GridSeries,
    GtsFormatError,
    KernelField,
    extract_patch,
    fit_all,
    linear_to_site,
    read_csv_frames,
    random_stable_kernels,
    read_gts,
    select_all,
    site_to_linear,
    sites_to_linear,
    write_gts,
)
from liargrid.grid import _read_gts, _write_gts
from liargrid.neighborhoods import box_field, box_neighborhood, custom_neighborhood


class TestIndexing:
    def test_origin(self):
        assert site_to_linear((0, 0), (3, 4)) == 0

    def test_column_major_2d(self):
        assert site_to_linear((2, 1), (3, 4)) == 5

    def test_column_major_3d(self):
        assert site_to_linear((1, 0, 2), (2, 3, 4)) == 13

    def test_round_trip_bijection(self):
        shape = (3, 4, 5)
        seen = set()
        for lin in range(60):
            site = linear_to_site(lin, shape)
            assert site_to_linear(site, shape) == lin
            seen.add(site)
        assert len(seen) == 60

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            site_to_linear((3, 0), (3, 4))
        with pytest.raises(IndexError):
            site_to_linear((0, -1), (3, 4))
        with pytest.raises(IndexError):
            site_to_linear((0, 0, 0), (3, 4))

    def test_vectorized_matches_scalar(self):
        shape = (4, 6)
        sites = [(i, j) for i in range(4) for j in range(6)]
        got = sites_to_linear(sites, shape)
        want = [site_to_linear(s, shape) for s in sites]
        assert_array_equal(got, want)

    def test_vectorized_names_offender(self):
        with pytest.raises(IndexError, match=r"4.*0|\(4, 0\)"):
            sites_to_linear([(0, 0), (4, 0)], (4, 6))

    def test_vectorized_offender_in_plain_ints(self):
        with pytest.raises(IndexError, match=r"site \(4, 0\) out of bounds"):
            sites_to_linear([(0, 0), (4, 0)], (4, 6))


class TestGridSeries:
    def test_frame_layout_column_major(self):
        # storage order 1,2,3,4 is the matrix [[1,3],[2,4]]
        s = GridSeries((2, 2), np.array([[1.0, 2.0, 3.0, 4.0]]))
        assert_array_equal(s.frame(0), [[1.0, 3.0], [2.0, 4.0]])

    def test_from_frames_round_trip(self):
        frames = np.arange(24.0).reshape(2, 3, 4)
        s = GridSeries.from_frames(frames)
        assert s.shape == (3, 4)
        assert s.n_frames == 2
        assert_array_equal(s.frames, frames)

    def test_values_read_only(self):
        s = GridSeries((2, 2), np.zeros((3, 4)))
        with pytest.raises((ValueError, RuntimeError)):
            s.values[0, 0] = 1.0

    def test_slice_time(self):
        s = GridSeries((2, 1), np.arange(10.0).reshape(5, 2))
        sub = s.slice_time(1, 4)
        assert sub.n_frames == 3
        assert_array_equal(sub.values, s.values[1:4])

    def test_slice_time_is_a_read_only_view(self):
        s = GridSeries((2, 3), np.random.default_rng(2).normal(size=(7, 6)))
        sub = s.slice_time(2, 6)
        assert np.shares_memory(sub.values, s.values)
        assert not sub.values.flags.writeable
        assert_array_equal(sub.values, s.values[2:6])
        with pytest.raises((ValueError, RuntimeError)):
            sub.values[0, 0] = 1.0

    def test_rejects_non_finite(self):
        vals = np.zeros((2, 4))
        vals[1, 2] = np.nan
        with pytest.raises(Exception):
            GridSeries((2, 2), vals)

    @pytest.mark.parametrize("extent", [3.5, 3.0, True, np.float64(3.0), "3", None])
    @pytest.mark.parametrize("entry", ["GridSeries", "box_field", "random_stable_kernels"])
    def test_non_integer_extent_refused(self, entry, extent):
        shape = (extent, 4)
        calls = {
            "GridSeries": lambda: GridSeries(shape, np.zeros((5, 12))),
            "box_field": lambda: box_field(shape, 1),
            "random_stable_kernels": lambda: random_stable_kernels(shape, 1),
        }
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"a grid extent must be an integer, got {extent!r}")):
            calls[entry]()

    @pytest.mark.parametrize("extent", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_numpy_integer_extent_accepted(self, extent):
        s = GridSeries((extent, 4), np.zeros((5, 12)))
        assert s.shape == (3, 4) and all(type(n) is int for n in s.shape)


class TestExtractPatch:
    def test_zero_frame(self):
        s = GridSeries((3, 3), np.zeros((2, 9)))
        assert_array_equal(extract_patch(s, 0, [(0, 0), (2, 2)]), [0.0, 0.0])

    def test_column_major_readoff(self):
        s = GridSeries((2, 2), np.array([[1.0, 2.0, 3.0, 4.0]]))
        assert_array_equal(extract_patch(s, 0, [(0, 0), (1, 1)]), [1.0, 4.0])

    def test_full_site_list_is_frame_slice(self):
        rng = np.random.default_rng(0)
        s = GridSeries((3, 4), rng.normal(size=(5, 12)))
        sites = [linear_to_site(i, (3, 4)) for i in range(12)]
        assert_array_equal(extract_patch(s, 3, sites), s.values[3])

    def test_bad_time(self):
        s = GridSeries((2, 2), np.zeros((2, 4)))
        with pytest.raises(IndexError):
            extract_patch(s, 2, [(0, 0)])


class TestGtsFormat:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(7)
        s = GridSeries((3, 4, 2), rng.normal(size=(6, 24)))
        path = tmp_path / "a.gts"
        write_gts(s, path)
        back = read_gts(path)
        assert back.shape == s.shape
        assert_array_equal(back.values, s.values)

    def test_minimal_file_is_21_bytes(self, tmp_path):
        s = GridSeries((1,), np.array([[2.5]]))
        path = tmp_path / "tiny.gts"
        write_gts(s, path)
        raw = path.read_bytes()
        assert len(raw) == 21
        assert raw[:4] == b"GTS1"
        assert read_gts(path).values[0, 0] == 2.5

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.gts"
        path.write_bytes(b"XXXX" + bytes(17))
        with pytest.raises(GtsFormatError, match="offset 0") as exc:
            read_gts(path)
        assert exc.value.offset == 0

    def test_zero_extent(self, tmp_path):
        path = tmp_path / "zero.gts"
        path.write_bytes(b"GTS1" + struct.pack("<BII", 1, 0, 1))
        with pytest.raises(GtsFormatError, match="offset 5"):
            read_gts(path)

    def test_truncated_payload(self, tmp_path):
        s = GridSeries((2, 2), np.ones((3, 4)))
        path = tmp_path / "trunc.gts"
        write_gts(s, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(GtsFormatError, match="offset"):
            read_gts(path)

    def test_trailing_data(self, tmp_path):
        s = GridSeries((2, 2), np.ones((3, 4)))
        path = tmp_path / "trail.gts"
        write_gts(s, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(GtsFormatError):
            read_gts(path)

    def test_non_finite_payload(self, tmp_path):
        s = GridSeries((1, 2), np.ones((2, 2)))
        path = tmp_path / "inf.gts"
        write_gts(s, path)
        raw = bytearray(path.read_bytes())
        raw[-8:] = struct.pack("<d", np.inf)
        path.write_bytes(bytes(raw))
        with pytest.raises(GtsFormatError, match="finite"):
            read_gts(path)

    # 700 frames of a 10x10 grid: 70000 values, past the first 2**16-value
    # chunk of the finiteness check
    @pytest.mark.parametrize("position", [0, 2**16 - 1, 2**16, 69000, 69999])
    def test_non_finite_value_offset_in_any_chunk(self, tmp_path, position):
        path = tmp_path / "nan.gts"
        write_gts(GridSeries((10, 10), np.ones((700, 100))), path)
        raw = bytearray(path.read_bytes())
        at = 17 + 8 * position  # after the 17-byte header of a 2-axis grid
        raw[at : at + 8] = struct.pack("<d", np.nan)
        path.write_bytes(bytes(raw))
        with pytest.raises(GtsFormatError) as exc:
            read_gts(path)
        assert str(exc.value) == (f"non-finite value at position {position} "
                                  f"(byte offset {at})")
        assert exc.value.offset == at

    @pytest.mark.parametrize("edit, message, offset", [
        ("truncated", "payload truncated: expected 560000 bytes, found 559992", 560009),
        ("trailing", "trailing data after payload", 560017),
    ])
    def test_payload_size_errors_keep_their_offsets(self, tmp_path, edit, message,
                                                    offset):
        path = tmp_path / "size.gts"
        write_gts(GridSeries((10, 10), np.ones((700, 100))), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8] if edit == "truncated" else raw + b"\x00")
        with pytest.raises(GtsFormatError) as exc:
            read_gts(path)
        assert str(exc.value) == f"{message} (byte offset {offset})"
        assert exc.value.offset == offset

    @pytest.mark.parametrize("last", [1, 2, 5, 11, 14])
    def test_last_frames_read_and_checked_like_read_gts(self, tmp_path, monkeypatch,
                                                        last):
        # blocks of 2 frames of 6 sites: the kept frames straddle blocks, and
        # a fault in any block is reported where read_gts reports it
        monkeypatch.setattr(liargrid.grid, "_READ_BLOCK", 13)
        path = tmp_path / "s.gts"
        write_gts(GridSeries((2, 3), np.random.default_rng(8).normal(size=(11, 6))), path)
        whole = read_gts(path)
        tail = _read_gts(path, last)
        assert tail.shape == whole.shape
        assert_array_equal(tail.values, whole.values[-last:])
        raw = path.read_bytes()
        for position in (0, 13, 40, 65):
            bad = bytearray(raw)
            bad[17 + 8 * position : 25 + 8 * position] = struct.pack("<d", np.inf)
            path.write_bytes(bytes(bad))
            errors = []
            for read in (read_gts, lambda p: _read_gts(p, last)):
                with pytest.raises(GtsFormatError) as exc:
                    read(path)
                errors.append((str(exc.value), exc.value.offset))
            assert errors[0] == errors[1] == (
                f"non-finite value at position {position} "
                f"(byte offset {17 + 8 * position})", 17 + 8 * position)

    def test_writer_removes_the_file_it_refuses(self, tmp_path):
        path = tmp_path / "s.gts"
        blocks = [np.ones((2, 6)), np.array([[1.0] * 5 + [np.nan]])]
        with pytest.raises(ConfigurationError, match="non-finite"):
            _write_gts(path, (2, 3), 3, iter(blocks))
        assert not path.exists()

    # 2**32 frames overflow the header's u32 frame count, and 2**29 + 1
    # frames of 16 sites hold more than 2**33 values: read_gts refuses both
    @pytest.mark.parametrize("n_frames", [2**32, 2**29 + 1, 0])
    def test_writer_refuses_what_the_reader_would(self, tmp_path, n_frames):
        path = tmp_path / "s.gts"
        with pytest.raises(ConfigurationError, match="a GTS file holds"):
            _write_gts(path, (4, 4), n_frames, iter(()))
        assert not path.exists()

    def test_read_values_are_read_only(self, tmp_path):
        path = tmp_path / "ro.gts"
        write_gts(GridSeries((3, 2), np.arange(24.0).reshape(4, 6)), path)
        back = read_gts(path)
        assert back.values.dtype == np.float64 and back.values.flags.c_contiguous
        with pytest.raises(ValueError):
            back.values[0, 0] = 1.0


class TestCsvImport:
    def test_stacked_frames(self, tmp_path):
        # two 2x3 frames stacked as row blocks
        path = tmp_path / "frames.csv"
        path.write_text(
            "1,2,3\n4,5,6\n"
            "7,8,9\n10,11,12\n"
        )
        s = read_csv_frames(path, (2, 3))
        assert s.n_frames == 2
        assert_array_equal(s.frame(0), [[1, 2, 3], [4, 5, 6]])
        assert_array_equal(s.frame(1), [[7, 8, 9], [10, 11, 12]])

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("c1,c2\n1,2\n3,4\n")
        s = read_csv_frames(path, (1, 2))
        assert s.n_frames == 2

    def test_bad_width(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n4,5,6\n")
        with pytest.raises(Exception, match="column|width|shape"):
            read_csv_frames(path, (2, 2))


class TestJsonFiles:
    """Kernel and report files are built and parsed with the cyclic
    collector paused, which is then put back as it was."""

    @pytest.fixture
    def gc_runs(self):
        seen = []

        def record(phase, info):
            if phase == "start":
                seen.append(info["generation"])

        gc.callbacks.append(record)
        yield seen
        gc.callbacks.remove(record)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_no_collection_inside_and_state_restored(self, tmp_path, gc_runs, enabled):
        shape = (12, 12)
        series = GridSeries(shape, np.random.default_rng(4).normal(size=(40, 144)))
        kernels = random_stable_kernels(shape, 1, target_norm=0.5, seed=5)
        report = fit_all(series, box_field(shape, 1))
        selection = select_all(series, max_radius=1)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            gc_runs.clear()
            kernels.save_json(tmp_path / "kernels.json")
            back = KernelField.load_json(tmp_path / "kernels.json")
            report.save_json(tmp_path / "fit_report.json")
            selection.save_json(tmp_path / "selection.json")
            assert gc_runs == []
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert back.to_dict() == kernels.to_dict()

    @staticmethod
    def _artifact(kind):
        shape = (5, 6)
        if kind == "custom":  # boxes, a per-axis box and two custom sets
            nbs = box_field(shape, 1)
            nbs[7] = box_neighborhood((2, 1), shape, (0, 2))
            nbs[8] = custom_neighborhood((3, 1), shape, nbs[8].sites[1:])
            nbs[14] = custom_neighborhood((4, 2), shape, [(4, 2), (0, 0), (4, 5)])
            coeffs = [np.random.default_rng(i).normal(size=(1, nb.size))
                      for i, nb in enumerate(nbs)]
            return KernelField(shape, 1, nbs, coeffs)
        if kind == "box":
            return random_stable_kernels(shape, 1, target_norm=0.5, seed=9)
        if kind == "P2":
            return random_stable_kernels(shape, (1, 2), order=2, target_norm=0.5, seed=9)
        if kind == "3d":
            return random_stable_kernels((3, 4, 5), (1, 0, 2), target_norm=0.5, seed=9)
        if kind == "fit":  # underdetermined interior boxes, deficient ones
            report = fit_all(adversarial_series(), box_field(shape, 2))
            assert report.errors and any(fit.se is None for fit in report)
            return report
        return select_all(adversarial_series(), max_radius=4)

    def test_failed_write_leaves_no_file(self, tmp_path):
        class Failing(liargrid.grid._JsonArtifact):
            """Entries that fail after the first written block."""

            def _json_fields(self):
                def sites():
                    yield from ({"center": [i]} for i in range(liargrid.grid._SAVE_BLOCK))
                    raise RuntimeError("entry failed")

                return {"shape": [2 * liargrid.grid._SAVE_BLOCK], "sites": sites()}

        path = tmp_path / "kernels.json"
        path.write_text("{}")
        with pytest.raises(RuntimeError, match="entry failed"):
            Failing().save_json(path)
        assert not path.exists()

    @pytest.mark.parametrize("kind", ["box", "custom", "P2", "3d", "fit", "selection"])
    def test_written_a_block_at_a_time_as_to_dict_dumps(self, tmp_path, monkeypatch,
                                                        kind):
        artifact = self._artifact(kind)
        want = json.dumps(artifact.to_dict())
        artifact.save_json(tmp_path / "whole.json")
        # entries made 4 sites at a time, written 3 at a time
        monkeypatch.setattr(liargrid.simulate, "_SITE_BLOCK", 4)
        monkeypatch.setattr(liargrid.grid, "_SAVE_BLOCK", 3)
        artifact.save_json(tmp_path / "blocks.json")
        assert (tmp_path / "whole.json").read_text() == want
        assert (tmp_path / "blocks.json").read_text() == want
        assert json.dumps(artifact.to_dict()) == want

