"""End-to-end tests of the command line front end.

Commands run in process through ``liargrid.cli.main`` so exit codes,
artifacts, and console output can all be asserted; smoke tests
exercise the ``liar`` script (see ``liar_command`` in conftest.py) and
``python -m liargrid``.
"""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from liargrid import (
    GridSeries,
    KernelField,
    NoiseSpec,
    baseline_pixel_ar,
    holdout_rmse,
    random_stable_kernels,
    read_gts,
    simulate_liar,
    write_gts,
)
import liargrid.cli
from liargrid.cli import main


def run(*argv):
    return main([str(a) for a in argv])


def read_metrics(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestSimulate:
    def test_same_config_twice_is_byte_identical(self, tmp_path):
        args = ["simulate", "--shape", "6,6", "--T", "50", "--K", "1",
                "--seed", "7", "--burn-in", "20"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(*args, "--output-dir", a) == 0
        assert run(*args, "--output-dir", b) == 0
        assert (a / "series.gts").read_bytes() == (b / "series.gts").read_bytes()
        assert (a / "kernels.json").read_bytes() == (b / "kernels.json").read_bytes()

    def test_header_carries_shape_and_frame_count(self, tmp_path):
        out = tmp_path / "run"
        code = run("simulate", "--shape", "10,10", "--T", "4000", "--K", "3",
                   "--seed", "1", "--burn-in", "100", "--output-dir", out)
        assert code == 0
        raw = (out / "series.gts").read_bytes()
        assert raw[:4] == b"GTS1"
        series = read_gts(out / "series.gts")
        assert series.shape == (10, 10)
        assert series.n_frames == 4000

    def test_creates_missing_output_dir(self, tmp_path):
        out = tmp_path / "deep" / "nested" / "run"
        code = run("simulate", "--shape", "4,4", "--T", "30", "--K", "1",
                   "--burn-in", "10", "--output-dir", out)
        assert code == 0
        assert (out / "config.json").exists()

    def test_missing_shape_is_config_error(self, tmp_path, capsys):
        code = run("simulate", "--T", "30", "--K", "1",
                   "--output-dir", tmp_path / "x")
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestFit:
    def test_artifacts_and_config_hashes(self, tmp_path):
        sim = tmp_path / "sim"
        run("simulate", "--shape", "6,6", "--T", "150", "--K", "1",
            "--seed", "3", "--burn-in", "50", "--output-dir", sim)
        out = tmp_path / "fit"
        code = run("fit", "--input", sim / "series.gts", "--K", "1",
                   "--output-dir", out)
        assert code == 0
        assert (out / "fit_report.json").exists()
        assert (out / "kernels.json").exists()
        config = json.loads((out / "config.json").read_text())
        assert set(config["params"]) == {"command", "input", "output_dir", "shape",
                                          "P", "K", "threads"}
        assert config["params"]["K"] == 1
        assert config["fit_seconds"] > 0
        want = hashlib.sha256((sim / "series.gts").read_bytes()).hexdigest()
        assert config["inputs"][str(sim / "series.gts")] == want

    def test_underdetermined_sites_exit_4(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        run("simulate", "--shape", "6,6", "--T", "10", "--K", "1",
            "--seed", "4", "--burn-in", "20", "--output-dir", sim)
        out = tmp_path / "fit"
        code = run("fit", "--input", sim / "series.gts", "--K", "2",
                   "--output-dir", out)
        assert code == 4
        # partial report still written, kernel export withheld
        assert (out / "fit_report.json").exists()
        assert not (out / "kernels.json").exists()
        assert "failures" in capsys.readouterr().out

    def test_missing_k_is_config_error(self, tmp_path):
        sim = tmp_path / "sim"
        run("simulate", "--shape", "4,4", "--T", "40", "--K", "1",
            "--burn-in", "10", "--output-dir", sim)
        assert run("fit", "--input", sim / "series.gts",
                   "--output-dir", tmp_path / "fit") == 2


class TestSelect:
    def test_heatmap_rows_summary_and_d0_echo(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        run("simulate", "--shape", "8,8", "--T", "400", "--K", "1",
            "--seed", "5", "--burn-in", "100", "--output-dir", sim)
        out = tmp_path / "sel"
        code = run("select", "--input", sim / "series.gts", "--K0", "2",
                   "--K", "1", "--output-dir", out)
        assert code == 0
        header, rows = read_metrics(out / "selection_heatmap.csv")
        assert header == ["site_row", "site_col", "chosen_k"]
        assert len(rows) == 64
        coords = {(int(r[0]), int(r[1])) for r in rows}
        assert min(c[0] for c in coords) == 1 and max(c[0] for c in coords) == 8
        summary = json.loads((out / "summary.json").read_text())
        assert_allclose(summary["D0"], math.log(math.log(400)), rtol=1e-12)
        for key in ("overall", "interior", "boundary"):
            assert 0.0 <= summary[key] <= 1.0
        assert "success vs truth K=1" in capsys.readouterr().out
        config = json.loads((out / "config.json").read_text())
        assert set(config["params"]) == {"command", "input", "output_dir", "shape",
                                          "P", "K", "K0", "D0", "threads",
                                          "candidates"}
        assert config["params"]["D0"] is None

    def test_explicit_d0_used(self, tmp_path):
        sim = tmp_path / "sim"
        run("simulate", "--shape", "5,5", "--T", "120", "--K", "1",
            "--seed", "6", "--burn-in", "40", "--output-dir", sim)
        out = tmp_path / "sel"
        assert run("select", "--input", sim / "series.gts", "--K0", "1",
                   "--D0", "5.0", "--output-dir", out) == 0
        assert json.loads((out / "summary.json").read_text())["D0"] == 5.0

    def test_tensor_candidates_skip_heatmap(self, tmp_path):
        sim = tmp_path / "sim"
        run("simulate", "--shape", "3,3,4", "--T", "200", "--K", "1",
            "--seed", "8", "--burn-in", "50", "--output-dir", sim)
        out = tmp_path / "sel"
        code = run("select", "--input", sim / "series.gts",
                   "--candidates", "0,0,0;0,1,1;1,1,1", "--output-dir", out)
        assert code == 0
        assert (out / "selection.json").exists()
        assert not (out / "selection_heatmap.csv").exists()

    def test_needs_k0_or_candidates(self, tmp_path):
        sim = tmp_path / "sim"
        run("simulate", "--shape", "4,4", "--T", "60", "--K", "1",
            "--burn-in", "20", "--output-dir", sim)
        assert run("select", "--input", sim / "series.gts",
                   "--output-dir", tmp_path / "sel") == 2

    def test_candidates_wrong_everywhere_exit_2(self, tmp_path, capsys):
        series = GridSeries((6, 7), np.random.default_rng(3).normal(size=(60, 42)))
        write_gts(series, tmp_path / "series.gts")
        out = tmp_path / "sel"
        code = run("select", "--input", tmp_path / "series.gts",
                   "--candidates", "1,1;2,2", "--output-dir", out)
        assert code == 2
        assert capsys.readouterr().err == (
            "error: first candidate must be the bare center, got (1, 1)\n")
        assert not (out / "selection.json").exists()

    def test_candidates_not_integers_exit_2(self, tmp_path, capsys):
        series = GridSeries((6, 7), np.random.default_rng(3).normal(size=(60, 42)))
        write_gts(series, tmp_path / "series.gts")
        out = tmp_path / "sel"
        code = run("select", "--input", tmp_path / "series.gts",
                   "--candidates", "0,0;1,x", "--output-dir", out)
        assert code == 2
        assert capsys.readouterr().err == "error: cannot parse integer list '1,x'\n"
        assert not (out / "selection.json").exists()

    def test_k0_with_candidates_exit_2(self, tmp_path):
        series = GridSeries((6, 7), np.random.default_rng(3).normal(size=(60, 42)))
        write_gts(series, tmp_path / "series.gts")
        out = tmp_path / "sel"
        code = run("select", "--input", tmp_path / "series.gts", "--K0", "1",
                   "--candidates", "0,0;1,1", "--output-dir", out)
        assert code == 2
        assert not out.exists()

    def test_candidates_that_fail_to_nest_at_some_sites_exit_4(self, tmp_path):
        # on 3 rows, radius (1, 1) nests (2, 0) only at the middle row
        series = GridSeries((3, 6), np.random.default_rng(5).normal(size=(40, 18)))
        write_gts(series, tmp_path / "series.gts")
        out = tmp_path / "sel"
        code = run("select", "--input", tmp_path / "series.gts",
                   "--candidates", "0,0;2,0;1,1", "--output-dir", out)
        assert code == 4
        report = json.loads((out / "selection.json").read_text())
        assert sorted(e["center"] for e in report["sites"]) == [[1, j] for j in range(6)]
        assert len(report["errors"]) == 12
        assert all("does not nest" in msg for msg in report["errors"].values())


class TestSpliar:
    def test_artifacts(self, tmp_path):
        sim = tmp_path / "sim"
        run("simulate", "--shape", "6,6", "--T", "300", "--K", "1",
            "--seed", "9", "--burn-in", "80", "--output-dir", sim)
        out = tmp_path / "sp"
        code = run("spliar", "--input", sim / "series.gts", "--K", "1",
                   "--R", "1", "--output-dir", out)
        assert code == 0
        assert (out / "kernels.json").exists()
        assert (out / "fit_report.json").exists()
        block = read_gts(out / "block_lag1.gts")
        assert block.shape == (6 * 3, 6 * 3)

    def test_missing_rank_is_config_error(self, tmp_path):
        sim = tmp_path / "sim"
        run("simulate", "--shape", "4,4", "--T", "80", "--K", "1",
            "--burn-in", "20", "--output-dir", sim)
        assert run("spliar", "--input", sim / "series.gts", "--K", "1",
                   "--output-dir", tmp_path / "sp") == 2


class TestForecast:
    def test_zero_kernels_forecast_zero(self, tmp_path):
        gen = np.random.default_rng(17)
        series = GridSeries((4, 4), gen.normal(size=(30, 16)))
        write_gts(series, tmp_path / "series.gts")
        kernels = random_stable_kernels((4, 4), 1, target_norm=0.5, seed=0)
        zero = KernelField(
            (4, 4), 1, kernels.neighborhoods,
            [np.zeros_like(c) for c in kernels.coeffs],
        )
        zero.save_json(tmp_path / "kernels.json")
        out = tmp_path / "fc"
        code = run("forecast", "--input", tmp_path / "series.gts",
                   "--kernels", tmp_path / "kernels.json",
                   "--horizon", "3", "--output-dir", out)
        assert code == 0
        fc = read_gts(out / "forecast.gts")
        assert fc.n_frames == 3
        assert_array_equal(fc.values, np.zeros((3, 16)))
        report = json.loads((out / "forecast_report.json").read_text())
        assert report["rmse"] is None

    def test_truth_file_scores_rmse(self, tmp_path):
        kernels = random_stable_kernels((5, 5), 1, target_norm=0.7, seed=21)
        full = simulate_liar(kernels, 110, NoiseSpec(sigma=1.0, seed=22))
        write_gts(full.slice_time(0, 100), tmp_path / "train.gts")
        write_gts(full.slice_time(100, 110), tmp_path / "truth.gts")
        kernels.save_json(tmp_path / "kernels.json")
        out = tmp_path / "fc"
        code = run("forecast", "--input", tmp_path / "train.gts",
                   "--kernels", tmp_path / "kernels.json",
                   "--horizon", "10", "--truth", tmp_path / "truth.gts",
                   "--output-dir", out)
        assert code == 0
        report = json.loads((out / "forecast_report.json").read_text())
        assert report["rmse"] > 0
        assert len(report["per_frame_rmse"]) == 10

    def test_truth_on_another_grid_exit_2(self, tmp_path, capsys):
        # 5 frames of 3x8 hold as many values as 5 of 4x6
        gen = np.random.default_rng(23)
        write_gts(GridSeries((4, 6), gen.normal(size=(30, 24))), tmp_path / "s.gts")
        write_gts(GridSeries((3, 8), gen.normal(size=(5, 24))), tmp_path / "truth.gts")
        random_stable_kernels((4, 6), 1, target_norm=0.5, seed=24).save_json(
            tmp_path / "kernels.json")
        code = run("forecast", "--input", tmp_path / "s.gts",
                   "--kernels", tmp_path / "kernels.json", "--horizon", "5",
                   "--truth", tmp_path / "truth.gts", "--output-dir", tmp_path / "fc")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: truth grid (3, 8) does not match series grid (4, 6)\n")

    def test_missing_kernels_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("forecast", "--input", "x.gts", "--horizon", "3",
                "--output-dir", tmp_path / "fc")
        assert exc.value.code == 2


class TestEval:
    def test_metrics_csv_and_split(self, tmp_path):
        kernels = random_stable_kernels((20, 20), 2, target_norm=0.8, seed=600)
        series = simulate_liar(kernels, 200, NoiseSpec(sigma=1.0, seed=700))
        write_gts(series, tmp_path / "series.gts")
        out = tmp_path / "eval"
        code = run("eval", "--input", tmp_path / "series.gts",
                   "--methods", "liar,liar_p,mar", "--K", "2",
                   "--train-fraction", "0.9", "--seed", "0",
                   "--output-dir", out)
        assert code == 0
        header, rows = read_metrics(out / "metrics.csv")
        assert header == ["method", "seed", "T", "K", "rmse", "fit_seconds"]
        assert [r[0] for r in rows] == ["liar", "liar_p", "mar"]
        assert all(r[2] == "200" for r in rows)
        scores = {r[0]: float(r[4]) for r in rows}
        assert scores["liar"] < scores["liar_p"]
        # replicating liar_p by hand pins the 180/20 time-prefix split
        pix = baseline_pixel_ar(series.slice_time(0, 180))
        assert_allclose(scores["liar_p"], holdout_rmse(series, pix, 20),
                        rtol=1e-10)

    @pytest.mark.parametrize("order,code", [(2, 4), (3, 2)])
    def test_pixel_baseline_shortage_exits_like_liar(self, tmp_path, order, code):
        # a 3-frame training prefix: P < T < 2P is underdetermined, T <= P
        # a configuration error, under --methods liar_p as under liar --K 0
        gen = np.random.default_rng(25)
        write_gts(GridSeries((2, 2), gen.normal(size=(4, 4))), tmp_path / "s.gts")
        codes = [run("eval", "--input", tmp_path / "s.gts", "--P", str(order),
                     *method, "--output-dir", tmp_path / method[1])
                 for method in (("--methods", "liar_p"),
                                ("--methods", "liar", "--K", "0"))]
        assert codes == [code, code]

    def test_bad_train_fraction(self, tmp_path):
        gen = np.random.default_rng(23)
        write_gts(GridSeries((3, 3), gen.normal(size=(40, 9))),
                  tmp_path / "s.gts")
        assert run("eval", "--input", tmp_path / "s.gts", "--K", "1",
                   "--train-fraction", "1.5",
                   "--output-dir", tmp_path / "e") == 2

    @pytest.mark.parametrize("argv", [
        ["--methods", "liar,mar,bogus", "--K", "2"],
        ["--methods", "mar,liar"],
        ["--methods", "liar,spliar", "--K", "1"],
        ["--methods", "mar", "--train-fraction", "1.5"],
    ], ids=" ".join)
    def test_flags_refused_before_any_work(self, tmp_path, monkeypatch, argv):
        calls = []
        for name in ("fit_all", "baseline_mar_als"):
            real = getattr(liargrid.cli, name)
            monkeypatch.setattr(liargrid.cli, name, lambda *a, name=name, real=real, **k:
                                calls.append(name) or real(*a, **k))
        gen = np.random.default_rng(24)
        write_gts(GridSeries((3, 3), gen.normal(size=(40, 9))), tmp_path / "s.gts")
        assert run("eval", "--input", tmp_path / "s.gts", *argv,
                   "--output-dir", tmp_path / "e") == 2
        assert calls == []
        assert not (tmp_path / "e").exists()

    def test_unknown_method(self, tmp_path):
        gen = np.random.default_rng(24)
        write_gts(GridSeries((3, 3), gen.normal(size=(40, 9))),
                  tmp_path / "s.gts")
        assert run("eval", "--input", tmp_path / "s.gts", "--K", "1",
                   "--methods", "bogus",
                   "--output-dir", tmp_path / "e") == 2


class TestBench:
    def test_doubling_grid_side_time_ratio(self, tmp_path):
        # doubling each axis quadruples the sites; the fit should cost
        # about 4x.  Grids below 32x32 straddle the L2 boundary and the
        # per-site cost shifts, so the doubling starts at 32x32; the min
        # over three runs strips scheduler noise from the wall times.
        best = {}
        for rep in range(3):
            out = tmp_path / f"bench{rep}"
            code = run("bench", "--shape", "32x32,64x64", "--T", "1500",
                       "--K", "1", "--seed", "11", "--burn-in", "50",
                       "--threads", "1", "--output-dir", out)
            assert code == 0
            header, rows = read_metrics(out / "bench.csv")
            assert header == ["shape", "sites", "T", "K", "fit_seconds"]
            assert [r[0] for r in rows] == ["32x32", "64x64"]
            assert [int(r[1]) for r in rows] == [1024, 4096]
            for r in rows:
                prev = best.get(r[0], float("inf"))
                best[r[0]] = min(prev, float(r[4]))
        assert best["64x64"] / best["32x32"] <= 4.8

    def test_simulates_once_per_shape(self, tmp_path, monkeypatch):
        # every frame count fits a prefix of the shape's one simulation
        lengths = []

        def spy(kernels, n_frames, *args, **kwargs):
            lengths.append(n_frames)
            return simulate_liar(kernels, n_frames, *args, **kwargs)

        monkeypatch.setattr("liargrid.cli.simulate_liar", spy)
        out = tmp_path / "bench"
        assert run("bench", "--shape", "4x4,5x3", "--T", "60,120", "--K", "1",
                   "--burn-in", "20", "--threads", "1", "--output-dir", out) == 0
        assert lengths == [120, 120]
        _, rows = read_metrics(out / "bench.csv")
        assert [(r[0], r[2]) for r in rows] == [
            ("4x4", "60"), ("4x4", "120"), ("5x3", "60"), ("5x3", "120")]

    def test_frame_count_below_one_exit_2(self, tmp_path):
        assert run("bench", "--shape", "4x4", "--T", "60,0", "--K", "1",
                   "--output-dir", tmp_path / "bench") == 2
        assert not (tmp_path / "bench").exists()


class TestExitCodes:
    def test_corrupt_gts_exit_3_with_offset(self, tmp_path, capsys):
        bad = tmp_path / "bad.gts"
        bad.write_bytes(b"NOPE" + b"\x00" * 40)
        code = run("fit", "--input", bad, "--K", "1",
                   "--output-dir", tmp_path / "out")
        assert code == 3
        assert "byte offset 0" in capsys.readouterr().err

    def test_missing_input_file_exit_5(self, tmp_path, capsys):
        code = run("fit", "--input", tmp_path / "absent.gts", "--K", "1",
                   "--output-dir", tmp_path / "out")
        assert code == 5
        assert "i/o error" in capsys.readouterr().err

    def test_invalid_shape_exit_2(self, tmp_path):
        assert run("simulate", "--shape", "0,5", "--T", "20", "--K", "1",
                   "--output-dir", tmp_path / "out") == 2

    @pytest.mark.parametrize("argv", [
        ["bench", "--shape", "4x4", "--T", "1500,,3000", "--K", "1"],
        ["bench", "--shape", "4x4,", "--T", "60", "--K", "1"],
        ["select", "--candidates", "0,0;1,,1"],
        ["select", "--candidates", "0,0;;1,1"],
        ["eval", "--methods", "liar,,mar", "--K", "1"],
        ["simulate", "--shape", "4,,4", "--T", "30", "--K", "1"],
    ], ids=" ".join)
    def test_blank_list_entry_exit_2(self, tmp_path, capsys, argv):
        write_gts(GridSeries((4, 4), np.random.default_rng(26).normal(size=(40, 16))),
                  tmp_path / "s.gts")
        if argv[0] in ("select", "eval"):
            argv = [*argv, "--input", tmp_path / "s.gts"]
        assert run(*argv, "--output-dir", tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith("error: cannot parse ")
        assert not (tmp_path / "out").exists()

    def test_liar_threads_not_an_integer_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LIAR_THREADS", "abc")
        write_gts(GridSeries((4, 4), np.random.default_rng(27).normal(size=(40, 16))),
                  tmp_path / "s.gts")
        assert run("fit", "--input", tmp_path / "s.gts", "--K", "1",
                   "--output-dir", tmp_path / "out") == 2
        assert capsys.readouterr().err == (
            "error: LIAR_THREADS must be a positive integer, got 'abc'\n")
        assert not (tmp_path / "out").exists()

    def test_csv_without_shape_exit_2(self, tmp_path):
        (tmp_path / "frames.csv").write_text("1.0,2.0\n3.0,4.0\n")
        assert run("fit", "--input", tmp_path / "frames.csv", "--K", "1",
                   "--output-dir", tmp_path / "out") == 2

    @pytest.mark.parametrize("argv", [
        ["simulate", "--threads", "2"],
        ["fit", "--seed", "1"],
        ["select", "--R", "1"],
        ["spliar", "--K0", "2"],
        ["forecast", "--P", "2", "--kernels", "k.json", "--horizon", "3"],
        ["eval", "--sigma", "2"],
        ["bench", "--input", "x.gts"],
    ], ids=lambda argv: argv[0])
    def test_unread_flag_is_usage_error(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--output-dir", tmp_path / "out")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[1]} " in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["fit", "--K", "1", "--P", "0"],
        ["select", "--K0", "1", "--P", "0"],
        ["select", "--K0", "1", "--P", "-1"],
        ["eval", "--K", "1", "--P", "0"],
    ], ids=["fit-P0", "select-P0", "select-P-1", "eval-P0"])
    def test_bad_lag_order_exit_2(self, tmp_path, capsys, argv):
        series = GridSeries((6, 7), np.random.default_rng(61).normal(size=(60, 42)))
        write_gts(series, tmp_path / "series.gts")
        code = run(argv[0], "--input", tmp_path / "series.gts", *argv[1:],
                   "--output-dir", tmp_path / "out")
        assert code == 2
        assert capsys.readouterr().err == "error: lag order must be at least 1\n"

    def test_underdetermined_sites_exit_4_in_every_command(self, tmp_path, capsys):
        # K=3 on 6x6 leaves 12 sites with 30 unknowns: T=30 gives 29 rows,
        # the 27-frame training prefix of eval 26
        series = GridSeries((6, 6), np.random.default_rng(62).normal(size=(30, 36)))
        write_gts(series, tmp_path / "series.gts")
        common = ["--input", tmp_path / "series.gts", "--K", "3", "--R", "1"]

        def err(*argv):
            assert run(*argv, *common, "--output-dir", tmp_path / "out") == 4
            return capsys.readouterr().err

        first = "12 of 36 sites failed; first: site (2, 1): "
        assert err("spliar") == f"error: {first}29 usable rows < 30 unknowns " \
                                "(T=30, P=1, |J|=30)\n"
        liar = err("eval", "--methods", "liar")
        assert liar == f"error: {first}26 usable rows < 30 unknowns (T=27, P=1, |J|=30)\n"
        assert err("eval", "--methods", "spliar") == liar

    @pytest.mark.parametrize("edit", ["truncated", "no_order", "off_grid"])
    def test_malformed_kernel_file_exit_2(self, tmp_path, capsys, edit):
        series = GridSeries((4, 4), np.random.default_rng(63).normal(size=(30, 16)))
        write_gts(series, tmp_path / "series.gts")
        data = random_stable_kernels((4, 4), 1, target_norm=0.5, seed=0).to_dict()
        text = json.dumps(data)
        if edit == "truncated":
            text = text[: len(text) // 2]
        elif edit == "no_order":
            del data["P"]
            text = json.dumps(data)
        else:
            data["sites"][-1]["center"] = [9, 9]
            text = json.dumps(data)
        path = tmp_path / "kernels.json"
        path.write_text(text)
        code = run("forecast", "--input", tmp_path / "series.gts", "--kernels", path,
                   "--horizon", "3", "--output-dir", tmp_path / "fc")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed kernel file {path}: ")
        assert "Traceback" not in err


class TestCsvIngestion:
    def test_csv_and_gts_inputs_fit_identically(self, tmp_path):
        kernels = random_stable_kernels((5, 5), 1, target_norm=0.7, seed=31)
        series = simulate_liar(kernels, 80, NoiseSpec(sigma=1.0, seed=32))
        write_gts(series, tmp_path / "series.gts")
        stacked = np.vstack([series.frame(t) for t in range(80)])
        np.savetxt(tmp_path / "series.csv", stacked, fmt="%.17g",
                   delimiter=",")
        out_g, out_c = tmp_path / "g", tmp_path / "c"
        assert run("fit", "--input", tmp_path / "series.gts", "--K", "1",
                   "--output-dir", out_g) == 0
        assert run("fit", "--input", tmp_path / "series.csv", "--shape",
                   "5,5", "--K", "1", "--output-dir", out_c) == 0
        kg = KernelField.load_json(out_g / "kernels.json")
        kc = KernelField.load_json(out_c / "kernels.json")
        for a, b in zip(kg.coeffs, kc.coeffs):
            assert_array_equal(a, b)


def test_module_entry_point_reports_version(monkeypatch):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", src + os.pathsep + path if path else src)
    proc = subprocess.run([sys.executable, "-m", "liargrid", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def test_installed_script_reports_version(liar_command):
    proc = subprocess.run([*liar_command, "--version"], capture_output=True,
                          text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


# a child's ru_maxrss starts from the resident set of the process that
# forked it, so the commands are started from a bare interpreter
_LAUNCHER = ("import os, subprocess, sys; "
             "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
             "_, status, usage = os.wait4(proc.pid, 0); "
             "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")


def _peak_rss_mib(argv):
    """Run ``argv`` to completion; its exit code and peak RSS in MiB."""
    out = subprocess.run([sys.executable, "-c", _LAUNCHER, *map(str, argv)],
                         capture_output=True, text=True, check=True).stdout.split()
    return int(out[0]), int(out[1]) / 1024  # ru_maxrss is in KiB on Linux


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_simulate_and_forecast_hold_the_series_once(tmp_path, liar_command):
    # 60x90 sites, 960 frames: a 39.6 MiB series.  Each command may hold
    # it once plus half again (noise blocks, kernels, the forecast); a
    # second copy of the series would break the bound
    payload = 60 * 90 * 960 * 8 / 2**20
    code, baseline = _peak_rss_mib([sys.executable, "-c", "import liargrid.cli"])
    assert code == 0
    sim, fc = tmp_path / "sim", tmp_path / "fc"
    peaks = {}
    for name, args in (
        ("simulate", ["--shape", "60x90", "--T", "960", "--K", "2", "--seed", "1",
                      "--output-dir", sim]),
        ("forecast", ["--input", sim / "series.gts", "--kernels", sim / "kernels.json",
                      "--horizon", "100", "--output-dir", fc]),
    ):
        code, peaks[name] = _peak_rss_mib([*liar_command, name, *args])
        assert code == 0
    bound = baseline + 1.5 * payload
    assert max(peaks.values()) <= bound, (
        f"peak RSS {peaks} MiB against {bound:.1f} MiB "
        f"(import only {baseline:.1f} MiB, series {payload:.1f} MiB)")
