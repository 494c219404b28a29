"""The benchmark's workloads.

Each workload
- generates its inputs from a seed with ``random_stable_kernels`` and
  ``simulate_liar`` and keeps the truth kernels for its checks
  (``prepare``; cached per seed, never timed);
- names the `liar` commands of one operation (``commands``);
- checks the artifacts one operation wrote (``check``);
- replays the operation in-process through the same public calls the CLI
  makes, each inside a tracer span, then measures single layers on the
  same data (``trace``).

Span names are metric names without their ``_s`` suffix: the run sums
the spans of each name into that metric.
"""

import csv
import hashlib
import json
import math
import os
import shutil
import struct
import time

import numpy as np
import scipy.sparse as sp

from liargrid import (
    BlockKernelMatrix,
    KernelField,
    NoiseSpec,
    assemble_block,
    assemble_design,
    baseline_mar_als,
    baseline_pixel_ar,
    box_neighborhood,
    default_d0,
    fit_all,
    fit_site,
    fit_spliar,
    forecast,
    holdout_rmse,
    linear_to_site,
    mar_holdout_rmse,
    nested_family,
    operator_norm,
    random_stable_kernels,
    read_gts,
    scatter_block,
    select_all,
    select_site,
    simulate_liar,
    standard_errors,
    truncated_svd,
    write_gts,
)
from liargrid import rng
from liargrid.fit import resolve_workers

SAMPLE_SITES = 256  # per-site layer loops visit every (n // 256)-th site
MAX_ABS_Z = 8.0      # largest |fitted - true| / se allowed for any coefficient
KERNEL_ERR_OVER_SE = (0.85, 1.15)  # kernel_err / its standard-error prediction
MIN_SELECT_SUCCESS = 0.90          # interior sites choosing the true radius
HOLDOUT_OVER_ORACLE = (0.99, 1.05)  # liar holdout RMSE / truth-kernel RMSE
FORECAST_RTOL = 1e-9


# ---------------------------------------------------------------- helpers

def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def gts_bytes(shape, values):
    """A series encoded as the README specifies the GTS format."""
    header = struct.pack(f"<4sB{len(shape)}II", b"GTS1", len(shape), *shape,
                         values.shape[0])
    return header + values.astype("<f8", copy=False).tobytes()


def read_gts_raw(path):
    """(shape, values) of a GTS file, parsed here independently of the library."""
    with open(path, "rb") as fh:
        head = fh.read(5)
        if head[:4] != b"GTS1":
            raise ValueError(f"{path}: bad magic")
        d = head[4]
        dims = struct.unpack(f"<{d}II", fh.read(4 * d + 4))
        shape, n_frames = tuple(dims[:-1]), dims[-1]
        values = np.fromfile(fh, dtype="<f8")
    n_sites = math.prod(shape)
    if values.size != n_frames * n_sites:
        raise ValueError(f"{path}: payload size does not match the header")
    return shape, values.reshape(n_frames, n_sites)


def kernel_arrays(kernels):
    """Lag-1 kernel field as CSR arrays: row i holds site i's coefficients
    on the linear indices of its neighborhood."""
    sizes = [nb.size for nb in kernels.neighborhoods]
    return {
        "indptr": np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64),
        "indices": np.concatenate([nb.linear for nb in kernels.neighborhoods]).astype(np.int64),
        "data": np.concatenate([c[0] for c in kernels.coeffs]),
    }


def kernel_matrix(arrays, n_sites):
    return sp.csr_matrix((arrays["data"], arrays["indices"], arrays["indptr"]),
                         shape=(n_sites, n_sites))


def site_entries(entries, shape, nb_key, fields):
    """Flatten per-site JSON entries (canonical order checked) into CSR
    arrays, plus each of ``fields`` flattened the same way."""
    m = shape[0]
    centers = np.array([e["center"] for e in entries], dtype=np.int64).reshape(-1, 2)
    if not np.array_equal(centers[:, 0] + m * centers[:, 1], np.arange(len(entries))):
        raise ValueError("sites are not in canonical order")
    nbs = [np.asarray(e[nb_key], dtype=np.int64).reshape(-1, 2) for e in entries]
    out = {
        "indptr": np.concatenate([[0], np.cumsum([a.shape[0] for a in nbs])]),
        "indices": np.concatenate([a[:, 0] + m * a[:, 1] for a in nbs]),
    }
    for field in fields:
        parts = []
        for e, a in zip(entries, nbs):
            v = e[field]
            parts.append(np.full(a.shape[0], np.nan) if v is None
                         else np.asarray(v, dtype=np.float64).ravel())
        out[field] = np.concatenate(parts)
    return out


def same_structure(a, b):
    return (np.array_equal(a["indptr"], b["indptr"])
            and np.array_equal(a["indices"], b["indices"]))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_fit_reports(a, b):
    """Coefficients, RSS, flags and standard errors bitwise equal."""
    if a.fits.keys() != b.fits.keys() or a.errors != b.errors:
        return False
    for key, fa in a.fits.items():
        fb = b.fits[key]
        if not (same_bits(fa.coeffs, fb.coeffs) and same_bits(fa.rss, fb.rss)
                and fa.cond_flag == fb.cond_flag
                and (fa.se is None) == (fb.se is None)
                and (fa.se is None or same_bits(fa.se, fb.se))):
            return False
    return True


def same_selections(a, b):
    """Chosen levels and every level's RSS bitwise equal."""
    if a.traces.keys() != b.traces.keys() or a.errors != b.errors:
        return False
    return all(
        ta.chosen_k == b.traces[k].chosen_k and same_bits(ta.rss, b.traces[k].rss)
        for k, ta in a.traces.items()
    )


def box_field(shape, radius):
    """The n ``box_neighborhood`` calls the CLI makes."""
    return [box_neighborhood(linear_to_site(i, shape), shape, radius)
            for i in range(math.prod(shape))]


def config_inputs_match(out, paths):
    """The config.json input hashes equal the files' own SHA-256."""
    with open(os.path.join(out, "config.json")) as fh:
        recorded = json.load(fh)["inputs"]
    return sorted(recorded.values()) == sorted(sha256_file(p) for p in paths)


def hash_inputs(tracer, out, paths):
    """What the CLI's config writer does with every input file; the
    config.json written here holds only the input hashes."""
    with tracer.span("cli.config_sha256"):
        inputs = {p: sha256_file(p) for p in paths}
    with open(os.path.join(out, "config.json"), "w") as fh:
        json.dump({"inputs": inputs}, fh)


def sample_fit_layers(series, radius, m):
    """Gather, QR solve and standard errors on a fixed stride sample of
    sites, serially.  Bytes and flops are computed from design shapes:
    gather moves rows*(cols+1) f64; the economic pivoted QR with explicit
    Q costs 4*rows*cols^2 - 4*cols^3/3 flops."""
    shape, n = series.shape, series.n_sites
    gather = qr = se = 0.0
    nbytes = flops = 0.0
    count = 0
    for i in range(0, n, max(1, n // SAMPLE_SITES)):
        site = linear_to_site(i, shape)
        nb = box_neighborhood(site, shape, radius)
        t0 = time.perf_counter()
        design = assemble_design(series, site, nb, 1)
        t1 = time.perf_counter()
        fit = fit_site(design)
        t2 = time.perf_counter()
        if not fit.cond_flag:
            standard_errors(fit, design)
        t3 = time.perf_counter()
        gather += t1 - t0
        qr += t2 - t1
        se += t3 - t2
        rows, cols = design.y.shape
        nbytes += 8.0 * rows * (cols + 1)
        flops += 4.0 * rows * cols * cols - 4.0 * cols ** 3 / 3.0
        count += 1
    m["fit.gather_us_per_site"] = 1e6 * gather / count
    m["fit.gather_gb_per_s"] = nbytes / gather / 1e9
    m["fit.qr_us_per_site"] = 1e6 * qr / count
    m["fit.qr_gflop_per_s"] = flops / qr / 1e9
    m["fit.se_us_per_site"] = 1e6 * se / count


def fit_counts(report, m):
    m["fit.cond_flag_sites"] = sum(1 for f in report if f.cond_flag)
    m["fit.failed_sites"] = len(report.errors)


def serial_fit_baseline(tracer, series, nbs, report, compute_se, m):
    """1-worker refit of the same sites; bitwise equality with the
    default-worker ``report`` is required."""
    with tracer.span("fit.fit_all_1w"):
        serial = fit_all(series, nbs, order=1, n_workers=1, compute_se=compute_se)
    m["fit.parallel_speedup"] = tracer.total("fit.fit_all_1w") / tracer.total("fit.fit_all")
    if not same_fit_reports(serial, report):
        return ["fit_all at 1 worker differs from the default worker count"]
    return []


def read_peak_rss(spawner, path, m):
    """Peak RSS of a fresh interpreter that only reads the GTS file."""
    res = spawner.python(
        ["-c", "import sys; from liargrid import read_gts; read_gts(sys.argv[1])", path],
        timeout=60)
    m["grid.read_gts_peak_rss_mb"] = res.rss_mb


class Workload:
    name = ""
    why = ""
    params = {}

    def __init__(self, **overrides):
        self.p = dict(self.params, **overrides)

    @property
    def shape(self):
        return tuple(self.p["shape"])

    @property
    def n_sites(self):
        return math.prod(self.shape)

    def payload_bytes(self):
        return 8 * self.n_sites * self.p["T"]

    # -- inputs ---------------------------------------------------------
    def prepare(self, seed, cache_root):
        """Inputs for ``seed``, generated once and cached on disk."""
        sizes = hashlib.sha1(repr(sorted(self.p.items())).encode()).hexdigest()[:10]
        d = os.path.join(cache_root, self.name, f"seed{seed}-{sizes}")
        done = os.path.join(d, "done")
        if not os.path.exists(done):
            shutil.rmtree(d, ignore_errors=True)
            tmp = d + f".tmp{os.getpid()}"
            shutil.rmtree(tmp, ignore_errors=True)
            os.makedirs(tmp)
            self.generate(seed, tmp)
            open(os.path.join(tmp, "done"), "w").close()
            os.replace(tmp, d)
            _evict(os.path.join(cache_root, self.name), keep=d)
        meta = {"dir": d, "seed": seed}
        with np.load(os.path.join(d, "truth.npz")) as z:
            meta["truth"] = {k: z[k] for k in z.files}
        meta_path = os.path.join(d, "meta.json")
        if os.path.exists(meta_path):
            with open(meta_path) as fh:
                meta.update(json.load(fh))
        return meta

    def truth_kernels(self, seed):
        return random_stable_kernels(self.shape, self.p["K"], order=1,
                                     target_norm=0.8, seed=seed)

    def generate(self, seed, d):
        """Default: a truth field and its simulated series, as GTS."""
        kernels = self.truth_kernels(seed)
        series = simulate_liar(kernels, self.p["T"], NoiseSpec(sigma=1.0, seed=seed))
        write_gts(series, os.path.join(d, "series.gts"))
        np.savez(os.path.join(d, "truth.npz"), **kernel_arrays(kernels))

    def input_path(self, inputs):
        return os.path.join(inputs["dir"], "series.gts")

    # -- one operation ----------------------------------------------------
    def commands(self, inputs, out):
        raise NotImplementedError

    def check(self, inputs, out):
        """(problems, quality figures) of one operation's artifacts."""
        raise NotImplementedError

    def digests(self, out):
        """SHA-256 of each deterministic artifact of one operation."""
        return {f: sha256_file(os.path.join(out, f)) for f in self.artifacts}

    def trace(self, tracer, spawner, inputs, out, m):
        """Traced replay plus layer sampling; returns problems."""
        raise NotImplementedError


def _evict(parent, keep, limit=2):
    """Keep the ``limit`` most recently generated seeds of one workload."""
    entries = [os.path.join(parent, e) for e in os.listdir(parent)]
    entries = [e for e in entries if e != keep and os.path.isdir(e)]
    entries.sort(key=os.path.getmtime, reverse=True)
    for stale in entries[limit - 1:]:
        shutil.rmtree(stale, ignore_errors=True)


# ---------------------------------------------------------------- fit_paper

class FitPaper(Workload):
    name = "fit_paper"
    why = ("closed loop, 1 client: liar fit --K 2 on the paper's 91x181, T=960 grid "
           "(126 MB, ~4x L3); QR, standard errors, JSON artifacts and GTS read dominate")
    params = {"shape": (91, 181), "T": 960, "K": 2}
    artifacts = ("fit_report.json", "kernels.json")

    def commands(self, inputs, out):
        return [["fit", "--input", self.input_path(inputs), "--K", str(self.p["K"]),
                 "--output-dir", out]]

    def check(self, inputs, out):
        problems, quality = [], {}
        with open(os.path.join(out, "fit_report.json")) as fh:
            report = json.load(fh)
        with open(os.path.join(out, "kernels.json")) as fh:
            kernels = json.load(fh)
        if report["errors"]:
            problems.append(f"error manifest has {len(report['errors'])} sites")
        fr = site_entries(report["sites"], self.shape, "sites", ["coeffs", "se"])
        kj = site_entries(kernels["sites"], self.shape, "neighborhood", ["coeffs"])
        truth = inputs["truth"]
        if not (same_structure(fr, truth) and same_structure(kj, truth)):
            problems.append("fitted neighborhoods are not the truth's radius-K boxes")
            return problems, quality
        if not same_bits(kj["coeffs"], fr["coeffs"]):
            problems.append("kernels.json coefficients differ from fit_report.json")
        diff = kj["coeffs"] - truth["data"]
        starts = truth["indptr"][:-1]
        err = np.sqrt(np.add.reduceat(diff * diff, starts))
        se_pred = np.sqrt(np.add.reduceat(fr["se"] ** 2, starts))
        finite = np.isfinite(fr["se"])
        quality["kernel_err"] = float(np.mean(err))
        quality["kernel_err_over_se"] = quality["kernel_err"] / float(np.nanmean(se_pred))
        quality["max_abs_z"] = float(np.max(np.abs(diff[finite]) / fr["se"][finite]))
        lo, hi = KERNEL_ERR_OVER_SE
        if not lo <= quality["kernel_err_over_se"] <= hi:
            problems.append(f"kernel_err/se-predicted {quality['kernel_err_over_se']:.3f} "
                            f"outside [{lo}, {hi}]")
        if not quality["max_abs_z"] <= MAX_ABS_Z:
            problems.append(f"a coefficient is {quality['max_abs_z']:.1f} standard "
                            f"errors from the truth (limit {MAX_ABS_Z})")
        if not config_inputs_match(out, [self.input_path(inputs)]):
            problems.append("config.json input hash is wrong")
        return problems, quality

    def trace(self, tracer, spawner, inputs, out, m):
        path, k = self.input_path(inputs), self.p["K"]
        os.makedirs(out, exist_ok=True)
        with tracer.operation("op"):
            with tracer.span("grid.read_gts"):
                series = read_gts(path)
            with tracer.span("neighborhoods.box_field"):
                nbs = box_field(series.shape, k)
            with tracer.span("fit.fit_all"):
                report = fit_all(series, nbs, order=1, n_workers=resolve_workers())
            with tracer.span("cli.fit_report_json"):
                report.save_json(os.path.join(out, "fit_report.json"))
            with tracer.span("fit.kernels"):
                kernels = report.kernels()
            with tracer.span("simulate.kernels_save_json"):
                kernels.save_json(os.path.join(out, "kernels.json"))
            hash_inputs(tracer, out, [path])
        fit_counts(report, m)
        with tracer.operation("sample"):
            problems = serial_fit_baseline(tracer, series, nbs, report, True, m)
            del report
            sample_fit_layers(series, k, m)
            with tracer.span("simulate.kernels_load_json"):
                KernelField.load_json(os.path.join(out, "kernels.json"))
        read_peak_rss(spawner, path, m)
        return problems


# ---------------------------------------------------------------- select_pow2

class SelectPow2(Workload):
    name = "select_pow2"
    why = ("closed loop, 1 client: liar select --K0 3 --K 1 on a 32x32, T=1500 grid "
           "(12 MB, cache-resident); power-of-two row stride, BIC scan plus refit")
    params = {"shape": (32, 32), "T": 1500, "K": 1, "K0": 3}
    artifacts = ("selection.json", "selection_heatmap.csv", "summary.json")

    def commands(self, inputs, out):
        return [["select", "--input", self.input_path(inputs), "--K0", str(self.p["K0"]),
                 "--K", str(self.p["K"]), "--output-dir", out]]

    def interior(self):
        m, n = self.shape
        k = self.p["K"]
        i1, i2 = np.arange(m)[:, None], np.arange(n)[None, :]
        mask = (i1 >= k) & (i1 < m - k) & (i2 >= k) & (i2 < n - k)
        return mask.ravel(order="F")

    def check(self, inputs, out):
        problems, quality = [], {}
        with open(os.path.join(out, "selection.json")) as fh:
            sel = json.load(fh)
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        if sel["errors"]:
            problems.append(f"error manifest has {len(sel['errors'])} sites")
        m = self.shape[0]
        chosen = np.full(self.n_sites, -1)
        for e in sel["sites"]:
            chosen[e["center"][0] + m * e["center"][1]] = e["k"]
        with open(os.path.join(out, "selection_heatmap.csv")) as fh:
            rows = list(csv.DictReader(fh))
        heat = np.full(self.n_sites, -1)
        for r in rows:
            heat[int(r["site_row"]) - 1 + m * (int(r["site_col"]) - 1)] = int(r["chosen_k"])
        if not np.array_equal(heat, chosen):
            problems.append("selection_heatmap.csv disagrees with selection.json")
        inner = self.interior()
        quality["select_success"] = float(np.mean(chosen[inner] == self.p["K"]))
        if summary.get("interior") != quality["select_success"]:
            problems.append("summary.json interior success disagrees with selection.json")
        if not quality["select_success"] >= MIN_SELECT_SUCCESS:
            problems.append(f"interior select_success {quality['select_success']:.3f} "
                            f"< {MIN_SELECT_SUCCESS}")
        if not config_inputs_match(out, [self.input_path(inputs)]):
            problems.append("config.json input hash is wrong")
        return problems, quality

    def trace(self, tracer, spawner, inputs, out, m):
        path, k, k0 = self.input_path(inputs), self.p["K"], self.p["K0"]
        os.makedirs(out, exist_ok=True)
        with tracer.operation("op"):
            with tracer.span("grid.read_gts"):
                series = read_gts(path)
            d0 = default_d0(series.n_frames)
            with tracer.span("select.select_all"):
                report = select_all(series, max_radius=k0, order=1, d0=d0,
                                    n_workers=resolve_workers())
            with tracer.span("cli.selection_json"):
                report.save_json(os.path.join(out, "selection.json"))
            with tracer.span("cli.selection_heatmap_csv"):
                report.save_heatmap_csv(os.path.join(out, "selection_heatmap.csv"))
            with tracer.span("select.success_rates"):
                summary = {"D0": d0, **report.success_rates(k)}
            with open(os.path.join(out, "summary.json"), "w") as fh:
                json.dump(summary, fh, indent=2)
            hash_inputs(tracer, out, [path])
        m["select.saturated_sites"] = sum(1 for t in report if t.saturated)
        m["select.dropped_levels"] = sum(len(t.dropped) for t in report)
        m["fit.cond_flag_sites"] = sum(1 for t in report if t.fit.cond_flag)
        m["fit.failed_sites"] = len(report.errors)
        problems = []
        shape, n = series.shape, series.n_sites
        with tracer.operation("sample"):
            with tracer.span("neighborhoods.nested_family"):
                families = [nested_family(linear_to_site(i, shape), shape, max_radius=k0)
                            for i in range(n)]
            with tracer.span("select.select_all_scan"):
                scan = select_all(series, max_radius=k0, d0=d0, keep_fit=False)
            with tracer.span("select.select_all_scan_1w"):
                scan_1w = select_all(series, max_radius=k0, d0=d0, keep_fit=False,
                                     n_workers=1)
            if not (same_selections(scan, scan_1w) and same_selections(scan, report)):
                problems.append("select_all differs between 1 and default workers")
            del scan, scan_1w
            nbs = box_field(shape, k0)
            with tracer.span("fit.fit_all"):
                fitted = fit_all(series, nbs, order=1, n_workers=resolve_workers())
            problems += serial_fit_baseline(tracer, series, nbs, fitted, True, m)
            del fitted
            m["select.scan_over_fit"] = (tracer.total("select.select_all_scan_1w")
                                         / tracer.total("fit.fit_all_1w"))
            sample_fit_layers(series, k0, m)
            sample = range(0, n, max(1, n // SAMPLE_SITES))
            seconds = {}
            for keep_fit in (False, True):
                t0 = time.perf_counter()
                for i in sample:
                    select_site(series, families[i], order=1, d0=d0, keep_fit=keep_fit)
                seconds[keep_fit] = time.perf_counter() - t0
            m["select.scan_us_per_site"] = 1e6 * seconds[False] / len(sample)
            m["select.refit_us_per_site"] = 1e6 * (seconds[True] - seconds[False]) / len(sample)
        read_peak_rss(spawner, path, m)
        return problems


# ---------------------------------------------------------------- simulate_forecast

class SimulateForecast(Workload):
    name = "simulate_forecast"
    why = ("closed loop, 1 client: liar simulate 91x181, T=960, K=2 then liar forecast "
           "--horizon 100; RNG, CSR recursion, GTS/JSON write, kernel load; no pool, no gather")
    params = {"shape": (91, 181), "T": 960, "K": 2, "horizon": 100}
    artifacts = ("sim/series.gts", "sim/kernels.json", "fc/forecast.gts",
                 "fc/forecast_report.json")

    def generate(self, seed, d):
        """The expected CLI output, computed with the library."""
        kernels = self.truth_kernels(seed)
        series = simulate_liar(kernels, self.p["T"],
                               NoiseSpec(kind="iid_gaussian", sigma=1.0, seed=seed),
                               burn_in=500)
        digest = hashlib.sha256(gts_bytes(self.shape, series.values)).hexdigest()
        with open(os.path.join(d, "meta.json"), "w") as fh:
            json.dump({"series_sha256": digest}, fh)
        np.savez(os.path.join(d, "truth.npz"), **kernel_arrays(kernels))

    def commands(self, inputs, out):
        sim, fc = os.path.join(out, "sim"), os.path.join(out, "fc")
        shape = ",".join(map(str, self.shape))
        return [
            ["simulate", "--shape", shape, "--T", str(self.p["T"]), "--K", str(self.p["K"]),
             "--seed", str(inputs["seed"]), "--output-dir", sim],
            ["forecast", "--input", os.path.join(sim, "series.gts"),
             "--kernels", os.path.join(sim, "kernels.json"),
             "--horizon", str(self.p["horizon"]), "--output-dir", fc],
        ]

    def check(self, inputs, out):
        problems, quality = [], {}
        sim, fc = os.path.join(out, "sim"), os.path.join(out, "fc")
        series_path = os.path.join(sim, "series.gts")
        if sha256_file(series_path) != inputs["series_sha256"]:
            problems.append("series.gts differs from the library simulation for this seed")
        with open(os.path.join(sim, "kernels.json")) as fh:
            kj = site_entries(json.load(fh)["sites"], self.shape, "neighborhood", ["coeffs"])
        truth = inputs["truth"]
        if not (same_structure(kj, truth) and same_bits(kj["coeffs"], truth["data"])):
            problems.append("kernels.json differs from the truth kernels for this seed")
        _, values = read_gts_raw(series_path)
        shape, pred = read_gts_raw(os.path.join(fc, "forecast.gts"))
        op = kernel_matrix(truth, self.n_sites)
        x = values[-1]
        expect = np.empty((self.p["horizon"], self.n_sites))
        for h in range(self.p["horizon"]):
            x = op @ x
            expect[h] = x
        if shape != self.shape or pred.shape != expect.shape:
            problems.append("forecast.gts has the wrong shape")
        else:
            quality["forecast_max_rel_err"] = float(
                np.max(np.abs(pred - expect)) / max(1.0, float(np.max(np.abs(expect)))))
            if not quality["forecast_max_rel_err"] <= FORECAST_RTOL:
                problems.append(f"forecast deviates from the kernel recursion by "
                                f"{quality['forecast_max_rel_err']:.3g}")
        with open(os.path.join(fc, "forecast_report.json")) as fh:
            if json.load(fh).get("horizon") != self.p["horizon"]:
                problems.append("forecast_report.json has the wrong horizon")
        if not config_inputs_match(fc, [series_path, os.path.join(sim, "kernels.json")]):
            problems.append("forecast config.json input hashes are wrong")
        return problems, quality

    def trace(self, tracer, spawner, inputs, out, m):
        sim, fc = os.path.join(out, "sim"), os.path.join(out, "fc")
        os.makedirs(sim, exist_ok=True)
        os.makedirs(fc, exist_ok=True)
        seed, n = inputs["seed"], self.n_sites
        series_path = os.path.join(sim, "series.gts")
        kernels_path = os.path.join(sim, "kernels.json")
        with tracer.operation("op"):
            with tracer.span("simulate.random_kernels"):
                kernels = random_stable_kernels(self.shape, self.p["K"], order=1,
                                                target_norm=0.8, seed=seed)
            noise = NoiseSpec(kind="iid_gaussian", sigma=1.0, seed=seed)
            with tracer.span("simulate.simulate_liar"):
                series = simulate_liar(kernels, self.p["T"], noise, burn_in=500)
            with tracer.span("grid.write_gts"):
                write_gts(series, series_path)
            with tracer.span("simulate.kernels_save_json"):
                kernels.save_json(kernels_path)
            del series
            with tracer.span("grid.read_gts"):
                history = read_gts(series_path)
            with tracer.span("simulate.kernels_load_json"):
                loaded = KernelField.load_json(kernels_path)
            with tracer.span("evaluate.forecast"):
                result = forecast(history, loaded, self.p["horizon"])
            with tracer.span("grid.write_gts"):
                write_gts(result.series, os.path.join(fc, "forecast.gts"))
            with open(os.path.join(fc, "forecast_report.json"), "w") as fh:
                json.dump({"horizon": self.p["horizon"], "rmse": result.rmse}, fh, indent=2)
            hash_inputs(tracer, fc, [series_path, kernels_path])
        with tracer.operation("sample"):
            with tracer.span("simulate.operator_norm"):
                operator_norm(kernels)
            # the noise block simulate_liar draws: (burn-in + T) frames x sites,
            # in its 256-frame chunks
            keys = rng.derive_key(seed, [np.arange(n)])
            total = 500 + self.p["T"]
            with tracer.span("rng.frame_gaussians"):
                for start in range(0, total, 256):
                    rng.frame_gaussians(keys, np.arange(start, min(start + 256, total)))
            m["rng.gaussians_per_s"] = total * n / tracer.total("rng.frame_gaussians")
        read_peak_rss(spawner, series_path, m)
        return []


# ---------------------------------------------------------------- eval_methods

class EvalMethods(Workload):
    name = "eval_methods"
    why = ("closed loop, 1 client: liar eval --methods liar,liar_p,spliar,mar --K 2 --R 1 "
           "on 30x45, T=1500; the only separable and MAR-ALS (BLAS outside the pool) run")
    params = {"shape": (30, 45), "T": 1500, "K": 2, "R": 1}
    methods = ("liar", "liar_p", "spliar", "mar")
    train_fraction = 0.9

    def commands(self, inputs, out):
        return [["eval", "--input", self.input_path(inputs), "--methods", ",".join(self.methods),
                 "--K", str(self.p["K"]), "--R", str(self.p["R"]), "--output-dir", out]]

    def n_test(self):
        return self.p["T"] - int(self.p["T"] * self.train_fraction)

    def check(self, inputs, out):
        problems, quality = [], {}
        with open(os.path.join(out, "metrics.csv")) as fh:
            rows = list(csv.DictReader(fh))
        if [r["method"] for r in rows] != list(self.methods):
            problems.append(f"metrics.csv lists methods {[r['method'] for r in rows]}")
            return problems, quality
        scores = {r["method"]: float(r["rmse"]) for r in rows}
        if not all(math.isfinite(v) and v > 0 for v in scores.values()):
            problems.append(f"non-finite or zero RMSE in {scores}")
        _, values = read_gts_raw(self.input_path(inputs))
        op = kernel_matrix(inputs["truth"], self.n_sites)
        n_test = self.n_test()
        pred = values[-n_test - 1:-1] @ op.T
        oracle = float(np.sqrt(np.mean((pred - values[-n_test:]) ** 2)))
        quality["holdout_rmse"] = scores["liar"]
        quality["holdout_rmse_liar_p"] = scores["liar_p"]
        quality["holdout_over_oracle"] = scores["liar"] / oracle
        lo, hi = HOLDOUT_OVER_ORACLE
        if not lo <= quality["holdout_over_oracle"] <= hi:
            problems.append(f"liar holdout RMSE / truth-kernel RMSE "
                            f"{quality['holdout_over_oracle']:.4f} outside [{lo}, {hi}]")
        if not scores["liar"] < scores["liar_p"]:
            problems.append(f"liar ({scores['liar']:.5g}) does not beat liar_p "
                            f"({scores['liar_p']:.5g}) on holdout RMSE")
        if not config_inputs_match(out, [self.input_path(inputs)]):
            problems.append("config.json input hash is wrong")
        return problems, quality

    def digests(self, out):
        # fit_seconds is a timing, so only the scores are digested
        with open(os.path.join(out, "metrics.csv")) as fh:
            rows = [(r["method"], r["rmse"]) for r in csv.DictReader(fh)]
        return {"metrics.csv[method,rmse]": hashlib.sha256(repr(rows).encode()).hexdigest()}

    def trace(self, tracer, spawner, inputs, out, m):
        path, k, r = self.input_path(inputs), self.p["K"], self.p["R"]
        os.makedirs(out, exist_ok=True)
        workers = resolve_workers()
        rows = []
        with tracer.operation("op"):
            with tracer.span("grid.read_gts"):
                series = read_gts(path)
            n_train = int(series.n_frames * self.train_fraction)
            train = series.slice_time(0, n_train)
            n_test = series.n_frames - n_train
            with tracer.span("eval.liar"):
                with tracer.span("neighborhoods.box_field"):
                    nbs = box_field(train.shape, k)
                with tracer.span("fit.fit_all"):
                    report = fit_all(train, nbs, order=1, n_workers=workers, compute_se=False)
                with tracer.span("fit.kernels"):
                    kernels = report.kernels()
                with tracer.span("evaluate.holdout_rmse"):
                    rows.append(("liar", holdout_rmse(series, kernels, n_test)))
            with tracer.span("eval.liar_p"):
                with tracer.span("evaluate.pixel_ar"):
                    kernels_p = baseline_pixel_ar(train, order=1, n_workers=workers)
                with tracer.span("evaluate.holdout_rmse"):
                    rows.append(("liar_p", holdout_rmse(series, kernels_p, n_test)))
            with tracer.span("eval.spliar"):
                with tracer.span("separable.fit_spliar"):
                    spliar = fit_spliar(train, k, order=1, rank=r, n_workers=workers)
                with tracer.span("evaluate.holdout_rmse"):
                    rows.append(("spliar", holdout_rmse(series, spliar.kernels, n_test)))
            with tracer.span("eval.mar"):
                with tracer.span("evaluate.mar_als"):
                    mar = baseline_mar_als(train, order=1)
                with tracer.span("evaluate.holdout_rmse"):
                    rows.append(("mar", mar_holdout_rmse(series, mar, n_test)))
            with open(os.path.join(out, "metrics.csv"), "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["method", "seed", "T", "K", "rmse", "fit_seconds"])
                writer.writerows((name, 0, series.n_frames, k, score, 0.0)
                                 for name, score in rows)
            hash_inputs(tracer, out, [path])
        m["evaluate.mar_sweeps"] = mar.n_iter
        fit_counts(report, m)
        with tracer.operation("sample"):
            problems = serial_fit_baseline(tracer, train, nbs, report, False, m)
            with tracer.span("separable.assemble_block"):
                block = assemble_block(spliar.raw, (k, k), lag=1)
            with tracer.span("separable.truncated_svd"):
                projected = truncated_svd(block.data, r)
            block = BlockKernelMatrix(train.shape, (k, k), 1, projected)
            with tracer.span("separable.scatter_block"):
                scatter_block(block, nbs)
            sample_fit_layers(train, k, m)
        read_peak_rss(spawner, path, m)
        return problems


WORKLOADS = {w.name: w for w in (FitPaper, SelectPow2, SimulateForecast, EvalMethods)}
