"""Command line front end.

Subcommands: simulate, fit, select, spliar, forecast, eval, bench.
Every run writes its artifacts into one output directory together with
``config.json`` holding the resolved parameters, the package version,
and SHA-256 hashes of all input files, so a run can be reproduced
exactly.  Machine-readable JSON uses 0-based site coordinates; CSV and
console summaries use 1-based coordinates.

Exit codes: 0 success, 2 configuration/usage, 3 malformed input file,
4 numerical or stability failure (including a non-empty per-site error
manifest), 5 I/O failure.
"""

import argparse
import csv
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import (
    ConfigurationError,
    GtsFormatError,
    LiarError,
    NumericalError,
    SizeError,
    StabilityError,
    StructureError,
    UnderdeterminedError,
)
from .evaluate import (
    baseline_mar_als,
    baseline_pixel_ar,
    forecast,
    holdout_rmse,
    mar_holdout_rmse,
)
from .fit import fit_all, resolve_workers
from .grid import GridSeries, read_csv_frames, read_gts, write_gts
from .neighborhoods import box_field
from .select import default_d0, select_all
from .separable import fit_spliar
from .simulate import KernelField, NoiseSpec, random_stable_kernels, simulate_liar

_METHODS = ("liar", "liar_p", "spliar", "mar")


def _parse_shape(text):
    """One grid shape from 'M,N' or 'MxN' (any dimension count)."""
    sep = "x" if "x" in text else ","
    try:
        dims = tuple(int(tok) for tok in text.split(sep) if tok.strip())
    except ValueError:
        raise ConfigurationError(f"cannot parse shape {text!r}")
    if not dims or any(d < 1 for d in dims):
        raise ConfigurationError(f"invalid shape {text!r}")
    return dims


def _parse_shape_list(text):
    """Comma-separated list of MxN tokens (bench)."""
    return [_parse_shape(tok) for tok in text.split(",") if tok.strip()]


def _parse_int_list(text):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigurationError(f"cannot parse integer list {text!r}")


def _single_t(args):
    if args.T is None:
        return None
    values = _parse_int_list(args.T)
    if len(values) != 1:
        raise ConfigurationError("--T takes a single frame count here")
    return values[0]


def _parse_radii_list(text):
    """Semicolon-separated candidate radius tuples: '0,0,0;0,0,1;...'."""
    out = []
    for tok in text.split(";"):
        tok = tok.strip()
        if tok:
            out.append(tuple(int(c) for c in tok.split(",")))
    if not out:
        raise ConfigurationError(f"empty candidate list {text!r}")
    return out


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _load_series(args):
    path = args.input
    if path is None:
        raise ConfigurationError("--input is required for this subcommand")
    if path.endswith(".csv"):
        if args.shape is None:
            raise ConfigurationError("--shape M,N is required for CSV input")
        return read_csv_frames(path, _parse_shape(args.shape))
    return read_gts(path)


def _write_config(args, outdir, extra=None):
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    inputs = {}
    for key in ("input", "kernels", "truth"):
        path = resolved.get(key)
        if path:
            inputs[path] = _sha256(path)
    config = {
        "version": __version__,
        "command": args.command,
        "params": resolved,
        "inputs": inputs,
    }
    if extra:
        config.update(extra)
    with open(os.path.join(outdir, "config.json"), "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)


def _outdir(args):
    out = args.output_dir
    if out is None:
        raise ConfigurationError("--output-dir is required")
    os.makedirs(out, exist_ok=True)
    return out


def cmd_simulate(args):
    if args.shape is None:
        raise ConfigurationError("--shape is required")
    shape = _parse_shape(args.shape)
    n_frames = _single_t(args)
    if n_frames is None or n_frames < 1:
        raise ConfigurationError("--T must be a positive frame count")
    if args.K is None:
        raise ConfigurationError("--K (kernel box radius) is required")
    out = _outdir(args)
    kernels = random_stable_kernels(
        shape, args.K, order=args.P, target_norm=args.target_norm, seed=args.seed
    )
    noise = NoiseSpec(kind=args.noise, sigma=args.sigma, seed=args.seed)
    series = simulate_liar(kernels, n_frames, noise, burn_in=args.burn_in)
    write_gts(series, os.path.join(out, "series.gts"))
    kernels.save_json(os.path.join(out, "kernels.json"))
    _write_config(args, out)
    print(f"wrote {n_frames} frames on {shape} to {out}/series.gts")
    return 0


def cmd_fit(args):
    series = _load_series(args)
    if args.K is None:
        raise ConfigurationError("--K (box radius) is required")
    out = _outdir(args)
    workers = resolve_workers(args.threads)
    t0 = time.perf_counter()
    report = fit_all(series, box_field(series.shape, args.K), order=args.P,
                     n_workers=workers)
    seconds = time.perf_counter() - t0
    report.save_json(os.path.join(out, "fit_report.json"))
    if not report.errors:
        report.kernels().save_json(os.path.join(out, "kernels.json"))
    _write_config(args, out, extra={"fit_seconds": seconds})
    print(f"fitted {len(report)} sites in {seconds:.2f}s "
          f"({len(report.errors)} failures)")
    if report.errors:
        return 4
    return 0


def cmd_select(args):
    series = _load_series(args)
    out = _outdir(args)
    workers = resolve_workers(args.threads)
    d0 = args.D0 if args.D0 is not None else default_d0(series.n_frames)
    radii_list = _parse_radii_list(args.candidates) if args.candidates else None
    max_radius = None if radii_list is not None else args.K0
    if radii_list is None and max_radius is None:
        raise ConfigurationError("--K0 (or --candidates) is required")
    report = select_all(
        series, max_radius=max_radius, order=args.P, d0=d0,
        radii_list=radii_list, n_workers=workers,
    )
    report.save_json(os.path.join(out, "selection.json"))
    if len(series.shape) == 2:
        report.save_heatmap_csv(os.path.join(out, "selection_heatmap.csv"))
    summary = {"D0": d0}
    if args.K is not None:
        rates = report.success_rates(args.K)
        summary.update(rates)
        print(
            f"success vs truth K={args.K}: overall {rates['overall']:.3f}, "
            f"interior {rates['interior']:.3f}, boundary {rates['boundary']:.3f}"
        )
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    _write_config(args, out)
    print(f"selection for {len(report)} sites written to {out}")
    if report.errors:
        return 4
    return 0


def cmd_spliar(args):
    series = _load_series(args)
    if args.K is None:
        raise ConfigurationError("--K (box radius) is required")
    if args.R is None:
        raise ConfigurationError("--R (target rank) is required")
    out = _outdir(args)
    workers = resolve_workers(args.threads)
    result = fit_spliar(series, args.K, order=args.P, rank=args.R,
                        n_workers=workers)
    result.kernels.save_json(os.path.join(out, "kernels.json"))
    result.raw.save_json(os.path.join(out, "fit_report.json"))
    for block in result.blocks:
        write_gts(block.to_series(), os.path.join(out, f"block_lag{block.lag}.gts"))
    _write_config(args, out)
    print(f"separable rank-{args.R} fit written to {out}")
    return 0


def cmd_forecast(args):
    series = _load_series(args)
    if args.kernels is None:
        raise ConfigurationError("--kernels kernels.json is required")
    if args.horizon is None or args.horizon < 1:
        raise ConfigurationError("--horizon must be a positive integer")
    out = _outdir(args)
    kernels = KernelField.load_json(args.kernels)
    truth = read_gts(args.truth) if args.truth else None
    result = forecast(series, kernels, args.horizon,
                      truth=truth.values if truth is not None else None)
    write_gts(result.series, os.path.join(out, "forecast.gts"))
    payload = {"horizon": args.horizon, "rmse": result.rmse}
    if result.per_frame_rmse is not None:
        payload["per_frame_rmse"] = result.per_frame_rmse.tolist()
    with open(os.path.join(out, "forecast_report.json"), "w") as fh:
        json.dump(payload, fh, indent=2)
    _write_config(args, out)
    if result.rmse is not None:
        print(f"forecast rmse over {args.horizon} frames: {result.rmse:.6g}")
    else:
        print(f"forecast of {args.horizon} frames written to {out}")
    return 0


def _eval_one(method, series, train, n_test, args, workers):
    """Fit one method on the training prefix, then score it by
    one-step-ahead prediction over the held-out suffix (each test frame
    predicted from actual history, not from earlier predictions)."""
    t0 = time.perf_counter()
    if method == "liar":
        if args.K is None:
            raise ConfigurationError("method liar needs --K")
        report = fit_all(train, box_field(train.shape, args.K), order=args.P,
                         n_workers=workers, compute_se=False)
        if report.errors:
            raise UnderdeterminedError(
                f"{len(report.errors)} sites failed in method liar"
            )
        kernels = report.kernels()
        seconds = time.perf_counter() - t0
        score = holdout_rmse(series, kernels, n_test)
    elif method == "liar_p":
        kernels = baseline_pixel_ar(train, order=args.P, n_workers=workers)
        seconds = time.perf_counter() - t0
        score = holdout_rmse(series, kernels, n_test)
    elif method == "spliar":
        if args.K is None or args.R is None:
            raise ConfigurationError("method spliar needs --K and --R")
        fitted = fit_spliar(train, args.K, order=args.P, rank=args.R,
                            n_workers=workers)
        seconds = time.perf_counter() - t0
        score = holdout_rmse(series, fitted.kernels, n_test)
    elif method == "mar":
        mar = baseline_mar_als(train, order=args.P)
        seconds = time.perf_counter() - t0
        score = mar_holdout_rmse(series, mar, n_test)
    else:
        raise ConfigurationError(
            f"unknown method {method!r}; choose from {', '.join(_METHODS)}"
        )
    return score, seconds


def cmd_eval(args):
    series = _load_series(args)
    out = _outdir(args)
    workers = resolve_workers(args.threads)
    frac = args.train_fraction
    if not 0.0 < frac < 1.0:
        raise ConfigurationError(f"--train-fraction must be in (0,1), got {frac}")
    n_train = int(series.n_frames * frac)
    if n_train < 1 or n_train >= series.n_frames:
        raise ConfigurationError(
            f"split {frac} leaves no usable train/test frames for "
            f"T={series.n_frames}"
        )
    train = series.slice_time(0, n_train)
    n_test = series.n_frames - n_train
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ConfigurationError("--methods must name at least one method")
    rows = []
    for method in methods:
        score, seconds = _eval_one(method, series, train, n_test, args, workers)
        rows.append((method, args.seed, series.n_frames, args.K, score, seconds))
        print(f"{method}: rmse {score:.6g}, fit {seconds:.3f}s")
    with open(os.path.join(out, "metrics.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "seed", "T", "K", "rmse", "fit_seconds"])
        writer.writerows(rows)
    _write_config(args, out)
    return 0


def cmd_bench(args):
    if args.shape is None or args.T is None:
        raise ConfigurationError("--shape and --T are required for bench")
    shapes = _parse_shape_list(args.shape)
    t_values = _parse_int_list(args.T)
    if args.K is None:
        raise ConfigurationError("--K is required for bench")
    out = _outdir(args)
    workers = resolve_workers(args.threads)
    rows = []
    for shape in shapes:
        for t in t_values:
            kernels = random_stable_kernels(
                shape, args.K, order=args.P,
                target_norm=args.target_norm, seed=args.seed,
            )
            noise = NoiseSpec(sigma=args.sigma, seed=args.seed)
            series = simulate_liar(kernels, t, noise, burn_in=args.burn_in)
            nbs = box_field(shape, args.K)
            t0 = time.perf_counter()
            fit_all(series, nbs, order=args.P, n_workers=workers,
                    compute_se=False)
            seconds = time.perf_counter() - t0
            rows.append(("x".join(map(str, shape)), series.n_sites, t,
                         args.K, seconds))
            print(f"{shape} T={t}: fit {seconds:.3f}s")
    with open(os.path.join(out, "bench.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["shape", "sites", "T", "K", "fit_seconds"])
        writer.writerows(rows)
    _write_config(args, out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="liar",
        description=(
            "Local-interaction autoregression on gridded time series: "
            "simulate, fit, select neighborhood sizes, project to "
            "separable structure, forecast, and benchmark."
        ),
        epilog=(
            "Input formats: binary .gts (see the package README) or .csv "
            "(2-D grids: T frames of M rows stacked vertically, one grid "
            "row per line, optional header; pass --shape M,N)."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=False):
        p.add_argument("--input", default=None,
                       help="input series (.gts or .csv)" if needs_input else argparse.SUPPRESS)
        p.add_argument("--output-dir", required=True, help="run directory")
        p.add_argument("--shape", default=None,
                       help="grid shape M,N (or MxN; bench: comma list of MxN)")
        p.add_argument("--T", default=None,
                       help="frame count (bench: comma list)")
        p.add_argument("--P", type=int, default=1, help="lag order (default 1)")
        p.add_argument("--K", type=int, default=None, help="box radius")
        p.add_argument("--K0", type=int, default=None,
                       help="largest candidate radius for selection")
        p.add_argument("--R", type=int, default=None, help="separable rank")
        p.add_argument("--D0", type=float, default=None,
                       help="BIC penalty strength (default log log T)")
        p.add_argument("--sigma", type=float, default=1.0,
                       help="innovation standard deviation (default 1)")
        p.add_argument("--target-norm", dest="target_norm", type=float,
                       default=0.8, help="stability norm of random kernels")
        p.add_argument("--seed", type=int, default=0, help="stream seed")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (default LIAR_THREADS or cpu count)")
        p.add_argument("--train-fraction", dest="train_fraction", type=float,
                       default=0.9, help="time-prefix training fraction")
        p.add_argument("--methods", default="liar",
                       help="comma list from: " + ", ".join(_METHODS))
        p.add_argument("--burn-in", dest="burn_in", type=int, default=500,
                       help="simulation burn-in frames (default 500)")

    p = sub.add_parser("simulate", help="simulate a series with random kernels")
    common(p)
    p.add_argument("--noise", choices=("iid_gaussian", "iid_uniform"),
                   default="iid_gaussian")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit fixed box neighborhoods at every site")
    common(p, needs_input=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("select", help="BIC neighborhood-size selection")
    common(p, needs_input=True)
    p.add_argument("--candidates", default=None,
                   help="explicit radius tuples '0,0,0;0,0,1;...' (tensor grids)")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("spliar", help="separable low-rank projected fit")
    common(p, needs_input=True)
    p.set_defaults(func=cmd_spliar)

    p = sub.add_parser("forecast", help="forecast ahead with fitted kernels")
    common(p, needs_input=True)
    p.add_argument("--kernels", required=True, help="kernel JSON file")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--truth", default=None, help="held-out GTS file to score")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("eval", help="train/test comparison of methods")
    common(p, needs_input=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="fit wall-time across shapes")
    common(p)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GtsFormatError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (StabilityError, NumericalError, UnderdeterminedError,
            SizeError, StructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LiarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
