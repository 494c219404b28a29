"""Command line front end.

Subcommands: simulate, fit, select, spliar, forecast, eval, bench.
Every run writes its artifacts into one output directory together with
``config.json`` holding the resolved parameters, the package version,
and SHA-256 hashes of all input files, so a run can be reproduced
exactly.  Machine-readable JSON uses 0-based site coordinates; CSV and
console summaries use 1-based coordinates.

Exit codes: 0 success, 2 configuration/usage (a malformed CSV or kernel
JSON file too), 3 malformed GTS file, 4 numerical or stability failure
(including a non-empty per-site error manifest), 5 I/O failure.
"""

import argparse
import contextlib
import csv
import hashlib
import json
import os
import sys
import time

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
)
from .fit import fit_all, resolve_workers
from .grid import _read_gts, _write_gts, read_csv_frames, read_gts, write_gts
from .neighborhoods import box_field
from .select import default_d0, select_all
from .separable import fit_spliar
from .simulate import (
    KernelField,
    NoiseSpec,
    _frame_blocks,
    _lag_order,
    random_stable_kernels,
    simulate_liar,
)

# each eval method and the flags it needs besides --P
_METHODS = {"liar": ("K",), "liar_p": (), "spliar": ("K", "R"), "mar": ()}


def _split(text, sep, parse, what):
    """``parse`` of each ``sep``-separated entry of ``text``; the whole
    list is refused when an entry is blank or ``parse`` rejects it."""
    try:
        entries = [tok.strip() for tok in text.split(sep)]
        if not all(entries):
            raise ValueError("blank entry")
        return [parse(tok) for tok in entries]
    except ValueError:
        raise ConfigurationError(f"cannot parse {what} {text!r}")


def _parse_shape(text):
    """One grid shape from 'M,N' or 'MxN' (any dimension count)."""
    dims = tuple(_split(text, "x" if "x" in text else ",", int, "shape"))
    if any(d < 1 for d in dims):
        raise ConfigurationError(f"invalid shape {text!r}")
    return dims


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _load_series(args, last=None):
    """The ``--input`` series; of a GTS file only the last ``last`` frames
    when given, every frame still read and checked."""
    path = args.input
    if path is None:
        raise ConfigurationError("--input is required for this subcommand")
    if path.endswith(".csv"):
        if args.shape is None:
            raise ConfigurationError("--shape M,N is required for CSV input")
        return read_csv_frames(path, _parse_shape(args.shape))
    return _read_gts(path, last)


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
    os.makedirs(args.output_dir, exist_ok=True)
    return args.output_dir


def cmd_simulate(args):
    if args.shape is None:
        raise ConfigurationError("--shape is required")
    shape = _parse_shape(args.shape)
    if args.T is None or args.T < 1:
        raise ConfigurationError("--T must be a positive frame count")
    if args.K is None:
        raise ConfigurationError("--K (kernel box radius) is required")
    noise = NoiseSpec(kind=args.noise, sigma=args.sigma, seed=args.seed)
    kernels = random_stable_kernels(
        shape, args.K, order=args.P, target_norm=args.target_norm, seed=args.seed
    )
    blocks = _frame_blocks(kernels, args.T, noise, args.burn_in)
    out = _outdir(args)
    # each block of frames is written as the recursion makes it
    _write_gts(os.path.join(out, "series.gts"), shape, args.T, blocks)
    kernels.save_json(os.path.join(out, "kernels.json"))
    _write_config(args, out)
    print(f"wrote {args.T} frames on {shape} to {out}/series.gts")
    return 0


def cmd_fit(args):
    series = _load_series(args)
    if args.K is None:
        raise ConfigurationError("--K (box radius) is required")
    workers = resolve_workers(args.threads)
    out = _outdir(args)
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
    if (args.K0 is None) == (args.candidates is None):
        raise ConfigurationError("select needs exactly one of --K0 and --candidates")
    radii_list = None if args.candidates is None else _split(
        args.candidates, ";", lambda tok: tuple(_split(tok, ",", int, "integer list")),
        "candidate list")
    workers = resolve_workers(args.threads)
    out = _outdir(args)
    d0 = args.D0 if args.D0 is not None else default_d0(series.n_frames)
    report = select_all(
        series, max_radius=args.K0, order=args.P, d0=d0,
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
    workers = resolve_workers(args.threads)
    out = _outdir(args)
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
    if args.horizon < 1:
        raise ConfigurationError("--horizon must be a positive integer")
    # the parsed kernel JSON is freed before the history is read, and of
    # the history only the P frames the forecast starts from are kept
    kernels = KernelField.load_json(args.kernels)
    series = _load_series(args, last=kernels.order)
    truth = read_gts(args.truth) if args.truth else None
    out = _outdir(args)
    result = forecast(series, kernels, args.horizon, truth=truth)
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
        report = fit_all(train, box_field(train.shape, args.K), order=args.P,
                         n_workers=workers, compute_se=False)
        model = report.kernels()
    elif method == "liar_p":
        model = baseline_pixel_ar(train, order=args.P, n_workers=workers)
    elif method == "spliar":
        model = fit_spliar(train, args.K, order=args.P, rank=args.R,
                           n_workers=workers).kernels
    else:  # mar; cmd_eval refused every other name
        model = baseline_mar_als(train, order=args.P)
    seconds = time.perf_counter() - t0
    return holdout_rmse(series, model, n_test), seconds


def cmd_eval(args):
    # every flag is checked before any method runs or anything is written
    methods = _split(args.methods, ",", str, "method list")
    for method in methods:
        if method not in _METHODS:
            raise ConfigurationError(
                f"unknown method {method!r}; choose from {', '.join(_METHODS)}"
            )
        if any(getattr(args, flag) is None for flag in _METHODS[method]):
            raise ConfigurationError(f"method {method} needs "
                                     + " and ".join(f"--{f}" for f in _METHODS[method]))
    frac = args.train_fraction
    if not 0.0 < frac < 1.0:
        raise ConfigurationError(f"--train-fraction must be in (0,1), got {frac}")
    series = _load_series(args)
    n_train = int(series.n_frames * frac)
    if n_train < 1 or n_train >= series.n_frames:
        raise ConfigurationError(
            f"split {frac} leaves no usable train/test frames for "
            f"T={series.n_frames}"
        )
    workers = resolve_workers(args.threads)
    out = _outdir(args)
    train = series.slice_time(0, n_train)
    n_test = series.n_frames - n_train
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
    shapes = _split(args.shape, ",", _parse_shape, "shape list")
    t_values = _split(args.T, ",", int, "integer list")
    if min(t_values) < 1:
        raise ConfigurationError("--T must be a positive frame count")
    if args.K is None:
        raise ConfigurationError("--K is required for bench")
    workers = resolve_workers(args.threads)
    out = _outdir(args)
    rows = []
    for shape in shapes:
        # each frame count fits a prefix of one simulation (a shorter
        # simulation is a prefix of a longer one)
        kernels = random_stable_kernels(shape, args.K, order=args.P,
                                        target_norm=args.target_norm, seed=args.seed)
        noise = NoiseSpec(sigma=args.sigma, seed=args.seed)
        series = simulate_liar(kernels, max(t_values), noise, burn_in=args.burn_in)
        nbs = box_field(shape, args.K)
        for t in t_values:
            prefix = series.slice_time(0, t)
            t0 = time.perf_counter()
            fit_all(prefix, nbs, order=args.P, n_workers=workers, compute_se=False)
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


# Every flag of the command line; each subcommand declares the ones it reads.
_OPTIONS = {
    "--input": dict(help="input series (.gts or .csv)"),
    "--output-dir": dict(required=True, help="run directory"),
    "--shape": dict(help="grid shape M,N or MxN (required for CSV input)"),
    "--T": dict(type=int, help="frame count"),
    "--P": dict(type=int, default=1, help="lag order (default 1)"),
    "--K": dict(type=int, help="box radius"),
    "--K0": dict(type=int, help="largest candidate radius for selection"),
    "--R": dict(type=int, help="separable rank"),
    "--D0": dict(type=float, help="BIC penalty strength (default log log T)"),
    "--sigma": dict(type=float, default=1.0,
                    help="innovation standard deviation (default 1)"),
    "--target-norm": dict(type=float, default=0.8,
                          help="stability norm of random kernels"),
    "--seed": dict(type=int, default=0, help="stream seed"),
    "--threads": dict(type=int,
                      help="worker threads (default LIAR_THREADS or cpu count)"),
    "--burn-in": dict(type=int, default=500,
                      help="simulation burn-in frames (default 500)"),
    "--noise": dict(choices=("iid_gaussian", "iid_uniform"), default="iid_gaussian"),
    "--candidates": dict(
        help="explicit radius tuples '0,0,0;0,0,1;...' (tensor grids)"),
    "--kernels": dict(required=True, help="kernel JSON file"),
    "--horizon": dict(type=int, required=True),
    "--truth": dict(help="held-out GTS file to score"),
    "--train-fraction": dict(type=float, default=0.9,
                             help="time-prefix training fraction"),
    "--methods": dict(default="liar", help="comma list from: " + ", ".join(_METHODS)),
}

# (name, handler, help, flags); a flag may carry overrides of its table entry
_COMMANDS = (
    ("simulate", cmd_simulate, "simulate a series with random kernels",
     ("--output-dir", "--shape", "--T", "--P", "--K", "--sigma", "--target-norm",
      "--seed", "--burn-in", "--noise")),
    ("fit", cmd_fit, "fit fixed box neighborhoods at every site",
     ("--input", "--output-dir", "--shape", "--P", "--K", "--threads")),
    ("select", cmd_select, "BIC neighborhood-size selection",
     ("--input", "--output-dir", "--shape", "--P", "--K", "--K0", "--D0",
      "--threads", "--candidates")),
    ("spliar", cmd_spliar, "separable low-rank projected fit",
     ("--input", "--output-dir", "--shape", "--P", "--K", "--R", "--threads")),
    ("forecast", cmd_forecast, "forecast ahead with fitted kernels",
     ("--input", "--output-dir", "--shape", "--kernels", "--horizon", "--truth")),
    ("eval", cmd_eval, "train/test comparison of methods",
     ("--input", "--output-dir", "--shape", "--P", "--K", "--R", "--seed",
      "--threads", "--train-fraction", "--methods")),
    ("bench", cmd_bench, "fit wall-time across shapes",
     ("--output-dir", ("--shape", dict(help="comma list of MxN grid shapes")),
      ("--T", dict(type=str, help="comma list of frame counts")), "--P", "--K",
      "--sigma", "--target-norm", "--seed", "--burn-in", "--threads")),
)


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
    for name, func, text, flags in _COMMANDS:
        p = sub.add_parser(name, help=text)
        for flag in flags:
            flag, custom = flag if isinstance(flag, tuple) else (flag, {})
            p.add_argument(flag, **{**_OPTIONS[flag], **custom})
        p.set_defaults(func=func)
    return parser


# (error classes, exit code); the first entry that matches decides
_EXIT_CODES = (
    (GtsFormatError, 3),
    ((StabilityError, NumericalError, UnderdeterminedError, SizeError, StructureError), 4),
    (ConfigurationError, 2),
    (LiarError, 1),
    (OSError, 5),
)


def main(argv=None):
    args = build_parser().parse_args(argv)
    made = not os.path.isdir(args.output_dir)
    try:
        if "P" in vars(args):  # before any command reads or writes a file
            _lag_order(args.P)
        return args.func(args)
    except (LiarError, OSError) as exc:
        if made:  # a refusal met after _outdir leaves no empty directory
            with contextlib.suppress(OSError):
                os.rmdir(args.output_dir)
        code = next(code for classes, code in _EXIT_CODES if isinstance(exc, classes))
        print(f"{'i/o error' if code == 5 else 'error'}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
