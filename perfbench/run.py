"""liargrid benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` is the timed run.  It generates the workload's inputs from
the seed (untimed, cached per seed), times a fresh interpreter importing
``liargrid.cli`` several times (``setup_s``), then runs the workload's
operation through the real CLI (``python -m liargrid.cli`` with
``PYTHONPATH=src``) in a closed loop: one client, the next operation
starting when the previous one has exited, for ``--seconds`` seconds.
Every operation's artifacts are checked afterwards.  Worker counts and
BLAS threads are left at the program's defaults.

``--trace 1`` is the traced run.  It replays the same operation
in-process, with a span around each library call, measures single layers
after it, and runs the CLI operation once untraced to report the tracing
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything else
(each operation, quality figures, the machine) is printed before it and
kept under ``.perfbench/results``.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time

import procs
from tracing import Tracer

ROOT = procs.ROOT
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 7          # fresh-interpreter imports per timed run (median)
TRACE_IMPORT_REPEATS = 3
RUN_DEADLINE_S = 165.0     # no child may run past this point of the run
MIN_OPERATIONS = 2         # a timed run keeps going until it has this many

# name, unit, better.  cpu_s is measured and printed but not listed: on
# simulate_forecast its spread over seeds reached 0.34 of the median.
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sites_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
]

# name, unit, better, what it should move: end-to-end metric on workload.
# fit_paper is not in BENCHMARK.json (see README.md) but runs by hand.
PER_LAYER = [
    ("grid.read_gts_s", "s", "lower", "wall_s on simulate_forecast, fit_paper"),
    ("grid.read_gts_peak_rss_mb", "MB", "lower", "peak_rss_mb on simulate_forecast, fit_paper"),
    ("grid.write_gts_s", "s", "lower", "wall_s on simulate_forecast"),
    ("neighborhoods.box_field_s", "s", "lower", "wall_s on eval_methods, fit_paper"),
    ("neighborhoods.nested_family_s", "s", "lower", "wall_s on select_pow2"),
    ("fit.fit_all_s", "s", "lower", "wall_s, cpu_s on eval_methods, fit_paper"),
    ("fit.fit_all_1w_s", "s", "lower", "none (serial baseline of fit.parallel_speedup)"),
    ("fit.parallel_speedup", "ratio", "higher",
     "wall_s, cpu_s on select_pow2, eval_methods, fit_paper"),
    ("fit.gather_us_per_site", "us", "lower", "wall_s on select_pow2; flat on fit_paper"),
    ("fit.gather_gb_per_s", "GB/s", "higher", "wall_s on select_pow2; flat on fit_paper"),
    ("fit.qr_us_per_site", "us", "lower", "wall_s on select_pow2 (refit), fit_paper"),
    ("fit.qr_gflop_per_s", "GFLOP/s", "higher", "wall_s on select_pow2 (refit), fit_paper"),
    ("fit.se_us_per_site", "us", "lower", "wall_s on fit_paper"),
    ("fit.cond_flag_sites", "count", "lower", "none (health count)"),
    ("fit.failed_sites", "count", "lower", "none (health count)"),
    ("select.select_all_s", "s", "lower", "wall_s on select_pow2"),
    ("select.scan_us_per_site", "us", "lower", "wall_s on select_pow2"),
    ("select.refit_us_per_site", "us", "lower", "wall_s on select_pow2"),
    ("select.scan_over_fit", "ratio", "lower", "wall_s on select_pow2"),
    ("select.saturated_sites", "count", "lower", "none (health count)"),
    ("select.dropped_levels", "count", "lower", "none (health count)"),
    ("separable.fit_spliar_s", "s", "lower", "wall_s on eval_methods"),
    ("separable.assemble_block_s", "s", "lower", "wall_s on eval_methods"),
    ("separable.truncated_svd_s", "s", "lower", "wall_s on eval_methods"),
    ("separable.scatter_block_s", "s", "lower", "wall_s on eval_methods"),
    ("evaluate.mar_als_s", "s", "lower", "wall_s, cpu_s on eval_methods"),
    ("evaluate.mar_sweeps", "count", "lower", "wall_s on eval_methods"),
    ("evaluate.pixel_ar_s", "s", "lower", "wall_s on eval_methods"),
    ("evaluate.holdout_rmse_s", "s", "lower", "wall_s on eval_methods"),
    ("evaluate.forecast_s", "s", "lower", "wall_s on simulate_forecast"),
    ("simulate.random_kernels_s", "s", "lower", "wall_s on simulate_forecast"),
    ("simulate.operator_norm_s", "s", "lower", "wall_s on simulate_forecast"),
    ("simulate.simulate_liar_s", "s", "lower", "wall_s on simulate_forecast"),
    ("simulate.kernels_save_json_s", "s", "lower", "wall_s on simulate_forecast, fit_paper"),
    ("simulate.kernels_load_json_s", "s", "lower", "wall_s on simulate_forecast"),
    ("rng.frame_gaussians_s", "s", "lower", "wall_s on simulate_forecast"),
    ("rng.gaussians_per_s", "1/s", "higher", "wall_s on simulate_forecast"),
    ("cli.import_s", "s", "lower", "setup_s on every workload"),
    ("cli.fit_report_json_s", "s", "lower", "wall_s on fit_paper"),
    ("cli.config_sha256_s", "s", "lower", "wall_s on simulate_forecast, fit_paper"),
    ("cli.artifact_mb", "MB", "lower", "wall_s on simulate_forecast, fit_paper"),
    ("cli.selection_json_s", "s", "lower", "wall_s on select_pow2"),
    ("trace.overhead_s", "s", "lower", "none (traced span minus untraced wall)"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER + [("cpu_s", "s")]}


def deadline_left(t_start):
    return RUN_DEADLINE_S - (time.perf_counter() - t_start)


def run_operation(spawner, wl, inputs, out, t_start):
    """One operation: the workload's CLI commands in sequence.

    Returns wall, CPU and peak RSS over its child processes and the
    problems its exit codes show.
    """
    os.makedirs(out, exist_ok=True)
    wall = cpu = rss = 0.0
    problems = []
    commands = wl.commands(inputs, out)
    for i, args in enumerate(commands):
        res = spawner.cli(args, timeout=deadline_left(t_start),
                        log_path=f"{out}.cmd{i}.log")
        wall += res.wall
        cpu += res.cpu
        rss = max(rss, res.rss_mb)
        if res.timed_out:
            problems.append(f"`liar {args[0]}` killed after the run deadline")
        elif res.returncode != 0:
            problems.append(f"`liar {args[0]}` exited {res.returncode}: {res.stderr.strip()}")
        if problems:
            break
    return {"wall": wall, "cpu": cpu, "rss_mb": rss, "commands": len(commands),
            "problems": problems}


def check_operation(wl, inputs, out, op, reference_digests):
    """Check one operation's artifacts; adds the problems found to ``op``.

    With no ``reference_digests`` the workload's full check runs;
    otherwise the deterministic artifacts must equal the reference's,
    which then stands for the full check.  Returns the digests.
    """
    if op["problems"]:
        return None
    try:
        digests = wl.digests(out)
        if reference_digests is None:
            problems, op["quality"] = wl.check(inputs, out)
        else:
            changed = sorted(k for k in digests if digests[k] != reference_digests.get(k))
            problems = [f"artifacts differ from the first operation's: {changed}"] if changed else []
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        problems, digests = [f"artifacts unreadable: {exc!r}"], None
    op["problems"] += problems
    return digests


def timed_run(spawner, wl, inputs, seconds, run_dir, t_start):
    setup = [spawner.import_seconds(deadline_left(t_start)) for _ in range(SETUP_REPEATS)]
    ops = []
    loop_start = time.perf_counter()
    while (time.perf_counter() - loop_start < seconds or len(ops) < MIN_OPERATIONS) \
            and deadline_left(t_start) > 0:
        ops.append(run_operation(spawner, wl, inputs, str(run_dir / f"op{len(ops)}"), t_start))
    first = None
    for i, op in enumerate(ops):
        digests = check_operation(wl, inputs, str(run_dir / f"op{i}"), op, first)
        first = first or digests
        shutil.rmtree(run_dir / f"op{i}", ignore_errors=True)
    walls = [op["wall"] for op in ops]
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "peak_rss_mb": statistics.median(op["rss_mb"] for op in ops),
        "sites_per_s": wl.n_sites / wall,
        "setup_s": statistics.median(setup),
    }
    extra = {"cpu_s": statistics.median(op["cpu"] for op in ops), "walls_s": walls,
             "setup_samples_s": setup}
    if len(walls) >= 20:  # highest percentile with ten samples beyond it
        q = math.floor(100 * (1 - 10 / len(walls)))
        extra[f"wall_p{q}_s"] = statistics.quantiles(walls, n=100)[q - 1]
    return ops, metrics, extra


def traced_run(spawner, wl, inputs, run_dir, t_start):
    tracer = Tracer()
    m = {name: 0.0 for name, *_ in PER_LAYER}
    traced_out = str(run_dir / "traced")
    traced = {"wall": None, "problems": []}
    try:
        traced["problems"] += wl.trace(tracer, spawner, inputs, traced_out, m)
    except Exception as exc:  # a failing library call is a failed operation
        traced["problems"].append(f"traced replay raised {exc!r}")
    for name, *_ in PER_LAYER:
        if name.endswith("_s") and tracer.count(name[:-2]):
            m[name] = tracer.total(name[:-2])
    reference = run_operation(spawner, wl, inputs, str(run_dir / "reference"), t_start)
    ops = [traced, reference]
    imports = [spawner.import_seconds(deadline_left(t_start))
               for _ in range(TRACE_IMPORT_REPEATS)]
    m["cli.import_s"] = statistics.median(imports)
    if not traced["problems"]:
        digests = check_operation(wl, inputs, traced_out, traced, None)
        check_operation(wl, inputs, str(run_dir / "reference"), reference, digests)
    else:
        check_operation(wl, inputs, str(run_dir / "reference"), reference, None)
    if tracer.count("op"):
        traced["wall"] = tracer.total("op")
        # each untraced CLI process also pays interpreter start-up and import
        untraced = reference["wall"] - reference["commands"] * m["cli.import_s"]
        m["trace.overhead_s"] = traced["wall"] - untraced
    m["cli.artifact_mb"] = procs.tree_bytes(run_dir / "reference") / 1e6
    os.makedirs(WORK / "traces", exist_ok=True)
    tracer.dump(WORK / "traces" / f"{wl.name}-seed{inputs['seed']}.json")
    extra = {"reference_wall_s": reference["wall"], "import_samples_s": imports,
             "self_s": tracer.self_times()}
    return ops, m, extra


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv), workloads


def main(argv=None):
    t_start = time.perf_counter()
    if not (procs.SRC / "liargrid" / "cli.py").is_file():
        print(f"error: no liargrid sources under {procs.SRC}", file=sys.stderr)
        return 2
    with procs.Spawner() as spawner:  # before this process grows
        return measure(spawner, argv, t_start)


def measure(spawner, argv, t_start):
    sys.path.insert(0, str(procs.SRC))
    args, workloads = parse_args(argv)
    import machine
    from liargrid.fit import resolve_workers

    wl = workloads.WORKLOADS[args.workload]()
    inputs = wl.prepare(args.seed, str(WORK / "inputs"))
    run_dir = WORK / "runs" / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        if args.trace:
            ops, values, extra = traced_run(spawner, wl, inputs, run_dir, t_start)
        else:
            ops, values, extra = timed_run(spawner, wl, inputs, args.seconds, run_dir, t_start)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(1 for op in ops if op["problems"])
    host = machine.describe(resolve_workers())
    detail = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params": wl.p, "payload_bytes": wl.payload_bytes(),
        "operations": ops, "failed_frac": failed / len(ops), "machine": host,
        "metrics": values, **extra,
    }
    os.makedirs(WORK / "results", exist_ok=True)
    with open(WORK / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh, indent=1, default=str)

    for i, op in enumerate(ops):
        status = "ok" if not op["problems"] else "FAILED: " + "; ".join(op["problems"])
        wall = "n/a" if op["wall"] is None else f"{op['wall']:.3f} s"
        quality = " ".join(f"{k}={v:.6g}" for k, v in op.get("quality", {}).items())
        print(f"op {i}: wall {wall} {quality} {status}")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {UNITS[name]}")
    for name, value in next((op["quality"] for op in ops if op.get("quality")), {}).items():
        print(f"{name} = {value:.6g} (quality, checked)")
    if "cpu_s" in extra:
        print(f"cpu_s = {extra['cpu_s']:.6g} s (not in BENCHMARK.json)")
    for key in ("walls_s", "reference_wall_s"):
        if key in extra:
            print(f"{key} = {extra[key]}")
    print(f"failed_frac = {failed}/{len(ops)} = {failed / len(ops):.3g}")
    caches = ", ".join(f"{k[:2]} {host[k] / 2**20:.0f} MiB" for k in ("L2_bytes", "L3_bytes")
                       if k in host)
    print(f"payload {wl.payload_bytes() / 2**20:.1f} MiB ({caches})")
    print("machine: " + json.dumps(host, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
