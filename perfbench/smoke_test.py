"""Smoke test of the benchmark at toy sizes; runs in well under a minute.

    python3 perfbench/smoke_test.py        (or: python3 -m pytest perfbench)

It runs each workload's operation through the CLI and its traced replay
on toy grids, and shows that the checks are not vacuous: a kernels.json
with one flipped coefficient, a nonzero exit and artifacts that change
between operations all register as failures.
"""

import json
import os
import shutil
import sys
import tempfile
import time

import procs

sys.path.insert(0, str(procs.SRC))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

TOY = {
    "fit_paper": {"shape": (8, 9), "T": 400, "K": 1},
    "select_pow2": {"shape": (8, 8), "T": 1500, "K": 1, "K0": 2},
    "simulate_forecast": {"shape": (6, 7), "T": 200, "K": 1, "horizon": 5},
    "eval_methods": {"shape": (6, 8), "T": 800, "K": 1, "R": 1},
}
SEED = 3


def _scratch():
    os.makedirs(run.WORK, exist_ok=True)
    return tempfile.mkdtemp(prefix="smoke-", dir=run.WORK)


def _operation(spawner, name, tmp):
    wl = workloads.WORKLOADS[name](**TOY[name])
    inputs = wl.prepare(SEED, os.path.join(tmp, "inputs"))
    out = os.path.join(tmp, name)
    op = run.run_operation(spawner, wl, inputs, out, t_start=time.perf_counter())
    return wl, inputs, out, op


def test_every_workload_passes_its_checks_and_traces():
    tmp = _scratch()
    try:
        with procs.Spawner() as spawner:
            for name in TOY:
                wl, inputs, out, op = _operation(spawner, name, tmp)
                digests = run.check_operation(wl, inputs, out, op, None)
                assert not op["problems"], (name, op["problems"])
                assert digests, name
                metrics = {key: 0.0 for key, *_ in run.PER_LAYER}
                tracer = Tracer()
                traced = os.path.join(tmp, name + "-traced")
                assert wl.trace(tracer, spawner, inputs, traced, metrics) == [], name
                assert tracer.total("op") > 0, name
                replay = {"problems": []}
                assert run.check_operation(wl, inputs, traced, replay, digests) == digests
                assert not replay["problems"], (name, replay["problems"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def test_flipped_coefficient_and_bad_exit_are_failures():
    tmp = _scratch()
    try:
        with procs.Spawner() as spawner:
            wl, inputs, out, op = _operation(spawner, "fit_paper", tmp)
            first = run.check_operation(wl, inputs, out, op, None)
            assert not op["problems"]

            path = os.path.join(out, "kernels.json")
            with open(path) as fh:
                kernels = json.load(fh)
            site = max(kernels["sites"], key=lambda s: max(map(abs, s["coeffs"][0])))
            lag = site["coeffs"][0]
            j = max(range(len(lag)), key=lambda i: abs(lag[i]))
            lag[j] = -lag[j]
            with open(path, "w") as fh:
                json.dump(kernels, fh)
            flipped = {"problems": []}
            run.check_operation(wl, inputs, out, flipped, None)
            assert any("kernels.json" in p for p in flipped["problems"]), flipped
            repeat = {"problems": []}
            run.check_operation(wl, inputs, out, repeat, first)
            assert any("differ from the first" in p for p in repeat["problems"]), repeat

            with open(wl.input_path(inputs), "r+b") as fh:  # corrupt the magic
                fh.write(b"XXXX")
            bad = run.run_operation(spawner, wl, inputs, os.path.join(tmp, "bad"),
                                    t_start=time.perf_counter())
            assert any("exited 3" in p for p in bad["problems"]), bad
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def test_benchmark_json_matches_the_runner():
    with open(procs.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for entry in spec["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == [tuple(entry[:3]) for entry in run.PER_LAYER])


if __name__ == "__main__":
    for test in (test_benchmark_json_matches_the_runner,
                 test_every_workload_passes_its_checks_and_traces,
                 test_flipped_coefficient_and_bad_exit_are_failures):
        test()
        print(f"ok {test.__name__}")
