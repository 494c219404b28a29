"""The in-order pool: results in item order, failures propagated, items
taken only as the pool advances, and no thread left behind.  The BLAS
pin: every OpenBLAS build loaded when a block opens runs on one thread."""

import json
import subprocess
import sys
import threading
import time

import pytest

from liargrid._threads import _in_order


def _new_threads(before):
    return [t for t in threading.enumerate() if t not in before]


def _counted(n, taken):
    """Items 0..n-1, each recorded in ``taken`` as the pool takes it."""
    for i in range(n):
        taken.append(i)
        yield i


class TestInOrder:
    def test_results_in_item_order_and_no_thread_left(self):
        delays = [0.05, 0.0, 0.03, 0.0, 0.01, 0.0]  # later items finish first
        before = set(threading.enumerate())

        def fn(i):
            time.sleep(delays[i])
            return i * i

        assert list(_in_order(fn, range(6), 3, 3)) == [i * i for i in range(6)]
        assert _new_threads(before) == []

    @pytest.mark.parametrize("fail", [0, 3])
    def test_failure_propagates_and_later_items_never_run(self, fail):
        ahead, taken, ran = 2, [], []
        before = set(threading.enumerate())

        def fn(i):
            ran.append(i)
            if i == fail:
                raise RuntimeError(f"item {i}")
            return i

        results = _in_order(fn, _counted(100, taken), 2, ahead)
        for i in range(fail):
            assert next(results) == i
        with pytest.raises(RuntimeError, match=f"item {fail}"):
            next(results)
        # the failing item's result is read with ``ahead`` items taken past it
        assert taken == list(range(fail + ahead))
        assert set(ran) <= set(taken)
        assert _new_threads(before) == []

    def test_close_cancels_queued_calls_and_joins_the_pool(self):
        taken, ran = [], []
        started, release = threading.Event(), threading.Event()
        before = set(threading.enumerate())

        def fn(i):
            ran.append(i)
            if i == 1:  # holds the one worker until the generator is closed
                started.set()
                assert release.wait(10)
            return i

        results = _in_order(fn, _counted(10, taken), 1, 4)
        assert next(results) == 0
        assert started.wait(10)
        timer = threading.Timer(0.5, release.set)
        timer.start()
        results.close()
        timer.join(10)
        assert not timer.is_alive()
        assert taken == [0, 1, 2, 3, 4]
        assert ran == [0, 1]  # 2, 3 and 4 were queued, never started
        assert _new_threads(before) == []


# one block, then scipy (and its own OpenBLAS build) loaded, then a second
# block: the thread counts of every build, found here from the process's
# maps, inside and after it
_LATE_BUILD = """
import ctypes, json, os
import liargrid._threads as th

def builds():
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if ".so" in line})
    found = []
    for path in paths:
        if "openblas" in os.path.basename(path).lower():
            lib = ctypes.CDLL(path)
            for set_sym, get_sym in th._BLAS_THREAD_SYMBOLS:
                if hasattr(lib, set_sym) and hasattr(lib, get_sym):
                    set_threads, get_threads = getattr(lib, set_sym), getattr(lib, get_sym)
                    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    found.append((set_threads, get_threads))
                    break
    return found

with th.single_threaded_blas():
    pass
before = builds()
import scipy.linalg
controls = builds()
for set_threads, _ in controls:
    set_threads(2)
with th.single_threaded_blas():
    inside = [get() for _, get in controls]
print(json.dumps({"before": len(before), "inside": inside,
                  "after": [get() for _, get in controls]}))
"""


def test_pin_covers_a_build_loaded_after_the_first_block(src_on_path):
    proc = subprocess.run([sys.executable, "-c", _LATE_BUILD], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    if len(seen["inside"]) <= seen["before"]:
        pytest.skip("importing scipy loaded no OpenBLAS build with thread control")
    assert seen["inside"] == [1] * len(seen["inside"])
    assert seen["after"] == [2] * len(seen["inside"])
