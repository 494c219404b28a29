"""Thread policy: the worker count, OpenBLAS pinned to one thread, and the
one in-order pool that the least-squares kernel (:mod:`liargrid.fit`)
and the noise draw-ahead (:mod:`liargrid.simulate`) run on.

The pin covers every OpenBLAS build loaded when the outermost block
opens.  numpy's build loads with numpy; scipy's loads only when scipy is
first imported, which the stability norm and the simulation recursion
do but fitting, selection, forecasts and hold-out scores never do, so
code that calls scipy's BLAS inside a block imports scipy before
entering it."""

import contextlib
import ctypes
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import islice

from .errors import ConfigurationError

# (set, get) thread-count symbols of an OpenBLAS build, in the order tried:
# numpy's 64-bit-integer scipy-openblas, scipy's scipy-openblas, plain OpenBLAS.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
_blas_controls = None  # [(set, get), ...] per loaded build
_blas_modules = 0  # len(sys.modules) when _blas_controls was found
_blas_lock = threading.Lock()
_blas_depth = 0  # nesting count of single_threaded_blas across threads
_blas_saved = []  # (set, thread count) to restore when the outermost block exits


def _openblas_thread_controls():
    """(set, get) thread-count functions of every OpenBLAS build loaded in
    this process; empty where none is found (e.g. no ``/proc/self/maps``).
    Found again whenever a module was imported since the last search: a
    build loads with the extension module that links it (scipy's with
    scipy's first import), and reading the maps costs about 0.3 ms."""
    global _blas_controls, _blas_modules
    if _blas_controls is None or len(sys.modules) != _blas_modules:
        _blas_modules = len(sys.modules)
        try:
            with open("/proc/self/maps") as fh:
                paths = {line.split()[-1] for line in fh if ".so" in line}
        except OSError:
            paths = set()
        controls = []
        for path in sorted(paths):
            if "openblas" not in os.path.basename(path).lower():
                continue
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for set_sym, get_sym in _BLAS_THREAD_SYMBOLS:
                if hasattr(lib, set_sym) and hasattr(lib, get_sym):
                    set_threads, get_threads = getattr(lib, set_sym), getattr(lib, get_sym)
                    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    controls.append((set_threads, get_threads))
                    break
        _blas_controls = controls
    return _blas_controls


@contextlib.contextmanager
def single_threaded_blas():
    """Run OpenBLAS on one thread inside the block, then restore each
    build's previous thread count.  Nested or concurrent blocks restore
    once, when the last one exits.  The outermost block pins the builds
    loaded as it opens (a build loaded inside the block runs unpinned).
    Does nothing without OpenBLAS."""
    global _blas_depth, _blas_saved
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = [(set_threads, get()) for set_threads, get
                           in _openblas_thread_controls()]
            for set_threads, _ in _blas_saved:
                set_threads(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                for set_threads, n in _blas_saved:
                    set_threads(n)


def resolve_workers(n_workers=None):
    """Worker count: explicit arg, else LIAR_THREADS, else cpu count."""
    if n_workers is None:
        env = os.environ.get("LIAR_THREADS", "").strip()
        if env and not env.isdigit():
            raise ConfigurationError(f"LIAR_THREADS must be a positive integer, got {env!r}")
        n_workers = env or os.cpu_count() or 1
    n = int(n_workers)
    if n < 1:
        raise ConfigurationError(f"worker count must be positive, got {n}")
    return n


def _in_order(fn, items, workers, ahead):
    """``fn(item)`` of each of ``items`` on ``workers`` threads, yielded in
    order.  Items are submitted as the generator advances, at most ``ahead``
    pending; finished, failed or closed, it cancels the calls not yet
    started and joins its threads."""
    items = iter(items)
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        queued = [pool.submit(fn, item) for item in islice(items, ahead)]
        while queued:
            result = queued.pop(0).result()
            queued.extend(pool.submit(fn, item) for item in islice(items, 1))
            yield result
    finally:
        pool.shutdown(cancel_futures=True)
