"""Machine description recorded next to every benchmark result.

Everything here is read-only: the BLAS thread count is queried through
``ctypes`` and never set, and the worker/BLAS environment variables are
reported as they were found.
"""

import ctypes
import os
import platform
import sys

# (symbol that reads the thread count, symbol that names the build)
_BLAS_PROBES = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
    ("openblas_get_num_threads64_", "openblas_get_config64_"),
    ("openblas_get_num_threads", "openblas_get_config"),
)


def _loaded_blas_paths():
    """Shared objects mapped into this process whose name mentions OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if ".so" in line}
    except OSError:
        return []
    return sorted(p for p in paths if "openblas" in os.path.basename(p).lower())


def blas_libraries():
    """One entry per loaded OpenBLAS build: file, config string, threads."""
    import numpy  # noqa: F401  (loads numpy's BLAS)
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    found = []
    for path in _loaded_blas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for threads_sym, config_sym in _BLAS_PROBES:
            if not hasattr(lib, threads_sym):
                continue
            get_threads = getattr(lib, threads_sym)
            get_threads.argtypes = []
            get_threads.restype = ctypes.c_int
            config = None
            if hasattr(lib, config_sym):
                get_config = getattr(lib, config_sym)
                get_config.argtypes = []
                get_config.restype = ctypes.c_char_p
                config = get_config().decode(errors="replace")
            found.append({
                "library": os.path.basename(path),
                "symbol": threads_sym,
                "threads": int(get_threads()),
                "config": config,
            })
            break
    return found


def _cache_sizes():
    """Unified L2/L3 sizes in bytes from sysfs (cpu0), where readable."""
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return sizes
    for entry in entries:
        if not entry.startswith("index"):
            continue
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, entry, "size")) as fh:
                text = fh.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        digits = text.rstrip("KMG")
        if level in (2, 3) and digits.isdigit():
            sizes[f"L{level}_bytes"] = int(digits) * scale
    return sizes


def describe(effective_workers):
    """Dictionary describing this machine and the numeric stack.

    ``effective_workers`` is the pool size the program resolves when no
    ``--threads`` flag is given.
    """
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count() or 1,
        "effective_workers": effective_workers,
        "LIAR_THREADS": os.environ.get("LIAR_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas": blas_libraries(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "executable": os.path.basename(sys.executable),
        **_cache_sizes(),
    }
