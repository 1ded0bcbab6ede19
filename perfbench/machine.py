"""Machine record attached to every result: CPU, caches, library versions and
the BLAS thread count actually in effect."""
from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "MBLASER_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


#: One BLAS thread (at most nproc).  With two, OpenBLAS made pump-scan ops
#: 1.6x slower and bimodal on a 2-core shared KVM guest; the workloads' BLAS
#: calls are small solves and eigenproblems, which gain little from a second
#: thread.
BLAS_THREADS = 1


def pin_blas_threads() -> int:
    """Set the BLAS thread count; must run before numpy is imported."""
    n = min(BLAS_THREADS, nproc())
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(n)
    return n


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level}{kind[0].lower()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


def _openblas():
    """(config string, threads) from the OpenBLAS numpy has loaded, if any."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None, None
    paths = sorted({line.split()[-1] for line in maps
                    if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is None or get_config is None:
                continue
            get_threads.restype = ctypes.c_int
            get_threads.argtypes = []
            get_config.restype = ctypes.c_char_p
            get_config.argtypes = []
            return get_config().decode(), int(get_threads())
    return None, None


def machine_record() -> dict:
    import numpy
    import scipy

    config, threads = _openblas()
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": config,
        "blas_threads": threads,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }
