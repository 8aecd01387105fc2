"""Facts about the machine a benchmark result was measured on."""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np
import scipy

# Where the benchmark was defined, CPUs could not be pinned and file caches
# could not be dropped; results carry this so no reader assumes otherwise.
ISOLATION = "cpus not pinned; file caches not dropped"


def loadavg() -> list[float]:
    with open("/proc/loadavg") as fh:
        return [float(v) for v in fh.read().split()[:3]]


def _cpu_model() -> str:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _blas() -> tuple[str, int | None]:
    """Name of numpy's BLAS and the size of its thread pool, read from the
    loaded OpenBLAS library; None when the library does not say."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{info.get('name')} {info.get('version')}"
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return name, int(fn())
    return name, None


def facts() -> dict:
    blas, threads = _blas()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "isolation": ISOLATION,
    }
