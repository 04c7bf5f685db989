"""Shared start-up for the benchmark scripts: locate the package, pin BLAS
threads, and record the environment a run measured on.

`bootstrap` must run before numpy is imported, because OpenBLAS reads its
thread count once, at load time.
"""

from __future__ import annotations

import glob
import os
import platform
import sys
from pathlib import Path

#: root of the checkout; the package is imported from ``ROOT/src``
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for configs, CSV outputs and span dumps (git-ignored)
WORKDIR = ROOT / ".bench_build" / "perfbench"

#: One BLAS thread: the benchmark host has two cores shared with other
#: tenants, and a single thread keeps run-to-run spread far below the bounds
#: while staying within nproc.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingPackageError(RuntimeError):
    """The checkout does not contain the package sources."""


def bootstrap() -> None:
    """Pin BLAS threads and put the checkout's ``src`` first on sys.path.

    Raises `MissingPackageError` when ``src/mellin_deconv`` is absent, so a
    directory holding only the benchmark never measures some other install.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("bootstrap must run before numpy is imported")
    if not (SRC / "mellin_deconv" / "__init__.py").is_file():
        raise MissingPackageError(f"no package sources under {SRC}")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    WORKDIR.mkdir(parents=True, exist_ok=True)


def _blas_threads_in_use():
    """Ask the OpenBLAS that numpy loaded for its thread count, if reachable."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out


def environment() -> dict:
    """nproc, CPU model and caches, numpy/BLAS versions and BLAS threads."""
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_in_use": _blas_threads_in_use(),
    }
