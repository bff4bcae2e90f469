"""Environment record attached to every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
import sys
import time

import numpy as np

_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _commit(root):
    """Commit of the checkout, read from .git without running git; None
    when the checkout is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _blas():
    info = {}
    try:
        deps = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info = {"name": deps.get("name"), "version": deps.get("version")}
    except (AttributeError, KeyError, TypeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = sorted({
            line.split()[-1] for line in fh
            if "blas" in line.lower() and ".so" in line
        })
    info["libraries"] = libs
    info["threads"] = None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in _BLAS_THREAD_SYMBOLS:
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = int(fn())
                return info
    return info


_PROBE_ROWS = np.random.default_rng(0).random((64, 16))
_PROBE_VEC = np.random.default_rng(1).random(16)


def probe_s():
    """CPU seconds of one run of a fixed loop of small numpy calls made from
    Python, the kind of work the library does, timed on its own thread's
    clock.  Other tenants of a shared host slow it as they slow the
    benchmark, so it tells such drift apart from a change in the program."""
    t0 = time.thread_time()
    acc = 0.0
    for i in range(3000):
        acc += float(np.minimum(_PROBE_ROWS[i & 63], _PROBE_VEC).sum())
    return time.thread_time() - t0


def host_probe_s(repeats=5):
    """Fastest of a few runs of the probe loop at the start of a run."""
    return min(probe_s() for _ in range(repeats))


def environment(root):
    nproc = len(os.sched_getaffinity(0))
    blas = _blas()
    return {
        "commit": _commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": nproc,
        "loadavg_start": os.getloadavg(),
        "host_probe_s": host_probe_s(),
        "process_threads": len(os.listdir("/proc/self/task")),
        "blas_threads_within_nproc": blas["threads"] is None or blas["threads"] <= nproc,
        "argv": sys.argv[1:],
    }
