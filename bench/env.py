"""Process environment of a benchmark run: thread caps, import path, stamp."""

import glob
import hashlib
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# One BLAS thread: the matrices here are small (at most a few hundred rows
# and columns), a second thread made a train step slower on a 2-core
# machine, and one thread keeps float32 sums in a fixed order.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def configure():
    """Cap BLAS/OpenMP threads and put `src/` on the import path.

    Call before numpy is imported. Returns False when the program's source
    is not there.
    """
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not os.path.isfile(os.path.join(SRC, "vem", "__init__.py")):
        return False
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return True


def _nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _git_commit():
    """HEAD's commit; None outside a git checkout or without git."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _src_sha256():
    """Hash of every file under src/vem: the code version when git is absent."""
    h = hashlib.sha256()
    base = os.path.join(SRC, "vem")
    for path in sorted(glob.glob(os.path.join(base, "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, base).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _blas_threads():
    """Threads the BLAS numpy links against will use, or None if unknown."""
    import ctypes

    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def stamp(workload, seed):
    """What ran, where and with which libraries."""
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = _blas_threads()
    cores = _nproc()
    commit = _git_commit()
    return {
        "workload": workload, "seed": seed,
        "git_commit": commit, "src_sha256": None if commit else _src_sha256(),
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads, "nproc": cores,
        "blas_threads_exceed_nproc": threads is not None and threads > cores,
        "machine": platform.machine(),
    }
