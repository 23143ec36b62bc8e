"""BLAS thread pinning and the environment block of every benchmark result.

OpenBLAS reads its thread count once, when the library loads, so the pin
variables must be in the environment before numpy (or scipy) is first
imported. Unpinned runs on a small machine time thousands of tiny BLAS calls
fighting over cores, which measures the scheduler rather than the program.
This module imports nothing heavy at module level for that reason.
"""

import ctypes
import glob
import os
import platform
import sys

PIN_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINNED_THREADS = "1"


class UnpinnedError(RuntimeError):
    """BLAS threads could not be pinned, or a library runs with more threads."""


def pin_blas_threads():
    """Set every pin variable to one thread; refuse if numpy is already loaded.

    Setting the variables after numpy was imported would leave the loaded
    BLAS at its default thread count while the environment claims otherwise.
    """
    unpinned = [name for name in PIN_VARIABLES if os.environ.get(name) != PINNED_THREADS]
    if unpinned and ("numpy" in sys.modules or "scipy" in sys.modules):
        raise UnpinnedError(
            "numpy was imported before the BLAS thread variables were set "
            f"({', '.join(unpinned)} not {PINNED_THREADS}); timings would measure "
            "thread oversubscription, not the program. Set them before importing "
            "numpy, or start the benchmark through its run.py."
        )
    for name in PIN_VARIABLES:
        os.environ[name] = PINNED_THREADS


def _openblas_threads(package, symbol):
    """Thread count reported by the OpenBLAS copy a wheel bundles, or None.

    The library is opened by the same path the package loaded it from, so
    the dynamic loader hands back the already-initialised instance.
    """
    site = os.path.dirname(os.path.dirname(package.__file__))
    libs = sorted(glob.glob(os.path.join(site, package.__name__ + ".libs", "libscipy_openblas*.so")))
    if not libs:
        return None
    try:
        func = getattr(ctypes.CDLL(libs[0]), symbol)
    except (OSError, AttributeError):
        return None
    func.argtypes = []
    func.restype = ctypes.c_int
    return int(func())


def environment():
    """Versions, core count and BLAS threads, for the result file.

    Raises UnpinnedError when a bundled OpenBLAS reports more than one
    thread, which happens when the pin came too late.
    """
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    measured = {
        "numpy": _openblas_threads(numpy, "scipy_openblas_get_num_threads64_"),
        "scipy": _openblas_threads(scipy, "scipy_openblas_get_num_threads"),
    }
    for owner, threads in measured.items():
        if threads is not None and threads != int(PINNED_THREADS):
            raise UnpinnedError(
                f"{owner}'s OpenBLAS runs {threads} threads although "
                f"{PINNED_THREADS} was requested; the pin came after it loaded"
            )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads_pinned": int(PINNED_THREADS),
        "blas_threads_env": {name: os.environ.get(name) for name in PIN_VARIABLES},
        "blas_threads_measured": measured,
    }
