"""What a BLAS-dependent pin was computed under, and what it runs under.

numpy's OpenBLAS picks its kernels for the CPU at run time
(``OPENBLAS_CORETYPE`` overrides the choice), and a product's rounding
depends on the kernel; NEP 19 promises no ``Generator`` stream stability
across numpy versions either.  So a sha256 pin of a value that passes
through BLAS records the OpenBLAS core and the numpy version it was
computed under, and its failure message names both beside the core and
the version it ran under.  A pin is as strict on every core: the message
only says where it was made.
"""

import ctypes
from pathlib import Path

import numpy as np


def openblas_core() -> str:
    """The OpenBLAS core this process runs, as the loaded library's
    ``scipy_openblas_get_corename64_`` reports it; "unknown" when no
    loaded library has that symbol."""
    try:
        libs = {line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
                if "blas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_char_p
            return fn().decode()
    return "unknown"


def pin_failure(name: str, got: str, want: str, pinned_under: dict) -> str:
    """The message of pin ``name`` reading ``got`` instead of ``want``;
    ``pinned_under`` holds the ``core`` and ``numpy`` it was computed under."""
    return (f"pin {name} reads {got}, not {want}: pinned under OpenBLAS core {pinned_under['core']} "
            f"with numpy {pinned_under['numpy']}, run under core {openblas_core()} with numpy {np.__version__}")
