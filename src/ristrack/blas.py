"""BLAS thread control for the beam search.

The search's BLAS calls are small matrix-vector products: per slot one
(cells x N) complex product for the power of every codeword, and per GP
step one vector times an (n x cells) block to extend the factor; there is
no solve.  At that size a second thread buys nothing.  On a 2-core machine
(10-epoch cells, one- and two-thread repeats alternating in one process,
medians of 8 and of 16 pairs) two threads changed the time of ergodic cells
by -1% and +6%, of random cells by +3% to +16%, and of GP-EI and TPE-EI
cells by -8% to +9% with no consistent sign.

`single_threaded_blas` runs a block with the OpenBLAS copies bundled in the
numpy and scipy wheels on one thread and puts the previous counts back.
The standard OPENBLAS_NUM_THREADS and OMP_NUM_THREADS variables override
it: when either is set, the counts are left as found.  Where no bundled
copy is found (say, numpy built against a system BLAS) the scope does
nothing.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# Package whose wheel bundles an OpenBLAS, and the suffix of that copy's
# runtime thread API (numpy's copy uses 64-bit integers and suffixed symbols).
BUNDLED_OPENBLAS = (("numpy", "64_"), ("scipy", ""))


@dataclass(frozen=True)
class OpenblasThreads:
    """Runtime thread-count getter and setter of one OpenBLAS copy."""

    library: str
    get: Callable[[], int]
    set: Callable[[int], None]


def _package_libs(package: str) -> list[Path]:
    """OpenBLAS files shipped in a wheel's library folder (Linux/Windows, macOS)."""
    root = Path(importlib.import_module(package).__file__).parent
    folders = (root.parent / f"{package}.libs", root / ".dylibs")
    return sorted(p for folder in folders if folder.is_dir()
                  for p in folder.glob("*openblas*"))


@functools.cache
def bundled_openblas() -> tuple[OpenblasThreads, ...]:
    """Thread controls of every bundled OpenBLAS copy found; empty if none."""
    found = []
    for package, suffix in BUNDLED_OPENBLAS:
        for path in _package_libs(package):
            try:
                lib = ctypes.CDLL(str(path))
                getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            found.append(OpenblasThreads(path.name, getter, setter))
    return tuple(found)


@contextmanager
def single_threaded_blas():
    """Run the block on one BLAS thread; restore the previous counts on exit.

    Costs two calls per copy, so enter it once per run, not per slot.
    """
    if any(os.environ.get(var) for var in THREAD_ENV_VARS):
        yield
        return
    controls = bundled_openblas()
    previous = [c.get() for c in controls]
    for c in controls:
        c.set(1)
    try:
        yield
    finally:
        for c, count in zip(controls, previous):
            c.set(count)
