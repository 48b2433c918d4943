"""Scalar reference routes the tests compare the vectorised code against.

Each computes one quantity directly from its definition, one phase
configuration at a time, with no caching or batching.
"""

import numpy as np

from ristrack.channel import Vec3
from ristrack.codebook import GridMap


def cell_center(grid: GridMap, k: int) -> Vec3:
    """Centre of cell k by the `GridMap` formula, one coordinate at a time:
    the oracle for the rows of `grid.cell_centers()`."""
    row, col = grid.cell_of(k)
    return Vec3(grid.origin.x + (col + 0.5) * grid.cell_size,
                grid.origin.y + (row + 0.5) * grid.cell_size,
                grid.cell_height)


def rsrp(h: np.ndarray, beta: np.ndarray, H: np.ndarray, z: np.ndarray) -> float:
    """Noiseless received power |h^H W H z|^2, W = diag(exp(j*beta)), for one
    phase configuration `beta` (per-element phases in radians).

    The oracle for the vectorised per-slot powers of `tracker.build_slot_env`;
    noise enters only in the tracker's measurements.
    """
    h = np.asarray(h, dtype=complex)
    H = np.asarray(H, dtype=complex)
    z = np.asarray(z, dtype=complex)
    beta = np.asarray(beta, dtype=float)
    if H.ndim != 2:
        raise ValueError("channel matrix must be 2-D")
    n, m = H.shape
    if h.shape != (n,) or beta.shape != (n,) or z.shape != (m,):
        raise ValueError(
            f"dimension mismatch: h{h.shape}, beta{beta.shape}, H{H.shape}, z{z.shape}"
        )
    return abs(complex(np.sum(h * np.exp(1j * beta) * (H @ z)))) ** 2


def coherent_bound(h: np.ndarray, H: np.ndarray, z: np.ndarray) -> float:
    """Upper bound (sum_i |h_i|*|(Hz)_i|)^2 attained by perfect phase alignment."""
    h = np.asarray(h, dtype=complex)
    forward = np.asarray(H, dtype=complex) @ np.asarray(z, dtype=complex)
    return float(np.sum(np.abs(h) * np.abs(forward))) ** 2
