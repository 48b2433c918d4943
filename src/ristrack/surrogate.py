"""Probabilistic models over the discrete cell grid.

Two surrogates drive the beam search: a zero-mean Gaussian process with an
RBF kernel, and a two-density Parzen estimator that splits the history at a
quantile threshold.  Both work on integer cell indices (row-major) and on
minimization-oriented objective values: the tracking loop feeds them negated
dB power, so lower is always better here.

The domain is a fixed grid and the kernel hyperparameters are fixed per run,
so every kernel value either model needs comes from `KernelTables`, built
once per (grid shape, length scale, bandwidth).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_LENGTH_SCALE = 2.0   # grid units
DEFAULT_GAMMA = 0.25
DEFAULT_BANDWIDTH = 1.0      # grid units
JITTER_SCALE = 1e-6


class GpConditioningError(RuntimeError):
    """Kernel matrix factorization failed; increase jitter or drop points."""


class DuplicatePointError(ValueError):
    """A grid cell was measured twice within one slot's history."""


@dataclass(frozen=True, eq=False)
class KernelTables:
    """Read-only per-grid tables: cell coordinates and both kernels on all cell pairs."""

    coords: np.ndarray   # (N, 2) float (row, col) of each cell, row-major
    corr: np.ndarray     # (N, N) RBF correlation exp(-|a-b|^2 / length_scale^2)
    parzen: np.ndarray   # (N, N) Parzen kernel exp(-|a-b|^2 / (2 bandwidth^2))

    @property
    def num_cells(self) -> int:
        return self.coords.shape[0]


@functools.lru_cache(maxsize=16)
def kernel_tables(rows: int, cols: int, length_scale: float = DEFAULT_LENGTH_SCALE,
                  bandwidth: float = DEFAULT_BANDWIDTH) -> KernelTables:
    """Tables for a rows x cols grid, cached: callers share one read-only copy."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs at least one cell")
    if not 0.0 < length_scale < math.inf:
        raise ValueError(f"length_scale must be positive and finite, got {length_scale}")
    if not 0.0 < bandwidth < math.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
    idx = np.arange(rows * cols)
    coords = np.stack([idx // cols, idx % cols], axis=1).astype(float)
    corr = np.exp(-_sq_distances(coords) / length_scale ** 2)
    parzen = np.exp(-0.5 * _sq_distances(coords / bandwidth))
    for table in (coords, corr, parzen):
        table.flags.writeable = False
    return KernelTables(coords=coords, corr=corr, parzen=parzen)


def _sq_distances(points: np.ndarray) -> np.ndarray:
    """All pairwise squared distances of the rows of `points`: cdist's
    "sqeuclidean" bit for bit (same summation order), without scipy.spatial."""
    d = points[:, None, :] - points[None, :, :]
    return (d * d).sum(-1)


class ObservationHistory:
    """Chronological (cell, value) record of one slot's measurements."""

    def __init__(self, num_cells: int):
        self._cells = np.empty(num_cells, dtype=np.intp)
        self._values = np.empty(num_cells, dtype=float)
        self.seen = np.zeros(num_cells, dtype=bool)
        self.best = math.inf  # values().min() once a value is added, NaN included
        self._n = 0

    def add(self, cell: int, value: float) -> None:
        if self.seen[cell]:
            raise DuplicatePointError(f"cell {cell} already measured this slot")
        self.seen[cell] = True
        self._cells[self._n] = cell
        self._values[self._n] = value
        if value < self.best or value != value:
            self.best = value
        self._n += 1

    def __len__(self) -> int:
        return self._n

    def cells(self) -> np.ndarray:
        return self._cells[:self._n]

    def values(self) -> np.ndarray:
        return self._values[:self._n]


@dataclass(eq=False)
class GpModel:
    """Zero-mean GP with kernel theta1 * (corr + 1e-6 I) on the measured cells S.

    With jitter proportional to theta1 the posterior mean does not depend on
    theta1 and the variance is theta1 times a theta1-free term, so the factor
    of the correlation part, L L^T = corr[S, S] + 1e-6 I, is grown one row per
    measurement (GPML Alg. 2.1).  The model keeps w = L^-1 corr[S, :],
    beta = L^-1 y, w_sq = the column sums of w**2 and mean = beta @ w, the
    posterior mean on every cell; only the first n rows of w and beta are in
    use.  L is not stored: its row i is w[:i, c_i] with diagonal
    sqrt(1 + 1e-6 - sum(w[:i, c_i]**2)), c_i the i-th measured cell.
    """

    tables: KernelTables = field(repr=False)
    theta1: float = field(default=0.0, init=False)
    n: int = field(default=0, init=False)
    w: np.ndarray = field(init=False, repr=False)
    beta: np.ndarray = field(init=False, repr=False)
    w_sq: np.ndarray = field(init=False, repr=False)
    mean: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        size = self.tables.num_cells
        self.w = np.empty((size, size))
        self.beta = np.empty(size)
        self.w_sq = np.zeros(size)
        self.mean = np.zeros(size)

    @property
    def jitter(self) -> float:
        return JITTER_SCALE * self.theta1

    def _append(self, cell: int, value: float) -> None:
        n = self.n
        row = self.w[:n, cell]  # new row of L: L^-1 corr[S, cell]
        pivot_sq = 1.0 + JITTER_SCALE - self.w_sq[cell]
        if not pivot_sq > 0.0:
            raise GpConditioningError(f"kernel matrix not positive definite: pivot^2 = {pivot_sq}")
        pivot = math.sqrt(pivot_sq)
        w_new = self.w[n]
        # np.dot: the BLAS call of `@` without the matmul ufunc's dispatch
        np.subtract(self.tables.corr[cell], np.dot(row, self.w[:n]), out=w_new)
        w_new /= pivot
        beta = self.beta[n] = (value - np.dot(row, self.beta[:n])) / pivot
        self.w_sq += w_new * w_new
        self.mean += beta * w_new
        self.n = n + 1


def gp_fit(history: ObservationHistory, tables: KernelTables,
           model: GpModel | None = None) -> GpModel:
    """Extend `model` (a new one if None) to every cell of `history`.

    `model` must have been fitted to a prefix of this same history.  theta1 is
    the empirical variance of all observed values, refit on every call; the
    length scale is the tables'.  Raises GpConditioningError if a new pivot
    of the factor is not positive.
    """
    n = len(history)
    if n == 0:
        raise ValueError("cannot fit a GP to an empty history")
    if model is None:
        model = GpModel(tables)
    elif model.n > n or model.tables is not tables:
        raise ValueError("model was not fitted to a prefix of this history")
    cells, y = history.cells(), history.values()
    for i in range(model.n, n):
        model._append(int(cells[i]), float(y[i]))
    centered = y - np.add.reduce(y) / n  # bit-identical to y - y.mean()
    model.theta1 = max(float(np.dot(centered, centered)) / n, 1e-12)
    return model


def gp_posterior(model: GpModel, cells=None) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at the given cell indices (default: every cell).

    Both are new arrays; writing to them leaves the model unchanged.

    Variance is clamped at zero; anything below -1e-10 before clamping is a
    numerical fault and raises.
    """
    if cells is None:
        mean, w_sq = model.mean.copy(), model.w_sq
    else:
        mean, w_sq = model.mean[cells], model.w_sq[cells]
    var = model.theta1 * (1.0 - w_sq)
    # np.minimum propagates NaN: only a negative or NaN entry needs the check and clamp
    if not np.minimum.reduce(var, axis=None, initial=np.inf) >= 0.0:
        lowest = np.fmin.reduce(var, axis=None, initial=0.0)  # skips NaN
        if lowest < -1e-10:
            raise GpConditioningError(f"negative posterior variance: {lowest}")
        var = np.maximum(var, 0.0)
    return mean, var


@dataclass(eq=False)
class TpeModel:
    """Two-density Parzen model split at the gamma-quantile of the history."""

    gamma: float
    threshold: float
    good_cells: np.ndarray
    bad_cells: np.ndarray
    l: np.ndarray = field(repr=False)  # good density on every cell, sums to one
    g: np.ndarray = field(repr=False)  # bad density on every cell, sums to one
    good_uniform: bool = False
    bad_uniform: bool = False


def _parzen_density(kernel: np.ndarray) -> tuple[np.ndarray, bool]:
    """Parzen mixture of the columns of `kernel` (num_cells, k), normalized over
    the grid; uniform if k = 0."""
    num_cells, k = kernel.shape
    if k == 0:
        return np.full(num_cells, 1.0 / num_cells), True
    raw = np.add.reduce(kernel, axis=1) / k  # kernel.mean(axis=1) bit for bit, without its dispatch
    raw /= np.add.reduce(raw)
    return raw, False


def tpe_fit(history: ObservationHistory, tables: KernelTables,
            gamma: float = DEFAULT_GAMMA) -> TpeModel:
    """Split the history at the gamma-quantile and fit the l/g densities.

    The best ceil(gamma*n) observations (lowest values; ties broken
    chronologically) form the good density l, the rest form g.  Each density
    is a Gaussian Parzen mixture (bandwidth of the tables) normalized over the
    grid; an empty side falls back to the uniform density and is flagged.
    """
    n = len(history)
    if n < 1:
        raise ValueError("cannot fit TPE to an empty history")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be in (0, 1)")
    values = history.values()
    order = values.argsort(kind="stable")
    n_good = math.ceil(gamma * n)
    ranked = history.cells()[order]
    # One C-ordered gather: each row of either side is contiguous, so its sum
    # runs in the order of a fresh (num_cells, side size) kernel matrix.
    kernel = tables.parzen.take(ranked, axis=1)
    l, good_uniform = _parzen_density(kernel[:, :n_good])
    g, bad_uniform = _parzen_density(kernel[:, n_good:])
    return TpeModel(gamma=gamma, threshold=float(values[order[n_good - 1]]),
                    good_cells=ranked[:n_good], bad_cells=ranked[n_good:], l=l, g=g,
                    good_uniform=good_uniform, bad_uniform=bad_uniform)
