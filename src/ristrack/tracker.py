"""Per-slot beam search over the codebook and multi-slot tracking episodes.

Each one-second slot freezes the UE in a grid cell, and the base station
must pick a codebook entry using a limited measurement budget.  Four methods
are provided: an exhaustive sweep, uniform random sampling, and two Bayesian
optimization loops (GP + expected improvement, TPE + density-ratio score).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from . import acquisition, surrogate
from .channel import SceneConfig, bs_ris_channel, ris_ue_channel, uniform_transmit_signal
from .codebook import Codebook, GridMap, RisGeometry

if TYPE_CHECKING:
    from .config import ExperimentConfig


class Method(str, Enum):
    ERGODIC = "ergodic"
    RANDOM = "random"
    GP_EI = "gp_ei"
    TPE_EI = "tpe_ei"


def slot_budget(method: Method, eta: float, num_cells: int) -> int:
    """Measurements per slot: the whole codebook for the sweep, else eta of it (at least one)."""
    if method == Method.ERGODIC:
        return num_cells
    return min(max(int(round(eta * num_cells)), 1), num_cells)


_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1))


def mobility_step(cell: int, speed: int, grid: GridMap, rng: np.random.Generator) -> int:
    """The UE's cell after `speed` single-cell moves on the 4-neighborhood.

    Moves that would leave the grid are redrawn; a cell with no valid
    neighbor (1x1 grid) stays put.
    """
    if grid.num_cells == 1:  # on any larger grid every cell has a neighbor
        return cell
    row, col = grid.cell_of(cell)
    for _ in range(speed):
        while True:
            dr, dc = _MOVES[rng.integers(4)]
            if 0 <= row + dr < grid.rows and 0 <= col + dc < grid.cols:
                row, col = row + dr, col + dc
                break
    return row * grid.cols + col


@dataclass(frozen=True)
class SlotResult:
    slot_index: int
    true_best_index: int
    chosen_index: int
    true_best_rsrp: float
    achieved_rsrp: float
    measurements_used: int
    elapsed: float


@dataclass
class TrackingScenario:
    """Immutable per-experiment setup: scene, RIS, grid and codebook, plus the
    two arrays every slot reads, computed once."""

    scene: SceneConfig
    ris: RisGeometry
    grid: GridMap
    codebook: Codebook
    forward: np.ndarray = field(init=False, repr=False)  # H @ z per RIS element, z uniform
    centers: np.ndarray = field(init=False, repr=False)  # (cells, 3) UE position per cell

    def __post_init__(self):
        z = uniform_transmit_signal(self.scene.num_bs_antennas)
        self.forward = bs_ris_channel(self.scene, self.ris) @ z
        self.centers = self.grid.cell_centers()


@dataclass
class SlotEnv:
    """One slot's frozen radio environment, ready for repeated measurements."""

    grid: GridMap
    signals: np.ndarray        # complex received sample per codebook entry
    rsrp_values: np.ndarray    # |signals|^2
    noise_power: float


def build_slot_env(scenario: TrackingScenario, cell: int) -> SlotEnv:
    """The slot's environment with the UE at the centre of grid cell `cell`."""
    if not 0 <= cell < len(scenario.centers):  # a negative index would pick a cell silently
        raise ValueError(f"cell index {cell} out of range")
    h = ris_ue_channel(scenario.scene, scenario.ris, scenario.centers[cell])
    cascade = h * scenario.forward
    signals = scenario.codebook.phasors @ cascade
    return SlotEnv(grid=scenario.grid, signals=signals,
                   rsrp_values=np.abs(signals) ** 2,
                   noise_power=scenario.scene.noise_power_watts)


def track_slot(env: SlotEnv, config: ExperimentConfig, method: Method, eta: float,
               rng: np.random.Generator, slot_index: int = 1,
               warm_index: int | None = None) -> SlotResult:
    """Run one slot of beam search and report chosen vs. true-best power."""
    num_cells = env.rsrp_values.shape[0]
    budget = slot_budget(method, eta, num_cells)
    true_best = int(np.argmax(env.rsrp_values))

    noise_rng = rng if config.measure_with_noise else None
    tables = None
    if method in (Method.GP_EI, Method.TPE_EI):  # cached; looked up before the timer
        tables = surrogate.kernel_tables(env.grid.rows, env.grid.cols,
                                         config.gp_length_scale, config.kde_bandwidth)

    t0 = time.perf_counter() if config.collect_timing else 0.0

    if method == Method.ERGODIC:
        cells = np.arange(num_cells)
        values = measure(env, cells, noise_rng)
    elif method == Method.RANDOM:
        cells = rng.choice(num_cells, size=budget, replace=False)
        values = measure(env, cells, noise_rng)
    else:
        cells, values = _bo_loop(env, method, config.tpe_gamma, rng, budget, warm_index,
                                 noise_rng, tables)

    chosen = int(cells[np.argmax(values)])  # first maximum, in measurement order
    elapsed = (time.perf_counter() - t0) if config.collect_timing else 0.0

    return SlotResult(
        slot_index=slot_index,
        true_best_index=true_best,
        chosen_index=chosen,
        true_best_rsrp=float(env.rsrp_values[true_best]),
        achieved_rsrp=float(env.rsrp_values[chosen]),
        measurements_used=len(cells),
        elapsed=elapsed,
    )


def measure(env: SlotEnv, cells, noise_rng: np.random.Generator | None = None):
    """Power the UE reports on codebook entries `cells` (an index or an index array).

    Without `noise_rng` this is the exact RSRP.  With it, each measurement is
    |s + n|^2 with n ~ CN(0, noise_power), all drawn in one normal call of
    shape cells.shape + (2,): per cell the real part, then the imaginary part.
    That is the stream of two scalar draws per cell in measurement order.
    """
    if noise_rng is None:
        return env.rsrp_values[cells]
    sigma = float(np.sqrt(env.noise_power / 2.0))
    noise = noise_rng.normal(0.0, sigma, size=np.shape(cells) + (2,)).view(complex)[..., 0]
    noise += env.signals[cells]
    return np.abs(noise) ** 2


def _bo_loop(env: SlotEnv, method: Method, gamma: float, rng: np.random.Generator,
             budget: int, warm_index: int | None, noise_rng: np.random.Generator | None,
             tables: surrogate.KernelTables) -> tuple[np.ndarray, list[float]]:
    """Algorithm: one initial codebook entry, then fit -> select -> measure.

    Returns the measured cells and their measured powers, in measurement
    order.  The surrogate is fit on negated dB power so that the whole
    surrogate/acquisition stack minimizes.  The GP factor is extended by the
    new cell at each step instead of refit.
    """
    history = surrogate.ObservationHistory(tables.num_cells)
    values: list[float] = []  # linear power; the history holds the objective

    def record(k: int) -> None:
        value = measure(env, k, noise_rng)
        values.append(value)
        history.add(k, -10.0 * math.log10(max(value, 1e-300)))  # -lin_to_db(value), on a scalar

    first = warm_index if warm_index is not None else int(rng.integers(env.rsrp_values.shape[0]))
    record(first)
    gp = None
    for _ in range(budget - 1):
        if method == Method.GP_EI:
            model = gp = surrogate.gp_fit(history, tables, gp)
        else:
            model = surrogate.tpe_fit(history, tables, gamma=gamma)
        # perfbench/spans.py reads the history from this keyword
        record(acquisition.select_next(model, history=history))
    return history.cells(), values


def run_episode(scenario: TrackingScenario, config: ExperimentConfig, method: Method,
                eta: float, speed: int, rng: np.random.Generator) -> list[SlotResult]:
    """One tracking episode: `total_slots` slots of mobility + per-slot beam search.

    The UE starts in a uniformly random cell and performs a reflecting random
    walk.  With warm_start the previous slot's chosen entry replaces the
    random initial measurement.
    """
    grid = scenario.grid
    cell = grid.index_of(int(rng.integers(grid.rows)), int(rng.integers(grid.cols)))
    results: list[SlotResult] = []
    prev_chosen: int | None = None
    for t in range(1, config.total_slots + 1):
        cell = mobility_step(cell, speed, grid, rng)
        env = build_slot_env(scenario, cell)
        warm = prev_chosen if config.warm_start else None
        result = track_slot(env, config, method, eta, rng, slot_index=t, warm_index=warm)
        results.append(result)
        prev_chosen = result.chosen_index
    return results
