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


BO_METHODS = (Method.GP_EI, Method.TPE_EI)  # a module constant: Enum attribute lookups are slow


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
    """Run one slot of beam search and report chosen vs. true-best power.

    `warm_index`, if given, is a BO search's first measurement; the sweep and
    random search have none.
    """
    if method in BO_METHODS:
        return track_slot_budgets(env, config, method, (eta,), rng, slot_index, warm_index)[0]
    num_cells = env.rsrp_values.shape[0]
    noise_rng = rng if config.measure_with_noise else None
    t0 = time.perf_counter() if config.collect_timing else 0.0
    if method == Method.ERGODIC:
        cells = np.arange(num_cells)
    else:
        cells = rng.choice(num_cells, size=slot_budget(method, eta, num_cells), replace=False)
    values = measure(env, cells, noise_rng)
    chosen = int(cells[np.argmax(values)])  # first maximum, in measurement order
    elapsed = (time.perf_counter() - t0) if config.collect_timing else 0.0
    return _slot_result(env, slot_index, chosen, len(cells), elapsed)


def track_slot_budgets(env: SlotEnv, config: ExperimentConfig, method: Method,
                       etas: tuple[float, ...], rng: np.random.Generator, slot_index: int = 1,
                       warm_index: int | None = None) -> list[SlotResult]:
    """One BO search of the slot, read at each eta's budget: one result per eta.

    The search runs to the largest budget, and a smaller budget b reads the
    first b measurements: its pick is their first maximum, and its `elapsed`
    runs from the search's start until that pick is made.
    """
    if method not in BO_METHODS:
        raise ValueError(f"{method.value} search is not a BO search and has no shared budgets")
    if not etas:
        raise ValueError("etas is empty: a slot needs at least one overhead")
    num_cells = env.rsrp_values.shape[0]
    if warm_index is not None and not 0 <= warm_index < num_cells:
        raise ValueError(f"warm_index {warm_index} is outside the grid's {num_cells} cells")
    budgets = [slot_budget(method, eta, num_cells) for eta in etas]
    checkpoints = sorted(set(budgets))
    noise_rng = rng if config.measure_with_noise else None
    tables = surrogate.kernel_tables(env.grid.rows, env.grid.cols,  # cached; before the timer
                                     config.gp_length_scale, config.kde_bandwidth)
    if method == Method.GP_EI:  # the first call imports scipy.special: not inside the timer
        acquisition.normal_cdf(0.0)

    clock = time.perf_counter if config.collect_timing else _no_clock
    t0 = clock()
    _, picks = _bo_loop(env, method, config.tpe_gamma, rng, checkpoints, warm_index,
                        noise_rng, tables, clock)
    results = []
    for budget in budgets:
        chosen, used, picked_at = picks[checkpoints.index(budget)]
        results.append(_slot_result(env, slot_index, chosen, used, picked_at - t0))
    return results


def _slot_result(env: SlotEnv, slot_index: int, chosen: int, used: int,
                 elapsed: float) -> SlotResult:
    true_best = int(np.argmax(env.rsrp_values))
    return SlotResult(
        slot_index=slot_index,
        true_best_index=true_best,
        chosen_index=chosen,
        true_best_rsrp=float(env.rsrp_values[true_best]),
        achieved_rsrp=float(env.rsrp_values[chosen]),
        measurements_used=used,
        elapsed=elapsed,
    )


def _no_clock() -> float:
    return 0.0


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
             budgets: list[int], warm_index: int | None,
             noise_rng: np.random.Generator | None, tables: surrogate.KernelTables,
             clock) -> tuple[np.ndarray, list[tuple[int, int, float]]]:
    """Algorithm: one initial codebook entry, then fit -> select -> measure.

    Runs to the last of the ascending `budgets`.  Returns the measured cells
    in measurement order and, per budget b, the first maximum of the first b
    measured powers, how many powers it was picked from and the clock()
    reading once it is picked.  The surrogate is fit on negated dB power so
    that the whole surrogate/acquisition stack minimizes.  The GP factor is
    extended by the new cell at each step instead of refit.
    """
    history = surrogate.ObservationHistory(tables.num_cells)
    values: list[float] = []  # linear power; the history holds the objective
    picks: list[tuple[int, int, float]] = []

    def record(k: int) -> None:
        value = measure(env, k, noise_rng)
        values.append(value)
        history.add(k, -10.0 * math.log10(max(value, 1e-300)))  # -lin_to_db(value), on a scalar

    def pick() -> None:  # first maximum, in measurement order
        picks.append((int(history.cells()[np.argmax(values)]), len(values), clock()))

    first = warm_index if warm_index is not None else int(rng.integers(env.rsrp_values.shape[0]))
    record(first)
    ahead = iter(budgets)
    due = next(ahead)
    gp = None
    for n in range(1, budgets[-1]):  # n measurements so far
        if n == due:
            pick()
            due = next(ahead)
        if method == Method.GP_EI:
            model = gp = surrogate.gp_fit(history, tables, gp)
        else:
            model = surrogate.tpe_fit(history, tables, gamma=gamma)
        # perfbench/spans.py reads the history from this keyword
        record(acquisition.select_next(model, history=history))
    pick()
    return history.cells(), picks


def shares_search(config: ExperimentConfig, method: Method) -> bool:
    """Whether a slot's searches at every budget are prefixes of one search.

    A BO slot without noise or warm start draws from the episode's stream
    once, for its first cell, and each later step depends on the history
    alone; so every budget measures the same cells in the same order and
    leaves the stream in the same state for the next slot.
    """
    return method in BO_METHODS and not (config.measure_with_noise or config.warm_start)


def run_episode(scenario: TrackingScenario, config: ExperimentConfig, method: Method,
                etas: tuple[float, ...], speed: int,
                rng: np.random.Generator) -> list[list[SlotResult]]:
    """One tracking episode per eta in `etas`: `total_slots` slots of mobility
    plus per-slot beam search, the UE starting in a uniformly random cell and
    walking at random, reflected at the grid's edge.

    Several etas share one search per slot, so they need
    `shares_search(config, method)`.  With warm_start the previous slot's
    chosen entry replaces the random initial measurement.
    """
    if not etas:
        raise ValueError("etas is empty: an episode needs at least one overhead")
    if len(etas) > 1 and not shares_search(config, method):
        raise ValueError("only noise-free, cold-start BO episodes share one search per slot")
    grid = scenario.grid
    cell = grid.index_of(int(rng.integers(grid.rows)), int(rng.integers(grid.cols)))
    episodes: list[list[SlotResult]] = [[] for _ in etas]
    warm: int | None = None
    for t in range(1, config.total_slots + 1):
        cell = mobility_step(cell, speed, grid, rng)
        env = build_slot_env(scenario, cell)
        # One eta keeps one track_slot call per slot: perfbench/spans.py traces it.
        if len(etas) == 1:
            slot = [track_slot(env, config, method, etas[0], rng, slot_index=t, warm_index=warm)]
        else:
            slot = track_slot_budgets(env, config, method, etas, rng, slot_index=t)
        if config.warm_start:
            warm = slot[0].chosen_index
        for episode, result in zip(episodes, slot):
            episode.append(result)
    return episodes
