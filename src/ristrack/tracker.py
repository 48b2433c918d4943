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


@dataclass(eq=False)
class TrackingScenario:
    """Per-experiment setup: scene, RIS, grid and codebook, the arrays every
    slot reads, computed once, and a table of slot environments.

    The UE always sits at a cell centre, so a run has one slot environment
    per cell: row k of `signals` is every codeword's received sample with
    the UE in cell k, `rsrp` its |.|^2 and `true_best[k]` that row's first
    maximum.  A row is built on the first read of its cell (`fill`), so
    setup makes no channel call, with the per-row product
    phasors @ (ris_ue_channel(centre) * forward): one product over all
    cells sums in another order, and an ulp can flip a pick.  `true_best`
    is -1 for a row not built yet.  The tables are read-only outside `fill`.
    """

    scene: SceneConfig
    ris: RisGeometry
    grid: GridMap
    codebook: Codebook
    forward: np.ndarray = field(init=False, repr=False)  # H @ z per RIS element, z uniform
    centers: np.ndarray = field(init=False, repr=False)  # (cells, 3) UE position per cell
    noise_power: float = field(init=False)  # W, the variance of a noisy measurement's noise
    signals: np.ndarray = field(init=False, repr=False)    # (cells, codewords) complex
    rsrp: np.ndarray = field(init=False, repr=False)       # (cells, codewords) |signals|^2
    true_best: np.ndarray = field(init=False, repr=False)  # (cells,) first maximum of rsrp

    def __post_init__(self):
        z = uniform_transmit_signal(self.scene.num_bs_antennas)
        self.forward = bs_ris_channel(self.scene, self.ris) @ z
        self.centers = self.grid.cell_centers()
        self.noise_power = self.scene.noise_power_watts
        shape = (len(self.centers), len(self.codebook))
        self.signals = np.empty(shape, dtype=complex)
        self.rsrp = np.empty(shape)
        self.signals.flags.writeable = self.rsrp.flags.writeable = False
        self.true_best = np.full(shape[0], -1, dtype=np.intp)

    def fill(self, cells) -> None:
        """Build the table rows of the cells in `cells` that are not built yet."""
        for cell in cells:
            if not 0 <= cell < len(self.true_best):  # numpy would read -1 from the other end
                raise ValueError(f"cell index {cell} out of range")
            if self.true_best[cell] < 0:
                h = ris_ue_channel(self.scene, self.ris, self.centers[cell])
                signals = self.codebook.phasors @ (h * self.forward)
                rsrp = np.abs(signals) ** 2
                for table, row in ((self.signals, signals), (self.rsrp, rsrp)):
                    table.flags.writeable = True
                    table[cell] = row
                    table.flags.writeable = False
                self.true_best[cell] = np.argmax(rsrp)


@dataclass
class SlotEnv:
    """One slot's frozen radio environment, ready for repeated measurements."""

    grid: GridMap
    signals: np.ndarray        # complex received sample per codebook entry
    rsrp_values: np.ndarray    # |signals|^2
    noise_power: float
    true_best: int | None = None  # first maximum of rsrp_values; computed if not given

    def __post_init__(self):
        if self.true_best is None:
            self.true_best = int(np.argmax(self.rsrp_values))


def build_slot_env(scenario: TrackingScenario, cell: int) -> SlotEnv:
    """The slot's environment with the UE at the centre of grid cell `cell`:
    read-only views of the cell's table row, built if this is its first read."""
    scenario.fill((cell,))
    return SlotEnv(grid=scenario.grid, signals=scenario.signals[cell],
                   rsrp_values=scenario.rsrp[cell], noise_power=scenario.noise_power,
                   true_best=int(scenario.true_best[cell]))


def track_slot(env: SlotEnv, config: ExperimentConfig, method: Method, eta: float,
               rng: np.random.Generator, slot_index: int = 1) -> SlotResult:
    """Run one slot of the sweep or random search and report chosen vs.
    true-best power.  BO slots are searched as lanes (`search_episodes`)."""
    if method in BO_METHODS:
        raise ValueError(f"{method.value} slots are searched as lanes by search_episodes")
    num_cells = env.rsrp_values.shape[0]
    budget = slot_budget(method, eta, num_cells)
    t0 = time.perf_counter() if config.collect_timing else 0.0
    if method == Method.ERGODIC:
        cells = np.arange(num_cells)
    else:
        cells = rng.choice(num_cells, size=budget, replace=False)
    values = measure(env, cells, rng if config.measure_with_noise else None)
    chosen = int(cells[values.argmax()])  # first maximum, in measurement order
    elapsed = (time.perf_counter() - t0) if config.collect_timing else 0.0
    return _slot_result(env.rsrp_values, env.true_best, slot_index, chosen, budget, elapsed)


def _slot_result(rsrp: np.ndarray, true_best: int, slot_index: int, chosen: int, used: int,
                 elapsed: float) -> SlotResult:
    return SlotResult(
        slot_index=slot_index,
        true_best_index=true_best,
        chosen_index=chosen,
        true_best_rsrp=float(rsrp[true_best]),
        achieved_rsrp=float(rsrp[chosen]),
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


LANE_CAP = 48  # lanes per lockstep chunk: bounds the (lanes, budget, cells) GP factor


@dataclass(frozen=True, eq=False)
class LaneSearch:
    """What `search_lanes` found: per budget (in the order asked) and lane."""

    chosen: np.ndarray   # (budgets, lanes) cell picked at each budget
    elapsed: np.ndarray  # (budgets, lanes) chunk seconds to the pick / lanes in the chunk
    cells: np.ndarray    # (lanes, largest budget) measured cells in measurement order
    steps: int           # lane-steps run: one fit and one pick per lane and step


def search_lanes(rsrp: np.ndarray, first: np.ndarray, method: Method,
                 budgets: tuple[int, ...], tables: surrogate.KernelTables, gamma: float,
                 clock=_no_clock, signals: np.ndarray | None = None,
                 noise: np.ndarray | None = None) -> LaneSearch:
    """BO searches of many slots, in lockstep: per step, one fit, pick and
    measurement in every lane.

    Lane l searches the slot whose exact powers are `rsrp[l]`, starting from
    cell `first[l]`.  Every fit and score is the arithmetic of `gp_fit` or
    `tpe_fit` and `select_next` on the lane's own history (negated dB power,
    minimized), stacked along a leading lane axis with the same BLAS calls
    and summation orders, so no pick moves.  The search runs to the largest
    budget, and budget b reads the first b measurements: its pick is their
    first maximum.  Lanes run in chunks of LANE_CAP; a lane's time to a pick
    is its chunk's time, divided by the chunk's lanes.  `clock` times the
    chunks (by default every time is 0).  With `noise` (lanes, largest
    budget) complex, lane l's n-th measurement, of cell k, reads
    |signals[l, k] + noise[l, n]|^2 in place of rsrp[l, k]: `measure`'s
    arithmetic on noise drawn before the search.
    """
    if method not in BO_METHODS:
        raise ValueError(f"{method.value} search is not a BO search and has no lanes")
    if not budgets:
        raise ValueError("budgets is empty: a search needs at least one")
    lanes, num_cells = rsrp.shape
    if num_cells != tables.num_cells or not 1 <= min(budgets) <= max(budgets) <= num_cells:
        raise ValueError(f"budgets {budgets} do not fit the grid's {tables.num_cells} cells")
    first = np.asarray(first, dtype=np.intp)
    if first.shape != (lanes,) or not ((0 <= first) & (first < num_cells)).all():
        raise ValueError(f"first cells must be {lanes} indices of the grid's {num_cells} cells")
    checkpoints = sorted(set(budgets))
    noise_shape = (lanes, checkpoints[-1])
    if noise is not None and (np.shape(signals), noise.shape) != (rsrp.shape, noise_shape):
        raise ValueError(f"signals and noise must be {rsrp.shape} and {noise_shape}")
    chosen = np.empty((len(checkpoints), lanes), dtype=np.intp)
    elapsed = np.zeros((len(checkpoints), lanes))
    cells = np.empty((lanes, checkpoints[-1]), dtype=np.intp)
    steps = 0
    for lo in range(0, lanes, LANE_CAP):
        part = slice(lo, lo + LANE_CAP)
        noisy = None if noise is None else (signals[part], noise[part])
        steps += _search_chunk(rsrp[part], first[part], method, checkpoints, tables, gamma,
                               clock, noisy, chosen[:, part], elapsed[:, part], cells[part])
    rows = [checkpoints.index(b) for b in budgets]
    return LaneSearch(chosen=chosen[rows], elapsed=elapsed[rows], cells=cells, steps=steps)


def _search_chunk(rsrp: np.ndarray, first: np.ndarray, method: Method, checkpoints: list[int],
                  tables: surrogate.KernelTables, gamma: float, clock, noisy,
                  chosen: np.ndarray, elapsed: np.ndarray, cells: np.ndarray) -> int:
    """One chunk of `search_lanes`: fills its lanes' part of chosen, elapsed
    and cells; returns its lane-steps.  `noisy` is None or the chunk's
    (signals, noise)."""
    lanes, num_cells = rsrp.shape
    top = checkpoints[-1]
    lane = np.arange(lanes)
    values = np.empty((lanes, top))  # linear power, in measurement order
    y = np.empty((lanes, top))       # the objective, negated dB power
    seen = np.zeros((lanes, num_cells), dtype=bool)
    best = np.full(lanes, np.inf)
    gp = _GpLanes(lanes, top, tables) if method == Method.GP_EI else None

    def record(n: int, new: np.ndarray) -> None:
        cells[:, n] = new
        seen[lane, new] = True
        if noisy is None:
            values[:, n] = rsrp[lane, new]
        else:
            signals, noise = noisy
            values[:, n] = np.abs(signals[lane, new] + noise[:, n]) ** 2
        y[:, n] = [-10.0 * math.log10(max(v, 1e-300)) for v in values[:, n].tolist()]
        np.minimum(best, y[:, n], out=best)  # propagates NaN as ObservationHistory.best does

    t0 = clock()
    record(0, first)
    due = steps = 0
    for n in range(1, top + 1):  # n measurements so far
        if n == checkpoints[due]:  # first maximum, in measurement order
            chosen[due] = cells[lane, values[:, :n].argmax(axis=1)]
            elapsed[due] = (clock() - t0) / lanes
            due += 1
            if n == top:
                break
        if gp is not None:
            gp.append(n - 1, cells[:, n - 1], y[:, n - 1])
            new = gp.select(y[:, :n], seen, best)
        else:
            new = _tpe_select(y[:, :n], cells[:, :n], seen, tables.parzen, gamma)
        record(n, new)
        steps += lanes
    return steps


class _GpLanes:
    """`surrogate.GpModel` stacked over lanes: factor rows w (lanes, budget,
    cells), beta, w_sq and the posterior mean, grown one row per step."""

    def __init__(self, lanes: int, top: int, tables: surrogate.KernelTables):
        num_cells = tables.num_cells
        self.corr = tables.corr
        self.lane = np.arange(lanes)
        self.w = np.empty((lanes, top, num_cells))
        self.beta = np.empty((lanes, top, 1))
        self.w_sq = np.zeros((lanes, num_cells))
        self.mean = np.zeros((lanes, num_cells))
        # GpModel dots a strided factor column, and OpenBLAS sums a strided
        # vector in another order than a contiguous one: the gathered column
        # goes to a buffer with the same non-unit stride.
        self._column = np.empty((lanes, 1, top, 2))

    def append(self, i: int, cell: np.ndarray, value: np.ndarray) -> None:
        """GpModel._append of each lane's i-th measurement."""
        column = self._column[:, :, :i, 0]
        column[:, 0] = self.w[self.lane, :i, cell]
        pivot_sq = 1.0 + surrogate.JITTER_SCALE - self.w_sq[self.lane, cell]
        if not (pivot_sq > 0.0).all():
            raise surrogate.GpConditioningError(
                f"kernel matrix not positive definite: pivot^2 = {pivot_sq.min()}")
        pivot = np.sqrt(pivot_sq)
        w_new = self.w[:, i]
        np.subtract(self.corr[cell], np.matmul(column, self.w[:, :i])[:, 0], out=w_new)
        w_new /= pivot[:, None]
        beta = (value - np.matmul(column, self.beta[:, :i])[:, 0, 0]) / pivot
        self.beta[:, i, 0] = beta
        self.w_sq += w_new * w_new
        self.mean += beta[:, None] * w_new

    def select(self, y: np.ndarray, seen: np.ndarray, best: np.ndarray) -> np.ndarray:
        """select_next's expected-improvement pick per lane, on gp_fit's theta1."""
        lanes, n = y.shape
        centered = y - np.add.reduce(y, axis=1, keepdims=True) / n
        theta1 = np.matmul(centered[:, None], centered[:, :, None])[:, 0] / n
        np.maximum(theta1, 1e-12, out=theta1)
        remaining = np.flatnonzero(~seen).reshape(lanes, -1)  # flat (lane, cell) indices
        mean = self.mean.take(remaining)
        var = theta1 * (1.0 - self.w_sq.take(remaining))
        lowest = np.fmin.reduce(var, axis=None, initial=0.0)  # gp_posterior's check; skips NaN
        if lowest < -1e-10:
            raise surrogate.GpConditioningError(f"negative posterior variance: {lowest}")
        scores = acquisition.expected_improvement(mean, var, best[:, None])
        return remaining[self.lane, scores.argmax(axis=1)] - self.lane * seen.shape[1]


def _tpe_select(y: np.ndarray, cells: np.ndarray, seen: np.ndarray, parzen: np.ndarray,
                gamma: float) -> np.ndarray:
    """tpe_fit and select_next's density-ratio pick per lane.

    The Parzen table is symmetric bit for bit, so one row gather (n, lanes,
    cells) in rank order holds tpe_fit's column gather, each lane's kernel
    columns as rows."""
    n = y.shape[1]
    ranked = cells[np.arange(len(cells))[:, None], y.argsort(axis=1, kind="stable")]
    n_good = math.ceil(gamma * n)
    rows = parzen.take(ranked.T, axis=0)
    scores = acquisition._density_ratio(_lane_density(rows[:n_good]),
                                        _lane_density(rows[n_good:]))
    scores[seen] = -np.inf
    return scores.argmax(axis=1)


def _lane_density(rows: np.ndarray) -> np.ndarray:
    """surrogate._parzen_density per lane of the kernel rows `rows` (k,
    lanes, cells): (lanes, cells), summed in `_pairwise_sum`'s order and
    normalized along a contiguous row, the per-slot summation orders."""
    k, lanes, num_cells = rows.shape
    if k == 0:
        return np.full((lanes, num_cells), 1.0 / num_cells)
    raw = _pairwise_sum(rows)
    raw /= k
    raw /= np.add.reduce(raw, axis=1, keepdims=True)
    return raw


def _pairwise_sum(rows: np.ndarray) -> np.ndarray:
    """The sum of `rows` over its leading axis, added in the order numpy's
    pairwise summation adds a contiguous axis of the same length, so each
    entry equals np.add.reduce of its terms laid out contiguously: fewer
    than 8 terms in sequence, up to 128 in eight strided accumulators joined
    as a tree with the rest added in order, and more split in two at a
    multiple of 8.  A reduce over a leading axis adds its rows in sequence."""
    n = len(rows)
    if n < 8:
        return np.add.reduce(rows, axis=0)
    if n <= 128:
        m = n - n % 8
        r = np.add.reduce(rows[:m].reshape(m // 8, 8, *rows.shape[1:]), axis=0)
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for row in rows[m:]:
            total += row
        return total
    half = n // 2 - (n // 2) % 8
    return _pairwise_sum(rows[:half]) + _pairwise_sum(rows[half:])


def shares_search(config: ExperimentConfig, method: Method) -> bool:
    """Whether a slot's searches at every budget are prefixes of one search.

    A BO slot without noise or warm start draws from the episode's stream
    once, for its first cell, and each later step depends on the history
    alone; so every budget measures the same cells in the same order and
    leaves the stream in the same state for the next slot.  Any other slot
    draws per measurement (noise, random search) or starts at the last
    slot's pick (warm start), so each budget is an episode of its own.
    """
    return method in BO_METHODS and not (config.measure_with_noise or config.warm_start)


def _start_cell(grid: GridMap, rng: np.random.Generator) -> int:
    return grid.index_of(int(rng.integers(grid.rows)), int(rng.integers(grid.cols)))


def search_episodes(scenario: TrackingScenario, config: ExperimentConfig, method: Method,
                    etas: tuple[float, ...],
                    episodes: list[tuple[int, np.random.Generator]]) -> list[list[SlotResult]]:
    """One result list per eta of episodes, `(speed, rng)` pairs: every slot
    of the first episode, then of the next.  Several etas share one search
    per slot, so they need `shares_search`.

    Per episode, the draws come in the order of a slot-by-slot episode: the
    start cell, then per slot the walk and the slot's own draws.  A sweep or
    random slot is searched as it is drawn, by `track_slot`: the measured
    set in one `rng.choice`, then with noise one normal call of shape
    (budget, 2).  With timing on, every slot of such an episode reports the
    episode's mean search time.  A BO slot draws its first measured cell
    (under warm start, in slot 1 only) and, with noise, the same normal
    call, the stream of one (real, imaginary) pair per measurement.  Then
    each BO slot is a lane of `search_lanes`: every slot at once from a
    cold start; under warm start, slot t of every episode after slot t - 1,
    starting at its pick.
    """
    if not etas:
        raise ValueError("etas is empty: an episode needs at least one overhead")
    if len(etas) > 1 and not shares_search(config, method):
        raise ValueError("only noise-free, cold-start BO episodes share one search per slot")
    bo = method in BO_METHODS
    grid = scenario.grid
    budgets = tuple(slot_budget(method, eta, grid.num_cells) for eta in etas)
    sigma = float(np.sqrt(scenario.noise_power / 2.0))
    cells, first, noise, swept = [], [], [], []
    for speed, rng in episodes:
        cell = _start_cell(grid, rng)
        episode = []
        for t in range(config.total_slots):
            cell = mobility_step(cell, speed, grid, rng)
            if not bo:
                episode.append(track_slot(build_slot_env(scenario, cell), config, method,
                                          etas[0], rng, slot_index=t + 1))
                continue
            cells.append(cell)
            if t == 0 or not config.warm_start:
                first.append(int(rng.integers(grid.num_cells)))
            if config.measure_with_noise:
                noise.append(rng.normal(0.0, sigma, size=(budgets[0], 2)))
        if episode and config.collect_timing:
            # One float object for every slot of the episode, as a chunk's
            # lanes share one below: 8 bytes per slot in a list that keeps them.
            mean = sum(r.elapsed for r in episode) / len(episode)
            episode = [SlotResult(r.slot_index, r.true_best_index, r.chosen_index,
                                  r.true_best_rsrp, r.achieved_rsrp, r.measurements_used, mean)
                       for r in episode]
        swept += episode
    if not bo:
        return [swept]
    scenario.fill(cells)
    rsrp = scenario.rsrp[cells]
    signals, noise = ((scenario.signals[cells], np.array(noise).view(complex)[..., 0])
                      if noise else (None, None))
    tables = surrogate.kernel_tables(grid.rows, grid.cols, config.gp_length_scale,
                                     config.kde_bandwidth)
    if method == Method.GP_EI:  # the first call imports scipy.special: not inside the timer
        acquisition.normal_cdf(0.0)
    clock = time.perf_counter if config.collect_timing else _no_clock
    chosen = np.empty((len(budgets), len(cells)), dtype=np.intp)
    elapsed = np.empty(chosen.shape)
    parts = ([slice(t, None, config.total_slots) for t in range(config.total_slots)]
             if config.warm_start else [slice(None)])
    start = np.array(first, dtype=np.intp)
    for part in parts:
        noisy = (None, None) if noise is None else (signals[part], noise[part])
        found = search_lanes(rsrp[part], start, method, budgets, tables, config.tpe_gamma, clock,
                             *noisy)
        chosen[:, part], elapsed[:, part] = found.chosen, found.elapsed
        start = found.chosen[0]  # a warm start's next first cells
    true_best = scenario.true_best[cells].tolist()
    # A chunk's lanes share one time per budget, so their results share one
    # float object: 8 bytes per slot, not 32, in any list that keeps the times.
    times: dict[float, float] = {}
    return [[_slot_result(row, best, i % config.total_slots + 1, pick, budget,
                          times.setdefault(secs, secs))
             for i, (row, best, pick, secs) in enumerate(zip(rsrp, true_best, picks.tolist(),
                                                             spent.tolist()))]
            for picks, budget, spent in zip(chosen, budgets, elapsed)]


def run_episode(scenario: TrackingScenario, config: ExperimentConfig, method: Method,
                etas: tuple[float, ...], speed: int,
                rng: np.random.Generator) -> list[list[SlotResult]]:
    """One tracking episode per eta in `etas` (`search_episodes` of one
    episode): `total_slots` slots of mobility plus per-slot beam search, the
    UE starting in a uniformly random cell and walking at random, reflected
    at the grid's edge.  With warm_start a BO slot's search starts at the
    previous slot's chosen entry in place of a random first measurement.
    """
    return search_episodes(scenario, config, method, etas, [(speed, rng)])
