"""Benchmark harness: run the method x overhead x speed matrix and report
accuracy, RSRP error, overhead, and execution time per cell, plus per-slot
path traces suitable for plotting.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import lin_to_db
from .codebook import GridMap, build_codebook
from .config import ExperimentConfig
from .tracker import (BO_METHODS, Method, SlotResult, TrackingScenario, run_episode,
                      search_episodes, shares_search)

ACCURACY_REL_TOL = 1e-9  # tie handling when comparing achieved vs. best power
CSV_HEADER = "method,overhead,speed,accuracy,rsrp_mae_db,exec_time_s"
TRACE_HEADER = "t,true_row,true_col,pred_row,pred_col,true_rsrp_db,achieved_rsrp_db"


@dataclass(frozen=True)
class MetricsRow:
    method: str
    overhead: float
    speed: int
    accuracy: float
    rsrp_mae_db: float
    exec_time_s: float


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def slot_hit(result: SlotResult) -> bool:
    gap = result.true_best_rsrp - result.achieved_rsrp
    return gap <= ACCURACY_REL_TOL * result.true_best_rsrp


def compute_metrics(results: list[SlotResult], method: str, speed: int,
                    num_cells: int) -> MetricsRow:
    """Aggregate one (method, overhead, speed) cell of slot results."""
    if not results:
        raise ValueError("no slot results to aggregate")
    hits = sum(1 for r in results if slot_hit(r))
    gaps_db = [lin_to_db(r.true_best_rsrp) - lin_to_db(r.achieved_rsrp) for r in results]
    return MetricsRow(
        method=method,
        overhead=float(np.mean([r.measurements_used for r in results])) / num_cells,
        speed=speed,
        accuracy=hits / len(results),
        rsrp_mae_db=float(np.mean(np.abs(gaps_db))),
        exec_time_s=float(np.mean([r.elapsed for r in results])),
    )


def _overheads(config: ExperimentConfig, method: Method) -> tuple[float, ...]:
    return (1.0,) if method == Method.ERGODIC else tuple(config.overheads)


def experiment_cells(config: ExperimentConfig) -> list[tuple[Method, float, int]]:
    """Row order of the result table; the sweep method ignores overhead."""
    return [(method, eta, speed) for method in config.methods
            for eta in _overheads(config, method) for speed in config.speeds]


def episode_rng(master_seed: int, epoch: int) -> np.random.Generator:
    """Per-epoch stream, shared by every cell so epochs are paired."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, epoch]))


def run_cell(scenario: TrackingScenario, config: ExperimentConfig, method: Method,
             etas: tuple[float, ...], speeds: tuple[int, ...]) -> list[list[list[SlotResult]]]:
    """All slot results for one table cell per eta in `etas` and speed in
    `speeds`, `[eta][speed]`: `epochs` independent episodes each (see
    `tracker.run_episode`).

    Overheads that share a search (`tracker.shares_search`) are one group,
    any other overhead a group of its own.  A BO group searches every
    episode at every speed with one `tracker.search_episodes` call; the
    sweep and random search run each episode slot by slot.
    """
    if not etas:
        raise ValueError("etas is empty: a cell needs at least one overhead")
    if not speeds:
        raise ValueError("speeds is empty: a cell needs at least one speed")
    groups = [etas] if shares_search(config, method) else [(eta,) for eta in etas]
    per_speed = config.epochs * config.total_slots
    cells = []
    for group in groups:
        episodes = [(speed, episode_rng(config.master_seed, epoch))
                    for speed in speeds for epoch in range(config.epochs)]
        if method in BO_METHODS:
            found = search_episodes(scenario, config, method, group, episodes)
        else:
            found = [[r for speed, rng in episodes
                      for r in run_episode(scenario, config, method, group, speed, rng)[0]]]
        cells += [[results[lo:lo + per_speed] for lo in range(0, len(results), per_speed)]
                  for results in found]
    return cells


def run_matrix(config: ExperimentConfig) -> dict[tuple[Method, float, int], list[SlotResult]]:
    """Raw slot results for every cell, keyed by (method, overhead, speed) in
    `experiment_cells` order, from one `run_cell` call per method."""
    scenario = scenario_from_config(config)
    matrix = {}
    for method in config.methods:
        etas = _overheads(config, method)
        for eta, by_speed in zip(etas, run_cell(scenario, config, method, etas, config.speeds)):
            for speed, results in zip(config.speeds, by_speed):
                matrix[(method, eta, speed)] = results
    return {cell: matrix[cell] for cell in experiment_cells(config)}


def rows_from_matrix(config: ExperimentConfig,
                     matrix: dict[tuple[Method, float, int], list[SlotResult]]) -> list[MetricsRow]:
    return [
        compute_metrics(matrix[cell], cell[0].value, cell[2], num_cells=config.grid.num_cells)
        for cell in experiment_cells(config)
    ]


def run_experiment(config: ExperimentConfig) -> list[MetricsRow]:
    """Full benchmark: every cell averaged over `epochs` episodes."""
    return rows_from_matrix(config, run_matrix(config))


def emit_csv(rows: list[MetricsRow], path: str | Path) -> None:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            r.method, _fmt(r.overhead), str(r.speed),
            _fmt(r.accuracy), _fmt(r.rsrp_mae_db), _fmt(r.exec_time_s),
        ]))
    _write_lines(path, lines)


def parse_csv(path: str | Path) -> list[MetricsRow]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: unexpected CSV header")
    rows = []
    for line in lines[1:]:
        method, eta, speed, acc, mae, secs = line.split(",")
        rows.append(MetricsRow(method=method, overhead=float(eta), speed=int(speed),
                               accuracy=float(acc), rsrp_mae_db=float(mae),
                               exec_time_s=float(secs)))
    return rows


def emit_trace(episode: list[SlotResult], path: str | Path, grid: GridMap) -> None:
    """Per-slot path trace: true-best vs. predicted cell and their powers."""
    lines = [TRACE_HEADER]
    for r in episode:
        true_row, true_col = grid.cell_of(r.true_best_index)
        pred_row, pred_col = grid.cell_of(r.chosen_index)
        lines.append(",".join([
            str(r.slot_index), str(true_row), str(true_col),
            str(pred_row), str(pred_col),
            _fmt(lin_to_db(r.true_best_rsrp)), _fmt(lin_to_db(r.achieved_rsrp)),
        ]))
    _write_lines(path, lines)


def _write_lines(path: str | Path, lines: list[str]) -> None:
    path = Path(path)
    try:
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def scenario_from_config(config: ExperimentConfig) -> TrackingScenario:
    codebook = build_codebook(config.scene, config.ris, config.grid)
    return TrackingScenario(scene=config.scene, ris=config.ris, grid=config.grid,
                            codebook=codebook)
