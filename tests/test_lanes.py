"""The lockstep lane engine against the per-slot search it stacks.

`tracker.search_lanes` runs every BO search: every noise-free, cold-start
slot of a (method, speed) as one batch, and any other BO slot as a lane of
one inside `track_slot`.  Its reference is `oracles.replay_cell`: each slot
replays the draws and runs `oracles.reference_track_slot`, one `gp_fit` or
`tpe_fit` and one `select_next` per step on the public API, once per
overhead.  Every `SlotResult` field but `elapsed` must be equal.
"""

import dataclasses

import numpy as np
import pytest

from ristrack import surrogate, tracker
from ristrack.bench import run_cell, scenario_from_config
from ristrack.codebook import GridMap
from ristrack.config import ExperimentConfig
from ristrack.surrogate import GpConditioningError, KernelTables, kernel_tables
from ristrack.tracker import Method, SlotEnv, search_lanes, slot_budget, track_slot

from oracles import reference_bo_search, reference_track_slot, replay_cell

BO = [Method.GP_EI, Method.TPE_EI]


def config(**overrides):
    base = dict(methods=tuple(BO), epochs=2, speeds=(1,), collect_timing=False)
    return dataclasses.replace(ExperimentConfig(), **{**base, **overrides})


def without_time(results):
    return [dataclasses.replace(r, elapsed=0.0) for r in results]


def assert_lanes_equal_replay(cfg, method, etas, speeds=(1,)):
    """run_cell's [eta][speed] results, each checked against replay_cell."""
    scenario = scenario_from_config(cfg)
    got = run_cell(scenario, cfg, method, etas, speeds)
    assert len(got) == len(etas) and all(len(cells) == len(speeds) for cells in got)
    for j, speed in enumerate(speeds):
        want = replay_cell(scenario, cfg, method, etas, speed)
        for eta, cells, slots in zip(etas, got, want):
            assert len(cells[j]) == cfg.epochs * cfg.total_slots
            assert without_time(cells[j]) == without_time(slots), (eta, speed)
    return got


@pytest.mark.parametrize("etas", [(0.2, 0.4, 0.6), (0.004, 0.2), (0.2, 0.204)])
@pytest.mark.parametrize("method", BO)
def test_lanes_equal_one_search_per_slot_and_overhead(method, etas):
    assert_lanes_equal_replay(config(overheads=etas), method, etas, speeds=(2,))


@pytest.mark.parametrize("method", BO)
def test_one_batch_across_speeds(method, monkeypatch):
    """Speeds 1 and 2 searched as one batch of 48 slots, in chunks of 10:
    the chunk of lanes 20-29 holds the last four slots of speed 1 and the
    first six of speed 2, and shares one time per budget across both."""
    monkeypatch.setattr(tracker, "LANE_CAP", 10)
    cfg = config(overheads=(0.2, 0.4), speeds=(1, 2), collect_timing=True)
    for slow, fast in assert_lanes_equal_replay(cfg, method, (0.2, 0.4), speeds=(1, 2)):
        straddling = slow[20:] + fast[:6]
        assert len({r.elapsed for r in straddling}) == 1
        assert straddling[0].elapsed > 0.0


def test_run_cell_needs_an_overhead_and_a_speed():
    """Either empty tuple raises by name, on the batch and the episode route."""
    cfg = config()
    scenario = scenario_from_config(cfg)
    for method in Method:
        with pytest.raises(ValueError, match="speeds is empty"):
            run_cell(scenario, cfg, method, (0.2,), ())
        with pytest.raises(ValueError, match="etas is empty"):
            run_cell(scenario, cfg, method, (), (1,))


@pytest.mark.parametrize("rows, cols", [(10, 10), (3, 5), (1, 7), (1, 1)])
@pytest.mark.parametrize("method", BO)
def test_full_budget_on_any_grid(method, rows, cols):
    """At eta 1.0 every lane measures every cell, down to the 1x1 grid."""
    cfg = config(grid=GridMap(rows=rows, cols=cols), overheads=(1.0,))
    ((results,),) = assert_lanes_equal_replay(cfg, method, (1.0,))
    assert all(r.measurements_used == rows * cols for r in results)
    assert all(r.chosen_index == r.true_best_index for r in results)


@pytest.mark.parametrize("method", BO)
def test_non_default_hyperparameters(method):
    cfg = config(gp_length_scale=1.3, kde_bandwidth=0.7, tpe_gamma=0.4, overheads=(0.2, 0.5))
    assert_lanes_equal_replay(cfg, method, (0.2, 0.5))


@pytest.mark.parametrize("method", BO)
def test_lane_count_not_a_multiple_of_the_cap(method, monkeypatch):
    """24 lanes in chunks of 5: four full chunks and one of 4.  Each lane's
    time is its chunk's time to the pick over the chunk's lanes."""
    monkeypatch.setattr(tracker, "LANE_CAP", 5)
    cfg = config(overheads=(0.2, 0.4), collect_timing=True)
    (small,), (large,) = assert_lanes_equal_replay(cfg, method, (0.2, 0.4))
    for chunk in range(5):
        lanes = slice(5 * chunk, 5 * chunk + 5)
        assert len({r.elapsed for r in small[lanes]}) == len({r.elapsed for r in large[lanes]}) == 1
        assert 0.0 < small[lanes][0].elapsed <= large[lanes][0].elapsed


def mirror_env() -> SlotEnv:
    """A 10x10 slot whose powers are symmetric about the main diagonal, with
    the tied-value fixture of test_equivalence.py at its four cells: 44 and
    55 at 70 dB, 0 and 99 at 50 dB.  A history of cells on the diagonal
    scores every cell (r, c) exactly as its mirror (c, r)."""
    r, c = np.divmod(np.arange(100), 10)
    db = 40.0 + ((r + c) % 3) + 0.5 * np.minimum(r, c)
    db[[44, 55]], db[[0, 99]] = 70.0, 50.0
    power = 10.0 ** (db / 10.0)
    return SlotEnv(grid=GridMap(), signals=np.sqrt(power) + 0j, rsrp_values=power,
                   noise_power=0.0)


@pytest.mark.parametrize("method", BO)
def test_mirror_ties_break_as_in_the_per_slot_search(method):
    """Lanes starting at each fixture cell pick the lower index of every
    mirror tie, as the per-slot reference does from the same first cell."""
    env = mirror_env()
    first = [44, 55, 0, 99]
    etas = (0.2, 0.6)
    budgets = tuple(slot_budget(method, eta, 100) for eta in etas)
    found = search_lanes(np.stack([env.rsrp_values] * len(first)), first, method, budgets,
                         kernel_tables(10, 10), 0.25)
    cfg = config()
    for lane, start in enumerate(first):
        for j, eta in enumerate(etas):
            alone = reference_track_slot(env, cfg, method, eta, np.random.default_rng(0),
                                         warm_index=start)
            assert found.chosen[j, lane] == alone.chosen_index, (start, eta)
    assert found.steps == len(first) * (max(budgets) - 1)


def indefinite_tables() -> KernelTables:
    """3x3 tables whose correlation is not positive definite: every
    off-diagonal entry is 2, so the second pivot of any factor is negative."""
    tables = kernel_tables(3, 3)
    corr = np.full((9, 9), 2.0)
    np.fill_diagonal(corr, 1.0)
    return KernelTables(coords=tables.coords, corr=corr, parzen=tables.parzen)


def test_indefinite_kernel_raises_on_both_routes(monkeypatch):
    """A non-positive pivot raises GpConditioningError in the lanes (many,
    or a slot's lane of one) and in the per-slot reference alike, instead
    of a NaN factor and NaN picks."""
    power = np.arange(1.0, 10.0)
    env = SlotEnv(grid=GridMap(rows=3, cols=3), signals=np.sqrt(power) + 0j,
                  rsrp_values=power, noise_power=0.0)
    tables = indefinite_tables()
    with pytest.raises(GpConditioningError, match="not positive definite"):
        search_lanes(np.stack([power, power[::-1]]), [0, 4], Method.GP_EI, (5,), tables, 0.25)
    monkeypatch.setattr(surrogate, "kernel_tables", lambda *args: tables)
    for route in (track_slot, reference_track_slot):
        with pytest.raises(GpConditioningError, match="not positive definite"):
            route(env, config(), Method.GP_EI, 5 / 9, np.random.default_rng(0))


def test_lanes_with_a_clamped_variance_score_as_the_per_slot_loop(monkeypatch):
    """A variance <= 0 scores expected improvement's sigma = 0 limit, each
    entry on its own, so a lane with one scores as it would alone.  Cells 0
    and 1 correlate by 2 here: after a first measurement at 0 or 1 the other
    one's variance is negative (clamped to 0 by gp_posterior), while lanes
    starting elsewhere keep every variance positive.  Each lane, and each
    slot's lane of one, picks as the per-slot reference does."""
    tables = kernel_tables(3, 3)
    corr = tables.corr.copy()
    corr[0, 1] = corr[1, 0] = 2.0
    tables = KernelTables(coords=tables.coords, corr=corr, parzen=tables.parzen)
    power = np.array([3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5])
    env = SlotEnv(grid=GridMap(rows=3, cols=3), signals=np.sqrt(power) + 0j,
                  rsrp_values=power, noise_power=0.0)
    first = [0, 5, 1, 8]
    found = search_lanes(np.stack([power] * len(first)), first, Method.GP_EI, (2,), tables, 0.25)
    monkeypatch.setattr(surrogate, "kernel_tables", lambda *args: tables)
    cfg = config()
    for lane, start in enumerate(first):
        ref = reference_bo_search(env, cfg, Method.GP_EI, 2, np.random.default_rng(0), start)
        alone = track_slot(env, cfg, Method.GP_EI, 2 / 9, np.random.default_rng(0),
                           warm_index=start)
        assert found.cells[lane].tolist() == [k for k, _ in ref]
        assert found.chosen[0, lane] == alone.chosen_index == max(ref, key=lambda kv: kv[1])[0]


def test_lane_inputs_are_checked():
    tables = kernel_tables(3, 3)
    rsrp = np.ones((2, 9))
    for first in ([0], [0, 9], [-1, 0]):
        with pytest.raises(ValueError, match="first cells"):
            search_lanes(rsrp, first, Method.TPE_EI, (3,), tables, 0.25)
    for budgets in ((0,), (10,)):
        with pytest.raises(ValueError, match="do not fit"):
            search_lanes(rsrp, [0, 1], Method.TPE_EI, budgets, tables, 0.25)


@pytest.mark.parametrize("rows, cols", [(10, 10), (15, 15)])
@pytest.mark.parametrize("lanes", [1, 3, "cap"])
def test_row_density_equals_the_column_density(rows, cols, lanes):
    """The lanes sum Parzen rows over a leading axis in numpy's pairwise
    order; tpe_fit sums gathered columns along a contiguous axis.  Both must
    agree bit for bit at every mixture size: 0, fewer than 8 terms, 8 to 128
    and, on the 15x15 grid, more than 128 terms.  A numpy that sums in
    another order fails here before it can move a pick."""
    lanes = tracker.LANE_CAP if lanes == "cap" else lanes
    parzen = kernel_tables(rows, cols).parzen
    num_cells = rows * cols
    rng = np.random.default_rng(rows * lanes)
    for k in range(num_cells + 1):
        cells = np.stack([rng.permutation(num_cells)[:k] for _ in range(lanes)])
        got = tracker._lane_density(parzen.take(cells.T, axis=0))
        for lane in range(lanes):
            want, _ = surrogate._parzen_density(parzen.take(cells[lane], axis=1))
            assert got[lane].tobytes() == want.tobytes(), (k, lane)
