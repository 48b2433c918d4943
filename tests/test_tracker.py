"""Tracker tests: mobility statistics, per-slot search invariants for every
method, the noisy measurement against a Monte-Carlo estimate, and episode
determinism.
"""

import dataclasses
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ristrack import tracker

from ristrack.bench import episode_rng, scenario_from_config
from ristrack.channel import (
    SceneConfig,
    Vec3,
    bs_ris_channel,
    dbm_to_watts,
    ris_ue_channel,
    uniform_transmit_signal,
)
from ristrack.codebook import GridMap
from ristrack.config import ExperimentConfig
from ristrack.tracker import (
    Method,
    SlotEnv,
    build_slot_env,
    mobility_step,
    run_episode,
    search_lanes,
    slot_budget,
    track_slot,
)

from oracles import cell_center, reference_track_slot, replay_episode, rsrp

CONFIG = ExperimentConfig(collect_timing=False)


@pytest.fixture(scope="module")
def scenario():
    return scenario_from_config(ExperimentConfig())


@pytest.fixture(scope="module")
def slot_env(scenario):
    return build_slot_env(scenario, scenario.grid.index_of(4, 5))


class TestMobility:
    def test_one_by_one_grid_stays_put(self):
        grid = GridMap(rows=1, cols=1, origin=Vec3(1.0, 0.0, 0.0))
        assert mobility_step(0, 2, grid, np.random.default_rng(0)) == 0

    def test_speed_one_moves_exactly_one_cell(self):
        grid = GridMap()
        rng = np.random.default_rng(1)
        cell = grid.index_of(5, 5)
        for _ in range(200):
            new = mobility_step(cell, 1, grid, rng)
            (row, col), (new_row, new_col) = grid.cell_of(cell), grid.cell_of(new)
            assert abs(new_row - row) + abs(new_col - col) == 1
            cell = new

    def test_speed_two_manhattan_distance(self):
        grid = GridMap()
        rng = np.random.default_rng(2)
        for _ in range(200):
            row, col = grid.cell_of(mobility_step(grid.index_of(5, 5), 2, grid, rng))
            assert abs(row - 5) + abs(col - 5) in (0, 2)

    def test_interior_step_distribution_uniform(self):
        """1e5 single steps from an interior cell: each neighbor ~25% (+-2%)."""
        grid = GridMap()
        rng = np.random.default_rng(3)
        counts = {}
        for _ in range(100_000):
            new = grid.cell_of(mobility_step(grid.index_of(5, 5), 1, grid, rng))
            counts[new] = counts.get(new, 0) + 1
        assert set(counts) == {(4, 5), (6, 5), (5, 4), (5, 6)}
        for c in counts.values():
            assert abs(c / 100_000 - 0.25) < 0.02

    def test_never_leaves_grid(self):
        grid = GridMap(rows=3, cols=2, origin=Vec3(1.0, 0.0, 0.0))
        rng = np.random.default_rng(4)
        cell = 0
        for _ in range(500):
            new = mobility_step(cell, 2, grid, rng)
            # cell_of rejects an index off the grid; a walk that wrapped round
            # a row edge would jump an odd or larger distance
            (row, col), (new_row, new_col) = grid.cell_of(cell), grid.cell_of(new)
            assert abs(new_row - row) + abs(new_col - col) in (0, 2)
            cell = new

    @pytest.mark.parametrize("rows, cols, cells, next_draw", [
        (1, 1, [(0, 0)] * 12, 720255338),
        (1, 7, [(0, 3)] * 5 + [(0, 5)] * 2 + [(0, 3)] * 5, 961480225),
        (7, 1, [(3, 0), (3, 0), (5, 0), (5, 0), (3, 0), (1, 0), (1, 0), (3, 0), (1, 0),
                (3, 0), (3, 0), (3, 0)], 68949727),
    ])
    def test_seeded_walk_on_thin_grids_is_pinned(self, rows, cols, cells, next_draw):
        """12 speed-2 steps from the middle cell under seed 5; the draw after
        the walk pins how many draws the walk made."""
        rng = np.random.default_rng(5)
        grid = GridMap(rows=rows, cols=cols)
        walk = _walk(grid.index_of(rows // 2, cols // 2), grid, rng, 12)
        assert [grid.cell_of(cell) for cell in walk] == cells
        assert int(rng.integers(1 << 30)) == next_draw

    def test_deterministic_under_seed(self):
        grid = GridMap()
        walk = lambda seed: _walk(grid.index_of(5, 5), grid, np.random.default_rng(seed), 50)
        assert walk(99) == walk(99)


def _walk(cell, grid, rng, steps):
    """Cells after each of `steps` speed-2 steps from `cell`."""
    out = []
    for _ in range(steps):
        cell = mobility_step(cell, 2, grid, rng)
        out.append(cell)
    return out


def one_slot(scenario, config, method, eta, rng):
    """The one slot of a one-slot episode, by its method's route: `track_slot`
    for the sweep and random search, a lane of `search_episodes` for BO."""
    ((result,),) = run_episode(scenario, dataclasses.replace(config, total_slots=1), method,
                               (eta,), 1, rng)
    return result


class TestTrackSlot:
    def test_ergodic_is_exact(self, slot_env):
        r = track_slot(slot_env, CONFIG, Method.ERGODIC, 1.0, np.random.default_rng(0))
        assert r.chosen_index == r.true_best_index
        assert r.achieved_rsrp == r.true_best_rsrp
        assert r.measurements_used == 100

    @pytest.mark.parametrize("method", [Method.RANDOM, Method.GP_EI, Method.TPE_EI])
    def test_full_budget_is_exhaustive(self, scenario, method):
        r = one_slot(scenario, CONFIG, method, 1.0, np.random.default_rng(1))
        assert r.measurements_used == 100
        assert r.chosen_index == r.true_best_index
        assert r.achieved_rsrp == r.true_best_rsrp

    @pytest.mark.parametrize("method", [Method.RANDOM, Method.GP_EI, Method.TPE_EI])
    @pytest.mark.parametrize("eta", [0.2, 0.6])
    def test_budget_and_bounds(self, scenario, method, eta):
        timed = ExperimentConfig(collect_timing=True)
        r = one_slot(scenario, timed, method, eta, np.random.default_rng(7))
        assert r.measurements_used == round(eta * 100)
        assert r.achieved_rsrp <= r.true_best_rsrp
        assert r.elapsed >= 0.0

    def test_random_hit_rate_matches_overhead(self, slot_env):
        """P(chosen = true best) for uniform sampling is exactly eta; check
        the 3-sigma binomial band over 1000 slots."""
        eta = 0.2
        rng = np.random.default_rng(11)
        n = 1000
        hits = 0
        for _ in range(n):
            r = track_slot(slot_env, CONFIG, Method.RANDOM, eta, rng)
            hits += r.chosen_index == r.true_best_index
        sigma = np.sqrt(eta * (1 - eta) / n)
        assert abs(hits / n - eta) <= 3 * sigma

    def test_bo_methods_use_exact_budget(self, scenario):
        # distinctness is structural: the history raises on duplicates
        for method in (Method.GP_EI, Method.TPE_EI):
            r = one_slot(scenario, CONFIG, method, 0.3, np.random.default_rng(13))
            assert r.measurements_used == 30

    @pytest.mark.parametrize("method", [Method.GP_EI, Method.TPE_EI])
    def test_bo_slots_are_not_searched_one_by_one(self, slot_env, method):
        with pytest.raises(ValueError, match="search_episodes"):
            track_slot(slot_env, CONFIG, method, 0.2, np.random.default_rng(19))

    def test_noisy_measurement_mode_runs(self, scenario):
        cfg = dataclasses.replace(CONFIG, measure_with_noise=True)
        r = one_slot(scenario, cfg, Method.TPE_EI, 0.2, np.random.default_rng(17))
        # achieved/true are still the noiseless comparison quantities
        assert r.achieved_rsrp <= r.true_best_rsrp

    @settings(max_examples=80, deadline=None)
    @given(rows=st.integers(1, 6), cols=st.integers(1, 6), method=st.sampled_from(list(Method)),
           eta=st.floats(0.01, 1.0), seed=st.integers(0, 2 ** 32 - 1),
           noisy=st.booleans())
    def test_search_invariants_on_any_grid(self, rows, cols, method, eta, seed, noisy):
        """Any grid shape, 1x1 and non-square included: no cell is measured
        twice, the budget is used exactly, the achieved power is never above
        the true best.  The noise is as strong as the signal.  The sweep and
        random search run in `track_slot`, a BO slot as a lane of the lane
        engine, with its noise drawn first as `search_episodes` draws it."""
        rng = np.random.default_rng(seed)
        num_cells = rows * cols
        signals = rng.normal(size=num_cells) + 1j * rng.normal(size=num_cells)
        env = SlotEnv(grid=GridMap(rows=rows, cols=cols), signals=signals,
                      rsrp_values=np.abs(signals) ** 2, noise_power=1.0)
        budget = slot_budget(method, eta, num_cells)
        if method in tracker.BO_METHODS:
            first = [int(rng.integers(num_cells))]
            noise = (rng.normal(0.0, np.sqrt(0.5), (1, budget, 2)).view(complex)[..., 0]
                     if noisy else None)
            found = search_lanes(env.rsrp_values[None], first, method, (budget,),
                                 tracker.surrogate.kernel_tables(rows, cols), CONFIG.tpe_gamma,
                                 signals=env.signals[None], noise=noise)
            measured, chosen = found.cells[0].tolist(), int(found.chosen[0, 0])
            used, achieved = budget, env.rsrp_values[chosen]
        else:
            cfg = dataclasses.replace(CONFIG, measure_with_noise=noisy)
            measured = []
            measure = tracker.measure

            def recording(env, cells, noise_rng=None):
                measured.extend(np.atleast_1d(cells).tolist())
                return measure(env, cells, noise_rng)

            with mock.patch.object(tracker, "measure", recording):
                r = track_slot(env, cfg, method, eta, rng)
            chosen, used, achieved = r.chosen_index, r.measurements_used, r.achieved_rsrp
        assert len(set(measured)) == len(measured) == used == budget
        assert chosen in measured
        assert achieved <= env.rsrp_values.max()

    def test_budget_rounding(self):
        assert slot_budget(Method.RANDOM, 0.2, 100) == 20
        assert slot_budget(Method.RANDOM, 0.005, 100) == 1
        assert slot_budget(Method.ERGODIC, 0.2, 100) == 100

    def test_invalid_overhead_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(methods=(Method.RANDOM,), overheads=(0.0,))
        with pytest.raises(ValueError):
            ExperimentConfig(methods=(Method.RANDOM,), overheads=(1.2,))


def one_cell_env(signal: complex, noise_power: float) -> SlotEnv:
    signals = np.array([signal])
    return SlotEnv(grid=GridMap(rows=1, cols=1), signals=signals,
                   rsrp_values=np.abs(signals) ** 2, noise_power=noise_power)


class TestNoisyMeasure:
    """The tracker's noisy measurement |s + n|^2, n ~ CN(0, noise_power)."""

    def test_zero_noise_equals_rsrp(self):
        rng = np.random.default_rng(0)
        h = np.array([0.5 + 0.1j, -0.2 + 0.4j])
        H = np.array([[1.0 + 0j], [0.3 - 0.2j]])
        z = np.array([1.0 + 0j])
        beta = np.array([0.1, 1.2])
        signal = np.exp(1j * beta) @ (h * (H @ z))  # as build_slot_env forms it
        value = tracker.measure(one_cell_env(signal, 0.0), 0, rng)
        assert value == pytest.approx(rsrp(h, beta, H, z), rel=1e-15)

    def test_seeded_reproducibility(self):
        env = one_cell_env(1.0 + 0j, 1e-3)
        draws1 = [tracker.measure(env, 0, np.random.default_rng(42)) for _ in range(1)]
        draws2 = [tracker.measure(env, 0, np.random.default_rng(42)) for _ in range(1)]
        assert draws1 == draws2

    def test_two_normals_per_call_real_part_first(self):
        """Seeded noisy outputs depend on this draw order: a block of m cells
        draws what m single-cell calls would, real part first in each."""
        sigma = np.sqrt(1e-3 / 2.0)
        env = one_cell_env(1.0 + 0j, 1e-3)
        rng = np.random.default_rng(42)
        got = [tracker.measure(env, 0, rng) for _ in range(3)]
        got += list(tracker.measure(env, np.zeros(3, dtype=int), rng))
        expected_rng = np.random.default_rng(42)
        for value in got:
            re, im = expected_rng.normal(0.0, sigma), expected_rng.normal(0.0, sigma)
            assert value == pytest.approx(abs(1.0 + re + 1j * im) ** 2, rel=1e-12)

    def test_noise_variance_monte_carlo(self):
        """Empirical variance of y - signal over 1e5 draws within 5% of sigma^2:
        with a zero signal the measured power is |n|^2."""
        rng = np.random.default_rng(2024)
        noise_power = dbm_to_watts(-120.0)
        emp = np.mean(tracker.measure(one_cell_env(0j, noise_power), np.zeros(100_000, dtype=int),
                                      rng))
        assert emp == pytest.approx(noise_power, rel=0.05)

    def test_without_noise_rng_returns_exact_power(self, slot_env):
        cells = np.array([7, 3, 99])
        np.testing.assert_array_equal(tracker.measure(slot_env, cells), slot_env.rsrp_values[cells])
        assert tracker.measure(slot_env, 7) == slot_env.rsrp_values[7]


def tie_env(rsrp: list[float]) -> SlotEnv:
    signals = np.sqrt(np.array(rsrp)) + 0j
    return SlotEnv(grid=GridMap(rows=1, cols=len(rsrp)), signals=signals,
                   rsrp_values=np.abs(signals) ** 2, noise_power=0.0)


class TestTieBreak:
    def test_equal_power_cells_resolve_to_the_lower_index(self):
        env = tie_env([1.0, 4.0, 2.0, 4.0, 3.0])
        assert env.rsrp_values[1] == env.rsrp_values[3]
        assert track_slot(env, CONFIG, Method.ERGODIC, 1.0, np.random.default_rng(0)).chosen_index == 1

    def test_random_search_keeps_the_first_measured_of_a_tie(self):
        env = tie_env([1.0, 4.0, 2.0, 4.0, 3.0])
        for seed in range(20):
            order = np.random.default_rng(seed).choice(5, size=5, replace=False).tolist()
            first = min((order.index(1), 1), (order.index(3), 3))[1]
            r = track_slot(env, CONFIG, Method.RANDOM, 1.0, np.random.default_rng(seed))
            assert r.chosen_index == first


@pytest.mark.parametrize("noise_dbm", [-120.0, -50.0])
@pytest.mark.parametrize("rows, cols", [(10, 10), (1, 7), (1, 1)])
def test_block_measurement_equals_the_per_call_reference(rows, cols, noise_dbm):
    """Seeded noisy episodes of every method, cold and warm-started, give
    the same slot results through the block measurement and, for BO, through
    noise drawn first and searched as lanes, as the one-stream, slot-by-slot
    replay that measures one cell per call on the public API."""
    config = ExperimentConfig(grid=GridMap(rows=rows, cols=cols),
                              scene=SceneConfig(noise_power_dbm=noise_dbm),
                              measure_with_noise=True, collect_timing=False)
    scenario = scenario_from_config(config)
    for method in Method:
        for eta, warm in ((0.2, False), (0.6, True)):
            cfg = dataclasses.replace(config, warm_start=warm)
            for epoch in range(3):
                ref = replay_episode(scenario, cfg, method, eta, 1 + epoch % 2,
                                     episode_rng(803, epoch))
                (got,) = run_episode(scenario, cfg, method, (eta,), 1 + epoch % 2,
                                     episode_rng(803, epoch))
                assert got == ref


def test_scenario_holds_the_forward_product(scenario):
    z = uniform_transmit_signal(scenario.scene.num_bs_antennas)
    np.testing.assert_array_equal(scenario.forward,
                                  bs_ris_channel(scenario.scene, scenario.ris) @ z)


@pytest.mark.parametrize("grid, phase_bits", [
    (GridMap(), 2), (GridMap(rows=3, cols=7, cell_size=0.37, origin=Vec3(-1.1, 0.3, 0.0)), 2),
    (GridMap(rows=1, cols=1), 2), (GridMap(), 3),
], ids=["default", "3x7", "1x1", "3-bit"])
def test_slot_signals_are_the_cell_centre_channel_bit_for_bit(grid, phase_bits):
    """Each slot's signals are the codebook phasors times the RIS->UE channel
    at the scalar cell centre times the forward product, to the last bit: an
    ulp can flip a pick.  So are the scenario's table rows, their powers and
    the true-best index of each."""
    config = ExperimentConfig(grid=grid)
    config = dataclasses.replace(config, ris=dataclasses.replace(config.ris, phase_bits=phase_bits))
    scenario = scenario_from_config(config)
    for k in range(grid.num_cells):
        h = ris_ue_channel(scenario.scene, scenario.ris, cell_center(grid, k))
        want = scenario.codebook.phasors @ (h * scenario.forward)
        env = build_slot_env(scenario, k)
        assert env.signals.tobytes() == want.tobytes(), k
        assert env.rsrp_values.tobytes() == (np.abs(want) ** 2).tobytes(), k
        assert env.true_best == scenario.true_best[k] == np.argmax(np.abs(want) ** 2), k
    assert scenario.signals.tobytes() == np.stack([build_slot_env(scenario, k).signals
                                                   for k in range(grid.num_cells)]).tobytes()
    for bad in (-1, grid.num_cells):
        with pytest.raises(ValueError, match="out of range"):
            build_slot_env(scenario, bad)


def count_channel_calls(monkeypatch) -> list:
    """Patch the tracker's ris_ue_channel to record the UE position of each call."""
    calls = []
    channel = tracker.ris_ue_channel

    def counted(scene, ris, position):
        calls.append(tuple(position))
        return channel(scene, ris, position)

    monkeypatch.setattr(tracker, "ris_ue_channel", counted)
    return calls


class TestSlotTable:
    def test_scenario_setup_builds_no_row(self, monkeypatch):
        """Rows are built on first read, so setup costs no channel call."""
        calls = count_channel_calls(monkeypatch)
        scenario = scenario_from_config(ExperimentConfig())
        assert calls == []
        assert (scenario.true_best == -1).all()

    @pytest.mark.parametrize("method, noisy", [(Method.ERGODIC, True), (Method.RANDOM, False),
                                               (Method.TPE_EI, True), (Method.GP_EI, False)])
    def test_each_row_is_built_once(self, monkeypatch, method, noisy):
        """However many slots read a cell, by either route, its row is built once."""
        calls = count_channel_calls(monkeypatch)
        config = ExperimentConfig(grid=GridMap(rows=1, cols=7), measure_with_noise=noisy,
                                  collect_timing=False, total_slots=20)
        scenario = scenario_from_config(config)
        for epoch in range(3):
            run_episode(scenario, config, method, (0.4,), 2, episode_rng(5, epoch))
        built = np.flatnonzero(scenario.true_best >= 0)
        assert len(calls) == len(set(calls)) == len(built) >= 3
        assert sorted(calls) == sorted(map(tuple, scenario.centers[built]))

    @pytest.mark.parametrize("cell", [-1, 100])
    def test_fill_rejects_cells_off_the_grid(self, cell):
        """By name, with no row built: numpy would build cell 99's row for -1
        and fail on 100 with a bare IndexError."""
        scenario = scenario_from_config(ExperimentConfig())
        with pytest.raises(ValueError, match=f"^cell index {cell} out of range"):
            scenario.fill([cell])
        assert (scenario.true_best == -1).all()

    def test_rows_handed_out_are_read_only(self, scenario):
        env = build_slot_env(scenario, 3)
        for array in (env.signals, env.rsrp_values, scenario.signals, scenario.rsrp):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        assert build_slot_env(scenario, 3).rsrp_values[0] == env.rsrp_values[0]

    def test_scenarios_compare_by_identity(self):
        """Array fields make field-wise equality ambiguous: a scenario equals
        only itself, and comparing two does not raise."""
        a, b = (scenario_from_config(ExperimentConfig()) for _ in range(2))
        assert a == a and a != b
        assert len({a, b}) == 2


class TestRunEpisode:
    def test_single_slot_episode(self, scenario):
        cfg = dataclasses.replace(CONFIG, total_slots=1)
        (results,) = run_episode(scenario, cfg, Method.ERGODIC, (1.0,), speed=1,
                                 rng=np.random.default_rng(0))
        assert len(results) == 1
        assert results[0].slot_index == 1

    def test_default_length_is_twelve(self, scenario):
        (results,) = run_episode(scenario, CONFIG, Method.RANDOM, (0.2,), speed=2,
                                 rng=np.random.default_rng(1))
        assert [r.slot_index for r in results] == list(range(1, 13))

    @pytest.mark.parametrize("method", list(Method))
    def test_fixed_seed_reproduces_episode(self, scenario, method):
        (a,) = run_episode(scenario, CONFIG, method, (0.2,), speed=1, rng=np.random.default_rng(23))
        (b,) = run_episode(scenario, CONFIG, method, (0.2,), speed=1, rng=np.random.default_rng(23))
        assert a == b  # bit-identical dataclasses, elapsed pinned to 0.0

    def test_achieved_never_exceeds_true_best(self, scenario):
        for method in (Method.RANDOM, Method.GP_EI, Method.TPE_EI):
            for r in run_episode(scenario, CONFIG, method, (0.4,), speed=2,
                                 rng=np.random.default_rng(29))[0]:
                assert r.achieved_rsrp <= r.true_best_rsrp

    def test_warm_start_seeds_with_previous_choice(self, scenario):
        cfg = dataclasses.replace(CONFIG, warm_start=True)
        (results,) = run_episode(scenario, cfg, Method.TPE_EI, (0.2,), speed=1,
                                 rng=np.random.default_rng(31))
        assert len(results) == 12
        assert all(r.measurements_used == 20 for r in results)

    def test_warm_start_changes_the_search(self, scenario):
        warm = dataclasses.replace(CONFIG, warm_start=True)
        (a,) = run_episode(scenario, CONFIG, Method.TPE_EI, (0.2,), speed=1,
                           rng=np.random.default_rng(37))
        (b,) = run_episode(scenario, warm, Method.TPE_EI, (0.2,), speed=1,
                           rng=np.random.default_rng(37))
        assert a != b

    @pytest.mark.parametrize("method, setting", [(Method.ERGODIC, None),
                                                 (Method.RANDOM, "measure_with_noise"),
                                                 (Method.ERGODIC, "measure_with_noise")])
    def test_timed_slot_by_slot_episode_shares_its_mean_time(self, scenario, method, setting,
                                                            monkeypatch):
        """Every slot of a timed slot-by-slot episode (the sweep and random
        search) reports one float object: the mean of its slots' search
        times."""
        config = ExperimentConfig(collect_timing=True)
        if setting:
            config = dataclasses.replace(config, **{setting: True})
        spent = []
        search = tracker.track_slot

        def timed(*args, **kwargs):
            result = search(*args, **kwargs)
            spent.append(result.elapsed)
            return result

        monkeypatch.setattr(tracker, "track_slot", timed)
        (episode,) = run_episode(scenario, config, method, (0.4,), 2, np.random.default_rng(3))
        assert len(spent) == len(episode) == 12
        assert len({id(r.elapsed) for r in episode}) == 1
        assert episode[0].elapsed == sum(spent) / 12 >= 0.0

    @pytest.mark.parametrize("method", [Method.GP_EI, Method.TPE_EI])
    def test_one_call_per_slot_and_per_step(self, method, monkeypatch):
        """Per slot one mobility_step, and one ris_ue_channel per cell the
        episode visits first: a fresh scenario builds each cell's row once.
        No BO episode makes a build_slot_env or track_slot call.  A
        warm-start episode searches slot after slot, each a search of one
        lane with budget - 1 lane-steps, and on the GP path one
        expected_improvement per step.  A cold-start episode searches all
        its slots as lanes: its lane-steps are slots x (largest budget - 1),
        and GP-EI scores all lanes with one expected_improvement call per
        step.  Neither makes a surrogate fit or a select_next call."""
        counts = {}
        visited = set()

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        step = tracker.mobility_step

        def walked(*args, **kwargs):
            cell = step(*args, **kwargs)
            visited.add(cell)
            return cell

        monkeypatch.setattr(tracker, "mobility_step", walked)
        for name in ("mobility_step", "build_slot_env", "ris_ue_channel", "track_slot"):
            count(tracker, name)
        for name in ("gp_fit", "tpe_fit"):
            count(tracker.surrogate, name)
        for name in ("select_next", "gp_posterior", "expected_improvement"):
            count(tracker.acquisition, name)
        lane_steps = []
        search = tracker.search_lanes

        def counted_search(*args, **kwargs):
            found = search(*args, **kwargs)
            lane_steps.append(found.steps)
            return found

        monkeypatch.setattr(tracker, "search_lanes", counted_search)

        def run(config, etas):
            counts.clear()
            lane_steps.clear()
            visited.clear()
            run_episode(scenario_from_config(config), config, method, etas, speed=1,
                        rng=np.random.default_rng(41))
            return {"mobility_step": 3, "ris_ue_channel": len(visited)}

        warm = dataclasses.replace(CONFIG, total_slots=3, warm_start=True)
        want = run(warm, (0.2,))
        steps = slot_budget(method, 0.2, 100) - 1
        if method == Method.GP_EI:
            want["expected_improvement"] = 3 * steps
        assert counts == want and lane_steps == [steps] * 3

        cold = dataclasses.replace(CONFIG, total_slots=3)
        for etas in ((0.2,), (0.2, 0.4)):
            want = run(cold, etas)
            budget = slot_budget(method, max(etas), 100)
            if method == Method.GP_EI:
                want["expected_improvement"] = budget - 1
            assert counts == want, etas
            assert lane_steps == [3 * (budget - 1)], etas


class TestSharedBudgets:
    @pytest.mark.parametrize("method", [Method.GP_EI, Method.TPE_EI])
    def test_each_budget_reads_a_prefix_of_one_search(self, slot_env, method):
        """One lane of the engine, read at four budgets, picks what a search
        with each budget alone picks; a smaller budget's pick comes sooner."""
        etas = (0.6, 0.01, 0.2, 0.004)
        budgets = tuple(slot_budget(method, eta, 100) for eta in etas)
        assert budgets == (60, 1, 20, 1)
        tables = tracker.surrogate.kernel_tables(10, 10)
        first = [int(np.random.default_rng(43).integers(100))]
        found = search_lanes(slot_env.rsrp_values[None], first, method, budgets, tables,
                             CONFIG.tpe_gamma, tracker.time.perf_counter)
        assert found.cells.shape == (1, 60)
        for eta, chosen, budget in zip(etas, found.chosen[:, 0], budgets):
            alone = reference_track_slot(slot_env, CONFIG, method, eta, np.random.default_rng(43))
            assert (chosen, budget) == (alone.chosen_index, alone.measurements_used)
        elapsed = dict(zip(budgets, found.elapsed[:, 0]))
        assert 0.0 <= elapsed[1] <= elapsed[20] <= elapsed[60]

    @pytest.mark.parametrize("method, setting", [(Method.TPE_EI, "measure_with_noise"),
                                                 (Method.TPE_EI, "warm_start"),
                                                 (Method.RANDOM, None)])
    def test_episodes_share_only_noise_free_cold_start_bo(self, scenario, method, setting):
        config = dataclasses.replace(CONFIG, **{setting: True}) if setting else CONFIG
        with pytest.raises(ValueError, match="share one search"):
            run_episode(scenario, config, method, (0.2, 0.4), 1, np.random.default_rng(0))

    @pytest.mark.parametrize("method", [Method.ERGODIC, Method.RANDOM])
    def test_only_bo_searches_read_budgets(self, slot_env, method):
        with pytest.raises(ValueError, match=method.value):
            search_lanes(slot_env.rsrp_values[None], [0], method, (20,),
                         tracker.surrogate.kernel_tables(10, 10), CONFIG.tpe_gamma)

    def test_empty_etas_rejected(self, scenario, slot_env):
        """Not a StopIteration, which would end a caller's loop silently."""
        with pytest.raises(ValueError, match="budgets"):
            search_lanes(slot_env.rsrp_values[None], [0], Method.GP_EI, (),
                         tracker.surrogate.kernel_tables(10, 10), CONFIG.tpe_gamma)
        with pytest.raises(ValueError, match="etas"):
            run_episode(scenario, CONFIG, Method.GP_EI, (), 1, np.random.default_rng(0))


def test_a_failing_property_test_fails_without_an_internal_error(tmp_path):
    """A failing @given test under this project's pytest settings is one
    failure, exit status 1: hypothesis's report of the failing example must
    not turn into an INTERNALERROR that ends the session."""
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_small(x):\n"
        "    assert x < 5\n")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(Path(__file__).parents[1] / "pyproject.toml"),
                           "--rootdir", str(tmp_path), "test_property.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed" in proc.stdout
