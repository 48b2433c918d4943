"""Benchmark harness tests: metric arithmetic against hand computation,
CSV/trace emission and round trips, matrix shape, and seeded determinism.
"""

import ast
import dataclasses
import hashlib
import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ristrack
from ristrack import bench, surrogate, tracker
from ristrack.bench import (
    MetricsRow,
    compute_metrics,
    emit_csv,
    emit_trace,
    experiment_cells,
    parse_csv,
    run_experiment,
    run_cell,
    run_matrix,
    rows_from_matrix,
    scenario_from_config,
)
from ristrack.channel import ChannelModel, SceneConfig, Vec3
from ristrack.codebook import GridMap, RisGeometry
from ristrack.config import DEFAULT_CONFIG_TEXT, KEYS, ExperimentConfig, parse_config_text
from ristrack.tracker import (BO_METHODS, Method, SlotResult, build_slot_env, run_episode,
                              search_episodes, shares_search, track_slot)

from oracles import replay_cell

# sha256 of `metrics.csv` for the default config with epochs = 5 and
# collect_timing = false.
SEEDED_METRICS_SHA256 = "e8208c391dd5c30dcfd182ee57611eecd4978d327b27a469d8007c42070c8f64"
# The same, with noise at -50 dBm, warm start, or both: the bytes the
# slot-by-slot route wrote before noisy and warm-start BO slots ran as lanes.
SEEDED_SETTING_METRICS_SHA256 = {
    "noise": "2a0940ce6393b1fb29cc3336ee86fd52ebb287b6d9666100e6b6a9cd79082aef",
    "warm": "598e90297f11a017073608e2364248c10952be54d3639f8f978ad14247aa9263",
    "both": "f6e180e1eaf130824d55facece630af6fde6f91cada0bd686263ed6bea163e93",
}


def slot(true_rsrp, achieved_rsrp, true_idx=0, chosen_idx=0, used=20, elapsed=0.01, t=1):
    return SlotResult(slot_index=t, true_best_index=true_idx, chosen_index=chosen_idx,
                      true_best_rsrp=true_rsrp, achieved_rsrp=achieved_rsrp,
                      measurements_used=used, elapsed=elapsed)


def small_config(**overrides):
    defaults = dict(
        methods=(Method.ERGODIC, Method.RANDOM, Method.GP_EI, Method.TPE_EI),
        overheads=(0.2,),
        speeds=(1,),
        epochs=2,
        total_slots=3,
        collect_timing=False,
    )
    defaults.update(overrides)
    return dataclasses.replace(ExperimentConfig(), **defaults)


class TestComputeMetrics:
    def test_exact_cell_is_perfect(self):
        results = [slot(2.0, 2.0, used=100), slot(3.0, 3.0, used=100)]
        row = compute_metrics(results, "ergodic", speed=1, num_cells=100)
        assert row.accuracy == 1.0
        assert row.rsrp_mae_db == 0.0
        assert row.overhead == 1.0

    def test_single_miss(self):
        results = [slot(2.0, 1.0)]
        row = compute_metrics(results, "random", speed=2, num_cells=100)
        assert row.accuracy == 0.0
        assert row.rsrp_mae_db == pytest.approx(10 * math.log10(2.0), rel=1e-12)
        assert row.speed == 2

    def test_three_slot_hand_arithmetic(self):
        """Hand-computed spreadsheet oracle for a mixed 3-slot cell."""
        results = [
            slot(4.0, 4.0, used=20, elapsed=0.010),   # hit, gap 0 dB
            slot(4.0, 2.0, used=20, elapsed=0.020),   # miss, gap 3.0103 dB
            slot(8.0, 1.0, used=20, elapsed=0.030),   # miss, gap 9.0309 dB
        ]
        row = compute_metrics(results, "tpe_ei", speed=1, num_cells=100)
        assert row.accuracy == pytest.approx(1.0 / 3.0, rel=1e-12)
        gap2 = 10 * math.log10(4.0 / 2.0)
        gap3 = 10 * math.log10(8.0 / 1.0)
        assert row.rsrp_mae_db == pytest.approx((0.0 + gap2 + gap3) / 3.0, rel=1e-12)
        assert row.exec_time_s == pytest.approx(0.020, rel=1e-12)
        assert row.overhead == pytest.approx(0.2, rel=1e-12)

    def test_tie_tolerance(self):
        base = 1e-9
        results = [slot(base, base * (1 - 1e-10))]
        assert compute_metrics(results, "x", speed=1, num_cells=100).accuracy == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([], "x", speed=1, num_cells=100)


class TestExperimentMatrix:
    def test_single_cell_config(self):
        config = small_config(methods=(Method.RANDOM,), epochs=1, total_slots=1)
        rows = run_experiment(config)
        assert len(rows) == 1
        assert rows[0].method == "random"

    def test_standard_matrix_has_twenty_rows(self):
        config = small_config(overheads=(0.2, 0.4, 0.6), speeds=(1, 2))
        cells = experiment_cells(config)
        assert len(cells) == 20
        ergodic = [c for c in cells if c[0] == Method.ERGODIC]
        assert len(ergodic) == 2 and all(eta == 1.0 for _, eta, _ in ergodic)

    def test_run_matrix_shares_episodes_with_rows(self):
        config = small_config(methods=(Method.ERGODIC, Method.TPE_EI))
        matrix = run_matrix(config)
        rows = rows_from_matrix(config, matrix)
        assert len(rows) == len(matrix) == 2
        for (method, eta, speed), results in matrix.items():
            assert len(results) == config.epochs * config.total_slots

    def test_ergodic_rows_are_exact(self):
        config = small_config(methods=(Method.ERGODIC,))
        row = run_experiment(config)[0]
        assert row.accuracy == 1.0 and row.rsrp_mae_db == 0.0 and row.overhead == 1.0

    def test_same_seed_same_rows(self):
        config = small_config(methods=(Method.TPE_EI, Method.GP_EI))
        assert run_experiment(config) == run_experiment(config)

    def test_different_seed_differs(self):
        config = small_config(methods=(Method.RANDOM,))
        other = dataclasses.replace(config, master_seed=config.master_seed + 1)
        assert run_experiment(config) != run_experiment(other)


    def test_noise_lowers_gp_accuracy(self):
        """GP-EI at eta 0.4, speed 1, 10 noisy epochs: accuracy falls as the
        noise floor rises from -120 to -50 to -30 dBm (best beam: -31 to -22
        dBm).  Over master seeds 1-7 and the default, accuracy spread 0.91-1.00,
        0.47-0.67 and 0.04-0.14 at the three floors, and each step lowered it
        by at least 0.28; the default seed gives 1.00, 0.58 and 0.08."""
        config = small_config(methods=(Method.GP_EI,), overheads=(0.4,), epochs=10,
                              total_slots=12, measure_with_noise=True)
        accuracy = []
        for noise_dbm in (-120.0, -50.0, -30.0):
            noisy = dataclasses.replace(config, scene=SceneConfig(noise_power_dbm=noise_dbm))
            accuracy.append(run_experiment(noisy)[0].accuracy)
        assert accuracy[0] >= 0.9
        assert accuracy[0] - accuracy[1] >= 0.15 and accuracy[1] - accuracy[2] >= 0.15, accuracy

    def test_seeded_metrics_csv_is_pinned(self, tmp_path):
        """The default matrix at 5 epochs, timing off, writes the very bytes
        every earlier version wrote: no seeded pick may move unannounced."""
        config = dataclasses.replace(ExperimentConfig(), epochs=5, collect_timing=False)
        path = tmp_path / "metrics.csv"
        emit_csv(run_experiment(config), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SEEDED_METRICS_SHA256

    @pytest.mark.parametrize("setting", list(SEEDED_SETTING_METRICS_SHA256))
    def test_noisy_and_warm_start_metrics_csv_is_pinned(self, tmp_path, setting):
        """The same matrix with noise at -50 dBm, where it moves picks, and
        with warm start: BO slots drawn first and searched as lanes write the
        bytes of one stream per episode searched slot by slot."""
        config = dataclasses.replace(ExperimentConfig(), epochs=5, collect_timing=False,
                                     scene=SceneConfig(noise_power_dbm=-50.0),
                                     measure_with_noise=setting in ("noise", "both"),
                                     warm_start=setting in ("warm", "both"))
        path = tmp_path / "metrics.csv"
        emit_csv(run_experiment(config), path)
        assert (hashlib.sha256(path.read_bytes()).hexdigest()
                == SEEDED_SETTING_METRICS_SHA256[setting])

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_blas_thread_count_leaves_seeded_csv_pinned(self, tmp_path, threads):
        """The run uses the BLAS library's own thread count, set here by
        OPENBLAS_NUM_THREADS before numpy loads; the same pinned bytes come out."""
        (tmp_path / "run.cfg").write_text("epochs = 5\ncollect_timing = false\n")
        src = str(Path(ristrack.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "ristrack.cli", "run", "--config",
                        str(tmp_path / "run.cfg"), "--out", str(tmp_path)],
                       env=env, capture_output=True, check=True, timeout=300)
        csv = (tmp_path / "metrics.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == SEEDED_METRICS_SHA256


def without_time(results):
    return [dataclasses.replace(r, elapsed=0.0) for r in results]


BO_MATRIX = dict(methods=(Method.GP_EI, Method.TPE_EI), overheads=(0.2, 0.4, 0.6),
                 speeds=(1, 2), collect_timing=True)


class TestSharedSearch:
    """Without noise and warm start `run_matrix` searches each BO (method,
    speed, epoch, slot) once at the largest budget, as a lane, and each
    overhead reads its budget's prefix; the rows must be those of one
    per-slot search per slot and overhead (`oracles.replay_cell`)."""

    def assert_cells_equal_replay(self, config):
        matrix = run_matrix(config)
        assert list(matrix) == experiment_cells(config)
        scenario = scenario_from_config(config)
        for (method, eta, speed), results in matrix.items():
            (alone,) = replay_cell(scenario, config, method, (eta,), speed)
            assert without_time(results) == without_time(alone), (method, eta, speed)
            assert all(r.elapsed >= 0.0 for r in results), (method, eta, speed)
        return matrix

    def test_shared_cells_equal_one_search_per_cell(self):
        config = small_config(**BO_MATRIX)
        matrix = self.assert_cells_equal_replay(config)
        for method in config.methods:
            for speed in config.speeds:
                per_eta = [matrix[(method, eta, speed)] for eta in config.overheads]
                for slot_results in zip(*per_eta):
                    used = [r.measurements_used for r in slot_results]
                    elapsed = [r.elapsed for r in slot_results]
                    assert used == [20, 40, 60] and elapsed == sorted(elapsed), elapsed

    @pytest.mark.parametrize("setting", ["measure_with_noise", "warm_start"])
    def test_noisy_and_warm_start_runs_search_once_per_cell(self, setting):
        config = small_config(**{**BO_MATRIX, "collect_timing": False, setting: True})
        matrix = run_matrix(config)
        scenario = scenario_from_config(config)
        assert list(matrix) == experiment_cells(config)
        for (method, eta, speed), results in matrix.items():
            ((alone,),) = run_cell(scenario, config, method, (eta,), (speed,))
            assert results == alone, (method, eta, speed)

    def test_budget_one_is_timed_after_the_first_measurement(self):
        """round(0.004 * 100) = 0, so that overhead measures one cell."""
        config = small_config(**{**BO_MATRIX, "overheads": (0.004, 0.2)})
        matrix = self.assert_cells_equal_replay(config)
        for method in config.methods:
            for one, twenty in zip(matrix[(method, 0.004, 1)], matrix[(method, 0.2, 1)]):
                assert (one.measurements_used, twenty.measurements_used) == (1, 20)
                assert 0.0 <= one.elapsed <= twenty.elapsed

    def test_one_cell_grid(self):
        config = small_config(**BO_MATRIX, grid=GridMap(rows=1, cols=1))
        for results in self.assert_cells_equal_replay(config).values():
            assert all(r.measurements_used == 1 and r.chosen_index == 0 for r in results)

    def test_overheads_of_one_budget_each_get_their_row(self):
        """0.2 and 0.204 both round to 20 of 100 cells."""
        config = small_config(**{**BO_MATRIX, "overheads": (0.4, 0.2, 0.204)})
        matrix = self.assert_cells_equal_replay(config)
        rows = dict(zip(experiment_cells(config), rows_from_matrix(config, matrix)))
        for method in config.methods:
            for speed in config.speeds:
                low, high = matrix[(method, 0.2, speed)], matrix[(method, 0.204, speed)]
                assert without_time(low) == without_time(high)
                assert rows[(method, 0.2, speed)].overhead == rows[(method, 0.204, speed)].overhead == 0.2

    def test_keys_keep_experiment_cell_order(self):
        config = small_config(methods=(Method.TPE_EI, Method.RANDOM, Method.ERGODIC,
                                       Method.GP_EI),
                              overheads=(0.6, 0.2), speeds=(2, 1))
        assert list(run_matrix(config)) == experiment_cells(config)

    @pytest.mark.parametrize("noisy", [False, True])
    def test_fit_count(self, noisy, monkeypatch):
        """(largest budget - 1) lane-steps per BO (method, speed, epoch,
        slot) when the overheads share a search, and Σ(budget - 1) over
        every overhead when each searches its own episodes: counted by the
        lane engine, with no surrogate fit either way."""
        fits = []
        lane_steps = {}

        def counted(fit):
            def counted_fit(*args, **kwargs):
                fits.append(fit.__name__)
                return fit(*args, **kwargs)
            return counted_fit

        def counted_search(rsrp, first, method, *args, **kwargs):
            found = search(rsrp, first, method, *args, **kwargs)
            lane_steps[method.value] = lane_steps.get(method.value, 0) + found.steps
            return found

        for name in ("gp_fit", "tpe_fit"):
            monkeypatch.setattr(surrogate, name, counted(getattr(surrogate, name)))
        search = tracker.search_lanes
        monkeypatch.setattr(tracker, "search_lanes", counted_search)
        config = small_config(**{**BO_MATRIX, "measure_with_noise": noisy})
        run_matrix(config)
        slots = len(config.speeds) * config.epochs * config.total_slots  # per method
        steps = (20 - 1) + (40 - 1) + (60 - 1) if noisy else 60 - 1
        assert lane_steps == {"gp_ei": slots * steps, "tpe_ei": slots * steps}
        assert fits == []


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("method", list(Method))
def test_run_cell_makes_one_search_per_overhead_group(method, noisy, monkeypatch):
    """Every method's episodes, at every speed, go through one
    `search_episodes` call per overhead group: all the overheads when they
    share a search, else one call per overhead."""
    calls = []

    def counted(scenario, config, method, etas, episodes):
        calls.append((etas, len(episodes)))
        return search(scenario, config, method, etas, episodes)

    search = bench.search_episodes
    monkeypatch.setattr(bench, "search_episodes", counted)
    config = small_config(measure_with_noise=noisy)
    found = run_cell(scenario_from_config(config), config, method, (0.2, 0.4), (1, 2))
    episodes = 2 * config.epochs
    groups = [(0.2, 0.4)] if shares_search(config, method) else [(0.2,), (0.4,)]
    assert calls == [(group, episodes) for group in groups]
    assert [[len(cell) for cell in by_speed] for by_speed in found] == [[6, 6]] * 2


def test_benchmark_span_points_resolve():
    """Every function `perfbench/spans.py` wraps exists under its home module,
    and `track_slot` (the sweep and random search) returns the `SlotResult`
    whose `measurements_used` the tracer reads, as `search_episodes` does for
    BO: a rename fails here, not in a traced benchmark run."""
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "spans.py").read_text())
    points = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "SPAN_POINTS")
    for home, name in points:
        assert callable(getattr(importlib.import_module(f"ristrack.{home}"), name, None)), name
    config = small_config()
    scenario = scenario_from_config(config)
    env = build_slot_env(scenario, 0)
    for method in (Method.ERGODIC, Method.RANDOM):
        assert isinstance(track_slot(env, config, method, 0.2, np.random.default_rng(0)),
                          SlotResult), method
    for method in BO_METHODS:
        ((result, *_),) = search_episodes(scenario, config, method, (0.2,),
                                          [(1, np.random.default_rng(0))])
        assert isinstance(result, SlotResult), method


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["paper-matrix", "bo-long", "sweep-noisy"])
def test_benchmark_runs_the_workload(workload, trace):
    """One short run of a benchmark workload, untraced and traced, exits 0
    and reports a correct run.  Its traced run divides the model spans' self
    time by itself plus `track_slot`'s, so a BO route that reaches no span
    point at all, or a slot-by-slot route that stops calling `track_slot`,
    fails here.  paper-matrix is the one workload that runs lanes and
    slot-by-slot slots (ergodic and random) in one pass."""
    root = Path(__file__).parents[1]
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), "--workload",
                           workload, "--seed", "7", "--seconds", "0.1", "--epochs", "1",
                           "--trace", trace],
                          cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert '"correct": true' in proc.stdout.strip().splitlines()[-1]


class TestEmission:
    def test_empty_rows_gives_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        emit_csv([], path)
        assert path.read_text() == "method,overhead,speed,accuracy,rsrp_mae_db,exec_time_s\n"

    def test_csv_round_trip(self, tmp_path):
        rows = [
            MetricsRow("ergodic", 1.0, 1, 1.0, 0.0, 0.335),
            MetricsRow("tpe_ei", 0.2, 2, 0.558333, 1.53275, 0.0845125),
        ]
        path = tmp_path / "m.csv"
        emit_csv(rows, path)
        parsed = parse_csv(path)
        for a, b in zip(parsed, rows):
            assert a.method == b.method
            assert a.overhead == pytest.approx(b.overhead, rel=1e-5)
            assert a.accuracy == pytest.approx(b.accuracy, rel=1e-5)
            assert a.rsrp_mae_db == pytest.approx(b.rsrp_mae_db, rel=1e-5)
            assert a.exec_time_s == pytest.approx(b.exec_time_s, rel=1e-5)

    def test_csv_formatting(self, tmp_path):
        path = tmp_path / "m.csv"
        emit_csv([MetricsRow("gp_ei", 0.4, 1, 0.9783333333, 0.123456789, 0.00965432)], path)
        text = path.read_text()
        assert text.endswith("\n") and "\r" not in text
        assert text.splitlines()[1] == "gp_ei,0.4,1,0.978333,0.123457,0.00965432"

    def test_trace_schema_and_ergodic_exactness(self, tmp_path):
        config = small_config(methods=(Method.ERGODIC,), epochs=1)
        scenario = scenario_from_config(config)
        assert config.total_slots == 3 and not config.collect_timing
        (episode,) = run_episode(scenario, config, Method.ERGODIC, (1.0,), speed=1,
                                 rng=np.random.default_rng(5))
        path = tmp_path / "trace.csv"
        emit_trace(episode, path, grid=config.grid)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,true_row,true_col,pred_row,pred_col,true_rsrp_db,achieved_rsrp_db"
        assert len(lines) == 4
        for line, result in zip(lines[1:], episode):
            t, tr, tc, pr, pc, tdb, adb = line.split(",")
            assert int(t) == result.slot_index
            assert (int(tr), int(tc)) == (int(pr), int(pc))  # ergodic: pred == true
            assert float(tdb) == pytest.approx(float(adb))

    def test_trace_uses_true_best_cell(self, tmp_path):
        grid = GridMap()
        episode = [slot(2.0, 1.0, true_idx=37, chosen_idx=82, t=1)]
        path = tmp_path / "trace.csv"
        emit_trace(episode, path, grid=grid)
        row = path.read_text().splitlines()[1].split(",")
        assert (int(row[1]), int(row[2])) == grid.cell_of(37)
        assert (int(row[3]), int(row[4])) == grid.cell_of(82)

    def test_unwritable_path_raises_with_context(self, tmp_path):
        with pytest.raises(OSError, match="no/such"):
            emit_csv([], tmp_path / "no" / "such" / "dir.csv")


# One non-default value per file key: (text in the file, value of the field).
NON_DEFAULT = {
    "carrier_frequency_hz": ("28e9", 28e9),
    "num_bs_antennas": ("4", 4),
    "noise_power_dbm": ("-90.5", -90.5),
    "channel_model": ("empirical_log", ChannelModel.EMPIRICAL_LOG),
    "bs_position": ("1 -2 3.5", Vec3(1.0, -2.0, 3.5)),
    "ris_origin": ("0.1 0.2 0.3", Vec3(0.1, 0.2, 0.3)),
    "ris_rows": ("8", 8),
    "ris_cols": ("6", 6),
    "element_spacing_m": ("0.0259", 0.0259),
    "phase_bits": ("3", 3),
    "grid_rows": ("5", 5),
    "grid_cols": ("7", 7),
    "cell_size_m": ("0.25", 0.25),
    "grid_origin": ("-1 -1 0", Vec3(-1.0, -1.0, 0.0)),
    "cell_height_m": ("1.2", 1.2),
    "methods": ("tpe_ei gp_ei", (Method.TPE_EI, Method.GP_EI)),
    "overheads": ("0.3 1", (0.3, 1.0)),
    "speeds": ("3", (3,)),
    "total_slots": ("5", 5),
    "epochs": ("7", 7),
    "master_seed": ("11", 11),
    "warm_start": ("yes", True),
    "measure_with_noise": ("true", True),
    "tpe_gamma": ("0.4", 0.4),
    "kde_bandwidth": ("0.5", 0.5),
    "gp_length_scale": ("3", 3.0),
    "collect_timing": ("no", False),
    "output_dir": ("results/a", "results/a"),
}

# The template `ristrack init-config` wrote while it was a hand-kept literal
# (element_spacing_m = 0.0259, the Table-1 print of c/(2 f_c)).
LITERAL_TEMPLATE = (Path(__file__).parent / "data" / "literal_template.cfg").read_text()


def field_of(config: ExperimentConfig, key: str):
    part, name, _ = KEYS[key]
    return getattr(config if part == "run" else getattr(config, part), name)


class TestConfigFile:
    def test_default_text_round_trips(self):
        assert parse_config_text(DEFAULT_CONFIG_TEXT) == parse_config_text("") == ExperimentConfig()

    def test_every_key_lands_in_its_field(self):
        assert set(NON_DEFAULT) == set(KEYS)
        defaults = ExperimentConfig()
        for key, (raw, expected) in NON_DEFAULT.items():
            assert field_of(defaults, key) != expected, key
            config = parse_config_text(f"{key} = {raw}\n")
            assert field_of(config, key) == expected, key

    def test_retired_sweep_resolution_still_parses(self):
        assert parse_config_text("sweep_resolution = 32\n") == ExperimentConfig()
        assert "sweep_resolution" not in DEFAULT_CONFIG_TEXT
        with pytest.raises(ValueError, match="sweep_resolution"):
            parse_config_text("sweep_resolution = fine\n")

    @pytest.mark.parametrize("bits", ["0", "31", "53", "63", "64"])
    def test_phase_bits_outside_one_to_thirty_is_rejected_by_name(self, bits):
        with pytest.raises(ValueError, match=f"^phase_bits must be in \\[1, 30\\], got {bits}$"):
            parse_config_text(f"phase_bits = {bits}\n")

    def test_thirty_phase_bits_build_a_codebook(self):
        config = parse_config_text("phase_bits = 30\ngrid_rows = 2\ngrid_cols = 2\n")
        codebook = scenario_from_config(config).codebook
        assert codebook.phase_bits == 30 and 0 <= codebook.indices.min()
        assert codebook.indices.max() < 2 ** 30

    def test_template_lists_every_key(self):
        keys = [line.lstrip("# ").split(" =")[0] for line in DEFAULT_CONFIG_TEXT.splitlines()
                if " = " in line or line.endswith(" =")]
        assert sorted(keys) == sorted(KEYS)

    def test_omitted_spacing_follows_the_files_carrier(self):
        config = parse_config_text("carrier_frequency_hz = 28e9\n")
        assert config.ris.element_spacing == config.scene.wavelength / 2 == 3e8 / 28e9 / 2

    def test_derived_panel_follows_a_replaced_scene(self):
        scene = SceneConfig(carrier_frequency=28e9)
        for config in (ExperimentConfig(), parse_config_text("epochs = 3\n")):
            moved = dataclasses.replace(config, scene=scene)
            assert moved.ris == RisGeometry.for_scene(scene)
            assert moved.ris.element_spacing == 3e8 / 28e9 / 2

    def test_explicit_panel_survives_replace(self):
        explicit = RisGeometry(rows=4, cols=6, element_spacing=0.03, phase_bits=3)
        tweaked = dataclasses.replace(ExperimentConfig().ris, phase_bits=3)
        for panel in (explicit, tweaked):
            config = ExperimentConfig(ris=panel)
            assert dataclasses.replace(config, epochs=5).ris == panel
            assert dataclasses.replace(config, scene=SceneConfig(carrier_frequency=28e9)).ris == panel

    def test_literal_template_still_parses(self):
        config = parse_config_text(LITERAL_TEMPLATE)
        assert config.ris.element_spacing == 0.0259
        assert dataclasses.replace(config, ris=ExperimentConfig().ris) == ExperimentConfig()

    @pytest.mark.parametrize("key, bad, message", [
        ("wavelength_m", "0.10", "wavelength"),
        ("light_speed", "2.9e8", "light_speed"),
        ("wavelength_m", "nan", "^wavelength_m nan inconsistent"),
        ("light_speed", "nan", "^light_speed nan inconsistent"),
        ("wavelength_m", "abc", "^wavelength_m: could not convert"),
        ("light_speed", "abc", "^light_speed: could not convert"),
    ])
    def test_literal_template_checks_derived_keys(self, key, bad, message):
        line = next(line for line in LITERAL_TEMPLATE.splitlines() if line.startswith(key))
        with pytest.raises(ValueError, match=message):
            parse_config_text(LITERAL_TEMPLATE.replace(line, f"{key} = {bad}"))

    @pytest.mark.parametrize("text, message", [
        ("epochs = 10\nepochs = 3\n", "^line 2: key 'epochs' repeats line 1$"),
        ("methods = gp_ei\n# comment\n\nmethods = random tpe_ei\n",
         "^line 4: key 'methods' repeats line 1$"),
        ("sweep_resolution = 32\nepochs = 3\nsweep_resolution = 32\n",
         "^line 3: key 'sweep_resolution' repeats line 1$"),
        ("light_speed = 3e8\nlight_speed = 2.99792458e8\n",
         "^line 2: key 'light_speed' repeats line 1$"),
    ])
    def test_repeated_key_is_rejected(self, text, message):
        """A second `key = value` would silently override the first."""
        with pytest.raises(ValueError, match=message):
            parse_config_text(text)

    def test_default_text_parses_to_defaults(self):
        config = parse_config_text(DEFAULT_CONFIG_TEXT)
        assert config.scene.carrier_frequency == 5.8e9
        assert config.scene.num_bs_antennas == 2
        assert config.scene.noise_power_dbm == -120
        assert config.ris.rows == config.ris.cols == 10
        assert config == ExperimentConfig()
        assert config.grid.cell_size == 0.4
        assert config.methods == (Method.ERGODIC, Method.RANDOM, Method.GP_EI, Method.TPE_EI)
        assert config.overheads == (0.2, 0.4, 0.6)
        assert config.speeds == (1, 2)
        assert config.total_slots == 12
        assert config.epochs == 100

    def test_omitted_spacing_defaults_to_half_wavelength(self):
        config = parse_config_text("carrier_frequency_hz = 5.8e9\n")
        assert config.ris.element_spacing == pytest.approx(config.scene.wavelength / 2)

    def test_wavelength_consistency_enforced(self):
        with pytest.raises(ValueError, match="wavelength"):
            parse_config_text("carrier_frequency_hz = 5.8e9\nwavelength_m = 0.10\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_text("frequenzy = 1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config_text("just some words\n")

    def test_comments_and_blanks_ignored(self):
        config = parse_config_text("# hello\n\nepochs = 7   # trailing\n")
        assert config.epochs == 7
