"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest perfbench -q

Each workload runs once per trace mode at one epoch; the tests check the
printed metrics against BENCHMARK.json, the exact counts against closed
form, the correctness gate against a perturbed reference, and the reference
against what ``ristrack run`` writes for the same config.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NUM_CELLS = 100
TOTAL_SLOTS = 12


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


_RUNS: dict[tuple[str, int], dict] = {}


def one_epoch_result(workload: str, trace: int) -> dict:
    """Result line of a one-epoch run (cached: each run takes seconds)."""
    key = (workload, trace)
    if key not in _RUNS:
        proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0.1",
                      "--trace", str(trace), "--epochs", "1")
        assert proc.returncode == 0, proc.stderr
        _RUNS[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _RUNS[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_one_epoch_run_prints_every_metric_with_its_unit(workload, trace):
    result = one_epoch_result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in declared] == list(result["metrics"])
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])
        if not trace:
            assert value["value"] > 0, m["name"]


def _expected_counts(workload: str, epochs: int = 1) -> dict:
    """Closed-form per-pass counts for a workload's matrix."""
    spec = run.WORKLOADS[workload]
    slots = {}  # method -> (slots, budget) pairs
    for method in spec.methods.split():
        etas = [1.0] if method == "ergodic" else [float(e) for e in spec.overheads.split()]
        for eta in etas:
            for _speed in (1, 2):
                slots.setdefault(method, []).append(
                    (epochs * TOTAL_SLOTS, gate.budget(method, eta, NUM_CELLS)))
    cells = sum(len(v) for v in slots.values())
    all_slots = sum(n for v in slots.values() for n, _ in v)

    def fits(method):
        return sum(n * (b - 1) for n, b in slots.get(method, []))

    bo = slots.get("gp_ei", []) + slots.get("tpe_ei", [])
    fit_count = sum(n * (b - 1) for n, b in bo)
    fit_len = sum(n * (b - 1) * b / 2 for n, b in bo)
    return {
        "codebook.quantize_codeword.calls": NUM_CELLS,
        "channel.ris_ue_channel.calls": all_slots,
        "tracker.build_slot_env.calls": all_slots,
        "tracker.mobility_step.calls": all_slots,
        "tracker.track_slot.calls": all_slots,
        "tracker.run_episode.calls": cells * epochs,
        "bench.run_cell.calls": cells,
        "tracker.measurements": sum(n * b for v in slots.values() for n, b in v),
        "surrogate.gp_fit.calls": fits("gp_ei"),
        "surrogate.gp_posterior.calls": fits("gp_ei"),
        "acquisition.expected_improvement.calls": fits("gp_ei"),
        "surrogate.tpe_fit.calls": fits("tpe_ei"),
        "acquisition.select_next.calls": fit_count,
        "surrogate.fit_history_len_mean": fit_len / fit_count if fit_count else 0.0,
    }


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_counts_match_closed_form(workload):
    metrics = one_epoch_result(workload, 1)["metrics"]
    for name, expected in _expected_counts(workload).items():
        assert metrics[name]["value"] == pytest.approx(expected, rel=1e-12), name


def test_bypass_workload_does_no_surrogate_or_acquisition_work():
    metrics = one_epoch_result("sweep-noisy", 1)["metrics"]
    for name, value in metrics.items():
        if name.startswith(("surrogate.", "acquisition.")):
            assert value["value"] == 0, name


def test_metric_map_covers_every_per_layer_metric():
    mapping = json.loads((HERE / "metric_map.json").read_text())
    assert set(mapping["per_layer"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert all(entry["moves"] for entry in mapping["per_layer"].values())
    assert set(mapping["workloads"]) == {w["name"] for w in BENCHMARK["workloads"]}
    assert set(run.WORKLOADS) == set(mapping["workloads"])


@pytest.fixture(scope="module")
def ristrack_imported():
    run.import_ristrack()


def test_gate_accepts_the_recorded_reference(ristrack_imported):
    passes = run.reference_pass("sweep-noisy", gate.load_reference("sweep-noisy")["cells"])
    assert passes.passes == 1 and passes.failed == 0 and passes.attempted > 0


@pytest.mark.parametrize("field", ["accuracy", "rsrp_mae_db"])
def test_gate_fails_a_perturbed_reference(ristrack_imported, field):
    reference = copy.deepcopy(gate.load_reference("sweep-noisy")["cells"])
    reference[3][field] += 1e-6
    passes = run.reference_pass("sweep-noisy", reference)
    assert passes.failed == TOTAL_SLOTS * gate.REFERENCE_EPOCHS


def test_gate_counts_slots_that_break_an_invariant(ristrack_imported):
    import dataclasses
    from ristrack.tracker import Method, SlotResult
    good = SlotResult(slot_index=1, true_best_index=5, chosen_index=5, true_best_rsrp=2.0,
                      achieved_rsrp=2.0, measurements_used=20, elapsed=0.001)
    bad = [dataclasses.replace(good, achieved_rsrp=2.5),
           dataclasses.replace(good, measurements_used=19),
           dataclasses.replace(good, chosen_index=NUM_CELLS)]
    cell = (Method.RANDOM, 0.2, 1)
    assert gate.slot_failures(cell, [good], 1, 1, NUM_CELLS) == 0
    assert gate.slot_failures(cell, [good, *bad], 4, 1, NUM_CELLS) == 3
    assert gate.slot_failures(cell, [], 1, 2, NUM_CELLS) == 2


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_reference_equals_ristrack_run(workload, tmp_path):
    """`ristrack run` on the reference config writes the reference's numbers."""
    reference = gate.load_reference(workload)
    config_path = tmp_path / "workload.cfg"
    config_path.write_text(reference["config_text"])
    proc = subprocess.run(
        [sys.executable, "-m", "ristrack.cli", "run", "--config", str(config_path),
         "--out", str(tmp_path)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
    assert len(lines) == len(reference["cells"])
    for line, cell in zip(lines, reference["cells"]):
        method, _, speed, accuracy, mae, _ = line.split(",")
        assert (method, int(speed)) == (cell["method"], cell["speed"])
        assert float(accuracy) == float(f"{cell['accuracy']:.6g}")
        assert float(mae) == float(f"{cell['rsrp_mae_db']:.6g}")


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "sweep-noisy", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
