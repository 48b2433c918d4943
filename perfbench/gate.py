"""Correctness gate of the benchmark.

Every slot must satisfy the search invariants, whatever the seed, and every
pass of a run must reproduce the first.  Each run also makes one pass of its
workload at the default seed and REFERENCE_EPOCHS, whose per-cell accuracy and
RSRP error must equal the reference recorded in ``reference/<workload>.json``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_EPOCHS = 1
# Accuracy is a ratio of integers and compared exactly; the RSRP error is a
# float mean and may differ in its last bits with the BLAS summation order.
MAE_REL_TOL = 1e-9


def budget(method: str, eta: float, num_cells: int) -> int:
    """Measurements a slot may take: all cells for the sweep, round(eta*N) otherwise."""
    if method == "ergodic":
        return num_cells
    return min(max(int(round(eta * num_cells)), 1), num_cells)


def slot_failures(cell, results, epochs: int, total_slots: int, num_cells: int) -> int:
    """Number of slots in one cell that break an invariant.

    A missing slot counts as failed, so does a slot whose chosen entry lies
    outside the codebook, whose achieved power exceeds the true best, or that
    used another number of measurements than its budget.
    """
    method, eta, _ = cell
    expected = budget(method.value, eta, num_cells)
    failed = max(epochs * total_slots - len(results), 0)
    for r in results:
        ok = (0 <= r.chosen_index < num_cells
              and 0 <= r.true_best_index < num_cells
              and r.achieved_rsrp <= r.true_best_rsrp
              and r.measurements_used == expected
              and 1 <= r.slot_index <= total_slots
              and r.elapsed >= 0.0)
        failed += not ok
    return failed


def quality_rows(rows) -> list[dict]:
    return [{"method": r.method, "overhead": r.overhead, "speed": r.speed,
             "accuracy": r.accuracy, "rsrp_mae_db": r.rsrp_mae_db} for r in rows]


def same_quality(row: dict, ref: dict) -> bool:
    return (row["method"] == ref["method"]
            and row["overhead"] == ref["overhead"]
            and row["speed"] == ref["speed"]
            and row["accuracy"] == ref["accuracy"]
            and math.isclose(row["rsrp_mae_db"], ref["rsrp_mae_db"],
                             rel_tol=MAE_REL_TOL, abs_tol=1e-12))


def mismatched_cells(rows: list[dict], reference: list[dict]) -> list[int]:
    """Indices of the cells whose quality differs from the reference cells."""
    if len(rows) != len(reference):
        return list(range(max(len(rows), len(reference))))
    return [i for i, (row, ref) in enumerate(zip(rows, reference)) if not same_quality(row, ref)]


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict:
    return json.loads(reference_path(workload).read_text())
