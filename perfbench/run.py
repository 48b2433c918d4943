#!/usr/bin/env python3
"""Benchmark of the ristrack experiment matrix.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload paper-matrix --seed 1 --seconds 30 --trace 0

The workload name and seed give an experiment config, written as config text
and read back through ``config.parse_config_text``.  The run then makes the
calls ``ristrack run`` makes (``bench.scenario_from_config``,
``bench.run_matrix``, ``bench.rows_from_matrix``, ``bench.emit_csv``), repeats
the matrix until ``--seconds`` have passed, checks every slot (see gate.py)
and prints its metrics.  ``--trace 0`` gives the end-to-end metrics,
``--trace 1`` the per-layer ones from a run with every ristrack layer wrapped
in spans (see spans.py).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark imports ristrack from ``src/`` of the checkout and leaves BLAS
and OpenMP thread counts as it finds them; it records them instead.  Results,
emitted CSVs and span files go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 20240817  # master_seed of the default config
SETUP_ROUNDS = 5      # setup rounds of a traced run
SETUP_EVERY_S = 2.5   # seconds of passes per setup round in an untraced run


@dataclass(frozen=True)
class Workload:
    methods: str
    overheads: str
    epochs: int
    noisy: bool = False

    def config_text(self, seed: int, epochs: int) -> str:
        return "\n".join([
            f"methods = {self.methods}",
            f"overheads = {self.overheads}",
            "speeds = 1 2",
            f"epochs = {epochs}",
            f"master_seed = {seed}",
            f"measure_with_noise = {'true' if self.noisy else 'false'}",
            "collect_timing = true",
            "",
        ])


# Why each workload: see BENCHMARK.json.  Epochs are sized so that one pass
# of the matrix takes 1-10 s on two cores (several passes fit in a run, and
# timings are medians over passes) while the workload's accuracy varies by a
# few percent at most from seed to seed.
WORKLOADS = {
    "paper-matrix": Workload("ergodic random gp_ei tpe_ei", "0.2 0.4 0.6", epochs=2),
    "bo-long": Workload("gp_ei tpe_ei", "0.6", epochs=1),
    "sweep-noisy": Workload("ergodic random", "0.2 0.4 0.6", epochs=40, noisy=True),
}

# Per-layer metrics.  Spans in PASS_SPANS report calls and self time per pass
# of the matrix; spans in CALL_SPANS report the median inclusive time of one
# call.
PASS_SPANS = (
    "codebook.quantize_codeword",
    "channel.ris_ue_channel",
    "tracker.build_slot_env",
    "tracker.mobility_step",
    "tracker.track_slot",
    "tracker.run_episode",
    "surrogate.gp_fit",
    "surrogate.tpe_fit",
    "surrogate.gp_posterior",
    "acquisition.select_next",
    "acquisition.expected_improvement",
    "bench.run_cell",
)
CALL_SPANS = (
    "config.parse_config_text",
    "codebook.build_codebook",
    "channel.bs_ris_channel",
    "bench.scenario_from_config",
    "bench.compute_metrics",
    "bench.emit_csv",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time; at least one pass of the matrix runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--epochs", type=int, default=None,
                        help="override the workload's epoch count (self-tests)")
    return parser.parse_args(argv)


def import_ristrack():
    """Import ristrack from the checkout's src/, never from an installed copy."""
    if not (SRC / "ristrack" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ristrack sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ristrack
    if Path(ristrack.__file__).resolve().parent != SRC / "ristrack":
        raise SystemExit(f"perfbench: imported ristrack from {ristrack.__file__}, not {SRC}")


# -- environment record ----------------------------------------------------

def _git_commit() -> str:
    """HEAD of the checkout read from .git (without running git), or 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    """sha256 over src/ristrack/*.py, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "ristrack").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _blas() -> str:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def environment(workload: str, seed: int, epochs: int) -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "git_commit": _git_commit(),
        "src_digest": _src_digest(),
        "workload": workload,
        "seed": seed,
        "epochs": epochs,
    }


# -- running the matrix ----------------------------------------------------

def time_setup(text: str, rounds: int) -> list[float]:
    """Seconds from config text to a ready scenario, once per round."""
    from ristrack import bench, config
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        bench.scenario_from_config(config.parse_config_text(text))
        times.append(time.perf_counter() - t0)
    return times


class Passes:
    """Repeated passes of one workload's matrix and what they measured."""

    def __init__(self, config, expected_quality: list[dict] | None, csv_path: Path):
        from ristrack import bench
        self.config = config
        self.cells = bench.experiment_cells(config)
        self.slots_per_cell = config.epochs * config.total_slots
        self.expected_quality = expected_quality
        self.csv_path = csv_path
        self.pass_seconds: list[float] = []
        self.pass_rates: list[float] = []      # slots per second of run_matrix
        self.pass_search_ms: list[float] = []  # mean per-slot search time
        self.slots = 0
        self.attempted = 0
        self.failed = 0
        self.elapsed_by_method: dict[str, list[float]] = {}
        self.quality: list[dict] | None = None
        self.hits = 0

    def run_once(self) -> bool:
        """One pass of the matrix, checked and recorded; False if it raised."""
        from ristrack import bench
        t0 = time.perf_counter()
        try:
            matrix = bench.run_matrix(self.config)
        except Exception as exc:  # a raising pass fails all of its slots
            print(f"perfbench: run_matrix raised {exc!r}", file=sys.stderr)
            self.attempted += len(self.cells) * self.slots_per_cell
            self.failed += len(self.cells) * self.slots_per_cell
            return False
        pass_s = time.perf_counter() - t0
        rows = bench.rows_from_matrix(self.config, matrix)
        bench.emit_csv(rows, self.csv_path)
        self._record(matrix, rows, pass_s)
        return True

    def _record(self, matrix, rows, pass_s: float) -> None:
        from ristrack import bench
        quality = gate.quality_rows(rows)
        if self.quality is None:
            self.quality = quality
            self.hits = sum(bench.slot_hit(r) for cell in self.cells for r in matrix[cell])
        # Every pass must reproduce the reference, or else the first pass.
        bad = set(gate.mismatched_cells(quality, self.expected_quality or self.quality))
        for i, cell in enumerate(self.cells):
            results = matrix.get(cell, [])
            self.attempted += self.slots_per_cell
            if i in bad:
                self.failed += self.slots_per_cell
            else:
                self.failed += gate.slot_failures(cell, results, self.config.epochs,
                                                  self.config.total_slots,
                                                  self.config.grid.num_cells)
            self.elapsed_by_method.setdefault(cell[0].value, []).extend(r.elapsed for r in results)
        slots = sum(len(matrix.get(cell, [])) for cell in self.cells)
        search_s = sum(r.elapsed for cell in self.cells for r in matrix.get(cell, []))
        self.slots += slots
        self.pass_seconds.append(pass_s)
        self.pass_rates.append(slots / pass_s)
        self.pass_search_ms.append(1e3 * search_s / slots)

    def csv_matches(self) -> bool:
        """The emitted CSV reads back as the last pass's quality columns."""
        from ristrack import bench
        if self.quality is None:
            return False
        parsed = bench.parse_csv(self.csv_path)
        return len(parsed) == len(self.quality) and all(
            p.method == q["method"] and p.speed == q["speed"]
            and p.accuracy == float(f"{q['accuracy']:.6g}")
            and p.rsrp_mae_db == float(f"{q['rsrp_mae_db']:.6g}")
            for p, q in zip(parsed, self.quality))

    @property
    def passes(self) -> int:
        return len(self.pass_seconds)

    @property
    def slots_per_s(self) -> float:
        return statistics.median(self.pass_rates)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(setup_times: list[float], passes: Passes) -> dict:
    """Medians over setup rounds and passes; accuracy of the (identical) passes."""
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "slots_per_s": (passes.slots_per_s, "slots/s"),
        "search_ms_mean": (statistics.median(passes.pass_search_ms), "ms"),
        "accuracy": (passes.hits / (len(passes.cells) * passes.slots_per_cell), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer_metrics(tracer, mark: int, traced: Passes, untraced: Passes) -> dict:
    per_pass = spans.summarize(tracer.spans[mark:])
    per_call = spans.summarize(tracer.spans)
    n = traced.passes
    metrics = {}
    for name in CALL_SPANS:
        durations = per_call.get(name, {}).get("durations") or [0.0]
        metrics[f"{name}.total_ms"] = (1e3 * statistics.median(durations), "ms")
    for name in PASS_SPANS:
        entry = per_pass.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (entry["calls"] / n, "count")
        metrics[f"{name}.self_ms"] = (1e3 * entry["self_s"] / n, "ms")
    metrics["tracker.measurements"] = (tracer.measurements / n, "count")
    metrics["surrogate.fit_history_len_mean"] = (
        tracer.fit_history_len / tracer.fits if tracer.fits else 0.0, "points")
    metrics["acquisition.improving_pick_ratio"] = (
        tracer.improving_picks / tracer.picks if tracer.picks else 0.0, "ratio")
    rows = traced.quality
    metrics["bench.rsrp_mae_db"] = (statistics.fmean(r["rsrp_mae_db"] for r in rows), "dB")
    metrics["trace.throughput_ratio"] = (traced.slots_per_s / untraced.slots_per_s, "ratio")
    return metrics


# -- reporting -------------------------------------------------------------

def method_latencies(passes: Passes) -> dict:
    """Per-method search latency: p50, p90 and the number of slots behind them."""
    import numpy as np
    out = {}
    for method, values in passes.elapsed_by_method.items():
        p50, p90 = np.percentile(1e3 * np.asarray(values), [50, 90])
        out[method] = {"search_ms_p50": float(p50), "search_ms_p90": float(p90),
                       "slots": len(values)}
    return out


def report(env: dict, passes: Passes, metrics: dict, attempted: int, failed: int,
           correct: bool, extra: dict) -> dict:
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"environment": env, "pass_seconds": passes.pass_seconds, "cells": passes.quality,
              "method_latency": method_latencies(passes), **extra, "result": result}
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{env['workload']}-seed{env['seed']}-trace{extra['trace']}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    for key, value in env.items():
        print(f"env {key} = {value}")
    print(f"passes = {passes.passes}, slots = {passes.slots}, "
          f"matrix time = {sum(passes.pass_seconds):.3f} s")
    for method, lat in record["method_latency"].items():
        print(f"{method}.search_ms_p50 = {lat['search_ms_p50']:.4f} ms, "
              f"{method}.search_ms_p90 = {lat['search_ms_p90']:.4f} ms (n = {lat['slots']})")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted = {attempted}, failed = {failed}, correct = {correct}")
    print(f"wrote {path}")
    return result


def reference_pass(name: str, expected: list[dict] | None) -> Passes:
    """One untimed pass of a workload at the default seed and REFERENCE_EPOCHS.

    With `expected` cells, a cell whose accuracy or RSRP error differs fails
    all its slots; this pass runs in every benchmark run, whatever its seed.
    """
    from ristrack import config
    text = WORKLOADS[name].config_text(DEFAULT_SEED, gate.REFERENCE_EPOCHS)
    csv_path = OUT_DIR / "out" / f"{name}-reference.csv"
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    passes = Passes(config.parse_config_text(text), expected, csv_path)
    passes.run_once()
    return passes


def measure(text: str, seconds: float, csv_path: Path):
    """Untraced run: passes for `seconds` with setup rounds between them.

    Machine speed drifts over seconds, so the setup rounds are spread over
    the run instead of made in one burst: about one per SETUP_EVERY_S
    seconds of passes, and at least one before each pass.
    """
    from ristrack import config
    passes = Passes(config.parse_config_text(text), None, csv_path)
    setup_times: list[float] = []
    start = time.perf_counter()
    while True:
        last_s = passes.pass_seconds[-1] if passes.passes else 0.0
        setup_times += time_setup(text, max(1, round(last_s / SETUP_EVERY_S)))
        if not passes.run_once():
            break
        if time.perf_counter() - start + passes.pass_seconds[-1] / 2 >= seconds:
            break
    if passes.passes == 0:
        return None
    return [passes], end_to_end_metrics(setup_times, passes), {"setup_s_rounds": setup_times}


def measure_traced(text: str, seconds: float, csv_path: Path, span_path: Path):
    """Traced run: per-layer metrics from spans, tracing overhead from paired passes.

    Untraced and traced passes alternate, and so does which of them goes
    first in a pair, so that drift in machine speed and the order cancel from
    the ratio of their throughputs.
    """
    from ristrack import config
    untraced = Passes(config.parse_config_text(text), None, csv_path)
    traced = Passes(config.parse_config_text(text), None, csv_path)
    tracer = spans.Tracer()
    with tracer.installed():
        time_setup(text, SETUP_ROUNDS)
    mark = len(tracer.spans)
    tracer.reset_counters()

    def run_traced() -> bool:
        with tracer.installed():
            return traced.run_once()

    start = time.perf_counter()
    for pair in itertools.count():
        order = (untraced.run_once, run_traced) if pair % 2 == 0 else (run_traced, untraced.run_once)
        if not all(step() for step in order):
            break
        pair_s = untraced.pass_seconds[-1] + traced.pass_seconds[-1]
        if time.perf_counter() - start + pair_s / 2 >= seconds:
            break
    if untraced.passes == 0 or traced.passes == 0:
        return None
    tracer.write(span_path)
    print(f"wrote {len(tracer.spans)} spans to {span_path}")
    metrics = per_layer_metrics(tracer, mark, traced, untraced)
    # track_slot's only child spans are the surrogate and acquisition calls.
    model_ms = sum(value for name, (value, _) in metrics.items()
                   if name.startswith(("surrogate.", "acquisition.")) and name.endswith(".self_ms"))
    share = model_ms / (model_ms + metrics["tracker.track_slot.self_ms"][0])
    print(f"surrogate + acquisition share of track_slot = {share:.4f}")
    extra = {"untraced_slots_per_s": untraced.slots_per_s,
             "traced_slots_per_s": traced.slots_per_s,
             "model_share_of_track_slot": share}
    return [untraced, traced], metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    import_ristrack()
    workload = WORKLOADS[args.workload]
    epochs = args.epochs or workload.epochs
    text = workload.config_text(args.seed, epochs)
    env = environment(args.workload, args.seed, epochs)
    csv_path = OUT_DIR / "out" / f"{args.workload}-seed{args.seed}.csv"

    # The reference pass comes first: it also warms the process up.
    check = reference_pass(args.workload, gate.load_reference(args.workload)["cells"])
    if args.trace:
        span_path = OUT_DIR / "spans" / f"{args.workload}-seed{args.seed}.csv"
        measured = measure_traced(text, args.seconds, csv_path, span_path)
    else:
        measured = measure(text, args.seconds, csv_path)
    if measured is None:
        return 1
    runs, metrics, extra = measured
    passes = runs[-1]
    attempted = check.attempted + sum(r.attempted for r in runs)
    failed = check.failed + sum(r.failed for r in runs)
    correct = failed == 0 and passes.csv_matches() and check.csv_matches()
    extra.update(trace=args.trace, reference_cells=check.quality)
    result = report(env, passes, metrics, attempted, failed, correct, extra)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
