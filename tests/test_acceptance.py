"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-4 share a single full benchmark run (4 methods x 3 overheads x
2 speeds x 100 epochs x 12 slots); 5-8 are oracle-equivalence checks; 9 is
pipeline determinism.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from ristrack.acquisition import expected_improvement, select_next
from ristrack.bench import (
    compute_metrics,
    emit_csv,
    emit_trace,
    episode_rng,
    run_matrix,
    rows_from_matrix,
    scenario_from_config,
)
from ristrack.channel import (
    SceneConfig,
    Vec3,
    bs_ris_channel,
    ris_ue_channel,
    uniform_transmit_signal,
)
from ristrack.codebook import RisGeometry, ideal_phases, quantize_codeword
from ristrack.config import ExperimentConfig
from ristrack.surrogate import ObservationHistory, gp_fit, gp_posterior, kernel_tables, tpe_fit
from ristrack.tracker import Method, run_episode
from ristrack.validate import best_by_enumeration, dense_gp_posterior, ei_by_quadrature

from oracles import parzen_density, rsrp


def report(criterion: str, ok: bool, detail: str) -> None:
    """One pass/fail line per criterion (run with -s to see them live)."""
    line = f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def full_run():
    """The standard benchmark matrix at full size, with wall-clock timing on."""
    config = ExperimentConfig()
    start = time.perf_counter()
    matrix = run_matrix(config)
    elapsed = time.perf_counter() - start
    rows = dict(zip(matrix.keys(), rows_from_matrix(config, matrix)))
    return config, matrix, rows, elapsed


def slot_gaps_db(results):
    return np.array([
        10.0 * math.log10(r.true_best_rsrp / r.achieved_rsrp) for r in results
    ])


def test_criterion_1_ergodic_exactness(full_run):
    config, matrix, rows, _ = full_run
    ok = True
    details = []
    for speed in config.speeds:
        row = rows[(Method.ERGODIC, 1.0, speed)]
        ok &= row.accuracy == 1.0 and row.rsrp_mae_db == 0.0
        details.append(f"s={speed}: acc={row.accuracy:.3f} mae={row.rsrp_mae_db:.3f}")
    report("criterion 1 (ergodic exactness)", ok, "; ".join(details))


def test_criterion_2_random_baseline_identity(full_run):
    config, matrix, rows, _ = full_run
    ok = True
    details = []
    for eta in config.overheads:
        for speed in config.speeds:
            results = matrix[(Method.RANDOM, eta, speed)]
            n = len(results)
            acc = rows[(Method.RANDOM, eta, speed)].accuracy
            band = 3.0 * math.sqrt(eta * (1.0 - eta) / n)
            ok &= n >= 1200 and abs(acc - eta) <= band
            details.append(f"eta={eta} s={speed}: {acc:.3f} (band +-{band:.3f})")
    report("criterion 2 (random-baseline identity)", ok, "; ".join(details))


def test_criterion_3_tpe_beats_random_sampling(full_run):
    config, matrix, rows, elapsed = full_run
    ok = True
    details = []
    for eta in config.overheads:
        for speed in config.speeds:
            acc = rows[(Method.TPE_EI, eta, speed)].accuracy
            ok &= acc >= eta + 0.10
            details.append(f"eta={eta} s={speed}: {acc:.3f} >= {eta + 0.10:.2f}")
    ok &= elapsed < 300.0
    details.append(f"matrix in {elapsed:.0f}s < 300s")
    report("criterion 3 (TPE-EI dominance + runtime)", ok, "; ".join(details))


def test_criterion_4_overhead_monotonicity(full_run):
    config, matrix, rows, _ = full_run
    ok = True
    details = []
    for method in (Method.GP_EI, Method.TPE_EI):
        for speed in config.speeds:
            for lo, hi in zip(config.overheads, config.overheads[1:]):
                r_lo, r_hi = rows[(method, lo, speed)], rows[(method, hi, speed)]
                n_lo = len(matrix[(method, lo, speed)])
                n_hi = len(matrix[(method, hi, speed)])
                s_acc = math.sqrt(
                    r_lo.accuracy * (1 - r_lo.accuracy) / n_lo
                    + r_hi.accuracy * (1 - r_hi.accuracy) / n_hi
                )
                acc_ok = r_hi.accuracy >= r_lo.accuracy - 2.0 * s_acc
                g_lo = slot_gaps_db(matrix[(method, lo, speed)])
                g_hi = slot_gaps_db(matrix[(method, hi, speed)])
                s_mae = math.sqrt(g_lo.var() / n_lo + g_hi.var() / n_hi)
                mae_ok = r_hi.rsrp_mae_db <= r_lo.rsrp_mae_db + 2.0 * s_mae
                ok &= acc_ok and mae_ok
                if not (acc_ok and mae_ok):
                    details.append(f"{method.value} s={speed} {lo}->{hi} violated")
    if ok:
        details.append("accuracy non-decreasing and MAE non-increasing in eta "
                       "for GP-EI and TPE-EI at both speeds (2-sigma bands)")
    report("criterion 4 (overhead monotonicity)", ok, "; ".join(details))


def test_criterion_5_gp_numerical_correctness():
    rng = np.random.default_rng(101)
    tables = kernel_tables(10, 10)
    theta2 = ExperimentConfig().gp_length_scale
    worst = 0.0
    interp_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 81))
        idx = rng.choice(100, size=n, replace=False)
        history = ObservationHistory(100)
        values = rng.normal(60.0, 12.0, size=n)
        for i, v in zip(idx, values):
            history.add(int(i), float(v))
        model = gp_fit(history, tables)
        mean, var = gp_posterior(model)
        mean_ref, var_ref = dense_gp_posterior(model, history, theta2)
        worst = max(worst, float(np.max(np.abs(mean - mean_ref))),
                    float(np.max(np.abs(var - var_ref))))

        mean_tr, var_tr = gp_posterior(model, idx)
        scale = max(1.0, float(np.max(np.abs(history.values()))))
        interp_ok &= bool(np.all(np.abs(mean_tr - history.values()) <= 1e-3 * scale))
        interp_ok &= bool(np.all(var_tr <= 10.0 * model.jitter))
    ok = worst < 1e-8 and interp_ok
    report("criterion 5 (GP vs dense-solve oracle)", ok,
           f"max |error| = {worst:.2e} over 100 instances; interpolation at "
           f"jitter tolerance: {interp_ok}")


def test_criterion_6_ei_correctness():
    rng = np.random.default_rng(103)
    worst_rel = 0.0
    for _ in range(1000):
        mean = float(rng.uniform(-3, 3))
        sigma = float(rng.uniform(0.05, 3.0))
        y_star = mean + float(rng.uniform(-6, 6)) * sigma
        closed = expected_improvement(mean, sigma ** 2, y_star)
        ref = ei_by_quadrature(mean, sigma, y_star)
        worst_rel = max(worst_rel, abs(closed - ref) / max(abs(ref), 1e-12))
    sigmas = np.linspace(0.0, 5.0, 400)
    mono = np.all(np.diff(expected_improvement(np.ones_like(sigmas), sigmas ** 2, 0.0))
                  >= -1e-12)
    nonneg = np.all(expected_improvement(rng.uniform(-5, 5, 1000),
                                         rng.uniform(0, 4, 1000), 0.0) >= 0.0)
    ok = worst_rel < 1e-6 and bool(mono) and bool(nonneg)
    report("criterion 6 (EI vs quadrature)", ok,
           f"max rel error = {worst_rel:.2e} over 1000 triples; "
           f"monotone in sigma: {bool(mono)}; EI >= 0: {bool(nonneg)}")


def test_criterion_7_tpe_eq5_consistency():
    rng = np.random.default_rng(107)
    tables = kernel_tables(10, 10)
    idx_all = np.arange(100)
    candidates = np.stack([idx_all // 10, idx_all % 10], axis=1).astype(float)
    config = ExperimentConfig()
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 60))
        idx = rng.choice(100, size=n, replace=False)
        history = ObservationHistory(100)
        for i in idx:
            history.add(int(i), float(rng.normal(0.0, 5.0)))
        model = tpe_fit(history, tables, gamma=config.tpe_gamma)
        picked = select_next(model, history)

        points = candidates[idx]
        order = np.argsort(history.values(), kind="stable")
        n_good = math.ceil(config.tpe_gamma * n)
        measured = {(float(c[0]), float(c[1])) for c in points}
        keep = np.array([tuple(c) not in measured for c in candidates])
        l = parzen_density(points[order[:n_good]], candidates, config.kde_bandwidth)[keep]
        g = parzen_density(points[order[n_good:]], candidates, config.kde_bandwidth)[keep]
        oracle = candidates[keep][int(np.argmax(l / g))]
        if tuple(candidates[picked]) != tuple(oracle):
            mismatches += 1
    report("criterion 7 (TPE selection = argmax l/g)", mismatches == 0,
           f"{mismatches} mismatches in 1000 random histories")


def test_criterion_8_codebook_optimality_small_n():
    rng = np.random.default_rng(109)
    step = math.pi / 2.0
    worst_rel = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 7))
        scene = SceneConfig(
            bs_position=Vec3(*rng.uniform(-0.5, 0.5, size=2), rng.uniform(0.3, 1.0)),
            num_bs_antennas=1,
        )
        ris = RisGeometry(rows=1, cols=n,
                          element_spacing=float(rng.uniform(0.01, 0.05)))
        target = Vec3(float(rng.uniform(0.5, 3.0)), float(rng.uniform(-2.0, 2.0)),
                      float(rng.uniform(1.0, 2.5)))
        h = ris_ue_channel(scene, ris, target)
        H = bs_ris_channel(scene, ris)
        z = uniform_transmit_signal(1)
        phases = ideal_phases(scene, ris, target)
        weights = np.abs(h) * np.abs(H @ z)
        cw = quantize_codeword(phases, bits=2, weights=weights)
        achieved = rsrp(h, cw * step, H, z)
        best = best_by_enumeration(lambda b: rsrp(h, b * step, H, z), n, 4)
        worst_rel = max(worst_rel, (best - achieved) / best)
    ok = worst_rel <= 1e-12
    report("criterion 8 (quantizer = exhaustive 4^N)", ok,
           f"worst relative shortfall = {worst_rel:.2e} over 50 geometries")


def _pipeline(config: ExperimentConfig, out_dir, tag: str):
    matrix = run_matrix(config)
    rows = rows_from_matrix(config, matrix)
    csv_path = out_dir / f"metrics_{tag}.csv"
    emit_csv(rows, csv_path)
    scenario = scenario_from_config(config)
    (episode,) = run_episode(scenario, config, Method.TPE_EI, (0.4,), speed=1,
                             rng=episode_rng(config.master_seed, 0))
    trace_path = out_dir / f"trace_{tag}.csv"
    emit_trace(episode, trace_path, grid=config.grid)
    return csv_path.read_bytes(), trace_path.read_bytes()


def test_criterion_9_determinism(tmp_path):
    base = dataclasses.replace(
        ExperimentConfig(),
        overheads=(0.2, 0.6),
        speeds=(1,),
        epochs=2,
        collect_timing=False,
    )
    csv_a, trace_a = _pipeline(base, tmp_path, "a")
    csv_b, trace_b = _pipeline(base, tmp_path, "b")
    bytes_ok = csv_a == csv_b and trace_a == trace_b

    # With wall-clock timing enabled only the exec_time_s column can move;
    # every seeded output must still match field-for-field.
    timed = dataclasses.replace(base, collect_timing=True)
    csv_c, trace_c = _pipeline(timed, tmp_path, "c")
    csv_d, trace_d = _pipeline(timed, tmp_path, "d")
    timed_trace_ok = trace_c == trace_d
    strip = lambda data: [line.rsplit(b",", 1)[0] for line in data.splitlines()]
    timed_fields_ok = strip(csv_c) == strip(csv_d)

    ok = bytes_ok and timed_trace_ok and timed_fields_ok
    report("criterion 9 (seeded determinism)", ok,
           f"byte-identical CSV+trace with timing off: {bytes_ok}; "
           f"trace bytes with timing on: {timed_trace_ok}; "
           f"non-timing CSV fields with timing on: {timed_fields_ok}")
