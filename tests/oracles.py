"""Reference routes only the tests compare the production code against.

Each computes one quantity directly from its definition, with no caching,
tables or batching: `reference_quantize_codeword` scores every offset of
one codeword in full, `reference_track_slot` runs one slot's search on the
public surrogate and acquisition API, one measurement call at a time, and
`replay_episode` and `replay_cell` run it slot by slot on one stream: the
per-slot search that `tracker.search_episodes` draws first and stacks as
lockstep lanes.  The oracles `ristrack validate` runs live in
`ristrack.validate`.
"""

import numpy as np
from scipy.spatial.distance import cdist

from ristrack import acquisition, surrogate, tracker
from ristrack.bench import episode_rng
from ristrack.channel import Vec3, lin_to_db
from ristrack.codebook import TWO_PI, GridMap


def cell_center(grid: GridMap, k: int) -> Vec3:
    """Centre of cell k by the `GridMap` formula, one coordinate at a time:
    the oracle for the rows of `grid.cell_centers()`."""
    row, col = grid.cell_of(k)
    return Vec3(grid.origin.x + (col + 0.5) * grid.cell_size,
                grid.origin.y + (row + 0.5) * grid.cell_size,
                grid.cell_height)


def rsrp(h: np.ndarray, beta: np.ndarray, H: np.ndarray, z: np.ndarray) -> float:
    """Noiseless received power |h^H W H z|^2, W = diag(exp(j*beta)), for one
    phase configuration `beta` (per-element phases in radians).

    The oracle for the vectorised per-slot powers of `tracker.build_slot_env`;
    noise enters only in the tracker's measurements.
    """
    h = np.asarray(h, dtype=complex)
    H = np.asarray(H, dtype=complex)
    z = np.asarray(z, dtype=complex)
    beta = np.asarray(beta, dtype=float)
    if H.ndim != 2:
        raise ValueError("channel matrix must be 2-D")
    n, m = H.shape
    if h.shape != (n,) or beta.shape != (n,) or z.shape != (m,):
        raise ValueError(
            f"dimension mismatch: h{h.shape}, beta{beta.shape}, H{H.shape}, z{z.shape}"
        )
    return abs(complex(np.sum(h * np.exp(1j * beta) * (H @ z)))) ** 2


def coherent_bound(h: np.ndarray, H: np.ndarray, z: np.ndarray) -> float:
    """Upper bound (sum_i |h_i|*|(Hz)_i|)^2 attained by perfect phase alignment."""
    h = np.asarray(h, dtype=complex)
    forward = np.asarray(H, dtype=complex) @ np.asarray(z, dtype=complex)
    return float(np.sum(np.abs(h) * np.abs(forward))) ** 2


def reference_quantize_codeword(continuous_phases, bits=2, weights=None) -> np.ndarray:
    """One codeword by the full score table the incremental sweep replaced:
    every element rounded at each of the at most N+1 offsets (the unique
    midpoints between sorted rounding breakpoints), each offset's coherent
    sum as one contiguous pairwise sum of its gathered terms, then np.hypot,
    and the first best offset wins.  The reference for every row of
    `codebook.quantize_codeword`."""
    phases = np.asarray(continuous_phases, dtype=float) % TWO_PI
    w = None if weights is None else np.asarray(weights, dtype=float)
    levels = 2 ** bits
    step = TWO_PI / levels
    breaks = np.unique((step / 2.0 - phases) % step)
    edges = np.concatenate(([0.0], breaks, [step]))
    rho = np.unique((edges[:-1] + edges[1:]) / 2.0)
    raw = np.floor((phases + rho[:, None]) / step + 0.5).astype(np.intp)
    base = raw[0].copy()
    offsets = raw - base
    span = int(offsets[-1].max(initial=0))
    used = (base + np.arange(span + 1)[:, None]) & (levels - 1)
    misfit = np.exp(1j * (used * step - phases))
    if w is not None:
        misfit = w * misfit
    total = misfit.take(offsets * phases.size + np.arange(phases.size)).sum(axis=1)
    best = int(np.argmax(np.hypot(total.real, total.imag)))
    return (base + offsets[best]) & (levels - 1)


def parzen_density(points: np.ndarray, at: np.ndarray, bandwidth: float) -> np.ndarray:
    """Gaussian Parzen mixture of the float points at each row of `at`,
    normalized over `at`; uniform when there are no points."""
    if points.shape[0] == 0:
        return np.full(at.shape[0], 1.0 / at.shape[0])
    raw = np.exp(-0.5 * cdist(at / bandwidth, points / bandwidth, "sqeuclidean")).mean(axis=1)
    return raw / float(np.sum(raw))


def reference_make_measure(env, config, rng):
    """The per-call measurement closure the block measurement replaced: two
    scalar noise draws per call, real part first."""
    if not config.measure_with_noise:
        return lambda k: float(env.rsrp_values[k])
    sigma = float(np.sqrt(env.noise_power / 2.0))

    def measure(k):
        noise = rng.normal(0.0, sigma) + 1j * rng.normal(0.0, sigma)
        return float(np.abs(env.signals[k] + noise) ** 2)

    return measure


def reference_bo_search(env, config, method, budget, rng, warm_index=None):
    """One BO slot on the public API: a first cell (`warm_index`, else a draw
    from `rng`), then per step one `gp_fit` or `tpe_fit` and one
    `select_next`, with one measurement call per cell.  Returns the
    (cell, power) pairs in measurement order."""
    num_cells = env.rsrp_values.shape[0]
    tables = surrogate.kernel_tables(env.grid.rows, env.grid.cols, config.gp_length_scale,
                                     config.kde_bandwidth)
    measure = reference_make_measure(env, config, rng)
    history = surrogate.ObservationHistory(num_cells)
    measured = []

    def record(k):
        value = measure(k)
        measured.append((k, value))
        history.add(k, -lin_to_db(value))

    record(warm_index if warm_index is not None else int(rng.integers(num_cells)))
    gp = None
    for _ in range(budget - 1):
        if method == tracker.Method.GP_EI:
            model = gp = surrogate.gp_fit(history, tables, gp)
        else:
            model = surrogate.tpe_fit(history, tables, gamma=config.tpe_gamma)
        record(acquisition.select_next(model, history=history))
    return measured


def reference_track_slot(env, config, method, eta, rng, slot_index=1, warm_index=None):
    """`tracker.track_slot` as it was before the lanes: the sweep and random
    search measure one cell per call, a BO slot runs `reference_bo_search`,
    and `max` keeps the first maximum."""
    num_cells = env.rsrp_values.shape[0]
    budget = tracker.slot_budget(method, eta, num_cells)
    true_best = int(np.argmax(env.rsrp_values))
    if method in tracker.BO_METHODS:
        measured = reference_bo_search(env, config, method, budget, rng, warm_index)
    else:
        measure = reference_make_measure(env, config, rng)
        cells = (range(num_cells) if method == tracker.Method.ERGODIC
                 else rng.choice(num_cells, size=budget, replace=False))
        measured = [(int(k), measure(int(k))) for k in cells]
    chosen = max(measured, key=lambda kv: kv[1])[0]
    return tracker.SlotResult(
        slot_index=slot_index, true_best_index=true_best, chosen_index=chosen,
        true_best_rsrp=float(env.rsrp_values[true_best]),
        achieved_rsrp=float(env.rsrp_values[chosen]),
        measurements_used=len(measured), elapsed=0.0)


def replay_episode(scenario, config, method, eta, speed, rng):
    """Per-slot reference for one episode at one overhead, on the one stream
    `rng`, as every episode ran before the lanes: each slot walks, then runs
    `reference_track_slot` (its first-cell draw, then one noise pair per
    measurement), and under warm start each slot after the first starts at
    the previous slot's pick."""
    grid = scenario.grid
    cell = grid.index_of(int(rng.integers(grid.rows)), int(rng.integers(grid.cols)))
    episode = []
    warm = None
    for t in range(1, config.total_slots + 1):
        cell = tracker.mobility_step(cell, speed, grid, rng)
        result = reference_track_slot(tracker.build_slot_env(scenario, cell), config, method,
                                      eta, rng, slot_index=t, warm_index=warm)
        if config.warm_start:
            warm = result.chosen_index
        episode.append(result)
    return episode


def replay_cell(scenario, config, method, etas, speed):
    """`replay_episode` per eta over every epoch, each from a fresh stream:
    the reference for `bench.run_cell`, whose overheads may share a search."""
    return [[r for epoch in range(config.epochs)
             for r in replay_episode(scenario, config, method, eta, speed,
                                     episode_rng(config.master_seed, epoch))]
            for eta in etas]
