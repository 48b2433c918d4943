"""The integer-cell search core against the float-point route it replaced.

`reference_bo_loop` is the earlier surrogate/acquisition code, kept here as a
slow reference: float (row, col) points, a `cdist` kernel at every step, a
full Cholesky factorization per GP fit, and a broadcast compare to drop
measured points.  On seeded episodes the production core, the lanes of
`tracker.search_lanes`, must measure the identical cell sequence from each
lane's first cell and noise, and the episodes must give what the one-stream,
slot-by-slot replay `oracles.replay_episode` gives.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.spatial.distance import cdist

from ristrack import tracker
from ristrack.acquisition import expected_improvement, select_next
from ristrack.bench import episode_rng, scenario_from_config
from ristrack.channel import SceneConfig, lin_to_db
from ristrack.codebook import GridMap
from ristrack.config import ExperimentConfig
from ristrack.surrogate import JITTER_SCALE, ObservationHistory, gp_fit, kernel_tables, tpe_fit
from ristrack.tracker import Method, SlotEnv, run_episode, slot_budget

from oracles import parzen_density, replay_episode

# At -50 dBm noise moves picks; without measure_with_noise the floor is unused.
CONFIG = ExperimentConfig(collect_timing=False, scene=SceneConfig(noise_power_dbm=-50.0))


def reference_scores(config, method, candidates, keep, x, y):
    """Acquisition scores of the candidates[keep] from float history points x."""
    remaining = candidates[keep]
    if method == Method.GP_EI:
        centered = y - y.mean()
        theta1 = max(float(centered @ centered) / y.size, 1e-12)
        scale = config.gp_length_scale ** 2
        k = theta1 * np.exp(-cdist(x, x, "sqeuclidean") / scale)
        k[np.diag_indices_from(k)] += JITTER_SCALE * theta1
        chol = cho_factor(k, lower=True, check_finite=False)
        alpha = cho_solve(chol, y, check_finite=False)
        k_star = theta1 * np.exp(-cdist(x, remaining, "sqeuclidean") / scale)
        w = solve_triangular(chol[0], k_star, lower=True, check_finite=False)
        var = np.maximum(theta1 - np.sum(w * w, axis=0), 0.0)
        return expected_improvement(k_star.T @ alpha, var, y_star=float(y.min()))
    order = np.argsort(y, kind="stable")
    n_good = math.ceil(config.tpe_gamma * y.size)
    l = parzen_density(x[order[:n_good]], candidates, config.kde_bandwidth)[keep]
    g = parzen_density(x[order[n_good:]], candidates, config.kde_bandwidth)[keep]
    ratio = np.divide(l, g, out=np.full_like(l, np.inf), where=g > 0)
    return np.where(l > 0, ratio, 0.0)


def reference_bo_loop(env, config, method, rng, budget, warm_index, measure):
    """The float-point BO loop: (cell, power) pairs in measurement order,
    measured through the callback `measure(cell)`."""
    cols = env.grid.cols
    idx = np.arange(env.grid.num_cells)
    candidates = np.stack([idx // cols, idx % cols], axis=1).astype(float)
    points, values, measured = [], [], []

    def record(k):
        value = measure(k)
        measured.append((k, value))
        points.append(divmod(k, cols))
        values.append(-lin_to_db(value))

    record(warm_index if warm_index is not None else int(rng.integers(env.rsrp_values.shape[0])))
    for _ in range(budget - 1):
        x = np.asarray(points, dtype=float)
        keep = ~(candidates[:, None, :] == x[None, :, :]).all(axis=-1).any(axis=1)
        scores = reference_scores(config, method, candidates, keep, x, np.asarray(values))
        point = candidates[keep][int(np.argmax(scores))]
        record(int(point[0]) * cols + int(point[1]))
    return measured


@pytest.fixture
def compared_slots(monkeypatch):
    """Run every BO lane through the lanes and the reference loop; collect
    (new, reference) sequences.  Each lane's reference starts at the lane's
    first cell, and with noise its n-th measurement of cell k reads
    |signals[k] + noise[n]|^2 from the lane's own arrays."""
    pairs = []
    lanes = tracker.search_lanes

    def each_lane(rsrp, first, method, budgets, tables, gamma, clock=tracker._no_clock,
                  signals=None, noise=None):
        got = lanes(rsrp, first, method, budgets, tables, gamma, clock, signals, noise)
        rows, cols = (int(x) + 1 for x in tables.coords[-1])
        grid = GridMap(rows=rows, cols=cols)
        for lane, (row, start, cells) in enumerate(zip(rsrp, first, got.cells)):
            env = SlotEnv(grid=grid, signals=np.sqrt(row) + 0j, rsrp_values=row, noise_power=0.0)
            if noise is None:
                measure = row.__getitem__
            else:
                draws = iter(noise[lane])
                measure = lambda k, lane=lane, draws=draws: np.abs(signals[lane, k]
                                                                   + next(draws)) ** 2
            ref = reference_bo_loop(env, dataclasses.replace(CONFIG, tpe_gamma=gamma), method,
                                    None, max(budgets), int(start), measure)
            pairs.append((cells.tolist(), [k for k, _ in ref]))
        return got

    monkeypatch.setattr(tracker, "search_lanes", each_lane)
    return pairs


@pytest.fixture(scope="module")
def scenario():
    return scenario_from_config(CONFIG)


@pytest.mark.parametrize("warm_start", [False, True])
@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("eta", [0.2, 0.6])
@pytest.mark.parametrize("method", [Method.GP_EI, Method.TPE_EI])
def test_seeded_episodes_measure_identical_cells(scenario, compared_slots, method, eta,
                                                 noisy, warm_start):
    config = dataclasses.replace(CONFIG, warm_start=warm_start, measure_with_noise=noisy)
    for epoch in range(2):
        (got,) = run_episode(scenario, config, method, (eta,), speed=1 + epoch,
                             rng=episode_rng(20240817, epoch))
        assert got == replay_episode(scenario, config, method, eta, 1 + epoch,
                                     episode_rng(20240817, epoch))
    assert len(compared_slots) == 2 * config.total_slots
    for got, ref in compared_slots:
        assert len(got) == slot_budget(method, eta, 100)
        assert got == ref


def test_tpe_densities_equal_the_reference_bit_for_bit():
    """The table route sums each Parzen mixture in the order of a fresh
    cdist kernel matrix, so l and g match the reference exactly, not merely
    to a tolerance; a changed order shows here before it flips a pick."""
    rng = np.random.default_rng(211)
    tables = kernel_tables(10, 10)
    for _ in range(200):
        n = int(rng.integers(2, 60))
        idx = rng.choice(100, size=n, replace=False)
        history = ObservationHistory(100)
        for i in idx:
            history.add(int(i), float(rng.normal(0.0, 5.0)))
        model = tpe_fit(history, tables)
        coords = tables.coords
        for density, cells in ((model.l, model.good_cells), (model.g, model.bad_cells)):
            np.testing.assert_array_equal(density, parzen_density(coords[cells], coords, 1.0))


@pytest.mark.parametrize("method", [Method.GP_EI, Method.TPE_EI])
def test_tied_values_break_ties_to_the_lowest_index(method):
    """A history of tied values on the main diagonal makes every cell (r, c)
    tie exactly with its mirror (c, r) in both routes: the lower index wins."""
    tables = kernel_tables(10, 10)
    history = ObservationHistory(100)
    for cell, value in [(44, -70.0), (55, -70.0), (0, -50.0), (99, -50.0)]:
        history.add(cell, value)
    if method == Method.GP_EI:
        model = gp_fit(history, tables)
    else:
        model = tpe_fit(history, tables, gamma=CONFIG.tpe_gamma)
    picked = select_next(model, history)

    keep = ~history.seen
    scores = reference_scores(CONFIG, method, tables.coords, keep,
                              tables.coords[history.cells()], history.values().copy())
    remaining = np.flatnonzero(keep)
    best = remaining[scores == scores.max()]
    assert len(best) >= 2 and set(best) == {10 * (k % 10) + k // 10 for k in best}
    assert picked == best[0]
