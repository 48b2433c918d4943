"""Surrogate tests: kernel tables, the GP posterior against closed-form and
dense-solve oracles, TPE splitting/normalization against direct recomputation.
"""

import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from ristrack.surrogate import (
    DuplicatePointError,
    GpConditioningError,
    KernelTables,
    ObservationHistory,
    gp_fit,
    gp_posterior,
    kernel_tables,
    tpe_fit,
)
from ristrack.validate import dense_gp_posterior

TABLES = kernel_tables(10, 10)


def history_from(pairs, num_cells=100):
    h = ObservationHistory(num_cells)
    for cell, value in pairs:
        h.add(cell, value)
    return h


def random_history(rng, n, value_scale=10.0):
    idx = rng.choice(100, size=n, replace=False)
    return history_from((int(i), float(rng.normal(0.0, value_scale))) for i in idx)


class TestObservationHistory:
    def test_rejects_duplicates(self):
        h = history_from([(0, 1.0)])
        with pytest.raises(DuplicatePointError):
            h.add(0, 2.0)

    @pytest.mark.parametrize("cell", [-1, 100])
    def test_rejects_cells_outside_the_grid(self, cell):
        """Nothing is recorded: -1 would mark cell 99 seen but store cell -1."""
        h = ObservationHistory(100)
        with pytest.raises(ValueError, match=f"^cell {cell} is outside"):
            h.add(cell, 1.0)
        assert len(h) == 0 and not h.seen.any()

    def test_preserves_order(self):
        h = history_from([(1, 3.0), (22, -1.0), (10, 0.5)])
        np.testing.assert_array_equal(h.cells(), [1, 22, 10])
        np.testing.assert_array_equal(h.values(), [3.0, -1.0, 0.5])
        np.testing.assert_array_equal(np.flatnonzero(h.seen), [1, 10, 22])

    def test_running_best_is_the_minimum_after_every_add(self):
        rng = np.random.default_rng(23)
        values = rng.integers(-8, 8, size=100).astype(float) * 0.5  # many repeats
        h = ObservationHistory(100)
        for cell, value in zip(rng.permutation(100), values):
            h.add(int(cell), float(value))
            assert h.best == h.values().min()


class TestRbfKernel:
    """The RBF correlation table; the GP kernel is theta1 times it."""

    def test_zero_distance_gives_theta1(self):
        corr = kernel_tables(4, 5, length_scale=0.9).corr
        np.testing.assert_array_equal(np.diag(corr), 1.0)
        np.testing.assert_array_equal(corr, corr.T)

    def test_decays_to_zero(self):
        corr = kernel_tables(1, 200, length_scale=1.0).corr
        assert corr[0, 199] == pytest.approx(0.0, abs=1e-300)

    def test_unit_case(self):
        """length scale 1 at squared distance 1 -> e^{-1}."""
        tables = kernel_tables(2, 2, length_scale=1.0)
        assert tables.corr[0, 1] == pytest.approx(0.36787944117144233, rel=1e-15)
        np.testing.assert_array_equal(tables.coords, [[0, 0], [0, 1], [1, 0], [1, 1]])

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            kernel_tables(10, 10, length_scale=0.0)
        with pytest.raises(ValueError):
            kernel_tables(10, 10, length_scale=-2.0)
        with pytest.raises(ValueError):
            kernel_tables(10, 10, bandwidth=0.0)

    @pytest.mark.parametrize("name", ["length_scale", "bandwidth"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_non_finite_and_non_positive_by_name(self, name, bad):
        """NaN fails every comparison and inf passes `x > 0`, so both need the
        two-sided check; either would give an all-NaN or all-ones table."""
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            kernel_tables.__wrapped__(3, 3, **{name: bad})

    def test_tables_are_shared_and_read_only(self):
        """Back-to-back calls share one copy.  The cache holds 16 grid shapes,
        so the module's TABLES may have been evicted by other tests."""
        tables = kernel_tables(10, 10)
        assert kernel_tables(10, 10) is tables
        for table in (tables.coords, tables.corr, tables.parzen):
            with pytest.raises(ValueError):
                table[0, 0] = 0.0

    @pytest.mark.parametrize("bandwidth", [1.0, 0.7, 2.3])
    def test_parzen_table_is_exactly_symmetric(self, bandwidth):
        """The TPE-EI lanes gather Parzen rows where tpe_fit gathers columns."""
        build = kernel_tables.__wrapped__
        for rows, cols in ((3, 5), (7, 4), (10, 10)):
            parzen = build(rows, cols, 2.0, bandwidth).parzen
            assert parzen.tobytes() == np.ascontiguousarray(parzen.T).tobytes()

    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 7), (7, 1), (3, 5), (10, 10), (16, 16)])
    def test_tables_equal_the_cdist_route_bit_for_bit(self, rows, cols):
        build = kernel_tables.__wrapped__  # uncached: this sweep evicts no shared entry
        idx = np.arange(rows * cols)
        coords = np.stack([idx // cols, idx % cols], axis=1).astype(float)
        scales = (0.1, 0.3, 1.0, 1.3, 2.0, 3.7)
        for length_scale in scales:
            corr = np.exp(-cdist(coords, coords, "sqeuclidean") / length_scale ** 2)
            for bandwidth in scales:
                scaled = coords / bandwidth
                parzen = np.exp(-0.5 * cdist(scaled, scaled, "sqeuclidean"))
                tables = build(rows, cols, length_scale, bandwidth)
                assert tables.coords.tobytes() == coords.tobytes()
                assert tables.corr.tobytes() == corr.tobytes()
                assert tables.parzen.tobytes() == parzen.tobytes()


class TestGpFit:
    def test_single_observation_interpolates(self):
        model = gp_fit(history_from([(34, 42.0)]), TABLES)
        mean, var = gp_posterior(model, [34])
        assert mean[0] == pytest.approx(42.0, rel=1e-5)
        assert 0.0 <= var[0] <= 10.0 * model.jitter

    def test_two_point_closed_form(self):
        """Posterior from a hand-inverted 2x2 system, tolerance 1e-10.

        Cells (0,0) and (1,1) with values 1 and -2: theta1 is their empirical
        variance 2.25, jitter is 1e-6*theta1, length scale 1.5; the query is
        cell (1,3), at squared distances 10 and 4.
        """
        theta2 = 1.5
        model = gp_fit(history_from([(0, 1.0), (11, -2.0)]), kernel_tables(10, 10, theta2))
        theta1 = 2.25
        jitter = 1e-6 * theta1
        assert model.theta1 == theta1 and model.jitter == jitter

        k11 = theta1 + jitter
        k12 = theta1 * math.exp(-2.0 / theta2 ** 2)
        det = k11 * k11 - k12 * k12
        inv = np.array([[k11, -k12], [-k12, k11]]) / det
        k_star = np.array([
            theta1 * math.exp(-10.0 / theta2 ** 2),
            theta1 * math.exp(-4.0 / theta2 ** 2),
        ])
        mean_ref = float(k_star @ inv @ np.array([1.0, -2.0]))
        var_ref = theta1 - float(k_star @ inv @ k_star)

        mean, var = gp_posterior(model, [13])
        assert mean[0] == pytest.approx(mean_ref, abs=1e-10)
        assert var[0] == pytest.approx(var_ref, abs=1e-10)

    def test_matches_dense_solve_oracle(self):
        """60 observations on the grid vs. a dense np.linalg.solve, 1e-8."""
        rng = np.random.default_rng(17)
        history = random_history(rng, 60, value_scale=25.0)
        model = gp_fit(history, TABLES)
        mean, var = gp_posterior(model)
        mean_ref, var_ref = dense_gp_posterior(model, history, 2.0)
        assert np.max(np.abs(mean - mean_ref)) < 1e-8
        assert np.max(np.abs(var - var_ref)) < 1e-8

    def test_posterior_interpolates_training_data(self):
        rng = np.random.default_rng(23)
        history = random_history(rng, 20)
        model = gp_fit(history, TABLES)
        mean, var = gp_posterior(model, history.cells())
        np.testing.assert_allclose(mean, history.values(), atol=1e-3)
        assert np.all(var <= 10.0 * model.jitter)

    def test_far_point_recovers_prior(self):
        """On a 1x60 strip with length scale 1, cell 59 is uncorrelated with
        cells 0 and 1: the posterior there is the prior N(0, theta1)."""
        tables = kernel_tables(1, 60, length_scale=1.0)
        model = gp_fit(history_from([(0, 5.0), (1, 5.0 + 2.0 * math.sqrt(3.0))], 60), tables)
        assert model.theta1 == pytest.approx(3.0, rel=1e-12)
        mean, var = gp_posterior(model, [59])
        assert mean[0] == pytest.approx(0.0, abs=1e-12)
        assert var[0] == pytest.approx(model.theta1, rel=1e-12)

    def test_kernel_matrix_reconstruction(self):
        """Symmetry and Cholesky reconstruction residual below 1e-8.

        The model stores no factor; row i of L is rebuilt from w:
        L[i, :i] = w[:i, c_i] and L[i, i] = sqrt(1 + 1e-6 - sum w[:i, c_i]^2).
        """
        rng = np.random.default_rng(29)
        history = random_history(rng, 30)
        model = gp_fit(history, TABLES)
        x = TABLES.coords[history.cells()]
        sq = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1)
        k = model.theta1 * np.exp(-sq / 2.0 ** 2)
        np.testing.assert_allclose(k, k.T, atol=0)
        lower = np.zeros((30, 30))
        for i, cell in enumerate(history.cells()):
            lower[i, :i] = model.w[:i, cell]
            lower[i, i] = math.sqrt(1.0 + 1e-6 - np.sum(model.w[:i, cell] ** 2))
        recon = model.theta1 * (lower @ lower.T)
        assert np.max(np.abs(recon - (k + model.jitter * np.eye(30)))) < 1e-8

    def test_carried_mean_equals_beta_times_w(self):
        """After every append of a 60-step history, mean = beta[:n] @ w[:n]
        to a relative 1e-12."""
        rng = np.random.default_rng(61)
        full = random_history(rng, 60, value_scale=25.0)
        history = ObservationHistory(100)
        model = None
        for cell, value in zip(full.cells(), full.values()):
            history.add(int(cell), float(value))
            model = gp_fit(history, TABLES, model)
            n = model.n
            np.testing.assert_allclose(model.mean, model.beta[:n] @ model.w[:n],
                                       rtol=1e-12, atol=0)

    def test_posterior_outputs_are_copies(self):
        """Writing into gp_posterior's outputs leaves the next posterior unchanged."""
        rng = np.random.default_rng(67)
        model = gp_fit(random_history(rng, 15), TABLES)
        mean, var = gp_posterior(model)
        want_mean, want_var = mean.copy(), var.copy()
        mean[:] = 1e9
        var[:] = -1.0
        for got, want in zip(gp_posterior(model), (want_mean, want_var)):
            np.testing.assert_array_equal(got, want)

    def test_empty_cell_list_gives_empty_posterior(self):
        """Pinned: no cells give two empty float arrays, not an error."""
        model = gp_fit(history_from([(3, 1.0), (40, -2.0)]), TABLES)
        for cells in ([], np.array([], dtype=np.intp)):
            mean, var = gp_posterior(model, cells)
            for got in (mean, var):
                assert got.shape == (0,) and got.dtype == np.float64

    def test_conditioning_error_raised(self):
        """A correlation table that is not positive definite gives a
        non-positive pivot when the second cell is appended."""
        tables = KernelTables(coords=np.array([[0.0, 0.0], [0.0, 1.0]]),
                              corr=np.array([[1.0, 1.5], [1.5, 1.0]]),
                              parzen=np.eye(2))
        with pytest.raises(GpConditioningError):
            gp_fit(history_from([(0, 1.0), (1, 2.0)], 2), tables)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            gp_fit(ObservationHistory(100), TABLES)

    def test_fit_is_deterministic(self):
        rng = np.random.default_rng(31)
        pairs = list(zip(range(10), rng.normal(size=10)))
        m1 = gp_fit(history_from(pairs), TABLES)
        m2 = gp_fit(history_from(pairs), TABLES)
        np.testing.assert_array_equal(m1.beta[:10], m2.beta[:10])
        np.testing.assert_array_equal(m1.w[:10], m2.w[:10])

    def test_extending_a_fit_equals_fitting_at_once(self):
        rng = np.random.default_rng(37)
        full = random_history(rng, 25)
        history = ObservationHistory(100)
        model = None
        for cell, value in zip(full.cells(), full.values()):
            history.add(int(cell), float(value))
            model = gp_fit(history, TABLES, model)
        at_once = gp_fit(full, TABLES)
        assert model.theta1 == at_once.theta1
        for got, want in zip(gp_posterior(model), gp_posterior(at_once)):
            np.testing.assert_array_equal(got, want)
        with pytest.raises(ValueError):  # not a prefix: the model is longer
            gp_fit(history_from([(0, 1.0)]), TABLES, model)


class TestTpeFit:
    def test_even_split_at_two_points(self):
        model = tpe_fit(history_from([(0, 1.0), (55, 2.0)]), TABLES, gamma=0.5)
        np.testing.assert_array_equal(model.good_cells, [0])
        np.testing.assert_array_equal(model.bad_cells, [55])

    def test_tied_values_split_chronologically(self):
        pairs = [(0, 3.0), (11, 3.0), (22, 3.0), (33, 3.0)]
        model = tpe_fit(history_from(pairs), TABLES, gamma=0.5)
        assert model.threshold == 3.0
        np.testing.assert_array_equal(model.good_cells, [0, 11])
        np.testing.assert_array_equal(model.bad_cells, [22, 33])

    def test_good_set_size_is_ceil_gamma_n(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            gamma = float(rng.uniform(0.05, 0.95))
            model = tpe_fit(random_history(rng, n), TABLES, gamma=gamma)
            assert model.good_cells.shape[0] == math.ceil(gamma * n)
            assert model.good_cells.shape[0] + model.bad_cells.shape[0] == n

    def test_densities_sum_to_one_on_candidates(self):
        rng = np.random.default_rng(41)
        model = tpe_fit(random_history(rng, 12), TABLES)
        assert np.sum(model.l) == pytest.approx(1.0, abs=1e-9)
        assert np.sum(model.g) == pytest.approx(1.0, abs=1e-9)
        assert np.all(model.l > 0) and np.all(model.g > 0)

    def test_empty_bad_side_falls_back_to_uniform(self):
        model = tpe_fit(history_from([(0, 1.0), (55, 2.0)]), TABLES, gamma=0.9)
        assert model.bad_uniform and not model.good_uniform
        assert model.g[77] == pytest.approx(1.0 / 100.0, rel=1e-12)

    def test_single_observation_history(self):
        model = tpe_fit(history_from([(44, 5.0)]), TABLES, gamma=0.25)
        np.testing.assert_array_equal(model.good_cells, [44])
        assert model.bad_uniform

    def test_mode_at_good_observation(self):
        """With a small bandwidth, l peaks at the lone good point."""
        pairs = [(33, 0.0), (81, 10.0), (18, 11.0), (99, 12.0)]
        model = tpe_fit(history_from(pairs), kernel_tables(10, 10, bandwidth=0.5), gamma=0.25)
        assert int(np.argmax(model.l)) == 33

    def test_density_matches_kde_recomputation(self):
        """Direct loop-based Parzen recomputation at 5 random query points."""
        rng = np.random.default_rng(43)
        history = random_history(rng, 9)
        bw = 1.3
        tables = kernel_tables(10, 10, bandwidth=bw)
        model = tpe_fit(history, tables, gamma=1.0 / 3.0)
        candidates = tables.coords

        def kde(points, at):
            raw = np.mean([
                math.exp(-((at[0] - p[0]) ** 2 + (at[1] - p[1]) ** 2) / (2 * bw * bw))
                for p in points
            ])
            z = sum(
                np.mean([
                    math.exp(-((c[0] - p[0]) ** 2 + (c[1] - p[1]) ** 2) / (2 * bw * bw))
                    for p in points
                ])
                for c in candidates
            )
            return raw / z

        for _ in range(5):
            q = int(rng.integers(100))
            assert model.l[q] == pytest.approx(kde(candidates[model.good_cells], candidates[q]),
                                               rel=1e-9)
            assert model.g[q] == pytest.approx(kde(candidates[model.bad_cells], candidates[q]),
                                               rel=1e-9)

    def test_permutation_invariance(self):
        """Distinct values: density is independent of history ordering."""
        rng = np.random.default_rng(47)
        idx = rng.choice(100, size=8, replace=False)
        values = rng.permutation(np.arange(8, dtype=float))
        pairs = [(int(i), float(v)) for i, v in zip(idx, values)]
        model_a = tpe_fit(history_from(pairs), TABLES)
        model_b = tpe_fit(history_from(reversed(pairs)), TABLES)
        np.testing.assert_allclose(model_a.l, model_b.l, atol=1e-14)
        np.testing.assert_allclose(model_a.g, model_b.g, atol=1e-14)

    def test_bad_gamma_rejected(self):
        h = history_from([(0, 1.0), (11, 2.0)])
        for gamma in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                tpe_fit(h, TABLES, gamma=gamma)
