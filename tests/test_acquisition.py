"""Acquisition tests: closed-form EI against numerical quadrature, the
density-ratio score against the paper's TPE score, and selection
determinism/exclusion rules.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from ristrack.acquisition import (
    CandidatesExhausted,
    _density_ratio,
    expected_improvement,
    select_next,
)
from ristrack.surrogate import ObservationHistory, gp_fit, gp_posterior, kernel_tables, tpe_fit

TABLES = kernel_tables(10, 10)


def history_from(pairs, num_cells=100):
    h = ObservationHistory(num_cells)
    for cell, value in pairs:
        h.add(cell, value)
    return h


def ei_quadrature(mean, sigma, y_star):
    val, _ = quad(lambda y: (y_star - y) * norm.pdf(y, mean, sigma),
                  mean - 12.0 * sigma, y_star)
    return val


class TestExpectedImprovement:
    def test_deterministic_no_improvement(self):
        assert expected_improvement(5.0, 0.0, 5.0) == 0.0

    def test_deterministic_unit_improvement(self):
        assert expected_improvement(4.0, 0.0, 5.0) == pytest.approx(1.0, rel=1e-15)

    def test_at_threshold_equals_phi_zero(self):
        """mean = y*, sigma = 1 -> EI = pdf(0) = 1/sqrt(2*pi)."""
        assert expected_improvement(0.0, 1.0, 0.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)
        assert expected_improvement(0.0, 1.0, 0.0) == pytest.approx(
            ei_quadrature(0.0, 1.0, 0.0), rel=1e-6)

    def test_matches_quadrature_on_random_triples(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            mean = rng.uniform(-3, 3)
            sigma = rng.uniform(0.05, 3.0)
            y_star = mean + rng.uniform(-6, 6) * sigma
            closed = expected_improvement(mean, sigma ** 2, y_star)
            ref = ei_quadrature(mean, sigma, y_star)
            assert closed == pytest.approx(ref, rel=1e-6, abs=1e-12)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(53)
        mean = rng.uniform(-10, 10, size=1000)
        var = rng.uniform(0, 9, size=1000)
        ei = expected_improvement(mean, var, y_star=0.0)
        assert np.all(ei >= 0.0)

    def test_monotone_in_sigma(self):
        sigmas = np.linspace(0.0, 5.0, 200)
        ei = expected_improvement(np.full_like(sigmas, 1.0), sigmas ** 2, y_star=0.0)
        assert np.all(np.diff(ei) >= -1e-12)

    def test_monotone_in_mean(self):
        means = np.linspace(-5.0, 5.0, 200)
        ei = expected_improvement(means, np.ones_like(means), y_star=0.0)
        assert np.all(np.diff(ei) <= 1e-12)

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            expected_improvement(0.0, -1e-6, 0.0)
        # inside the clamp tolerance is fine
        assert expected_improvement(1.0, -1e-11, 0.0) == 0.0


class TestExpectedImprovementEdgeInputs:
    """Outputs pinned on empty, 0-d, zero-variance and NaN inputs.

    EI(mean 1, variance 4, y* 2) = 1.3955931148026122; a zero or NaN
    variance gives max(y* - mean, 0); a NaN mean gives NaN.
    """

    EI_1_4_2 = 1.3955931148026122

    def test_empty_array(self):
        ei = expected_improvement(np.array([]), np.array([]), 0.0)
        assert isinstance(ei, np.ndarray) and ei.shape == (0,) and ei.dtype == np.float64

    def test_zero_d_inputs_give_python_floats(self):
        cases = ((1.0, 4.0, self.EI_1_4_2), (np.array(1.0), np.array(4.0), self.EI_1_4_2),
                 (1.0, 0.0, 1.0), (3.0, 0.0, 0.0), (1.0, float("nan"), 1.0), (1.0, -1e-11, 1.0))
        for mean, var, want in cases:
            ei = expected_improvement(mean, var, 2.0)
            assert type(ei) is float and ei == want
        assert math.isnan(expected_improvement(float("nan"), 1.0, 2.0))

    def test_zero_variance_and_nan_entries(self):
        cases = [
            (([1.0, 3.0, 1.0], [0.0, 0.0, 4.0]), [1.0, 0.0, self.EI_1_4_2]),
            (([np.nan, 1.0], [1.0, 4.0]), [np.nan, self.EI_1_4_2]),
            (([np.nan, 1.0], [0.0, 4.0]), [np.nan, self.EI_1_4_2]),
            (([1.0, 1.0], [np.nan, 4.0]), [1.0, self.EI_1_4_2]),
            (([1.0, 1.0], [-1e-11, 4.0]), [1.0, self.EI_1_4_2]),
        ]
        for (mean, var), want in cases:
            np.testing.assert_array_equal(
                expected_improvement(np.array(mean), np.array(var), 2.0), want)

    def test_variance_below_tolerance_raises(self):
        for mean, var in ((1.0, -1e-9), (np.array([1.0, 1.0]), np.array([-1e-9, 4.0])),
                          (np.array([1.0, 1.0]), np.array([np.nan, -1e-9]))):
            with pytest.raises(ValueError):
                expected_improvement(mean, var, 2.0)


def paper_score(ratio, gamma):
    """The paper's TPE score (gamma + (g/l)*(1-gamma))^-1 as a function of l/g."""
    return 1.0 / (gamma + (1.0 - gamma) / ratio)


class TestTpeScore:
    """Selection ranks by l/g, which orders candidates as the paper's score does."""

    def test_zero_bad_density_is_maximal(self):
        ratio = _density_ratio(np.array([0.3, 0.3]), np.array([0.0, 0.1]))
        assert ratio[0] == np.inf and ratio[0] > ratio[1]
        assert paper_score(ratio[0], 0.25) == pytest.approx(4.0, rel=1e-15)

    def test_equal_densities_score_one(self):
        ratio = _density_ratio(np.array([0.4]), np.array([0.4]))[0]
        assert ratio == 1.0
        for gamma in (0.1, 0.25, 0.7):
            assert paper_score(ratio, gamma) == pytest.approx(1.0, rel=1e-15)

    def test_ratio_three_at_quarter_gamma(self):
        """gamma = 0.25, g/l = 3 -> 1/(0.25 + 2.25) = 0.4."""
        ratio = _density_ratio(np.array([0.1]), np.array([0.3]))[0]
        assert paper_score(ratio, 0.25) == pytest.approx(0.4, rel=1e-12)

    def test_zero_good_density_scores_zero(self):
        assert _density_ratio(np.array([0.0, 0.0]), np.array([0.5, 0.0])).tolist() == [0.0, 0.0]

    def test_strictly_increasing_in_ratio(self):
        ratios = np.linspace(0.01, 100, 500)
        scores = _density_ratio(ratios, np.ones_like(ratios))
        assert np.all(np.diff(scores) > 0)
        assert np.all(np.diff(paper_score(scores, 0.25)) > 0)

    @pytest.mark.parametrize("l_x, g_x, want", [
        ([0.0], [0.0], [0.0]),
        ([0.2], [0.0], [np.inf]),
        ([0.0], [0.3], [0.0]),
        ([0.0, 0.2, 0.0, 0.6, 1e-300], [0.0, 0.0, 0.5, 0.3, 1e-10],
         [0.0, np.inf, 0.0, 0.6 / 0.3, 1e-300 / 1e-10]),
    ], ids=["both-zero", "bad-zero", "good-zero", "mixed"])
    def test_zero_densities_score_as_before_without_warnings(self, l_x, g_x, want):
        """l = g = 0 scores 0, l > 0 = g scores +inf, l = 0 < g scores 0, and no
        division warning escapes."""
        l_x, g_x = np.array(l_x), np.array(g_x)
        reference = np.where(l_x > 0, np.divide(l_x, g_x, out=np.full_like(l_x, np.inf),
                                                where=g_x > 0), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _density_ratio(l_x, g_x)
        assert got.tobytes() == reference.tobytes() == np.array(want).tobytes()

    def test_bad_gamma_rejected(self):
        history = history_from([(0, 1.0), (1, 2.0)])
        for gamma in (0.0, 1.0):
            with pytest.raises(ValueError):
                tpe_fit(history, TABLES, gamma=gamma)


class TestSelectNext:
    def test_single_remaining_candidate(self):
        history = history_from([(0, 1.0), (1, 2.0), (2, 3.0)], num_cells=4)
        model = tpe_fit(history, kernel_tables(2, 2))
        assert select_next(model, history) == 3

    def test_never_returns_a_measured_point(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            idx = rng.choice(100, size=n, replace=False)
            history = history_from((int(i), float(rng.normal())) for i in idx)
            for model in (gp_fit(history, TABLES), tpe_fit(history, TABLES)):
                assert select_next(model, history) not in set(idx.tolist())

    def test_gp_single_observation_excluded(self):
        history = history_from([(44, 1.0)])
        assert select_next(gp_fit(history, TABLES), history) != 44

    def test_tpe_selection_is_argmax_of_density_ratio(self):
        """Eq.-(5) score and the raw l/g ratio pick the same point."""
        rng = np.random.default_rng(61)
        for _ in range(50):
            n = int(rng.integers(2, 50))
            idx = rng.choice(100, size=n, replace=False)
            history = history_from((int(i), float(rng.normal())) for i in idx)
            model = tpe_fit(history, TABLES)
            picked = select_next(model, history)
            measured = set(idx.tolist())
            remaining = np.array([c for c in range(100) if c not in measured])
            l, g = model.l[remaining], model.g[remaining]
            assert picked == remaining[int(np.argmax(l / g))]

    def test_exhaustion_raises(self):
        history = history_from([(0, 1.0), (1, 2.0)], num_cells=2)
        with pytest.raises(CandidatesExhausted):
            select_next(tpe_fit(history, kernel_tables(2, 1)), history)

    def test_tie_breaks_to_lowest_candidate_index(self):
        """A history symmetric about the grid diagonal makes mirrored
        candidates tie exactly; the lower row-major index wins."""
        history = history_from([(44, 1.0), (55, 1.0)])
        model = gp_fit(history, TABLES)
        y_star = float(history.values().min())

        mean, var = gp_posterior(model, [9, 90])
        scores = expected_improvement(mean, var, y_star=y_star)
        assert scores[0] == scores[1]  # exact float tie by symmetry
        point = select_next(model, history)
        remaining = np.flatnonzero(~history.seen)
        best = expected_improvement(*gp_posterior(model, remaining), y_star=y_star)
        ties = remaining[best == best.max()]
        assert point == ties[0]
        assert point == 9  # row-major index 9 beats 90

    def test_rejects_unknown_model(self):
        with pytest.raises(TypeError):
            select_next(object(), ObservationHistory(100))
