"""Codebook tests: direction math, ideal phases against scalar recomputation,
the quantizer against exhaustive 4^N search, and the full-grid cross-matrix.
"""

import io
import itertools
import math

import numpy as np
import pytest

from ristrack.channel import (
    DegenerateGeometryError,
    SceneConfig,
    Vec3,
    bs_ris_channel,
    coherent_bound,
    ris_ue_channel,
    rsrp,
    uniform_transmit_signal,
)
from ristrack.codebook import (
    Codebook,
    Codeword,
    GridMap,
    RisGeometry,
    build_codebook,
    codebook_from_text,
    codebook_to_text,
    ideal_phases,
    quantize_codeword,
    ue_direction,
)
from ristrack.tracker import Method, TrackerConfig, TrackingScenario, build_slot_env, track_slot

ERGODIC = TrackerConfig(method=Method.ERGODIC, collect_timing=False)


@pytest.fixture(scope="module")
def table1():
    scene = SceneConfig()
    ris = RisGeometry.for_scene(scene)
    grid = GridMap()
    return scene, ris, grid


@pytest.fixture(scope="module")
def table1_codebook(table1):
    scene, ris, grid = table1
    return build_codebook(scene, ris, grid)


def scenario_for(scene, ris, grid, codebook):
    return TrackingScenario(scene=scene, ris=ris, grid=grid, codebook=codebook,
                            z=uniform_transmit_signal(scene.num_bs_antennas))


def slot_best_index(scenario, cell: int) -> int:
    """The true-best codebook index the tracker scores a slot against."""
    env = build_slot_env(scenario, scenario.grid.cell_of(cell))
    return track_slot(env, ERGODIC, np.random.default_rng(0)).true_best_index


class TestGeometry:
    def test_ris_dimensions(self, table1):
        _, ris, _ = table1
        assert ris.num_elements == 100
        assert ris.num_phase_levels == 4

    def test_element_spacing_is_half_wavelength(self, table1):
        scene, ris, _ = table1
        assert abs(ris.element_spacing - scene.wavelength / 2.0) < 1e-6

    def test_elements_centered_in_plane(self, table1):
        _, ris, _ = table1
        pos = ris.element_positions()
        assert pos.shape == (100, 3)
        np.testing.assert_allclose(pos.mean(axis=0), [0.0, 0.0, 0.0], atol=1e-12)
        assert np.all(pos[:, 2] == 0.0)

    def test_grid_tiles_four_by_four_meters(self, table1):
        _, _, grid = table1
        assert grid.num_cells == 100
        centers = grid.cell_centers()
        half = grid.cell_size / 2.0
        assert centers[:, 0].min() - half == pytest.approx(0.4)
        assert centers[:, 0].max() + half == pytest.approx(4.4)
        assert centers[:, 1].min() - half == pytest.approx(-2.0)
        assert centers[:, 1].max() + half == pytest.approx(2.0)
        assert np.all(centers[:, 2] == 1.5)

    def test_grid_center_defaults(self, table1):
        _, _, grid = table1
        xs = sorted({round(c, 9) for c in grid.cell_centers()[:, 0]})
        ys = sorted({round(c, 9) for c in grid.cell_centers()[:, 1]})
        np.testing.assert_allclose(xs, np.arange(0.6, 4.3, 0.4), atol=1e-9)
        np.testing.assert_allclose(ys, np.arange(-1.8, 1.9, 0.4), atol=1e-9)

    def test_index_cell_round_trip(self, table1):
        _, _, grid = table1
        for k in (0, 17, 99):
            row, col = grid.cell_of(k)
            assert grid.index_of(row, col) == k


class TestUeDirection:
    def test_symmetric_point(self):
        d = ue_direction(Vec3(0.0, 1.0, 1.0))
        assert d.theta == pytest.approx(math.pi / 4, abs=1e-12)
        assert d.phi == pytest.approx(math.pi / 2, abs=1e-12)
        assert not d.on_axis

    def test_axis_point(self):
        d = ue_direction(Vec3(1.0, 0.0, 1.0))
        assert d.theta == pytest.approx(math.pi / 4, abs=1e-12)
        assert d.phi == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_point(self):
        """(1, 1, sqrt(2)): theta = arctan(sqrt(2)/sqrt(2)) = pi/4, phi = pi/4."""
        d = ue_direction(Vec3(1.0, 1.0, math.sqrt(2.0)))
        assert d.theta == pytest.approx(math.atan(math.hypot(1, 1) / math.sqrt(2)), abs=1e-12)
        assert d.theta == pytest.approx(math.pi / 4, abs=1e-12)
        assert d.phi == pytest.approx(math.pi / 4, abs=1e-12)

    def test_quadrant_aware_azimuth(self):
        assert ue_direction(Vec3(-1.0, 0.0, 1.0)).phi == pytest.approx(math.pi)
        assert ue_direction(Vec3(0.0, -1.0, 1.0)).phi == pytest.approx(3 * math.pi / 2)

    def test_boresight_flagged(self):
        d = ue_direction(Vec3(0.0, 0.0, 2.0))
        assert d.on_axis and d.phi == 0.0 and d.theta == 0.0

    def test_nonpositive_height_rejected(self):
        with pytest.raises(ValueError):
            ue_direction(Vec3(1.0, 0.0, 0.0))


class TestIdealPhases:
    def test_equidistant_geometry_gives_constant_phases(self):
        """Elements on a circle around the boresight see equal d1 + d2."""
        scene = SceneConfig(bs_position=Vec3(0.0, 0.0, 1.0), num_bs_antennas=1)
        ris = RisGeometry(rows=1, cols=2, element_spacing=0.04)
        target = Vec3(0.0, 0.0, 2.5)
        phases = ideal_phases(scene, ris, target)
        assert phases[0] == pytest.approx(phases[1], abs=1e-12)

    def test_matches_scalar_recomputation(self):
        scene = SceneConfig(bs_position=Vec3(0.3, -0.1, 0.8), num_bs_antennas=1)
        ris = RisGeometry(rows=2, cols=2, element_spacing=0.03)
        target = Vec3(1.0, 0.7, 1.9)
        phases = ideal_phases(scene, ris, target)
        lam = scene.wavelength
        bs = scene.bs_antenna_positions()[0]
        for i, elem in enumerate(ris.element_positions()):
            d1 = math.dist(elem, bs)
            d2 = math.dist(elem, target.as_array())
            assert phases[i] == pytest.approx((2 * math.pi / lam) * (d1 + d2) % (2 * math.pi),
                                              abs=1e-9)

    def test_applying_ideal_phases_attains_coherent_bound(self):
        scene = SceneConfig(num_bs_antennas=1)
        ris = RisGeometry(rows=3, cols=3, element_spacing=0.026)
        target = Vec3(1.2, -0.5, 1.5)
        beta = ideal_phases(scene, ris, target)
        h = ris_ue_channel(scene, ris, target)
        H = bs_ris_channel(scene, ris)
        z = uniform_transmit_signal(1)
        assert rsrp(h, beta, H, z) == pytest.approx(coherent_bound(h, H, z), rel=1e-12)


class TestQuantizeCodeword:
    def test_on_grid_phases_are_a_fixed_point(self):
        phases = np.array([0.0, math.pi / 2, math.pi,  3 * math.pi / 2, math.pi])
        cw = quantize_codeword(phases, bits=2, sweep_resolution=8)
        assert cw.phase_indices == (0, 1, 2, 3, 2)

    def test_matches_exhaustive_search(self):
        """Achieved coherent sum equals the max over all 4^N codewords."""
        rng = np.random.default_rng(5)
        step = math.pi / 2
        for _ in range(10):
            n = int(rng.integers(2, 7))
            phases = rng.uniform(0, 2 * math.pi, size=n)
            weights = rng.uniform(0.3, 1.0, size=n)
            cw = quantize_codeword(phases, bits=2, sweep_resolution=16, weights=weights)
            achieved = abs(np.sum(weights * np.exp(1j * (cw.phases - phases))))
            best = max(
                abs(np.sum(weights * np.exp(1j * (np.array(combo) * step - phases))))
                for combo in itertools.product(range(4), repeat=n)
            )
            assert achieved == pytest.approx(best, rel=1e-12)

    def test_quantization_loss_bound(self):
        """Per-element error <= pi/4 at 2 bits -> at least cos^2(pi/4) of ideal."""
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            phases = rng.uniform(0, 2 * math.pi, size=n)
            cw = quantize_codeword(phases, bits=2, sweep_resolution=16)
            achieved = abs(np.sum(np.exp(1j * (cw.phases - phases)))) ** 2
            ideal = float(n) ** 2
            assert achieved >= math.cos(math.pi / 4) ** 2 * ideal - 1e-9

    def test_monotone_under_nested_sweep_refinement(self):
        """Doubling the sweep resolution never lowers the achieved sum."""
        rng = np.random.default_rng(21)
        phases = rng.uniform(0, 2 * math.pi, size=16)
        prev = -1.0
        for res in (1, 2, 4, 8, 16, 32):
            cw = quantize_codeword(phases, bits=2, sweep_resolution=res)
            achieved = abs(np.sum(np.exp(1j * (cw.phases - phases))))
            assert achieved >= prev - 1e-12
            prev = achieved

    def test_one_bit_codewords(self):
        phases = np.array([0.0, math.pi])
        cw = quantize_codeword(phases, bits=1, sweep_resolution=4)
        assert cw.phase_indices == (0, 1)
        assert cw.phase_bits == 1

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        phases = rng.uniform(0, 2 * math.pi, size=30)
        assert quantize_codeword(phases) == quantize_codeword(phases)


class TestCodebook:
    def test_single_cell_grid(self, table1):
        scene, ris, _ = table1
        grid = GridMap(rows=1, cols=1, origin=Vec3(1.0, 0.0, 0.0))
        cb = build_codebook(scene, ris, grid)
        assert len(cb) == 1

    def test_table1_codebook_has_100_entries(self, table1_codebook):
        assert len(table1_codebook) == 100

    def test_build_is_deterministic(self, table1, table1_codebook):
        scene, ris, grid = table1
        again = build_codebook(scene, ris, grid)
        assert again.entries == table1_codebook.entries
        assert codebook_to_text(again) == codebook_to_text(table1_codebook)

    def test_cross_matrix_dominance(self, table1, table1_codebook):
        """Entry k beats >= 95 of the other 99 entries at its own cell center.

        The powers are the tracker's per-slot objective, checked entry by
        entry against the scalar `rsrp` oracle."""
        scene, ris, grid = table1
        scenario = scenario_for(scene, ris, grid, table1_codebook)
        H = bs_ris_channel(scene, ris)
        z = uniform_transmit_signal(scene.num_bs_antennas)
        own_argmax = 0
        for k in range(grid.num_cells):
            values = build_slot_env(scenario, grid.cell_of(k)).rsrp_values
            h = ris_ue_channel(scene, ris, grid.cell_center(k))
            oracle = [rsrp(h, cw, H, z) for cw in table1_codebook.entries]
            np.testing.assert_allclose(values, oracle, rtol=1e-12)
            beaten = int(np.sum(values[k] >= values)) - 1
            assert beaten >= 95, f"cell {k}: entry beats only {beaten} others"
            if int(np.argmax(values)) == k:
                own_argmax += 1
        # one-cell-one-codeword correspondence: usually the own entry wins
        assert own_argmax >= 60

    def test_best_codebook_index_single_entry(self, table1):
        scene, ris, _ = table1
        grid = GridMap(rows=1, cols=1, origin=Vec3(1.0, 0.0, 0.0))
        cb = build_codebook(scene, ris, grid)
        assert slot_best_index(scenario_for(scene, ris, grid, cb), 0) == 0

    def test_best_codebook_index_matches_linear_scan(self, table1, table1_codebook):
        scene, ris, grid = table1
        H = bs_ris_channel(scene, ris)
        z = uniform_transmit_signal(scene.num_bs_antennas)
        cell = grid.index_of(7, 4)  # center (2.2, 1.0, 1.5)
        fast = slot_best_index(scenario_for(scene, ris, grid, table1_codebook), cell)
        h = ris_ue_channel(scene, ris, grid.cell_center(cell))
        slow = max(range(len(table1_codebook)),
                   key=lambda k: rsrp(h, table1_codebook.entries[k], H, z))
        assert fast == slow


class TestSerialization:
    def test_round_trip_is_lossless(self, table1_codebook):
        text = codebook_to_text(table1_codebook)
        parsed = codebook_from_text(text)
        assert parsed.entries == table1_codebook.entries
        assert (parsed.ris_rows, parsed.ris_cols, parsed.phase_bits) == (10, 10, 2)
        assert codebook_to_text(parsed) == text

    def test_header_and_layout(self, table1_codebook):
        lines = codebook_to_text(table1_codebook).splitlines()
        assert lines[0] == "10 10 2"
        assert len(lines) == 101
        first = lines[1].split()
        assert first[0] == "0" and len(first) == 101

    def test_malformed_input_rejected(self):
        with pytest.raises(ValueError):
            codebook_from_text("1 1\n")
        with pytest.raises(ValueError):
            codebook_from_text("1 2 2\n0 1\n")  # wrong element count

    def test_codeword_round_trips_exactly(self):
        cw = Codeword(phase_indices=(3, 0, 2, 1), phase_bits=2)
        cb = Codebook(entries=[cw], ris_rows=2, ris_cols=2, phase_bits=2)
        assert codebook_from_text(codebook_to_text(cb)).entries[0] == cw
