"""Codebook tests: ideal phases against scalar recomputation, the quantizer
against exhaustive 4^N search, against the offset-grid sweep and the full
score table it replaced, row by row and as a stack, pinned codebooks, the
build's one quantizer call and its memory, and the full-grid cross-matrix.
"""

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from ristrack import codebook as codebook_module
from ristrack.channel import (
    DegenerateGeometryError,
    SceneConfig,
    Vec3,
    bs_ris_channel,
    ris_ue_channel,
    uniform_transmit_signal,
)
from ristrack.codebook import (
    Codebook,
    GridMap,
    RisGeometry,
    build_codebook,
    codebook_to_text,
    ideal_phases,
    quantize_codeword,
)
from ristrack.config import ExperimentConfig
from ristrack.tracker import Method, TrackingScenario, build_slot_env, track_slot
from ristrack.validate import best_by_enumeration

from oracles import cell_center, coherent_bound, reference_quantize_codeword, rsrp

CONFIG = ExperimentConfig(collect_timing=False)


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
    return TrackingScenario(scene=scene, ris=ris, grid=grid, codebook=codebook)


def reference_quantize(phases, bits, sweep_resolution, weights=None) -> list:
    """The earlier quantizer, kept as a slow reference: a loop over a uniform
    grid of `sweep_resolution` offsets plus every inter-breakpoint midpoint,
    one scalar coherent sum per offset, the first best offset wins."""
    phases = np.asarray(phases, dtype=float) % (2 * math.pi)
    w = None if weights is None else np.asarray(weights, dtype=float)
    levels = 2 ** bits
    step = 2 * math.pi / levels
    offsets = np.arange(sweep_resolution) * (step / sweep_resolution)
    breaks = np.unique((step / 2.0 - phases) % step)
    edges = np.concatenate(([0.0], breaks, [step]))
    midpoints = (edges[:-1] + edges[1:]) / 2.0
    best_score, best_indices = -1.0, None
    for rho in np.unique(np.concatenate((offsets, midpoints))):
        indices = np.floor((phases + rho) / step + 0.5).astype(int) % levels
        misfit = np.exp(1j * (indices * step - phases))
        if w is not None:
            misfit = w * misfit
        score = abs(np.sum(misfit))
        if score > best_score:
            best_score, best_indices = score, indices
    return best_indices.tolist()


# sha256 of `codebook_to_text` for the default scene and grid, by (phase bits,
# square panel side).  The 1-3 bit entries were recorded with the offset-grid
# quantizer, the 6 and 8 bit ones with the sweep that gathered from a table of
# all 2**bits levels.
CODEBOOK_SHA256 = {
    (1, 4): "b614ab043c362034372820e5f23196aa31f97327649832b8063060f979b93e9d",
    (1, 10): "3a5e6bfdacfac0633f59bb74748f31ab5103fa6f90173e36b1f0a293764341a4",
    (1, 16): "79c2aa1fabd10a004119ffec832e4f310ddeaefdd9a126dd87c7602dee02c15b",
    (2, 4): "2aeceb5db29b98f8c0b43543d8211f3ba5b3a92d6d9f179753ef363a3d159608",
    (2, 10): "fc348a3f2cabea9ab8209c5f40fed5235b1e7abaa515de94377b0f87ea7bdaf6",
    (2, 16): "5acfac77d81484346373667894b545dd675d59b38f90e56376dcd5df18ad6114",
    (3, 4): "7903691de11a18d7f49a33f564a944fbec70de9cee5e2229d6a4ec34a80ff862",
    (3, 10): "b796a7df1e6f2038c9870d933f5f2070e21f5fbc1cf9f572110536097a4b78eb",
    (3, 16): "064f6e507a357e3e1d9cdcef4b3b1609d6468016c225d4f5e393848835f19167",
    (6, 4): "72806bf58faf5accf90b869f91eca789254894c254291b527bbab33d4197e7a5",
    (6, 10): "e80f5b0638fca40adcc5dd429d3b3bb871db363b14b273fc89f81dd380b306b1",
    (6, 16): "83921e372bc796c81575e9d8211d718319cf9e991e4bd97cf4f566ebf6086cde",
    (8, 4): "8ba0ebc2b833e8239086122ecee1b34f2e18d186d84055d5cf277c9e59c857c4",
    (8, 10): "0631a0faa0bd27579c51221640adc5b07c8eb812ced0220fb5a97c3a550720b0",
    (8, 16): "27911622ce184187cb24556061eb64bffb18dc2350e64c3c6a992d4dd126b776",
}


def hard_phases(rng, bits: int, n: int) -> np.ndarray:
    """n phases of one of the kinds where rounding or ties are delicate:
    uniform, every phase a level or a breakpoint (an odd multiple of half a
    level), those moved by +-1e-15 or by one ulp, repeated phases, or phases
    spread evenly around the circle, where many offsets tie."""
    half_step = math.pi / 2 ** bits
    lattice = rng.integers(0, 2 ** (bits + 1), n) * half_step
    kind = int(rng.integers(6))
    if kind == 0:
        return rng.uniform(0.0, 2 * math.pi, n)
    if kind == 1:
        return lattice
    if kind == 2:
        return lattice + rng.choice([-1e-15, 0.0, 1e-15], n)
    if kind == 3:
        return np.nextafter(lattice, rng.choice([-np.inf, np.inf], n))
    if kind == 4:
        return np.repeat(rng.uniform(0.0, 2 * math.pi, n // 2 + 1), 2)[:n]
    return 2 * math.pi * np.arange(n) / n


def codebook_sha256(codebook: Codebook) -> str:
    return hashlib.sha256(codebook_to_text(codebook).encode()).hexdigest()


def codeword_phases(codebook: Codebook, k: int) -> np.ndarray:
    """Entry k's per-element phases beta in radians."""
    return codebook.indices[k] * (2 * math.pi / 2 ** codebook.phase_bits)


def slot_best_index(scenario, cell: int) -> int:
    """The true-best codebook index the tracker scores a slot against."""
    env = build_slot_env(scenario, cell)
    return track_slot(env, CONFIG, Method.ERGODIC, 1.0, np.random.default_rng(0)).true_best_index


class TestGeometry:
    def test_ris_dimensions(self, table1):
        _, ris, _ = table1
        assert ris.num_elements == 100

    def test_element_spacing_is_half_wavelength(self, table1):
        scene, ris, _ = table1
        assert abs(ris.element_spacing - scene.wavelength / 2.0) < 1e-6

    def test_elements_centered_in_plane(self, table1):
        _, ris, _ = table1
        pos = ris.element_positions()
        assert pos.shape == (100, 3)
        np.testing.assert_allclose(pos.mean(axis=0), [0.0, 0.0, 0.0], atol=1e-12)
        assert np.all(pos[:, 2] == 0.0)

    def test_element_positions_are_computed_once_and_read_only(self):
        ris = RisGeometry(rows=3, cols=4, element_spacing=0.5, origin=Vec3(1.0, -2.0, 0.25))
        pos = ris.element_positions()
        assert ris.element_positions() is pos
        with pytest.raises(ValueError):
            pos[0, 0] = 9.0
        yy, xx = np.meshgrid(np.arange(3) - 1.0, np.arange(4) - 1.5, indexing="ij")
        fresh = np.stack([1.0 + xx.ravel() * 0.5, -2.0 + yy.ravel() * 0.5,
                          np.full(12, 0.25)], axis=1)
        np.testing.assert_array_equal(pos, fresh)

    def test_replaced_panel_has_its_own_positions(self):
        config = ExperimentConfig()
        before = config.ris.element_positions()
        for ris, spacing in (
            (dataclasses.replace(config.ris, element_spacing=0.01), 0.01),
            (dataclasses.replace(config, scene=SceneConfig(carrier_frequency=28e9)).ris,
             3e8 / 28e9 / 2),
        ):
            pos = ris.element_positions()
            assert pos is not before
            np.testing.assert_allclose(pos, before * (spacing / config.ris.element_spacing),
                                       rtol=1e-12, atol=1e-15)

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
        centers = grid.cell_centers()
        xs = sorted({round(x, 9) for x in centers[:, 0]})
        ys = sorted({round(y, 9) for y in centers[:, 1]})
        np.testing.assert_allclose(xs, np.arange(0.6, 4.3, 0.4), atol=1e-9)
        np.testing.assert_allclose(ys, np.arange(-1.8, 1.9, 0.4), atol=1e-9)

    def test_index_cell_round_trip(self, table1):
        _, _, grid = table1
        for k in (0, 17, 99):
            row, col = grid.cell_of(k)
            assert grid.index_of(row, col) == k


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
            d2 = math.dist(elem, np.asarray(target))
            assert phases[i] == pytest.approx((2 * math.pi / lam) * (d1 + d2) % (2 * math.pi),
                                              abs=1e-9)

    @pytest.mark.parametrize("grid", [GridMap(), GridMap(rows=3, cols=7, cell_size=0.5)],
                             ids=["default", "3x7"])
    def test_array_of_targets_equals_one_call_per_target(self, table1, grid):
        scene, ris, _ = table1
        rows = ideal_phases(scene, ris, grid.cell_centers())
        assert rows.shape == (grid.num_cells, ris.num_elements)
        for k in range(grid.num_cells):
            assert rows[k].tobytes() == ideal_phases(scene, ris, cell_center(grid, k)).tobytes()

    def test_cell_centers_match_cell_center(self):
        grid = GridMap(rows=3, cols=7, cell_size=0.37, origin=Vec3(-1.1, 0.3, 0.0))
        centers = grid.cell_centers()
        for k in range(grid.num_cells):
            assert centers[k].tobytes() == np.asarray(cell_center(grid, k)).tobytes()

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
        cw = quantize_codeword(phases, bits=2)
        assert cw.tolist() == [0, 1, 2, 3, 2]

    def test_matches_exhaustive_search(self):
        """Achieved coherent sum equals the max over all 4^N codewords."""
        rng = np.random.default_rng(5)
        step = math.pi / 2
        for _ in range(10):
            n = int(rng.integers(2, 7))
            phases = rng.uniform(0, 2 * math.pi, size=n)
            weights = rng.uniform(0.3, 1.0, size=n)

            def coherent_sum(b):
                return abs(np.sum(weights * np.exp(1j * (b * step - phases))))
            achieved = coherent_sum(quantize_codeword(phases, bits=2, weights=weights))
            assert achieved == pytest.approx(best_by_enumeration(coherent_sum, n, 4), rel=1e-12)

    def test_quantization_loss_bound(self):
        """Per-element error <= pi/4 at 2 bits -> at least cos^2(pi/4) of ideal."""
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            phases = rng.uniform(0, 2 * math.pi, size=n)
            cw = quantize_codeword(phases, bits=2)
            achieved = abs(np.sum(np.exp(1j * (cw * (math.pi / 2) - phases)))) ** 2
            ideal = float(n) ** 2
            assert achieved >= math.cos(math.pi / 4) ** 2 * ideal - 1e-9

    def test_equals_offset_grid_reference(self):
        """The breakpoint sweep picks the very codeword the offset-grid loop
        picked, at every grid resolution: the grid adds no rounding pattern,
        and ties between equal-scoring patterns resolve the same way."""
        rng = np.random.default_rng(21)
        cases = [(np.array([1.3]), None), (np.array([4.0]), np.array([0.7]))]  # N = 1
        for _ in range(12):
            n = int(rng.integers(2, 24))
            phases = rng.uniform(0, 2 * math.pi, size=n)
            cases.append((phases, None))
            cases.append((phases, rng.uniform(0.1, 1.0, size=n)))
            cases.append((np.repeat(phases[: n // 2 + 1], 2), None))  # duplicate phases
        for bits in (1, 2, 3):
            half_step = math.pi / 2 ** bits
            on_grid = [rng.integers(0, 2 ** (bits + 1), size=int(rng.integers(1, 12))) * half_step
                       for _ in range(8)]  # every phase a level or an exact breakpoint
            for phases, weights in cases + [(p, None) for p in on_grid]:
                got = quantize_codeword(phases, bits=bits, weights=weights).tolist()
                for resolution in (1, 8, 64, 256):
                    assert got == reference_quantize(phases, bits, resolution, weights), \
                        (bits, resolution, phases.tolist())

    @pytest.mark.parametrize("bits", range(1, 15))
    def test_every_row_equals_the_score_table(self, bits):
        """Random, lattice, breakpoint, near-breakpoint, duplicate and evenly
        spread phases, N = 1 to 60, with and without weights: each codeword
        is the full score table's, ulp-decided ties included."""
        rng = np.random.default_rng(100 + bits)
        for _ in range(150):
            phases = hard_phases(rng, bits, int(rng.integers(1, 61)))
            weights = rng.uniform(0.1, 1.0, phases.size) if rng.random() < 0.3 else None
            got = quantize_codeword(phases, bits=bits, weights=weights)
            assert got.tolist() == reference_quantize_codeword(phases, bits, weights).tolist(), \
                (bits, phases.tolist())

    @pytest.mark.parametrize("bits, lattice, shift", [
        (5, [6, 4, 18, 25, 54, 55, 53, 24, 20, 43],
         [9.992007221626409e-16, 9.992007221626409e-16, 1.1102230246251565e-15, 0.0, 0.0,
          -8.881784197001252e-16, 0.0, -8.881784197001252e-16, -1.1102230246251565e-15, 0.0]),
        (11, [1097, 3713, 3572, 3051, 3385, 61, 464],
         [1.1102230246251565e-15, -8.881784197001252e-16, 0.0, 8.881784197001252e-16, 0.0,
          0.0, -9.992007221626409e-16]),
        (13, [4077, 4096, 727, 16156], [0.0, -1.1102230246251565e-15, 0.0, 0.0]),
    ])
    def test_an_element_that_steps_twice_along_the_sweep(self, bits, lattice, shift):
        """Half-level multiples moved by about an ulp: the sweep's first
        offset is 0 and its last rounds up to a whole level, so one element's
        level steps twice along it, and a sweep that took one step per element
        would pick another codeword."""
        phases = np.array(lattice) * (math.pi / 2 ** bits) + np.array(shift)
        want = reference_quantize_codeword(phases, bits).tolist()
        assert quantize_codeword(phases, bits=bits).tolist() == want
        assert quantize_codeword(np.stack([phases, phases[::-1]]), bits=bits)[0].tolist() == want

    @pytest.mark.parametrize("bits", [1, 2, 3, 6, 14])
    @pytest.mark.parametrize("n", [1, 7, 60])
    def test_stack_equals_each_row_alone(self, bits, n):
        """A (K, N) stack, its rows of every kind, quantizes as each row does
        alone and as the score table does, with weights shaped like it."""
        rng = np.random.default_rng(bits * 100 + n)
        stack = np.stack([hard_phases(rng, bits, n) for _ in range(40)])
        weights = rng.uniform(0.1, 1.0, stack.shape)
        for w in (None, weights):
            got = quantize_codeword(stack, bits=bits, weights=w)
            assert got.shape == stack.shape
            for k, row in enumerate(stack):
                wk = None if w is None else w[k]
                alone = quantize_codeword(row, bits=bits, weights=wk)
                assert got[k].tolist() == alone.tolist() == \
                    reference_quantize_codeword(row, bits, wk).tolist(), (bits, k, row.tolist())

    def test_empty_rows_give_empty_codewords(self):
        assert quantize_codeword([]).shape == (0,)
        assert quantize_codeword(np.zeros((3, 0))).shape == (3, 0)
        assert quantize_codeword(np.zeros((0, 5))).shape == (0, 5)

    @pytest.mark.parametrize("phases, weights", [
        ([0.3, math.nan], None),
        ([math.inf, 1.0], None),
        ([[0.3, 1.0], [-math.inf, 2.0]], None),
        ([0.3, 1.0], [math.nan, 1.0]),
        ([0.3, 1.0], [1.0, math.inf]),
    ])
    def test_non_finite_input_raises(self, phases, weights):
        with pytest.raises(ValueError, match="must be finite"):
            quantize_codeword(phases, weights=weights)

    @pytest.mark.parametrize("phases, weights", [
        (np.zeros((2, 2, 2)), None),
        (np.zeros((2, 3)), np.ones(3)),
        (np.zeros(3), np.ones(2)),
    ])
    def test_bad_shapes_raise(self, phases, weights):
        with pytest.raises(ValueError):
            quantize_codeword(phases, weights=weights)

    def test_one_bit_codewords(self):
        phases = np.array([0.0, math.pi])
        cw = quantize_codeword(phases, bits=1)
        assert cw.tolist() == [0, 1]

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        phases = rng.uniform(0, 2 * math.pi, size=30)
        np.testing.assert_array_equal(quantize_codeword(phases), quantize_codeword(phases))


class TestCodebook:
    def test_single_cell_grid(self, table1):
        scene, ris, _ = table1
        grid = GridMap(rows=1, cols=1, origin=Vec3(1.0, 0.0, 0.0))
        cb = build_codebook(scene, ris, grid)
        assert len(cb) == 1

    def test_table1_codebook_has_100_entries(self, table1_codebook):
        assert len(table1_codebook) == 100

    def test_codebooks_are_pinned(self, table1, table1_codebook):
        scene, panel, grid = table1
        assert codebook_sha256(table1_codebook) == CODEBOOK_SHA256[(2, 10)]
        for (bits, side), expected in CODEBOOK_SHA256.items():
            ris = dataclasses.replace(panel, rows=side, cols=side, phase_bits=bits)
            assert codebook_sha256(build_codebook(scene, ris, grid)) == expected, (bits, side)

    def test_build_makes_one_quantizer_call(self, table1, table1_codebook, monkeypatch):
        scene, ris, grid = table1
        calls = []

        def counted(phases, *args, **kwargs):
            calls.append(np.shape(phases))
            return quantize_codeword(phases, *args, **kwargs)

        monkeypatch.setattr(codebook_module, "quantize_codeword", counted)
        again = build_codebook(scene, ris, grid)
        assert calls == [(grid.num_cells, ris.num_elements)]
        np.testing.assert_array_equal(again.indices, table1_codebook.indices)

    def test_default_build_peaks_under_one_megabyte(self, table1):
        """The quantizer works on (cells, N) arrays, never a (cells, rows, N)
        table: a (100, 101, 100) complex table alone would be 16 MB."""
        scene, ris, grid = table1
        build_codebook(scene, ris, grid)
        tracemalloc.start()
        try:
            build_codebook(scene, ris, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_build_is_deterministic(self, table1, table1_codebook):
        scene, ris, grid = table1
        again = build_codebook(scene, ris, grid)
        np.testing.assert_array_equal(again.indices, table1_codebook.indices)
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
            values = build_slot_env(scenario, k).rsrp_values
            h = ris_ue_channel(scene, ris, cell_center(grid, k))
            oracle = [rsrp(h, codeword_phases(table1_codebook, j), H, z)
                      for j in range(len(table1_codebook))]
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
        h = ris_ue_channel(scene, ris, cell_center(grid, cell))
        slow = max(range(len(table1_codebook)),
                   key=lambda k: rsrp(h, codeword_phases(table1_codebook, k), H, z))
        assert fast == slow


class TestSerialization:
    def test_round_trip_is_lossless(self, table1_codebook):
        """Every index is in the text: parsing its entry lines gives them back."""
        lines = codebook_to_text(table1_codebook).splitlines()
        parsed = np.array([line.split() for line in lines[1:]], dtype=int)
        np.testing.assert_array_equal(parsed[:, 0], np.arange(100))
        np.testing.assert_array_equal(parsed[:, 1:], table1_codebook.indices)
        assert lines[0].split() == ["10", "10", "2"]

    def test_header_and_layout(self, table1_codebook):
        lines = codebook_to_text(table1_codebook).splitlines()
        assert lines[0] == "10 10 2"
        assert len(lines) == 101
        first = lines[1].split()
        assert first[0] == "0" and len(first) == 101

    def test_codeword_round_trips_exactly(self):
        """A hand-made one-entry codebook: its text holds exactly its indices,
        and its phasors are exp(j*2*pi*idx/4)."""
        cb = Codebook(indices=np.array([[3, 0, 2, 1]]), ris_rows=2, ris_cols=2, phase_bits=2)
        assert codebook_to_text(cb) == "2 2 2\n0 3 0 2 1\n"
        np.testing.assert_allclose(cb.phasors, [[-1j, 1.0, -1.0, 1j]], atol=1e-15)
