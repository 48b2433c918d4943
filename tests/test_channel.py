"""Channel-layer tests: path-loss laws against per-entry scalar recomputation
and the received-power objective against exhaustive enumeration.  The noise
model is tested with the tracker's measurement in test_tracker.py.
"""

import cmath
import math
import warnings

import numpy as np
import pytest

from ristrack.channel import (
    ChannelModel,
    DegenerateGeometryError,
    SceneConfig,
    Vec3,
    bs_ris_channel,
    dbm_to_watts,
    distance,
    ris_ue_channel,
    uniform_transmit_signal,
)
from ristrack.codebook import GridMap, RisGeometry

from oracles import coherent_bound, rsrp


def make_scene(**kwargs):
    defaults = dict(bs_position=Vec3(0.0, 0.0, 0.5), num_bs_antennas=1)
    defaults.update(kwargs)
    return SceneConfig(**defaults)


def test_wavelength_derived_from_carrier():
    scene = SceneConfig()
    assert scene.wavelength == pytest.approx(3.0e8 / 5.8e9, rel=1e-12)
    # Table-1 print is the 3-decimal rounding of the derived value
    assert round(scene.wavelength, 4) == 0.0517


def test_dbm_to_watts():
    assert dbm_to_watts(-120.0) == pytest.approx(1e-15, rel=1e-12)
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)


def test_transmit_signal_unit_power():
    for m in (1, 2, 5):
        z = uniform_transmit_signal(m)
        assert np.sum(np.abs(z) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_single_element_at_one_wavelength():
    """At d = lambda the free-space gain is 1/(4*pi) with phase -2*pi = 0."""
    scene = make_scene()
    lam = scene.wavelength
    ris = RisGeometry(rows=1, cols=1, element_spacing=lam / 2,
                      origin=Vec3(0.0, 0.0, 0.5 + lam))
    h = bs_ris_channel(scene, ris)
    assert h.shape == (1, 1)
    assert abs(h[0, 0]) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-12)
    assert cmath.phase(h[0, 0]) == pytest.approx(0.0, abs=1e-9)


def test_bs_ris_entries_match_scalar_recomputation():
    """Every matrix entry equals an independent element-by-element evaluation."""
    scene = make_scene(num_bs_antennas=2)
    ris = RisGeometry(rows=2, cols=1, element_spacing=0.03, origin=Vec3(0.1, -0.2, 0.0))
    h = bs_ris_channel(scene, ris)
    lam = scene.wavelength
    ants = scene.bs_antenna_positions()
    elems = ris.element_positions()
    for i in range(2):
        for k in range(2):
            d = math.dist(elems[i], ants[k])
            expected = (lam / (4 * math.pi * d)) * cmath.exp(-1j * 2 * math.pi * d / lam)
            assert h[i, k] == pytest.approx(expected, rel=1e-12)


def test_ris_ue_entries_match_scalar_recomputation():
    scene = make_scene()
    ris = RisGeometry(rows=2, cols=2, element_spacing=0.025)
    ue = Vec3(1.3, -0.4, 2.1)
    h = ris_ue_channel(scene, ris, ue)
    lam = scene.wavelength
    for i, elem in enumerate(ris.element_positions()):
        d = math.dist(elem, (ue.x, ue.y, ue.z))
        expected = (lam / (4 * math.pi * d)) * cmath.exp(-1j * 2 * math.pi * d / lam)
        assert h[i] == pytest.approx(expected, rel=1e-12)


def test_vec3_converts_to_a_float64_array():
    """np.asarray(v) is the [x, y, z] float64 array, under numpy's array
    protocol with no DeprecationWarning (numpy 2 warns if `copy` is missing)."""
    v = Vec3(1.3, -0.4, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        arr = np.asarray(v)
        assert np.asarray(v, dtype=float).tobytes() == arr.tobytes()
        assert np.array(v, copy=True).tobytes() == arr.tobytes()
    assert arr.dtype == np.float64 and arr.shape == (3,)
    assert arr.tobytes() == np.array([1.3, -0.4, 2.0], dtype=float).tobytes()
    with pytest.raises(ValueError):
        np.array(v, copy=False)


def test_single_element_boresight_magnitude():
    scene = make_scene()
    ris = RisGeometry(rows=1, cols=1, element_spacing=0.025)
    d = 3.7
    h = ris_ue_channel(scene, ris, Vec3(0.0, 0.0, d))
    assert abs(h[0]) == pytest.approx(scene.wavelength / (4 * math.pi * d), rel=1e-12)


def test_free_space_inverse_distance_law():
    """Doubling the distance exactly halves the free-space magnitude."""
    scene = make_scene()
    ris = RisGeometry(rows=1, cols=1, element_spacing=0.025)
    h1 = ris_ue_channel(scene, ris, Vec3(0.0, 0.0, 1.7))
    h2 = ris_ue_channel(scene, ris, Vec3(0.0, 0.0, 3.4))
    assert abs(h1[0]) == pytest.approx(2.0 * abs(h2[0]), rel=1e-12)


def test_empirical_log_magnitude():
    """Empirical-log gain is 10^(-(11 + 2*log10 d)/20) and decreases with d."""
    scene = make_scene(channel_model=ChannelModel.EMPIRICAL_LOG)
    ris = RisGeometry(rows=1, cols=1, element_spacing=0.025)
    mags = []
    for d in (0.5, 1.0, 2.0, 5.0):
        h = ris_ue_channel(scene, ris, Vec3(0.0, 0.0, d))
        expected = 10.0 ** (-(11.0 + 2.0 * math.log10(d)) / 20.0)
        assert abs(h[0]) == pytest.approx(expected, rel=1e-12)
        mags.append(abs(h[0]))
    assert all(a > b for a, b in zip(mags, mags[1:]))


def test_empirical_log_phase_matches_free_space():
    scene_fs = make_scene()
    scene_el = make_scene(channel_model=ChannelModel.EMPIRICAL_LOG)
    ris = RisGeometry(rows=2, cols=2, element_spacing=0.025)
    ue = Vec3(0.9, 0.4, 1.2)
    h_fs = ris_ue_channel(scene_fs, ris, ue)
    h_el = ris_ue_channel(scene_el, ris, ue)
    np.testing.assert_allclose(np.angle(h_fs), np.angle(h_el), atol=1e-12)


def test_degenerate_geometry_raises():
    scene = make_scene()
    ris = RisGeometry(rows=1, cols=1, element_spacing=0.025)
    with pytest.raises(DegenerateGeometryError):
        ris_ue_channel(scene, ris, Vec3(0.0, 0.0, 0.0))  # on the element
    ris_at_bs = RisGeometry(rows=1, cols=1, element_spacing=0.025,
                            origin=Vec3(0.0, 0.0, 0.5))
    with pytest.raises(DegenerateGeometryError):
        bs_ris_channel(scene, ris_at_bs)


@pytest.mark.parametrize("scene, ris", [
    (SceneConfig(), RisGeometry()),
    (SceneConfig(), RisGeometry(rows=16, cols=16)),
    (SceneConfig(), RisGeometry(rows=1, cols=1)),
    (SceneConfig(carrier_frequency=28e9), RisGeometry.for_scene(SceneConfig(carrier_frequency=28e9))),
], ids=["default", "16x16", "1x1", "28GHz"])
def test_distance_is_linalg_norm_byte_for_byte(scene, ris):
    """The channel and codebook distances equal np.linalg.norm(a - b, axis=-1)
    exactly: every cell centre of the default grid and both BS antennas
    against every element, one point at a time and all points at once."""
    elems = ris.element_positions()
    points = np.vstack([GridMap().cell_centers(),
                        SceneConfig(num_bs_antennas=2).bs_antenna_positions()])
    for point in points:
        got = distance(elems, point)
        assert got.tobytes() == np.linalg.norm(elems - point[None, :], axis=-1).tobytes()
    pairs = (elems[None, :, :], points[:, None, :])
    assert distance(*pairs).tobytes() == np.linalg.norm(pairs[0] - pairs[1], axis=-1).tobytes()


class TestRsrp:
    def test_identity_case(self):
        """N = M = 1, unit gains, zero phase -> power exactly 1."""
        h = np.array([1.0 + 0j])
        H = np.array([[1.0 + 0j]])
        z = np.array([1.0 + 0j])
        assert rsrp(h, np.array([0.0]), H, z) == pytest.approx(1.0, abs=1e-15)

    def test_phase_aligned_codeword_attains_coherent_bound(self):
        rng = np.random.default_rng(3)
        n, m = 6, 1
        h = rng.normal(size=n) + 1j * rng.normal(size=n)
        H = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        z = uniform_transmit_signal(m)
        beta = -np.angle(h * (H @ z))
        assert rsrp(h, beta, H, z) == pytest.approx(coherent_bound(h, H, z), rel=1e-12)

    def test_exhaustive_two_bit_search_matches_direct_summation(self):
        """Max over all 4^4 codewords agrees with a python-loop oracle to 1e-12."""
        rng = np.random.default_rng(7)
        n = 4
        h = rng.normal(size=n) + 1j * rng.normal(size=n)
        H = rng.normal(size=(n, 1)) + 1j * rng.normal(size=(n, 1))
        z = np.array([1.0 + 0j])
        levels = [k * math.pi / 2 for k in range(4)]

        best_op = -1.0
        best_oracle = -1.0
        for code in range(4 ** n):
            idx = [(code >> (2 * i)) & 3 for i in range(n)]
            beta = np.array([levels[j] for j in idx])
            best_op = max(best_op, rsrp(h, beta, H, z))
            acc = 0.0 + 0.0j
            for i in range(n):
                acc += h[i] * cmath.exp(1j * levels[idx[i]]) * (H[i, 0] * z[0])
            best_oracle = max(best_oracle, abs(acc) ** 2)
        assert best_op == pytest.approx(best_oracle, rel=1e-12)

    def test_global_phase_rotation_invariance(self):
        rng = np.random.default_rng(11)
        n, m = 8, 2
        h = rng.normal(size=n) + 1j * rng.normal(size=n)
        H = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        z = uniform_transmit_signal(m)
        beta = rng.uniform(0, 2 * math.pi, size=n)
        base = rsrp(h, beta, H, z)
        for offset in rng.uniform(0, 2 * math.pi, size=5):
            assert rsrp(h, beta + offset, H, z) == pytest.approx(base, rel=1e-12)

    def test_coherent_bound_dominates_every_codeword(self):
        rng = np.random.default_rng(13)
        n, m = 5, 2
        h = rng.normal(size=n) + 1j * rng.normal(size=n)
        H = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        z = uniform_transmit_signal(m)
        bound = coherent_bound(h, H, z)
        for _ in range(50):
            beta = rng.uniform(0, 2 * math.pi, size=n)
            assert rsrp(h, beta, H, z) <= bound * (1 + 1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rsrp(np.ones(3, complex), np.zeros(3), np.ones((2, 1), complex),
                 np.ones(1, complex))
