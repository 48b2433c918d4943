"""Physical layer: scene geometry and the BS->RIS and RIS->UE channels that
`tracker.TrackingScenario` combines into every codeword's received power,
one table row per grid cell, built the first time a slot reads that cell.

All channel coefficients are narrowband complex gains.  Free-space entries
carry an amplitude of lambda/(4*pi*d) and a propagation phase of
exp(-j*2*pi*d/lambda); the empirical-log variant replaces the amplitude with
the linear form of an 11 + 2*log10(d) dB power loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .codebook import RisGeometry

LIGHT_SPEED = 3.0e8  # m/s


class DegenerateGeometryError(ValueError):
    """Raised when two scene points coincide and a distance law blows up."""


class ChannelModel(str, Enum):
    FREE_SPACE = "free_space"
    EMPIRICAL_LOG = "empirical_log"


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def lin_to_db(x):
    """10*log10(x) with a floor to keep zero powers finite."""
    return 10.0 * np.log10(np.maximum(x, 1e-300))


@dataclass(frozen=True)
class Vec3:
    """A finite point; `np.asarray(v)` is the float64 array [x, y, z]."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError(f"non-finite coordinate: {self}")

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("a Vec3 is always copied into a new array")
        return np.array([self.x, self.y, self.z], dtype=float if dtype is None else dtype)


@dataclass(frozen=True)
class SceneConfig:
    """Static scene description: BS, RIS placement and radio parameters.

    The wavelength is always derived as c/f_c, so the stored value can never
    drift from the carrier frequency.
    """

    bs_position: Vec3 = Vec3(0.0, 0.0, 0.5)
    ris_origin: Vec3 = Vec3(0.0, 0.0, 0.0)
    carrier_frequency: float = 5.8e9
    num_bs_antennas: int = 2
    noise_power_dbm: float = -120.0
    channel_model: ChannelModel = ChannelModel.FREE_SPACE

    def __post_init__(self):
        if not 0.0 < self.carrier_frequency < math.inf:
            raise ValueError("carrier_frequency must be positive and finite")
        if not math.isfinite(self.noise_power_dbm):
            raise ValueError("noise_power_dbm must be finite")
        if self.num_bs_antennas < 1:
            raise ValueError("need at least one BS antenna")

    @property
    def wavelength(self) -> float:
        return LIGHT_SPEED / self.carrier_frequency

    @property
    def noise_power_watts(self) -> float:
        return dbm_to_watts(self.noise_power_dbm)

    def bs_antenna_positions(self) -> np.ndarray:
        """(M, 3) antenna coordinates: half-wavelength ULA along x."""
        base = np.asarray(self.bs_position)
        offsets = np.arange(self.num_bs_antennas) * (self.wavelength / 2.0)
        pos = np.tile(base, (self.num_bs_antennas, 1))
        pos[:, 0] += offsets
        return pos


def uniform_transmit_signal(num_antennas: int) -> np.ndarray:
    """Unit-power transmit vector (1/sqrt(M), ..., 1/sqrt(M))."""
    if num_antennas < 1:
        raise ValueError("need at least one antenna")
    return np.full(num_antennas, 1.0 / math.sqrt(num_antennas), dtype=complex)


def distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.norm(a - b, axis=-1) bit for bit: for a real difference norm
    computes this sum of squares, after a conj() copy and argument handling."""
    d = a - b
    return np.sqrt(np.add.reduce(d * d, axis=-1))


def _complex_gain(dist: np.ndarray, wavelength: float, model: ChannelModel) -> np.ndarray:
    if not dist.min() > 0.0:  # one reduction; also catches NaN
        raise DegenerateGeometryError("coincident points give a zero propagation distance")
    if model == ChannelModel.FREE_SPACE:
        amplitude = wavelength / (4.0 * np.pi * dist)
    else:
        # 11 + 2*log10(d) dB power loss -> amplitude 10^(-PL/20)
        path_loss_db = 11.0 + 2.0 * np.log10(dist)
        amplitude = 10.0 ** (-path_loss_db / 20.0)
    return amplitude * np.exp(-2j * np.pi * dist / wavelength)


def bs_ris_channel(scene: SceneConfig, ris: "RisGeometry") -> np.ndarray:
    """BS->RIS channel matrix, shape (N, M).

    Entry [i, k] is the gain from BS antenna k to RIS element i over the
    distance between the two points.
    """
    elems = ris.element_positions()                      # (N, 3)
    ants = scene.bs_antenna_positions()                  # (M, 3)
    dist = distance(elems[:, None, :], ants[None, :, :])
    return _complex_gain(dist, scene.wavelength, scene.channel_model)


def ris_ue_channel(scene: SceneConfig, ris: "RisGeometry",
                   ue_position: Vec3 | np.ndarray) -> np.ndarray:
    """RIS->UE channel row vector h^H, shape (N,), for a UE at a point or a (3,) array."""
    dist = distance(ris.element_positions(), np.asarray(ue_position, dtype=float))
    return _complex_gain(dist, scene.wavelength, scene.channel_model)
