"""RIS element layout, per-cell beam phases, and the discrete-phase codebook.

The serving area is a grid of cells; each cell gets one codeword whose
quantized element phases steer the reflected beam at that cell's center.
The codebook is the finite search domain for every tracking method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence, TextIO

import numpy as np

from .channel import DegenerateGeometryError, SceneConfig, Vec3

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RisGeometry:
    """Planar RIS: rows x cols elements in the z = origin.z plane.

    Element i = r*cols + c sits on a centered rectangular lattice with pitch
    `element_spacing`.  Phases are quantized to 2**phase_bits uniform levels
    on [0, 2*pi).
    """

    rows: int = 10
    cols: int = 10
    element_spacing: float = SceneConfig().wavelength / 2.0  # of the default carrier
    origin: Vec3 = Vec3(0.0, 0.0, 0.0)
    phase_bits: int = 2
    _positions: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("RIS needs at least one element")
        if self.element_spacing <= 0:
            raise ValueError("element_spacing must be positive")
        if self.phase_bits < 1:
            raise ValueError("phase_bits must be >= 1")

    @classmethod
    def for_scene(cls, scene: SceneConfig) -> "RisGeometry":
        """Default panel, half-wavelength-spaced at the scene's RIS origin."""
        return cls(element_spacing=scene.wavelength / 2.0, origin=scene.ris_origin)

    @property
    def num_elements(self) -> int:
        return self.rows * self.cols

    @property
    def num_phase_levels(self) -> int:
        return 2 ** self.phase_bits

    def element_positions(self) -> np.ndarray:
        """(N, 3) element coordinates, row-major (x along cols, y along rows).

        Computed once per panel and returned read-only; `dataclasses.replace`
        makes a new panel that computes its own.
        """
        if self._positions is None:
            r = np.arange(self.rows) - (self.rows - 1) / 2.0
            c = np.arange(self.cols) - (self.cols - 1) / 2.0
            yy, xx = np.meshgrid(r, c, indexing="ij")
            pos = np.zeros((self.num_elements, 3))
            pos[:, 0] = self.origin.x + xx.ravel() * self.element_spacing
            pos[:, 1] = self.origin.y + yy.ravel() * self.element_spacing
            pos[:, 2] = self.origin.z
            pos.flags.writeable = False
            object.__setattr__(self, "_positions", pos)  # frozen: cache only
        return self._positions


@dataclass(frozen=True)
class Codeword:
    """One codebook entry: N quantized phase indices, beta = 2*pi*idx/2**bits."""

    phase_indices: tuple
    phase_bits: int = 2

    def __post_init__(self):
        levels = 2 ** self.phase_bits
        if any((not 0 <= i < levels) for i in self.phase_indices):
            raise ValueError(f"phase index out of range for {self.phase_bits} bits")

    @property
    def phases(self) -> np.ndarray:
        return np.asarray(self.phase_indices, dtype=float) * (TWO_PI / 2 ** self.phase_bits)


@dataclass(frozen=True)
class GridMap:
    """UE serving area: rows x cols square cells at a fixed height.

    Cell k = r*cols + c is centered at
    (origin.x + (c+0.5)*cell_size, origin.y + (r+0.5)*cell_size, cell_height).
    Defaults tile a 4 m x 4 m rectangle in front of the RIS.
    """

    rows: int = 10
    cols: int = 10
    cell_size: float = 0.4
    origin: Vec3 = Vec3(0.4, -2.0, 0.0)
    cell_height: float = 1.5

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid needs at least one cell")
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")

    @property
    def num_cells(self) -> int:
        return self.rows * self.cols

    def index_of(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"cell ({row}, {col}) outside {self.rows}x{self.cols} grid")
        return row * self.cols + col

    def cell_of(self, index: int) -> tuple[int, int]:
        if not 0 <= index < self.num_cells:
            raise ValueError(f"cell index {index} out of range")
        return divmod(index, self.cols)

    def cell_center(self, index: int) -> Vec3:
        row, col = self.cell_of(index)
        return Vec3(
            self.origin.x + (col + 0.5) * self.cell_size,
            self.origin.y + (row + 0.5) * self.cell_size,
            self.cell_height,
        )

    def cell_centers(self) -> np.ndarray:
        return np.array([self.cell_center(k).as_array() for k in range(self.num_cells)])


@dataclass
class Codebook:
    """Per-cell codewords plus the RIS layout they were quantized for."""

    entries: list[Codeword]
    ris_rows: int
    ris_cols: int
    phase_bits: int
    _phasors: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.entries)

    def unit_phasors(self) -> np.ndarray:
        """(num_entries, N) matrix of exp(j*beta), cached."""
        if self._phasors is None:
            step = TWO_PI / 2 ** self.phase_bits
            idx = np.array([cw.phase_indices for cw in self.entries], dtype=float)
            self._phasors = np.exp(1j * step * idx)
        return self._phasors


class Direction(NamedTuple):
    theta: float
    phi: float
    on_axis: bool


def ue_direction(ue_position: Vec3) -> Direction:
    """Pitch/azimuth of a UE seen from the RIS at the frame origin.

    theta = arctan(sqrt(x^2+y^2)/z) in [0, pi/2]; phi is the quadrant-aware
    azimuth in [0, 2*pi).  A UE on the boresight axis has no defined azimuth:
    phi = 0 is returned with on_axis set.
    """
    x, y, z = ue_position.x, ue_position.y, ue_position.z
    if z <= 0:
        raise ValueError("UE must be on the positive-z side of the RIS")
    rho = math.hypot(x, y)
    theta = math.atan(rho / z)
    if rho == 0.0:
        return Direction(theta=theta, phi=0.0, on_axis=True)
    phi = math.atan2(y, x) % TWO_PI
    return Direction(theta=theta, phi=phi, on_axis=False)


def ideal_phases(scene: SceneConfig, ris: RisGeometry, target: Vec3) -> np.ndarray:
    """Continuous per-element phases that align the cascaded path at `target`.

    Element i should apply beta_i = (2*pi/lambda)*(d1_i + d2_i) mod 2*pi,
    which cancels the BS->element->target propagation phase.  With multiple
    BS antennas the incident distance d1_i is taken to antenna 0.
    """
    elems = ris.element_positions()
    reference = scene.bs_antenna_positions()[0]
    d1 = np.linalg.norm(elems - reference[None, :], axis=-1)
    d2 = np.linalg.norm(elems - target.as_array()[None, :], axis=-1)
    if np.any(d1 <= 0.0) or np.any(d2 <= 0.0):
        raise DegenerateGeometryError("target or BS coincides with an RIS element")
    return (TWO_PI / scene.wavelength) * (d1 + d2) % TWO_PI


def quantize_codeword(
    continuous_phases: Sequence[float],
    bits: int = 2,
    weights: Sequence[float] | None = None,
) -> Codeword:
    """Quantize continuous phases to 2**bits levels via a reference-phase sweep.

    For each global offset rho in [0, step), every phase is rounded to the
    nearest level of (phase + rho); the rounding with the largest coherent sum
    |sum_i w_i exp(j(beta_i - phase_i))| wins (smallest rho on ties).  The
    rounding changes only where some phase + rho crosses a level midpoint, so
    the midpoints of the at most N+1 intervals between those breakpoints visit
    every reachable pattern, and the result matches exhaustive search over all
    (2**bits)**N codewords.  `weights` (e.g. per-element cascade amplitudes)
    make the score proportional to the achieved power; by default all
    elements count equally.
    """
    phases = np.asarray(continuous_phases, dtype=float) % TWO_PI
    w = None if weights is None else np.asarray(weights, dtype=float)
    if w is not None and w.shape != phases.shape:
        raise ValueError("weights must match continuous_phases in length")
    levels = 2 ** bits
    step = TWO_PI / levels

    breaks = np.unique((step / 2.0 - phases) % step)
    edges = np.concatenate(([0.0], breaks, [step]))
    rho = np.unique((edges[:-1] + edges[1:]) / 2.0)
    patterns = np.floor((phases + rho[:, None]) / step + 0.5).astype(int) % levels
    # misfit[l, i] = w_i exp(j(l*step - phase_i)); np.hypot rounds each score
    # exactly like the scalar abs(), which np.abs on the array does not, and
    # an ulp decides between rotation-equivalent patterns.
    misfit = np.exp(1j * (np.arange(levels)[:, None] * step - phases))
    if w is not None:
        misfit = w * misfit
    total = misfit[patterns, np.arange(phases.size)].sum(axis=1)
    best = patterns[int(np.argmax(np.hypot(total.real, total.imag)))]
    return Codeword(phase_indices=tuple(int(i) for i in best), phase_bits=bits)


def build_codebook(scene: SceneConfig, ris: RisGeometry, grid: GridMap) -> Codebook:
    """One quantized codeword per grid cell, aimed at the cell center."""
    entries = [
        quantize_codeword(ideal_phases(scene, ris, grid.cell_center(k)), bits=ris.phase_bits)
        for k in range(grid.num_cells)
    ]
    return Codebook(entries=entries, ris_rows=ris.rows, ris_cols=ris.cols,
                    phase_bits=ris.phase_bits)


def write_codebook(codebook: Codebook, stream: TextIO) -> None:
    """Plain-text serialization: header `rows cols bits`, then `k idx...` lines."""
    stream.write(f"{codebook.ris_rows} {codebook.ris_cols} {codebook.phase_bits}\n")
    for k, cw in enumerate(codebook.entries):
        stream.write(f"{k} " + " ".join(str(i) for i in cw.phase_indices) + "\n")


def codebook_to_text(codebook: Codebook) -> str:
    import io

    buf = io.StringIO()
    write_codebook(codebook, buf)
    return buf.getvalue()


def read_codebook(stream: TextIO) -> Codebook:
    header = stream.readline().split()
    if len(header) != 3:
        raise ValueError("malformed codebook header (want `rows cols bits`)")
    rows, cols, bits = (int(v) for v in header)
    n = rows * cols
    entries = []
    for line in stream:
        parts = line.split()
        if not parts:
            continue
        k = int(parts[0])
        if k != len(entries):
            raise ValueError(f"entry index {k} out of order")
        indices = tuple(int(v) for v in parts[1:])
        if len(indices) != n:
            raise ValueError(f"entry {k} has {len(indices)} indices, expected {n}")
        entries.append(Codeword(phase_indices=indices, phase_bits=bits))
    return Codebook(entries=entries, ris_rows=rows, ris_cols=cols, phase_bits=bits)


def codebook_from_text(text: str) -> Codebook:
    import io

    return read_codebook(io.StringIO(text))
