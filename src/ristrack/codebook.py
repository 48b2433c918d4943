"""RIS element layout, per-cell beam phases, and the discrete-phase codebook.

The serving area is a grid of cells; each cell gets one codeword whose
quantized element phases steer the reflected beam at that cell's center.
The codebook is the finite search domain for every tracking method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channel import DegenerateGeometryError, SceneConfig, Vec3, distance

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
        if not 0.0 < self.element_spacing < math.inf:
            raise ValueError("element_spacing must be positive and finite")
        if self.phase_bits < 1:
            raise ValueError("phase_bits must be >= 1")

    @classmethod
    def for_scene(cls, scene: SceneConfig) -> "RisGeometry":
        """Default panel, half-wavelength-spaced at the scene's RIS origin."""
        return cls(element_spacing=scene.wavelength / 2.0, origin=scene.ris_origin)

    @property
    def num_elements(self) -> int:
        return self.rows * self.cols

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
        if not 0.0 < self.cell_size < math.inf:
            raise ValueError("cell_size must be positive and finite")
        if not math.isfinite(self.cell_height):
            raise ValueError("cell_height must be finite")

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

    def cell_centers(self) -> np.ndarray:
        """(num_cells, 3) array whose row k is the centre of cell k."""
        row, col = np.divmod(np.arange(self.num_cells), self.cols)
        return np.stack([self.origin.x + (col + 0.5) * self.cell_size,
                         self.origin.y + (row + 0.5) * self.cell_size,
                         np.full(self.num_cells, self.cell_height)], axis=1)


@dataclass
class Codebook:
    """Per-cell codewords plus the RIS layout they were quantized for.

    Row k of `indices` is cell k's codeword: N phase indices, element i set
    to beta_i = 2*pi*indices[k, i]/2**phase_bits.  `phasors` holds
    exp(j*beta) for every entry, computed once.
    """

    indices: np.ndarray  # (cells, N) int
    ris_rows: int
    ris_cols: int
    phase_bits: int
    phasors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.phasors = np.exp(1j * (TWO_PI / 2 ** self.phase_bits) * self.indices)

    def __len__(self) -> int:
        return len(self.indices)


def ideal_phases(scene: SceneConfig, ris: RisGeometry, target: Vec3 | np.ndarray) -> np.ndarray:
    """Continuous per-element phases that align the cascaded path at `target`.

    Element i should apply beta_i = (2*pi/lambda)*(d1_i + d2_i) mod 2*pi,
    which cancels the BS->element->target propagation phase.  With multiple
    BS antennas the incident distance d1_i is taken to antenna 0.  A (K, 3)
    array of targets gives (K, N) phases, row k as for target k alone.
    """
    elems = ris.element_positions()
    d1 = distance(elems, scene.bs_antenna_positions()[0])
    d2 = distance(elems, np.asarray(target, dtype=float)[..., None, :])
    if not (d1.min() > 0.0 and d2.min() > 0.0):
        raise DegenerateGeometryError("target or BS coincides with an RIS element")
    return (TWO_PI / scene.wavelength) * (d1 + d2) % TWO_PI


def quantize_codeword(
    continuous_phases: Sequence[float],
    bits: int = 2,
    weights: Sequence[float] | None = None,
) -> np.ndarray:
    """Quantize continuous phases to 2**bits levels via a reference-phase sweep.

    Returns the codeword as N phase indices in [0, 2**bits).  For each global
    offset rho in [0, step), every phase is rounded to the nearest level of
    (phase + rho); the rounding with the largest coherent sum
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
    rounded = (phases + rho[:, None]) / step + 0.5
    # Every entry is >= 0 and levels is a power of two, so & wraps like %.
    patterns = np.floor(rounded, out=rounded).astype(np.intp)
    patterns &= levels - 1
    # misfit[l, i] = w_i exp(j(l*step - phase_i)); np.hypot rounds each score
    # exactly like the scalar abs(), which np.abs on the array does not, and
    # an ulp decides between rotation-equivalent patterns.
    misfit = np.exp(1j * (np.arange(levels)[:, None] * step - phases))
    if w is not None:
        misfit = w * misfit
    # misfit[patterns[k, i], i] for every k, i, as one flat gather
    total = misfit.take(patterns * phases.size + np.arange(phases.size)).sum(axis=1)
    # A copy, so the (K, N) pattern matrix is freed with this call.
    return patterns[int(np.argmax(np.hypot(total.real, total.imag)))].copy()


def build_codebook(scene: SceneConfig, ris: RisGeometry, grid: GridMap) -> Codebook:
    """One quantized codeword per grid cell, aimed at the cell center."""
    phases = ideal_phases(scene, ris, grid.cell_centers())
    indices = np.array([quantize_codeword(row, bits=ris.phase_bits) for row in phases])
    return Codebook(indices=indices, ris_rows=ris.rows, ris_cols=ris.cols,
                    phase_bits=ris.phase_bits)


def codebook_to_text(codebook: Codebook) -> str:
    """Plain-text serialization: header `rows cols bits`, then `k idx...` lines."""
    lines = [f"{codebook.ris_rows} {codebook.ris_cols} {codebook.phase_bits}"]
    lines += [f"{k} " + " ".join(map(str, row)) for k, row in enumerate(codebook.indices.tolist())]
    return "\n".join(lines) + "\n"
