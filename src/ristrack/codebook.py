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
        # At 30 bits a level step is 5.9e-9 rad; from 53 bits up it falls
        # below a phase's own rounding, and the level indices outgrow int64.
        if not 1 <= self.phase_bits <= 30:
            raise ValueError(f"phase_bits must be in [1, 30], got {self.phase_bits}")

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
    continuous_phases: Sequence[float] | np.ndarray,
    bits: int = 2,
    weights: Sequence[float] | np.ndarray | None = None,
) -> np.ndarray:
    """Quantize continuous phases to 2**bits levels via a reference-phase sweep.

    Takes one codeword's N phases, or a (K, N) array of them, and returns N
    phase indices in [0, 2**bits), or (K, N) of them, row k as for row k
    alone.  For each global offset rho in [0, step), every phase is rounded
    to the nearest level of (phase + rho); the rounding with the largest
    coherent sum |sum_i w_i exp(j(beta_i - phase_i))| wins (smallest rho on
    ties).  The rounding changes only where some phase + rho crosses a level
    midpoint, so the midpoints of the at most N+1 intervals between those
    breakpoints visit every reachable pattern, and the result matches
    exhaustive search over all (2**bits)**N codewords.  `weights` (e.g.
    per-element cascade amplitudes, shaped like the phases) make the score
    proportional to the achieved power; by default all elements count
    equally.  Non-finite phases or weights raise ValueError.

    The sweep costs O(N log N) per row: the breakpoints are sorted once, each
    element's level steps up at one offset per step, and a running sum of
    those steps scores every offset.  Only offsets within the running sum's
    round-off bound of the best are scored again, in exactly the arithmetic
    of a full score table, so ties between rotation-equivalent patterns, which
    an ulp decides, fall as that table decides them.
    """
    phases = np.asarray(continuous_phases, dtype=float)
    w = None if weights is None else np.asarray(weights, dtype=float)
    if phases.ndim not in (1, 2):
        raise ValueError("continuous_phases must be (N,) or (K, N)")
    if w is not None and w.shape != phases.shape:
        raise ValueError("weights must match continuous_phases in shape")
    if not (np.isfinite(phases).all() and (w is None or np.isfinite(w).all())):
        raise ValueError("continuous_phases and weights must be finite")
    if phases.size == 0:
        return np.zeros(phases.shape, dtype=np.intp)
    rows = np.atleast_2d(phases)
    if not ((rows >= 0.0) & (rows < TWO_PI)).all():  # ideal_phases' rows already are
        rows = rows % TWO_PI
    w = None if w is None else np.atleast_2d(w)
    cells, n = rows.shape
    levels = 2 ** bits
    step = TWO_PI / levels
    base, firsts = _level_steps(rows, step)

    def levels_at(k, j):  # the levels of cell k[r] at row j[r]
        used = base[k]
        for first in firsts:
            used = used + (first[k] <= j[:, None])
        return used & (levels - 1)  # every level is >= 0, and & wraps like %

    def misfit(used, k):  # w_i exp(j(used_i*step - phase_i)), row by row
        m = 1j * (used * step - rows[k])
        np.exp(m, out=m)
        if w is not None:
            m *= w[k]
        return m

    approx = _running_scores(misfit(base & (levels - 1), slice(None)), firsts, step)
    # |approx - exact| <= bound on every row: each term is within 16 eps of
    # the table's (its argument within 8*pi ulps, exp's own few ulps), and
    # at most (span + 2)*n + 2 additions of terms worth (2*span + 1)*sum|w|
    # in all each add at most that many eps, sqrt(2) for the modulus and as
    # much again for the table's own pairwise sum.  So every row that ties
    # the exact best lies within 2*bound of the best running sum.
    span = len(firsts)
    mass = n if w is None else np.abs(w).sum(axis=1, keepdims=True)
    bound = np.finfo(float).eps * mass * (16 + 2 * (2 * span + 1) * ((span + 2) * n + 2))
    near = approx >= approx.max(axis=1, keepdims=True) - 2.0 * bound
    best = np.argmax(near, axis=1)
    tied = np.flatnonzero(near.sum(axis=1) > 1)
    k, j = np.nonzero(near[tied])
    k = tied[k]
    score = np.empty(k.size)
    for s in range(0, k.size, cells):  # blocks of at most (cells, n)
        total = misfit(levels_at(k[s:s + cells], j[s:s + cells]), k[s:s + cells]).sum(axis=1)
        score[s:s + cells] = np.hypot(total.real, total.imag)
    order = np.lexsort((-score, k))  # stable: the smallest rho first among equals
    _, first = np.unique(k[order], return_index=True)
    best[k[order[first]]] = j[order[first]]
    codewords = levels_at(np.arange(cells), best)
    return codewords[0] if phases.ndim == 1 else codewords


def _sweep_offsets(rows: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray]:
    """(cells, N + 2) offsets and each element's breakpoint rank in its row.

    Row k holds the midpoints of [0, sorted breaks, step] as np.unique would
    keep them, except that an empty interval between equal breaks repeats the
    midpoint below it, so it is non-decreasing; column N + 1 (inf) stands for
    "no offset".
    """
    cells, n = rows.shape
    breaks = (step / 2.0 - rows) % step
    order = np.argsort(breaks, axis=1)
    breaks = np.take_along_axis(breaks, order, axis=1)
    rho = np.full((cells, n + 2), np.inf)
    rho[:, :n] = breaks
    rho[:, n] = step
    # add the largest break under each (0 if none): a running max of the distinct ones
    below = rho[:, 1:n]
    below += np.maximum.accumulate(
        np.where(breaks[:, 1:] > breaks[:, :-1], breaks[:, :-1], 0.0), axis=1)
    rho[:, n:n + 1] += breaks[:, n - 1:]
    rho[:, :-1] /= 2.0
    rank = np.empty((cells, n), dtype=np.intp)
    np.put_along_axis(rank, order, np.arange(n), axis=1)
    return rho, rank


def _level_steps(rows: np.ndarray, step: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """Each element's level at the first offset, and the offset row of each later step.

    The rounding floor((phase + rho)/step + 0.5) is monotone in rho, so
    element i takes the levels base_i + 0..span along its row of offsets;
    firsts[d - 1][k, i] is the first row at level base + d (N + 1 if none).
    The guesses, the row after the element's own break for the first step
    and none for later ones, are checked against that rounding, and a
    bisection finds the rows of the guesses that fail.
    """
    cells, n = rows.shape
    rho, rank = _sweep_offsets(rows, step)
    flat_rho = rho.ravel()
    start = np.arange(cells)[:, None] * (n + 2)

    def rounding(p, at):  # the rounding's argument: its floor is the level
        return (p + flat_rho[at]) / step + 0.5

    base = np.floor(rounding(rows, start)).astype(np.intp)
    span = int((np.floor(rounding(rows, start + n)) - base).max(initial=0))
    firsts = []
    for d in range(1, span + 1):
        target = base + d
        first = rank + 1 if d == 1 else np.full((cells, n), n + 1)
        wrong = np.flatnonzero((rounding(rows, start + first) < target)
                               | (rounding(rows, start + first - 1) >= target))
        if wrong.size:
            p, t, row = rows.flat[wrong], target.flat[wrong], start.ravel()[wrong // n]
            lo, hi = np.zeros(wrong.size, dtype=np.intp), np.full(wrong.size, n + 1)
            for _ in range(n.bit_length()):
                mid = (lo + hi) // 2
                up = rounding(p, row + mid) >= t
                lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
            first.flat[wrong] = hi
        firsts.append(first)
    return base, firsts


def _running_scores(terms: np.ndarray, firsts: list[np.ndarray], step: float) -> np.ndarray:
    """|coherent sum| of every offset row from row 0's terms: each element's
    term turns by exp(j*step) at each of its steps, so row j's sum is row 0's
    plus the change of every step taken by row j: one running sum per row."""
    cells, n = terms.shape
    sums = np.zeros((cells, n + 2), dtype=complex)  # column n + 1: the steps never taken
    sums[:, 0] = terms.sum(axis=1)
    turn = np.exp(1j * step)
    terms *= turn - 1.0
    at = np.arange(cells)[:, None] * (n + 2)
    for first in firsts:
        np.add.at(sums.reshape(-1), at + first, terms)
        terms *= turn
    np.cumsum(sums, axis=1, out=sums)
    return np.hypot(sums.real[:, :n + 1], sums.imag[:, :n + 1])


def build_codebook(scene: SceneConfig, ris: RisGeometry, grid: GridMap) -> Codebook:
    """One quantized codeword per grid cell, aimed at the cell center."""
    phases = ideal_phases(scene, ris, grid.cell_centers())
    indices = quantize_codeword(phases, bits=ris.phase_bits)
    return Codebook(indices=indices, ris_rows=ris.rows, ris_cols=ris.cols,
                    phase_bits=ris.phase_bits)


def codebook_to_text(codebook: Codebook) -> str:
    """Plain-text serialization: header `rows cols bits`, then `k idx...` lines."""
    lines = [f"{codebook.ris_rows} {codebook.ris_cols} {codebook.phase_bits}"]
    lines += [f"{k} " + " ".join(map(str, row)) for k, row in enumerate(codebook.indices.tolist())]
    return "\n".join(lines) + "\n"
