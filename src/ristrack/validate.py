"""Independent-oracle self checks, runnable from the CLI.

Each check recomputes a quantity along a second, slower route (exhaustive
enumeration, dense linear solve, numerical quadrature) and compares it with
the production path; the tests import the same three oracles.  One more
check compares the quantizer's batch path with its own one-row path.
`run_all` returns the list of failed check names.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .acquisition import expected_improvement
from .codebook import quantize_codeword
from .surrogate import DEFAULT_LENGTH_SCALE, ObservationHistory, gp_fit, gp_posterior, kernel_tables
from .tracker import _GpLanes


def dense_gp_posterior(model, history: ObservationHistory,
                       length_scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance (clamped at 0) of a fitted GP on every
    cell, from the kernel built by its definition and a dense np.linalg.solve."""
    coords = model.tables.coords
    sq = np.sum((coords[history.cells(), None, :] - coords[None, :, :]) ** 2, axis=-1)
    k_star = model.theta1 * np.exp(-sq / length_scale ** 2)
    k = k_star[:, history.cells()] + model.jitter * np.eye(len(history))
    mean = k_star.T @ np.linalg.solve(k, history.values())
    var = model.theta1 - np.sum(k_star * np.linalg.solve(k, k_star), axis=0)
    return mean, np.maximum(var, 0.0)


# 96-point Gauss-Legendre rule on [-1, 1], exact for polynomials of degree
# 191: within 3e-13 of the closed form, relative, for y_star up to 6 sigma
# above the mean (an interval of 18 sigma).
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(96)


def ei_by_quadrature(mean: float, sigma: float, y_star: float) -> float:
    """E[max(y_star - Y, 0)] for Y ~ N(mean, sigma^2), by Gauss-Legendre
    quadrature of the defining integral over [mean - 12 sigma, y_star], with
    the normal density written out."""
    low = mean - 12.0 * sigma
    half = 0.5 * (y_star - low)
    y = low + half * (_NODES + 1.0)
    density = np.exp(-0.5 * ((y - mean) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    return float(half * np.dot(_WEIGHTS, (y_star - y) * density))


def best_by_enumeration(score, n: int, levels: int) -> float:
    """Max of `score` over all levels**n phase-index vectors, each given as floats."""
    return max(score(np.array(combo, dtype=float))
               for combo in itertools.product(range(levels), repeat=n))


def check_quantizer_exhaustive(num_geometries: int = 10, seed: int = 7,
                               bits: int = 2) -> bool:
    """quantize_codeword must match brute force over all (2^bits)^N codewords."""
    rng = np.random.default_rng(seed)
    levels = 2 ** bits
    step = 2.0 * np.pi / levels
    max_elements = min(6, 12 // bits)  # at most 2^12 = 4,096 codewords to enumerate
    for _ in range(num_geometries):
        n = int(rng.integers(2, max_elements + 1))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
        weights = rng.uniform(0.2, 1.0, size=n)

        def coherent_sum(b):
            return abs(np.sum(weights * np.exp(1j * (b * step - phases))))
        achieved = coherent_sum(quantize_codeword(phases, bits=bits, weights=weights))
        best = best_by_enumeration(coherent_sum, n, levels)
        if not np.isclose(achieved, best, rtol=1e-12, atol=0.0):
            return False
    return True


def check_quantizer_batch_vs_rows(num_rows: int = 30, seed: int = 17) -> bool:
    """A seeded (K, N) stack must quantize as each of its rows does alone, at
    1, 2 and 3 bits, with and without weights.  A third of the rows are
    lattice phases (every phase a level or a breakpoint) and a third are
    those moved by 1e-15: the rows of a stack share one span and one flat
    offset index, which a row alone never crosses."""
    rng = np.random.default_rng(seed)
    for bits in (1, 2, 3):
        n = int(rng.integers(2, 40))
        stack = rng.uniform(0.0, 2.0 * np.pi, size=(num_rows, n))
        lattice = rng.integers(0, 2 ** (bits + 1), size=stack.shape) * (np.pi / 2 ** bits)
        stack[::3] = lattice[::3]
        stack[1::3] = lattice[1::3] + rng.choice([-1e-15, 1e-15], size=stack[1::3].shape)
        for weights in (None, rng.uniform(0.2, 1.0, size=stack.shape)):
            batch = quantize_codeword(stack, bits=bits, weights=weights)
            for k, row in enumerate(stack):
                alone = quantize_codeword(row, bits=bits,
                                          weights=None if weights is None else weights[k])
                if not np.array_equal(batch[k], alone):
                    return False
    return True


def check_gp_dense_solve(num_instances: int = 20, seed: int = 11,
                         tol: float = 1e-8) -> bool:
    """Incremental-factor posterior must match a dense np.linalg.solve oracle,
    both `GpModel`'s and that of a one-lane `_GpLanes`, the factor the
    production search runs on."""
    rng = np.random.default_rng(seed)
    tables = kernel_tables(10, 10, DEFAULT_LENGTH_SCALE)
    for _ in range(num_instances):
        n = int(rng.integers(2, 40))
        idx = rng.choice(tables.num_cells, size=n, replace=False)
        history = ObservationHistory(tables.num_cells)
        for i in idx:
            history.add(int(i), float(rng.normal(50.0, 10.0)))
        model = gp_fit(history, tables)
        lane = _GpLanes(1, n, tables)
        for i in range(n):
            lane.append(i, history.cells()[i:i + 1], history.values()[i:i + 1])
        mean_ref, var_ref = dense_gp_posterior(model, history, DEFAULT_LENGTH_SCALE)
        for mean, var in (gp_posterior(model),
                          (lane.mean[0], model.theta1 * (1.0 - lane.w_sq[0]))):
            if np.max(np.abs(mean - mean_ref)) > tol or np.max(np.abs(var - var_ref)) > tol:
                return False
    return True


def check_ei_quadrature(num_triples: int = 100, seed: int = 13,
                        tol: float = 1e-6) -> bool:
    """Closed-form EI must match numerical quadrature of the defining integral."""
    rng = np.random.default_rng(seed)
    for _ in range(num_triples):
        mean = rng.uniform(-3.0, 3.0)
        sigma = rng.uniform(0.05, 3.0)
        u = rng.uniform(-6.0, 6.0)
        y_star = mean + u * sigma
        closed = expected_improvement(mean, sigma ** 2, y_star)
        ref = ei_by_quadrature(mean, sigma, y_star)
        if abs(closed - ref) > tol * max(abs(ref), 1e-12):
            return False
    return True


CHECKS = [
    *((f"quantizer-vs-exhaustive-{b}bit", functools.partial(check_quantizer_exhaustive, bits=b))
      for b in (1, 2, 3)),
    ("quantizer-batch-vs-rows", check_quantizer_batch_vs_rows),
    ("gp-vs-dense-solve", check_gp_dense_solve),
    ("ei-vs-quadrature", check_ei_quadrature),
]


def run_all(verbose: bool = False) -> list[str]:
    failures = []
    for name, check in CHECKS:
        ok = check()
        if verbose:
            print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)
    return failures
