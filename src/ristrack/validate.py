"""Independent-oracle self checks, runnable from the CLI.

Each check recomputes a quantity along a second, slower route (exhaustive
enumeration, dense linear solve, numerical quadrature) and compares it with
the production path.  Returns the list of failed check names.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
from scipy.integrate import quad
from scipy.stats import norm

from .acquisition import expected_improvement
from .codebook import quantize_codeword
from .surrogate import DEFAULT_LENGTH_SCALE, ObservationHistory, gp_fit, gp_posterior, kernel_tables


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
        beta = quantize_codeword(phases, bits=bits, weights=weights) * step
        achieved = abs(np.sum(weights * np.exp(1j * (beta - phases))))
        best = max(
            abs(np.sum(weights * np.exp(1j * (np.array(combo) * step - phases))))
            for combo in itertools.product(range(levels), repeat=n)
        )
        if not np.isclose(achieved, best, rtol=1e-12, atol=0.0):
            return False
    return True


def check_gp_dense_solve(num_instances: int = 20, seed: int = 11,
                         tol: float = 1e-8) -> bool:
    """Incremental-factor posterior must match a dense np.linalg.solve oracle."""
    rng = np.random.default_rng(seed)
    theta2 = DEFAULT_LENGTH_SCALE
    tables = kernel_tables(10, 10, theta2)
    x_all = tables.coords
    for _ in range(num_instances):
        n = int(rng.integers(2, 40))
        idx = rng.choice(tables.num_cells, size=n, replace=False)
        history = ObservationHistory(tables.num_cells)
        for i in idx:
            history.add(int(i), float(rng.normal(50.0, 10.0)))
        model = gp_fit(history, tables)
        mean, var = gp_posterior(model)

        x = x_all[idx]
        sq = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1)
        k = model.theta1 * np.exp(-sq / theta2 ** 2) + model.jitter * np.eye(n)
        sq_star = np.sum((x[:, None, :] - x_all[None, :, :]) ** 2, axis=-1)
        k_star = model.theta1 * np.exp(-sq_star / theta2 ** 2)
        mean_ref = k_star.T @ np.linalg.solve(k, history.values())
        var_ref = model.theta1 - np.sum(k_star * np.linalg.solve(k, k_star), axis=0)
        if np.max(np.abs(mean - mean_ref)) > tol:
            return False
        if np.max(np.abs(var - np.maximum(var_ref, 0.0))) > tol:
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
        ref, _ = quad(lambda y: (y_star - y) * norm.pdf(y, mean, sigma),
                      mean - 12.0 * sigma, y_star)
        if abs(closed - ref) > tol * max(abs(ref), 1e-12):
            return False
    return True


CHECKS = [
    *((f"quantizer-vs-exhaustive-{b}bit", functools.partial(check_quantizer_exhaustive, bits=b))
      for b in (1, 2, 3)),
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
