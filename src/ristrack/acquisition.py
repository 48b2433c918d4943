"""Acquisition functions and next-point selection for the tracking loop.

Everything is minimization-oriented: the GP path scores candidates with
expected improvement below the incumbent best, the TPE path with the
density-ratio form of the same criterion.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from .surrogate import GpModel, ObservationHistory, TpeModel, gp_posterior

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class CandidatesExhausted(RuntimeError):
    """Every candidate has already been measured; the sweep is complete."""


def expected_improvement(mean, variance, y_star):
    """E[max(y_star - y, 0)] under y ~ N(mean, variance).

    With sigma = sqrt(variance): (y_star - mean)*Phi(u) + sigma*phi(u),
    u = (y_star - mean)/sigma; the sigma = 0 limit is max(y_star - mean, 0).
    Accepts scalars or arrays; never returns a negative value.
    """
    mean = np.asarray(mean, dtype=float)
    variance = np.asarray(variance, dtype=float)
    improvement = y_star - mean
    # np.all(variance > 0), as np.minimum propagates NaN: no check or clamp needed
    if np.minimum.reduce(variance, axis=None, initial=np.inf) > 0:
        sigma = np.sqrt(variance)
        u = improvement / sigma
        ei = improvement * ndtr(u) + sigma * _INV_SQRT_2PI * np.exp(-0.5 * u * u)
    else:
        lowest = np.fmin.reduce(variance, axis=None, initial=0.0)  # skips NaN; 0 when empty
        if lowest < -1e-10:
            raise ValueError(f"negative variance: {lowest}")
        sigma = np.sqrt(np.maximum(variance, 0.0))
        u = np.where(sigma > 0, improvement / np.where(sigma > 0, sigma, 1.0), 0.0)
        phi = _INV_SQRT_2PI * np.exp(-0.5 * u * u)
        ei = np.where(
            sigma > 0,
            improvement * ndtr(u) + sigma * phi,
            np.maximum(improvement, 0.0),
        )
    ei = np.maximum(ei, 0.0)
    return float(ei) if ei.ndim == 0 else ei


def _density_ratio(l_x: np.ndarray, g_x: np.ndarray) -> np.ndarray:
    """l/g, the TPE selection score.

    The paper's score (gamma + (g/l)*(1-gamma))^-1 is monotone increasing in
    l/g, so both rank candidates alike.  But that score saturates in float64
    once (g/l)*(1-gamma) drops below the epsilon of gamma, collapsing
    distinct candidates to ties; the raw ratio orders them exactly.  l = 0
    scores 0; g = 0 with l > 0 scores +inf.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # g = 0: l/0 = inf, 0/0 = NaN
        ratio = l_x / g_x
    return np.where(l_x > 0, ratio, 0.0)


def select_next(model, history: ObservationHistory) -> int:
    """Index of the highest-acquisition unmeasured cell (lowest index on ties).

    GP models use expected improvement against the best observed value; TPE
    models use the density-ratio score.  Raises CandidatesExhausted once the
    history covers every cell.
    """
    if len(history) == history.seen.size:
        raise CandidatesExhausted("all candidates measured")
    if isinstance(model, GpModel):
        remaining = (~history.seen).nonzero()[0]
        mean, var = gp_posterior(model, remaining)
        scores = expected_improvement(mean, var, y_star=float(history.best))
        return int(remaining[scores.argmax()])
    if isinstance(model, TpeModel):
        scores = _density_ratio(model.l, model.g)  # exact per cell: mask, don't gather
        scores[history.seen] = -np.inf
        return int(scores.argmax())
    raise TypeError(f"unsupported surrogate model: {type(model).__name__}")
