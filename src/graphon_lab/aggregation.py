"""Exponentially weighted aggregation of block-model fits.

A collection of candidate estimates of the mean matrix is combined into a
convex mixture whose weights are exponential in how well each candidate
explains an independent second copy of the data:

    w_l  proportional to  exp(-||H' - Theta_l||_F^2 / beta).

Smaller temperatures ``beta`` concentrate the mixture on the best-fitting
candidate; larger temperatures flatten it toward the uniform average.
Weights are computed with a log-sum-exp shift so that residuals spanning
many orders of magnitude remain well normalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .core import (
    BlockModel,
    DimensionMismatch,
    NoiseModel,
    block_inner,
    finite_positive,
    induced_mean,
    induced_sq_norm,
)

__all__ = [
    "EwaResult",
    "check_temperature",
    "temperature",
    "ewa_aggregate",
    "ewa_weights",
    "mixture",
    "sq_residuals",
]

# Mixture terms with a weight at or below this are skipped: adding them
# changes no entry by more than double-precision rounding.
WEIGHT_FLOOR = 1e-15


def temperature(noise: NoiseModel) -> float:
    """The aggregation temperature with known guarantees per noise family.

    Bernoulli -> 8/3, binomial(N) -> 8/(3N), gaussian(sigma2) -> 4*sigma2.
    No supported temperature exists for the scaled-Poisson model.
    """
    if noise.kind == "bernoulli":
        return 8.0 / 3.0
    if noise.kind == "binomial":
        return 8.0 / (3.0 * noise.N)
    if noise.kind == "gaussian":
        return 4.0 * noise.sigma2
    raise ValueError(
        "no aggregation temperature is available for the scaled-Poisson model"
    )


@dataclass(frozen=True)
class EwaResult:
    """Aggregation outcome: weights, the mixed matrix, and the residuals."""

    weights: np.ndarray
    aggregate: np.ndarray
    beta: float
    residuals: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        if abs(w.sum() - 1.0) > 1e-9 or w.min() < 0:
            raise ValueError("weights must form a probability vector")


def _check_shape(model: BlockModel, shape: Tuple[int, ...]) -> None:
    if shape != (model.n, model.m):
        raise DimensionMismatch(
            f"matrix has shape {shape}, expected ({model.n}, {model.m})"
        )


def sq_residuals(models: Sequence[BlockModel], M: np.ndarray) -> np.ndarray:
    """``||M - induced_mean(model)||_F^2`` for each model, from block sums.

    Uses ``||M||^2 - 2 <M, Theta> + ||Theta||^2``, so no candidate's
    ``n x m`` mean is materialized.  A model object listed more than once
    (grid entries that share one fit) is evaluated once.
    """
    M = np.asarray(M, dtype=np.float64)
    M_sq = float(np.einsum("ij,ij->", M, M))
    seen: Dict[int, float] = {}
    out = np.empty(len(models))
    for i, model in enumerate(models):
        if id(model) not in seen:
            _check_shape(model, M.shape)
            seen[id(model)] = (
                M_sq - 2.0 * block_inner(M, model) + induced_sq_norm(model)
            )
        out[i] = seen[id(model)]
    return out


def check_temperature(beta) -> None:
    """Raise ``ValueError`` unless ``beta`` is a finite positive real."""
    if not finite_positive(beta):
        raise ValueError(f"beta must be finite and positive, got {beta!r}")


def ewa_weights(sq_residuals: np.ndarray, beta: float) -> np.ndarray:
    """Normalized weights ``exp(-r_l / beta)`` via a log-sum-exp shift."""
    check_temperature(beta)
    r = np.asarray(sq_residuals, dtype=np.float64)
    if r.size == 0:
        raise ValueError("need at least one candidate")
    if not np.isfinite(r).all():
        raise ValueError("residuals must be finite")
    logw = -r / beta
    logw -= logw.max()
    w = np.exp(logw)
    return w / w.sum()


def mixture(models: Sequence[BlockModel], weights: np.ndarray) -> np.ndarray:
    """The convex combination ``sum_l w_l * induced_mean(model_l)``.

    Terms with weight at most ``WEIGHT_FLOOR`` are skipped.  The weights of
    a model object listed more than once (grid entries that share one fit)
    are added first, so each distinct fit's mean is materialized once.
    """
    if len(models) == 0 or len(models) != len(weights):
        raise ValueError("need one weight per model, and at least one model")
    shape = (models[0].n, models[0].m)
    merged: Dict[int, List] = {}
    for w, model in zip(weights, models):
        term = merged.get(id(model))
        if term is None:
            _check_shape(model, shape)
            term = merged[id(model)] = [model, 0.0]
        if w > WEIGHT_FLOOR:
            term[1] += w
    out = np.zeros(shape)
    for model, w in merged.values():
        if w > 0.0:
            out += w * induced_mean(model)
    return out


def ewa_aggregate(
    fits: Sequence[BlockModel], H_prime: np.ndarray, beta: float
) -> EwaResult:
    """Exponentially weighted aggregate of candidate block models.

    Parameters
    ----------
    fits : sequence of BlockModel
        Candidate estimates, each with the shape of ``H_prime``.  A dense
        ``n x m`` candidate is the block model with identity labels and
        ``K = n``, ``L = m``.  The candidates must have been computed
        independently of ``H_prime`` - that contract is the caller's.
    H_prime : np.ndarray
        The held-out copy of the data used for the weights.
    beta : float
        Positive temperature.

    Returns
    -------
    EwaResult
        Weights, the entrywise convex combination, and each candidate's
        squared residual against ``H_prime``.

    Raises
    ------
    DimensionMismatch
        If a candidate's shape differs from ``H_prime``'s.
    ValueError
        If ``fits`` is empty, ``beta`` is not positive or a residual is
        not finite.
    """
    residuals = sq_residuals(fits, H_prime)
    weights = ewa_weights(residuals, beta)
    return EwaResult(
        weights=weights,
        aggregate=mixture(fits, weights),
        beta=beta,
        residuals=residuals,
    )
