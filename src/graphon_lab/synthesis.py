"""Synthetic data generation: latents, mean matrices, noisy observations.

All randomness is driven by a counter-based 64-bit generator (Philox)
with named substreams, so that e.g. requesting a second independent copy
or a missingness mask never perturbs the draws of the primary matrix:

=========  ==========================================
substream  used for
=========  ==========================================
0          latent variables U, V
1          observation noise for H
2          missingness mask
3          observation noise for the second copy H'
4          graphon construction (rand-graphon values)
=========  ==========================================

Identical configurations therefore produce bit-identical observation
sets.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from numbers import Integral
from typing import Optional, Tuple

import numpy as np

from .core import Graphon, NoiseModel, ObservationSet, check_seed

__all__ = [
    "SynthConfig",
    "substream",
    "cell_seed",
    "sample_latents",
    "build_theta",
    "sample_observations",
    "apply_missingness",
    "make_standard_graphon",
    "true_assignments",
    "synthesize",
]

STREAM_LATENTS = 0
STREAM_NOISE = 1
STREAM_MASK = 2
STREAM_SECOND = 3
STREAM_GRAPHON = 4
# the largest mean numpy's Poisson sampler takes
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)


def substream(seed: int, *key: int) -> np.random.Generator:
    """A Philox generator on the substream identified by ``key``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def cell_seed(root_seed: int, *key: int) -> int:
    """A 63-bit seed derived deterministically from a root seed and a key."""
    state = np.random.SeedSequence(
        entropy=int(root_seed), spawn_key=tuple(int(k) for k in key)
    ).generate_state(1, dtype=np.uint64)[0]
    return int(state >> np.uint64(1))


@dataclass(frozen=True)
class SynthConfig:
    """Everything needed to draw one reproducible observation set."""

    n: int
    m: int
    graphon: Graphon
    noise: NoiseModel
    seed: int
    with_second_copy: bool = False
    missing_p: Optional[float] = None

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be positive")
        if self.missing_p is not None and not (0 < self.missing_p <= 1):
            raise ValueError("missing_p must lie in (0, 1]")
        check_seed(self.seed)


def sample_latents(n: int, m: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Draw the i.i.d. Uniform[0, 1] latent positions of rows and columns."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    rng = substream(seed, STREAM_LATENTS)
    U = rng.random(n)
    V = rng.random(m)
    return U, V


def build_theta(graphon: Graphon, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The conditional mean matrix ``Theta[i, j] = W(U_i, V_j)``."""
    U = np.asarray(U, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if U.size and (U.min() < 0 or U.max() > 1):
        raise ValueError("row latents must lie in [0, 1]")
    if V.size and (V.min() < 0 or V.max() > 1):
        raise ValueError("column latents must lie in [0, 1]")
    theta = graphon.evaluate_grid(U, V)
    if graphon.validate and (theta.min() < -1e-12 or theta.max() > graphon.rho + 1e-12):
        raise ValueError("graphon evaluated outside [0, rho]")
    return theta


def sample_observations(
    theta_star: np.ndarray, noise: NoiseModel, seed: int, stream: int = STREAM_NOISE
) -> np.ndarray:
    """One matrix of independent observations with mean ``theta_star``.

    Binomial counts are returned as frequencies (counts / N) and Poisson
    counts as rates (counts / T), so the mean is ``theta_star`` in every
    model.
    """
    theta = np.asarray(theta_star, dtype=np.float64)
    rng = substream(seed, stream)
    if noise.kind in ("bernoulli", "binomial"):
        if theta.min() < 0 or theta.max() > 1:
            raise ValueError(f"{noise.kind} means must lie in [0, 1]")
        if noise.kind == "bernoulli":
            return (rng.random(theta.shape) < theta).astype(np.float64)
        return rng.binomial(noise.N, theta).astype(np.float64) / noise.N
    if noise.kind == "scaled_poisson":
        if theta.min() < 0:
            raise ValueError("poisson means must be nonnegative")
        # checked on the largest mean as a Python float, whose product
        # overflows to inf without a warning, before T * theta is formed
        if float(noise.T) * float(theta.max(initial=0.0)) > _POISSON_LAM_MAX:
            raise ValueError(f"scaled_poisson T = {noise.T!r} puts a mean T * theta above "
                             f"{_POISSON_LAM_MAX:.4g}, the limit of numpy's Poisson sampler")
        return rng.poisson(noise.T * theta).astype(np.float64) / noise.T
    # gaussian
    return theta + math.sqrt(noise.sigma2) * rng.standard_normal(theta.shape)


def apply_missingness(
    H: np.ndarray, p: float, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Reveal each entry independently with probability ``p``.

    Returns the inverse-probability-weighted matrix ``H * mask / p``
    (whose mean matches the mean of ``H``) together with the 0/1 mask.
    """
    mask = _reveal_mask(np.shape(H), p, seed)
    return np.asarray(H, dtype=np.float64) * mask / p, mask


def _reveal_mask(shape: Tuple[int, int], p: float, seed: int) -> np.ndarray:
    """The 0/1 mask of :func:`apply_missingness`, drawn alone."""
    if not (0 < p <= 1):
        raise ValueError("p must lie in (0, 1]")
    return (substream(seed, STREAM_MASK).random(shape) < p).astype(np.float64)


# --------------------------------------------------------------------------
# Standard graphon families used in the experiments
# --------------------------------------------------------------------------


def _regular_breaks(k: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, k + 1)


def _bump_factor(x: np.ndarray) -> np.ndarray:
    """The bump's factor: columns ``1`` and ``a(x) = exp(-10*(x-1/2)^2)``."""
    return np.column_stack([np.ones_like(x), np.exp(-10 * (x - 0.5) ** 2)])


def make_standard_graphon(kind: str, **params) -> Graphon:
    """Construct one of the three experimental graphon families.

    ``rand``    - piecewise constant on the regular K x L grid with values
                  drawn i.i.d. Uniform[0, rho] from ``seed``.
    ``cos``     - piecewise constant on the regular K x L grid with value
                  ``2*rho/3 + rho/3 * cos(3*pi*k*l)`` on cell (k, l).
    ``hoelder`` - the smooth bump
                  ``rho/2 * (1 + exp(-10*((u-1/2)^2 + (v-1/2)^2)))``,
                  which is Lipschitz (alpha = 1), as the rank-2 factors
                  ``rho/2 + rho/2 * a(u) a(v)``, ``a(x) = exp(-10*(x-1/2)^2)``.

    Raises ``ValueError`` naming ``K``, ``L`` or ``seed`` when a cell count is
    not a positive integer or the seed not a non-negative one.
    """
    if kind in ("rand", "cos"):
        for name in ("K", "L"):
            if not (isinstance(params[name], Integral) and params[name] >= 1):
                raise ValueError(f"{name} must be a positive integer, got {params[name]!r}")
    if kind == "rand":
        check_seed(params["seed"])
        K, L, rho, seed = params["K"], params["L"], params["rho"], params["seed"]
        rng = substream(seed, STREAM_GRAPHON)
        values = rho * rng.random((K, L))
        return Graphon.piecewise_constant(
            _regular_breaks(K), _regular_breaks(L), values, rho=rho
        )
    if kind == "cos":
        K, L, rho = params["K"], params["L"], params["rho"]
        kk, ll = np.meshgrid(np.arange(K), np.arange(L), indexing="ij")
        values = 2 * rho / 3 + rho / 3 * np.cos(3 * np.pi * kk * ll)
        return Graphon.piecewise_constant(
            _regular_breaks(K), _regular_breaks(L), values, rho=rho
        )
    if kind == "hoelder":
        rho = params["rho"]
        # sup of the gradient norm: max_r 10*rho*r*exp(-10 r^2) at r = 1/sqrt(20)
        lip = 10 * rho * math.exp(-0.5) / (2 * math.sqrt(5))
        return Graphon.analytic(_bump_factor, np.diag([rho / 2, rho / 2]), _bump_factor, rho,
                                hoelder_alpha=1.0, hoelder_L=lip)
    raise ValueError(f"unknown standard graphon kind {kind!r}")


def true_assignments(
    graphon: Graphon, U: np.ndarray, V: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Latent-binned cluster labels under a piecewise-constant graphon.

    Row i belongs to the cell of ``breaks_u`` containing ``U_i``; same for
    columns.  These are the clusters the data-generating partition induces.
    """
    return graphon.cell_indices(U, axis=0), graphon.cell_indices(V, axis=1)


def synthesize(config: SynthConfig) -> ObservationSet:
    """Draw a full observation set (latents, truth, observations, extras).

    ``H`` is stored raw; when ``missing_p`` is set the mask is stored
    alongside and :meth:`ObservationSet.adjusted` yields the weighted
    matrix estimation should consume.  The second copy, used only for
    aggregation weights, is kept fully observed.
    """
    U, V = sample_latents(config.n, config.m, config.seed)
    theta = build_theta(config.graphon, U, V)
    if config.noise.kind in ("bernoulli", "binomial") and theta.max() > 1:
        raise ValueError(f"{config.noise.kind} means must lie in [0, 1]; the graphon's "
                         f"rho = {config.graphon.rho!r} gives {theta.max():.6g}")
    if config.noise.kind == "gaussian" and (
        theta.min() < -1e-12 or theta.max() > config.graphon.rho + 1e-12
    ):
        # the gaussian model has no mean-range restriction; flag, don't reject
        warnings.warn("gaussian means fall outside [0, rho]")
    H = sample_observations(theta, config.noise, config.seed, stream=STREAM_NOISE)
    H_prime = None
    if config.with_second_copy:
        H_prime = sample_observations(
            theta, config.noise, config.seed, stream=STREAM_SECOND
        )
    mask = None
    if config.missing_p is not None:
        mask = _reveal_mask(H.shape, config.missing_p, config.seed)
    return ObservationSet(
        H=H,
        noise=config.noise,
        H_prime=H_prime,
        mask=mask,
        p=config.missing_p,
        latents=(U, V),
        theta_star=theta,
    )
