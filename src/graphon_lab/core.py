"""Shared domain types and elementary block-matrix algebra.

The central objects are bipartite block models: an ``n x m`` mean matrix
that is constant on the blocks induced by a clustering of the rows into
``K`` groups and a clustering of the columns into ``L`` groups.  Cluster
memberships are stored as label vectors.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from numbers import Real
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = [
    "AssignmentMatrix",
    "BlockModel",
    "Graphon",
    "NoiseModel",
    "NOISE_PARAMS",
    "ObservationSet",
    "DimensionMismatch",
    "finite_positive",
    "check_seed",
    "check_rho",
    "is_integer",
    "is_number",
    "check_positive_integers",
    "check_counts",
    "check_latents",
    "induced_mean",
    "group_sums",
    "bin_sums",
    "block_sums",
    "block_means",
    "block_inner",
    "induced_sq_norm",
]

# the largest rho, and magnitude read from a CSV matrix or a JSON number that feeds squared
# errors: squares of such numbers summed over any array numpy can hold stay finite
MAX_ABS = 1e100


class DimensionMismatch(ValueError):
    """Raised when matrix shapes and cluster counts do not line up."""


@dataclass(frozen=True)
class AssignmentMatrix:
    """Hard clustering of ``n`` items into ``K`` clusters.

    ``labels[i]`` is the 0-based cluster of item ``i``.  Single-cluster
    assignments are legal here (handy for grand-mean models); the
    estimator's feasible sets separately require ``K >= 2``.

    Parameters
    ----------
    n : int
        Number of items (rows of the implied 0/1 matrix).
    K : int
        Number of clusters.
    labels : np.ndarray
        Integer vector of length ``n`` with values in ``{0, ..., K-1}``.
    """

    n: int
    K: int
    labels: np.ndarray

    def __post_init__(self):
        check_positive_integers(n=self.n, K=self.K)
        K, whole = self.K, isinstance(self.labels, np.ndarray) and self.labels.dtype.kind in "iu"
        # anything but an integer array is read item by item: 0.7, True or '0' is refused, not cast
        items = self.labels if whole else np.asarray(self.labels, dtype=object)
        if items.shape != (self.n,):
            raise DimensionMismatch(f"labels has shape {items.shape}, expected ({self.n},)")
        if not (whole and items.min() >= 0 and items.max() < K):
            for i, x in enumerate(items.tolist()):
                if not (is_integer(x) and 0 <= x < K):
                    raise ValueError(f"labels must be integers in [0, {K}), got {x!r} at index {i}")
        labels = items.astype(np.int64)  # a private copy
        object.__setattr__(self, "labels", labels)
        labels.setflags(write=False)
        counts = np.bincount(labels, minlength=self.K)
        counts.setflags(write=False)
        object.__setattr__(self, "_counts", counts)

    def counts(self) -> np.ndarray:
        """Cluster sizes as a length-``K`` integer vector.

        Equal to ``np.bincount(labels, minlength=K)``, binned once when the
        assignment is built and returned as the same read-only array on
        every call; copy it before writing.
        """
        return self._counts


@dataclass(frozen=True)
class BlockModel:
    """Block-value matrix plus row and column assignments.

    The induced mean matrix is ``Theta[i, j] = Q[z_rows(i), z_cols(j)]``;
    it is constant on every block and takes at most ``K * L`` distinct
    values.
    """

    Q: np.ndarray
    z_rows: AssignmentMatrix
    z_cols: AssignmentMatrix

    def __post_init__(self):
        Q = np.array(self.Q, dtype=np.float64, copy=True)
        object.__setattr__(self, "Q", Q)
        if Q.ndim != 2:
            raise DimensionMismatch("Q must be a 2-d matrix")
        if Q.shape != (self.z_rows.K, self.z_cols.K):
            raise DimensionMismatch(
                f"Q has shape {Q.shape}, expected "
                f"({self.z_rows.K}, {self.z_cols.K})"
            )
        Q.setflags(write=False)

    @property
    def n(self) -> int:
        return self.z_rows.n

    @property
    def m(self) -> int:
        return self.z_cols.n

    @property
    def K(self) -> int:
        return self.z_rows.K

    @property
    def L(self) -> int:
        return self.z_cols.K


def induced_mean(model: BlockModel) -> np.ndarray:
    """Materialize the ``n x m`` block-constant mean matrix of a model."""
    return model.Q[np.ix_(model.z_rows.labels, model.z_cols.labels)]


def block_sums(
    M: np.ndarray, z_rows: AssignmentMatrix, z_cols: AssignmentMatrix
) -> np.ndarray:
    """``K x L`` sums of ``M`` over the blocks of a row and a column assignment."""
    rows = group_sums(M, z_rows.labels, z_rows.K, axis=0)
    return group_sums(rows, z_cols.labels, z_cols.K, axis=1)


def block_means(
    sums: np.ndarray, z_rows: AssignmentMatrix, z_cols: AssignmentMatrix
) -> np.ndarray:
    """``K x L`` block sums divided by block sizes; 0 where a block is empty.

    With ``sums = block_sums(H, z_rows, z_cols)`` this is the least-squares
    value matrix: ``Q[k, l]`` is the mean of H over block (k, l).
    """
    sizes = np.outer(z_rows.counts(), z_cols.counts()).astype(np.float64)
    return np.divide(sums, sizes, out=np.zeros_like(sizes), where=sizes > 0)


def block_inner(M: np.ndarray, model: BlockModel) -> float:
    """Inner product of ``M`` with the induced mean, without materializing it."""
    return float((model.Q * block_sums(M, model.z_rows, model.z_cols)).sum())


def induced_sq_norm(model: BlockModel) -> float:
    """Squared Frobenius norm of the induced mean matrix."""
    sizes = np.outer(model.z_rows.counts(), model.z_cols.counts())
    return float((sizes * model.Q * model.Q).sum())


def bin_sums(X: np.ndarray, bins: np.ndarray, K: int) -> np.ndarray:
    """``K x w`` sums of the rows of the ``P x w`` matrix ``X`` by bin, each bin in row order."""
    w = X.shape[1]
    flat = (bins[:, None] * w + np.arange(w)).ravel()
    return np.bincount(flat, weights=X.ravel(), minlength=K * w).reshape(K, w)


def group_sums(H: np.ndarray, labels: np.ndarray, K: int, axis: int) -> np.ndarray:
    """Sum the rows (axis=0) or columns (axis=1) of ``H`` by cluster label.

    With ``Z`` the one-hot matrix of ``labels``, this is ``Z^T H``
    (``K x m``) for axis=0 and ``H Z`` (``n x K``) for axis=1; empty
    clusters produce zero rows/columns.
    """
    H = np.asarray(H, dtype=np.float64)
    Z = np.eye(K).take(labels, axis=0)  # as np.eye(K)[labels], at a third of the time
    return Z.T @ H if axis == 0 else H @ Z


# --------------------------------------------------------------------------
# Graphons
# --------------------------------------------------------------------------

_VALIDATION_GRID = 512
_BAND_TOL = 1e-12  # how far a value may stray outside [0, rho] and still count as in it


def is_integer(x) -> bool:
    """Whether ``x`` is a Python or numpy integer; a bool is not (JSON ``true`` loads as 1)."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def is_number(x) -> bool:
    """Whether ``x`` is a real number (NaN and +-inf too); a bool is not."""
    return isinstance(x, Real) and not isinstance(x, bool)


def finite_positive(x) -> bool:
    """Whether ``x`` is a finite positive number (:func:`is_number`)."""
    return is_number(x) and math.isfinite(x) and x > 0


def check_seed(seed) -> None:
    """``ValueError`` naming the seed unless it is a non-negative integer
    (:func:`is_integer`), as numpy's ``SeedSequence`` needs."""
    if not (is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def check_rho(rho):
    """``rho``, or ``ValueError`` naming rho unless it is a number (:func:`is_number`)
    in ``(0, MAX_ABS]``: the one rule for a graphon's sup-norm bound."""
    if not (is_number(rho) and 0 < rho <= MAX_ABS):
        raise ValueError(f"rho must be a number in (0, {MAX_ABS:g}], got {rho!r}")
    return rho


def check_positive_integers(**values) -> None:
    """``ValueError`` naming the first of ``values`` that is not a positive integer
    (:func:`is_integer`): the one rule for a size or a count of steps."""
    for name, x in values.items():
        if not (is_integer(x) and x >= 1):
            raise ValueError(f"{name} must be a positive integer, got {x!r}")


def check_counts(K, L, n0=0, m0=0, shape: Optional[Tuple[int, int]] = None):
    """The one copy of the rules for a fit's ``(K, L, n0, m0)``: ``ValueError`` naming
    the first of them that is not an integer (:func:`is_integer`), and unless
    ``K, L >= 2`` and ``n0, m0 >= 0`` and, for data of ``shape = (n, m)``, ``K <= n``,
    ``L <= m``, ``K n0 <= n`` and ``L m0 <= m``."""
    for name, x in {"K": K, "L": L, "n0": n0, "m0": m0}.items():
        if not is_integer(x):
            raise ValueError(f"{name} must be an integer, got {x!r}")
    if K < 2 or L < 2:
        raise ValueError("K and L must be at least 2")
    if n0 < 0 or m0 < 0:
        raise ValueError(f"minimum sizes must be nonnegative, got n0={n0}, m0={m0}")
    if shape is not None:
        if K > shape[0] or L > shape[1]:
            raise ValueError("more clusters than rows/columns")
        if K * n0 > shape[0]:
            raise ValueError(f"infeasible row sizes: {K} * {n0} > {shape[0]}")
        if L * m0 > shape[1]:
            raise ValueError(f"infeasible column sizes: {L} * {m0} > {shape[1]}")


def check_latents(values, name: str) -> np.ndarray:
    """``values`` as a float64 vector, or ``ValueError`` naming ``name`` and
    the first bad entry unless they are a vector of real numbers in [0, 1]
    (NaN is not).  A bool is refused, also in a list: JSON ``true`` loads as 1."""
    numeric = isinstance(values, np.ndarray) and values.dtype.kind in "iuf"
    items = values if numeric else np.asarray(values, dtype=object)
    if items.ndim != 1:
        raise ValueError(f"latent positions {name!r} must be a vector, got shape {items.shape}")
    if numeric:
        ok = (items >= 0) & (items <= 1)
    else:
        ok = np.array([is_number(x) and 0 <= x <= 1 for x in items], dtype=bool)
    if not ok.all():
        i = int(np.argmin(ok))
        bad = items[i].item() if isinstance(items[i], np.generic) else items[i]
        raise ValueError(f"latent positions {name!r} must be numbers in [0, 1], "
                         f"got {bad!r} at index {i}")
    return items.astype(np.float64, copy=False)


@dataclass(frozen=True)
class Graphon:
    """A bivariate mean function on the unit square, bounded by ``rho``.

    Two families are supported.  A piecewise-constant graphon is given by
    breakpoints ``0 = a_0 < ... < a_K = 1`` and ``0 = b_0 < ... < b_L = 1``
    together with a ``K x L`` value matrix; the function equals
    ``values[k, l]`` on the half-open cell ``[a_k, a_{k+1}) x [b_l, b_{l+1})``
    (the last cell on each axis is closed).  An analytic graphon has factors
    ``W(u, v) = A(u) S B(v)^T`` (``row_factor`` and ``col_factor`` map an
    array ``x`` to ``len(x) x r`` and ``len(x) x s`` matrices, ``core`` is the
    ``r x s`` matrix ``S``) and Hoelder metadata ``(hoelder_alpha, hoelder_L)``.

    ``rho`` is the sup-norm bound, in ``(0, MAX_ABS]`` (:func:`check_rho`); values are
    validated against ``[0, rho]`` on construction, NaN failing (analytic
    graphons on a 512 x 512 grid, since the exact supremum is unavailable).
    Pass ``validate=False`` for derived graphons that may step outside the
    band, e.g. lifts of estimated matrices.
    """

    rho: float
    family: str  # "piecewise_constant" or "analytic"
    breaks_u: Optional[np.ndarray] = None
    breaks_v: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None
    row_factor: Optional[Callable[[np.ndarray], np.ndarray]] = None
    core: Optional[np.ndarray] = None
    col_factor: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hoelder_alpha: Optional[float] = None
    hoelder_L: Optional[float] = None
    validate: bool = field(default=True, repr=False)

    @staticmethod
    def piecewise_constant(
        breaks_u, breaks_v, values, rho: float, validate: bool = True
    ) -> "Graphon":
        return Graphon(rho, "piecewise_constant", breaks_u, breaks_v, values, validate=validate)

    @staticmethod
    def analytic(
        row_factor, core, col_factor, rho: float, hoelder_alpha: float, hoelder_L: float
    ) -> "Graphon":
        return Graphon(rho, "analytic", row_factor=row_factor, core=core, col_factor=col_factor,
                       hoelder_alpha=hoelder_alpha, hoelder_L=hoelder_L)

    def __post_init__(self):
        check_rho(self.rho)
        for name in ("breaks_u", "breaks_v", "values", "core"):
            if getattr(self, name) is not None:
                array = np.array(getattr(self, name), dtype=np.float64)  # a private copy
                array.setflags(write=False)
                object.__setattr__(self, name, array)
        if self.family == "piecewise_constant":
            self._check_piecewise()
        elif self.family == "analytic":
            self._check_analytic()
        else:
            raise ValueError(f"unknown graphon family {self.family!r}")

    def _check_piecewise(self):
        if self.breaks_u is None or self.breaks_v is None or self.values is None:
            raise ValueError("piecewise-constant graphon needs breaks and values")
        a, b, V = self.breaks_u, self.breaks_v, self.values
        for name, br in (("breaks_u", a), ("breaks_v", b)):
            if br[0] != 0.0 or br[-1] != 1.0 or np.any(np.diff(br) <= 0):
                raise ValueError(f"{name} must increase strictly from 0 to 1")
        if V.shape != (len(a) - 1, len(b) - 1):
            raise DimensionMismatch(
                f"values has shape {V.shape}, expected "
                f"({len(a) - 1}, {len(b) - 1})"
            )
        if self.validate and not self.in_band(V):
            raise ValueError("graphon values fall outside [0, rho]")

    def _check_analytic(self):
        if self.row_factor is None or self.core is None or self.col_factor is None:
            raise ValueError("analytic graphon needs a row factor, a core and a column factor")
        if not (is_number(self.hoelder_alpha) and 0 < self.hoelder_alpha <= 1):
            raise ValueError("hoelder_alpha must lie in (0, 1]")
        if not finite_positive(self.hoelder_L):
            raise ValueError(f"hoelder_L must be finite and positive, got {self.hoelder_L!r}")
        if self.validate:
            g = (np.arange(_VALIDATION_GRID) + 0.5) / _VALIDATION_GRID
            # 64 rows at a time: a whole 2 MiB grid stays in the heap that pool workers fork
            rows = range(0, _VALIDATION_GRID, 64)
            if not all(self.in_band(self.evaluate_grid(g[i:i + 64], g)) for i in rows):
                raise ValueError("graphon values fall outside [0, rho] on the validation grid")

    @property
    def K(self) -> Optional[int]:
        return None if self.breaks_u is None else len(self.breaks_u) - 1

    @property
    def L(self) -> Optional[int]:
        return None if self.breaks_v is None else len(self.breaks_v) - 1

    def in_band(self, values: np.ndarray) -> bool:
        """Whether every value lies in ``[0, rho]`` up to the band tolerance; NaN does not."""
        return bool(values.min() >= -_BAND_TOL and values.max() <= self.rho + _BAND_TOL)

    def cell_indices(self, u: np.ndarray, axis: int) -> np.ndarray:
        """Cell index of each coordinate along one axis (0 = rows, 1 = cols)."""
        breaks = self.breaks_u if axis == 0 else self.breaks_v
        if breaks is None:
            raise ValueError("only defined for piecewise-constant graphons")
        u = np.asarray(u, dtype=np.float64)
        idx = np.searchsorted(breaks, u, side="right") - 1
        return np.clip(idx, 0, len(breaks) - 2)

    def evaluate_grid(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Evaluate on the product grid: returns the matrix ``W(u_i, v_j)``."""
        u = np.atleast_1d(np.asarray(u, dtype=np.float64))
        v = np.atleast_1d(np.asarray(v, dtype=np.float64))
        if self.family == "piecewise_constant":
            iu = self.cell_indices(u, axis=0)
            iv = self.cell_indices(v, axis=1)
            return self.values[np.ix_(iu, iv)]
        return self.row_factor(u) @ self.core @ self.col_factor(v).T

    def __call__(self, u: float, v: float) -> float:
        return float(self.evaluate_grid([u], [v])[0, 0])


# --------------------------------------------------------------------------
# Noise models
# --------------------------------------------------------------------------

# each noise kind and the one parameter it takes
NOISE_PARAMS = {
    "bernoulli": (), "binomial": ("N",), "scaled_poisson": ("T",), "gaussian": ("sigma2",)
}


@dataclass(frozen=True)
class NoiseModel:
    """Conditional distribution of the observed entries given their mean.

    ``bernoulli``       - H_ij in {0, 1} with mean Theta_ij.
    ``binomial(N)``     - N*H_ij ~ Binomial(N, Theta_ij); H_ij is a frequency.
    ``scaled_poisson(T)`` - T*H_ij ~ Poisson(T*Theta_ij); H_ij is a rate.
    ``gaussian(sigma2)``  - H_ij ~ N(Theta_ij, sigma2).

    :meth:`bernstein_params` returns the moment-condition pair
    ``(sigma2, b)`` that drives all risk-bound constants:
    bernoulli -> (rho, 1/3), binomial -> (rho/N, 1/(3N)),
    scaled_poisson -> (rho/T, 1/(3T)), gaussian -> (sigma2, 0).
    """

    kind: str
    N: Optional[int] = None
    T: Optional[float] = None
    sigma2: Optional[float] = None

    def __post_init__(self):
        if self.kind not in NOISE_PARAMS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        for name in ("N", "T", "sigma2"):
            if getattr(self, name) is not None and name not in NOISE_PARAMS[self.kind]:
                raise ValueError(f"{self.kind} noise takes no {name}")
        # the type first: a JSON noise object may carry any value here
        if self.kind == "binomial" and not (is_integer(self.N) and 1 <= self.N < 2**63):
            raise ValueError(f"binomial noise needs a positive integer N, got {self.N!r} "
                             "(numpy's sampler takes N < 2**63)")
        if self.kind == "scaled_poisson" and not finite_positive(self.T):
            raise ValueError("scaled_poisson noise needs a finite positive T")
        if self.kind == "gaussian" and not finite_positive(self.sigma2):
            raise ValueError("gaussian noise needs a finite positive sigma2")

    @staticmethod
    def bernoulli() -> "NoiseModel":
        return NoiseModel("bernoulli")

    @staticmethod
    def binomial(N: int) -> "NoiseModel":
        # an integral float (a CLI value) is N; 2.5 must not truncate to 2, nor True to 1
        if is_number(N) and float(N).is_integer():
            N = int(N)
        return NoiseModel("binomial", N=N)

    @staticmethod
    def scaled_poisson(T: float) -> "NoiseModel":
        return NoiseModel("scaled_poisson", T=float(T))

    @staticmethod
    def gaussian(sigma2: float) -> "NoiseModel":
        return NoiseModel("gaussian", sigma2=float(sigma2))

    def bernstein_params(self, rho: float) -> Tuple[float, float]:
        """The ``(sigma2, b)`` pair for mean matrices bounded by ``rho``."""
        if self.kind == "bernoulli":
            return rho, 1.0 / 3.0
        if self.kind == "binomial":
            return rho / self.N, 1.0 / (3.0 * self.N)
        if self.kind == "scaled_poisson":
            return rho / self.T, 1.0 / (3.0 * self.T)
        return self.sigma2, 0.0

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


# --------------------------------------------------------------------------
# Observations
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ObservationSet:
    """One synthetic draw: data matrix plus optional companions.

    ``H`` holds the raw observations.  When a missingness mask is present,
    entries with ``mask == 0`` are unobserved and downstream code should
    work with :meth:`adjusted`, the inverse-probability-weighted matrix
    ``H * mask / p`` whose conditional mean is still the truth.
    """

    H: np.ndarray
    noise: NoiseModel
    H_prime: Optional[np.ndarray] = None
    mask: Optional[np.ndarray] = None
    p: Optional[float] = None
    latents: Optional[Tuple[np.ndarray, np.ndarray]] = None
    theta_star: Optional[np.ndarray] = None

    def __post_init__(self):
        H = np.asarray(self.H, dtype=np.float64)
        object.__setattr__(self, "H", H)
        for name in ("H_prime", "mask", "theta_star"):
            M = getattr(self, name)
            if M is not None:
                M = np.asarray(M, dtype=np.float64)
                if M.shape != H.shape:
                    raise DimensionMismatch(f"{name} must match H's shape")
                object.__setattr__(self, name, M)
        if (self.mask is None) != (self.p is None):
            raise ValueError("mask and p must be given together")
        if self.p is not None and not (is_number(self.p) and 0 < self.p <= 1):
            raise ValueError("observation probability p must lie in (0, 1]")
        if self.latents is not None:
            U, V = (check_latents(x, name) for x, name in zip(self.latents, "UV"))
            if U.shape != (H.shape[0],) or V.shape != (H.shape[1],):
                raise DimensionMismatch("latent vectors must match H's shape")
            object.__setattr__(self, "latents", (U, V))

    def adjusted(self) -> np.ndarray:
        """``H * mask / p`` when a mask is present, otherwise ``H``."""
        if self.mask is None:
            return self.H
        return self.H * self.mask / self.p
