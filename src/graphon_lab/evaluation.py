"""Error metrics and theoretical reference quantities.

Provides the mean-squared error on the mean matrix, the lift of a matrix
to a piecewise-constant graphon, a computable sort-aligned proxy for the
graphon distance (an upper bound for the true infimum over
measure-preserving bijections), the known-clusters oracle estimator with
its Bernoulli closed-form risk, and the theoretical rate curve used as a
reference in the experiments.
"""

from __future__ import annotations

import warnings
from typing import Tuple

import numpy as np

from .core import (
    AssignmentMatrix,
    BlockModel,
    DimensionMismatch,
    Graphon,
    NoiseModel,
    bin_sums,
    block_means,
    block_sums,
    check_counts,
    check_latents,
    check_rho,
    finite_positive,
)

__all__ = [
    "mse_theta",
    "lift_to_graphon",
    "pc_l2_sq_distance",
    "delta_tilde",
    "oracle_fit",
    "oracle_risk_bernoulli",
    "rate_bound",
    "psi_condition",
]

DEFAULT_DELTA_GRID = 1000


def mse_theta(theta_hat: np.ndarray, theta_star: np.ndarray) -> float:
    """Normalized squared error ``||Theta_hat - Theta*||_F^2 / (n m)``.

    Raises :class:`DimensionMismatch` when the two shapes differ.
    """
    theta_hat = np.asarray(theta_hat, dtype=np.float64)
    theta_star = np.asarray(theta_star, dtype=np.float64)
    if theta_hat.shape != theta_star.shape:
        raise DimensionMismatch(
            f"estimate has shape {theta_hat.shape}, truth {theta_star.shape}"
        )
    diff = theta_hat - theta_star
    return float(np.einsum("ij,ij->", diff, diff) / diff.size)


def lift_to_graphon(theta: np.ndarray) -> Graphon:
    """The piecewise-constant graphon of a matrix on the regular n x m grid.

    ``W(u, v) = theta[i, j]`` on ``[(i-1)/n, i/n) x [(j-1)/m, j/m)``.  The
    lift is an isometry up to scale:
    ``||W_A - W_B||_{L2} = ||A - B||_F / sqrt(n m)`` for same-shape
    matrices.  Lifted estimates may leave ``[0, rho]``, so bound checking
    is disabled.
    """
    theta = np.asarray(theta, dtype=np.float64)
    n, m = theta.shape
    rho = max(float(np.abs(theta).max()), np.finfo(float).tiny)
    return Graphon.piecewise_constant(
        np.linspace(0.0, 1.0, n + 1),
        np.linspace(0.0, 1.0, m + 1),
        theta,
        rho=rho,
        validate=False,
    )


def pc_l2_sq_distance(g1: Graphon, g2: Graphon) -> float:
    """Exact squared L2 distance between two piecewise-constant graphons.

    Integrates cell by cell on the common refinement of the two grids, so
    the result carries no quadrature error.
    """
    if g1.family != "piecewise_constant" or g2.family != "piecewise_constant":
        raise ValueError("both graphons must be piecewise constant")
    au = np.union1d(g1.breaks_u, g2.breaks_u)
    av = np.union1d(g1.breaks_v, g2.breaks_v)
    mid_u = (au[:-1] + au[1:]) / 2
    mid_v = (av[:-1] + av[1:]) / 2
    diff = g1.evaluate_grid(mid_u, mid_v) - g2.evaluate_grid(mid_u, mid_v)
    areas = np.outer(np.diff(au), np.diff(av))
    return float((diff * diff * areas).sum())


def _overlaps(bins: np.ndarray, cells: np.ndarray, K: int):
    """Rectangle, graphon cell and grid-point count of each distinct overlap."""
    keys, counts = np.unique(bins * K + cells, return_counts=True)
    return keys // K, keys % K, counts


def _cell_integrals(
    graphon: Graphon, row_order: np.ndarray, col_order: np.ndarray, grid_res: int
) -> Tuple[np.ndarray, float]:
    """Midpoint-rule integrals of W over the regular n x m rectangles.

    Returns the n x m matrix of rectangle integrals, with the integral over
    rectangle ``(a, b)`` at ``(row_order[a], col_order[b])``, together with
    the squared L2 norm of W on the same global grid.  For ``W = A S B^T``
    (analytic factors, or cell indicators and values) the sums are
    ``R_r S R_c^T``, row ``a`` of ``R_r`` summing A over the grid points of
    row rectangle ``a``, and the norm is ``tr(S G_c S^T G_r)`` with
    ``G = F^T F`` for each factor's grid values F.  Indicators are never
    built: both indices being nondecreasing on the grid, an axis has at
    most ``n + K - 1`` (rectangle, cell) overlaps.
    """
    n, m = len(row_order), len(col_order)
    g = (np.arange(grid_res) + 0.5) / grid_res
    row_bins = np.minimum((g * n).astype(np.int64), n - 1)
    col_bins = np.minimum((g * m).astype(np.int64), m - 1)
    if graphon.family == "analytic":
        A, B, S = graphon.row_factor(g), graphon.col_factor(g), graphon.core
        w_sq = float(np.trace(S @ (B.T @ B) @ S.T @ (A.T @ A)))
        left = np.empty((n, S.shape[1]))
        left[row_order] = bin_sums(A, row_bins, n) @ S / grid_res**2
        right = np.empty((m, S.shape[1]))
        right[col_order] = bin_sums(B, col_bins, m)
        return left @ right.T, w_sq / grid_res**2
    V, K, L = graphon.values, graphon.K, graphon.L
    iu, iv = graphon.cell_indices(g, axis=0), graphon.cell_indices(g, axis=1)
    w_sq = float(np.bincount(iu, minlength=K) @ (V * V) @ np.bincount(iv, minlength=L))
    rect_r, cell_r, count_r = _overlaps(row_bins, iu, K)
    rect_c, cell_c, count_c = _overlaps(col_bins, iv, L)
    # column-major, so that both products sum contiguous rows
    left = np.empty((n, L), order="F")
    left[row_order] = bin_sums(V[cell_r] * count_r[:, None], rect_r, n)
    cells = np.empty((n, m), order="F")
    cells.T[col_order] = bin_sums(left.T[cell_c] * (count_c[:, None] / grid_res**2), rect_c, m)
    return cells, w_sq / grid_res**2


def delta_tilde(
    theta_hat: np.ndarray,
    graphon: Graphon,
    U: np.ndarray,
    V: np.ndarray,
    grid_res: int = DEFAULT_DELTA_GRID,
) -> float:
    """Sort-aligned upper proxy of the graphon distance.

    Both axes of the truth are rearranged by the measure-preserving maps
    that sort the latent positions; the estimate's lift is then compared
    cell by cell.  Writing ``s1, s2`` for the rank maps of ``U, V``:

        delta^2 = ||W||_{L2}^2
                  - 2 sum_ij theta_hat[i, j] * Int(W over R[s1(i), s2(j)])
                  + ||theta_hat||_F^2 / (n m),

    with ``R[a, b] = [a/n, (a+1)/n) x [b/m, (b+1)/m)``.  Integrals use a
    midpoint rule on a ``grid_res x grid_res`` global grid; ``grid_res``
    should comfortably exceed ``max(n, m)``, and a grid coarser than
    ``max(n, m)`` raises ``ValueError`` because some rectangles would hold
    no grid point.  W is never evaluated on the grid: its factors are summed
    over each axis's rectangles (see ``Graphon``), so neither time nor
    memory grows with ``grid_res**2``.  The true distance is an infimum
    over all rearrangements, so the returned value bounds it from above.
    Returns ``sqrt(max(value, 0))``.  Raises :class:`DimensionMismatch`
    unless ``len(U) == n`` and ``len(V) == m``, and ``ValueError`` unless the
    positions are numbers in [0, 1].
    """
    if grid_res < 100:
        raise ValueError("grid_res must be at least 100")
    if U is None or V is None:
        raise ValueError("latent positions are required")
    U, V = check_latents(U, "U"), check_latents(V, "V")
    theta_hat = np.asarray(theta_hat, dtype=np.float64)
    n, m = theta_hat.shape
    if (len(U), len(V)) != (n, m):
        raise DimensionMismatch(
            f"{len(U)} x {len(V)} latent positions for an {n} x {m} estimate"
        )
    if grid_res < max(n, m):
        raise ValueError(f"grid_res must be at least max(n, m) = {max(n, m)}")
    cells, w_sq = _cell_integrals(
        graphon, np.argsort(U, kind="stable"), np.argsort(V, kind="stable"), grid_res
    )
    cross = float(np.einsum("ij,ij->", theta_hat, cells))
    theta_sq = float(np.einsum("ij,ij->", theta_hat, theta_hat)) / (n * m)
    return float(np.sqrt(max(w_sq - 2.0 * cross + theta_sq, 0.0)))


def oracle_fit(
    H: np.ndarray,
    true_z_rows: AssignmentMatrix,
    true_z_cols: AssignmentMatrix,
) -> BlockModel:
    """Block averages computed with the true clusters.

    A performance floor for any clustering-based estimator.  If a true
    cluster happens to be empty (possible with random latents), the
    affected block values fall back to the global mean and a warning is
    emitted.
    """
    H = np.asarray(H, dtype=np.float64)
    Q = block_means(block_sums(H, true_z_rows, true_z_cols), true_z_rows, true_z_cols)
    empty = np.outer(true_z_rows.counts(), true_z_cols.counts()) == 0
    if empty.any():
        warnings.warn(
            "empty true cluster; affected oracle blocks use the global mean"
        )
        Q[empty] = H.mean()
    return BlockModel(Q, true_z_rows, true_z_cols)


def oracle_risk_bernoulli(Q_star: np.ndarray, n: int, m: int) -> float:
    """Closed-form oracle risk under Bernoulli noise with exact clusters.

    ``sum_kl Q*[k, l] (1 - Q*[k, l]) / (n m)``; equivalently
    ``rho (||Q~||_{1,1} - rho ||Q~||_F^2) / (n m)`` for ``Q~ = Q*/rho``.
    """
    Q = np.asarray(Q_star, dtype=np.float64)
    if Q.min() < 0 or Q.max() > 1:
        raise ValueError("Bernoulli block values must lie in [0, 1]")
    return float((Q * (1.0 - Q)).sum() / (n * m))


def rate_bound(
    noise: NoiseModel, rho: float, n: int, m: int, K: int, L: int
) -> float:
    """Squared theoretical remainder ``(25 s^2 + 4 b rho) * r_{n,m}(K, L)^2``.

    ``r_{n,m}(K, L)^2 = 3KL/(nm) + log(K)/m + log(L)/n`` and ``(s^2, b)``
    are the noise model's moment parameters.  This is an MSE-scale
    quantity, matching how the experiment plots report errors.  ``ValueError``
    names rho unless it keeps :func:`check_rho`, and rho and the noise model
    unless the bound is finite and positive.
    """
    check_counts(K, L)  # the fitted counts' rule: integers K, L >= 2
    sigma2, b = noise.bernstein_params(check_rho(rho))
    r_sq = float(3.0 * K * L / (n * m) + np.log(K) / m + np.log(L) / n)
    bound = (25.0 * sigma2 + 4.0 * b * rho) * r_sq  # Python floats: an overflow gives inf
    if not finite_positive(bound):
        raise ValueError(f"rate bound at rho {rho!r} with noise model {noise.to_dict()} is "
                         f"{bound!r}; the bound must be finite and positive")
    return bound


def psi_condition(n: int, m: int, n0: int, m0: int) -> float:
    """The size-regime statistic ``3/m0 log(en/n0) + 3/n0 log(em/m0)``.

    The risk bound for the size-constrained estimator applies when this
    value is at most ``(sigma/b)^2``; callers record whether that regime
    holds for a given run.
    """
    if n0 < 3 or m0 < 3:
        raise ValueError("n0 and m0 must be at least 3")
    if n0 > n or m0 > m:
        raise ValueError("n0 <= n and m0 <= m are required")
    return float(
        3.0 / m0 * np.log(np.e * n / n0) + 3.0 / n0 * np.log(np.e * m / m0)
    )
