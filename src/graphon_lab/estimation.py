"""Alternating-minimization fit of bipartite block models.

The least-squares problem over block-constant matrices is combinatorial,
so the fit alternates exact coordinate minimizations: block averaging for
the value matrix, nearest-block-row reassignment for the unconstrained
cluster updates, and an exact network-flow assignment when minimum
cluster sizes are enforced.  Every step can only decrease the cost, so
the recorded cost trajectory is non-increasing.  :func:`fit_grid` fits a
whole aggregation grid, sharing the prepared data, the initialization and
whole runs across entries.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import (
    AssignmentMatrix, BlockModel, check_counts, check_positive_integers, check_seed, group_sums,
    is_integer, is_number,
)
from .flow import min_cost_assignment
from .synthesis import seed_sequence, substream

__all__ = [
    "FitConfig",
    "FitReport",
    "HyperGrid",
    "default_grid",
    "kmeans",
    "spectral_embedding",
    "spectral_init",
    "lloyd_fit",
    "fit_grid",
    "check_grid",
]

_KMEANS_RESTARTS = 5
_KMEANS_MAX_ITERS = 50

# subspace iteration in spectral_embedding: oversampling, power iterations,
# and the ratio min(n, m) / (rank + oversampling) from which it replaces the
# Gram eigendecomposition, whose cost does not fall with the rank
_RSVD_OVERSAMPLE = 10
_RSVD_POWER_ITERS = 2
_RSVD_MIN_RATIO = 10
# the sketch is kept only if each returned singular value is at most
# _RSVD_NOISE or at least _RSVD_RESOLVED times the sketch's smallest one
_RSVD_NOISE = 1.5
_RSVD_RESOLVED = 5.0
_F32_EXACT = 2.0 ** 24  # integers below this magnitude are exact in float32
# an exact float32 H product is updated from the moved rows or columns when H has at least
# this many entries and at most this share of an axis moved, else recomputed (see CHANGES.md)
_UPDATE_MIN_ENTRIES = 2 ** 17
_UPDATE_MAX_MOVED = 0.25


# --------------------------------------------------------------------------
# Coordinate steps
# --------------------------------------------------------------------------


def _linear_costs(col_sums: np.ndarray, Q: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Per-row assignment costs from the group sums ``H Z_c`` and sizes ``D``.

    Entry ``(i, k)`` is ``-2 (H Z_c Q^T)_{ik} + (Q D Q^T)_{kk}`` with
    ``D = diag(column cluster sizes)``.  Adding the row-wise constant
    ``sum_j H_ij^2`` turns the row minimum into the least-squares cost of
    assigning row i to cluster k, so argmin rows of this matrix are the
    exact coordinate update.
    """
    quad = (Q * Q) @ D.astype(np.float64)  # length K
    return col_sums @ (-2.0 * Q).T + quad  # -2 scales exactly: as (-2 H Z_c) Q^T bitwise


# --------------------------------------------------------------------------
# k-means (used by the spectral initializer)
# --------------------------------------------------------------------------


def _sq_dists(neg2: np.ndarray, sq_norms: np.ndarray, centers: np.ndarray,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """Squared distances, clamped at 0 and in ``out`` if given, from the points
    (``neg2 = -2 P``; squared norms ``n x 1`` or ``n x k``) to each center:
    per entry ``-2 P C^T``, plus the point's norm, plus the center's."""
    out = np.matmul(neg2, centers.T, out=out)
    out += sq_norms
    out += (centers * centers).sum(axis=1)
    return np.maximum(out, 0.0, out=out)


def _draw(weights: np.ndarray, total: float, rng: np.random.Generator) -> int:
    """``rng.choice(len(weights), p=weights / total)``: the same draw from the
    same stream, without the checks of ``p`` that precede it there."""
    cdf = np.cumsum(weights / total)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _kmeans_pp(points: np.ndarray, neg2: np.ndarray, sq_norms: np.ndarray, k: int,
               rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = _sq_dists(neg2, sq_norms, centers[:1]).ravel()
    for j in range(1, k):
        total = d2.sum()
        idx = int(rng.integers(n)) if total <= 0 else _draw(d2, total, rng)
        centers[j] = points[idx]
        d2 = np.minimum(d2, _sq_dists(neg2, sq_norms, centers[j : j + 1]).ravel())
    return centers


def _update_centers(
    Pt: np.ndarray, labels: np.ndarray, counts: np.ndarray, centers: np.ndarray
) -> None:
    """Move each non-empty cluster's center to its members' mean, in place.

    ``Pt`` holds the points as columns, in C order.  One ``bincount`` over
    (coordinate, cluster) bins adds each cluster's members in point order,
    as a per-cluster ``mean(axis=0)`` does for two or more coordinates, so
    the centers match that loop bitwise.
    """
    w, k = Pt.shape[0], len(centers)
    bins = (np.arange(w)[:, None] * k + labels).ravel()
    sums = np.bincount(bins, weights=Pt.ravel(), minlength=w * k).reshape(w, k).T
    present = counts > 0
    centers[present] = sums[present] / counts[present][:, None]


def kmeans(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Lloyd k-means with k-means++ seeding, best of 5 restarts by WCSS.

    Each empty cluster is re-seeded with the point farthest from its
    assigned center among those whose cluster keeps another member.  The
    points are first scaled by the power of two that puts their largest
    magnitude in [1, 2), which is exact, so the labels do not depend on the
    data's scale and squared distances neither overflow nor underflow.
    Returns the labels of the best restart.  Raises ``ValueError`` for
    non-finite points.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k > n:
        raise ValueError("cannot form more clusters than points")
    if not np.isfinite(points).all():
        raise ValueError("k-means points must be finite")
    points = np.ldexp(points, 1 - np.frexp(np.abs(points).max(initial=0.0))[1])
    neg2, Pt = -2.0 * points, np.ascontiguousarray(points.T)
    # -2 P C^T has the bits of (2 P) C^T negated; one buffer serves every iteration
    sq_rep = np.repeat((points * points).sum(axis=1), k).reshape(n, k)
    d2 = np.empty((n, k))
    rows = np.arange(n)
    best_labels, best_wcss = None, np.inf
    for r in range(_KMEANS_RESTARTS):
        rng = substream(seed, 50 + r)
        centers = _kmeans_pp(points, neg2, sq_rep[:, :1], k, rng)
        labels = np.zeros(n, dtype=np.int64)
        for _ in range(_KMEANS_MAX_ITERS):
            _sq_dists(neg2, sq_rep, centers, d2)
            new_labels = np.argmin(d2, axis=1)
            counts = np.bincount(new_labels, minlength=k)
            if counts.min() == 0:
                assigned = d2[rows, new_labels]
                for empty in np.flatnonzero(counts == 0):
                    # a moved point is alone in its new cluster, so the
                    # rule below also keeps it from moving twice
                    far = int(np.argmax(np.where(counts[new_labels] > 1, assigned, -1.0)))
                    counts[new_labels[far]] -= 1
                    counts[empty] = 1
                    new_labels[far] = empty
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
            _update_centers(Pt, labels, counts, centers)
        else:
            # unconverged: the centers moved after the last distance matrix
            _sq_dists(neg2, sq_rep, centers, d2)
        wcss = float(d2[rows, labels].sum())
        if wcss < best_wcss - 1e-12:
            best_labels, best_wcss = labels, wcss
    return best_labels


# --------------------------------------------------------------------------
# Initialization
# --------------------------------------------------------------------------


def _degree_trim(H: np.ndarray) -> np.ndarray:
    """Rescale rows/columns with more than twice the average absolute mass.
    Without a negative entry, the masses are sums of the matrix itself; H is
    copied only to rescale, so with no heavy row or column it is returned."""
    out = np.asarray(H, dtype=np.float64)
    signed = out.min(initial=0.0) < 0
    for axis in (0, 1):
        mass = (np.abs(out) if signed else out).sum(axis=1 - axis)
        avg = mass.mean()
        if avg <= 0:
            continue
        heavy = mass > 2 * avg
        if heavy.any():
            scale = np.ones_like(mass)
            scale[heavy] = avg / mass[heavy]
            out = out * (scale[:, None] if axis == 0 else scale[None, :])
    return out


def _random_labels(
    n: int, K: int, rng: np.random.Generator, nonempty: bool
) -> np.ndarray:
    """Uniform labels; with ``nonempty``, redrawn until every cluster has an
    item.  If 1,000 draws all leave a cluster empty, the first ``K`` items
    of a random permutation of the last draw go to distinct clusters."""
    for _ in range(1000):
        labels = rng.integers(0, K, size=n)
        if not nonempty or np.bincount(labels, minlength=K).min() > 0:
            return labels
    labels[rng.permutation(n)[:K]] = np.arange(K)
    return labels


def _spawned_seeds(seed: int, key: int, count: int) -> list:
    return [int(s) for s in seed_sequence(seed, key).generate_state(count, dtype=np.uint64)]


def spectral_embedding(
    H: np.ndarray, rank: Optional[int] = None, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Singular-value-scaled singular vectors of the degree-trimmed ``H``.

    Returns ``(U S, V S)`` of the trimmed ``A``, singular values descending,
    with ``min(rank, n, m)`` columns (all for ``rank=None``); the first
    ``k`` columns of either factor are its rank-``k`` embedding.  ``A`` is
    first scaled by a power of two (1 on 0/1 data) to keep the products
    finite and normal, and for ``n < m`` everything below runs on ``A^T``.

    Exact path: the eigenpairs ``(S^2, V)`` of ``A^T A`` give ``U S = A V``,
    so nothing is divided by a singular value.  It serves ``rank=None``,
    every rank with ``min(n, m) < 10 (rank + 10)`` and every sketch that the
    randomized path rejects, and returns the first ``rank`` columns of the
    full embedding bitwise.

    Randomized path, for smaller ranks: subspace iteration (Halko,
    Martinsson and Tropp 2011, alg. 4.4) from a Gaussian test matrix with
    ``rank + 10`` columns drawn from ``substream(seed, 98)``, two power
    iterations re-orthonormalized by QR, then the SVD of the small
    projected matrix gives ``V`` and ``S``, and the output is ``(A V, V S)``
    as above.  The same seed gives the same output bitwise.  The sketch is
    kept only when every returned singular value is at most 1.5 times its
    smallest one (the noise floor) or at least 5 times it (resolved: two
    power iterations shrink such a direction's error by about ``5^-5``).  A
    value in between marks a weak direction that the sketch has not
    resolved, and fits on such data followed the exact embedding's poorly,
    so the exact path runs instead.

    Raises ``ValueError`` for non-finite ``H``.
    """
    H = np.asarray(H, dtype=np.float64)
    if not np.isfinite(H).all():
        raise ValueError("H must be finite")
    A = _degree_trim(H)
    B = A if A.shape[0] >= A.shape[1] else A.T
    exp = 1 - np.frexp(max(B.max(), -B.min()))[1]
    C = B if exp == 0 else np.ldexp(B, exp)
    V = None
    if rank is not None and B.shape[1] >= _RSVD_MIN_RATIO * (rank + _RSVD_OVERSAMPLE):
        omega = substream(seed, 98).standard_normal((B.shape[1], rank + _RSVD_OVERSAMPLE))
        Q = np.linalg.qr(C @ omega)[0]
        for _ in range(_RSVD_POWER_ITERS):
            Q = np.linalg.qr(C @ np.linalg.qr(C.T @ Q)[0])[0]
        _, s, Vt = np.linalg.svd(Q.T @ C, full_matrices=False)
        top = s[:rank]
        if not ((top > _RSVD_NOISE * s[-1]) & (top < _RSVD_RESOLVED * s[-1])).any():
            V = Vt[:rank].T
            s = np.ldexp(top, -exp)
    if V is None:
        lam, V = np.linalg.eigh(C.T @ C)
        V = V[:, ::-1]
        s = np.ldexp(np.sqrt(np.maximum(lam[::-1], 0.0)), -exp)
    row, col = (B @ V, V * s) if B is A else (V * s, B @ V)
    return row[:, :rank], col[:, :rank]


def _spectral_labels(H: np.ndarray, Ks: Sequence[int], Ls: Sequence[int],
                     seed: int) -> Tuple[Dict[int, np.ndarray], Dict[int, np.ndarray]]:
    """Start labels ``({K: rows}, {L: columns})``: k-means per distinct count on that many
    leading columns (or all) of one :func:`spectral_embedding` at the largest count, seeded
    by spawn keys 7, then 8, of ``seed``; random labels with a warning if that fails."""
    n, m = np.shape(H)
    Ks, Ls = sorted(set(Ks)), sorted(set(Ls))
    (init_seed,) = _spawned_seeds(seed, 7, 1)
    try:
        row_emb, col_emb = spectral_embedding(H, max(Ks[-1], Ls[-1]), init_seed)
    except np.linalg.LinAlgError:
        warnings.warn("spectral embedding failed; falling back to random initialization")
        rng = substream(init_seed, 97)
        return ({K: _random_labels(n, K, rng, True) for K in Ks},
                {L: _random_labels(m, L, rng, True) for L in Ls})
    kseed_r, kseed_c = _spawned_seeds(init_seed, 8, 2)
    return ({K: kmeans(row_emb[:, :K], K, seed=kseed_r) for K in Ks},
            {L: kmeans(col_emb[:, :L], L, seed=kseed_c) for L in Ls})


def spectral_init(
    H: np.ndarray, K: int, L: int, seed: int = 0
) -> Tuple[AssignmentMatrix, AssignmentMatrix]:
    """The start of ``lloyd_fit(H, FitConfig(K, L, seed=seed))``: k-means on
    the ``K`` (``L``) leading columns of the row (column) factor of the
    :func:`spectral_embedding`, by the rule :func:`fit_grid` shares.  Needs
    ``K <= n`` and ``L <= m``; random labels with a warning if it fails."""
    n, m = np.shape(H)
    rows, cols = _spectral_labels(H, [K], [L], seed)
    return AssignmentMatrix(n, K, rows[K]), AssignmentMatrix(m, L, cols[L])


# --------------------------------------------------------------------------
# The alternating-minimization loop
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters of one alternating-minimization fit.

    ``init`` is one of ``"spectral"``, ``"random"`` (multi-restart with
    ``restarts`` independent seeds) or ``"given"`` (explicit initial
    labels in ``init_labels``).  Iteration stops when the cost decreases
    by at most ``tol_gamma``, when the labels reach a fixed point, or
    after ``max_iters`` rounds.  The counts must be Python or numpy
    integers (booleans are refused); :func:`check_counts` holds their rules,
    and :func:`check_positive_integers` those of ``restarts`` and ``max_iters``.
    """

    K: int
    L: int
    n0: int = 0
    m0: int = 0
    init: str = "spectral"
    restarts: int = 10
    max_iters: int = 40
    tol_gamma: float = 1e-3
    seed: int = 0
    init_labels: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __post_init__(self):
        check_counts(self.K, self.L, self.n0, self.m0)
        check_positive_integers(restarts=self.restarts, max_iters=self.max_iters)
        if self.init not in ("spectral", "random", "given"):
            raise ValueError(f"unknown init {self.init!r}")
        if self.init == "given" and self.init_labels is None:
            raise ValueError("init='given' needs init_labels")
        if not (is_number(self.tol_gamma) and 0 <= self.tol_gamma < np.inf):
            raise ValueError(f"tol_gamma must be finite and nonnegative, got {self.tol_gamma!r}")
        check_seed(self.seed)


@dataclass(frozen=True)
class FitReport:
    """Outcome of a fit: the model plus the run's bookkeeping.

    ``cost_trajectory[t]`` is the squared error after iteration ``t`` with
    that iteration's value matrix; the returned model re-averages blocks
    for the final labels, so its cost is at most ``cost_trajectory[-1]``
    (equal whenever the run stopped at a label fixed point).
    """

    model: BlockModel
    cost_trajectory: Sequence[float]
    iterations: int
    init_used: str
    restart_index: int
    seed: int
    # tightest (row, col) size floors every step of this run was an exact
    # constrained minimizer for (0 on iterations that needed a repair)
    traj_min_sizes: Tuple[int, int] = field(default=(0, 0))

    @property
    def final_cost(self) -> float:
        return self.cost_trajectory[-1]


def _repair_empty_rows(sums: np.ndarray, sq_norms: np.ndarray, labels: np.ndarray,
                       counts: np.ndarray, fixed: _Axis) -> Tuple[np.ndarray, np.ndarray]:
    """Move the largest-residual row into each empty row cluster of the
    ``labels``, whose cluster sizes are ``counts``; returns both, repaired.

    With ``sums = H Z`` for the one-hot ``Z`` of the ``fixed`` axis's labels
    and ``sq_norms`` the squared row norms of H, a row's squared residual is
    its norm plus its :func:`_linear_costs` entry, so H is not read.  Only
    occupied blocks are read, so an empty block's value is never used.
    """
    labels = np.array(labels, dtype=np.int64)
    rows = np.arange(len(labels))
    while counts.min() == 0:
        sizes = np.maximum(np.outer(counts, fixed.counts), 1)
        Q = group_sums(sums, labels, len(counts), axis=0) / sizes
        residuals = sq_norms + _linear_costs(sums, Q, fixed.counts)[rows, labels]
        movable = counts[labels] >= 2
        residuals = np.where(movable, residuals, -np.inf)
        labels[int(np.argmax(residuals))] = np.flatnonzero(counts == 0)[0]
        counts = np.bincount(labels, minlength=len(counts))
    return labels, counts


class _Prepared(NamedTuple):
    """What every run on one H reads: the operands of ``H Z`` and ``H^T Z``
    (H and ``H.T`` in C order, in float32 when that is exact), ``||H||_F^2``
    and the squared row and column norms of H."""

    H: np.ndarray
    Ht: np.ndarray
    H_sq: float
    row_sq: np.ndarray
    col_sq: np.ndarray


def _transpose(M: np.ndarray) -> np.ndarray:
    """``M.T`` in C order, copied 64 rows of ``M`` at a time: a block stays in
    cache while its columns are written, 3x faster than one strided copy."""
    out = np.empty(M.shape[::-1], dtype=M.dtype)
    for i in range(0, M.shape[0], 64):
        out[:, i:i + 64] = M[i:i + 64].T
    return out


def _sq_norm(H: np.ndarray) -> float:
    """``||H||_F^2`` of a float64 ``H``, or ``ValueError`` naming H unless it is
    finite: one pass over H refuses NaN, +-inf and squares whose sum overflows."""
    H_sq = float(np.einsum("ij,ij->", H, H))
    if not np.isfinite(H_sq):
        raise ValueError(f"H must be finite, and so must ||H||_F^2, got {H_sq}")
    return H_sq


def _prepare(H: np.ndarray, H_sq: float) -> _Prepared:
    """The data of a fit, computed once for all its runs, from a float64 ``H``
    and ``H_sq = _sq_norm(H)``.  The product operands are
    float32 for integer H whose squared row and column norms, which bound
    its absolute sums, are below ``2^24``: every partial sum of ``H Z`` is
    then an integer that float32 holds exactly, as float64 does."""
    row_sq = np.einsum("ij,ij->i", H, H)
    if row_sq.max(initial=0.0) < _F32_EXACT:
        # where kept, these are exact integer sums: equal to H^T's below
        col_sq = np.einsum("ij,ij->j", H, H)
        H32 = H.astype(np.float32)
        if col_sq.max(initial=0.0) < _F32_EXACT and np.array_equal(np.rint(H32), H):
            return _Prepared(H32, _transpose(H32), H_sq, row_sq, col_sq)
    Ht = _transpose(H)
    return _Prepared(H, Ht, H_sq, row_sq, np.einsum("ij,ij->i", Ht, Ht))


def _times(A: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """``A Z`` summed in the prepared operand's dtype, as float64.  The one-hot
    ``Z`` stays float64 for the small sums: numpy's mixed-dtype product
    does not sum in the float64 product's order."""
    return (A @ Z.astype(A.dtype, copy=False)).astype(np.float64, copy=False)


def _times_moved(
    A: np.ndarray, At: np.ndarray, Z: np.ndarray, labels: np.ndarray,
    prod: Optional[np.ndarray], prev: Optional[np.ndarray],
) -> np.ndarray:
    """``A Z`` for the one-hot ``Z`` of ``labels``, given ``prod = A Z'`` for
    the one-hot of labels ``prev`` (or ``prod=None``) and ``At = A^T`` in C
    order.  On float32 operands of at least ``_UPDATE_MIN_ENTRIES`` entries
    with at most a ``_UPDATE_MAX_MOVED`` share of labels moved, it adds
    ``At[moved]^T D`` to ``prod``, where ``D`` holds ``+1`` in each moved
    item's new cluster and ``-1`` in its old one, reading only the moved
    rows of ``At``.  Float32 operands hold integers whose absolute row and
    column sums are below ``2^24``, so every partial sum is exact and the
    update equals ``_times(A, Z)`` bitwise; anything else takes that."""
    if prod is not None and A.dtype == np.float32 and A.size >= _UPDATE_MIN_ENTRIES:
        moved = np.flatnonzero(labels != prev)
        if moved.size <= _UPDATE_MAX_MOVED * len(labels):
            D = Z[moved]
            D[np.arange(moved.size), prev[moved]] -= 1.0
            return prod + _times(At[moved].T, D)
    return _times(A, Z)


class _Axis:
    """One axis of a Lloyd run.  Fixed: the operands ``A`` and ``At = A^T``
    of its H product (H for the columns, H^T for the rows), the squared
    norms ``sq`` of its lines of H, its size ``floor`` and whether the
    trajectory ``scores`` its steps (the columns' only).  The ``labels``,
    as the solver returned them, their ``counts``, which the repairs keep
    positive (every block mean divides by a nonzero size), and their one-hot
    ``Z`` are replaced only when a step moves the labels, so identity tells
    whether one did.  ``prod = A Z`` was computed for the labels
    ``prod_for``; ``low`` is the smallest size a step left before a repair."""

    def __init__(self, z: AssignmentMatrix, A, At, sq, floor: int, scores: bool = False):
        self.A, self.At, self.sq, self.floor, self.low = A, At, sq, floor, z.n
        self.scores = scores
        self.labels, self.counts, self.Z = z.labels, z.counts(), np.eye(z.K).take(z.labels, 0)
        self.prod = self.prod_for = None

    def relabel(self, labels: np.ndarray, counts: np.ndarray) -> None:
        """Hold int64 ``labels`` and their ``counts``, unless the held labels have their bytes."""
        if labels.tobytes() != self.labels.tobytes():
            self.labels, self.counts, self.Z = labels, counts, np.eye(len(counts)).take(labels, 0)

    def product(self) -> np.ndarray:
        """``A Z``, which moved labels leave out of date until it is next
        needed: :func:`_times_moved` then reads all of A or the moved lines."""
        if self.prod_for is not self.labels:
            self.prod = _times_moved(self.A, self.At, self.Z, self.labels,
                                     self.prod, self.prod_for)
            self.prod_for = self.labels
        return self.prod


def _half_step(move: _Axis, fix: _Axis, Q: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Exact reassignment of the axis ``move`` under its size floor, with the
    labels of ``fix`` held and block values ``Q`` (clusters of ``move`` by
    those of ``fix``).  An empty cluster left by a floor-0 step is repaired.
    Returns Q and the cost matrix, both for the new labels after a repair;
    a repaired step of an axis the trajectory does not score returns no
    cost matrix, as nothing reads it."""
    sums = fix.product()
    c = _linear_costs(sums, Q, fix.counts)
    labels = min_cost_assignment(c, move.floor)
    counts = np.bincount(labels, minlength=len(Q))
    # a repaired step is only an exact minimizer for floor 0, so the
    # recorded per-step floor is the pre-repair minimum size; a repair
    # (floor 0) re-averages the blocks for the new labels
    move.low = min(move.low, int(counts.min()))
    if counts.min() > 0:
        move.relabel(labels, counts)
        return Q, c
    move.relabel(*_repair_empty_rows(sums, move.sq, labels, counts, fix))
    # in the layout of the Q it replaces: the BLAS products of the costs
    # sum in an order that depends on it
    Q = np.divide(move.Z.T @ sums, move.counts[:, None] * fix.counts, out=np.empty_like(Q))
    return Q, _linear_costs(sums, Q, fix.counts) if move.scores else None


def _lloyd_run(
    prep: _Prepared, row_labels: np.ndarray, col_labels: np.ndarray, cfg: FitConfig
) -> Tuple[BlockModel, list, Tuple[int, int]]:
    """One run from the given labels on the prepared data of H."""
    H, Ht, H_sq, row_sq, col_sq = prep
    n, m = H.shape
    # the start labels are checked here and the returned ones by the model
    rows = _Axis(AssignmentMatrix(n, cfg.K, row_labels), Ht, H, row_sq, cfg.n0)
    cols = _Axis(AssignmentMatrix(m, cfg.L, col_labels), H, Ht, col_sq, cfg.m0, True)
    # H is read at most twice per iteration, plus once for each axis whose
    # start labels leave a cluster empty: H Z_c gives the block means and
    # the row costs, H^T Z_r the column costs and the means after the step,
    # and the repairs work from these sums.  Each one-hot Z serves two sums,
    # and a step that returns an axis's previous labels keeps that axis's
    # one-hot and H product.
    halves = ((rows, cols), (cols, rows))
    for move, fix in halves:
        if move.counts.min() == 0:
            sums = fix.product()
            move.relabel(*_repair_empty_rows(sums, move.sq, move.labels, move.counts, fix))
    traj: list = []
    for _ in range(cfg.max_iters):
        start = (rows.labels, cols.labels)
        Q = (rows.Z.T @ cols.product()) / (rows.counts[:, None] * cols.counts)
        for move, fix in halves:
            Q, c = _half_step(move, fix, Q)
            Q = Q.T  # the next half reads it by its own axis's clusters first
        # the column half's linearized objective differs from the squared error by ||H||_F^2
        phi = float(c[np.arange(m), cols.labels].sum())
        traj.append(max(H_sq + phi, 0.0))
        if start[0] is rows.labels and start[1] is cols.labels:
            break
        if len(traj) >= 2 and abs(traj[-1] - traj[-2]) <= cfg.tol_gamma:
            break
    Q = (cols.Z.T @ rows.product()).T / (rows.counts[:, None] * cols.counts)
    model = BlockModel(Q, AssignmentMatrix(n, cfg.K, rows.labels),
                       AssignmentMatrix(m, cfg.L, cols.labels))
    return model, traj, (rows.low, cols.low)


def lloyd_fit(H: np.ndarray, config: FitConfig) -> FitReport:
    """Alternating minimization with the configured initialization.

    With ``init="random"`` the best of ``config.restarts`` independently
    seeded runs (by final cost) is returned.  Raises ``ValueError``, before
    any work, for counts too large for H or a non-finite ``||H||_F^2``.
    """
    H = np.asarray(H, dtype=np.float64)
    n, m = H.shape
    check_counts(config.K, config.L, config.n0, config.m0, (n, m))
    H_sq = _sq_norm(H)
    # the init runs before H is prepared: with the transpose made first, a
    # spectral fit at 1024 x 512 peaked 4 MB (one copy of H) higher in RSS
    starts = []
    if config.init == "spectral":
        zr, zc = spectral_init(H, config.K, config.L, seed=config.seed)
        starts.append((zr.labels, zc.labels))
    elif config.init == "random":
        for r in range(config.restarts):
            rng = substream(config.seed, 20 + r)
            starts.append((_random_labels(n, config.K, rng, config.n0 > 0),
                           _random_labels(m, config.L, rng, config.m0 > 0)))
    else:
        starts.append(config.init_labels)  # checked, not cast, by _lloyd_run
    return _fit_starts(_prepare(H, H_sq), starts, config)


def _fit_starts(prep: _Prepared, starts: list, config: FitConfig) -> FitReport:
    """One run on prepared data from each ``(row, col)`` labels pair of
    ``starts``; the report of the first run with the lowest final cost."""
    best = None
    for idx, (rl, cl) in enumerate(starts):
        model, traj, min_sizes = _lloyd_run(prep, rl, cl, config)
        if best is None or traj[-1] < best[1][-1] - 1e-12:
            best = (model, traj, min_sizes, idx)
    model, traj, min_sizes, idx = best
    return FitReport(
        model=model,
        cost_trajectory=traj,
        iterations=len(traj),
        init_used=config.init,
        restart_index=idx,
        seed=config.seed,
        traj_min_sizes=min_sizes,
    )


# --------------------------------------------------------------------------
# Grid fitting for aggregation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class HyperGrid:
    """A set of fit hyperparameters ``(K, L, n0, m0)`` to aggregate over.

    Each entry must hold exactly four Python or numpy integers (booleans
    are refused); they are stored as ints.  :func:`check_grid`, which
    :func:`fit_grid` calls, checks each entry by :class:`FitConfig`'s rules
    for the data's shape.
    """

    entries: Tuple[Tuple[int, int, int, int], ...]

    def __post_init__(self):
        if len(self.entries) == 0:
            raise ValueError("a grid needs at least one entry")
        for i, e in enumerate(self.entries):
            if not (isinstance(e, (tuple, list, np.ndarray)) and len(e) == 4
                    and all(is_integer(x) for x in e)):
                raise ValueError(f"grid entry {i} ({e!r}) must be four integers (K, L, n0, m0)")
        object.__setattr__(
            self, "entries", tuple(tuple(int(x) for x in e) for e in self.entries)
        )

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def _geometric_halfsteps(base_exp: float, limit: float) -> List[int]:
    """Deduplicated floors of 2**(base_exp + l/2) while <= limit."""
    out: List[int] = []
    step = 0
    while True:
        val = int(np.floor(2 ** (base_exp + step / 2)))
        if val > limit:
            break
        if not out or val != out[-1]:
            out.append(val)
        step += 1
    return out


def default_grid(n: int, m: int) -> HyperGrid:
    """The geometric hyperparameter grid used for aggregation.

    Cluster counts are ``K_i = floor(2^(1 + i/2))`` for
    ``0 <= i <= 2*log2(n/10)`` (same for ``L_j`` in ``m``); for each pair
    the minimum sizes range over ``floor(2^(2 + l/2))`` subject to
    ``n0 <= n / K`` and ``m0 <= m / L``.  Each list of half-steps is
    deduplicated, so every entry is distinct.
    """
    if n < 10 or m < 10:
        raise ValueError("the default grid needs n, m >= 10")
    # K_i for i <= i_max: the deduplicated half-steps up to 2^(1 + i_max/2)
    Ks, Ls = (
        _geometric_halfsteps(1.0, 2 ** (1 + np.floor(2 * np.log2(size / 10) + 1e-12) / 2))
        for size in (n, m)
    )
    return HyperGrid(tuple((K, L, n0, m0) for K in Ks for L in Ls
                           for n0 in _geometric_halfsteps(2.0, n / K)
                           for m0 in _geometric_halfsteps(2.0, m / L)))


def check_grid(grid: HyperGrid, shape: Tuple[int, int]) -> HyperGrid:
    """``grid``, or ``ValueError`` naming the first entry that breaks
    :class:`FitConfig`'s rules for data of ``shape``."""
    for K, L, n0, m0 in grid:
        try:
            check_counts(K, L, n0, m0, shape)
        except ValueError as exc:
            raise ValueError(f"grid entry (K={K}, L={L}, n0={n0}, m0={m0}): {exc}") from None
    return grid


def fit_grid(
    H: np.ndarray, grid: HyperGrid, seed: int
) -> Dict[Tuple[int, int, int, int], FitReport]:
    """Fit every grid entry, sharing work across entries.

    The starts are :func:`spectral_init`'s rule run once for the grid, so a
    ``(K, L, 0, 0)`` run is ``lloyd_fit(H, FitConfig(K, L, seed=seed))``
    whenever the embeddings at the grid's largest count and at ``max(K, L)``
    agree (exact path, one-pair grids).  H is prepared once for all runs.
    For fixed (K, L), a fit whose whole trajectory already respected a
    tighter pair of size floors is reused for that entry (the two runs
    provably coincide: an optimal step over the looser feasible set that
    lands inside the tighter set is optimal there too).  Entries whose
    floors bind get their own run, warm-started from the performed run with
    the lexicographically largest ``(n0, m0)`` among those whose floors are
    componentwise at most the entry's.  Each run equals :func:`lloyd_fit`
    with ``init="given"`` from the same labels.  Raises ``ValueError``,
    before any work, when an entry breaks :class:`FitConfig`'s rules for
    the shape of ``H`` (the message names the entry), ``seed`` is not a
    non-negative integer, or ``H`` or ``||H||_F^2`` is not finite.
    """
    H = np.asarray(H, dtype=np.float64)
    check_grid(grid, H.shape)
    H_sq = _sq_norm(H)
    by_pair: Dict[Tuple[int, int], List[Tuple[int, int, int, int]]] = {}
    for entry in grid:
        by_pair.setdefault((entry[0], entry[1]), []).append(entry)
    row_labels, col_labels = _spectral_labels(H, *zip(*by_pair), seed)
    prep = _prepare(H, H_sq)

    def run(entry, labels) -> FitReport:
        K, L, n0, m0 = entry
        cfg = FitConfig(K=K, L=L, n0=n0, m0=m0, init="given", init_labels=labels, seed=seed)
        return _fit_starts(prep, [labels], cfg)

    out: Dict[Tuple[int, int, int, int], FitReport] = {}
    for (K, L), entries in by_pair.items():
        entries = sorted(entries, key=lambda e: (e[2], e[3]))
        base = run((K, L, 0, 0), (row_labels[K], col_labels[L]))
        performed: List[Tuple[int, int, FitReport]] = [(0, 0, base)]
        for entry in entries:
            n0, m0 = entry[2], entry[3]
            donors = [t for t in performed if t[0] <= n0 and t[1] <= m0]
            hit = next((rep for _, _, rep in donors if rep.traj_min_sizes[0] >= n0
                        and rep.traj_min_sizes[1] >= m0), None)
            if hit is None:
                donor = max(donors, key=lambda t: (t[0], t[1]))[2].model
                hit = run(entry, (donor.z_rows.labels, donor.z_cols.labels))
                performed.append((n0, m0, hit))
            out[entry] = hit
    return out
