import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphon_lab import core, estimation
from graphon_lab.core import (
    AssignmentMatrix,
    BlockModel,
    block_means,
    block_sums,
    group_sums,
    induced_mean,
)
from graphon_lab.estimation import (
    FitConfig,
    HyperGrid,
    fit_grid,
    kmeans,
    lloyd_fit,
    spectral_embedding,
    spectral_init,
)
from graphon_lab.flow import min_cost_assignment
from graphon_lab.synthesis import (
    SynthConfig, apply_missingness, make_standard_graphon, substream, synthesize,
)
from graphon_lab.core import NoiseModel
from test_core import frobenius_cost


def assign(K, labels):
    return AssignmentMatrix(len(labels), K, np.asarray(labels))


def _prepare(H):
    """The prepared data of a fit on H, as ``lloyd_fit`` and ``fit_grid`` build it."""
    H = np.asarray(H, dtype=np.float64)
    return estimation._prepare(H, estimation._sq_norm(H))


def assignment_costs(H, Q, fixed_cols):
    """Row-update costs from H: ``-2 (H Z_c Q^T)_{ik} + (Q D Q^T)_{kk}``,
    ``D`` the column cluster sizes (the loop's formula, read from H)."""
    D = fixed_cols.counts()
    col_sums = group_sums(H, fixed_cols.labels, fixed_cols.K, axis=1)
    quad = (Q * Q) @ D.astype(np.float64)
    return -2.0 * col_sums @ Q.T + quad[None, :]


def q_from_h(H, zr, zc):
    """The block-average value matrix, with its block sums read from H."""
    return block_means(block_sums(H, zr, zc), zr, zc)


def reassign(H, Q, zc, n0=0):
    """The exact row update: flow assignment on the linearized costs."""
    return assign(len(Q), min_cost_assignment(assignment_costs(H, Q, zc), n0))


class TestZStepUnconstrained:
    def test_identical_rows_tie_break_to_first(self):
        H = np.random.default_rng(0).random((5, 4))
        zc = assign(2, [0, 0, 1, 1])
        Q = np.vstack([np.full(2, 0.5), np.full(2, 0.5), np.full(2, 0.5)])
        zr = reassign(H, Q, zc)
        assert np.array_equal(zr.labels, np.zeros(5, dtype=int))

    def test_exact_block_row_is_chosen(self):
        Q = np.array([[0.1, 0.9], [0.8, 0.2]])
        zc = assign(2, [0, 1, 1])
        H = np.array([[0.1, 0.9, 0.9], [0.8, 0.2, 0.2]])
        zr = reassign(H, Q, zc)
        assert zr.labels.tolist() == [0, 1]

    def test_against_exhaustive_cost(self):
        # 4 rows, weighted column clusters of sizes (1, 3)
        rng = np.random.default_rng(42)
        H = rng.random((4, 4))
        Q = rng.random((3, 2))
        zc = assign(2, [0, 1, 1, 1])
        zr = reassign(H, Q, zc)
        for i in range(4):
            costs = [
                ((H[i] - Q[k][zc.labels]) ** 2).sum() for k in range(3)
            ]
            assert zr.labels[i] == int(np.argmin(costs))
        # whole-assignment exhaustive check of the least-squares objective
        best = min(
            frobenius_cost(H, BlockModel(Q, assign(3, list(lab)), zc))
            for lab in itertools.product(range(3), repeat=4)
        )
        assert frobenius_cost(H, BlockModel(Q, zr, zc)) == pytest.approx(best)


class TestZStepConstrained:
    def test_vacuous_floor_matches_unconstrained(self):
        rng = np.random.default_rng(3)
        H = rng.random((9, 6))
        Q = rng.random((2, 2))
        zc = assign(2, rng.integers(0, 2, 6))
        uncon = reassign(H, Q, zc)
        if uncon.counts().min() >= 1:
            con = reassign(H, Q, zc, 1)
            assert np.array_equal(con.labels, uncon.labels)

    def test_exhaustive_least_squares(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            H = rng.random((6, 4))
            Q = rng.random((3, 2))
            zc = assign(2, np.r_[0, 1, rng.integers(0, 2, 2)])
            zr = reassign(H, Q, zc, 2)
            assert zr.counts().min() >= 2
            best = min(
                frobenius_cost(H, BlockModel(Q, assign(3, list(lab)), zc))
                for lab in itertools.product(range(3), repeat=6)
                if np.bincount(lab, minlength=3).min() >= 2
            )
            assert frobenius_cost(H, BlockModel(Q, zr, zc)) == pytest.approx(best)

    def test_phi_equals_cost_shift(self):
        # the linearized objective differs from the squared error by ||H||^2
        rng = np.random.default_rng(30)
        H = rng.random((7, 5))
        Q = rng.random((2, 3))
        zc = assign(3, [0, 1, 2, 1, 0])
        c = assignment_costs(H, Q, zc)
        for lab in ([0] * 7, [1] * 7, list(rng.integers(0, 2, 7))):
            phi = c[np.arange(7), lab].sum()
            direct = frobenius_cost(H, BlockModel(Q, assign(2, lab), zc))
            assert phi + (H * H).sum() == pytest.approx(direct)


def _update_centers_loop(points, labels, counts, centers):
    """Reference k-means centre update: one boolean mask and mean per label."""
    for j in range(centers.shape[0]):
        members = labels == j
        if members.any():
            centers[j] = points[members].mean(axis=0)


class TestKMeans:
    @pytest.mark.parametrize("d", [2, 3, 5, 8, 13])
    def test_center_update_matches_label_loop(self, d):
        # bitwise, on strided column slices as the spectral init passes them,
        # with an empty cluster; with one coordinate numpy's mean sums pairwise,
        # so d = 1 is covered by the label comparison below instead
        rng = np.random.default_rng(d)
        for n, k, scale in [(7, 3, 1.0), (200, 6, 1e-3), (1000, 8, 1e3), (2048, 12, 1.0)]:
            points = rng.standard_normal((n, d + 4))[:, :d] * scale
            labels = rng.integers(0, k, n)
            labels[labels == k - 1] = 0  # cluster k - 1 is empty
            counts = np.bincount(labels, minlength=k)
            start = rng.standard_normal((k, d))
            got, want = start.copy(), start.copy()
            estimation._update_centers(np.ascontiguousarray(points.T), labels, counts, got)
            _update_centers_loop(points, labels, counts, want)
            assert got.tobytes() == want.tobytes()

    def test_labels_match_label_loop(self, monkeypatch):
        graphon = make_standard_graphon("rand", K=4, L=4, rho=0.6, seed=3)
        H = synthesize(
            SynthConfig(n=300, m=150, graphon=graphon, noise=NoiseModel.bernoulli(), seed=4)
        ).H
        row_emb, col_emb = spectral_embedding(H)
        clouds = np.random.default_rng(9).standard_normal((2048, 8))
        cases = [(emb[:, :k], k) for emb in (row_emb, col_emb) for k in (1, 2, 4, 7)]
        cases.append((clouds, 8))
        grouped = [kmeans(points, k, seed=k) for points, k in cases]
        monkeypatch.setattr(estimation, "_update_centers",
                            lambda Pt, *args: _update_centers_loop(Pt.T, *args))
        for (points, k), labels in zip(cases, grouped):
            assert np.array_equal(kmeans(points, k, seed=k), labels)

    def test_separated_clouds(self):
        rng = np.random.default_rng(0)
        pts = np.concatenate([rng.normal(-5, 0.2, (20, 1)), rng.normal(5, 0.2, (25, 1))])
        labels = kmeans(pts, 2, seed=1)
        assert len(set(labels[:20])) == 1
        assert len(set(labels[20:])) == 1
        assert labels[0] != labels[-1]

    def test_n_equals_k(self):
        pts = np.arange(6, dtype=float).reshape(-1, 1) * 10
        labels = kmeans(pts, 6, seed=0)
        assert sorted(labels.tolist()) == list(range(6))

    def test_planted_layout_wcss(self):
        rng = np.random.default_rng(5)
        centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
        true_labels = np.repeat(np.arange(3), 7)[:20]
        pts = centers[true_labels] + rng.normal(scale=0.5, size=(20, 2))
        labels = kmeans(pts, 3, seed=2)

        def wcss(lab):
            out = 0.0
            for j in set(lab.tolist()):
                member = pts[lab == j]
                out += ((member - member.mean(axis=0)) ** 2).sum()
            return out

        nearest = np.argmin(((pts[:, None, :] - centers) ** 2).sum(-1), axis=1)
        assert wcss(labels) <= wcss(nearest) + 1e-9


def _kmeans_reference(points, k, seed):
    """k-means on the raw coordinates: point norms in every distance matrix,
    the farthest-point gather on every iteration and the WCSS recomputed.
    An empty cluster takes the farthest point that has not moved yet in this
    iteration and is not the last member of its cluster."""

    def sq_dists(centers):
        d = (
            (points * points).sum(axis=1)[:, None]
            - 2.0 * points @ centers.T
            + (centers * centers).sum(axis=1)[None, :]
        )
        return np.maximum(d, 0.0)

    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    best_labels, best_wcss = None, np.inf
    for r in range(estimation._KMEANS_RESTARTS):
        rng = substream(seed, 50 + r)
        centers = np.empty((k, points.shape[1]))
        centers[0] = points[rng.integers(n)]
        d2 = sq_dists(centers[:1]).ravel()
        for j in range(1, k):
            total = d2.sum()
            idx = int(rng.integers(n)) if total <= 0 else int(rng.choice(n, p=d2 / total))
            centers[j] = points[idx]
            d2 = np.minimum(d2, sq_dists(centers[j : j + 1]).ravel())
        labels = np.zeros(n, dtype=np.int64)
        for _ in range(estimation._KMEANS_MAX_ITERS):
            d2 = sq_dists(centers)
            new_labels = np.argmin(d2, axis=1)
            assigned = d2[np.arange(n), new_labels]
            counts = np.bincount(new_labels, minlength=k)
            moved = np.zeros(n, dtype=bool)
            for empty in np.flatnonzero(counts == 0):
                # never move a point twice, nor the last member of a cluster
                candidates = ~moved & (counts[new_labels] >= 2)
                far = int(np.argmax(np.where(candidates, assigned, -np.inf)))
                new_labels[far] = empty
                moved[far] = True
                counts = np.bincount(new_labels, minlength=k)
            if np.array_equal(new_labels, labels):
                labels = new_labels
                break
            labels = new_labels
            _update_centers_loop(points, labels, counts, centers)
        wcss = float(sq_dists(centers)[np.arange(n), labels].sum())
        if wcss < best_wcss - 1e-12:
            best_labels, best_wcss = labels, wcss
    return best_labels


def _kmeans_cases():
    cases = []
    for kind, n, m in [("cos", 200, 100), ("rand", 256, 128), ("hoelder", 300, 150)]:
        g = make_standard_graphon(kind, K=4, L=4, rho=0.6, seed=5)
        H = synthesize(SynthConfig(n=n, m=m, graphon=g, noise=NoiseModel.bernoulli(), seed=6)).H
        row_emb, col_emb = spectral_embedding(H)
        cases += [(emb[:, :k], k) for emb in (row_emb, col_emb) for k in (2, 3, 5, 8)]
    # three distinct points for five clusters: every restart re-seeds empties
    cases.append((np.repeat([[0.0, 1.0], [1.5, -0.5], [-1.25, 0.75]], 7, axis=0), 5))
    return cases


class TestKMeansReference:
    @pytest.mark.parametrize("max_iters", [50, 1])
    def test_labels_match_reference(self, monkeypatch, max_iters):
        # one Lloyd iteration never reaches a fixed point (labels start at 0),
        # so every restart's WCSS then comes from recomputed distances
        monkeypatch.setattr(estimation, "_KMEANS_MAX_ITERS", max_iters)
        for i, (points, k) in enumerate(_kmeans_cases()):
            assert np.array_equal(kmeans(points, k, seed=i), _kmeans_reference(points, k, i))

    def test_empty_cluster_reseed_is_exercised(self):
        # nearest-centre labels take at most three values on three distinct
        # points; the other labels can only come from re-seeding empty
        # clusters, and every one of the k clusters must end up used
        points, k = _kmeans_cases()[-1]
        labels = kmeans(points, k, seed=0)
        assert len(set(labels.tolist())) == k
        assert np.array_equal(labels, _kmeans_reference(points, k, 0))

    @pytest.mark.parametrize("exp", [600, -600])
    def test_scale_free(self, exp):
        # 2^600 squares to 2^1200, past the float range; 2^-600 squares to 0
        for i, (points, k) in enumerate(_kmeans_cases()):
            with np.errstate(all="raise"):
                scaled = kmeans(np.ldexp(points, exp), k, seed=i)
            assert np.array_equal(scaled, kmeans(points, k, seed=i))


def _kmeans_point_major(points, k, seed):
    """k-means as one point-major loop: per iteration the ``n x k`` matrix
    ``|p|^2 - (2 P) C^T + |c|^2`` clamped at 0, labels by ``argmin(axis=1)``
    and the centers from ``bin_sums`` of the points.  :func:`kmeans` must give
    its labels bitwise: its distances take the same operations per entry."""

    def sq_dists(centers):
        d = sq_norms[:, None] - 2.0 * points @ centers.T + (centers * centers).sum(axis=1)[None, :]
        return np.maximum(d, 0.0)

    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    points = np.ldexp(points, 1 - np.frexp(np.abs(points).max(initial=0.0))[1])
    sq_norms = (points * points).sum(axis=1)
    rows = np.arange(n)
    best_labels, best_wcss = None, np.inf
    for r in range(estimation._KMEANS_RESTARTS):
        rng = substream(seed, 50 + r)
        centers = np.empty((k, points.shape[1]))
        centers[0] = points[rng.integers(n)]
        d2 = sq_dists(centers[:1]).ravel()
        for j in range(1, k):
            total = d2.sum()
            idx = int(rng.integers(n)) if total <= 0 else int(rng.choice(n, p=d2 / total))
            centers[j] = points[idx]
            d2 = np.minimum(d2, sq_dists(centers[j : j + 1]).ravel())
        labels = np.zeros(n, dtype=np.int64)
        for _ in range(estimation._KMEANS_MAX_ITERS):
            d2 = sq_dists(centers)
            new_labels = np.argmin(d2, axis=1)
            counts = np.bincount(new_labels, minlength=k)
            if counts.min() == 0:
                assigned = d2[rows, new_labels]
                for empty in np.flatnonzero(counts == 0):
                    far = int(np.argmax(np.where(counts[new_labels] > 1, assigned, -1.0)))
                    counts[new_labels[far]] -= 1
                    counts[empty] = 1
                    new_labels[far] = empty
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
            present = counts > 0
            centers[present] = core.bin_sums(points, labels, k)[present] / counts[present][:, None]
        else:
            d2 = sq_dists(centers)
        wcss = float(d2[rows, labels].sum())
        if wcss < best_wcss - 1e-12:
            best_labels, best_wcss = labels, wcss
    return best_labels


@st.composite
def _kmeans_case(draw):
    """Points, k, a seed and an iteration cap (1 to 3 cut most runs).  The
    points are continuous, small integers (ties), or copies of fewer distinct
    points than clusters (every restart repairs empty clusters), times
    ``c 2^e`` with ``c`` in {1, 0.7, 3} and ``|e| <= 30``."""
    kind = draw(st.sampled_from(["continuous", "integer", "few"]))
    n, w = draw(st.integers(1, 400)), draw(st.integers(1, 24))
    k = draw(st.integers(1, min(n, 24)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "continuous":
        points = rng.standard_normal((n, w))
    elif kind == "integer":
        points = rng.integers(-2, 3, (n, w)).astype(np.float64)
    else:
        distinct = draw(st.integers(1, max(1, k - 1)))
        points = rng.standard_normal((distinct, w))[rng.integers(0, distinct, n)]
    scale = draw(st.sampled_from([1.0, 0.7, 3.0])) * 2.0 ** draw(st.integers(-30, 30))
    max_iters = draw(st.sampled_from([1, 2, 3, estimation._KMEANS_MAX_ITERS]))
    return points * scale, k, draw(st.integers(0, 2**31)), max_iters


@settings(max_examples=200, deadline=None)
@given(_kmeans_case())
def test_kmeans_matches_point_major_loop(case):
    # the distances run on a reused buffer from -2 P and the centers from P^T:
    # labels equal the point-major loop's bitwise, cut runs and repairs too
    points, k, seed, max_iters = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimation, "_KMEANS_MAX_ITERS", max_iters)
        assert np.array_equal(kmeans(points, k, seed), _kmeans_point_major(points, k, seed))


@pytest.mark.parametrize("seed", [5, 6, 8, 20])
def test_kmeans_matches_point_major_loop_on_near_copies(seed):
    # copies of 2 to 15 points in 16 to 24 coordinates: the centers are means of
    # copies, so a point's distances to several of them differ in the last bits.
    # On these inputs OpenBLAS 0.3.31 (Haswell) gave C P^T other bits than
    # (P C^T)^T, and k-means on that k x n product other labels
    rng = np.random.default_rng(seed)
    n, w = int(rng.integers(100, 600)), int(rng.integers(16, 25))
    k = int(rng.integers(4, 16))
    distinct = int(rng.integers(2, k))
    points = rng.standard_normal((distinct, w))[rng.integers(0, distinct, n)]
    assert np.array_equal(kmeans(points, k, seed), _kmeans_point_major(points, k, seed))


def test_seed_draw_matches_generator_choice():
    # k-means++ draws its seeds without rng.choice's checks of p; the draws,
    # and the stream after them, must stay those of rng.choice, zero weights
    # and a single nonzero weight included
    meta = np.random.default_rng(0)
    draws = 0
    for _ in range(300):
        n = int(meta.integers(1, 2001))
        weights = meta.random(n) ** 3
        weights[meta.random(n) < meta.random()] = 0.0
        if not weights.any():
            weights[meta.integers(n)] = meta.random() + 0.5
        seed = int(meta.integers(2 ** 32))
        mine, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            total = weights.sum()
            got = estimation._draw(weights, total, mine)
            assert got == numpys.choice(n, p=weights / total)
            assert weights[got] > 0
            draws += 1
        assert mine.random() == numpys.random()
    assert draws == 1500


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kmeans_refuses_non_finite_points(bad):
    # NaN used to reach rng.choice ("Probabilities contain NaN")
    points = np.ones((6, 2))
    points[3, 1] = bad
    with pytest.raises(ValueError, match="points must be finite"):
        kmeans(points, 2, seed=0)


class TestSpectralInit:
    def test_rank_one_row_scales(self):
        rng = np.random.default_rng(1)
        u = np.array([1.0, 1.0, 1.0, 3.0, 3.0, 3.0])
        v = rng.random(8) + 0.5
        zr, _ = spectral_init(np.outer(u, v), 2, 2, seed=0)
        assert len(set(zr.labels[:3])) == 1
        assert zr.labels[0] != zr.labels[3]

    def test_block_diagonal_exact(self):
        H = np.kron(np.eye(2), np.ones((5, 5)))
        zr, zc = spectral_init(H, 2, 2, seed=0)
        assert len(set(zr.labels[:5])) == 1 and zr.labels[0] != zr.labels[5]
        assert len(set(zc.labels[:5])) == 1 and zc.labels[0] != zc.labels[5]

    def test_degenerate_input_returns_assignment(self):
        zr, zc = spectral_init(np.full((6, 6), 0.4), 2, 2, seed=0)
        assert zr.n == 6 and zc.n == 6  # possibly empty clusters; repaired downstream

    def test_rank_check(self):
        with pytest.raises(ValueError):
            spectral_init(np.eye(3), 4, 2, seed=0)


def _svd_embedding(H):
    """Reference embedding: ``(U S, V S)`` from a full SVD of the trimmed H."""
    U, s, Vt = np.linalg.svd(estimation._degree_trim(H), full_matrices=False)
    return U * s, Vt.T * s


def _unscaled_gram_embedding(H):
    """The Gram-matrix embedding without the power-of-two prescale."""
    A = estimation._degree_trim(H)
    B = A if A.shape[0] >= A.shape[1] else A.T
    with np.errstate(all="ignore"):
        lam, V = np.linalg.eigh(B.T @ B)
        V = V[:, ::-1]
        s = np.sqrt(np.maximum(lam[::-1], 0.0))
        return (B @ V, V * s) if B is A else (V * s, B @ V)


def _pairwise(X):
    """Squared distances between the rows of ``X``."""
    return ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=-1)


def _embeddings_agree(got, want, ranks):
    """Leading-k squared row distances and k-means labels agree for every k
    in ``ranks``.  Both embeddings are first divided by the same power of two
    near the largest singular value: that is exact, and it keeps k-means,
    which squares raw coordinates, clear of overflow and underflow."""
    smax = max(np.abs(want[0]).max(), np.abs(want[1]).max())
    exp = np.frexp(smax)[1]
    for g, w in zip(got, want):
        if g.shape != w.shape:
            return False
        g, w = np.ldexp(g, -exp), np.ldexp(w, -exp)
        for k in ranks:
            with np.errstate(all="ignore"):
                gd, wd = _pairwise(g[:, :k]), _pairwise(w[:, :k])
            if not np.allclose(gd, wd, rtol=0, atol=1e-10):
                return False
            if not np.array_equal(kmeans(g[:, :k], k, seed=k), kmeans(w[:, :k], k, seed=k)):
                return False
    return True


def _embedding_inputs():
    g = make_standard_graphon("rand", K=3, L=3, rho=0.6, seed=2)

    def draw(n, m):
        return synthesize(SynthConfig(n, m, g, NoiseModel.bernoulli(), seed=n + m)).H

    Q = np.array([[0.9, 0.1, 0.5], [0.2, 0.8, 0.5], [0.55, 0.45, 0.5]])  # rank 2
    tall = draw(60, 40)
    return {
        "tall": (tall, (1, 2, 3, 5)),
        "wide": (draw(40, 60), (1, 2, 3, 5)),
        "square": (draw(40, 40), (1, 2, 3, 5)),
        "rank-deficient": (np.kron(Q, np.ones((20, 10))), (1, 2, 3)),
        "all-zero": (np.zeros((20, 10)), (1, 2, 3)),
        "one-row": (draw(1, 12), (1,)),
        "times-1e200": (tall * 1e200, (1, 2, 3, 5)),
        "times-1e-200": (tall * 1e-200, (1, 2, 3, 5)),
    }


def _abs_trim_embedding(H, rank=None, seed=0):
    """:func:`spectral_embedding` with the masses and the prescale read from
    ``np.abs`` copies of the trimmed matrix, whatever its signs, on a copy of
    H and its scaled copy."""
    A = np.array(H, dtype=np.float64, copy=True)
    for axis in (0, 1):
        mass = np.abs(A).sum(axis=1 - axis)
        avg = mass.mean()
        if avg <= 0:
            continue
        heavy = mass > 2 * avg
        if heavy.any():
            scale = np.ones_like(mass)
            scale[heavy] = avg / mass[heavy]
            A *= scale[:, None] if axis == 0 else scale[None, :]
    B = A if A.shape[0] >= A.shape[1] else A.T
    exp = 1 - np.frexp(np.abs(B).max())[1]
    C = np.ldexp(B, exp)
    V = None
    if rank is not None and B.shape[1] >= estimation._RSVD_MIN_RATIO * (
            rank + estimation._RSVD_OVERSAMPLE):
        omega = substream(seed, 98).standard_normal(
            (B.shape[1], rank + estimation._RSVD_OVERSAMPLE))
        Q = np.linalg.qr(C @ omega)[0]
        for _ in range(estimation._RSVD_POWER_ITERS):
            Q = np.linalg.qr(C @ np.linalg.qr(C.T @ Q)[0])[0]
        _, s, Vt = np.linalg.svd(Q.T @ C, full_matrices=False)
        top = s[:rank]
        if not ((top > estimation._RSVD_NOISE * s[-1])
                & (top < estimation._RSVD_RESOLVED * s[-1])).any():
            V = Vt[:rank].T
            s = np.ldexp(top, -exp)
    if V is None:
        lam, V = np.linalg.eigh(C.T @ C)
        V = V[:, ::-1]
        s = np.ldexp(np.sqrt(np.maximum(lam[::-1], 0.0)), -exp)
    row, col = (B @ V, V * s) if B is A else (V * s, B @ V)
    return row[:, :rank], col[:, :rank]


def _heavy(H):
    """``H`` with three rows and two columns scaled up past twice the average mass."""
    H = H.copy()
    H[[0, 5, 9]] *= 6.0
    H[:, [1, 4]] *= 9.0
    return H


def _trim_inputs():
    g = make_standard_graphon("rand", K=4, L=4, rho=0.6, seed=8)
    draw = lambda n, m, noise: synthesize(SynthConfig(n, m, g, noise, seed=n + m)).H
    binary = draw(300, 150, NoiseModel.bernoulli())
    return {
        "binary-heavy": _heavy(binary),
        "binary-wide-heavy": _heavy(draw(120, 240, NoiseModel.bernoulli())),
        "counts-heavy": _heavy(draw(200, 140, NoiseModel.scaled_poisson(2.0))),
        "gaussian-heavy": _heavy(draw(300, 150, NoiseModel.gaussian(1.0))),
        "nonpositive": -_heavy(binary),
        # the prescale is exact, so only a scale it must undo shows a wrong one
        "nonpositive-times-1e200": -_heavy(binary) * 1e200,
        "all-zero": np.zeros((30, 20)),
        "negative-zeros": np.full((30, 20), -0.0),
        # no heavy row or column and a prescale of 1: nothing is copied
        "binary": binary,
        "binary-fortran": np.asfortranarray(binary),
        "binary-strided": binary[::2, ::2],
        "binary-transposed": binary.T,
    }


@pytest.mark.parametrize("case", list(_trim_inputs()))
@pytest.mark.parametrize("rank", [None, 3])
def test_embedding_matches_abs_trim(case, rank):
    # without a negative entry the trim sums H or its copy and the prescale
    # reads max(B.max(), -B.min()); H is copied only to rescale, and not
    # prescaled by 1, in any layout: the same bytes as the copies give
    H = _trim_inputs()[case]
    got, want = spectral_embedding(H, rank, seed=4), _abs_trim_embedding(H, rank, seed=4)
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


class TestSpectralEmbedding:
    @pytest.mark.parametrize("case", list(_embedding_inputs()))
    def test_matches_svd_reference(self, case):
        H, ranks = _embedding_inputs()[case]
        assert _embeddings_agree(spectral_embedding(H), _svd_embedding(H), ranks)

    def test_prescale_is_needed(self):
        # the Gram embedding without the power-of-two prescale agrees on 0/1
        # data, but its Gram product overflows (a NaN embedding) or
        # underflows (distances far off) on the scaled copies
        cases = _embedding_inputs()
        H, ranks = cases["tall"]
        assert _embeddings_agree(_unscaled_gram_embedding(H), _svd_embedding(H), ranks)
        for case in ("times-1e200", "times-1e-200"):
            H, ranks = cases[case]
            assert not _embeddings_agree(
                _unscaled_gram_embedding(H), _svd_embedding(H), ranks
            )

    def test_kmeans_ignores_column_signs(self):
        # eigenvector signs are arbitrary; k-means reads squared distances
        # only, and negating a column leaves those bitwise unchanged
        H, _ = _embedding_inputs()["tall"]
        row_emb, col_emb = spectral_embedding(H)
        for emb, k in ((row_emb[:, :5], 5), (col_emb[:, :4], 4)):
            want = kmeans(emb, k, seed=3)
            for signs in itertools.product((1.0, -1.0), repeat=k):
                assert np.array_equal(kmeans(emb * np.array(signs), k, seed=3), want)


def _synth_h(kind, n, m, seed, K=4, rho=0.6):
    g = make_standard_graphon(kind, K=K, L=K, rho=rho, seed=seed)
    return synthesize(SynthConfig(n, m, g, NoiseModel.bernoulli(), seed=seed)).H


def _planted_rank_four(seed=0):
    """A 600 x 300 rank-4 matrix with well separated singular values plus
    1e-3 Gaussian noise."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((600, 4)))[0]
    V = np.linalg.qr(rng.standard_normal((300, 4)))[0]
    signal = (U * np.array([40.0, 25.0, 15.0, 8.0])) @ V.T
    return signal + 1e-3 * rng.standard_normal((600, 300))


def _subspace_gap(a, b, k):
    """Sine of the largest principal angle between the spans of the first
    ``k`` columns of ``a`` and of ``b``."""
    qa, qb = np.linalg.qr(a[:, :k])[0], np.linalg.qr(b[:, :k])[0]
    return np.linalg.norm(qb - qa @ (qa.T @ qb), 2)


class TestTruncatedEmbedding:
    @pytest.mark.parametrize(
        "kind, n, m, rank",
        [("cos", 200, 100, 32), ("rand", 256, 128, 4), ("rand", 256, 128, 6),
         ("rand", 128, 256, 6), ("hoelder", 278, 139, 4)],
    )
    def test_exact_path_below_threshold_is_bitwise_a_slice(self, kind, n, m, rank):
        # min(n, m) < 10 (rank + 10): the Gram path, its first rank columns
        H = _synth_h(kind, n, m, seed=n + rank)
        full = spectral_embedding(H)
        for seed in (0, 7):
            got = spectral_embedding(H, rank, seed)
            for g, f in zip(got, full):
                assert g.shape == (f.shape[0], rank)
                assert g.tobytes() == np.ascontiguousarray(f[:, :rank]).tobytes()

    @pytest.mark.parametrize("shape, rank, randomized", [
        ((280, 140), 4, True), ((279, 139), 4, False),
        ((140, 300), 4, True), ((300, 139), 4, False), ((200, 100), None, False),
    ])
    def test_threshold(self, monkeypatch, shape, rank, randomized):
        # the smooth graphon's sketch is kept: one resolved direction, the
        # rest at the noise floor
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(M.shape) or eigh(M))
        H = _synth_h("hoelder", *shape, seed=1)
        row, col = spectral_embedding(H, rank, seed=3)
        assert (calls == []) == randomized
        k = min(shape) if rank is None else rank
        assert row.shape == (shape[0], k) and col.shape == (shape[1], k)

    @pytest.mark.parametrize("n, rho, seed", [(512, 0.5, 0), (1024, 0.6, 1)])
    def test_unresolved_sketch_falls_back_to_exact(self, monkeypatch, n, rho, seed):
        # eight planted blocks: some singular values stand between the noise
        # floor and five times it, so the sketch is dropped and the output is
        # the exact path's, bitwise
        H = _synth_h("rand", n, n // 2, seed, K=8, rho=rho)
        full = spectral_embedding(H)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(M.shape) or eigh(M))
        got = spectral_embedding(H, 8, seed=seed)
        assert n // 2 >= estimation._RSVD_MIN_RATIO * (8 + estimation._RSVD_OVERSAMPLE)
        assert calls == [(n // 2, n // 2)]
        for g, f in zip(got, full):
            assert g.tobytes() == np.ascontiguousarray(f[:, :8]).tobytes()

    @pytest.mark.parametrize("transpose", [False, True])
    def test_randomized_path_matches_exact_on_planted_rank(self, transpose):
        H = _planted_rank_four()
        H = H.T if transpose else H
        exact = spectral_embedding(H)
        fast = spectral_embedding(H, 8, seed=11)
        assert fast[0].shape == (H.shape[0], 8) and fast[1].shape == (H.shape[1], 8)
        # column k of the V S factor has norm s_k
        s_exact = np.linalg.norm(exact[1][:, :4], axis=0)
        s_fast = np.linalg.norm(fast[1][:, :4], axis=0)
        np.testing.assert_allclose(s_fast, s_exact, rtol=1e-8, atol=0)
        for e, f in zip(exact, fast):
            assert _subspace_gap(e, f, 4) <= 1e-8

    def test_randomized_path_is_seeded(self):
        H = _planted_rank_four(seed=2)
        state = np.random.get_state()
        a = spectral_embedding(H, 8, seed=5)
        b = spectral_embedding(H.copy(), 8, seed=5)
        c = spectral_embedding(H, 8, seed=6)
        assert np.random.get_state()[1].tobytes() == state[1].tobytes()
        for x, y, z in zip(a, b, c):
            assert x.tobytes() == y.tobytes()
            assert x.tobytes() != z.tobytes()

    def test_seeded_spectral_fit_on_the_randomized_path_reruns_bitwise(self, monkeypatch):
        H = _synth_h("hoelder", 400, 200, seed=4)
        cfg = FitConfig(K=8, L=5, init="spectral", seed=12)
        ranks = []
        real = estimation.spectral_embedding
        monkeypatch.setattr(
            estimation, "spectral_embedding",
            lambda H, rank=None, seed=0: ranks.append(rank) or real(H, rank, seed),
        )
        monkeypatch.setattr(np.linalg, "eigh", None)  # the sketch must be kept
        first = lloyd_fit(H, cfg)
        again = lloyd_fit(H.copy(), cfg)
        assert ranks == [8, 8]
        assert first.model.z_rows.labels.tobytes() == again.model.z_rows.labels.tobytes()
        assert first.model.z_cols.labels.tobytes() == again.model.z_cols.labels.tobytes()
        assert first.model.Q.tobytes() == again.model.Q.tobytes()
        assert [x.hex() for x in first.cost_trajectory] == [
            x.hex() for x in again.cost_trajectory]


def _assert_same_fit(a, b):
    assert a.model.z_rows.labels.tobytes() == b.model.z_rows.labels.tobytes()
    assert a.model.z_cols.labels.tobytes() == b.model.z_cols.labels.tobytes()
    assert a.model.Q.tobytes() == b.model.Q.tobytes()
    assert [x.hex() for x in a.cost_trajectory] == [x.hex() for x in b.cost_trajectory]


class TestSharedStart:
    """``fit_grid`` and ``lloyd_fit`` take their spectral starts from one rule."""

    @staticmethod
    def _check_base_runs(H, grid, seed):
        reports = fit_grid(H, grid, seed=seed)
        pairs = sorted({(K, L) for K, L, _, _ in grid})
        for K, L in pairs:
            _assert_same_fit(reports[(K, L, 0, 0)], lloyd_fit(H, FitConfig(K, L, seed=seed)))
        return len(pairs)

    @pytest.mark.parametrize("kind, n, m, K, L, floors, seed", [
        ("rand", 60, 40, 3, 3, [(4, 3)], 1),
        ("cos", 200, 100, 32, 4, [], 2),
        ("rand", 256, 128, 6, 4, [(10, 8), (30, 20)], 3),
        ("hoelder", 600, 300, 4, 4, [(60, 40)], 4),
    ])
    def test_single_pair_grid_equals_direct_fit(self, monkeypatch, kind, n, m, K, L,
                                                floors, seed):
        # one (K, L) pair asks for the same rank as the direct fit, so the two
        # agree on either embedding path
        H = _synth_h(kind, n, m, seed)
        if min(n, m) >= estimation._RSVD_MIN_RATIO * (max(K, L) + estimation._RSVD_OVERSAMPLE):
            monkeypatch.setattr(np.linalg, "eigh", None)  # the sketch must be kept
        grid = HyperGrid(((K, L, 0, 0),) + tuple((K, L, n0, m0) for n0, m0 in floors))
        assert self._check_base_runs(H, grid, seed) == 1

    @pytest.mark.parametrize("n, m, pairs, seed", [
        (60, 40, [(2, 2), (3, 5), (6, 4), (8, 8)], 5),
        (40, 60, [(2, 3), (5, 2), (7, 7)], 6),
        (30, 8, [(2, 2), (12, 3), (5, 8)], 7),
    ])
    def test_multi_pair_grid_on_the_exact_path_equals_direct_fits(self, n, m, pairs, seed):
        # min(n, m) < 10 (largest count + 10): the grid's embedding is
        # bitwise the direct fits' leading columns, whatever its rank
        H = _synth_h("rand", n, m, seed, K=3)
        top = max(max(p) for p in pairs)
        assert min(n, m) < estimation._RSVD_MIN_RATIO * (top + estimation._RSVD_OVERSAMPLE)
        grid = HyperGrid(tuple((K, L, 0, 0) for K, L in pairs)
                         + tuple((K, L, 1, 1) for K, L in pairs))
        assert self._check_base_runs(H, grid, seed) == len(pairs)

    def test_counts_above_min_n_m(self):
        # K = 6 > min(n, m) = 4: k-means runs on all four embedding columns
        H = (np.random.default_rng(8).random((10, 4)) < 0.5).astype(np.float64)
        for seed in (0, 1, 2):
            direct = lloyd_fit(H, FitConfig(K=6, L=2, seed=seed))
            assert direct.model.z_rows.counts().min() >= 1
            grid = fit_grid(H, HyperGrid(((6, 2, 0, 0), (2, 3, 0, 0))), seed=seed)
            _assert_same_fit(grid[(6, 2, 0, 0)], direct)

    def test_factorization_failure_falls_back_to_random_labels(self, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(estimation, "spectral_embedding", failing)
        H = _synth_h("rand", 40, 30, seed=9, K=3)
        with pytest.warns(UserWarning, match="spectral embedding failed"):
            direct = lloyd_fit(H, FitConfig(K=3, L=4, n0=5, m0=4, seed=3))
        assert direct.model.z_rows.counts().min() >= 5
        assert direct.model.z_cols.counts().min() >= 4
        assert (np.diff(direct.cost_trajectory) <= 1e-9).all()
        grid = HyperGrid(((2, 2, 0, 0), (3, 4, 5, 4), (5, 3, 2, 9)))
        with pytest.warns(UserWarning, match="spectral embedding failed"):
            reports = fit_grid(H, grid, seed=3)
        assert set(reports) == set(grid.entries)
        for (K, L, n0, m0), rep in reports.items():
            assert rep.model.K == K and rep.model.L == L
            assert rep.model.z_rows.counts().min() >= max(n0, 1)
            assert rep.model.z_cols.counts().min() >= max(m0, 1)
            assert (np.diff(rep.cost_trajectory) <= 1e-9).all()


def planted_block_matrix(n, m, rng=None, noise=0.0):
    rows = np.arange(n) % 2
    cols = np.arange(m) % 2
    Q = np.array([[0.9, 0.1], [0.2, 0.8]])
    H = Q[np.ix_(rows, cols)].astype(float)
    if noise and rng is not None:
        H = H + rng.normal(scale=noise, size=H.shape)
    return H, rows, cols


class TestLloydFit:
    def test_true_labels_are_a_fixed_point(self):
        H, rows, cols = planted_block_matrix(8, 6)
        cfg = FitConfig(K=2, L=2, init="given", init_labels=(rows, cols))
        report = lloyd_fit(H, cfg)
        assert report.iterations == 1
        assert report.cost_trajectory == [pytest.approx(0.0)]
        assert frobenius_cost(H, report.model) == pytest.approx(0.0)

    @pytest.mark.parametrize("init", ["spectral", "random"])
    def test_trajectories_non_increasing(self, init):
        rng = np.random.default_rng(100)
        for trial in range(10):
            H = rng.random((15, 12))
            cfg = FitConfig(K=3, L=2, init=init, restarts=3, seed=trial)
            report = lloyd_fit(H, cfg)
            assert (np.diff(report.cost_trajectory) <= 1e-9).all()

    def test_noiseless_recovery_spectral(self):
        H, rows, cols = planted_block_matrix(12, 8)
        report = lloyd_fit(H, FitConfig(K=2, L=2, init="spectral", seed=0))
        assert report.final_cost == pytest.approx(0.0, abs=1e-18)
        got = report.model.z_rows.labels
        assert np.array_equal(got, rows) or np.array_equal(got, 1 - rows)

    def test_permutation_equivariance_given_init(self):
        rng = np.random.default_rng(21)
        H = rng.random((10, 7))
        rows = rng.integers(0, 2, 10)
        cols = rng.integers(0, 2, 7)
        base = lloyd_fit(H, FitConfig(K=2, L=2, init="given", init_labels=(rows, cols)))
        perm = rng.permutation(10)
        permuted = lloyd_fit(
            H[perm], FitConfig(K=2, L=2, init="given", init_labels=(rows[perm], cols))
        )
        assert np.array_equal(permuted.model.z_rows.labels, base.model.z_rows.labels[perm])
        assert np.array_equal(permuted.model.z_cols.labels, base.model.z_cols.labels)
        assert permuted.final_cost == pytest.approx(base.final_cost)

    def test_size_floors_respected(self):
        rng = np.random.default_rng(8)
        H = rng.random((20, 16))
        report = lloyd_fit(H, FitConfig(K=3, L=3, n0=5, m0=4, init="random", restarts=4, seed=2))
        assert report.model.z_rows.counts().min() >= 5
        assert report.model.z_cols.counts().min() >= 4
        assert (np.diff(report.cost_trajectory) <= 1e-9).all()

    def test_infeasible_config_rejected(self):
        with pytest.raises(ValueError):
            lloyd_fit(np.eye(4), FitConfig(K=2, L=2, n0=3))

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-3])
    def test_tolerance_finite_and_nonnegative(self, tol):
        # NaN < 0 is false, and a NaN tolerance would switch the stop off
        with pytest.raises(ValueError, match="tol_gamma"):
            FitConfig(K=2, L=2, tol_gamma=tol)
        assert FitConfig(K=2, L=2, tol_gamma=0.0).tol_gamma == 0.0

    @pytest.mark.parametrize("field", ["K", "L", "n0", "m0", "restarts", "max_iters"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
    def test_counts_must_be_integers(self, field, value):
        # n0=2.5 and n0=True used to fit, K=2.5 to fail inside the loop, and
        # max_iters=2.5 or restarts=2.5 with a TypeError; numpy integers pass
        what = "a positive integer" if field in ("restarts", "max_iters") else "an integer"
        with pytest.raises(ValueError, match=f"^{field} must be {what}, got {value!r}$"):
            FitConfig(**{"K": 3, "L": 3, field: value})
        assert getattr(FitConfig(**{"K": 3, "L": 3, field: np.int64(3)}), field) == 3

    @pytest.mark.parametrize("seed", [-1, 0.5, True])
    def test_seed_must_be_a_non_negative_integer(self, seed, monkeypatch):
        # numpy's SeedSequence used to refuse -1 without naming the seed; a
        # grid refuses it before its spectral start
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            FitConfig(K=2, L=2, seed=seed)
        monkeypatch.setattr(estimation, "spectral_embedding", lambda *a: pytest.fail("embedded"))
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            fit_grid(np.eye(6), HyperGrid(((2, 2, 0, 0),)), seed=seed)

    def test_missing_data_p_one_bit_identical(self):
        g = make_standard_graphon("rand", K=3, L=3, rho=0.6, seed=4)
        noise = NoiseModel.bernoulli()
        masked = synthesize(SynthConfig(30, 24, g, noise, seed=6, missing_p=1.0))
        plain = synthesize(SynthConfig(30, 24, g, noise, seed=6))
        cfg = FitConfig(K=3, L=3, init="spectral", seed=1)
        fit_masked = lloyd_fit(masked.adjusted(), cfg)
        fit_plain = lloyd_fit(plain.H, cfg)
        assert np.array_equal(
            fit_masked.model.z_rows.labels, fit_plain.model.z_rows.labels
        )
        assert np.array_equal(fit_masked.model.Q, fit_plain.model.Q)
        assert fit_masked.cost_trajectory == fit_plain.cost_trajectory

    def test_empty_cluster_repair_keeps_all_clusters(self):
        # K=3 on data with only 2 distinct row patterns: one cluster empties
        # out during the run and the repair must keep three populated rows
        H, _, _ = planted_block_matrix(9, 6)
        report = lloyd_fit(H, FitConfig(K=3, L=2, init="random", restarts=5, seed=3))
        assert report.model.z_rows.counts().min() >= 1
        assert (np.diff(report.cost_trajectory) <= 1e-9).all()

    def test_repaired_iterations_record_floor_zero(self):
        # clusters 0 and 2 start with identical patterns, so the argmin tie
        # empties cluster 2; the recorded floor must be 0 (a repaired step is
        # only exact for floor 0), even though the final sizes are positive
        H, rows, cols = planted_block_matrix(9, 6)
        rows3 = np.where(np.arange(9) % 4 == 2, 2, rows)  # pattern-A rows split 0/2
        report = lloyd_fit(H, FitConfig(K=3, L=2, init="given", init_labels=(rows3, cols)))
        assert report.traj_min_sizes[0] == 0
        assert report.model.z_rows.counts().min() >= 1


def test_random_init_with_floors_when_every_draw_leaves_a_cluster_empty():
    # 12 rows in 12 clusters: a uniform draw fills them all with probability
    # 12!/12^12 (about 5e-5), so the redraws fail and the labels are completed
    # from a random permutation; each row ends in a cluster of its own
    H = (np.random.default_rng(5).random((12, 8)) < 0.5).astype(np.float64)
    labels = estimation._random_labels(12, 12, substream(0, 1), True)
    assert sorted(labels) == list(range(12))
    report = lloyd_fit(H, FitConfig(K=12, L=2, n0=1, init="random", restarts=3, seed=1))
    assert sorted(report.model.z_rows.labels) == list(range(12))
    assert (np.diff(report.cost_trajectory) <= 1e-9).all()


@st.composite
def _whole_fit_case(draw):
    """A small H of one of five kinds and a random fit configuration for it."""
    kind = draw(st.sampled_from(["binary", "poisson", "gaussian", "constant", "duplicate"]))
    n, m = draw(st.integers(2, 13)), draw(st.integers(2, 13))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = {
        "binary": lambda: (rng.random((n, m)) < 0.4).astype(np.float64),
        "poisson": lambda: rng.poisson(3.0, (n, m)).astype(np.float64),
        "gaussian": lambda: rng.standard_normal((n, m)) * 10.0 ** rng.integers(-3, 4),
        "constant": lambda: np.full((n, m), draw(st.sampled_from([0.0, 1.0, 2.5]))),
        "duplicate": lambda: (rng.random((2, m)) < 0.5)[rng.integers(0, 2, n)] * 1.0,
    }[kind]()
    init = draw(st.sampled_from(["spectral", "random", "given"]))
    K, L = draw(st.integers(2, n)), draw(st.integers(2, m))
    n0, m0 = draw(st.integers(0, n // K)), draw(st.integers(0, m // L))
    labels = None
    if init == "given":
        labels = (rng.integers(0, K, n), rng.integers(0, L, m))
    cfg = FitConfig(K=K, L=L, n0=n0, m0=m0, init=init, restarts=draw(st.integers(1, 3)),
                    seed=draw(st.integers(0, 2**31)), init_labels=labels)
    return H, cfg


@settings(max_examples=120, deadline=None)
@given(_whole_fit_case())
def test_whole_fit_properties(case):
    # any small H and configuration: a finite Q, floors met, a trajectory
    # that never increases, a final model no worse than its last recorded
    # cost, and a seeded rerun that repeats the fit bitwise
    H, cfg = case
    report = lloyd_fit(H, cfg)
    model, traj = report.model, np.asarray(report.cost_trajectory)
    tol = 1e-9 * max(1.0, float((H * H).sum()))
    assert np.isfinite(model.Q).all() and np.isfinite(traj).all()
    assert model.z_rows.counts().min() >= max(cfg.n0, 1)
    assert model.z_cols.counts().min() >= max(cfg.m0, 1)
    assert (np.diff(traj) <= tol).all()
    assert frobenius_cost(H, model) <= traj[-1] + tol
    again = lloyd_fit(H.copy(), cfg)
    assert again.model.z_rows.labels.tobytes() == model.z_rows.labels.tobytes()
    assert again.model.z_cols.labels.tobytes() == model.z_cols.labels.tobytes()
    assert again.model.Q.tobytes() == model.Q.tobytes()
    assert [x.hex() for x in again.cost_trajectory] == [x.hex() for x in traj.tolist()]
    assert (again.traj_min_sizes, again.restart_index) == (
        report.traj_min_sizes, report.restart_index)


@st.composite
def _whole_grid_case(draw):
    """A small 0/1 or Gaussian H and a random grid of feasible entries."""
    n, m = draw(st.integers(4, 14)), draw(st.integers(4, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        H = (rng.random((n, m)) < 0.4).astype(np.float64)
    else:
        H = rng.standard_normal((n, m))
    entries = []
    for _ in range(draw(st.integers(1, 6))):
        K, L = draw(st.integers(2, n)), draw(st.integers(2, m))
        entries.append((K, L, draw(st.integers(0, n // K)), draw(st.integers(0, m // L))))
    return H, HyperGrid(tuple(entries)), draw(st.integers(0, 2**31))


@settings(max_examples=100, deadline=None)
@given(_whole_grid_case())
def test_whole_grid_properties(case):
    # every entry meets its floors, never increases its cost, and equals a
    # direct lloyd_fit with its own floors from the start labels of the run
    # that served it, whether that run was its own or a looser one's
    H, grid, seed = case
    starts = {}
    real = estimation._fit_starts

    def recording(prep, run_starts, config):
        report = real(prep, run_starts, config)
        starts[id(report)] = run_starts[0]
        return report

    estimation._fit_starts = recording
    try:
        reports = fit_grid(H, grid, seed=seed)
    finally:
        estimation._fit_starts = real
    assert set(reports) == set(grid.entries)
    tol = 1e-9 * max(1.0, float((H * H).sum()))
    for (K, L, n0, m0), rep in reports.items():
        model, traj = rep.model, rep.cost_trajectory
        assert model.z_rows.counts().min() >= max(n0, 1)
        assert model.z_cols.counts().min() >= max(m0, 1)
        assert (np.diff(traj) <= tol).all()
        direct = lloyd_fit(H, FitConfig(K=K, L=L, n0=n0, m0=m0, init="given",
                                        init_labels=starts[id(rep)], seed=seed))
        assert direct.model.z_rows.labels.tobytes() == model.z_rows.labels.tobytes()
        assert direct.model.z_cols.labels.tobytes() == model.z_cols.labels.tobytes()
        assert direct.model.Q.tobytes() == model.Q.tobytes()
        assert [x.hex() for x in direct.cost_trajectory] == [x.hex() for x in traj]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("init", ["spectral", "random", "given"])
def test_non_finite_input_rejected(bad, init):
    H, rows, cols = planted_block_matrix(8, 6)
    H[3, 2] = bad
    cfg = FitConfig(K=2, L=2, init=init, restarts=2, init_labels=(rows, cols))
    with pytest.raises(ValueError, match="finite"):
        lloyd_fit(H, cfg)


@pytest.mark.parametrize("labels, got", [([0.95] + [1] * 7, "0.95 at index 0"),
                                         ([0.0, 1.0] * 4, "0.0 at index 0"),
                                         ([True, False] * 4, "True at index 0")])
def test_given_start_labels_must_be_integers(labels, got):
    # a start label of 0.95 was cast to 0, so the fit began from labels other
    # than the ones given
    H, _, cols = planted_block_matrix(8, 6)
    for rows in (labels, np.array(labels)):
        cfg = FitConfig(K=2, L=2, init="given", init_labels=(rows, cols))
        with pytest.raises(ValueError, match=rf"^labels must be integers in \[0, 2\), got {got}$"):
            lloyd_fit(H, cfg)


@pytest.mark.parametrize("scale", [1e160, 1e300])
@pytest.mark.parametrize("init", ["spectral", "random", "given"])
def test_a_non_finite_sq_norm_is_refused_before_any_work(monkeypatch, scale, init):
    # finite entries whose squares sum past the float range: such an H used
    # to meet overflow warnings in the costs and then "cost must be finite"
    # from the flow solver (or, at 1e300, overflow in the embedding's sums)
    H = np.random.default_rng(0).random((12, 8)) * scale
    rows, cols = np.arange(12) % 3, np.arange(8) % 3
    for name in ("_spectral_labels", "_random_labels", "_prepare"):
        monkeypatch.setattr(estimation, name, lambda *a, name=name: pytest.fail(name))
    refusal = r"H must be finite, and so must \|\|H\|\|_F\^2, got inf"
    with pytest.raises(ValueError, match=refusal):
        lloyd_fit(H, FitConfig(3, 3, init=init, restarts=2, init_labels=(rows, cols)))
    with pytest.raises(ValueError, match=refusal):
        fit_grid(H, HyperGrid([(2, 2, 0, 0), (3, 3, 2, 2)]), seed=0)


def _repair_empty_rows_reference(H, row_labels, z_cols, K, fill=0.0):
    """The repair with its residuals read from H: the block means of the
    current labels (``fill`` in the blocks of an empty cluster) are expanded
    to an n x m matrix, and the largest squared residual row moves."""
    labels = np.array(row_labels, dtype=np.int64)
    while True:
        counts = np.bincount(labels, minlength=K)
        empties = np.flatnonzero(counts == 0)
        if empties.size == 0:
            return assign(K, labels)
        zr = assign(K, labels)
        Q = q_from_h(H, zr, z_cols)
        Q[np.outer(counts, z_cols.counts()) == 0] = fill
        theta = Q[np.ix_(labels, z_cols.labels)]
        residuals = ((H - theta) ** 2).sum(axis=1)
        residuals = np.where(counts[labels] >= 2, residuals, -np.inf)
        labels[int(np.argmax(residuals))] = empties[0]


def _axis_step_reference(H, Q, fixed, floor):
    """One reassignment through the public steps: costs from H, then flow."""
    c = assignment_costs(H, Q, fixed)
    z = assign(len(Q), min_cost_assignment(c, floor))
    size = int(z.counts().min())
    if size == 0:
        z = _repair_empty_rows_reference(H, z.labels, fixed, len(Q))
    return z, size, c


def _lloyd_run_reference(H, row_labels, col_labels, cfg):
    """The Lloyd loop with every block mean and cost computed from H itself."""
    n, m = H.shape
    Ht = np.ascontiguousarray(H.T)
    H_sq = float(np.einsum("ij,ij->", H, H))
    zr = _repair_empty_rows_reference(H, row_labels, assign(cfg.L, col_labels), cfg.K)
    zc = _repair_empty_rows_reference(Ht, col_labels, zr, cfg.L)
    traj, min_row, min_col = [], n, m
    for _ in range(cfg.max_iters):
        start = (zr.labels, zc.labels)
        Q = q_from_h(H, zr, zc)
        zr, row_floor, _ = _axis_step_reference(H, Q, zc, cfg.n0)
        if row_floor == 0:
            Q = q_from_h(H, zr, zc)
        zc, col_floor, c = _axis_step_reference(Ht, Q.T, zr, cfg.m0)
        if col_floor == 0:
            Q = q_from_h(H, zr, zc)
            c = assignment_costs(Ht, Q.T, zr)
        traj.append(max(H_sq + float(c[np.arange(m), zc.labels].sum()), 0.0))
        min_row, min_col = min(min_row, row_floor), min(min_col, col_floor)
        if np.array_equal(start[0], zr.labels) and np.array_equal(start[1], zc.labels):
            break
        if len(traj) >= 2 and abs(traj[-1] - traj[-2]) <= cfg.tol_gamma:
            break
    return BlockModel(q_from_h(H, zr, zc), zr, zc), traj, (min_row, min_col)


def _held_axis(z):
    """The run's record of the held axis of assignment ``z``, as the repair
    reads it: its labels and their counts."""
    return estimation._Axis(z, None, None, None, 0)


def _repair(H, row_labels, z_cols, K):
    """The estimator's repair, given the sums and norms the loop holds, as a
    checked assignment whose counts are those the repair returned."""
    sums = group_sums(H, z_cols.labels, z_cols.K, axis=1)
    labels, counts = estimation._repair_empty_rows(
        sums, (H * H).sum(axis=1), row_labels, np.bincount(row_labels, minlength=K),
        _held_axis(z_cols))
    z = assign(K, labels)
    assert np.array_equal(z.counts(), counts)
    return z


@pytest.mark.parametrize("data", ["binary", "gaussian"])
@pytest.mark.parametrize("seed", range(6))
def test_repair_ignores_empty_blocks(data, seed):
    # the repair from H Z_c and the row norms moves the rows that the
    # residuals read from H move; it reads the block means only at occupied
    # blocks, so the labels do not depend on what an empty block holds, also
    # when the fixed axis has an empty cluster of its own, as at the start of
    # a run
    rng = np.random.default_rng(seed)
    n, m, K, L = 30, 20, 7, 5
    H = rng.random((n, m)) < 0.4 if data == "binary" else rng.standard_normal((n, m))
    H = H.astype(np.float64)
    Ht = np.ascontiguousarray(H.T)
    rows = rng.integers(0, K - 3, n)  # clusters K-3 .. K-1 empty
    cols = rng.integers(0, L - 1, m)  # cluster L-1 empty
    zc = assign(L, cols)
    assert zc.counts().min() == 0
    got = _repair(H, rows, zc, K)
    for fill in (0.0, H.mean()):
        want = _repair_empty_rows_reference(H, rows, zc, K, fill)
        assert np.array_equal(got.labels, want.labels)
    assert got.counts().min() >= 1
    # the column repair against the repaired rows (empty clusters on one
    # axis), and against rows that still hold empty clusters (on both)
    for zr in (got, assign(K, rows)):
        want = _repair_empty_rows_reference(Ht, cols, zr, L, H.mean())
        assert np.array_equal(_repair(Ht, cols, zr, L).labels, want.labels)


def _moves_take_largest_residuals(H, row_labels, z_cols, K, repaired):
    """Whether each move of a repair took a movable row whose squared
    residual, read from H as the reference does, is the largest up to
    rounding.  The estimator sums the residuals in another order, so of rows
    tied up to rounding it may take another one than the reference.  Rows
    move into the empty clusters in increasing order, one row each."""
    labels = np.array(row_labels, dtype=np.int64)
    tol = 1e-12 * (H * H).sum(axis=1).max()
    moved = np.flatnonzero(repaired != labels)
    for i in moved[np.argsort(repaired[moved])]:
        counts = np.bincount(labels, minlength=K)
        theta = q_from_h(H, assign(K, labels), z_cols)[np.ix_(labels, z_cols.labels)]
        residuals = np.where(counts[labels] >= 2, ((H - theta) ** 2).sum(axis=1), -np.inf)
        if residuals[i] < residuals.max() - tol or repaired[i] != np.argmin(counts):
            return False
        labels[i] = repaired[i]
    return np.bincount(labels, minlength=K).min() > 0


@pytest.mark.parametrize("data", ["binary", "gaussian"])
def test_repairs_in_a_run_match_reference(data, monkeypatch):
    # every repair of a run, at its start and after a floor-0 step in the
    # middle, moves rows that the residuals read from H would move
    rng = np.random.default_rng(11)
    n, m = 40, 30
    H = rng.random((n, m)) < 0.4 if data == "binary" else rng.standard_normal((n, m))
    H = H.astype(np.float64)
    Ht = np.ascontiguousarray(H.T)
    real = estimation._repair_empty_rows
    calls = []

    def checked(sums, sq_norms, row_labels, row_counts, fixed):
        K = len(row_counts)
        got, counts = real(sums, sq_norms, row_labels, row_counts, fixed)
        M = H if len(sums) == n else Ht
        # the reference reads H by the held axis's own labels
        z_cols = assign(len(fixed.counts), fixed.labels)
        calls.append(np.array_equal(z_cols.counts(), fixed.counts)
                     and np.array_equal(np.bincount(got, minlength=K), counts)
                     and _moves_take_largest_residuals(M, row_labels, z_cols, K, got))
        return got, counts

    monkeypatch.setattr(estimation, "_repair_empty_rows", checked)
    started_empty = mid_run = 0
    for K, L in [(12, 10), (10, 3), (3, 10), (6, 6)]:
        for seed in range(4):
            rows, cols = rng.integers(0, K - seed % 2, n), rng.integers(0, L - seed // 2, m)
            started_empty += min(np.bincount(rows, minlength=K).min(),
                                 np.bincount(cols, minlength=L).min()) == 0
            for cfg in (
                FitConfig(K=K, L=L, init="given", init_labels=(rows, cols)),
                FitConfig(K=K, L=L, init="random", restarts=3, seed=seed),
            ):
                mid_run += 0 in lloyd_fit(H, cfg).traj_min_sizes
    assert all(calls)
    assert started_empty and mid_run


@pytest.mark.parametrize(
    "K, L, n0, m0, seed, repaired",
    [
        (3, 2, 0, 0, 3, (False, False)),
        (4, 3, 9, 6, 4, (False, False)),
        (8, 6, 0, 0, 3, (True, False)),
        (3, 8, 0, 0, 0, (False, True)),
    ],
    ids=["plain", "floors", "row-repair", "col-repair"],
)
def test_shared_group_sums_match_reference_loop(K, L, n0, m0, seed, repaired):
    # the loop reads H twice per iteration and derives Q from H Z_c and
    # H^T Z_r; on 0/1 data every block sum is an exact integer, so labels,
    # Q and the trajectory equal those of the step-by-step loop bitwise
    g = make_standard_graphon("cos", K=4, L=4, rho=0.6)
    H = synthesize(SynthConfig(40, 30, g, NoiseModel.bernoulli(), seed=9)).H
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(0, K, 40), rng.integers(0, L, 30)
    cfg = FitConfig(K=K, L=L, n0=n0, m0=m0, init="given", init_labels=(rows, cols))
    report = lloyd_fit(H, cfg)
    model, traj, sizes = report.model, report.cost_trajectory, report.traj_min_sizes
    ref_model, ref_traj, ref_sizes = _lloyd_run_reference(H, rows, cols, cfg)
    assert np.array_equal(model.z_rows.labels, ref_model.z_rows.labels)
    assert np.array_equal(model.z_cols.labels, ref_model.z_cols.labels)
    assert np.array_equal(model.Q, ref_model.Q)
    assert traj == ref_traj
    assert sizes == ref_sizes
    # a recorded floor of 0 marks an iteration whose empty cluster was repaired
    assert (sizes[0] == 0, sizes[1] == 0) == repaired


def _axis_step_checked(sums, sq_norms, Q, fixed, floor, costs=None):
    """One reassignment from the sums as the loop holds them, returned as a
    checked assignment: the costs, the flow step, and a repair when the step
    leaves a cluster empty.  Returns the assignment, its smallest cluster size
    before any repair, and the cost matrix; ``costs``, if given, gains the
    cost matrix's shape and bytes."""
    c = estimation._linear_costs(sums, Q, fixed.counts())
    if costs is not None:
        costs.append((c.shape, c.tobytes()))
    z = assign(len(Q), min_cost_assignment(c, floor))
    size = int(z.counts().min())
    if size == 0:
        labels, counts = estimation._repair_empty_rows(
            sums, sq_norms, z.labels, z.counts(), _held_axis(fixed))
        z = assign(len(Q), labels)
        assert np.array_equal(z.counts(), counts)
    return z, size, c


def _start_repair_from_sums(M, sq_norms, labels, z_fixed, K):
    """The estimator's repair of start labels, from the sums ``M Z`` of the
    held axis ``z_fixed`` as the loop holds them; each move is checked to
    take a largest residual read from M, up to rounding."""
    counts = np.bincount(labels, minlength=K)
    if counts.min() > 0:
        return assign(K, labels)
    sums = M @ np.eye(z_fixed.K)[z_fixed.labels]
    got, _ = estimation._repair_empty_rows(sums, sq_norms, labels, counts, _held_axis(z_fixed))
    assert _moves_take_largest_residuals(M, labels, z_fixed, K, got)
    return assign(K, got)


def _lloyd_run_recomputing(H, Ht, row_labels, col_labels, cfg, costs=None):
    """The Lloyd loop that rebuilds both one-hots and reads H twice on every
    iteration, whether or not an axis's labels changed, repairs the start
    labels as the estimator does (:func:`_start_repair_from_sums`), and checks
    each axis's labels after every step.  ``costs``, if given, gains the
    shape and bytes of every cost matrix a flow step receives and, after
    each column step, of the one the trajectory reads, in order."""
    n, m = H.shape
    H_sq = float(np.einsum("ij,ij->", H, H))
    row_sq, col_sq = np.einsum("ij,ij->i", H, H), np.einsum("ij,ij->i", Ht, Ht)
    zr = _start_repair_from_sums(H, row_sq, row_labels, assign(cfg.L, col_labels), cfg.K)
    zc = _start_repair_from_sums(Ht, col_sq, col_labels, zr, cfg.L)
    traj, min_row, min_col = [], n, m
    Zr, Zc = np.eye(cfg.K)[zr.labels], np.eye(cfg.L)[zc.labels]
    for _ in range(cfg.max_iters):
        start = (zr.labels, zc.labels)
        HZc = H @ Zc
        Q = block_means(Zr.T @ HZc, zr, zc)
        zr, row_floor, _ = _axis_step_checked(HZc, row_sq, Q, zc, cfg.n0, costs)
        Zr = np.eye(cfg.K)[zr.labels]
        if row_floor == 0:
            Q = block_means(Zr.T @ HZc, zr, zc)
        HtZr = Ht @ Zr
        zc, col_floor, c = _axis_step_checked(HtZr, col_sq, Q.T, zr, cfg.m0, costs)
        Zc = np.eye(cfg.L)[zc.labels]
        if col_floor == 0:
            Q = block_means((Zc.T @ HtZr).T, zr, zc)
            c = estimation._linear_costs(HtZr, Q.T, zr.counts())
        if costs is not None:
            costs.append((c.shape, c.tobytes()))
        traj.append(max(H_sq + float(c[np.arange(m), zc.labels].sum()), 0.0))
        min_row, min_col = min(min_row, row_floor), min(min_col, col_floor)
        if np.array_equal(start[0], zr.labels) and np.array_equal(start[1], zc.labels):
            break
        if len(traj) >= 2 and abs(traj[-1] - traj[-2]) <= cfg.tol_gamma:
            break
    Q = block_means((Zc.T @ HtZr).T, zr, zc)
    return BlockModel(Q, zr, zc), traj, (min_row, min_col)


def _h_read_counter(monkeypatch):
    """``(reads, Counted)``: ``reads`` gains an entry for each read of an
    array viewed as ``Counted``: each ufunc on it, matmul included (also on
    a row subset of it), and each group_sums call given one, also through
    core's (as block_sums makes them)."""
    h_reads = []

    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            h_reads.append(True)
            inputs = [x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs]
            return getattr(ufunc, method)(*inputs, **kwargs)

    for module in (estimation, core):
        monkeypatch.setattr(
            module, "group_sums",
            lambda M, *a, real=module.group_sums, **k:
                h_reads.append(isinstance(M, Counted)) or real(M, *a, **k),
        )
    return h_reads, Counted


def _assert_run_matches_recomputing(prep, H, Ht, rows, cols, cfg, h_reads):
    """Run ``_lloyd_run`` from ``(rows, cols)``; assert it equals the
    recomputing loop bitwise and reads H at most twice per iteration plus
    once per axis whose start labels leave a cluster empty.  Every cost matrix a flow step receives, and the one each column
    step ends with (after a repair, the re-averaged one), must have the
    reference's shape and bytes: a trajectory entry sums one matrix's entries
    at the labels, which can hide a change of summation order inside the
    matrices.  Returns ``(reads, bound, traj, sizes)``."""
    del h_reads[:]
    costs, ref_costs = [], []
    solve, half_step = estimation.min_cost_assignment, estimation._half_step

    def recording_solve(cost, min_size):
        costs.append((cost.shape, cost.tobytes()))
        return solve(cost, min_size)

    axes = []  # the run's row and column records, as its first step moves and holds them

    def recording_half_step(move, fix, Q):
        if not axes:
            axes.extend((move, fix))
        Q, c = half_step(move, fix, Q)
        if move is axes[1]:
            costs.append((c.shape, c.tobytes()))
        return Q, c

    estimation.min_cost_assignment = recording_solve
    estimation._half_step = recording_half_step
    try:
        model, traj, sizes = estimation._lloyd_run(prep, rows, cols, cfg)
    finally:
        estimation.min_cost_assignment, estimation._half_step = solve, half_step
    reads = sum(h_reads)
    ref, ref_traj, ref_sizes = _lloyd_run_recomputing(H, Ht, rows, cols, cfg, ref_costs)
    assert len(costs) == 3 * len(traj)
    assert costs == ref_costs
    assert np.array_equal(model.z_rows.labels, ref.z_rows.labels)
    assert np.array_equal(model.z_cols.labels, ref.z_cols.labels)
    assert model.Q.tobytes() == ref.Q.tobytes()
    assert [x.hex() for x in traj] == [x.hex() for x in ref_traj]
    assert sizes == ref_sizes
    start_repairs = sum(
        np.bincount(x, minlength=k).min() == 0 for x, k in ((rows, cfg.K), (cols, cfg.L))
    )
    bound = 2 * len(traj) + start_repairs
    assert reads <= bound
    return reads, bound, traj, sizes


def _tied_start():
    """0/1 data and start labels whose row repair meets an exact tie: rows 0
    and 1, alone in row cluster 0 of 5, hold as many ones as each other in
    each column cluster, so their squared residuals are equal, yet read from
    H they round apart.  The other rows are constant on each column cluster
    (residual 0), and row cluster 4 is empty.  The estimator moves row 0, a
    repair that reads H moves row 1."""
    cols = np.array([0, 1, 2, 0, 2, 1, 0, 0, 1, 2, 0, 2, 0, 0, 1, 2, 0, 2, 0, 2, 0, 2, 0])
    pair = [[0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0],
            [0, 1, 1, 1, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 1]]
    patterns = np.array([[1, 0, 0], [0, 1, 1], [1, 1, 0]])
    H = np.vstack([pair, np.repeat(patterns, 6, axis=0)[:, cols]]).astype(np.float64)
    rows = np.concatenate([[0, 0], np.repeat([1, 2, 3], 6)])
    z_cols = assign(3, cols)
    assert _repair_empty_rows_reference(H, rows, z_cols, 5).labels[:2].tolist() == [0, 4]
    assert _repair(H, rows, z_cols, 5).labels[:2].tolist() == [4, 0]
    return H, rows, cols


def _assert_tied_start_runs_match(h_reads, Counted):
    """The runs from :func:`_tied_start`, with and without floors and cut at
    one iteration, equal the recomputing loop (float32 products, 0/1 data)."""
    H, rows, cols = _tied_start()
    prep = _prepare(H)
    assert prep.H.dtype == np.float32
    prep = prep._replace(H=prep.H.view(Counted), Ht=prep.Ht.view(Counted))
    for n0, m0, max_iters in [(0, 0, 40), (3, 5, 40), (0, 0, 1)]:
        cfg = FitConfig(K=5, L=3, n0=n0, m0=m0, init="given", init_labels=(rows, cols),
                        max_iters=max_iters)
        _assert_run_matches_recomputing(prep, H, np.ascontiguousarray(H.T), rows, cols, cfg,
                                        h_reads)


@pytest.mark.parametrize("kind", ["rand", "cos", "hoelder"])
def test_lloyd_reuse_matches_recomputing_loop(kind, monkeypatch):
    # keeping H Z_c, H^T Z_r and the one-hot of an axis whose labels did not
    # change must leave labels, Q, trajectories and floors bitwise unchanged;
    # H is read at most twice per iteration plus once per axis whose start
    # labels leave a cluster empty, counting every read of the product
    # operands that _prepare holds, float32 (this 0/1 data) or float64
    g = make_standard_graphon(kind, K=4, L=4, rho=0.6, seed=2)
    h_reads, Counted = _h_read_counter(monkeypatch)
    repaired = started_empty = stopped = kept = 0
    for (n, m), cases in [
        ((90, 60), [(3, 3, 0, 0, 40), (4, 3, 12, 10, 40), (6, 5, 8, 0, 40),
                    (12, 10, 0, 0, 40), (5, 4, 0, 0, 2), (4, 4, 15, 12, 3),
                    (4, 4, 20, 13, 40)]),  # near-tight: floors of 0.9 n/K, 0.9 m/L
        ((40, 30), [(3, 8, 0, 0, 40), (10, 8, 0, 0, 40), (12, 10, 0, 0, 40),
                    (4, 4, 9, 6, 40)]),
    ]:
        H = synthesize(SynthConfig(n, m, g, NoiseModel.bernoulli(), seed=7)).H
        Ht = np.ascontiguousarray(H.T)
        preps = [_prepare(H)]
        with monkeypatch.context() as wide:
            wide.setattr(estimation, "_F32_EXACT", 0.0)
            preps.append(_prepare(H))
        assert [p.H.dtype for p in preps] == [np.float32, np.float64]
        row_emb, col_emb = spectral_embedding(H)
        for (K, L, n0, m0, max_iters), prep in itertools.product(cases, preps):
            prep = prep._replace(H=prep.H.view(Counted), Ht=prep.Ht.view(Counted))
            rng = np.random.default_rng(K * 10 + L)
            spectral_cols = kmeans(col_emb[:, :L], L, seed=2)
            for rows, cols in [
                (kmeans(row_emb[:, :K], K, seed=1), spectral_cols),
                (rng.integers(0, K, n), rng.integers(0, L, m)),
                (rng.integers(0, K // 2, n), spectral_cols),  # half the row clusters empty
            ]:
                cfg = FitConfig(K=K, L=L, n0=n0, m0=m0, init="given",
                                init_labels=(rows, cols), max_iters=max_iters)
                reads, bound, traj, sizes = _assert_run_matches_recomputing(
                    prep, H, Ht, rows, cols, cfg, h_reads)
                kept += reads < bound
                started_empty += bound > 2 * len(traj)
                repaired += 0 in sizes
                stopped += len(traj) == max_iters < 40
    # the cases cover start and mid-run repairs, a run cut at max_iters and
    # skipped reads
    assert started_empty and repaired and stopped and kept
    # a start repair with an exact tie
    _assert_tied_start_runs_match(h_reads, Counted)


@pytest.mark.parametrize("noise", ["bernoulli", "poisson"])
def test_incremental_products_match_recomputing_loop(noise, monkeypatch):
    # on exact float32 operands, a product whose labels moved by at most a
    # quarter of the axis is updated from the moved rows of H or H^T; the
    # update and the fallback to the whole product leave every result
    # bitwise equal to the loop that reads all of H on every iteration,
    # within the same read bound.  The 90 x 60 data runs with the size rule
    # at 0; the 480 x 300 data is above it as it stands.
    g = make_standard_graphon("rand", K=4, L=4, rho=0.6, seed=2)
    model = NoiseModel.scaled_poisson(1.0) if noise == "poisson" else NoiseModel.bernoulli()
    h_reads, Counted = _h_read_counter(monkeypatch)
    # one entry per product made from an earlier one: True for an update,
    # whose operand is a row subset of H or H^T read transposed
    contiguous, updates = [], []
    times, times_moved = estimation._times, estimation._times_moved

    def counted_times_moved(A, At, Z, labels, prod, prev):
        out = times_moved(A, At, Z, labels, prod, prev)
        if prod is not None:
            updates.append(not contiguous[-1])
        return out

    monkeypatch.setattr(estimation, "_times",
                        lambda M, Z: contiguous.append(M.flags.c_contiguous) or times(M, Z))
    monkeypatch.setattr(estimation, "_times_moved", counted_times_moved)
    for (n, m), min_entries in [((90, 60), 0), ((480, 300), estimation._UPDATE_MIN_ENTRIES)]:
        monkeypatch.setattr(estimation, "_UPDATE_MIN_ENTRIES", min_entries)
        H = synthesize(SynthConfig(n, m, g, model, seed=7)).H
        assert noise == "bernoulli" or H.max() >= 2
        Ht = np.ascontiguousarray(H.T)
        prep = _prepare(H)
        assert prep.H.dtype == np.float32 and n * m >= min_entries
        prep = prep._replace(H=prep.H.view(Counted), Ht=prep.Ht.view(Counted))
        row_emb, col_emb = spectral_embedding(H)
        del updates[:]
        for K, L, n0, m0, max_iters in [(3, 3, 0, 0, 40), (6, 5, 0, 0, 40), (12, 10, 0, 0, 40),
                                        (4, 3, n // 5, m // 4, 40), (6, 5, 0, 0, 2)]:
            rng = np.random.default_rng(K * 10 + L)
            spectral_cols = kmeans(col_emb[:, :L], L, seed=2)
            for rows, cols in [
                (kmeans(row_emb[:, :K], K, seed=1), spectral_cols),
                (rng.integers(0, K, n), rng.integers(0, L, m)),
                (rng.integers(0, K // 2, n), spectral_cols),  # half the row clusters empty
            ]:
                cfg = FitConfig(K=K, L=L, n0=n0, m0=m0, init="given",
                                init_labels=(rows, cols), max_iters=max_iters)
                _assert_run_matches_recomputing(prep, H, Ht, rows, cols, cfg, h_reads)
        # both the update and the fallback (random starts move many labels) ran
        assert any(updates) and not all(updates)
    # a start repair with an exact tie, with every product updated that can be
    monkeypatch.setattr(estimation, "_UPDATE_MIN_ENTRIES", 0)
    _assert_tied_start_runs_match(h_reads, Counted)


@st.composite
def _loop_case(draw):
    """Data, start labels and a config for one Lloyd run: up to 60 x 40 and
    12 x 12 clusters, floors up to tight, and start labels that leave
    ``empty`` clusters of each axis empty (none on neither, one or both
    axes).  The products are those of ``path``: float32 on 0/1 or count
    data, recomputed whole or updated from moved rows and columns, or
    float64 on such data or on Gaussian data."""
    n, m = draw(st.integers(2, 60)), draw(st.integers(2, 40))
    K, L = draw(st.integers(2, min(12, n))), draw(st.integers(2, min(12, m)))
    n0, m0 = draw(st.integers(0, n // K)), draw(st.integers(0, m // L))
    empty = (draw(st.integers(0, K - 1)), draw(st.integers(0, L - 1)))
    path = draw(st.sampled_from(["float32", "update", "float64", "gaussian"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if path == "gaussian":
        H = rng.standard_normal((n, m))
    else:
        H = rng.integers(0, draw(st.sampled_from([2, 100])), (n, m)).astype(np.float64)
    starts = []
    for size, k, e in ((n, K, empty[0]), (m, L, empty[1])):
        labels = rng.integers(0, k - e, size)
        labels[rng.permutation(size)[:k - e]] = np.arange(k - e)
        starts.append(rng.permutation(k)[labels])  # exactly e clusters empty
    cfg = FitConfig(K=K, L=L, n0=n0, m0=m0, init="given", init_labels=tuple(starts),
                    max_iters=draw(st.sampled_from([1, 2, 40])))
    return H, cfg, path


@settings(max_examples=150, deadline=None)
@given(_loop_case())
def test_lloyd_run_matches_recomputing_loop(case):
    # drawn runs equal the loop that rebuilds every one-hot and reads all of
    # H on every iteration, bitwise, within the read bound, with the start
    # repairs, the floors and each path of the products.  The members of a
    # two-member cluster, and rows of equal 0/1 counts, tie in a repair's
    # residuals, and rounding breaks the tie one way in the sums and maybe
    # another in a read of H; so the start repairs are the estimator's, each
    # move checked against H's residuals
    H, cfg, path = case
    rows, cols = cfg.init_labels
    with pytest.MonkeyPatch.context() as mp:
        h_reads, Counted = _h_read_counter(mp)
        if path == "float64":
            mp.setattr(estimation, "_F32_EXACT", 0.0)
        if path == "update":
            mp.setattr(estimation, "_UPDATE_MIN_ENTRIES", 0)
        prep = _prepare(H)
        wide = path in ("float64", "gaussian")
        assert prep.H.dtype == (np.float64 if wide else np.float32)
        prep = prep._replace(H=prep.H.view(Counted), Ht=prep.Ht.view(Counted))
        _assert_run_matches_recomputing(prep, H, np.ascontiguousarray(H.T), rows, cols, cfg,
                                        h_reads)


def _integer_data(kind):
    g = make_standard_graphon("rand", K=3, L=3, rho=0.6, seed=4)
    noise = NoiseModel.scaled_poisson(1.0) if kind == "poisson" else NoiseModel.bernoulli()
    H = synthesize(SynthConfig(60, 40, g, noise, seed=3)).H
    if kind == "missing":
        H, _ = apply_missingness(H, 0.5, seed=3)  # entries 0 and 2
    return H - 1.0 if kind == "signed" else H


def _fit_dump(report):
    m = report.model
    return (m.z_rows.labels.tolist(), m.z_cols.labels.tolist(), m.Q.tobytes(),
            [x.hex() for x in report.cost_trajectory], report.traj_min_sizes)


@pytest.mark.parametrize("kind", ["bernoulli", "poisson", "missing", "signed"])
def test_float32_products_match_float64_path(kind, monkeypatch):
    # integer-valued H with squared row and column norms below 2^24 takes
    # float32 products, whose widened sums are exact: every fit and grid
    # entry equals the one with float64 forced through _prepare, bitwise
    H = _integer_data(kind)
    values = np.unique(H).tolist()
    assert values == {"bernoulli": [0, 1], "missing": [0, 2], "signed": [-1, 0]}.get(kind, values)
    assert kind != "poisson" or values[-1] >= 2
    grid = HyperGrid([(K, L, n0, m0) for K, L in ((2, 2), (3, 4))
                      for n0, m0 in ((0, 0), (12, 6), (18, 9))])
    configs = [FitConfig(3, 3), FitConfig(4, 2, init="random", restarts=3),
               FitConfig(3, 3, n0=15, m0=10)]

    def fits():
        reports = [lloyd_fit(H, cfg) for cfg in configs]
        reports += [rep for _, rep in sorted(fit_grid(H, grid, seed=2).items())]
        return [_fit_dump(r) for r in reports]

    prep = _prepare(H)
    assert prep.H.dtype == prep.Ht.dtype == np.float32
    narrow = fits()
    monkeypatch.setattr(estimation, "_F32_EXACT", 0.0)
    assert _prepare(H).H.dtype == np.float64
    assert fits() == narrow


def _wide_integer(entries):
    H = np.ones((6, 5))
    for i, j in entries:
        H[i, j] = 2.0 ** 23
    return H


@pytest.mark.parametrize("H", [
    synthesize(SynthConfig(30, 20, make_standard_graphon("rand", K=3, L=3, rho=0.6, seed=4),
                           NoiseModel.gaussian(0.01), seed=3)).H,
    synthesize(SynthConfig(30, 20, make_standard_graphon("rand", K=3, L=3, rho=0.6, seed=4),
                           NoiseModel.binomial(3), seed=3)).H,
    _wide_integer([(2, 1), (2, 3)]),  # a row's absolute sum reaches 2^24
    _wide_integer([(1, 2), (4, 2)]),  # as does a column's
    np.pad([[4096.0]], ((0, 3), (0, 2))),  # a squared norm of exactly 2^24
], ids=["gaussian", "binomial3", "row_2^24", "col_2^24", "norm_2^24"])
def test_float64_products_kept(H):
    prep = _prepare(H)
    assert prep.H.dtype == prep.Ht.dtype == np.float64
    assert prep.Ht.flags.c_contiguous and np.array_equal(prep.Ht, H.T)
    # one step below the bound, the same layout takes float32
    assert _prepare(np.pad([[4095.0]], ((0, 3), (0, 2)))).H.dtype == np.float32
