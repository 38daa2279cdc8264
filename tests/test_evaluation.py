import math
import tracemalloc

import numpy as np
import pytest

from graphon_lab import evaluation
from graphon_lab.core import AssignmentMatrix, DimensionMismatch, Graphon, NoiseModel
from graphon_lab.evaluation import (
    delta_tilde,
    lift_to_graphon,
    mse_theta,
    oracle_fit,
    oracle_risk_bernoulli,
    pc_l2_sq_distance,
    psi_condition,
    rate_bound,
)
from graphon_lab.synthesis import make_standard_graphon, sample_latents, true_assignments


class TestLift:
    def test_one_by_one_constant(self):
        g = lift_to_graphon(np.array([[0.7]]))
        assert g(0.2, 0.9) == 0.7

    def test_cell_lookup(self):
        g = lift_to_graphon(np.eye(2))
        assert g(0.1, 0.1) == 1.0
        assert g(0.1, 0.9) == 0.0

    def test_isometry_on_random_pairs(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            A = rng.random((5, 7))
            B = rng.random((5, 7))
            lhs = pc_l2_sq_distance(lift_to_graphon(A), lift_to_graphon(B))
            rhs = ((A - B) ** 2).sum() / A.size
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_negative_entries_allowed(self):
        g = lift_to_graphon(np.array([[-0.5, 0.2]]))
        assert g(0.0, 0.0) == -0.5


def _cell_integrals_reference(graphon, n, m, grid_res):
    """The whole-grid computation: W on the full grid, then differences of
    cumulative sums at the rectangle boundaries."""
    g = (np.arange(grid_res) + 0.5) / grid_res
    W = graphon.evaluate_grid(g, g)
    w_sq = float((W * W).mean())
    row_bins = np.minimum((g * n).astype(np.int64), n - 1)
    col_bins = np.minimum((g * m).astype(np.int64), m - 1)
    cum = np.vstack([np.zeros((1, grid_res)), np.cumsum(W, axis=0)])
    starts = np.searchsorted(row_bins, np.arange(n), side="left")
    ends = np.searchsorted(row_bins, np.arange(n), side="right")
    row_acc = cum[ends] - cum[starts]
    cum2 = np.hstack([np.zeros((n, 1)), np.cumsum(row_acc, axis=1)])
    cs = np.searchsorted(col_bins, np.arange(m), side="left")
    ce = np.searchsorted(col_bins, np.arange(m), side="right")
    cells = (cum2[:, ce] - cum2[:, cs]) / grid_res**2
    return cells, w_sq


_GRAPHONS = {
    "bump": lambda: make_standard_graphon("hoelder", rho=0.8),
    "rand": lambda: make_standard_graphon("rand", K=5, L=3, rho=0.7, seed=2),
    "lift": lambda: lift_to_graphon(np.random.default_rng(7).random((13, 29)) + 0.1),
}


@pytest.mark.parametrize("kind", sorted(_GRAPHONS))
@pytest.mark.parametrize(
    "n, m, grid_res",
    [
        (37, 23, 1013),  # no multiple of n or m; four blocks
        (150, 60, 150),  # grid_res == max(n, m)
        (1, 1, 100),
        (1, 40, 700),  # one row rectangle spans both blocks
        (40, 1, 700),
        (3, 5, 2048),  # sixteen blocks; block edges cut row rectangles
        (96, 48, 2048),
    ],
)
def test_streamed_cell_integrals_match_whole_grid(kind, n, m, grid_res):
    g = _GRAPHONS[kind]()
    cells, w_sq = evaluation._cell_integrals(g, np.arange(n), np.arange(m), grid_res)
    want_cells, want_w_sq = _cell_integrals_reference(g, n, m, grid_res)
    assert cells.shape == (n, m)
    # the reference's cumulative sums lose digits against the running total,
    # not against the cell, so small cells are held to 1e-12 of the largest
    scale = np.abs(want_cells).max()
    np.testing.assert_allclose(cells, want_cells, rtol=1e-12, atol=1e-12 * scale)
    assert w_sq == pytest.approx(want_w_sq, rel=1e-12)


class TestDeltaTilde:
    def test_constant_case_vanishes(self):
        g = Graphon.piecewise_constant([0, 1.0], [0, 1.0], [[0.7]], rho=0.7)
        U, V = sample_latents(30, 20, seed=1)
        theta_hat = np.full((30, 20), 0.7)
        assert delta_tilde(theta_hat, g, U, V) <= 1e-6

    def test_perfectly_aligned_piecewise_case(self):
        rng = np.random.default_rng(5)
        n, m = 20, 25
        values = rng.random((n, m)) * 0.8
        g = Graphon.piecewise_constant(
            np.linspace(0, 1, n + 1), np.linspace(0, 1, m + 1), values, rho=0.8
        )
        U, V = sample_latents(n, m, seed=3)
        r1 = np.empty(n, dtype=int)
        r1[np.argsort(U, kind="stable")] = np.arange(n)
        r2 = np.empty(m, dtype=int)
        r2[np.argsort(V, kind="stable")] = np.arange(m)
        theta_hat = values[np.ix_(r1, r2)]  # cells match the sorted truth exactly
        assert delta_tilde(theta_hat, g, U, V, grid_res=1000) <= 1e-3

    def test_zero_truth_returns_estimate_norm(self):
        g = Graphon.piecewise_constant([0, 1.0], [0, 1.0], [[0.0]], rho=1.0, validate=False)
        U, V = sample_latents(15, 10, seed=2)
        c = 0.37
        assert delta_tilde(np.full((15, 10), c), g, U, V) == pytest.approx(c, abs=1e-9)

    def test_riemann_refinement_stable(self):
        g = make_standard_graphon("hoelder", rho=0.9)
        U, V = sample_latents(50, 50, seed=4)
        theta_hat = g.evaluate_grid(U, V)
        d1 = delta_tilde(theta_hat, g, U, V, grid_res=1000)
        d2 = delta_tilde(theta_hat, g, U, V, grid_res=2000)
        assert abs(d1 - d2) <= 1e-3

    def test_requires_latents_and_resolution(self):
        g = make_standard_graphon("hoelder", rho=0.5)
        with pytest.raises(ValueError):
            delta_tilde(np.zeros((4, 4)), g, None, None)
        with pytest.raises(ValueError):
            delta_tilde(np.zeros((4, 4)), g, np.zeros(4), np.zeros(4), grid_res=10)

    @pytest.mark.parametrize("axis", ["U", "V"])
    @pytest.mark.parametrize("bad", [7.5, -0.5, np.nan, np.inf, True, "a", [0.5]])
    def test_latents_must_be_numbers_in_the_unit_interval(self, axis, bad):
        # 7.5 and -0.5 used to move delta_tilde and the oracle's clusters
        # without a word, and true was read as 1.0
        g = make_standard_graphon("rand", K=3, L=3, rho=0.6, seed=1)
        U, V = sample_latents(30, 20, seed=6)
        latents = {"U": U.tolist(), "V": V.tolist()}
        latents[axis][3] = bad
        message = f"latent positions '{axis}' must be numbers in \\[0, 1\\], got .* at index 3"
        with pytest.raises(ValueError, match=message):
            delta_tilde(np.full((30, 20), 0.25), g, latents["U"], latents["V"])
        with pytest.raises(ValueError, match=message):
            true_assignments(g, latents["U"], latents["V"])
        if not isinstance(bad, (str, list)):
            # the same entry in an array, a bool one for True
            arrays = {"U": U, "V": V}
            arrays[axis] = np.where(np.arange(len(arrays[axis])) == 3, bad, arrays[axis])
            if bad is True:
                arrays[axis] = arrays[axis] > 0.5
            with pytest.raises(ValueError, match=f"latent positions '{axis}'"):
                delta_tilde(np.full((30, 20), 0.25), g, arrays["U"], arrays["V"])
        assert np.array_equal(true_assignments(g, U, V)[0], true_assignments(g, U.tolist(), V)[0])

    def test_latents_must_be_a_vector(self):
        g = make_standard_graphon("rand", K=3, L=3, rho=0.6, seed=1)
        U, V = sample_latents(30, 20, seed=6)
        for bad in (U[:, None], 0.5, "abc"):
            with pytest.raises(ValueError, match="latent positions 'U' must be a vector"):
                true_assignments(g, bad, V)

    @pytest.mark.parametrize("sizes", [(1, 20), (30, 1), (29, 20), (30, 21)])
    def test_latents_must_match_the_estimate(self, sizes):
        # a one-element U used to broadcast to a distance of 0.0
        g = make_standard_graphon("hoelder", rho=0.5)
        U, V = sample_latents(*sizes, seed=6)
        with pytest.raises(DimensionMismatch, match="30 x 20"):
            delta_tilde(np.full((30, 20), 0.25), g, U, V)

    def test_grid_coarser_than_matrix_rejected(self):
        # at 120 x 60 a grid of 100 points leaves 20 row rectangles empty
        g = make_standard_graphon("hoelder", rho=0.5)
        U, V = sample_latents(120, 60, seed=5)
        theta_hat = g.evaluate_grid(U, V)
        with pytest.raises(ValueError, match="max\\(n, m\\) = 120"):
            delta_tilde(theta_hat, g, U, V, grid_res=100)
        assert delta_tilde(theta_hat, g, U, V, grid_res=120) >= 0

    @pytest.mark.parametrize("truth", ["bump", "lift"])
    def test_memory_does_not_grow_with_the_grid_squared(self, truth):
        # a 2048 x 2048 grid is 33.5 MB of doubles; the result is 4.2 MB
        g = make_standard_graphon("hoelder", rho=0.5)
        U, V = sample_latents(1024, 512, seed=6)
        theta_hat = g.evaluate_grid(U, V)
        if truth == "lift":
            # 1024 x 512 cells: the grid's cell indicators alone would be 25 MB
            g = lift_to_graphon(theta_hat)
        tracemalloc.start()
        try:
            delta_tilde(theta_hat, g, U, V, grid_res=2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestOracle:
    def test_noiseless_recovery(self):
        Q_star = np.array([[0.2, 0.8], [0.6, 0.4]])
        rows = AssignmentMatrix(6, 2, [0, 0, 0, 1, 1, 1])
        cols = AssignmentMatrix(4, 2, [0, 0, 1, 1])
        H = Q_star[np.ix_(rows.labels, cols.labels)]
        oracle = oracle_fit(H, rows, cols)
        assert np.allclose(oracle.Q, Q_star)

    def test_single_block_grand_mean(self):
        H = np.arange(12, dtype=float).reshape(3, 4)
        oracle = oracle_fit(
            H, AssignmentMatrix(3, 1, [0, 0, 0]), AssignmentMatrix(4, 1, [0] * 4)
        )
        assert oracle.Q[0, 0] == pytest.approx(H.mean())

    def test_empty_cluster_falls_back_with_warning(self):
        H = np.arange(16, dtype=float).reshape(4, 4)
        rows = AssignmentMatrix(4, 3, [0, 0, 0, 1])  # row cluster 2 empty
        cols = AssignmentMatrix(4, 3, [0, 2, 2, 2])  # column cluster 1 empty
        with pytest.warns(UserWarning, match="empty true cluster"):
            oracle = oracle_fit(H, rows, cols)
        # blocks touching an empty cluster hold H's global mean (7.5), which
        # differs from the mean of the occupied blocks' means (9.0)
        want = np.array([[4.0, 7.5, 6.0], [12.0, 7.5, 14.0], [7.5, 7.5, 7.5]])
        assert H.mean() == 7.5
        assert np.array_equal(oracle.Q, want)


class TestOracleRiskBernoulli:
    def test_degenerate_zero(self):
        assert oracle_risk_bernoulli(np.zeros((3, 3)), 10, 10) == 0.0

    def test_worked_example(self):
        assert oracle_risk_bernoulli(np.full((2, 2), 0.5), 10, 10) == pytest.approx(0.01)

    def test_maximized_at_half(self):
        base = oracle_risk_bernoulli(np.full((2, 2), 0.5), 10, 10)
        for q in (0.1, 0.3, 0.7, 0.95):
            assert oracle_risk_bernoulli(np.full((2, 2), q), 10, 10) < base

    def test_range_checked(self):
        with pytest.raises(ValueError):
            oracle_risk_bernoulli(np.array([[1.2]]), 5, 5)


class TestRateBound:
    def test_worked_bernoulli_example(self):
        got = rate_bound(NoiseModel.bernoulli(), 0.6, 512, 256, 8, 8)
        expected = (25 * 0.6 + 4 * (1 / 3) * 0.6) * (
            3 * 64 / (512 * 256) + math.log(8) / 256 + math.log(8) / 512
        )
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.2157, abs=5e-4)

    def test_vanishes_for_large_matrices(self):
        assert rate_bound(NoiseModel.bernoulli(), 0.5, 10**7, 10**7, 2, 2) < 1e-5

    def test_gaussian_independent_of_rho(self):
        g = NoiseModel.gaussian(0.3)
        assert rate_bound(g, 0.1, 100, 50, 4, 4) == rate_bound(g, 0.9, 100, 50, 4, 4)

    def test_cluster_count_check(self):
        with pytest.raises(ValueError):
            rate_bound(NoiseModel.bernoulli(), 0.5, 100, 100, 1, 2)


class TestPsiCondition:
    def test_worked_example(self):
        got = psi_condition(100, 100, 10, 10)
        assert got == pytest.approx(0.6 * (1 + math.log(10)), rel=1e-12)
        assert got == pytest.approx(1.9816, abs=5e-4)

    def test_symmetry(self):
        assert psi_condition(80, 200, 5, 9) == pytest.approx(
            psi_condition(200, 80, 9, 5)
        )

    def test_decreasing_in_floors(self):
        # in the regime n0 <= n/e the statistic shrinks as the floors grow
        vals = [psi_condition(500, 500, n0, n0) for n0 in (3, 5, 10, 25, 60, 150)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_minimum_floor(self):
        with pytest.raises(ValueError):
            psi_condition(100, 100, 2, 10)


def test_mse_theta_matches_direct():
    rng = np.random.default_rng(0)
    A, B = rng.random((7, 5)), rng.random((7, 5))
    assert mse_theta(A, B) == pytest.approx(((A - B) ** 2).mean())


@pytest.mark.parametrize("shape", [(1, 12), (24, 1), (12, 24), (24,)])
def test_mse_theta_rejects_a_truth_of_another_shape(shape):
    # each of these broadcasts against a 24 x 12 estimate
    theta_hat = np.random.default_rng(3).random((24, 12))
    with pytest.raises(DimensionMismatch, match="24, 12"):
        mse_theta(theta_hat, np.zeros(shape))
    assert mse_theta(theta_hat, theta_hat) == 0.0
