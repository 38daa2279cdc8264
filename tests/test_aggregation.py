import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphon_lab.aggregation import (
    WEIGHT_FLOOR,
    ewa_aggregate,
    ewa_weights,
    mixture,
    sq_residuals,
    temperature,
)
from graphon_lab.core import (
    AssignmentMatrix,
    BlockModel,
    DimensionMismatch,
    NoiseModel,
    check_counts,
    induced_mean,
)
from graphon_lab import estimation
from graphon_lab.estimation import HyperGrid, default_grid, fit_grid
from graphon_lab.synthesis import SynthConfig, make_standard_graphon, synthesize


class TestDefaultGrid:
    def test_smallest_case_single_pair_family(self):
        grid = default_grid(10, 10)
        assert {(e[0], e[1]) for e in grid} == {(2, 2)}
        assert set(grid.entries) == {
            (2, 2, 4, 4), (2, 2, 4, 5), (2, 2, 5, 4), (2, 2, 5, 5)
        }

    def test_cluster_counts_at_forty(self):
        grid = default_grid(40, 40)
        assert sorted({e[0] for e in grid}) == [2, 4, 5, 8]
        assert sorted({e[1] for e in grid}) == [2, 4, 5, 8]

    def test_every_entry_feasible(self):
        for n, m in [(10, 10), (37, 22), (400, 200)]:
            grid = default_grid(n, m)
            for entry in grid:
                check_counts(*entry, (n, m))  # raises on an infeasible entry
            for K, L, n0, m0 in grid:
                assert K * n0 <= n and L * m0 <= m
                assert n0 >= 4 and m0 >= 4

    def test_entries_are_distinct(self):
        # the half-step lists are deduplicated, so no grid needs a second pass
        for n in range(10, 400, 41):
            for m in range(10, 260, 31):
                entries = default_grid(n, m).entries
                assert len(set(entries)) == len(entries), (n, m)

    def test_size_bound_at_experiment_scale(self):
        grid = default_grid(400, 200)
        bound = 4 * math.log2(400 / 7) ** 2 * math.log2(200 / 7) ** 2
        assert len(grid) <= bound

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            default_grid(9, 50)


class TestTemperature:
    def test_values(self):
        assert temperature(NoiseModel.bernoulli()) == pytest.approx(8 / 3)
        assert temperature(NoiseModel.binomial(1)) == pytest.approx(8 / 3)
        assert temperature(NoiseModel.binomial(10)) == pytest.approx(8 / 30)
        assert temperature(NoiseModel.gaussian(0.25)) == pytest.approx(1.0)

    def test_poisson_unsupported(self):
        with pytest.raises(ValueError):
            temperature(NoiseModel.scaled_poisson(2.0))


class TestEwaWeights:
    def test_equal_residuals_split_evenly(self):
        w = ewa_weights(np.array([3.0, 3.0]), beta=1.7)
        assert w == pytest.approx([0.5, 0.5])

    def test_single_fit_full_weight(self):
        assert ewa_weights(np.array([42.0]), beta=2.0) == pytest.approx([1.0])

    def test_derived_nine_to_one_ratio(self):
        beta = 2.5
        w = ewa_weights(np.array([10.0, 10.0 + beta * math.log(9.0)]), beta=beta)
        assert w == pytest.approx([0.9, 0.1])

    def test_normalization_across_magnitudes(self):
        r = np.array([1e-3, 1.0, 1e3, 1e5, 1e7])
        for beta in (1e-6, 1.0, 1e9):
            w = ewa_weights(r, beta)
            assert abs(w.sum() - 1.0) <= 1e-12
            assert (w >= 0).all()

    def test_small_beta_concentrates(self):
        w = ewa_weights(np.array([5.0, 6.5, 9.0]), beta=1e-8)
        assert w[0] >= 1 - 1e-9

    def test_large_beta_flattens(self):
        w = ewa_weights(np.array([5.0, 6.5, 9.0]), beta=1e9)
        assert np.abs(w - 1 / 3).max() <= 1e-6

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            ewa_weights(np.array([1.0]), beta=0.0)
        for beta in (math.inf, math.nan, -1.0):
            with pytest.raises(ValueError, match="beta"):
                ewa_weights(np.array([1.0]), beta=beta)
        with pytest.raises(ValueError):
            ewa_weights(np.array([]), beta=1.0)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=0, max_value=100.0), min_size=1, max_size=8),
    st.floats(min_value=0.1, max_value=1e6),
    st.floats(min_value=-100.0, max_value=100.0),
)
def test_weights_shift_invariant(residuals, beta, shift):
    # scales kept small enough that rounding of r + shift itself stays
    # below the 1e-12 weight tolerance
    r = np.asarray(residuals)
    w1 = ewa_weights(r, beta)
    w2 = ewa_weights(r + shift, beta)
    assert np.abs(w1 - w2).max() <= 1e-12
    assert abs(w1.sum() - 1.0) <= 1e-12


def _dense(M):
    """An n x m matrix as the block model with identity labels, K = n, L = m."""
    n, m = M.shape
    return BlockModel(
        M, AssignmentMatrix(n, n, np.arange(n)), AssignmentMatrix(m, m, np.arange(m))
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_residual_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        ewa_weights(np.array([1.0, bad]), beta=1.0)


def test_sq_residuals_match_materialized():
    rng = np.random.default_rng(3)
    n, m = 9, 7
    M = rng.random((n, m))
    models = []
    for K, L in ((2, 3), (4, 2), (9, 7)):
        models.append(
            BlockModel(
                rng.random((K, L)),
                AssignmentMatrix(n, K, np.arange(n) % K),
                AssignmentMatrix(m, L, np.arange(m) % L),
            )
        )
    models.append(models[1])  # grid entries may share one fit
    expected = [((M - induced_mean(model)) ** 2).sum() for model in models]
    assert sq_residuals(models, M) == pytest.approx(expected, rel=1e-12)


def test_mixture_rejects_mixed_shapes():
    # a 1 x 4 model would broadcast into the 3 x 4 sum
    models = [_dense(np.zeros((3, 4))), _dense(np.ones((1, 4)))]
    with pytest.raises(DimensionMismatch):
        mixture(models, np.array([0.5, 0.5]))


def _mixture_per_entry(models, weights):
    """Reference mixture: one term per list entry, shared fits included."""
    out = np.zeros((models[0].n, models[0].m))
    for w, model in zip(weights, models):
        if model.n != out.shape[0] or model.m != out.shape[1]:
            raise DimensionMismatch("shape")
        if w > WEIGHT_FLOOR:
            out += w * induced_mean(model)
    return out


@pytest.mark.parametrize("kind, beta", [("cos", 8.0 / 3.0), ("rand", 8.0 / 3.0), ("rand", 1e3)])
def test_mixture_merges_shared_fits(kind, beta):
    # grid entries that share one fit get one term with their summed weight;
    # the per-entry loop rounds once per entry instead, so the two differ by
    # at most the summation error bound of the longer (per-entry) sum
    g = make_standard_graphon(kind, K=4, L=4, rho=0.6, seed=1)
    obs = synthesize(SynthConfig(60, 40, g, NoiseModel.bernoulli(), seed=2, with_second_copy=True))
    grid = default_grid(60, 40)
    reports = fit_grid(obs.H, grid, seed=3)
    models = [reports[e].model for e in grid]
    assert len({id(model) for model in models}) < len(models) // 2
    weights = ewa_weights(sq_residuals(models, obs.H_prime), beta)
    got, want = mixture(models, weights), _mixture_per_entry(models, weights)
    magnitude = sum(w * np.abs(induced_mean(x)) for w, x in zip(weights, models))
    assert (np.abs(got - want) <= len(models) * np.finfo(float).eps * magnitude).all()
    # a few shared entries: the two sums agree to a relative 1e-15
    few, w_few = models[:12], weights[:12] / weights[:12].sum()
    want = _mixture_per_entry(few, w_few)
    assert np.abs(mixture(few, w_few) - want).max() <= 1e-15 * np.abs(want).max()


def test_mixture_skips_floor_weights_per_entry():
    # three entries of one fit at WEIGHT_FLOOR each are all skipped, although
    # their sum is above the floor; a skipped term is never materialized
    rng = np.random.default_rng(4)
    kept = _dense(rng.random((3, 4)))
    dropped = _dense(np.full((3, 4), np.inf))
    models = [kept, dropped, dropped, kept, dropped]
    weights = np.array([0.5, WEIGHT_FLOOR, WEIGHT_FLOOR, 0.5 - 3 * WEIGHT_FLOOR, WEIGHT_FLOOR])
    got = mixture(models, weights)
    assert np.isfinite(got).all()
    want = _mixture_per_entry(models, weights)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_mixture_checks_shape_of_zero_weight_entries():
    ok = _dense(np.zeros((3, 4)))
    wide = _dense(np.ones((3, 5)))
    with pytest.raises(DimensionMismatch):
        mixture([ok, ok, wide], np.array([0.5, 0.5, 0.0]))
    with pytest.raises(DimensionMismatch):
        mixture([ok, wide, wide], np.array([1.0, 0.0, 0.0]))


class TestEwaAggregate:
    def test_aggregate_is_convex_combination(self):
        rng = np.random.default_rng(0)
        fits = [rng.random((6, 5)) for _ in range(4)]
        H_prime = rng.random((6, 5))
        result = ewa_aggregate([_dense(f) for f in fits], H_prime, beta=0.5)
        stack = np.stack(fits)
        assert (result.aggregate >= stack.min(axis=0) - 1e-12).all()
        assert (result.aggregate <= stack.max(axis=0) + 1e-12).all()
        expected = np.tensordot(result.weights, stack, axes=1)
        assert np.allclose(result.aggregate, expected, atol=1e-12)

    def test_single_fit_passthrough(self):
        rng = np.random.default_rng(1)
        fit = rng.random((3, 4))
        result = ewa_aggregate([_dense(fit)], rng.random((3, 4)), beta=1.0)
        assert result.weights == pytest.approx([1.0])
        assert np.array_equal(result.aggregate, fit)

    def test_symmetric_fits_split_weight(self):
        H_prime = np.zeros((2, 2))
        fits = [np.full((2, 2), 0.3), np.full((2, 2), -0.3)]
        result = ewa_aggregate([_dense(f) for f in fits], H_prime, beta=1.0)
        assert result.weights == pytest.approx([0.5, 0.5])
        assert np.allclose(result.aggregate, 0.0)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            ewa_aggregate([], np.zeros((2, 2)), beta=1.0)

    @pytest.mark.parametrize("shape", [(1, 4), (3, 1), (4, 3)])
    def test_shape_mismatch_rejected(self, shape):
        # (1, 4) and (3, 1) broadcast against a 3 x 4 fit
        fits = [_dense(np.full((3, 4), 0.2)), _dense(np.full((3, 4), 0.7))]
        with pytest.raises(DimensionMismatch):
            ewa_aggregate(fits, np.zeros(shape), beta=1.0)


class TestHyperGrid:
    # the ranges and the feasibility of entries are FitConfig's rules, which
    # fit_grid applies to every entry for the shape of H
    def test_feasibility_validation(self):
        grid = HyperGrid(((4, 4, 10, 10),))
        with pytest.raises(ValueError, match=r"grid entry \(K=4, L=4, n0=10, m0=10\): infeasible"):
            fit_grid(np.random.default_rng(0).random((30, 100)), grid, seed=0)
        reports = fit_grid(np.random.default_rng(0).random((40, 40)), grid, seed=0)
        assert reports[(4, 4, 10, 10)].model.z_rows.counts().min() >= 10

    def test_entry_validation(self, monkeypatch):
        # every entry is checked before any embedding or run starts
        monkeypatch.setattr(estimation, "spectral_embedding", lambda *a: pytest.fail("fitted"))
        monkeypatch.setattr(estimation, "_prepare", lambda *a: pytest.fail("fitted"))
        for entry, message in [((1, 2, 0, 0), "K and L must be at least 2"),
                               ((2, 2, -1, 0), "minimum sizes must be nonnegative"),
                               ((2, 2, 6, 0), "infeasible row sizes: 2 \\* 6 > 10")]:
            grid = HyperGrid(((2, 2, 0, 0), (3, 3, 0, 0), entry))
            K, L, n0, m0 = entry
            with pytest.raises(ValueError, match=rf"\(K={K}, L={L}, n0={n0}, m0={m0}\): {message}"):
                fit_grid(np.ones((10, 10)), grid, seed=0)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="a grid needs at least one entry"):
            HyperGrid(())

    @pytest.mark.parametrize(
        "entry",
        [(2, 2, True, 4), (2, 2, 4, np.bool_(False)), (2, 2, 4), (2, 2, 4, 4, 1),
         (2, 2, 4.0, 4), 7],
        ids=["true", "numpy-false", "three", "five", "float", "scalar"],
    )
    def test_entries_must_be_four_integers(self, entry):
        with pytest.raises(ValueError, match=r"grid entry 1 .* must be four integers"):
            HyperGrid(((3, 3, 0, 0), entry))

    def test_numpy_integer_entries_become_ints(self):
        grid = HyperGrid(((2, np.int32(3), 0, 0), np.array([4, 4, 1, 2])))
        assert grid.entries == ((2, 3, 0, 0), (4, 4, 1, 2))
        assert all(type(x) is int for e in grid for x in e)
