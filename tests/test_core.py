import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphon_lab.core import (
    AssignmentMatrix,
    BlockModel,
    DimensionMismatch,
    Graphon,
    NoiseModel,
    ObservationSet,
    block_inner,
    block_means,
    block_sums,
    check_rho,
    check_seed,
    group_sums,
    induced_mean,
    induced_sq_norm,
    is_integer,
    is_number,
)
from graphon_lab.aggregation import ewa_weights
from graphon_lab.estimation import FitConfig
from graphon_lab.synthesis import apply_missingness
from graphon_lab.io import noise_from_json


def frobenius_cost(H, model):
    """Slow reference for the least-squares objective ``||H - Z_r Q Z_c^T||_F^2``:
    the squared Frobenius distance from H to the materialized model mean."""
    diff = np.asarray(H, dtype=np.float64) - induced_mean(model)
    return float((diff * diff).sum())


def model(Q, rows, cols):
    Q = np.asarray(Q, dtype=float)
    zr = AssignmentMatrix(len(rows), Q.shape[0], np.asarray(rows))
    zc = AssignmentMatrix(len(cols), Q.shape[1], np.asarray(cols))
    return BlockModel(Q, zr, zc)


class TestInducedMean:
    def test_single_block(self):
        m = model([[1.0]], [0, 0], [0, 0])
        assert np.array_equal(induced_mean(m), np.ones((2, 2)))

    def test_identity_assignment(self):
        m = model(np.eye(2), [0, 1], [0, 1])
        assert np.array_equal(induced_mean(m), np.eye(2))

    def test_direct_lookup(self):
        m = model([[0.2, 0.8], [0.5, 0.1]], [0, 0, 1], [1, 0])
        expected = [[0.8, 0.2], [0.8, 0.2], [0.1, 0.5]]
        assert np.allclose(induced_mean(m), expected)

    def test_shape_mismatch_rejected(self):
        zr = AssignmentMatrix(3, 2, [0, 0, 1])
        zc = AssignmentMatrix(2, 2, [0, 1])
        with pytest.raises(DimensionMismatch):
            BlockModel(np.zeros((3, 2)), zr, zc)

    def test_at_most_KL_distinct_values(self):
        rng = np.random.default_rng(3)
        m = model(rng.random((3, 4)), rng.integers(0, 3, 20), rng.integers(0, 4, 11))
        assert len(np.unique(induced_mean(m))) <= 12


def assign(K, labels):
    return AssignmentMatrix(len(labels), K, np.asarray(labels))


def means(H, zr, zc):
    return block_means(block_sums(H, zr, zc), zr, zc)


class TestBlockMeans:
    def test_identity_assignment_returns_H(self):
        H = np.eye(2)
        assert np.array_equal(means(H, assign(2, [0, 1]), assign(2, [0, 1])), H)

    def test_single_block_grand_mean(self):
        Q = means(np.eye(2), assign(1, [0, 0]), assign(1, [0, 0]))
        assert Q == pytest.approx(np.array([[0.5]]))

    def test_direct_averages(self):
        H = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        Q = means(H, assign(2, [0, 0, 1]), assign(2, [0, 1]))
        assert np.array_equal(Q, np.array([[2.0, 3.0], [5.0, 6.0]]))

    def test_empty_block_is_zero(self):
        # row cluster 1 and column cluster 1 are empty; every block that
        # touches one of them is 0, the others hold their exact means
        H = np.arange(12, dtype=float).reshape(3, 4)
        Q = means(H, assign(3, [0, 0, 2]), assign(3, [0, 2, 2, 2]))
        want = np.array([[2.0, 0.0, 4.0], [0.0, 0.0, 0.0], [8.0, 0.0, 10.0]])
        assert np.array_equal(Q, want)

    def test_optimality_under_perturbation(self):
        rng = np.random.default_rng(4)
        H = rng.random((10, 8))
        zr, zc = assign(3, rng.integers(0, 3, 10)), assign(2, rng.integers(0, 2, 8))
        Q = means(H, zr, zc)
        base = frobenius_cost(H, BlockModel(Q, zr, zc))
        for _ in range(25):
            delta = rng.normal(scale=0.05, size=Q.shape)
            assert frobenius_cost(H, BlockModel(Q + delta, zr, zc)) >= base - 1e-12


class TestFrobeniusCost:
    def test_exact_fit_is_zero(self):
        rng = np.random.default_rng(0)
        m = model(rng.random((2, 3)), rng.integers(0, 2, 6), rng.integers(0, 3, 5))
        assert frobenius_cost(induced_mean(m), m) == 0.0

    def test_single_block_half(self):
        m = model([[0.5]], [0, 0], [0, 0])
        assert frobenius_cost(np.eye(2), m) == pytest.approx(1.0)

    def test_diagonal_exact(self):
        m = model(np.eye(2), [0, 1], [0, 1])
        assert frobenius_cost(np.eye(2), m) == 0.0

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(1)
        H = rng.random((8, 6))
        Q = rng.random((3, 2))
        rows = rng.integers(0, 3, 8)
        cols = rng.integers(0, 2, 6)
        base = frobenius_cost(H, model(Q, rows, cols))
        perm_r = np.array([2, 0, 1])
        perm_c = np.array([1, 0])
        permuted = model(
            Q[np.argsort(perm_r)][:, np.argsort(perm_c)], perm_r[rows], perm_c[cols]
        )
        assert frobenius_cost(H, permuted) == pytest.approx(base, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=4), st.integers(0, 2**31))
def test_refit_idempotence(K, L, seed):
    rng = np.random.default_rng(seed)
    n, m = K + 3, L + 2
    mod = model(rng.random((K, L)), rng.integers(0, K, n), rng.integers(0, L, m))
    assert frobenius_cost(induced_mean(mod), mod) == 0.0


def test_block_algebra_matches_materialized():
    rng = np.random.default_rng(5)
    mod = model(rng.random((3, 4)), rng.integers(0, 3, 15), rng.integers(0, 4, 9))
    M = rng.random((15, 9))
    theta = induced_mean(mod)
    assert block_inner(M, mod) == pytest.approx((M * theta).sum(), rel=1e-12)
    assert induced_sq_norm(mod) == pytest.approx((theta * theta).sum(), rel=1e-12)


def _group_sums_loop(H, labels, K, axis):
    """Reference group sums: one boolean-mask sum per label."""
    H = np.asarray(H, dtype=np.float64)
    if axis == 0:
        out = np.zeros((K, H.shape[1]))
        for k in range(K):
            rows = labels == k
            if rows.any():
                out[k] = H[rows].sum(axis=0)
        return out
    out = np.zeros((H.shape[0], K))
    for k in range(K):
        cols = labels == k
        if cols.any():
            out[:, k] = H[:, cols].sum(axis=1)
    return out


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("K", [1, 3, 7])
def test_group_sums_match_label_loop(axis, K):
    rng = np.random.default_rng(11 + K)
    n = (13, 9)[axis]
    labels = rng.integers(0, min(K, 3), n)  # K = 7 leaves clusters 3..6 empty
    shape = (13, 9)
    counts = rng.integers(0, 50, shape).astype(float)
    assert np.array_equal(
        group_sums(counts, labels, K, axis), _group_sums_loop(counts, labels, K, axis)
    )
    floats = rng.normal(size=shape)
    got = group_sums(floats, labels, K, axis)
    want = _group_sums_loop(floats, labels, K, axis)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    if K == 7:
        assert not np.take(got, range(3, 7), axis=axis).any()


class TestAssignmentMatrix:
    def test_counts_and_min_size(self):
        z = AssignmentMatrix(5, 3, [0, 0, 1, 1, 1])
        assert z.counts().tolist() == [2, 3, 0]
        assert z.counts().min() == 0

    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            AssignmentMatrix(3, 2, [0, 1, 2])

    @pytest.mark.parametrize(
        "labels, got",
        [([True, False, True], "True at index 0"), (["0", "1", "0"], "'0' at index 0"),
         ([0.7, 1.2, 0], "0.7 at index 0"), ([0, 1, 1.0], "1.0 at index 2"),
         (np.array([0.0, 1.0, 0.0]), "0.0 at index 0"),
         (np.array([0, 1, 0], dtype=bool), "False at index 0"),
         ([0, 10**30, 1], f"{10**30} at index 1"), (np.array([0, 2, 1]), "2 at index 1")],
        ids=["bools", "strings", "floats", "integral-float", "float-array", "bool-array",
             "huge-int", "out-of-range"],
    )
    def test_labels_must_be_integers_in_range_not_cast(self, labels, got):
        # a float, bool or string label used to be cast: [0.7, 1.2, 0] gave [0 1 0]
        with pytest.raises(ValueError, match=rf"^labels must be integers in \[0, 2\), got {got}$"):
            AssignmentMatrix(3, 2, labels)

    @pytest.mark.parametrize("field, value", [("n", 3.0), ("n", 0), ("n", True), ("K", True),
                                              ("K", 2.0), ("K", 0), ("K", "2")])
    def test_sizes_must_be_positive_integers(self, field, value):
        # n=3.0 used to be stored as 3.0, and K=True raised a TypeError
        sizes = {"n": 3, "K": 2, field: value}
        message = f"^{field} must be a positive integer, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            AssignmentMatrix(sizes["n"], sizes["K"], [0, 1, 0])

    def test_integer_labels_of_any_integer_dtype_are_copied_as_int64(self):
        for labels in ([0, 1, 0], (np.int32(0), 1, np.uint8(0)), np.array([0, 1, 0], np.uint16),
                       np.array([0, 1, 0], dtype=object)):
            z = AssignmentMatrix(3, 2, labels)
            assert z.labels.dtype == np.int64 and z.labels.tolist() == [0, 1, 0]

    def test_counts_are_binned_once_and_read_only(self):
        rng = np.random.default_rng(0)
        wide = rng.integers(0, 5, (40, 3))
        cases = [
            AssignmentMatrix(6, 4, [3, 0, 3, 1, 0, 3]),
            AssignmentMatrix(40, 5, wide[:, 1]),  # a strided column
            AssignmentMatrix(20, 6, wide[::2, 0]),  # a strided row slice
        ]
        cases.append(dataclasses.replace(cases[1], K=7))
        cases.append(dataclasses.replace(cases[0], labels=[2, 2, 2, 2, 0, 1]))
        for z in cases:
            counts = z.counts()
            assert counts is z.counts()
            assert np.array_equal(counts, np.bincount(z.labels, minlength=z.K))
            assert counts.shape == (z.K,)
            with pytest.raises(ValueError):
                counts[0] = 99
        assert cases[3].counts().tolist()[5:] == [0, 0]
        assert cases[4].counts().tolist() == [1, 1, 4, 0]


def _ones(x):
    return np.ones((len(x), 1))


def _affine(x):
    return np.column_stack([np.ones_like(x), x])


class TestGraphon:
    def test_piecewise_cell_conventions(self):
        g = Graphon.piecewise_constant(
            [0, 0.5, 1.0], [0, 0.25, 1.0], [[0.1, 0.2], [0.3, 0.4]], rho=0.5
        )
        assert g(0.0, 0.0) == 0.1
        assert g(0.5, 0.0) == 0.3  # boundary opens the next cell
        assert g(1.0, 1.0) == 0.4  # the last cell is closed
        assert (np.diff(g.breaks_u).min(), np.diff(g.breaks_v).min()) == (0.5, 0.25)

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            Graphon.piecewise_constant([0, 1.0], [0, 1.0], [[0.9]], rho=0.5)

    def test_analytic_validated_on_grid(self):
        with pytest.raises(ValueError):
            # 0.5 + u * v
            Graphon.analytic(
                _affine, np.diag([0.5, 1.0]), _affine, rho=0.5, hoelder_alpha=1.0, hoelder_L=1.0
            )

    def test_breaks_must_increase(self):
        with pytest.raises(ValueError):
            Graphon.piecewise_constant([0, 0.5, 0.5, 1], [0, 1], np.zeros((3, 1)), rho=1)

    @pytest.mark.parametrize("rho", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rho_finite_and_positive(self, rho):
        with pytest.raises(ValueError, match="rho"):
            Graphon.piecewise_constant([0, 1.0], [0, 1.0], [[0.0]], rho=rho)
        with pytest.raises(ValueError, match="rho"):
            Graphon.analytic(_ones, [[0.0]], _ones, rho=rho, hoelder_alpha=1.0, hoelder_L=1.0)

    def test_rho_above_max_abs_is_refused(self):
        # rho = 1e200 used to be accepted, and delta_tilde of such a graphon read inf
        message = r"^rho must be a number in \(0, 1e\+100\], got 1e\+200$"
        with pytest.raises(ValueError, match=message):
            Graphon.piecewise_constant([0, 1.0], [0, 1.0], [[0.0]], rho=1e200)
        Graphon.piecewise_constant([0, 1.0], [0, 1.0], [[0.0]], rho=1e100)

    def test_nan_values_rejected(self):
        # every comparison with NaN is false, so a range check alone passes it
        with pytest.raises(ValueError, match="outside"):
            Graphon.piecewise_constant([0, 1.0], [0, 1.0], [[float("nan")]], rho=1.0)
        with pytest.raises(ValueError, match="outside"):
            Graphon.analytic(
                lambda u: np.where(u > 0.5, np.nan, 0.5)[:, None], [[1.0]], _ones,
                rho=1.0, hoelder_alpha=1.0, hoelder_L=1.0,
            )

    @pytest.mark.parametrize("L", [float("nan"), float("inf"), 0.0, None])
    def test_hoelder_L_finite_and_positive(self, L):
        # NaN <= 0 is false, so a sign check alone passes a NaN
        with pytest.raises(ValueError, match="hoelder_L"):
            Graphon.analytic(_ones, [[0.5]], _ones, rho=1.0, hoelder_alpha=1.0, hoelder_L=L)

    @pytest.mark.parametrize("core", [[[0.5]], [0.5], [[0.5, 0.5]]])
    def test_factors_must_fit_the_core(self, core):
        # the validation grid's product fails unless A, S and B line up
        with pytest.raises(ValueError):
            Graphon.analytic(_affine, core, _affine, rho=1.0, hoelder_alpha=1.0, hoelder_L=1.0)

    def test_analytic_grid_is_the_factor_product(self):
        g = Graphon.analytic(
            _affine, [[0.1, 0.2], [0.3, 0.4]], _affine, rho=1.0, hoelder_alpha=1.0, hoelder_L=1.0
        )
        u, v = np.array([0.0, 0.25, 1.0]), np.array([0.5, 0.75])
        want = 0.1 + 0.2 * v[None, :] + 0.3 * u[:, None] + 0.4 * np.outer(u, v)
        np.testing.assert_allclose(g.evaluate_grid(u, v), want, rtol=1e-15)
        assert g(0.25, 0.5) == pytest.approx(0.1 + 0.1 + 0.075 + 0.05, rel=1e-15)


def _read_noise(d, key="noise"):
    """``d`` read back as a noise object at ``key``: the JSON rules live in io."""
    return noise_from_json("spec", {key: d}, key)


class TestNoiseModel:
    @pytest.mark.parametrize(
        "noise,rho,expected",
        [
            (NoiseModel.bernoulli(), 0.6, (0.6, 1 / 3)),
            (NoiseModel.binomial(10), 0.6, (0.06, 1 / 30)),
            (NoiseModel.scaled_poisson(4.0), 0.8, (0.2, 1 / 12)),
            (NoiseModel.gaussian(0.25), 0.6, (0.25, 0.0)),
        ],
    )
    def test_bernstein_params(self, noise, rho, expected):
        s2, b = noise.bernstein_params(rho)
        assert (s2, b) == pytest.approx(expected)

    def test_integral_binomial_N_accepted(self):
        assert NoiseModel.binomial(5.0).N == 5
        assert NoiseModel.binomial(np.int64(5)) == NoiseModel.binomial(5)
        # numpy's binomial sampler takes N up to 2**63 - 1 and overflows above
        big = NoiseModel.binomial(2**63 - 1)
        assert np.random.default_rng(0).binomial(big.N, 0.5) > 0
        for N in (2**63, 1e308):
            with pytest.raises(ValueError, match=f"positive integer N, got {int(N)}"):
                NoiseModel.binomial(N)

    def test_dict_round_trip(self):
        for noise in (
            NoiseModel.bernoulli(),
            NoiseModel.binomial(7),
            NoiseModel.scaled_poisson(2.5),
            NoiseModel.gaussian(0.04),
        ):
            assert _read_noise(noise.to_dict()) == noise

    @pytest.mark.parametrize(
        "d, keys",
        [({"kind": "bernoulli", "N": "x", "bogus": 1}, "noise.N, noise.bogus"),
         ({"kind": "binomial", "N": 3, "T": 2.0}, "noise.T"),
         ({"kind": "scaled_poisson", "T": 2.0, "sigma2": None}, "noise.sigma2"),
         ({"kind": "gaussian", "sigma2": 1.0, "N": 2}, "noise.N")],
    )
    def test_from_dict_refuses_keys_of_other_kinds(self, d, keys):
        # these used to be ignored
        with pytest.raises(ValueError, match=f"'{keys}' (is not a parameter|are not parameters) "
                                             f"of {d['kind']} noise"):
            _read_noise(d)
        with pytest.raises(ValueError, match=keys.replace("noise.", "noise_model.")):
            _read_noise(d, "noise_model")

    def test_parameters_of_other_kinds_rejected(self):
        # so that to_dict writes only keys that from_dict reads back
        for kind, name, value in [("bernoulli", "N", 5), ("binomial", "T", 1.0),
                                  ("gaussian", "T", 2.0), ("scaled_poisson", "sigma2", 1.0)]:
            params = {"binomial": {"N": 2}, "gaussian": {"sigma2": 1.0},
                      "scaled_poisson": {"T": 1.0}}.get(kind, {})
            with pytest.raises(ValueError, match=f"{kind} noise takes no {name}"):
                NoiseModel(kind, **params, **{name: value})

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel.binomial(0)
        # JSON true loads as 1
        for N in (2.5, float("nan"), float("inf"), "3", True):
            with pytest.raises(ValueError, match="N"):
                NoiseModel.binomial(N)
        with pytest.raises(ValueError):
            NoiseModel.gaussian(-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_params_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            NoiseModel.gaussian(value)
        with pytest.raises(ValueError, match="finite"):
            NoiseModel.scaled_poisson(value)
        for d in ({"kind": "gaussian", "sigma2": value}, {"kind": "scaled_poisson", "T": value}):
            with pytest.raises(ValueError, match="finite"):
                _read_noise(d)


@pytest.mark.parametrize("rho", [1e200, "0.6", None, True, float("nan"), float("inf"), 0, -0.5])
def test_check_rho_refuses_what_is_not_a_number_in_its_band(rho):
    with pytest.raises(ValueError, match=r"^rho must be a number in \(0, 1e\+100\], got "):
        check_rho(rho)


@pytest.mark.parametrize("rho", [1e-300, 0.5, 1, np.float64(2.5), 1e100])
def test_check_rho_returns_a_number_in_its_band(rho):
    assert check_rho(rho) is rho


@pytest.mark.parametrize("seed", [0, 7, np.int64(3), 2**70])
def test_check_seed_accepts_non_negative_integers(seed):
    check_seed(seed)


@pytest.mark.parametrize("seed", [-1, np.int64(-2), 1.0, True, "3", None])
def test_check_seed_names_the_parameter(seed):
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got"):
        check_seed(seed)


class TestObservationSet:
    def test_adjusted_inverse_weighting(self):
        H = np.ones((2, 2))
        mask = np.array([[1.0, 0.0], [0.0, 1.0]])
        obs = ObservationSet(H=H, noise=NoiseModel.bernoulli(), mask=mask, p=0.5)
        assert np.array_equal(obs.adjusted(), np.array([[2.0, 0.0], [0.0, 2.0]]))

    def test_adjusted_without_mask_is_H(self):
        H = np.ones((2, 3))
        obs = ObservationSet(H=H, noise=NoiseModel.bernoulli())
        assert obs.adjusted() is obs.H

    def test_mask_needs_p(self):
        with pytest.raises(ValueError):
            ObservationSet(H=np.ones((2, 2)), noise=NoiseModel.bernoulli(), mask=np.ones((2, 2)))


@pytest.mark.parametrize("x, integer, number", [
    (3, True, True), (np.int32(3), True, True), (np.uint64(7), True, True),
    (2.0, False, True), (np.float32(0.5), False, True), (float("nan"), False, True),
    (float("inf"), False, True), (True, False, False), (np.True_, False, False),
    ("1", False, False), (None, False, False), (1j, False, False),
])
def test_the_integer_and_number_tests_refuse_a_bool(x, integer, number):
    assert is_integer(x) is integer
    assert is_number(x) is number


@pytest.mark.parametrize("build", [
    lambda: NoiseModel("gaussian", sigma2=True),
    lambda: NoiseModel("scaled_poisson", T=True),
    lambda: Graphon.piecewise_constant([0, 1.0], [0, 1.0], [[0.5]], rho=True),
    lambda: Graphon.analytic(_ones, np.eye(1), _ones, 1.0, hoelder_alpha=True, hoelder_L=1.0),
    lambda: Graphon.analytic(_ones, np.eye(1), _ones, 1.0, hoelder_alpha=1.0, hoelder_L=True),
    lambda: ewa_weights(np.array([1.0, 2.0]), True),
    lambda: FitConfig(2, 2, tol_gamma=False),
    lambda: ObservationSet(np.zeros((2, 2)), NoiseModel.bernoulli(), mask=np.ones((2, 2)), p=True),
    lambda: apply_missingness(np.ones((2, 2)), True, seed=0),
], ids=["sigma2", "T", "rho", "hoelder_alpha", "hoelder_L", "beta", "tol_gamma",
        "observation_p", "apply_missingness_p"])
def test_a_bool_is_not_a_number_parameter(build):
    # a bool is a numbers.Real, and each of these used to run as the value 1 (0 for False)
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("bad", [float("nan"), True, 1.5, -0.1])
@pytest.mark.parametrize("axis", [0, 1])
def test_observation_set_latents_must_be_numbers_in_the_unit_interval(axis, bad):
    # they used to be stored as given
    latents = [[0.2, 0.4, 0.6], [0.3, 0.9]]
    latents[axis] = latents[axis][:1] + [bad] + latents[axis][2:]
    with pytest.raises(ValueError, match=f"'{'UV'[axis]}' must be numbers in \\[0, 1\\]"):
        ObservationSet(np.zeros((3, 2)), NoiseModel.bernoulli(), latents=tuple(latents))
