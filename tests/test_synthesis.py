import math

import numpy as np
import pytest

from graphon_lab.core import Graphon, NoiseModel
from graphon_lab.synthesis import (
    SynthConfig,
    apply_missingness,
    build_theta,
    make_standard_graphon,
    sample_latents,
    sample_observations,
    synthesize,
    true_assignments,
)


class TestLatents:
    def test_deterministic(self):
        U1, V1 = sample_latents(50, 30, seed=123)
        U2, V2 = sample_latents(50, 30, seed=123)
        assert np.array_equal(U1, U2) and np.array_equal(V1, V2)

    def test_empty_rejected_at_config(self):
        g = make_standard_graphon("cos", K=2, L=2, rho=0.5)
        with pytest.raises(ValueError):
            SynthConfig(0, 5, g, NoiseModel.bernoulli(), seed=0)

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_seed_rejected_at_config(self, seed):
        g = make_standard_graphon("cos", K=2, L=2, rho=0.5)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            SynthConfig(5, 5, g, NoiseModel.bernoulli(), seed=seed)

    def test_uniform_mean(self):
        # 4 standard errors for Uniform[0,1] variance 1/12 at n = 10^4
        U, _ = sample_latents(10**4, 1, seed=42)
        assert abs(U.mean() - 0.5) <= 4 / math.sqrt(12 * 10**4)


class TestBuildTheta:
    def test_constant_graphon(self):
        g = Graphon.piecewise_constant([0, 1.0], [0, 1.0], [[0.3]], rho=0.3)
        theta = build_theta(g, np.linspace(0, 1, 7), np.linspace(0, 1, 5))
        assert np.array_equal(theta, np.full((7, 5), 0.3))

    def test_cos_graphon_corner(self):
        g = make_standard_graphon("cos", K=8, L=8, rho=0.6)
        theta = build_theta(g, [0.0], [0.0])
        assert theta[0, 0] == pytest.approx(0.6)

    def test_latents_out_of_range(self):
        g = make_standard_graphon("cos", K=2, L=2, rho=0.5)
        with pytest.raises(ValueError):
            build_theta(g, [1.5], [0.5])


class TestObservations:
    def test_degenerate_bernoulli(self):
        H0 = sample_observations(np.zeros((4, 5)), NoiseModel.bernoulli(), seed=0)
        H1 = sample_observations(np.ones((4, 5)), NoiseModel.bernoulli(), seed=0)
        assert np.array_equal(H0, np.zeros((4, 5)))
        assert np.array_equal(H1, np.ones((4, 5)))

    def test_binomial_monte_carlo_mean(self):
        theta = np.full((100, 100), 0.3)
        H = sample_observations(theta, NoiseModel.binomial(10), seed=11)
        se = math.sqrt(0.3 * 0.7 / 10) / 100
        assert abs(H.mean() - 0.3) <= 4 * se

    def test_poisson_mean_beyond_the_sampler_names_T(self):
        # numpy refused it with "lam value too large", naming no parameter
        theta = np.full((2, 3), 0.5)
        assert sample_observations(theta, NoiseModel.scaled_poisson(1e18), seed=0).max() > 0
        with pytest.raises(ValueError, match="scaled_poisson T = 1e\\+308"):
            sample_observations(theta, NoiseModel.scaled_poisson(1e308), seed=0)
        # T * theta past the float range used to raise an overflow
        # RuntimeWarning before the refusal (synth --rho 1e308 --noise-param 1e308)
        with pytest.raises(ValueError, match="scaled_poisson T = 1e\\+308"):
            sample_observations(np.full((2, 3), 6e307), NoiseModel.scaled_poisson(1e308), seed=0)

    def test_bernoulli_means_above_one_name_rho(self):
        g = make_standard_graphon("cos", K=2, L=2, rho=2.5)
        with pytest.raises(ValueError, match="rho = 2.5"):
            synthesize(SynthConfig(6, 4, g, NoiseModel.bernoulli(), seed=0))

    def test_mean_range_checked(self):
        with pytest.raises(ValueError):
            sample_observations(np.full((2, 2), 1.5), NoiseModel.bernoulli(), seed=0)
        with pytest.raises(ValueError):
            sample_observations(np.full((2, 2), -0.1), NoiseModel.scaled_poisson(2.0), seed=0)

    @pytest.mark.parametrize(
        "noise",
        [
            NoiseModel.bernoulli(),
            NoiseModel.binomial(5),
            NoiseModel.scaled_poisson(3.0),
            NoiseModel.gaussian(0.04),
        ],
    )
    def test_unbiased_and_variance_ceiling(self, noise):
        rho = 0.6
        g = make_standard_graphon("rand", K=3, L=3, rho=rho, seed=5)
        U, V = sample_latents(20, 20, seed=5)
        theta = build_theta(g, U, V)
        R = 2000
        draws = np.stack(
            [sample_observations(theta, noise, seed=1000 + r) for r in range(R)]
        )
        mean = draws.mean(axis=0)
        if noise.kind == "gaussian":
            per_entry_var = np.full_like(theta, noise.sigma2)
        elif noise.kind == "bernoulli":
            per_entry_var = theta * (1 - theta)
        elif noise.kind == "binomial":
            per_entry_var = theta * (1 - theta) / noise.N
        else:
            per_entry_var = theta / noise.T
        assert (np.abs(mean - theta) <= 5 * np.sqrt(per_entry_var / R) + 1e-12).all()
        declared, _ = noise.bernstein_params(rho)
        sample_var = draws.var(axis=0, ddof=1)
        slack = 5 * declared * math.sqrt(2 / (R - 1))
        assert sample_var.max() <= declared + slack


class TestMissingness:
    def test_p_one_identity(self):
        H = np.random.default_rng(0).random((6, 7))
        H_adj, mask = apply_missingness(H, 1.0, seed=3)
        assert np.array_equal(mask, np.ones_like(H))
        assert np.array_equal(H_adj, H)

    def test_half_scaling(self):
        H = np.ones((40, 40))
        H_adj, mask = apply_missingness(H, 0.5, seed=3)
        assert set(np.unique(H_adj)) <= {0.0, 2.0}
        assert np.array_equal(H_adj, 2.0 * mask)

    def test_mean_preserved(self):
        H = np.ones((100, 100))
        H_adj, _ = apply_missingness(H, 0.5, seed=9)
        # Var(adjusted entry) = (1 - p)/p = 1
        assert abs(H_adj.mean() - 1.0) <= 4 * math.sqrt(1.0 / 10**4)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            apply_missingness(np.ones((2, 2)), 0.0, seed=0)
        with pytest.raises(ValueError):
            apply_missingness(np.ones((2, 2)), 1.5, seed=0)


class TestStandardGraphons:
    def test_cos_first_cell_is_rho(self):
        g = make_standard_graphon("cos", K=4, L=4, rho=0.7)
        assert g.values[0, 0] == pytest.approx(0.7)

    def test_cos_cell_values_alternate(self):
        g = make_standard_graphon("cos", K=4, L=4, rho=0.9)
        kk, ll = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
        expected = np.where((kk * ll) % 2 == 0, 0.9, 0.3)
        assert np.allclose(g.values, expected)

    def test_hoelder_center(self):
        g = make_standard_graphon("hoelder", rho=0.9)
        assert g(0.5, 0.5) == pytest.approx(0.9)
        assert g.hoelder_alpha == 1.0

    def test_hoelder_factors_give_the_bump(self):
        # the product of the rank-2 factors rounds differently from the
        # closed form, in the last few bits only
        rho = 0.7
        g = make_standard_graphon("hoelder", rho=rho)
        u, v = np.random.default_rng(4).random((2, 300))
        want = rho / 2 * (1 + np.exp(-10 * ((u[:, None] - 0.5) ** 2 + (v[None, :] - 0.5) ** 2)))
        np.testing.assert_allclose(g.evaluate_grid(u, v), want, rtol=1e-15, atol=0)

    def test_rand_deterministic(self):
        g1 = make_standard_graphon("rand", K=3, L=2, rho=0.4, seed=8)
        g2 = make_standard_graphon("rand", K=3, L=2, rho=0.4, seed=8)
        assert np.array_equal(g1.values, g2.values)
        assert g1.values.max() <= 0.4

    @pytest.mark.parametrize("kind", ["rand", "cos"])
    @pytest.mark.parametrize("name, value", [("K", 0), ("L", -1), ("K", 2.5)])
    def test_cell_counts_must_be_positive_integers(self, kind, name, value):
        params = {"K": 2, "L": 2, "rho": 0.5, **({"seed": 0} if kind == "rand" else {})}
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            make_standard_graphon(kind, **{**params, name: value})

    def test_rand_seed_must_be_non_negative(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            make_standard_graphon("rand", K=2, L=2, rho=0.5, seed=-1)

    def test_true_assignments_bins(self):
        g = make_standard_graphon("cos", K=4, L=2, rho=0.5)
        r, c = true_assignments(g, [0.0, 0.26, 0.99], [0.49, 0.51])
        assert r.tolist() == [0, 1, 3]
        assert c.tolist() == [0, 1]


class TestSynthesize:
    def _config(self, **kw):
        g = make_standard_graphon("rand", K=3, L=3, rho=0.6, seed=2)
        defaults = dict(
            n=25, m=20, graphon=g, noise=NoiseModel.bernoulli(), seed=77
        )
        defaults.update(kw)
        return SynthConfig(**defaults)

    def test_bit_identical_reruns(self):
        a = synthesize(self._config(with_second_copy=True, missing_p=0.5))
        b = synthesize(self._config(with_second_copy=True, missing_p=0.5))
        assert np.array_equal(a.H, b.H)
        assert np.array_equal(a.H_prime, b.H_prime)
        assert np.array_equal(a.mask, b.mask)
        assert np.array_equal(a.theta_star, b.theta_star)
        assert np.array_equal(a.latents[0], b.latents[0])

    def test_streams_are_independent(self):
        plain = synthesize(self._config())
        extras = synthesize(self._config(with_second_copy=True, missing_p=0.7))
        assert np.array_equal(plain.H, extras.H)
        assert np.array_equal(plain.theta_star, extras.theta_star)
        assert not np.array_equal(extras.H, extras.H_prime)

    def test_mask_drawn_without_weighting(self, monkeypatch):
        # synthesize stores the raw H and the mask, so it draws the mask
        # alone: the bytes of apply_missingness's mask, and no weighted copy
        import graphon_lab.synthesis as synthesis

        obs = synthesize(self._config(missing_p=0.3))
        assert obs.mask.tobytes() == apply_missingness(obs.H, 0.3, seed=77)[1].tobytes()
        monkeypatch.setattr(synthesis, "apply_missingness",
                            lambda *a, **k: pytest.fail("weighted matrix built"))
        assert synthesize(self._config(missing_p=0.3)).mask.tobytes() == obs.mask.tobytes()

    def test_gaussian_out_of_band_warns(self):
        # declared sup-norm bound rho=0.5 but means sit at 0.6: allowed for
        # the gaussian model, flagged with a warning instead of rejected
        bump = Graphon(
            rho=0.5,
            family="analytic",
            row_factor=lambda u: np.ones((len(u), 1)),
            core=[[0.6]],
            col_factor=lambda v: np.ones((len(v), 1)),
            hoelder_alpha=1.0,
            hoelder_L=1.0,
            validate=False,
        )
        cfg = SynthConfig(5, 5, bump, NoiseModel.gaussian(0.01), seed=1)
        with pytest.warns(UserWarning):
            synthesize(cfg)
