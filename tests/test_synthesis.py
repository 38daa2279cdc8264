import math
import re

import numpy as np
import pytest

from graphon_lab import estimation, synthesis
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

    @pytest.mark.parametrize("name", ["n", "m"])
    @pytest.mark.parametrize("value", [2.5, True])
    def test_sizes_must_be_positive_integers(self, name, value):
        # numpy used to raise a TypeError for 2.5, and True ran as 1
        g = make_standard_graphon("cos", K=2, L=2, rho=0.5)
        sizes = {"n": 5, "m": 4, name: value}
        with pytest.raises(ValueError, match=f"{name} must be a positive integer, got {value!r}"):
            SynthConfig(graphon=g, noise=NoiseModel.bernoulli(), seed=0, **sizes)

    @pytest.mark.parametrize("n, m", [(2 ** 14, 2 ** 13 + 1), (10 ** 6, 10 ** 6)])
    def test_more_than_2_to_the_27_entries_are_refused(self, n, m):
        # a config allocates nothing, so this refusal comes before any draw
        g = make_standard_graphon("cos", K=2, L=2, rho=0.5)
        with pytest.raises(ValueError, match=rf"an observation set has at most 2\^27 entries "
                                             rf"\(n \* m\), got n={n}, m={m}"):
            SynthConfig(n, m, g, NoiseModel.bernoulli(), seed=0)
        with pytest.raises(ValueError, match=f"got n={n}, m={m}"):
            sample_latents(n, m, seed=0)
        assert SynthConfig(2 ** 14, 2 ** 13, g, NoiseModel.bernoulli(), seed=0).n == 2 ** 14

    def test_missing_p_true_is_refused(self):
        g = make_standard_graphon("cos", K=2, L=2, rho=0.5)
        with pytest.raises(ValueError, match="missing_p must lie in \\(0, 1\\], got True"):
            SynthConfig(5, 4, g, NoiseModel.bernoulli(), seed=0, missing_p=True)

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

    @pytest.mark.parametrize("bad", [float("nan"), True, 1.5, -0.1])
    @pytest.mark.parametrize("name", ["U", "V"])
    def test_latents_must_be_numbers_in_the_unit_interval(self, name, bad):
        # NaN and True used to be binned into a cell, giving a theta row or column
        g = make_standard_graphon("cos", K=2, L=2, rho=0.5)
        latents = {"U": [0.2, 0.7], "V": [0.4, 0.9, 0.1], name: [0.3, bad]}
        with pytest.raises(ValueError, match=f"latent positions '{name}' must be numbers in "
                                             f"\\[0, 1\\], got {bad!r} at index 1"):
            build_theta(g, latents["U"], latents["V"])


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

    @pytest.mark.parametrize("p", [0.0, 1.5, -0.5, float("nan"), True, "0.5", None])
    def test_a_refused_p_is_named_with_its_value(self, p):
        # the refusal used to read "p must lie in (0, 1]", without the value
        message = rf"^p must lie in \(0, 1\], got {re.escape(repr(p))}$"
        with pytest.raises(ValueError, match=message):
            apply_missingness(np.ones((2, 2)), p, seed=0)


# every function that draws from a seed, called with that seed
_SEEDED = {
    "substream": lambda seed: synthesis.substream(seed, 1, 2),
    "cell_seed": lambda seed: synthesis.cell_seed(seed, 3),
    "sample_latents": lambda seed: sample_latents(5, 5, seed),
    "sample_observations": lambda seed: sample_observations(
        np.full((3, 2), 0.5), NoiseModel.bernoulli(), seed),
    "apply_missingness": lambda seed: apply_missingness(np.ones((3, 2)), 0.5, seed),
    "spawned_seeds": lambda seed: estimation._spawned_seeds(seed, 7, 1),
}


class TestSeeds:
    @pytest.mark.parametrize("seed", [1.5, 2.7, True, -1])
    @pytest.mark.parametrize("draw", list(_SEEDED), ids=list(_SEEDED))
    def test_a_seed_that_is_not_a_non_negative_integer_is_refused(self, draw, seed):
        # int() used to truncate 1.5 and read True as 1, and numpy refused -1
        # with "expected non-negative integer", naming no seed
        message = rf"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"
        with pytest.raises(ValueError, match=message):
            _SEEDED[draw](seed)

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 - 1, np.int64(7), np.uint32(9)])
    @pytest.mark.parametrize("key", [(), (4,), (1, 2, 3)])
    def test_valid_seeds_draw_as_a_seed_sequence_built_directly(self, seed, key):
        want = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
        assert (synthesis.substream(seed, *key).random(4).tobytes()
                == np.random.Generator(np.random.Philox(want)).random(4).tobytes())
        state = want.generate_state(1, dtype=np.uint64)[0]
        assert synthesis.cell_seed(seed, *key) == int(state >> np.uint64(1))
        assert estimation._spawned_seeds(seed, 7, 3) == [
            int(s) for s in np.random.SeedSequence(entropy=int(seed), spawn_key=(7,))
            .generate_state(3, dtype=np.uint64)]


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
    @pytest.mark.parametrize("name, value", [("K", 0), ("L", -1), ("K", 2.5), ("K", True),
                                             ("L", True)])
    def test_cell_counts_must_be_positive_integers(self, kind, name, value):
        params = {"K": 2, "L": 2, "rho": 0.5, **({"seed": 0} if kind == "rand" else {})}
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            make_standard_graphon(kind, **{**params, name: value})

    @pytest.mark.parametrize("kind", ["rand", "cos", "hoelder"])
    @pytest.mark.parametrize("rho", ["0.6", None, True, 1e200])
    def test_rho_is_checked_before_it_is_used(self, kind, rho):
        # a string rho used to reach numpy as a TypeError
        params = {"rho": rho, **({"K": 2, "L": 2} if kind != "hoelder" else {}),
                  **({"seed": 0} if kind == "rand" else {})}
        with pytest.raises(ValueError, match=rf"^rho must be a number in \(0, 1e\+100\], got "
                                             rf"{re.escape(repr(rho))}$"):
            make_standard_graphon(kind, **params)

    @pytest.mark.parametrize("kind", ["rand", "cos"])
    def test_more_than_2_to_the_24_cells_are_refused_before_allocating(self, kind, monkeypatch):
        # the stand-ins stop the construction where it would draw or lay out the values
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(synthesis, "substream", reached)
        monkeypatch.setattr(np, "meshgrid", reached)
        params = {"rho": 0.5, **({"seed": 0} if kind == "rand" else {})}
        with pytest.raises(ValueError, match=r"at most 2\^24 cells \(K \* L\), got K=4097, L=4096"):
            make_standard_graphon(kind, K=4097, L=4096, **params)
        with pytest.raises(ValueError, match="got K=100000, L=100000"):
            make_standard_graphon(kind, K=100000, L=100000, **params)
        with pytest.raises(Reached):
            make_standard_graphon(kind, K=4096, L=4096, **params)

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
