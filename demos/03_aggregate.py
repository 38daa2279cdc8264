"""Aggregating fits across a hyperparameter grid.

Choosing the number of clusters is the hard part in practice.  Instead of
picking one (K, L), fit a whole geometric grid of configurations on H and
combine them with weights exponential in how well each fit explains an
independent second copy H'.
"""

import numpy as np

from graphon_lab import (
    NoiseModel,
    SynthConfig,
    default_grid,
    ewa_aggregate,
    ewa_weights,
    fit_grid,
    induced_mean,
    make_standard_graphon,
    mse_theta,
    synthesize,
    temperature,
)

n, m = 60, 40
graphon = make_standard_graphon("cos", K=4, L=4, rho=0.7)
obs = synthesize(SynthConfig(n, m, graphon, NoiseModel.bernoulli(), seed=21,
                             with_second_copy=True))

# The default grid: geometric cluster counts and size floors, deduplicated.
grid = default_grid(n, m)
print(f"grid has {len(grid)} entries; cluster counts:",
      sorted({e[0] for e in grid}))

# The temperature depends on the noise family (no rule exists for Poisson).
beta = temperature(NoiseModel.bernoulli())
print("temperature for Bernoulli data:", round(beta, 4))

# Fit every entry (work is shared across entries) and aggregate.
reports = fit_grid(obs.H, grid, seed=1)
fits = [reports[e].model for e in grid]
result = ewa_aggregate(fits, obs.H_prime, beta=beta)

top = np.argsort(result.weights)[::-1][:5]
print("\nheaviest entries (K, L, n0, m0) -> weight:")
for i in top:
    print("  ", grid.entries[i], "->", f"{result.weights[i]:.3f}")

agg_mse = mse_theta(result.aggregate, obs.theta_star)
single = {e: mse_theta(induced_mean(reports[e].model), obs.theta_star) for e in grid}
best_entry = min(single, key=single.get)
print(f"\naggregate MSE {agg_mse:.2e}")
print(f"best single entry {best_entry} with MSE {single[best_entry]:.2e}")

# Temperature limits: tiny beta concentrates on the best-fitting model
# (several grid entries can share one model, hence exactly tied residuals),
# huge beta averages uniformly.
residuals = result.residuals
w_cold = ewa_weights(residuals, 1e-8)
print("\nbeta -> 0 weight on the best residual:",
      round(float(w_cold[residuals == residuals.min()].sum()), 6))
print("beta -> inf spread:",
      float(np.ptp(ewa_weights(residuals, 1e9))))
