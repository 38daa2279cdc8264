"""Fitting block models by alternating minimization.

The squared-error objective over block-constant matrices is minimized one
coordinate at a time: block averages for the value matrix, nearest block
row/column for the assignments.  Each step is an exact minimization, so
the cost can only go down.
"""

import numpy as np

from graphon_lab import (
    FitConfig,
    NoiseModel,
    SynthConfig,
    induced_mean,
    lloyd_fit,
    make_standard_graphon,
    mse_theta,
    synthesize,
)

graphon = make_standard_graphon("rand", K=3, L=3, rho=0.8, seed=5)
obs = synthesize(SynthConfig(n=150, m=100, graphon=graphon,
                             noise=NoiseModel.bernoulli(), seed=11))

# Spectral initialization: cluster the leading singular vectors of a
# degree-trimmed copy of H, then alternate.
report = lloyd_fit(obs.H, FitConfig(K=3, L=3, init="spectral", seed=0))
print("cost trajectory:", [round(c, 1) for c in report.cost_trajectory])
print("iterations:", report.iterations)
print("row cluster sizes:", report.model.z_rows.counts())
print("MSE against the truth:", f"{mse_theta(induced_mean(report.model), obs.theta_star):.2e}")

# Random restarts explore more of the (combinatorial) landscape; the best
# final cost wins.
randomized = lloyd_fit(obs.H, FitConfig(K=3, L=3, init="random", restarts=10, seed=0))
print("\nbest random restart:", randomized.restart_index,
      "cost", round(randomized.final_cost, 1))

# Minimum cluster sizes.  With n0, m0 > 0 the assignment step becomes a
# small transportation problem, solved exactly, so every cluster keeps at
# least the requested number of members.
floored = lloyd_fit(obs.H, FitConfig(K=3, L=3, n0=40, m0=25,
                                     init="spectral", seed=0))
print("\nwith size floors 40/25:")
print("row sizes:", floored.model.z_rows.counts(),
      "col sizes:", floored.model.z_cols.counts())
print("cost paid for the constraint:",
      round(floored.final_cost - report.final_cost, 2))

# The trajectory never increases, floors or not.
for rep in (report, randomized, floored):
    assert (np.diff(rep.cost_trajectory) <= 1e-9).all()
print("\nall trajectories non-increasing")

# The final cost is the squared error of the fit's induced mean.
theta_hat = induced_mean(report.model)
print("final cost is ||H - theta_hat||_F^2:",
      bool(np.isclose(((obs.H - theta_hat) ** 2).sum(), report.final_cost)))
