"""graphon_lab: bipartite block-model (graphon) estimation toolkit.

Simulates block-structured interaction matrices with latent row/column
positions, fits block models by alternating minimization (with an exact
network-flow step for minimum cluster sizes), aggregates fits across a
hyperparameter grid by exponential weighting, and evaluates errors
against closed-form oracle risks and theoretical rate curves.
"""

from .core import (
    AssignmentMatrix,
    BlockModel,
    DimensionMismatch,
    Graphon,
    NoiseModel,
    ObservationSet,
    block_inner,
    block_means,
    block_sums,
    frobenius_cost,
    group_sums,
    induced_mean,
    induced_sq_norm,
)
from .synthesis import (
    SynthConfig,
    apply_missingness,
    build_theta,
    make_standard_graphon,
    sample_latents,
    sample_observations,
    substream,
    synthesize,
    true_assignments,
)
from .flow import InfeasibleSizeError, min_cost_assignment
from .estimation import (
    FitConfig,
    FitReport,
    HyperGrid,
    default_grid,
    fit_grid,
    kmeans,
    lloyd_fit,
    spectral_embedding,
    spectral_init,
)
from .aggregation import (
    EwaResult,
    ewa_aggregate,
    ewa_weights,
    mixture,
    sq_residuals,
    temperature,
)
from .evaluation import (
    delta_tilde,
    lift_to_graphon,
    mse_theta,
    oracle_fit,
    oracle_risk_bernoulli,
    pc_l2_sq_distance,
    psi_condition,
    rate_bound,
)
from .experiments import (
    ExperimentResult,
    ExperimentSpec,
    emit_outputs,
    hoelder_KL_rule,
    run_ewa_experiment,
    run_experiment,
)

__version__ = "0.1.0"
