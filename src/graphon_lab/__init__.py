"""graphon_lab: bipartite block-model (graphon) estimation toolkit.

Simulates block-structured interaction matrices with latent row/column
positions, fits block models by alternating minimization (with an exact
network-flow step for minimum cluster sizes), aggregates fits across a
hyperparameter grid by exponential weighting, and evaluates errors
against closed-form oracle risks and theoretical rate curves.

The names below load lazily: ``import graphon_lab`` imports no module, and
the first use of a name imports the module that owns it.  Each access
returns the owner's current attribute, so a rebinding in the owner shows
here too.
"""

import importlib

_EXPORTS = {
    "core": (
        "AssignmentMatrix", "BlockModel", "DimensionMismatch", "Graphon", "NoiseModel",
        "ObservationSet", "block_inner", "block_means", "block_sums", "group_sums",
        "induced_mean", "induced_sq_norm",
    ),
    "synthesis": (
        "SynthConfig", "apply_missingness", "build_theta", "make_standard_graphon",
        "sample_latents", "sample_observations", "substream", "synthesize", "true_assignments",
    ),
    "flow": ("InfeasibleSizeError", "min_cost_assignment"),
    "estimation": (
        "FitConfig", "FitReport", "HyperGrid", "default_grid", "fit_grid", "kmeans",
        "lloyd_fit", "spectral_embedding", "spectral_init",
    ),
    "aggregation": (
        "EwaResult", "ewa_aggregate", "ewa_weights", "mixture", "sq_residuals", "temperature",
    ),
    "evaluation": (
        "delta_tilde", "lift_to_graphon", "mse_theta", "oracle_fit", "oracle_risk_bernoulli",
        "pc_l2_sq_distance", "psi_condition", "rate_bound",
    ),
    "experiments": (
        "ExperimentResult", "ExperimentSpec", "emit_outputs", "hoelder_KL_rule",
        "run_ewa_experiment", "run_experiment",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_OWNER))
