"""What ``import graphon_lab`` and each command load.

The package re-exports its public names lazily (PEP 562): importing it
loads no module, a name's first use loads its owner, and every access
returns the owner's current attribute.  Each command loads only the
modules it runs, checked in a fresh interpreter per command.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphon_lab

SRC = Path(__file__).resolve().parents[1] / "src"

EXPORTS = {
    "core": [
        "AssignmentMatrix", "BlockModel", "DimensionMismatch", "Graphon", "NoiseModel",
        "ObservationSet", "block_inner", "block_means", "block_sums", "group_sums",
        "induced_mean", "induced_sq_norm",
    ],
    "synthesis": [
        "SynthConfig", "apply_missingness", "build_theta", "make_standard_graphon",
        "sample_latents", "sample_observations", "substream", "synthesize", "true_assignments",
    ],
    "flow": ["InfeasibleSizeError", "min_cost_assignment"],
    "estimation": [
        "FitConfig", "FitReport", "HyperGrid", "default_grid", "fit_grid", "kmeans",
        "lloyd_fit", "spectral_embedding", "spectral_init",
    ],
    "aggregation": [
        "EwaResult", "ewa_aggregate", "ewa_weights", "mixture", "sq_residuals", "temperature",
    ],
    "evaluation": [
        "delta_tilde", "lift_to_graphon", "mse_theta", "oracle_fit", "oracle_risk_bernoulli",
        "pc_l2_sq_distance", "psi_condition", "rate_bound",
    ],
    "experiments": [
        "ExperimentResult", "ExperimentSpec", "emit_outputs", "hoelder_KL_rule",
        "run_ewa_experiment", "run_experiment",
    ],
}
OWNED = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_the_package_exports_exactly_its_52_names():
    assert len(OWNED) == 52
    assert sorted(graphon_lab.__all__) == sorted(name for _, name in OWNED)
    assert set(graphon_lab.__all__) <= set(dir(graphon_lab))


@pytest.mark.parametrize("module, name", OWNED, ids=[name for _, name in OWNED])
def test_a_name_is_its_owners_attribute(module, name):
    owner = importlib.import_module(f"graphon_lab.{module}")
    assert getattr(graphon_lab, name) is getattr(owner, name)


def test_a_rebinding_in_the_owner_shows_through_the_package(monkeypatch):
    # the tracer and tests rebind module attributes: nothing is cached in the package
    from graphon_lab import estimation

    stand_in = object()
    monkeypatch.setattr(estimation, "fit_grid", stand_in)
    assert graphon_lab.fit_grid is stand_in
    monkeypatch.undo()
    assert graphon_lab.fit_grid is estimation.fit_grid is not stand_in
    assert "fit_grid" not in vars(graphon_lab)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from graphon_lab import *", namespace)
    for module, name in OWNED:
        assert namespace[name] is getattr(importlib.import_module(f"graphon_lab.{module}"), name)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        graphon_lab.no_such_name
    assert not hasattr(graphon_lab, "_check_counts")
    with pytest.raises(ImportError):
        exec("from graphon_lab import no_such_name", {})


# ---------------------------------------------------------------------------
# module sets, each in a fresh interpreter
# ---------------------------------------------------------------------------

_REPORT = """
import json, sys
from graphon_lab.cli import main
rc = main(sys.argv[1:])
print(json.dumps({"rc": rc, "modules": sorted(m for m in sys.modules
                                              if m.split(".")[0] == "graphon_lab"),
                  "logging": "logging" in sys.modules}))
"""

_BASE = ["cli", "core", "io", "synthesis"]
# what each command may load, beyond the package itself
LOADS = {
    "synth": _BASE,
    "fit": _BASE + ["estimation", "flow"],
    "eval": _BASE + ["evaluation"],
    "ewa": _BASE + ["aggregation", "estimation", "flow"],
    "experiment": _BASE + ["aggregation", "estimation", "evaluation", "experiments", "flow",
                           "svg"],
}


def _loaded(code, *argv):
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_graphon_lab_loads_no_module():
    got = _loaded("import json, sys, graphon_lab; print(json.dumps(sorted(m for m in "
                  "sys.modules if m.split('.')[0] == 'graphon_lab')))")
    assert got == ["graphon_lab"]


@pytest.fixture(scope="module")
def round_trip(tmp_path_factory):
    """Each command's run on a small round trip: its exit code, the package
    modules it loaded, and whether it loaded ``logging``."""
    d = tmp_path_factory.mktemp("loads")
    data = d / "data"
    (d / "grid.json").write_text(json.dumps({"entries": [[2, 2, 0, 0], [3, 3, 4, 3]]}))
    (d / "spec.json").write_text(json.dumps({
        "name": "loads", "setup": "rand_graphon", "K": 2, "L": 2, "n_values": [16],
        "reps": 1, "restarts": 1}))
    argv = {
        "synth": ["synth", "--n", "24", "--m", "18", "--K", "3", "--L", "3", "--seed", "2",
                  "--second-copy", "--outdir", str(data)],
        "fit": ["fit", "--K", "3", "--L", "3", "--input", str(data / "H.csv"),
                "--output", str(d / "model.json")],
        "eval": ["eval", "--model", str(d / "model.json"),
                 "--truth", str(data / "theta_star.csv"), "--latents", str(data / "latents.json"),
                 "--meta", str(data / "meta.json"), "--input", str(data / "H.csv"),
                 "--metrics", "mse,delta,oracle,rate", "--output", str(d / "metrics.json")],
        "ewa": ["ewa", "--grid", str(d / "grid.json"), "--noise", "bernoulli",
                "--input", str(data / "H.csv"), "--input-prime", str(data / "H_prime.csv"),
                "--output", str(d / "ewa.json")],
        "experiment": ["experiment", "--config", str(d / "spec.json"), "--formats", "json,svg",
                       "--outdir", str(d / "experiment")],
    }
    return {cmd: _loaded(_REPORT, *args) for cmd, args in argv.items()}


@pytest.mark.parametrize("command", list(LOADS))
def test_a_command_loads_only_the_modules_it_runs(round_trip, command):
    got = round_trip[command]
    assert got["rc"] == 0
    want = ["graphon_lab"] + [f"graphon_lab.{module}" for module in LOADS[command]]
    assert got["modules"] == sorted(want)
    assert not got["logging"]
