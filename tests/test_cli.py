import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphon_lab import cli
from graphon_lab.aggregation import ewa_aggregate
from graphon_lab.cli import main
from graphon_lab.core import induced_mean
from graphon_lab.evaluation import delta_tilde
from graphon_lab.estimation import HyperGrid, fit_grid
from graphon_lab.io import dump_json, load_json, load_matrix, model_from_dict, save_matrix
from graphon_lab.synthesis import make_standard_graphon

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "data"
    rc = main(
        [
            "synth", "--setup", "cos", "--n", "24", "--m", "18",
            "--K", "2", "--L", "2", "--rho", "0.6", "--seed", "3",
            "--second-copy", "--outdir", str(out),
        ]
    )
    assert rc == 0
    return out


def test_synth_outputs(synth_dir):
    H = load_matrix(synth_dir / "H.csv")
    assert H.shape == (24, 18)
    assert set(np.unique(H)) <= {0.0, 1.0}
    assert load_matrix(synth_dir / "H_prime.csv").shape == (24, 18)
    theta = load_matrix(synth_dir / "theta_star.csv")
    assert theta.max() <= 0.6 + 1e-12
    lat = load_json(synth_dir / "latents.json")
    assert len(lat["U"]) == 24 and len(lat["V"]) == 18
    meta = load_json(synth_dir / "meta.json")
    assert meta["n"] == 24 and meta["m"] == 18
    assert meta["noise_model"] == {"kind": "bernoulli"}
    assert meta["rho"] == 0.6 and meta["seed"] == 3
    assert meta["graphon"]["kind"] == "cos"


def test_synth_deterministic(tmp_path, synth_dir):
    again = tmp_path / "again"
    main(
        [
            "synth", "--setup", "cos", "--n", "24", "--m", "18",
            "--K", "2", "--L", "2", "--rho", "0.6", "--seed", "3",
            "--second-copy", "--outdir", str(again),
        ]
    )
    assert (again / "H.csv").read_text() == (synth_dir / "H.csv").read_text()


def test_fit_eval_round_trip(synth_dir, tmp_path):
    model_path = tmp_path / "model.json"
    rc = main(
        [
            "fit", "--K", "2", "--L", "2", "--init", "spectral", "--seed", "1",
            "--input", str(synth_dir / "H.csv"), "--output", str(model_path),
        ]
    )
    assert rc == 0
    model = load_json(model_path)
    assert len(model["Q"]) == 4
    assert len(model["row_labels"]) == 24
    assert (np.diff(model["cost_trajectory"]) <= 1e-9).all()

    metrics_path = tmp_path / "metrics.json"
    rc = main(
        [
            "eval", "--model", str(model_path),
            "--truth", str(synth_dir / "theta_star.csv"),
            "--latents", str(synth_dir / "latents.json"),
            "--meta", str(synth_dir / "meta.json"),
            "--input", str(synth_dir / "H.csv"),
            "--metrics", "mse,oracle,rate",
            "--output", str(metrics_path),
        ]
    )
    assert rc == 0
    metrics = load_json(metrics_path)
    assert 0 <= metrics["mse_theta"] < 0.25
    assert metrics["oracle_mse"] >= 0
    assert metrics["rate_bound"] > 0


def test_eval_delta_grid_follows_matrix_size(tmp_path):
    # 1200 rows exceed the default grid of 1000 points, which delta_tilde
    # rejects; eval uses twice max(n, m) instead
    d = tmp_path / "big"
    assert main(["synth", "--setup", "hoelder", "--n", "1200", "--m", "600",
                 "--rho", "0.5", "--seed", "4", "--outdir", str(d)]) == 0
    assert main(["fit", "--K", "2", "--L", "2", "--input", str(d / "H.csv"),
                 "--output", str(d / "model.json")]) == 0
    rc = main(
        [
            "eval", "--model", str(d / "model.json"),
            "--truth", str(d / "theta_star.csv"),
            "--latents", str(d / "latents.json"), "--meta", str(d / "meta.json"),
            "--metrics", "delta", "--output", str(d / "metrics.json"),
        ]
    )
    assert rc == 0
    lat = load_json(d / "latents.json")
    theta_hat = induced_mean(model_from_dict(load_json(d / "model.json")))
    want = delta_tilde(
        theta_hat, make_standard_graphon("hoelder", rho=0.5),
        np.asarray(lat["U"]), np.asarray(lat["V"]), grid_res=2400,
    )
    assert load_json(d / "metrics.json")["delta_tilde"] == want


def test_eval_loads_latents_and_graphon_once(synth_dir, tmp_path, monkeypatch):
    # delta and oracle both compare against the true graphon at the latents
    model_path = tmp_path / "model.json"
    assert main(["fit", "--K", "2", "--L", "2", "--input", str(synth_dir / "H.csv"),
                 "--output", str(model_path)]) == 0
    loaded, built = [], []
    load, build = cli.load_json, cli.make_standard_graphon
    monkeypatch.setattr(cli, "load_json", lambda p: loaded.append(Path(p).name) or load(p))
    monkeypatch.setattr(cli, "make_standard_graphon",
                        lambda kind, **params: built.append(kind) or build(kind, **params))
    rc = main(
        [
            "eval", "--model", str(model_path),
            "--truth", str(synth_dir / "theta_star.csv"),
            "--latents", str(synth_dir / "latents.json"),
            "--meta", str(synth_dir / "meta.json"),
            "--input", str(synth_dir / "H.csv"),
            "--metrics", "mse,delta,oracle,rate",
            "--output", str(tmp_path / "metrics.json"),
        ]
    )
    assert rc == 0
    assert sorted(loaded) == ["latents.json", "meta.json", "model.json"]
    assert len(built) == 1
    assert set(load_json(tmp_path / "metrics.json")) == {
        "mse_theta", "delta_tilde", "oracle_mse", "rate_bound"
    }


def test_ewa_subcommand(synth_dir, tmp_path):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"entries": [[2, 2, 0, 0], [3, 3, 0, 0]]}))
    out = tmp_path / "ewa.json"
    rc = main(
        [
            "ewa", "--grid", str(grid_path), "--beta", "auto",
            "--noise", "bernoulli", "--seed", "5",
            "--input", str(synth_dir / "H.csv"),
            "--input-prime", str(synth_dir / "H_prime.csv"),
            "--output", str(out),
        ]
    )
    assert rc == 0
    payload = load_json(out)
    assert payload["beta"] == pytest.approx(8 / 3)
    assert len(payload["weights"]) == 2
    assert sum(payload["weights"]) == pytest.approx(1.0, abs=1e-12)
    agg = load_matrix(payload["aggregate_path"])
    assert agg.shape == (24, 18)
    grid = HyperGrid(((2, 2, 0, 0), (3, 3, 0, 0)))
    reports = fit_grid(load_matrix(synth_dir / "H.csv"), grid, seed=5)
    expected = ewa_aggregate(
        [reports[e].model for e in grid],
        load_matrix(synth_dir / "H_prime.csv"),
        beta=8 / 3,
    )
    assert payload["weights"] == pytest.approx(expected.weights, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("shape", [(1, 18), (24, 1)])
def test_ewa_shape_mismatch_exits_two(synth_dir, tmp_path, shape, monkeypatch):
    # both shapes broadcast against the 24 x 18 fits; the mismatch must be
    # caught before any grid entry is fitted
    def no_fit(*args, **kwargs):
        raise AssertionError("fit_grid ran on a mismatched H'")

    monkeypatch.setattr("graphon_lab.estimation.fit_grid", no_fit)
    bad = tmp_path / "H_prime_bad.csv"
    save_matrix(bad, load_matrix(synth_dir / "H_prime.csv")[: shape[0], : shape[1]])
    rc = main(
        [
            "ewa", "--grid", "default", "--beta", "1.0",
            "--input", str(synth_dir / "H.csv"),
            "--input-prime", str(bad),
            "--output", str(tmp_path / "e.json"),
        ]
    )
    assert rc == 2


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("command", ["fit", "ewa"])
def test_non_finite_input_exits_two(synth_dir, tmp_path, command, bad):
    H = load_matrix(synth_dir / "H.csv")
    H[2, 5] = float(bad)
    path = tmp_path / "H_bad.csv"
    save_matrix(path, H)
    if command == "fit":
        argv = ["fit", "--K", "2", "--L", "2", "--input", str(path),
                "--output", str(tmp_path / "m.json")]
    else:
        argv = ["ewa", "--grid", "default", "--beta", "1.0", "--input", str(path),
                "--input-prime", str(synth_dir / "H_prime.csv"),
                "--output", str(tmp_path / "e.json")]
    assert main(argv) == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_matrix_rejects_non_finite(tmp_path, bad):
    path = tmp_path / "M.csv"
    path.write_text(f"1,2,3\n4,{bad},6\n")
    with pytest.raises(ValueError, match="M.csv"):
        load_matrix(path)


def _typed(x):
    """A JSON value with every float as its hex string and every leaf typed."""
    if isinstance(x, dict):
        return {k: _typed(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_typed(v) for v in x]
    return type(x).__name__, x.hex() if isinstance(x, float) else x


def test_dump_json_round_trips_every_value(tmp_path):
    rng = np.random.default_rng(5)
    floats = rng.normal(size=(3, 4)) * 10.0 ** rng.integers(-300, 300, (3, 4))
    nan, inf = float("nan"), float("inf")
    obj = {
        "nan": nan, "inf": inf, "ninf": -np.inf, "zero": -0.0, "one": 1.0,
        "f32": np.float32(0.1), "f64": np.float64(1 / 3), "i64": np.int64(2**62 + 1),
        "floats": floats, "ints": np.arange(6, dtype=np.int64).reshape(2, 3),
        "nested": [[np.float32(2.5), np.nan], {"deep": np.array([-0.0, 5e-324, -inf])}],
        "flag": np.bool_(True), "none": None,
    }
    want = {
        "nan": nan, "inf": inf, "ninf": -inf, "zero": -0.0, "one": 1.0,
        "f32": float(np.float32(0.1)), "f64": 1 / 3, "i64": 2**62 + 1,
        "floats": [[float(v) for v in row] for row in floats], "ints": [[0, 1, 2], [3, 4, 5]],
        "nested": [[2.5, nan], {"deep": [-0.0, 5e-324, -inf]}],
        "flag": True, "none": None,
    }
    path = tmp_path / "values.json"
    dump_json(path, obj)
    assert _typed(load_json(path)) == _typed(want)


@pytest.mark.parametrize(
    "argv",
    [
        ["--setup", "rand", "--n", "20", "--m", "10", "--K", "2", "--L", "2", "--rho", "nan"],
        ["--setup", "hoelder", "--n", "20", "--m", "10", "--rho", "inf"],
        ["--setup", "cos", "--n", "20", "--m", "10", "--noise", "gaussian",
         "--noise-param", "inf"],
        ["--setup", "cos", "--n", "20", "--m", "10", "--noise", "scaled_poisson",
         "--noise-param", "nan"],
        # int(2.5) used to make this N = 2
        ["--setup", "cos", "--n", "20", "--m", "10", "--noise", "binomial",
         "--noise-param", "2.5"],
        # numpy's binomial sampler raised OverflowError from N = 2**63 on
        ["--setup", "cos", "--n", "20", "--m", "10", "--noise", "binomial",
         "--noise-param", "1e308"],
    ],
    ids=["rho-nan", "rho-inf", "sigma2-inf", "T-nan", "N-2.5", "N-1e308"],
)
def test_synth_non_finite_parameter_exits_two(tmp_path, capsys, argv):
    out = tmp_path / "d"
    assert main(["synth", *argv, "--outdir", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--truth", "--input"])
def test_eval_non_finite_exits_two(synth_dir, tmp_path, flag):
    model_path = tmp_path / "model.json"
    assert main(
        ["fit", "--K", "2", "--L", "2", "--input", str(synth_dir / "H.csv"),
         "--output", str(model_path)]
    ) == 0
    files = {"--truth": synth_dir / "theta_star.csv", "--input": synth_dir / "H.csv"}
    M = load_matrix(files[flag])
    M[3, 4] = np.nan
    files[flag] = tmp_path / "bad.csv"
    save_matrix(files[flag], M)
    rc = main(
        [
            "eval", "--model", str(model_path),
            "--truth", str(files["--truth"]), "--input", str(files["--input"]),
            "--latents", str(synth_dir / "latents.json"),
            "--meta", str(synth_dir / "meta.json"),
            "--metrics", "mse,oracle", "--output", str(tmp_path / "metrics.json"),
        ]
    )
    assert rc == 2
    assert not (tmp_path / "metrics.json").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--beta", "inf"], "beta must be finite and positive, got inf"),
        (["--beta", "auto", "--noise", "binomial", "--noise-param", "2.5"],
         "positive integer N, got 2.5"),
        (["--beta", "0"], "beta must be finite and positive, got 0.0"),
        (["--beta", "-1"], "beta must be finite and positive, got -1.0"),
        (["--beta", "nan"], "beta must be finite and positive, got nan"),
        # sigma2 = 1e308 is finite, but its temperature 4 sigma2 is not
        (["--beta", "auto", "--noise", "gaussian", "--noise-param", "1e308"],
         "beta must be finite and positive, got inf"),
        (["--beta", "auto", "--noise", "binomial", "--noise-param", "1e308"],
         "positive integer N, got 1000000"),
    ],
    ids=["beta-inf", "N-2.5", "beta-zero", "beta-negative", "beta-nan", "auto-inf", "N-1e308"],
)
def test_ewa_bad_temperature_exits_two(synth_dir, tmp_path, capsys, monkeypatch, argv,
                                       message):
    # refused before any grid entry is fitted
    monkeypatch.setattr("graphon_lab.estimation.fit_grid",
                        lambda *a, **k: pytest.fail("fit_grid ran"))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"entries": [[2, 2, 0, 0]]}))
    out = tmp_path / "e.json"
    rc = main(
        ["ewa", "--grid", str(grid), *argv, "--input", str(synth_dir / "H.csv"),
         "--input-prime", str(synth_dir / "H_prime.csv"), "--output", str(out)]
    )
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "e_aggregate.csv").exists()


@pytest.mark.parametrize(
    "name, key, metrics",
    [("meta.json", "graphon", "delta"), ("meta.json", "graphon.kind", "delta"),
     ("meta.json", "graphon.params", "oracle"), ("meta.json", "noise_model", "rate"),
     ("meta.json", "noise_model.kind", "rate"),
     ("meta.json", "rho", "rate"), ("latents.json", "U", "delta"),
     ("latents.json", "V", "oracle")],
)
def test_eval_sidecar_without_a_key_exits_two(synth_dir, tmp_path, capsys, name, key, metrics):
    model_path = tmp_path / "model.json"
    assert main(["fit", "--K", "2", "--L", "2", "--input", str(synth_dir / "H.csv"),
                 "--output", str(model_path)]) == 0
    paths = {f: synth_dir / f for f in ("meta.json", "latents.json")}
    sidecar = load_json(paths[name])
    *parents, last = key.split(".")
    holder = sidecar
    for k in parents:
        holder = holder[k]
    del holder[last]
    paths[name] = tmp_path / name
    dump_json(paths[name], sidecar)
    out = tmp_path / "metrics.json"
    rc = main(["eval", "--model", str(model_path), "--truth", str(synth_dir / "theta_star.csv"),
               "--meta", str(paths["meta.json"]), "--latents", str(paths["latents.json"]),
               "--input", str(synth_dir / "H.csv"), "--metrics", metrics, "--output", str(out)])
    assert rc == 2
    assert f"{paths[name]} has no key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["U", "V"])
@pytest.mark.parametrize("value", [7.5, -0.5, True, "a", None, [0.5]])
@pytest.mark.parametrize("metrics", ["delta", "oracle"])
def test_eval_latents_out_of_the_unit_interval_exit_two(synth_dir, tmp_path, capsys, key,
                                                         value, metrics):
    # 7.5, -0.5 and true used to exit 0 with other delta_tilde and oracle
    # figures, and "a" to exit 2 naming neither the file nor the key
    model_path = tmp_path / "model.json"
    assert main(["fit", "--K", "2", "--L", "2", "--input", str(synth_dir / "H.csv"),
                 "--output", str(model_path)]) == 0
    latents = load_json(synth_dir / "latents.json")
    latents[key][0] = value
    lat_path = tmp_path / "latents.json"
    dump_json(lat_path, latents)
    out = tmp_path / "metrics.json"
    rc = main(["eval", "--model", str(model_path), "--truth", str(synth_dir / "theta_star.csv"),
               "--meta", str(synth_dir / "meta.json"), "--latents", str(lat_path),
               "--input", str(synth_dir / "H.csv"), "--metrics", metrics, "--output", str(out)])
    assert rc == 2
    assert (f"{lat_path}: latent positions {key!r} must be numbers in [0, 1], got {value!r} "
            "at index 0") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, metrics, message",
    [("graphon.params", [0.6, 2, 2], "delta", "key 'graphon.params' must be an object"),
     ("noise_model", ["bernoulli"], "rate", "key 'noise_model' must be an object"),
     ("rho", "0.6", "rate", "key 'rho' must be a number, got '0.6'"),
     ("graphon.params.bogus", 1, "delta",
      "key 'graphon.params.bogus' is not a parameter of the cos graphon (rho, K, L)"),
     ("graphon.params.K", 2.5, "oracle", "key 'graphon': K must be a positive integer, got 2.5"),
     ("rho", True, "rate", "key 'rho' must be a number, got True")],
    ids=["params-list", "noise-list", "rho-string", "params-unknown", "K-float", "rho-bool"],
)
def test_eval_meta_of_a_wrong_json_type_exits_two(synth_dir, tmp_path, capsys, key, value,
                                                  metrics, message):
    # these used to exit 1 with a TypeError traceback, or 0 for the unknown key
    model_path = tmp_path / "model.json"
    assert main(["fit", "--K", "2", "--L", "2", "--input", str(synth_dir / "H.csv"),
                 "--output", str(model_path)]) == 0
    meta = load_json(synth_dir / "meta.json")
    *parents, last = key.split(".")
    holder = meta
    for k in parents:
        holder = holder[k]
    holder[last] = value
    meta_path = tmp_path / "meta.json"
    dump_json(meta_path, meta)
    out = tmp_path / "metrics.json"
    rc = main(["eval", "--model", str(model_path), "--truth", str(synth_dir / "theta_star.csv"),
               "--meta", str(meta_path), "--latents", str(synth_dir / "latents.json"),
               "--input", str(synth_dir / "H.csv"), "--metrics", metrics, "--output", str(out)])
    assert rc == 2
    assert f"{meta_path} {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "noise_model, key",
    [({"kind": "bernoulli", "N": "x", "bogus": 1}, "noise_model.N"),
     ({"kind": "binomial", "N": 4, "sigma2": 0.5}, "noise_model.sigma2"),
     ({"kind": "gaussian", "sigma2": 0.5, "T": None}, "noise_model.T")],
    ids=["bernoulli-N", "binomial-sigma2", "gaussian-null-T"],
)
def test_eval_meta_noise_model_with_an_unknown_key_exits_two(synth_dir, tmp_path, capsys,
                                                              noise_model, key):
    # these keys used to be ignored, and the rate bound written with exit 0
    model_path = tmp_path / "model.json"
    assert main(["fit", "--K", "2", "--L", "2", "--input", str(synth_dir / "H.csv"),
                 "--output", str(model_path)]) == 0
    meta = load_json(synth_dir / "meta.json")
    meta["noise_model"] = noise_model
    meta_path = tmp_path / "meta.json"
    dump_json(meta_path, meta)
    out = tmp_path / "metrics.json"
    rc = main(["eval", "--model", str(model_path), "--truth", str(synth_dir / "theta_star.csv"),
               "--meta", str(meta_path), "--metrics", "rate", "--output", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(meta_path) in err and key in err
    assert not out.exists()


def test_experiment_noise_with_an_unknown_key_exits_two(tmp_path, capsys):
    spec = {"name": "bad", "setup": "rand_graphon", "K": 2, "L": 2, "n_values": [16],
            "reps": 1, "noise": {"kind": "bernoulli", "sigma2": "oops"}}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    rc = main(["experiment", "--config", str(tmp_path / "spec.json"),
               "--outdir", str(tmp_path / "out")])
    assert rc == 2
    assert "noise.sigma2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["synth", "fit", "ewa"])
def test_negative_seed_exits_two_naming_the_seed(synth_dir, tmp_path, capsys, command):
    # numpy's SeedSequence refused it with "expected non-negative integer"
    out = tmp_path / "out"
    argv = {
        "synth": ["synth", "--n", "20", "--m", "10", "--outdir", str(out)],
        "fit": ["fit", "--K", "2", "--L", "2", "--input", str(synth_dir / "H.csv"),
                "--output", str(out)],
        "ewa": ["ewa", "--grid", "default", "--beta", "1", "--input", str(synth_dir / "H.csv"),
                "--input-prime", str(synth_dir / "H_prime.csv"), "--output", str(out)],
    }[command]
    assert main(argv + ["--seed", "-1"]) == 2
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--K", "--L"])
def test_synth_zero_clusters_exits_two_naming_the_count(tmp_path, capsys, flag):
    # the rand graphon used to fail on its breakpoints
    rc = main(["synth", "--n", "20", "--m", "10", flag, "0", "--outdir", str(tmp_path / "d")])
    assert rc == 2
    assert f"{flag[2:]} must be a positive integer, got 0" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_fit_nan_tolerance_exits_two(synth_dir, tmp_path, capsys):
    out = tmp_path / "model.json"
    rc = main(["fit", "--K", "2", "--L", "2", "--tol", "nan",
               "--input", str(synth_dir / "H.csv"), "--output", str(out)])
    assert rc == 2
    assert "tol_gamma" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edit", ["drop K", "a number"])
def test_eval_model_without_a_key_exits_two(synth_dir, tmp_path, capsys, edit):
    model_path = tmp_path / "model.json"
    assert main(["fit", "--K", "2", "--L", "2", "--input", str(synth_dir / "H.csv"),
                 "--output", str(model_path)]) == 0
    model = load_json(model_path)
    del model["K"]
    dump_json(model_path, model if edit == "drop K" else 3)
    out = tmp_path / "metrics.json"
    rc = main(["eval", "--model", str(model_path), "--truth", str(synth_dir / "theta_star.csv"),
               "--metrics", "mse", "--output", str(out)])
    assert rc == 2
    assert "model JSON has no key 'K'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, index, value",
    [("row_labels", 3, 1.7), ("row_labels", 3, True), ("col_labels", 0, "1"),
     ("row_labels", 0, -1), ("K", None, 2.9), ("n", None, True), ("Q", 1, float("nan")),
     ("Q", 0, "0.5")],
    ids=["fractional-label", "true-label", "string-label", "negative-label", "fractional-K",
         "true-n", "nan-Q", "string-Q"],
)
def test_eval_model_with_a_bad_value_exits_two(synth_dir, tmp_path, capsys, key, index, value):
    # labels went through np.array(..., dtype=np.int64), which truncates 1.7
    # and reads true and "1" as 1, and K through int(): each gave exit 0 and
    # the MSE of another model; a NaN in Q wrote {"mse_theta": NaN}
    model_path = tmp_path / "model.json"
    assert main(["fit", "--K", "2", "--L", "2", "--input", str(synth_dir / "H.csv"),
                 "--output", str(model_path)]) == 0
    model = load_json(model_path)
    if index is None:
        model[key] = value
    else:
        model[key][index] = value
    dump_json(model_path, model)
    out = tmp_path / "metrics.json"
    rc = main(["eval", "--model", str(model_path), "--truth", str(synth_dir / "theta_star.csv"),
               "--metrics", "mse", "--output", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(model_path) in err and f"key {key!r}" in err
    assert not out.exists()


def test_ewa_non_finite_prime_exits_two_before_fit(synth_dir, tmp_path, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit_grid ran on a non-finite H'")

    monkeypatch.setattr("graphon_lab.estimation.fit_grid", no_fit)
    H_prime = load_matrix(synth_dir / "H_prime.csv")
    H_prime[0, 0] = np.nan
    bad = tmp_path / "H_prime_bad.csv"
    save_matrix(bad, H_prime)
    rc = main(
        [
            "ewa", "--grid", "default", "--beta", "1.0",
            "--input", str(synth_dir / "H.csv"),
            "--input-prime", str(bad),
            "--output", str(tmp_path / "e.json"),
        ]
    )
    assert rc == 2


def test_fit_infeasible_floor_exits_two(synth_dir, tmp_path, capsys):
    # the feasibility check runs once, inside lloyd_fit
    rc = main(
        ["fit", "--K", "4", "--L", "2", "--n0", "50", "--input", str(synth_dir / "H.csv"),
         "--output", str(tmp_path / "model.json")]
    )
    assert rc == 2
    assert "infeasible row sizes" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def test_fit_random_init_fills_every_cluster(tmp_path):
    # 12 rows in 12 clusters with a floor of 1: random draws almost never
    # fill every cluster, and the fit still starts from one that does
    path = tmp_path / "H.csv"
    save_matrix(path, (np.random.default_rng(5).random((12, 8)) < 0.5).astype(np.float64))
    rc = main(
        ["fit", "--K", "12", "--L", "2", "--n0", "1", "--init", "random",
         "--input", str(path), "--output", str(tmp_path / "model.json")]
    )
    assert rc == 0
    assert sorted(load_json(tmp_path / "model.json")["row_labels"]) == list(range(12))


def test_eval_unknown_metric_exits_two(synth_dir, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    assert main(
        ["fit", "--K", "2", "--L", "2", "--input", str(synth_dir / "H.csv"),
         "--output", str(model_path)]
    ) == 0
    rc = main(
        [
            "eval", "--model", str(model_path),
            "--truth", str(synth_dir / "theta_star.csv"),
            "--metrics", "mse,msee", "--output", str(tmp_path / "metrics.json"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "msee" in err and "mse,delta,oracle,rate" in err
    assert not (tmp_path / "metrics.json").exists()


@pytest.mark.parametrize("metrics, wrong", [("mse", "truth"), ("delta", "latents")])
def test_eval_shape_mismatch_exits_two(synth_dir, tmp_path, capsys, metrics, wrong):
    # a one-row truth broadcasts against the 24 x 18 estimate in mse, and a
    # one-element U and V against its rows and columns in delta
    model_path = tmp_path / "model.json"
    assert main(
        ["fit", "--K", "2", "--L", "2", "--input", str(synth_dir / "H.csv"),
         "--output", str(model_path)]
    ) == 0
    truth, latents = synth_dir / "theta_star.csv", synth_dir / "latents.json"
    if wrong == "truth":
        truth = tmp_path / "one_row.csv"
        save_matrix(truth, load_matrix(synth_dir / "theta_star.csv")[:1])
    else:
        lat = load_json(synth_dir / "latents.json")
        latents = tmp_path / "latents.json"
        latents.write_text(json.dumps({"U": lat["U"][:1], "V": lat["V"][:1]}))
    rc = main(
        [
            "eval", "--model", str(model_path), "--truth", str(truth),
            "--latents", str(latents), "--meta", str(synth_dir / "meta.json"),
            "--metrics", metrics, "--output", str(tmp_path / "metrics.json"),
        ]
    )
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "metrics.json").exists()


@pytest.mark.parametrize(
    "entry",
    [[2, 2, True, 4], [2, 2, 4, False], [2, 2, 4], [2, 2, 4, 4, 1], [2, 2, 4.0, 4], 7],
    ids=["true", "false", "three", "five", "float", "scalar"],
)
def test_ewa_grid_entry_not_four_integers_exits_two(synth_dir, tmp_path, capsys,
                                                     monkeypatch, entry):
    # JSON true loads as a bool, which is an int: [2, 2, true, 4] used to run
    # with n0 = 1; [2, 2, 4] failed only when the entry was unpacked
    def no_fit(*args, **kwargs):
        raise AssertionError("fit_grid ran on a malformed grid")

    monkeypatch.setattr("graphon_lab.estimation.fit_grid", no_fit)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"entries": [[3, 3, 0, 0], entry]}))
    rc = main(
        [
            "ewa", "--grid", str(grid), "--beta", "1",
            "--input", str(synth_dir / "H.csv"),
            "--input-prime", str(synth_dir / "H_prime.csv"),
            "--output", str(tmp_path / "e.json"),
        ]
    )
    assert rc == 2
    assert f"grid entry 1 ({entry!r})" in capsys.readouterr().err


def test_ewa_empty_grid_exits_two(synth_dir, tmp_path, capsys, monkeypatch):
    # an empty entry list used to fail inside fit_grid on max() of nothing
    def no_fit(*args, **kwargs):
        raise AssertionError("fit_grid ran on an empty grid")

    monkeypatch.setattr("graphon_lab.estimation.fit_grid", no_fit)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"entries": []}))
    rc = main(
        [
            "ewa", "--grid", str(grid), "--beta", "1",
            "--input", str(synth_dir / "H.csv"),
            "--input-prime", str(synth_dir / "H_prime.csv"),
            "--output", str(tmp_path / "e.json"),
        ]
    )
    assert rc == 2
    assert "a grid needs at least one entry" in capsys.readouterr().err


def test_synth_fit_eval_leave_scipy_unloaded(tmp_path):
    # synth, fit and eval solve no size floor; ewa on this grid solves
    # binding ones (counted through the estimation module's solver name)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"entries": [[3, 3, 8, 6], [2, 2, 0, 0]]}))
    script = textwrap.dedent(
        f"""
        import sys
        import numpy as np
        from graphon_lab import estimation
        from graphon_lab.cli import main

        binding = []
        solve = estimation.min_cost_assignment

        def counted(cost, min_size):
            argmin_sizes = np.bincount(np.argmin(cost, axis=1), minlength=cost.shape[1])
            binding.append(bool(argmin_sizes.min() < min_size))
            return solve(cost, min_size)

        estimation.min_cost_assignment = counted
        d = {str(tmp_path)!r}
        assert main(["synth", "--setup", "cos", "--n", "24", "--m", "18", "--K", "2",
                     "--L", "2", "--seed", "3", "--second-copy", "--outdir", d]) == 0
        assert main(["fit", "--K", "2", "--L", "2", "--input", d + "/H.csv",
                     "--output", d + "/model.json"]) == 0
        assert main(["eval", "--model", d + "/model.json", "--truth", d + "/theta_star.csv",
                     "--latents", d + "/latents.json", "--meta", d + "/meta.json",
                     "--input", d + "/H.csv", "--metrics", "mse,delta,oracle,rate",
                     "--output", d + "/metrics.json"]) == 0
        print("state", "scipy.optimize" in sys.modules, any(binding))
        assert "concurrent.futures.process" not in sys.modules  # pool unused
        assert main(["ewa", "--grid", {str(grid)!r}, "--beta", "auto",
                     "--noise", "bernoulli", "--input", d + "/H.csv",
                     "--input-prime", d + "/H_prime.csv", "--output", d + "/ewa.json"]) == 0
        print("state", "scipy.optimize" in sys.modules, any(binding))
        assert "concurrent.futures.process" not in sys.modules
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    )
    states = [line for line in out.stdout.splitlines() if line.startswith("state ")]
    assert states == ["state False False", "state False True"]


FUZZ_VALUES = ("nan", "inf", "-inf", "0", "-1", "2.5", "1e308")
FUZZ_FLAGS = {
    "synth": ("--n", "--m", "--K", "--L", "--rho", "--noise-param", "--seed", "--missing-p"),
    "fit": ("--K", "--L", "--n0", "--m0", "--restarts", "--max-iters", "--tol", "--seed"),
    "ewa": ("--beta", "--noise-param", "--seed"),
}
FUZZ_NOISE = {
    "synth": ("bernoulli", "binomial", "scaled_poisson", "gaussian"),
    "fit": (None,),
    "ewa": (None, "bernoulli", "binomial", "gaussian"),
}
# the names a refusal may give for each flag: the flag or its field
FUZZ_NAMES = {
    "--n": ("n",), "--m": ("m",), "--K": ("K",), "--L": ("L",), "--rho": ("rho",),
    "--noise-param": ("N", "T", "sigma2"), "--seed": ("seed",), "--missing-p": ("missing_p",),
    "--n0": ("n0",), "--m0": ("m0",), "--restarts": ("restarts",),
    "--max-iters": ("max_iters",), "--tol": ("tol_gamma",), "--beta": ("beta",),
    "--noise": ("--noise-param",),
}


def _names_a_flag(message, flags):
    """Whether ``message`` holds one of ``flags`` or a field name of one, as a word."""
    names = [name for flag in flags for name in (flag,) + FUZZ_NAMES[flag]]
    return any(re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", message) for name in names)


@pytest.fixture(scope="module")
def fuzz_data(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz") / "data"
    assert main(["synth", "--n", "20", "--m", "10", "--K", "2", "--L", "2", "--seed", "1",
                 "--second-copy", "--outdir", str(d)]) == 0
    return d


@st.composite
def _numeric_flags(draw):
    """A command, a noise family and some of its numeric flags with hostile values."""
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    noise = draw(st.sampled_from(FUZZ_NOISE[command]))
    values = draw(st.dictionaries(st.sampled_from(FUZZ_FLAGS[command]),
                                  st.sampled_from(FUZZ_VALUES)))
    extra = [] if noise is None else ["--noise", noise]
    return command, extra + [x for item in values.items() for x in item]


def _fuzzed_flags(command, extra):
    """The flags a refusal of ``extra`` may name: the drawn ones, and for ewa
    without ``--noise`` also ``--beta``, whose default ``auto`` needs one."""
    flags = [x for x in extra if x.startswith("--")]
    if command == "ewa" and "--noise" not in flags:
        flags.append("--beta")
    return flags


def _reject_constant(token):
    raise ValueError(f"non-finite token {token}")


@settings(max_examples=300, deadline=None)
@given(case=_numeric_flags())
def test_numeric_flags_exit_zero_or_two(fuzz_data, case):
    # a drawn flag follows the base one, and argparse keeps the last
    command, extra = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        base = {
            "synth": ["synth", "--n", "20", "--m", "10", "--K", "2", "--L", "2",
                      "--second-copy", "--outdir", str(out / "data")],
            "fit": ["fit", "--K", "2", "--L", "2", "--input", str(fuzz_data / "H.csv"),
                    "--output", str(out / "model.json")],
            "ewa": ["ewa", "--grid", "default", "--input", str(fuzz_data / "H.csv"),
                    "--input-prime", str(fuzz_data / "H_prime.csv"),
                    "--output", str(out / "ewa.json")],
        }[command]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = main(base + extra)
            except SystemExit as exc:  # argparse refusing a value
                rc = exc.code
        assert rc in (0, 2) and "Traceback" not in err.getvalue(), err.getvalue()
        if rc == 2:
            assert _names_a_flag(err.getvalue(), _fuzzed_flags(command, extra)), err.getvalue()
        if rc == 0:
            for path in out.rglob("*.json"):
                json.loads(path.read_text(), parse_constant=_reject_constant)


def test_experiment_subcommand(tmp_path):
    config = {
        "name": "cli_exp",
        "setup": "rand_graphon",
        "noise": {"kind": "bernoulli"},
        "rho": 0.7,
        "K": 2,
        "L": 2,
        "n_values": [16],
        "reps": 2,
        "inits": ["spectral"],
        "restarts": 2,
        "seed": 11,
    }
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps(config))
    rc = main(
        ["experiment", "--config", str(cfg_path), "--outdir", str(tmp_path / "out")]
    )
    assert rc == 0
    assert (tmp_path / "out" / "cli_exp_records.csv").exists()
    assert (tmp_path / "out" / "cli_exp_summary.json").exists()
    assert (tmp_path / "out" / "cli_exp.svg").exists()


def test_config_errors_exit_two(tmp_path, synth_dir):
    rc = main(
        [
            "synth", "--setup", "cos", "--n", "10", "--m", "10",
            "--missing-p", "1.5", "--outdir", str(tmp_path / "x"),
        ]
    )
    assert rc == 2
    rc = main(
        [
            "ewa", "--grid", "default", "--beta", "auto",
            "--input", str(synth_dir / "H.csv"),
            "--input-prime", str(synth_dir / "H_prime.csv"),
            "--output", str(tmp_path / "e.json"),
        ]
    )
    assert rc == 2  # auto beta without a noise model
    # malformed JSON: a grid that is not an object, and experiment specs with
    # an unknown key, a wrong-typed value, a top-level list or a wrong-typed
    # noise parameter
    (tmp_path / "grid.json").write_text("[[2, 2, 0, 0]]")
    rc = main(
        [
            "ewa", "--grid", str(tmp_path / "grid.json"), "--beta", "1",
            "--input", str(synth_dir / "H.csv"),
            "--input-prime", str(synth_dir / "H_prime.csv"),
            "--output", str(tmp_path / "e.json"),
        ]
    )
    assert rc == 2
    spec = {"name": "bad", "setup": "rand_graphon", "K": 2, "L": 2, "n_values": [16]}
    noise = {"kind": "binomial", "N": "ten"}
    for bad in ({**spec, "bogus": 1}, {**spec, "reps": "three"}, [spec], {**spec, "noise": noise}):
        (tmp_path / "spec.json").write_text(json.dumps(bad))
        rc = main(["experiment", "--config", str(tmp_path / "spec.json"),
                   "--outdir", str(tmp_path / "out")])
        assert rc == 2


def test_fit_without_options_is_the_default_config_fit(synth_dir, tmp_path):
    # the options not given reach FitConfig as its own defaults
    from graphon_lab.estimation import FitConfig, lloyd_fit

    out = tmp_path / "model.json"
    H = synth_dir / "H.csv"
    assert main(["fit", "--K", "3", "--L", "2", "--input", str(H), "--output", str(out)]) == 0
    got = load_json(out)
    want = lloyd_fit(load_matrix(H), FitConfig(3, 2))
    assert model_from_dict(got).Q.tobytes() == want.model.Q.tobytes()
    assert got["row_labels"] == want.model.z_rows.labels.tolist()
    assert got["col_labels"] == want.model.z_cols.labels.tolist()
    assert [x.hex() for x in got["cost_trajectory"]] == [x.hex() for x in want.cost_trajectory]
    assert (got["iterations"], got["init"], got["restart_index"], got["seed"]) == (
        want.iterations, want.init_used, want.restart_index, want.seed)


@pytest.mark.parametrize("flag, value, field, expected", [
    ("--n0", "3", "n0", 3),
    ("--m0", "2", "m0", 2),
    ("--init", "random", "init", "random"),
    ("--restarts", "2", "restarts", 2),
    ("--max-iters", "5", "max_iters", 5),
    ("--tol", "0.5", "tol_gamma", 0.5),
    ("--seed", "7", "seed", 7),
])
def test_each_fit_option_reaches_fit_config(synth_dir, tmp_path, monkeypatch, flag, value,
                                            field, expected):
    from graphon_lab import estimation

    configs = []
    fit = estimation.lloyd_fit
    monkeypatch.setattr(estimation, "lloyd_fit", lambda H, cfg: configs.append(cfg) or fit(H, cfg))
    rc = main(["fit", "--K", "2", "--L", "2", flag, value, "--input", str(synth_dir / "H.csv"),
               "--output", str(tmp_path / "model.json")])
    assert rc == 0
    assert configs == [estimation.FitConfig(2, 2, **{field: expected})]


@pytest.mark.parametrize("command", ["eval", "fit"])
def test_a_csv_entry_beyond_1e100_exits_two(synth_dir, tmp_path, capsys, command):
    # a 1e200 truth entry used to give exit 0 and "mse_theta": Infinity
    theta = load_matrix(synth_dir / "theta_star.csv")
    theta[3, 1] = -1e200
    big = tmp_path / "big.csv"
    save_matrix(big, theta)
    out = tmp_path / "out.json"
    model = tmp_path / "model.json"
    assert main(["fit", "--K", "2", "--L", "2", "--input", str(synth_dir / "H.csv"),
                 "--output", str(model)]) == 0
    argv = {"eval": ["eval", "--model", str(model), "--truth", str(big), "--metrics", "mse"],
            "fit": ["fit", "--K", "2", "--L", "2", "--input", str(big)]}[command]
    capsys.readouterr()
    assert main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{big}: 1 entries not numbers in [-1e100, 1e100], first -1e+200 at row 3, column 1" \
        in err
    assert not out.exists()


def test_synth_refuses_more_than_2_to_the_24_cells_before_allocating(tmp_path, capsys,
                                                                     monkeypatch):
    # it used to exit 1 with numpy's _ArrayMemoryError traceback; the stand-ins
    # fail the test if the K x L values are about to be drawn
    from graphon_lab import synthesis

    monkeypatch.setattr(synthesis, "substream", lambda *a: pytest.fail("drew the values"))
    rc = main(["synth", "--n", "20", "--m", "10", "--K", "100000", "--L", "100000",
               "--outdir", str(tmp_path / "huge")])
    assert rc == 2
    assert "at most 2^24 cells (K * L), got K=100000, L=100000" in capsys.readouterr().err
    assert not (tmp_path / "huge").exists()


def test_synth_refuses_more_than_2_to_the_27_entries_before_allocating(tmp_path, capsys,
                                                                       monkeypatch):
    # the stand-in fails the test if the latents are about to be drawn
    from graphon_lab import synthesis

    monkeypatch.setattr(synthesis, "substream", lambda *a: pytest.fail("drew the latents"))
    rc = main(["synth", "--setup", "cos", "--n", "1000000", "--m", "1000000",
               "--outdir", str(tmp_path / "huge")])
    assert rc == 2
    assert "at most 2^27 entries (n * m), got n=1000000, m=1000000" in capsys.readouterr().err
    assert not (tmp_path / "huge").exists()
