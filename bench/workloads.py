"""The benchmark workloads: set-up, one op, and the op's output check.

Each workload is a closed loop with one client: ``run`` executes one op
for an op seed and returns its raw outputs; ``check`` (untimed) returns
``(fingerprint, err_ratios, problems, notes)``.  A non-empty ``problems``
list fails the op; ``notes`` carries per-op measurements for the result
file.

``pool_size`` is the number of distinct op inputs.  An untraced run ends
on a whole pass over them, so every run measures each input equally often
(per-input cost differs by up to 60% on ``ewa_grid``).  The size is odd, so
that the median op falls inside the middle input's ops rather than on the
gap between two inputs, and small enough that a pass takes a few seconds.
Sizes are scaled down from the paper's studies so that a run holds
several ops.  README.md explains each choice.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# Calls go through module attributes (gl.lloyd_fit, experiments.fit_grid),
# never through names bound here, so the tracer's rebinding reaches them.
import graphon_lab as gl
from graphon_lab import experiments
from graphon_lab.io import load_json, load_matrix

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# relative tolerance of the non-increasing cost check (tests use 1e-9 on
# small matrices; costs here reach 1e5)
TRAJ_RTOL = 1e-9


def _finite(name, values, problems, positive=False):
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        problems.append(f"{name} not finite")
    elif positive and (arr <= 0).any():
        problems.append(f"{name} not positive")


def _check_trajectory(name, traj, problems):
    traj = np.asarray(traj, dtype=np.float64)
    _finite(name, traj, problems)
    if traj.size and np.diff(traj).max(initial=0.0) > TRAJ_RTOL * max(1.0, abs(traj[0])):
        problems.append(f"{name} increases")


def _check_weights(name, w, size, problems):
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (size,) or not np.isfinite(w).all() or w.min() < 0 \
            or abs(w.sum() - 1.0) > 1e-9:
        problems.append(f"{name} is not a probability vector of length {size}")


class EwaGrid:
    """Criterion-6 aggregation: default grid, floors bind, fit_grid reuse."""

    name = "ewa_grid"
    pool_size = 3
    n, m = 200, 100

    def setup(self, work_dir):
        return {"graphon": gl.make_standard_graphon("cos", K=4, L=4, rho=0.6),
                "noise": gl.NoiseModel.bernoulli()}

    def run(self, state, op_seed, tracer):
        captured = {}

        def capture(name, fn):
            def hook(*args, **kwargs):
                captured[name] = out = fn(*args, **kwargs)
                return out
            return hook

        # pass-through hooks so the check can see every grid fit and the weights
        saved = (experiments.fit_grid, experiments.ewa_weights)
        experiments.fit_grid = capture("reports", saved[0])
        experiments.ewa_weights = capture("weights", saved[1])
        try:
            result = experiments.run_ewa_experiment(
                self.n, self.m, state["graphon"], state["noise"], reps=1, seed=op_seed,
                beta=8.0 / 3.0)
        finally:
            experiments.fit_grid, experiments.ewa_weights = saved
        return result, captured

    def check(self, state, raw):
        result, captured = raw
        problems: list = []
        rec = result["records"][0]
        _finite("ewa record", [rec["ewa_mse"], rec["best_fit_mse"],
                               rec["argmin_weight"]], problems, positive=True)
        reports = captured["reports"]
        if len(reports) != result["grid_size"]:
            problems.append("fit_grid missed entries")
        for (K, L, n0, m0), rep in reports.items():
            model = rep.model
            _finite("grid fit Q", model.Q, problems)
            _check_trajectory(f"trajectory {(K, L, n0, m0)}", rep.cost_trajectory, problems)
            if model.z_rows.counts().min() < n0 or model.z_cols.counts().min() < m0:
                problems.append(f"size floor violated at {(K, L, n0, m0)}")
            if problems:
                break
        _check_weights("ewa weights", captured["weights"], result["grid_size"], problems)
        fp = {"ewa_mse": rec["ewa_mse"], "best_fit_mse": rec["best_fit_mse"]}
        return fp, [rec["ewa_mse"] / rec["best_fit_mse"]], problems, {}


class SweepCells:
    """Error-curve cells on the smooth graphon, on the process pool."""

    name = "sweep_cells"
    pool_size = 3
    n_values = (512, 1024)

    def setup(self, work_dir):
        return {}

    def run(self, state, op_seed, tracer):
        spec = experiments.ExperimentSpec(
            name=self.name, setup="hoelder", rho=0.5, n_values=self.n_values, reps=2,
            inits=("spectral",), delta_grid=2048, seed=op_seed)
        fit = experiments.lloyd_fit

        def checked_fit(*args, **kwargs):
            # the fits live in forked pool workers, which inherit this hook;
            # a raise there fails the op through pool.map
            report = fit(*args, **kwargs)
            problems: list = []
            _finite("Q", report.model.Q, problems)
            _check_trajectory("trajectory", report.cost_trajectory, problems)
            if problems:
                raise RuntimeError("; ".join(problems))
            return report

        experiments.lloyd_fit = checked_fit
        t0 = time.perf_counter()
        try:
            result = experiments.run_experiment(spec)
        finally:
            experiments.lloyd_fit = fit
        wall = time.perf_counter() - t0
        busy = sum(r["runtime_ms"] for r in result.records) / 1e3
        return result, busy / (experiments.worker_count() * wall)

    def check(self, state, raw):
        result, pool_util = raw
        notes = {"pool_util": pool_util}
        problems: list = []
        records = result.records
        if len(records) != 2 * len(self.n_values):
            problems.append(f"expected {2 * len(self.n_values)} records, got {len(records)}")
        for r in records:
            _finite("record", [r["mse"], r["delta_tilde"], r["rate_bound"]], problems,
                    positive=True)
        fp = {"mse": [r["mse"] for r in records],
              "delta_tilde": [r["delta_tilde"] for r in records]}
        if problems:
            return fp, [], problems, notes
        return fp, [r["mse"] / r["rate_bound"] for r in records], problems, notes


def _grid_entries(n, m):
    """16 entries: four (K, L) pairs, each at four floors up to 0.95 n/K."""
    entries = []
    for K in (2, 3, 4, 6):
        for frac in (0.25, 0.5, 0.75, 0.95):
            entries.append([K, K, int(frac * n / K), int(frac * m / K)])
    return entries


class CliRoundtrip:
    """synth -> fit -> eval -> ewa, each command its own process."""

    name = "cli_roundtrip"
    pool_size = 1
    n, m, K = 256, 128, 4

    def setup(self, work_dir):
        work_dir.mkdir(parents=True, exist_ok=True)
        grid = work_dir / "grid.json"
        grid.write_text(json.dumps({"entries": _grid_entries(self.n, self.m)}))
        return {"dir": work_dir, "grid": grid}

    def _argv(self, state, op_seed):
        d = state["dir"]
        data = d / "data"
        return {
            "synth": ["synth", "--setup", "rand", "--n", str(self.n), "--m", str(self.m),
                      "--K", str(self.K), "--L", str(self.K), "--rho", "0.6",
                      "--seed", str(op_seed), "--second-copy", "--outdir", str(data)],
            "fit": ["fit", "--K", str(self.K), "--L", str(self.K), "--seed", str(op_seed),
                    "--input", str(data / "H.csv"), "--output", str(d / "model.json")],
            "eval": ["eval", "--model", str(d / "model.json"),
                     "--truth", str(data / "theta_star.csv"),
                     "--latents", str(data / "latents.json"),
                     "--meta", str(data / "meta.json"), "--input", str(data / "H.csv"),
                     "--metrics", "mse,delta,oracle,rate",
                     "--output", str(d / "metrics.json")],
            "ewa": ["ewa", "--grid", str(state["grid"]), "--beta", "auto",
                    "--noise", "bernoulli", "--input", str(data / "H.csv"),
                    "--input-prime", str(data / "H_prime.csv"),
                    "--output", str(d / "ewa.json")],
        }

    def run(self, state, op_seed, tracer):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        if state["dir"].joinpath("data").exists():
            shutil.rmtree(state["dir"] / "data")
        proc_s = {}
        for cmd, argv in self._argv(state, op_seed).items():
            if tracer is None:
                head = [sys.executable, "-m", "graphon_lab.cli"]
                handle = None
            else:
                head = [sys.executable, str(HERE / "clitrace.py")]
                handle = tracer.open(f"cli.{cmd}")
                env.update(tracer.child_env(handle[0]))
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(head + argv, env=env, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.PIPE, text=True)
            finally:
                proc_s[cmd] = time.perf_counter() - t0
                if handle is not None:
                    tracer.close(handle)
            if proc.returncode != 0:
                raise RuntimeError(f"{cmd} exited {proc.returncode}: {proc.stderr.strip()}")
        return proc_s

    def check(self, state, proc_s):
        d = state["dir"]
        data = d / "data"
        n, m, K = self.n, self.m, self.K
        notes = {"proc_s": proc_s}
        problems: list = []
        for name in ("H", "H_prime", "theta_star"):
            if load_matrix(data / f"{name}.csv").shape != (n, m):
                problems.append(f"{name}.csv has the wrong shape")
        theta = load_matrix(data / "theta_star.csv")
        model = load_json(d / "model.json")
        if (len(model["Q"]) != K * K or len(model["row_labels"]) != n
                or len(model["col_labels"]) != m):
            problems.append("model.json has the wrong shape")
        _finite("model Q", model["Q"], problems)
        _check_trajectory("model trajectory", model["cost_trajectory"], problems)
        metrics = load_json(d / "metrics.json")
        keys = ("mse_theta", "delta_tilde", "oracle_mse", "rate_bound")
        if sorted(metrics) != sorted(keys):
            problems.append(f"metrics.json keys {sorted(metrics)}")
            return {}, [], problems, notes
        _finite("metrics", [metrics[k] for k in keys], problems, positive=True)
        ewa = load_json(d / "ewa.json")
        _check_weights("ewa weights", ewa["weights"], 16, problems)
        aggregate = load_matrix(ewa["aggregate_path"])
        if aggregate.shape != (n, m) or not np.isfinite(aggregate).all():
            problems.append("aggregate has the wrong shape or is not finite")
            return {}, [], problems, notes
        fp = {"final_cost": model["cost_trajectory"][-1], "mse": metrics["mse_theta"],
              "delta_tilde": metrics["delta_tilde"],
              "ewa_mse": gl.mse_theta(aggregate, theta)}
        return fp, [metrics["mse_theta"] / metrics["oracle_mse"]], problems, notes


WORKLOADS = {w.name: w for w in (EwaGrid(), SweepCells(), CliRoundtrip())}
