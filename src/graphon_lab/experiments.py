"""Experiment orchestration: seeded sweeps, EWA studies, result files.

Runs the standard studies at configurable scale: error-versus-size sweeps
(with ``m = n/2``), an error-versus-intensity sweep, and the
smooth-graphon study with theory-driven cluster counts.  Every cell of an
experiment carries a seed sufficient to replay it in isolation, so full
reruns are deterministic.
"""

from __future__ import annotations

import os
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .aggregation import check_temperature, ewa_weights, mixture, sq_residuals, temperature
from .core import (AssignmentMatrix, Graphon, NoiseModel, check_counts, check_rho, check_seed,
                   induced_mean, is_integer)
from .estimation import FitConfig, HyperGrid, default_grid, fit_grid, lloyd_fit
from .evaluation import (
    delta_tilde,
    mse_theta,
    oracle_fit,
    oracle_risk_bernoulli,
    psi_condition,
    rate_bound,
)
from .io import dump_json, json_key, noise_from_json
from .svg import line_plot
from .synthesis import (
    GRAPHON_PARAMS,
    SynthConfig,
    cell_seed,
    make_standard_graphon,
    synthesize,
    true_assignments,
)

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "run_experiment",
    "hoelder_KL_rule",
    "emit_outputs",
    "run_ewa_experiment",
    "worker_count",
]

_SETUPS = ("rand_graphon", "cos_graphon", "hoelder")

RECORD_FIELDS = (
    "sweep_value",
    "init",
    "rep",
    "seed",
    "mse",
    "delta_tilde",
    "oracle_mse",
    "rate_bound",
    "psi",
    "psi_ok",
    "runtime_ms",
)


def worker_count() -> int:
    """Worker pool size, bounded by the GRAPHON_LAB_THREADS variable.

    Raises ``ValueError`` when the variable is set to a non-integer.
    """
    raw = os.environ.get("GRAPHON_LAB_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(
            f"GRAPHON_LAB_THREADS must be an integer, got {raw!r}"
        ) from None


def hoelder_KL_rule(
    n: int, m: int, rho: float, noise: NoiseModel, hoelder_L: float, alpha: float = 1.0
) -> Tuple[int, int]:
    """Theory-driven cluster counts for smooth graphons.

    ``K = L = floor((3 n m L^2 / (25 s^2 + 4 b rho))^(1 / (2 (alpha + 1))))``,
    clamped to ``[2, min(n, m) / 2]``.
    """
    sigma2, b = noise.bernstein_params(rho)
    raw = (3.0 * n * m * hoelder_L**2 / (25.0 * sigma2 + 4.0 * b * rho)) ** (
        1.0 / (2.0 * (alpha + 1.0))
    )
    hi = max(2, min(n, m) // 2)
    K = int(min(max(int(np.floor(raw)), 2), hi))
    return K, K


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative description of one experiment.

    Exactly one of ``n_values`` (sizes, with ``m = n/2``) or
    ``rho_values`` (intensities, at fixed ``n, m``) must be given.  For
    the piecewise-constant set-ups ``K`` and ``L`` give both the true and
    the fitted cluster counts; for ``hoelder`` they may be omitted and
    the theory-driven rule picks them per size.  The spec is the one home of
    its fields' rules: each field's type and range, and every cell's fit for
    that cell's ``(n, m)``, are checked when it is built, before any cell runs.
    """

    name: str
    setup: str
    noise: NoiseModel = field(default_factory=NoiseModel.bernoulli)
    rho: float = 0.5
    n_values: Optional[Tuple[int, ...]] = None
    rho_values: Optional[Tuple[float, ...]] = None
    n: Optional[int] = None
    m: Optional[int] = None
    K: Optional[int] = None
    L: Optional[int] = None
    n0: int = 0
    m0: int = 0
    reps: int = 50
    inits: Tuple[str, ...] = ("spectral", "random")
    restarts: int = FitConfig.restarts
    max_iters: int = FitConfig.max_iters
    tol_gamma: float = FitConfig.tol_gamma
    seed: int = 0
    delta_grid: int = 1000

    def __post_init__(self):
        if self.setup not in _SETUPS:
            raise ValueError(f"unknown setup {self.setup!r}")
        if (self.n_values is None) == (self.rho_values is None):
            raise ValueError("give exactly one of n_values or rho_values")
        for name, test, what in (
            ("name", lambda x: isinstance(x, str), "a string"),
            ("noise", lambda x: isinstance(x, NoiseModel), "a NoiseModel"),
            ("n_values", lambda x: _nonempty_list(x, _is_size),
             "a non-empty list of positive integers"),
            ("rho_values", _nonempty_list, "a non-empty list"),
            ("n", _is_size, "a positive integer"), ("m", _is_size, "a positive integer"),
            ("reps", _is_size, "a positive integer"),
            ("inits", lambda x: _nonempty_list(x, lambda s: isinstance(s, str)),
             "a non-empty list of strings"),
            ("delta_grid", is_integer, "an integer"),
        ):
            value = getattr(self, name)  # None stands for a value not given
            if not (test(value) or value is None and name in ("n_values", "rho_values", "n", "m")):
                raise ValueError(f"{name} must be {what}, got {value!r}")
        if self.rho_values is not None and (self.n is None or self.m is None):
            raise ValueError("a rho sweep needs fixed n and m")
        both_omitted = self.K is None and self.L is None
        if (self.K is None or self.L is None) and not (both_omitted and self.setup == "hoelder"):
            raise ValueError("give K and L (only the hoelder setup may omit both)")
        check_seed(self.seed)
        for name in ("n_values", "rho_values", "inits"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(getattr(self, name)))
        for rho in (self.rho,) + (self.rho_values or ()):
            check_rho(rho)
        cells = self.sweep_cells()
        if self.setup == "hoelder":
            # delta_tilde's own limits, checked before any cell runs
            floor = max([100] + [max(c["n"], c["m"]) for c in cells])
            if self.delta_grid < floor:
                raise ValueError(f"delta_grid must be at least {floor}")

    def sweep_cells(self) -> List[dict]:
        """One dict per sweep value, the one place a cell is built: its parameters, its
        ``graphon`` (one per distinct rho), the fitted ``K`` and ``L`` (the spec's, or the
        Hoelder rule's when it omits them), its ``synth`` config and its ``fits``, one
        config per init, both with seed 0.  ``ValueError`` names a cell that cannot be built."""
        if self.n_values is not None:
            sweep = [(n, n, n // 2, self.rho) for n in self.n_values]
        else:
            sweep = [(rho, self.n, self.m, rho) for rho in self.rho_values]
        kind, graphons, cells = self.setup.removesuffix("_graphon"), {}, []
        for idx, (value, n, m, rho) in enumerate(sweep):
            try:
                if rho not in graphons:
                    given = {"rho": rho, "K": self.K, "L": self.L, "seed": cell_seed(self.seed, 99)}
                    graphons[rho] = make_standard_graphon(
                        kind, **{name: given[name] for name in GRAPHON_PARAMS[kind]})
                synth = SynthConfig(n, m, graphons[rho], self.noise, seed=0)
            except ValueError as exc:
                raise ValueError(f"the data of the cell n={n}, m={m}, rho={rho!r}: {exc}") from None
            K, L = self.K, self.L
            if K is None:
                K, L = hoelder_KL_rule(n, m, rho, self.noise, graphons[rho].hoelder_L)
            try:
                fits = tuple(FitConfig(K=K, L=L, n0=self.n0, m0=self.m0, init=init,
                                       restarts=self.restarts, max_iters=self.max_iters,
                                       tol_gamma=self.tol_gamma) for init in self.inits)
                check_counts(K, L, self.n0, self.m0, (n, m))
            except ValueError as exc:  # FitConfig's field is init, the spec's inits
                raise ValueError(f"the fit of the cell n={n}, m={m} (K={K!r}, L={L!r}, "
                                 f"n0={self.n0!r}, m0={self.m0!r}, inits {list(self.inits)}): "
                                 f"{exc}") from None
            cells.append({"sweep_index": idx, "sweep_value": value, "n": n, "m": m, "rho": rho,
                          "graphon": graphons[rho], "K": K, "L": L, "synth": synth, "fits": fits})
        return cells

    def to_dict(self) -> dict:
        d = asdict(self)
        d["noise"] = self.noise.to_dict()
        return d

    @staticmethod
    def from_dict(d: dict, path=None) -> "ExperimentSpec":
        """The spec of a JSON object, with a missing ``noise`` Bernoulli; the values'
        rules are the spec's own.  ``ValueError`` names ``path`` (when given) and the key."""
        where = "experiment spec" if path is None else str(path)
        names = tuple(f.name for f in fields(ExperimentSpec))
        json_key(where, d, "", "object", ("only", (names, "an experiment spec")))
        for f in fields(ExperimentSpec):
            if f.default is MISSING and f.default_factory is MISSING:
                json_key(where, d, f.name)
        values = dict(d)
        if "noise" in d:
            values["noise"] = noise_from_json(where, d, "noise")
        return json_key(where, values, "", lambda v: ExperimentSpec(**v))


def _is_size(x) -> bool:
    return is_integer(x) and x >= 1


def _nonempty_list(x, item=lambda _: True) -> bool:
    return isinstance(x, (list, tuple)) and len(x) > 0 and all(item(v) for v in x)


@dataclass
class ExperimentResult:
    name: str
    spec: dict
    records: List[dict]
    summary: List[dict]


def _run_cell(payload: dict) -> List[dict]:
    """All records for one (sweep value, repetition) cell, from what the spec built."""
    spec, cell, rep = payload["spec"], payload["cell"], payload["rep"]
    n, m, rho, graphon = cell["n"], cell["m"], cell["rho"], cell["graphon"]
    seed = cell_seed(spec.seed, cell["sweep_index"], rep)
    obs = synthesize(replace(cell["synth"], seed=seed))

    oracle_mse = None
    if graphon.family == "piecewise_constant":
        r_true, c_true = true_assignments(graphon, *obs.latents)
        z_rows = AssignmentMatrix(n, graphon.K, r_true)
        z_cols = AssignmentMatrix(m, graphon.L, c_true)
        oracle = oracle_fit(obs.H, z_rows, z_cols)
        oracle_mse = mse_theta(induced_mean(oracle), obs.theta_star)

    bound = rate_bound(spec.noise, rho, n, m, cell["K"], cell["L"])
    psi = None
    psi_ok = None
    if spec.n0 >= 3 and spec.m0 >= 3:
        psi = psi_condition(n, m, spec.n0, spec.m0)
        sigma2, b = spec.noise.bernstein_params(rho)
        psi_ok = 1 if (b == 0 or psi <= sigma2 / b**2) else 0

    records = []
    for config in cell["fits"]:
        t0 = time.perf_counter()
        report = lloyd_fit(obs.H, replace(config, seed=seed))
        theta_hat = induced_mean(report.model)
        mse = mse_theta(theta_hat, obs.theta_star)
        dt = None
        if spec.setup == "hoelder":
            dt = delta_tilde(
                theta_hat, graphon, *obs.latents, grid_res=spec.delta_grid
            )
        runtime_ms = (time.perf_counter() - t0) * 1e3
        records.append(
            {
                "sweep_value": cell["sweep_value"],
                "init": config.init,
                "rep": rep,
                "seed": seed,
                "mse": mse,
                "delta_tilde": dt,
                "oracle_mse": oracle_mse,
                "rate_bound": bound,
                "psi": psi,
                "psi_ok": psi_ok,
                "runtime_ms": runtime_ms,
            }
        )
    return records


def _summarize(records: List[dict], inits: Sequence[str]) -> List[dict]:
    summary = []
    sweep_values = sorted({r["sweep_value"] for r in records})
    for sv in sweep_values:
        at_sv = [r for r in records if r["sweep_value"] == sv]
        for init in inits:  # every cell fits every init: the spec checked them all
            summary.append(_quantile_row(sv, init, [r["mse"] for r in at_sv if r["init"] == init]))
        oracle_vals = [r["oracle_mse"] for r in at_sv if r["oracle_mse"] is not None]
        if oracle_vals:
            summary.append(_quantile_row(sv, "oracle", oracle_vals))
        bounds = [r["rate_bound"] for r in at_sv]
        summary.append(_quantile_row(sv, "bound", bounds))
    return summary


def _quantile_row(sweep_value, init, vals) -> dict:
    vals = np.asarray(vals, dtype=np.float64)
    return {
        "sweep_value": sweep_value,
        "init": init,
        "median": float(np.median(vals)),
        "q10": float(np.quantile(vals, 0.1)),
        "q90": float(np.quantile(vals, 0.9)),
    }


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Execute every (sweep value, repetition, init) cell of a spec.

    Cells run on a worker pool bounded by ``GRAPHON_LAB_THREADS`` (default
    one) and by the number of cells; records are keyed and sorted
    afterwards, so the output does not depend on scheduling.
    """
    cells = spec.sweep_cells()
    payloads = [{"spec": spec, "cell": cell, "rep": rep} for cell in cells
                for rep in range(spec.reps)]
    workers = min(worker_count(), len(payloads))
    if workers > 1:
        # imported here: multiprocessing and socket cost every other caller
        # start-up time and memory
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_cell, payloads))
    else:
        chunks = [_run_cell(p) for p in payloads]
    # map() preserves payload order, so assembly is scheduling-independent:
    # records come out keyed by (sweep position, rep, init)
    records = [rec for chunk in chunks for rec in chunk]
    summary = _summarize(records, spec.inits)
    summary.extend(_closed_form_oracle_rows(spec, cells))
    return ExperimentResult(
        name=spec.name, spec=spec.to_dict(), records=records, summary=summary
    )


def _closed_form_oracle_rows(spec: ExperimentSpec, cells: List[dict]) -> List[dict]:
    """Closed-form oracle curve overlaid on Bernoulli intensity sweeps."""
    if spec.rho_values is None or spec.noise.kind != "bernoulli" or spec.setup == "hoelder":
        return []
    return [_quantile_row(c["sweep_value"], "oracle_formula",
                          [oracle_risk_bernoulli(c["graphon"].values, c["n"], c["m"])])
            for c in cells]


# --------------------------------------------------------------------------
# Result persistence
# --------------------------------------------------------------------------


def _csv_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if is_integer(v):
        return str(int(v))
    return repr(float(v))


def emit_outputs(
    result: ExperimentResult,
    outdir,
    formats: Sequence[str] = ("csv", "json", "svg"),
) -> Dict[str, Path]:
    """Write the per-cell records (CSV), summary (JSON) and plot (SVG)."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths: Dict[str, Path] = {}
    if "csv" in formats:
        path = outdir / f"{result.name}_records.csv"
        lines = [",".join(RECORD_FIELDS)]
        for rec in result.records:
            lines.append(",".join(_csv_value(rec[f]) for f in RECORD_FIELDS))
        path.write_text("\n".join(lines) + "\n")
        paths["csv"] = path
    if "json" in formats:
        path = outdir / f"{result.name}_summary.json"
        dump_json(
            path,
            {"name": result.name, "spec": result.spec, "summary": result.summary},
        )
        paths["json"] = path
    if "svg" in formats:
        path = outdir / f"{result.name}.svg"
        _plot_summary(result, path)
        paths["svg"] = path
    return paths


def _plot_summary(result: ExperimentResult, path: Path) -> None:
    inits = [i for i in dict.fromkeys(r["init"] for r in result.summary)]
    series = []
    bands = []
    for init in inits:
        rows = [r for r in result.summary if r["init"] == init]
        xs = [r["sweep_value"] for r in rows]
        series.append((init, xs, [r["median"] for r in rows]))
        if init not in ("oracle", "oracle_formula", "bound"):
            bands.append((init, xs, [r["q10"] for r in rows], [r["q90"] for r in rows]))
    logx = result.spec.get("n_values") is not None
    line_plot(
        str(path),
        series,
        bands=bands,
        title=result.name,
        xlabel="n" if logx else "rho",
        ylabel="squared error",
        logx=logx,
    )


# --------------------------------------------------------------------------
# Aggregation study
# --------------------------------------------------------------------------


def run_ewa_experiment(
    n: int,
    m: int,
    graphon: Graphon,
    noise: NoiseModel,
    reps: int,
    seed: int,
    beta: Optional[float] = None,
    grid: Optional[HyperGrid] = None,
) -> dict:
    """Aggregate grid fits over independent repetitions.

    Per repetition: draw (H, H'), fit every grid entry on H, weight the
    fits by their squared residual against H', and compare the mixture's
    error with the best single fit's error.
    """
    grid = grid if grid is not None else default_grid(n, m)
    beta = beta if beta is not None else temperature(noise)
    check_temperature(beta)
    records = []
    for rep in range(reps):
        rep_seed = cell_seed(seed, 3, rep)
        obs = synthesize(
            SynthConfig(n, m, graphon, noise, seed=rep_seed, with_second_copy=True)
        )
        reports = fit_grid(obs.H, grid, seed=rep_seed)
        models = [reports[entry].model for entry in grid]
        residuals = sq_residuals(models, obs.H_prime)
        mses = sq_residuals(models, obs.theta_star) / (n * m)
        weights = ewa_weights(residuals, beta)
        aggregate = mixture(models, weights)
        records.append(
            {
                "rep": rep,
                "seed": rep_seed,
                "ewa_mse": mse_theta(aggregate, obs.theta_star),
                "best_fit_mse": float(mses.min()),
                "argmin_weight": float(weights[int(np.argmin(residuals))]),
            }
        )
    return {
        "beta": beta,
        "grid_size": len(grid),
        "records": records,
    }
