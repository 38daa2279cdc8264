"""Command-line entry point: ``graphon-lab {synth,fit,ewa,eval,experiment}``.

Exit codes: 0 on success, 2 on configuration errors, 3 on numerical
failures.  Each command imports the modules it runs when it runs, so
``eval`` loads no estimator and only ``experiment`` loads the experiments.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .core import AssignmentMatrix, DimensionMismatch, NoiseModel, check_latents, induced_mean
from .io import (
    dump_json,
    json_key,
    load_json,
    load_matrix,
    model_from_dict,
    noise_from_json,
    report_to_dict,
    save_matrix,
)
from .synthesis import (GRAPHON_PARAMS, SynthConfig, make_standard_graphon, synthesize,
                        true_assignments)

__all__ = ["main"]

EVAL_METRICS = ("mse", "delta", "oracle", "rate")


def _noise_from_args(args) -> NoiseModel:
    kind = args.noise
    if kind == "bernoulli":
        return NoiseModel.bernoulli()
    if args.noise_param is None:
        raise ValueError(f"--noise {kind} needs --noise-param")
    # binomial, scaled_poisson and gaussian: the constructor of that name
    return getattr(NoiseModel, kind)(args.noise_param)


def _cmd_synth(args) -> int:
    params = {name: getattr(args, name) for name in GRAPHON_PARAMS[args.setup]}  # synth flags
    graphon = make_standard_graphon(args.setup, **params)
    noise = _noise_from_args(args)
    config = SynthConfig(
        n=args.n, m=args.m, graphon=graphon, noise=noise, seed=args.seed,
        with_second_copy=args.second_copy, missing_p=args.missing_p,
    )
    obs = synthesize(config)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_matrix(outdir / "H.csv", obs.H)
    save_matrix(outdir / "theta_star.csv", obs.theta_star)
    if obs.H_prime is not None:
        save_matrix(outdir / "H_prime.csv", obs.H_prime)
    if obs.mask is not None:
        save_matrix(outdir / "mask.csv", obs.mask)
    U, V = obs.latents
    dump_json(outdir / "latents.json", {"U": U, "V": V})
    dump_json(
        outdir / "meta.json",
        {
            "n": args.n,
            "m": args.m,
            "noise_model": noise.to_dict(),
            "rho": args.rho,
            "seed": args.seed,
            "missing_p": args.missing_p,
            "with_second_copy": bool(args.second_copy),
            "graphon": {"kind": args.setup, "params": params},
        },
    )
    print(f"wrote observation set to {outdir}")
    return 0


def _cmd_fit(args) -> int:
    from .estimation import FitConfig, lloyd_fit

    H = load_matrix(args.input)
    cfg = FitConfig(**{f.name: getattr(args, f.name) for f in fields(FitConfig)
                       if hasattr(args, f.name)})
    report = lloyd_fit(H, cfg)
    dump_json(args.output, report_to_dict(report))
    print(
        f"fit K={args.K} L={args.L}: cost {report.final_cost:.6g} "
        f"after {report.iterations} iterations -> {args.output}"
    )
    return 0


def _cmd_ewa(args) -> int:
    from .aggregation import check_temperature, ewa_aggregate, temperature
    from .estimation import HyperGrid, check_grid, default_grid, fit_grid

    H = load_matrix(args.input)
    H_prime = load_matrix(args.input_prime)
    if H_prime.shape != H.shape:
        raise DimensionMismatch(
            f"H' has shape {H_prime.shape}, expected {H.shape}"
        )
    if args.grid == "default":
        grid = default_grid(*H.shape)
    else:
        grid = json_key(args.grid, load_json(args.grid), "entries", "list",
                        lambda entries: check_grid(HyperGrid(tuple(entries)), H.shape))
    if args.beta == "auto":
        if args.noise is None:
            raise ValueError("--beta auto needs --noise (and --noise-param)")
        noise = _noise_from_args(args)
        beta = temperature(noise)
        try:
            check_temperature(beta)
        except ValueError as exc:
            raise ValueError(f"{exc}: --beta auto from {noise.to_dict()}") from None
    else:
        beta = float(args.beta)
        check_temperature(beta)
    reports = fit_grid(H, grid, seed=args.seed)
    result = ewa_aggregate([reports[e].model for e in grid], H_prime, beta)
    out = Path(args.output)
    agg_path = out.with_name(out.stem + "_aggregate.csv")
    save_matrix(agg_path, result.aggregate)
    dump_json(
        out,
        {
            "beta": beta,
            "grid": [list(e) for e in grid],
            "weights": result.weights,
            "aggregate_path": str(agg_path),
        },
    )
    print(f"aggregated {len(grid)} fits (beta={beta:.6g}) -> {out}")
    return 0


def _cmd_eval(args) -> int:
    from .evaluation import DEFAULT_DELTA_GRID, delta_tilde, mse_theta, oracle_fit, rate_bound

    metrics = args.metrics.split(",")
    unknown = [name for name in metrics if name not in EVAL_METRICS]
    if unknown:
        raise ValueError(
            f"unknown metric(s) {','.join(unknown)}; choose from {','.join(EVAL_METRICS)}"
        )
    model = model_from_dict(load_json(args.model), args.model)
    theta_star = load_matrix(args.truth)
    theta_hat = induced_mean(model)
    out = {}
    meta = load_json(args.meta) if args.meta else None
    if "mse" in metrics:
        out["mse_theta"] = mse_theta(theta_hat, theta_star)
    truth = [name for name in ("delta", "oracle") if name in metrics]
    if truth:
        # both compare against the true graphon at the drawn latents
        if meta is None or args.latents is None:
            raise ValueError(f"--metrics {','.join(truth)} needs --meta and --latents")
        lat = load_json(args.latents)
        for k, size in (("U", model.n), ("V", model.m)):
            json_key(args.latents, lat, k, "list", ("length", size))
        U, V = json_key(args.latents, lat, "", lambda d: [check_latents(d[k], k) for k in "UV"])
        kind = json_key(args.meta, meta, "graphon.kind", "string", ("one of", tuple(GRAPHON_PARAMS)))
        owner = (GRAPHON_PARAMS[kind], f"the {kind} graphon")
        json_key(args.meta, meta, "graphon.params", "object", ("only", owner))
        for name in GRAPHON_PARAMS[kind]:  # present: the values' rules are the graphon's
            json_key(args.meta, meta, f"graphon.params.{name}")
        graphon = json_key(args.meta, meta, "graphon",
                           lambda g: make_standard_graphon(g["kind"], **g["params"]))
    if "delta" in metrics:
        # delta_tilde needs a grid comfortably finer than max(n, m)
        grid_res = max(DEFAULT_DELTA_GRID, 2 * max(theta_hat.shape))
        out["delta_tilde"] = delta_tilde(theta_hat, graphon, U, V, grid_res=grid_res)
    if "oracle" in metrics:
        if args.input is None:
            raise ValueError("--metrics oracle needs --input")
        if graphon.family != "piecewise_constant":
            raise ValueError("oracle metric needs a piecewise-constant truth")
        r, c = true_assignments(graphon, U, V)
        oracle = oracle_fit(
            load_matrix(args.input),
            AssignmentMatrix(theta_star.shape[0], graphon.K, r),
            AssignmentMatrix(theta_star.shape[1], graphon.L, c),
        )
        out["oracle_mse"] = mse_theta(induced_mean(oracle), theta_star)
    if "rate" in metrics:
        if meta is None:
            raise ValueError("--metrics rate needs --meta")
        noise = noise_from_json(args.meta, meta, "noise_model")
        out["rate_bound"] = json_key(
            args.meta, meta, "rho", "number",
            lambda rho: rate_bound(noise, rho, model.n, model.m, model.K, model.L))
    dump_json(args.output, out)
    print(f"wrote metrics {sorted(out)} -> {args.output}")
    return 0


def _cmd_experiment(args) -> int:
    from .experiments import ExperimentSpec, emit_outputs, run_experiment

    spec_dict = json_key(args.config, load_json(args.config), "", "object")
    for key in ("reps", "seed", "name"):  # the flags override the file
        if getattr(args, key) is not None:
            spec_dict[key] = getattr(args, key)
    spec = ExperimentSpec.from_dict(spec_dict, args.config)
    result = json_key(args.config, spec, "", run_experiment)  # a cell's refusal names it too
    paths = emit_outputs(result, args.outdir, formats=args.formats.split(","))
    for kind, path in sorted(paths.items()):
        print(f"{kind}: {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphon-lab",
        description="simulate, fit, aggregate and evaluate bipartite block models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic observation set")
    p.add_argument("--setup", choices=("rand", "cos", "hoelder"), default="rand")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--K", type=int, default=4)
    p.add_argument("--L", type=int, default=4)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--noise", choices=("bernoulli", "binomial", "scaled_poisson", "gaussian"), default="bernoulli")
    p.add_argument("--noise-param", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--second-copy", action="store_true")
    p.add_argument("--missing-p", type=float, default=None)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_synth)

    # a fit flag not given stays out of the namespace: FitConfig holds the defaults
    p = sub.add_parser("fit", help="fit one block model", argument_default=argparse.SUPPRESS)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--n0", type=int)
    p.add_argument("--m0", type=int)
    p.add_argument("--init", choices=("spectral", "random"))
    p.add_argument("--restarts", type=int)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--tol", dest="tol_gamma", metavar="TOL", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("ewa", help="aggregate fits over a hyperparameter grid")
    p.add_argument("--grid", default="default", help="'default' or a grid JSON file")
    p.add_argument("--beta", default="auto", help="'auto' (from --noise) or a value")
    p.add_argument("--noise", choices=("bernoulli", "binomial", "gaussian"), default=None)
    p.add_argument("--noise-param", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--input", required=True)
    p.add_argument("--input-prime", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_ewa)

    p = sub.add_parser("eval", help="error metrics for a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--latents", default=None)
    p.add_argument("--meta", default=None, help="meta.json (for delta/oracle/rate)")
    p.add_argument("--input", default=None, help="H.csv (for the oracle metric)")
    p.add_argument(
        "--metrics", default="mse", help="comma-separated: " + ",".join(EVAL_METRICS)
    )
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("experiment", help="run a full experiment spec")
    p.add_argument("--config", required=True)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--name", default=None)
    p.add_argument("--outdir", default=".")
    p.add_argument("--formats", default="csv,json,svg")
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
