"""Command-line entry point: ``graphon-lab {synth,fit,ewa,eval,experiment}``.

Exit codes: 0 on success, 2 on configuration errors, 3 on numerical
failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .aggregation import check_temperature, ewa_aggregate, temperature
from .core import AssignmentMatrix, DimensionMismatch, NoiseModel, induced_mean
from .estimation import FitConfig, HyperGrid, default_grid, fit_grid, lloyd_fit
from .evaluation import DEFAULT_DELTA_GRID, delta_tilde, mse_theta, oracle_fit, rate_bound
from .experiments import ExperimentSpec, emit_outputs, run_experiment
from .io import (
    dump_json,
    load_json,
    load_matrix,
    model_from_dict,
    report_to_dict,
    save_matrix,
)
from .synthesis import SynthConfig, make_standard_graphon, synthesize, true_assignments

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


# the graphon.params of meta.json for each setup, all synth flags of these names
_GRAPHON_PARAMS = {"rand": ("rho", "K", "L", "seed"), "cos": ("rho", "K", "L"), "hoelder": ("rho",)}
_PARAM_TYPES = {"K": int, "L": int, "rho": float, "seed": int}
_JSON_TYPES = {dict: "an object", str: "a string", int: "an integer", float: "a number"}


def _key(path, d, *keys, of=None):
    """``d[keys[0]][keys[1]]...``, or ``ValueError`` naming the file and the dotted key
    when it is missing or, given ``of`` (a key of ``_JSON_TYPES``), holds another JSON
    type; ``float`` takes integers too, and no type takes ``true`` or ``false``."""
    for depth, key in enumerate(keys):
        if not isinstance(d, dict) or key not in d:
            raise ValueError(f"{path} has no key {'.'.join(keys[:depth + 1])!r}")
        d = d[key]
    allowed = (int, float) if of is float else of
    if of is not None and (isinstance(d, bool) or not isinstance(d, allowed)):
        raise ValueError(f"{path} key {'.'.join(keys)!r} must be {_JSON_TYPES[of]}, got {d!r}")
    return d


def _check_graphon(path, meta: dict) -> None:
    """``ValueError`` naming ``path`` and the key unless ``meta`` holds a
    ``graphon`` that :func:`_graphon_from_meta` can build."""
    kind = _key(path, meta, "graphon", "kind", of=str)
    params = _key(path, meta, "graphon", "params", of=dict)
    if kind not in _GRAPHON_PARAMS:
        raise ValueError(f"{path} key 'graphon.kind' must be one of {', '.join(_GRAPHON_PARAMS)}, "
                         f"got {kind!r}")
    for name in params:
        if name not in _GRAPHON_PARAMS[kind]:
            raise ValueError(f"{path} key 'graphon.params.{name}' is not a parameter of the "
                             f"{kind} graphon ({', '.join(_GRAPHON_PARAMS[kind])})")
    for name in _GRAPHON_PARAMS[kind]:
        _key(path, meta, "graphon", "params", name, of=_PARAM_TYPES[name])


def _graphon_from_meta(meta: dict):
    g = meta["graphon"]
    return make_standard_graphon(g["kind"], **g["params"])


def _cmd_synth(args) -> int:
    params = {name: getattr(args, name) for name in _GRAPHON_PARAMS[args.setup]}
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
    H = load_matrix(args.input)
    cfg = FitConfig(
        K=args.K, L=args.L, n0=args.n0, m0=args.m0, init=args.init,
        restarts=args.restarts, max_iters=args.max_iters,
        tol_gamma=args.tol, seed=args.seed,
    )
    report = lloyd_fit(H, cfg)
    dump_json(args.output, report_to_dict(report))
    print(
        f"fit K={args.K} L={args.L}: cost {report.final_cost:.6g} "
        f"after {report.iterations} iterations -> {args.output}"
    )
    return 0


def _cmd_ewa(args) -> int:
    H = load_matrix(args.input)
    H_prime = load_matrix(args.input_prime)
    if H_prime.shape != H.shape:
        raise DimensionMismatch(
            f"H' has shape {H_prime.shape}, expected {H.shape}"
        )
    if args.grid == "default":
        grid = default_grid(*H.shape)
    else:
        entries = _key(args.grid, load_json(args.grid), "entries")
        if not isinstance(entries, list):
            raise ValueError('a grid file must hold {"entries": [[K, L, n0, m0], ...]} (integers)')
        grid = HyperGrid(tuple(entries))
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
        U, V = (np.asarray(_key(args.latents, lat, k)) for k in "UV")
        _check_graphon(args.meta, meta)
        graphon = _graphon_from_meta(meta)
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
        noise_dict = _key(args.meta, meta, "noise_model", of=dict)
        _key(args.meta, meta, "noise_model", "kind", of=str)
        try:
            noise = NoiseModel.from_dict(noise_dict, "noise_model")
        except ValueError as exc:
            raise ValueError(f"{args.meta}: {exc}") from None
        out["rate_bound"] = rate_bound(
            noise, _key(args.meta, meta, "rho", of=float), model.n, model.m, model.K, model.L
        )
    dump_json(args.output, out)
    print(f"wrote metrics {sorted(out)} -> {args.output}")
    return 0


def _cmd_experiment(args) -> int:
    spec_dict = load_json(args.config)
    if args.reps is not None:
        spec_dict["reps"] = args.reps
    if args.seed is not None:
        spec_dict["seed"] = args.seed
    if args.name is not None:
        spec_dict["name"] = args.name
    spec = ExperimentSpec.from_dict(spec_dict)
    result = run_experiment(spec)
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

    p = sub.add_parser("fit", help="fit one block model")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--n0", type=int, default=FitConfig.n0)
    p.add_argument("--m0", type=int, default=FitConfig.m0)
    p.add_argument("--init", choices=("spectral", "random"), default=FitConfig.init)
    p.add_argument("--restarts", type=int, default=FitConfig.restarts)
    p.add_argument("--max-iters", type=int, default=FitConfig.max_iters)
    p.add_argument("--tol", type=float, default=FitConfig.tol_gamma)
    p.add_argument("--seed", type=int, default=FitConfig.seed)
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
