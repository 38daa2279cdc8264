"""File formats: CSV matrices and JSON sidecars.

Matrices travel as plain CSV (one row per line, comma-separated decimal
floats, 17 significant digits).  Structured results travel as JSON, whose
floats are Python's shortest round-trip repr (``NaN``, ``Infinity`` and
``-Infinity`` for the non-finite ones).  Either way every float reads
back exactly.

Fixed field names
-----------------
The files a command reads (``meta.json``, ``latents.json``, ``model.json``
with Q row-major, a grid file, an experiment spec): README.md's table of
JSON inputs lists each key and the :data:`RULES` :func:`json_key` applies.
``ewa.json``     : beta, grid, weights, aggregate_path
``metrics.json`` : any of mse_theta, delta_tilde, oracle_mse, rate_bound
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from .core import (MAX_ABS, NOISE_PARAMS, AssignmentMatrix, BlockModel, NoiseModel, is_integer,
                   is_number)

if TYPE_CHECKING:
    from .estimation import FitReport

__all__ = [
    "save_matrix",
    "load_matrix",
    "dump_json",
    "load_json",
    "RULES",
    "json_key",
    "model_to_dict",
    "model_from_dict",
    "noise_from_json",
    "report_to_dict",
]

PathLike = Union[str, Path]

FLOAT_FMT = "%.17g"
_BOUNDS = f"[-{MAX_ABS:.0e}, {MAX_ABS:.0e}]".replace("e+", "e")
_BLOCK_ENTRIES = 4096  # save_matrix formats this many entries (at least a row) at a time


def save_matrix(path: PathLike, M: np.ndarray) -> None:
    """Write ``M`` as CSV, the bytes of ``np.savetxt(fmt="%.17g", delimiter=",")``.

    Rows go out in blocks.  A block with at most a quarter as many distinct
    values (by bit pattern, so ``-0.0`` is not ``0.0``) as entries formats
    each value once and joins the strings; any other block is formatted
    entry by entry, as savetxt does.
    """
    M = np.atleast_2d(np.asarray(M, dtype=np.float64))
    step = max(1, _BLOCK_ENTRIES // max(M.shape[1], 1))
    row_fmt = ",".join([FLOAT_FMT] * M.shape[1])
    with open(path, "w") as fh:
        for i in range(0, len(M), step):
            block = M[i:i + step]
            keys, inverse = np.unique(block.view(np.int64), return_inverse=True)
            if 4 * len(keys) > block.size:
                lines = [row_fmt % tuple(row) for row in block.tolist()]
            else:
                text = np.array([FLOAT_FMT % x for x in keys.view(np.float64).tolist()],
                                dtype=object)
                lines = [",".join(row) for row in text[inverse.reshape(block.shape)].tolist()]
            fh.write("\n".join(lines) + "\n")


def load_matrix(path: PathLike) -> np.ndarray:
    """Read a CSV matrix; NaN, +-inf or an entry beyond :data:`MAX_ABS` in
    magnitude raises ``ValueError`` naming the file, the count and the first one.
    So do a row of another length, an entry that is not a number and a file
    without entries, naming the file.

    No stored matrix holds NaN: missing entries are marked in ``mask.csv``.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # numpy's on an empty file
            M = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if M.size == 0:
        raise ValueError(f"{path} holds no entries")
    bad = np.argwhere(~(np.abs(M) <= MAX_ABS))
    if len(bad):
        i, j = bad[0]
        raise ValueError(f"{path}: {len(bad)} entries not numbers in {_BOUNDS}, "
                         f"first {M[i, j]} at row {i}, column {j}")
    return M


def _plain(obj):
    """``json.dumps`` hook: numpy arrays and scalars as Python values."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dump_json(path: PathLike, obj) -> None:
    """Write JSON whose floats (NaN and +-inf too) read back exactly."""
    Path(path).write_text(json.dumps(obj, default=_plain) + "\n")


def load_json(path: PathLike):
    return json.loads(Path(path).read_text())


def model_to_dict(model: BlockModel) -> dict:
    return {
        "K": model.K,
        "L": model.L,
        "n": model.n,
        "m": model.m,
        "Q": [float(x) for x in model.Q.ravel()],
        "row_labels": model.z_rows.labels.tolist(),
        "col_labels": model.z_cols.labels.tolist(),
    }


# json_key's rules: name -> (test of a value and the rule's argument, what the value must
# be, {} standing for the argument); "each <name>" tests every item of a list
RULES = {
    "object": (lambda x, _: isinstance(x, dict), "an object"),
    "list": (lambda x, _: isinstance(x, (list, tuple)), "a list"),
    "string": (lambda x, _: isinstance(x, str), "a string"),
    "integer": (lambda x, _: is_integer(x), "an integer"),
    "number": (lambda x, _: is_number(x), "a number"),
    "bounded": (lambda x, _: is_number(x) and -MAX_ABS <= x <= MAX_ABS, f"a number in {_BOUNDS}"),
    "at least": (lambda x, low: x >= low, "at least {}"),
    "one of": (lambda x, choices: x in choices, "one of {}"),
    "length": (lambda x, n: len(x) == n, "a list of {} items"),
}


def json_key(where: str, obj, key: str, *rules):
    """The value at the dotted ``key`` of decoded JSON ``obj`` (``""``: ``obj``), passed
    through ``rules``: names of :data:`RULES` or ``(name, argument)`` pairs,
    ``("only", (keys, owner))`` for an object's keys, or callables, whose result replaces
    the value.  Raises ``ValueError`` as ``{where} has no key 'x'``
    or ``{where} key 'x' must be <rule>, got <value>``; a callable's ``ValueError`` gets
    ``{where} key 'x':`` (``{where}:`` for ``obj`` itself) in front."""
    parts = key.split(".") if key else []
    value = obj
    for depth, part in enumerate(parts):
        if not isinstance(value, dict) or part not in value:
            raise ValueError(f"{where} has no key {'.'.join(parts[:depth + 1])!r}")
        value = value[part]
    named = f"{where} key {key!r}" if key else where
    for rule in rules:
        if callable(rule):
            try:
                value = rule(value)
            except ValueError as exc:
                raise ValueError(f"{named}: {exc}") from None
            continue
        name, arg = (rule, None) if isinstance(rule, str) else rule
        if name == "only":
            if extra := [".".join(parts + [k]) for k in value if k not in arg[0]]:
                what = ("key {!r} is not a parameter" if len(extra) == 1
                        else "keys {!r} are not parameters").format(", ".join(extra))
                raise ValueError(f"{where} {what} of {arg[1]} ({', '.join(arg[0])})")
        else:
            each = name.startswith("each ")
            test, what = RULES[name.removeprefix("each ")]
            for i, item in enumerate(value) if each else [(None, value)]:
                if not test(item, arg):
                    what = what.format(", ".join(arg) if isinstance(arg, tuple) else arg)
                    got = f"{len(item)} items" if name == "length" else repr(item)
                    at = f" item {i}" if each else ""
                    raise ValueError(f"{named}{at} must be {what}, got {got}")
    return value


def model_from_dict(d: dict, path: Optional[PathLike] = None) -> BlockModel:
    """The model that :func:`model_to_dict` wrote; ``ValueError`` names ``path`` (when
    given) and the key."""
    where = "model JSON" if path is None else f"{path}: model JSON"
    K, L = (json_key(where, d, k, "integer", ("at least", 2)) for k in "KL")
    n, m = (json_key(where, d, k, "integer", ("at least", 1)) for k in "nm")
    Q = json_key(where, d, "Q", "list", "each bounded", ("length", K * L))
    rows, cols = (json_key(where, d, key, "list", lambda x: AssignmentMatrix(size, count, x))
                  for key, count, size in (("row_labels", K, n), ("col_labels", L, m)))
    return BlockModel(np.reshape(Q, (K, L)), rows, cols)


def noise_from_json(where: str, obj, key: str) -> NoiseModel:
    """The noise model :meth:`NoiseModel.to_dict` wrote at ``obj``'s dotted ``key``."""
    json_key(where, obj, key, "object")
    kind = json_key(where, obj, f"{key}.kind", "string", ("one of", tuple(NOISE_PARAMS)))
    allowed = ("kind",) + NOISE_PARAMS[kind]
    return json_key(where, obj, key, ("only", (allowed, f"{kind} noise")),
                    lambda d: NoiseModel(**d))


def report_to_dict(report: FitReport) -> dict:
    d = model_to_dict(report.model)
    d.update(
        {
            "cost_trajectory": [float(c) for c in report.cost_trajectory],
            "iterations": report.iterations,
            "init": report.init_used,
            "restart_index": report.restart_index,
            "seed": report.seed,
        }
    )
    return d
