"""File formats: CSV matrices and JSON sidecars.

Matrices travel as plain CSV (one row per line, comma-separated decimal
floats, 17 significant digits).  Structured results travel as JSON, whose
floats are Python's shortest round-trip repr (``NaN``, ``Infinity`` and
``-Infinity`` for the non-finite ones).  Either way every float reads
back exactly.

Fixed field names
-----------------
``meta.json``    : n, m, noise_model, rho, seed, missing_p,
                   with_second_copy, graphon
``latents.json`` : U, V
``model.json``   : K, L, n, m, Q (row-major), row_labels, col_labels,
                   cost_trajectory, iterations, init, restart_index, seed
``ewa.json``     : beta, grid, weights, aggregate_path
``metrics.json`` : any of mse_theta, delta_tilde, oracle_mse, rate_bound
"""

from __future__ import annotations

import json
import math
from numbers import Integral, Real
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .core import AssignmentMatrix, BlockModel
from .estimation import FitReport

__all__ = [
    "save_matrix",
    "load_matrix",
    "dump_json",
    "load_json",
    "model_to_dict",
    "model_from_dict",
    "report_to_dict",
]

PathLike = Union[str, Path]

FLOAT_FMT = "%.17g"


def save_matrix(path: PathLike, M: np.ndarray) -> None:
    M = np.atleast_2d(np.asarray(M, dtype=np.float64))
    np.savetxt(path, M, fmt=FLOAT_FMT, delimiter=",")


def load_matrix(path: PathLike) -> np.ndarray:
    """Read a CSV matrix; NaN or +-inf raises ``ValueError`` naming the file.

    No stored matrix holds NaN: missing entries are marked in ``mask.csv``.
    """
    M = np.loadtxt(path, delimiter=",", ndmin=2)
    bad = np.argwhere(~np.isfinite(M))
    if len(bad):
        i, j = bad[0]
        raise ValueError(
            f"{path}: {len(bad)} non-finite entries, first {M[i, j]} at row {i}, column {j}"
        )
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


def _integral(x) -> bool:
    # bool is an int subclass, and JSON true loads as one
    return isinstance(x, Integral) and not isinstance(x, bool)


def _finite_number(x) -> bool:
    try:
        return isinstance(x, Real) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def model_from_dict(d: dict, path: Optional[PathLike] = None) -> BlockModel:
    """The model that :func:`model_to_dict` wrote.  Raises ``ValueError``,
    naming ``path`` (when given) and the key, when a key is missing, when
    K, L, n, m or a label is not an integer (a bool is not one), or when Q
    holds anything but finite numbers.  A label must lie in ``0 .. K-1``
    (``0 .. L-1`` for a column)."""
    where = "model JSON" if path is None else f"{path}: model JSON"
    keys = ("K", "L", "n", "m", "Q", "row_labels", "col_labels")
    if missing := [k for k in keys if not isinstance(d, dict) or k not in d]:
        raise ValueError(f"{where} has no key {missing[0]!r}")
    for key in ("K", "L", "n", "m"):
        if not _integral(d[key]):
            raise ValueError(f"{where} key {key!r} must be an integer, got {d[key]!r}")
    K, L = d["K"], d["L"]
    for key, ok, what in (
        ("row_labels", lambda x: _integral(x) and 0 <= x < K, f"integers from 0 to K-1={K - 1}"),
        ("col_labels", lambda x: _integral(x) and 0 <= x < L, f"integers from 0 to L-1={L - 1}"),
        ("Q", _finite_number, "finite numbers"),
    ):
        values = d[key]
        if not isinstance(values, list):
            raise ValueError(f"{where} key {key!r} must be a list of {what}, got {values!r}")
        bad = next((i for i, x in enumerate(values) if not ok(x)), None)
        if bad is not None:
            raise ValueError(
                f"{where} key {key!r} must hold {what}, got {values[bad]!r} at index {bad}")
    Q = np.asarray(d["Q"], dtype=np.float64).reshape(K, L)
    zr = AssignmentMatrix(int(d["n"]), K, np.asarray(d["row_labels"], dtype=np.int64))
    zc = AssignmentMatrix(int(d["m"]), L, np.asarray(d["col_labels"], dtype=np.int64))
    return BlockModel(Q, zr, zc)


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
