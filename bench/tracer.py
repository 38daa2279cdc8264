"""Span tracer that times graphon_lab's layers from outside the package.

``Tracer.install`` wraps every public function of every ``graphon_lab``
module (plus the few private functions named in ``_PRIVATE``) and rebinds
the name in every module that holds it, so ``estimation.group_sums``,
``experiments.kmeans`` and ``cli.fit_grid`` all reach the traced wrapper.
Nothing in the package changes; ``uninstall`` restores the originals.

A span is ``(name, start, end, span_id, parent_id, op_id, info)``.  Spans
stay in memory and are written out only when a process ends its share of
the work: forked pool workers flush after each ``_run_cell`` and traced
CLI processes flush at exit, each to its own JSON file in ``span_dir``.
Times come from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), so spans
from different processes share one clock.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import types
from pathlib import Path

PACKAGE = "graphon_lab"

# Private functions that mark a boundary the metrics need: the unit of
# work a pool worker runs, and one Lloyd restart (counted, not spanned).
_PRIVATE = {"experiments": ("_run_cell",), "estimation": ("_lloyd_run",)}
_COUNT_ONLY = {"estimation._lloyd_run"}

ENV_SPAN_DIR = "BENCH_SPAN_DIR"
ENV_PARENT = "BENCH_PARENT_SPAN"
ENV_OP = "BENCH_OP_ID"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _nbytes(x) -> int:
    return int(getattr(x, "nbytes", 0))


# Counters computed at the boundary from the call's arguments and result.
# They run after the span's end time is taken.
def _group_sums_info(args, kwargs, result):
    return {"bytes": _nbytes(_arg(args, kwargs, 0, "H"))
            + _nbytes(_arg(args, kwargs, 1, "labels"))}


def _flow_info(args, kwargs, result):
    import numpy as np

    cost = np.asarray(_arg(args, kwargs, 0, "cost"))
    min_size = int(_arg(args, kwargs, 1, "min_size"))
    n, K = cost.shape
    bind = min_size > 0 and (
        np.bincount(np.argmin(cost, axis=1), minlength=K).min() < min_size
    )
    return {"bind": int(bind), "slot_cells": K * min_size * n if bind else 0}


def _lloyd_fit_info(args, kwargs, result):
    cfg = _arg(args, kwargs, 1, "config")
    return {"h_bytes": _nbytes(_arg(args, kwargs, 0, "H")),
            "floors": int(cfg.n0 > 0 or cfg.m0 > 0)}


def _fit_grid_info(args, kwargs, result):
    return {"entries": len(_arg(args, kwargs, 1, "grid"))}


def _array_info(index, name):
    def info(args, kwargs, result):
        return {"bytes": _nbytes(_arg(args, kwargs, index, name))}
    return info


def _load_info(args, kwargs, result):
    return {"bytes": _nbytes(result)}


def _file_info(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


_INFO = {
    "core.group_sums": _group_sums_info,
    "flow.min_cost_assignment": _flow_info,
    "estimation.lloyd_fit": _lloyd_fit_info,
    "experiments.fit_grid": _fit_grid_info,
    "io.save_matrix": _array_info(1, "M"),
    "io.load_matrix": _load_info,
    "io.dump_json": _file_info,
}


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, span_dir, op_id=None, root_parent=None):
        self.span_dir = Path(span_dir)
        self.pid = os.getpid()
        self.op_id = op_id
        self.root_parent = root_parent
        self.spans: list = []
        self.stack: list = []  # open spans: (span_id, name, info)
        self._seq = 0
        self._bound: list = []  # (module, attribute, original)

    @classmethod
    def from_env(cls) -> "Tracer":
        parent = os.environ.get(ENV_PARENT)
        return cls(
            os.environ[ENV_SPAN_DIR],
            op_id=os.environ.get(ENV_OP),
            root_parent=int(parent) if parent else None,
        )

    def child_env(self, parent_id) -> dict:
        """Environment that lets a traced child process join this trace."""
        return {ENV_SPAN_DIR: str(self.span_dir), ENV_PARENT: str(parent_id),
                ENV_OP: str(self.op_id)}

    def _new_id(self) -> int:
        self._seq += 1
        return (os.getpid() << 32) | self._seq

    def _parent(self):
        return self.stack[-1][0] if self.stack else self.root_parent

    def record(self, name, t0, t1, info=None):
        """Add a span measured by the caller (e.g. a child process's wall time)."""
        sid = self._new_id()
        self.spans.append((name, t0, t1, sid, self._parent(), self.op_id, info or {}))
        return sid

    def open(self, name):
        """Start a span by hand; returns its id for use as a child's parent."""
        sid = self._new_id()
        parent = self._parent()
        self.stack.append((sid, name, {}))
        return sid, parent, time.perf_counter()

    def close(self, handle):
        sid, parent, t0 = handle
        t1 = time.perf_counter()
        _, name, info = self.stack.pop()
        self.spans.append((name, t0, t1, sid, parent, self.op_id, info))

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        info_fn = _INFO.get(name)
        flush_in_child = name == "experiments._run_cell"

        if name in _COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                for _, open_name, info in reversed(tracer.stack):
                    if open_name == "estimation.lloyd_fit":
                        info["iters"] = info.get("iters", 0) + len(result[1])
                        break
                return result
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            first = len(tracer.spans)
            sid = tracer._new_id()
            parent = tracer._parent()
            info: dict = {}
            tracer.stack.append((sid, name, info))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
            if info_fn is not None:
                info.update(info_fn(args, kwargs, result))
            tracer.spans.append((name, t0, t1, sid, parent, tracer.op_id, info))
            if flush_in_child and os.getpid() != tracer.pid:
                # a forked pool worker: its spans would die with it
                tracer.flush(tracer.spans[first:])
                del tracer.spans[first:]
            return result

        return traced

    def install(self) -> None:
        modules = [
            (name, mod) for name, mod in list(sys.modules.items())
            if name.startswith(PACKAGE + ".") and mod is not None
        ]
        if PACKAGE in sys.modules:
            modules.append((PACKAGE, sys.modules[PACKAGE]))
        wrappers = {}
        for modname, mod in modules:
            short = modname[len(PACKAGE) + 1:]
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == modname
                    and (not attr.startswith("_") or attr in _PRIVATE.get(short, ()))
                ):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for _, mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._bound.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._bound):
            setattr(mod, attr, obj)
        self._bound.clear()

    # -- persistence ------------------------------------------------------

    def flush(self, spans=None) -> None:
        """Write spans (default: all) to a file of their own in ``span_dir``."""
        spans = self.spans if spans is None else spans
        self.span_dir.mkdir(parents=True, exist_ok=True)
        path = self.span_dir / f"spans-{os.getpid()}-{self._new_id() & 0xFFFFFFFF}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps([list(s) for s in spans]))
        tmp.rename(path)

    def collect(self) -> None:
        """Merge the span files that child processes left in ``span_dir``."""
        if not self.span_dir.is_dir():
            return
        for path in sorted(self.span_dir.glob("spans-*.json")):
            self.spans.extend(tuple(s) for s in json.loads(path.read_text()))
            path.unlink()


# --------------------------------------------------------------------------
# Per-layer metrics from spans
# --------------------------------------------------------------------------

# (metric name, unit); every traced run reports all of them, 0 where the
# workload never enters the layer.
LAYER_METRICS = [
    ("core.group_sums.calls", "count"),
    ("core.group_sums.self_s", "s"),
    ("core.group_sums.bytes", "B"),
    ("core.induced_mean.calls", "count"),
    ("core.induced_mean.self_s", "s"),
    ("synthesis.synthesize.calls", "count"),
    ("synthesis.synthesize.self_s", "s"),
    ("flow.min_cost_assignment.calls", "count"),
    ("flow.min_cost_assignment.self_s", "s"),
    ("flow.min_cost_assignment.bind_ratio", "ratio"),
    ("flow.min_cost_assignment.slot_cells", "count"),
    ("estimation.lloyd_fit.calls", "count"),
    ("estimation.lloyd_fit.self_s", "s"),
    ("estimation.lloyd_fit.iters", "count"),
    ("estimation.q_step.calls", "count"),
    ("estimation.q_step.self_s", "s"),
    ("estimation.assignment_costs.calls", "count"),
    ("estimation.assignment_costs.self_s", "s"),
    ("estimation.h_passes_per_iter", "ratio"),
    ("estimation.spectral_init.calls", "count"),
    ("estimation.spectral_init.self_s", "s"),
    ("estimation.kmeans.calls", "count"),
    ("estimation.kmeans.self_s", "s"),
    ("experiments.fit_grid.calls", "count"),
    ("experiments.fit_grid.self_s", "s"),
    ("experiments.fit_grid.lloyd_runs", "count"),
    ("experiments.fit_grid.reuse_ratio", "ratio"),
    ("experiments.run_ewa_experiment.self_s", "s"),
    ("experiments.run_experiment.pool_util", "ratio"),
    ("aggregation.ewa_weights.calls", "count"),
    ("aggregation.ewa_weights.self_s", "s"),
    ("evaluation.delta_tilde.calls", "count"),
    ("evaluation.delta_tilde.self_s", "s"),
    ("evaluation.oracle_fit.calls", "count"),
    ("evaluation.oracle_fit.self_s", "s"),
    ("io.save_matrix.calls", "count"),
    ("io.save_matrix.self_s", "s"),
    ("io.save_matrix.bytes", "B"),
    ("io.load_matrix.calls", "count"),
    ("io.load_matrix.self_s", "s"),
    ("io.load_matrix.bytes", "B"),
    ("io.dump_json.calls", "count"),
    ("io.dump_json.self_s", "s"),
    ("io.dump_json.bytes", "B"),
    ("cli.synth.proc_s", "s"),
    ("cli.fit.proc_s", "s"),
    ("cli.eval.proc_s", "s"),
    ("cli.ewa.proc_s", "s"),
    ("cli.import_s", "s"),
    ("trace.op_s_p50", "s"),
    ("trace.overhead", "ratio"),
]

# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = [
    name for name, _ in LAYER_METRICS
    if name.endswith((".calls", ".bytes", ".slot_cells", ".lloyd_runs", ".iters"))
]


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


# Spans whose time is reported as a layer of its own; any other span's time
# folds into its nearest reported ancestor.
REPORTED = {name.rsplit(".", 1)[0] for name, _ in LAYER_METRICS
            if name.endswith((".self_s", ".proc_s"))}


def self_times(spans) -> dict:
    """Span id -> duration minus the time its reported descendants cover.

    A reported span's "children" are the reported spans nearest below it,
    so time in unreported helpers (``substream``, ``sample_observations``)
    counts toward the reported layer that called them.
    """
    by_id = {s[3]: s for s in spans}
    children: dict = {}
    for s in spans:
        if s[0] not in REPORTED:
            continue
        parent = by_id.get(s[4])
        while parent is not None and parent[0] not in REPORTED:
            parent = by_id.get(parent[4])
        if parent is not None:
            children.setdefault(parent[3], []).append((s[1], s[2]))
    return {s[3]: (s[2] - s[1]) - _covered(children.get(s[3], ()), s[1], s[2])
            for s in spans}


def _ancestor_named(span, by_id, name) -> bool:
    parent = by_id.get(span[4])
    while parent is not None:
        if parent[0] == name:
            return True
        parent = by_id.get(parent[4])
    return False


def layer_metrics(spans, op_ids) -> dict:
    """Per-op means of every layer metric over the ops in ``op_ids``.

    ``pool_util`` and the ``trace.*`` entries are filled in by the caller.
    """
    ops = set(op_ids)
    spans = [s for s in spans if s[5] in ops]
    n_ops = max(len(ops), 1)
    own = self_times(spans)
    by_id = {s[3]: s for s in spans}
    out = {name: 0.0 for name, _ in LAYER_METRICS}

    def per_op(key, value):
        out[key] += value / n_ops

    for s in spans:
        name, info = s[0], s[6]
        if f"{name}.calls" in out:
            per_op(f"{name}.calls", 1)
        if f"{name}.self_s" in out:
            per_op(f"{name}.self_s", own[s[3]])
        if f"{name}.bytes" in out:
            per_op(f"{name}.bytes", info.get("bytes", 0))
        if name == "flow.min_cost_assignment":
            per_op("flow.min_cost_assignment.slot_cells", info["slot_cells"])
        elif name == "estimation.lloyd_fit":
            per_op("estimation.lloyd_fit.iters", info.get("iters", 0))
        elif f"{name}.proc_s" in out:
            per_op(f"{name}.proc_s", s[2] - s[1])
        elif name == "cli.import":
            per_op("cli.import_s", s[2] - s[1])

    binds = [s[6]["bind"] for s in spans if s[0] == "flow.min_cost_assignment"]
    if binds:
        out["flow.min_cost_assignment.bind_ratio"] = sum(binds) / len(binds)

    # H bytes read by group sums inside Lloyd fits, per Lloyd iteration
    fit_bytes = sum(s[6]["bytes"] for s in spans if s[0] == "core.group_sums"
                    and _ancestor_named(s, by_id, "estimation.lloyd_fit"))
    h_iters = sum(s[6]["h_bytes"] * s[6].get("iters", 0)
                  for s in spans if s[0] == "estimation.lloyd_fit")
    if h_iters:
        out["estimation.h_passes_per_iter"] = fit_bytes / h_iters

    grids = [s for s in spans if s[0] == "experiments.fit_grid"]
    if grids:
        grid_ids = {s[3] for s in grids}
        fits = [s for s in spans if s[0] == "estimation.lloyd_fit" and s[4] in grid_ids]
        per_op("experiments.fit_grid.lloyd_runs", len(fits))
        own_runs = sum(s[6]["floors"] for s in fits)
        entries = sum(s[6]["entries"] for s in grids)
        out["experiments.fit_grid.reuse_ratio"] = 1.0 - own_runs / entries
    return out
