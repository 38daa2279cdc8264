"""graphon-lab benchmark: one workload, one run, one JSON line of results.

    python3 bench/run.py --workload ewa_grid --seed 1 --seconds 30 --trace 0

Runs the workload's op in a closed loop with one client for ``--seconds``
seconds on inputs derived from ``--seed``, checks every op's outputs, and
prints the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) as the last line of standard output.  The full record
(environment, every op, fingerprints, layer metrics) goes to
``.bench_out/<workload>-seed<seed>-trace<trace>.json``.  See README.md.

Times are reported in reference seconds: wall times scaled by the host's
speed during the run (``host_factor``), measured with a fixed calibration
kernel that runs on the same CPUs between the ops.  On a shared host the
CPUs run up to twice as slow while neighbours are busy, for seconds to
minutes at a time, and that swamps the program's own run-to-run spread.
The raw wall times are in the result file beside the scaled ones.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

NAMES = ("ewa_grid", "sweep_cells", "cli_roundtrip")
POOLED = ("sweep_cells",)  # run cells on a pool of nproc workers
WITH_CHILDREN = ("sweep_cells", "cli_roundtrip")  # peak RSS adds the largest child
BLAS_THREADS = 1
SETUP_SAMPLES = 5  # fresh set-ups spread over a run; setup_s is their median
# Calibration kernel: an integer loop in the interpreter.  Of the kernels
# tried (this loop, small numpy group sums, scipy's assignment solver) it
# followed the ops' slow drift best.  CAL_REF_S is its median on the
# reference host (a 2-vCPU Xeon VM), so a scaled time reads as seconds there.
CAL_ITERS = 1_000_000
CAL_REF_S = 0.12
TRACE_WINDOW = 2  # traced ops whose layer counts are reported
FINGERPRINT_RTOL = 1e-9

END_TO_END = (
    ("setup_s", "s"),
    ("op_s_p50", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("err_ratio", "ratio"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and set up, then exit (one setup_s sample)")
    p.add_argument("--record", action="store_true",
                   help="run every pool input once and store its fingerprint in "
                        "bench/fingerprints.json (at the seed commit only)")
    return p.parse_args(argv)


def configure_threads(workload: str) -> dict:
    """Fix pool and BLAS threads before numpy loads; refuse oversubscription.

    A single-process workload is pinned to one CPU, with its children, so
    that the calibration kernel measures the CPU the op ran on.
    """
    cpus = sorted(os.sched_getaffinity(0))
    nproc = len(cpus)
    workers = nproc if workload in POOLED else 1
    blas = BLAS_THREADS
    if workers * blas > nproc:
        raise SystemExit(
            f"refusing to run: {workers} pool workers x {blas} BLAS threads "
            f"exceed nproc={nproc}"
        )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas)
    os.environ["GRAPHON_LAB_THREADS"] = str(workers)
    if workers == 1:
        cpus = cpus[:1]
        os.sched_setaffinity(0, cpus)
    return {"nproc": nproc, "pool_workers": workers, "blas_threads": blas,
            "cpus": cpus}


def _getconf(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True)
        return int(out.stdout.strip())
    except (OSError, ValueError):
        return None


def _git_sha():
    """HEAD of the checkout if it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(threads: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "graphon_lab").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    return {
        **threads,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "GRAPHON_LAB_THREADS": os.environ["GRAPHON_LAB_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
    }


def pool_seeds(wl):
    """The workload's fixed inputs; fingerprints are stored for each."""
    import numpy as np

    ss = np.random.SeedSequence([NAMES.index(wl.name), wl.pool_size])
    return [int(s) for s in ss.generate_state(wl.pool_size, dtype=np.uint32)]


def op_seeds(wl, seed: int):
    """The run's op inputs: the pool, rotated to a start that ``seed`` picks."""
    import numpy as np

    pool = pool_seeds(wl)
    start = int(np.random.SeedSequence(seed).generate_state(1)[0]) % len(pool)
    return pool[start:] + pool[:start]


def _cal_kernel(iters) -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(iters):
        acc += i * i % 7
    return time.perf_counter() - t0


class HostClock:
    """Times the calibration kernel, split evenly over the run's CPUs.

    The host's speed changes within a second and over minutes; the fast part
    averages out within an op, and the slow part is what ``factor`` removes,
    from the mean over all samples of the run.
    """

    def __init__(self, cpus):
        self.cpus = cpus
        self.samples = []  # seconds per kernel, summed over the CPUs

    def sample(self) -> None:
        total = 0.0
        for cpu in self.cpus:
            os.sched_setaffinity(0, [cpu])
            total += _cal_kernel(CAL_ITERS // len(self.cpus))
        os.sched_setaffinity(0, self.cpus)  # pool workers fork with this mask
        self.samples.append(total)

    def factor(self) -> float:
        """Reference over measured kernel time: scales wall to reference seconds."""
        return CAL_REF_S / statistics.fmean(self.samples)


def setup_sample(args, clock) -> float:
    """A fresh process's time from start to where its first op would begin."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        check=True, stdout=subprocess.DEVNULL,
    )
    wall = time.perf_counter() - t0
    clock.sample()
    return wall


def _same(a, b, rtol) -> bool:
    import numpy as np

    if sorted(a) != sorted(b):
        return False
    for key in a:
        x, y = np.asarray(a[key], dtype=float), np.asarray(b[key], dtype=float)
        if x.shape != y.shape or not np.allclose(x, y, rtol=rtol, atol=0.0):
            return False
    return True


FINGERPRINTS = HERE / "fingerprints.json"


def load_fingerprints() -> dict:
    return json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.is_file() else {}


def compare_fingerprints(ops, stored) -> dict:
    out = {"rtol": FINGERPRINT_RTOL, "matched": 0, "differ": 0, "unrecorded": 0,
           "differ_keys": []}
    for op in ops:
        if not op["ok"]:
            continue
        ref = stored.get(op["key"])
        if ref is None:
            out["unrecorded"] += 1
        elif _same(op["fingerprint"], ref, FINGERPRINT_RTOL):
            out["matched"] += 1
        else:
            out["differ"] += 1
            out["differ_keys"].append(op["key"])
    return out


def record_pool(args, wl, state) -> None:
    """Run every pool input once and store its fingerprint (seed commit only)."""
    stored = load_fingerprints()
    for seed in pool_seeds(wl):
        fp, _, problems, _ = wl.check(state, wl.run(state, seed, None))
        if problems:
            raise SystemExit(f"{wl.name} op {seed} failed: {problems}")
        stored[f"{wl.name}/{seed}"] = fp
    FINGERPRINTS.write_text(json.dumps(dict(sorted(stored.items())), indent=0) + "\n")
    print(f"recorded {wl.pool_size} {wl.name} fingerprints in {FINGERPRINTS.relative_to(ROOT)}")


def run_loop(args, wl, state, tracer, seeds, clock):
    """Closed loop for ``args.seconds``; traced runs alternate traced/untraced.

    The set-up samples are taken between ops, spread over the run, so that
    ``setup_s`` sees the same machine as the ops do.  The calibration
    kernel runs before the first op and after every op and set-up sample;
    everything counts towards ``args.seconds``.
    Returns the ops and the set-up samples.
    """
    ops, setups = [], []
    clock.sample()
    t_loop = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - t_loop
        traced_done = sum(op["traced"] for op in ops)
        # an untraced run ends on a whole pass over the inputs, so that every
        # input counts equally in its medians; a traced run on a whole pair
        if elapsed >= args.seconds and i >= 1 and (
            (i % 2 == 0 and traced_done >= TRACE_WINDOW) if args.trace
            else i % len(seeds) == 0
        ):
            break
        if len(setups) < 1 + (SETUP_SAMPLES - 1) * elapsed / args.seconds:
            setups.append(setup_sample(args, clock))
        pair = i // 2
        traced = bool(args.trace) and (i % 2) == (pair % 2)
        seed = seeds[(pair if args.trace else i) % len(seeds)]
        op = {"op_id": str(i), "seed": seed, "traced": traced,
              "key": f"{wl.name}/{seed}"}
        if traced:
            tracer.op_id = op["op_id"]
            tracer.install()
        t0 = time.perf_counter()
        try:
            raw, error = wl.run(state, seed, tracer if traced else None), None
        except Exception as exc:  # a raising op is a failed op; the loop goes on
            raw, error = None, f"{type(exc).__name__}: {exc}"
        op["wall_s"] = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        clock.sample()
        if traced:
            tracer.collect()
        fp, errs, problems, notes = {}, [], [], {}
        if error is None:
            try:
                fp, errs, problems, notes = wl.check(state, raw)
            except Exception as exc:  # an output that cannot be read fails the op
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        op.update(ok=not problems, problems=problems, fingerprint=fp,
                  err_ratios=errs, notes=notes)
        ops.append(op)
        i += 1
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(args, clock))
    return ops, setups


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def bench(args, wl, tracer, work_dir, threads):
    from tracer import LAYER_METRICS, EXACT_COUNTS, layer_metrics

    state = wl.setup(work_dir)
    main_setup_s = time.perf_counter() - T_START

    if args.record:
        record_pool(args, wl, state)
        return
    clock = HostClock(threads["cpus"])
    ops, setups = run_loop(args, wl, state, tracer, op_seeds(wl, args.seed), clock)

    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rss_child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    plain = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    failed = sum(not op["ok"] for op in ops)
    host = clock.factor()
    wall_setup_s = median(setups)
    wall_op_s_p50 = median([op["wall_s"] for op in plain])
    values = {
        "setup_s": wall_setup_s * host,
        "op_s_p50": wall_op_s_p50 * host,
        "ops_per_s": len(plain) / (sum(op["wall_s"] for op in plain) * host),
        "peak_rss_mb": rss_self + (rss_child if wl.name in WITH_CHILDREN else 0.0),
        "ok_frac": 1.0 - failed / len(ops),
        "err_ratio": median([e for op in ops if op["ok"] for e in op["err_ratios"]]),
    }
    end_to_end = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}

    layers = None
    if tracer is not None:
        window = [op["op_id"] for op in traced[:TRACE_WINDOW]]
        lv = layer_metrics(tracer.spans, window)
        lv["experiments.run_experiment.pool_util"] = median(
            [op["notes"]["pool_util"] for op in plain if "pool_util" in op["notes"]]
        )
        lv["trace.op_s_p50"] = median([op["wall_s"] for op in traced]) * host
        # each pair ran one input traced and untraced, so compare within pairs
        pairs = zip(ops[0::2], ops[1::2])
        lv["trace.overhead"] = median([
            (a["wall_s"] / b["wall_s"] if a["traced"] else b["wall_s"] / a["wall_s"]) - 1.0
            for a, b in pairs
        ])
        layers = {k: {"value": lv[k], "unit": u} for k, u in LAYER_METRICS}

    fingerprints = compare_fingerprints(ops, load_fingerprints())
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(threads),
        "end_to_end": end_to_end, "op_s_samples": len(plain),
        "host_factor": host, "cal_ref_s": CAL_REF_S, "calibration_s": clock.samples,
        "wall_op_s_p50": wall_op_s_p50, "wall_setup_s": wall_setup_s,
        "wall_setup_samples_s": setups, "main_setup_s": main_setup_s,
        "peak_rss_self_mb": rss_self, "peak_rss_children_mb": rss_child,
        "fingerprints": fingerprints, "layers": layers,
        "exact_counts": {k: layers[k]["value"] for k in EXACT_COUNTS} if layers else None,
        "ops": ops,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for k, v in end_to_end.items():
        print(f"{wl.name} {k} = {v['value']:.6g} {v['unit']}")
    print(f"{wl.name} wall: op p50 {wall_op_s_p50:.4g} s, set-up {wall_setup_s:.4g} s; "
          f"scaled by host_factor {host:.4g} (calibration kernel mean "
          f"{statistics.fmean(clock.samples):.4g} s, reference {CAL_REF_S} s)")
    print(f"{wl.name} ops: {len(ops)} attempted, {failed} failed, "
          f"{len(plain)} untraced op samples")
    print(f"{wl.name} fingerprints (rtol {FINGERPRINT_RTOL:g}): {fingerprints['matched']} "
          f"match, {fingerprints['differ']} differ, {fingerprints['unrecorded']} unrecorded")
    if layers:
        print(f"{wl.name} tracing overhead: {layers['trace.overhead']['value']:+.1%} "
              f"(median over traced/untraced pairs; traced p50 "
              f"{layers['trace.op_s_p50']['value']:.4g} s, untraced {values['op_s_p50']:.4g} s)")
    for op in ops:
        if not op["ok"]:
            print(f"{wl.name} op {op['op_id']} failed: {op['problems'][0]}")
    print(f"{wl.name} full record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": layers if layers is not None else end_to_end,
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "graphon_lab" / "__init__.py").is_file():
        print(f"no graphon_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = configure_threads(args.workload)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tag = f"{args.workload}-{os.getpid()}"
    work_dir = OUT / "work" / tag
    span_dir = OUT / "spans" / tag
    try:
        if args.setup_only:
            wl.setup(work_dir)
            return 0
        tracer = Tracer(span_dir) if args.trace else None
        bench(args, wl, tracer, work_dir, threads)
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        shutil.rmtree(span_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
