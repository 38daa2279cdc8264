"""Reproduce the ROADMAP baseline table of ``lloyd_fit`` timings.

    python3 bench/baseline.py

Rows: spectral init; random init with 10 restarts; spectral init with
size floors n0 = n/16, m0 = n/32.  Each cell fits a rand graphon with
K = L = 8, rho = 0.6, Bernoulli noise and m = n/2, and reports the median
wall time of three fits of the same input, with BLAS on one thread.
Prints a markdown table and writes ``.bench_out/baseline.json``.
"""

import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SIZES = (256, 512, 1024, 2048)
REPS = 3

ROWS = (
    ("`lloyd_fit` spectral", dict(init="spectral")),
    ("`lloyd_fit` random, 10 restarts", dict(init="random", restarts=10)),
    ("`lloyd_fit` spectral, n0=n/16, m0=n/32", dict(init="spectral", floors=True)),
)


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from graphon_lab import (FitConfig, NoiseModel, SynthConfig, lloyd_fit,
                             make_standard_graphon, synthesize)

    graphon = make_standard_graphon("rand", K=8, L=8, rho=0.6, seed=1)
    table = {}
    for n in SIZES:
        H = synthesize(SynthConfig(n, n // 2, graphon, NoiseModel.bernoulli(), seed=1)).H
        for label, opts in ROWS:
            floors = opts.get("floors", False)
            cfg = FitConfig(K=8, L=8, init=opts["init"], restarts=opts.get("restarts", 10),
                            n0=n // 16 if floors else 0, m0=n // 32 if floors else 0,
                            seed=0)
            times = []
            for _ in range(REPS):
                t0 = time.perf_counter()
                lloyd_fit(H, cfg)
                times.append(time.perf_counter() - t0)
            table.setdefault(label, {})[n] = statistics.median(times)
            print(f"{label} n={n}: {table[label][n] * 1e3:.0f} ms", file=sys.stderr)

    print(f"| workload | {' | '.join(f'n={n}' for n in SIZES)} |")
    print(f"|---|{'---|' * len(SIZES)}")
    for label, cells in table.items():
        print(f"| {label} | {' | '.join(f'{cells[n] * 1e3:.0f} ms' for n in SIZES)} |")
    print(f"\nmedian of {REPS} fits per cell, 1 BLAS thread")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "baseline.json").write_text(json.dumps(
        {"reps": REPS, "blas_threads": 1,
         "ms": {label: {str(n): v * 1e3 for n, v in cells.items()}
                for label, cells in table.items()}}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
