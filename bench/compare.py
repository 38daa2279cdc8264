"""Read benchmark result files side by side.

    python3 bench/compare.py --base a/*.json --new b/*.json

Each side is one result file written by ``run.py`` (under ``.bench_out/``)
or several runs of one workload.  For every end-to-end metric it prints
each side's median (and quartiles when a side has four or more runs), the
change of the medians, and the metric's bound from ``BENCHMARK.json``;
for traced runs it does the same for the per-layer metrics.  It then
lists environment fields that differ and the ops whose result
fingerprints differ between the sides.  It decides nothing: a gain still
needs the paired-run rule in README.md.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    runs = [json.loads(Path(p).read_text()) for p in paths]
    workloads = {r["workload"] for r in runs}
    if len(workloads) != 1:
        raise SystemExit(f"one workload per side, got {sorted(workloads)}")
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return med, f"{med:.6g} [{q1:.4g}, {q3:.4g}]"
    return med, f"{med:.6g}"


def table(title, base, new, key, bounds):
    if not all(r[key] for r in base + new):
        return  # per-layer metrics exist only in traced runs
    names = [n for n in base[0][key] if all(n in r[key] for r in base + new)]
    print(f"\n{title}")
    print(f"{'metric':44} {'unit':6} {'base':>28} {'new':>28} {'change':>9}  bound")
    for name in names:
        unit = base[0][key][name]["unit"]
        b_med, b_txt = summary([r[key][name]["value"] for r in base])
        n_med, n_txt = summary([r[key][name]["value"] for r in new])
        change = f"{n_med / b_med - 1:+.1%}" if b_med else "n/a"
        bound = bounds.get(name)
        note = ""
        if bound is not None and b_med:
            worse = (n_med - b_med) / b_med * (1 if bound[1] == "lower" else -1)
            note = f"{bound[0]:.0%} {'WORSE' if worse > bound[0] else 'ok'}"
        print(f"{name:44} {unit:6} {b_txt:>28} {n_txt:>28} {change:>9}  {note}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    args = p.parse_args(argv)
    base, new = load(args.base), load(args.new)

    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else {}
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec.get("end_to_end", [])}

    print(f"workload {base[0]['workload']}: {len(base)} base run(s), {len(new)} new run(s)")
    table("end to end (untraced ops)", base, new, "end_to_end", bounds)
    table("per layer (traced ops, per-op means)", base, new, "layers", {})

    env_b, env_n = base[0]["environment"], new[0]["environment"]
    diff = [k for k in env_b if env_b.get(k) != env_n.get(k)]
    print("\nenvironment:")
    for k in diff:
        print(f"  {k}: {env_b.get(k)} -> {env_n.get(k)}")
    if not diff:
        print("  identical")

    fp_b = {op["key"]: op["fingerprint"] for r in base for op in r["ops"] if op["ok"]}
    fp_n = {op["key"]: op["fingerprint"] for r in new for op in r["ops"] if op["ok"]}
    shared = sorted(set(fp_b) & set(fp_n))
    changed = [k for k in shared if fp_b[k] != fp_n[k]]
    print(f"\nfingerprints: {len(shared)} ops on both sides, {len(changed)} differ")
    for k in changed[:10]:
        print(f"  {k}: {fp_b[k]} -> {fp_n[k]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
