"""Run the benchmark over several seeds and report how steady each metric is.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]

Runs the command in BENCHMARK.json once per (seed, workload), cycling through
the workloads for each seed so that machine drift hits all of them alike.
For every end-to-end metric it prints the median, the quartiles (from
``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median next
to the metric's bound, and the medians of the two alternating halves of the
runs (odd and even seeds) with their difference as a share of the first.
The last line is the whole table as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    *rest, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    row = json.loads(rest[-1])["row"]
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "work_unit_ms": row["work_unit_ms"]["median"]}


def summarize(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    odd, even = statistics.median(values[0::2]), statistics.median(values[1::2])
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "bound": bound,
            "half_medians": [odd, even], "half_gap": (even - odd) / odd}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for w in workloads:
            runs[w].append(run_once(spec, w, seed))
            print(w, seed, json.dumps(runs[w][-1]), flush=True)

    table = {}
    for w, rs in runs.items():
        table[w] = {name: summarize([r["metrics"][name] for r in rs], bound)
                    for name, bound in bounds.items()}
        table[w]["work_unit_ms"] = [r["work_unit_ms"] for r in rs]
        for name, s in table[w].items():
            if name in bounds:
                print(f"{w:16} {name:12} median {s['median']:.4g}  spread {s['spread']:.3f} "
                      f"(bound {s['bound']})  halves {s['half_medians'][0]:.4g} / "
                      f"{s['half_medians'][1]:.4g} ({s['half_gap']:+.3f})")
    print(json.dumps(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
