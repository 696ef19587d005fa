"""Run the benchmark once per seed and summarise every metric over the seeds.

Run from the root of a checkout:

    python3 perfbench/collect.py --workloads c3-d200 --seeds 0-9 --trace 0 \\
        --output perfbench/out/c3.json

Runs are sequential, one process at a time, with ``run_seconds`` from
BENCHMARK.json.  For every workload the output keeps each run's last line
and ``counts`` line, and per metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    counts = next((json.loads(l[len("counts "):]) for l in lines if l.startswith("counts ")), {})
    env = next((json.loads(l[len("env "):]) for l in lines if l.startswith("env ")), {})
    return {"seed": seed, "wall_s": wall, "env": env, "counts": counts,
            "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated; default all in BENCHMARK.json")
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,1")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--output", required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]

    out = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for name in names:
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_one(name, seed, seconds, args.trace))
            res = runs[-1]["result"]
            print(f"{name} seed {seed}: {runs[-1]['wall_s']:.1f} s, correct={res['correct']}, "
                  f"failed {res['failed']}/{res['attempted']}", flush=True)
        metrics = runs[0]["result"]["metrics"]
        summary = {m: {"unit": metrics[m]["unit"],
                       **summarise([r["result"]["metrics"][m]["value"] for r in runs])}
                   for m in metrics}
        for m, s in summary.items():
            print(f"  {m:40s} median {s['median']:<12.6g} spread {s['spread']:.3f}")
        out["workloads"][name] = {"summary": summary, "runs": runs}
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
