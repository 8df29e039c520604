"""Record one trajectory point of the benchmark.

Runs every workload once per seed untraced and once traced, and writes the
per-run metrics with their medians and quartiles to
``perfbench/results/BENCH_<label>.json``.  Run from the root of a checkout
while nothing else is busy, labelled with the commit being measured::

    python3 perfbench/record_point.py --label 8aeb102 --seeds 10
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

RUN_TIMEOUT_S = 600


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict[str, float]:
    """Median and quartiles, and the quartile distance over the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True,
                        help="names the output file, e.g. the commit")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--note", default="",
                        help="where and how the numbers were taken")
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS),
                        help="default: the workloads of BENCHMARK.json")
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    point = {
        "label": args.label,
        "note": args.note,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "run_seconds": seconds,
        "seeds": list(range(1, args.seeds + 1)),
        "workloads": {},
    }
    names = args.workload or [w["name"] for w in spec["workloads"]]
    for name in names:
        runs = []
        for seed in point["seeds"]:
            result = run_once(name, seed, seconds, 0)
            runs.append(result)
            values = {k: round(v["value"], 4)
                      for k, v in result["metrics"].items()}
            print(f"{name} seed {seed}: {values}", flush=True)
        metrics = {m["name"]: summary([r["metrics"][m["name"]]["value"]
                                       for r in runs])
                   for m in spec["end_to_end"]}
        for metric, s in metrics.items():
            print(f"{name} {metric}: median {s['median']:.6g} "
                  f"spread {s['spread']:.4f}", flush=True)
        traced = run_once(name, 1, seconds, 1)
        point["workloads"][name] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "end_to_end": metrics,
            "runs": [{k: v["value"] for k, v in r["metrics"].items()}
                     for r in runs],
            "per_layer_seed1": {k: v["value"]
                                for k, v in traced["metrics"].items()},
        }
    out = Path(__file__).resolve().parent / "results"
    out.mkdir(exist_ok=True)
    path = out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(point, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
