"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload corpus --seeds 1-10 [--seconds S] [--trace 0]

For every metric it prints the median of the runs and the distance
between their first and third quartiles (`statistics.quantiles(n=4)`)
as a share of the median, next to the bound in BENCHMARK.json.  Runs
are made one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = args.seconds or bench["run_seconds"]

    values: dict[str, list[float]] = {}
    fails = set()
    for seed in args.seeds:
        done = subprocess.run(bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                                  "--seconds", str(seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        fails.add((result["failed"] / result["attempted"], result["correct"]))
        print(seed, json.dumps({k: round(v["value"], 4) for k, v in result["metrics"].items()}),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"failed share, correct: {sorted(fails)}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:24s} median {med:12.4f}  spread {spread:7.2%}  bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
