"""Benchmark for ccgcomment: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload corpus|unrealizable|frontend \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Generated inputs and trace files go to
`.perfbench/`.  The load is a closed loop: one client, one process at a
time, files in order.  Each timed pass runs every file of the workload
once in a fresh interpreter (perfbench/worker.py), so no program state
carries from one pass into the next; passes repeat while another one
would end closer to S seconds than the run has come so far, so a run
ends as near S as whole passes allow.  Every output is checked
(checks.py).

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of a traced run with `--trace 1`.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import checker_for, judge  # noqa: E402
from probe import REFERENCE_S, adjusted  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

SETUP_SAMPLES = 15
WORKER = str(HERE / "worker.py")


def python_env(hash_seed: int) -> dict:
    # The k-th interpreter of every run gets hash seed k, so string hashing
    # (set and dict layout) is the same in every run whatever the --seed.
    return {**os.environ, "PYTHONHASHSEED": str(hash_seed)}


def measure_setup(root: Path) -> list[float]:
    """Seconds from a fresh interpreter to a loaded bundled lexicon at the
    reference speed (probe.py), one per sample; a first, uncounted sample
    writes the bytecode caches."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, WORKER, "setup"], cwd=root, env=python_env(i),
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, probe_s = map(float, done.stdout.split())
        samples.append(seconds * REFERENCE_S / probe_s)
    return samples[1:]


def run_pass(root: Path, cases, trace: bool, hash_seed: int) -> dict:
    spec = {"trace": trace,
            "cases": [{"path": c.path, "mode": c.mode, "verify": c.verify} for c in cases]}
    done = subprocess.run([sys.executable, WORKER, "pass"], cwd=root, env=python_env(hash_seed),
                          input=json.dumps(spec), capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"worker failed:\n{done.stderr}")
    return json.loads(done.stdout)


_CONST = re.compile(r"\b(\w+)\b(?!\()")


def goal_shape(goal: list[str]) -> str:
    """The goal with each constant replaced by a placeholder numbered in
    order of first appearance: `assign(i, plus(i, 1))` and
    `assign(j, plus(j, 2))` both become `assign(_0, plus(_0, _1))`."""
    names: dict[str, str] = {}
    return " & ".join(_CONST.sub(lambda m: names.setdefault(m.group(1), f"_{len(names)}"), p)
                      for p in goal)


def shape_repeats(goals: list[list[str]]) -> int:
    seen: set[str] = set()
    repeats = 0
    for g in goals:
        shape = goal_shape(g)
        repeats += shape in seen
        seen.add(shape)
    return repeats


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[dict], stmts: list[int], setup: list[float]) -> dict:
    """The user-facing metrics; every time is at the reference speed.

    `file_ms_max` is the slowest file's median time over the passes: the
    longest a user waits for one file."""
    times = [[adjusted(f, p["probes"]) for f in p["files"]] for p in passes]
    per_file = [statistics.median(ts) for ts in zip(*times)]
    return {
        "stmts_per_s": metric(sum(stmts) / sum(map(sum, times)), "stmt/s"),
        "file_ms_max": metric(max(per_file) * 1000, "ms"),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_kib"] for p in passes) / 1024, "MiB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }


LAYER_MS = {"pyparse": "pyparse.ms", "extract": "extract.ms", "lexicon.load": "lexicon.load_ms",
            "lexicon.scope": "lexicon.scope_ms", "realize": "realize.ms",
            "postprocess": "postprocess.ms", "chart.parse": "chart.verify_ms",
            "chart.equivalent": "chart.verify_ms"}


def per_layer(passes: list[dict], goals: list[list[str]]) -> dict:
    """Per-pass means of the layer totals, plus per-statement realize times."""
    n = len(passes)
    ms = dict.fromkeys(LAYER_MS.values(), 0.0)
    counts = {"realize.calls": 0, "realize.found": 0, "chart.verify_calls": 0,
              "pyparse.stmts": 0, "extract.goals": 0}
    realize_ms = []
    run_ms = 0.0
    for p in passes:
        run_ms += sum(f["t1"] - f["t0"] for f in p["files"]) * 1000
        for layer, _file, _loc, t0, t1, info in p["spans"]:
            ms[LAYER_MS[layer]] += (t1 - t0) * 1000
            if layer == "realize":
                counts["realize.calls"] += 1
                counts["realize.found"] += isinstance(info, int)
                realize_ms.append((t1 - t0) * 1000)
            elif layer == "chart.parse":
                counts["chart.verify_calls"] += 1
            elif layer == "extract":
                counts["pyparse.stmts"] += info["stmts"]
                counts["extract.goals"] += info["goals"]
    out = {name: metric(v / n, "ms") for name, v in ms.items()}
    out["pipeline.run_ms"] = metric(run_ms / n, "ms")
    out["pipeline.self_ms"] = metric((run_ms - sum(ms.values())) / n, "ms")
    out.update({name: metric(v / n, "count") for name, v in counts.items()})
    out["realize.stmt_ms_p50"] = metric(statistics.median(realize_ms) if realize_ms else 0.0, "ms")
    out["realize.stmt_ms_max"] = metric(max(realize_ms, default=0.0), "ms")
    out["extract.shape_repeats"] = metric(shape_repeats(goals), "count")
    return out


def write_trace(path: Path, cases, passes: list[dict]):
    with path.open("w", encoding="utf-8") as fh:
        for i, p in enumerate(passes):
            for layer, file, loc, t0, t1, info in p["spans"]:
                fh.write(json.dumps({"pass": i, "file": cases[file].path, "loc": loc, "layer": layer,
                                     "start": t0, "end": t1, "info": info}) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("src/ccgcomment/pipeline.py", "corpus/golden/summary.json")
               if not (root / p).is_file()]
    if missing:
        print(f"error: not the root of a ccgcomment checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    outdir = root / ".perfbench"
    cases = build(args.workload, args.seed, root, outdir / f"{args.workload}-s{args.seed}")
    setup = [] if args.trace else measure_setup(root)

    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(root, cases, bool(args.trace), len(passes)))
        now = time.perf_counter()
        # another pass of the same length would end further past S than
        # the run now falls short of it
        if now - start + (now - t0) / 2 >= args.seconds:
            break

    check = checker_for(args.workload, root)
    verdicts: dict = {}
    failed = wrong = 0
    stmts = []
    goals = []
    for p in passes:
        for case, res in zip(cases, p["files"]):
            key = (case.path, res["code"], res["error"], res["stdout"])
            if key not in verdicts:
                verdicts[key] = judge(check, case, res)
            reason = verdicts[key]
            stmts.append(res["stdout"].count("\n"))
            if p is passes[0] and reason is None:
                goals.extend(r["goal"] for r in map(json.loads, res["stdout"].splitlines())
                             if r.get("goal"))
            if reason is not None:
                failed += 1
                expected_fault = case.known_fault and res["code"] == 1 and res["error"] is None
                if not expected_fault:
                    wrong += 1
                    print(f"FAILED {case.path}: {reason}", file=sys.stderr)
    attempted = len(cases) * len(passes)

    if args.trace:
        write_trace(outdir / f"{args.workload}-s{args.seed}.trace.jsonl", cases, passes)
        metrics = per_layer(passes, goals)
    else:
        metrics = end_to_end(passes, stmts, setup)
    print(f"{args.workload}: {len(passes)} passes of {len(cases)} files,"
          f" {sum(stmts)} statements, {failed}/{attempted} failed", file=sys.stderr)
    if not args.trace:
        wall = sum(f["t1"] - f["t0"] for p in passes for f in p["files"])
        probes = [d for p in passes for _, d in p["probes"]]
        print(f"unadjusted: {sum(stmts) / wall:.6g} stmt/s; {len(probes)} probes, mean"
              f" {statistics.mean(probes) / REFERENCE_S:.3f} x the reference", file=sys.stderr)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
