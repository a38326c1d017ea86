"""One timed pass of the benchmark, in a fresh interpreter.

    python3 perfbench/worker.py setup
        print the CPU seconds from here to a loaded bundled lexicon, and
        the mean probe time (probe.py) around it
    python3 perfbench/worker.py pass < spec.json
        run `ccgcomment.pipeline.run()` on each file of the spec in order
        and print one JSON object: per-file exit code, output, and wall
        and CPU clocks at start and end; the process's peak RSS; and
        either the probes run during the pass (probe.py) or, when the
        spec asks for a trace, one span per layer call

Run from the root of a checkout; the program is imported from `src/`.
"""

from __future__ import annotations

import sys
import time

from probe import Sampler, probe

if sys.argv[1:] == ["setup"]:
    # probes before and after: they measure the machine's speed, not set-up
    _probes = [probe() for _ in range(50)]
    # nothing of the program is loaded before this clock starts
    _c0 = time.process_time()
    sys.path.insert(0, "src")
    import ccgcomment

    ccgcomment.load_bundled_lexicon()
    _c1 = time.process_time()
    _probes += [probe() for _ in range(50)]
    print(repr(_c1 - _c0), repr(sum(_probes) / len(_probes)))
    sys.exit(0)

import io
import json
import resource

sys.path.insert(0, "src")

from ccgcomment import pipeline, pyparse  # noqa: E402

# Layer functions that `pipeline` calls from outside, by the name the
# tracer reports them under.  `pyparse.parse_source` is looked up on its
# module at call time; the others are names bound in `pipeline`.
LAYERS = (
    ("pyparse", pyparse, "parse_source"),
    ("extract", pipeline, "extract"),
    ("lexicon.load", pipeline, "load_bundled_lexicon"),
    ("lexicon.scope", pipeline, "extend_with_identifiers"),
    ("realize", pipeline, "realize_all"),
    ("postprocess", pipeline, "finalize"),
    ("chart.parse", pipeline, "chart_parse"),
    ("chart.equivalent", pipeline, "equivalent"),
)


class Tracer:
    """Wraps the layer functions and keeps one span per call in memory.

    A span is (layer, file index, statement loc or None, start, end, info).
    Every layer call happens inside the `run()` span of its file, and no
    layer calls another through `pipeline`, so the spans of one file do
    not overlap.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.file = -1
        # `run()` scopes the lexicon once per goal-bearing statement, in
        # order, before realizing it; the locs of those not yet scoped
        self.pending: list = []
        self.loc = None

    def install(self):
        for layer, module, attr in LAYERS:
            setattr(module, attr, self._wrap(layer, getattr(module, attr)))

    def start_file(self, index: int):
        self.file, self.loc, self.pending = index, None, []

    def _wrap(self, layer: str, fn):
        clock = time.perf_counter
        spans = self.spans

        def traced(*args, **kwargs):
            if layer == "lexicon.scope" and self.pending:
                self.loc = self.pending.pop(0)
            loc = None if layer in ("pyparse", "extract", "lexicon.load") else self.loc
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:  # NoRealization and LimitExceeded end realize this way
                spans.append((layer, self.file, loc, t0, clock(), type(exc).__name__))
                raise
            t1 = clock()
            info = None
            if layer == "extract":
                self.pending = [a.stmt.loc for a in result if a.goal is not None]
                info = {"stmts": len(result), "goals": len(self.pending)}
            elif layer == "realize":
                info = len(result)
            elif layer == "chart.equivalent":
                info = bool(result)
            spans.append((layer, self.file, loc, t0, t1, info))
            return result

        return traced


def peak_rss_kib() -> int:
    """Peak resident set of this process since its exec.

    `ru_maxrss` is not used where /proc exists: Linux carries it across
    exec, so it would include the benchmark's own RSS at spawn time.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_pass(spec: dict) -> dict:
    tracer = Tracer() if spec["trace"] else None
    sampler = None if tracer else Sampler()
    if tracer:
        tracer.install()
    else:
        sampler.start()
    files = []
    clock, cpu = time.perf_counter, time.process_time
    for index, case in enumerate(spec["cases"]):
        cfg = pipeline.RunConfig(case["path"], mode=case["mode"], verify=case["verify"])
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.start_file(index)
        error = None
        t0, c0 = clock(), cpu()
        try:
            code = pipeline.run(cfg, out, err)
        except Exception as exc:  # a crash is a failed operation, not a failed benchmark
            code, error = None, f"{type(exc).__name__}: {exc}"
        t1, c1 = clock(), cpu()
        files.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                      "error": error, "t0": t0, "t1": t1, "c0": c0, "c1": c1})
    if sampler:
        sampler.stop()
    return {"files": files,
            "peak_rss_kib": peak_rss_kib(),
            "probes": sampler.samples if sampler else None,
            "spans": tracer.spans if tracer else None}


if __name__ == "__main__":
    if sys.argv[1:] != ["pass"]:
        sys.exit("usage: worker.py setup | worker.py pass < spec.json")
    json.dump(run_pass(json.load(sys.stdin)), sys.stdout)
