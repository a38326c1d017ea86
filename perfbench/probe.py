"""How fast this machine runs Python right now.

The benchmark runs on shared machines whose speed drifts: the same
pure-Python loop can take half again as long a minute later, while the
process runs all the time.  A timing taken there says as much about the
neighbours as about the program.  So every timing of the program is
taken as the CPU time of its process (the program is single-threaded
and waits for nothing but reading its input file, so on a quiet machine
this equals its wall time), and is scaled to a reference speed:

- the timed passes also run `probe()`, a fixed piece of pure-Python work
  like the program's own (tuples, dicts, a heap), every `INTERVAL_S`
  seconds from a SIGALRM handler, interleaved with the program on the
  same CPU;
- an interval's CPU time, less the probes run inside it, is multiplied
  by `REFERENCE_S` over the mean probe time around it.

The result reads as the time the program would take on the machine the
README describes, at its usual speed.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time

# Typical `probe()` time inside a timed pass on the reference machine, in
# seconds; a constant, so it only sets the scale of the adjusted times.
REFERENCE_S = 0.00011
INTERVAL_S = 0.02


def probe() -> float:
    """Run the fixed work once; return the CPU seconds it took.

    The collector is paused so that a collection of the program's heap
    does not land in the probe; the probe frees all it allocates.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    c0 = time.process_time()
    heap: list = []
    seen: dict = {}
    for i in range(100):
        key = (i * 7919) % 97
        heapq.heappush(heap, (key, i, (key, i)))
        seen[key] = seen.get(key, 0) + 1
    while heap:
        heapq.heappop(heap)
    elapsed = time.process_time() - c0
    if was_enabled:
        gc.enable()
    return elapsed


class Sampler:
    """Runs `probe()` every `INTERVAL_S` seconds of wall time while started.

    `samples` holds (wall clock at start, CPU seconds) of each probe.  The
    handler runs in the main thread between two bytecodes of the program,
    so a probe that starts inside a timed interval also ends inside it.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, _signum, _frame):
        self.samples.append((time.perf_counter(), probe()))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def adjusted(span: dict, samples: list[tuple[float, float]], window: float = 1.0) -> float:
    """Seconds of `span` at the reference speed.

    `span` has the wall clock (`t0`, `t1`) and process CPU clock (`c0`,
    `c1`) at its ends.  Its CPU time, less that of the probes run inside
    it, is scaled by REFERENCE_S over the mean of the probes that started
    within `window` seconds of it.
    """
    t0, t1 = span["t0"], span["t1"]
    inside = sum(d for s, d in samples if t0 <= s < t1)
    near = [d for s, d in samples if t0 - window <= s < t1 + window] or [d for _, d in samples]
    return (span["c1"] - span["c0"] - inside) * REFERENCE_S * len(near) / sum(near)
