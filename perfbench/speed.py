"""Host-speed probe: a fixed piece of work timed next to every timed step.

On a VM that shares its host, the speed the VM sees drifts by 25-30 % over
seconds to minutes, with no steal time visible inside the VM. That moves raw
wall times between runs by more than any bound the benchmark could hold. The
probe is fixed work of the kind that dominates the library's per-point work,
an interpreted Python loop over math.tanh, and nothing in lscert runs in it.
(Timing small numpy calls as well made the probe track op times worse.)
Timed right before and right after a step, it gives the host's speed at that
moment; a step's wall time divided by it keeps any change in the program and
cancels the drift of the host. One probe (about 0.25 s) varies by up to 25 %
from the next, so the gap after a long step probes for longer.
"""

from __future__ import annotations

import math
import statistics
import threading
from time import perf_counter

# About the one-thread probe's wall time on a quiet host (2-vCPU Xeon VM,
# Python 3.11). Times are reported as the seconds they would take at that speed.
REFERENCE_PROBE_S = 0.25
PROBE_ITERATIONS = 2_500_000
# probe time in the gap after a step, as a share of the step's wall time
GAP_SHARE = 0.15


def _loop(iterations: int) -> None:
    acc = 0.0
    for i in range(iterations):
        acc += math.tanh(i * 1e-7)


def probe(threads: int) -> float:
    """Wall time of the fixed probe work, shared out over `threads` threads.

    A step that keeps the library's thread pool busy hands the interpreter
    lock from CPU to CPU, and its speed follows that of a probe that does the
    same far better than that of a one-thread probe.
    """
    workers = [threading.Thread(target=_loop, args=(PROBE_ITERATIONS // threads,))
               for _ in range(threads)]
    start = perf_counter()
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    return perf_counter() - start


def gap_probe(threads: int, step_seconds: float = 0.0) -> float:
    """Mean probe time over at least one probe and GAP_SHARE * step_seconds."""
    times = [probe(threads)]
    while sum(times) < GAP_SHARE * step_seconds:
        times.append(probe(threads))
    return statistics.mean(times)


def at_reference_speed(seconds: float, probe_before: float, probe_after: float) -> float:
    """`seconds` of wall time rescaled to the host speed of REFERENCE_PROBE_S."""
    return seconds * REFERENCE_PROBE_S / ((probe_before + probe_after) / 2)
