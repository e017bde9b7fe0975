"""Measurement helpers shared by the workloads."""

from __future__ import annotations

import gc
import importlib.util
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from typing import Callable, Dict, List, Tuple


class Units:
    """Counts attempted and failed units (a training step or a request).

    A unit fails when it raises, when its output is missing or
    non-finite, or when it disagrees with the oracle.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def run(self, label: str, fn: Callable, *, count: int = 1) -> Tuple[bool, object]:
        """Run ``count`` units in one call; ``(True, result)``, or
        ``(False, None)`` with all of them failed if it raised."""
        self.attempted += count
        try:
            return True, fn()
        except Exception:  # a unit boundary: record it and keep measuring
            self.failed += count
            self.notes.append(f"{label}: raised")
            traceback.print_exc(file=sys.stderr)
            return False, None

    def check(self, label: str, ok: bool, *, count: int = 1) -> bool:
        """Count ``count`` units as failed when an oracle check is false."""
        if not ok:
            self.failed += count
            self.notes.append(label)
        return ok


def median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def timed(fn: Callable) -> Tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def measure_rounds(
    seconds: float, tracer, tracing: bool, setup: Callable, one_round: Callable
) -> Tuple[List[float], Dict[bool, List[float]], int]:
    """Alternate a timed set-up and a round until ``seconds`` have passed.

    A set-up runs before every round, so set-up samples spread over the
    run as the rounds do; its result is discarded.  ``one_round(r)``
    returns the round's seconds, or None when a unit of it failed.  In a
    traced run even rounds and their set-ups are traced and odd ones are
    not; at least two rounds of each kind run.  Returns the set-up
    times, the round times keyed by whether they were traced, and the
    number of traced set-ups.
    """
    setups: List[float] = []
    rounds: Dict[bool, List[float]] = {True: [], False: []}
    traced_setups = 0
    start = time.perf_counter()
    r = 0
    while r < 2 * (1 + tracing) or time.perf_counter() - start < seconds:
        traced = tracing and r % 2 == 0
        tracer.enabled = traced
        tracer.unit = f"round{r}.setup"
        setups.append(timed(setup)[0])
        traced_setups += traced
        gc.collect()  # the discarded set-up's cycles, outside the round
        tracer.unit = f"round{r}"
        dt = one_round(r)
        tracer.enabled = False
        if dt is not None:
            rounds[traced].append(dt)
        r += 1
    return setups, rounds, traced_setups


def alloc_peak_mb(fn: Callable) -> Tuple[float, object]:
    """``fn()`` and the host allocation high-watermark of the call in MB,
    traced by tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1] / 1e6, result
    finally:
        tracemalloc.stop()


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "torch": importlib.util.find_spec("torch") is not None,
    }
