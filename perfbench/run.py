#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fullgraph --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps the
program's layer entry points with span recorders and reports the
per-layer metrics, writing the spans to
``.perfbench/trace-<workload>-seed<seed>.json`` (Chrome Trace Event
JSON).  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Exits non-zero, printing no result, when the program
under ``src/`` is absent or a metric could not be measured.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import math
import os
import sys
from pathlib import Path

# One BLAS thread: on a host of few shared cores, BLAS worker threads
# spin between calls and compete with the interpreter's own thread, so
# round times followed the host's load instead of the program.  Set
# before NumPy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"


def retain_freed_memory() -> None:
    """Make glibc malloc keep freed memory for reuse instead of returning
    it to the kernel.

    The program allocates and frees about 1 GB of temporaries per
    training step.  By default glibc maps each large block fresh, so
    every step pays page faults whose cost follows the memory traffic of
    whatever else shares the host; retaining the heap removes that noise.
    The allocation volume itself is still reported, as ``alloc_peak_mb``.
    """
    name = ctypes.util.find_library("c")
    libc = ctypes.CDLL(name) if name else None
    if libc is None or not hasattr(libc, "mallopt"):
        return
    m_trim_threshold, m_mmap_max = -1, -4
    libc.mallopt(m_mmap_max, 0)
    libc.mallopt(m_trim_threshold, 2**31 - 1)


def main(argv=None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fullgraph", "serve-read", "serve-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program is missing: no src/repro under {ROOT}",
              file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)

    from perfbench import fullgraph, serving
    from perfbench.inputs import FULL
    from perfbench.measure import host_info
    from perfbench.metrics import END_TO_END, PER_LAYER
    from perfbench.tracing import Tracer, install

    sizes = sizes or FULL
    tracing = bool(args.trace)
    tracer = Tracer()
    if tracing:
        install(tracer)
    try:
        if args.workload == "fullgraph":
            result = fullgraph.run(args.seed, args.seconds, tracer, tracing, sizes=sizes)
        else:
            result = serving.run(args.seed, args.seconds, tracer, tracing,
                                 mixed=args.workload == "serve-mixed", sizes=sizes)
    finally:
        tracer.unwrap_all()

    units, e2e, layers = result["units"], result["e2e"], result["layers"]
    print(f"host {json.dumps(host_info(), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} rounds {result['rounds']}")
    for name, value in e2e.items():
        print(f"  {name:<26} {value:14.6g} {END_TO_END[name]}")
    for name in ("train_step_s", "dgl_step_s", "partitioned_step_s",
                 "train_peak_mb", "serve_rps"):
        if args.workload in PER_LAYER[name].workloads:
            print(f"  {name:<26} {layers[name]:14.6g} {PER_LAYER[name].unit}")
    failed_frac = units.failed / max(units.attempted, 1)
    print(f"  {'failed_frac':<26} {failed_frac:14.6g} ratio "
          f"({units.failed} of {units.attempted} units)")
    for note in units.notes:
        print(f"  failed: {note}")
    if tracing:
        for name, value in layers.items():
            print(f"  {name:<26} {value:14.6g} {PER_LAYER[name].unit}")
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.chrome_trace(path)
        print(f"trace {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")

    reported = layers if tracing else e2e
    units_of = {n: PER_LAYER[n].unit for n in layers} if tracing else END_TO_END
    if not all(math.isfinite(v) for v in reported.values()):
        print("error: a metric could not be measured", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": units.failed == 0,
        "attempted": units.attempted,
        "failed": units.failed,
        "metrics": {
            name: {"value": value, "unit": units_of[name]}
            for name, value in reported.items()
        },
    }))
    return 0


if __name__ == "__main__":
    retain_freed_memory()
    sys.exit(main())
