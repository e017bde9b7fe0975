"""``serve-read`` and ``serve-mixed``: a Zipf request stream through
``InferenceServer.serve``, reads only or with interleaved writes.

One round serves one block of the stream (``Sizes.requests`` requests,
with as many update events on ``serve-mixed``) on a fresh cache, so
every round does the same work and the round time is the throughput.
"""

from __future__ import annotations

import dataclasses
import time
import tracemalloc
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro import Engine, Graph, InferenceServer, PlanCache, get_gpu, get_strategy
from repro.frameworks import compile_forward
from repro.gpu import CostModel
from repro.registry import MODELS
from repro.train import receptive_hops

from perfbench.inputs import FULL, Sizes, serve_inputs
from perfbench.measure import (
    Units, alloc_peak_mb, measure_rounds, median, peak_rss_mb, timed,
)
from perfbench.metrics import layer_metrics
from perfbench.tracing import Tracer

GPU = "RTX3090"


def strategy(backend: str):
    return dataclasses.replace(get_strategy("ours"), backend=backend)


@dataclass
class Setup:
    graph: Graph
    model: object
    compiled: object
    params: Dict[str, np.ndarray]
    server: InferenceServer
    pred: Dict[str, float]


def setup(inputs, sizes: Sizes, seed: int, tracer: Tracer) -> Setup:
    """Graph build, compile with a fresh plan cache, analytic prediction
    of a full-graph forward, and server construction."""
    with tracer.span("graph.build"):
        graph = Graph(inputs.src, inputs.dst, inputs.num_vertices)
        stats = graph.stats()
    model = MODELS.get("sage")(sizes.serve_features, sizes.serve_classes)
    compiled = PlanCache().get_or_compile(model, strategy("blocked"), training=False)
    with tracer.span("analytic.predict"):
        counters = compiled.counters(stats)
        pred = {
            "pred.step_ms.ours":
                CostModel(get_gpu(GPU)).latency_seconds(counters, stats) * 1e3,
            "pred.peak_mb.ours": counters.peak_memory_bytes / 1e6,
        }
    params = model.init_params(seed)
    server = make_server(graph, inputs, compiled, params, sizes)
    return Setup(graph, model, compiled, params, server, pred)


def make_server(graph, inputs, compiled, params, sizes: Sizes) -> InferenceServer:
    return InferenceServer(
        graph, inputs.features, compiled, gpu=GPU,
        cache_rows=sizes.cache_rows, params={"default": params},
    )


def serve_once(server: InferenceServer, inputs, sizes: Sizes):
    if inputs.updates:
        return server.serve(
            inputs.requests, inputs.updates, compact_every=sizes.compact_every
        )
    return server.serve(inputs.requests)


def batch_alloc_peaks(fn) -> Tuple[List[float], object]:
    """``fn()`` traced by tracemalloc, and the host allocation peak in MB
    of every engine plan run inside it: one per served batch, above what
    was live when the run started."""
    peaks: List[float] = []
    original = Engine.run_plan

    def run_plan(self, *args, **kwargs):
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return original(self, *args, **kwargs)
        finally:
            peaks.append((tracemalloc.get_traced_memory()[1] - live) / 1e6)

    Engine.run_plan = run_plan
    try:
        return peaks, alloc_peak_mb(fn)[1]
    finally:
        Engine.run_plan = original


def undelivered(report, inputs, classes: int, want=None) -> int:
    """Requests missing, mis-shaped, non-finite, or different from ``want``."""
    bad = 0
    for r in inputs.requests:
        got = report.outputs.get(r.request_id)
        if (
            got is None
            or got.shape != (r.num_seeds, classes)
            or not np.isfinite(got).all()
            or (want is not None and not np.array_equal(got, want[r.request_id]))
        ):
            bad += 1
    return bad


def induced_field(src, dst, num_vertices: int, seeds, hops: int):
    """Seeds plus every vertex with a path of at most ``hops`` edges into
    them, and the subgraph they induce (edges kept in edge-id order)."""
    visited = np.zeros(num_vertices, dtype=bool)
    visited[seeds] = True
    frontier = visited.copy()
    for _ in range(hops):
        reached = np.zeros(num_vertices, dtype=bool)
        reached[src[frontier[dst]]] = True
        frontier = reached & ~visited
        visited |= frontier
    field = np.nonzero(visited)[0]
    eids = np.nonzero(visited[src] & visited[dst])[0]
    new_id = np.full(num_vertices, -1, dtype=np.int64)
    new_id[field] = np.arange(field.size)
    return field, Graph(new_id[src[eids]], new_id[dst[eids]], field.size)


def check_direct(s: Setup, inputs, report, sizes: Sizes, seed: int, units: Units):
    """A seeded sample of batches, each re-run as a direct ``reference``
    engine run on its independently induced field."""
    comp = s.compiled
    hops = receptive_hops(comp.forward)
    out_name = comp.forward.outputs[0]
    rng = np.random.default_rng([seed, 99])
    batches = report.batches
    picked = rng.choice(len(batches), size=min(sizes.oracle_batches, len(batches)),
                        replace=False)
    for i in sorted(picked):
        requests = [inputs.requests[rid] for rid in batches[i].request_ids]
        seeds = np.unique(np.concatenate([r.seeds for r in requests]))
        field, sub = induced_field(inputs.src, inputs.dst, inputs.num_vertices,
                                   seeds, hops)
        engine = Engine(sub, backend="reference")
        arrays = comp.model.make_inputs(sub, inputs.features[field])
        arrays.update(s.params)
        logits = engine.run_plan(comp.plan, engine.bind(comp.forward, arrays))[out_name]
        bad = sum(  # undelivered requests are counted by undelivered()
            r.request_id in report.outputs and not np.array_equal(
                report.outputs[r.request_id], logits[np.searchsorted(field, r.seeds)]
            )
            for r in requests
        )
        units.check(f"batch {i}: {bad} requests differ from a direct engine run",
                    bad == 0, count=bad)


def check_reference(s: Setup, inputs, report, sizes: Sizes, units: Units):
    """The same stream served again on the ``reference`` backend."""
    reference = make_server(
        s.graph, inputs, compile_forward(s.model, strategy("reference")),
        s.params, sizes,
    )
    want = serve_once(reference, inputs, sizes).outputs
    bad = undelivered(report, inputs, sizes.serve_classes, want)
    units.check(f"{bad} requests differ from the reference backend", bad == 0, count=bad)


def run(seed: int, seconds: float, tracer: Tracer, tracing: bool, *, mixed: bool,
        sizes: Sizes = FULL) -> dict:
    inputs = serve_inputs(seed, mixed=mixed, sizes=sizes)
    units = Units()
    n_requests = len(inputs.requests)
    first_setup, s = timed(lambda: setup(inputs, sizes, seed, tracer))

    ok, res = units.run(
        "warm-up", lambda: batch_alloc_peaks(lambda: serve_once(s.server, inputs, sizes)),
        count=n_requests,
    )
    if not ok:
        raise RuntimeError("the warm-up round raised; nothing to measure")
    alloc_peaks, report = res
    bad = undelivered(report, inputs, sizes.serve_classes)
    units.check(f"warm-up: {bad} requests undelivered", bad == 0, count=bad)
    if mixed:
        check_reference(s, inputs, report, sizes, units)
    else:
        check_direct(s, inputs, report, sizes, seed, units)
    values: Dict[str, float] = dict(s.pred)
    values.update({
        "serve.field_vertices": sum(b.cost.field for b in report.batches),
        "serve.batches": report.num_batches,
        "serve.cache_hit_rate": report.cache_hit_rate,
        "dyn.invalidation_rate": report.invalidation_rate,
        "dyn.mutation_io_mb": report.mutation_io_bytes / 1e6,
        "pred.p50_ms": report.p50_latency_s * 1e3,
        "pred.p99_ms": report.p99_latency_s * 1e3,
        "pred.slo_violation_rate": report.slo_violation_rate,
    })
    first = report.outputs

    def one_round(r: int):
        t0 = time.perf_counter()
        ok, report = units.run(f"round {r}", lambda: serve_once(s.server, inputs, sizes),
                               count=n_requests)
        dt = time.perf_counter() - t0
        if not ok:
            return None
        bad = undelivered(report, inputs, sizes.serve_classes, first)
        return dt if units.check(f"round {r}: {bad} requests changed", bad == 0,
                                 count=bad) else None

    setups, rounds, traced_setups = measure_rounds(
        seconds, tracer, tracing, lambda: setup(inputs, sizes, seed, tracer), one_round
    )
    e2e = {
        "setup_s": median([first_setup] + setups),
        "round_s": median(rounds[False]),
        "alloc_peak_mb": median(alloc_peaks),
        "peak_rss_mb": peak_rss_mb(),
    }
    values["serve_rps"] = n_requests / e2e["round_s"]
    return {
        "e2e": e2e,
        "layers": layer_metrics(
            tracer, tracing=tracing, unit_span="serve.serve", rounds=rounds,
            traced_setups=traced_setups, values=values,
        ),
        "units": units,
        "rounds": len(rounds[False]),
    }
