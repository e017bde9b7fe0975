"""``fullgraph``: full-graph GAT training, single-engine and partitioned.

Each round runs, on the same inputs and the ``blocked`` backend, one
``ours`` training step, one ``dgl-like`` training step (the paper's
Figure 7 pair) and one forward+backward of the ``ours`` plan on a
4-part greedy partition through ``MultiEngine`` — the only place halo
exchange runs.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Dict

import numpy as np

import repro.train.loop as loop
from repro import Graph, MultiEngine, PlanCache, get_gpu, get_strategy, partition_graph
from repro.exec.analytic import analyze_plan
from repro.frameworks import compile_training
from repro.gpu import CostModel
from repro.graph.partition import PartitionStats
from repro.ir.autodiff import grad_seed_name
from repro.ir.module import GRAPH_CONSTANTS
from repro.registry import MODELS
from repro.train import Adam, Trainer

from perfbench.inputs import FULL, Sizes, train_inputs
from perfbench.measure import (
    Units, alloc_peak_mb, measure_rounds, median, peak_rss_mb, timed,
)
from perfbench.metrics import layer_metrics
from perfbench.tracing import Tracer

CONFIGS = ("ours", "dgl", "partitioned")
STRATEGY_NAMES = {"ours": "ours", "dgl": "dgl-like"}
GPU = "RTX3090"
#: Parameter gradients of a partitioned run differ from the single
#: engine's only by the order of the cross-part float32 sum.
GRAD_RTOL = 1e-4


def strategy(config: str, backend: str = "blocked"):
    return dataclasses.replace(get_strategy(STRATEGY_NAMES[config]), backend=backend)


@dataclass
class Setup:
    graph: Graph
    stats: object
    model: object
    compiled: Dict[str, object]
    trainers: Dict[str, Trainer]
    optimizers: Dict[str, Adam]
    multi: MultiEngine
    params: Dict[str, np.ndarray]
    pred: Dict[str, float]


def setup(inputs, sizes: Sizes, seed: int, tracer: Tracer) -> Setup:
    """Graph build, compile with a fresh plan cache, partition, analytic
    prediction, and trainer construction."""
    with tracer.span("graph.build"):
        graph = Graph(inputs.src, inputs.dst, inputs.num_vertices)
        stats = graph.stats()
    model = MODELS.get("gat")(sizes.train_features, sizes.train_classes)
    cache = PlanCache()
    compiled = {c: cache.get_or_compile(model, strategy(c)) for c in STRATEGY_NAMES}
    with tracer.span("partition.build"):
        partition = partition_graph(graph, sizes.num_parts, method="greedy")
    with tracer.span("analytic.predict"):
        cost = CostModel(get_gpu(GPU))
        pred = {}
        for c, comp in compiled.items():
            counters = comp.counters(stats)
            pred[f"pred.step_ms.{c}"] = cost.latency_seconds(counters, stats) * 1e3
            pred[f"pred.peak_mb.{c}"] = counters.peak_memory_bytes / 1e6
        multi_counters = compiled["ours"].multi_counters(
            PartitionStats.from_partition(partition)
        )
        pred["pred.comm_mb"] = multi_counters.comm_bytes / 1e6
    params = model.init_params(seed)
    trainers = {
        c: Trainer(comp, graph, params=dict(params), precision="float32")
        for c, comp in compiled.items()
    }
    optimizers = {c: Adam(lr=0.01) for c in compiled}
    multi = MultiEngine(graph, partition, backend="blocked")
    return Setup(graph, stats, model, compiled, trainers, optimizers, multi,
                 params, pred)


def forward_backward(trainer: Trainer, features, labels):
    """One step without the optimizer: logits, loss, gradients, ledger peaks."""
    fwd = trainer.forward(features)
    peak_fwd = trainer.engine.measured_peak_bytes
    logits = np.asarray(fwd[trainer.output_name])
    loss, grad = loop.softmax_cross_entropy(logits, labels)
    grads = trainer.backward(fwd, grad)
    return logits, loss, grads, (peak_fwd, trainer.engine.measured_peak_bytes)


def partitioned_step(s: Setup, features, labels, params):
    """Forward, loss and backward of the ``ours`` plan on the partition."""
    comp, multi = s.compiled["ours"], s.multi
    arrays = comp.model.make_inputs(s.graph, features)
    arrays.update(params)
    fwd = multi.run_plan(comp.fwd_plan, multi.bind(comp.forward, arrays), unwrap=False)
    exchanges, comm = len(multi.exchanges), multi.comm_bytes
    out = comp.forward.outputs[0]
    logits = np.asarray(fwd[out])
    loss, grad = loop.softmax_cross_entropy(logits, labels)
    seed_name = grad_seed_name(out)
    bwd_module = comp.bwd_plan.module
    bwd_arrays = {}
    for name in list(bwd_module.inputs) + list(bwd_module.params):
        if name == seed_name:
            bwd_arrays[name] = grad.astype(np.float32)
        elif name in GRAPH_CONSTANTS:
            continue  # bind() derives these from the topology
        else:
            bwd_arrays[name] = fwd[name] if name in fwd else arrays[name]
    res = multi.run_plan(comp.bwd_plan, multi.bind(bwd_module, bwd_arrays))
    grads = {p: res[g] for p, g in comp.param_grads.items()}
    return logits, loss, grads, (
        exchanges + len(multi.exchanges), comm + multi.comm_bytes
    )


def _same(a: Dict[str, np.ndarray], b: Dict[str, np.ndarray]) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def _close(got: Dict[str, np.ndarray], want: Dict[str, np.ndarray]) -> bool:
    return got.keys() == want.keys() and all(
        np.allclose(got[k], want[k], rtol=GRAD_RTOL,
                    atol=GRAD_RTOL * float(np.abs(want[k]).max(initial=0.0)))
        for k in want
    )


def oracle(s: Setup, inputs, units: Units, values: Dict[str, float]) -> float:
    """Warm-up steps at the initial parameters, checked against the
    ``reference`` backend, the analytic ledger and the single engine.
    Returns the allocation peak of the ``ours`` step, in MB."""
    feats, labels = inputs.features, inputs.labels
    blocked, alloc = {}, float("nan")
    for c, trainer in s.trainers.items():
        ok, res = units.run(f"{c} warm-up", lambda: alloc_peak_mb(
            lambda: forward_backward(trainer, feats, labels)))
        if not ok:
            continue
        peak_mb, res = res
        if c == "ours":
            alloc = peak_mb
        logits, loss, grads, (peak_fwd, peak_bwd) = res
        blocked[c] = res
        values[f"engine.peak_mb.{c}"] = max(peak_fwd, peak_bwd) / 1e6
        comp = s.compiled[c]
        reference = Trainer(
            compile_training(s.model, strategy(c, "reference")), s.graph,
            params=dict(s.params), precision="float32",
        )
        ref_logits, _, ref_grads, _ = forward_backward(reference, feats, labels)
        failures = [
            label for label, ok in (
                ("blocked != reference",
                 np.array_equal(logits, ref_logits) and _same(grads, ref_grads)),
                ("ledger peak != analytic peak",
                 peak_fwd == analyze_plan(comp.fwd_plan, s.stats).peak_memory_bytes
                 and peak_bwd == analyze_plan(comp.bwd_plan, s.stats).peak_memory_bytes),
                ("non-finite loss", bool(np.isfinite(loss))),
            ) if not ok
        ]
        units.check(f"{c} warm-up: {', '.join(failures)}", not failures)
    ok, res = units.run(
        "partitioned warm-up", lambda: partitioned_step(s, feats, labels, s.params)
    )
    if ok and "ours" in blocked:
        logits, loss, grads, (exchanges, comm) = res
        values["multi.exchanges"] = exchanges
        values["multi.comm_mb"] = comm / 1e6
        single_logits, _, single_grads, _ = blocked["ours"]
        units.check(
            "partitioned warm-up: differs from the single engine",
            np.array_equal(logits, single_logits) and _close(grads, single_grads),
        )
    return alloc


def run(seed: int, seconds: float, tracer: Tracer, tracing: bool,
        sizes: Sizes = FULL) -> dict:
    inputs = train_inputs(seed, sizes)
    units = Units()
    first_setup, s = timed(lambda: setup(inputs, sizes, seed, tracer))
    for comp in s.compiled.values():
        tracer.bwd_plans.add(id(comp.bwd_plan))
    values: Dict[str, float] = dict(s.pred)
    alloc = oracle(s, inputs, units, values)

    feats, labels = inputs.features, inputs.labels
    steps = {
        "ours": lambda: s.trainers["ours"].train_step(feats, labels, s.optimizers["ours"])[0],
        "dgl": lambda: s.trainers["dgl"].train_step(feats, labels, s.optimizers["dgl"])[0],
        "partitioned": lambda: partitioned_step(s, feats, labels, s.params)[1],
    }
    step_times = {c: [] for c in CONFIGS}

    def one_round(r: int):
        times = {}
        for c in CONFIGS:
            tracer.unit = f"round{r}.{c}"
            t0 = time.perf_counter()
            with tracer.span(f"step.{c}"):
                ok, loss = units.run(f"round {r} {c}", steps[c])
            times[c] = time.perf_counter() - t0
            if not (ok and units.check(f"round {r} {c}: non-finite loss",
                                       bool(np.isfinite(loss)))):
                return None
        if not tracer.enabled:
            for c in CONFIGS:
                step_times[c].append(times[c])
        return sum(times.values())

    setups, rounds, traced_setups = measure_rounds(
        seconds, tracer, tracing, lambda: setup(inputs, sizes, seed, tracer), one_round
    )
    e2e = {
        "setup_s": median([first_setup] + setups),
        "round_s": median(rounds[False]),
        "alloc_peak_mb": alloc,
        "peak_rss_mb": peak_rss_mb(),
    }
    values.update({
        "train_step_s": median(step_times["ours"]),
        "dgl_step_s": median(step_times["dgl"]),
        "partitioned_step_s": median(step_times["partitioned"]),
        "train_peak_mb": alloc,
    })
    return {
        "e2e": e2e,
        "layers": layer_metrics(
            tracer, tracing=tracing, unit_span="step.ours", rounds=rounds,
            traced_setups=traced_setups, values=values,
        ),
        "units": units,
        "rounds": len(rounds[False]),
    }
