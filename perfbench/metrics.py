"""Every metric the benchmark reports, with its unit and what it should move.

``BENCHMARK.json`` lists the same names and units; the self-tests check
that the two agree and that a run prints every one of them.
"""

from __future__ import annotations

from typing import Dict, Mapping, NamedTuple, Sequence, Tuple

from perfbench.measure import median
from perfbench.tracing import Tracer

WORKLOADS = ("fullgraph", "serve-read", "serve-mixed")
FULLGRAPH = ("fullgraph",)
SERVE = ("serve-read", "serve-mixed")

#: End-to-end metrics (untraced runs): name -> unit.  Reported on every
#: workload; a round is one `ours` + one `dgl-like` + one 4-part step on
#: fullgraph and one served block of the request stream on serve-*.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "round_s": "s",
    "alloc_peak_mb": "MB",
    "peak_rss_mb": "MB",
}


class Layer(NamedTuple):
    unit: str
    better: str
    layer: str
    moves: str
    workloads: Tuple[str, ...]


#: Per-layer metrics (traced runs): the layer each belongs to, the
#: end-to-end metric it should move and the workloads where it moves.
#: Span times are self times per round, or per set-up for the set-up
#: layers; counts and bytes are per round.
PER_LAYER: Dict[str, Layer] = {}


def _add(names, unit, better, layer, moves, workloads):
    for name in names:
        PER_LAYER[name] = Layer(unit, better, layer, moves, workloads)


_STEPS = "round_s (train_step_s, dgl_step_s, partitioned_step_s)"
for _kind in ("gather", "scatter", "apply", "param_grad"):
    for _suffix, _unit in (("s", "s"), ("calls", "count"), ("mb", "MB")):
        _add([f"kernel.{_kind}_{_suffix}"], _unit, "lower",
             "repro.exec.kernel_registry", _STEPS, FULLGRAPH)
_add(["engine.bind_s", "engine.fwd_s", "engine.bwd_s"], "s", "lower",
     "repro.exec.engine", "round_s (train_step_s, dgl_step_s)", FULLGRAPH)
_add(["engine.peak_mb.ours", "engine.peak_mb.dgl"], "MB", "lower",
     "repro.exec.engine", "alloc_peak_mb (train_peak_mb)", FULLGRAPH)
_add(["train.loss_s", "train.optim_s"], "s", "lower",
     "repro.train", "round_s (train_step_s)", FULLGRAPH)
_add(["partition.build_s"], "s", "lower", "repro.graph.partition", "setup_s", FULLGRAPH)
_add(["multi.fwd_s", "multi.bwd_s"], "s", "lower",
     "repro.exec.multi", "round_s (partitioned_step_s)", FULLGRAPH)
_add(["multi.comm_mb"], "MB", "lower",
     "repro.exec.multi", "round_s (partitioned_step_s)", FULLGRAPH)
_add(["multi.exchanges"], "count", "lower",
     "repro.exec.multi", "round_s (partitioned_step_s)", FULLGRAPH)
_add(["serve.coalesce_s", "serve.field_s", "serve.cost_s", "serve.cache_s",
      "serve.place_s", "serve.inputs_s", "serve.exec_s"], "s", "lower",
     "repro.serve", "round_s (serve_rps)", SERVE)
_add(["serve.field_vertices", "serve.batches"], "count", "lower",
     "repro.serve", "round_s (serve_rps)", SERVE)
_add(["serve.cache_hit_rate"], "ratio", "higher",
     "repro.serve", "round_s (serve_rps)", SERVE)
_add(["dyn.apply_s", "dyn.compact_s", "dyn.put_s"], "s", "lower",
     "repro.dyn", "round_s (serve_rps)", ("serve-mixed",))
_add(["dyn.invalidation_rate"], "ratio", "lower",
     "repro.dyn", "round_s (serve_rps)", ("serve-mixed",))
_add(["dyn.mutation_io_mb"], "MB", "lower",
     "repro.dyn", "round_s (serve_rps)", ("serve-mixed",))
_add(["graph.build_s"], "s", "lower", "repro.graph", "setup_s", WORKLOADS)
_add(["compile.ours_s", "compile.dgl_s"], "s", "lower",
     "repro.frameworks", "setup_s", FULLGRAPH)
_add(["compile.forward_s"], "s", "lower", "repro.frameworks", "setup_s", SERVE)
_add(["analytic.predict_s"], "s", "lower", "repro.exec.analytic", "setup_s", WORKLOADS)
_add(["pred.step_ms.ours", "pred.step_ms.dgl", "pred.p50_ms", "pred.p99_ms"],
     "ms", "lower", "repro.exec.analytic + repro.gpu", "none: a prediction", WORKLOADS)
_add(["pred.peak_mb.ours", "pred.peak_mb.dgl", "pred.comm_mb"], "MB", "lower",
     "repro.exec.analytic", "none: a prediction", WORKLOADS)
_add(["pred.slo_violation_rate"], "ratio", "lower",
     "repro.serve", "none: a prediction", SERVE)
_add(["trace.overhead"], "ratio", "lower",
     "benchmark", "none: traced over untraced round_s", WORKLOADS)
_add(["trace.step_coverage"], "ratio", "higher", "benchmark",
     "none: share of the traced unit that named layers cover", WORKLOADS)
# The per-configuration split of round_s, from the untraced rounds of
# the traced run.
_add(["train_step_s", "dgl_step_s", "partitioned_step_s"], "s", "lower",
     "benchmark", "round_s", FULLGRAPH)
_add(["train_peak_mb"], "MB", "lower", "benchmark", "alloc_peak_mb", FULLGRAPH)
_add(["serve_rps"], "1/s", "higher", "benchmark", "round_s", SERVE)

#: Span names recorded during set-up: their times are per set-up.
SETUP_SPANS = frozenset({
    "graph.build", "compile.ours", "compile.dgl", "compile.forward",
    "analytic.predict", "partition.build",
})


def layer_metrics(
    tracer: Tracer, *, tracing: bool, unit_span: str,
    rounds: Mapping[bool, Sequence[float]], traced_setups: int,
    values: Mapping[str, float],
) -> Dict[str, float]:
    """Every per-layer metric: span self times, calls and bytes from the
    trace, the rest from ``values``; a layer that did not run reads 0.

    ``rounds`` maps traced/untraced to round times; ``unit_span`` names
    the span of the unit whose coverage by layer spans is reported.
    """
    totals = tracer.layer_totals()
    values = dict(values)
    if tracing:
        unit = totals[unit_span]
        values["trace.overhead"] = median(rounds[True]) / median(rounds[False])
        values["trace.step_coverage"] = 1.0 - unit["self_s"] / unit["dur_s"]
    out: Dict[str, float] = {}
    for name in PER_LAYER:
        if name in values:
            out[name] = float(values[name])
            continue
        span, _, field = name.rpartition("_")
        t = totals.get(span)
        if t is None:
            out[name] = 0.0
            continue
        per = max(traced_setups if span in SETUP_SPANS else len(rounds[True]), 1)
        if field == "s":
            out[name] = t["self_s"] / per
        elif field == "calls":
            out[name] = t["calls"] / per
        elif field == "mb":
            out[name] = t["bytes"] / 1e6 / per
        else:  # pragma: no cover - every other metric comes from values
            raise KeyError(name)
    return out
