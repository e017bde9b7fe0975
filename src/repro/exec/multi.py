"""Partitioned plan interpreter with explicit NumPy halo exchange.

:class:`MultiEngine` executes the *same* :class:`~repro.exec.plan.ExecPlan`
as :class:`~repro.exec.engine.Engine`, but with every vertex/edge tensor
sharded across the parts of a :class:`~repro.graph.partition.GraphPartition`
— one array shard per simulated GPU — and explicit halo-exchange steps
whenever a kernel needs data another part owns:

- **Scatter** reading a vertex tensor through the edge source fetches
  the part's ghost rows first (``halo_in``),
- **Gather over out-edges** fetches the remotely-owned edge rows of its
  operand (``halo_out``),
- **parameter gradients** are all-reduced across parts.

Because edges are owned by their destination and each local graph keeps
edges in ascending global edge-id order, every segmented reduction
accumulates in exactly the same order as the single-graph kernel —
vertex/edge values are **bit-identical** to ``Engine`` output, and
parameter gradients match up to the float associativity of the
cross-part sum.  The differential test suite enforces this contract;
:attr:`MultiEngine.exchanges` records every transfer so tests (and
reports) can reconcile concrete halo bytes against the analytic
:func:`~repro.exec.analytic.plan_comm_records` schedule.

The engine mirrors the single-GPU API (``bind`` → ``run_plan``) and
returns globally-assembled arrays, so it drops into any place an
``Engine`` runs — including backward plans, where gather-max argmax
indices are translated between global and part-local edge ids on the
way in and out.

**Overlap mode.**  ``overlap="events"`` executes kernels in the
hazard-wave order of :func:`repro.runtime.overlap.hazard_waves` (each
wave an antichain of the race analyzer's happens-before DAG, so every
reordering it performs is between ``may_overlap``-certified pairs).
Exchange records are flattened in plan-kernel order and the memory
ledgers are replayed in plan order, so outputs, exchange schedules, and
measured peaks stay bit-identical to the serial oracle — the
differential contract the runtime tests pin.  There is no thread-pool
mode here: gather-bound kernels on a host CPU are bound by the GIL and
memory bandwidth, so a pool measured no faster than the serial walk.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple, Union

import numpy as np

from repro.exec.engine import argmax_demand
from repro.exec.kernel_registry import get_backend
from repro.exec.plan import ExecPlan
from repro.graph.csr import Graph
from repro.graph.partition import (
    GraphPartition,
    allreduce_bytes_per_gpu,
    partition_graph,
)
from repro.ir.functions import get_scatter_fn
from repro.ir.module import GRAPH_CONSTANTS, Module
from repro.ir.ops import OpKind, OpNode
from repro.ir.precision import bf16_round, simulate_storage
from repro.ir.tensorspec import Domain, TensorSpec

__all__ = ["MultiEngine", "ExchangeRecord", "MultiEnv"]


@dataclass(frozen=True)
class ExchangeRecord:
    """One concrete interconnect transfer performed during a run."""

    label: str
    kind: str                 # "halo_in" | "halo_out" | "allreduce"
    bytes_per_gpu: Tuple[int, ...]

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_per_gpu)


@dataclass
class MultiEnv:
    """Sharded execution environment: one dict per part + replicated."""

    module: Module
    #: Per-part shards of vertex/edge values (owned rows only).
    parts: List[Dict[str, np.ndarray]]
    #: PARAM/DENSE values, replicated (stored once, leading 1-axis).
    shared: Dict[str, np.ndarray]


class MultiEngine:
    """Executes plans on a partitioned graph with explicit halo exchange.

    Parameters
    ----------
    graph:
        Global topology.
    partition:
        A prebuilt :class:`GraphPartition`, or an integer GPU count (a
        hash partition is built with ``partitioner``/``seed``).
    precision:
        Floating dtype, as in :class:`~repro.exec.engine.Engine`.
    overlap:
        ``None`` (serial oracle, kernels in plan order) or ``"events"``
        (hazard-wave order on the virtual timeline), which is
        bit-identical to the serial oracle.
    """

    OVERLAP_MODES = (None, "events")

    def __init__(
        self,
        graph: Graph,
        partition: Union[GraphPartition, int],
        *,
        partitioner: str = "hash",
        seed: int = 0,
        precision: str = "float32",
        backend: str = "reference",
        overlap: Optional[str] = None,
    ):
        if overlap not in self.OVERLAP_MODES:
            raise ValueError(
                f"unknown overlap mode {overlap!r}; use one of "
                f"{self.OVERLAP_MODES}"
            )
        self.overlap = overlap
        #: Hazard waves of the most recent overlapped :meth:`run_plan`.
        self.overlap_waves: Optional[List[List[int]]] = None
        if isinstance(partition, int):
            partition = partition_graph(
                graph, partition, method=partitioner, seed=seed
            )
        if partition.graph is not graph:
            raise ValueError("partition was built for a different graph")
        self.graph = graph
        self.partition = partition
        self.precision = np.dtype(precision)
        # Mirrors Engine: the default-precision engine executes each
        # value in its spec dtype (fp16/bf16/int8 storage simulation).
        self._spec_driven = self.precision == np.dtype("float32")
        #: Kernel backend bundle shared by every simulated GPU (see
        #: :mod:`repro.exec.kernel_registry`).
        self._kernels = get_backend(backend)
        self.backend = self._kernels.name
        #: Transfers performed by the most recent :meth:`run_plan`.
        self.exchanges: List[ExchangeRecord] = []
        #: Per-part live-byte high-watermarks of the most recent run,
        #: under the analytic ledger discipline (owned shards only;
        #: replicated PARAM/DENSE values charged to every part).  Each
        #: entry is bounded by the per-partition analytic walk, whose
        #: vertex extents additionally cover the ghost rows.
        self.measured_peak_bytes_per_gpu: List[int] = []
        # Out-gather fetch plan per part: owner part / owner row of each
        # out-edge (owner = the part holding the edge's destination).
        self._out_owner = [
            (
                partition.assignment[graph.dst[p.out_edge_ids]],
                partition.edge_owner_row[p.out_edge_ids],
            )
            for p in partition.parts
        ]
        # Ghost fetch plan per part: owner part / owner row per ghost.
        self._ghost_owner = [
            (
                partition.assignment[p.ghost_src],
                partition.vertex_owner_row[p.ghost_src],
            )
            for p in partition.parts
        ]

    @property
    def num_parts(self) -> int:
        return self.partition.num_parts

    @property
    def comm_bytes(self) -> int:
        """Total interconnect bytes of the most recent run."""
        return sum(r.total_bytes for r in self.exchanges)

    def comm_bytes_per_gpu(self) -> List[int]:
        totals = [0] * self.num_parts
        for record in self.exchanges:
            for p, b in enumerate(record.bytes_per_gpu):
                totals[p] += b
        return totals

    # ------------------------------------------------------------------
    # Binding: global arrays -> shards
    # ------------------------------------------------------------------
    def graph_constant(self, name: str) -> np.ndarray:
        """Global degree arrays (sharded by :meth:`bind`)."""
        if name == "g_in_degrees":
            return self.graph.in_degrees.astype(self.precision)
        if name == "g_out_degrees":
            return self.graph.out_degrees.astype(self.precision)
        raise KeyError(name)

    def bind(self, module: Module, arrays: Mapping[str, np.ndarray]) -> MultiEnv:
        """Shard global input/param arrays across the parts.

        Vertex tensors are sliced to owned rows, edge tensors to owned
        edges; PARAM/DENSE values are replicated.  Gather-max argmax
        tensors arriving as *inputs* (a stashed backward operand) are
        translated from global COO edge ids to part-local ids.
        """
        argmax_inputs = self._argmax_input_names(module)
        env = MultiEnv(module=module, parts=[{} for _ in range(self.num_parts)], shared={})
        for name in list(module.inputs) + list(module.params):
            if name in GRAPH_CONSTANTS:
                full = self.graph_constant(name)
                if self._spec_driven and name in module.specs:
                    full = simulate_storage(module.specs[name], full)
            elif name not in arrays:
                raise KeyError(f"missing array for module value {name!r}")
            else:
                full = self._wrap(name, module.specs[name], arrays[name])
            spec = module.specs[name]
            if spec.domain in (Domain.PARAM, Domain.DENSE):
                env.shared[name] = full
                continue
            for p, part in enumerate(self.partition.parts):
                if spec.domain is Domain.VERTEX:
                    shard = full[part.owned]
                    if name in argmax_inputs:
                        shard = self._argmax_to_local(shard)
                else:
                    shard = full[part.in_edge_ids]
                env.parts[p][name] = shard
        return env

    def _wrap(self, name: str, spec: TensorSpec, arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr)
        if np.issubdtype(arr.dtype, np.floating):
            if self._spec_driven:
                arr = simulate_storage(spec, arr)
            else:
                arr = arr.astype(self.precision, copy=False)
        rows = spec.rows(self.graph.num_vertices, self.graph.num_edges)
        if spec.domain in (Domain.PARAM, Domain.DENSE):
            if arr.shape == spec.feat_shape:
                return arr[None]
            if arr.shape != (1,) + spec.feat_shape:
                raise ValueError(
                    f"{name!r}: expected shape {spec.feat_shape}, got {arr.shape}"
                )
            return arr
        if arr.shape != (rows,) + spec.feat_shape:
            raise ValueError(
                f"{name!r}: expected shape {(rows,) + spec.feat_shape}, "
                f"got {arr.shape}"
            )
        return arr

    def _argmax_input_names(self, module: Module) -> Set[str]:
        """Module inputs that carry gather-max argmax edge ids."""
        names = set(module.inputs)
        return {
            node.inputs[1]
            for node in module.nodes
            if node.kind is OpKind.SCATTER and node.fn == "max_grad"
            and node.inputs[1] in names
        }

    def _argmax_to_local(self, shard: np.ndarray) -> np.ndarray:
        """Global COO edge ids -> owner-local ids (``-1`` preserved)."""
        out = shard.astype(np.int64, copy=True)
        mask = out >= 0
        out[mask] = self.partition.edge_owner_row[out[mask]]
        return out

    def _argmax_to_global(self, part_index: int, shard: np.ndarray) -> np.ndarray:
        part = self.partition.parts[part_index]
        out = shard.astype(np.int64, copy=True)
        mask = out >= 0
        out[mask] = part.in_edge_ids[out[mask]]
        return out

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_plan(
        self,
        plan: ExecPlan,
        env: MultiEnv,
        *,
        unwrap: bool = True,
    ) -> Dict[str, np.ndarray]:
        """Execute ``plan`` on every part; return global arrays.

        Matches :meth:`Engine.run_plan`: the result holds module
        outputs plus the plan's keep set, assembled from the shards
        (argmax values are translated back to global edge ids).
        """
        module = plan.module
        self.exchanges = []
        wanted = set(module.outputs) | set(plan.keep)
        argmax_needed = argmax_demand(module, wanted)
        argmax_values = {
            node.outputs[1]
            for node in module.nodes
            if node.kind is OpKind.GATHER and node.fn == "max"
            and len(node.outputs) > 1
        }

        parts_values = [dict(d) for d in env.parts]
        shared = dict(env.shared)
        bf16_outputs: Set[str] = (
            {n for n, s in module.specs.items() if s.dtype == "bfloat16"}
            if self._spec_driven
            else set()
        )
        order = range(len(plan.kernels))
        self.overlap_waves = None
        if self.overlap == "events":
            # Local import: the runtime package depends on the analysis
            # layer, which this low-level module must not import eagerly.
            from repro.runtime.overlap import hazard_waves

            self.overlap_waves = hazard_waves(plan)
            order = [ki for wave in self.overlap_waves for ki in wave]
        # Exchange records collected per kernel and flattened in plan
        # order, so the schedule reconciles against plan_comm_records
        # regardless of the execution order.
        sinks: List[List[ExchangeRecord]] = [[] for _ in plan.kernels]
        for ki in order:
            self._run_kernel(
                plan, ki, parts_values, shared,
                argmax_needed, bf16_outputs, sinks[ki],
            )
        for records in sinks:
            self.exchanges.extend(records)
        self.measured_peak_bytes_per_gpu = self._measured_peaks(
            plan, parts_values, shared
        )

        result: Dict[str, np.ndarray] = {}
        for name in wanted:
            result[name] = self._assemble(
                name, module, parts_values, shared,
                to_global_argmax=name in argmax_values,
                unwrap=unwrap,
            )
        return result

    # -- kernel-granular execution -------------------------------------
    def _run_kernel(
        self,
        plan: ExecPlan,
        kernel_index: int,
        parts_values: List[Dict[str, np.ndarray]],
        shared: Dict[str, np.ndarray],
        argmax_needed: Set[str],
        bf16_outputs: Set[str],
        exchanges: "List[ExchangeRecord]",
    ) -> None:
        """Execute one kernel in place; exchange records go to ``exchanges``."""
        module = plan.module
        kernel = plan.kernels[kernel_index]
        # Per-kernel exchange cache: kernels sharing an operand share
        # one halo transfer, mirroring plan_comm_records.
        halo_cache: Dict[Tuple[str, str], List[np.ndarray]] = {}
        for node in kernel.nodes:
            self._execute(
                node, module, plan, kernel_index, parts_values, shared,
                argmax_needed, halo_cache, exchanges,
            )
            if bf16_outputs and node.kind is not OpKind.VIEW:
                # bf16 storage simulation at node boundaries —
                # elementwise, so shards stay bit-identical to the
                # single-engine path (views alias rounded storage).
                for o in node.outputs:
                    if o not in bf16_outputs:
                        continue
                    if o in shared:
                        shared[o] = bf16_round(shared[o])
                    else:
                        for p in range(self.num_parts):
                            if o in parts_values[p]:
                                parts_values[p][o] = bf16_round(
                                    parts_values[p][o]
                                )

    # -- measured memory ledgers ---------------------------------------
    def _measured_peaks(
        self,
        plan: ExecPlan,
        parts_values: List[Dict[str, np.ndarray]],
        shared: Dict[str, np.ndarray],
    ) -> List[int]:
        """Per-part live-byte peaks, replayed in plan order after a run.

        The ledger reads only the ``nbytes`` of the bound inputs and of
        each kernel's writes, and frees by liveness index, so a replay
        over the finished values reproduces the serial peaks whatever
        order the kernels ran in.  Replicated PARAM/DENSE values live in
        ``shared`` but occupy every simulated GPU, so each part's ledger
        reads through a ChainMap view.
        """
        from repro.exec.memory import MemoryLedger

        lives = plan.liveness()
        peaks = []
        for part_values in parts_values:
            values = ChainMap(part_values, shared)
            ledger = MemoryLedger(plan, lives=lives)
            ledger.bind(values)
            for ki in range(len(plan.kernels)):
                ledger.after_kernel(ki, values)
            peaks.append(ledger.peak_bytes)
        return peaks

    # -- halo exchanges -------------------------------------------------
    def _fetch_ghost_rows(
        self,
        name: str,
        root_label: str,
        row_bytes: int,
        parts_values: List[Dict[str, np.ndarray]],
        halo_cache: Dict[Tuple[str, str], List[np.ndarray]],
        exchanges: "List[ExchangeRecord]",
    ) -> List[np.ndarray]:
        """Ghost-source rows of vertex tensor ``name``, per part.

        Transfer accounting charges ``row_bytes`` per fetched row — the
        value's *storage* width (``TensorSpec.row_bytes``), so fp16
        halos cost half of fp32 and qint8 halos ship int8 rows plus
        their scales, matching ``plan_comm_records`` exactly even when
        the simulation materialises wider concrete arrays.
        """
        key = ("halo_in", root_label)
        if key in halo_cache:
            return halo_cache[key]
        fetched: List[np.ndarray] = []
        bytes_per_gpu: List[int] = []
        for p, part in enumerate(self.partition.parts):
            owner_part, owner_row = self._ghost_owner[p]
            local = parts_values[p][name]
            ghost = np.empty(
                (part.ghost_src.size,) + local.shape[1:], dtype=local.dtype
            )
            for q in range(self.num_parts):
                sel = owner_part == q
                if sel.any():
                    ghost[sel] = parts_values[q][name][owner_row[sel]]
            fetched.append(ghost)
            bytes_per_gpu.append(int(part.ghost_src.size) * row_bytes)
        if self.num_parts > 1:
            exchanges.append(
                ExchangeRecord(
                    label=root_label, kind="halo_in",
                    bytes_per_gpu=tuple(bytes_per_gpu),
                )
            )
        halo_cache[key] = fetched
        return fetched

    def _fetch_out_edge_rows(
        self,
        name: str,
        root_label: str,
        row_bytes: int,
        parts_values: List[Dict[str, np.ndarray]],
        halo_cache: Dict[Tuple[str, str], List[np.ndarray]],
        exchanges: "List[ExchangeRecord]",
    ) -> List[np.ndarray]:
        """Edge tensor ``name`` in each part's out-edge order.

        Rows owned locally are copied for free; remotely-owned rows
        count as interconnect traffic, at the value's storage width
        (``row_bytes`` per row, as in :meth:`_fetch_ghost_rows`).
        """
        key = ("halo_out", root_label)
        if key in halo_cache:
            return halo_cache[key]
        fetched: List[np.ndarray] = []
        bytes_per_gpu: List[int] = []
        for p, part in enumerate(self.partition.parts):
            owner_part, owner_row = self._out_owner[p]
            local = parts_values[p][name]
            rows = np.empty(
                (part.out_edge_ids.size,) + local.shape[1:], dtype=local.dtype
            )
            remote = 0
            for q in range(self.num_parts):
                sel = owner_part == q
                if sel.any():
                    rows[sel] = parts_values[q][name][owner_row[sel]]
                    if q != p:
                        remote += int(sel.sum()) * row_bytes
            fetched.append(rows)
            bytes_per_gpu.append(remote)
        if self.num_parts > 1:
            exchanges.append(
                ExchangeRecord(
                    label=root_label, kind="halo_out",
                    bytes_per_gpu=tuple(bytes_per_gpu),
                )
            )
        halo_cache[key] = fetched
        return fetched

    # -- node dispatch --------------------------------------------------
    def _execute(
        self,
        node: OpNode,
        module: Module,
        plan: ExecPlan,
        kernel_index: int,
        parts_values: List[Dict[str, np.ndarray]],
        shared: Dict[str, np.ndarray],
        argmax_needed: Set[str],
        halo_cache: Dict[Tuple[str, str], List[np.ndarray]],
        exchanges: "List[ExchangeRecord]",
    ) -> None:
        specs = module.specs

        def value(p: int, name: str) -> np.ndarray:
            return shared[name] if name in shared else parts_values[p][name]

        if node.kind is OpKind.VIEW:
            out_shape = tuple(node.attrs["out_shape"])
            src = node.inputs[0]
            if src in shared:
                x = shared[src]
                shared[node.outputs[0]] = x.reshape((x.shape[0],) + out_shape)
            else:
                for p in range(self.num_parts):
                    x = parts_values[p][src]
                    parts_values[p][node.outputs[0]] = x.reshape(
                        (x.shape[0],) + out_shape
                    )
            return

        if node.kind is OpKind.APPLY:
            out_domain = specs[node.outputs[0]].domain
            if out_domain in (Domain.PARAM, Domain.DENSE):
                ins = [shared[n] for n in node.inputs]
                params = [shared[pn][0] for pn in node.params]
                shared[node.outputs[0]] = self._kernels.apply(
                    node.fn, ins, params, node.attrs
                )
                return
            for p in range(self.num_parts):
                ins = [value(p, n) for n in node.inputs]
                params = [shared[pn][0] for pn in node.params]
                parts_values[p][node.outputs[0]] = self._kernels.apply(
                    node.fn, ins, params, node.attrs
                )
            return

        if node.kind is OpKind.SCATTER:
            self._execute_scatter(
                node, plan, parts_values, halo_cache, exchanges
            )
            return

        if node.kind is OpKind.GATHER:
            self._execute_gather(
                node, plan, parts_values, argmax_needed, halo_cache,
                exchanges,
            )
            return

        if node.kind is OpKind.PARAM_GRAD:
            self._execute_param_grad(
                node, module, parts_values, shared, exchanges
            )
            return

        raise AssertionError(f"unhandled kind {node.kind}")  # pragma: no cover

    def _execute_scatter(
        self,
        node: OpNode,
        plan: ExecPlan,
        parts_values: List[Dict[str, np.ndarray]],
        halo_cache: Dict[Tuple[str, str], List[np.ndarray]],
        exchanges: "List[ExchangeRecord]",
    ) -> None:
        fn = get_scatter_fn(node.fn)
        ghost_rows: Optional[List[np.ndarray]] = None
        if fn.reads_u and not fn.vertex_direct_read:
            # The source-side operand needs its halo refreshed.
            u_name = node.inputs[0]
            ghost_rows = self._fetch_ghost_rows(
                u_name,
                plan.root_of(u_name),
                plan.module.specs[u_name].row_bytes,
                parts_values,
                halo_cache,
                exchanges,
            )
        for p, part in enumerate(self.partition.parts):
            ins = [parts_values[p][n] for n in node.inputs]
            if ghost_rows is not None:
                ins[0] = np.concatenate([ins[0], ghost_rows[p]], axis=0)
            parts_values[p][node.outputs[0]] = self._kernels.scatter(
                node.fn, part.in_graph, ins
            )

    def _execute_gather(
        self,
        node: OpNode,
        plan: ExecPlan,
        parts_values: List[Dict[str, np.ndarray]],
        argmax_needed: Set[str],
        halo_cache: Dict[Tuple[str, str], List[np.ndarray]],
        exchanges: "List[ExchangeRecord]",
    ) -> None:
        name = node.inputs[0]
        orientation = node.orientation
        edge_rows: Optional[List[np.ndarray]] = None
        if orientation == "out":
            edge_rows = self._fetch_out_edge_rows(
                name,
                plan.root_of(name),
                plan.module.specs[name].row_bytes,
                parts_values,
                halo_cache,
                exchanges,
            )
        for p, part in enumerate(self.partition.parts):
            local_graph = part.in_graph if orientation == "in" else part.out_graph
            values = (
                parts_values[p][name] if edge_rows is None else edge_rows[p]
            )
            out, argmax = self._kernels.gather(
                node.fn,
                local_graph,
                values,
                orientation=orientation,
                want_argmax=node.name in argmax_needed,
            )
            parts_values[p][node.outputs[0]] = out[:part.num_owned]
            if len(node.outputs) > 1 and argmax is not None:
                parts_values[p][node.outputs[1]] = argmax[:part.num_owned]

    def _execute_param_grad(
        self,
        node: OpNode,
        module: Module,
        parts_values: List[Dict[str, np.ndarray]],
        shared: Dict[str, np.ndarray],
        exchanges: "List[ExchangeRecord]",
    ) -> None:
        specs = module.specs
        row_domains = {specs[n].domain for n in node.inputs}
        if row_domains <= {Domain.PARAM, Domain.DENSE}:
            # Replicated operands: every GPU computes the same gradient
            # locally; no reduction needed.
            ins = [shared[n] for n in node.inputs]
            params = [shared[pn][0] for pn in node.params]
            shared[node.outputs[0]] = self._kernels.param_grad(
                node.fn, ins, params, node.attrs
            )[None]
            return
        partials = []
        for p in range(self.num_parts):
            ins = [
                shared[n] if n in shared else parts_values[p][n]
                for n in node.inputs
            ]
            params = [shared[pn][0] for pn in node.params]
            partials.append(self._kernels.param_grad(node.fn, ins, params, node.attrs))
        total = partials[0]
        for partial in partials[1:]:
            total = total + partial
        shared[node.outputs[0]] = np.asarray(total)[None]
        if self.num_parts > 1:
            # Storage-width bytes (spec row_bytes), matching the
            # analytic allreduce schedule under any precision.
            share = allreduce_bytes_per_gpu(
                specs[node.outputs[0]].row_bytes, self.num_parts
            )
            exchanges.append(
                ExchangeRecord(
                    label=node.name, kind="allreduce",
                    bytes_per_gpu=tuple([share] * self.num_parts),
                )
            )

    # -- assembly -------------------------------------------------------
    def _assemble(
        self,
        name: str,
        module: Module,
        parts_values: List[Dict[str, np.ndarray]],
        shared: Dict[str, np.ndarray],
        *,
        to_global_argmax: bool,
        unwrap: bool,
    ) -> np.ndarray:
        spec = module.specs[name]
        if name in shared:
            arr = shared[name]
            return arr[0] if unwrap else arr
        V, E = self.graph.num_vertices, self.graph.num_edges
        rows = spec.rows(V, E)
        sample = parts_values[0][name]
        out = np.empty((rows,) + sample.shape[1:], dtype=sample.dtype)
        for p, part in enumerate(self.partition.parts):
            shard = parts_values[p][name]
            if to_global_argmax:
                shard = self._argmax_to_global(p, shard)
            if spec.domain is Domain.VERTEX:
                out[part.owned] = shard
            else:
                out[part.in_edge_ids] = shard
        return out
