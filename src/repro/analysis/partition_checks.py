"""Graph-partition invariants (RP6xx).

The ownership model every multi-GPU walk relies on: each vertex in
exactly one part, each edge owned by its destination's part, and the
owned sets tiling the graph exactly.  :func:`check_partition` returns
one diagnostic per violated invariant; a clean partition yields none.
"""

from __future__ import annotations

from typing import List

from repro.analysis.diagnostics import Diagnostic, Severity, SourceLocation

__all__ = ["check_partition", "PartitionChecker"]


def check_partition(gp) -> List[Diagnostic]:
    """All RP6xx findings of one :class:`GraphPartition`."""
    diags: List[Diagnostic] = []

    def err(code: str, message: str) -> None:
        diags.append(
            Diagnostic(
                code=code,
                severity=Severity.ERROR,
                message=message,
                location=SourceLocation(),
            )
        )

    if gp.assignment.shape != (gp.graph.num_vertices,):
        err("RP601", "assignment must cover every vertex")
        return diags  # downstream checks index through the assignment
    if gp.assignment.size and (
        gp.assignment.min() < 0 or gp.assignment.max() >= gp.num_parts
    ):
        err("RP602", "assignment out of range")
    owned_total = sum(p.num_owned for p in gp.parts)
    if owned_total != gp.graph.num_vertices:
        err("RP603", "owned sets must cover the vertex set")
    edge_total = sum(p.in_edge_ids.size for p in gp.parts)
    if edge_total != gp.graph.num_edges:
        err("RP604", "owned edge sets must cover the edge set")
    return diags


class PartitionChecker:
    """Bundle checker: RP6xx when the bundle carries a concrete partition."""

    name = "partition"
    codes = ("RP601", "RP602", "RP603", "RP604")

    def check(self, bundle) -> List[Diagnostic]:
        if bundle.partition is None:
            return []
        return check_partition(bundle.partition)
