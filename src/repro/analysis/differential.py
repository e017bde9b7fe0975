"""Differential plan equivalence (RP701).

The one *dynamic* checker: it executes the plan and a freshly built
per-op plan of the same module on the same concrete inputs and compares
every module output.  Expensive, so it only runs when a bundle carries
concrete arrays; the contract it completes is the README's
"statically clean ⇒ no RP701" — every static checker above it proves a
necessary condition of this equivalence.
"""

from __future__ import annotations

from typing import List, Mapping

import numpy as np

from repro.analysis.diagnostics import Diagnostic, Severity, SourceLocation
from repro.exec.plan import ExecPlan

__all__ = ["check_plan_equivalence", "DifferentialChecker"]


def check_plan_equivalence(
    engine,
    plan: ExecPlan,
    arrays: Mapping[str, np.ndarray],
    *,
    rtol: float = 1e-6,
    atol: float = 1e-9,
    phase: str = "forward",
) -> List[Diagnostic]:
    """Run ``plan`` against the per-op reference; RP701 per divergence."""
    from repro.exec.plan import plan_module

    module = plan.module
    got = engine.run_plan(plan, engine.bind(module, arrays))
    reference_plan = plan_module(module, mode="per_op", keep=plan.keep)
    want = engine.run_plan(reference_plan, engine.bind(module, arrays))
    diags: List[Diagnostic] = []
    for name in module.outputs:
        if not np.allclose(got[name], want[name], rtol=rtol, atol=atol):
            worst = float(np.abs(got[name] - want[name]).max())
            diags.append(
                Diagnostic(
                    code="RP701",
                    severity=Severity.ERROR,
                    message=(
                        f"plan diverges from per-op reference on output "
                        f"{name!r} (max abs diff {worst:.3e})"
                    ),
                    location=SourceLocation(phase=phase, value=name),
                )
            )
    return diags


class DifferentialChecker:
    """Bundle checker: RP701 when concrete inputs are available.

    Needs ``bundle.engine`` and ``bundle.arrays`` — static-only bundles
    (the common case) skip it; the checker still registers as run so
    reports show the coverage decision explicitly.
    """

    name = "differential"
    codes = ("RP701",)

    def check(self, bundle) -> List[Diagnostic]:
        if bundle.engine is None or bundle.arrays is None:
            return []
        diags: List[Diagnostic] = []
        for artifact in bundle.plans:
            if artifact.phase != "forward":
                continue  # backward plans need the training harness
            diags.extend(
                check_plan_equivalence(
                    bundle.engine,
                    artifact.plan,
                    bundle.arrays,
                    phase=artifact.phase,
                )
            )
        return diags
