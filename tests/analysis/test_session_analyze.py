"""Session.analyze, the lint CLI, the differential contract, and the
raising ``validate_module`` / non-raising partition checks."""

import numpy as np
import pytest

from repro.analysis import (
    Analyzer,
    ArtifactBundle,
    PlanArtifact,
    build_bundle,
    check_plan_equivalence,
)
from repro.lint import main as lint_main
from repro.session import PlanCache, Session


class TestSessionAnalyze:
    def test_clean_configuration_reports_ok(self):
        report = Session().model("gcn").dataset("cora").strategy("ours").analyze()
        assert report.ok
        assert not report.diagnostics
        assert report.target == "gcn/ours/cora"
        assert "determinism" in report.checkers_run

    def test_lint_false_skips_source_trees_not_checkers(self):
        report = (
            Session().model("gcn").dataset("cora").strategy("ours")
            .analyze(lint=False)
        )
        assert report.ok
        assert "determinism" in report.checkers_run

    def test_inference_only_strategy_analyzes_forward_plan(self):
        report = (
            Session().model("gin").dataset("cora").strategy("huang-like")
            .analyze()
        )
        assert report.ok, report.summary()


class TestDifferentialContract:
    """README item: statically clean ⇒ no RP701 divergence."""

    @pytest.fixture(scope="class")
    def checked(self):
        from repro.exec import Engine
        from repro.frameworks import compile_training, get_strategy
        from repro.graph.generators import erdos_renyi
        from repro.registry import MODELS

        graph = erdos_renyi(100, 800, seed=3)
        compiled = compile_training(
            MODELS.get("gat")(8, 3), get_strategy("ours")
        )
        rng = np.random.default_rng(0)
        arrays = compiled.model.make_inputs(
            graph, rng.normal(size=(graph.num_vertices, 8))
        )
        arrays.update(compiled.model.init_params(0))
        return Engine(graph), compiled.fwd_plan, arrays

    def test_clean_plan_has_no_rp701(self, checked):
        engine, plan, arrays = checked
        assert check_plan_equivalence(engine, plan, arrays) == []

    def test_divergent_plan_yields_rp701(self, checked):
        engine, plan, arrays = checked
        broken = dict(arrays)

        class _SabotagedEngine:
            """Perturbs one output of the plan run only."""

            def __init__(self, inner):
                self._inner = inner
                self._runs = 0

            def bind(self, module, arrs):
                return self._inner.bind(module, arrs)

            def run_plan(self, p, env):
                out = self._inner.run_plan(p, env)
                self._runs += 1
                if self._runs == 1:
                    name = p.module.outputs[0]
                    out = dict(out)
                    out[name] = out[name] + 1.0
                return out

        diags = check_plan_equivalence(_SabotagedEngine(engine), plan, broken)
        assert [d.code for d in diags] == ["RP701"]
        assert "diverges from per-op reference" in diags[0].message

    def test_differential_checker_runs_inside_bundle(self, checked):
        engine, plan, arrays = checked
        bundle = ArtifactBundle(
            target="gat/ours/er100",
            plans=[PlanArtifact(phase="forward", plan=plan, stats=None)],
            engine=engine,
            arrays=arrays,
        )
        report = Analyzer().run(bundle)
        assert report.ok, report.summary()
        assert "differential" in report.checkers_run


class TestValidators:
    def test_validate_module_contract(self):
        from repro.frameworks import compile_training, get_strategy
        from repro.ir.validate import IRValidationError, validate_module
        from repro.registry import MODELS

        module = compile_training(
            MODELS.get("gcn")(8, 3), get_strategy("ours")
        ).forward
        validate_module(module)  # clean module: no raise
        module.outputs.append("phantom")
        try:
            with pytest.raises(IRValidationError, match="never defined"):
                validate_module(module)
        finally:
            module.outputs.pop()

    def test_partition_check_contract(self):
        from repro.analysis import check_partition
        from repro.graph.generators import erdos_renyi
        from repro.graph.partition import partition_graph

        gp = partition_graph(erdos_renyi(40, 200, seed=1), 2, seed=0)
        assert check_partition(gp) == []
        object.__setattr__(gp, "assignment", gp.assignment[:-1])
        diags = check_partition(gp)
        assert diags and diags[0].code == "RP601"
        assert "cover every vertex" in diags[0].message


class TestLintCli:
    def test_triple_mode_clean(self, capsys):
        assert lint_main(["gcn", "ours", "cora"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_precision_triple(self, capsys):
        assert lint_main(["gcn", "ours", "cora", "--precision", "int8"]) == 0
        assert "ours+int8" in capsys.readouterr().out

    def test_codes_mode_lists_the_table(self, capsys):
        assert lint_main(["--codes"]) == 0
        out = capsys.readouterr().out
        for code in ("RP101", "RP201", "RP301", "RP401", "RP501"):
            assert code in out

    def test_self_test_mode(self, capsys):
        assert lint_main(["--self-test"]) == 0
        out = capsys.readouterr().out
        assert "mutants killed" in out

    def test_bad_triple_arity_exits_2(self):
        with pytest.raises(SystemExit):
            lint_main(["gcn", "ours"])

    def test_nothing_to_do_exits_2(self):
        with pytest.raises(SystemExit):
            lint_main([])
