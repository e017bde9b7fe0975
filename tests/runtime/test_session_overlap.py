"""Session/strategy threading of the overlap mode."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.frameworks import get_strategy
from repro.frameworks.strategy import ExecutionStrategy
from repro.session import PlanCache, Session


@pytest.fixture(scope="module")
def cache():
    return PlanCache()


def sess(cache):
    return Session(cache=cache).model("gat").dataset("cora")


class TestStrategyField:
    def test_default_off(self):
        assert ExecutionStrategy(name="x").overlap is None

    def test_validated(self):
        with pytest.raises(ValueError, match="overlap"):
            ExecutionStrategy(name="x", overlap="sideways")

    def test_session_setter_resolves(self, cache):
        s = sess(cache).overlap("events")
        assert s.resolve_strategy().overlap == "events"

    def test_session_setter_validated(self, cache):
        with pytest.raises(ValueError, match="overlap"):
            sess(cache).overlap("sideways")

    def test_none_resets(self, cache):
        s = sess(cache).overlap("threads").overlap(None)
        assert s.resolve_strategy().overlap is None

    def test_none_keeps_strategy_own_mode(self, cache):
        own = replace(get_strategy("ours"), overlap="events")
        s = sess(cache).strategy(own).overlap(None)
        assert s.resolve_strategy().overlap == "events"


class TestOverlapSchedules:
    def test_requires_cluster(self, cache):
        with pytest.raises(ValueError, match="cluster"):
            sess(cache).gpu("V100").overlap_schedules()

    def test_both_phases(self, cache):
        schedules = sess(cache).cluster("V100", 4).overlap_schedules()
        assert [s.phase for s in schedules] == ["forward", "backward"]
        for s in schedules:
            assert s.num_gpus == 4
            assert s.efficiency >= 1.0 - 1e-12
            assert s.overlapped_makespan_s <= s.serialized_makespan_s + 1e-12

    def test_inference_only(self, cache):
        schedules = sess(cache).cluster("V100", 2).overlap_schedules(
            training=False
        )
        assert [s.phase for s in schedules] == ["forward"]

    def test_memory_schedule_constrains(self, cache):
        # With the arena plan active, slab reuse adds hazards; the
        # schedule still builds and stays race-free.
        schedules = (
            sess(cache).cluster("V100", 4).schedule("memory")
            .overlap_schedules()
        )
        for s in schedules:
            assert s.efficiency >= 1.0 - 1e-12


class TestServeOverlap:
    def _serve(self, cache, overlap):
        s = sess(cache).gpu("V100")
        if overlap is not None:
            s = s.overlap(overlap)
        return s.serve(
            num_requests=48, qps=50000.0, seeds_per_request=2,
            cache_rows=64, seed=11,
        )

    def test_outputs_bit_identical_across_modes(self, cache):
        base = self._serve(cache, None)
        for mode in ("events", "threads"):
            rep = self._serve(cache, mode)
            assert rep.overlap == mode
            assert set(rep.outputs) == set(base.outputs)
            for rid in base.outputs:
                assert np.array_equal(base.outputs[rid], rep.outputs[rid])

    def test_overlapped_never_slower(self, cache):
        base = self._serve(cache, None)
        rep = self._serve(cache, "events")
        assert rep.serialized_makespan_s == pytest.approx(base.makespan_s)
        assert rep.makespan_s <= rep.serialized_makespan_s + 1e-12
        assert rep.overlap_efficiency >= 1.0 - 1e-12
        assert "overlap" in rep.summary()

    def test_serial_report_defaults(self, cache):
        base = self._serve(cache, None)
        assert base.overlap is None
        assert base.serialized_makespan_s == 0.0
        assert base.overlap_efficiency == 1.0
