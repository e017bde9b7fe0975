"""Self-tests of the benchmark, on inputs small enough to run in seconds.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import fullgraph, run, serving  # noqa: E402
from perfbench.inputs import FULL, serve_inputs, train_inputs  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.tracing import Tracer, install  # noqa: E402

TINY = replace(
    FULL,
    train_vertices=300, train_edges=2400, train_features=8,
    serve_vertices=400, serve_edges=2400, serve_features=16,
    requests=48, cache_rows=128, oracle_batches=3,
)

#: Metrics that count work or predict it, not time it: equal on equal seeds.
COUNTS = [
    name for name, m in PER_LAYER.items()
    if m.unit not in ("s", "1/s")
    and not name.startswith("trace.") and name != "train_peak_mb"
]


def _benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _train_arrays(seed):
    t = train_inputs(seed, TINY)
    return [t.src, t.dst, t.features, t.labels]


def _serve_arrays(seed):
    s = serve_inputs(seed, mixed=True, sizes=TINY)
    arrays = [s.src, s.dst, s.features]
    for r in s.requests:
        arrays += [r.seeds, np.array([r.arrival_s])]
    for u in s.updates:
        arrays += [u.feature_vertices, u.feature_rows, u.delta.src, u.delta.dst,
                   np.array([u.arrival_s])]
    return arrays


@pytest.mark.parametrize("make", [_train_arrays, _serve_arrays])
def test_same_seed_same_inputs_other_seed_other_inputs(make):
    a, b, c = make(3), make(3), make(4)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(
        x.shape == y.shape and np.array_equal(x, y) for x, y in zip(a, c)
    )


def test_read_and_mixed_streams_share_their_requests():
    read = serve_inputs(5, mixed=False, sizes=TINY)
    mixed = serve_inputs(5, mixed=True, sizes=TINY)
    assert not read.updates and len(mixed.updates) == TINY.requests
    for r, m in zip(read.requests, mixed.requests):
        assert np.array_equal(r.seeds, m.seeds) and r.arrival_s == m.arrival_s


def _traced(workload: str, seed: int) -> dict:
    tracer = Tracer()
    install(tracer)
    try:
        if workload == "fullgraph":
            result = fullgraph.run(seed, 0.0, tracer, True, sizes=TINY)
        else:
            result = serving.run(seed, 0.0, tracer, True,
                                 mixed=workload == "serve-mixed", sizes=TINY)
    finally:
        tracer.unwrap_all()
    assert result["units"].failed == 0, result["units"].notes
    return result["layers"]


@pytest.mark.parametrize("workload", ["fullgraph", "serve-read", "serve-mixed"])
def test_same_seed_same_counts(workload):
    first, second = _traced(workload, 7), _traced(workload, 7)
    assert {n: first[n] for n in COUNTS} == {n: second[n] for n in COUNTS}
    moved = [n for n in COUNTS if workload in PER_LAYER[n].workloads and first[n] > 0]
    assert moved, "no count metric of this workload was measured"


def test_metric_tables_match_benchmark_json():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (m.unit, m.better) for name, m in PER_LAYER.items()
    }
    # serve-read runs on demand; its layers are all measured on serve-mixed.
    assert [w["name"] for w in spec["workloads"]] == ["fullgraph", "serve-mixed"]


@pytest.mark.parametrize("workload", ["fullgraph", "serve-read", "serve-mixed"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "2", "--seconds", "0",
                     "--trace", trace], sizes=TINY)
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _benchmark_json()["per_layer" if trace == "1" else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for m in spec:
        assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"]
                   for line in lines[:-1]), m["name"]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
