"""The repository benchmark: seeded workloads measured end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload fullgraph --seed 1 --seconds 25 --trace 0

``BENCHMARK.json`` at the root lists the workloads and metrics;
``perfbench/METRICS.md`` explains each metric, the layer each per-layer
metric belongs to, and the end-to-end metric it should move.
"""
