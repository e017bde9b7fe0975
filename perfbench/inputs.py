"""Seeded input generators: graphs, features, labels, request and update streams.

Everything the program under test receives is made here from the
``--seed`` argument, with NumPy only, so the same seed gives the same
inputs and the program's own generators are not part of what is measured.
Each kind of input draws from its own child stream of the seed, so the
request stream of ``serve-mixed`` is exactly that of ``serve-read``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.dyn import GraphDelta, UpdateEvent
from repro.serve import InferenceRequest

# Child-stream keys, one per kind of input.
_GRAPH, _FEATURES, _LABELS, _REQUESTS, _UPDATES = range(5)
# Seed of the serve graph's shape, which no --seed changes.
_SHAPE_SEED = 0


@dataclass(frozen=True)
class Sizes:
    """Input sizes of all workloads (``FULL`` is what the benchmark runs)."""

    # fullgraph: power-law graph for GAT training.
    train_vertices: int = 20_000
    train_edges: int = 200_000
    train_alpha: float = 1.8
    train_features: int = 64
    train_classes: int = 8
    num_parts: int = 4
    # serve-*: pubmed-shaped graph (19,717 vertices, 88,648 directed edges).
    serve_vertices: int = 19_717
    serve_edges: int = 88_648
    serve_alpha: float = 2.5
    serve_features: int = 500
    serve_classes: int = 3
    # One served block of the request stream (one measured round).
    requests: int = 512
    zipf_alpha: float = 1.1
    mean_seeds: float = 4.0
    qps: float = 4000.0
    slo_s: float = 0.01
    cache_rows: int = 8192
    # serve-mixed writes: one event per request, each a put and an insertion.
    put_rows: int = 2
    insert_edges: int = 2
    compact_every: int = 64
    # Seeded sample of served batches checked against direct engine runs.
    oracle_batches: int = 8


FULL = Sizes()


def _rng(seed: int, kind: int) -> np.random.Generator:
    return np.random.default_rng([seed, kind])


def pareto_weights(num_vertices: int, alpha: float) -> np.ndarray:
    """Expected-degree weights at the Pareto(alpha) quantiles, ascending.

    Fixed quantiles instead of random draws keep the heaviest vertices
    equally heavy on every seed; a random draw's maximum varies severalfold.
    """
    u = (np.arange(num_vertices) + 0.5) / num_vertices
    return (1.0 - u) ** (-1.0 / alpha)


def power_law_edges(
    rng: np.random.Generator, num_vertices: int, num_edges: int, alpha: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chung–Lu endpoints, each drawn ∝ its vertex's Pareto weight.

    Returns ``(src, dst, by_weight)``; ``by_weight[k]`` is the vertex
    holding the k-th smallest weight (the seed shuffles which vertex
    gets which weight).
    """
    by_weight = rng.permutation(num_vertices)
    weights = np.empty(num_vertices)
    weights[by_weight] = pareto_weights(num_vertices, alpha)
    p = weights / weights.sum()
    src = rng.choice(num_vertices, size=num_edges, p=p)
    dst = rng.choice(num_vertices, size=num_edges, p=p)
    return src.astype(np.int64), dst.astype(np.int64), by_weight


@dataclass
class TrainInputs:
    num_vertices: int
    src: np.ndarray
    dst: np.ndarray
    features: np.ndarray
    labels: np.ndarray


def train_inputs(seed: int, sizes: Sizes = FULL) -> TrainInputs:
    """Directed power-law graph, float32 features and class labels."""
    src, dst, _ = power_law_edges(
        _rng(seed, _GRAPH), sizes.train_vertices, sizes.train_edges,
        sizes.train_alpha,
    )
    features = _rng(seed, _FEATURES).standard_normal(
        (sizes.train_vertices, sizes.train_features), dtype=np.float32
    )
    labels = _rng(seed, _LABELS).integers(
        0, sizes.train_classes, size=sizes.train_vertices
    )
    return TrainInputs(sizes.train_vertices, src, dst, features, labels)


@dataclass
class ServeInputs:
    num_vertices: int
    src: np.ndarray
    dst: np.ndarray
    features: np.ndarray
    requests: List[InferenceRequest]
    updates: List[UpdateEvent]


def _zipf_draws(
    rng: np.random.Generator, ranking: np.ndarray, alpha: float, total: int
) -> np.ndarray:
    """``total`` vertices whose popularity follows Zipf(alpha) over
    ``ranking`` (most popular first), in an order the seed shuffles.

    The draws sit at the distribution's fixed quantiles, so every seed
    requests each popularity rank equally often.
    """
    cdf = np.cumsum(1.0 / np.arange(1, ranking.size + 1, dtype=np.float64) ** alpha)
    ranks = np.searchsorted(cdf, (np.arange(total) + 0.5) / total * cdf[-1])
    return ranking[rng.permutation(np.minimum(ranks, ranking.size - 1))]


def _seed_counts(rng: np.random.Generator, mean: float, size: int) -> np.ndarray:
    """Seeds per request, ``1 + Poisson(mean - 1)`` at fixed quantiles,
    in an order the seed shuffles."""
    k = np.arange(64)
    log_fact = np.cumsum(np.log(np.maximum(k, 1)))
    cdf = np.cumsum(np.exp(k * np.log(mean - 1.0) - (mean - 1.0) - log_fact))
    counts = 1 + np.searchsorted(cdf, (np.arange(size) + 0.5) / size)
    return rng.permutation(counts)


def serve_inputs(seed: int, *, mixed: bool, sizes: Sizes = FULL) -> ServeInputs:
    """Symmetric pubmed-shaped graph, 500-wide features, a Zipf request
    stream and, when ``mixed``, an interleaved update stream."""
    n = sizes.serve_vertices
    # The graph's shape is the same on every seed; the seed relabels its
    # vertices and reorders its edges.  Most served work is the 2-hop
    # neighbourhoods of the few hottest vertices, a heavy-tailed sum of
    # degrees; with a fresh Chung–Lu draw per seed the served work spread
    # over ±13% between seeds.
    half_src, half_dst, by_weight = power_law_edges(
        _rng(_SHAPE_SEED, _GRAPH), n, sizes.serve_edges // 2, sizes.serve_alpha
    )
    rng = _rng(seed, _GRAPH)
    relabel, order = rng.permutation(n), rng.permutation(half_src.size)
    half_src, half_dst = relabel[half_src[order]], relabel[half_dst[order]]
    by_weight = relabel[by_weight]
    # Popularity is independent of degree, but through a pairing of
    # popularity rank to weight rank that is the same on every seed, so
    # every seed's hot vertices have the same expected degrees; a
    # reshuffled pairing moved the served work by about 15% between seeds.
    ranking = by_weight[np.random.default_rng(0).permutation(n)]
    src = np.concatenate([half_src, half_dst])
    dst = np.concatenate([half_dst, half_src])
    features = _rng(seed, _FEATURES).random(
        (n, sizes.serve_features), dtype=np.float32
    )

    rng = _rng(seed, _REQUESTS)
    # Poisson arrivals, with the exponential gaps at fixed quantiles.
    gaps = -np.log1p(-(np.arange(sizes.requests) + 0.5) / sizes.requests) / sizes.qps
    arrivals = np.cumsum(rng.permutation(gaps))
    counts = _seed_counts(rng, sizes.mean_seeds, sizes.requests)
    draws = _zipf_draws(rng, ranking, sizes.zipf_alpha, int(counts.sum()))
    ends = np.cumsum(counts)
    requests = [
        InferenceRequest(
            request_id=i,
            tenant="default",
            seeds=np.unique(draws[end - k:end]),
            arrival_s=float(t),
            slo_s=sizes.slo_s,
        )
        for i, (t, k, end) in enumerate(zip(arrivals, counts, ends))
    ]

    updates: List[UpdateEvent] = []
    if mixed:
        rng = _rng(seed, _UPDATES)
        # Update i arrives halfway between requests i - 1 and i.  A write
        # stream with arrivals of its own ran ahead of or behind the reads,
        # so the fields grew earlier or later: the served work spread over
        # ±7% between seeds, and ±3.5% with the streams interleaved.
        arrivals = arrivals - np.diff(arrivals, prepend=0.0) / 2
        puts = _zipf_draws(rng, ranking, sizes.zipf_alpha,
                           sizes.requests * sizes.put_rows)
        targets = _zipf_draws(rng, ranking, sizes.zipf_alpha,
                              sizes.requests * sizes.insert_edges)
        # As under preferential attachment, new links run from ordinary
        # vertices (uniform, Zipf(0), over the lighter half) to popular
        # ones.  A hub source would add its whole neighbourhood to every
        # later field of its target, however few of them a seed drew.
        sources = _zipf_draws(rng, by_weight[: n // 2], 0.0,
                              sizes.requests * sizes.insert_edges)
        for i, t in enumerate(arrivals):
            rows = np.unique(puts.reshape(sizes.requests, -1)[i])
            updates.append(
                UpdateEvent(
                    update_id=i,
                    arrival_s=float(t),
                    feature_vertices=rows,
                    feature_rows=rng.random(
                        (rows.size, sizes.serve_features), dtype=np.float32
                    ),
                    delta=GraphDelta(
                        src=sources.reshape(sizes.requests, -1)[i],
                        dst=targets.reshape(sizes.requests, -1)[i],
                    ),
                )
            )
    return ServeInputs(n, src, dst, features, requests, updates)
