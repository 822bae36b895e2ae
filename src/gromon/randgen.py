"""Seeded random instances: SPD tables, metrics, clouds, graphs, couplings.

Every generator is a deterministic function of its seed (a 64-bit integer),
so identical seeds give identical instances byte for byte.
"""

from __future__ import annotations

import numpy as np

from .euclidean import EuclideanCloud, Isometry, _haar_orthogonal
from .graphs import Graph
from .networks import Coupling, MeasureNetwork, _integer, _number, _numeric


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, (list, tuple)):
        return np.random.default_rng([_integer(s, "each seed entry") for s in seed])
    return np.random.default_rng(np.uint64(_integer(seed, "seed")))


def random_spd_network(n: int, seed) -> MeasureNetwork:
    """Uniform weights with omega = A^T A + 1e-3 * n * I, A seeded Gaussian."""
    a = _rng(seed).standard_normal((n, n))
    omega = a.T @ a + 1e-3 * n * np.eye(n)
    return MeasureNetwork(np.full(n, 1.0 / n), omega)


def random_metric_network(n: int, seed) -> MeasureNetwork:
    """Shortest-path metric of a seeded random weighted complete graph."""
    rng = _rng(seed)
    w = rng.uniform(1.0, 2.0, size=(n, n))
    d = np.triu(w, 1)
    d = d + d.T
    # Floyd-Warshall closure; edge weights in [1, 2] keep the result a metric
    # with strictly positive off-diagonal entries.
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    np.fill_diagonal(d, 0.0)
    return MeasureNetwork(np.full(n, 1.0 / n), d)


def random_cloud(n: int, dim: int, seed) -> EuclideanCloud:
    """Seeded Gaussian points with uniform weights."""
    pts = _rng(seed).standard_normal((n, dim))
    return EuclideanCloud(pts, np.full(n, 1.0 / n))


def random_graph(n: int, seed, edge_prob: float = 0.5) -> Graph:
    """Erdos-Renyi graph with the given edge probability."""
    edge_prob = _number(edge_prob, "edge_prob")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge_prob must be in [0, 1]")
    rng = _rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < edge_prob]
    return Graph(n, tuple(edges))


def random_isometry(dim: int, seed) -> Isometry:
    """Seeded Haar-random orthogonal transform plus a Gaussian translation
    of scale 2."""
    rng = _rng(seed)
    return Isometry(_haar_orthogonal(dim, rng), 2.0 * rng.standard_normal(dim))


def random_coupling(source_weights, target_weights, seed) -> Coupling:
    """Random coupling: positive seeded table projected onto the marginals
    by alternating row/column scaling, at most 500 rounds or until the row
    sums are within 1e-13."""
    sw = _numeric(source_weights, "source weights")
    tw = _numeric(target_weights, "target weights")
    rng = _rng(seed)
    t = rng.uniform(0.5, 1.5, size=(sw.size, tw.size))
    for _ in range(500):
        t *= (sw / t.sum(axis=1))[:, None]
        t *= tw / t.sum(axis=0)
        if np.abs(t.sum(axis=1) - sw).max() <= 1e-13:
            break
    t *= (sw / t.sum(axis=1))[:, None]
    return Coupling(t, sw, tw)


def random_uniform_network(n: int, seed) -> MeasureNetwork:
    """Uniform weights with a general (asymmetric) seeded table, entries
    uniform in [-2, 2)."""
    omega = _rng(seed).uniform(-2.0, 2.0, size=(n, n))
    return MeasureNetwork(np.full(n, 1.0 / n), omega)
