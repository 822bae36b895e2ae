"""Graphs as measure networks: adjacency, Laplacian, and heat-kernel tables.

The heat kernel exp(-tL) is symmetric positive definite for every t > 0 in
exact arithmetic, so graphs run through this module feed the SPD
vertex-ascent solver.  In floating point a large t * lambda makes it
numerically singular: the complete graph K16 at t = 3 has smallest
eigenvalue exp(-48), below float resolution next to its largest eigenvalue
1, and the solver rejects it as not positive definite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .networks import MeasureNetwork, _integer, _number, _numeric


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1 with optional edge weights."""

    n: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        n = _integer(self.n, "vertex count n")
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        object.__setattr__(self, "n", n)
        norm = []
        seen = set()
        for edge in self.edges:
            try:
                i, j = edge
            except (TypeError, ValueError):
                raise ValueError(f"edge must be a pair of endpoints, got {edge!r}") from None
            i, j = _integer(i, "edge endpoint"), _integer(j, "edge endpoint")
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            norm.append(key)
        object.__setattr__(self, "edges", tuple(norm))
        if self.weights is not None:
            w = _numeric(self.weights, "edge weights")
            if w.ndim != 1:
                raise TypeError(f"edge weights must be a list, got {self.weights!r}")
            if w.size != len(norm):
                raise ValueError("edge weights length does not match edges")
            if np.any(w < 0):
                raise ValueError("edge weights must be nonnegative")
            object.__setattr__(self, "weights", tuple(w.tolist()))


def _adjacency(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for k, (i, j) in enumerate(g.edges):
        w = 1.0 if g.weights is None else g.weights[k]
        a[i, j] = a[j, i] = w
    return a


def adjacency_network(g: Graph) -> MeasureNetwork:
    """Uniform weights, table = adjacency (0/1, or edge weights if given)."""
    return MeasureNetwork(np.full(g.n, 1.0 / g.n), _adjacency(g))


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian D - A: symmetric, zero row sums, PSD."""
    a = _adjacency(g)
    return np.diag(a.sum(axis=1)) - a


def heat_kernel_network(g: Graph, t: float) -> MeasureNetwork:
    """Network with table exp(-tL), computed by symmetric eigendecomposition.

    Eigenvalues are clamped at zero from below before exponentiation (the
    Laplacian is PSD up to roundoff), so every eigenvalue exp(-t * lambda) is
    positive in exact arithmetic.  Once t * lambda exceeds about 36 it is
    below float resolution next to the largest eigenvalue, 1 (lambda = 0),
    and the computed table can be singular or indefinite.
    """
    t = _number(t, "t")
    if not 0.0 < t < math.inf:  # also rejects nan
        raise ValueError("t must be positive and finite")
    evals, evecs = np.linalg.eigh(laplacian(g))
    evals = np.maximum(evals, 0.0)
    kernel = (evecs * np.exp(-t * evals)) @ evecs.T
    kernel = (kernel + kernel.T) / 2.0
    return MeasureNetwork(np.full(g.n, 1.0 / g.n), kernel)
