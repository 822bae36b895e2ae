import itertools
import math
import warnings

import numpy as np
import pytest

from gromon import (
    Graph,
    NotSPDError,
    adjacency_network,
    gw_spd_vertex_ascent,
    heat_kernel_network,
    laplacian,
)
from gromon.randgen import random_graph
from gromon.solvers import _check_spd


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, ((0, 0),))


def test_graph_rejects_duplicate_edge():
    with pytest.raises(ValueError, match="duplicate"):
        Graph(3, ((0, 1), (1, 0)))


def test_graph_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, ((0, 2),))


@pytest.mark.parametrize("edges,weights,error,match", [
    pytest.param(((0, 1), (1, 2)), "12", TypeError, "must be a list", id="weights-string"),
    pytest.param(((0, 1), (1, 2)), {"1": 0, "2": 0}, TypeError, "must be a list",
                 id="weights-dict"),
    pytest.param(((0, 1),), 5, TypeError, "must be a list", id="weights-int"),
    pytest.param(((0, 1),), (True,), TypeError, "must be a number", id="weight-bool"),
    pytest.param(((0, 1),), ("1.5",), TypeError, "must be a number", id="weight-string"),
    pytest.param(((0, 1),), (None,), TypeError, "must be a number", id="weight-null"),
    pytest.param(((0, 1),), (math.nan,), ValueError, "finite", id="weight-nan"),
    pytest.param(((0, 1),), (math.inf,), ValueError, "finite", id="weight-infinite"),
    pytest.param(((0, 1, 2),), None, ValueError, "pair of endpoints", id="edge-triple"),
    pytest.param((5,), None, ValueError, "pair of endpoints", id="edge-int"),
])
def test_graph_rejects_malformed_edges_and_weights(edges, weights, error, match):
    with pytest.raises(error, match=match):
        Graph(3, edges, weights)


def test_adjacency_single_edge():
    net = adjacency_network(Graph(2, ((0, 1),)))
    assert np.array_equal(net.omega, [[0, 1], [1, 0]])
    assert np.array_equal(net.weights, [0.5, 0.5])


def test_adjacency_empty_graph():
    assert np.array_equal(adjacency_network(Graph(3, ())).omega, np.zeros((3, 3)))


def test_adjacency_triangle():
    net = adjacency_network(Graph(3, ((0, 1), (1, 2), (0, 2))))
    assert np.array_equal(net.omega, np.ones((3, 3)) - np.eye(3))


def test_adjacency_weighted():
    net = adjacency_network(Graph(2, ((0, 1),), (0.25,)))
    assert np.array_equal(net.omega, [[0, 0.25], [0.25, 0]])


def test_laplacian_single_edge():
    assert np.array_equal(laplacian(Graph(2, ((0, 1),))), [[1, -1], [-1, 1]])


def test_laplacian_empty():
    assert np.array_equal(laplacian(Graph(3, ())), np.zeros((3, 3)))


def test_laplacian_triangle():
    want = 2 * np.eye(3) - (np.ones((3, 3)) - np.eye(3))
    assert np.array_equal(laplacian(Graph(3, ((0, 1), (1, 2), (0, 2)))), want)


def test_laplacian_rows_sum_to_zero():
    g = random_graph(7, 3)
    assert np.abs(laplacian(g).sum(axis=1)).max() == 0.0


def test_heat_kernel_rejects_nonpositive_t():
    for t in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="t must be positive and finite"):
            heat_kernel_network(Graph(2, ((0, 1),)), t)


@pytest.mark.parametrize("t", ["1.0", True, np.bool_(True), b"1",
                               np.array(True), np.array("2"), np.array([2.0])],
                         ids=["str", "true", "np-bool", "bytes",
                              "0d-bool-array", "0d-str-array", "1d-array"])
def test_heat_kernel_rejects_text_and_bool_t(t):
    with pytest.raises(TypeError, match="t must be a number"):
        heat_kernel_network(Graph(2, ((0, 1),)), t)


def test_heat_kernel_accepts_numeric_scalars():
    g = random_graph(5, 4)
    want = heat_kernel_network(g, 1.0).omega
    for t in (1, np.int64(1), np.float32(1.0), np.float64(1.0), np.array(1.0)):
        assert np.array_equal(heat_kernel_network(g, t).omega, want)


def test_heat_kernel_small_t_is_identity():
    net = heat_kernel_network(random_graph(5, 4), 1e-12)
    assert np.abs(net.omega - np.eye(5)).max() <= 1e-9


def test_heat_kernel_single_edge_closed_form():
    g = Graph(2, ((0, 1),))
    for t in (0.5, 1.0, 2.0):
        e = math.exp(-2.0 * t)
        want = 0.5 * np.array([[1 + e, 1 - e], [1 - e, 1 + e]])
        assert np.abs(heat_kernel_network(g, t).omega - want).max() <= 1e-12


def test_heat_kernel_eigenvalues_positive():
    for seed in range(4):
        g = random_graph(6, seed, edge_prob=0.4)
        for t in (0.1, 1.0, 2.0):
            evals = np.linalg.eigvalsh(heat_kernel_network(g, t).omega)
            assert evals.min() > 0.0


def test_heat_kernel_passes_spd_check():
    # the vertex-ascent solver's own precondition, over a t sweep
    for g in (Graph(2, ((0, 1),)), Graph(3, ((0, 1), (1, 2), (0, 2)))):
        for t in (0.1, 0.5, 1.0, 5.0, 10.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                _check_spd(heat_kernel_network(g, t).omega, "heat kernel")


def test_heat_kernel_relabeling_equivariance():
    g = random_graph(7, 8, edge_prob=0.5)
    sigma = np.random.default_rng(2).permutation(7)
    relabeled_edges = tuple(sorted((min(sigma[i], sigma[j]), max(sigma[i], sigma[j]))
                                   for i, j in g.edges))
    gp = Graph(7, relabeled_edges)
    for t in (0.5, 2.0):
        direct = heat_kernel_network(gp, t).omega
        permuted = heat_kernel_network(g, t).omega[np.ix_(np.argsort(sigma),
                                                          np.argsort(sigma))]
        assert np.abs(direct - permuted).max() <= 1e-10


def test_heat_kernel_row_sums_one():
    for seed in range(3):
        g = random_graph(6, [70, seed])
        for t in (0.5, 1.0, 3.0):
            rows = heat_kernel_network(g, t).omega.sum(axis=1)
            assert np.abs(rows - 1.0).max() <= 1e-9


def test_heat_kernel_can_be_numerically_singular():
    # SPD in exact arithmetic, but K16 at t = 3 has smallest eigenvalue
    # exp(-48), below float resolution next to the largest eigenvalue 1
    net = heat_kernel_network(Graph(16, tuple(itertools.combinations(range(16), 2))), 3.0)
    with pytest.raises(NotSPDError, match=r"not positive definite \(Cholesky failed\)"):
        gw_spd_vertex_ascent(net, net)
