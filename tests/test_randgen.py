import numpy as np
import pytest

from gromon import validate_network
from gromon.randgen import (
    random_cloud,
    random_coupling,
    random_graph,
    random_isometry,
    random_metric_network,
    random_spd_network,
)


def test_spd_instances_pass_cholesky():
    for n in (3, 6, 9):
        np.linalg.cholesky(random_spd_network(n, n).omega)


def test_metric_instances_pass_triangle_scan():
    for seed in range(5):
        assert validate_network(random_metric_network(6, seed)).is_metric


def test_same_seed_same_instance():
    a = random_metric_network(5, 42)
    b = random_metric_network(5, 42)
    assert np.array_equal(a.omega, b.omega)
    assert random_graph(6, 3).edges == random_graph(6, 3).edges
    assert np.array_equal(random_cloud(4, 2, 8).points, random_cloud(4, 2, 8).points)


def test_random_coupling_marginals():
    w = np.array([0.5, 0.3, 0.2])
    v = np.full(4, 0.25)
    pi = random_coupling(w, v, 5)
    assert np.abs(pi.table.sum(axis=1) - w).max() <= 1e-9
    assert np.abs(pi.table.sum(axis=0) - v).max() <= 1e-9


def test_random_isometry_is_orthogonal():
    iso = random_isometry(3, 4)
    assert np.abs(iso.rotation.T @ iso.rotation - np.eye(3)).max() <= 1e-10


def test_edge_prob_extremes():
    assert random_graph(5, 0, edge_prob=0.0).edges == ()
    assert len(random_graph(5, 0, edge_prob=1.0).edges) == 10


@pytest.mark.parametrize("edge_prob", [-0.1, 1.5, float("nan")])
def test_edge_prob_out_of_range_rejected(edge_prob):
    with pytest.raises(ValueError, match=r"edge_prob must be in \[0, 1\]"):
        random_graph(4, 0, edge_prob=edge_prob)


@pytest.mark.parametrize("edge_prob", [True, "0.5", np.array(True)],
                         ids=["true", "str", "0d-bool-array"])
def test_edge_prob_must_be_a_number(edge_prob):
    with pytest.raises(TypeError, match="edge_prob must be a number"):
        random_graph(4, 0, edge_prob=edge_prob)


@pytest.mark.parametrize("seed", [1.7, "5", True, [True, 2.9], np.float64(3.0)],
                         ids=["float", "str", "true", "list-bool-float", "np-float"])
def test_seed_must_be_integers(seed):
    with pytest.raises(TypeError, match="must be an integer"):
        random_metric_network(3, seed)


@pytest.mark.parametrize("seed,entropy", [
    (0, 0), (2**64 - 1, 2**64 - 1), ([2**64 - 1, 3], [2**64 - 1, 3]),
    (np.uint64(7), 7), (np.int64(7), 7), ((5, np.int32(2)), [5, 2]),
], ids=["zero", "max", "list", "np-uint", "np-int", "tuple-np-int"])
def test_integer_seeds_keep_their_streams(seed, entropy):
    want = np.random.default_rng(entropy).standard_normal(4)
    assert random_cloud(4, 1, seed).points.tobytes() == want.tobytes()
