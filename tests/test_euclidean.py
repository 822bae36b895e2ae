import math

import numpy as np
import pytest

from gromon import (
    EuclideanCloud,
    Isometry,
    MongeMap,
    cloud_to_network,
    gm_em_infinity,
    gm_em_lower,
    gm_exact,
    m_iso,
    one_point_network,
    procrustes_align,
    simplex_network,
    simplex_point_embedding_value,
)
from gromon.randgen import random_cloud, random_isometry


def line_cloud(*xs):
    return EuclideanCloud([[float(v)] for v in xs], np.full(len(xs), 1.0 / len(xs)))


# -- cloud networks -----------------------------------------------------------

def test_cloud_to_network_two_points():
    net = cloud_to_network(line_cloud(0, 1))
    assert np.array_equal(net.omega, [[0, 1], [1, 0]])
    assert np.array_equal(cloud_to_network(line_cloud(0, 1), squared=True).omega,
                          [[0, 1], [1, 0]])


def test_cloud_to_network_three_points():
    net = cloud_to_network(line_cloud(0, 1, 3))
    assert np.array_equal(net.omega, [[0, 1, 3], [1, 0, 2], [3, 2, 0]])


def test_cloud_to_network_squared():
    net = cloud_to_network(line_cloud(0, 2), squared=True)
    assert np.array_equal(net.omega, [[0, 4], [4, 0]])


# -- isometries ---------------------------------------------------------------

def test_isometry_orthogonality_checked():
    with pytest.raises(ValueError, match="orthogonal"):
        Isometry([[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0])


def test_isometry_allows_reflection():
    iso = Isometry([[-1.0]], [2.0])
    assert np.allclose(iso.apply(np.array([[1.0]])), [[1.0]])


# -- Procrustes ---------------------------------------------------------------

def test_procrustes_recovers_known_isometry():
    cloud = random_cloud(8, 3, 1)
    iso0 = random_isometry(3, 2)
    moved = EuclideanCloud(iso0.apply(cloud.points), cloud.weights)
    iso = procrustes_align(cloud, moved, MongeMap(np.arange(8)))
    residual = np.linalg.norm(iso.apply(cloud.points) - moved.points)
    assert residual <= 1e-10
    assert np.allclose(iso.rotation, iso0.rotation, atol=1e-8)


def test_procrustes_line_translation():
    iso = procrustes_align(line_cloud(0, 1), line_cloud(0, 2), MongeMap([0, 1]))
    assert iso.rotation[0, 0] == pytest.approx(1.0)
    assert iso.translation[0] == pytest.approx(0.5)
    x, y = line_cloud(0, 1), line_cloud(0, 2)
    residual = float(np.sum(x.weights * np.linalg.norm(
        iso.apply(x.points) - y.points, axis=1) ** 2))
    assert residual == pytest.approx(0.25, abs=1e-12)


def test_procrustes_degenerate_source_goes_to_centroid():
    x = EuclideanCloud([[1.0, 1.0]] * 3, [1 / 3] * 3)
    y = EuclideanCloud([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]], [1 / 3] * 3)
    iso = procrustes_align(x, y, MongeMap([0, 1, 2]))
    assert np.allclose(iso.apply(x.points)[0], y.weights @ y.points)


def test_procrustes_dim_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        procrustes_align(line_cloud(0, 1), random_cloud(2, 2, 0), MongeMap([0, 1]))


# -- registration ---------------------------------------------------------------

def test_m_iso_congruent_clouds():
    cloud = random_cloud(12, 3, 5)
    moved = EuclideanCloud(random_isometry(3, 6).apply(cloud.points), cloud.weights)
    report = m_iso(cloud, moved, p=2, restarts=20, seed=0)
    assert report.value <= 1e-6
    assert report.converged


def test_m_iso_line_example():
    report = m_iso(line_cloud(0, 1), line_cloud(0, 2), p=2, restarts=5, seed=0)
    assert report.value == pytest.approx(0.5, abs=1e-10)
    assert report.transform is not None


def test_m_iso_requires_uniform_equal_size():
    x = EuclideanCloud([[0.0], [1.0]], [0.5, 0.5])
    y = EuclideanCloud([[0.0], [1.0], [2.0]], [1 / 3] * 3)
    assert math.isinf(m_iso(x, y).value)
    z = EuclideanCloud([[0.0], [1.0]], [0.25, 0.75])
    assert math.isinf(m_iso(x, z).value)


def test_m_iso_unsupported_weighting_is_not_infinite():
    # measure-preserving maps exist here, so "infinite" would be false
    z = EuclideanCloud([[0.0], [1.0]], [0.25, 0.75])
    with pytest.raises(ValueError, match="unsupported weighting"):
        m_iso(z, z)
    four = EuclideanCloud([[0.0], [1.0], [2.0], [3.0]], [0.25] * 4)
    two = EuclideanCloud([[0.0], [1.0]], [0.5, 0.5])
    with pytest.raises(ValueError, match="unsupported weighting"):
        m_iso(four, two)


def test_m_iso_isometry_invariance():
    x = random_cloud(6, 2, 7)
    y = random_cloud(6, 2, 8)
    base = m_iso(x, y, p=2, restarts=20, seed=0).value
    x2 = EuclideanCloud(random_isometry(2, 9).apply(x.points), x.weights)
    y2 = EuclideanCloud(random_isometry(2, 10).apply(y.points), y.weights)
    assert m_iso(x2, y2, p=2, restarts=20, seed=0).value == pytest.approx(
        base, abs=1e-6)


def test_m_iso_trace_monotone_at_p2():
    x = random_cloud(7, 3, 11)
    y = random_cloud(7, 3, 12)
    report = m_iso(x, y, p=2, restarts=5, seed=0)
    for before, after in zip(report.trace, report.trace[1:]):
        assert after <= before + 1e-12


def test_m_iso_dim_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        m_iso(random_cloud(3, 2, 0), random_cloud(3, 3, 0))


def test_m_iso_reflection_flag():
    # scalene triangle vs its mirror image: congruent only through a reflection
    tri = EuclideanCloud([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]], [1 / 3] * 3)
    mirror = EuclideanCloud(tri.points * [-1.0, 1.0], tri.weights)
    full = m_iso(tri, mirror, p=2, restarts=20, seed=0)
    assert full.value <= 1e-8
    proper = m_iso(tri, mirror, p=2, restarts=20, seed=0, allow_reflections=False)
    assert proper.value > 0.1
    assert np.linalg.det(proper.transform.rotation) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("p", [1, 2])
def test_sandwich_bound(seed, p):
    rng = np.random.default_rng([60, seed])
    n, dim = int(rng.integers(2, 7)), int(rng.integers(1, 4))
    x = random_cloud(n, dim, [60, seed, 0])
    y = random_cloud(n, dim, [60, seed, 1])
    gm = gm_exact(cloud_to_network(x), cloud_to_network(y), p).value
    reg = m_iso(x, y, p=p, restarts=20, seed=seed).value
    assert 0.5 * gm <= reg + 1e-6


# -- embedding distances -----------------------------------------------------------

def test_gm_em_infinity_values():
    point = one_point_network()
    for n in (2, 5):
        assert gm_em_infinity(simplex_network(n), point) == 0.5
    net = simplex_network(3)
    assert gm_em_infinity(net, net) == 0.0
    # pair admitting no measure-preserving map
    assert math.isinf(gm_em_infinity(point, simplex_network(2)))


def test_gm_em_lower_values():
    assert gm_em_lower(simplex_network(4), simplex_network(2), 1) == pytest.approx(
        0.125, abs=1e-12)
    net = simplex_network(3)
    assert gm_em_lower(net, net, 2) == 0.0
    for n in (2, 4, 8):
        lower = gm_em_lower(simplex_network(n), one_point_network(), 1)
        assert lower == pytest.approx(0.5 * (1 - 1 / n), abs=1e-12)
        assert lower <= 0.5 + 1e-12


def test_simplex_embedding_values():
    assert simplex_point_embedding_value(1, 2) == 0.0
    assert simplex_point_embedding_value(5, 2) == 0.5
    assert simplex_point_embedding_value(3, 1) == 0.5


def test_simplex_embedding_rejects_bad_n():
    with pytest.raises(ValueError):
        simplex_point_embedding_value(0, 2)
