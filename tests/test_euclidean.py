import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

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
from gromon import euclidean
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


@pytest.mark.parametrize("restarts", [0, -7])
def test_m_iso_rejects_bad_restarts(restarts):
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        m_iso(line_cloud(0, 1), line_cloud(0, 2), restarts=restarts)


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


def _m_iso_restarts_reference(x, y, p, restarts, seed, max_alternations, allow_reflections):
    """(value, witness, iterations, converged, trace, transform) of m_iso's own
    restart loop, as it was before the shared restart driver."""
    n = x.n
    cx = x.weights @ x.points
    cy = y.weights @ y.points

    def run(iso, phi):
        if phi is not None:
            iso = procrustes_align(x, y, MongeMap(phi), allow_reflections)
        best_val = math.inf
        best = (None, iso)
        trace = []
        done = False
        it = 0
        for it in range(1, max_alternations + 1):
            moved = iso.apply(x.points)
            cost = np.linalg.norm(moved[:, None, :] - y.points[None, :, :], axis=-1) ** p
            _, phi = linear_sum_assignment(cost)
            iso = procrustes_align(x, y, MongeMap(phi), allow_reflections)
            val = euclidean._registration_cost(x, y, phi, iso, p)
            trace.append(val)
            if val < best_val - 1e-14:
                best_val, best = val, (phi, iso)
            else:
                done = True
                break
        return best_val, best[0], best[1], it, done, trace

    def one_restart(r):
        if r == 0:
            start = Isometry(np.eye(x.dim), cy - cx)
            return (*run(start, np.arange(n, dtype=np.intp)), r)
        rng = np.random.default_rng([seed, r])
        rot = euclidean._haar_orthogonal(x.dim, rng)
        if not allow_reflections and np.linalg.det(rot) < 0.0:
            rot = rot.copy()
            rot[:, 0] = -rot[:, 0]
        start = Isometry(rot, cy - rot @ cx)
        return (*run(start, None), r)

    results = [one_restart(r) for r in range(restarts)]
    val, phi, iso, _, done, trace, _ = min(results, key=lambda t: (t[0], t[6]))
    return val, phi, sum(t[3] for t in results), done, trace, iso


def _registration_pairs():
    for k in range(4):
        x = random_cloud(15, 3, [61, k])
        moved = random_isometry(3, [62, k]).apply(x.points)
        perm = np.random.default_rng([63, k]).permutation(15)
        noise = 0.05 * k * np.random.default_rng([64, k]).standard_normal((15, 3))
        y = EuclideanCloud((moved + noise)[perm], x.weights)
        yield x, y
    yield random_cloud(8, 2, 65), random_cloud(8, 2, 66)
    tri = EuclideanCloud([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]], [1 / 3] * 3)
    yield tri, EuclideanCloud(tri.points * [-1.0, 1.0], tri.weights)


@pytest.mark.parametrize("allow_reflections", [True, False])
@pytest.mark.parametrize("p", [1, 2])
def test_m_iso_restart_driver_matches_own_loop(p, allow_reflections):
    for x, y in _registration_pairs():
        for max_alternations in (2, 100):
            got = m_iso(x, y, p=p, restarts=6, seed=9, max_alternations=max_alternations,
                        allow_reflections=allow_reflections)
            val, phi, iters, done, trace, iso = _m_iso_restarts_reference(
                x, y, p, 6, 9, max_alternations, allow_reflections)
            assert float(got.value).hex() == float(val).hex()
            assert np.array_equal(got.witness.assignment, phi)
            assert got.iterations == iters
            assert got.converged == done
            assert got.trace == tuple(trace)
            assert got.transform.rotation.tobytes() == iso.rotation.tobytes()
            assert got.transform.translation.tobytes() == iso.translation.tobytes()


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
