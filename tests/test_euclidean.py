import math
import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from gromon import (
    EuclideanCloud,
    Isometry,
    MeasureNetwork,
    MongeMap,
    cloud_to_network,
    enumerate_monge_maps,
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


def test_cloud_to_network_three_points():
    net = cloud_to_network(line_cloud(0, 1, 3))
    assert np.array_equal(net.omega, [[0, 1, 3], [1, 0, 2], [3, 2, 0]])


def _norm_distances(a, b):
    """The (n, m, dim) broadcast form that ``_distances`` replaces."""
    return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)


@pytest.mark.parametrize("dim", range(1, 8))
def test_distances_equal_norm_form_bit_for_bit(dim):
    rng = np.random.default_rng([70, dim])
    for k in range(20):
        n, m = rng.integers(1, 60, 2)
        scale = 10.0 ** rng.integers(-6, 7)
        a = scale * rng.standard_normal((n, dim))
        b = scale * rng.standard_normal((m, dim)) + rng.standard_normal(dim)
        assert euclidean._distances(a, b).tobytes() == _norm_distances(a, b).tobytes()


@pytest.mark.parametrize("dim", range(1, 8))
def test_cloud_to_network_unchanged(dim):
    for k in range(5):
        cloud = random_cloud(3 + 9 * k, dim, [71, dim, k])
        diff = cloud.points[:, None, :] - cloud.points[None, :, :]
        omega = np.sqrt((diff * diff).sum(axis=-1))
        np.fill_diagonal(omega, 0.0)
        assert cloud_to_network(cloud).omega.tobytes() == omega.tobytes()


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


def test_m_iso_refuses_near_uniform_weights_some_bijection_fails():
    # every weight within 1e-9 of 1/3, but the identity misses by 1.8e-9
    line = [[0.0], [1.0], [3.0]]
    x = EuclideanCloud(line, [1 / 3 + 0.9e-9, 1 / 3 - 0.9e-9, 1 / 3])
    y = EuclideanCloud(line, [1 / 3 - 0.9e-9, 1 / 3 + 0.9e-9, 1 / 3])
    with pytest.raises(ValueError, match="unsupported weighting"):
        m_iso(x, y)


def test_m_iso_near_uniform_equal_sizes_without_a_map_is_infinite():
    # every weight within 1e-9 of 1/4, but sorted, the third pair misses by
    # 1.2e-9: no bijection, and so no map, is measure preserving
    line = [[0.0], [1.0], [3.0], [7.0]]
    wx = [0.25 + 0.9e-9] * 2 + [0.25 - 0.9e-9] * 2
    wy = [0.25 + 0.3e-9] * 3 + [0.25 - 0.9e-9]
    report = m_iso(EuclideanCloud(line, wx), EuclideanCloud(line, wy))
    assert report.value == math.inf and report.witness is None
    assert next(enumerate_monge_maps(wx, wy), None) is None
    om = np.abs(np.subtract.outer(np.ravel(line), np.ravel(line)))
    exact = gm_exact(MeasureNetwork(wx, om), MeasureNetwork(wy, om), 2)
    assert (exact.value, exact.witness, exact.iterations) == (math.inf, None, 0)


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
    # scalene triangle vs its mirror image: congruent only through a
    # reflection, which the registration always allows
    tri = EuclideanCloud([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]], [1 / 3] * 3)
    mirror = EuclideanCloud(tri.points * [-1.0, 1.0], tri.weights)
    full = m_iso(tri, mirror, p=2, restarts=20, seed=0)
    assert full.value <= 1e-8


def _axes(cloud, centroid):
    d = cloud.points - centroid
    return np.linalg.eigh(d.T @ (cloud.weights[:, None] * d))[1]


def _m_iso_restarts_reference(x, y, p, restarts, seed, max_alternations,
                              axis_starts=True):
    """(value, witness, iterations, converged, trace, transform) of m_iso's own
    restart loop, as it was before the shared restart driver.  With
    ``axis_starts`` restarts 1..2^dim start from the principal axes of x
    mapped onto those of y, restart r flipping the axes set in r - 1;
    without, every restart past 0 starts from a seeded Haar rotation."""
    n = x.n
    cx = x.weights @ x.points
    cy = y.weights @ y.points
    vx, vy = _axes(x, cx), _axes(y, cy)

    def run(iso, phi):
        if phi is not None:
            iso = procrustes_align(x, y, MongeMap(phi))
        best_val = math.inf
        best = (None, iso)
        trace = []
        done = False
        it = 0
        for it in range(1, max_alternations + 1):
            moved = iso.apply(x.points)
            cost = np.linalg.norm(moved[:, None, :] - y.points[None, :, :], axis=-1) ** p
            _, phi = linear_sum_assignment(cost)
            iso = procrustes_align(x, y, MongeMap(phi))
            res = np.linalg.norm(iso.apply(x.points) - y.points[phi], axis=1)
            val = math.fsum((res**p * x.weights).tolist()) ** (1.0 / p)
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
        if axis_starts and r <= 2 ** x.dim:
            flips = (r - 1) >> np.arange(x.dim) & 1
            rot = (vy * (1 - 2 * flips)) @ vx.T
        else:
            rot = euclidean._haar_orthogonal(x.dim, np.random.default_rng([seed, r]))
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
    yield random_cloud(9, 1, 67), random_cloud(9, 1, 68)
    # numpy's norm sums a last axis of 8 or more pairwise
    yield random_cloud(10, 8, 69), random_cloud(10, 8, 70)
    yield random_cloud(11, 9, 71), random_cloud(11, 9, 72)
    yield _planted_pair([73])[:2]


def _planted_pair(key):
    """Built like the cloud registration benchmark: a 100-point cloud, and a
    rigidly moved copy with noise 0.02 whose point perm[i] is point i."""
    x = random_cloud(100, 3, [*key, 0])
    perm = np.random.default_rng([*key, 2]).permutation(100)
    points = np.empty_like(x.points)
    points[perm] = (random_isometry(3, [*key, 1]).apply(x.points)
                    + 0.02 * np.random.default_rng([*key, 3]).standard_normal((100, 3)))
    return x, EuclideanCloud(points, x.weights), perm


@pytest.mark.parametrize("p", [1, 1.5, 2, 3])
def test_m_iso_restart_driver_matches_own_loop(p, monkeypatch):
    for x, y in _registration_pairs():
        for max_alternations in (1, 2, 3, 100):
            monkeypatch.setattr(euclidean, "_MAX_ALTERNATIONS", max_alternations)
            got = m_iso(x, y, p=p, restarts=6, seed=9)
            val, phi, iters, done, trace, iso = _m_iso_restarts_reference(
                x, y, p, 6, 9, max_alternations)
            assert float(got.value).hex() == float(val).hex()
            assert np.array_equal(got.witness.assignment, phi)
            assert got.iterations == iters
            assert got.converged == done
            assert got.trace == tuple(trace)
            assert got.transform.rotation.tobytes() == iso.rotation.tobytes()
            assert got.transform.translation.tobytes() == iso.translation.tobytes()


def test_m_iso_builds_one_isometry_and_checks_no_map(monkeypatch):
    calls = {"Isometry": 0, "MongeMap": 0, "apply": 0, "check": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(euclidean, "Isometry", counted("Isometry", Isometry))
    monkeypatch.setattr(euclidean, "MongeMap", counted("MongeMap", MongeMap))
    monkeypatch.setattr(Isometry, "apply", counted("apply", Isometry.apply))
    monkeypatch.setattr(euclidean, "check_measure_preserving",
                        counted("check", euclidean.check_measure_preserving))
    for x, y in _registration_pairs():
        calls.update(dict.fromkeys(calls, 0))
        m_iso(x, y, p=2, restarts=6, seed=9)
        assert calls == {"Isometry": 1, "MongeMap": 1, "apply": 0, "check": 0}


@pytest.mark.parametrize("k", range(8))
def test_m_iso_axis_starts_find_planted_match(k):
    x, y, perm = _planted_pair([73, k])
    got = m_iso(x, y, p=2, restarts=10, seed=k)
    assert np.array_equal(got.witness.assignment, perm)
    haar = _m_iso_restarts_reference(x, y, 2, 10, k, 100, axis_starts=False)
    assert got.value <= haar[0]
    # restart 0, the identity fit, is the same start in both loops
    one = m_iso(x, y, p=2, restarts=1, seed=k)
    val, phi, _, _, trace, _ = _m_iso_restarts_reference(x, y, 2, 1, k, 100, axis_starts=False)
    assert float(one.value).hex() == float(val).hex()
    assert np.array_equal(one.witness.assignment, phi)
    assert one.trace == tuple(trace)


def _recomputed_value(x, y, report, p):
    phi, iso = report.witness.assignment, report.transform
    lengths = np.linalg.norm(iso.apply(x.points) - y.points[phi], axis=1)
    return math.fsum((x.weights * lengths ** p).tolist()) ** (1.0 / p)


def _square_pair():
    # equal covariance eigenvalues: every pair of orthogonal axes is principal
    x = EuclideanCloud([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], [0.25] * 4)
    y = EuclideanCloud(random_isometry(2, 77).apply(x.points)[[2, 0, 3, 1]], x.weights)
    return x, y


@pytest.mark.parametrize("pair,restarts", [
    ((random_cloud(9, 1, 78), random_cloud(9, 1, 79)), 5),  # 2 sign patterns
    ((random_cloud(12, 9, 80), random_cloud(12, 9, 81)), 6),  # 512 patterns, 5 slots
    (_square_pair(), 10),
])
@pytest.mark.parametrize("p", [1, 2])
def test_m_iso_axis_starts_return_permutation_and_value(pair, restarts, p):
    x, y = pair
    got = m_iso(x, y, p=p, restarts=restarts, seed=3)
    assert np.array_equal(np.sort(got.witness.assignment), np.arange(x.n))
    assert got.value == pytest.approx(_recomputed_value(x, y, got, p), rel=1e-12, abs=1e-12)


def test_m_iso_cost_memory_is_bounded(monkeypatch):
    import tracemalloc

    n, dim = 300, 3
    x, y = random_cloud(n, dim, [74, 0]), random_cloud(n, dim, [74, 1])
    monkeypatch.setattr(euclidean, "_MAX_ALTERNATIONS", 1)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        m_iso(x, y, restarts=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # an (n, n, dim) difference tensor and its square took 2 * n^2 * dim * 8
    # bytes; one such temporary beside the (n, n) cost table would exceed this
    assert peak < n * n * dim * 8


@pytest.mark.parametrize("coord,p", [(1e308, 2), (1e200, 1), (1e200, 2)])
def test_m_iso_rejects_clouds_whose_cost_overflows(coord, p):
    big = EuclideanCloud([[0.0, 0.0], [1.0, 0.0], [0.0, coord]], [1 / 3] * 3)
    small = EuclideanCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [1 / 3] * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, y in ((big, small), (small, big), (big, big)):
            with pytest.raises(ValueError, match="registration cost overflows"):
                m_iso(x, y, p=p, restarts=3)


@pytest.mark.parametrize("p", [1, 2])
def test_m_iso_rejects_clouds_whose_fit_overflows(p):
    # coordinates near 1e205: the Procrustes cross-covariance is past float64
    # (the SVD would fail to converge) before any cost is built
    x, y = random_cloud(8, 3, 75), random_cloud(8, 3, 76)
    big_x = EuclideanCloud(x.points * 1e205, x.weights)
    big_y = EuclideanCloud(y.points * 1e205, y.weights)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="registration cost overflows"):
            m_iso(big_x, big_y, p=p, restarts=3)


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
