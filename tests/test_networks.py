import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gromon import (
    Coupling,
    MarginalError,
    MeasureNetwork,
    MongeMap,
    NotMeasurePreservingError,
    check_exponent,
    check_measure_preserving,
    coupling_from_map,
    distortion_map,
    distortion_p,
    one_point_network,
    parse_exponent,
    product_coupling,
    pullback_network,
    simplex_network,
    size_p,
    validate_network,
)
from gromon.euclidean import EuclideanCloud, Isometry
from gromon.networks import _BLOCK, _SMALL, _exact_sum, pseudometric_violation
from gromon.randgen import random_coupling, random_metric_network
from gromon.solvers import enumerate_monge_maps, gm_over_split

from conftest import networks, relabeled


def weak_iso_pair():
    net_x = MeasureNetwork([0.5, 0.25, 0.25],
                           [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    net_y = MeasureNetwork([0.25, 0.25, 0.5],
                           [[1, 1, 0], [1, 1, 0], [0, 0, 0]])
    return net_x, net_y


# -- construction and validation ---------------------------------------------

def test_weights_must_be_positive():
    with pytest.raises(ValueError, match="strictly positive"):
        MeasureNetwork([0.0, 1.0], np.zeros((2, 2)))


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        MeasureNetwork([0.6, 0.6], np.zeros((2, 2)))


def test_omega_shape_checked():
    with pytest.raises(ValueError, match="omega"):
        MeasureNetwork([0.5, 0.5], np.zeros((2, 3)))


@pytest.mark.parametrize("labels", [5, "ab", b"ab", {"a": 1, "b": 2}],
                         ids=["int", "str", "bytes", "dict"])
def test_labels_must_be_a_sequence(labels):
    with pytest.raises(TypeError, match="labels must be a list"):
        MeasureNetwork([0.5, 0.5], np.zeros((2, 2)), labels=labels)
    assert MeasureNetwork([0.5, 0.5], np.zeros((2, 2)), labels=["a", "b"]).labels == ("a", "b")


def test_network_is_immutable():
    net = simplex_network(3)
    with pytest.raises(ValueError):
        net.omega[0, 1] = 7.0


def test_coupling_marginals_checked():
    w = [0.5, 0.5]
    with pytest.raises(MarginalError):
        Coupling([[0.5, 0.0], [0.5, 0.0]], w, w)


def test_coupling_rejects_negative_entries():
    w = [0.5, 0.5]
    with pytest.raises(ValueError, match="nonnegative"):
        Coupling([[0.6, -0.1], [-0.1, 0.6]], w, w)


def test_exponent_validation():
    assert check_exponent(1) == 1.0
    assert math.isinf(check_exponent(math.inf))
    assert math.isinf(parse_exponent("inf"))
    assert parse_exponent("2.5") == 2.5
    with pytest.raises(ValueError):
        check_exponent(0.5)
    with pytest.raises(ValueError):
        parse_exponent("nan")


def test_validate_simplex_is_metric():
    flag = validate_network(simplex_network(3))
    assert flag.is_metric
    assert flag.max_violation == 0.0


def test_validate_triangle_failure_magnitude():
    # d(1,2)=5 but d(1,3)+d(3,2)=2: worst violation is 3
    om = [[0, 5, 1], [5, 0, 1], [1, 1, 0]]
    flag = validate_network(MeasureNetwork([1 / 3] * 3, om))
    assert not flag.is_metric
    assert flag.max_violation == pytest.approx(3.0, abs=1e-12)


def test_validate_rejects_asymmetric():
    om = [[0, 1, 2], [1, 0, 1], [1, 1, 0]]  # directed-graph style table
    assert not validate_network(MeasureNetwork([1 / 3] * 3, om)).is_metric


def test_validate_pseudometric_not_metric():
    om = [[0, 0], [0, 0]]
    flag = validate_network(MeasureNetwork([0.5, 0.5], om))
    assert not flag.is_metric
    assert flag.max_violation == 0.0


# -- distortion --------------------------------------------------------------

def test_distortion_point_vs_pair():
    pt, pair = one_point_network(), simplex_network(2)
    pi = product_coupling(pt, pair)
    for p in (1, 2):
        assert distortion_p(pt, pair, pi, p) == pytest.approx(2 ** (-1 / p), abs=1e-12)


def test_distortion_identity_coupling_zero():
    net = MeasureNetwork([0.25, 0.75], [[1.5, -2], [0.25, 3]])
    pi = Coupling(np.diag(net.weights), net.weights, net.weights)
    assert distortion_p(net, net, pi, 2) == 0.0
    assert distortion_p(net, net, pi, math.inf) == 0.0


@pytest.mark.parametrize("entry,p", [(10.0, 400), (1e200, 2)])
def test_distortion_exact_match_is_zero_where_far_terms_overflow(entry, p):
    # entry**p overflows, but only on pairs with a zero cell, whose terms are 0
    net = MeasureNetwork([0.5, 0.5], [[0, entry], [entry, 0]])
    pi = Coupling(np.diag(net.weights), net.weights, net.weights)
    assert distortion_p(net, net, pi, p) == 0.0


@pytest.mark.parametrize("p", [1, 2, 3])
def test_distortion_map_rejects_overflow(p):
    big = MeasureNetwork(np.full(3, 1 / 3), simplex_network(3).omega * 1.7e308)
    flipped = MeasureNetwork(big.weights, -big.omega)
    phi = MongeMap([0, 1, 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # each mismatch 3.4e308 is past float64 before any power is taken
        with pytest.raises(ValueError, match="distortion overflows"):
            distortion_map(big, flipped, phi, p)
        with pytest.raises(ValueError, match="distortion overflows"):
            distortion_map(big, flipped, phi, math.inf)
        if p > 1:
            small = MeasureNetwork(big.weights, simplex_network(3).omega * 1e200)
            with pytest.raises(ValueError, match="distortion overflows"):
                distortion_map(small, simplex_network(3), phi, p)


def test_distortion_weak_iso_coupling_is_zero():
    net_x, net_y = weak_iso_pair()
    pi = Coupling([[0.25, 0.25, 0], [0, 0, 0.25], [0, 0, 0.25]],
                  net_x.weights, net_y.weights)
    assert distortion_p(net_x, net_y, pi, 2) == pytest.approx(0.0, abs=1e-12)
    assert distortion_p(net_x, net_y, pi, 1) == pytest.approx(0.0, abs=1e-12)


def test_distortion_rejects_foreign_coupling():
    pt, pair = one_point_network(), simplex_network(2)
    pi = product_coupling(pt, pair)
    with pytest.raises(MarginalError):
        distortion_p(simplex_network(1), simplex_network(3), pi, 2)


def test_distortion_map_weak_iso_both_maps():
    net_x, net_y = weak_iso_pair()
    # the only measure-preserving maps send the heavy point to the heavy point
    for a in ([2, 0, 1], [2, 1, 0]):
        val = distortion_map(net_x, net_y, MongeMap(a), 2)
        assert val == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_distortion_map_identity_zero():
    net = MeasureNetwork([0.2, 0.3, 0.5], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert distortion_map(net, net, MongeMap([0, 1, 2]), 2) == 0.0


def test_distortion_map_two_to_one():
    phi = MongeMap([0, 0, 1, 1])
    val = distortion_map(simplex_network(4), simplex_network(2), phi, 1)
    assert val == pytest.approx(0.25, abs=1e-12)


def test_distortion_map_rejects_bad_assignment():
    with pytest.raises(NotMeasurePreservingError):
        distortion_map(simplex_network(3), simplex_network(2), MongeMap([0, 0, 1]), 1)


# -- induced couplings ---------------------------------------------------------

def test_coupling_from_identity_map():
    pi = coupling_from_map(MongeMap([0, 1]), [0.5, 0.5], [0.5, 0.5])
    assert np.array_equal(pi.table, np.diag([0.5, 0.5]))


def test_coupling_from_two_to_one_map():
    pi = coupling_from_map(MongeMap([0, 0, 1, 1]), [0.25] * 4, [0.5, 0.5])
    want = np.array([[0.25, 0], [0.25, 0], [0, 0.25], [0, 0.25]])
    assert np.array_equal(pi.table, want)


def test_coupling_from_weak_iso_map():
    net_x, net_y = weak_iso_pair()
    pi = coupling_from_map(MongeMap([2, 0, 1]), net_x.weights, net_y.weights)
    want = np.zeros((3, 3))
    want[0, 2], want[1, 0], want[2, 1] = 0.5, 0.25, 0.25
    assert np.array_equal(pi.table, want)


# -- size ----------------------------------------------------------------------

def test_size_examples():
    assert size_p(simplex_network(3), 1) == pytest.approx(2 / 3, abs=1e-12)
    assert size_p(one_point_network(), 2) == 0.0
    assert size_p(simplex_network(2), 2) == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert size_p(simplex_network(5), math.inf) == 1.0


# -- pullback --------------------------------------------------------------------

def test_pullback_identity():
    net = simplex_network(3)
    out = pullback_network(net, MongeMap([0, 1, 2]), net.weights)
    assert np.array_equal(out.omega, net.omega)


def test_pullback_to_point_is_zero():
    out = pullback_network(one_point_network(), MongeMap([0, 0]), [0.5, 0.5])
    assert np.array_equal(out.omega, np.zeros((2, 2)))


def test_pullback_product_support_blocks():
    # support of the product coupling of two 2-point spaces, first projection
    rho = MongeMap([0, 0, 1, 1])
    out = pullback_network(simplex_network(2), rho, [0.25] * 4)
    want = np.array([[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]],
                    dtype=float)
    assert np.array_equal(out.omega, want)


def test_pullback_requires_metric():
    bad = MeasureNetwork([0.5, 0.5], [[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="metric"):
        pullback_network(bad, MongeMap([0, 1]), [0.5, 0.5])


# -- properties -------------------------------------------------------------------

@settings(deadline=None, max_examples=60)
@given(networks(), networks(), st.randoms(use_true_random=False))
def test_distortion_relabeling_invariance(net_x, net_y, rnd):
    sx = np.array(rnd.sample(range(net_x.n), net_x.n), dtype=np.intp)
    sy = np.array(rnd.sample(range(net_y.n), net_y.n), dtype=np.intp)
    pi = product_coupling(net_x, net_y)
    pi_rel = Coupling(pi.table[np.ix_(sx, sy)], net_x.weights[sx], net_y.weights[sy])
    for p in (1, 2, math.inf):
        a = distortion_p(net_x, net_y, pi, p)
        b = distortion_p(relabeled(net_x, sx), relabeled(net_y, sy), pi_rel, p)
        assert abs(a - b) <= 1e-12


@settings(deadline=None, max_examples=60)
@given(networks(max_n=4), st.randoms(use_true_random=False))
def test_map_distortion_matches_induced_coupling(net, rnd):
    sigma = MongeMap(np.array(rnd.sample(range(net.n), net.n), dtype=np.intp))
    other = relabeled(net, np.argsort(sigma.assignment))
    pi = coupling_from_map(sigma, net.weights, other.weights)
    for p in (1, 2, math.inf):
        assert abs(distortion_map(net, other, sigma, p)
                   - distortion_p(net, other, pi, p)) <= 1e-12


@settings(deadline=None, max_examples=60)
@given(networks(), networks())
def test_distortion_monotone_in_p(net_x, net_y):
    pi = product_coupling(net_x, net_y)
    values = [distortion_p(net_x, net_y, pi, p) for p in (1, 1.5, 2, 3, math.inf)]
    for lo, hi in zip(values, values[1:]):
        assert lo <= hi + 1e-12


@settings(deadline=None, max_examples=60)
@given(networks())
def test_size_equals_distortion_to_point(net):
    phi = MongeMap(np.zeros(net.n, dtype=np.intp))
    for p in (1, 2, math.inf):
        assert abs(size_p(net, p)
                   - distortion_map(net, one_point_network(), phi, p)) <= 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_pullback_is_pseudometric(seed):
    from gromon.randgen import random_metric_network

    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    net = random_metric_network(n, seed)
    rho = MongeMap(rng.permutation(np.repeat(np.arange(n), 2)))
    out = pullback_network(net, rho, np.full(2 * n, 1.0 / (2 * n)))
    assert pseudometric_violation(out.omega) <= 1e-12


# -- exact chunked distortion kernel -----------------------------------------------

# lengths around both thresholds: the plain-fsum cutoff and the block length
EDGE_SIZES = (0, 1, 2, _SMALL - 1, _SMALL, _SMALL + 1,
              _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + _SMALL - 1)


def fsum_outcome(f, a):
    """Bits of the result, or the exception type, so nan and raises compare."""
    try:
        return float(f(a)).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def assert_sums_like_fsum(a):
    before = a.copy()
    assert fsum_outcome(_exact_sum, a) == fsum_outcome(lambda v: math.fsum(v.tolist()), a)
    assert np.array_equal(a, before, equal_nan=True)


@st.composite
def adversarial_arrays(draw):
    """Arrays of random length whose exponents span a drawn range, with signs,
    exact cancellations, zeros and non-finite entries mixed in on request."""
    size = draw(st.sampled_from(EDGE_SIZES) | st.integers(0, 3 * _BLOCK))
    lo = draw(st.integers(-1074, 1023))
    hi = draw(st.integers(lo, min(lo + 120, 1023)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.ldexp(rng.uniform(0.5, 1.0, size), rng.integers(lo, hi + 1, size))
    if draw(st.booleans()):
        a *= rng.choice([-1.0, 1.0], size)
    if draw(st.booleans()):
        a[rng.random(size) < 0.3] = 0.0
    if draw(st.booleans()) and size >= 2:
        half = size // 2
        a[half:2 * half] = -a[:half]
        rng.shuffle(a)
    if draw(st.booleans()) and size >= 1:
        a[rng.integers(size)] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    return a


@settings(deadline=None, max_examples=150)
@given(adversarial_arrays())
def test_exact_sum_equals_fsum(a):
    assert_sums_like_fsum(a)


def _adversarial_cases():
    rng = np.random.default_rng(5)
    big = 2.0 ** 958
    for size in EDGE_SIZES:
        x = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 301, size)
        yield x                                                  # 1e-300 .. 1e300
        yield np.concatenate([x, -x])                            # x, -x cancellation
        yield np.concatenate([x, [1.0], -x])                     # ... around a survivor
        yield np.full(size, 5e-324)                              # smallest subnormal
        yield np.where(rng.random(size) < 0.5, 1.0, 2.2e-308 * rng.random(size))
        yield np.full(size, big) * rng.choice([-1.0, 1.0], size)
    yield np.full(_BLOCK + 3, 1.7e308)                           # sum overflows
    yield np.array([1.7e308] * 2 + [-1.7e308] * 2 + [0.0] * (2 * _BLOCK))
    yield np.array([0.0] * _BLOCK + [1.7e308, 1.0, -1.7e308] + [1e-300] * _SMALL)
    yield np.array([1.0] * _BLOCK + [math.inf] + [-math.inf] + [2.0] * 5)
    yield np.array([1e300, 1.0, -1e300] * _SMALL)
    yield np.array([1.0, 1e100, 1.0, -1e100] * _BLOCK)
    yield np.array([-0.0] * (_BLOCK + 1))


@pytest.mark.parametrize("a", list(_adversarial_cases()))
def test_exact_sum_adversarial(a):
    assert_sums_like_fsum(a)


def test_exact_sum_of_block_iterable():
    rng = np.random.default_rng(3)
    blocks = [rng.standard_normal(s) * 1e-3 for s in (5, _BLOCK + 9, 0, _SMALL, 40)]
    want = math.fsum(np.concatenate(blocks).tolist())
    assert _exact_sum(lambda: iter(blocks)) == want
    assert _exact_sum(np.concatenate(blocks).reshape(-1, 1)) == want


# Reference copies of the full-tensor evaluators the kernel replaced: every
# term as one n*m*n*m (or n*n) array, summed by math.fsum over a list.

def ref_fsum(a):
    return math.fsum(np.asarray(a, dtype=float).ravel().tolist())


def ref_distortion_p(net_x, net_y, pi, p, eps_supp=1e-12):
    t = pi.table
    if math.isinf(p):
        rows, cols = np.nonzero(t > eps_supp)
        dx = net_x.omega[np.ix_(rows, rows)]
        dy = net_y.omega[np.ix_(cols, cols)]
        return float(np.abs(dx - dy).max())
    diff = np.abs(net_x.omega[:, None, :, None] - net_y.omega[None, :, None, :]) ** p
    terms = diff * t[:, :, None, None] * t[None, None, :, :]
    return ref_fsum(terms) ** (1.0 / p)


def ref_distortion_map(omx, omy, w, a, p):
    pulled = omy[np.ix_(a, a)]
    if math.isinf(p):
        return float(np.abs(omx - pulled).max())
    terms = np.abs(omx - pulled) ** p * np.outer(w, w)
    return ref_fsum(terms) ** (1.0 / p)


def ref_size_p(net, p):
    if math.isinf(p):
        return float(np.abs(net.omega).max())
    terms = np.abs(net.omega) ** p * np.outer(net.weights, net.weights)
    return ref_fsum(terms) ** (1.0 / p)


def ref_gm_over_split(net_x, net_y, pi, p, eps_supp=1e-12):
    rows, cols = np.nonzero(pi.table > eps_supp)
    mass = pi.table[rows, cols]
    mass = mass / ref_fsum(mass)
    return ref_distortion_map(net_x.omega[np.ix_(rows, rows)], net_y.omega, mass, cols, p)


EXPONENTS = (1, 1.5, 2, 3, math.inf)


def _rect_pairs():
    """Seeded rectangular pairs with non-uniform weights, one general and one
    metric table, at scales from 1e-3 to 1e3; the largest spans 21 blocks."""
    rng = np.random.default_rng(11)
    for k, (n, m) in enumerate(((1, 1), (1, 4), (3, 5), (7, 4), (12, 9), (26, 22))):
        cx, cy = rng.integers(1, 5, n), rng.integers(1, 5, m)
        x = MeasureNetwork(cx / cx.sum(), rng.standard_normal((n, n)) * 10.0 ** (k % 3 * 3 - 3))
        y = MeasureNetwork(cy / cy.sum(), random_metric_network(m, [11, k]).omega)
        yield x, y, random_coupling(x.weights, y.weights, [11, k])


@pytest.mark.parametrize("pair", list(_rect_pairs()), ids=lambda pair: f"{pair[0].n}x{pair[1].n}")
def test_coupling_evaluators_bit_identical_to_full_tensor(pair):
    x, y, pi = pair
    sparse = pi.table * (np.arange(pi.table.size).reshape(pi.shape) % 3 == 0)
    sparse /= sparse.sum()
    sparse_pi = None
    if np.all(sparse.sum(axis=1) > 0) and np.all(sparse.sum(axis=0) > 0):
        # a coupling with zero cells, between reweighted networks
        sx, sy = sparse.sum(axis=1), sparse.sum(axis=0)
        sparse_pi = (MeasureNetwork(sx, x.omega), MeasureNetwork(sy, y.omega),
                     Coupling(sparse, sx, sy))
    for p in EXPONENTS:
        assert distortion_p(x, y, pi, p) == ref_distortion_p(x, y, pi, p)
        assert gm_over_split(x, y, pi, p) == ref_gm_over_split(x, y, pi, p)
        assert size_p(x, p) == ref_size_p(x, p)
        assert size_p(y, p) == ref_size_p(y, p)
        if sparse_pi is not None:
            assert distortion_p(*sparse_pi, p) == ref_distortion_p(*sparse_pi, p)
            assert gm_over_split(*sparse_pi, p) == ref_gm_over_split(*sparse_pi, p)


def ref_terms(net_x, net_y, pi, p):
    """Every term of the reference sums, in the order they were summed."""
    t = pi.table
    diff = np.abs(net_x.omega[:, None, :, None] - net_y.omega[None, :, None, :]) ** p
    coupling = diff * t[:, :, None, None] * t[None, None, :, :]
    rows, cols = np.nonzero(t > 1e-12)
    mass = t[rows, cols] / ref_fsum(t[rows, cols])
    pulled = net_y.omega[np.ix_(cols, cols)]
    split = np.abs(net_x.omega[np.ix_(rows, rows)] - pulled) ** p * np.outer(mass, mass)
    w = net_x.weights
    size = np.abs(net_x.omega) ** p * np.outer(w, w)
    return coupling.ravel(), split.ravel(), size.ravel()


@pytest.mark.parametrize("pair", list(_rect_pairs())[2:], ids=lambda pair: f"{pair[0].n}x{pair[1].n}")
def test_kernel_forms_the_reference_terms(pair, monkeypatch):
    # the sums agree only if each term is the same float: compare the terms
    import gromon.networks as networks_module

    x, y, pi = pair
    seen = []

    def recording_sum(terms):
        seen.append(np.concatenate([b.ravel() for b in terms()]))
        return math.fsum(seen[-1].tolist())

    monkeypatch.setattr(networks_module, "_exact_sum", recording_sum)
    for p in (1, 1.5, 2, 3):
        seen.clear()
        distortion_p(x, y, pi, p)
        gm_over_split(x, y, pi, p)
        size_p(x, p)
        for got, want in zip(seen, ref_terms(x, y, pi, p), strict=True):
            assert got.tobytes() == want.tobytes()


def test_distortion_forms_terms_of_support_pairs_only(monkeypatch):
    # a transport vertex has at most n + m - 1 nonzero cells of n * m
    import gromon.networks as networks_module
    from gromon.solvers import _TransportBasis

    x, y = random_metric_network(13, [41, 0]), random_metric_network(11, [41, 1])
    cost = np.random.default_rng(41).normal(size=(13, 11))
    table = _TransportBasis(x.weights, y.weights, cost).solve(cost)
    pi = Coupling(table, x.weights, y.weights)
    support = np.count_nonzero(table)
    assert support <= 23
    formed = []

    def counting_sum(terms):
        blocks = [b.ravel() for b in terms()]
        formed.append(sum(b.size for b in blocks))
        return math.fsum(np.concatenate(blocks).tolist())

    for p in (1, 2, 3):
        want = ref_distortion_p(x, y, pi, p)
        with monkeypatch.context() as mp:
            mp.setattr(networks_module, "_exact_sum", counting_sum)
            assert distortion_p(x, y, pi, p) == want
    assert formed == [support**2] * 3


@pytest.mark.parametrize("n,m", [(1, 1), (6, 3), (12, 4), (30, 30), (130, 13)])
def test_distortion_map_bit_identical_to_full_tensor(n, m):
    # uniform weights so every fiber size n // m gives a measure-preserving map;
    # 130 points is 16 900 terms, more than one block
    rng = np.random.default_rng(n * 100 + m)
    x = MeasureNetwork(np.full(n, 1.0 / n), rng.random((n, n)) * 7.0)
    y = MeasureNetwork(np.full(m, 1.0 / m), random_metric_network(m, [12, n]).omega)
    phi = MongeMap(rng.permutation(np.arange(n) % m))
    for p in EXPONENTS:
        assert distortion_map(x, y, phi, p) == ref_distortion_map(
            x.omega, y.omega, x.weights, phi.assignment, p)


@pytest.mark.parametrize("p", [2, math.inf])
def test_distortion_memory_is_bounded(p):
    import tracemalloc

    n = 40
    x, y = random_metric_network(n, [13, 0]), random_metric_network(n, [13, 1])
    pi = random_coupling(x.weights, y.weights, [13, 2])   # full support
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        distortion_p(x, y, pi, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the n^2 m^2 = 2.56e6-term tensor alone would be 20 MB
    assert peak < 8 * 2**20


# -- certified sums: one extraction per piece, else math.fsum over every term ---

def _undecided_sums():
    """2 * _SMALL terms summing exactly to the tie 1 + 2**-53, and to just
    above it: one extraction leaves the rounding undecided in both."""
    tie = np.zeros(2 * _SMALL)
    tie[:2] = 1.0, 2.0 ** -53
    above = tie.copy()
    above[2] = 2.0 ** -200
    return [pytest.param(tie, 1.0, id="tie"),
            pytest.param(above, 1.0 + 2.0 ** -52, id="above-tie")]


# _exact_sum calls its terms callable once when one extraction per piece
# decides the rounding, and a second time when it falls back to math.fsum.

@pytest.mark.parametrize("halves", [False, True], ids=["array", "halves"])
@pytest.mark.parametrize("a,want", _undecided_sums())
def test_exact_sum_falls_back_when_undecided(a, want, halves):
    calls = []

    def terms():
        calls.append(None)
        return [a[:_SMALL], a[_SMALL:]] if halves else [a]

    assert _exact_sum(terms) == math.fsum(a.tolist()) == want
    assert len(calls) == 2


def test_distortion_sums_take_one_extraction(monkeypatch):
    # nonnegative terms over 21 blocks: the certified pass always decides
    import gromon.networks as networks_module

    exact_sum = networks_module._exact_sum
    calls = []

    def counting_sum(terms):
        calls.append(0)

        def formed():
            calls[-1] += 1
            return terms()

        return exact_sum(formed)

    monkeypatch.setattr(networks_module, "_exact_sum", counting_sum)
    x, y, pi = list(_rect_pairs())[-1]
    for p in (1, 1.5, 2, 3):
        distortion_p(x, y, pi, p)
        gm_over_split(x, y, pi, p)
    assert calls == [1] * 8


# -- numeric input fields ---------------------------------------------------------

BAD_NUMERIC = [
    pytest.param(["0.5", "0.5"], id="strings"),
    pytest.param([True, 0.0], id="bool"),
    pytest.param([None, 1.0], id="null"),
    pytest.param([b"1", 0.0], id="bytes"),
    pytest.param([{"a": 1}, 0.0], id="mapping"),
    pytest.param("12", id="string-field"),
    pytest.param(np.array([True, False]), id="bool-array"),
    pytest.param(np.array(["1", "0"]), id="string-array"),
]


@pytest.mark.parametrize("bad", BAD_NUMERIC)
def test_numeric_fields_reject_non_numbers(bad):
    # the bad value sits in a 1-d field and in a row of a 2-d field
    half, eye = [0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]]
    table = bad if isinstance(bad, str) else [bad, [0.0, 0.5]]
    cases = [
        lambda: MeasureNetwork(bad, eye),
        lambda: MeasureNetwork(half, table),
        lambda: Coupling(table, half, half),
        lambda: Coupling(np.diag(half), bad, half),
        lambda: EuclideanCloud(table, half),
        lambda: EuclideanCloud(eye, bad),
        lambda: Isometry(table, [0.0, 0.0]),
        lambda: Isometry(eye, bad),
    ]
    for make in cases:
        with pytest.raises(TypeError, match="number"):
            make()


def test_numeric_fields_accept_integer_arrays_and_lists():
    net = MeasureNetwork([0.5, 0.5], np.array([[0, 1], [1, 0]], dtype=np.int32))
    assert net.omega.dtype == float and net.omega[0, 1] == 1.0
    cloud = EuclideanCloud(np.arange(4, dtype=np.uint8).reshape(2, 2), (0.5, 0.5))
    assert cloud.points.tolist() == [[0.0, 1.0], [2.0, 3.0]]


@pytest.mark.parametrize("bad", BAD_NUMERIC)
def test_map_weight_arguments_reject_non_numbers(bad):
    half = [0.5, 0.5]
    cases = [
        lambda: check_measure_preserving(MongeMap([0, 1]), bad, half),
        lambda: check_measure_preserving(MongeMap([0, 1]), half, bad),
        lambda: coupling_from_map(MongeMap([0, 1]), bad, half),
        lambda: coupling_from_map(MongeMap([0, 1]), half, bad),
        lambda: pullback_network(simplex_network(2), MongeMap([0, 1]), bad),
        lambda: next(enumerate_monge_maps(bad, half)),
        lambda: random_coupling(half, bad, 0),
    ]
    for call in cases:
        with pytest.raises(TypeError, match="number"):
            call()


BAD_INTEGER = [
    pytest.param([0.7, 1.9, True], id="floats-and-bool"),
    pytest.param([0, 1.0], id="integral-float"),
    pytest.param([True, False], id="bools"),
    pytest.param(["0", "1"], id="strings"),
    pytest.param([0, None], id="null"),
    pytest.param([[0, np.float64(1.0)]], id="nested-float"),
    pytest.param("01", id="string-field"),
    pytest.param(range(2), id="range"),
    pytest.param(np.array([0.0, 1.0]), id="float-array"),
    pytest.param(np.array([True, False]), id="bool-array"),
]


@pytest.mark.parametrize("bad", BAD_INTEGER)
def test_monge_map_rejects_non_integers(bad):
    with pytest.raises(TypeError, match="integer"):
        MongeMap(bad)


def test_monge_map_accepts_integer_arrays_and_lists():
    for good in ([2, 0, np.int64(1)], (2, 0, 1), np.array([2, 0, 1], dtype=np.uint8),
                 np.array([2, 0, 1], dtype=np.intp)):
        phi = MongeMap(good)
        assert phi.assignment.dtype == np.intp and phi.assignment.tolist() == [2, 0, 1]
