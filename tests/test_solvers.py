import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from scipy.optimize import linear_sum_assignment, linprog

from gromon import (
    CapExceededError,
    Coupling,
    Graph,
    MeasureNetwork,
    MongeMap,
    NotSPDError,
    coupling_from_map,
    distortion_map,
    distortion_p,
    enumerate_monge_maps,
    gm_exact,
    gm_infinity,
    gm_over_split,
    gw_frank_wolfe,
    gw_spd_vertex_ascent,
    heat_kernel_network,
    mass_split_from_coupling,
    one_point_network,
    product_coupling,
    simplex_network,
)
from gromon import solvers
from gromon.randgen import (
    random_coupling,
    random_metric_network,
    random_spd_network,
    random_uniform_network,
)

from conftest import relabeled, uniform_network_pairs


def weak_iso_pair():
    net_x = MeasureNetwork([0.5, 0.25, 0.25],
                           [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    net_y = MeasureNetwork([0.25, 0.25, 0.5],
                           [[1, 1, 0], [1, 1, 0], [0, 0, 0]])
    return net_x, net_y


# -- enumeration ---------------------------------------------------------------

def test_enumerate_uniform_indivisible_is_empty():
    assert list(enumerate_monge_maps([1 / 3] * 3, [0.5, 0.5])) == []


def test_enumerate_uniform_square_gives_bijections():
    maps = [m.assignment.tolist() for m in enumerate_monge_maps([1 / 3] * 3, [1 / 3] * 3)]
    assert maps == [list(p) for p in itertools.permutations(range(3))]


def test_enumerate_weak_iso_weights_two_maps():
    maps = [m.assignment.tolist()
            for m in enumerate_monge_maps([0.5, 0.25, 0.25], [0.25, 0.25, 0.5])]
    assert maps == [[2, 0, 1], [2, 1, 0]]


def test_enumerate_float_weights_fall_back():
    # weights that are not small rationals still enumerate correctly; the two
    # equal-weight sources can swap targets
    w = np.array([0.3, 0.3, 0.4]) + 1e-13
    w = w / w.sum()
    maps = list(enumerate_monge_maps(w, w[[2, 0, 1]]))
    assert sorted(m.assignment.tolist() for m in maps) == [[1, 2, 0], [2, 1, 0]]


def test_enumerate_float_checks_every_fiber_at_the_end():
    # each point fits within tol when placed, but the last fiber misses its
    # target by 1.6e-9 > tol, so no map is measure preserving
    c = 0.5 + 1.25e-10
    assert list(enumerate_monge_maps([c + 0.9e-9, c - 1.6e-9], [c, c])) == []
    maps = enumerate_monge_maps([c + 0.9e-9, c - 1.6e-9], [c, c], tol_mass=2e-9)
    assert [m.assignment.tolist() for m in maps] == [[0, 1], [1, 0]]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=6),
       st.lists(st.integers(1, 4), min_size=1, max_size=4),
       st.sampled_from([1, 2, 3, solvers._BLOCK_MAPS]))
def test_assignment_blocks_match_brute_force(source_counts, target_counts, block):
    """Feasible or not, the blocks list exactly the maps whose fiber sums
    equal the targets in exact arithmetic, in lexicographic order."""
    n, m = len(source_counts), len(target_counts)
    ws = [Fraction(c, sum(source_counts)) for c in source_counts]
    wt = [Fraction(c, sum(target_counts)) for c in target_counts]
    expected = [list(phi) for phi in itertools.product(range(m), repeat=n)
                if all(sum(w for w, j in zip(ws, phi) if j == k) == wt[k] for k in range(m))]
    caps = solvers._capacities([float(w) for w in ws], [float(w) for w in wt], 1e-9)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_BLOCK_MAPS", block)
        blocks = list(solvers._assignment_blocks(*caps))
    assert all(b.dtype == np.intp and 1 <= len(b) <= block for b in blocks)
    assert [row.tolist() for b in blocks for row in b] == expected


def test_enumerate_exact_weights_beyond_int64():
    # three 3-cycles of weights a_i / (3 p_i p_{i+1}) over distinct primes:
    # each cycle sums to 1/3, so the common denominator is 3 times the
    # product of all nine primes, far beyond 2**63.  Each cycle's last
    # numerator rounds up as a float, so a comparison through floats would
    # find no room for it and miss every map.
    w = []
    for (p1, p2, p3), (a1, a2, a3) in (((503, 509, 521), (85343, 89755, 86011)),
                                       ((523, 541, 547), (94315, 99424, 94604)),
                                       ((557, 563, 569), (104531, 106783, 105643))):
        w += [Fraction(a2, 3 * p2 * p3), Fraction(a3, 3 * p3 * p1), Fraction(a1, 3 * p1 * p2)]
    assert sum(w) == 1
    source, target, tol = solvers._capacities([float(x) for x in w], [1 / 3] * 3, 1e-9)
    assert tol == 0 and sum(source) > 2**63 and sum(source) == sum(target)
    assert all(int(float(x)) > x for x in source[2::3])
    maps = [m.assignment.tolist()
            for m in enumerate_monge_maps([float(x) for x in w], [1 / 3] * 3)]
    assert maps == [[a] * 3 + [b] * 3 + [c] * 3
                    for a, b, c in itertools.permutations(range(3))]


# -- gm by enumeration -----------------------------------------------------------

def test_gm_simplex_family_value():
    assert gm_exact(simplex_network(4), simplex_network(2), 1).value == pytest.approx(
        0.25, abs=1e-12)


def test_gm_self_is_zero():
    net = random_metric_network(5, 3)
    report = gm_exact(net, net, 2)
    assert report.value == 0.0
    assert report.witness.assignment.tolist() == [0, 1, 2, 3, 4]


def test_gm_weak_iso_gap():
    net_x, net_y = weak_iso_pair()
    report = gm_exact(net_x, net_y, 2)
    assert report.iterations == 2
    assert report.value == pytest.approx(math.sqrt(0.5), abs=1e-12)
    # ... although a zero-distortion coupling exists
    pi = Coupling([[0.25, 0.25, 0], [0, 0, 0.25], [0, 0, 0.25]],
                  net_x.weights, net_y.weights)
    assert distortion_p(net_x, net_y, pi, 2) == pytest.approx(0.0, abs=1e-12)


def test_gm_infeasible_reports_infinity():
    report = gm_exact(one_point_network(), simplex_network(2), 2)
    assert math.isinf(report.value)
    assert report.witness is None


def test_gm_indivisible_uniform_is_infinite_without_enumeration(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated a pair that admits no map")

    monkeypatch.setattr(solvers, "_assignment_blocks", refuse)
    # near-uniform weights that are not small fractions count as uniform too
    near = np.full(7, 1 / 7) + np.array([3, -1, -1, -1, 1, -1, 0]) * 1e-12
    for x, y in ((simplex_network(23), simplex_network(2)),
                 (MeasureNetwork(near, np.zeros((7, 7))), simplex_network(2))):
        report = gm_exact(x, y, 2)
        assert math.isinf(report.value)
        assert report.witness is None
        assert report.iterations == 0


def test_gm_cap_exceeded():
    with pytest.raises(CapExceededError, match="too large"):
        gm_exact(simplex_network(8), simplex_network(8), 2, cap=100)
    with pytest.raises(CapExceededError, match="too large"):
        # non-uniform weights take the streaming path
        w = [2 / 6, 1 / 6, 1 / 6, 1 / 6, 1 / 6]
        gm_exact(MeasureNetwork(w, np.zeros((5, 5))),
                 MeasureNetwork(w, np.zeros((5, 5))), 1, cap=2)


@pytest.mark.parametrize("block", [1, 7])
def test_gm_unchanged_by_block_size(block, monkeypatch):
    rng = np.random.default_rng(3)
    decimal = np.round(np.array([2, 1, 1, 1, 1]) / 6, 10)
    shapes = [([1 / 5] * 5, [1 / 5] * 5), ([1 / 6] * 6, [2 / 6, 2 / 6, 1 / 6, 1 / 6]),
              (np.full(6, round(1 / 6, 10)), decimal), ([1 / 3] * 3, [0.5, 0.5])]
    cases = []
    for wx, wy in shapes:
        for ties in (False, True):
            ox = rng.uniform(0, 2, (len(wx), len(wx)))
            oy = rng.uniform(0, 2, (len(wy), len(wy)))
            if ties:
                ox, oy = np.round(ox), np.round(oy)
            cases.append((MeasureNetwork(wx, ox), MeasureNetwork(wy, oy)))

    def solve_all():
        out = []
        for x, y in cases:
            for p in (1, 2, math.inf):
                r = gm_exact(x, y, p)
                out.append((r.value, r.iterations,
                            None if r.witness is None else r.witness.assignment.tolist()))
        return out

    expected = solve_all()
    monkeypatch.setattr(solvers, "_BLOCK_MAPS", block)
    assert solve_all() == expected


def test_gm_report_value_matches_witness():
    net_x = random_uniform_network(4, 10)
    net_y = random_uniform_network(4, 11)
    report = gm_exact(net_x, net_y, 2)
    assert report.value == pytest.approx(
        distortion_map(net_x, net_y, report.witness, 2), abs=1e-10)


def test_gm_infinity_values():
    for n in (2, 4, 7):
        assert gm_infinity(simplex_network(n), one_point_network()).value == 1.0
    net = random_metric_network(4, 9)
    assert gm_infinity(net, net).value == 0.0
    assert gm_infinity(*weak_iso_pair()).value == 1.0


# -- Frank-Wolfe ------------------------------------------------------------------

def test_fw_point_vs_pair():
    report = gw_frank_wolfe(one_point_network(), simplex_network(2))
    assert report.value == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert report.converged


def test_fw_self_with_diagonal_init():
    net = random_metric_network(5, 7)
    init = Coupling(np.diag(net.weights), net.weights, net.weights)
    report = gw_frank_wolfe(net, net, init=init)
    assert report.value == 0.0
    assert report.iterations == 0


def test_fw_weak_iso_coupling_certifies_zero():
    net_x, net_y = weak_iso_pair()
    pi = Coupling([[0.25, 0.25, 0], [0, 0, 0.25], [0, 0, 0.25]],
                  net_x.weights, net_y.weights)
    report = gw_frank_wolfe(net_x, net_y, init=pi)
    assert report.value == pytest.approx(0.0, abs=1e-12)


def test_fw_trace_monotone_nonincreasing():
    for seed in range(6):
        net_x = random_uniform_network(5, [20, seed, 0])
        net_y = random_uniform_network(5, [20, seed, 1])
        report = gw_frank_wolfe(net_x, net_y)
        for before, after in zip(report.trace, report.trace[1:]):
            assert after <= before + 1e-10


def test_fw_general_marginals_oracle():
    # non-uniform, non-square: exercises the transportation simplex oracle
    net_x, net_y = weak_iso_pair()
    net_y2 = MeasureNetwork([0.5, 0.5], [[0, 1], [1, 0]])
    report = gw_frank_wolfe(net_x, net_y2, max_iters=50)
    assert report.value <= distortion_p(net_x, net_y2,
                                        product_coupling(net_x, net_y2), 2) + 1e-12


def transport_lp(cost, wx, wy):
    """Optimal value of the transport problem, by HiGHS as an independent
    reference."""
    n, m = cost.shape
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m:(i + 1) * m] = 1.0
        a_eq[n + np.arange(m), i * m + np.arange(m)] = 1.0
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([wx, wy]),
                  bounds=(0, None), method="highs")
    assert res.success
    return res.fun


def transport_case(shape, seed):
    """Seeded marginals and cost of the given shape.  Odd seeds give
    small-integer costs and integer-count weights over one common total,
    whose partial sums often coincide, so that bases are degenerate."""
    rng = np.random.default_rng([31, seed])
    n, m = shape
    if seed % 2:
        total = 2 * max(n, m)
        wx, wy = (np.diff([0, *np.sort(rng.choice(np.arange(1, total), k - 1, replace=False)),
                           total]).astype(float) for k in shape)
        cost = rng.integers(0, 4, (n, m)).astype(float)
    else:
        wx, wy = rng.random(n) + 0.1, rng.random(m) + 0.1
        cost = rng.normal(size=(n, m))
    return cost, wx / wx.sum(), wy / wy.sum()


def support_is_forest(vertex):
    # union-find over rows and columns: a support cell joining two nodes
    # already connected would close a cycle
    n, m = vertex.shape
    parent = list(range(n + m))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i, j in zip(*np.nonzero(vertex)):
        a, b = find(i), find(n + j)
        if a == b:
            return False
        parent[a] = b
    return True


TRANSPORT_SHAPES = [(1, 1), (1, 6), (5, 1), (3, 7), (26, 22)]


@pytest.mark.parametrize("shape", TRANSPORT_SHAPES)
@pytest.mark.parametrize("seed", range(6))
def test_transport_simplex_is_optimal_vertex(shape, seed):
    cost, wx, wy = transport_case(shape, seed)
    vertex = solvers._TransportBasis(wx, wy).solve(cost)
    scale = float(np.abs(cost).max())
    assert float((vertex * cost).sum()) <= transport_lp(cost, wx, wy) + 1e-12 * scale
    assert vertex.min() >= 0.0
    assert np.abs(vertex.sum(axis=1) - wx).max() <= 1e-15
    assert np.abs(vertex.sum(axis=0) - wy).max() <= 1e-15
    assert np.count_nonzero(vertex) <= sum(shape) - 1
    assert support_is_forest(vertex)


@pytest.mark.parametrize("shape", TRANSPORT_SHAPES)
@pytest.mark.parametrize("seed", range(4))
def test_transport_simplex_warm_start_matches_cold(shape, seed):
    _, wx, wy = transport_case(shape, seed)
    basis = solvers._TransportBasis(wx, wy)
    for k in range(6):
        cost = transport_case(shape, seed + 2 * k)[0]
        warm = basis.solve(cost)
        cold = solvers._TransportBasis(wx, wy).solve(cost)
        scale = float(np.abs(cost).max())
        assert float((warm * cost).sum()) == pytest.approx(float((cold * cost).sum()),
                                                           abs=1e-12 * scale)
        # the lexicographic rule keeps every basic flow positive
        assert min(basis.flow) > 0


def test_transport_basis_starts_as_full_tree():
    # n + m - 1 cells even where the north-west corner walk meets ties
    wx = np.full(4, 0.25)
    wy = np.array([0.25, 0.25, 0.5])
    basis = solvers._TransportBasis(wx, wy)
    assert len(basis.rows) == 6
    assert len(set(zip(basis.rows, basis.cols))) == 6
    assert min(basis.flow) > 0


def test_transport_simplex_pivot_cap(monkeypatch):
    cost, wx, wy = transport_case((26, 22), 0)
    monkeypatch.setattr(solvers, "_PIVOTS_PER_CELL", 0)
    with pytest.raises(RuntimeError, match="after 0 pivots"):
        solvers._TransportBasis(wx, wy).solve(cost)


def test_fw_rejects_bad_arguments():
    net = simplex_network(3)
    with pytest.raises(ValueError, match="max_iters"):
        gw_frank_wolfe(net, net, max_iters=-3)
    for tol in (math.nan, -1e-12):
        with pytest.raises(ValueError, match="tol_fw"):
            gw_frank_wolfe(net, net, tol_fw=tol)
    report = gw_frank_wolfe(net, net, max_iters=0)
    assert report.iterations == 0
    assert len(report.trace) == 1


@pytest.mark.parametrize("seed", range(10))
def test_gw_below_gm_from_witness_init(seed):
    n = 3 + (seed % 3)
    net_x = random_metric_network(n, [21, seed, 0])
    net_y = random_metric_network(n, [21, seed, 1])
    gm = gm_exact(net_x, net_y, 2)
    init = coupling_from_map(gm.witness, net_x.weights, net_y.weights)
    fw = gw_frank_wolfe(net_x, net_y, init=init)
    assert fw.value <= gm.value + 1e-8


# -- vertex ascent ------------------------------------------------------------------

def test_ascent_identical_inputs_zero():
    net = random_spd_network(6, 4)
    report = gw_spd_vertex_ascent(net, net, restarts=5, seed=0)
    assert report.value == 0.0
    assert report.method == "vertex_ascent"


def test_ascent_relabeled_inputs_zero():
    net = random_spd_network(7, 5)
    sigma = np.random.default_rng(1).permutation(7)
    report = gw_spd_vertex_ascent(net, relabeled(net, sigma), restarts=20, seed=0)
    assert report.value <= 1e-10
    # witness must realize the relabeling up to symmetries of omega
    assert distortion_map(net, relabeled(net, sigma), report.witness, 2) <= 1e-10


@pytest.mark.parametrize("n", [3, 4, 5])
def test_ascent_matches_brute_force(n):
    for k in range(6):
        net_x = random_spd_network(n, [30, n, k, 0])
        net_y = random_spd_network(n, [30, n, k, 1])
        best = min(
            distortion_map(net_x, net_y, MongeMap(np.array(p)), 2)
            for p in itertools.permutations(range(n))
        )
        report = gw_spd_vertex_ascent(net_x, net_y, restarts=20, seed=k)
        assert report.value == pytest.approx(best, abs=1e-8)


def test_ascent_beats_random_couplings():
    net_x = random_spd_network(5, [31, 0])
    net_y = random_spd_network(5, [31, 1])
    report = gw_spd_vertex_ascent(net_x, net_y, restarts=20, seed=0)
    for k in range(50):
        pi = random_coupling(net_x.weights, net_y.weights, [31, 2, k])
        assert report.value <= distortion_p(net_x, net_y, pi, 2) + 1e-9


def test_ascent_rejects_non_spd():
    bad = MeasureNetwork([0.5, 0.5], [[0, 1], [1, 0]])  # indefinite
    with pytest.raises(NotSPDError):
        gw_spd_vertex_ascent(bad, bad)


def test_ascent_rejects_nonuniform():
    om = np.eye(2) * 2.0
    a = MeasureNetwork([0.25, 0.75], om)
    b = MeasureNetwork([0.5, 0.5], om)
    with pytest.raises(ValueError, match="uniform"):
        gw_spd_vertex_ascent(a, b)


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 24])
def test_swap_gains_match_brute_force(n, symmetric):
    rng = np.random.default_rng([33, n, int(symmetric)])
    omx = rng.normal(size=(n, n))
    c = rng.normal(size=(n, n)) * 3.0
    if symmetric:
        omx, c = omx + omx.T, c + c.T
    gains = solvers._swap_gains(omx, c)
    base = float((omx * c).sum())
    brute = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            tau = np.arange(n)
            tau[a], tau[b] = b, a
            brute[a, b] = float((omx * c[np.ix_(tau, tau)]).sum()) - base
    scale = n * float(np.abs(omx).max() * np.abs(c).max())
    assert np.abs(gains - brute).max() <= 1e-12 * scale


def _ascend_reference(omx, omy, sigma):
    """The ascent with every transposition scored by a full recomputation."""
    n = sigma.size
    val = solvers._qap_value(omx, omy, sigma)
    moves = 0
    while True:
        improved = False
        while True:
            grad = omx @ omy[:, sigma].T + omx.T @ omy[sigma, :]
            _, cols = linear_sum_assignment(grad, maximize=True)
            new_val = solvers._qap_value(omx, omy, cols)
            if new_val > val + solvers.MOVE_TOL:
                sigma, val = cols.astype(np.intp), new_val
                moves += 1
                improved = True
            else:
                break
        best_val, best_sigma = val, None
        for a in range(n - 1):
            for b in range(a + 1, n):
                cand = sigma.copy()
                cand[a], cand[b] = cand[b], cand[a]
                cand_val = solvers._qap_value(omx, omy, cand)
                if cand_val > best_val + solvers.MOVE_TOL:
                    best_val, best_sigma = cand_val, cand
        if best_sigma is not None:
            sigma, val = best_sigma, best_val
            moves += 1
            improved = True
        if not improved:
            return sigma, val, moves


def _tie_heavy_pairs():
    def cycle(n):
        return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))

    def star(n):
        return Graph(n, tuple((0, i) for i in range(1, n)))

    def complete(n):
        return Graph(n, tuple(itertools.combinations(range(n), 2)))

    for make in (cycle, star, complete):
        for n in (5, 8, 12):
            x = heat_kernel_network(make(n), 1.0)
            sigma = np.random.default_rng([34, n]).permutation(n)
            yield x, relabeled(x, sigma)
            yield x, heat_kernel_network(make(n), 2.0)


def _spd_pairs():
    for n in (4, 9, 16):
        for k in range(3):
            yield random_spd_network(n, [35, n, k, 0]), random_spd_network(n, [35, n, k, 1])


@pytest.mark.filterwarnings("ignore:.*near-singular")
@pytest.mark.parametrize("pairs", [_spd_pairs, _tie_heavy_pairs])
def test_ascent_scan_matches_full_rescoring(pairs, monkeypatch):
    cases = list(pairs())
    fast = [gw_spd_vertex_ascent(x, y, restarts=4, seed=5) for x, y in cases]
    monkeypatch.setattr(solvers, "_ascend", _ascend_reference)
    for (x, y), got in zip(cases, fast):
        want = gw_spd_vertex_ascent(x, y, restarts=4, seed=5)
        assert got.value == want.value
        assert got.iterations == want.iterations
        assert np.array_equal(got.witness.assignment, want.witness.assignment)


def _ascent_restarts_reference(x, y, restarts, seed):
    """Value, total moves and witness of vertex ascent's own restart loop,
    as it was before the shared restart driver."""
    n = x.n
    results = []
    for r in range(restarts):
        if r == 0:
            sigma0 = np.arange(n, dtype=np.intp)
        else:
            sigma0 = np.random.default_rng([seed, r]).permutation(n).astype(np.intp)
        sigma, val, moves = solvers._ascend(x.omega, y.omega, sigma0)
        results.append((val, r, sigma, moves))
    _, _, sigma, _ = max(results, key=lambda t: (t[0], -t[1]))
    witness = MongeMap(sigma)
    return distortion_map(x, y, witness, 2.0), sum(t[3] for t in results), witness


@pytest.mark.filterwarnings("ignore:.*near-singular")
@pytest.mark.parametrize("pairs", [_spd_pairs, _tie_heavy_pairs])
def test_ascent_restart_driver_matches_own_loop(pairs):
    for x, y in pairs():
        got = gw_spd_vertex_ascent(x, y, restarts=6, seed=7)
        value, moves, witness = _ascent_restarts_reference(x, y, 6, 7)
        assert float(got.value).hex() == float(value).hex()
        assert got.iterations == moves
        assert got.converged
        assert np.array_equal(got.witness.assignment, witness.assignment)


def test_ascent_ties_go_to_restart_zero(monkeypatch):
    # every start ends where it began, with the same value: restart 0 wins
    monkeypatch.setattr(solvers, "_ascend", lambda omx, omy, sigma: (sigma, 1.0, 1))
    x, y = random_spd_network(6, [36, 0]), random_spd_network(6, [36, 1])
    report = gw_spd_vertex_ascent(x, y, restarts=5, seed=3)
    assert np.array_equal(report.witness.assignment, np.arange(6))
    assert report.iterations == 5


# -- mass splitting -------------------------------------------------------------------

def test_split_point_vs_pair():
    pt, pair = one_point_network(), simplex_network(2)
    pi = product_coupling(pt, pair)
    split = mass_split_from_coupling(pt, pair, pi)
    assert split.Z.n == 2
    assert np.array_equal(split.Z.omega, np.zeros((2, 2)))
    assert np.array_equal(split.Z.weights, [0.5, 0.5])
    for p in (1, 2):
        assert gm_over_split(pt, pair, pi, p) == pytest.approx(2 ** (-1 / p), abs=1e-12)


def test_split_diagonal_coupling_recovers_network():
    net = random_metric_network(5, 12)
    pi = Coupling(np.diag(net.weights), net.weights, net.weights)
    split = mass_split_from_coupling(net, net, pi)
    assert np.array_equal(split.Z.omega, net.omega)
    assert distortion_map(split.Z, net, split.phi, 2) == 0.0


def test_split_weak_iso_zero_coupling():
    net_x, net_y = weak_iso_pair()
    pi = Coupling([[0.25, 0.25, 0], [0, 0, 0.25], [0, 0, 0.25]],
                  net_x.weights, net_y.weights)
    split = mass_split_from_coupling(net_x, net_y, pi)
    assert split.Z.n == 4
    for p in (1, 2, math.inf):
        assert distortion_map(split.Z, net_y, split.phi, p) == pytest.approx(
            0.0, abs=1e-12)


def test_split_pseudometric_output_for_metric_source():
    from gromon.networks import pseudometric_violation

    net = random_metric_network(5, 13)
    pi = random_coupling(net.weights, net.weights, 14)
    split = mass_split_from_coupling(net, net, pi)
    assert pseudometric_violation(split.Z.omega) <= 1e-12


@pytest.mark.parametrize("seed", range(12))
def test_split_distortion_identity(seed):
    rng = np.random.default_rng(seed)
    n, m = rng.integers(2, 7, size=2)
    net_x = random_metric_network(int(n), [40, seed, 0])
    net_y = random_metric_network(int(m), [40, seed, 1])
    pi = random_coupling(net_x.weights, net_y.weights, [40, seed, 2])
    for p in (1, 2, math.inf):
        assert gm_over_split(net_x, net_y, pi, p) == pytest.approx(
            distortion_p(net_x, net_y, pi, p), abs=1e-10)


# -- metric structure -------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_gm_triangle_inequality(seed):
    n = 3 + (seed % 3)
    nets = [random_metric_network(n, [50, seed, s]) for s in range(3)]
    for p in (1, 2):
        d_xz = gm_exact(nets[0], nets[2], p).value
        d_xy = gm_exact(nets[0], nets[1], p).value
        d_yz = gm_exact(nets[1], nets[2], p).value
        assert d_xz <= d_xy + d_yz + 1e-9


@settings(deadline=None, max_examples=25)
@given(uniform_network_pairs(max_n=4))
def test_gm_relabeling_symmetry(pair):
    net_x, net_y = pair
    n = net_x.n
    sx = np.roll(np.arange(n), 1)
    sy = np.arange(n)[::-1].copy()
    a = gm_exact(net_x, net_y, 2).value
    b = gm_exact(relabeled(net_x, sx), relabeled(net_y, sy), 2).value
    assert abs(a - b) <= 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_solver_relabeling_symmetry(seed):
    # continuous tables keep the assignment oracles tie-free, so the whole
    # solver trajectory is relabel-equivariant
    n = 4 + (seed % 2)
    net_x = random_uniform_network(n, [55, seed, 0])
    net_y = random_uniform_network(n, [55, seed, 1])
    rng = np.random.default_rng([55, seed, 2])
    sx, sy = rng.permutation(n), rng.permutation(n)
    a = gw_frank_wolfe(net_x, net_y).value
    b = gw_frank_wolfe(relabeled(net_x, sx), relabeled(net_y, sy)).value
    assert abs(a - b) <= 1e-10
    spd_x = random_spd_network(n, [55, seed, 3])
    spd_y = random_spd_network(n, [55, seed, 4])
    c = gw_spd_vertex_ascent(spd_x, spd_y, restarts=20, seed=0).value
    d = gw_spd_vertex_ascent(relabeled(spd_x, sx), relabeled(spd_y, sy),
                             restarts=20, seed=0).value
    assert abs(c - d) <= 1e-10
