import itertools
import math
import sys
import threading
import warnings
from collections import OrderedDict
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
    NotMeasurePreservingError,
    NotSPDError,
    check_measure_preserving,
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

from conftest import near_equal_small_pair, relabeled, skewed_pair, uniform_network_pairs


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
    # weights within rounding of, but not at, small rationals enumerate like
    # them; the two equal-weight sources can swap targets
    w = np.array([0.3, 0.3, 0.4]) + 1e-13
    w = w / w.sum()
    maps = list(enumerate_monge_maps(w, w[[2, 0, 1]]))
    assert sorted(m.assignment.tolist() for m in maps) == [[1, 2, 0], [2, 1, 0]]


def test_enumerate_float_checks_every_fiber_at_the_end():
    # each point fits within TOL_MASS when placed, but the last fiber misses
    # its target by 1.6e-9 > TOL_MASS, so no map is measure preserving
    c = 0.5 + 1.25e-10
    assert list(enumerate_monge_maps([c + 0.9e-9, c - 1.6e-9], [c, c])) == []
    # a last fiber off by 0.6e-9 < TOL_MASS passes
    maps = enumerate_monge_maps([c + 0.4e-9, c - 0.6e-9], [c, c])
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
    source, target = np.array(ws, dtype=float), np.array(wt, dtype=float)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_BLOCK_MAPS", block)
        blocks = list(solvers._assignment_blocks(source, target))
    assert all(b.dtype == np.intp and 1 <= len(b) <= block for b in blocks)
    assert [row.tolist() for b in blocks for row in b] == expected


def test_enumerate_exact_weights_beyond_int64():
    # three 3-cycles of weights a_i / (3 p_i p_{i+1}) over distinct primes:
    # each cycle sums to 1/3, so the common denominator is 3 times the
    # product of all nine primes, far beyond 2**63.  Their floats fill each
    # 1/3 only within rounding, which the mass tolerance absorbs.
    w = []
    for (p1, p2, p3), (a1, a2, a3) in (((503, 509, 521), (85343, 89755, 86011)),
                                       ((523, 541, 547), (94315, 99424, 94604)),
                                       ((557, 563, 569), (104531, 106783, 105643))):
        w += [Fraction(a2, 3 * p2 * p3), Fraction(a3, 3 * p3 * p1), Fraction(a1, 3 * p1 * p2)]
    assert sum(w) == 1
    maps = [m.assignment.tolist()
            for m in enumerate_monge_maps([float(x) for x in w], [1 / 3] * 3)]
    assert maps == [[a] * 3 + [b] * 3 + [c] * 3
                    for a, b, c in itertools.permutations(range(3))]


@st.composite
def perturbed_counts(draw, max_size):
    """Count weights c_i / sum(c) moved by k_i * 3e-10 with |sum(k)| <= 3,
    so they sum to 1 within 9e-10.  A fiber sum then misses its target by
    a multiple of 3e-10 or by at least 1/384, never within 1e-10 of the
    tolerance 1e-9."""
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=max_size))
    shifts = draw(st.lists(st.integers(-2, 2), min_size=len(counts), max_size=len(counts))
                  .filter(lambda k: abs(sum(k)) <= 3))
    return np.array(counts) / sum(counts) + np.array(shifts) * 3e-10


@settings(max_examples=150, deadline=None)
@given(perturbed_counts(6), perturbed_counts(4))
def test_enumerate_is_the_measure_preserving_rule(ws, wt):
    """The enumerator lists exactly the maps that ``check_measure_preserving``
    accepts, in lexicographic order."""
    def accepted(phi):
        try:
            check_measure_preserving(MongeMap(phi), ws, wt)
        except NotMeasurePreservingError:
            return False
        return True

    expected = [list(phi) for phi in itertools.product(range(wt.size), repeat=ws.size)
                if accepted(phi)]
    assert [m.assignment.tolist() for m in enumerate_monge_maps(ws, wt)] == expected


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


@pytest.mark.parametrize("cap", [0, -5])
def test_gm_rejects_non_positive_cap(cap):
    for w in ([0.5, 0.5], [0.25, 0.75]):  # the uniform count and the streaming scan
        net = MeasureNetwork(w, np.zeros((2, 2)))
        with pytest.raises(ValueError, match=f"cap must be >= 1, got {cap}"):
            gm_exact(net, net, 2, cap=cap)


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
    # _BLOCK_MAPS is part of the replay key: the second solve enumerates each
    # of the three pairs that admit maps afresh, in blocks of the new size
    monkeypatch.setattr(solvers, "_replay", OrderedDict())
    cold, enumerate_blocks = [], solvers._assignment_blocks

    def counted(source, target):
        cold.append((source.tolist(), target.tolist()))
        return enumerate_blocks(source, target)

    monkeypatch.setattr(solvers, "_assignment_blocks", counted)
    monkeypatch.setattr(solvers, "_BLOCK_MAPS", block)
    assert solve_all() == expected
    assert len(cold) == 3
    assert all(len(b) <= block for blocks in solvers._replay.values() for b in blocks)


# (source weights, target weights) of the gm_enum benchmark shapes: uniform
# 7-7, rational 7-5 and the same kind of weights as 10-digit decimals, 7-6
REPLAY_SHAPES = (
    (np.full(7, 1 / 7), np.full(7, 1 / 7)),
    (np.full(7, 1 / 7), np.array([2, 2, 1, 1, 1]) / 7),
    (np.full(7, round(1 / 7, 10)), np.round(np.array([2, 1, 1, 1, 1, 1]) / 7, 10)),
)


def replay_pair(shape, seed):
    wx, wy = REPLAY_SHAPES[shape]
    return (MeasureNetwork(wx, random_metric_network(wx.size, [seed, 0]).omega),
            MeasureNetwork(wy, random_metric_network(wy.size, [seed, 1]).omega))


def report_bits(report):
    return report.value.hex(), report.witness.assignment.tolist(), report.iterations


def refuse_enumeration(*args):
    raise AssertionError("enumerated a pair whose maps were stored")


@pytest.mark.parametrize("p", [1, 1.5, 2, 3, math.inf])
@pytest.mark.parametrize("shape", range(3))
def test_gm_replay_matches_cold_enumeration(shape, p, monkeypatch):
    monkeypatch.setattr(solvers, "_replay", OrderedDict())
    x, y = replay_pair(shape, 50 + shape)
    cold = gm_exact(x, y, p)
    assert len(solvers._replay) == 1
    # the same pair and other tables on the same weights replay the stored maps
    x2, y2 = replay_pair(shape, 60 + shape)
    with monkeypatch.context() as mp:
        mp.setattr(solvers, "_assignment_blocks", refuse_enumeration)
        replayed = [gm_exact(x, y, p), gm_exact(x2, y2, p)]
    monkeypatch.setattr(solvers, "_replay", OrderedDict())
    assert report_bits(replayed[0]) == report_bits(cold)
    assert report_bits(replayed[1]) == report_bits(gm_exact(x2, y2, p))


def test_cap_exceeded_on_replay_and_never_stored(monkeypatch):
    monkeypatch.setattr(solvers, "_replay", OrderedDict())
    x, y = replay_pair(1, 70)
    with pytest.raises(CapExceededError) as cold:
        gm_exact(x, y, 2, cap=100)
    assert not solvers._replay  # a stream stopped by the cap is not stored
    gm_exact(x, y, 2)
    assert len(solvers._replay) == 1
    monkeypatch.setattr(solvers, "_assignment_blocks", refuse_enumeration)
    with pytest.raises(CapExceededError) as replayed:
        gm_exact(x, y, 2, cap=100)
    assert str(replayed.value) == str(cold.value)
    assert gm_exact(x, y, 2, cap=1260).iterations == 1260  # exactly at the cap


def test_replay_stores_only_whole_streams_within_budget(monkeypatch):
    monkeypatch.setattr(solvers, "_replay", OrderedDict())
    w, half = np.full(6, 1 / 6), np.full(3, 1 / 3)  # 90 maps of 6 entries
    assert next(enumerate_monge_maps(w, half)).assignment.tolist() == [0, 0, 1, 1, 2, 2]
    assert not solvers._replay  # a caller stopped after one map
    monkeypatch.setattr(solvers, "_REPLAY_ENTRIES", 90 * 6 - 1)
    assert len(list(enumerate_monge_maps(w, half))) == 90
    assert not solvers._replay  # one entry over the budget
    monkeypatch.setattr(solvers, "_REPLAY_ENTRIES", 90 * 6)
    maps = [m.assignment.tolist() for m in enumerate_monge_maps(w, half)]
    blocks = solvers._replay[w.tobytes(), half.tobytes(), solvers._BLOCK_MAPS]
    assert [row.tolist() for b in blocks for row in b] == maps
    for b in blocks:
        assert not b.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            b[0, 0] = 1


def test_replay_evicts_least_recently_used(monkeypatch):
    monkeypatch.setattr(solvers, "_replay", OrderedDict())
    monkeypatch.setattr(solvers, "_REPLAY_PAIRS", 2)
    monkeypatch.setattr(solvers, "_REPLAY_ENTRIES", 20)
    # maps x entries: 2 x 2, 6 x 3, 1 x 1 and 1 x 2
    pairs = [(np.full(n, 1 / n), np.full(n, 1 / n)) for n in (2, 3, 1)]
    pairs.append((np.array([0.25, 0.75]), np.array([0.75, 0.25])))

    def enumerate_pair(i):
        list(enumerate_monge_maps(*pairs[i]))
        return [next(i for i, (s, t) in enumerate(pairs)
                     if (s.tobytes(), t.tobytes()) == key[:2]) for key in solvers._replay]

    assert enumerate_pair(0) == [0]
    assert enumerate_pair(1) == [1]  # 22 entries: over the budget together
    assert enumerate_pair(0) == [0]
    assert enumerate_pair(2) == [0, 2]
    assert enumerate_pair(3) == [2, 3]  # one pair too many
    assert enumerate_pair(2) == [3, 2]  # replayed: now the most recent


def test_replay_store_shared_by_threads(monkeypatch):
    """Threads that replay and evict the same few pairs all see every map."""
    monkeypatch.setattr(solvers, "_replay", OrderedDict())
    monkeypatch.setattr(solvers, "_REPLAY_PAIRS", 2)
    pairs = [(np.full(n, 1 / n), np.full(n, 1 / n)) for n in (1, 2, 3)]
    expected = [[m.assignment.tolist() for m in enumerate_monge_maps(*pair)] for pair in pairs]
    errors, done = [], []

    def work(t):
        try:
            for r in range(1000):
                i = (t + r) % 3
                assert [m.assignment.tolist() for m in enumerate_monge_maps(*pairs[i])] == expected[i]
            done.append(t)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert sorted(done) == list(range(6))
    assert len(solvers._replay) <= 2


@pytest.mark.parametrize("p", [1, 1.5, 2, 3, math.inf])
def test_batch_distortion_in_place_matches_out_of_place(p):
    rng = np.random.default_rng([80, int(min(p, 9) * 2)])
    for n, m, batch in ((7, 5, 300), (6, 6, 1), (4, 2, 50)):
        omx = rng.uniform(-3, 3, (n, n))
        omy = rng.uniform(-3, 3, (m, m))
        w = rng.uniform(0.1, 1, n)
        assigns = rng.integers(0, m, (batch, n)).astype(np.intp)
        diff = np.abs(omx[None, :, :] - omy[assigns[:, :, None], assigns[:, None, :]])
        if math.isinf(p):
            expected = diff.max(axis=(1, 2))
        else:
            diff = diff * diff if p == 2 else diff if p == 1 else diff ** p
            expected = np.einsum("bik,i,k->b", diff, w, w)
        got = solvers._map_distortion_batch(omx, omy, w, assigns, float(p))
        assert got.tobytes() == expected.tobytes()


def test_gm_near_equal_small_weights_is_finite():
    # 1/999999 and 1e-6 differ by about 1e-12, within the mass tolerance
    net_x, net_y = near_equal_small_pair()
    report = gm_exact(net_x, net_y, 2)
    assert report.witness.assignment.tolist() == [0, 1]
    assert report.value == distortion_map(net_x, net_y, MongeMap([0, 1]), 2)
    assert math.isfinite(report.value)


def test_gm_report_value_matches_witness():
    net_x = random_uniform_network(4, 10)
    net_y = random_uniform_network(4, 11)
    report = gm_exact(net_x, net_y, 2)
    assert report.value == pytest.approx(
        distortion_map(net_x, net_y, report.witness, 2), abs=1e-10)


@pytest.mark.xfail(strict=True, reason="gm_exact ranks maps by float64 sums; the map "
                   "[2 0 0 1 1 3] is 1 ulp below its witness [0 0 2 1 1 3]")
def test_gm_value_is_the_exact_minimum():
    net_x = MeasureNetwork(np.full(6, 1 / 6), random_metric_network(6, [16, 1, 0]).omega)
    net_y = MeasureNetwork(np.array([2, 2, 1, 1]) / 6,
                           random_metric_network(4, [16, 1, 1]).omega)
    exact = min(distortion_map(net_x, net_y, phi, 1)
                for phi in enumerate_monge_maps(net_x.weights, net_y.weights))
    assert exact == 0.3818306903468243
    assert gm_exact(net_x, net_y, 1).value == exact


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


@pytest.mark.parametrize("seed", range(5))
def test_fw_marginal_totals_apart_within_tolerance(seed):
    # the two totals differ by 1.8e-9; every vertex keeps the marginals of
    # the product coupling, so the witness couples the two networks
    net_x, net_y = skewed_pair(seed)
    report = gw_frank_wolfe(net_x, net_y)
    table = report.witness.table
    assert np.abs(table.sum(axis=1) - net_x.weights).max() <= 1e-9
    assert np.abs(table.sum(axis=0) - net_y.weights).max() <= 1e-9
    assert report.value <= distortion_p(net_x, net_y, product_coupling(net_x, net_y), 2) + 1e-12


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
    vertex = solvers._TransportBasis(wx, wy, cost).solve(cost)
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
    first, wx, wy = transport_case(shape, seed)
    basis = solvers._TransportBasis(wx, wy, first)
    for k in range(6):
        cost = transport_case(shape, seed + 2 * k)[0]
        warm = basis.solve(cost)
        cold = solvers._TransportBasis(wx, wy, cost).solve(cost)
        scale = float(np.abs(cost).max())
        assert float((warm * cost).sum()) == pytest.approx(float((cold * cost).sum()),
                                                           abs=1e-12 * scale)
        # the lexicographic rule keeps every basic flow positive
        assert min(basis.flow) > 0


def test_transport_basis_starts_as_full_tree():
    # n + m - 1 cells even where the walk meets ties; on a zero cost the
    # start is the north-west corner walk
    wx = np.full(4, 0.25)
    wy = np.array([0.25, 0.25, 0.5])
    basis = solvers._TransportBasis(wx, wy, np.zeros((4, 3)))
    assert len(basis.rows) == 6
    assert len(set(zip(basis.rows, basis.cols))) == 6
    assert min(basis.flow) > 0


def north_west_tree(wx, wy):
    """Reference copy of the north-west corner walk, the start the
    matrix-minimum walk replaced: rows, columns and perturbed flows."""
    source, target, _ = solvers._integer_marginals(wx, wy)
    n, m, k = len(source), len(target), 2 * len(source) + 1
    supply = [a * k + 1 for a in source]
    demand = [b * k for b in target]
    demand[-1] += n
    rows, cols, flow = [], [], []
    i = j = 0
    left_row, left_col = supply[0], demand[0]
    while True:
        rows.append(i)
        cols.append(j)
        if left_row < left_col:
            flow.append(left_row)
            left_col -= left_row
            i += 1
            left_row = supply[i]
        else:
            flow.append(left_col)
            if j == m - 1:
                break
            left_row -= left_col
            j += 1
            left_col = demand[j]
    return rows, cols, flow


class _NorthWestBasis(solvers._TransportBasis):
    def __init__(self, wx, wy, cost):
        super().__init__(wx, wy, cost)
        self.rows, self.cols, self.flow = north_west_tree(wx, wy)
        self.adj = [[] for _ in range(self.n + self.m)]
        for s, (i, j) in enumerate(zip(self.rows, self.cols)):
            self.adj[i].append(s)
            self.adj[self.n + j].append(s)


def test_zero_cost_start_is_north_west_corner():
    rng = np.random.default_rng(37)
    for k in range(300):
        n, m = (int(v) for v in rng.integers(1, 12, 2))
        if k % 2:
            wx, wy = rng.random(n) + 0.1, rng.random(m) + 0.1
        else:  # integer counts: many tied partial sums
            wx, wy = rng.integers(1, 5, n).astype(float), rng.integers(1, 5, m).astype(float)
        wx, wy = wx / wx.sum(), wy / wy.sum()
        basis = solvers._TransportBasis(wx, wy, np.zeros((n, m)))
        assert (basis.rows, basis.cols, basis.flow) == north_west_tree(wx, wy)


def _seeded_certify_pairs():
    # metric tables with small-integer weights, square or not
    for k, (n, m) in enumerate(((3, 2), (5, 5), (7, 4), (9, 12), (14, 11), (26, 22))):
        nets = []
        for size, tag in ((n, 0), (m, 1)):
            counts = np.random.default_rng([39, k, tag]).integers(1, 5, size)
            omega = random_metric_network(size, [39, k, tag]).omega
            nets.append(MeasureNetwork(counts / counts.sum(), omega))
        yield nets


def test_fw_matrix_minimum_start_matches_north_west(monkeypatch):
    for x, y in _seeded_certify_pairs():
        for init in (None, random_coupling(x.weights, y.weights, [40, x.n])):
            got = gw_frank_wolfe(x, y, init=init)
            with monkeypatch.context() as mp:
                mp.setattr(solvers, "_TransportBasis", _NorthWestBasis)
                ref = gw_frank_wolfe(x, y, init=init)
            assert float(got.value).hex() == float(ref.value).hex()
            assert (got.iterations, got.converged) == (ref.iterations, ref.converged)
            assert got.trace == ref.trace
            assert got.witness.table.tobytes() == ref.witness.table.tobytes()


def test_transport_simplex_pivot_cap(monkeypatch):
    cost, wx, wy = transport_case((26, 22), 0)
    monkeypatch.setattr(solvers, "_PIVOTS_PER_CELL", 0)
    with pytest.raises(RuntimeError, match="after 0 pivots"):
        solvers._TransportBasis(wx, wy, cost).solve(cost)


def assignment_vertex(cost):
    """The vertex of the assignment oracle that Frank-Wolfe ran on uniform
    marginals of equal size before the transport simplex served every pair."""
    n, m = cost.shape
    rows, cols = linear_sum_assignment(cost)
    vertex = np.zeros((n, m))
    vertex[rows, cols] = 1.0 / n
    return vertex


@pytest.mark.parametrize("n", [1, 2, 5, 24])
def test_transport_simplex_is_assignment_on_uniform_square(n):
    # continuous costs have one optimal permutation, so both oracles return
    # it, cold or warm-started
    u = np.full(n, 1.0 / n)
    costs = [np.random.default_rng([32, n, seed]).normal(size=(n, n)) for seed in range(8)]
    warm = solvers._TransportBasis(u, u, costs[0])
    for cost in costs:
        expected = assignment_vertex(cost)
        assert solvers._TransportBasis(u, u, cost).solve(cost).tobytes() == expected.tobytes()
        assert warm.solve(cost).tobytes() == expected.tobytes()


class _AssignmentBasis:
    def __init__(self, wx, wy, cost):
        pass

    def solve(self, cost):
        return assignment_vertex(cost)


def _uniform_square_pairs():
    for k in range(6):
        n = 2 + k
        yield random_metric_network(n, [33, k, 0]), random_metric_network(n, [33, k, 1])
        yield random_uniform_network(n, [34, k, 0]), random_uniform_network(n, [34, k, 1])
        yield random_spd_network(n, [35, k, 0]), random_spd_network(n, [35, k, 1])


def test_fw_uniform_square_matches_assignment_oracle(monkeypatch):
    for x, y in _uniform_square_pairs():
        for init in (None, random_coupling(x.weights, y.weights, [36, x.n])):
            got = gw_frank_wolfe(x, y, init=init)
            with monkeypatch.context() as mp:
                mp.setattr(solvers, "_TransportBasis", _AssignmentBasis)
                ref = gw_frank_wolfe(x, y, init=init)
            assert float(got.value).hex() == float(ref.value).hex()
            assert (got.iterations, got.converged) == (ref.iterations, ref.converged)
            assert got.trace == ref.trace
            assert got.witness.table.tobytes() == ref.witness.table.tobytes()


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


def test_fw_rejects_tables_whose_objective_overflows():
    # 1e160 squared is past float64: a clear error, not a pivot-cap failure
    # after warnings
    net = MeasureNetwork(np.full(3, 1 / 3), simplex_network(3).omega * 1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            gw_frank_wolfe(net, net)


def test_gm_exact_rejects_maps_whose_distortion_overflows():
    # six maps exist; every one's order-2 distortion is past float64
    big = MeasureNetwork(np.full(3, 1 / 3), simplex_network(3).omega * 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="distortion overflows"):
            gm_exact(big, simplex_network(3), 2)
        assert gm_exact(big, simplex_network(3), math.inf).value == 1e200


def test_spd_ascent_rejects_tables_whose_distortion_overflows():
    spd = np.array([[3.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 3.0]])
    x = MeasureNetwork(np.full(3, 1 / 3), spd * 1e200)
    y = MeasureNetwork(np.full(3, 1 / 3), spd)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="distortion overflows"):
            gw_spd_vertex_ascent(x, y)


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
