import hashlib
import itertools
import math
import subprocess
import sys
import threading
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from gromon import networks, solvers
from gromon.euclidean import EuclideanCloud, m_iso
from gromon.networks import EPS_SUPP, TOL_MASS
from gromon.randgen import (
    random_coupling,
    random_graph,
    random_metric_network,
    random_spd_network,
    random_uniform_network,
)

from conftest import (
    child_env,
    near_equal_small_pair,
    relabeled,
    skewed_pair,
    uniform_network_pairs,
)


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
       st.sampled_from([1, 2, 3, 4096]))
def test_assignment_blocks_match_brute_force(source_counts, target_counts, block):
    """Feasible or not, the blocks list exactly the maps whose fiber sums
    equal the targets in exact arithmetic, in lexicographic order, in
    blocks of the rows that the entry budget allows."""
    n, m = len(source_counts), len(target_counts)
    ws = [Fraction(c, sum(source_counts)) for c in source_counts]
    wt = [Fraction(c, sum(target_counts)) for c in target_counts]
    expected = [list(phi) for phi in itertools.product(range(m), repeat=n)
                if all(sum(w for w, j in zip(ws, phi) if j == k) == wt[k] for k in range(m))]
    source, target = np.array(ws, dtype=float), np.array(wt, dtype=float)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_REPLAY_ENTRIES", block * n * (n + m))
        blocks = list(solvers._assignment_blocks(source, target))
    assert all(b.dtype == np.intp and 1 <= len(b) <= block for b in blocks)
    assert [row.tolist() for b in blocks for row in b] == expected


# sha256 of the int64 rows of _assignment_blocks, in order, for uniform 7-7,
# 7 onto (2, 2, 1, 1, 1)/7, 10-digit decimals 7 onto (2, 1, 1, 1, 1, 1)/7,
# uniform 8-8, 9 onto 3, 10 onto 5, 8 onto (2, 1, 1, 1, 1, 1, 1)/8 and
# (2, 1, 1, 2, 1, 1)/8 onto 4
ROW_DIGESTS = (
    "1fe3320c2c2d1a4c8f27b2102505ff739414e6f478f74eb7ba52e86ca65e77c0",
    "0844b4763ffe0d448c46e2830ec5c69dab400c5215cbafeca6ac13cb287bd946",
    "4b405f970d429ef71258e25a304e6192eee00383121b34edfea33c2f357ad681",
    "420e1fa907707ad373a551928e43b8a8dc101f5517e2993386c6268a79201247",
    "6de1c4adb14ccdcf41903781c9129d509c63850389708ab07d7559a3fb3e32bf",
    "216da5162ac8a8999c810e5d36e35a7eac6a6cacf0dc1a220ebe23facc1bf49b",
    "2e7202a35ad8e2ffb87592c08a11b85ad532da68a99499c2cadb4f99803c3943",
    "a033c1947aff5ced97190eb96b857967501a8baed87c2d61fb96ec37c5350e9b",
)


def test_assignment_rows_pinned_in_blocks_of_the_entry_budget():
    pairs = [*REPLAY_SHAPES, (np.full(8, 1 / 8), np.full(8, 1 / 8)),
             (np.full(9, 1 / 9), np.full(3, 1 / 3)), (np.full(10, 1 / 10), np.full(5, 1 / 5)),
             (np.full(8, 1 / 8), np.array([2, 1, 1, 1, 1, 1, 1]) / 8),
             (np.array([2, 1, 1, 2, 1, 1]) / 8, np.full(4, 1 / 4))]
    for (wx, wy), digest in zip(pairs, ROW_DIGESTS, strict=True):
        n, m = wx.size, wy.size
        blocks = list(solvers._assignment_blocks(wx, wy))
        rows = np.concatenate(blocks).astype(np.int64)
        assert hashlib.sha256(rows.tobytes()).hexdigest() == digest
        assert max(map(len, blocks)) <= max(1, solvers._REPLAY_ENTRIES // (n * (n + m)))


def test_first_map_of_a_large_uniform_pair_within_a_memory_limit():
    # the open levels hold a few entry budgets together; 200 levels of
    # 4096-row blocks once took 3.8 GB
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "import numpy as np\n"
            "from gromon import solvers\n"
            "u = np.full(200, 1 / 200)\n"
            "print(next(solvers._assignment_blocks(u, u))[0].tolist() == list(range(200)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=child_env({"OPENBLAS_NUM_THREADS": "1"}))
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"True\n"


def test_first_map_of_a_uniform_pair_deeper_than_the_recursion_limit():
    # 1-row blocks open one level per point, every level but the last split
    n = max(1200, sys.getrecursionlimit() + 200)
    u = np.full(n, 1 / n)
    assert next(enumerate_monge_maps(u, u)).assignment.tolist() == list(range(n))


def test_gm_on_large_targets_within_a_memory_limit():
    # a grouped table of 2 points onto 1 000 would take 8 GB, of 3 points
    # 16 GB; pairs without maps build no table at all
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "import numpy as np\n"
            "from gromon import solvers\n"
            "from gromon.networks import MeasureNetwork, distortion_map\n"
            "rng = np.random.default_rng(31)\n"
            "def net(w):\n"
            "    line = rng.random(w.size)\n"
            "    return MeasureNetwork(w / w.sum(), np.abs(line[:, None] - line))\n"
            "for n, m in ((2, 1000), (1, 1000), (7, 300)):\n"
            "    report = solvers.gm_exact(net(rng.random(n) + 0.5), net(rng.random(m) + 0.5), 2)\n"
            "    print(report.value, report.iterations)\n"
            "wy = np.full(1000, 1e-12)\n"
            "wy[[5, 500, 900]] = [0.5, 0.2, 0.3]\n"
            "x, y = net(np.array([0.2, 0.3, 0.5])), net(wy)\n"
            "report = solvers.gm_exact(x, y, 2)\n"
            "print(report.witness.assignment.tolist(), report.iterations,\n"
            "      report.value == distortion_map(x, y, report.witness, 2))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=child_env({"OPENBLAS_NUM_THREADS": "1"}))
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"inf 0\ninf 0\ninf 0\n[500, 900, 5] 1 True\n"


def test_gm_on_shuffled_distinct_weights_returns_the_sorted_pairing():
    # distinct weights and the same weights shuffled: the one map pairs them
    # off sorted; blind backtracking took 0.2 to 9 s on each of these pairs
    start = time.perf_counter()
    for s in range(4):
        rng = np.random.default_rng([96, s])
        wx = rng.random(16) + 0.5
        wx /= wx.sum()
        wy = wx[rng.permutation(16)]
        x = MeasureNetwork(wx, random_metric_network(16, [96, s, 0]).omega)
        y = MeasureNetwork(wy, random_metric_network(16, [96, s, 1]).omega)
        report = gm_exact(x, y, 2)
        sorted_pairing = np.empty(16, dtype=np.intp)
        sorted_pairing[np.argsort(wx)] = np.argsort(wy)
        assert report.witness.assignment.tolist() == sorted_pairing.tolist()
        assert report.iterations == 1
        assert report.value == distortion_map(x, y, report.witness, 2)
    assert time.perf_counter() - start < 1.0


def test_first_map_of_a_large_shuffled_pair_within_time_and_memory_limits():
    # blind backtracking ran past 60 s on this pair; the map itself gets 2 s.
    # gm_exact scores its one map from its own 500*500 terms, where a table
    # of pairs would take 233 GiB
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "import time\n"
            "import numpy as np\n"
            "from gromon import distortion_map, enumerate_monge_maps, gm_exact\n"
            "from gromon.networks import MeasureNetwork\n"
            "rng = np.random.default_rng(95)\n"
            "w = rng.random(500) + 0.5\n"
            "w /= w.sum()\n"
            "perm = rng.permutation(500)\n"
            "start = time.perf_counter()\n"
            "a = next(enumerate_monge_maps(w, w[perm])).assignment\n"
            "print((perm[a] == np.arange(500)).all(), time.perf_counter() - start < 2.0)\n"
            "x = MeasureNetwork(w, rng.random((500, 500)))\n"
            "y = MeasureNetwork(w[perm], rng.random((500, 500)))\n"
            "for p in (2, float('inf')):\n"
            "    r = gm_exact(x, y, p)\n"
            "    print((r.witness.assignment == a).all(), r.iterations,\n"
            "          r.value == distortion_map(x, y, r.witness, p))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60,
                          env=child_env({"OPENBLAS_NUM_THREADS": "1"}))
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"True True\nTrue 1 True\nTrue 1 True\n"


def test_gm_on_an_identity_only_pair_within_a_time_limit():
    # equal non-uniform weights in the same order: the identity is the one
    # map, which blind backtracking took 322 s to confirm; the child gets 60 s
    code = ("import numpy as np\n"
            "from gromon import gm_exact, distortion_map\n"
            "from gromon.networks import MeasureNetwork\n"
            "rng = np.random.default_rng(95)\n"
            "w = rng.random(20) + 0.5\n"
            "w /= w.sum()\n"
            "x, y = (MeasureNetwork(w, rng.random((20, 20))) for _ in range(2))\n"
            "report = gm_exact(x, y, 2)\n"
            "print(report.witness.assignment.tolist() == list(range(20)), report.iterations,\n"
            "      report.value == distortion_map(x, y, report.witness, 2))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60,
                          env=child_env({"OPENBLAS_NUM_THREADS": "1"}))
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"True 1 True\n"


def test_gm_onto_a_point_deeper_than_the_recursion_limit():
    # one block per level: the enumerator descends without recursing
    n = sys.getrecursionlimit() + 10
    line = np.arange(n) / n
    x = MeasureNetwork(np.full(n, 1 / n), np.abs(line[:, None] - line[None, :]))
    assert [m.assignment.tolist() for m in enumerate_monge_maps(x.weights, [1.0])] == [[0] * n]
    report = gm_exact(x, one_point_network(), 2)
    assert report.iterations == 1
    assert report.value == distortion_map(x, one_point_network(), MongeMap([0] * n), 2)


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


@st.composite
def edge_weights(draw, max_size):
    """Weights whose fiber sums under one drawn map each miss their target
    weight by ``TOL_MASS`` give or take a few ulps, on either side."""
    counts = draw(st.lists(st.integers(1, 2**20), min_size=1, max_size=max_size))
    ws = np.array(counts) / sum(counts)
    m = draw(st.integers(1, min(4, ws.size)))
    rest = draw(st.lists(st.integers(0, m - 1), min_size=ws.size - m, max_size=ws.size - m))
    phi = draw(st.permutations(list(range(m)) + rest))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m))
    ulps = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    wt = np.bincount(phi, weights=ws, minlength=m) + np.array(signs) * solvers.TOL_MASS
    wt += np.array(ulps) * np.spacing(wt)
    assume(abs(math.fsum(wt.tolist()) - 1.0) <= solvers.TOL_MASS)
    return ws, wt


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(perturbed_counts(6), perturbed_counts(4)), edge_weights(6)))
# gm used to exit 2 on the first pair, and return a witness that
# distortion_map rejects on the second
@example((np.array([0.5434152018497173, 0.20282204219951488, 0.2537627559507679]),
          np.array([0.999999999])))
@example((np.array([0.5988218249512666, 0.18956272046167433, 0.21161545458705924]),
          np.array([0.9999999990000001])))
# the first fiber misses its target by exactly TOL_MASS, which passes
@example((np.array([2.0**-31 + 1e-9, 0.5, float.fromhex("0x1.ffffffe6d1f43p-2")]),
          np.array([2.0**-31, 0.5, 0.5 - 2.0**-31])))
# uniform within TOL_MASS, but 4 of the closed form's 6 maps
@example((np.array([0.25 + 6e-10, 0.25 + 6e-10, 0.25 - 6e-10, 0.25 - 6e-10]),
          np.array([0.5, 0.5])))
def test_enumerate_is_the_measure_preserving_rule(weights):
    """The enumerator lists exactly the maps that ``check_measure_preserving``
    accepts, in lexicographic order, also at the tolerance edge; ``gm_exact``
    scans them all, its witness passes ``distortion_map``, and its value is
    inf only when the checker accepts no map."""
    ws, wt = weights

    def accepted(phi):
        try:
            check_measure_preserving(MongeMap(phi), ws, wt)
        except NotMeasurePreservingError:
            return False
        return True

    expected = [list(phi) for phi in itertools.product(range(wt.size), repeat=ws.size)
                if accepted(phi)]
    assert [m.assignment.tolist() for m in enumerate_monge_maps(ws, wt)] == expected
    x = MeasureNetwork(ws, random_metric_network(ws.size, [25, 0]).omega)
    y = MeasureNetwork(wt, random_metric_network(wt.size, [25, 1]).omega)
    report = gm_exact(x, y, 2)
    if expected:
        assert report.iterations == len(expected)
        assert report.value == distortion_map(x, y, report.witness, 2)
    else:
        assert report.value == math.inf and report.witness is None


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


def test_gm_infeasible_reports_infinity(monkeypatch, empty_store):
    # uniform weights count no maps; non-uniform ones enumerate none, cold
    # and then from the stored empty stream
    skew = (MeasureNetwork([0.5, 0.25, 0.25], np.zeros((3, 3))),
            MeasureNetwork([0.6, 0.4], np.zeros((2, 2))))
    reports = [gm_exact(one_point_network(), simplex_network(2), 2), gm_exact(*skew, 2)]
    assert empty_store(skew[0].weights.tobytes(), skew[1].weights.tobytes()).blocks == ()
    monkeypatch.setattr(solvers, "_assignment_blocks", refuse_enumeration)
    reports.append(gm_exact(*skew, 2))
    for report in reports:
        assert math.isinf(report.value)
        assert report.witness is None
        assert report.iterations == 0


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


def test_gm_cap_test_on_near_uniform_weights_states_a_bound():
    # 4 maps pass the 1e-9 fiber rule; the point counts allow 6
    q = 0.25
    x = MeasureNetwork([q + 6e-10, q + 6e-10, q - 6e-10, q - 6e-10], np.zeros((4, 4)))
    y = simplex_network(2)
    assert len(list(enumerate_monge_maps(x.weights, y.weights))) == 4
    with pytest.raises(CapExceededError) as err:
        gm_exact(x, y, 2, cap=5)
    assert str(err.value) == ("too large for exact enumeration: the point counts "
                              "bound the maps by 6, above cap 5")
    assert gm_exact(x, y, 2, cap=6).iterations == 4  # the maps actually scanned


@pytest.mark.parametrize("n, m, bits", [(1700, 1700, 15798), (2000, 1000, 19932)])
def test_gm_cap_message_words_a_bound_too_long_to_print(n, m, bits):
    # 1700! and 1000^2000 have more than the 4 300 digits Python prints
    with pytest.raises(CapExceededError) as err:
        gm_exact(simplex_network(n), simplex_network(m), 2)
    assert str(err.value) == ("too large for exact enumeration: the point counts "
                              f"bound the maps by a {bits}-bit number, above cap 10000000")


@pytest.mark.parametrize("cap", [0, -5])
def test_gm_rejects_non_positive_cap(cap):
    for w in ([0.5, 0.5], [0.25, 0.75]):  # the uniform count and the streaming scan
        net = MeasureNetwork(w, np.zeros((2, 2)))
        with pytest.raises(ValueError, match=f"cap must be >= 1, got {cap}"):
            gm_exact(net, net, 2, cap=cap)


@pytest.mark.parametrize("p", ["inf", "2", True, b"1"], ids=["str-inf", "str", "true", "bytes"])
def test_gm_rejects_text_and_bool_exponents(p):
    with pytest.raises(TypeError, match="exponent must be a number"):
        gm_exact(simplex_network(4), simplex_network(2), p)


@pytest.mark.parametrize("block", [1, 7])
def test_gm_unchanged_by_block_size(block, monkeypatch, empty_store):
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
    # the store keeps blocks of the old size: emptied, the second solve
    # enumerates each of the three pairs that admit maps afresh
    empty_store.cache_clear()
    cold, enumerate_blocks = [], solvers._assignment_blocks

    def counted(source, target):
        # blocks of `block` rows from the entry budget, which gm_exact
        # still reads in full to keep them
        cold.append((source.tobytes(), target.tobytes()))
        with monkeypatch.context() as mp:
            n = source.size
            mp.setattr(solvers, "_REPLAY_ENTRIES", block * n * (n + target.size))
            return enumerate_blocks(source, target)

    monkeypatch.setattr(solvers, "_assignment_blocks", counted)
    assert solve_all() == expected
    assert len(cold) == 3
    assert all(len(b) <= block and cells.shape[1] == len(b)
               for pair in cold for b, cells in empty_store(*pair).blocks)


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


def tied_pair(n, tied, seed):
    """n points with distinct weights but for ``tied`` equal ones, onto a
    shuffled copy of those weights: tied! maps, one when ``tied`` is 1."""
    rng = np.random.default_rng(seed)
    w = rng.random(n) + 0.5
    w[1:tied] = w[0]
    w /= w.sum()
    perm = rng.permutation(n)
    return (MeasureNetwork(w, random_metric_network(n, [seed, 0]).omega),
            MeasureNetwork(w[perm], random_metric_network(n, [seed, 1]).omega))


def report_bits(report):
    return report.value.hex(), report.witness.assignment.tolist(), report.iterations


def refuse_enumeration(*args):
    raise AssertionError("enumerated a pair whose maps were stored")


def refuse_table(*args):
    raise AssertionError("built a term table")


def count_enumerations(monkeypatch):
    """A list that gains an entry at each call of ``_assignment_blocks``."""
    calls, enumerate_blocks = [], solvers._assignment_blocks

    def counted(source, target):
        calls.append(1)
        return enumerate_blocks(source, target)

    monkeypatch.setattr(solvers, "_assignment_blocks", counted)
    return calls


@pytest.fixture()
def empty_store():
    """An empty store of pair records, emptied again afterwards."""
    solvers._pair_record.cache_clear()
    yield solvers._pair_record
    solvers._pair_record.cache_clear()


@pytest.mark.parametrize("p", [1, 1.5, 2, 3, math.inf])
@pytest.mark.parametrize("shape", range(3))
def test_gm_replay_matches_cold_enumeration(shape, p, monkeypatch, empty_store):
    x, y = replay_pair(shape, 50 + shape)
    cold = gm_exact(x, y, p)
    assert empty_store.cache_info().currsize == 1
    # the same pair and other tables on the same weights replay the stored maps
    x2, y2 = replay_pair(shape, 60 + shape)
    with monkeypatch.context() as mp:
        mp.setattr(solvers, "_assignment_blocks", refuse_enumeration)
        replayed = [gm_exact(x, y, p), gm_exact(x2, y2, p)]
    empty_store.cache_clear()
    assert report_bits(replayed[0]) == report_bits(cold)
    assert report_bits(replayed[1]) == report_bits(gm_exact(x2, y2, p))


def test_gm_decides_admission_once_per_pair_of_weights(monkeypatch, empty_store):
    """Replays on any tables and exponent, and calls on weights that admit
    no map, reuse the first call's admission; the cap test still runs on
    every call, against the kept bound."""
    calls, admission = [], solvers._admission

    def once(wx, wy):
        calls.append((wx.size, wy.size))
        if calls.count((wx.size, wy.size)) > 1:
            raise AssertionError("decided the admission of a pair again")
        return admission(wx, wy)

    monkeypatch.setattr(solvers, "_admission", once)
    none = (simplex_network(3), simplex_network(2))  # 3 onto 2 uniform points
    for p in (2, 1, math.inf):
        assert gm_exact(*none, p).iterations == 0
    for shape in range(3):
        x, y = replay_pair(shape, 95 + shape)
        x2, y2 = replay_pair(shape, 60 + shape)
        for p in (1, 2, math.inf):
            assert report_bits(gm_exact(x, y, p)) == GM_ENUM_REPORTS[shape, p]
            gm_exact(x2, y2, p)
    with pytest.raises(CapExceededError, match="bound the maps by 5040"):
        gm_exact(*replay_pair(0, 95), 2, cap=5039)
    assert sorted(calls) == [(3, 2), (7, 5), (7, 6), (7, 7)]


# gm_exact reports (value hex, witness, maps scanned) on replay_pair(shape,
# 95 + shape), as the pair-slab scores gave them
GM_ENUM_REPORTS = {
    (0, 1): ("0x1.0716439c946a3p-3", [0, 3, 2, 4, 5, 1, 6], 5040),
    (0, 2): ("0x1.5b42e622b479ap-3", [3, 0, 4, 2, 5, 6, 1], 5040),
    (0, math.inf): ("0x1.6e2c9266f86b8p-2", [0, 3, 4, 1, 6, 5, 2], 5040),
    (1, 1): ("0x1.d559ec23b5f52p-3", [1, 4, 0, 1, 0, 2, 3], 1260),
    (1, 2): ("0x1.91d4ce74ada9bp-2", [0, 1, 2, 4, 3, 1, 0], 1260),
    (1, math.inf): ("0x1.22ff39f442fbap+0", [0, 1, 2, 3, 4, 1, 0], 1260),
    (2, 1): ("0x1.0026b07edb6b7p-2", [2, 0, 4, 3, 0, 1, 5], 2520),
    (2, 2): ("0x1.7e0925e488e7ap-2", [2, 0, 4, 3, 0, 1, 5], 2520),
    (2, math.inf): ("0x1.08879c98327fap+0", [0, 1, 2, 3, 4, 5, 0], 2520),
}


@pytest.mark.parametrize("shape, p", list(GM_ENUM_REPORTS))
def test_gm_reports_pinned_on_the_benchmark_shapes(shape, p, empty_store):
    x, y = replay_pair(shape, 95 + shape)
    assert report_bits(gm_exact(x, y, p)) == GM_ENUM_REPORTS[shape, p]  # cold
    assert report_bits(gm_exact(x, y, p)) == GM_ENUM_REPORTS[shape, p]  # replayed


# gm_exact reports (value hex, sha256 of the witness as int64, maps scanned)
# on tied_pair(n, tied, seed), as the pair-slab scores gave them.  The 20-20
# and 100-100 pairs score every map from its own terms, the 17-17 pair its
# first blocks.
OWN_TERM_REPORTS = {
    ((17, 8, 34), 1): ("0x1.2088571881111p-2", "add3a953b4de9c38", 40320),
    ((17, 8, 34), 2): ("0x1.75babc8695bc2p-2", "583b9bb6c6d2c4ab", 40320),
    ((17, 8, 34), math.inf): ("0x1.da41cae1d5e0cp-1", "c5b9b4e2769a38a4", 40320),
    ((20, 6, 35), 1): ("0x1.3afc03858b23bp-2", "181381e4418c446e", 720),
    ((20, 6, 35), 2): ("0x1.8e210eac60881p-2", "ddc2dc39278daca0", 720),
    ((20, 6, 35), math.inf): ("0x1.ce83a61cfeab4p-1", "b6a5905cfd9bd1a4", 720),
    ((100, 1, 36), 1): ("0x1.4daf3c4b473f7p-2", "b84de56ff96ae78e", 1),
    ((100, 1, 36), 2): ("0x1.99e40fc6aba33p-2", "b84de56ff96ae78e", 1),
    ((100, 1, 36), math.inf): ("0x1.fc7c31fedaf70p-1", "b84de56ff96ae78e", 1),
}


@pytest.mark.parametrize("pair, p", list(OWN_TERM_REPORTS))
def test_gm_reports_pinned_on_pairs_scored_from_own_terms(pair, p, empty_store):
    report = gm_exact(*tied_pair(*pair), p)
    witness = hashlib.sha256(np.asarray(report.witness.assignment, np.int64).tobytes())
    assert (report.value.hex(), witness.hexdigest()[:16], report.iterations) == \
        OWN_TERM_REPORTS[pair, p]


@pytest.mark.parametrize("n", [6, 12, 100])
def test_one_map_pairs_build_no_table(n, monkeypatch, empty_store):
    """One map reads n*n terms, fewer than the grouped table's entries, so
    it is scored from its own terms and no table is built."""
    monkeypatch.setattr(solvers, "_term_table", refuse_table)
    x, y = tied_pair(n, 1, 40 + n)
    x = MeasureNetwork(y.weights, x.omega)  # the same weights in both networks
    for p in (2, math.inf):
        report = gm_exact(x, y, p)
        assert report.witness.assignment.tolist() == list(range(n))
        assert report.iterations == 1
        assert report.value == distortion_map(x, y, report.witness, p)


def test_cap_exceeded_cold_and_on_replay(monkeypatch, empty_store):
    x, y = replay_pair(1, 70)
    cold = count_enumerations(monkeypatch)
    with pytest.raises(CapExceededError) as first:
        gm_exact(x, y, 2, cap=100)
    # a call that raises keeps no blocks: the next one enumerates again
    assert empty_store(x.weights.tobytes(), y.weights.tobytes()).blocks is None
    with pytest.raises(CapExceededError) as again:
        gm_exact(x, y, 2, cap=100)
    assert len(cold) == 2
    assert str(again.value) == str(first.value)
    assert gm_exact(x, y, 2, cap=1260).iterations == 1260  # exactly at the cap
    assert len(cold) == 3
    assert sum(len(b) for b, _ in empty_store(x.weights.tobytes(),
                                              y.weights.tobytes()).blocks) == 1260
    monkeypatch.setattr(solvers, "_assignment_blocks", refuse_enumeration)
    with pytest.raises(CapExceededError) as replayed:
        gm_exact(x, y, 2, cap=100)
    assert str(replayed.value) == str(first.value)
    assert gm_exact(x, y, 2, cap=1260).iterations == 1260


def test_cap_stops_the_scan_at_the_block_that_crosses_it(monkeypatch, empty_store):
    # 1260 maps with 12 cells each fill the budget exactly, in blocks of 285 rows
    x, y = replay_pair(1, 71)
    pulled, enumerate_blocks = [], solvers._assignment_blocks

    def counted(source, target):
        for block in enumerate_blocks(source, target):
            pulled.append(len(block))
            yield block

    monkeypatch.setattr(solvers, "_REPLAY_ENTRIES", 1260 * (7 + 12))
    monkeypatch.setattr(solvers, "_assignment_blocks", counted)
    with pytest.raises(CapExceededError, match="more than 100 maps"):
        gm_exact(x, y, 2, cap=100)
    assert sum(pulled[:-1]) <= 100 < sum(pulled)


def test_gm_enumerates_a_non_uniform_pair_over_budget_once_per_call(monkeypatch,
                                                                    empty_store):
    # 20 160 maps of 8 points with 16 cells each pass the budget
    w, v = np.full(8, 1 / 8), np.array([2, 1, 1, 1, 1, 1, 1]) / 8
    x = MeasureNetwork(w, random_metric_network(8, [94, 0]).omega)
    y = MeasureNetwork(v, random_metric_network(7, [94, 1]).omega)
    cold = count_enumerations(monkeypatch)
    assert gm_exact(x, y, 2).iterations == 20_160
    assert len(cold) == 1
    assert empty_store(w.tobytes(), v.tobytes()).blocks is None
    assert gm_exact(x, y, 1).iterations == 20_160
    assert len(cold) == 2


def test_replay_stores_only_whole_streams_within_budget(monkeypatch, empty_store):
    # 90 maps of 6 entries, each with 9 cells, one per group
    w, half = np.full(6, 1 / 6), np.full(3, 1 / 3)
    x, y = MeasureNetwork(w, np.zeros((6, 6))), MeasureNetwork(half, np.zeros((3, 3)))
    maps = [m.assignment.tolist() for m in enumerate_monge_maps(w, half)]
    monkeypatch.setattr(solvers, "_REPLAY_ENTRIES", 90 * (6 + 9))
    assert gm_exact(x, y, 2).iterations == 90
    blocks = empty_store(w.tobytes(), half.tobytes()).blocks
    assert empty_store.cache_info().hits == 1
    assert [row.tolist() for b, _ in blocks for row in b] == maps
    for b, cells in blocks:
        assert cells.tobytes() == solvers._map_cells(np.array(b), 3).tobytes()
        for stored in (b, cells):
            assert not stored.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                stored[0, 0] = 1
    empty_store.cache_clear()
    # one entry over the budget
    monkeypatch.setattr(solvers, "_REPLAY_ENTRIES", 90 * (6 + 9) - 1)
    assert gm_exact(x, y, 2).iterations == 90
    assert empty_store(w.tobytes(), half.tobytes()).blocks is None


def test_replay_budget_holds_the_uniform_seven_point_pair(empty_store):
    # 5040 * (7 + 12) = 95 760 entries, within one pair's budget
    net = simplex_network(7)
    assert gm_exact(net, net, 2).iterations == 5040
    blocks = empty_store(net.weights.tobytes(), net.weights.tobytes()).blocks
    assert sum(b.size + cells.size for b, cells in blocks) == 95_760
    assert solvers._REPLAY_ENTRIES * 8 * solvers._REPLAY_PAIRS == 8 << 20


def test_replay_enumerates_a_uniform_pair_over_budget_once(monkeypatch, empty_store):
    # 8! * (8 + 16) entries pass the budget: the first call enumerates once, to scan
    x, y = random_metric_network(8, [93, 0]), random_metric_network(8, [93, 1])
    cold = count_enumerations(monkeypatch)
    report = gm_exact(x, y, 2)
    assert len(cold) == 1
    assert report_bits(report) == ("0x1.c72ff5ee75d59p-3", [1, 7, 6, 5, 2, 3, 0, 4], 40320)
    assert empty_store(x.weights.tobytes(), y.weights.tobytes()).blocks is None


def test_replay_evicts_least_recently_used(empty_store):
    # one- and two-point weight pairs, 1 or 2 maps each, more than the store holds
    pairs = [(np.array([1.0]), np.array([1.0]))]
    pairs += [(np.array([k, 1 - k]), np.array([k, 1 - k])) for k in np.arange(1, 21) / 32]
    assert len(pairs) > solvers._REPLAY_PAIRS

    def solve(i):
        x, y = (MeasureNetwork(w, np.zeros((w.size, w.size))) for w in pairs[i])
        before = empty_store.cache_info().hits
        gm_exact(x, y, 1)
        return empty_store.cache_info().hits - before  # 1 if replayed

    assert [solve(i) for i in range(solvers._REPLAY_PAIRS)] == [0] * solvers._REPLAY_PAIRS
    assert solve(0) == 1  # pair 0 becomes the most recent
    assert solve(solvers._REPLAY_PAIRS) == 0  # evicts pair 1, the least recent
    assert empty_store.cache_info().currsize == solvers._REPLAY_PAIRS
    assert solve(0) == 1
    assert solve(1) == 0
    assert empty_store.cache_info().currsize <= solvers._REPLAY_PAIRS


def test_enumerate_monge_maps_streams_and_stores_nothing(monkeypatch, empty_store):
    pulled, enumerate_blocks = [], solvers._assignment_blocks

    def counted(source, target):
        for block in enumerate_blocks(source, target):
            pulled.append(len(block))
            yield block

    monkeypatch.setattr(solvers, "_REPLAY_ENTRIES", 4 * 6 * (6 + 3))  # blocks of 4 rows
    monkeypatch.setattr(solvers, "_assignment_blocks", counted)
    first = next(enumerate_monge_maps(np.full(6, 1 / 6), np.full(3, 1 / 3)))
    assert first.assignment.tolist() == [0, 0, 1, 1, 2, 2]
    assert len(pulled) == 1  # one block of the 90 maps, not the whole stream
    assert empty_store.cache_info().currsize == 0


def test_replay_store_shared_by_threads(empty_store):
    """Threads that solve, store and replay the same few pairs all get the
    values of a lone solve."""
    pairs = [replay_pair(shape, 80 + shape) for shape in range(3)]
    pairs.append(weak_iso_pair())
    expected = [report_bits(gm_exact(x, y, 2)) for x, y in pairs]
    empty_store.cache_clear()
    errors, done = [], []

    def work(t):
        try:
            for r in range(20):
                i = (t + r) % len(pairs)
                assert report_bits(gm_exact(*pairs[i], 2)) == expected[i]
                if r % 7 == t:
                    empty_store.cache_clear()
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
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert sorted(done) == list(range(6))
    assert empty_store.cache_info().currsize <= solvers._REPLAY_PAIRS


@pytest.mark.parametrize("p", [1, 1.5, 2, 3, math.inf])
def test_folded_scores_within_slack_of_unfolded_terms(p):
    """A map's float score, from the grouped table and from its own terms,
    is within the screen's slack of math.fsum over its n*n unfolded terms,
    formed as in ``networks._distortion``; at p = inf it is their largest
    mismatch among the points above ``EPS_SUPP``.  The tables are
    asymmetric, with nonzero diagonals."""
    rng = np.random.default_rng([80, int(min(p, 9) * 2)])
    for n, m, batch in ((7, 5, 300), (6, 6, 1), (4, 2, 50), (1, 3, 3), (2, 4, 30),
                        (3, 3, 27), (9, 4, 200), (7, 10, 300), (2, 13, 30), (1, 5, 5)):
        omx = rng.uniform(-3, 3, (n, n))
        omy = rng.uniform(-3, 3, (m, m))
        w = rng.uniform(0.1, 1, n)
        if math.isinf(p) and n > 1:  # light points leave the sup
            w[rng.permutation(n)[:(n + 1) // 3]] = rng.choice([1e-13, EPS_SUPP], (n + 1) // 3)
        assigns = rng.integers(0, m, (batch, n)).astype(np.intp)
        table = solvers._group_table(solvers._term_table(omx, omy, w, float(p)), n, m, float(p))
        cells = solvers._map_cells(assigns, m)
        assert cells.shape[0] == max(1, n * n // 4)
        own = solvers._own_terms(omx, omy, w, assigns, float(p))
        assert own.shape == (n * n, batch)
        for got in (solvers._map_distortion_batch(table, cells, float(p)),
                    solvers._map_distortion_batch(own, None, float(p))):
            assert got.shape == (batch,)
            for a, score in zip(assigns, got.tolist()):
                mismatch = np.abs(omx - omy[np.ix_(a, a)])
                if math.isinf(p):
                    heavy = w > EPS_SUPP
                    assert score == mismatch[np.ix_(heavy, heavy)].max()
                    continue
                terms = mismatch ** p * w[:, None] * w[None, :]
                exact = math.fsum(terms.ravel().tolist())
                assert abs(score - exact) <= solvers._screen_slack(n, p) * exact


@pytest.mark.parametrize("n", range(1, 31))
def test_group_table_built_at_the_block_whose_maps_read_its_entries(n, monkeypatch,
                                                                    empty_store):
    """``gm_exact`` builds the grouped table, G*m**3 entries with
    G = max(1, n*n // 4), at the first block where the maps so far have read
    as many terms, count*n*n >= G*m**3, and only while it holds at most
    ``_REPLAY_PAIRS * _REPLAY_ENTRIES`` entries; the other blocks score from
    their own terms.  Either way the report is the first exact minimizer.
    Blocks of random assignments stand in for the enumerator, on the
    largest target that fits a smaller budget and on one point more."""
    monkeypatch.setattr(solvers, "_REPLAY_ENTRIES", 256)
    budget, groups = 4 * 256, max(1, n * n // 4)
    assert solvers._REPLAY_PAIRS * solvers._REPLAY_ENTRIES == budget
    rng = np.random.default_rng([83, n])
    fit = max(m for m in range(1, 20) if groups * m**3 <= budget)
    pulled, built, blocks, term_table = [], [], [], solvers._term_table

    def stand_in(source, target):
        for block in blocks:
            pulled.append(len(block))
            yield block.copy()

    def recorded(*args):
        built.append(sum(pulled))
        return term_table(*args)

    monkeypatch.setattr(solvers, "_assignment_blocks", stand_in)
    monkeypatch.setattr(solvers, "_term_table", recorded)
    for m in (fit, fit + 1):
        need = -(-groups * m**3 // (n * n))  # maps whose terms fill the table
        # random block sizes, at least need + 8 maps in all
        sizes = rng.integers(1, max(2, need // 4), need + 8).tolist()
        while sum(sizes[:-1]) > need + 8:
            sizes.pop()
        counts = np.cumsum(sizes)
        assigns = rng.integers(0, m, (counts[-1], n)).astype(np.intp)
        blocks[:] = np.split(assigns, counts[:-1])
        wx = rng.uniform(0.5, 1, n)
        wy = wx if m == n else rng.uniform(0.5, 1, m)
        x = MeasureNetwork(wx / wx.sum(), rng.uniform(0, 3, (n, n)))
        y = MeasureNetwork(wy / wy.sum(), rng.uniform(0, 3, (m, m)))
        for p in (2, math.inf):
            pulled.clear()
            built.clear()
            empty_store.cache_clear()
            report = gm_exact(x, y, p)
            first = int(counts[np.argmax(counts >= need)])
            assert built == ([first] if m == fit else [])
            values = [networks._map_distortion(x.omega, y.omega, x.weights, a, p)
                      for a in assigns]
            best = values.index(min(values))
            assert report.value.hex() == values[best].hex()
            assert report.witness.assignment.tolist() == assigns[best].tolist()
            assert report.iterations == len(assigns)


def test_group_table_built_on_the_benchmark_pairs_and_within_the_budget(monkeypatch,
                                                                        empty_store):
    """The gm_enum shapes and the cli_calls 6-6 pair build the grouped table
    at their first block.  A 17-17 pair with 8 tied weights builds it once
    its maps have read its 72 * 17**3 entries; a 22-22 pair with 7 tied
    weights reads more than its 121 * 22**3 entries, past 8 MiB, and builds
    none.  (``test_one_map_pairs_build_no_table`` covers pairs with one map.)"""
    pulled, built = [], []
    enumerate_blocks, term_table = solvers._assignment_blocks, solvers._term_table

    def counted(source, target):
        for block in enumerate_blocks(source, target):
            pulled.append(len(block))
            yield block

    def recorded(*args):
        built.append(len(pulled))
        return term_table(*args)

    monkeypatch.setattr(solvers, "_assignment_blocks", counted)
    monkeypatch.setattr(solvers, "_term_table", recorded)

    def blocks_at_build(x, y, p=2):
        pulled.clear()
        built.clear()
        empty_store.cache_clear()
        report = gm_exact(x, y, p)
        assert report.value == distortion_map(x, y, report.witness, p)
        return list(built), list(pulled)

    for shape in range(3):
        assert blocks_at_build(*replay_pair(shape, 95 + shape))[0] == [1]
    cli_pair = [random_metric_network(6, [23, 14, k]) for k in (0, 1)]
    assert blocks_at_build(*cli_pair, 1)[0] == [1]
    assert 72 * 17**3 <= solvers._REPLAY_PAIRS * solvers._REPLAY_ENTRIES < 121 * 22**3
    built, blocks = blocks_at_build(*tied_pair(17, 8, 34))
    read = np.cumsum(blocks) * 17**2  # terms the maps have read by each block
    assert built == [1 + int(np.argmax(read >= 72 * 17**3))] and built[0] > 1
    built, blocks = blocks_at_build(*tied_pair(22, 7, 37))
    assert built == [] and sum(blocks) == 5040 and 5040 * 22**2 >= 121 * 22**3


@pytest.mark.parametrize("p", [2, math.inf])
@pytest.mark.parametrize("n", range(1, 13))
def test_every_pair_slab_cell_lands_in_one_group_entry(n, p):
    """Built from a pair table that is 1 at one cell (j, l) of one slab
    (i, k) and 0 elsewhere, the grouped table scores a map 1 when
    a[i] = j and a[k] = l, else 0: each ordered pair and each diagonal
    term is read from exactly one group entry of each map."""
    m = 3
    assigns = np.random.default_rng([82, n]).integers(0, m, (400, n)).astype(np.intp)
    cells = solvers._map_cells(assigns, m)
    groups = max(1, n * n // 4)
    assert cells.shape == (groups, 400)
    for s, (i, k) in enumerate(zip(*solvers._source_pairs(n))):
        for j, l in itertools.product(range(m), repeat=2):
            pairs = np.zeros((n * (n + 1) // 2, m, m))
            pairs[s, j, l] = 1.0
            table = solvers._group_table(pairs.ravel(), n, m, p)
            assert table.shape == (groups * m**3,)
            want = ((assigns[:, i] == j) & (assigns[:, k] == l)).astype(float)
            if i == k:  # a diagonal slab holds its term at j = l only
                want *= j == l
            got = solvers._map_distortion_batch(table, cells, p)
            assert got.tolist() == want.tolist()


@pytest.mark.parametrize("p", [1, 1.5, 2, 3])
def test_term_table_holds_the_distortion_terms(p, monkeypatch):
    """The folded term table and ``distortion_map`` form each term by one
    rule: slab (i, i) holds the map's term t[i, i] bit for bit, and slab
    (i, k), i < k, the rounded sum of t[i, k] and t[k, i]."""
    import gromon.networks as networks_module

    seen = []

    def recording_sum(terms):
        seen.append(np.concatenate([b.ravel() for b in terms()]))
        return math.fsum(seen[-1].tolist())

    monkeypatch.setattr(networks_module, "_exact_sum", recording_sum)
    rng = np.random.default_rng([81, int(p * 2)])
    for n, m in ((1, 1), (3, 1), (4, 2), (6, 6), (7, 5), (9, 4)):
        for _ in range(4):  # surjective maps, so every target weight is positive
            a = rng.permutation(np.concatenate([np.arange(m), rng.integers(0, m, n - m)]))
            counts = rng.integers(1, 10, n)
            wx = counts / counts.sum()
            x = MeasureNetwork(wx, rng.uniform(-3, 3, (n, n)) * 10.0 ** rng.integers(-3, 4))
            y = MeasureNetwork(np.bincount(a, weights=wx, minlength=m),
                               rng.uniform(-3, 3, (m, m)))
            seen.clear()
            distortion_map(x, y, MongeMap(a), p)
            t = seen[0].reshape(n, n)
            table = solvers._term_table(x.omega, y.omega, x.weights, float(p)).reshape(-1, m, m)
            i, k = solvers._source_pairs(n)
            for s, (u, v) in enumerate(zip(i.tolist(), k.tolist())):
                want = t[u, u] if u == v else t[u, v] + t[v, u]
                assert table[s, a[u], a[v]].hex() == float(want).hex()


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


@pytest.mark.parametrize("source,target", [
    (np.full(7, 1 / 7), np.full(7, 1 / 7)),
    (np.full(7, 1 / 7), np.array([2, 2, 1, 1, 1]) / 7),
    (np.full(7, round(1 / 7, 10)), np.round(np.array([2, 1, 1, 1, 1, 1]) / 7, 10)),
], ids=["uniform", "rational", "decimal"])
def test_gm_value_is_its_witness_coupling_distortion(source, target):
    # 24 draws per shape include values where the terms
    # mismatch**p * (w[a] * w[b]) would round 1 ulp off the coupling's sum
    for k in range(24):
        p = (1, 2, 3, math.inf)[k % 4]
        net_x = MeasureNetwork(source, random_metric_network(source.size, [21, k, 0]).omega)
        net_y = MeasureNetwork(target, random_metric_network(target.size, [21, k, 1]).omega)
        report = gm_exact(net_x, net_y, p)
        pi = coupling_from_map(report.witness, source, target)
        assert report.value == distortion_p(net_x, net_y, pi, p)


def test_gm_value_is_the_exact_minimum():
    # the map [5 2 0 1 3 4] is 1 ulp below [4 2 0 1 3 5] exactly, but not in
    # a plain float64 sum
    u = np.full(6, 1 / 6)
    net_x = MeasureNetwork(u, random_metric_network(6, [16, 38, 0]).omega)
    net_y = MeasureNetwork(u, random_metric_network(6, [16, 38, 1]).omega)
    exact = min(distortion_map(net_x, net_y, phi, 1)
                for phi in enumerate_monge_maps(net_x.weights, net_y.weights))
    assert exact == 0.1432643190626279
    assert gm_exact(net_x, net_y, 1).value == exact


@pytest.mark.parametrize("p", [1, 1.5, 2, 3, math.inf])
@pytest.mark.parametrize("target", [
    np.full(6, 1 / 6), np.array([2, 2, 1, 1]) / 6,
    np.concatenate([np.array([2, 2, 1, 1]) / 6, np.full(6, 1e-12)])],
    ids=["uniform", "rational", "light"])
def test_gm_witness_is_the_first_exact_minimizer_on_ties(target, p, monkeypatch):
    """Integer tables tie many maps; the witness is the lexicographically
    first minimizer of distortion_map over every map, with its value.  The
    uniform and rational maps are scored from the grouped table.  The light
    target points make 10 of them, so the 180 maps read fewer terms than
    that table holds and are scored from their own terms."""
    source = np.full(6, 1 / 6)
    if target.size == 10:
        monkeypatch.setattr(solvers, "_term_table", refuse_table)
    maps = list(enumerate_monge_maps(source, target))
    tied = 0
    for k in range(6):
        net_x = MeasureNetwork(source, np.round(random_metric_network(6, [17, k, 0]).omega * 2))
        net_y = MeasureNetwork(target, np.round(
            random_metric_network(target.size, [17, k, 1]).omega * 2))
        values = [distortion_map(net_x, net_y, phi, p) for phi in maps]
        first = values.index(min(values))
        tied += values.count(values[first]) > 1
        report = gm_exact(net_x, net_y, p)
        assert report.witness.assignment.tolist() == maps[first].assignment.tolist()
        assert report.value.hex() == values[first].hex()
        assert report.iterations == len(maps)
    assert tied >= 2  # pairs on which several exact minimizers pass the screen


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


def test_fw_general_marginals_oracle(monkeypatch):
    # non-uniform, non-square: exercises the transportation simplex oracle
    net_x, net_y = weak_iso_pair()
    net_y2 = MeasureNetwork([0.5, 0.5], [[0, 1], [1, 0]])
    monkeypatch.setattr(solvers, "_FW_MAX_ITERS", 50)
    report = gw_frank_wolfe(net_x, net_y2)
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



class _FullWalkBasis(solvers._TransportBasis):
    """Reference copy of the transport simplex as it was before pivots
    re-hung only the cut subtree: every pivot walks the whole tree."""

    def solve(self, cost):
        n, m = self.n, self.m
        rows, cols, flow, adj = self.rows, self.cols, self.flow, self.adj
        max_pivots = solvers._PIVOTS_PER_CELL * n * m
        c = cost.tolist()
        tol = solvers._PRICE_ULPS * (n + m) * np.finfo(float).eps * float(np.abs(cost).max())
        for pivots in range(max_pivots + 1):
            pot = [0.0] * (n + m)
            up = [-1] * (n + m)
            parent = [-1] * (n + m)
            depth = [0] * (n + m)
            stack = [0]
            while stack:
                a = stack.pop()
                for s in adj[a]:
                    if s != up[a]:
                        b = n + cols[s] if a < n else rows[s]
                        up[b], parent[b], depth[b] = s, a, depth[a] + 1
                        pot[b] = c[rows[s]][cols[s]] - pot[a]
                        stack.append(b)
            pot_arr = np.array(pot)
            reduced = cost - pot_arr[:n, None] - pot_arr[None, n:]
            enter = int(reduced.argmin())
            if reduced.flat[enter] >= -tol:
                break
            if pivots == max_pivots:
                raise RuntimeError(f"transport simplex not optimal after {max_pivots} pivots")
            ie, je = divmod(enter, m)
            a, b = ie, n + je
            from_a, from_b = [], []
            while a != b:
                if depth[a] >= depth[b]:
                    from_a.append(up[a])
                    a = parent[a]
                else:
                    from_b.append(up[b])
                    b = parent[b]
            losing = from_a[0::2] + from_b[0::2]
            leave = min(losing, key=flow.__getitem__)
            theta = flow[leave]
            for s in losing:
                flow[s] -= theta
            for s in from_a[1::2] + from_b[1::2]:
                flow[s] += theta
            adj[rows[leave]].remove(leave)
            adj[n + cols[leave]].remove(leave)
            rows[leave], cols[leave], flow[leave] = ie, je, theta
            adj[ie].append(leave)
            adj[n + je].append(leave)
        vertex = np.zeros((n, m))
        vertex[rows, cols] = [(f + n) // self.K / self.den for f in flow]
        return vertex


@pytest.mark.parametrize("shape", TRANSPORT_SHAPES)
@pytest.mark.parametrize("seed", range(4))
def test_transport_subtree_pivots_match_full_walk(shape, seed):
    # every pivot, basis and vertex of a warm sequence is the full walk's
    first, wx, wy = transport_case(shape, seed)
    basis = solvers._TransportBasis(wx, wy, first)
    ref = _FullWalkBasis(wx, wy, first)
    for k in range(6):
        cost = transport_case(shape, seed + 2 * k)[0]
        got, want = basis.solve(cost), ref.solve(cost)
        assert (basis.rows, basis.cols, basis.flow) == (ref.rows, ref.cols, ref.flow)
        assert got.tobytes() == want.tobytes()


def test_fw_subtree_pivots_match_full_walk(monkeypatch):
    for x, y in _seeded_certify_pairs():
        for init in (None, random_coupling(x.weights, y.weights, [42, x.n])):
            got = gw_frank_wolfe(x, y, init=init)
            with monkeypatch.context() as mp:
                mp.setattr(solvers, "_TransportBasis", _FullWalkBasis)
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


def test_fw_without_steps_reports_the_start(monkeypatch):
    net = simplex_network(3)
    monkeypatch.setattr(solvers, "_FW_MAX_ITERS", 0)
    report = gw_frank_wolfe(net, net)
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


# -- the permutation rule of spd and m_iso -------------------------------------

# weights uniform within 1e-9, each 1.8e-9 from one of the other side's
EDGE_SOURCE = [1 / 3 + 0.9e-9, 1 / 3 - 0.9e-9, 1 / 3]
EDGE_TARGET = [1 / 3 - 0.9e-9, 1 / 3 + 0.9e-9, 1 / 3]


def test_ascent_rejects_near_uniform_weights_some_bijection_fails():
    table = [[2, 0.5, 0.1], [0.5, 2, 0.3], [0.1, 0.3, 2]]
    x, y = MeasureNetwork(EDGE_SOURCE, table), MeasureNetwork(EDGE_TARGET, table)
    with pytest.raises(NotMeasurePreservingError):
        check_measure_preserving(MongeMap([0, 1, 2]), x.weights, y.weights)
    assert gm_exact(x, y, 2).witness.assignment.tolist() == [1, 0, 2]
    with pytest.raises(ValueError, match="uniform"):
        gw_spd_vertex_ascent(x, y, restarts=3)


def edge_weight_pair(rng, n, m):
    """Weights 1/n and 1/m moved by k * 1e-10, k drawn from [-8, 8] but the
    last balancing the sum: uniform within, at or past the 1e-9 edge."""
    pair = []
    for size in (n, m):
        k = rng.integers(-8, 9, size)
        k[-1] -= k.sum()
        pair.append(np.full(size, 1.0 / size) + k * 1e-10)
    return pair


def every_bijection_measure_preserving(wx, wy):
    for sigma in itertools.permutations(range(wx.size)):
        try:
            check_measure_preserving(MongeMap(sigma), wx, wy)
        except NotMeasurePreservingError:
            return False
    return True


def test_permutation_pair_is_every_bijection_passing_the_checker():
    rng = np.random.default_rng(90)
    outcomes = []
    for _ in range(600):
        n = int(rng.integers(1, 6))
        wx, wy = edge_weight_pair(rng, n, n)
        outcomes.append(every_bijection_measure_preserving(wx, wy))
        assert solvers._permutation_pair(wx, wy) == outcomes[-1]
    assert 100 < sum(outcomes) < 500
    assert not solvers._permutation_pair(np.full(2, 0.5), np.full(3, 1 / 3))


def any_map_passes_the_checker(wx, wy):
    # every one of the n^m maps, its fibers summed in source order from 0.0
    # as check_measure_preserving's bincount sums them
    maps = np.array(list(itertools.product(range(wy.size), repeat=wx.size)))
    pushed = np.zeros((len(maps), wy.size))
    for i in range(wx.size):
        pushed[np.arange(len(maps)), maps[:, i]] += wx[i]
    return bool((np.abs(pushed - wy).max(axis=1) <= TOL_MASS).any())


def test_admission_of_uniform_equal_sizes_is_whether_any_map_passes_the_checker():
    # weights 1/n moved by k * 1e-10, k in [-10, 10], unbalanced so that
    # pairs without a map are common
    rng = np.random.default_rng(93)
    outcomes = []
    for _ in range(1500):
        n = int(rng.integers(1, 6))
        wx, wy = (np.full(n, 1.0 / n) + rng.integers(-10, 11, n) * 1e-10 for _ in range(2))
        may_exist, bound = solvers._admission(wx, wy)
        if bound is None:  # not uniform within TOL_MASS
            continue
        outcomes.append(any_map_passes_the_checker(wx, wy))
        assert may_exist == (bound > 0) == outcomes[-1]
    assert len(outcomes) > 1000 and 100 < outcomes.count(False) < len(outcomes) - 100


def test_admission_at_equal_sizes_is_whether_any_map_passes_the_checker():
    # weights of 1 to 4 counts, the target a shuffled copy moved by
    # k * 1e-10 (the last k balancing the sum), at or past the 1e-9 edge; in
    # a quarter of the draws one target weight shrinks to at most 2e-9 and
    # gives the rest to its neighbour, and there empty fibers may pass
    rng = np.random.default_rng(94)
    decided, missed = [], 0
    for _ in range(1500):
        n = int(rng.integers(1, 6))
        counts = rng.integers(1, 5, n)
        wx = counts / counts.sum()
        k = rng.integers(-8, 9, n)
        k[-1] -= k.sum()
        wy = rng.permutation(wx) + k * 1e-10
        if n > 1 and rng.random() < 0.25:
            j = int(rng.integers(n))
            tiny = float(rng.choice([1e-10, 5e-10, 1e-9, 2e-9]))
            wy[(j + 1) % n] += wy[j] - tiny
            wy[j] = tiny
        paired = solvers._admission(wx, wy)[0]
        if wy.min() <= TOL_MASS:
            assert paired is None
            # a map sorted pairing would deny, one fiber empty
            missed += (any_map_passes_the_checker(wx, wy)
                       and np.abs(np.sort(wx) - np.sort(wy)).max() > TOL_MASS)
        else:
            decided.append(any_map_passes_the_checker(wx, wy))
            assert paired == decided[-1]
    assert len(decided) > 1000 and 100 < decided.count(False) < len(decided) - 100
    assert missed > 50
    # unequal sizes, not uniform: only enumeration can tell
    assert solvers._admission(np.array([0.25, 0.75]), np.array([0.2, 0.3, 0.5])) == (None, None)


def test_equal_sizes_decide_existence_without_enumerating(monkeypatch):
    # 500 non-uniform weights against a shuffled copy: the enumerator's
    # first map took seconds at 16 points and all memory here
    def refuse(*args):
        raise AssertionError("enumerated a pair of equal size")

    monkeypatch.setattr(solvers, "_assignment_blocks", refuse)
    rng = np.random.default_rng(95)
    wx = rng.random(500) + 0.5
    wx /= wx.sum()
    wy = rng.permutation(wx)
    points = rng.standard_normal((500, 2))
    with pytest.raises(ValueError, match="unsupported weighting"):
        m_iso(EuclideanCloud(points, wx), EuclideanCloud(points, wy))
    wy[:2] += [2e-9, -2e-9]  # now no bijection, and so no map, passes
    report = m_iso(EuclideanCloud(points, wx), EuclideanCloud(points, wy))
    assert (report.value, report.witness, report.iterations) == (math.inf, None, 0)
    zeros = np.zeros((500, 500))
    report = gm_exact(MeasureNetwork(wx, zeros), MeasureNetwork(wy, zeros), 2)
    assert (report.value, report.witness, report.iterations, report.converged) == \
        (math.inf, None, 0, True)


def test_miso_refuses_a_near_uniform_pair_past_the_closed_form():
    # 200 010 points onto 20: fibers of 10 001 and of 10 000 points, each
    # point weighing (1/20)/k, within 1e-9 of 1/n.  20 does not divide
    # 200 010, yet the checker accepts this map: past n*m*(n+3) <= 1e9 the
    # point counts rule no map out
    k = np.repeat([10_001, 10_000], 10)
    assign = np.repeat(np.arange(20), k)
    wx, wy = (1 / 20) / k[assign], np.full(20, 1 / 20)
    check_measure_preserving(MongeMap(assign), wx, wy)
    x = EuclideanCloud(np.arange(wx.size, dtype=float)[:, None], wx)
    y = EuclideanCloud(np.arange(20, dtype=float)[:, None], wy)
    with pytest.raises(ValueError, match="unsupported weighting"):
        m_iso(x, y)


def shuffled_pair_off_by_5e_9():
    # 16 weights and a shuffled copy, two of its entries moved by 5e-9
    rng = np.random.default_rng(16)
    w = rng.uniform(0.05, 2, 16)
    w /= w.sum()
    v = rng.permutation(w)
    v[:2] += [5e-9, -5e-9]
    return w, v


@pytest.mark.parametrize("pair", [shuffled_pair_off_by_5e_9(),
                                  (np.full(25, 1 / 25), np.full(4, 1 / 4))],
                         ids=["16-16", "uniform-25-4"])
def test_enumerate_is_empty_at_once_where_the_weights_rule_maps_out(pair, monkeypatch):
    # the enumerator took minutes to find no map on both
    def refuse(*args):
        raise AssertionError("enumerated a pair without maps")

    monkeypatch.setattr(solvers, "_assignment_blocks", refuse)
    assert list(enumerate_monge_maps(*pair)) == []


def test_admission_bounds_the_accepted_maps():
    rng = np.random.default_rng(91)
    strict = 0
    for _ in range(400):
        n, m = (int(k) for k in rng.integers(1, 6, 2))
        wx, wy = edge_weight_pair(rng, n, m)
        total = solvers._admission(wx, wy)[1]
        if total is None:
            continue
        # the enumerator itself: enumerate_monge_maps reads _admission first
        count = sum(len(block) for block in solvers._assignment_blocks(wx, wy))
        assert count <= total
        if total == 0 or solvers._permutation_pair(wx, wy):
            assert count == total
        strict += count < total
    assert strict > 0


def test_permutation_solvers_return_only_measure_preserving_witnesses():
    rng = np.random.default_rng(92)
    points = np.array([[0.0], [1.0], [3.0], [7.0], [15.0]])
    refused = witnesses = 0
    for _ in range(200):
        n = int(rng.integers(1, 6))
        wx, wy = edge_weight_pair(rng, n, n)
        table = random_spd_network(n, [92, n]).omega
        try:
            report = gw_spd_vertex_ascent(MeasureNetwork(wx, table),
                                          MeasureNetwork(wy, table), restarts=2)
            check_measure_preserving(report.witness, wx, wy)
            witnesses += 1
        except ValueError as err:
            assert "weights must be uniform" in str(err)
            refused += 1
        try:
            report = m_iso(EuclideanCloud(points[:n], wx), EuclideanCloud(points[:n], wy),
                           restarts=2)
        except ValueError as err:
            assert "unsupported weighting" in str(err)
            continue
        if report.witness is not None:
            check_measure_preserving(report.witness, wx, wy)
    assert refused and witnesses


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 24])
def test_swap_gains_match_brute_force(n, symmetric):
    rng = np.random.default_rng([33, n, int(symmetric)])
    omx = rng.normal(size=(n, n))
    c = rng.normal(size=(n, n)) * 3.0
    if symmetric:
        omx, c = omx + omx.T, c + c.T
    gains = solvers._swap_gains(solvers._swap_h(omx), c, omx @ c.T + omx.T @ c)
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


def test_ascent_scans_each_permutation_once(monkeypatch):
    scanned = []
    swap_gains = solvers._swap_gains

    def recording(hx, c, cross):
        scanned.append(c.copy())
        return swap_gains(hx, c, cross)

    monkeypatch.setattr(solvers, "_swap_gains", recording)
    # from the identity this pair makes one move, a jump: a swap would need
    # a second scan to end the ascent
    x, y = random_spd_network(5, [35, 5, 2, 0]), random_spd_network(5, [35, 5, 2, 1])
    sigma0 = np.arange(5, dtype=np.intp)
    sigma, val, moves = solvers._ascend(x.omega, y.omega, sigma0)
    assert (moves, len(scanned)) == (1, 1)
    want = _ascend_reference(x.omega, y.omega, sigma0)
    assert np.array_equal(sigma, want[0]) and (val, moves) == want[1:]
    for x, y in _spd_pairs():
        scanned.clear()
        solvers._ascend(x.omega, y.omega, np.arange(x.n, dtype=np.intp))
        assert not any(np.array_equal(a, b) for a, b in zip(scanned, scanned[1:]))


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


def _graph_match_pairs():
    """Heat kernels of G(24, 0.3) graphs and of a hidden relabeling."""
    for k in range(3):
        g = random_graph(24, [37, k], edge_prob=0.3)
        perm = np.random.default_rng([37, k]).permutation(24)
        h = Graph(24, tuple((int(perm[a]), int(perm[b])) for a, b in g.edges))
        yield heat_kernel_network(g, 1.0), heat_kernel_network(h, 1.0)


def _asymmetric_pairs():
    for n in (3, 8, 17):
        for k in range(3):
            rng = np.random.default_rng([38, n, k])
            yield (MeasureNetwork(np.full(n, 1 / n), rng.normal(size=(n, n))),
                   MeasureNetwork(np.full(n, 1 / n), rng.normal(size=(n, n)) * 5.0))


@pytest.mark.filterwarnings("ignore:.*near-singular")
@pytest.mark.parametrize("pairs", [_spd_pairs, _tie_heavy_pairs, _asymmetric_pairs])
def test_ascent_cross_term_from_gradient_is_within_slack(pairs, monkeypatch):
    # the scan reads omx c^T + omx^T c off the jump loop's last gradient;
    # it may differ from the two products formed on c only by rounding that
    # the screen's slack covers
    scans, swap_gains = [], solvers._swap_gains
    monkeypatch.setattr(solvers, "_swap_gains",
                        lambda hx, c, cross: scans.append((hx, c, cross)) or swap_gains(hx, c, cross))
    eps = np.finfo(float).eps
    bit_equal = 0
    for x, y in pairs():
        omx, omy, n = x.omega, y.omega, x.n
        slack = 4.0 * (n + 2) ** 4 * eps * float(np.abs(omx).max() * np.abs(omy).max())
        scans.clear()
        for r in range(3):
            sigma0 = np.random.default_rng([39, r]).permutation(n).astype(np.intp)
            solvers._ascend(omx, omy, sigma0)
        assert len(scans) >= 3
        for hx, c, cross in scans:
            assert np.array_equal(hx, solvers._swap_h(omx))
            want = omx @ c.T + omx.T @ c
            bit_equal += np.array_equal(cross, want)
            delta = solvers._swap_h(cross) - solvers._swap_h(want)
            assert np.abs(delta).max() <= slack
    assert bit_equal > 0


@pytest.mark.filterwarnings("ignore:.*near-singular")
@pytest.mark.parametrize("pairs", [_spd_pairs, _tie_heavy_pairs, _graph_match_pairs])
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
