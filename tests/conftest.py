import hypothesis.strategies as st
import numpy as np
from hypothesis import settings

from gromon import MeasureNetwork
from gromon.acceptance import _cli_env
from gromon.randgen import random_metric_network

# Every run draws the same examples, so a rare draw cannot pass one run and
# fail the next; per-test settings still choose how many.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def child_env(env=None):
    """The environment of a ``python -m gromon`` child in any working
    directory (``acceptance._cli_env``), updated by ``env``."""
    full_env = _cli_env()
    if env:
        full_env.update(env)
    return full_env


@st.composite
def networks(draw, max_n=5, symmetric=False):
    """Small measure networks with rational weights and quarter-integer tables."""
    n = draw(st.integers(1, max_n))
    counts = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    w = np.array(counts, dtype=float)
    w /= w.sum()
    vals = draw(st.lists(st.integers(-8, 8), min_size=n * n, max_size=n * n))
    omega = np.array(vals, dtype=float).reshape(n, n) / 4.0
    if symmetric:
        omega = (omega + omega.T) / 2.0
    return MeasureNetwork(w, omega)


@st.composite
def uniform_network_pairs(draw, max_n=5):
    """Two uniform networks on the same point count (maps always exist)."""
    n = draw(st.integers(1, max_n))
    w = np.full(n, 1.0 / n)
    tables = []
    for _ in range(2):
        vals = draw(st.lists(st.integers(-8, 8), min_size=n * n, max_size=n * n))
        tables.append(np.array(vals, dtype=float).reshape(n, n) / 4.0)
    return MeasureNetwork(w, tables[0]), MeasureNetwork(w, tables[1])


def relabeled(net, sigma):
    sigma = np.asarray(sigma, dtype=np.intp)
    return MeasureNetwork(net.weights[sigma], net.omega[np.ix_(sigma, sigma)])


def near_equal_small_pair():
    """Two-point networks whose small weights, 1/999999 and 1e-6, differ by
    about 1e-12: the identity is measure preserving within 1e-9."""
    x = MeasureNetwork([1 / 999999, 1 - 1 / 999999], [[0, 1], [2, 0]])
    y = MeasureNetwork([1e-6, 1 - 1e-6], [[0, 1], [1, 0]])
    return x, y


def skewed_pair(seed):
    """A seeded 5- and 4-point metric pair whose weights sum to 1 + 0.9e-9
    and 1 - 0.9e-9: both valid, their totals 1.8e-9 apart."""
    rng = np.random.default_rng([40, seed])
    nets = []
    for n, scale in ((5, 1 + 0.9e-9), (4, 1 - 0.9e-9)):
        w = rng.random(n) + 0.1
        nets.append(MeasureNetwork(w / w.sum() * scale,
                                   random_metric_network(n, [40, seed, n]).omega))
    return nets


def split_miss_pair():
    """Two networks and a valid coupling of them, hex-pinned: weights
    rescaled by 1 +- 0.9e-9 and cells moved by +-0.2e-9, so the coupling is
    valid but its renormalized split misses the source weights by 1.26e-9
    > TOL_MASS."""
    h = float.fromhex
    wx = [h(v) for v in ("0x1.1fc031dfaf686p-2", "0x1.95195673bda4dp-4",
                         "0x1.60ae1175a03d9p-3", "0x1.caa26fcc3972bp-2")]
    wy = [h("0x1.2843bd70556cfp-3"), h("0x1.b5ef109d112cbp-1")]
    table = [[h("0x1.4d025dca6f30cp-5"), h("0x1.ec3fcc3c6adabp-3")],
             [h("0x1.d4d07d0316c25p-7"), h("0x1.5a7f46be1310ep-4")],
             [h("0x1.98269689273cap-6"), h("0x1.2da93e990b097p-3")],
             [h("0x1.0962968819e44p-4"), h("0x1.8849ca1c56cd5p-2")]]
    x = MeasureNetwork(wx, random_metric_network(4, [12, 0]).omega)
    y = MeasureNetwork(wy, random_metric_network(2, [12, 1]).omega)
    return x, y, table
