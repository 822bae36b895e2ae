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
