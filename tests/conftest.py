import os

import hypothesis.strategies as st
import numpy as np

import gromon
from gromon import MeasureNetwork

# the directory holding the imported package, absolute, so a child process
# finds gromon from any working directory even under PYTHONPATH=src
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(gromon.__file__)))


def child_env(env=None):
    """This process's environment with PACKAGE_ROOT first on PYTHONPATH,
    updated by ``env``."""
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, full_env.get("PYTHONPATH")) if p)
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
