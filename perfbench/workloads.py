"""The benchmark's five workloads.

Each workload builds a pool of seeded instances from ``gromon.randgen`` when
it is constructed (set-up), solves pool entry ``i`` in ``op(i)`` (timed), and
judges the result in ``check(i, result)`` (untimed) against references
computed here, independently of the solver under test where the check asks
for it.  Solver calls go through module attributes at call time, so the
traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys

import numpy as np

from gromon import cli, euclidean, graphs, networks, randgen, serialize, solvers

# Pool sizes exceed the ops one part of a run completes with the current solvers,
# so each timed op solves a fresh instance; a faster program cycles the pool.
SIZES = {
    "full": {
        "graph_n": 24, "graph_pool": 240,
        "cloud_n": 100, "cloud_pool": 480,
        "enum_uniform_n": 7, "enum_rational_counts": (2, 2, 1, 1, 1),
        "enum_float_counts": (2, 1, 1, 1, 1, 1), "enum_pool": 720,
        "certify_n": 26, "certify_m": 22, "certify_pool": 120,
        "cli_n": 6,
    },
    "tiny": {
        "graph_n": 6, "graph_pool": 6,
        "cloud_n": 8, "cloud_pool": 6,
        "enum_uniform_n": 4, "enum_rational_counts": (2, 1, 1),
        "enum_float_counts": (2, 1), "enum_pool": 6,
        "certify_n": 5, "certify_m": 4, "certify_pool": 6,
        "cli_n": 3,
    },
}

EXPONENTS = (1.0, 2.0, math.inf)


def _rng(seed, *key) -> np.random.Generator:
    return randgen._rng([seed, *key])


# -- independent references used by the checks -------------------------------

def brute_force_gm(omx: np.ndarray, omy: np.ndarray, w: np.ndarray,
                   maps: np.ndarray, p: float) -> float:
    """Exact GM value by scoring every listed map with plain numpy."""
    best = math.inf
    for lo in range(0, len(maps), 2048):
        chunk = maps[lo:lo + 2048]
        diff = np.abs(omx[None, :, :] - omy[chunk[:, :, None], chunk[:, None, :]])
        if math.isinf(p):
            best = min(best, float(diff.max(axis=(1, 2)).min()))
        else:
            best = min(best, float(np.einsum("bik,i,k->b", diff ** p, w, w).min()))
    return best if math.isinf(p) else best ** (1.0 / p)


def all_maps(counts) -> np.ndarray:
    """Every assignment whose fiber sizes are ``counts``, in lexicographic order."""
    n, left, current, out = sum(counts), list(counts), [], []

    def extend() -> None:
        if len(current) == n:
            out.append(list(current))
            return
        for j, c in enumerate(left):
            if c:
                left[j] -= 1
                current.append(j)
                extend()
                current.pop()
                left[j] += 1

    extend()
    return np.array(out, dtype=np.intp)


def identity_distortion(omx: np.ndarray, omy: np.ndarray) -> float:
    """Order-2 distortion of the identity map between uniform networks."""
    n = omx.shape[0]
    return math.sqrt(math.fsum(((omx - omy) ** 2).ravel().tolist()) / (n * n))


def product_distortion2(x: networks.MeasureNetwork, y: networks.MeasureNetwork) -> float:
    """Order-2 distortion of the product coupling, by the square-loss expansion."""
    wx, wy = x.weights, y.weights
    sq = (wx @ x.omega**2 @ wx) + (wy @ y.omega**2 @ wy) - 2.0 * (wx @ x.omega @ wx) * (wy @ y.omega @ wy)
    return math.sqrt(max(float(sq), 0.0))


def registration_value(x, y, phi: np.ndarray, iso, p: float) -> float:
    """Isometry-matching cost of a map and a rigid motion, recomputed."""
    residual = x.points @ iso.rotation.T + iso.translation - y.points[phi]
    lengths = np.sqrt((residual * residual).sum(axis=1))
    return math.fsum((x.weights * lengths ** p).tolist()) ** (1.0 / p)


def cli_reference(argv: list[str]) -> tuple[int, bytes]:
    """Exit code and stdout of the same CLI call, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue().encode("utf-8")


# -- workloads ------------------------------------------------------------------

class GraphMatch:
    """Heat kernels of a G(n, 0.3) graph and of a hidden relabeling, matched
    by SPD vertex ascent with 5 restarts."""

    planted = True

    def __init__(self, seed: int, size: dict, workdir: str):
        n = size["graph_n"]
        self.pool = []
        for k in range(size["graph_pool"]):
            g = randgen.random_graph(n, [seed, 1, k], edge_prob=0.3)
            perm = _rng(seed, 2, k).permutation(n)
            h = graphs.Graph(n, tuple((int(perm[a]), int(perm[b])) for a, b in g.edges))
            self.pool.append((g, h, perm))

    def op(self, i: int):
        g, h, _ = self.pool[i % len(self.pool)]
        x = graphs.heat_kernel_network(g, 1.0)
        y = graphs.heat_kernel_network(h, 1.0)
        return x, y, solvers.gw_spd_vertex_ascent(x, y, restarts=5, seed=i % len(self.pool))

    def check(self, i: int, result) -> bool:
        x, y, report = result
        a = report.witness.assignment
        is_perm = np.array_equal(np.sort(a), np.arange(x.n))
        return is_perm and report.value <= identity_distortion(x.omega, y.omega) + 1e-12

    def hit(self, i: int, result) -> bool:
        # the planted relabeling up to a graph automorphism: edges map onto edges
        g, h, _ = self.pool[i % len(self.pool)]
        a = result[2].witness.assignment
        mapped = {tuple(sorted((int(a[u]), int(a[v])))) for u, v in g.edges}
        return mapped == set(h.edges)


class CloudRegister:
    """m_iso (p=2, 10 restarts) of a Gaussian cloud against a rigidly moved,
    shuffled copy with noise 0.02."""

    planted = True

    def __init__(self, seed: int, size: dict, workdir: str):
        n = size["cloud_n"]
        self.pool = []
        for k in range(size["cloud_pool"]):
            x = randgen.random_cloud(n, 3, [seed, 3, k])
            iso = randgen.random_isometry(3, [seed, 4, k])
            perm = _rng(seed, 5, k).permutation(n)
            points = np.empty_like(x.points)
            points[perm] = iso.apply(x.points) + 0.02 * _rng(seed, 6, k).standard_normal((n, 3))
            self.pool.append((x, euclidean.EuclideanCloud(points, x.weights), perm))

    def op(self, i: int):
        x, y, _ = self.pool[i % len(self.pool)]
        return euclidean.m_iso(x, y, p=2, restarts=10, seed=i % len(self.pool))

    def check(self, i: int, report) -> bool:
        x, y, _ = self.pool[i % len(self.pool)]
        value = registration_value(x, y, report.witness.assignment, report.transform, 2.0)
        return abs(value - report.value) <= 1e-12

    def hit(self, i: int, report) -> bool:
        return bool(np.array_equal(report.witness.assignment, self.pool[i % len(self.pool)][2]))


class GmEnum:
    """gm_exact cycling p over {1, 2, inf} and three weight shapes of similar
    cost: uniform bijections, rational weights onto fewer points, and the
    same kind of weights written as 10-digit decimals, which miss the exact
    rational path and take the float enumerator."""

    planted = False

    def __init__(self, seed: int, size: dict, workdir: str):
        nu, rational, decimal = (size["enum_uniform_n"], size["enum_rational_counts"],
                                 size["enum_float_counts"])
        nr, nd = sum(rational), sum(decimal)
        # (source weights, target weights, target fiber sizes), one per shape
        self.shapes = (
            (np.full(nu, 1.0 / nu), np.full(nu, 1.0 / nu), (1,) * nu),
            (np.full(nr, 1.0 / nr), np.array(rational) / nr, rational),
            (np.full(nd, round(1.0 / nd, 10)), np.round(np.array(decimal) / nd, 10), decimal),
        )
        self.pool = []
        for k in range(size["enum_pool"]):
            wx, wy, _ = self.shapes[k % 3]
            x = randgen.random_metric_network(wx.size, [seed, 7, k])
            y = randgen.random_metric_network(wy.size, [seed, 8, k])
            self.pool.append((networks.MeasureNetwork(wx, x.omega),
                              networks.MeasureNetwork(wy, y.omega)))
        self._maps: dict[int, np.ndarray] = {}

    @staticmethod
    def exponent(i: int) -> float:
        # the pool size is a multiple of 3, so entry i has shape i % 3
        return EXPONENTS[(i // 3) % 3]

    def op(self, i: int):
        x, y = self.pool[i % len(self.pool)]
        return solvers.gm_exact(x, y, self.exponent(i))

    def check(self, i: int, report) -> bool:
        x, y = self.pool[i % len(self.pool)]
        shape = i % 3
        if shape not in self._maps:
            self._maps[shape] = all_maps(self.shapes[shape][2])
        a = report.witness.assignment
        if a.size != x.n or a.min() < 0 or a.max() >= y.n:
            return False
        pushed = np.bincount(a, weights=x.weights, minlength=y.n)
        if np.abs(pushed - y.weights).max() > 1e-9:
            return False
        best = brute_force_gm(x.omega, y.omega, x.weights, self._maps[shape], self.exponent(i))
        return abs(best - report.value) <= 1e-10


class GwCertify:
    """Frank-Wolfe on metric networks with small-integer weights (transport-LP
    oracle), then distortion_p and gm_over_split at p in {1, 2, inf} of the FW
    witness and of a seeded full-support coupling."""

    planted = False

    def __init__(self, seed: int, size: dict, workdir: str):
        self.pool = []
        for k in range(size["certify_pool"]):
            nets = []
            for n, tag in ((size["certify_n"], 9), (size["certify_m"], 10)):
                counts = _rng(seed, tag, k).integers(1, 5, size=n)
                omega = randgen.random_metric_network(n, [seed, tag + 2, k]).omega
                nets.append(networks.MeasureNetwork(counts / counts.sum(), omega))
            x, y = nets
            pi = randgen.random_coupling(x.weights, y.weights, [seed, 13, k])
            self.pool.append((x, y, pi))

    def op(self, i: int):
        x, y, pi = self.pool[i % len(self.pool)]
        fw = solvers.gw_frank_wolfe(x, y)
        pairs = [(networks.distortion_p(x, y, c, p), solvers.gm_over_split(x, y, c, p))
                 for c in (fw.witness, pi) for p in EXPONENTS]
        return fw, pairs

    def check(self, i: int, result) -> bool:
        x, y, _ = self.pool[i % len(self.pool)]
        fw, pairs = result
        split_ok = all(abs(s - d) <= 1e-10 for d, s in pairs)
        below_product = fw.value <= product_distortion2(x, y) + 1e-12
        descending = all(b <= a + 1e-12 for a, b in zip(fw.trace, fw.trace[1:]))
        return split_ok and below_product and descending


class CliCalls:
    """A closed loop of ``python -m gromon`` calls on small instances."""

    planted = False

    def __init__(self, seed: int, size: dict, workdir: str):
        n = size["cli_n"]
        self.workdir = workdir

        def path(name: str) -> str:
            return os.path.join(workdir, name)

        a = randgen.random_metric_network(n, [seed, 14, 0])
        b = randgen.random_metric_network(n, [seed, 14, 1])
        serialize.save_network(path("a.json"), a)
        serialize.save_network(path("b.json"), b)
        serialize.save_network(path("big.json"), randgen.random_metric_network(3, [seed, 14, 2]))
        serialize.save_network(path("small.json"), randgen.random_metric_network(2, [seed, 14, 3]))
        serialize.save_network(path("spd_a.json"), randgen.random_spd_network(n, [seed, 15, 0]))
        serialize.save_network(path("spd_b.json"), randgen.random_spd_network(n, [seed, 15, 1]))
        serialize.save_cloud(path("cloud_a.json"), randgen.random_cloud(2 * n, 2, [seed, 16, 0]))
        serialize.save_cloud(path("cloud_b.json"), randgen.random_cloud(2 * n, 2, [seed, 16, 1]))
        serialize.save_graph(path("graph.json"), randgen.random_graph(n + 2, [seed, 17], 0.5))
        pi = randgen.random_coupling(a.weights, b.weights, [seed, 18])
        serialize.save_text(path("pi.json"), serialize.dumps_canonical(serialize.coupling_to_dict(pi)))
        s = str(seed)
        # (subcommand, argv, expected exit code); 3 points have no measure-
        # preserving map onto 2 uniform points, so that gm call exits 2.
        self.pool = [
            ("gm", ["gm", path("a.json"), path("b.json"), "--p", "1"], 0),
            ("gm", ["gm", path("big.json"), path("small.json"), "--p", "2"], 2),
            ("gw", ["gw", path("a.json"), path("b.json")], 0),
            ("spd", ["spd", path("spd_a.json"), path("spd_b.json"), "--restarts", "3", "--seed", s], 0),
            ("miso", ["miso", path("cloud_a.json"), path("cloud_b.json"), "--restarts", "3", "--seed", s], 0),
            ("heat", ["heat", path("graph.json"), "--t", "1.0"], 0),
            ("split", ["split", path("a.json"), path("b.json"), path("pi.json"), "--p", "2"], 0),
            ("rand", ["rand", "--kind", "metric", "--n", str(n), "--seed", s, "--out", path("r.json")], 0),
        ]
        self._first: dict[int, bytes] = {}
        self._reference: dict[int, tuple[int, bytes]] = {}

    def subcommand(self, i: int) -> str:
        return self.pool[i % len(self.pool)][0]

    def op(self, i: int):
        argv = self.pool[i % len(self.pool)][1]
        proc = subprocess.run([sys.executable, "-m", "gromon", *argv], cwd=self.workdir,
                              capture_output=True, check=False)
        return proc.returncode, proc.stdout

    def check(self, i: int, result) -> bool:
        k = i % len(self.pool)
        _, argv, expected = self.pool[k]
        code, stdout = result
        if k not in self._reference:
            self._reference[k] = cli_reference(argv)
        repeat_ok = self._first.setdefault(k, stdout) == stdout
        return code == expected and repeat_ok and self._reference[k] == (code, stdout)


WORKLOADS = {
    "graph_match": GraphMatch,
    "cloud_register": CloudRegister,
    "gm_enum": GmEnum,
    "gw_certify": GwCertify,
    "cli_calls": CliCalls,
}
