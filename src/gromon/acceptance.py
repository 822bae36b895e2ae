"""Acceptance suite: every release gate in one runnable module.

Each criterion is a deterministic function (fixed seeds, pinned tolerances)
returning a :class:`CriterionResult`; ``run_all`` executes them in order and
prints one pass/fail line each.  The checks compare solver output against
closed forms and independent oracles (exhaustive permutation search, direct
quadruple sums, LP minimization), never against the code path under test.
"""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import LinearConstraint, linprog, minimize

from .euclidean import (
    EuclideanCloud,
    cloud_to_network,
    gm_em_infinity,
    m_iso,
    simplex_point_embedding_value,
)
from .graphs import Graph, heat_kernel_network
from .networks import (
    Coupling,
    MeasureNetwork,
    MongeMap,
    coupling_from_map,
    distortion_map,
    distortion_p,
    one_point_network,
    product_coupling,
    simplex_network,
    size_p,
)
from .randgen import (
    random_cloud,
    random_isometry,
    random_metric_network,
    random_spd_network,
    _rng,
)
from .solvers import (
    gm_exact,
    gw_frank_wolfe,
    gw_spd_vertex_ascent,
    mass_split_from_coupling,
)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


class _Check:
    """Collects deviations; passes while every recorded deviation is within bounds."""

    def __init__(self):
        self.worst = 0.0
        self.failures: list[str] = []
        self.count = 0

    def within(self, actual: float, expected: float, tol: float, label: str) -> None:
        dev = abs(actual - expected)
        self.count += 1
        self.worst = max(self.worst, dev)
        if not dev <= tol:
            self.failures.append(f"{label}: |{actual!r} - {expected!r}| = {dev:.3e} > {tol:g}")

    def holds(self, ok: bool, label: str) -> None:
        self.count += 1
        if not ok:
            self.failures.append(label)

    def result(self, name: str, started: float, extra: str = "") -> CriterionResult:
        elapsed = time.perf_counter() - started
        if self.failures:
            detail = "; ".join(self.failures[:4])
            if len(self.failures) > 4:
                detail += f"; ... {len(self.failures)} failures total"
        else:
            detail = f"{self.count} checks, worst deviation {self.worst:.2e}"
            if extra:
                detail += f", {extra}"
        return CriterionResult(name, not self.failures, detail, elapsed)


# ---------------------------------------------------------------------------
# shared oracles
# ---------------------------------------------------------------------------

def _best_permutation_brute(omx: np.ndarray, omy: np.ndarray) -> tuple[np.ndarray, float]:
    """Exhaustive order-2 distortion minimum over all permutations (uniform weights)."""
    n = omx.shape[0]
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    pulled = omy[perms[:, :, None], perms[:, None, :]]
    d2 = ((omx[None, :, :] - pulled) ** 2).sum(axis=(1, 2)) / n**2
    b = int(np.argmin(d2))
    return perms[b], math.sqrt(max(float(d2[b]), 0.0))


def _random_coupling_batch(n: int, count: int, rng: np.random.Generator,
                           iters: int = 300, tol: float = 1e-12) -> np.ndarray:
    """Positive random tables pushed onto uniform marginals by alternating scaling."""
    w = 1.0 / n
    t = rng.uniform(0.5, 1.5, size=(count, n, n))
    for _ in range(iters):
        t *= w / t.sum(axis=2, keepdims=True)
        t *= w / t.sum(axis=1, keepdims=True)
        if np.abs(t.sum(axis=2) - w).max() <= tol:
            break
    t *= w / t.sum(axis=2, keepdims=True)
    return t


def _dis2_uniform_batch(omx: np.ndarray, omy: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """Order-2 distortion of many couplings at once (symmetric tables, uniform weights)."""
    n = omx.shape[0]
    cx = float((omx**2).sum()) / n**2
    cy = float((omy**2).sum()) / n**2
    cross = np.einsum("bij,bij->b", tables, np.matmul(np.matmul(omx, tables), omy))
    return np.sqrt(np.clip(cx + cy - 2.0 * cross, 0.0, None))


def _permuted(net: MeasureNetwork, sigma: np.ndarray) -> MeasureNetwork:
    return MeasureNetwork(net.weights[sigma], net.omega[np.ix_(sigma, sigma)])


def _weak_iso_pair() -> tuple[MeasureNetwork, MeasureNetwork, Coupling]:
    """Weakly isomorphic 3-point pair admitting a zero-distortion coupling but
    no zero-distortion map, plus that coupling."""
    net_x = MeasureNetwork([0.5, 0.25, 0.25],
                           [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    net_y = MeasureNetwork([0.25, 0.25, 0.5],
                           [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    table = [[0.25, 0.25, 0.0], [0.0, 0.0, 0.25], [0.0, 0.0, 0.25]]
    return net_x, net_y, Coupling(table, net_x.weights, net_y.weights)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def criterion_simplex_family() -> CriterionResult:
    """gm over the uniform 2-to-1 simplex family matches (2n)^(-1/p)."""
    started = time.perf_counter()
    chk = _Check()
    for n in (1, 2, 3, 4):
        big, small = simplex_network(2 * n), simplex_network(n)
        for p in (1, 2):
            got = gm_exact(big, small, p).value
            chk.within(got, (2 * n) ** (-1.0 / p), 1e-9, f"gm(n={n}, p={p})")
    elapsed = time.perf_counter() - started
    chk.holds(elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s budget")
    return chk.result("simplex family closed form", started)


def criterion_size_identity() -> CriterionResult:
    """size_p equals gm against the one-point space equals (1 - 1/n)^(1/p)."""
    started = time.perf_counter()
    chk = _Check()
    point = one_point_network()
    for n in range(2, 11):
        net = simplex_network(n)
        for p in (1, 2):
            expected = (1.0 - 1.0 / n) ** (1.0 / p)
            chk.within(size_p(net, p), expected, 1e-12, f"size(n={n}, p={p})")
            chk.within(gm_exact(net, point, p).value, expected, 1e-12,
                       f"gm-to-point(n={n}, p={p})")
    return chk.result("p-size identity", started)


def criterion_point_vs_pair() -> CriterionResult:
    """One point vs two points: unique coupling value, infeasible gm, mass split."""
    started = time.perf_counter()
    chk = _Check()
    net_x = one_point_network()
    net_y = simplex_network(2)
    pi = product_coupling(net_x, net_y)
    for p in (1, 2):
        expected = 2.0 ** (-1.0 / p)
        chk.within(distortion_p(net_x, net_y, pi, p), expected, 1e-12,
                   f"coupling distortion(p={p})")
        split = mass_split_from_coupling(net_x, net_y, pi)
        chk.within(distortion_map(split.Z, net_y, split.phi, p), expected, 1e-12,
                   f"split distortion(p={p})")
    for p in (1, 2):
        chk.holds(math.isinf(gm_exact(net_x, net_y, p).value),
                  f"gm(p={p}) should be infinite")
    return chk.result("one point vs two points", started)


def criterion_weak_iso_gap() -> CriterionResult:
    """Weakly isomorphic pair: gm = sqrt(1/2) while a coupling reaches 0."""
    started = time.perf_counter()
    chk = _Check()
    net_x, net_y, pi = _weak_iso_pair()
    chk.within(gm_exact(net_x, net_y, 2).value, math.sqrt(0.5), 1e-9, "gm_2")
    chk.within(distortion_p(net_x, net_y, pi, 2), 0.0, 1e-12, "witness coupling")
    return chk.result("weak-isomorphism gap", started)


def criterion_spd_oracle() -> CriterionResult:
    """Vertex ascent equals brute force over permutations on random SPD pairs,
    and the best permutation beats 1000 random couplings per instance."""
    started = time.perf_counter()
    chk = _Check()
    for n in range(3, 8):
        for k in range(50):
            net_x = random_spd_network(n, [5, n, k, 0])
            net_y = random_spd_network(n, [5, n, k, 1])
            best_perm, best_val = _best_permutation_brute(net_x.omega, net_y.omega)
            report = gw_spd_vertex_ascent(net_x, net_y, restarts=20, seed=k)
            chk.within(report.value, best_val, 1e-8, f"ascent vs brute (n={n}, k={k})")
            tables = _random_coupling_batch(n, 1000, _rng([5, n, k, 2]))
            dis = _dis2_uniform_batch(net_x.omega, net_y.omega, tables)
            margin = float(dis.min()) - best_val
            chk.holds(margin >= -1e-9,
                      f"coupling beats best permutation by {-margin:.3e} (n={n}, k={k})")
            if k == 0:
                # honesty checks for the two fast evaluators used above
                chk.within(best_val,
                           distortion_map(net_x, net_y, MongeMap(best_perm), 2),
                           1e-12, f"brute evaluator (n={n})")
                for s in range(3):
                    pi = Coupling(tables[s], net_x.weights, net_y.weights)
                    chk.within(float(dis[s]), distortion_p(net_x, net_y, pi, 2),
                               1e-10, f"batch evaluator (n={n}, sample {s})")
    elapsed = time.perf_counter() - started
    chk.holds(elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2min budget")
    return chk.result("SPD vertex-ascent oracle equivalence", started)


def criterion_mass_split_identity() -> CriterionResult:
    """Splitting along any coupling preserves distortion for p in {1, 2, inf}."""
    started = time.perf_counter()
    chk = _Check()
    from .randgen import random_coupling

    for k in range(100):
        shape_rng = _rng([6, k])
        n, m = (int(v) for v in shape_rng.integers(2, 9, size=2))
        net_x = random_metric_network(n, [6, k, 0])
        net_y = random_metric_network(m, [6, k, 1])
        pi = random_coupling(net_x.weights, net_y.weights, [6, k, 2])
        split = mass_split_from_coupling(net_x, net_y, pi)
        for p in (1, 2, math.inf):
            chk.within(distortion_map(split.Z, net_y, split.phi, p),
                       distortion_p(net_x, net_y, pi, p), 1e-10,
                       f"split identity (k={k}, p={p})")
    return chk.result("mass-splitting distortion identity", started)


def _simplex_embedding_constraints(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows a with lb <= a . alpha <= ub encoding a valid one-point extension
    (n >= 2).

    A joint embedding of the n-point discrete-metric space and a single point
    amounts to choosing distances alpha_i > 0 from each vertex to the point,
    subject to |alpha_i - alpha_j| <= 1 <= alpha_i + alpha_j for i != j.
    """
    rows, lb, ub = [], [], []
    for i in range(n):
        for j in range(i + 1, n):
            row = np.zeros(n)
            row[i], row[j] = 1.0, 1.0
            rows.append(row)
            lb.append(1.0)
            ub.append(np.inf)
            row = np.zeros(n)
            row[i], row[j] = 1.0, -1.0
            rows.append(row)
            lb.append(-1.0)
            ub.append(1.0)
    return np.array(rows), np.array(lb), np.array(ub)


def _simplex_embedding_minimum(n: int, p: float) -> float:
    """Direct minimization of the embedding value over feasible alpha: an LP
    at p = 1, a constrained convex solve otherwise."""
    a, lb, ub = _simplex_embedding_constraints(n)
    if p == 1.0:
        # stack lb/ub rows as A_ub x <= b_ub
        a_ub = np.vstack([-a, a])
        b_ub = np.concatenate([-lb, np.where(np.isinf(ub), 1e30, ub)])
        res = linprog(np.full(n, 1.0 / n), A_ub=a_ub, b_ub=b_ub,
                      bounds=(0, None), method="highs")
        if not res.success:
            raise RuntimeError(f"embedding LP failed: {res.message}")
        return float(res.fun)

    def objective(alpha: np.ndarray) -> float:
        return float(np.mean(np.abs(alpha) ** p) ** (1.0 / p))

    res = minimize(objective, x0=np.ones(n), method="SLSQP",
                   bounds=[(0.0, None)] * n, constraints=[LinearConstraint(a, lb, ub)],
                   options={"ftol": 1e-12, "maxiter": 500})
    if not res.success:
        raise RuntimeError(f"embedding minimization failed: {res.message}")
    return float(res.fun)


def criterion_embedding_values() -> CriterionResult:
    """Simplex-vs-point embedding value is 1/2, closed form vs minimization."""
    started = time.perf_counter()
    chk = _Check()
    point = one_point_network()
    for n in range(2, 9):
        a, lb, ub = _simplex_embedding_constraints(n)
        vals = a @ np.full(n, 0.5)
        chk.holds(bool(np.all(vals >= lb - 1e-12) and np.all(vals <= ub + 1e-12)),
                  f"alpha = 1/2 violates the embedding constraints (n={n})")
        for p in (1, 2):
            chk.within(simplex_point_embedding_value(n, p), 0.5, 0.0,
                       f"embedding value (n={n}, p={p})")
            try:
                chk.within(_simplex_embedding_minimum(n, p), 0.5, 1e-6,
                           f"embedding minimum (n={n}, p={p})")
            except RuntimeError as exc:
                chk.holds(False, f"embedding minimum (n={n}, p={p}): {exc}")
        chk.within(gm_em_infinity(simplex_network(n), point), 0.5, 1e-12,
                   f"sup embedding value (n={n})")
    return chk.result("embedding closed forms", started)


def criterion_sandwich() -> CriterionResult:
    """Half of gm lower-bounds the registration value; congruent clouds register to 0."""
    started = time.perf_counter()
    chk = _Check()
    for k in range(50):
        shape_rng = _rng([8, k])
        n = int(shape_rng.integers(2, 9))
        dim = int(shape_rng.integers(1, 4))
        x = random_cloud(n, dim, [8, k, 0])
        y = random_cloud(n, dim, [8, k, 1])
        gm = gm_exact(cloud_to_network(x), cloud_to_network(y), 2).value
        reg = m_iso(x, y, p=2, restarts=20, seed=k).value
        chk.holds(0.5 * gm <= reg + 1e-6,
                  f"sandwich violated (k={k}): {0.5 * gm!r} > {reg!r}")
        iso = random_isometry(dim, [8, k, 2])
        x_moved = EuclideanCloud(iso.apply(x.points), x.weights)
        recovered = m_iso(x, x_moved, p=2, restarts=20, seed=k).value
        chk.within(recovered, 0.0, 1e-6, f"self-registration (k={k})")
    return chk.result("registration sandwich bound", started)


def criterion_heat_kernel() -> CriterionResult:
    """Single-edge closed form, strict positivity, and relabeling recovery."""
    started = time.perf_counter()
    chk = _Check()
    edge = Graph(2, ((0, 1),))
    for t in (0.5, 1.0, 2.0):
        got = heat_kernel_network(edge, t).omega
        e = math.exp(-2.0 * t)
        want = 0.5 * np.array([[1.0 + e, 1.0 - e], [1.0 - e, 1.0 + e]])
        chk.within(float(np.abs(got - want).max()), 0.0, 1e-12, f"closed form (t={t})")
    from .randgen import random_graph
    from .solvers import _check_spd

    triangle = Graph(3, ((0, 1), (1, 2), (0, 2)))
    path4 = Graph(4, ((0, 1), (1, 2), (2, 3)))
    cases = [(g, t) for g in (edge, triangle, path4, random_graph(8, [9, 0]))
             for t in (0.1, 1.0, 2.0)]
    # larger t only where exp(-t * lambda_max) stays above eigensolver noise
    cases += [(edge, 10.0), (triangle, 10.0)]
    import warnings as _warnings

    for gi, (g, t) in enumerate(cases):
        omega = heat_kernel_network(g, t).omega
        evals = np.linalg.eigvalsh(omega)
        chk.holds(bool(evals.min() > 0.0), f"eigenvalue <= 0 (case {gi}, t={t})")
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")  # near-singular warnings are fine here
            try:
                _check_spd(omega, "heat kernel")
            except ValueError:
                chk.holds(False, f"SPD check failed (case {gi}, t={t})")
    g = random_graph(8, [9, 1])
    net = heat_kernel_network(g, 1.0)
    sigma = _rng([9, 2]).permutation(8)
    report = gw_spd_vertex_ascent(net, _permuted(net, sigma), restarts=50, seed=9)
    chk.within(report.value, 0.0, 1e-8, "relabeled-graph distance")
    return chk.result("heat-kernel networks", started)


def criterion_structural() -> CriterionResult:
    """GW <= GM on feasible instances, gm triangle inequality, CLI determinism."""
    started = time.perf_counter()
    chk = _Check()
    from .randgen import random_uniform_network

    for k in range(20):
        n = 3 + (k % 4)
        if k < 10:
            net_x = random_metric_network(n, [10, k, 0])
            net_y = random_metric_network(n, [10, k, 1])
        else:
            net_x = random_uniform_network(n, [10, k, 0])
            net_y = random_uniform_network(n, [10, k, 1])
        gm = gm_exact(net_x, net_y, 2)
        init = coupling_from_map(gm.witness, net_x.weights, net_y.weights)
        fw = gw_frank_wolfe(net_x, net_y, init=init)
        chk.holds(fw.value <= gm.value + 1e-8,
                  f"GW > GM (k={k}): {fw.value!r} > {gm.value!r}")
    for k in range(15):
        n = 3 + (k % 4)
        nets = [random_metric_network(n, [10, 100 + k, s]) for s in range(3)]
        for p in (1, 2):
            d_xz = gm_exact(nets[0], nets[2], p).value
            d_xy = gm_exact(nets[0], nets[1], p).value
            d_yz = gm_exact(nets[1], nets[2], p).value
            chk.holds(d_xz <= d_xy + d_yz + 1e-9,
                      f"triangle violated (k={k}, p={p})")
    chk.holds(_cli_deterministic(), "CLI reruns are not byte-identical")
    return chk.result("structural invariants", started)


def _cli_env() -> dict[str, str]:
    """The environment for a ``python -m gromon`` child in any working
    directory: the directory holding this ``gromon`` package goes first on
    PYTHONPATH, so a relative inherited entry (``PYTHONPATH=src``) need not
    resolve there."""
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return env


def _run_cli(args: list[str], cwd: str) -> bytes:
    proc = subprocess.run([sys.executable, "-m", "gromon", *args],
                          capture_output=True, cwd=cwd, env=_cli_env())
    if proc.returncode != 0:
        raise RuntimeError(f"cli failed ({proc.returncode}): {proc.stderr.decode()}")
    return proc.stdout


def _cli_deterministic() -> bool:
    from .serialize import save_network

    with tempfile.TemporaryDirectory() as tmp:
        save_network(os.path.join(tmp, "d4.json"), simplex_network(4))
        save_network(os.path.join(tmp, "d2.json"), simplex_network(2))
        for args in (["rand", "--kind", "spd", "--n", "5", "--seed", "11",
                      "--out", "spd_a.json"],
                     ["rand", "--kind", "spd", "--n", "5", "--seed", "12",
                      "--out", "spd_b.json"]):
            _run_cli(args, tmp)
        runs = [
            ["gm", "d4.json", "d2.json", "--p", "1"],
            ["gw", "d4.json", "d4.json"],
            ["spd", "spd_a.json", "spd_b.json", "--restarts", "5", "--seed", "3"],
        ]
        for args in runs:
            if _run_cli(args, tmp) != _run_cli(args, tmp):
                return False
        rand = ["rand", "--kind", "metric", "--n", "6", "--seed", "7", "--out", "m.json"]
        outputs = []
        for _ in range(2):
            stdout = _run_cli(rand, tmp)
            with open(os.path.join(tmp, "m.json"), "rb") as fh:
                outputs.append((stdout, fh.read()))
        return outputs[0] == outputs[1]


CRITERIA: list[tuple[str, Callable[[], CriterionResult]]] = [
    ("01 simplex family", criterion_simplex_family),
    ("02 p-size identity", criterion_size_identity),
    ("03 one point vs two", criterion_point_vs_pair),
    ("04 weak-iso gap", criterion_weak_iso_gap),
    ("05 SPD oracle equivalence", criterion_spd_oracle),
    ("06 mass-splitting identity", criterion_mass_split_identity),
    ("07 embedding values", criterion_embedding_values),
    ("08 registration sandwich", criterion_sandwich),
    ("09 heat kernel", criterion_heat_kernel),
    ("10 structural invariants", criterion_structural),
]


def run_all(stream=None) -> list[CriterionResult]:
    results = []
    for label, fn in CRITERIA:
        res = fn()
        results.append(res)
        if stream is not None:
            status = "PASS" if res.passed else "FAIL"
            print(f"[{status}] {label}: {res.name} ({res.seconds:.2f}s) -- {res.detail}",
                  file=stream)
    return results
