"""Distance solvers over finite measure networks.

Four routes are provided:

* exhaustive Gromov-Monge by enumeration of measure-preserving maps,
* Frank-Wolfe (conditional gradient) for the order-2 Gromov-Wasserstein
  objective over the coupling polytope,
* vertex ascent over the scaled Birkhoff polytope for symmetric positive
  definite tables with uniform weights, where the optimum is guaranteed to
  be a permutation,
* the mass-splitting construction that realizes a coupling's distortion as
  the distortion of a plain map out of a split network.

Solvers are pure functions of (inputs, seed); restarts use deterministically
derived sub-seeds and the returned optimum is the seedwise best, so results
do not depend on scheduling.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterator

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import csr_matrix

from .networks import (
    EPS_SUPP,
    TOL_MASS,
    Coupling,
    MeasureNetwork,
    MongeMap,
    _check_couples,
    _check_weights,
    _distortion,
    _exact_sum,
    check_exponent,
    check_measure_preserving,
    distortion_map,
    distortion_p,
    product_coupling,
)

# Accept a vertex-ascent move only on strict improvement, to prevent cycling
# among ties; Cholesky pivot threshold below which an input counts as
# near-singular (accepted with a warning).
MOVE_TOL = 1e-12
TOL_SPD = 1e-10

DEFAULT_CAP = 10_000_000


class CapExceededError(RuntimeError):
    """The instance has more measure-preserving maps than the enumeration cap."""


class NotSPDError(ValueError):
    """A table required to be symmetric positive definite is not."""


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Solver outcome: optimal value, the witness attaining it, and run stats.

    ``value`` equals the distortion of ``witness`` (for the Euclidean
    registration solver, the isometry-matching cost) and is ``math.inf`` with
    ``witness=None`` when no measure-preserving map exists.  ``trace`` holds
    per-iteration objective values when the solver records them;
    ``transform`` carries the rigid motion found by the registration solver.
    """

    value: float
    witness: Coupling | MongeMap | None
    method: str
    iterations: int
    converged: bool
    trace: tuple[float, ...] | None = None
    transform: Any = None


@dataclass(frozen=True, eq=False)
class MassSplit:
    """A split network Z with projections rho (onto X) and phi (onto Y)."""

    Z: MeasureNetwork
    rho: MongeMap
    phi: MongeMap


# ---------------------------------------------------------------------------
# Enumeration of measure-preserving maps
# ---------------------------------------------------------------------------

def _exact_weights(w: np.ndarray) -> list[Fraction] | None:
    """Recover weights as small rationals when the floats allow it exactly."""
    fracs = []
    for x in w.tolist():
        f = Fraction(x).limit_denominator(10**6)
        if float(f) != x:
            return None
        fracs.append(f)
    if sum(fracs) != 1:
        return None
    return fracs


def enumerate_monge_maps(source_weights, target_weights,
                         tol_mass: float = TOL_MASS) -> Iterator[MongeMap]:
    """Yield every measure-preserving assignment, in lexicographic order.

    Weight-sum feasibility is decided by exact rational arithmetic whenever
    both weight vectors are exactly representable as small fractions (e.g.
    uniform weights, or ratios of small integers); otherwise fiber sums are
    compared to the targets within ``tol_mass``.  An empty stream is a valid
    result and signals that the Gromov-Monge distance is infinite.
    """
    sw = np.asarray(source_weights, dtype=float)
    tw = np.asarray(target_weights, dtype=float)
    _check_weights(sw, "source weights")
    _check_weights(tw, "target weights")
    fs = _exact_weights(sw)
    ft = _exact_weights(tw)
    if fs is not None and ft is not None:
        yield from _enumerate_exact(fs, ft)
    else:
        yield from _enumerate_float(sw, tw, tol_mass)


def _enumerate_exact(fs: list[Fraction], ft: list[Fraction]) -> Iterator[MongeMap]:
    n, m = len(fs), len(ft)
    if n == m and len(set(fs)) == 1 and fs[0] == ft[0] == Fraction(1, n):
        # Uniform same-cardinality: the maps are exactly the bijections.
        for perm in itertools.permutations(range(m)):
            yield MongeMap(np.array(perm, dtype=np.intp))
        return
    remaining = list(ft)
    assign = np.empty(n, dtype=np.intp)

    def rec(i: int) -> Iterator[MongeMap]:
        if i == n:
            yield MongeMap(assign.copy())
            return
        w = fs[i]
        for j in range(m):
            if remaining[j] >= w:
                remaining[j] -= w
                assign[i] = j
                yield from rec(i + 1)
                remaining[j] += w

    yield from rec(0)


def _enumerate_float(sw: np.ndarray, tw: np.ndarray, tol: float) -> Iterator[MongeMap]:
    n, m = sw.size, tw.size
    remaining = tw.astype(float).copy()
    assign = np.empty(n, dtype=np.intp)

    def rec(i: int) -> Iterator[MongeMap]:
        if i == n:
            if np.abs(remaining).max() <= tol:
                yield MongeMap(assign.copy())
            return
        w = sw[i]
        for j in range(m):
            if remaining[j] >= w - tol:
                remaining[j] -= w
                assign[i] = j
                yield from rec(i + 1)
                remaining[j] += w

    yield from rec(0)


def _count_uniform_maps(n: int, m: int) -> int:
    # Uniform weights: maps exist iff m divides n, each fiber of size n // m.
    if n % m:
        return 0
    k = n // m
    return math.factorial(n) // (math.factorial(k) ** m)


def _map_distortion_batch(omx: np.ndarray, omy: np.ndarray, w: np.ndarray,
                          assigns: np.ndarray, p: float) -> np.ndarray:
    """dis^p (or the sup for p=inf) for a batch of assignments, plain float64."""
    pulled = omy[assigns[:, :, None], assigns[:, None, :]]
    diff = np.abs(omx[None, :, :] - pulled)
    if math.isinf(p):
        return diff.max(axis=(1, 2))
    if p == 2.0:
        diff = diff * diff
    elif p != 1.0:
        diff = diff ** p
    return np.einsum("bik,i,k->b", diff, w, w)


def _batched(it: Iterator[MongeMap], size: int) -> Iterator[list[MongeMap]]:
    batch = []
    for item in it:
        batch.append(item)
        if len(batch) == size:
            yield batch
            batch = []
    if batch:
        yield batch


def gm_exact(netX: MeasureNetwork, netY: MeasureNetwork, p,
             cap: int = DEFAULT_CAP) -> SolveReport:
    """Gromov-Monge p-distance by exhaustive enumeration.

    Scans every measure-preserving map and returns the minimizer.  The search
    ranks maps with vectorized float64 sums; the reported value is then
    recomputed for the winning map with exactly-rounded accumulation.  When
    no map exists the value is ``math.inf`` (infimum over the empty set).

    Raises ``CapExceededError`` when the instance admits more than ``cap``
    maps.
    """
    p = check_exponent(p)
    wx, wy = netX.weights, netY.weights
    fx, fy = _exact_weights(wx), _exact_weights(wy)
    if (fx is not None and fy is not None
            and len(set(fx)) == 1 and len(set(fy)) == 1):
        total = _count_uniform_maps(netX.n, netY.n)
        if total > cap:
            raise CapExceededError(
                f"too large for exact enumeration: {total} maps exceed cap {cap}"
            )
    omx, omy = netX.omega, netY.omega
    best_key = math.inf
    best_assign = None
    count = 0
    for batch in _batched(enumerate_monge_maps(wx, wy), 4096):
        count += len(batch)
        if count > cap:
            raise CapExceededError(
                f"too large for exact enumeration: more than {cap} maps"
            )
        assigns = np.stack([mm.assignment for mm in batch])
        vals = _map_distortion_batch(omx, omy, wx, assigns, p)
        b = int(np.argmin(vals))
        if vals[b] < best_key:
            best_key = float(vals[b])
            best_assign = assigns[b]
    if best_assign is None:
        return SolveReport(math.inf, None, "enumeration", 0, True)
    witness = MongeMap(best_assign)
    value = distortion_map(netX, netY, witness, p)
    return SolveReport(value, witness, "enumeration", count, True)


def gm_infinity(netX: MeasureNetwork, netY: MeasureNetwork,
                cap: int = DEFAULT_CAP) -> SolveReport:
    """Gromov-Monge distance at p = inf (sup-distortion), by enumeration."""
    return gm_exact(netX, netY, math.inf, cap)


# ---------------------------------------------------------------------------
# Frank-Wolfe for the order-2 Gromov-Wasserstein objective
# ---------------------------------------------------------------------------

def _transport_constraints(n: int, m: int) -> csr_matrix:
    """Row-sum and column-sum constraints of an n x m transport plan, as a
    sparse (n + m) x (n * m) matrix over the row-major flattened plan."""
    cells = np.arange(n * m)
    rows_idx = np.column_stack([np.repeat(np.arange(n), m), n + np.tile(np.arange(m), n)])
    return csr_matrix((np.ones(2 * n * m), (rows_idx.ravel(), np.repeat(cells, 2))),
                      shape=(n + m, n * m))


def _linear_oracle(cost: np.ndarray, wx: np.ndarray, wy: np.ndarray,
                   a_eq: csr_matrix | None) -> np.ndarray:
    """Minimize <cost, S> over the coupling polytope; returns a vertex.

    ``a_eq`` is ``_transport_constraints(n, m)``, or None for uniform
    marginals of equal size, where the problem is an assignment.
    """
    n, m = cost.shape
    if a_eq is None:
        rows, cols = linear_sum_assignment(cost)
        vertex = np.zeros((n, m))
        vertex[rows, cols] = 1.0 / n
        return vertex
    # General marginals: linear transport problem, solved as an LP.  The
    # simplex-based solver returns a basic feasible solution, i.e. a vertex.
    b_eq = np.concatenate([wx, wy])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return res.x.reshape(n, m)


def gw_frank_wolfe(netX: MeasureNetwork, netY: MeasureNetwork,
                   init: Coupling | None = None, max_iters: int = 1000,
                   tol_fw: float = 1e-12) -> SolveReport:
    """Conditional gradient descent on the squared order-2 distortion.

    Writing the squared distortion as const - 2 <pi, omega_X pi omega_Y^T>,
    each step solves a linear transport problem on the gradient table (an
    assignment problem for uniform same-size marginals) and moves by exact
    line search; the restriction of the objective to a segment is a
    quadratic, so the step is closed form and the objective never increases.
    Stops when the Frank-Wolfe gap drops below ``tol_fw``.

    Returns a coupling whose distortion certifies an upper bound on the
    order-2 Gromov-Wasserstein distance and is first-order stationary when
    ``converged`` is set.  ``trace`` records the distortion at each iterate.
    """
    wx, wy = netX.weights, netY.weights
    omx, omy = netX.omega, netY.omega
    if init is None:
        init = product_coupling(netX, netY)
    else:
        _check_couples(init, netX, netY)
    pi = init.table.copy()
    n, m = pi.shape
    uniform_square = bool(
        n == m
        and np.abs(wx - 1.0 / n).max() <= TOL_MASS
        and np.abs(wy - 1.0 / n).max() <= TOL_MASS
    )
    a_eq = None if uniform_square else _transport_constraints(n, m)
    const = float((omx**2 * np.outer(wx, wx)).sum()
                  + (omy**2 * np.outer(wy, wy)).sum())

    def objective(t: np.ndarray) -> float:
        return const - 2.0 * float((t * (omx @ t @ omy.T)).sum())

    trace = [math.sqrt(max(objective(pi), 0.0))]
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        grad = -2.0 * (omx @ pi @ omy.T + omx.T @ pi @ omy)
        vertex = _linear_oracle(grad, wx, wy, a_eq)
        direction = vertex - pi
        lin = float((grad * direction).sum())
        gap = -lin
        if gap <= tol_fw:
            converged = True
            it -= 1
            break
        # objective along the segment: f(gamma) = f(0) + lin*gamma + curv*gamma^2
        curv = -2.0 * float((direction * (omx @ direction @ omy.T)).sum())
        if curv > 0.0:
            gamma = min(1.0, max(0.0, -lin / (2.0 * curv)))
        else:
            gamma = 1.0 if lin + curv <= 0.0 else 0.0
        if gamma <= 0.0:
            converged = True
            it -= 1
            break
        pi = pi + gamma * direction
        trace.append(math.sqrt(max(objective(pi), 0.0)))
    witness = Coupling(pi, wx, wy)
    value = distortion_p(netX, netY, witness, 2.0)
    return SolveReport(value, witness, "frank_wolfe", it, converged,
                       trace=tuple(trace))


# ---------------------------------------------------------------------------
# Vertex ascent for symmetric positive definite tables
# ---------------------------------------------------------------------------

def _check_spd(om: np.ndarray, what: str) -> None:
    sym = float(np.abs(om - om.T).max())
    if sym > TOL_SPD:
        raise NotSPDError(f"{what} is not symmetric (deviation {sym:g})")
    try:
        chol = np.linalg.cholesky((om + om.T) / 2.0)
    except np.linalg.LinAlgError:
        raise NotSPDError(f"{what} is not positive definite (Cholesky failed)") from None
    if float(np.diag(chol).min() ** 2) <= TOL_SPD:
        warnings.warn(f"{what} is near-singular SPD; results may be fragile",
                      RuntimeWarning, stacklevel=3)


def _qap_value(omx: np.ndarray, omy: np.ndarray, sigma: np.ndarray) -> float:
    return float((omx * omy[np.ix_(sigma, sigma)]).sum())


def _swap_gains(omx: np.ndarray, c: np.ndarray) -> np.ndarray:
    """gains[a, b]: change of sum(omx * c) when rows a, b and columns a, b of
    ``c`` are swapped (the QAP 2-swap delta; zero on the diagonal).

    Neither table is assumed symmetric.  With h(t)[a, b] = t[a, a] + t[b, b]
    - t[a, b] - t[b, a], the change is h(omx) * h(c) - h(omx c^T + omx^T c).
    The second term sums the change over rows a, b and over columns a, b as
    if they did not meet; the first corrects the four entries where they do.
    The whole table costs two n x n products plus O(n^2).
    """
    def h(t: np.ndarray) -> np.ndarray:
        d = np.diag(t)
        return d[:, None] + d[None, :] - t - t.T

    return h(omx) * h(c) - h(omx @ c.T + omx.T @ c)


def _ascend(omx: np.ndarray, omy: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Greedy vertex-to-vertex ascent of sum omx[i,k] * omy[s(i),s(k)].

    Two move types, both between extreme points of the Birkhoff polytope:
    jumps to the best vertex of the linearized objective (an assignment
    problem on the gradient), and, when jumps stall, the best strictly
    improving transposition (adjacent vertices are permutations differing by
    a cycle).  The bare linearization has many spurious fixed points; the
    swap phase escapes them.

    Transpositions are scored all at once by the 2-swap delta
    (``_swap_gains``), which only screens: a pair (a, b), walked in
    lexicographic order, is confirmed by recomputing its value exactly and
    replaces the running best only when that value beats it by more than
    ``MOVE_TOL``.  The screen's slack bounds the rounding of the delta and of
    the two exact sums it stands for, so it never drops a pair the exact
    rule would take, and the chosen move is the one the exact rule picks
    when it scores every pair.
    """
    n = sigma.size
    eps = np.finfo(float).eps
    # The screen must keep every pair the exact rule could take.  That rule
    # compares two n^2-term sums, each rounded by at most about
    # n^4 * eps/2 * scale in any summation order (scale = max|omx| * max|omy|);
    # the delta's own rounding is O(n^2 * eps * scale).  The slack covers all
    # three with a factor of four to spare.
    slack = 4.0 * (n + 2) ** 4 * eps * float(np.abs(omx).max() * np.abs(omy).max())
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    val = _qap_value(omx, omy, sigma)
    moves = 0
    while True:
        improved = False
        while True:
            # gradient of <omega_X P, P omega_Y> at the current permutation matrix
            grad = omx @ omy[:, sigma].T + omx.T @ omy[sigma, :]
            _, cols = linear_sum_assignment(grad, maximize=True)
            new_val = _qap_value(omx, omy, cols)
            if new_val > val + MOVE_TOL:
                sigma, val = cols.astype(np.intp), new_val
                moves += 1
                improved = True
            else:
                break
        gains = _swap_gains(omx, omy[np.ix_(sigma, sigma)])
        best_val, best_sigma = val, None
        for a, b in zip(*np.nonzero(upper & (gains > MOVE_TOL - slack))):
            if gains[a, b] <= best_val - val + MOVE_TOL - slack:
                continue  # cannot beat the running best
            cand = sigma.copy()
            cand[a], cand[b] = cand[b], cand[a]
            cand_val = _qap_value(omx, omy, cand)
            if cand_val > best_val + MOVE_TOL:
                best_val, best_sigma = cand_val, cand
        if best_sigma is not None:
            sigma, val = best_sigma, best_val
            moves += 1
            improved = True
        if not improved:
            return sigma, val, moves


def gw_spd_vertex_ascent(netX: MeasureNetwork, netY: MeasureNetwork,
                         restarts: int = 20, seed: int = 0) -> SolveReport:
    """Order-2 Gromov-Wasserstein for SPD tables with uniform weights.

    Minimizing the squared distortion is equivalent to maximizing
    ||U_X pi V_Y^T||^2 with U, V the Cholesky factors, a convex function whose
    maximum over the scaled Birkhoff polytope sits at an extreme point, i.e.
    a permutation.  Each ascent step linearizes the objective at the current
    permutation, solves the induced assignment problem, and moves only on
    strict improvement; the returned witness is therefore always a
    permutation map.  Restart 0 starts from the identity, the rest from
    seeded random permutations.
    """
    n = netX.n
    if netY.n != n:
        raise ValueError(f"cardinality mismatch: {n} vs {netY.n}")
    for net, name in ((netX, "source"), (netY, "target")):
        if np.abs(net.weights - 1.0 / n).max() > TOL_MASS:
            raise ValueError(f"{name} weights must be uniform")
    omx, omy = netX.omega, netY.omega
    _check_spd(omx, "source omega")
    _check_spd(omy, "target omega")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")

    def one_restart(r: int) -> tuple[float, int, np.ndarray, int]:
        if r == 0:
            sigma0 = np.arange(n, dtype=np.intp)
        else:
            rng = np.random.default_rng([seed, r])
            sigma0 = rng.permutation(n).astype(np.intp)
        sigma, val, moves = _ascend(omx, omy, sigma0)
        return val, r, sigma, moves

    results = [one_restart(r) for r in range(restarts)]
    total_moves = sum(r[3] for r in results)
    # maximize the cross term; ties resolved toward the earliest restart
    best_val, _, best_sigma, _ = max(results, key=lambda t: (t[0], -t[1]))
    witness = MongeMap(best_sigma)
    value = distortion_map(netX, netY, witness, 2.0)
    return SolveReport(value, witness, "vertex_ascent", total_moves, True)


# ---------------------------------------------------------------------------
# Mass splitting
# ---------------------------------------------------------------------------

def _split_support(netX: MeasureNetwork, netY: MeasureNetwork, pi: Coupling,
                   eps_supp: float) -> tuple[MongeMap, MongeMap, np.ndarray]:
    """The split's projections rho and phi (row and column of each support
    cell) and its renormalized mass, checked to be measure preserving."""
    _check_couples(pi, netX, netY)
    rows, cols = np.nonzero(pi.table > eps_supp)
    if rows.size == 0:
        raise ValueError("coupling has empty support")
    mass = pi.table[rows, cols]
    mass = mass / _exact_sum(mass)
    rho, phi = MongeMap(rows), MongeMap(cols)
    check_measure_preserving(rho, mass, netX.weights)
    check_measure_preserving(phi, mass, netY.weights)
    return rho, phi, mass


def mass_split_from_coupling(netX: MeasureNetwork, netY: MeasureNetwork,
                             pi: Coupling, eps_supp: float = EPS_SUPP) -> MassSplit:
    """Split a network along a coupling's support.

    The split network Z has one point per support cell (i, j) of the
    coupling, carries the corresponding (renormalized) coupling mass, and
    pulls the source table back along the first projection.  The second
    projection is then a measure-preserving map Z -> Y whose p-distortion
    equals the p-distortion of the coupling, for every p.  When the source
    table is a metric, Z's table is a pseudometric.
    """
    rho, phi, mass = _split_support(netX, netY, pi, eps_supp)
    rows = rho.assignment
    return MassSplit(Z=MeasureNetwork(mass, netX.omega[np.ix_(rows, rows)]), rho=rho, phi=phi)


def gm_over_split(netX: MeasureNetwork, netY: MeasureNetwork,
                  pi: Coupling, p) -> float:
    """Distortion of the split's projection onto Y.

    Upper-bounds the order-p Gromov-Wasserstein distance for any coupling and
    matches it when the coupling is optimal.  Equals ``distortion_map`` of
    ``mass_split_from_coupling(netX, netY, pi).phi`` bit for bit, but reads
    the split's table block by block instead of building it.
    """
    rho, phi, mass = _split_support(netX, netY, pi, EPS_SUPP)
    p = check_exponent(p)
    return _distortion(netX.omega, netY.omega, rho.assignment, phi.assignment, mass, p,
                       pair_weights=True)
