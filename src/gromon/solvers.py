"""Distance solvers over finite measure networks.

Four routes are provided:

* exhaustive Gromov-Monge by enumeration of measure-preserving maps,
* Frank-Wolfe (conditional gradient) for the order-2 Gromov-Wasserstein
  objective over the coupling polytope, whose linear steps are solved
  exactly: by assignment for uniform marginals of equal size, otherwise by
  a transportation simplex on integer flows, warm-started from the last
  step's optimal basis,
* vertex ascent over the scaled Birkhoff polytope for symmetric positive
  definite tables with uniform weights, where the optimum is guaranteed to
  be a permutation,
* the mass-splitting construction that realizes a coupling's distortion as
  the distortion of a plain map out of a split network.

Solvers are pure functions of (inputs, seed); the multi-start ones share one
restart driver, ``_best_restart``, whose derived sub-seeds and earliest-restart
tie rule make results independent of scheduling.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterator

import numpy as np
from scipy.optimize import linear_sum_assignment

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


def _uniform(w: np.ndarray) -> bool:
    """Whether every weight is within ``TOL_MASS`` of 1/n."""
    return bool(np.abs(w - 1.0 / w.size).max() <= TOL_MASS)


def _best_restart(restarts: int, seed: int, run) -> tuple[Any, int]:
    """The best result of ``run(r, rng) -> (key, iterations, result)`` over
    ``restarts`` restarts, and their total iterations.  Restart 0 gets
    ``rng=None`` (the solver's canonical start), restart r the generator
    seeded by ``[seed, r]``; the least key wins, ties going to the earliest."""
    runs = [run(r, None if r == 0 else np.random.default_rng([seed, r]))
            for r in range(restarts)]
    best = min(runs, key=lambda t: t[0])
    return best[2], sum(t[1] for t in runs)


# ---------------------------------------------------------------------------
# Enumeration of measure-preserving maps
# ---------------------------------------------------------------------------

# Largest block of (partial) assignments held at once by the enumerator.
_BLOCK_MAPS = 4096


def _capacities(source_weights, target_weights,
                tol_mass: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Source weights, target capacities and the tolerance to compare them with.

    When both weight vectors are exactly small fractions summing exactly to 1
    (e.g. uniform weights, or ratios of small integers), they become integer
    numerators over their common denominator, held as Python ints in object
    arrays so that no denominator can overflow, with tolerance the int 0 (so
    that subtracting it keeps them ints).  Otherwise they stay float64, with
    tolerance ``tol_mass``.
    """
    sw = np.asarray(source_weights, dtype=float)
    tw = np.asarray(target_weights, dtype=float)
    _check_weights(sw, "source weights")
    _check_weights(tw, "target weights")
    fracs = []
    for w in (sw.tolist(), tw.tolist()):
        f = [Fraction(x).limit_denominator(10**6) for x in w]
        if list(map(float, f)) != w or sum(f) != 1:
            return sw, tw, tol_mass
        fracs.append(f)
    den = math.lcm(*(a.denominator for a in fracs[0] + fracs[1]))
    source, target = (np.array([a.numerator * (den // a.denominator) for a in f], dtype=object)
                      for f in fracs)
    return source, target, 0


def _assignment_blocks(source: np.ndarray, target: np.ndarray,
                       tol) -> Iterator[np.ndarray]:
    """Every measure-preserving assignment, as (B, n) intp blocks in
    lexicographic order; ``source``, ``target`` and ``tol`` as
    ``_capacities`` returns them.

    Partial assignments grow one source point at a time, at most
    ``_BLOCK_MAPS`` rows at once: point i may go to every target whose
    remaining capacity holds it within ``tol``, and row-major ``nonzero``
    lists the children of each row in order.  Each row's remaining
    capacities are its own, formed along its path.  A complete row is kept
    when every remaining capacity is within ``tol`` of zero.
    """
    n = source.size

    def children(assign, left, i):
        rows, cols = np.nonzero(left >= source[i] - tol)
        for s in range(0, rows.size, _BLOCK_MAPS):
            r, c = rows[s:s + _BLOCK_MAPS], cols[s:s + _BLOCK_MAPS]
            child, child_left = assign[r], left[r]
            child[:, i] = c
            child_left[np.arange(r.size), c] -= source[i]
            yield child, child_left

    # levels[i] yields the blocks of assignments of points 0, ..., i - 1
    levels = [iter([(np.zeros((1, n), dtype=np.intp), target[None, :])])]
    while levels:
        block = next(levels[-1], None)
        if block is None:
            levels.pop()
        elif len(levels) <= n:
            levels.append(children(*block, len(levels) - 1))
        else:
            assign, left = block
            done = assign[(np.abs(left) <= tol).all(axis=1)]
            if len(done):
                yield done


def enumerate_monge_maps(source_weights, target_weights,
                         tol_mass: float = TOL_MASS) -> Iterator[MongeMap]:
    """Yield every measure-preserving assignment, in lexicographic order.

    The maps are the rows of the blocks that ``gm_exact`` scans.  Fiber sums
    are compared to the targets exactly, as integer numerators over a common
    denominator, whenever both weight vectors are exactly small fractions
    (e.g. uniform weights, or ratios of small integers); otherwise within
    ``tol_mass``.  An empty stream is a valid result and signals that the
    Gromov-Monge distance is infinite.
    """
    for block in _assignment_blocks(*_capacities(source_weights, target_weights, tol_mass)):
        for row in block:
            yield MongeMap(row)


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


def gm_exact(netX: MeasureNetwork, netY: MeasureNetwork, p,
             cap: int = DEFAULT_CAP) -> SolveReport:
    """Gromov-Monge p-distance by exhaustive enumeration.

    Scans every measure-preserving map, block by block from the enumerator
    behind ``enumerate_monge_maps``, and returns the first minimizer in
    lexicographic order; ``iterations`` is the number of maps scanned.  The
    search ranks maps with vectorized float64 sums; the reported value is
    then recomputed for the winning map with exactly-rounded accumulation.
    When no map exists the value is ``math.inf`` (infimum over the empty set).

    Raises ``CapExceededError`` when the instance admits more than ``cap``
    maps.  Uniform weights count their maps in closed form, before any scan.
    """
    p = check_exponent(p)
    wx, wy = netX.weights, netY.weights
    if _uniform(wx) and _uniform(wy):
        total = _count_uniform_maps(netX.n, netY.n)
        if total == 0:
            return SolveReport(math.inf, None, "enumeration", 0, True)
        if total > cap:
            raise CapExceededError(
                f"too large for exact enumeration: {total} maps exceed cap {cap}"
            )
    omx, omy = netX.omega, netY.omega
    best_key = math.inf
    best_assign = None
    count = 0
    for assigns in _assignment_blocks(*_capacities(wx, wy, TOL_MASS)):
        count += len(assigns)
        if count > cap:
            raise CapExceededError(
                f"too large for exact enumeration: more than {cap} maps"
            )
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

# Relative reduced-cost tolerance of the transportation simplex, in units of
# (n + m) * eps * max|cost|: a potential sums at most n + m costs along its
# tree path, so rounding noise in a reduced cost stays far below it.
_PRICE_ULPS = 16
# Pivots allowed per cell of the table before a solve gives up.
_PIVOTS_PER_CELL = 20


def _integer_marginals(wx: np.ndarray, wy: np.ndarray) -> tuple[list[int], list[int], int]:
    """Both marginals as integers over one common denominator.

    Small-fraction weights give their exact numerators (``_capacities``).
    Other weights give the exact binary values of their floats; the two
    totals, equal only within rounding, are balanced by moving their
    difference onto the largest target weight.
    """
    source, target, tol = _capacities(wx, wy, TOL_MASS)
    if tol == 0:
        source, target = source.tolist(), target.tolist()
        return source, target, sum(source)
    ratios = [w.as_integer_ratio() for w in np.concatenate([wx, wy]).tolist()]
    den = max(d for _, d in ratios)  # powers of two: the largest is a common multiple
    ints = [a * (den // d) for a, d in ratios]
    source, target = ints[:wx.size], ints[wx.size:]
    target[int(np.argmax(wy))] += sum(source) - sum(target)
    return source, target, den


class _TransportBasis:
    """A basis of the transportation problem with fixed marginals, kept from
    one solve to the next so that each starts from the last optimal tree.

    The basis is a spanning tree of n + m - 1 cells (rows are nodes
    0..n-1, columns nodes n..n+m-1), degenerate zero-flow cells included.
    Flows are exact integers over the marginals' common denominator and
    carry the perturbation that rules out cycling: row i supplies eps more,
    and the last column demands n * eps more (Orden's perturbation; the
    lexicographic rule of the simplex method).  With K = 2n + 1 a flow
    x + k * eps is held as the one integer x * K + k; every basic
    |k| <= n, so comparing the integers compares the pairs
    lexicographically, and every basic flow is positive, so no pivot is
    degenerate and none repeats a basis.
    """

    def __init__(self, wx: np.ndarray, wy: np.ndarray):
        source, target, self.den = _integer_marginals(wx, wy)
        n, m = len(source), len(target)
        self.n, self.m, self.K = n, m, 2 * n + 1
        supply = [a * self.K + 1 for a in source]
        demand = [b * self.K for b in target]
        demand[-1] += n
        # north-west corner: the staircase walk leaves exactly one of the
        # current row and column with nothing left at each step
        self.rows, self.cols, self.flow = [], [], []
        i = j = 0
        left_row, left_col = supply[0], demand[0]
        while True:
            self.rows.append(i)
            self.cols.append(j)
            if left_row < left_col:
                self.flow.append(left_row)
                left_col -= left_row
                i += 1
                left_row = supply[i]
            else:
                self.flow.append(left_col)
                if j == m - 1:
                    break
                left_row -= left_col
                j += 1
                left_col = demand[j]
        self.adj = [[] for _ in range(n + m)]
        for s, (i, j) in enumerate(zip(self.rows, self.cols)):
            self.adj[i].append(s)
            self.adj[n + j].append(s)

    def _other(self, s: int, node: int) -> int:
        return self.n + self.cols[s] if node < self.n else self.rows[s]

    def solve(self, cost: np.ndarray) -> np.ndarray:
        """Pivot to an optimal basis for ``cost`` and return its vertex.

        Dantzig pricing: the most negative reduced cost enters while it is
        below -tol, tol = ``_PRICE_ULPS`` * (n + m) * eps * max|cost|, and
        the smallest perturbed flow on the cycle's decreasing cells leaves.
        Raises ``RuntimeError`` when ``_PIVOTS_PER_CELL`` * n * m pivots do
        not reach optimality.
        """
        n, m = self.n, self.m
        rows, cols, flow, adj = self.rows, self.cols, self.flow, self.adj
        max_pivots = _PIVOTS_PER_CELL * n * m
        c = cost.tolist()
        tol = _PRICE_ULPS * (n + m) * np.finfo(float).eps * float(np.abs(cost).max())
        for pivots in range(max_pivots + 1):
            # potentials u_i + v_j = c_ij on the tree, from u_0 = 0
            pot = [0.0] * (n + m)
            up = [-1] * (n + m)  # the cell joining a node to its parent
            depth = [0] * (n + m)
            stack = [0]
            while stack:
                a = stack.pop()
                for s in adj[a]:
                    if s != up[a]:
                        b = self._other(s, a)
                        up[b], depth[b] = s, depth[a] + 1
                        pot[b] = c[rows[s]][cols[s]] - pot[a]
                        stack.append(b)
            pot_arr = np.array(pot)
            reduced = cost - pot_arr[:n, None] - pot_arr[None, n:]
            enter = int(reduced.argmin())
            if reduced.flat[enter] >= -tol:
                break
            if pivots == max_pivots:
                raise RuntimeError(
                    f"transport simplex not optimal after {max_pivots} pivots")
            ie, je = divmod(enter, m)
            # the tree path from row ie and from column je up to where they meet;
            # the entering cell adds flow, so the path cells alternately lose
            # (first, third, ...) and gain it
            a, b = ie, n + je
            from_a, from_b = [], []
            while a != b:
                if depth[a] >= depth[b]:
                    from_a.append(up[a])
                    a = self._other(up[a], a)
                else:
                    from_b.append(up[b])
                    b = self._other(up[b], b)
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
        # the unperturbed flow x of x * K + k, as the float nearest x / den
        vertex[rows, cols] = [(f + n) // self.K / self.den for f in flow]
        return vertex


def _linear_oracle(cost: np.ndarray, wx: np.ndarray, wy: np.ndarray,
                   basis: _TransportBasis | None) -> np.ndarray:
    """Minimize <cost, S> over the coupling polytope; returns a vertex.

    ``basis`` is None for uniform marginals of equal size, where the problem
    is an assignment.  Otherwise it is the ``_TransportBasis`` of ``wx`` and
    ``wy``: the exact transportation simplex pivots it from its last optimal
    tree to an optimal one for ``cost`` and returns that tree's vertex.
    """
    if basis is None:
        n, m = cost.shape
        rows, cols = linear_sum_assignment(cost)
        vertex = np.zeros((n, m))
        vertex[rows, cols] = 1.0 / n
        return vertex
    return basis.solve(cost)


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

    The transport problems of one run share their marginals, so one
    ``_TransportBasis`` serves them all: each step's simplex starts from the
    previous step's optimal basis and returns a vertex that is optimal up to
    its pricing tolerance, so the gap is not underestimated beyond that.
    Raises ``ValueError`` for a negative
    ``max_iters`` or a ``tol_fw`` that is negative or nan.

    Returns a coupling whose distortion certifies an upper bound on the
    order-2 Gromov-Wasserstein distance and is first-order stationary when
    ``converged`` is set.  ``trace`` records the distortion at each iterate.
    """
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    if not tol_fw >= 0.0:
        raise ValueError(f"tol_fw must be a nonnegative number, got {tol_fw}")
    wx, wy = netX.weights, netY.weights
    omx, omy = netX.omega, netY.omega
    if init is None:
        init = product_coupling(netX, netY)
    else:
        _check_couples(init, netX, netY)
    pi = init.table.copy()
    n, m = pi.shape
    basis = None if n == m and _uniform(wx) and _uniform(wy) else _TransportBasis(wx, wy)
    const = float((omx**2 * np.outer(wx, wx)).sum()
                  + (omy**2 * np.outer(wy, wy)).sum())

    def objective(t: np.ndarray) -> float:
        return const - 2.0 * float((t * (omx @ t @ omy.T)).sum())

    trace = [math.sqrt(max(objective(pi), 0.0))]
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        grad = -2.0 * (omx @ pi @ omy.T + omx.T @ pi @ omy)
        vertex = _linear_oracle(grad, wx, wy, basis)
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
    permutation map.  Restart 0, the canonical start, is the identity; the
    rest start from seeded random permutations.  The highest cross term
    wins, ties going to the earliest restart.
    """
    n = netX.n
    if netY.n != n:
        raise ValueError(f"cardinality mismatch: {n} vs {netY.n}")
    for net, name in ((netX, "source"), (netY, "target")):
        if not _uniform(net.weights):
            raise ValueError(f"{name} weights must be uniform")
    omx, omy = netX.omega, netY.omega
    _check_spd(omx, "source omega")
    _check_spd(omy, "target omega")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")

    def run(r: int, rng: np.random.Generator | None) -> tuple[float, int, np.ndarray]:
        sigma0 = np.arange(n) if rng is None else rng.permutation(n)
        sigma, val, moves = _ascend(omx, omy, sigma0.astype(np.intp))
        return -val, moves, sigma  # maximize the cross term

    best_sigma, total_moves = _best_restart(restarts, seed, run)
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
