"""Distance solvers over finite measure networks.

Four routes are provided:

* exhaustive Gromov-Monge by enumeration of measure-preserving maps,
* Frank-Wolfe (conditional gradient) for the order-2 Gromov-Wasserstein
  objective over the coupling polytope, whose linear steps are all solved
  exactly by one oracle: a transportation simplex on integer flows,
  warm-started from the last step's optimal basis,
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
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass
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
    _numeric,
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


def _assignment_blocks(source: np.ndarray, target: np.ndarray) -> Iterator[np.ndarray]:
    """Every assignment whose fiber sums of the float64 ``source`` weights
    are within ``TOL_MASS`` of the ``target`` weights, as (B, n) intp blocks
    in lexicographic order.

    Partial assignments grow one source point at a time, at most
    ``_BLOCK_MAPS`` rows at once: point i may go to every target whose
    remaining capacity holds it within ``TOL_MASS``, and row-major
    ``nonzero`` lists the children of each row in order.  Each row's
    remaining capacities are its own, formed afresh along its path, so
    rounding never carries over from one branch to the next.  A complete row
    is kept when every remaining capacity is within ``TOL_MASS`` of zero.
    """
    n = source.size

    def children(assign, left, i):
        rows, cols = np.nonzero(left >= source[i] - TOL_MASS)
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
            done = assign[(np.abs(left) <= TOL_MASS).all(axis=1)]
            if len(done):
                yield done


# Assignment blocks kept for replay, keyed on the exact bytes of both weight
# vectors and the block size, least recently used first: callers score one
# pair of weights against many tables and exponents.  At most _REPLAY_PAIRS
# pairs and _REPLAY_ENTRIES intp entries in all (8 MiB) are kept.
_REPLAY_PAIRS = 64
_REPLAY_ENTRIES = 1 << 20
_replay: OrderedDict[tuple[bytes, bytes, int], tuple[np.ndarray, ...]] = OrderedDict()
_replay_lock = threading.Lock()


def _map_blocks(source: np.ndarray, target: np.ndarray) -> Iterator[np.ndarray]:
    """The read-only blocks of ``_assignment_blocks(source, target)``,
    replayed when the same pair of weights streamed to the end before.

    A first stream is stored only once it has run to the end and its blocks
    fit ``_REPLAY_ENTRIES``; a stream closed early (a cap, an exception, a
    caller that stops) is never stored.  Storing a pair evicts the least
    recently used ones until both bounds hold.
    """
    key = (source.tobytes(), target.tobytes(), _BLOCK_MAPS)
    with _replay_lock:
        blocks = _replay.get(key)
        if blocks is not None:
            _replay.move_to_end(key)
    if blocks is not None:
        yield from blocks
        return
    kept, entries = [], 0
    for block in _assignment_blocks(source, target):
        block.setflags(write=False)
        entries += block.size
        if entries <= _REPLAY_ENTRIES:
            kept.append(block)
        else:
            kept.clear()  # never stored: hold no blocks for the rest of the scan
        yield block
    if entries <= _REPLAY_ENTRIES:
        with _replay_lock:
            _replay[key] = tuple(kept)
            while (len(_replay) > _REPLAY_PAIRS
                   or sum(b.size for bs in _replay.values() for b in bs) > _REPLAY_ENTRIES):
                _replay.popitem(last=False)


def enumerate_monge_maps(source_weights, target_weights) -> Iterator[MongeMap]:
    """Yield every measure-preserving assignment, in lexicographic order.

    The maps are the rows of the blocks that ``gm_exact`` scans: those whose
    every fiber sum is within ``TOL_MASS`` of its target weight, the rule of
    ``check_measure_preserving``.  An empty stream is a valid result and
    signals that the Gromov-Monge distance is infinite.  A pair of weight
    vectors streamed to the end before in this process, byte for byte, is
    replayed from a bounded store (``_map_blocks``); the maps are the same.
    """
    sw = _numeric(source_weights, "source weights")
    tw = _numeric(target_weights, "target weights")
    _check_weights(sw, "source weights")
    _check_weights(tw, "target weights")
    for block in _map_blocks(sw, tw):
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
    """dis^p (or the sup for p=inf) for a batch of assignments, plain float64.

    One gather makes the only (B, n, n) temporary; every later step runs in
    place on it.
    """
    diff = omy[assigns[:, :, None], assigns[:, None, :]]
    np.subtract(omx, diff, out=diff)
    np.abs(diff, out=diff)
    if math.isinf(p):
        return diff.max(axis=(1, 2))
    if p == 2.0:
        diff *= diff
    elif p != 1.0:
        diff **= p
    return np.einsum("bik,i,k->b", diff, w, w)


def gm_exact(netX: MeasureNetwork, netY: MeasureNetwork, p,
             cap: int = DEFAULT_CAP) -> SolveReport:
    """Gromov-Monge p-distance by exhaustive enumeration.

    Scans every measure-preserving map (each fiber sum within ``TOL_MASS``
    of its target weight), block by block from the enumerator behind
    ``enumerate_monge_maps``, and returns the first minimizer of the float64
    ranking; its value is exactly rounded.  ``iterations`` is the number of
    maps scanned.  Maps are ranked by vectorized float64 sums, so one with a
    lower exact value can lose by a rounding; only the winner's value is
    then recomputed with exactly-rounded accumulation.
    When no map exists the value is ``math.inf`` (infimum over the empty set);
    when maps exist but every one's distortion overflows float64, it raises
    ``ValueError``.

    Raises ``CapExceededError`` when the instance admits more than ``cap``
    maps, and ``ValueError`` when ``cap`` is below 1.  Uniform weights count
    their maps in closed form, before any scan.

    The maps depend on the weights alone: a pair of weight vectors whose
    maps this process enumerated to the end before, byte for byte, replays
    the stored blocks from a bounded least-recently-used store
    (``_map_blocks``) instead of enumerating again.  Value, witness,
    ``iterations`` and the cap check are the same either way.
    """
    p = check_exponent(p)
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
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
    with np.errstate(over="ignore"):
        for assigns in _map_blocks(wx, wy):
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
        if count:
            raise ValueError("the order-p distortion overflows float64 on these tables")
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

    The integers a_i and b_j are the exact binary values of the floats.
    When their totals S_a and S_b differ (each weight vector sums to 1 only
    within ``TOL_MASS``), supplies a_i * S_b and demands b_j * S_a over the
    squared denominator balance them: every vertex then has the row and
    column sums of the product coupling, each within its weight times
    ``TOL_MASS`` of that weight.
    """
    ratios = [w.as_integer_ratio() for w in np.concatenate([wx, wy]).tolist()]
    den = max(d for _, d in ratios)  # powers of two: the largest is a common multiple
    ints = [a * (den // d) for a, d in ratios]
    source, target = ints[:wx.size], ints[wx.size:]
    total_a, total_b = sum(source), sum(target)
    if total_a == total_b:
        return source, target, den
    return [a * total_b for a in source], [b * total_a for b in target], den * den


class _TransportBasis:
    """A basis of the transportation problem with fixed marginals, kept from
    one solve to the next so that each starts from the last optimal tree.

    The basis is a spanning tree of n + m - 1 cells (rows are nodes
    0..n-1, columns nodes n..n+m-1), degenerate zero-flow cells included.
    Flows are exact integers over the common denominator of the marginals'
    binary values (``_integer_marginals``), so no weight is rounded, and
    carry the perturbation that rules out cycling: row i supplies eps more,
    and the last column demands n * eps more (Orden's perturbation; the
    lexicographic rule of the simplex method).  With K = 2n + 1 a flow
    x + k * eps is held as the one integer x * K + k; every basic
    |k| <= n, so comparing the integers compares the pairs
    lexicographically, and every basic flow is positive, so no pivot is
    degenerate and none repeats a basis.

    The first tree is the matrix-minimum start for ``cost`` (Ahuja,
    Magnanti & Orlin, "Network Flows", 1993): cells in stably sorted cost
    order each take all they can while their row and column are both open.
    The perturbation keeps the two open balances unequal until the last
    cell, so each cell closes exactly one line and n + m - 1 cells span.
    On a constant cost this is the north-west corner walk.
    """

    def __init__(self, wx: np.ndarray, wy: np.ndarray, cost: np.ndarray):
        source, target, self.den = _integer_marginals(wx, wy)
        n, m = len(source), len(target)
        self.n, self.m, self.K = n, m, 2 * n + 1
        left_row = [a * self.K + 1 for a in source]
        left_col = [b * self.K for b in target]
        left_col[-1] += n
        self.rows, self.cols, self.flow = [], [], []
        for cell in np.argsort(cost, axis=None, kind="stable").tolist():
            i, j = divmod(cell, m)
            if left_row[i] and left_col[j]:
                f = min(left_row[i], left_col[j])
                left_row[i] -= f
                left_col[j] -= f
                self.rows.append(i)
                self.cols.append(j)
                self.flow.append(f)
                if len(self.flow) == n + m - 1:
                    break
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


def gw_frank_wolfe(netX: MeasureNetwork, netY: MeasureNetwork,
                   init: Coupling | None = None, max_iters: int = 1000,
                   tol_fw: float = 1e-12) -> SolveReport:
    """Conditional gradient descent on the squared order-2 distortion.

    Writing the squared distortion as const - 2 <pi, omega_X pi omega_Y^T>,
    each step solves a linear transport problem on the gradient table and
    moves by exact line search; the restriction of the objective to a
    segment is a quadratic, so the step is closed form and the objective
    never increases.
    Stops when the Frank-Wolfe gap drops below ``tol_fw``.

    One oracle serves every pair of marginals, uniform or not, square or
    not: the transport problems of one run share their marginals, so one
    ``_TransportBasis`` serves them all.  Each step's simplex starts from the
    previous step's optimal basis and returns a vertex that is optimal up to
    its pricing tolerance, so the gap is not underestimated beyond that.
    The first step's gradient also picks the simplex's first tree.
    Raises ``ValueError`` for a negative ``max_iters``, a ``tol_fw`` that
    is negative or nan, or tables on which the objective or its gradient
    overflows float64.

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

    def gradient(t: np.ndarray) -> np.ndarray:
        return -2.0 * (omx @ t @ omy.T + omx.T @ t @ omy)

    with np.errstate(over="ignore", invalid="ignore"):
        const = float((omx**2 * np.outer(wx, wx)).sum()
                      + (omy**2 * np.outer(wy, wy)).sum())
        grad = gradient(pi)
    if not (math.isfinite(const) and np.all(np.isfinite(grad))):
        raise ValueError("the order-2 objective overflows float64 on these tables")
    basis = _TransportBasis(wx, wy, grad)

    def objective(t: np.ndarray) -> float:
        return const - 2.0 * float((t * (omx @ t @ omy.T)).sum())

    trace = [math.sqrt(max(objective(pi), 0.0))]
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        if it > 1:
            grad = gradient(pi)
        vertex = basis.solve(grad)
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


def _permuted_table(om: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    # om[np.ix_(sigma, sigma)], C-ordered like it, in about a third of its time
    return om.take(sigma, axis=0).take(sigma, axis=1)


def _qap_value(omx: np.ndarray, omy: np.ndarray, sigma: np.ndarray) -> float:
    return float((omx * _permuted_table(omy, sigma)).sum())


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
            if np.array_equal(cols, sigma):
                break  # re-scoring the same permutation cannot improve
            new_val = _qap_value(omx, omy, cols)
            if new_val > val + MOVE_TOL:
                sigma, val = cols.astype(np.intp), new_val
                moves += 1
                improved = True
            else:
                break
        gains = _swap_gains(omx, _permuted_table(omy, sigma))
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

def _split_support(netX: MeasureNetwork, netY: MeasureNetwork,
                   pi: Coupling) -> tuple[MongeMap, MongeMap, np.ndarray]:
    """The split's projections rho and phi (row and column of each support
    cell above ``EPS_SUPP``) and its renormalized mass, checked to be
    measure preserving."""
    _check_couples(pi, netX, netY)
    rows, cols = np.nonzero(pi.table > EPS_SUPP)
    mass = pi.table[rows, cols]
    mass = mass / _exact_sum(mass)
    rho, phi = MongeMap(rows), MongeMap(cols)
    check_measure_preserving(rho, mass, netX.weights)
    check_measure_preserving(phi, mass, netY.weights)
    return rho, phi, mass


def mass_split_from_coupling(netX: MeasureNetwork, netY: MeasureNetwork,
                             pi: Coupling) -> MassSplit:
    """Split a network along a coupling's support.

    The split network Z has one point per support cell (i, j) of the
    coupling, carries the corresponding (renormalized) coupling mass, and
    pulls the source table back along the first projection.  The second
    projection is then a measure-preserving map Z -> Y whose p-distortion
    equals the p-distortion of the coupling, for every p.  When the source
    table is a metric, Z's table is a pseudometric.
    """
    rho, phi, mass = _split_support(netX, netY, pi)
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
    rho, phi, mass = _split_support(netX, netY, pi)
    p = check_exponent(p)
    return _distortion(netX.omega, netY.omega, rho.assignment, phi.assignment, mass, p,
                       pair_weights=True)
