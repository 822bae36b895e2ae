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

import functools
import math
import sys
import warnings
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
    _distortion,
    _map_distortion,
    _terms,
    _weights,
    check_exponent,
    check_measure_preserving,
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
    """The instance has more measure-preserving maps than the cap, or a bound above it."""


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


def _permutation_pair(wx: np.ndarray, wy: np.ndarray) -> bool:
    """Whether ``check_measure_preserving`` accepts every bijection, each
    fiber one weight added to 0.0: equal sizes and every |w_i - v_j| within
    ``TOL_MASS``, which the extremes decide as rounded subtraction is monotone."""
    return bool(wx.size == wy.size and max(wx.max() - wy.min(), wy.max() - wx.min()) <= TOL_MASS)


def _admission(wx: np.ndarray, wy: np.ndarray) -> tuple[bool | None, int | None]:
    """What the weights alone tell of the maps that ``check_measure_preserving``
    accepts, as (may_exist, bound): ``may_exist`` is False when none is, None
    when only enumeration can tell, and True otherwise; ``bound`` is an upper
    bound on their number (0 when none is), or None.  The one closed-form
    existence rule of every map reader.

    At n = m with every target weight above ``TOL_MASS`` an empty fiber is
    0.0, more than ``TOL_MASS`` below its target, so only bijections pass,
    each fiber one weight added to 0.0.  One does, and a map exists, iff the
    sorted weights pair off within ``TOL_MASS``: rounded subtraction is
    monotone, so sorted pairing minimizes the largest rounded difference.

    Weights uniform within ``TOL_MASS`` (every source weight within it of
    1/n, every target weight of 1/m) bound the maps by n! at n = m.  Else,
    while n * m * (n + 3) <= 1e9, fibers of other sizes than k = n/m miss by
    more than ``TOL_MASS``, so the bound is the n!/(k!)^m maps with fibers
    of k points, 0 unless m divides n; past that size it is all m^n maps.
    The bound is exact at 0 and for a ``_permutation_pair``.  The pairing
    is skipped when the two largest deviations from 1/n sum below
    ``TOL_MASS``: every weight difference is then exact (Sterbenz) and
    within it."""
    n, m = wx.size, wy.size
    dx, dy = np.abs(wx - 1.0 / n).max(), np.abs(wy - 1.0 / m).max()
    uniform = max(dx, dy) <= TOL_MASS
    if n == m and wy.min() > TOL_MASS:
        if not (uniform and dx + dy < TOL_MASS
                or np.abs(np.sort(wx) - np.sort(wy)).max() <= TOL_MASS):
            return False, 0
        return True, math.factorial(n) if uniform else None
    if not uniform:
        return None, None
    if n * m * (n + 3) > 10**9:
        return True, m**n
    if n % m:
        return False, 0
    return True, math.factorial(n) // math.factorial(n // m) ** m


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

# One entry budget.  The enumerator sizes its blocks from it.  Callers score
# one pair of weights against many tables and exponents: one record per pair
# of weights, for _REPLAY_PAIRS pairs, keeps the maps and cells a scan read
# when they total at most _REPLAY_ENTRIES intp entries (8 MiB in all).  The
# uniform 7-7 pair takes 5040 * (7 + 12) = 95 760.
_REPLAY_PAIRS = 4
_REPLAY_ENTRIES = 1 << 18


def _assignment_blocks(source: np.ndarray, target: np.ndarray) -> Iterator[np.ndarray]:
    """Every assignment that ``check_measure_preserving`` accepts for the
    float64 ``source`` and ``target`` weights, as (B, n) intp blocks in
    lexicographic order.

    Blocks of at most max(1, ``_REPLAY_ENTRIES`` // (n(n + m))) rows, the
    budget read when called, grow one source point at a time, depth first,
    children listed row by row.  A row holds n + m entries and at most n
    levels are open, so together they hold a few budgets.  Each row carries
    its fiber sums, added in index order from 0.0 as ``np.bincount`` adds
    them, and is judged by the checker's own expressions: point i may go to
    target j unless fl(fiber + w_i) - target > ``TOL_MASS`` (more points
    only raise that sum), and a complete row is kept when every
    |fiber - target| is within ``TOL_MASS``.  So a target short of its
    weight by more than ``TOL_MASS`` needs a later point of its own, and a
    move that leaves more targets short than points to come is dropped with
    all it would grow: no kept row is lost.  The count is skipped where it
    cannot fire, on a source uniform within ``TOL_MASS`` and targets each
    within it of a multiple k/n of the source weight: a fiber there is
    short by whole points, and one that is not short holds its k, so the
    points to come are at least the short targets but by rounding.  The
    open levels wait on one list, not on the call stack, so no depth is too
    deep; a level whose last block is taken leaves it.
    """
    n, m = source.size, target.size
    block = max(1, _REPLAY_ENTRIES // (n * (n + m)))
    prune = max(np.abs(source - 1.0 / n).max(),
                np.abs(target - np.rint(target * n) / n).max()) > TOL_MASS
    # (rows, their fibers, level i, allowed (row, target) cells, first cell not taken)
    pending = []

    def open_level(assign, fibers, i):
        miss = fibers + source[i] - target  # of each fiber that takes point i
        allowed = miss <= TOL_MASS
        if prune:
            short = fibers - target < -TOL_MASS
            left_short = short.sum(axis=1, keepdims=True) - (short & (miss >= -TOL_MASS))
            allowed &= left_short <= n - 1 - i
        rows, cols = np.nonzero(allowed)
        if rows.size:
            pending.append((assign, fibers, i, rows, cols, 0))

    def grow():
        while pending:
            above_assign, above_fibers, i, rows, cols, s = pending.pop()
            if s + block < rows.size:  # the later blocks wait below this one's children
                pending.append((above_assign, above_fibers, i, rows, cols, s + block))
            r, c = rows[s:s + block], cols[s:s + block]
            assign, fibers = above_assign[r], above_fibers[r]
            assign[:, i] = c
            fibers[np.arange(r.size), c] += source[i]
            if i + 1 < n:
                open_level(assign, fibers, i + 1)
                continue
            done = assign[(np.abs(fibers - target) <= TOL_MASS).all(axis=1)]
            if len(done):
                yield done

    open_level(np.zeros((1, n), dtype=np.intp), np.zeros((1, m)), 0)
    return grow()


@functools.lru_cache(maxsize=16)
def _source_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n(n+1)/2 unordered pairs i <= k of source points as two read-only
    index arrays: the n pairs (i, i) first, then i < k in row-major order."""
    i, k = np.triu_indices(n, 1)
    diag = np.arange(n)
    pairs = np.concatenate([diag, i]), np.concatenate([diag, k])
    for a in pairs:
        a.setflags(write=False)
    return pairs


@functools.lru_cache(maxsize=16)
def _source_groups(n: int) -> tuple[np.ndarray, ...]:
    """The groups of ``_group_table`` for n source points, as read-only index
    arrays (leaf, second, centre, first slab, second slab), one entry per
    group.

    Each centre k >= 1 takes the slabs (i, k), i < k, of ``_source_pairs``
    two at a time: group (i, i + 1, k) for even i, ceil(k/2) groups per
    centre and max(1, n*n // 4) in all.  A lone last leaf (i + 1 = k) takes
    k itself as its second point and the zero slab, of index n(n+1)/2, as
    its second slab.  The n - 1 groups of leaf 0 come first, in order of
    their centre: group k - 1 takes the diagonal slab (k, k) on its centre
    axis, and group 0 also (0, 0) on its leaf axis.  One point is the one
    group (0, 0, 0) of its diagonal alone."""
    zero = n * (n + 1) // 2
    leaf, centre = np.array([(i, k) for i in range(0, n - 1, 2) for k in range(i + 1, n)]
                            or [(0, 0)], dtype=np.intp).T
    second = np.minimum(leaf + 1, centre)

    def pair(i, k):  # the slab of (i, k), i < k, else the zero slab
        return np.where(i < k, n + i * (2 * n - i - 1) // 2 + k - i - 1, zero)

    groups = (leaf, second, centre, pair(leaf, centre), pair(second, centre))
    for a in groups:
        a.setflags(write=False)
    return groups


def _group_table(pairs: np.ndarray, n: int, m: int, p: float) -> np.ndarray:
    """The flat grouped term table, (G, m, m, m), of the flat ``_term_table``
    ``pairs`` of n source and m target points.

    Group g of ``_source_groups`` holds at (x, y, z) what a map with
    a[leaf] = x, a[second] = y and a[centre] = z adds to its distortion,
    added left to right: its first slab at (x, z), the centre diagonal at
    z (groups of leaf 0), group 0's leaf diagonal at x, and its second slab
    at (y, z).  At p = inf each addition is an exact ``np.maximum``
    instead; the terms are nonnegative, so the zero slab changes nothing
    either way."""
    first, second = _source_groups(n)[3:]
    slabs = np.concatenate([pairs, np.zeros(m * m)]).reshape(-1, m, m)
    diags = slabs.reshape(-1, m * m)[:, ::m + 1]  # slab s at each (j, j)
    add = np.maximum if math.isinf(p) else np.add
    lead = slabs[first]
    add(lead[:n - 1], diags[1:n, None, :], out=lead[:n - 1])
    add(lead[0], diags[0][:, None], out=lead[0])
    return add(lead[:, :, None, :], slabs[second][:, None, :, :]).ravel()


def _map_cells(assigns: np.ndarray, m: int) -> np.ndarray:
    """(G, B) intp: the flat index into the ``_group_table`` of the cell of
    each map of the (B, n) block ``assigns`` in each of its G groups, one
    column per map.  Group g of (leaf, second, centre) holds the map's terms
    at cell (a[leaf], a[second], a[centre])."""
    leaf, second, centre = _source_groups(assigns.shape[1])[:3]
    a = assigns.T
    return (np.arange(leaf.size) * m**3)[:, None] + (a[leaf] * m + a[second]) * m + a[centre]


@dataclass
class _PairRecord:
    """What ``gm_exact`` keeps of a pair of weight vectors: ``_admission``'s
    (may_exist, bound), and the read-only blocks of maps with their
    ``_map_cells`` (None past the table's size bound) once a scan reads
    them all within ``_REPLAY_ENTRIES``."""

    may_exist: bool | None
    bound: int | None
    blocks: tuple[tuple[np.ndarray, np.ndarray | None], ...] | None = None


@functools.lru_cache(maxsize=_REPLAY_PAIRS)
def _pair_record(source: bytes, target: bytes) -> _PairRecord:
    """The record of these float64 weight bytes, its admission decided once."""
    return _PairRecord(*_admission(np.frombuffer(source), np.frombuffer(target)))


def enumerate_monge_maps(source_weights, target_weights) -> Iterator[MongeMap]:
    """Yield every measure-preserving assignment, in lexicographic order.

    The maps are the rows of the blocks that ``gm_exact`` scans: exactly
    those that ``check_measure_preserving`` accepts, their fiber sums formed
    and compared as it forms them.  An empty stream is a valid result and
    signals that the Gromov-Monge distance is infinite; it is empty at once
    when ``_admission`` rules every map out.  The maps are enumerated as the
    caller pulls them; only ``gm_exact`` replays them.
    """
    sw = _weights(source_weights, "source weights")
    tw = _weights(target_weights, "target weights")
    if _admission(sw, tw)[0] is False:
        return
    for block in _assignment_blocks(sw, tw):
        for row in block:
            yield MongeMap(row)


def _term_table(omx: np.ndarray, omy: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """The flat folded term table of a pair of networks, (n(n+1)/2, m, m).

    Slab s of the source pair (i, k) of ``_source_pairs`` holds at (j, l)
    what a map with a[i] = j and a[k] = l adds to its distortion.  Each term
    is formed by ``networks._terms``, the former of every distortion term:
    |omx[i, k] - omy[j, l]|**p * w[i] * w[k] multiplied left to right, and
    for i < k the terms of (i, k) and (k, i) are folded into one entry: a
    sum at finite p.  At p = inf an entry is the larger mismatch, or 0 when
    i or k weighs at most ``EPS_SUPP``, the support rule of
    ``distortion_map``.  Overflow gives inf, never nan; the caller silences
    its warning.
    """
    n = w.size
    i, k = _source_pairs(n)

    def terms(a, b, om):
        # ordered source pairs (a, b) against om[j, l]
        return _terms(omx[a, b][:, None, None] - om, p,
                      w[a][:, None, None], w[b][:, None, None])

    table = terms(i, k, omy)
    back = terms(k[n:], i[n:], omy.T)
    if math.isinf(p):
        np.maximum(table[n:], back, out=table[n:])
        table[(w[i] <= EPS_SUPP) | (w[k] <= EPS_SUPP)] = 0.0
    else:
        table[n:] += back
    return table.ravel()


def _own_terms(omx: np.ndarray, omy: np.ndarray, w: np.ndarray, assigns: np.ndarray,
               p: float) -> np.ndarray:
    """(n*n, B): the n*n terms of each map of the (B, n) block ``assigns``,
    one column per map.  Each is ``networks._terms`` of the mismatch
    omx[i, k] - omy[a[i], a[k]], the float ``distortion_map`` forms; at
    p = inf the terms of points that weigh at most ``EPS_SUPP`` are 0, as
    they leave its sup."""
    a = assigns.T
    d = omy[a[:, None], a[None, :]]
    np.subtract(omx[:, :, None], d, out=d)
    terms = _terms(d, p, w[:, None, None], w[:, None])
    if math.isinf(p):
        terms[w <= EPS_SUPP] = terms[:, w <= EPS_SUPP] = 0.0
    return terms.reshape(w.size * w.size, len(assigns))


def _map_distortion_batch(terms: np.ndarray, cells: np.ndarray | None, p: float) -> np.ndarray:
    """dis^p (the sup at p = inf) of a block of maps, one per column of
    ``terms[cells]``, their ``_map_cells`` in the ``_group_table``, or of
    ``terms`` itself when ``cells`` is None, their ``_own_terms``: a plain
    float64 sum of each column, or its exact max."""
    picked = terms if cells is None else terms[cells]  # take would copy a read-only index
    return picked.max(axis=0) if math.isinf(p) else picked.sum(axis=0)


def _screen_slack(n: int, p: float) -> float:
    """The relative slack of ``gm_exact``'s screen for n source points at
    finite p: a map's float score is within it of the exact sum of its terms,
    and every exact minimizer scores within it of the least score."""
    # The screen keeps every map a whose exact value V(a) could be least.
    # With u = 2**-53 and G = max(1, n*n // 4): each term a score reads is
    # _distortion's (equal for p in {1, 2}; numpy's pow is within 4 ulps of
    # exact, so two evaluations and their weight products differ by at most
    # 24u).  From its own terms the score sums the n*n nonnegative terms,
    # rounding n*n - 1 times in any order.  From the grouped table a term
    # rounds at most once in the pair table's fold, three times in its
    # group (a second slab and up to two diagonals) and G - 1 times in the
    # sum of the G group entries.  So the score is F(a) = S(a)(1 + t),
    # |t| <= g ~ (n*n + 25)u, as G + 27 <= n*n + 25 for n >= 2, for S(a)
    # the exact sum of _distortion's terms (at n = 1 each group addition
    # adds an exact zero).  V(a) = pow(R(a), 1/p) with R(a) = S(a)(1 +- u)
    # and pow within 2 ulps, so V(a) <= V(b) gives
    # R(a) <= R(b)((1 + 4u)/(1 - 4u))**p(1 + 2u), and for b of least score
    # F(a) <= F(b) exp(2.01(g + u + 4.01pu)) <= F(b)(1 + 4(g + u + 5pu)) as
    # long as that slack is at most 1/2.  Two more u cover forming the
    # screen's limit F(b)(1 + slack).
    return 4 * (n * n + 28 + 5 * p) * 2.0**-53


def gm_exact(netX: MeasureNetwork, netY: MeasureNetwork, p,
             cap: int = DEFAULT_CAP) -> SolveReport:
    """Gromov-Monge p-distance by exhaustive enumeration.

    Scans every map that ``check_measure_preserving`` accepts, block by
    block from the enumerator behind ``enumerate_monge_maps``, and returns
    the first exact minimizer in lexicographic order: the first map whose
    ``distortion_map`` value is least, with that value.  ``iterations`` is
    the number of maps scanned.

    Each map is scored by a float64 sum of its own n*n terms
    (``_own_terms``) or, once the call has built the grouped table
    ``_group_table``, of one entry per group, G = max(1, n*n // 4) in all.
    The table, G*m**3 entries, is built at the first block where the maps
    so far have read as many terms, count*n*n >= G*m**3, and only within
    ``_REPLAY_PAIRS * _REPLAY_ENTRIES`` entries (8 MiB), all the store
    holds.  The score only screens: every map whose float score is within a
    rounding slack of the least score so far is ranked again by its exactly
    rounded distortion, and strict ``<`` in block order keeps the first.
    The slack bounds every rounding between the two, so no exact minimizer
    is screened out.  The rank sums the map's ``_own_terms``, the floats
    ``distortion_map`` forms, with ``math.fsum``, which its exact sum
    equals; so the value is ``distortion_map``'s bit for bit, and an
    overflow raises what it raises.  At p = inf the score is a max, already
    exact, and no map is ranked again.
    When no map exists the value is ``math.inf`` (infimum over the empty set);
    when maps exist but every one's distortion overflows float64, it raises
    ``ValueError``.

    Raises ``CapExceededError`` when the instance admits more than ``cap``
    maps, and ``ValueError`` when ``cap`` is below 1.  Before any scan the
    weights alone, through ``_admission``, may rule every map out (value
    ``math.inf``, 0 iterations) or bound the maps from the point counts;
    the bound is exact at 0 and on a ``_permutation_pair``, and otherwise an
    upper bound, so the cap test errs toward raising.  The cap test runs on
    every call.

    The maps depend on the weights alone, and only this function replays
    them.  One least-recently-used record per pair of weight bytes
    (``_pair_record``) keeps the admission, decided once, and the blocks
    with their cells that a scan read: kept while the maps and cells so far
    stay within ``_REPLAY_ENTRIES`` entries, released once they pass it,
    and stored when the stream ends within it.  A call that raises stores
    nothing.  Later calls scan the stored blocks instead of enumerating
    again; value, witness, ``iterations`` and the cap check are the same
    either way.
    """
    p = check_exponent(p)
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    wx, wy = netX.weights, netY.weights
    record = _pair_record(wx.tobytes(), wy.tobytes())
    bound = record.bound
    if record.may_exist is False:
        return SolveReport(math.inf, None, "enumeration", 0, True)
    if bound is not None and bound > cap:
        # Python refuses to print an int of more than 4 300 digits
        shown = bound if bound.bit_length() <= 14_000 else f"a {bound.bit_length()}-bit number"
        raise CapExceededError(f"too large for exact enumeration: the point counts "
                               f"bound the maps by {shown}, above cap {cap}")
    omx, omy = netX.omega, netY.omega
    n, m = netX.n, netY.n
    slack, tiny = _screen_slack(n, p), n * n * 2.0**-1066
    top = sys.float_info.max
    best_float = best_value = math.inf
    best_assign = None
    count = entries = 0
    table_size = max(1, n * n // 4) * m**3
    fits = table_size <= _REPLAY_PAIRS * _REPLAY_ENTRIES
    blocks, kept = record.blocks, None  # a replay keeps nothing
    if blocks is None:  # cells only for a table that may be built
        blocks, kept = ((a, _map_cells(a, m) if fits else None)
                        for a in _assignment_blocks(wx, wy)), []
    table = None
    with np.errstate(over="ignore"):
        for assigns, cells in blocks:
            count += len(assigns)
            if count > cap:
                raise CapExceededError(
                    f"too large for exact enumeration: more than {cap} maps"
                )
            entries += assigns.size + (0 if cells is None else cells.size)
            if entries > _REPLAY_ENTRIES:
                kept = None  # past the budget: the pair is streamed each call
            elif kept is not None:
                for stored in (assigns, cells):
                    if stored is not None:
                        stored.setflags(write=False)
                kept.append((assigns, cells))
            if table is None and fits and count * n * n >= table_size:
                table = _group_table(_term_table(omx, omy, wx, p), n, m, p)
            if table is None:
                own, cells = _own_terms(omx, omy, wx, assigns, p), None
            vals = _map_distortion_batch(own if cells is None else table, cells, p)
            b = int(np.argmin(vals))
            if math.isinf(p):
                if vals[b] < best_value:
                    best_value, best_assign = float(vals[b]), assigns[b]
                continue
            best_float = min(best_float, float(vals[b]))
            # tiny covers terms under the normal range, where rounding is
            # absolute: a score adds n*n terms by n*n - 1 additions that are
            # not of an exact zero, however grouped; past 1/2 (p beyond about
            # 2e14) the slack's bound fails, and every map whose score is
            # finite is ranked again
            limit = min(best_float * (1 + slack) + tiny, top) if slack <= 0.5 else top
            rows = np.flatnonzero(vals <= limit)
            ranked = own[:, rows] if table is None else _own_terms(omx, omy, wx, assigns[rows], p)
            for a, terms in zip(assigns[rows], ranked.T):
                # _map_distortion's sum: _exact_sum equals math.fsum
                total = math.fsum(terms.tolist())
                if not math.isfinite(total):
                    raise ValueError("the order-p distortion overflows float64 on these tables")
                value = total ** (1.0 / p)
                if value < best_value:
                    best_value, best_assign = value, a
    if kept is not None:
        record.blocks = tuple(kept)
    if best_assign is None:
        if count:
            raise ValueError("the order-p distortion overflows float64 on these tables")
        return SolveReport(math.inf, None, "enumeration", 0, True)
    return SolveReport(best_value, MongeMap(best_assign), "enumeration", count, True)


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
# Frank-Wolfe stops after _FW_MAX_ITERS steps, or at a gap of at most _FW_GAP_TOL.
_FW_MAX_ITERS = 1000
_FW_GAP_TOL = 1e-12


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

    def solve(self, cost: np.ndarray) -> np.ndarray:
        """Pivot to an optimal basis for ``cost`` and return its vertex.

        Dantzig pricing: the most negative reduced cost enters while it is
        below -tol, tol = ``_PRICE_ULPS`` * (n + m) * eps * max|cost|, and
        the smallest perturbed flow on the cycle's decreasing cells leaves.
        Raises ``RuntimeError`` when ``_PIVOTS_PER_CELL`` * n * m pivots do
        not reach optimality.

        The potentials u_i + v_j = c_ij hang from u_0 = 0: each node's is
        its tree cell's cost minus its parent's.  The whole tree is walked
        once per call; after a pivot only the subtree that the leaving cell
        cut off is walked again, hung from the entering cell's other end
        (the standard update of Ahuja, Magnanti & Orlin).  Every potential
        is still formed along the node's unique tree path, so it is the same
        float as a full walk would give.
        """
        n, m = self.n, self.m
        rows, cols, flow, adj = self.rows, self.cols, self.flow, self.adj
        max_pivots = _PIVOTS_PER_CELL * n * m
        c = cost.tolist()
        tol = _PRICE_ULPS * (n + m) * np.finfo(float).eps * float(np.abs(cost).max())
        pot = [0.0] * (n + m)
        up = [-1] * (n + m)  # the cell joining a node to its parent
        parent = [-1] * (n + m)
        depth = [0] * (n + m)

        def hang(root: int) -> None:
            # (re)set every node below root from root's own entries
            stack = [root]
            while stack:
                a = stack.pop()
                for s in adj[a]:
                    if s != up[a]:
                        b = n + cols[s] if a < n else rows[s]
                        up[b], parent[b], depth[b] = s, a, depth[a] + 1
                        pot[b] = c[rows[s]][cols[s]] - pot[a]
                        stack.append(b)

        hang(0)
        for pivots in range(max_pivots + 1):
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
            # the leaving cell lies on the root path of the end it cuts off;
            # that end now hangs from the other by the entering cell, which
            # took the leaving cell's slot
            cut, other = (ie, n + je) if leave in from_a else (n + je, ie)
            up[cut], parent[cut], depth[cut] = leave, other, depth[other] + 1
            pot[cut] = c[ie][je] - pot[other]
            hang(cut)
        vertex = np.zeros((n, m))
        # the unperturbed flow x of x * K + k, as the float nearest x / den
        vertex[rows, cols] = [(f + n) // self.K / self.den for f in flow]
        return vertex


def gw_frank_wolfe(netX: MeasureNetwork, netY: MeasureNetwork,
                   init: Coupling | None = None) -> SolveReport:
    """Conditional gradient descent on the squared order-2 distortion.

    Writing the squared distortion as const - 2 <pi, omega_X pi omega_Y^T>,
    each step solves a linear transport problem on the gradient table and
    moves by exact line search; the restriction of the objective to a
    segment is a quadratic, so the step is closed form and the objective
    never increases.
    Stops, converged, at the first step that does not descend: a
    Frank-Wolfe gap of at most 1e-12 (no curvature formed), or no step from
    the line search.  Stops unconverged after 1000 steps.

    One oracle serves every pair of marginals, uniform or not, square or
    not: the transport problems of one run share their marginals, so one
    ``_TransportBasis`` serves them all.  Each step's simplex starts from the
    previous step's optimal basis and returns a vertex that is optimal up to
    its pricing tolerance, so the gap is not underestimated beyond that.
    The first step's gradient also picks the simplex's first tree.
    Raises ``ValueError`` for tables on which the objective or its gradient
    overflows float64.

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

    # omx @ pi @ omy.T is formed once per iterate and serves both the
    # objective there and the gradient of the next step
    def gradient(t: np.ndarray, cross: np.ndarray) -> np.ndarray:
        return -2.0 * (cross + omx.T @ t @ omy)

    def objective(t: np.ndarray, cross: np.ndarray) -> float:
        return const - 2.0 * float((t * cross).sum())

    with np.errstate(over="ignore", invalid="ignore"):
        cross = omx @ pi @ omy.T
        const = float((omx**2 * np.outer(wx, wx)).sum()
                      + (omy**2 * np.outer(wy, wy)).sum())
        grad = gradient(pi, cross)
    if not (math.isfinite(const) and np.all(np.isfinite(grad))):
        raise ValueError("the order-2 objective overflows float64 on these tables")
    basis = _TransportBasis(wx, wy, grad)

    trace = [math.sqrt(max(objective(pi, cross), 0.0))]
    converged = False
    it = 0
    for it in range(1, _FW_MAX_ITERS + 1):
        if it > 1:
            grad = gradient(pi, cross)
        vertex = basis.solve(grad)
        direction = vertex - pi
        lin = float((grad * direction).sum())
        gamma = 0.0
        if -lin > _FW_GAP_TOL:  # the gap: a descent step exists
            # objective along the segment: f(gamma) = f(0) + lin*gamma + curv*gamma^2
            curv = -2.0 * float((direction * (omx @ direction @ omy.T)).sum())
            if curv > 0.0:
                gamma = min(1.0, max(0.0, -lin / (2.0 * curv)))
            elif lin + curv <= 0.0:
                gamma = 1.0
        if gamma <= 0.0:
            converged = True
            it -= 1
            break
        pi = pi + gamma * direction
        cross = omx @ pi @ omy.T
        trace.append(math.sqrt(max(objective(pi, cross), 0.0)))
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


def _swap_h(t: np.ndarray) -> np.ndarray:
    """h(t)[a, b] = t[a, a] + t[b, b] - t[a, b] - t[b, a]."""
    d = t.diagonal()
    return d[:, None] + d[None, :] - t - t.T


def _swap_gains(hx: np.ndarray, c: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """gains[a, b]: change of sum(omx * c) when rows a, b and columns a, b of
    ``c`` are swapped (the QAP 2-swap delta; zero on the diagonal), given
    hx = h(omx) (``_swap_h``) and cross = omx c^T + omx^T c.

    Neither table is assumed symmetric.  The change is hx * h(c) - h(cross):
    the second term sums the change over rows a, b and over columns a, b as
    if they did not meet; the first corrects the four entries where they do.

    ``_ascend`` reads cross off the gradient G = omx omy[:, s]^T + omx^T
    omy[s, :] at the current permutation s: with c = omy[s][:, s], G[:, s]
    is cross, the same products summed over the same k.  BLAS may still
    block the sums another way, but only within an n-term product's
    rounding, which the screen's slack covers, and ``_qap_value`` confirms
    every move, so the moves are the exact rule's either way.
    """
    return hx * _swap_h(c) - _swap_h(cross)


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
    when it scores every pair.  The ascent ends at the first swap scan that
    finds no move: the jumps stopped there, and they are deterministic.

    Each permutation's gradient is formed once: the jump loop leaves it at
    the current permutation on both of its exits, and the swap scan that
    follows reads its cross term from it.  h(omx) is formed once per ascent.
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
    hx = _swap_h(omx)
    val = _qap_value(omx, omy, sigma)
    moves = 0
    while True:
        while True:
            # gradient of <omega_X P, P omega_Y> at the current permutation
            # matrix; omy.T.take(sigma, 0) is omy[:, sigma].T, C-ordered alike
            grad = omx @ omy.T.take(sigma, axis=0) + omx.T @ omy.take(sigma, axis=0)
            _, cols = linear_sum_assignment(grad, maximize=True)
            if (cols == sigma).all():
                break  # re-scoring the same permutation cannot improve
            new_val = _qap_value(omx, omy, cols)
            if new_val > val + MOVE_TOL:
                sigma, val = cols.astype(np.intp), new_val
                moves += 1
            else:
                break
        gains = _swap_gains(hx, _permuted_table(omy, sigma), grad.take(sigma, axis=1))
        best_val, best_sigma = val, None
        for a, b in zip(*np.nonzero(upper & (gains > MOVE_TOL - slack))):
            if gains[a, b] <= best_val - val + MOVE_TOL - slack:
                continue  # cannot beat the running best
            cand = sigma.copy()
            cand[a], cand[b] = cand[b], cand[a]
            cand_val = _qap_value(omx, omy, cand)
            if cand_val > best_val + MOVE_TOL:
                best_val, best_sigma = cand_val, cand
        if best_sigma is None:
            return sigma, val, moves
        sigma, val = best_sigma, best_val
        moves += 1


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
    wins, ties going to the earliest restart.  Only a ``_permutation_pair``,
    on which every bijection is measure preserving (as on exactly uniform
    weights of equal size), is searched; any other raises ``ValueError``.
    """
    n = netX.n
    if not _permutation_pair(netX.weights, netY.weights):
        raise ValueError(f"weights must be uniform, every bijection measure preserving "
                         f"(got {n} and {netY.n} points)")
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
    value = _map_distortion(omx, omy, netX.weights, best_sigma, 2.0)
    return SolveReport(value, MongeMap(best_sigma), "vertex_ascent", total_moves, True)


# ---------------------------------------------------------------------------
# Mass splitting
# ---------------------------------------------------------------------------

def _split_support(netX: MeasureNetwork, netY: MeasureNetwork,
                   pi: Coupling) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The split's support cells above ``EPS_SUPP`` as row and column index
    arrays, in row-major order, and their renormalized mass."""
    _check_couples(pi, netX, netY)
    rows, cols = np.nonzero(pi.table > EPS_SUPP)
    mass = pi.table[rows, cols]
    return rows, cols, mass / math.fsum(mass.tolist())


def mass_split_from_coupling(netX: MeasureNetwork, netY: MeasureNetwork,
                             pi: Coupling) -> MassSplit:
    """Split a network along a coupling's support.

    The split network Z has one point per support cell (i, j) of the
    coupling, carries the corresponding (renormalized) coupling mass, and
    pulls the source table back along the first projection.  The second
    projection is then a measure-preserving map Z -> Y whose p-distortion
    equals the p-distortion of the coupling, for every p.  When the source
    table is a metric, Z's table is a pseudometric.  Both projections are
    checked to be measure preserving.
    """
    rows, cols, mass = _split_support(netX, netY, pi)
    rho, phi = MongeMap(rows), MongeMap(cols)
    check_measure_preserving(rho, mass, netX.weights)
    check_measure_preserving(phi, mass, netY.weights)
    return MassSplit(Z=MeasureNetwork(mass, netX.omega[np.ix_(rows, rows)]), rho=rho, phi=phi)


def gm_over_split(netX: MeasureNetwork, netY: MeasureNetwork,
                  pi: Coupling, p) -> float:
    """Distortion of the split's projection onto Y.

    Upper-bounds the order-p Gromov-Wasserstein distance for any coupling and
    matches it when the coupling is optimal.  Equals ``distortion_map`` of
    ``mass_split_from_coupling(netX, netY, pi).phi`` bit for bit when that
    split passes its checks, but needs only a valid coupling: it builds no
    map and reads the split's table from X's, by row blocks at finite p, and
    at p = inf one comparison per split point and source of X, as the split
    lists its points by source row (see ``networks._distortion``).
    """
    rows, cols, mass = _split_support(netX, netY, pi)
    p = check_exponent(p)
    return _distortion(netX.omega, netY.omega, rows, cols, mass, p)
