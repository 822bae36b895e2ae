"""Finite measure networks, couplings, Monge maps and distortion functionals.

A measure network is a finite point set carrying strictly positive
probability weights and a dense real-valued square table ``omega``.  When
``omega`` is a metric the network is a metric measure space; nothing here
assumes symmetry unless explicitly checked.

All containers are immutable after construction and every operation is a
pure function, so everything in this module is safe to share across
threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# Tolerances, chosen with double-precision headroom for tables up to ~1e4
# entries: mass/marginal checks, metric-axiom checks, and the support
# threshold used by the sup-distortion of a coupling.
TOL_MASS = 1e-9
TOL_METRIC = 1e-9
EPS_SUPP = 1e-12


class MarginalError(ValueError):
    """A table's row/column sums do not match the prescribed weights."""


class NotMeasurePreservingError(ValueError):
    """An assignment does not push the source weights onto the target weights."""


def check_exponent(p) -> float:
    """Validate an order parameter: a float >= 1, with ``math.inf`` allowed."""
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"exponent must satisfy p >= 1 (math.inf allowed), got {p}")
    return p


def parse_exponent(text) -> float:
    """Parse ``'inf'`` or a decimal string into a valid exponent."""
    t = str(text).strip().lower()
    if t in ("inf", "infinity", "oo"):
        return math.inf
    return check_exponent(float(t))


def _frozen(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


# Pieces of at most _BLOCK terms stay in cache; under _SMALL terms a list for
# math.fsum is faster; from _TOP up no sum of pieces is safe from overflow.
_BLOCK = 1 << 14
_SMALL = 1 << 10
_TOP = 2.0 ** 959


def _pieces(blocks):
    for b in blocks:
        flat = b.ravel()
        for start in range(0, flat.size, _BLOCK):
            yield flat[start:start + _BLOCK]


def _exact_sum(terms) -> float:
    """Exactly rounded sum of an array, or of the arrays an iterable yields.

    Equal bit for bit to ``math.fsum`` over all elements in order, without
    boxing them: each piece is reduced without rounding error by the
    error-free extraction of Rump, Ogita & Oishi ("Accurate floating-point
    summation, part I", 2008), and math.fsum adds the exact partial sums.
    A piece r of N elements with max|r| < 2**e is split by sigma = 2**(k + e),
    k = bit_length(2N + 2): q = (sigma + r) - sigma is exact, lies on the
    grid ulp(sigma)/2 and sums to less than sigma in magnitude, so
    ``q.sum()`` is exact in any order; the remainder r - q is exact too, and
    its largest entry is at most 2**-36 times the previous one.  A non-finite
    or huge term hands everything from its piece on to math.fsum as it is,
    so overflow and nan behave as there.
    """
    pieces = _pieces((terms,) if isinstance(terms, np.ndarray) else terms)
    parts: list[float] = []
    for r in pieces:
        top = float(np.abs(r).max())
        if not top < _TOP:
            rest = itertools.chain.from_iterable(x.tolist() for x in pieces)
            return math.fsum(itertools.chain(parts, r.tolist(), rest))
        if r.size < _SMALL:
            parts += r.tolist()
            continue
        k = (2 * r.size + 2).bit_length()
        r = np.array(r, dtype=float)
        q = np.empty_like(r)
        while top:
            sigma = math.ldexp(1.0, k + math.frexp(top)[1])
            np.add(r, sigma, out=q)
            q -= sigma
            parts.append(float(q.sum()))
            r -= q
            top = float(np.abs(r).max())
    return math.fsum(parts)


def _distortion(omx: np.ndarray, omy: np.ndarray, ix: np.ndarray, iy: np.ndarray,
                w: np.ndarray | None, p: float, *, pair_weights: bool) -> float:
    """Distortion over ordered pairs of points a = (ix[a], iy[a]), by row blocks.

    The mismatch of a pair (a, b) is |omx[ix[a], ix[b]] - omy[iy[a], iy[b]]|.
    For p = inf the result is its max (``w`` unused); for finite p it is the
    p-th root of the exactly rounded sum of the terms mismatch**p * w[a] * w[b],
    multiplied left to right, or mismatch**p * (w[a] * w[b]) when
    ``pair_weights`` is set.  Only blocks of about _BLOCK terms exist at once.
    """
    x_cols = omx[:, ix]
    y_cols = omy[:, iy]
    step = max(1, _BLOCK // max(ix.size, 1))

    def mismatch():
        for start in range(0, ix.size, step):
            s = slice(start, start + step)
            yield s, np.abs(x_cols[ix[s]] - y_cols[iy[s]])

    if math.isinf(p):
        return max(float(d.max()) for _, d in mismatch())
    if pair_weights:
        terms = (d ** p * np.outer(w[s], w) for s, d in mismatch())
    else:
        terms = (d ** p * w[s, None] * w for s, d in mismatch())
    return _exact_sum(terms) ** (1.0 / p)


def _check_weights(w: np.ndarray, what: str = "weights") -> None:
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"{what} must be a nonempty 1-d vector")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{what} must be finite")
    if np.any(w <= 0.0):
        raise ValueError(f"{what} must be strictly positive; zero-weight points are rejected")
    mass = math.fsum(w.tolist())
    if abs(mass - 1.0) > TOL_MASS:
        raise ValueError(f"{what} must sum to 1 within {TOL_MASS:g}, got {mass!r}")


@dataclass(frozen=True, eq=False)
class MeasureNetwork:
    """A finite measure network: weights (probability vector) and an n x n table."""

    weights: np.ndarray
    omega: np.ndarray
    labels: tuple | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        _check_weights(w)
        om = np.asarray(self.omega, dtype=float)
        if om.shape != (w.size, w.size):
            raise ValueError(f"omega must be {w.size}x{w.size}, got {om.shape}")
        if not np.all(np.isfinite(om)):
            raise ValueError("omega entries must be finite")
        if self.labels is not None:
            if isinstance(self.labels, (str, bytes)) or not hasattr(self.labels, "__len__"):
                raise TypeError(f"labels must be a list, got {self.labels!r}")
            if len(self.labels) != w.size:
                raise ValueError("labels length does not match weights")
            object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "weights", _frozen(w))
        object.__setattr__(self, "omega", _frozen(om))

    @property
    def n(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class MetricFlag:
    """Outcome of a metric-axiom scan: verdict plus the largest violation found."""

    is_metric: bool
    max_violation: float


@dataclass(frozen=True, eq=False)
class Coupling:
    """Nonnegative table with prescribed row sums (source) and column sums (target)."""

    table: np.ndarray
    source_weights: np.ndarray
    target_weights: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        sw = np.asarray(self.source_weights, dtype=float)
        tw = np.asarray(self.target_weights, dtype=float)
        _check_weights(sw, "source_weights")
        _check_weights(tw, "target_weights")
        if t.shape != (sw.size, tw.size):
            raise ValueError(f"table must be {sw.size}x{tw.size}, got {t.shape}")
        if not np.all(np.isfinite(t)):
            raise ValueError("coupling table must be finite")
        if np.any(t < 0.0):
            raise ValueError("coupling table must be nonnegative")
        row_dev = float(np.abs(t.sum(axis=1) - sw).max())
        col_dev = float(np.abs(t.sum(axis=0) - tw).max())
        if row_dev > TOL_MASS or col_dev > TOL_MASS:
            raise MarginalError(
                f"marginal mismatch: rows off by {row_dev:g}, columns off by {col_dev:g}"
            )
        object.__setattr__(self, "table", _frozen(t))
        object.__setattr__(self, "source_weights", _frozen(sw))
        object.__setattr__(self, "target_weights", _frozen(tw))

    @property
    def shape(self) -> tuple[int, int]:
        return self.table.shape


@dataclass(frozen=True, eq=False)
class MongeMap:
    """An index map given as an assignment array with entries in {0, ..., m-1}."""

    assignment: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.intp)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("assignment must be a nonempty 1-d integer array")
        if a.min() < 0:
            raise ValueError("assignment entries must be nonnegative indices")
        object.__setattr__(self, "assignment", _frozen(a, dtype=np.intp))

    @property
    def n(self) -> int:
        return self.assignment.size


def check_measure_preserving(phi: MongeMap, source_weights, target_weights,
                             tol: float = TOL_MASS) -> None:
    """Raise unless ``phi`` pushes the source weights onto the target weights."""
    sw = np.asarray(source_weights, dtype=float)
    tw = np.asarray(target_weights, dtype=float)
    a = phi.assignment
    if a.size != sw.size:
        raise NotMeasurePreservingError(
            f"assignment length {a.size} does not match source size {sw.size}"
        )
    if a.max() >= tw.size:
        raise NotMeasurePreservingError("assignment targets out of range")
    pushed = np.bincount(a, weights=sw, minlength=tw.size)
    dev = float(np.abs(pushed - tw).max())
    if dev > tol:
        raise NotMeasurePreservingError(f"pushforward misses target weights by {dev:g}")


def _check_couples(pi: Coupling, netX: MeasureNetwork, netY: MeasureNetwork) -> None:
    if pi.shape != (netX.n, netY.n):
        raise MarginalError(f"coupling shape {pi.shape} does not match ({netX.n}, {netY.n})")
    row_dev = float(np.abs(pi.table.sum(axis=1) - netX.weights).max())
    col_dev = float(np.abs(pi.table.sum(axis=0) - netY.weights).max())
    if row_dev > TOL_MASS or col_dev > TOL_MASS:
        raise MarginalError(
            f"coupling does not couple these networks: rows off by {row_dev:g}, "
            f"columns off by {col_dev:g}"
        )


def product_coupling(netX: MeasureNetwork, netY: MeasureNetwork) -> Coupling:
    """The independent coupling w_i * v_j; always feasible."""
    return Coupling(np.outer(netX.weights, netY.weights), netX.weights, netY.weights)


def simplex_network(n: int) -> MeasureNetwork:
    """Uniform n-point space with the discrete metric (0 on the diagonal, 1 off)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    omega = np.ones((n, n)) - np.eye(n)
    return MeasureNetwork(np.full(n, 1.0 / n), omega)


def one_point_network() -> MeasureNetwork:
    return simplex_network(1)


def pseudometric_violation(omega: np.ndarray) -> float:
    """Largest violation of symmetry, zero diagonal, nonnegativity or triangles."""
    om = np.asarray(omega, dtype=float)
    sym = float(np.abs(om - om.T).max())
    diag = float(np.abs(np.diag(om)).max())
    neg = float(max(0.0, -om.min()))
    # tri[i,j,k] = om[i,j] - om[i,k] - om[k,j]
    tri = float(max(0.0, (om[:, :, None] - om[:, None, :] - om.T[None, :, :]).max()))
    return max(sym, diag, neg, tri)


def validate_network(net: MeasureNetwork, tol_metric: float = TOL_METRIC) -> MetricFlag:
    """Scan all metric axioms of ``net.omega``; report verdict and worst violation."""
    om = net.omega
    violation = pseudometric_violation(om)
    distinct = True
    if net.n > 1:
        off = om[~np.eye(net.n, dtype=bool)]
        distinct = bool(off.min() > tol_metric)
    return MetricFlag(is_metric=bool(violation <= tol_metric and distinct),
                      max_violation=violation)


def distortion_p(netX: MeasureNetwork, netY: MeasureNetwork, pi: Coupling,
                 p, eps_supp: float = EPS_SUPP) -> float:
    """p-distortion of a coupling.

    For finite p this is the L^p norm, under the product of the coupling with
    itself, of the mismatch |omega_X(i,k) - omega_Y(j,l)|.  For p = inf it is
    the sup of the mismatch over ordered pairs of support cells, where the
    support consists of table entries strictly above ``eps_supp``.

    The sum over the n*m*n*m terms is exactly rounded (equal to ``math.fsum``
    over them, bit for bit) and is formed in blocks of rows, so memory stays
    O(n*m*(n+m)); the sup is likewise taken block by block.
    """
    p = check_exponent(p)
    _check_couples(pi, netX, netY)
    t = pi.table
    if math.isinf(p):
        rows, cols = np.nonzero(t > eps_supp)
        if rows.size == 0:
            raise ValueError(f"coupling has empty support above eps_supp={eps_supp:g}")
        return _distortion(netX.omega, netY.omega, rows, cols, None, p, pair_weights=False)
    n, m = t.shape
    rows = np.repeat(np.arange(n), m)
    cols = np.tile(np.arange(m), n)
    return _distortion(netX.omega, netY.omega, rows, cols, t.ravel(), p, pair_weights=False)


def distortion_map(netX: MeasureNetwork, netY: MeasureNetwork, phi: MongeMap, p) -> float:
    """p-distortion of a measure-preserving map, via the simplified double sum.

    Equals ``distortion_p`` of the induced coupling; the double-sum form skips
    building the coupling table.  The n*n terms are summed exactly rounded,
    block by block, as in ``distortion_p``.
    """
    p = check_exponent(p)
    check_measure_preserving(phi, netX.weights, netY.weights)
    return _distortion(netX.omega, netY.omega, np.arange(netX.n), phi.assignment,
                       netX.weights, p, pair_weights=True)


def coupling_from_map(phi: MongeMap, source_weights, target_weights) -> Coupling:
    """The sparse coupling induced by a measure-preserving map."""
    sw = np.asarray(source_weights, dtype=float)
    tw = np.asarray(target_weights, dtype=float)
    check_measure_preserving(phi, sw, tw)
    table = np.zeros((sw.size, tw.size))
    table[np.arange(sw.size), phi.assignment] = sw
    return Coupling(table, sw, tw)


def size_p(net: MeasureNetwork, p) -> float:
    """p-size of a network: the L^p norm of |omega| under weights x weights.

    This is the distortion of the constant map onto a one-point network with
    a zero table, and is evaluated as such.
    """
    p = check_exponent(p)
    return _distortion(net.omega, np.zeros((1, 1)), np.arange(net.n),
                       np.zeros(net.n, dtype=np.intp), net.weights, p, pair_weights=True)


def pullback_network(net_metric: MeasureNetwork, rho: MongeMap,
                     source_weights) -> MeasureNetwork:
    """Pull a metric back along a measure-preserving map.

    The result lives on the source index set and carries
    ``omega(z, z') = d(rho(z), rho(z'))``; it is always a pseudometric (zeros
    off the diagonal are permitted).
    """
    flag = validate_network(net_metric)
    if not flag.is_metric:
        raise ValueError(
            f"pullback requires a metric network (worst axiom violation {flag.max_violation:g})"
        )
    sw = np.asarray(source_weights, dtype=float)
    check_measure_preserving(rho, sw, net_metric.weights)
    a = rho.assignment
    return MeasureNetwork(sw, net_metric.omega[np.ix_(a, a)])
