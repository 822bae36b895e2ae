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
import operator
from collections.abc import Mapping
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


def _numeric(a, what: str) -> np.ndarray:
    """A numeric input field as a float array.

    An ndarray passes on its dtype kind (signed, unsigned or float).  Nested
    lists are walked leaf by leaf: a bool, str, bytes, None or mapping leaf is
    a ``TypeError``, where ``np.asarray`` would parse or upcast it.
    """
    stack = [a]
    while stack:
        v = stack.pop()
        if isinstance(v, np.ndarray):
            if v.dtype.kind not in "iuf":
                raise TypeError(f"{what} must hold numbers, got an array of {v.dtype}")
        elif isinstance(v, (list, tuple)):
            stack.extend(reversed(v))
        elif isinstance(v, (bool, np.bool_, str, bytes, Mapping, type(None))):
            raise TypeError(f"{what} must be a list of numbers, got {v!r}" if v is a
                            else f"each entry of {what} must be a number, got {v!r}")
    return np.asarray(a, dtype=float)


def _integer(v, what: str) -> int:
    try:  # a float, a string, None or a bool is a TypeError
        if isinstance(v, bool):
            raise TypeError
        return operator.index(v)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {v!r}") from None


def _integers(a, what: str) -> np.ndarray:
    """An integer input field as an intp array.

    An ndarray passes on its dtype kind (signed or unsigned).  Nested lists are
    walked leaf by leaf, and each leaf must pass ``_integer``: a bool, float,
    str, None or any other leaf is a ``TypeError``, where ``np.asarray`` would
    truncate or parse it.
    """
    stack = [a]
    while stack:
        v = stack.pop()
        if isinstance(v, np.ndarray):
            if v.dtype.kind not in "iu":
                raise TypeError(f"{what} must hold integers, got an array of {v.dtype}")
        elif isinstance(v, (list, tuple)):
            stack.extend(reversed(v))
        else:
            _integer(v, what if v is a else f"each entry of {what}")
    return np.asarray(a, dtype=np.intp)


def _frozen(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


# Pieces of at most _BLOCK terms stay in cache; under _SMALL terms a list for
# math.fsum is faster; from _TOP up no sum of pieces is safe from overflow;
# under _TINY a piece's rounding bound could underflow.
_BLOCK = 1 << 14
_SMALL = 1 << 10
_TOP = 2.0 ** 959
_TINY = 2.0 ** -900


def _pieces(blocks):
    for b in blocks:
        flat = b.ravel()
        for start in range(0, flat.size, _BLOCK):
            yield flat[start:start + _BLOCK]


def _exact_sum(terms) -> float:
    """Exactly rounded sum of an array, or of the arrays that a zero-argument
    callable yields afresh on each call.

    Equal bit for bit to ``math.fsum`` over all elements in order, usually
    without boxing them, by the error-free extraction of Rump, Ogita & Oishi
    ("Accurate floating-point summation, part I", 2008).  A piece r of N
    elements with max|r| < 2**e is split at sigma = 2**s, s = k + e,
    k = bit_length(2N + 2): q = (sigma + r) - sigma is exact, lies on the
    grid ulp(sigma)/2 and sums to less than sigma in magnitude, so
    ``q.sum()`` is exact in any order, and so is each entry of r - q, which
    is at most ulp(sigma)/2 = 2**(s - 53).

    As in their AccSum, one extraction per piece is enough when it decides
    the rounding.  The float sum of the N entries of r - q, in any order, is
    within N**2 * 2**(s - 106) of their exact sum; E adds these bounds over
    the pieces with 4x slack.  If math.fsum of the exact partial sums gives
    the same float with -E and with +E appended, that float is the rounded
    exact sum, since rounding is monotone.  Otherwise the blocks are formed
    a second time and math.fsum runs over every term, one piece at a time,
    so memory stays O(_BLOCK).  It goes there at once when a piece holds a
    non-finite or huge term, so overflow and nan behave as in math.fsum, or
    has a nonzero magnitude under 2**-900, where E could underflow.
    """
    blocks = (lambda: (terms,)) if isinstance(terms, np.ndarray) else terms
    parts: list[float] = []
    bound = 0.0
    for r in _pieces(blocks()):
        top = float(np.abs(r).max())
        if not top < _TOP:
            break
        if r.size < _SMALL:
            parts += r.tolist()
        elif top >= _TINY:
            s = (2 * r.size + 2).bit_length() + math.frexp(top)[1]
            sigma = math.ldexp(1.0, s)
            q = r + sigma
            q -= sigma
            parts.append(float(q.sum()))
            np.subtract(r, q, out=q)
            parts.append(float(q.sum()))
            bound += math.ldexp(r.size * r.size, s - 104)
        elif top:
            break
    else:
        if not bound:
            return math.fsum(parts)
        low = math.fsum(parts + [-bound])
        if low == math.fsum(parts + [bound]):
            return low
    return math.fsum(itertools.chain.from_iterable(r.tolist() for r in _pieces(blocks())))


def _distortion(omx: np.ndarray, omy: np.ndarray, ix: np.ndarray, iy: np.ndarray,
                w: np.ndarray | None, p: float, *, pair_weights: bool) -> float:
    """Distortion over ordered pairs of points a = (ix[a], iy[a]), by row blocks.

    The mismatch of a pair (a, b) is |omx[ix[a], ix[b]] - omy[iy[a], iy[b]]|.
    For p = inf the result is its max (``w`` unused); for finite p it is the
    p-th root of the exactly rounded sum of the terms mismatch**p * w[a] * w[b],
    multiplied left to right, or mismatch**p * (w[a] * w[b]) when
    ``pair_weights`` is set.  Each block of about _BLOCK terms is formed in
    place, and only one exists at a time; ``_exact_sum`` calls ``terms``
    once, or twice when it falls back to ``math.fsum``.
    On finite tables the result is infinite only when a term overflowed,
    which raises ``ValueError``.
    """
    x_cols = omx[:, ix]
    y_cols = omy[:, iy]
    step = max(1, _BLOCK // max(ix.size, 1))

    def mismatch():
        for start in range(0, ix.size, step):
            s = slice(start, start + step)
            d = x_cols[ix[s]]
            d -= y_cols[iy[s]]
            yield s, np.abs(d, out=d)

    def terms():
        for s, d in mismatch():
            if p == 2.0:
                d *= d
            elif p != 1.0:
                d **= p
            if pair_weights:
                d *= np.outer(w[s], w)
            else:
                d *= w[s, None]
                d *= w
            yield d

    with np.errstate(over="ignore"):
        if math.isinf(p):
            value = max(float(d.max()) for _, d in mismatch())
        else:
            value = _exact_sum(terms)
    if not math.isfinite(value):
        raise ValueError("the order-p distortion overflows float64 on these tables")
    return value if math.isinf(p) else value ** (1.0 / p)


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
        w = _numeric(self.weights, "weights")
        _check_weights(w)
        om = _numeric(self.omega, "omega")
        if om.shape != (w.size, w.size):
            raise ValueError(f"omega must be {w.size}x{w.size}, got {om.shape}")
        if not np.all(np.isfinite(om)):
            raise ValueError("omega entries must be finite")
        if self.labels is not None:
            if (isinstance(self.labels, (str, bytes, Mapping))
                    or not hasattr(self.labels, "__len__")):
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
        t = _numeric(self.table, "coupling table")
        sw = _numeric(self.source_weights, "source_weights")
        tw = _numeric(self.target_weights, "target_weights")
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
        a = _integers(self.assignment, "assignment")
        if a.ndim != 1 or a.size == 0:
            raise ValueError("assignment must be a nonempty 1-d integer array")
        if a.min() < 0:
            raise ValueError("assignment entries must be nonnegative indices")
        object.__setattr__(self, "assignment", _frozen(a, dtype=np.intp))

    @property
    def n(self) -> int:
        return self.assignment.size


def check_measure_preserving(phi: MongeMap, source_weights, target_weights) -> None:
    """Raise unless ``phi`` pushes the source weights onto the target weights,
    each fiber sum within ``TOL_MASS`` of its target weight."""
    sw = _numeric(source_weights, "source weights")
    tw = _numeric(target_weights, "target weights")
    a = phi.assignment
    if a.size != sw.size:
        raise NotMeasurePreservingError(
            f"assignment length {a.size} does not match source size {sw.size}"
        )
    if a.max() >= tw.size:
        raise NotMeasurePreservingError("assignment targets out of range")
    pushed = np.bincount(a, weights=sw, minlength=tw.size)
    dev = float(np.abs(pushed - tw).max())
    if dev > TOL_MASS:
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


def validate_network(net: MeasureNetwork) -> MetricFlag:
    """Scan all metric axioms of ``net.omega``, each within ``TOL_METRIC``;
    report verdict and worst violation."""
    om = net.omega
    violation = pseudometric_violation(om)
    distinct = True
    if net.n > 1:
        off = om[~np.eye(net.n, dtype=bool)]
        distinct = bool(off.min() > TOL_METRIC)
    return MetricFlag(is_metric=bool(violation <= TOL_METRIC and distinct),
                      max_violation=violation)


def distortion_p(netX: MeasureNetwork, netY: MeasureNetwork, pi: Coupling, p) -> float:
    """p-distortion of a coupling.

    For finite p this is the L^p norm, under the product of the coupling with
    itself, of the mismatch |omega_X(i,k) - omega_Y(j,l)|.  For p = inf it is
    the sup of the mismatch over ordered pairs of support cells, where the
    support consists of table entries strictly above ``EPS_SUPP``.  It is
    never empty: a valid coupling's mass, at least 1 - (n + 1) * ``TOL_MASS``
    over n * m cells, puts some entry far above ``EPS_SUPP``.

    The sum runs over ordered pairs of nonzero cells only, since a term with
    a zero cell is exactly 0; it is exactly rounded, so whenever none of the
    n*m*n*m terms overflows it equals ``math.fsum`` over all of them, bit for
    bit.  It is formed in blocks of rows, so memory stays O(n*m*(n+m)); the
    sup is likewise taken block by block.
    """
    p = check_exponent(p)
    _check_couples(pi, netX, netY)
    t = pi.table
    rows, cols = np.nonzero(t > EPS_SUPP if math.isinf(p) else t)
    return _distortion(netX.omega, netY.omega, rows, cols, t[rows, cols], p,
                       pair_weights=False)


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
    sw = _numeric(source_weights, "source weights")
    tw = _numeric(target_weights, "target weights")
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
    sw = _numeric(source_weights, "source weights")
    check_measure_preserving(rho, sw, net_metric.weights)
    a = rho.assignment
    return MeasureNetwork(sw, net_metric.omega[np.ix_(a, a)])
