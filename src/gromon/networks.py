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
import numbers
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
    """Validate an order parameter: a number >= 1 or ``math.inf`` (text: ``parse_exponent``)."""
    p = _number(p, "exponent")
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"exponent must satisfy p >= 1 (math.inf allowed), got {p}")
    return p


def parse_exponent(text) -> float:
    """Parse ``'inf'`` or a decimal string into a valid exponent."""
    t = str(text).strip().lower()
    if t in ("inf", "infinity", "oo"):
        return math.inf
    return check_exponent(float(t))


def _real(v) -> bool:
    """The leaf rule of a float field: a real number that is not a bool.
    float() or np.asarray would parse text, count a bool as 0 or 1 and drop
    the imaginary part of a complex number.  A plain float, the common
    case, passes without the slower abstract-class test."""
    return type(v) is float or isinstance(v, numbers.Real) and not isinstance(v, bool)


def _number(v, what: str) -> float:
    """A scalar input as a float, by the leaf rule of ``_field``: a 0-d
    ndarray passes on its dtype kind, and a larger array is refused."""
    if not (_real(v) or isinstance(v, np.ndarray) and not v.ndim
            and v.dtype.kind in "iuf"):
        raise TypeError(f"{what} must be a number, got {v!r}")
    return float(v)


def _integer(v, what: str) -> int:
    try:  # a float, a string, None or a bool is a TypeError
        if isinstance(v, bool):
            raise TypeError
        return operator.index(v)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {v!r}") from None


def _field(a, what: str, kinds: str) -> None:
    """Check an input field before ``np.asarray`` reads it, since it would
    parse, upcast or truncate what this refuses.

    ``kinds`` is "iuf" for a float field and "iu" for an integer field.  An
    ndarray passes on its dtype kind.  Nested lists and tuples are walked
    leaf by leaf: in a float field each leaf must pass ``_real``, in an
    integer field ``_integer``; any other leaf is a ``TypeError``.  A list
    or tuple whose items are all plain floats or ints (plain ints in an
    integer field), the common row, passes on one scan of their types.
    """
    plain = {float, int} if kinds == "iuf" else {int}
    stack = [a]
    while stack:
        v = stack.pop()
        if isinstance(v, np.ndarray):
            if v.dtype.kind not in kinds:
                noun = "numbers" if kinds == "iuf" else "integers"
                raise TypeError(f"{what} must hold {noun}, got an array of {v.dtype}")
        elif isinstance(v, (list, tuple)):
            if not plain.issuperset(map(type, v)):
                stack.extend(reversed(v))
        elif kinds == "iu":
            _integer(v, what if v is a else f"each entry of {what}")
        elif not _real(v):
            raise TypeError(f"{what} must be a list of numbers, got {v!r}" if v is a
                            else f"each entry of {what} must be a number, got {v!r}")


def _numeric(a, what: str) -> np.ndarray:
    """A float input field (see ``_field``) as a float array; a nan or
    infinite entry is a ``ValueError``."""
    _field(a, what, "iuf")
    out = np.asarray(a, dtype=float)
    if not np.isfinite(out).all():
        raise ValueError(f"{what} must be finite")
    return out


def _integers(a, what: str) -> np.ndarray:
    """An integer input field (see ``_field``) as an intp array."""
    _field(a, what, "iu")
    return np.asarray(a, dtype=np.intp)


def _frozen(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


# A distortion block of about _BLOCK terms stays in cache; from _TOP up no sum
# of blocks is safe from overflow; under _TINY a block's rounding bound could
# underflow.
_BLOCK = 1 << 14
_TOP = 2.0 ** 959
_TINY = 2.0 ** -900


def _exact_sum(terms) -> float:
    """Exactly rounded sum of the arrays that the zero-argument callable
    ``terms`` yields afresh on each call.

    Equal bit for bit to ``math.fsum`` over all elements in order, usually
    without boxing them, by the error-free extraction of Rump, Ogita & Oishi
    ("Accurate floating-point summation, part I", 2008).  A block r of N
    elements with max|r| < 2**e is split at sigma = 2**s, s = k + e,
    k = bit_length(2N + 2): q = (sigma + r) - sigma is exact, lies on the
    grid ulp(sigma)/2 and sums to less than sigma in magnitude, so
    ``q.sum()`` is exact in any order, and so is each entry of r - q, which
    is at most ulp(sigma)/2 = 2**(s - 53).  This holds for any N: k grows
    with N, and s < 1024 keeps sigma finite while max|r| < _TOP = 2**959.

    As in their AccSum, one extraction per block is enough when it decides
    the rounding.  The float sum of the N entries of r - q, in any order, is
    within N**2 * 2**(s - 106) of their exact sum; E adds these bounds over
    the blocks with 4x slack.  If math.fsum of the exact partial sums gives
    the same float with -E and with +E appended, that float is the rounded
    exact sum, since rounding is monotone.  Otherwise ``terms`` is called a
    second time and math.fsum runs over every term, one block at a time.
    It goes there at once when a block holds a non-finite or huge term, so
    overflow and nan behave as in math.fsum, or has a nonzero magnitude
    under 2**-900, where E could underflow; a block of zeros adds nothing.
    """
    parts: list[float] = []
    bound = 0.0
    for r in terms():
        top = float(np.abs(r).max(initial=0.0))
        if not top < _TOP:
            break
        if top >= _TINY:
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
        low = math.fsum(parts + [-bound])
        if low == math.fsum(parts + [bound]):
            return low
    return math.fsum(itertools.chain.from_iterable(r.ravel().tolist() for r in terms()))


def _terms(d: np.ndarray, p: float, wa, wb) -> np.ndarray:
    """The terms |d|**p * wa * wb of the mismatches ``d``, multiplied left to
    right in place; the bare |d| at p = inf.  The p = 2 and p = 1 branches
    give the bits of ``**`` faster."""
    np.abs(d, out=d)
    if math.isinf(p):
        return d
    if p == 2.0:
        d *= d
    elif p != 1.0:
        d **= p
    d *= wa
    d *= wb
    return d


def _distortion(omx: np.ndarray, omy: np.ndarray, ix: np.ndarray, iy: np.ndarray,
                w: np.ndarray, p: float) -> float:
    """Distortion over ordered pairs of points a = (ix[a], iy[a]).

    The mismatch of a pair (a, b) is |omx[ix[a], ix[b]] - omy[iy[a], iy[b]]|.
    For finite p the result is the p-th root of the exactly rounded sum of
    the terms that ``_terms`` forms, mismatch**p * w[a] * w[b].  Every
    distortion (of a coupling, a map, a split or a p-size, and each entry of
    ``gm_exact``'s grouped table) forms its terms there, so a map's distortion
    equals its induced coupling's bit for bit.  The terms are formed by row
    blocks of about _BLOCK, in place, and only one block exists at a time;
    ``_exact_sum`` sums each block as it comes, and calls ``terms`` once, or
    twice when it falls back to ``math.fsum``.

    For p = inf the result is the max mismatch (``w`` unused), taken without
    forming the N x N pairs.  ``ix`` must then be nondecreasing (every caller
    lists its points by source row); a ``ValueError`` says when it is not.
    With S_k the targets of source point k, the pairs of a point a and the
    points of source k reach |omx[ix[a], k] - y| for y over omy[iy[a], S_k].
    Rounded subtraction is monotone and fl(y - x) = -fl(x - y), so their max
    is max(|fl(x - lo)|, |fl(hi - x)|) with lo and hi the min and max of that
    row segment: the same float as the pairwise max.  lo and hi come from one
    ``reduceat`` each over the runs of ``ix``, gathered by ``iy``, in
    O(N * (n + m)) time and memory.
    On finite tables the result is infinite only when a term overflowed,
    which raises ``ValueError``.
    """
    y_cols = omy[:, iy]  # (m, N): the row of omy at each point's target
    if math.isinf(p):
        if (ix[1:] < ix[:-1]).any():
            raise ValueError("the points of a sup distortion must be sorted by source")
        starts = np.flatnonzero(np.concatenate(([True], ix[1:] != ix[:-1])))
        x = omx[:, ix[starts]][ix]  # (N, R): omx[ix[a], k] for each source k
        lo = np.minimum.reduceat(y_cols, starts, axis=1)[iy]
        hi = np.maximum.reduceat(y_cols, starts, axis=1)[iy]
        with np.errstate(over="ignore"):
            np.subtract(x, lo, out=lo)
            np.subtract(hi, x, out=hi)
        value = float(max(np.abs(lo, out=lo).max(), np.abs(hi, out=hi).max()))
    else:
        x_cols = omx[:, ix]
        step = max(1, _BLOCK // max(ix.size, 1))

        def terms():
            for start in range(0, ix.size, step):
                s = slice(start, start + step)
                d = x_cols[ix[s]]
                d -= y_cols[iy[s]]
                yield _terms(d, p, w[s, None], w)

        with np.errstate(over="ignore"):
            value = _exact_sum(terms)
    if not math.isfinite(value):
        raise ValueError("the order-p distortion overflows float64 on these tables")
    return value if math.isinf(p) else value ** (1.0 / p)


def _weights(a, what: str = "weights") -> np.ndarray:
    """A weight vector input as a float array: a numeric field (see
    ``_numeric``) that is a nonempty 1-d vector of strictly positive entries
    summing to 1 within ``TOL_MASS``."""
    w = _numeric(a, what)
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"{what} must be a nonempty 1-d vector")
    if np.any(w <= 0.0):
        raise ValueError(f"{what} must be strictly positive; zero-weight points are rejected")
    try:
        mass = math.fsum(w.tolist())
    except OverflowError:  # the partial sums overflow: far from 1
        mass = math.inf
    if abs(mass - 1.0) > TOL_MASS:
        raise ValueError(f"{what} must sum to 1 within {TOL_MASS:g}, got {mass!r}")
    return w


def _check_marginals(t: np.ndarray, sw: np.ndarray, tw: np.ndarray, what: str) -> None:
    """Raise ``MarginalError`` unless the row sums of ``t`` are within
    ``TOL_MASS`` of ``sw`` and its column sums of ``tw``."""
    row_dev = float(np.abs(t.sum(axis=1) - sw).max())
    col_dev = float(np.abs(t.sum(axis=0) - tw).max())
    if row_dev > TOL_MASS or col_dev > TOL_MASS:
        raise MarginalError(f"{what}: rows off by {row_dev:g}, columns off by {col_dev:g}")


@dataclass(frozen=True, eq=False)
class MeasureNetwork:
    """A finite measure network: weights (probability vector) and an n x n table."""

    weights: np.ndarray
    omega: np.ndarray
    labels: tuple | None = None

    def __post_init__(self):
        w = _weights(self.weights)
        om = _numeric(self.omega, "omega")
        if om.shape != (w.size, w.size):
            raise ValueError(f"omega must be {w.size}x{w.size}, got {om.shape}")
        if self.labels is not None:
            if (isinstance(self.labels, (str, bytes, Mapping))
                    or not hasattr(self.labels, "__len__")):
                raise TypeError(f"labels must be a list, got {self.labels!r}")
            if len(self.labels) != w.size:
                raise ValueError("labels length does not match weights")
            # an ndarray's entries are numpy scalars, which JSON cannot write
            labels = self.labels.tolist() if isinstance(self.labels, np.ndarray) else self.labels
            object.__setattr__(self, "labels", tuple(labels))
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
        sw = _weights(self.source_weights, "source_weights")
        tw = _weights(self.target_weights, "target_weights")
        if t.shape != (sw.size, tw.size):
            raise ValueError(f"table must be {sw.size}x{tw.size}, got {t.shape}")
        if np.any(t < 0.0):
            raise ValueError("coupling table must be nonnegative")
        _check_marginals(t, sw, tw, "marginal mismatch")
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
    _check_marginals(pi.table, netX.weights, netY.weights,
                     "coupling does not couple these networks")


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
    """Largest violation of symmetry, zero diagonal, nonnegativity or triangles
    of a square table, a float field (see ``_numeric``)."""
    om = _numeric(omega, "omega")
    sym = float(np.abs(om - om.T).max())
    diag = float(np.abs(np.diag(om)).max())
    neg = float(max(0.0, -om.min()))
    # om[i,j] - om[i,k] - om[k,j], one k at a time so memory stays O(n^2)
    tri = max(0.0, max(float((om - om[:, k, None] - om[None, k, :]).max())
                       for k in range(om.shape[0])))
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
    bit.  It is formed in blocks of rows, so memory stays O(n*m*(n+m)).  The
    sup compares each support cell (i, j) and source point k with the least
    and greatest omega_Y from j to k's targets: the pairwise max bit for bit
    in O(n*m*(n+m)) time and memory (see ``_distortion``).
    """
    p = check_exponent(p)
    _check_couples(pi, netX, netY)
    t = pi.table
    rows, cols = np.nonzero(t > EPS_SUPP if math.isinf(p) else t)
    return _distortion(netX.omega, netY.omega, rows, cols, t[rows, cols], p)


def _map_distortion(omx: np.ndarray, omy: np.ndarray, w: np.ndarray, a: np.ndarray,
                    p: float) -> float:
    """``_distortion`` of the map ``a`` out of the weights ``w``; at p = inf
    only the source points that weigh more than ``EPS_SUPP`` are read."""
    source = np.flatnonzero(w > EPS_SUPP) if math.isinf(p) else np.arange(w.size)
    return _distortion(omx, omy, source, a[source], w[source], p)


def distortion_map(netX: MeasureNetwork, netY: MeasureNetwork, phi: MongeMap, p) -> float:
    """p-distortion of a measure-preserving map, via the simplified double sum.

    Equals ``distortion_p`` of the induced coupling, bit for bit; the
    double-sum form skips building the coupling table.  The n*n terms are
    summed exactly rounded, block by block, as in ``distortion_p``.  At
    p = inf the sup runs over the source points that weigh more than
    ``EPS_SUPP``, the support of the induced coupling, one comparison per
    pair of them.
    """
    p = check_exponent(p)
    check_measure_preserving(phi, netX.weights, netY.weights)
    return _map_distortion(netX.omega, netY.omega, netX.weights, phi.assignment, p)


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
    a zero table, and is evaluated as such (at p = inf over the points that
    weigh more than ``EPS_SUPP``).
    """
    p = check_exponent(p)
    return _map_distortion(net.omega, np.zeros((1, 1)), net.weights,
                           np.zeros(net.n, dtype=np.intp), p)


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
