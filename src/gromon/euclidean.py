"""Isometry-invariant matching of weighted Euclidean point clouds.

Implements the alternating registration solver for the isometry-invariant
Monge distance (assignment step + weighted orthogonal Procrustes step),
plus the computable embedding-distance values: the exact p = inf identity
(half the sup Gromov-Monge distance), the general half-GM lower bound, and
the simplex-vs-point closed form, which acceptance criterion 07
cross-checks by direct minimization.

The paper's distance is invariant under every isometry, so reflections are
always allowed: every transform ranges over the full orthogonal group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .networks import (
    MeasureNetwork,
    MongeMap,
    _frozen,
    _numeric,
    _weights,
    check_exponent,
    check_measure_preserving,
)
from .solvers import (
    DEFAULT_CAP,
    SolveReport,
    _best_restart,
    _bijections_pair,
    _permutation_pair,
    _uniform_maps,
    enumerate_monge_maps,
    gm_exact,
    gm_infinity,
)

TOL_ORTHO = 1e-10
# Alternations allowed per restart before it stops unconverged.
_MAX_ALTERNATIONS = 100
_OVERFLOW = "the registration cost overflows float64 on these clouds"


@dataclass(frozen=True, eq=False)
class EuclideanCloud:
    """Weighted point list in R^dim."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = _numeric(self.points, "points")
        if pts.ndim != 2 or pts.shape[1] < 1:
            raise ValueError(f"points must be (n, dim), got {pts.shape}")
        w = _weights(self.weights)
        if w.size != pts.shape[0]:
            raise ValueError("weights length does not match point count")
        object.__setattr__(self, "points", _frozen(pts))
        object.__setattr__(self, "weights", _frozen(w))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True, eq=False)
class Isometry:
    """Orthogonal transform (reflections permitted) plus translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = _numeric(self.rotation, "rotation")
        tr = _numeric(self.translation, "translation")
        if rot.ndim != 2 or rot.shape[0] != rot.shape[1]:
            raise ValueError("rotation must be square")
        if tr.shape != (rot.shape[0],):
            raise ValueError("translation dimension does not match rotation")
        dev = float(np.abs(rot.T @ rot - np.eye(rot.shape[0])).max())
        if dev > TOL_ORTHO:
            raise ValueError(f"rotation is not orthogonal (deviation {dev:g})")
        object.__setattr__(self, "rotation", _frozen(rot))
        object.__setattr__(self, "translation", _frozen(tr))

    def apply(self, points: np.ndarray) -> np.ndarray:
        return _numeric(points, "points") @ self.rotation.T + self.translation


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) table of the Euclidean distances between the rows of a and of b.

    The squares are summed one coordinate plane at a time, so no (n, m, dim)
    temporary exists.  For dim <= 7 the entries equal
    ``np.linalg.norm(a[:, None] - b[None], axis=-1)`` bit for bit; from
    dim = 8 on numpy sums the squares pairwise, which may round differently.
    """
    acc = np.zeros((a.shape[0], b.shape[0]))
    d = np.empty_like(acc)
    for k in range(a.shape[1]):
        np.subtract(a[:, k, None], b[:, k], out=d)
        d *= d
        acc += d
    return np.sqrt(acc, out=acc)


def cloud_to_network(cloud: EuclideanCloud) -> MeasureNetwork:
    """Network of pairwise Euclidean distances."""
    return MeasureNetwork(cloud.weights, _distances(cloud.points, cloud.points))


def _fit(points: np.ndarray, w: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rotation and translation of ``procrustes_align`` with targets[i]
    = y_{phi(i)}, on plain arrays and without its input checks."""
    cx = w @ points
    cy = w @ targets
    xc = points - cx
    yc = targets - cy
    cross = xc.T @ (w[:, None] * yc)
    if not np.isfinite(cross).all():
        raise ValueError(_OVERFLOW)
    u, _, vt = np.linalg.svd(cross)
    rot = vt.T @ u.T
    return rot, cy - rot @ cx


def procrustes_align(x: EuclideanCloud, y: EuclideanCloud, phi: MongeMap) -> Isometry:
    """Weighted least-squares rigid alignment of x onto y along a map.

    Minimizes sum_i w_i ||R x_i + t - y_{phi(i)}||^2 over orthogonal R and
    translations t: weighted centroids, cross-covariance, and the orthogonal
    polar factor from an SVD.  R ranges over the full orthogonal group;
    reflections are always allowed.  Raises ``ValueError`` when the
    cross-covariance overflows float64.  The checked public form of
    ``_fit``, the step that ``m_iso`` runs on its own arrays.
    """
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    check_measure_preserving(phi, x.weights, y.weights)
    return Isometry(*_fit(x.points, x.weights, y.points[phi.assignment]))


def _haar_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def _principal_axes(cloud: EuclideanCloud, centroid: np.ndarray) -> np.ndarray:
    """Orthonormal eigenvectors (columns) of the weighted, centred covariance.

    Raises ``ValueError`` when the covariance overflows float64."""
    d = cloud.points - centroid
    cov = d.T @ (cloud.weights[:, None] * d)
    if not np.isfinite(cov).all():
        raise ValueError(_OVERFLOW)
    return np.linalg.eigh(cov)[1]


def _may_have_monge_map(x: EuclideanCloud, y: EuclideanCloud) -> bool:
    # decide uniform and equal-size pairs first: enumeration can be huge there
    total = _uniform_maps(x.weights, y.weights)
    if total is not None:
        return total > 0
    paired = _bijections_pair(x.weights, y.weights)
    if paired is not None:
        return paired
    return next(enumerate_monge_maps(x.weights, y.weights), None) is not None


def m_iso(x: EuclideanCloud, y: EuclideanCloud, p=2, restarts: int = 20,
          seed: int = 0) -> SolveReport:
    """Isometry-invariant Monge distance by alternating minimization.

    Alternates between a min-cost assignment with costs ||T(x_i) - y_j||^p
    and the rigid-transform update at fixed assignment (exact at p = 2; for
    other finite p the order-2 transform is reused as a surrogate while the
    objective is still evaluated at the true p, so the reported value is an
    upper bound either way).  Restart 0, the canonical start, fits the
    transform to the identity assignment.  Restarts 1..2^dim map the
    principal axes of x onto those of y (eigenvectors of the weighted,
    centred covariances, computed once per call), restart r flipping the
    sign of axis k when bit k of r - 1 is set, so reflections are included;
    the rest start from seeded Haar-random orthogonal transforms.  Every
    start aligns the centroids.  A restart stops, converged, when the
    assignment repeats the previous one (the transform and the value depend
    on the assignment alone, so they would repeat too) or when the value
    fails to drop by more than 1e-14; it stops unconverged after 100
    alternations.  The lowest value wins, ties going to the earliest
    restart.  Transforms range over all isometries: reflections are always
    allowed.  Each cost table is built coordinate by coordinate
    (``_distances``), never as an (n, n, dim) tensor.  Restarts hold their
    transforms as arrays (rot, t) fitted by ``_fit``: each assignment is a
    bijection, searched only on pairs where every bijection is measure
    preserving (``solvers._permutation_pair``; uniform clouds of equal size).

    Any other pair reports ``math.inf`` when it has no measure-preserving
    map and raises ``ValueError`` ("unsupported weighting") when it may have
    one.  That is bounded in closed form for uniform weights, decided by
    sorted pairing for clouds of equal size whose target weights all exceed
    ``TOL_MASS`` (``solvers._bijections_pair``), and enumerated for the
    rest.  Clouds whose covariances, fit, costs or values overflow float64
    raise ``ValueError``; the covariances are checked first.
    """
    p = check_exponent(p)
    if math.isinf(p):
        raise ValueError("registration requires a finite exponent")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    if not _permutation_pair(x.weights, y.weights):
        if not _may_have_monge_map(x, y):
            return SolveReport(math.inf, None, "alternating", 0, True)
        raise ValueError(
            f"unsupported weighting: registration searches only uniform clouds of "
            f"equal size, every bijection measure preserving (got {x.n} and {y.n} points)"
        )
    cx, cy = x.weights @ x.points, y.weights @ y.points

    def run(r: int, rng: np.random.Generator | None) -> tuple[float, int, tuple]:
        if rng is None:
            rot, t = _fit(x.points, x.weights, y.points)
        else:
            if r <= 2 ** x.dim:
                # bit k of r - 1 flips the sign of principal axis k
                signs = [-1.0 if (r - 1) >> k & 1 else 1.0 for k in range(x.dim)]
                rot = (vy * signs) @ vx.T
            else:
                rot = _haar_orthogonal(x.dim, rng)
            t = cy - rot @ cx
        moved = x.points @ rot.T + t
        best = (math.inf, None, (rot, t))
        trace: list[float] = []
        for it in range(1, _MAX_ALTERNATIONS + 1):
            cost = _distances(moved, y.points) ** p
            if not np.isfinite(cost).all():
                raise ValueError(_OVERFLOW)
            _, phi = linear_sum_assignment(cost)
            if best[1] is not None and np.array_equal(phi, best[1]):
                # the fit and the value depend on phi alone: they would repeat
                trace.append(trace[-1])
                return best[0], it, (*best, True, trace)
            rot, t = _fit(x.points, x.weights, y.points[phi])
            moved = x.points @ rot.T + t
            res = np.linalg.norm(moved - y.points[phi], axis=1)
            val = math.fsum((res**p * x.weights).tolist()) ** (1.0 / p)
            if not math.isfinite(val):
                raise ValueError(_OVERFLOW)
            trace.append(val)
            if not val < best[0] - 1e-14:
                return best[0], it, (*best, True, trace)
            best = (val, phi, (rot, t))
        return best[0], _MAX_ALTERNATIONS, (*best, False, trace)

    with np.errstate(over="ignore", invalid="ignore"):
        vx, vy = _principal_axes(x, cx), _principal_axes(y, cy)
        (val, phi, fit, done, trace), total_iters = _best_restart(restarts, seed, run)
    return SolveReport(val, MongeMap(phi), "alternating", total_iters, done,
                       trace=tuple(trace), transform=Isometry(*fit))


def gm_em_infinity(netX: MeasureNetwork, netY: MeasureNetwork,
                   cap: int = DEFAULT_CAP) -> float:
    """Embedding Monge distance at p = inf: exactly half the sup GM distance."""
    return 0.5 * gm_infinity(netX, netY, cap).value


def gm_em_lower(netX: MeasureNetwork, netY: MeasureNetwork, p,
                cap: int = DEFAULT_CAP) -> float:
    """Certified lower bound on the embedding Monge p-distance: half of GM_p."""
    return 0.5 * gm_exact(netX, netY, p, cap).value


def simplex_point_embedding_value(n: int, p) -> float:
    """Embedding Monge p-distance between the n-point discrete space and a point.

    The closed form is 1/2 for n >= 2 (0 for n = 1): the constant vector
    alpha = (1/2, ..., 1/2) of distances to the point is feasible and
    optimal.  Acceptance criterion 07 cross-checks it against a direct
    numerical minimization over feasible alpha.
    """
    p = check_exponent(p)
    if math.isinf(p):
        raise ValueError("closed form is stated for finite p")
    if n < 1:
        raise ValueError("n must be >= 1")
    return 0.0 if n == 1 else 0.5
