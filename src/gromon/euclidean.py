"""Isometry-invariant matching of weighted Euclidean point clouds.

Implements the alternating registration solver for the isometry-invariant
Monge distance (assignment step + weighted orthogonal Procrustes step,
reflections allowed), plus the computable embedding-distance values: the
exact p = inf identity (half the sup Gromov-Monge distance), the general
half-GM lower bound, and the simplex-vs-point closed form, which acceptance
criterion 07 cross-checks by direct minimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .networks import (
    MeasureNetwork,
    MongeMap,
    _check_weights,
    _exact_sum,
    _frozen,
    check_exponent,
    check_measure_preserving,
)
from .solvers import (
    DEFAULT_CAP,
    SolveReport,
    _best_restart,
    _count_uniform_maps,
    _uniform,
    enumerate_monge_maps,
    gm_exact,
    gm_infinity,
)

TOL_ORTHO = 1e-10


@dataclass(frozen=True, eq=False)
class EuclideanCloud:
    """Weighted point list in R^dim."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if pts.ndim != 2 or pts.shape[1] < 1:
            raise ValueError(f"points must be (n, dim), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point coordinates must be finite")
        _check_weights(w)
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
        rot = np.asarray(self.rotation, dtype=float)
        tr = np.asarray(self.translation, dtype=float)
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
        return np.asarray(points, dtype=float) @ self.rotation.T + self.translation


def cloud_to_network(cloud: EuclideanCloud, squared: bool = False) -> MeasureNetwork:
    """Network of pairwise Euclidean distances (or their squares)."""
    diff = cloud.points[:, None, :] - cloud.points[None, :, :]
    sq = (diff * diff).sum(axis=-1)
    omega = sq if squared else np.sqrt(sq)
    np.fill_diagonal(omega, 0.0)
    return MeasureNetwork(cloud.weights, omega)


def procrustes_align(x: EuclideanCloud, y: EuclideanCloud, phi: MongeMap,
                     allow_reflections: bool = True) -> Isometry:
    """Weighted least-squares rigid alignment of x onto y along a map.

    Minimizes sum_i w_i ||R x_i + t - y_{phi(i)}||^2 over orthogonal R and
    translations t: weighted centroids, cross-covariance, and the orthogonal
    polar factor from an SVD.  By default R ranges over the full isometry
    group (improper rotations allowed); ``allow_reflections=False`` restricts
    to proper rotations by the usual determinant correction.
    """
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    check_measure_preserving(phi, x.weights, y.weights)
    targets = y.points[phi.assignment]
    w = x.weights
    cx = w @ x.points
    cy = w @ targets
    xc = x.points - cx
    yc = targets - cy
    cross = xc.T @ (w[:, None] * yc)
    u, _, vt = np.linalg.svd(cross)
    rot = vt.T @ u.T
    if not allow_reflections and np.linalg.det(rot) < 0.0:
        flip = np.ones(x.dim)
        flip[-1] = -1.0
        rot = vt.T @ np.diag(flip) @ u.T
    return Isometry(rot, cy - rot @ cx)


def _registration_cost(x: EuclideanCloud, y: EuclideanCloud, phi: np.ndarray,
                       iso: Isometry, p: float) -> float:
    res = np.linalg.norm(iso.apply(x.points) - y.points[phi], axis=1)
    return _exact_sum(res**p * x.weights) ** (1.0 / p)


def _haar_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def _has_monge_map(x: EuclideanCloud, y: EuclideanCloud) -> bool:
    if _uniform(x.weights) and _uniform(y.weights):
        # decided without enumeration, whose search tree can be huge here
        return _count_uniform_maps(x.n, y.n) > 0
    return next(enumerate_monge_maps(x.weights, y.weights), None) is not None


def m_iso(x: EuclideanCloud, y: EuclideanCloud, p=2, restarts: int = 20,
          seed: int = 0, max_alternations: int = 100,
          allow_reflections: bool = True) -> SolveReport:
    """Isometry-invariant Monge distance by alternating minimization.

    Alternates between a min-cost assignment with costs ||T(x_i) - y_j||^p
    and the rigid-transform update at fixed assignment (exact at p = 2; for
    other finite p the order-2 transform is reused as a surrogate while the
    objective is still evaluated at the true p, so the reported value is an
    upper bound either way).  Restart 0, the canonical start, fits the
    transform to the identity assignment; the rest start from seeded
    Haar-random orthogonal transforms after centroid alignment.  The lowest
    value wins, ties going to the earliest restart.  ``allow_reflections=False``
    restricts the transform group to proper rigid motions.

    Only uniform equal-cardinality clouds are searched.  Any other pair
    reports ``math.inf`` when no measure-preserving map exists and raises
    ``ValueError`` ("unsupported weighting") when one does.
    """
    p = check_exponent(p)
    if math.isinf(p):
        raise ValueError("registration requires a finite exponent")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if max_alternations < 1:
        raise ValueError("max_alternations must be >= 1")
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    if not (x.n == y.n and _uniform(x.weights) and _uniform(y.weights)):
        if not _has_monge_map(x, y):
            return SolveReport(math.inf, None, "alternating", 0, True)
        raise ValueError(
            f"unsupported weighting: registration searches only uniform clouds "
            f"of equal size (got {x.n} and {y.n} points)"
        )
    cx, cy = x.weights @ x.points, y.weights @ y.points

    def run(r: int, rng: np.random.Generator | None) -> tuple[float, int, tuple]:
        if rng is None:
            iso = procrustes_align(x, y, MongeMap(np.arange(x.n)), allow_reflections)
        else:
            rot = _haar_orthogonal(x.dim, rng)
            if not allow_reflections and np.linalg.det(rot) < 0.0:
                rot[:, 0] = -rot[:, 0]
            iso = Isometry(rot, cy - rot @ cx)
        best = (math.inf, None, iso)
        trace: list[float] = []
        for it in range(1, max_alternations + 1):
            moved = iso.apply(x.points)
            cost = np.linalg.norm(moved[:, None, :] - y.points[None, :, :], axis=-1) ** p
            _, phi = linear_sum_assignment(cost)
            iso = procrustes_align(x, y, MongeMap(phi), allow_reflections)
            val = _registration_cost(x, y, phi, iso, p)
            trace.append(val)
            if not val < best[0] - 1e-14:
                return best[0], it, (*best, True, trace)
            best = (val, phi, iso)
        return best[0], max_alternations, (*best, False, trace)

    (val, phi, iso, done, trace), total_iters = _best_restart(restarts, seed, run)
    return SolveReport(val, MongeMap(phi), "alternating", total_iters, done,
                       trace=tuple(trace), transform=iso)


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
