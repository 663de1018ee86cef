"""Algebraic consistency relations between reception times.

If the times ``t_1, ..., t_m`` all come from one emission event, the
symmetric m x m matrix with entries

    D[i, j] = (t_i - t_j)^2 - ||a_i - a_j||^2

has rank at most n+1, because it is a corner of a bordered pairwise-form
(Cayley-Menger) matrix of points lying on a cone of the space-time form
``t^2 - ||x||^2``.  For m = n+2 this forces det(D) = 0, which is the test
used to decide whether a tuple of reception times is worth multilaterating.
The residual reported here is |det| normalised by the row norms, so it is
scale-free and lies in [0, 1] by Hadamard's inequality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, LengthMismatch, ValidationError
from .lateration import SensorArray


@dataclass(frozen=True, eq=False)
class QuadraticForm:
    """Diagonal quadratic form ``q(v) = sum_k weights[k] * v[k]^2``."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float).reshape(-1)
        if w.size == 0 or not np.isfinite(w).all():
            raise ValidationError("form weights must be a non-empty finite vector")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def euclidean(cls, dim: int) -> "QuadraticForm":
        return cls(np.ones(dim))

    @classmethod
    def minkowski(cls, space_dim: int) -> "QuadraticForm":
        """Space-time form ``q(t, x) = t^2 - ||x||^2`` on R^(space_dim+1)."""
        return cls(np.concatenate(([1.0], -np.ones(space_dim))))

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def value(self, vec) -> float:
        v = np.asarray(vec, dtype=float).reshape(-1)
        if v.shape[0] != self.dim:
            raise DimensionMismatch(f"vector has dimension {v.shape[0]}, form needs {self.dim}")
        return float(self.weights @ (v * v))

    def pairwise(self, points) -> np.ndarray:
        """Matrix of ``q(v_i - v_j)`` over all pairs of the given points."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise DimensionMismatch(f"points must have shape (k, {self.dim}), got {pts.shape}")
        diff = pts[:, None, :] - pts[None, :, :]
        return (diff * diff) @ self.weights


def relation_matrix(sensors: SensorArray, times) -> np.ndarray:
    """The m x m matrix ``(t_i - t_j)^2 - ||a_i - a_j||^2``.

    Symmetric with zero diagonal; rank at most n+1 exactly when the times
    are consistent with a single emission event.
    """
    t = np.asarray(times, dtype=float).reshape(-1)
    if t.shape[0] != sensors.count:
        raise LengthMismatch(f"got {t.shape[0]} times for {sensors.count} sensors")
    if not np.isfinite(t).all():
        raise ValidationError("times contain NaN or Inf")
    dt = t[:, None] - t[None, :]
    dist = sensors.pairwise_distances()
    return dt * dt - dist * dist


def relation_residual(dmat) -> float:
    """Scale-free singularity test of a relation matrix, in [0, 1].

    The Hadamard-normalised |det| of the square input; the all-zero matrix
    maps to 0.
    """
    arr = np.asarray(dmat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"relation matrix must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("relation matrix contains NaN or Inf")
    return float(linalg.hadamard_ratio(arr[None])[0])


def batched_relation_residuals(time_tuples: np.ndarray, dist2: np.ndarray) -> np.ndarray:
    """Relation residuals for many candidate time tuples at once.

    ``time_tuples`` has shape (k, m) and ``dist2`` is the (m, m) matrix of
    squared sensor distances.  Returns the k full-matrix residuals; this is
    the vectorised core of the matching sweep.
    """
    tt = np.asarray(time_tuples, dtype=float)
    if tt.ndim != 2 or tt.shape[1] != dist2.shape[0]:
        raise ValidationError(
            f"time tuples of shape {tt.shape} do not match distances {dist2.shape}"
        )
    dt = tt[:, :, None] - tt[:, None, :]
    return linalg.hadamard_ratio(dt * dt - dist2[None, :, :])


def cayley_menger_matrix(points, form: QuadraticForm) -> np.ndarray:
    """Bordered matrix of pairwise form values over a point list.

    For k points the result is (k+1) x (k+1): a leading 0/1 border row and
    column, then the matrix ``q(v_i - v_j)``.  Its rank is r+2, where r is
    the rank of the form restricted to the span of the differences
    ``v_i - v_0`` — for the Euclidean form, r is the affine dimension of
    the point set.  With the space-time form and points ``(t_i, a_i)`` on a
    common cone, the corner opposite the border reproduces the relation
    matrix, which is where its rank bound comes from.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValidationError(f"points must be a 2-d array, got shape {pts.shape}")
    if pts.shape[0] < 1:
        raise ValidationError("need at least one point")
    k = pts.shape[0]
    out = np.empty((k + 1, k + 1))
    out[0, 0] = 0.0
    out[0, 1:] = 1.0
    out[1:, 0] = 1.0
    out[1:, 1:] = form.pairwise(pts)
    return out
