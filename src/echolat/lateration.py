"""Closed-form pseudo-range multilateration in arbitrary dimension.

:func:`solve` recovers one emission event from one reception time per
sensor; :func:`check_geometry` diagnoses whether a sensor layout makes that
event unique.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DegenerateSystem,
    InconsistentTimes,
    LengthMismatch,
    NotSpanning,
    ValidationError,
)

#: A reduced-quadratic coefficient at most this large counts as zero.  The
#: leading coefficient is dimensionless, so an absolute threshold is
#: meaningful.
_DEGENERACY_TOL = 1e-9

#: A sign-pattern determinant, normalised by its row norms, at most this
#: large counts as vanishing in :func:`check_geometry`.
_CONDITION_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class SensorArray:
    """Known sensor positions, one per row, in R^n (n >= 2).

    Positions are stored as a read-only float array.  Sensors must be
    pairwise distinct; at least two are required.  Whether the array is
    rich enough for a particular solver (e.g. affinely spanning) is checked
    by the operation that needs it, not here.
    """

    positions: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.positions, dtype=float)
        if arr.ndim != 2:
            raise ValidationError(f"positions must be an (m, n) array, got shape {arr.shape}")
        m, n = arr.shape
        if n < 2:
            raise ValidationError(f"ambient dimension must be at least 2, got {n}")
        if m < 2:
            raise ValidationError(f"need at least two sensors, got {m}")
        if not np.isfinite(arr).all():
            raise ValidationError("sensor positions contain NaN or Inf")
        diff = arr[:, None, :] - arr[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        iu = np.triu_indices(m, k=1)
        if np.any(dist[iu] == 0.0):
            raise ValidationError("sensor positions must be pairwise distinct")
        arr.setflags(write=False)
        dist.setflags(write=False)
        object.__setattr__(self, "positions", arr)
        object.__setattr__(self, "_dist", dist)
        object.__setattr__(self, "_diameter", float(dist.max()))

    @property
    def count(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    def pairwise_distances(self) -> np.ndarray:
        """Symmetric, read-only (m, m) matrix of distances between sensors."""
        return self._dist

    def diameter(self) -> float:
        return self._diameter

    def spans_space(self, rank_tol: float = linalg.DEFAULT_RANK_TOL) -> bool:
        """True if the sensors affinely span R^n (numeric rank decision)."""
        return _affine_rank(self.positions, rank_tol) == self.dim


@dataclass(frozen=True, eq=False)
class EmissionEvent:
    """An emission: time plus position in R^n, in speed-1 units."""

    time: float
    position: np.ndarray

    def __post_init__(self) -> None:
        pos = np.array(self.position, dtype=float).reshape(-1)
        if not (np.isfinite(pos).all() and np.isfinite(self.time)):
            raise ValidationError("event time/position must be finite")
        pos.setflags(write=False)
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "time", float(self.time))

    @property
    def dim(self) -> int:
        return self.position.shape[0]


class SolvePath(enum.Enum):
    FULL_RANK = "full-rank"
    QUADRATIC = "quadratic"


@dataclass(frozen=True, eq=False)
class Candidate:
    """One candidate event plus its causality flag.

    ``spurious`` is True when some sensor would have received the signal
    before it was emitted (arrival time below the candidate emission time by
    more than the time tolerance).  Such candidates solve the squared
    equations but not the one-sided ranging model.
    """

    event: EmissionEvent
    spurious: bool


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Outcome of a multilateration solve.

    ``candidates`` holds one event on the full-rank path and one or two on
    the quadratic path, sorted by emission time.  ``rank`` is the numeric
    rank of the full linearised system; ``quadratic`` carries the reduced
    coefficients (a, b, c) when that path was taken.
    """

    path: SolvePath
    candidates: tuple[Candidate, ...]
    rank: int
    quadratic: tuple[float, float, float] | None = None


@dataclass(frozen=True)
class GeometryReport:
    """Result of :func:`check_geometry`.

    ``condition_ok`` reports the sign-pattern uniqueness condition and is
    None when the sensor count is not n+2 (the condition is specific to
    that count).  ``failing_sign_patterns`` lists the sign vectors whose
    bordered determinant vanished (first sign fixed to +1; the condition is
    invariant under global negation).  ``degenerate_subsets`` lists
    (n+1)-subsets of sensor indices that fail to affinely span R^n.
    """

    noncoplanar: bool
    condition_ok: bool | None
    failing_sign_patterns: tuple[tuple[int, ...], ...] = ()
    degenerate_subsets: tuple[tuple[int, ...], ...] = ()


def _as_times(times, count: int) -> np.ndarray:
    arr = np.asarray(times, dtype=float).reshape(-1)
    if arr.shape[0] != count:
        raise LengthMismatch(f"got {arr.shape[0]} reception times for {count} sensors")
    if not np.isfinite(arr).all():
        raise ValidationError("reception times contain NaN or Inf")
    return arr


def measurement_matrix(sensors: SensorArray, times) -> np.ndarray:
    """The m x (n+2) coefficient matrix of the squared ranging equations.

    Row i is ``(-2 t_i, 2 a_i, -1)`` acting on the unknown vector
    ``(t, x, ||x||^2 - t^2)``.
    """
    return _linearise(sensors, _as_times(times, sensors.count))


def _linearise(sensors: SensorArray, t: np.ndarray) -> np.ndarray:
    m, n = sensors.positions.shape
    out = np.empty((m, n + 2))
    out[:, 0] = -2.0 * t
    out[:, 1 : n + 1] = 2.0 * sensors.positions
    out[:, n + 1] = -1.0
    return out


def _rhs(sensors: SensorArray, t: np.ndarray) -> np.ndarray:
    # ||a_i||^2 - t_i^2, the constant side of the squared equations.
    return (sensors.positions * sensors.positions).sum(axis=1) - t * t


def _spurious(t_emit: float, t: np.ndarray, time_tol: float) -> bool:
    return bool(t.min() < t_emit - time_tol)


def solve(sensors: SensorArray, times, *, rank_tol: float = linalg.DEFAULT_RANK_TOL) -> SolveResult:
    """Multilaterate one event from per-sensor reception times.

    Sensors at known positions ``a_1, ..., a_m`` in R^n each record the
    time a signal arrived.  With the propagation speed normalised to 1, an
    emission event ``(t, x)`` satisfies ``||a_i - x|| = t_i - t`` for every
    sensor.  Squaring these equations makes them linear in the unknowns
    ``(t, x, w)`` with ``w = ||x||^2 - t^2``: the m x (n+2) system
    ``A (t, x, w) = ||a_i||^2 - t_i^2`` with ``A`` the
    :func:`measurement_matrix`.  At least n+1 sensors are required.  The
    numeric rank of ``A`` (at ``rank_tol``) is decided once.  For n+1
    sensors it takes no SVD: ``A`` then has n+1 rows, and spanning sensors
    give it rank n+1.

    * Rank n+2 (``FULL_RANK`` path): one least-squares solve yields the
      unique event.
    * Lower rank (``QUADRATIC`` path): the sensors must affinely span R^n
      (:class:`NotSpanning` otherwise).  A least-squares solve against the
      geometry part ``G = (2 a_i, -1)`` of ``A`` turns the squared equations
      into the line ``x = t*u + v`` together with a matching scalar pair
      (alpha, beta) for ``w``; eliminating x leaves
      ``(||u||^2 - 1) t^2 + (2 u.v - alpha) t + (||v||^2 - beta) = 0``.
      For spanning sensors the quadratic never loses both its ``t^2`` and
      ``t`` coefficients at once, so consistent data gives at least one
      candidate.  :class:`InconsistentTimes` is raised when it has no real
      root and :class:`DegenerateSystem` when every coefficient vanishes.

    A candidate whose emission time lies after some recorded arrival (by
    more than 1e-9 times the time span plus the sensor diameter) cannot be
    a physical event for the one-sided model and is flagged as spurious.

    Every solve is exact and rounded once (:func:`linalg.least_squares_solve`),
    and each quadratic coefficient is rounded once from (u, alpha) and
    (v, beta) (:func:`linalg.fsum_dot`), so no printed digit depends on the
    BLAS library.
    """
    t = _as_times(times, sensors.count)
    m, n = sensors.positions.shape
    if m < n + 1:
        raise ValidationError(f"need at least {n + 1} sensors in dimension {n}, got {m}")
    amat = _linearise(sensors, t)
    rank = n + 1 if m == n + 1 else linalg.numeric_rank(amat, rank_tol)
    time_tol = 1e-9 * (float(t.max() - t.min()) + sensors.diameter())
    if rank == n + 2:
        solution = linalg.least_squares_solve(amat, _rhs(sensors, t))
        event = EmissionEvent(solution[0], solution[1 : n + 1])
        cand = Candidate(event, _spurious(event.time, t, time_tol))
        return SolveResult(path=SolvePath.FULL_RANK, candidates=(cand,), rank=rank)

    if not sensors.spans_space(rank_tol):
        raise NotSpanning("sensors do not affinely span the ambient space")
    rhs = np.array((2.0 * t, _rhs(sensors, t))).T
    t_part, const_part = linalg.least_squares_solve(amat[:, 1:], rhs).T.tolist()
    u, alpha = t_part[:n], t_part[n]
    v, beta = const_part[:n], const_part[n]
    coeff_a = linalg.fsum_dot(u, u, -1.0)
    coeff_b = 2.0 * linalg.fsum_dot(u, v, -0.5 * alpha)  # scaling by 2 is exact
    coeff_c = linalg.fsum_dot(v, v, -beta)
    roots = linalg.solve_quadratic(coeff_a, coeff_b, coeff_c, tol=_DEGENERACY_TOL)
    if roots.kind is linalg.RootKind.DEGENERATE_ALL:
        raise DegenerateSystem(
            "reduced quadratic vanished identically; reception times are inconsistent"
        )
    if roots.kind is linalg.RootKind.NO_REAL:
        raise InconsistentTimes("no real emission time fits the reception times")
    candidates = tuple(
        Candidate(
            EmissionEvent(root, [root * ue + ve for ue, ve in zip(u, v)]),
            _spurious(root, t, time_tol),
        )
        for root in roots.roots
    )
    return SolveResult(
        path=SolvePath.QUADRATIC,
        candidates=candidates,
        rank=rank,
        quadratic=(coeff_a, coeff_b, coeff_c),
    )


def event_arrivals(sensors: SensorArray, event: EmissionEvent) -> np.ndarray:
    """Forward model: reception time of ``event`` at every sensor."""
    if event.dim != sensors.dim:
        raise ValidationError(
            f"event has dimension {event.dim}, sensors have {sensors.dim}"
        )
    gaps = sensors.positions - event.position
    return event.time + np.sqrt((gaps * gaps).sum(axis=1))


def _affine_rank(points: np.ndarray, rank_tol: float) -> int:
    return linalg.numeric_rank(points[1:] - points[0], rank_tol)


def check_geometry(
    sensors: SensorArray, *, rank_tol: float = linalg.DEFAULT_RANK_TOL
) -> GeometryReport:
    """Diagnose whether the sensor geometry guarantees a unique event.

    Checks that the sensors affinely span R^n and, for exactly n+2 sensors,
    evaluates the sign-pattern condition: for every sign vector
    ``e in {+-1}^m`` the (n+2) x (n+2) determinant with rows
    ``(e_i ||a_i||, a_i, 1)`` must be nonzero.  When it holds, distinct
    sources cannot produce identical reception times, so the two quadratic
    candidates can never both be genuine.  Determinants are compared
    scale-free (normalised by row norms) against 1e-8.
    """
    pos = sensors.positions
    m, n = pos.shape
    noncoplanar = sensors.spans_space(rank_tol)

    degenerate: list[tuple[int, ...]] = []
    if m >= n + 1:
        for subset in itertools.combinations(range(m), n + 1):
            if _affine_rank(pos[list(subset)], rank_tol) < n:
                degenerate.append(subset)

    condition_ok: bool | None = None
    failing: list[tuple[int, ...]] = []
    if m == n + 2:
        # The determinant flips sign under global sign negation, so fixing
        # the first sign to +1 halves the sweep without losing patterns.
        signs = np.array([(1,) + tail for tail in itertools.product((1, -1), repeat=m - 1)])
        stack = np.empty((len(signs), m, m))
        stack[:, :, 0] = signs * np.linalg.norm(pos, axis=1)
        stack[:, :, 1 : n + 1] = pos
        stack[:, :, n + 1] = 1.0
        failing = list(map(tuple, signs[linalg.hadamard_ratio(stack) <= _CONDITION_TOL].tolist()))
        condition_ok = not failing

    return GeometryReport(
        noncoplanar=noncoplanar,
        condition_ok=condition_ok,
        failing_sign_patterns=tuple(failing),
        degenerate_subsets=tuple(degenerate),
    )
