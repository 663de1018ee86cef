"""Echo simulation and wall reconstruction from first-order reflections.

A first-order echo off a planar wall arrives as if it had been emitted by
the mirror image of the source across that wall.  Reconstructing a room
therefore splits into two steps: recover the virtual sources from the
unlabelled reception times (:func:`echolat.matching.match_events`), then
map every virtual source back to the wall that is the perpendicular
bisector between it and the true source.  Events recovered at the source
itself correspond to the direct sound, not to a wall.  :func:`simulate_echoes`
runs the other way, with one emission from each mirror point.

A sensor position is *good* for a room when no combination of echoes from
different walls masquerades as a single consistent event — i.e. when the
detector finds every wall and nothing else.  :func:`goodness_check` probes
this empirically by perturbing the sensors and watching for ghost walls and
for collapsing relation residuals on the mixed tuples the matcher picks.
The matcher screens those tuples itself and reports the residuals the
margin needs, so each simulated table is walked and screened once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMirror, DimensionMismatch, ValidationError
from .lateration import EmissionEvent, SensorArray, _arrivals
from .linalg import fsum_dot
from .matching import DetectedEvent, MatchConfig, MatchReport, ReceptionTable, _index, match_events

#: Components of a unit normal smaller than this are treated as zero when
#: choosing the canonical orientation, so that tiny numerical noise cannot
#: flip the stored sign of an axis-aligned wall.
_ORIENT_EPS = 1e-9

#: Points closer than this are one point: a mirror point this close to
#: the source determines no wall, and an event this close to the source is
#: the direct sound.
_MIRROR_EPS = 1e-9


def _scaled(vec: list[float]) -> tuple[list[float], float, int]:
    """``vec * 2**-e``, its Euclidean length and ``e``.

    The power of two puts the largest component in [1/2, 1), so the scaling
    is exact and the squared length cannot leave the double range.
    """
    exponent = math.frexp(max(map(abs, vec), default=0.0))[1]
    vec = [math.ldexp(x, -exponent) for x in vec]
    return vec, math.sqrt(fsum_dot(vec, vec)), exponent


@dataclass(frozen=True, eq=False)
class Wall:
    """An (n-1)-dimensional plane ``{p : normal . p = offset}``.

    The normal is normalised to unit length and the pair (normal, offset)
    is brought to a canonical orientation — the first component of the
    normal that exceeds 1e-9 in magnitude is made positive — so that equal
    planes constructed from opposite normals compare equal.
    """

    normal: np.ndarray
    offset: float

    def __post_init__(self) -> None:
        vec = np.array(self.normal, dtype=float).reshape(-1)
        if vec.size < 2 or not np.isfinite(vec).all() or not np.isfinite(self.offset):
            raise ValidationError("wall needs a finite normal (dim >= 2) and offset")
        vec, length, exponent = _scaled(vec.tolist())  # the offset is scaled by the same power of two
        if length == 0.0:
            raise ValidationError("wall normal must be nonzero")
        vec = [x / length for x in vec]
        try:
            offset = math.ldexp(float(self.offset), -exponent) / length
        except OverflowError:
            offset = math.inf
        if not math.isfinite(offset):
            raise ValidationError(f"wall offset {self.offset} over the normal's length overflows")
        if next((x < 0.0 for x in vec if abs(x) > _ORIENT_EPS), False):
            vec, offset = [-x for x in vec], -offset
        normal = np.array(vec) + 0.0  # scrub negative zeros left by the flip
        normal.setflags(write=False)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", offset + 0.0)

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def signed_distance(self, point) -> float:
        p = np.asarray(point, dtype=float).reshape(-1)
        if p.shape[0] != self.dim:
            raise DimensionMismatch(f"point has dimension {p.shape[0]}, wall has {self.dim}")
        return float(self.normal @ p) - self.offset


def mirror_point(wall: Wall, point) -> np.ndarray:
    """Reflect ``point`` across ``wall``: p - 2 (n.p - offset) n."""
    p = np.asarray(point, dtype=float).reshape(-1)
    return p - 2.0 * wall.signed_distance(p) * wall.normal


def wall_from_mirror(source, mirror) -> Wall:
    """The wall whose reflection maps ``source`` to ``mirror``.

    That is the perpendicular bisector plane of the segment between them.
    Raises :class:`DegenerateMirror` when the two points are closer than
    1e-9, since then no plane is determined, and :class:`ValidationError`
    when a coordinate, or the gap between the points, is not finite.
    """
    src = np.asarray(source, dtype=float).reshape(-1)
    mir = np.asarray(mirror, dtype=float).reshape(-1)
    if src.shape != mir.shape:
        raise DimensionMismatch(f"source {src.shape} and mirror {mir.shape} differ")
    src, mir = src.tolist(), mir.tolist()
    gap = [m - s for m, s in zip(mir, src)]  # inf on overflow, no numpy warning
    if not all(map(math.isfinite, gap)):
        raise ValidationError("source and mirror must be finite and less than a double apart")
    gap, length, exponent = _scaled(gap)
    # A gap of 1/2 or more is never degenerate; below that the true length cannot overflow.
    if exponent <= 0 and (distance := math.ldexp(length, exponent)) <= _MIRROR_EPS:
        raise DegenerateMirror(f"mirror point is only {distance:g} away from the source")
    normal = [x / length for x in gap]
    return Wall(normal, fsum_dot(normal, [s / 2.0 + m / 2.0 for s, m in zip(src, mir)]))


def same_plane(a: Wall, b: Wall, normal_tol: float, offset_tol: float) -> bool:
    """Whether two walls describe the same plane within tolerances.

    Compares up to overall sign, so the result does not depend on the
    canonical-orientation choice made near axis-aligned normals.  Walls of
    different dimensions raise :class:`DimensionMismatch`.
    """
    return bool(_same_planes([a], [b], normal_tol, offset_tol)[0, 0])


def _same_planes(walls, others, normal_tol: float, offset_tol: float) -> np.ndarray:
    """(k, l) matrix of :func:`same_plane` of ``walls[i]`` and ``others[j]``, in one broadcast."""
    dims = {wall.dim for wall in (*walls, *others)}
    if len(dims) > 1:
        raise DimensionMismatch(f"walls of dimensions {sorted(dims)} cannot be compared")
    width = 1 + max(dims, default=0)  # the normal, then the offset
    a, b = (np.array([[*w.normal.tolist(), w.offset] for w in side]).reshape(len(side), width)
            for side in (walls, others))
    with np.errstate(over="ignore"):  # offsets more than a double apart differ by inf
        gap = a[:, None] - np.concatenate([b, -b])  # both signs of every other wall
    normal_gap = np.sqrt(np.square(gap[..., :-1]).sum(axis=-1))
    near = (normal_gap <= normal_tol) & (abs(gap[..., -1]) <= offset_tol)
    return near.reshape(len(walls), 2, len(others)).any(axis=1)


@dataclass(frozen=True, eq=False)
class Room:
    """Planar walls plus a loudspeaker position strictly off every wall."""

    walls: tuple[Wall, ...]
    loudspeaker: np.ndarray

    def __post_init__(self) -> None:
        speaker = np.array(self.loudspeaker, dtype=float).reshape(-1)
        if speaker.size < 2 or not np.isfinite(speaker).all():
            raise ValidationError("loudspeaker must be a finite vector of dimension >= 2")
        walls = tuple(self.walls)
        for i, wall in enumerate(walls):
            if wall.dim != speaker.shape[0]:
                raise DimensionMismatch(
                    f"wall {i} has dimension {wall.dim}, loudspeaker {speaker.shape[0]}"
                )
            if abs(wall.signed_distance(speaker)) <= _MIRROR_EPS:
                raise ValidationError(f"loudspeaker lies on wall {i}")
        speaker.setflags(write=False)
        object.__setattr__(self, "walls", walls)
        object.__setattr__(self, "loudspeaker", speaker)

    @property
    def dim(self) -> int:
        return self.loudspeaker.shape[0]

    def mirror_points(self) -> np.ndarray:
        """Mirror images of the loudspeaker across each wall, one per row."""
        if not self.walls:
            return np.empty((0, self.dim))
        return np.vstack([mirror_point(w, self.loudspeaker) for w in self.walls])


def simulate_echoes(
    room: Room,
    sensors: SensorArray,
    emission_time: float = 0.0,
    *,
    include_direct: bool = False,
    dropout=(),
    spurious=(),
) -> ReceptionTable:
    """Exact first-order reception table for a room and sensor layout.

    :meth:`ReceptionTable.from_events` of one emission at ``emission_time``
    from each wall's mirror point, which must be pairwise distinct (1e-9),
    plus one from the loudspeaker when ``include_direct`` is set.
    ``dropout`` is an iterable of (wall_index, sensor_index) pairs whose
    echo is omitted; ``spurious`` an iterable of (sensor_index, time)
    entries injected verbatim.
    """
    if sensors.dim != room.dim:
        raise DimensionMismatch(f"sensors have dimension {sensors.dim}, room {room.dim}")
    events = _emitters(room, emission_time, include_direct)
    dropout = tuple(dropout)
    for wall_index, _ in dropout:  # a wall, not the direct sound
        _index(wall_index, len(room.walls), "dropout wall")
    return ReceptionTable.from_events(sensors, events, dropout=dropout, spurious=spurious)


def _emitters(room: Room, emission_time: float, include_direct: bool) -> list[EmissionEvent]:
    """One emission from each wall's mirror point, plus the loudspeaker's.

    The mirror points must be pairwise distinct (1e-9); the loudspeaker
    comes last and only when ``include_direct`` is set.
    """
    points = room.mirror_points()
    gaps = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((gaps * gaps).sum(axis=2))
    if np.any(dist[np.triu_indices(len(points), k=1)] <= _MIRROR_EPS):
        raise ValidationError("mirror points must be pairwise distinct (1e-9)")
    events = [EmissionEvent(emission_time, point) for point in points]
    if include_direct:
        events.append(EmissionEvent(emission_time, room.loudspeaker))
    return events


@dataclass(frozen=True, eq=False)
class WallDetection:
    """Walls recovered from a reception table, plus full provenance.

    ``direct_events`` are matched events at the source itself (the direct
    sound); ``mirror_events`` are the events that produced ``walls``, in
    the same order before deduplication.
    """

    walls: tuple[Wall, ...]
    direct_events: tuple[DetectedEvent, ...]
    mirror_events: tuple[DetectedEvent, ...]
    match: MatchReport


def detect_walls(
    sensors: SensorArray,
    table: ReceptionTable,
    source,
    config: MatchConfig = MatchConfig(),
    *,
    _screen_all: bool = False,
) -> WallDetection:
    """Recover walls from unlabelled reception times and a known source.

    Matches the table to events, treats every event further than 1e-9 from
    the source as a mirror point and converts it to a wall; events at the
    source are reported as the direct sound.  Every mirror event is mapped
    first, then the walls are compared with one broadcast of
    :func:`same_plane` (normals within 1e-9, offsets within 1e-9 times the
    scene's scale), and a wall is kept when it matches no wall kept before
    it in event order.  ``_screen_all`` is passed to :func:`match_events`.
    """
    src = np.asarray(source, dtype=float).reshape(-1)
    if src.shape[0] != sensors.dim:
        raise DimensionMismatch(f"source has dimension {src.shape[0]}, sensors {sensors.dim}")
    report = match_events(sensors, table, config, _screen_all=_screen_all)
    gaps = np.array([ev.position for ev in report.events]).reshape(-1, src.shape[0]) - src
    at_source = (np.sqrt((gaps * gaps).sum(axis=1)) <= _MIRROR_EPS).tolist()
    direct = tuple(ev for ev, here in zip(report.events, at_source) if here)
    mirrors = tuple(ev for ev, here in zip(report.events, at_source) if not here)
    mapped = [wall_from_mirror(src, ev.position) for ev in mirrors]
    scale = 1.0 + float(np.abs(src).max(initial=0.0)) + sensors.diameter()
    kept: list[int] = []
    for i, same in enumerate(_same_planes(mapped, mapped, 1e-9, 1e-9 * scale).tolist()):
        if not any(same[j] for j in kept):
            kept.append(i)
    walls = tuple(mapped[i] for i in kept)
    return WallDetection(walls=walls, direct_events=direct, mirror_events=mirrors, match=report)


@dataclass(frozen=True)
class GoodnessReport:
    """Empirical evidence that a sensor layout resolves a room cleanly.

    Aggregated over the base layout plus ``trials`` random perturbations:
    ``ghost_walls`` counts detected walls matching no true wall,
    ``missed_walls`` true walls never detected.  The margin is the smallest
    relation residual over the *mixed* tuples (times from at least two
    virtual sources) whose held-out arrival a prediction of
    :func:`match_events` picks; a healthy layout keeps it far above the
    acceptance threshold, while a degenerate one lets it collapse toward
    zero.  It comes from each :class:`MatchReport` of a match that screens
    every picked tuple: the smallest rejected residual and the residuals of
    the accepted mixed tuples.  A margin above the threshold means that no
    mixed tuple was accepted.  The converse does not hold: a
    mixed tuple with a small residual is not accepted when it is not
    within tau of a prediction, and a genuine tuple the screen rejects (at
    a threshold below the genuine residuals, about 1e-15 on the shoebox)
    counts too.  None when the only picked tuples are accepted genuine
    ones, as in a scene with one source.
    """

    trials: int
    ghost_walls: int
    missed_walls: int
    mixed_residual_margin: float | None


def goodness_check(
    room: Room,
    sensors: SensorArray,
    *,
    trials: int = 20,
    rng_seed: int = 0,
    include_direct: bool = False,
    config: MatchConfig = MatchConfig(),
) -> GoodnessReport:
    """Probe a sensor layout for ghost walls and residual margin.

    Runs the full simulate-and-detect loop for the given sensors and for
    ``trials`` uniformly perturbed copies (amplitude 0.05 times the sensor
    diameter).  Each layout's table is built from the room's emitters, made
    once, and its detected walls are compared with the room's in one
    broadcast of :func:`same_plane`: normals within 1e-6 and offsets within
    1e-6 times one plus the largest wall offset.  See
    :class:`GoodnessReport` for the aggregated fields.
    """
    if sensors.dim != room.dim:
        raise DimensionMismatch(f"sensors have dimension {sensors.dim}, room {room.dim}")
    for name, value in (("trials", trials), ("rng_seed", rng_seed)):
        if not (hasattr(type(value), "__index__") and value >= 0):
            raise ValidationError(f"{name} must be an integer >= 0, got {value!r}")
    normal_tol = 1e-6
    offset_tol = 1e-6 * (1.0 + max((abs(w.offset) for w in room.walls), default=0.0))
    rng = np.random.default_rng(rng_seed)
    amplitude = 0.05 * sensors.diameter()

    layouts = [sensors]
    for _ in range(trials):
        jitter = rng.uniform(-amplitude, amplitude, size=sensors.positions.shape)
        layouts.append(SensorArray(sensors.positions + jitter))

    emitters = _emitters(room, 0.0, include_direct)
    ghosts = 0
    missed = 0
    margins = []
    for layout in layouts:
        table = ReceptionTable.from_events(layout, emitters)
        detection = detect_walls(layout, table, room.loudspeaker, config, _screen_all=True)
        hits = _same_planes(detection.walls, room.walls, normal_tol, offset_tol)
        ghosts += int((~hits.any(axis=1)).sum())
        missed += int((~hits.any(axis=0)).sum())
        margins.append(_mixed_margin(detection.match, layout, emitters))
    return GoodnessReport(
        trials=trials,
        ghost_walls=ghosts,
        missed_walls=missed,
        mixed_residual_margin=min((m for m in margins if m is not None), default=None),
    )


def _mixed_margin(report: MatchReport, sensors: SensorArray, emitters: list) -> float | None:
    """Smallest relation residual over the mixed tuples a match picked.

    ``report`` comes from :func:`match_events` with ``_screen_all`` set, so
    its ``rejected_floor`` covers every picked tuple it did not accept.
    The margin is the minimum of that floor and the residuals of the
    accepted tuples that are not genuine, where a genuine tuple equals one
    emitter's arrivals, from the broadcast that builds the table, exactly.
    None when the match rejected nothing and accepted only genuine tuples.
    """
    genuine = set(map(tuple, _arrivals(sensors, emitters).tolist()))
    lows = [residual for source, residual in report.accepted if source not in genuine]
    if report.rejected_floor is not None:
        lows.append(report.rejected_floor)
    return min(lows, default=None)
