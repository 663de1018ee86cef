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
Those tuples are read from the matcher's own report, so each simulated
table is walked once; the margin screens only the tuples the matcher
left unconfirmed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMirror, DimensionMismatch, ValidationError
from .lateration import EmissionEvent, SensorArray, event_arrivals
from .linalg import fsum_dot
from .matching import DetectedEvent, MatchConfig, MatchReport, ReceptionTable, match_events
from .relations import batched_relation_residuals

#: Components of a unit normal smaller than this are treated as zero when
#: choosing the canonical orientation, so that tiny numerical noise cannot
#: flip the stored sign of an axis-aligned wall.
_ORIENT_EPS = 1e-9

#: Points closer than this are one point: a mirror point this close to
#: the source determines no wall, and an event this close to the source is
#: the direct sound.
_MIRROR_EPS = 1e-9


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
        length = math.sqrt(fsum_dot(vec.tolist(), vec.tolist()))
        if length == 0.0:
            raise ValidationError("wall normal must be nonzero")
        vec = vec / length
        offset = float(self.offset) / length
        for component in vec:
            if abs(component) > _ORIENT_EPS:
                if component < 0.0:
                    vec = -vec
                    offset = -offset
                break
        vec = vec + 0.0  # scrub negative zeros left by the flip
        offset += 0.0
        vec.setflags(write=False)
        object.__setattr__(self, "normal", vec)
        object.__setattr__(self, "offset", offset)

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
    1e-9, since then no plane is determined.
    """
    src = np.asarray(source, dtype=float).reshape(-1)
    mir = np.asarray(mirror, dtype=float).reshape(-1)
    if src.shape != mir.shape:
        raise DimensionMismatch(f"source {src.shape} and mirror {mir.shape} differ")
    gap = mir - src
    length = math.sqrt(fsum_dot(gap.tolist(), gap.tolist()))
    if length <= _MIRROR_EPS:
        raise DegenerateMirror(f"mirror point is only {length:g} away from the source")
    normal = gap / length
    offset = fsum_dot(normal.tolist(), ((src + mir) / 2.0).tolist())
    return Wall(normal, offset)


def same_plane(a: Wall, b: Wall, normal_tol: float, offset_tol: float) -> bool:
    """Whether two walls describe the same plane within tolerances.

    Compares up to overall sign, so the result does not depend on the
    canonical-orientation choice made near axis-aligned normals.
    """
    for sign in (1.0, -1.0):
        if (
            float(np.linalg.norm(a.normal - sign * b.normal)) <= normal_tol
            and abs(a.offset - sign * b.offset) <= offset_tol
        ):
            return True
    return False


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
    if any(wall_index >= len(room.walls) for wall_index, _ in dropout):  # not the direct sound
        raise ValidationError(f"dropout names a wall past the room's {len(room.walls)} walls")
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
) -> WallDetection:
    """Recover walls from unlabelled reception times and a known source.

    Matches the table to events, treats every event further than 1e-9 from
    the source as a mirror point and converts it to a wall; events at the
    source are reported as the direct sound.  Walls closer than internal
    tolerances are merged.
    """
    src = np.asarray(source, dtype=float).reshape(-1)
    if src.shape[0] != sensors.dim:
        raise DimensionMismatch(f"source has dimension {src.shape[0]}, sensors {sensors.dim}")
    report = match_events(sensors, table, config)
    direct: list[DetectedEvent] = []
    mirrors: list[DetectedEvent] = []
    walls: list[Wall] = []
    scale = 1.0 + float(np.abs(src).max(initial=0.0)) + sensors.diameter()
    for ev in report.events:
        if float(np.linalg.norm(ev.position - src)) <= _MIRROR_EPS:
            direct.append(ev)
            continue
        mirrors.append(ev)
        wall = wall_from_mirror(src, ev.position)
        if not any(same_plane(wall, kept, 1e-9, 1e-9 * scale) for kept in walls):
            walls.append(wall)
    return WallDetection(
        walls=tuple(walls),
        direct_events=tuple(direct),
        mirror_events=tuple(mirrors),
        match=report,
    )


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
    zero.  It comes from each :class:`MatchReport`: the smallest rejected
    residual, the residuals of the accepted mixed tuples and those of the
    ``unconfirmed`` tuples, computed here.  A margin above the threshold
    means that no mixed tuple was accepted.  The converse does not hold: a
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
    diameter), comparing detected walls against the room: a detected wall
    matches a true one when their normals differ by at most 1e-6 and their
    offsets by at most 1e-6 times one plus the largest wall offset.  See
    :class:`GoodnessReport` for the aggregated fields.
    """
    if sensors.dim != room.dim:
        raise DimensionMismatch(f"sensors have dimension {sensors.dim}, room {room.dim}")
    if trials < 0:
        raise ValidationError(f"trials must be >= 0, got {trials}")
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
        table = simulate_echoes(room, layout, include_direct=include_direct)
        detection = detect_walls(layout, table, room.loudspeaker, config)
        for wall in detection.walls:
            if not any(same_plane(wall, true, normal_tol, offset_tol) for true in room.walls):
                ghosts += 1
        for true in room.walls:
            if not any(same_plane(wall, true, normal_tol, offset_tol) for wall in detection.walls):
                missed += 1
        margins.append(_mixed_margin(detection.match, layout, emitters))
    return GoodnessReport(
        trials=trials,
        ghost_walls=ghosts,
        missed_walls=missed,
        mixed_residual_margin=min((m for m in margins if m is not None), default=None),
    )


def _mixed_margin(report: MatchReport, sensors: SensorArray, emitters: list) -> float | None:
    """Smallest relation residual over the mixed tuples a match picked.

    The minimum of ``report``'s smallest rejected residual, the residuals
    of the accepted tuples that are not genuine, where a genuine tuple
    equals one emitter's :func:`event_arrivals` exactly, and the residuals
    of its ``unconfirmed`` tuples, screened here in one batch.  None when
    the match rejected nothing, left nothing unconfirmed and accepted only
    genuine tuples.
    """
    genuine = {tuple(event_arrivals(sensors, ev).tolist()) for ev in emitters}
    lows = [residual for source, residual in report.accepted if source not in genuine]
    if report.rejected_floor is not None:
        lows.append(report.rejected_floor)
    if len(report.unconfirmed):
        dist = sensors.pairwise_distances()
        lows.append(float(batched_relation_residuals(report.unconfirmed, dist * dist).min()))
    return min(lows, default=None)
