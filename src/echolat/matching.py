"""Match unattributed reception times to the events that caused them.

Each sensor reports a bag of reception times with no labels saying which
emission produced which time.  For n+2 sensors in R^n, a tuple with one
time per sensor that comes from a single event makes the relation matrix
singular, so the sweep walks the Cartesian product of the per-sensor time
lists, keeps the tuples whose relation residual is below threshold,
multilaterates each survivor, and reports the deduplicated events.

Tuples from one event also satisfy ``|t_i - t_j| <= d_ij`` for every sensor
pair (reverse triangle inequality), which allows large parts of the product
to be pruned without ever discarding a genuine event: the sweep intersects
the admissible time windows sensor by sensor over the sorted lists, so the
cost scales with the number of plausible tuples rather than the full
product.  The full product size is still counted exactly and guarded by a
budget.

One breadth-first walk feeds the screen: it finds the windows of a whole
block of prefixes with one ``searchsorted`` per side and extends the block
in pieces of at most ``_CHUNK_ROWS`` rows, a size whose (k, m, m) screen
temporaries fit in a per-core L2 cache.  Every piece is walked to the last
sensor before the next one is built, so tuples come out in lexicographic
order and memory stays bounded.  :meth:`ReceptionTable.from_events` is the
one place where reception tables are built from emissions.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import linalg
from .errors import BudgetExceeded, NumericError, ValidationError
from .lateration import SensorArray, SolvePath, event_arrivals, solve
from .relations import batched_relation_residuals

_DEDUP_RESOLUTION = 1e-12
#: Detected events closer than this in time, and than this times the
#: sensor diameter in every coordinate, are one event.
_DEDUP_EPS = 1e-6
_CHUNK_ROWS = 4096


@dataclass(frozen=True, eq=False)
class ReceptionTable:
    """Per-sensor reception times, one sorted array per sensor.

    Construction sorts each list and collapses entries closer than 1e-12,
    so every stored array is strictly increasing.
    """

    times: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        cleaned = []
        for i, entry in enumerate(self.times):
            arr = np.asarray(entry, dtype=float).reshape(-1)
            if arr.size and not np.isfinite(arr).all():
                raise ValidationError(f"reception times for sensor {i} contain NaN or Inf")
            arr = np.sort(arr)
            if arr.size:
                keep = np.empty(arr.size, dtype=bool)
                keep[0] = True
                np.greater_equal(np.diff(arr), _DEDUP_RESOLUTION, out=keep[1:])
                arr = arr[keep]
            arr.setflags(write=False)
            cleaned.append(arr)
        object.__setattr__(self, "times", tuple(cleaned))

    @classmethod
    def from_lists(cls, lists) -> "ReceptionTable":
        return cls(tuple(np.asarray(entry, dtype=float) for entry in lists))

    @classmethod
    def from_events(cls, sensors, events, *, dropout=(), spurious=()) -> "ReceptionTable":
        """What a :class:`SensorArray` receives from :class:`EmissionEvent` objects.

        Every event reaches every sensor at :func:`event_arrivals`.
        ``dropout`` holds (event_index, sensor_index) pairs whose arrival is
        left out, and ``spurious`` holds (sensor_index, time) entries added
        as given.  An index that is not an integer, or is out of range,
        raises :class:`ValidationError`.
        """
        events = tuple(events)
        m = sensors.count
        arrivals = np.array([event_arrivals(sensors, ev) for ev in events]).reshape(len(events), m)
        keep = np.ones(arrivals.shape, dtype=bool)
        for event_index, sensor_index in dropout:
            event_index = _index(event_index, len(events), "dropout event")
            keep[event_index, _index(sensor_index, m, "dropout sensor")] = False
        extra: list[list[float]] = [[] for _ in range(m)]
        for sensor_index, time in spurious:
            extra[_index(sensor_index, m, "spurious sensor")].append(float(time))
        return cls(tuple(np.concatenate((arrivals[keep[:, i], i], extra[i])) for i in range(m)))

    @property
    def count(self) -> int:
        return len(self.times)

    def sizes(self) -> tuple[int, ...]:
        return tuple(arr.size for arr in self.times)

    def product_size(self) -> int:
        return math.prod(self.sizes())

    def span(self) -> float:
        entries = [arr for arr in self.times if arr.size]
        if not entries:
            return 0.0
        return float(max(arr[-1] for arr in entries) - min(arr[0] for arr in entries))


def _index(value, size: int, what: str) -> int:
    index = operator.index(value) if hasattr(type(value), "__index__") else -1
    if not 0 <= index < size:
        raise ValidationError(f"{what} index {value!r} is not an integer in [0, {size})")
    return index


@dataclass(frozen=True)
class MatchConfig:
    """Knobs for :func:`match_events`.

    ``residual_threshold`` is the relation-residual acceptance cutoff.  With
    ``keep_ambiguous`` set, tuples whose solve yields two viable candidates
    contribute both (flagged); otherwise they are dropped and counted.
    ``budget`` caps the product of the reception-list sizes, and
    ``rank_tol`` is passed to :func:`solve`.  A threshold that is negative
    or not finite, a ``rank_tol`` outside (0, 1) or a negative budget
    raises :class:`ValidationError`.
    """

    residual_threshold: float = 1e-6
    keep_ambiguous: bool = True
    budget: int = 10_000_000
    rank_tol: float = linalg.DEFAULT_RANK_TOL

    def __post_init__(self) -> None:
        if not (math.isfinite(self.residual_threshold) and self.residual_threshold >= 0.0):
            raise ValidationError(
                f"residual_threshold must be finite and >= 0, got {self.residual_threshold}"
            )
        if not 0.0 < self.rank_tol < 1.0:
            raise ValidationError(f"rank_tol must lie in (0, 1), got {self.rank_tol}")
        if self.budget < 0:
            raise ValidationError(f"budget must be >= 0, got {self.budget}")


@dataclass(frozen=True, eq=False)
class DetectedEvent:
    """An event recovered by the sweep, with its provenance tuple."""

    event_time: float
    position: np.ndarray
    source_times: tuple[float, ...]
    residual: float
    path: SolvePath
    ambiguous: bool

    def __post_init__(self) -> None:
        pos = np.array(self.position, dtype=float).reshape(-1)
        pos.setflags(write=False)
        object.__setattr__(self, "position", pos)


@dataclass(frozen=True, eq=False)
class MatchReport:
    """Outcome of a matching sweep.

    ``candidate_tuples`` is the full Cartesian-product size, of which the
    window walk skips ``pruned_tuples`` and screens ``evaluated_tuples``;
    ``rejected_tuples`` counts every tuple ruled out at any stage, i.e.
    ``candidate_tuples - accepted_tuples``.  ``skipped`` lists accepted
    tuples whose solve failed numerically, as (tuple, reason) pairs.
    Events are sorted by (time, lexicographic position).

    The screen itself is reported too.  ``accepted`` holds every tuple whose
    relation residual was at most the threshold, as (source_times, residual)
    pairs in walk order, including those later skipped or dropped as
    ambiguous; ``accepted_tuples`` is its length.  ``rejected_floor`` is the
    smallest residual of a screened tuple above the threshold, None when the
    screen rejected nothing.  Together they give the gap between the worst
    accepted residual and the best rejected one.
    """

    events: tuple[DetectedEvent, ...]
    candidate_tuples: int
    pruned_tuples: int
    evaluated_tuples: int
    accepted_tuples: int
    rejected_tuples: int
    skipped: tuple[tuple[tuple[float, ...], str], ...]
    dropped_ambiguous: int
    accepted: tuple[tuple[tuple[float, ...], float], ...]
    rejected_floor: float | None


def _default_slack(sensors: SensorArray, table: ReceptionTable) -> float:
    return 1e-9 * (sensors.diameter() + table.span()) + 1e-12


def _walk(arrays: tuple[np.ndarray, ...], dist: np.ndarray, slack: float) -> Iterator[np.ndarray]:
    """Walk the pruned product breadth-first, yielding (k, m) blocks of tuples.

    A tuple survives when ``|t_i - t_j| <= d_ij + slack`` for every sensor
    pair.  Each step takes a block of prefixes over the first l sensors, finds
    every prefix's window ``arrays[l][lo:hi]`` at once and extends the
    block piece by piece: a piece holds the extensions of consecutive
    prefixes, at most ``_CHUNK_ROWS`` rows unless one prefix alone has
    more, and is walked to the last sensor before the next piece is built.
    The yielded rows therefore come out in lexicographic order.
    """
    m = len(arrays)

    def extend(prefixes: np.ndarray) -> Iterator[np.ndarray]:
        level = prefixes.shape[1]
        arr = arrays[level]
        if level == 0:
            lo = np.zeros(1, dtype=np.intp)
            counts = np.full(1, arr.size, dtype=np.intp)
        else:
            lo_t = (prefixes - dist[:level, level]).max(axis=1) - slack
            hi_t = (prefixes + dist[:level, level]).min(axis=1) + slack
            lo = np.searchsorted(arr, lo_t, side="left")
            counts = np.maximum(np.searchsorted(arr, hi_t, side="right") - lo, 0)
        ends = np.cumsum(counts)
        total = int(ends[-1])
        done = 0
        while done < total:
            start = int(np.searchsorted(ends, done, side="right"))
            stop = max(int(np.searchsorted(ends, done + _CHUNK_ROWS, side="right")), start + 1)
            width = counts[start:stop]
            rows = int(ends[stop - 1]) - done
            block = np.empty((rows, level + 1))
            block[:, :level] = np.repeat(prefixes[start:stop], width, axis=0)
            first = lo[start:stop] - (ends[start:stop] - width - done)
            block[:, level] = arr[np.repeat(first, width) + np.arange(rows)]
            if level == m - 1:
                yield block
            else:
                yield from extend(block)
            done += rows

    yield from extend(np.empty((1, 0)))


def _dedup_events(
    found: list[DetectedEvent], time_eps: float, pos_eps: float
) -> list[DetectedEvent]:
    def key(ev: DetectedEvent):
        return (ev.event_time, tuple(ev.position))

    found.sort(key=key)
    reps: list[DetectedEvent] = []
    for ev in found:
        for i, rep in enumerate(reps):
            if (
                abs(ev.event_time - rep.event_time) <= time_eps
                and np.max(np.abs(ev.position - rep.position)) <= pos_eps
            ):
                if ev.residual < rep.residual:
                    reps[i] = ev
                break
        else:
            reps.append(ev)
    reps.sort(key=key)
    return reps


def match_events(
    sensors: SensorArray,
    table: ReceptionTable,
    config: MatchConfig = MatchConfig(),
) -> MatchReport:
    """Sweep a reception table and recover the emission events behind it.

    Requires one time list per sensor and m = n+2 sensors, so that accepted
    tuples determine events.  Tuples are screened by relation residual in
    vectorised chunks; each accepted tuple is multilaterated and its
    non-spurious candidates become detected events.  Ambiguous tuples (two
    viable candidates) contribute both events flagged ``ambiguous`` when
    ``config.keep_ambiguous`` is set, and are dropped otherwise.  Numeric
    failures on individual tuples are reported in ``skipped`` rather than
    aborting the sweep.

    Raises :class:`BudgetExceeded` if the full product size exceeds
    ``config.budget`` (checked before any work).
    """
    m, n = sensors.count, sensors.dim
    if table.count != m:
        raise ValidationError(f"table has {table.count} sensors, array has {m}")
    if m != n + 2:
        raise ValidationError(
            f"matching needs exactly n+2 = {n + 2} sensors in dimension {n}, got {m}"
        )
    product = table.product_size()
    if product > config.budget:
        raise BudgetExceeded(
            f"product of reception-list sizes is {product}, budget is {config.budget}"
        )

    dist = sensors.pairwise_distances()
    dist2 = dist * dist
    found: list[DetectedEvent] = []
    skipped: list[tuple[tuple[float, ...], str]] = []
    accepted: list[tuple[tuple[float, ...], float]] = []
    floors: list[float] = []
    evaluated = 0
    dropped_ambiguous = 0

    for rows in _walk(table.times, dist, _default_slack(sensors, table)):
        evaluated += rows.shape[0]
        residuals = batched_relation_residuals(rows, dist2)
        hits = residuals <= config.residual_threshold
        if not hits.all():
            floors.append(float(residuals[~hits].min()))
        for row, residual in zip(rows[hits], residuals[hits].tolist()):
            source = tuple(row.tolist())
            accepted.append((source, residual))
            try:
                result = solve(sensors, row, rank_tol=config.rank_tol)
            except NumericError as exc:
                skipped.append((source, f"{type(exc).__name__}: {exc}"))
                continue
            viable = [c for c in result.candidates if not c.spurious]
            ambiguous = len(viable) > 1
            if ambiguous and not config.keep_ambiguous:
                dropped_ambiguous += 1
                continue
            for cand in viable:
                found.append(
                    DetectedEvent(
                        event_time=cand.event.time,
                        position=cand.event.position,
                        source_times=source,
                        residual=residual,
                        path=result.path,
                        ambiguous=ambiguous,
                    )
                )

    events = _dedup_events(found, _DEDUP_EPS, _DEDUP_EPS * sensors.diameter())
    return MatchReport(
        events=tuple(events),
        candidate_tuples=product,
        pruned_tuples=product - evaluated,
        evaluated_tuples=evaluated,
        accepted_tuples=len(accepted),
        rejected_tuples=product - len(accepted),
        skipped=tuple(skipped),
        dropped_ambiguous=dropped_ambiguous,
        accepted=tuple(accepted),
        rejected_floor=min(floors, default=None),
    )
