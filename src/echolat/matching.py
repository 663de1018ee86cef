"""Match unattributed reception times to the events that caused them.

Each sensor reports a bag of reception times with no labels saying which
emission produced which time.  For n+2 sensors in R^n, a tuple with one
time per sensor that comes from a single event makes the relation matrix
singular.  Tuples from one event also satisfy ``|t_i - t_j| <= d_ij`` for
every sensor pair (reverse triangle inequality), so a window walk over the
sorted lists skips most of the Cartesian product without ever discarding a
genuine event.  The full product size is still counted exactly and guarded
by a budget.

The walk runs over n+1 of the sensors.  Each of their surviving tuples (a
prefix) determines its event in closed form, the reduced quadratic of
:func:`solve`, and so predicts the arrival at the held-out sensor.  Only
the held-out arrivals near a prediction are confirmed by relation residual
and multilaterated; the deduplicated events are reported, and the nearest
arrival of each prediction with none near goes out unconfirmed.  The walk
finds the windows of a whole block of prefixes with one ``searchsorted``
per side and extends the block in pieces of at most ``_CHUNK_ROWS`` rows,
each walked to the last sensor before the next is built, so prefixes come
out in lexicographic order and memory stays bounded.
:meth:`ReceptionTable.from_events` is the one place where reception tables
are built from emissions.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import linalg
from .errors import BudgetExceeded, NotSpanning, NumericError, RankDeficient, ValidationError
from .lateration import _DEGENERACY_TOL, SensorArray, SolvePath, _spurious, event_arrivals, solve
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

    ``residual_threshold`` is the relation-residual acceptance cutoff;
    above its default of 1e-6 it also widens tau, how far an arrival may
    miss its prediction, in proportion (see :func:`match_events`).  With
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
    window walk skips ``pruned_tuples``; the other ``evaluated_tuples`` pass
    every pairwise window.  ``rejected_tuples`` counts every tuple ruled out
    at any stage, i.e. ``candidate_tuples - accepted_tuples``.  ``skipped``
    lists accepted tuples whose solve failed numerically, as (tuple,
    reason) pairs.  Events are sorted by (time, lexicographic position).

    The screen itself is reported too.  Of the evaluated tuples only those
    a prefix's prediction picks are screened (see :func:`match_events`).
    The near ones, within tau of a prediction, are confirmed by relation
    residual.  ``accepted`` holds every near tuple whose residual is at
    most the threshold, as (source_times, residual) pairs in walk order,
    including those later skipped or dropped as ambiguous;
    ``accepted_tuples`` is its length.  ``rejected_floor`` is the smallest
    residual of a near tuple that was not accepted, None when every near
    tuple was accepted.  ``unconfirmed`` holds the other picked tuples,
    the nearest window arrival of each prediction with none near, as a
    read-only (k, m) array in walk order; they cannot be accepted, so no
    residual is computed for them.  It holds about one row per prefix, so
    unlike the walk's pieces it grows with the scene.
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
    unconfirmed: np.ndarray


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


def _held_out(sensors: SensorArray) -> tuple[int, list[int], np.ndarray, np.ndarray]:
    """The last sensor whose removal leaves an exactly invertible G = (2 a_i, -1).

    Returns that sensor's index, the indices of the other n+1 sensors,
    their positions relative to it and the correctly rounded inverse of
    their G in that frame.  Raises :class:`NotSpanning` when no sensor
    qualifies, which happens only for an exactly coplanar layout.
    """
    m, n = sensors.positions.shape
    for held in reversed(range(m)):
        keep = [i for i in range(m) if i != held]
        local = sensors.positions[keep] - sensors.positions[held]
        geometry = np.column_stack((2.0 * local, np.full(n + 1, -1.0)))
        try:
            return held, keep, local, linalg.least_squares_solve(geometry, np.eye(n + 1))
        except RankDeficient:
            continue
    raise NotSpanning("no n+1 of the sensors affinely span the ambient space")


def _predict(prefixes, inverse, local, diameter, disc_tol):
    """The held-out arrival that each root of each prefix's quadratic predicts.

    The prefix is solved in a local frame: positions ``local`` relative to
    the held-out sensor and times relative to the prefix's first one.  Row
    j of ``inverse`` applied to 2 t and to ||a||^2 - t^2 gives (u, alpha)
    and (v, beta) of :func:`solve`'s quadratic path, elementwise and with no
    BLAS, and a root t predicts the arrival t + ||t u + v||.  Returns the
    (k, 2) predictions, NaN where the quadratic has no real root or the
    root is spurious by :func:`solve`'s rule for the prefix's sensors (of
    the given ``diameter``), and the (k,) mask of fragile prefixes, whose
    roots are too ill-conditioned to predict from: near-linear (|a| at most
    ``lateration._DEGENERACY_TOL``), nearly flat (|a| > 1e6) or near-double
    (|disc| <= ``disc_tol``).
    """
    origin = prefixes[:, 0]
    cols = (prefixes - origin[:, None]).T
    lifted = (local * local).sum(axis=1)[:, None] - cols * cols
    rows = range(len(cols))
    t_part = [2.0 * sum(inverse[j, i] * cols[i] for i in rows) for j in rows]
    c_part = [sum(inverse[j, i] * lifted[i] for i in rows) for j in rows]
    u, v = t_part[:-1], c_part[:-1]
    a = sum(e * e for e in u) - 1.0
    b = 2.0 * sum(e * f for e, f in zip(u, v)) - t_part[-1]
    c = sum(f * f for f in v) - c_part[-1]
    disc = b * b - 4.0 * a * c
    # A root is off by about |a| eps (diameter + span), so above 1e6 (a
    # nearly flat prefix) it nears the smallest tau.
    lead = np.abs(a)
    fragile = (lead <= _DEGENERACY_TOL) | (lead > 1e6) | (np.abs(disc) <= disc_tol)
    out = np.full((len(a), 2), np.nan)
    ok = np.flatnonzero(~fragile & (disc > 0.0))
    q = -0.5 * (b[ok] + np.copysign(np.sqrt(disc[ok]), b[ok]))
    roots = np.stack((q / a[ok], c[ok] / q))
    late = _spurious(roots, cols[:, ok], diameter)
    for col, root in enumerate(roots):
        reach = np.sqrt(sum((root * e[ok] + f[ok]) ** 2 for e, f in zip(u, v)))
        out[ok, col] = np.where(late[col], np.nan, origin[ok] + root + reach)
    return out, fragile


def _screen_rows(arrivals, wlo, whi, predicted, fragile, tau):
    """The (prefix, arrival) pairs the predictions pick, in walk order, and which are near.

    Prefix i's window is ``arrivals[wlo[i]:whi[i]]``.  Each root screens the
    window's arrivals within ``tau`` of its prediction (near), or failing
    those the one arrival of the window nearest the prediction.  A fragile
    prefix screens its whole window, all near.  Returns the prefix and
    arrival indices of the distinct pairs, sorted, and whether each is near.
    """
    k = len(wlo)
    ok = ~np.isnan(predicted)
    guess = np.where(ok, predicted, 0.0)
    starts = np.maximum(np.searchsorted(arrivals, guess - tau, side="left"), wlo[:, None])
    stops = np.minimum(np.searchsorted(arrivals, guess + tau, side="right"), whi[:, None])
    counts = np.where(ok, np.maximum(stops - starts, 0), 0)
    starts = np.column_stack((starts, wlo)).ravel()
    counts = np.column_stack((counts, np.where(fragile, whi - wlo, 0))).ravel()
    total = int(counts.sum())
    near_p = np.repeat(np.repeat(np.arange(k), 3), counts)
    near_a = np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(total)

    lone = ok & (counts.reshape(k, 3)[:, :2] == 0) & (whi > wlo)[:, None]
    lone_p = np.nonzero(lone)[0]
    value = predicted[lone]
    at = np.searchsorted(arrivals, value)
    left = np.clip(at - 1, wlo[lone_p], whi[lone_p] - 1)
    right = np.clip(at, wlo[lone_p], whi[lone_p] - 1)
    nearer = np.abs(arrivals[right] - value) < np.abs(arrivals[left] - value)
    lone_a = np.where(nearer, right, left)

    size = arrivals.size
    keys, first = np.unique(np.concatenate((near_p * size + near_a, lone_p * size + lone_a)),
                            return_index=True)
    return keys // size, keys % size, first < total


def match_events(
    sensors: SensorArray,
    table: ReceptionTable,
    config: MatchConfig = MatchConfig(),
) -> MatchReport:
    """Sweep a reception table and recover the emission events behind it.

    Requires one time list per sensor and m = n+2 sensors, so that accepted
    tuples determine events.  One sensor is held out (:func:`_held_out`)
    and the window walk runs over the other n+1, whose tuples are the
    prefixes.  Each prefix's reduced quadratic, the n+1-sensor closed form
    of :func:`solve`, predicts the held-out arrival of every non-spurious
    root; the held-out arrivals within tau of a prediction are screened,
    or, if there are none, the one arrival nearest it in the prefix's
    window.  tau is 1e-2 max(``config.residual_threshold``, 1e-6)
    (diameter + span), 1e-8 (diameter + span) at the default threshold, so
    timing noise of more than about 1e-9 of that scale needs a higher
    threshold.  A prefix whose root is too ill-conditioned to predict from
    (a near-linear, nearly flat or near-double quadratic, see
    :func:`_predict`) screens its whole window.  Only the tuples within
    tau (or from a fragile prefix) are confirmed: one is accepted when its
    relation residual is at most ``config.residual_threshold``.  The
    nearest-arrival tuples are reported unconfirmed.

    Each accepted tuple is multilaterated and its non-spurious candidates
    become detected events.  Ambiguous tuples (two viable candidates)
    contribute both events flagged ``ambiguous`` when
    ``config.keep_ambiguous`` is set, and are dropped otherwise.  Numeric
    failures on individual tuples are reported in ``skipped`` rather than
    aborting the sweep.

    Raises :class:`BudgetExceeded` if the full product size exceeds
    ``config.budget`` (checked before any work), and :class:`NotSpanning`
    when the sensors are exactly coplanar, so no sensor can be held out.
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
    held, keep, local, inverse = _held_out(sensors)

    dist = sensors.pairwise_distances()
    dist2 = dist * dist
    slack = _default_slack(sensors, table)
    scale = sensors.diameter() + table.span()
    tau = 1e-2 * max(config.residual_threshold, 1e-6) * scale
    disc_tol = 1e-12 * scale * scale
    arrivals = table.times[held]
    to_held = dist[keep, held]
    prefix_dist = dist[np.ix_(keep, keep)]
    found: list[DetectedEvent] = []
    skipped: list[tuple[tuple[float, ...], str]] = []
    accepted: list[tuple[tuple[float, ...], float]] = []
    floors: list[float] = []
    unconfirmed = [np.empty((0, m))]
    evaluated = 0
    dropped_ambiguous = 0

    prefix_lists = tuple(table.times[i] for i in keep)
    for prefixes in _walk(prefix_lists, prefix_dist, slack):
        wlo = np.searchsorted(arrivals, (prefixes - to_held).max(axis=1) - slack, side="left")
        whi = np.searchsorted(arrivals, (prefixes + to_held).min(axis=1) + slack, side="right")
        whi = np.maximum(whi, wlo)
        evaluated += int((whi - wlo).sum())
        predicted, fragile = _predict(prefixes, inverse, local, prefix_dist.max(), disc_tol)
        which, index, near = _screen_rows(arrivals, wlo, whi, predicted, fragile, tau)
        rows = np.empty((which.size, m))
        rows[:, keep] = prefixes[which]
        rows[:, held] = arrivals[index]
        unconfirmed.append(rows[~near])
        rows = rows[near]
        if not rows.size:
            continue
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
    lone = np.concatenate(unconfirmed)
    lone.setflags(write=False)
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
        unconfirmed=lone,
    )
