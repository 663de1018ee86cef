"""Match unattributed reception times to the events that caused them.

Each sensor reports a bag of reception times with no labels saying which
emission produced which time.  For n+2 sensors in R^n, a tuple with one
time per sensor that comes from a single event makes the relation matrix
singular.  Tuples from one event also satisfy ``|t_i - t_j| <= d_ij`` for
every sensor pair (reverse triangle inequality), so a window walk over the
sorted lists skips most of the Cartesian product without ever discarding a
genuine event.  The full product size is still counted exactly and guarded
by a budget.

The walk takes one sensor last, held out.  Each surviving tuple of the
other n+1 (a prefix) determines its event in closed form, the reduced
quadratic of :func:`solve`, and so predicts the arrival at the held-out
sensor.  Only the arrivals of its window there near a prediction are
picked, confirmed by relation residual and multilaterated, and the
deduplicated events are reported.
Tuples are screened here and nowhere else: only the goodness margin of
:func:`echolat.acoustics.goodness_check` has the sweep pick and screen the
nearest arrival of each prediction with none near as well, and it reads
the smallest of those residuals from ``rejected_floor``.  The walk finds
the windows of a whole block of prefixes with one ``searchsorted`` per
side and extends the block in pieces of at most ``_CHUNK_ROWS`` rows, each
walked to the held-out sensor before the next is built, so prefixes come
out in lexicographic order and memory stays bounded: a piece leaves only
its accepted tuples, solved in one batch after the walk.  Blocks are
sensor-major, so max and min over a prefix run across contiguous columns.
:meth:`ReceptionTable.from_events` is the one place where reception tables
are built from emissions.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from numbers import Real
from typing import Iterator

import numpy as np

from . import linalg
from .errors import BudgetExceeded, NotSpanning, NumericError, ValidationError
from .lateration import _DEGENERACY_TOL, _arrivals, _rank_tol, _solve_full_rank, _spurious
from .lateration import SensorArray, SolvePath, solve
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

        Every event reaches every sensor at :func:`event_arrivals`, computed
        for all events at once.  ``dropout`` holds (event_index,
        sensor_index) pairs whose arrival is left out, and ``spurious`` holds
        (sensor_index, time) entries added as given.  An index that is not
        an integer, or is out of range, raises :class:`ValidationError`, and
        so does an event whose dimension is not the sensors'.
        """
        events = tuple(events)
        m = sensors.count
        arrivals = _arrivals(sensors, events)
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
    ``rank_tol`` is passed to :func:`solve`.  A threshold that is not a
    finite real >= 0, a ``rank_tol`` that is not a real in (0, 1), a
    ``keep_ambiguous`` that is not a bool or a budget that is not a real
    >= 0 (NaN included) raises :class:`ValidationError`.
    """

    residual_threshold: float = 1e-6
    keep_ambiguous: bool = True
    budget: int = 10_000_000
    rank_tol: float = linalg.DEFAULT_RANK_TOL

    def __post_init__(self) -> None:
        threshold, budget = self.residual_threshold, self.budget
        if not (isinstance(threshold, Real) and math.isfinite(threshold) and threshold >= 0.0):
            raise ValidationError(f"residual_threshold must be finite and >= 0, got {threshold}")
        _rank_tol(self.rank_tol)
        if not isinstance(self.keep_ambiguous, (bool, np.bool_)):
            raise ValidationError(f"keep_ambiguous must be a bool, got {self.keep_ambiguous!r}")
        if not (isinstance(budget, Real) and budget >= 0):
            raise ValidationError(f"budget must be >= 0, got {budget}")


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

    The screen itself is reported too.  Of the evaluated tuples only the
    near ones, within tau of a prefix's prediction, are screened and can be
    accepted, unless the goodness margin has the sweep screen the nearest
    ones too (see :func:`match_events`).  ``accepted`` holds every near
    tuple whose residual is at most the threshold, as (source_times,
    residual) pairs in walk order, including those later skipped or dropped
    as ambiguous; ``accepted_tuples`` is its length.  ``rejected_floor`` is
    the smallest residual of a screened tuple that was not accepted, None
    when every screened tuple was accepted.
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


def _walk(arrays: tuple[np.ndarray, ...], dist: np.ndarray, slack: float) -> Iterator[tuple]:
    """Walk the pruned product breadth-first, yielding (prefixes, lo, hi) blocks.

    A tuple survives when ``|t_i - t_j| <= d_ij + slack`` for every sensor
    pair.  Each step takes a block of prefixes over the first l sensors and
    finds every prefix's window ``arrays[l][lo:hi]`` at once (``hi >= lo``).
    At the last sensor it yields the block and its windows.  Before that it
    extends the block piece by piece: a piece holds the extensions of
    consecutive prefixes, at most ``_CHUNK_ROWS`` rows unless one prefix
    alone has more, and is walked to the last sensor before the next piece
    is built.  The prefixes therefore come out in lexicographic order.
    Blocks are Fortran-ordered (k, l), one contiguous column per sensor,
    because every reduction over a prefix's sensors is then an elementwise
    max or min across columns.
    """
    m = len(arrays)

    def extend(prefixes: np.ndarray) -> Iterator[tuple]:
        level = prefixes.shape[1]
        arr = arrays[level]
        if level == 0:
            lo = np.zeros(1, dtype=np.intp)
            hi = np.full(1, arr.size, dtype=np.intp)
        else:
            lo_t = (prefixes - dist[:level, level]).max(axis=1) - slack
            hi_t = (prefixes + dist[:level, level]).min(axis=1) + slack
            lo = np.searchsorted(arr, lo_t, side="left")
            hi = np.maximum(np.searchsorted(arr, hi_t, side="right"), lo)
        if level == m - 1:
            yield prefixes, lo, hi
            return
        counts = hi - lo
        ends = np.cumsum(counts)
        total = int(ends[-1])
        done = 0
        while done < total:
            start = int(np.searchsorted(ends, done, side="right"))
            stop = max(int(np.searchsorted(ends, done + _CHUNK_ROWS, side="right")), start + 1)
            width = counts[start:stop]
            rows = int(ends[stop - 1]) - done
            block = np.empty((rows, level + 1), order="F")
            for col in range(level):
                block[:, col] = np.repeat(prefixes[start:stop, col], width)
            first = lo[start:stop] - (ends[start:stop] - width - done)
            block[:, level] = arr[np.repeat(first, width) + np.arange(rows)]
            yield from extend(block)
            done += rows

    yield from extend(np.empty((1, 0)))


def _dedup_events(
    found: list[DetectedEvent], time_eps: float, pos_eps: float
) -> list[DetectedEvent]:
    def key(ev: DetectedEvent):
        return (ev.event_time, ev.position.tolist())

    found.sort(key=key)
    reps: list[tuple[float, list[float], DetectedEvent]] = []
    # Representatives before ``start`` are more than time_eps earlier than the
    # current event, so no later event can match them: times only grow.
    start = 0
    for ev in found:
        time, position = key(ev)
        while start < len(reps) and time - reps[start][0] > time_eps:
            start += 1
        for i in range(start, len(reps)):
            rep_time, rep_position, rep = reps[i]
            if time - rep_time <= time_eps and all(
                abs(a - b) <= pos_eps for a, b in zip(position, rep_position)
            ):
                if ev.residual < rep.residual:
                    reps[i] = (time, position, ev)
                break
        else:
            reps.append((time, position, ev))
    reps.sort(key=lambda rep: rep[:2])
    return [rep for _, _, rep in reps]


def _held_out(sensors: SensorArray) -> tuple[int, list[int], np.ndarray, np.ndarray]:
    """The last sensor whose removal leaves an exactly invertible G = (2 a_i, -1).

    That is the row the block of ``sensors._factor`` leaves out.  Returns
    its index, the block's n+1 sensors, their positions relative to it and
    the correctly rounded inverse of their exact G in that frame
    (:meth:`linalg.ExactFactor.local_inverse`).  Raises :class:`NotSpanning`
    when the factor is None, which happens only for an exactly coplanar
    layout.
    """
    factor = sensors._factor
    if factor is None:
        raise NotSpanning("no n+1 of the sensors affinely span the ambient space")
    keep = list(factor.block)
    held = next(i for i in range(sensors.count) if i not in keep)
    local = sensors.positions[keep] - sensors.positions[held]
    return held, keep, local, factor.local_inverse()


def _predict(prefixes, inverse, local, diameter, disc_tol):
    """The held-out arrivals that the roots of the prefixes' quadratics predict.

    The prefix is solved in a local frame: positions ``local`` relative to
    the held-out sensor and times relative to the prefix's first one, whose
    column is an exact 0.  Row j of ``inverse`` applied to 2 t and to
    ||a||^2 - t^2 gives (u, alpha) and (v, beta) of :func:`solve`'s
    quadratic path, elementwise and with no BLAS, and a root t predicts the
    arrival t + ||t u + v||.  Returns the (slot, value) pairs of the roots
    that predict, slot = 2 row + root in row-major order, and the (k,) mask
    of fragile prefixes, too ill-conditioned to predict from: near-linear
    (|a| at most ``lateration._DEGENERACY_TOL``), nearly flat (|a| > 1e6)
    or near-double (|disc| <= ``disc_tol``).  Fragile prefixes, prefixes
    with no real root and roots spurious by :func:`solve`'s rule for the
    prefix's sensors (of ``diameter``) predict nothing.  The times are
    gathered C-ordered, so :func:`_spurious` runs across rows.
    """
    origin = prefixes[:, 0]
    cols = (prefixes - origin[:, None]).T
    square = (local * local).sum(axis=1)
    lifted = square[1:, None] - cols[1:] * cols[1:]
    rows = range(len(cols))
    t_part = [2.0 * sum(map(operator.mul, inverse[j, 1:], cols[1:])) for j in rows]
    c_part = [sum(map(operator.mul, inverse[j, 1:], lifted), inverse[j, 0] * square[0])
              for j in rows]
    u, v = t_part[:-1], c_part[:-1]
    a = sum(e * e for e in u) - 1.0
    b = 2.0 * sum(e * f for e, f in zip(u, v)) - t_part[-1]
    c = sum(f * f for f in v) - c_part[-1]
    disc = b * b - 4.0 * a * c
    # A root is off by about |a| eps (diameter + span), so above 1e6 (a
    # nearly flat prefix) it nears the smallest tau.
    lead = np.abs(a)
    fragile = (lead <= _DEGENERACY_TOL) | (lead > 1e6) | (np.abs(disc) <= disc_tol)
    ok = np.flatnonzero(~fragile & (disc > 0.0))
    q = -0.5 * (b[ok] + np.copysign(np.sqrt(disc[ok]), b[ok]))
    roots = np.stack((q / a[ok], c[ok] / q))
    live = np.flatnonzero(~_spurious(roots, np.take(cols, ok, axis=1), diameter).T)
    row = ok[live // 2]
    root = roots.T.ravel()[live]
    reach = np.sqrt(sum((root * e[row] + f[row]) ** 2 for e, f in zip(u, v)))
    return 2 * row + live % 2, origin[row] + root + reach, fragile


def _screen_rows(arrivals, wlo, whi, slot, value, fragile, tau, screen_all=False):
    """The (prefix, arrival) pairs the predictions pick, in walk order, and which are near.

    Prefix i's window is ``arrivals[wlo[i]:whi[i]]``, and prediction
    ``value[p]`` is prefix ``slot[p] // 2``'s.  Each prediction picks the
    window's arrivals within ``tau`` of it (near), and a fragile prefix its
    whole window, all near.  Only with ``screen_all`` does one with no near
    arrival also pick the window's arrival nearest it.  Returns the prefix
    and arrival indices of the distinct pairs, sorted, and whether each is near.
    """
    size = arrivals.size
    owner = slot // 2
    # A NaN prediction sorts past every arrival, so it finds none.
    lo = np.maximum(np.searchsorted(arrivals, value - tau, side="left"), wlo[owner])
    hit = np.flatnonzero(lo < whi[owner])
    hit = hit[arrivals[lo[hit]] <= value[hit] + tau]
    picker = np.concatenate((owner[hit], np.flatnonzero(fragile)))
    starts = np.concatenate((lo[hit], wlo[fragile]))
    stops = np.searchsorted(arrivals, value[hit] + tau, side="right")
    counts = np.minimum(np.concatenate((stops, whi[fragile])), whi[picker]) - starts
    near = np.repeat(picker * size + starts - (np.cumsum(counts) - counts), counts)
    near += np.arange(near.size)
    if not screen_all:
        keys = np.unique(near)
        return keys // size, keys % size, np.ones(keys.size, dtype=bool)

    # For a prediction with none near, every arrival from lo up to it is
    # within tau, so outside the window: lo splits it where the prediction would.
    lone = ~np.isnan(value) & (whi > wlo)[owner]
    lone[hit] = False
    lone_p, value, at = owner[lone], value[lone], lo[lone]
    left = np.clip(at - 1, wlo[lone_p], whi[lone_p] - 1)
    right = np.clip(at, wlo[lone_p], whi[lone_p] - 1)
    nearer = np.abs(arrivals[right] - value) < np.abs(arrivals[left] - value)
    keys, first = np.unique(np.concatenate((near, lone_p * size + np.where(nearer, right, left))),
                            return_index=True)
    return keys // size, keys % size, first < near.size


def match_events(
    sensors: SensorArray,
    table: ReceptionTable,
    config: MatchConfig = MatchConfig(),
    *,
    _screen_all: bool = False,
) -> MatchReport:
    """Sweep a reception table and recover the emission events behind it.

    Requires one time list per sensor and m = n+2 sensors, so that accepted
    tuples determine events.  The layout is factored once, which holds one
    sensor out (:func:`_held_out`); the window walk takes it last, and the
    tuples of the other n+1 are the prefixes.  Each prefix's reduced
    quadratic, the n+1-sensor closed form of :func:`solve`, predicts the
    held-out arrival of every non-spurious root; the prediction picks the
    held-out arrivals within tau of it.  tau is 1e-2
    max(``config.residual_threshold``, 1e-6) (diameter + span), 1e-8
    (diameter + span) at the default threshold, so timing noise of more than
    about 1e-9 of that scale needs a higher threshold.  A prefix whose root
    is too ill-conditioned to predict from (a near-linear, nearly flat or
    near-double quadratic, see :func:`_predict`) picks its whole window, all
    within tau.  The picked tuples are screened: one is accepted when its
    relation residual is at most ``config.residual_threshold``.  Only with
    ``_screen_all`` set, as :func:`echolat.acoustics.goodness_check` does
    for its margin, does a prediction with none within tau also pick the one
    arrival nearest it in the window; that tuple cannot be accepted, and its
    residual counts towards ``rejected_floor``.

    Each accepted tuple is multilaterated and its non-spurious candidates
    become detected events; after the walk, the match's full-rank tuples
    are solved in one batch on the factor (:func:`lateration._solve_full_rank`).
    Ambiguous tuples (two viable candidates) contribute both events flagged
    ``ambiguous`` when ``config.keep_ambiguous`` is set, and are dropped
    otherwise.  Numeric failures on individual tuples are reported in
    ``skipped`` rather than aborting the sweep.

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
    order = keep + [held]

    dist = sensors.pairwise_distances()
    dist2 = dist * dist
    slack = _default_slack(sensors, table)
    scale = sensors.diameter() + table.span()
    tau = 1e-2 * max(config.residual_threshold, 1e-6) * scale
    disc_tol = 1e-12 * scale * scale
    arrivals = table.times[held]
    prefix_diameter = dist[np.ix_(keep, keep)].max()
    found: list[DetectedEvent] = []
    skipped: list[tuple[tuple[float, ...], str]] = []
    accepted: list[tuple[tuple[float, ...], float]] = []
    floors: list[float] = []
    evaluated = 0
    dropped_ambiguous = 0

    walk = _walk(tuple(table.times[i] for i in order), dist[np.ix_(order, order)], slack)
    for prefixes, wlo, whi in walk:
        evaluated += int((whi - wlo).sum())
        predicted = _predict(prefixes, inverse, local, prefix_diameter, disc_tol)
        which, index, near = _screen_rows(arrivals, wlo, whi, *predicted, tau, _screen_all)
        if not which.size:
            continue
        rows = np.empty((which.size, m))
        rows[:, keep] = prefixes[which]
        rows[:, held] = arrivals[index]
        residuals = batched_relation_residuals(rows, dist2)
        hits = near & (residuals <= config.residual_threshold)
        if not hits.all():
            floors.append(float(residuals[~hits].min()))
        accepted.extend(zip(map(tuple, rows[hits].tolist()), residuals[hits].tolist()))

    rows = np.array([source for source, _ in accepted]).reshape(-1, m)
    solved = _solve_full_rank(sensors, rows, config.rank_tol)
    for row, (source, residual), outcome in zip(rows, accepted, solved):
        path = SolvePath.FULL_RANK
        if outcome is None:  # below full rank: solve's quadratic path
            try:
                result = solve(sensors, row, rank_tol=config.rank_tol)
            except NumericError as exc:
                outcome = exc
            else:
                path = result.path
                outcome = [(c.event.time, c.event.position, c.spurious)
                           for c in result.candidates]
        if isinstance(outcome, NumericError):
            skipped.append((source, f"{type(outcome).__name__}: {outcome}"))
            continue
        viable = [(time, position) for time, position, late in outcome if not late]
        ambiguous = len(viable) > 1
        if ambiguous and not config.keep_ambiguous:
            dropped_ambiguous += 1
            continue
        for time, position in viable:
            found.append(DetectedEvent(time, position, source, residual, path, ambiguous))

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
