"""The benchmark's three workloads: input generation, one operation, and its check.

Each workload is built from the loaded ``echolat`` package and a seed, and the
library only ever sees the generated ``SensorArray`` / ``ReceptionTable`` or the
shipped scenario file.  ``op(i)`` runs operation ``i`` (inputs cycle when a run
outlasts the pool) and ``check(i, out)`` compares its output with the
generator's ground truth.  Package functions are looked up on the module at
call time, so the tracer's wrappers are seen when they are installed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from spans import patched

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "shoebox_3d.json"

#: Sizes of the measured runs and of the smoke test.
SIZES = {
    "full": {
        "match_dense": {"strata": 64, "oversample": 2, "sensors": 5, "events": 60, "span": 20.0},
        "solve_batch": {"problems": 512},
        "room_goodness": {"trials": 20},
    },
    "tiny": {
        "match_dense": {"strata": 2, "oversample": 2, "sensors": 5, "events": 8, "span": 3.0},
        "solve_batch": {"problems": 16},
        "room_goodness": {"trials": 1},
    },
}

#: A recovered value is correct within this share of the scene's scale
#: (sensor diameter plus the largest reception time).
REL_TOL = 1e-6

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class Outcome:
    """What the check found for one operation."""

    failed: bool = False
    misses: int = 0
    ghosts: int = 0
    max_err: float = 0.0
    note: str = ""


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _spread_order(n: int) -> np.ndarray:
    """A permutation of range(n) whose every prefix covers the range evenly.

    Position k holds the rank of frac(k * golden ratio), a low-discrepancy
    sequence, so a run that stops part-way through the pool still sees
    scenes from every stratum.
    """
    keys = (np.arange(n) * _GOLDEN) % 1.0
    return np.argsort(np.argsort(keys))


def _draw_sensors(el, rng, m: int, n: int):
    """Sensors uniform in [-1, 1]^n, redrawn until the geometry is usable."""
    while True:
        sensors = el.SensorArray(rng.uniform(-1.0, 1.0, (m, n)))
        report = el.check_geometry(sensors)
        if report.noncoplanar and report.condition_ok is not False:
            return sensors


def _arrivals(positions: np.ndarray, times: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(events, sensors) reception times for events at ``points``."""
    gaps = positions[None, :, :] - points[:, None, :]
    return times[:, None] + np.sqrt((gaps * gaps).sum(axis=2))


def _walk_size(lists, dist: np.ndarray) -> int:
    """Prefixes that survive the pairwise time windows, summed over levels.

    This is how much work the matcher's window walk does on a scene.  It is
    used only to stratify the scene draw.
    """
    front = lists[0][:, None]
    total = front.shape[0]
    for level in range(1, len(lists) - 1):
        lo = (front - dist[:level, level]).max(axis=1)
        hi = (front + dist[:level, level]).min(axis=1)
        a = np.searchsorted(lists[level], lo, side="left")
        b = np.searchsorted(lists[level], hi, side="right")
        width = np.maximum(b - a, 0)
        starts = np.repeat(a - (np.cumsum(width) - width), width)
        pick = starts + np.arange(width.sum())
        front = np.column_stack([np.repeat(front, width, axis=0), lists[level][pick]])
        total += front.shape[0]
    return total


def _match_errors(truth: np.ndarray, found: np.ndarray, tol: float) -> Outcome:
    """Compare (k, 1+n) arrays of (time, position) rows; ghosts and misses."""
    if found.size == 0:
        return Outcome(misses=len(truth))
    if not np.isfinite(found).all():
        return Outcome(failed=True, note="non-finite output")
    err = np.abs(truth[:, None, :] - found[None, :, :]).max(axis=2)
    best = err.min(axis=1)
    hit = best <= tol
    return Outcome(
        misses=int((~hit).sum()),
        ghosts=int((err.min(axis=0) > tol).sum()),
        max_err=float(best[hit].max()) if hit.any() else 0.0,
    )


def _count_skipped(out: Outcome, skipped, arrivals: np.ndarray, tol: float) -> None:
    """Add the matcher's skipped tuples to ``out``.

    The matcher skips an accepted tuple whose solve fails.  A skipped tuple
    that is not one true event's arrivals (a row of ``arrivals``) is a ghost
    the screen let through (ROADMAP item 4) and counts with the ghosts; a
    skipped genuine tuple is a failure.
    """
    genuine = sum(bool((np.abs(arrivals - np.asarray(times)).max(axis=1) <= tol).any())
                  for times, _ in skipped)
    out.ghosts += len(skipped) - genuine
    if genuine:
        out.failed, out.note = True, f"{genuine} skipped genuine tuples"
    elif skipped:
        out.note = "accepted ghost tuples without a solution, counted as ghosts"


class Scene(NamedTuple):
    work: int
    sensors: object
    table: object
    truth: np.ndarray  # (events, 1+n) rows of (time, position)
    tol: float
    arrivals: np.ndarray  # (events, sensors) true reception times


class MatchDense:
    """One ``match_events`` call on a dense random scene.

    Scenes are drawn i.i.d. (5 sensors uniform in [-1, 1]^3 until
    ``condition_ok``, 60 events at uniform times over 20 time units and
    uniform positions in the same cube).  Their cost varies tenfold from
    scene to scene, so the pool is a stratified sample: ``oversample``
    times as many scenes are drawn, sorted by walk size, and one scene is
    taken at random from each consecutive group.  Every pooled scene is
    still distributed as a plain draw, but a run sees each cost stratum
    once instead of by chance.
    """

    def __init__(self, el, seed: int, size: dict) -> None:
        self.el = el
        rng = _rng(seed, 1)
        k, m, events, span = size["oversample"], size["sensors"], size["events"], size["span"]
        drawn = []
        for _ in range(size["strata"] * k):
            sensors = _draw_sensors(el, rng, m, m - 2)
            times = rng.uniform(0.0, span, events)
            points = rng.uniform(-1.0, 1.0, (events, m - 2))
            arrivals = _arrivals(sensors.positions, times, points)
            table = el.ReceptionTable.from_lists(arrivals.T)
            work = _walk_size(table.times, sensors.pairwise_distances())
            truth = np.column_stack([times, points])
            scale = sensors.diameter() + float(np.abs(arrivals).max())
            drawn.append(Scene(work, sensors, table, truth, REL_TOL * scale, arrivals))
        drawn.sort(key=lambda scene: scene.work)
        strata = [drawn[j * k + int(rng.integers(k))] for j in range(size["strata"])]
        self.scenes = [strata[s] for s in _spread_order(len(strata))]
        budget = max(scene.table.product_size() for scene in self.scenes)
        self.config = el.MatchConfig(budget=budget)

    def op(self, i: int):
        scene = self.scenes[i % len(self.scenes)]
        return self.el.match_events(scene.sensors, scene.table, self.config)

    def check(self, i: int, report) -> Outcome:
        scene = self.scenes[i % len(self.scenes)]
        found = np.array([[ev.event_time, *ev.position] for ev in report.events])
        out = _match_errors(scene.truth, found.reshape(-1, scene.truth.shape[1]), scene.tol)
        _count_skipped(out, report.skipped, scene.arrivals, scene.tol)
        return out


class SolveBatch:
    """One ``echolat.solve`` call on an independent single-event problem.

    Problems cycle through four kinds: R^2 and R^3, each with n+2 sensors
    (full-rank path) and with n+1 sensors (quadratic path), so every run has
    the same mix.  Sensors are uniform in [-1, 1]^n, redrawn until they
    span the space and, for n+2 sensors, meet ``condition_ok``; events are
    uniform in the cube, emitted at a uniform time in [0, 2].
    """

    def __init__(self, el, seed: int, size: dict) -> None:
        self.el = el
        rng = _rng(seed, 2)
        self.problems = []
        for k in range(size["problems"]):
            n = 2 + k % 2
            m = n + 2 - (k // 2) % 2
            sensors = _draw_sensors(el, rng, m, n)
            t = rng.uniform(0.0, 2.0, 1)
            x = rng.uniform(-1.0, 1.0, (1, n))
            times = _arrivals(sensors.positions, t, x)[0]
            scale = sensors.diameter() + float(np.abs(times).max())
            self.problems.append((sensors, times, np.concatenate([t, x[0]]), REL_TOL * scale))

    def op(self, i: int):
        sensors, times, _, _ = self.problems[i % len(self.problems)]
        return self.el.solve(sensors, times)

    def check(self, i: int, result) -> Outcome:
        _, _, truth, tol = self.problems[i % len(self.problems)]
        found = np.array([[c.event.time, *c.event.position] for c in result.candidates if not c.spurious])
        return _match_errors(truth[None, :], found.reshape(-1, truth.size), tol)


class RoomGoodness:
    """One in-process ``echolat goodness`` run on the shoebox scenario.

    Each operation passes its own ``--seed``, so the perturbed layouts
    differ from call to call.  The CLI's printed ghost and missed wall
    counts are the per-operation check; ``verify`` adds the wall errors.
    """

    def __init__(self, el, seed: int, size: dict) -> None:
        self.el, self.cli, self.path = el, importlib.import_module("echolat.cli"), str(SCENARIO)
        self.scenario = el.load_scenario(SCENARIO)
        self.trials = size["trials"]
        self.seeds = _rng(seed, 3).integers(0, 2**31 - 1, size=4096)

    def op(self, i: int):
        argv = ["goodness", self.path, "--seed", str(self.seeds[i % len(self.seeds)]),
                "--trials", str(self.trials)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, i: int, output) -> Outcome:
        code, text, err = output
        if code != 0:
            return Outcome(failed=True, note=f"exit {code}: {err.strip()}")
        fields = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
        try:
            ghosts, missed = int(fields["ghost-walls"]), int(fields["missed-walls"])
            margin = float(fields["mixed-residual-margin"])
        except (KeyError, ValueError):
            return Outcome(failed=True, note="unexpected goodness report")
        if not math.isfinite(margin):
            return Outcome(failed=True, note="non-finite margin")
        return Outcome(misses=missed, ghosts=ghosts)

    def verify(self, i: int) -> Outcome:
        """Rerun operation ``i`` and measure each recovered wall's error.

        A wall's error is its largest distance from the true plane within
        a ball of the room's size: |offset change| + radius * |normal change|.
        """
        acoustics = self.el.acoustics
        detections = []
        detect = acoustics.detect_walls

        def recording(*args, **kwargs):
            result = detect(*args, **kwargs)
            detections.append((args, result))
            return result

        with patched([(acoustics, "detect_walls", recording)]):
            out = self.check(i, self.op(i))
        room = self.scenario.room
        radius = max(abs(w.offset) for w in room.walls) + float(np.abs(room.loudspeaker).max())
        tol = REL_TOL * (1.0 + radius)
        sources = np.vstack([room.mirror_points(), room.loudspeaker])
        for (sensors, *_), detection in detections:
            arrivals = _arrivals(sensors.positions, np.zeros(len(sources)), sources)
            _count_skipped(out, detection.match.skipped, arrivals, tol)
            for true in room.walls:
                errs = [
                    min(abs(w.offset - s * true.offset) + radius * float(np.abs(w.normal - s * true.normal).max())
                        for s in (1.0, -1.0))
                    for w in detection.walls
                ]
                best = min(errs, default=math.inf)
                if best <= tol:
                    out.max_err = max(out.max_err, best)
        return out


WORKLOADS = {"match_dense": MatchDense, "solve_batch": SolveBatch, "room_goodness": RoomGoodness}


def build(name: str, el, seed: int, size: str = "full"):
    return WORKLOADS[name](el, seed, SIZES[size][name])
