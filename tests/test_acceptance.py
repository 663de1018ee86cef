"""Acceptance suite: one test per advertised guarantee.

Each test prints a single ``[acceptance] criterion NN PASS/FAIL`` line
(visible with ``pytest -s``) and enforces the stated tolerances.  The
stochastic criteria use fixed seeds; the generators are documented inline.
"""

from __future__ import annotations

import functools
import math
import time
from fractions import Fraction as F

import numpy as np

import echolat as el

_RESULTS: list[str] = []


def criterion(num: int, desc: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"[acceptance] criterion {num:02d} FAIL: {desc}")
                raise
            print(f"[acceptance] criterion {num:02d} PASS: {desc}")

        return wrapper

    return decorate


def _rel_err(got: float, want: float) -> float:
    if want == 0.0:
        return abs(got)
    return abs(got - want) / abs(want)


# ---------------------------------------------------------------- criterion 1

GOLDEN_3D_SENSORS = [
    [3.0, 4.0, 0.0],
    [-2.0, -2.0, 1.0],
    [-1.0, 0.0, 0.0],
    [0.0, float(F(-16, 7)), float(F(2, 3))],
    [0.0, float(F(76, 21)), 0.0],
]
GOLDEN_3D_TIMES = [5.0, 3.0, 1.0, float(F(50, 21)), float(F(76, 21))]


@criterion(1, "golden 3d reception tuple: quadratic path, both events to 1e-9, < 1 ms")
def test_criterion_01():
    sensors = el.SensorArray(GOLDEN_3D_SENSORS)
    times = np.array(GOLDEN_3D_TIMES)
    result = el.solve(sensors, times)
    assert result.path is el.SolvePath.QUADRATIC
    assert result.rank == 4
    assert len(result.candidates) == 2
    assert not any(c.spurious for c in result.candidates)

    t_alt = float(F(-8360, 38173))
    x_alt = [float(F(-152, 38173) * k) for k in (21, 34, 199)]
    alt, origin = result.candidates
    assert abs(origin.event.time) <= 1e-9
    assert np.abs(origin.event.position).max() <= 1e-9
    assert _rel_err(alt.event.time, t_alt) <= 1e-9
    for got, want in zip(alt.event.position, x_alt):
        assert _rel_err(float(got), want) <= 1e-9

    best = math.inf
    for _ in range(50):
        tic = time.perf_counter()
        el.solve(sensors, times)
        best = min(best, time.perf_counter() - tic)
    assert best < 1e-3, f"solve took {best * 1e3:.3f} ms"


# ---------------------------------------------------------------- criterion 2


@criterion(2, "golden 2d tuple: second candidate (7/5, (77/5, 0)), both viable")
def test_criterion_02():
    sensors = el.SensorArray([[9.0, 12.0], [9.0, -12.0], [10.0, -24.0], [10.0, 24.0]])
    result = el.solve(sensors, [15.0, 15.0, 26.0, 26.0])
    assert len(result.candidates) == 2
    assert not any(c.spurious for c in result.candidates)
    origin, alt = result.candidates
    assert abs(origin.event.time) <= 1e-9
    assert _rel_err(alt.event.time, 7.0 / 5.0) <= 1e-9
    assert _rel_err(float(alt.event.position[0]), 77.0 / 5.0) <= 1e-9
    assert abs(float(alt.event.position[1])) <= 1e-9


# ---------------------------------------------------------------- criterion 3


@criterion(3, "non-causal root flagged: (28/3, (-4/3, 0)) spurious, origin viable")
def test_criterion_03():
    sensors = el.SensorArray([[4.0, 0.0], [-3.0, 4.0], [-3.0, -4.0]])
    result = el.solve(sensors, [4.0, 5.0, 5.0])
    assert len(result.candidates) == 2
    origin, alt = result.candidates
    assert not origin.spurious
    assert abs(origin.event.time) <= 1e-9
    assert np.abs(origin.event.position).max() <= 1e-9
    assert alt.spurious
    assert _rel_err(alt.event.time, 28.0 / 3.0) <= 1e-9
    assert _rel_err(float(alt.event.position[0]), -4.0 / 3.0) <= 1e-9


# ---------------------------------------------------------------- criterion 4


@criterion(4, "vanishing t^2 coefficient: linear fallback, far root after perturbation")
def test_criterion_04():
    sensors = el.SensorArray([[1.0, 0.0], [-1.0, 0.0], [3.0, 4.0]])
    result = el.solve(sensors, [1.0, 1.0, 5.0])
    assert abs(result.quadratic[0]) <= 1e-9
    assert len(result.candidates) == 1
    only = result.candidates[0]
    assert abs(only.event.time) <= 1e-9
    assert np.abs(only.event.position).max() <= 1e-9

    # moving the third sensor slightly off the degenerate locus brings the
    # second root back from infinity, far outside the array
    moved = el.SensorArray([[1.0, 0.0], [-1.0, 0.0], [3.0, 3.99]])
    times = [1.0, 1.0, float(np.hypot(3.0, 3.99))]
    far = el.solve(moved, times).candidates[0]
    assert -1992.0 <= far.event.time <= -1990.0
    assert -1993.0 <= float(far.event.position[1]) <= -1991.0


# ---------------------------------------------------------------- criterion 5


@criterion(5, "single-event relation residual <= 1e-8 over 10^4 scenes in < 10 s")
def test_criterion_05():
    tic = time.perf_counter()
    worst = 0.0
    for case in range(10_000):
        rng = np.random.default_rng(500 + case)
        n = 3 if case % 2 == 0 else 2
        sensors = el.SensorArray(rng.uniform(-1.0, 1.0, (n + 2, n)))
        event = el.EmissionEvent(float(rng.uniform(-1.0, 1.0)), rng.uniform(-2.0, 2.0, n))
        times = el.event_arrivals(sensors, event)
        residual = el.relation_residual(el.relation_matrix(sensors, times))
        worst = max(worst, residual)
    elapsed = time.perf_counter() - tic
    assert worst <= 1e-8, f"worst residual {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f} s"


# ---------------------------------------------------------------- criterion 6


@criterion(6, "bordered-matrix rank r+2 for 50 point sets per affine dimension r in 1..3")
def test_criterion_06():
    rng = np.random.default_rng(600)
    form = el.QuadraticForm.euclidean(3)
    for r in (1, 2, 3):
        for _ in range(50):
            base = rng.uniform(-2.0, 2.0, 3)
            frame = np.linalg.qr(rng.standard_normal((3, 3)))[0][:r]
            count = r + 2 + int(rng.integers(0, 4))
            coeffs = rng.uniform(-2.0, 2.0, (count, r))
            points = base + coeffs @ frame
            if np.linalg.matrix_rank(coeffs - coeffs[0]) < r:
                continue  # astronomically unlikely; keep the rank-r promise
            mat = el.cayley_menger_matrix(points, form)
            assert el.numeric_rank(mat, rel_tol=1e-8) == r + 2


# ---------------------------------------------------------------- criterion 7


def _async_scene(rng):
    sensors = el.SensorArray(rng.uniform(-1.0, 1.0, (5, 3)))
    k = int(rng.integers(2, 5))
    events = [
        el.EmissionEvent(float(t), rng.uniform(-1.5, 1.5, 3))
        for t in np.sort(rng.uniform(0.0, 30.0, k))
    ]
    lists: list[list[float]] = [[] for _ in range(5)]
    for ev in events:
        for i, t in enumerate(el.event_arrivals(sensors, ev)):
            lists[i].append(float(t))
    return sensors, events, lists


@criterion(7, "matching: 200 scenes of 2-4 asynchronous events, all recovered, ghosts < 1%")
def test_criterion_07():
    rng = np.random.default_rng(31415)
    ghost_scenes = 0
    for _ in range(200):
        sensors, events, lists = _async_scene(rng)
        report = el.match_events(sensors, el.ReceptionTable.from_lists(lists))
        for truth in events:
            err = min(
                max(abs(d.event_time - truth.time), float(np.abs(d.position - truth.position).max()))
                for d in report.events
            )
            assert err <= 1e-7, f"event missed by {err:.3e}"
        ghost = any(
            all(
                max(abs(d.event_time - t.time), float(np.abs(d.position - t.position).max())) > 1e-6
                for t in events
            )
            for d in report.events
        )
        ghost_scenes += bool(ghost)
    assert ghost_scenes / 200 < 0.01, f"{ghost_scenes} ghost scenes"


# ---------------------------------------------------------------- criterion 8


@criterion(8, "3 spurious timestamps on one sensor change no event in >= 99% of 200 scenes")
def test_criterion_08():
    rng = np.random.default_rng(8265)
    changed = 0
    for _ in range(200):
        sensors, _, lists = _async_scene(rng)
        base = el.match_events(sensors, el.ReceptionTable.from_lists(lists))
        noisy_lists = [list(entry) for entry in lists]
        noisy_lists[2] += list(rng.uniform(0.0, 12.0, 3))
        noisy = el.match_events(sensors, el.ReceptionTable.from_lists(noisy_lists))
        same = len(base.events) == len(noisy.events) and all(
            abs(a.event_time - b.event_time) <= 1e-9
            and float(np.abs(a.position - b.position).max()) <= 1e-9
            for a, b in zip(base.events, noisy.events)
        )
        changed += not same
    assert changed / 200 <= 0.01, f"{changed} scenes changed"


# ---------------------------------------------------------------- criterion 9


def _random_room(rng):
    """1-8 generic walls 1-4 units from the speaker, mirrors >= 0.05 apart."""
    while True:
        speaker = rng.uniform(-0.5, 0.5, 3)
        n_walls = int(rng.integers(1, 9))
        walls = []
        for _ in range(n_walls):
            vec = rng.standard_normal(3)
            vec /= np.linalg.norm(vec)
            offset = float(vec @ speaker) + rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 4.0)
            walls.append(el.Wall(vec, offset))
        try:
            room = el.Room(tuple(walls), speaker)
        except el.EcholatError:
            continue
        mirrors = room.mirror_points()
        if mirrors.shape[0] >= 2:
            diff = mirrors[:, None, :] - mirrors[None, :, :]
            dist = np.sqrt((diff * diff).sum(axis=2))
            iu = np.triu_indices(mirrors.shape[0], k=1)
            if dist[iu].min() < 0.05:
                continue
        return room


@criterion(9, "wall detection: 100 random rooms, every wall found, zero ghosts, < 60 s")
def test_criterion_09():
    # The echoes here are exact, so the sweep runs with a 1e-12 residual
    # threshold: true tuples stay below 5e-16 while tuples mixing two walls
    # stay above 7e-11 for arrays this size (spread ~3 vs mirrors 1-4 away).
    # Below 1e-6 the threshold leaves tau at 1e-8 (diameter + span).
    tic = time.perf_counter()
    rng = np.random.default_rng(2024)
    config = el.MatchConfig(residual_threshold=1e-12)
    for _ in range(100):
        room = _random_room(rng)
        sensors = el.SensorArray(rng.uniform(-1.5, 1.5, (5, 3)))
        table = el.simulate_echoes(room, sensors, include_direct=True)
        detection = el.detect_walls(sensors, table, room.loudspeaker, config)
        cloud = np.vstack([room.mirror_points(), room.loudspeaker[None, :], sensors.positions])
        gaps = cloud[:, None, :] - cloud[None, :, :]
        diameter = float(np.sqrt((gaps * gaps).sum(axis=2)).max())
        for wall in detection.walls:
            assert any(
                el.same_plane(wall, true, 1e-6, 1e-6 * diameter) for true in room.walls
            ), "ghost wall"
        for true in room.walls:
            assert any(
                el.same_plane(wall, true, 1e-6, 1e-6 * diameter) for wall in detection.walls
            ), "missed wall"
    elapsed = time.perf_counter() - tic
    assert elapsed < 60.0, f"took {elapsed:.1f} s"


# --------------------------------------------------------------- criterion 10


@criterion(10, "sign-pattern condition: false on the golden array, true on 100 random ones")
def test_criterion_10():
    report = el.check_geometry(el.SensorArray(GOLDEN_3D_SENSORS))
    assert report.condition_ok is False
    assert (1, 1, 1, 1, 1) in report.failing_sign_patterns

    rng = np.random.default_rng(1010)
    for _ in range(100):
        sensors = el.SensorArray(rng.uniform(-1.0, 1.0, (5, 3)))
        assert el.check_geometry(sensors).condition_ok is True


# --------------------------------------------------------------- criterion 11


@criterion(11, "property sweep: equivariance, mirror/wall identities, root residuals, "
              "no all-degenerate quadratic over 10^4 spanning scenes")
def test_criterion_11():
    rng = np.random.default_rng(1100)

    # translation / rotation / time-shift equivariance of solve
    for _ in range(20):
        n = int(rng.integers(2, 4))
        sensors = el.SensorArray(rng.uniform(-1.0, 1.0, (n + 2, n)))
        event = el.EmissionEvent(float(rng.uniform(-1.0, 1.0)), rng.uniform(-2.0, 2.0, n))
        times = el.event_arrivals(sensors, event)
        base = el.solve(sensors, times)

        shift = rng.uniform(-5.0, 5.0, n)
        moved = el.solve(el.SensorArray(sensors.positions + shift), times)
        rot = np.linalg.qr(rng.standard_normal((n, n)))[0]
        if np.linalg.det(rot) < 0.0:
            rot[0] = -rot[0]
        rotated = el.solve(el.SensorArray(sensors.positions @ rot.T), times)
        delayed = el.solve(sensors, times + 2.5)

        assert len(base.candidates) >= 1
        for c0, c1, c2, c3 in zip(
            base.candidates, moved.candidates, rotated.candidates, delayed.candidates
        ):
            assert abs(c1.event.time - c0.event.time) <= 1e-8
            assert np.abs(c1.event.position - (c0.event.position + shift)).max() <= 1e-7
            assert abs(c2.event.time - c0.event.time) <= 1e-8
            assert np.abs(c2.event.position - rot @ c0.event.position).max() <= 1e-7
            assert abs(c3.event.time - (c0.event.time + 2.5)) <= 1e-8
            assert np.abs(c3.event.position - c0.event.position).max() <= 1e-7

    # mirror involution and wall round-trip identity
    for _ in range(100):
        wall = el.Wall(rng.standard_normal(3), float(rng.uniform(-3.0, 3.0)))
        point = rng.uniform(-2.0, 2.0, 3)
        mirrored = el.mirror_point(wall, point)
        assert np.abs(el.mirror_point(wall, mirrored) - point).max() <= 1e-9
        if abs(wall.signed_distance(point)) > 1e-3:
            recovered = el.wall_from_mirror(point, mirrored)
            assert el.same_plane(wall, recovered, 1e-9, 1e-9)

    # quadratic roots satisfy their polynomial to near machine precision
    for _ in range(500):
        a, b, c = rng.uniform(-10.0, 10.0, 3)
        for root in el.solve_quadratic(a, b, c).roots:
            scale = max(abs(a * root * root), abs(b * root), abs(c), 1.0)
            assert abs(a * root * root + b * root + c) <= 1e-10 * scale

    # the all-coefficients-zero branch never fires for spanning sensors
    degenerate = 0
    for case in range(10_000):
        n = 2 if case % 2 == 0 else 3
        sensors = el.SensorArray(rng.uniform(-1.0, 1.0, (n + 1, n)))
        if not sensors.spans_space():
            continue
        event = el.EmissionEvent(float(rng.uniform(-1.0, 1.0)), rng.uniform(-2.0, 2.0, n))
        try:
            el.solve(sensors, el.event_arrivals(sensors, event))
        except el.DegenerateSystem:
            degenerate += 1
        except el.NumericError:
            pass
    assert degenerate == 0
