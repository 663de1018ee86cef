"""Tests for echo simulation and wall reconstruction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import echolat as el
from echolat import acoustics, matching
from oracles import survivor_blocks


def shoebox():
    walls = (
        el.Wall([1, 0, 0], 0.0),
        el.Wall([1, 0, 0], 4.0),
        el.Wall([0, 1, 0], 0.0),
        el.Wall([0, 1, 0], 3.0),
        el.Wall([0, 0, 1], 0.0),
        el.Wall([0, 0, 1], 2.5),
    )
    room = el.Room(walls, [1.2, 0.8, 1.1])
    sensors = el.SensorArray(
        [
            [2.65, 2.46, 1.89],
            [1.97, 1.49, 1.86],
            [0.61, 2.35, 1.81],
            [3.59, 1.65, 1.01],
            [2.47, 2.24, 0.34],
        ]
    )
    return room, sensors


def test_wall_normalisation_and_orientation():
    wall = el.Wall([3.0, 4.0], 25.0)
    assert np.allclose(wall.normal, [0.6, 0.8])
    assert wall.offset == pytest.approx(5.0)
    flipped = el.Wall([-1.0, 0.0, 0.0], -4.0)
    assert np.array_equal(flipped.normal, [1.0, 0.0, 0.0])
    assert flipped.offset == 4.0
    assert not np.signbit(flipped.normal).any()
    assert not np.signbit(flipped.offset)
    down = el.Wall([0.0, -2.0, 0.0], 6.0)
    assert np.array_equal(down.normal, [0.0, 1.0, 0.0])
    assert down.offset == -3.0


def test_wall_validation():
    with pytest.raises(el.ValidationError):
        el.Wall([0.0, 0.0], 1.0)
    with pytest.raises(el.ValidationError):
        el.Wall([1.0], 1.0)
    with pytest.raises(el.ValidationError):
        el.Wall([1.0, np.nan], 1.0)
    with pytest.raises(el.ValidationError):
        el.Wall([1.0, 0.0], np.inf)


def test_signed_distance():
    wall = el.Wall([1.0, 0.0, 0.0], 4.0)
    assert wall.signed_distance([7.0, 1.0, 2.0]) == 3.0
    assert wall.signed_distance([1.0, 5.0, -2.0]) == -3.0
    with pytest.raises(el.DimensionMismatch):
        wall.signed_distance([1.0, 2.0])


def test_mirror_point_examples():
    wall = el.Wall([1.0, 0.0, 0.0], 4.0)
    assert np.allclose(el.mirror_point(wall, [1.0, 2.0, 3.0]), [7.0, 2.0, 3.0])
    tilted = el.Wall([1.0, 1.0], 0.0)
    assert np.allclose(el.mirror_point(tilted, [2.0, 0.0]), [0.0, -2.0])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=3, max_size=3),
    st.lists(st.floats(-10, 10), min_size=3, max_size=3),
    st.floats(-5, 5),
)
def test_mirror_is_an_involution(raw_normal, point, offset):
    vec = np.asarray(raw_normal)
    if np.linalg.norm(vec) < 1e-3:
        return
    wall = el.Wall(vec, offset)
    once = el.mirror_point(wall, point)
    twice = el.mirror_point(wall, once)
    assert np.abs(twice - np.asarray(point)).max() < 1e-9
    assert wall.signed_distance(once) == pytest.approx(-wall.signed_distance(point), abs=1e-9)


def test_wall_from_mirror_round_trip():
    rng = np.random.default_rng(61)
    for _ in range(25):
        wall = el.Wall(rng.standard_normal(3), rng.uniform(-3, 3))
        src = rng.uniform(-2, 2, 3)
        if abs(wall.signed_distance(src)) < 1e-3:
            continue
        recovered = el.wall_from_mirror(src, el.mirror_point(wall, src))
        assert el.same_plane(wall, recovered, 1e-9, 1e-9)


def test_wall_from_mirror_degenerate():
    with pytest.raises(el.DegenerateMirror):
        el.wall_from_mirror([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(el.DegenerateMirror):
        el.wall_from_mirror([1.0, 2.0], [1.0, 2.0 + 1e-10])
    with pytest.raises(el.DimensionMismatch):
        el.wall_from_mirror([1.0, 2.0], [1.0, 2.0, 3.0])


def test_same_plane_compares_up_to_sign():
    # near the orientation threshold two walls of one plane can canonicalise
    # with opposite signs; the comparison must still see them as equal
    a = el.Wall([1.2e-9, -1.0], 5.0)
    b = el.Wall([0.8e-9, -1.0], 5.0)
    assert a.normal[1] == -1.0  # leading component kept its sign
    assert b.normal[1] == 1.0  # flipped: leading component was below threshold
    assert el.same_plane(a, b, 1e-8, 1e-8)
    assert not el.same_plane(a, el.Wall([0.0, 1.0], 4.0), 1e-8, 1e-8)


def test_room_validation():
    wall = el.Wall([0.0, 0.0, 1.0], 1.0)
    with pytest.raises(el.ValidationError):
        el.Room((wall,), [0.5, 0.5, 1.0])  # speaker on the wall
    with pytest.raises(el.DimensionMismatch):
        el.Room((el.Wall([1.0, 0.0], 1.0),), [0.5, 0.5, 0.5])
    room = el.Room((wall,), [0.5, 0.5, 0.25])
    assert room.dim == 3
    assert np.allclose(room.mirror_points(), [[0.5, 0.5, 1.75]])
    empty = el.Room((), [0.1, 0.2])
    assert empty.mirror_points().shape == (0, 2)


def test_simulate_rejects_coinciding_mirror_points():
    wall = el.Wall([0.0, 0.0, 1.0], 0.0)
    room = el.Room((wall, el.Wall([0.0, 0.0, 2.0], 0.0)), [0.0, 0.0, 1.0])
    sensors = el.SensorArray([[0.0, 0.0, 2.0], [1.0, 0.0, 1.0]])
    with pytest.raises(el.ValidationError):
        el.simulate_echoes(room, sensors)
    assert el.simulate_echoes(el.Room((wall,), [0.0, 0.0, 1.0]), sensors).sizes() == (1, 1)


def test_simulate_single_wall_reception_times():
    room = el.Room((el.Wall([0.0, 0.0, 1.0], 0.0),), [0.0, 0.0, 1.0])
    sensors = el.SensorArray([[0.0, 0.0, 2.0], [1.0, 0.0, 1.0]])
    table = el.simulate_echoes(room, sensors, include_direct=True)
    # sensor 0: direct |2-1| = 1, echo to mirror (0,0,-1) is 3
    assert np.allclose(table.times[0], [1.0, 3.0])
    # sensor 1: direct 1, echo sqrt(1 + 4)
    assert np.allclose(table.times[1], [1.0, np.sqrt(5.0)])
    shifted = el.simulate_echoes(room, sensors, emission_time=10.0, include_direct=True)
    assert np.allclose(shifted.times[0], [11.0, 13.0])


def test_simulate_dropout_and_spurious():
    room, sensors = shoebox()
    table = el.simulate_echoes(room, sensors, include_direct=True)
    assert table.sizes() == (7,) * 5
    dropped = el.simulate_echoes(
        room, sensors, include_direct=True, dropout=[(0, 0), (1, 0), (2, 3)]
    )
    assert dropped.sizes() == (5, 7, 7, 6, 7)
    extra = el.simulate_echoes(room, sensors, spurious=[(2, 99.0), (2, 98.0)])
    assert extra.sizes() == (6, 6, 8, 6, 6)
    assert extra.times[2][-1] == 99.0
    with pytest.raises(el.ValidationError):
        el.simulate_echoes(room, sensors, dropout=[(9, 0)])
    with pytest.raises(el.ValidationError):
        el.simulate_echoes(room, sensors, spurious=[(7, 1.0)])
    with pytest.raises(el.DimensionMismatch):
        el.simulate_echoes(room, el.SensorArray([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(el.ValidationError):  # wall 6 would be the direct sound
        el.simulate_echoes(room, sensors, include_direct=True, dropout=[(6, 0)])


def test_simulate_rejects_fractional_indices():
    room, sensors = shoebox()
    for entries in ([(0.5, 0)], [(0, 1.5)], [(np.float64(1.0), 0)]):
        with pytest.raises(el.ValidationError):
            el.simulate_echoes(room, sensors, dropout=entries)
    with pytest.raises(el.ValidationError):
        el.simulate_echoes(room, sensors, spurious=[(1.7, 3.0)])
    table = el.simulate_echoes(
        room, sensors, dropout=[(np.int64(0), np.int32(0))], spurious=[(np.int64(1), 3.0)]
    )
    assert table.sizes() == (5, 7, 6, 6, 6)


def test_detect_walls_shoebox():
    room, sensors = shoebox()
    table = el.simulate_echoes(room, sensors, include_direct=True)
    detection = el.detect_walls(sensors, table, room.loudspeaker)
    assert len(detection.walls) == 6
    for true in room.walls:
        assert any(el.same_plane(w, true, 1e-9, 1e-9) for w in detection.walls)
    assert len(detection.direct_events) == 1
    direct = detection.direct_events[0]
    assert direct.event_time == pytest.approx(0.0, abs=1e-9)
    assert np.abs(direct.position - room.loudspeaker).max() < 1e-9
    assert len(detection.mirror_events) == 6
    assert detection.match.accepted_tuples == 7


def test_detect_walls_dropout_loses_exactly_that_wall():
    room, sensors = shoebox()
    table = el.simulate_echoes(
        room, sensors, include_direct=True, dropout=[(0, i) for i in range(5)]
    )
    detection = el.detect_walls(sensors, table, room.loudspeaker)
    assert len(detection.walls) == 5
    assert not any(el.same_plane(w, room.walls[0], 1e-9, 1e-9) for w in detection.walls)
    for true in room.walls[1:]:
        assert any(el.same_plane(w, true, 1e-9, 1e-9) for w in detection.walls)


def test_detect_walls_emission_time_invariance():
    room, sensors = shoebox()
    base = el.detect_walls(
        sensors, el.simulate_echoes(room, sensors, include_direct=True), room.loudspeaker
    )
    late = el.detect_walls(
        sensors,
        el.simulate_echoes(room, sensors, emission_time=5.0, include_direct=True),
        room.loudspeaker,
    )
    assert len(late.walls) == len(base.walls) == 6
    for a in base.walls:
        assert any(el.same_plane(a, b, 1e-9, 1e-9) for b in late.walls)
    assert late.direct_events[0].event_time == pytest.approx(5.0, abs=1e-9)


def test_detect_walls_without_direct_sound():
    room, sensors = shoebox()
    table = el.simulate_echoes(room, sensors, include_direct=False)
    detection = el.detect_walls(sensors, table, room.loudspeaker)
    assert len(detection.walls) == 6
    assert detection.direct_events == ()


def test_detect_walls_source_dimension_check():
    room, sensors = shoebox()
    table = el.simulate_echoes(room, sensors)
    with pytest.raises(el.DimensionMismatch):
        el.detect_walls(sensors, table, [1.0, 2.0])


def test_detect_walls_2d_room():
    walls = (el.Wall([1, 0], 0.0), el.Wall([0, 1], 0.0), el.Wall([1, 0], 3.0))
    room = el.Room(walls, [1.0, 1.2])
    sensors = el.SensorArray([[0.4, 2.1], [2.3, 0.7], [1.7, 2.6], [2.8, 1.9]])
    table = el.simulate_echoes(room, sensors, include_direct=True)
    detection = el.detect_walls(sensors, table, room.loudspeaker)
    assert len(detection.walls) == 3
    for true in walls:
        assert any(el.same_plane(w, true, 1e-9, 1e-9) for w in detection.walls)
    assert len(detection.direct_events) == 1


def test_goodness_healthy_layout():
    room, sensors = shoebox()
    report = el.goodness_check(room, sensors, trials=3, include_direct=True)
    assert report.trials == 3
    assert report.ghost_walls == 0
    assert report.missed_walls == 0
    assert report.mixed_residual_margin > 1e-6  # above the acceptance cutoff


def test_goodness_flags_flat_layout():
    # sensors squashed onto a plane cannot resolve the room: walls go
    # missing and the mixed-tuple margin collapses below the threshold
    room = el.Room(
        (
            el.Wall([1, 0, 0], 0.0),
            el.Wall([0, 1, 0], 0.0),
            el.Wall([0, 0, 1], 0.0),
            el.Wall([0, 0, 1], 2.5),
        ),
        [1.2, 0.8, 1.1],
    )
    rng = np.random.default_rng(8)
    base = rng.uniform(0.3, 2.2, (5, 2))
    flat = np.column_stack([base, 1.0 + 1e-8 * rng.standard_normal(5)])
    report = el.goodness_check(room, el.SensorArray(flat), trials=2)
    assert report.missed_walls > 0
    assert report.mixed_residual_margin < 1e-6


def test_goodness_margin_undefined_for_single_source():
    room = el.Room((el.Wall([0, 0, 1], 0.0),), [0.4, 0.3, 1.0])
    sensors = el.SensorArray(
        [[0.1, 0.2, 0.5], [1.1, 0.4, 0.9], [0.3, 1.2, 0.7], [0.9, 1.0, 1.3], [0.5, 0.6, 1.6]]
    )
    report = el.goodness_check(room, sensors, trials=1)
    assert report.mixed_residual_margin is None
    assert report.ghost_walls == 0 and report.missed_walls == 0


def test_goodness_validation():
    room, sensors = shoebox()
    with pytest.raises(el.ValidationError):
        el.goodness_check(room, sensors, trials=-1)
    with pytest.raises(el.DimensionMismatch):
        el.goodness_check(room, el.SensorArray([[0.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("include_direct", [False, True])
@pytest.mark.parametrize("chunk_rows", [1, 11, None])
def test_mixed_margin_is_the_reference_walks_mixed_minimum(monkeypatch, include_direct, chunk_rows):
    room, sensors = shoebox()
    table = el.simulate_echoes(room, sensors, include_direct=include_direct)
    emitters = acoustics._emitters(room, 0.0, include_direct)
    genuine = {tuple(el.event_arrivals(sensors, ev).tolist()) for ev in emitters}
    dist = sensors.pairwise_distances()
    slack = matching._default_slack(sensors, table)
    rows = [
        tuple(prefix.tolist()) + (value,)
        for prefix, lo, hi in survivor_blocks(table.times, dist, slack, {"pruned": 0})
        for value in table.times[-1][lo:hi].tolist()
    ]
    mixed = np.array([row for row in rows if row not in genuine])
    assert len(genuine) == len(emitters) and 0 < len(mixed) < len(rows)
    want = float(el.batched_relation_residuals(mixed, dist * dist).min())
    if chunk_rows is not None:
        monkeypatch.setattr(matching, "_CHUNK_ROWS", chunk_rows)
    assert acoustics._mixed_margin(sensors, table, emitters) == want


def test_mixed_margin_above_threshold_means_no_mixed_event():
    room, base = shoebox()
    emitters = acoustics._emitters(room, 0.0, True)
    rng = np.random.default_rng(11)
    amplitude = 0.05 * base.diameter()
    layouts = [base] + [
        el.SensorArray(base.positions + rng.uniform(-amplitude, amplitude, base.positions.shape))
        for _ in range(40)
    ]
    threshold = el.MatchConfig().residual_threshold
    above = 0
    for sensors in layouts:
        table = el.simulate_echoes(room, sensors, include_direct=True)
        margin = acoustics._mixed_margin(sensors, table, emitters)
        if margin is None or margin <= threshold:
            continue
        above += 1
        genuine = {tuple(el.event_arrivals(sensors, ev).tolist()) for ev in emitters}
        for event in el.match_events(sensors, table).events:
            assert event.source_times in genuine
    assert above >= len(layouts) // 2


def test_goodness_inherits_the_matchers_budget():
    room, sensors = shoebox()
    product = el.simulate_echoes(room, sensors).product_size()
    with pytest.raises(el.BudgetExceeded):
        el.goodness_check(room, sensors, trials=0, config=el.MatchConfig(budget=product - 1))
    report = el.goodness_check(room, sensors, trials=0, config=el.MatchConfig(budget=product))
    assert report.mixed_residual_margin is not None
