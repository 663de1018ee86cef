"""Tests for scenario-file parsing."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

import echolat as el

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def minimal(**extra):
    doc = {
        "dimension": 2,
        "sensors": [[4, 0], [-3, 4], [-3, -4]],
    }
    doc.update(extra)
    return doc


def test_minimal_scenario():
    sc = el.parse_scenario(minimal())
    assert sc.dimension == 2
    assert sc.speed == 1.0
    assert sc.sensors.count == 3
    assert sc.events is None and sc.reception_table is None and sc.room is None
    assert sc.emission_time == 0.0
    assert sc.include_direct is False
    assert sc.spurious == ()
    assert sc.rng_seed == 0
    assert sc.name == "<memory>"  # falls back to the source stem


def test_fraction_strings():
    sc = el.parse_scenario(
        minimal(
            sensors=[["-16/7", "2/3"], [1, 0], [0, "76/21"]],
            reception_table=[["50/21"], [1], [2]],
        )
    )
    assert sc.sensors.positions[0, 0] == pytest.approx(-16.0 / 7.0, rel=1e-15)
    assert sc.sensors.positions[0, 1] == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert sc.reception_table.times[0][0] == pytest.approx(50.0 / 21.0, rel=1e-15)
    with pytest.raises(el.ParseError):
        el.parse_scenario(minimal(speed="1/0"))
    with pytest.raises(el.ParseError):
        el.parse_scenario(minimal(speed="fast"))


@pytest.mark.parametrize(
    "value",
    [10**400, -(10**400), "1e400", "-1e400", math.inf, -math.inf, math.nan],
    ids=["int", "-int", "str", "-str", "inf", "-inf", "nan"],
)
def test_numbers_that_are_not_finite_doubles_are_parse_errors(value):
    with pytest.raises(el.ParseError, match=r"<memory>: speed: not a finite double"):
        el.parse_scenario(minimal(speed=value))
    with pytest.raises(el.ParseError, match=r"<memory>: sensors\[1\]\[0\]: not a finite double"):
        el.parse_scenario(minimal(sensors=[[4, 0], [value, 4], [-3, -4]]))


@pytest.mark.parametrize(
    "literal, message",
    [
        ("1e400", "speed: not a finite double"),
        ("-Infinity", "speed: not a finite double"),
        ("NaN", "speed: not a finite double"),
        ("1" + "0" * 400, "speed: not a finite double"),
        # Past Python's digit limit for int parsing, where it has one.
        ("1" * 5000, "Exceeds the limit|speed: not a finite double"),
    ],
    ids=["1e400", "-Infinity", "NaN", "400-digits", "5000-digits"],
)
def test_json_numbers_past_a_double_are_parse_errors(tmp_path, literal, message):
    path = tmp_path / "huge.json"
    path.write_text(f'{{"dimension": 2, "speed": {literal}, "sensors": [[4, 0], [-3, 4]]}}')
    with pytest.raises(el.ParseError, match=message):
        el.load_scenario(path)


def test_unknown_keys_rejected():
    with pytest.raises(el.ParseError):
        el.parse_scenario(minimal(walls=[]))
    with pytest.raises(el.ParseError):
        el.parse_scenario(minimal(events=[{"time": 0, "position": [0, 0], "label": "x"}]))
    with pytest.raises(el.ParseError):
        el.parse_scenario({"sensors": [[0, 0], [1, 1]]})  # no dimension
    with pytest.raises(el.ParseError):
        el.parse_scenario([1, 2, 3])


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"events": {}}, "events must be a list"),
        ({"events": [{"time": 0, "position": [0, 0], "label": "x"}]},
         "events[0] must have 'time' and 'position'"),
        ({"reception_table": {}}, "reception_table must be a list of per-sensor lists"),
        ({"reception_table": [4, [5], [5]]}, "reception_table[0] must be a list"),
        ({"room": []}, "room must have 'walls' and 'loudspeaker'"),
        ({"room": {"walls": {}, "loudspeaker": [0, 0]}}, "room.walls must be a list"),
        ({"room": {"walls": [[1, 0]], "loudspeaker": [0, 0]}},
         "room.walls[0] must have 'normal' and 'offset'"),
        ({"spurious": 3}, "spurious must be a list"),
        ({"spurious": [[0, 1.0]]}, "spurious[0] must have 'sensor' and 'time'"),
    ],
    ids=["events", "event", "table", "table-row", "room", "walls", "wall", "spurious", "spur"],
)
def test_record_shape_messages(extra, message):
    with pytest.raises(el.ParseError) as exc:
        el.parse_scenario(minimal(**extra), source="scene.json")
    assert str(exc.value) == f"scene.json: {message}"


def test_field_validation():
    with pytest.raises(el.ValidationError):
        el.parse_scenario({"dimension": 1, "sensors": [[0], [1]]})
    with pytest.raises(el.ValidationError):
        el.parse_scenario({"dimension": True, "sensors": [[0, 0], [1, 1]]})
    with pytest.raises(el.ValidationError):
        el.parse_scenario(minimal(speed=0))
    with pytest.raises(el.ValidationError):
        el.parse_scenario(minimal(speed=-2))
    with pytest.raises(el.ParseError):
        el.parse_scenario(minimal(include_direct="yes"))
    with pytest.raises(el.ParseError):
        el.parse_scenario(minimal(rng_seed=1.5))
    with pytest.raises(el.ValidationError):
        el.parse_scenario(minimal(sensors=[[0, 0, 0], [1, 1, 1]]))  # wrong width
    with pytest.raises(el.ValidationError):
        el.parse_scenario(minimal(reception_table=[[1], [2]]))  # row count
    with pytest.raises(el.ParseError):
        el.parse_scenario(minimal(sensors=[[0, True], [1, 1], [2, 2]]))


def test_spurious_entries():
    sc = el.parse_scenario(minimal(spurious=[{"sensor": 1, "time": 9.5}]))
    assert sc.spurious == ((1, 9.5),)
    with pytest.raises(el.ValidationError):
        el.parse_scenario(minimal(spurious=[{"sensor": 7, "time": 1.0}]))
    with pytest.raises(el.ParseError):
        el.parse_scenario(minimal(spurious=[{"sensor": True, "time": 1.0}]))
    with pytest.raises(el.ParseError):
        el.parse_scenario(minimal(spurious=[{"sensor": 0}]))


def test_speed_scales_every_time_quantity():
    doc = minimal(
        speed=343.0,
        events=[{"time": 2.0, "position": [1, 1]}],
        reception_table=[[0.5], [1.0], [1.5]],
        emission_time=0.25,
        spurious=[{"sensor": 0, "time": 3.0}],
    )
    sc = el.parse_scenario(doc)
    assert sc.events[0].time == pytest.approx(686.0)
    assert np.array_equal(sc.events[0].position, [1.0, 1.0])  # positions untouched
    assert sc.reception_table.times[0][0] == pytest.approx(171.5)
    assert sc.emission_time == pytest.approx(85.75)
    assert sc.spurious == ((0, pytest.approx(1029.0)),)


def test_speed_round_trip_matches_unit_speed():
    # the same physical setup written in seconds at speed 343 must solve to
    # the same event as the speed-1 version written in metres
    base = {
        "dimension": 2,
        "sensors": [[4, 0], [-3, 4], [-3, -4]],
        "reception_table": [[4], [5], [5]],
    }
    scaled = {
        "dimension": 2,
        "speed": 343,
        "sensors": [[4, 0], [-3, 4], [-3, -4]],
        "reception_table": [["4/343"], ["5/343"], ["5/343"]],
    }
    res_a = el.solve(*_solver_inputs(el.parse_scenario(base)))
    res_b = el.solve(*_solver_inputs(el.parse_scenario(scaled)))
    assert len(res_a.candidates) == len(res_b.candidates)
    for ca, cb in zip(res_a.candidates, res_b.candidates):
        assert cb.event.time == pytest.approx(ca.event.time, abs=1e-9)
        assert np.abs(cb.event.position - ca.event.position).max() < 1e-9
        assert ca.spurious == cb.spurious


def _solver_inputs(sc):
    times = np.array([arr[0] for arr in sc.reception_table.times])
    return sc.sensors, times


def test_room_parsing():
    doc = minimal(
        room={
            "walls": [{"normal": [1, 0], "offset": "5/2"}, {"normal": [0, 1]}],
            "loudspeaker": [1, 1],
        }
    )
    sc = el.parse_scenario(doc)
    assert len(sc.room.walls) == 2
    assert sc.room.walls[0].offset == pytest.approx(2.5)
    assert sc.room.walls[1].offset == 0.0
    assert np.array_equal(sc.room.loudspeaker, [1.0, 1.0])
    with pytest.raises(el.ParseError):
        el.parse_scenario(minimal(room={"walls": []}))
    with pytest.raises(el.ParseError):
        el.parse_scenario(
            minimal(room={"walls": [{"normal": [1, 0], "color": "red"}], "loudspeaker": [1, 1]})
        )


def test_events_parsing():
    sc = el.parse_scenario(minimal(events=[{"time": "1/2", "position": [0, 1]}, {"position": [2, 2]}]))
    assert len(sc.events) == 2
    assert sc.events[0].time == 0.5
    assert sc.events[1].time == 0.0
    with pytest.raises(el.ParseError):
        el.parse_scenario(minimal(events=[[0, 0]]))


def test_load_scenario_errors(tmp_path):
    with pytest.raises(el.ParseError):
        el.load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n}")
    with pytest.raises(el.ParseError) as err:
        el.load_scenario(bad)
    assert ":2:" in str(err.value)  # points at the offending line


def test_name_defaults_to_file_stem(tmp_path):
    path = tmp_path / "corner_office.json"
    path.write_text(json.dumps(minimal()))
    assert el.load_scenario(path).name == "corner_office"


def test_shipped_scenarios_load():
    files = sorted(SCENARIO_DIR.glob("*.json"))
    names = {el.load_scenario(p).name for p in files}
    assert names == {
        "ambiguous_2d",
        "ambiguous_3d",
        "degenerate_linear_2d",
        "double_root_2d",
        "equal_times_2d",
        "shoebox_3d",
        "spurious_2d",
    }
    shoebox = el.load_scenario(SCENARIO_DIR / "shoebox_3d.json")
    assert shoebox.room is not None and len(shoebox.room.walls) == 6
    assert shoebox.include_direct is True
    golden = el.load_scenario(SCENARIO_DIR / "ambiguous_3d.json")
    assert golden.reception_table.sizes() == (1,) * 5
