"""Scenario files: one JSON document describing a measurement setup.

A scenario bundles the ingredients the command-line tools work on: sensor
positions, and optionally known events, a reception table, and/or a room.
Numbers may be written as JSON numbers or as exact fraction strings like
``"-16/7"``.  A ``speed`` field gives the propagation speed in the file's
units; on load every time quantity is multiplied by it, so that internally
one time unit always equals one distance unit and positions are untouched.
Reports convert nothing back — outputs are in the same distance units.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .lateration import EmissionEvent, SensorArray
from .matching import ReceptionTable
from .acoustics import Room, Wall

_TOP_LEVEL_KEYS = {
    "name",
    "description",
    "dimension",
    "speed",
    "sensors",
    "events",
    "reception_table",
    "room",
    "emission_time",
    "include_direct",
    "spurious",
    "rng_seed",
}


@dataclass(frozen=True, eq=False)
class Scenario:
    """A parsed scenario; all times already in distance (speed-1) units."""

    name: str
    dimension: int
    speed: float
    sensors: SensorArray
    events: tuple[EmissionEvent, ...] | None
    reception_table: ReceptionTable | None
    room: Room | None
    emission_time: float
    include_direct: bool
    spurious: tuple[tuple[int, float], ...]
    rng_seed: int


def _number(value, where: str) -> float:
    if isinstance(value, bool):
        raise ParseError(f"{where}: expected a number, got a boolean")
    if not isinstance(value, (int, float, str)):
        raise ParseError(f"{where}: expected a number or fraction string, got {type(value).__name__}")
    try:
        number = float(Fraction(value) if isinstance(value, str) else value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: bad fraction string {value!r}") from exc
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(f"{where}: not a finite double")
    return number


def _vector(value, dim: int, where: str) -> np.ndarray:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list of {dim} numbers")
    if len(value) != dim:
        raise ValidationError(f"{where}: expected {dim} components, got {len(value)}")
    return np.array([_number(x, f"{where}[{i}]") for i, x in enumerate(value)])


def _list(value, where: str, what: str = "a list") -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where} must be {what}")
    return value


def _record(value, keys: tuple[str, str], where: str) -> dict:
    """``value`` if it is an object with no key outside ``keys``."""
    if not isinstance(value, dict) or set(value) - set(keys):
        raise ParseError(f"{where} must have '{keys[0]}' and '{keys[1]}'")
    return value


def parse_scenario(doc, source: str = "<memory>") -> Scenario:
    """Build a :class:`Scenario` from a decoded JSON document."""
    if not isinstance(doc, dict):
        raise ParseError(f"{source}: scenario must be a JSON object")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise ParseError(f"{source}: unknown keys {sorted(unknown)}")
    if "dimension" not in doc or "sensors" not in doc:
        raise ParseError(f"{source}: 'dimension' and 'sensors' are required")

    dim = doc["dimension"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 2:
        raise ValidationError(f"{source}: dimension must be an integer >= 2")
    speed = _number(doc.get("speed", 1.0), f"{source}: speed")
    if not speed > 0.0:
        raise ValidationError(f"{source}: speed must be positive, got {speed}")

    raw_sensors = doc["sensors"]
    if not isinstance(raw_sensors, list) or not raw_sensors:
        raise ValidationError(f"{source}: sensors must be a non-empty list of positions")
    sensors = SensorArray(
        np.vstack([_vector(row, dim, f"{source}: sensors[{i}]") for i, row in enumerate(raw_sensors)])
    )

    events = None
    if "events" in doc:
        parsed = []
        for i, entry in enumerate(_list(doc["events"], f"{source}: events")):
            entry = _record(entry, ("time", "position"), f"{source}: events[{i}]")
            t = _number(entry.get("time", 0.0), f"{source}: events[{i}].time")
            pos = _vector(entry.get("position"), dim, f"{source}: events[{i}].position")
            parsed.append(EmissionEvent(speed * t, pos))
        events = tuple(parsed)

    table = None
    if "reception_table" in doc:
        raw = _list(doc["reception_table"], f"{source}: reception_table", "a list of per-sensor lists")
        if len(raw) != sensors.count:
            raise ValidationError(
                f"{source}: reception_table has {len(raw)} rows for {sensors.count} sensors"
            )
        rows = []
        for i, entry in enumerate(raw):
            where = f"{source}: reception_table[{i}]"
            rows.append([speed * _number(x, f"{where}[{j}]") for j, x in enumerate(_list(entry, where))])
        table = ReceptionTable.from_lists(rows)

    room = None
    if "room" in doc:
        raw = _record(doc["room"], ("walls", "loudspeaker"), f"{source}: room")
        walls = []
        for i, entry in enumerate(_list(raw.get("walls"), f"{source}: room.walls")):
            entry = _record(entry, ("normal", "offset"), f"{source}: room.walls[{i}]")
            normal = _vector(entry.get("normal"), dim, f"{source}: room.walls[{i}].normal")
            offset = _number(entry.get("offset", 0.0), f"{source}: room.walls[{i}].offset")
            walls.append(Wall(normal, offset))
        speaker = _vector(raw.get("loudspeaker"), dim, f"{source}: room.loudspeaker")
        room = Room(tuple(walls), speaker)

    spurious: list[tuple[int, float]] = []
    if "spurious" in doc:
        for i, entry in enumerate(_list(doc["spurious"], f"{source}: spurious")):
            entry = _record(entry, ("sensor", "time"), f"{source}: spurious[{i}]")
            idx = entry.get("sensor")
            if not isinstance(idx, int) or isinstance(idx, bool):
                raise ParseError(f"{source}: spurious[{i}].sensor must be an integer")
            if not 0 <= idx < sensors.count:
                raise ValidationError(f"{source}: spurious[{i}].sensor {idx} out of range")
            spurious.append((idx, speed * _number(entry.get("time"), f"{source}: spurious[{i}].time")))

    include_direct = doc.get("include_direct", False)
    if not isinstance(include_direct, bool):
        raise ParseError(f"{source}: include_direct must be a boolean")
    rng_seed = doc.get("rng_seed", 0)
    if not isinstance(rng_seed, int) or isinstance(rng_seed, bool):
        raise ParseError(f"{source}: rng_seed must be an integer")
    name = doc.get("name", Path(source).stem)
    if not isinstance(name, str):
        raise ParseError(f"{source}: name must be a string")

    return Scenario(
        name=name,
        dimension=dim,
        speed=speed,
        sensors=sensors,
        events=events,
        reception_table=table,
        room=room,
        emission_time=speed * _number(doc.get("emission_time", 0.0), f"{source}: emission_time"),
        include_direct=include_direct,
        spurious=tuple(spurious),
        rng_seed=rng_seed,
    )


def load_scenario(path) -> Scenario:
    """Load and validate a scenario from a JSON file."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {p}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{p}:{exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ParseError(f"{p}: {exc}") from exc
    return parse_scenario(doc, source=str(p))
