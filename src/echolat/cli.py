"""Command-line driver: run the solvers against a scenario file.

Every subcommand takes a scenario (JSON) plus tuning flags and prints a
deterministic plain-text report, one common header and then its own
section; ``--output DIR`` additionally writes CSV tables.  Exit codes: 0
success, 2 for scenario parse/validation problems (numbers whose squares
overflow included) and an ``--output`` that cannot be written, 3 when a
computation fails numerically (a numpy overflow included).  On 2 and 3
stdout stays empty and stderr holds one line.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .acoustics import detect_walls, goodness_check, simulate_echoes
from .errors import NumericError, ParseError, ValidationError
from .lateration import SensorArray, check_geometry, solve
from .matching import MatchConfig, ReceptionTable, match_events
from .scenario import Scenario, load_scenario


@dataclass
class Report:
    """Plain-text report plus optional named CSV payloads."""

    lines: list[str] = field(default_factory=list)
    csv_files: dict[str, str] = field(default_factory=dict)

    def add(self, line: str = "") -> None:
        self.lines.append(line)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fmt_vec(vec) -> str:
    return "(" + ", ".join(repr(float(x)) for x in vec) + ")"


def _csv(rows: list[list]) -> str:
    return "\n".join(",".join(_fmt(cell) for cell in row) for row in rows) + "\n"


def _header(report: Report, scenario: Scenario, args) -> None:
    report.add(f"echolat {__version__}")
    report.add(f"command: {args.command}")
    report.add(f"scenario: {scenario.name}")
    report.add(f"dimension: {scenario.dimension}")
    report.add(f"sensors: {scenario.sensors.count}")
    report.add(f"speed: {_fmt(scenario.speed)}")
    report.add(
        "config: "
        f"tolerance={_fmt(args.tolerance)} rank-tol={_fmt(args.rank_tol)} "
        f"budget={args.budget} keep-ambiguous={_fmt(args.keep_ambiguous)} "
        f"seed={_seed(scenario, args)}"
    )


def _seed(scenario: Scenario, args) -> int:
    return scenario.rng_seed if args.seed is None else args.seed


def _match_config(args) -> MatchConfig:
    return MatchConfig(
        residual_threshold=args.tolerance,
        keep_ambiguous=args.keep_ambiguous,
        budget=args.budget,
        rank_tol=args.rank_tol,
    )


def _abs_model_residual(sensors: SensorArray, times, event) -> float:
    gaps = sensors.positions - event.position
    dist = np.sqrt((gaps * gaps).sum(axis=1))
    return float(np.max(np.abs(dist - np.abs(np.asarray(times) - event.time))))


def _event_rows(dim: int, entries) -> list[list]:
    rows: list[list] = [["time"] + [f"x{i + 1}" for i in range(dim)] + ["spurious", "residual"]]
    for time, position, spurious, residual in entries:
        rows.append([float(time)] + [float(x) for x in position] + [spurious, float(residual)])
    return rows


def _cmd_solve(report: Report, scenario: Scenario, args, config: MatchConfig) -> None:
    table = scenario.reception_table
    if table is None or any(size != 1 for size in table.sizes()):
        raise ValidationError("solve needs a reception_table with exactly one time per sensor")
    times = np.array([arr[0] for arr in table.times])
    result = solve(scenario.sensors, times, rank_tol=config.rank_tol)
    report.add(f"path: {result.path.value}")
    report.add(f"rank: {result.rank}")
    if result.quadratic is not None:
        a, b, c = result.quadratic
        report.add(f"quadratic: a={_fmt(a)} b={_fmt(b)} c={_fmt(c)}")
    report.add(f"candidates: {len(result.candidates)}")
    entries = []
    for i, cand in enumerate(result.candidates, start=1):
        residual = _abs_model_residual(scenario.sensors, times, cand.event)
        report.add(
            f"candidate {i}: time={_fmt(cand.event.time)} "
            f"position={_fmt_vec(cand.event.position)} "
            f"spurious={_fmt(cand.spurious)} residual={_fmt(residual)}"
        )
        entries.append((cand.event.time, cand.event.position, cand.spurious, residual))
    report.csv_files["events.csv"] = _csv(_event_rows(scenario.dimension, entries))


def _cmd_match(report: Report, scenario: Scenario, args, config: MatchConfig) -> None:
    if scenario.reception_table is None:
        raise ValidationError("this command needs a reception_table in the scenario")
    outcome = match_events(scenario.sensors, scenario.reception_table, config)
    _match_section(report, scenario, outcome)


def _match_section(report: Report, scenario: Scenario, outcome) -> None:
    report.add(f"candidate-tuples: {outcome.candidate_tuples}")
    report.add(f"pruned-tuples: {outcome.pruned_tuples}")
    report.add(f"evaluated-tuples: {outcome.evaluated_tuples}")
    report.add(f"accepted-tuples: {outcome.accepted_tuples}")
    report.add(f"rejected-tuples: {outcome.rejected_tuples}")
    report.add(f"skipped-tuples: {len(outcome.skipped)}")
    report.add(f"dropped-ambiguous: {outcome.dropped_ambiguous}")
    report.add(f"events: {len(outcome.events)}")
    entries = []
    for i, ev in enumerate(outcome.events, start=1):
        report.add(
            f"event {i}: time={_fmt(ev.event_time)} position={_fmt_vec(ev.position)} "
            f"residual={_fmt(ev.residual)} ambiguous={_fmt(ev.ambiguous)}"
        )
        entries.append((ev.event_time, ev.position, False, ev.residual))
    report.csv_files["events.csv"] = _csv(_event_rows(scenario.dimension, entries))


def _simulated_table(scenario: Scenario):
    """Reception table from a room (echoes) or from listed events (direct)."""
    if scenario.room is not None:
        return simulate_echoes(
            scenario.room,
            scenario.sensors,
            scenario.emission_time,
            include_direct=scenario.include_direct,
            spurious=scenario.spurious,
        )
    if scenario.events:
        return ReceptionTable.from_events(
            scenario.sensors, scenario.events, spurious=scenario.spurious
        )
    raise ValidationError("simulation needs a room or events in the scenario")


def _cmd_simulate(report: Report, scenario: Scenario, args, config: MatchConfig) -> None:
    table = _simulated_table(scenario)
    walls = 0 if scenario.room is None else len(scenario.room.walls)
    report.add(f"walls: {walls}")
    report.add(f"events: {0 if scenario.events is None else len(scenario.events)}")
    report.add(f"include-direct: {_fmt(scenario.include_direct)}")
    report.add(f"emission-time: {_fmt(scenario.emission_time)}")
    rows: list[list] = [["sensor", "time"]]
    for i, arr in enumerate(table.times):
        report.add(f"sensor {i}: " + " ".join(repr(float(t)) for t in arr))
        rows.extend([i, float(t)] for t in arr)
    report.csv_files["receptions.csv"] = _csv(rows)


def _cmd_detect_walls(report: Report, scenario: Scenario, args, config: MatchConfig) -> None:
    if scenario.room is None:
        raise ValidationError("detect-walls needs a room (for the source position)")
    table = scenario.reception_table  # else the echoes simulated from the room
    if table is None:
        table = _simulated_table(scenario)
    detection = detect_walls(scenario.sensors, table, scenario.room.loudspeaker, config)
    _match_section(report, scenario, detection.match)
    report.add(f"direct-sound-events: {len(detection.direct_events)}")
    report.add(f"walls: {len(detection.walls)}")
    wall_rows: list[list] = [[f"n{i + 1}" for i in range(scenario.dimension)] + ["offset"]]
    for i, wall in enumerate(detection.walls, start=1):
        report.add(f"wall {i}: normal={_fmt_vec(wall.normal)} offset={_fmt(wall.offset)}")
        wall_rows.append([float(x) for x in wall.normal] + [wall.offset])
    report.csv_files["walls.csv"] = _csv(wall_rows)


def _cmd_check_geometry(report: Report, scenario: Scenario, args, config: MatchConfig) -> None:
    outcome = check_geometry(scenario.sensors, rank_tol=config.rank_tol)
    report.add(f"noncoplanar: {_fmt(outcome.noncoplanar)}")
    value = "n/a" if outcome.condition_ok is None else _fmt(outcome.condition_ok)
    report.add(f"condition-ok: {value}")
    report.add(f"failing-sign-patterns: {len(outcome.failing_sign_patterns)}")
    for i, pattern in enumerate(outcome.failing_sign_patterns, start=1):
        text = ",".join("+" if s > 0 else "-" for s in pattern)
        report.add(f"pattern {i}: ({text})")
    report.add(f"degenerate-subsets: {len(outcome.degenerate_subsets)}")
    for i, subset in enumerate(outcome.degenerate_subsets, start=1):
        report.add(f"subset {i}: {list(subset)}")


def _cmd_goodness(report: Report, scenario: Scenario, args, config: MatchConfig) -> None:
    if scenario.room is None:
        raise ValidationError("goodness needs a room in the scenario")
    outcome = goodness_check(
        scenario.room,
        scenario.sensors,
        trials=args.trials,
        rng_seed=_seed(scenario, args),
        include_direct=scenario.include_direct,
        config=config,
    )
    report.add(f"trials: {outcome.trials}")
    report.add(f"ghost-walls: {outcome.ghost_walls}")
    report.add(f"missed-walls: {outcome.missed_walls}")
    margin = "n/a" if outcome.mixed_residual_margin is None else _fmt(outcome.mixed_residual_margin)
    report.add(f"mixed-residual-margin: {margin}")


#: Each subcommand's section writer and its help line.
_COMMANDS = {
    "solve": (_cmd_solve, "multilaterate one event from one time per sensor"),
    "match": (_cmd_match, "recover events from unlabelled reception times"),
    "simulate": (_cmd_simulate, "first-order echo reception table for a room"),
    "detect-walls": (_cmd_detect_walls, "reconstruct walls from echoes of a known source"),
    "check-geometry": (
        _cmd_check_geometry, "diagnose whether the sensor layout guarantees uniqueness"
    ),
    "goodness": (_cmd_goodness, "probe a room/sensor layout for ghost walls"),
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("scenario", help="path to a scenario JSON file")
    common.add_argument("--tolerance", type=float, default=1e-6,
                        help="relation-residual acceptance threshold (default 1e-6)")
    common.add_argument("--rank-tol", type=float, default=1e-8,
                        help="relative singular-value cutoff for rank decisions (default 1e-8)")
    common.add_argument("--budget", type=int, default=10_000_000,
                        help="largest tuple-product size the matcher will sweep")
    common.add_argument("--keep-ambiguous", action=argparse.BooleanOptionalAction, default=True,
                        help="keep both candidates of ambiguous tuples (default on)")
    common.add_argument("--seed", type=int, default=None,
                        help="override the scenario rng_seed")
    common.add_argument("--trials", type=int, default=20,
                        help="perturbation trials for the goodness command")
    common.add_argument("--output", type=Path, default=None,
                        help="directory to write CSV tables into")

    parser = argparse.ArgumentParser(
        prog="echolat",
        description="pseudo-range multilateration, event matching, and wall detection",
    )
    parser.add_argument("--version", action="version", version=f"echolat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=text)
    return parser


def run(command: str, scenario: Scenario, args) -> Report:
    """Execute one subcommand against an already-loaded scenario.

    The shared tuning flags become one :class:`MatchConfig` first, whatever
    the subcommand, so a bad ``--tolerance``, ``--rank-tol`` or ``--budget``
    is a validation error; the subcommand appends its section to the header.
    """
    config = _match_config(args)
    report = Report()
    _header(report, scenario, args)
    _COMMANDS[command][0](report, scenario, args, config)
    return report


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # A numpy overflow, 0/0 or x/0 is a numeric failure, not a warning.
        with np.errstate(all="raise", under="ignore"):
            scenario = load_scenario(args.scenario)
            report = run(args.command, scenario, args)
        if args.output is not None:
            try:
                args.output.mkdir(parents=True, exist_ok=True)
                for name, content in report.csv_files.items():
                    (args.output / name).write_text(content)
            except OSError as exc:
                raise ValidationError(f"cannot write --output: {exc}") from exc
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(report.text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
