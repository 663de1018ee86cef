"""Tests for the package's public name list."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import echolat as el

SRC = Path(el.__file__).resolve().parent

PUBLIC_NAMES = [
    "BudgetExceeded", "Candidate", "DegenerateMirror", "DegenerateSystem", "DetectedEvent",
    "DimensionMismatch", "EcholatError", "EmissionEvent", "GeometryReport", "GoodnessReport",
    "InconsistentTimes", "LengthMismatch", "MatchConfig", "MatchReport", "NotSpanning",
    "NumericError", "ParseError", "QuadraticForm", "QuadraticRoots", "RankDeficient",
    "ReceptionTable", "Room", "RootKind", "Scenario", "SensorArray", "SolvePath",
    "SolveResult", "ValidationError", "Wall", "WallDetection", "__version__",
    "batched_relation_residuals", "cayley_menger_matrix", "check_geometry", "detect_walls",
    "event_arrivals", "goodness_check", "least_squares_solve", "load_scenario",
    "match_events", "measurement_matrix", "mirror_point", "numeric_rank", "parse_scenario",
    "relation_matrix", "relation_residual", "same_plane", "simulate_echoes", "solve",
    "solve_quadratic", "wall_from_mirror",
]

#: What ``perfbench/workloads.py`` calls, as (module, dotted attribute).
BENCHMARK_ENTRY_POINTS = [
    ("echolat", "ReceptionTable.from_lists"),
    ("echolat", "ReceptionTable.product_size"),
    ("echolat", "SensorArray.pairwise_distances"),
    ("echolat", "SensorArray.diameter"),
    ("echolat", "check_geometry"),
    ("echolat", "MatchConfig"),
    ("echolat", "match_events"),
    ("echolat", "solve"),
    ("echolat", "load_scenario"),
    ("echolat.cli", "main"),
    ("echolat.acoustics", "detect_walls"),
    ("echolat.acoustics", "Room.mirror_points"),
]

#: The module attributes the benchmark's tracer replaces with timed wrappers.
TRACER_SEAMS = [
    ("echolat", "solve"),
    ("echolat", "match_events"),
    ("echolat.cli", "main"),
    ("echolat.cli", "load_scenario"),
    ("echolat.cli", "goodness_check"),
    ("echolat.linalg", "numeric_rank"),
    ("echolat.linalg", "least_squares_solve"),
    ("echolat.matching", "solve"),
    ("echolat.matching", "batched_relation_residuals"),
    ("echolat.acoustics", "match_events"),
    ("echolat.acoustics", "batched_relation_residuals"),
    ("echolat.acoustics", "simulate_echoes"),
    ("echolat.acoustics", "detect_walls"),
]


def test_every_exported_name_resolves():
    for name in el.__all__:
        assert hasattr(el, name), name


def test_exported_names_are_unique():
    assert len(el.__all__) == len(set(el.__all__))


def test_exported_names_are_the_public_api():
    assert sorted(el.__all__) == PUBLIC_NAMES


def test_benchmark_entry_points_resolve():
    for module, dotted in BENCHMARK_ENTRY_POINTS + TRACER_SEAMS:
        target = importlib.import_module(module)
        for part in dotted.split("."):
            target = getattr(target, part)
        assert callable(target), f"{module}.{dotted}"


def test_every_import_in_src_is_used():
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
        assert not unused, f"{path.name} imports names it never uses: {unused}"
