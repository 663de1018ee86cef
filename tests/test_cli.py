"""End-to-end tests of the command-line driver."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import platform
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import echolat
from echolat import __version__
from echolat.cli import main

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"
COMMANDS = ("solve", "match", "simulate", "detect-walls", "check-geometry", "goodness")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def scenario(name: str) -> str:
    return str(SCENARIO_DIR / f"{name}.json")


def test_solve_ambiguous_3d(capsys):
    code, out, err = run_cli(capsys, "solve", scenario("ambiguous_3d"))
    assert code == 0 and err == ""
    assert f"echolat {__version__}" in out
    assert "path: quadratic" in out
    assert "rank: 4" in out
    assert "candidates: 2" in out
    assert "time=-0.21900296020747648" in out
    assert "time=0.0 position=(0.0, 0.0, 0.0)" in out
    assert "spurious=true" not in out


def test_solve_spurious_2d(capsys):
    code, out, _ = run_cli(capsys, "solve", scenario("spurious_2d"))
    assert code == 0
    assert out.count("spurious=true") == 1
    assert out.count("spurious=false") == 1
    assert "time=0.0 position=(0.0, 0.0)" in out


def test_solve_degenerate_linear(capsys):
    code, out, _ = run_cli(capsys, "solve", scenario("degenerate_linear_2d"))
    assert code == 0
    assert "candidates: 1" in out


def test_match_equal_times(capsys):
    code, out, _ = run_cli(capsys, "match", scenario("equal_times_2d"))
    assert code == 0
    assert "candidate-tuples: 1" in out
    assert "accepted-tuples: 1" in out
    assert "events: 1" in out
    assert "event 1: time=0.0 position=(0.0, 0.0)" in out


def test_match_keep_ambiguous_flag(capsys):
    code, out, _ = run_cli(capsys, "match", scenario("ambiguous_3d"))
    assert code == 0
    assert "events: 2" in out
    assert out.count(" ambiguous=true") == 2  # leading space: skip the config line
    code, out, _ = run_cli(capsys, "match", scenario("ambiguous_3d"), "--no-keep-ambiguous")
    assert code == 0
    assert "events: 0" in out
    assert "dropped-ambiguous: 1" in out


def test_detect_walls_shoebox(capsys):
    code, out, _ = run_cli(capsys, "detect-walls", scenario("shoebox_3d"))
    assert code == 0
    assert "walls: 6" in out
    assert "direct-sound-events: 1" in out
    assert out.count("wall ") == 6
    offsets = sorted(
        round(float(line.rsplit("offset=", 1)[1]), 6)
        for line in out.splitlines()
        if line.startswith("wall ")
    )
    assert offsets == [-0.0, 0.0, 0.0, 2.5, 3.0, 4.0]


def test_simulate_shoebox(capsys):
    code, out, _ = run_cli(capsys, "simulate", scenario("shoebox_3d"))
    assert code == 0
    assert "walls: 6" in out
    assert "include-direct: true" in out
    # 6 echoes + direct sound per sensor
    for i in range(5):
        line = next(l for l in out.splitlines() if l.startswith(f"sensor {i}:"))
        assert len(line.split()[2:]) == 7


def test_simulate_events_with_speed_and_spurious(capsys, tmp_path):
    doc = {
        "name": "events_speed",
        "dimension": 2,
        "speed": 3.0,
        "sensors": [[0, 0], [4, 0], [0, 3], [4, 3]],
        "events": [
            {"time": 0.5, "position": [1.0, 1.0]},
            {"time": 2.25, "position": [3.0, 0.5]},
        ],
        "spurious": [{"sensor": 2, "time": 1.75}],
    }
    path = tmp_path / "events_speed.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "simulate", str(path))
    assert code == 0 and err == ""
    assert out == (
        f"echolat {__version__}\n"
        "command: simulate\n"
        "scenario: events_speed\n"
        "dimension: 2\n"
        "sensors: 4\n"
        "speed: 3.0\n"
        "config: tolerance=1e-06 rank-tol=1e-08 budget=10000000 keep-ambiguous=true seed=0\n"
        "walls: 0\n"
        "events: 2\n"
        "include-direct: false\n"
        "emission-time: 0.0\n"
        "sensor 0: 2.914213562373095 9.79138126514911\n"
        "sensor 1: 4.66227766016838 7.868033988749895\n"
        "sensor 2: 3.73606797749979 5.25 10.655124837953327\n"
        "sensor 3: 5.10555127546399 9.442582403567252\n"
    )


def test_check_geometry_reports_failing_pattern(capsys):
    code, out, _ = run_cli(capsys, "check-geometry", scenario("ambiguous_3d"))
    assert code == 0
    assert "noncoplanar: true" in out
    assert "condition-ok: false" in out
    assert "pattern 1: (+,+,+,+,+)" in out


def test_check_geometry_clean_layout(capsys):
    code, out, _ = run_cli(capsys, "check-geometry", scenario("shoebox_3d"))
    assert code == 0
    assert "condition-ok: true" in out
    assert "failing-sign-patterns: 0" in out


def test_check_geometry_not_applicable(capsys):
    # 3 sensors in 2 dimensions is n+1, not n+2: condition not defined
    code, out, _ = run_cli(capsys, "check-geometry", scenario("spurious_2d"))
    assert code == 0
    assert "condition-ok: n/a" in out


def test_goodness_shoebox(capsys):
    code, out, err = run_cli(capsys, "goodness", scenario("shoebox_3d"), "--trials", "3")
    assert code == 0 and err == ""
    assert out == (
        f"echolat {__version__}\n"
        "command: goodness\n"
        "scenario: shoebox_3d\n"
        "dimension: 3\n"
        "sensors: 5\n"
        "speed: 1.0\n"
        "config: tolerance=1e-06 rank-tol=1e-08 budget=10000000 keep-ambiguous=true seed=0\n"
        "trials: 3\n"
        "ghost-walls: 0\n"
        "missed-walls: 0\n"
        "mixed-residual-margin: 1.7976866819212926e-06\n"
    )


@pytest.mark.parametrize("seed", range(5))
def test_goodness_prints_no_ghost_wall_and_a_numeric_margin(capsys, seed):
    # The benchmark's room_goodness check parses these two lines; a margin
    # printed as n/a would count as a failed operation.
    code, out, err = run_cli(
        capsys, "goodness", scenario("shoebox_3d"), "--trials", "2", "--seed", str(seed)
    )
    assert code == 0 and err == ""
    fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    assert fields["ghost-walls"] == "0"
    assert math.isfinite(float(fields["mixed-residual-margin"]))


def test_output_csv_files(capsys, tmp_path):
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(capsys, "solve", scenario("ambiguous_3d"), "--output", str(out_dir))
    assert code == 0
    content = (out_dir / "events.csv").read_text()
    lines = content.splitlines()
    assert lines[0] == "time,x1,x2,x3,spurious,residual"
    assert len(lines) == 3
    assert lines[1].startswith("-0.21900296020747648,")
    assert ",false," in lines[1]

    code, _, _ = run_cli(capsys, "detect-walls", scenario("shoebox_3d"), "--output", str(out_dir))
    assert code == 0
    walls = (out_dir / "walls.csv").read_text().splitlines()
    assert walls[0] == "n1,n2,n3,offset"
    assert len(walls) == 7
    assert (out_dir / "events.csv").exists()

    code, _, _ = run_cli(capsys, "simulate", scenario("shoebox_3d"), "--output", str(out_dir))
    assert code == 0
    receptions = (out_dir / "receptions.csv").read_text().splitlines()
    assert receptions[0] == "sensor,time"
    assert len(receptions) == 1 + 5 * 7


def test_output_that_cannot_be_written_exits_2(capsys, tmp_path):
    existing = tmp_path / "existing"
    existing.write_text("kept\n")
    for target in (existing, existing / "sub"):
        code, out, err = run_cli(capsys, "simulate", scenario("shoebox_3d"), "--output", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write --output: ") and "Traceback" not in err
    assert existing.read_text() == "kept\n"


def test_output_is_deterministic(capsys, tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    code, out_a, _ = run_cli(capsys, "detect-walls", scenario("shoebox_3d"), "--output", str(a_dir))
    assert code == 0
    code, out_b, _ = run_cli(capsys, "detect-walls", scenario("shoebox_3d"), "--output", str(b_dir))
    assert code == 0
    assert out_a == out_b
    for name in ("walls.csv", "events.csv"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_exit_2_on_parse_and_validation_problems(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve", str(tmp_path / "nope.json"))
    assert code == 2 and "error:" in err

    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 2, "sensors": [[0, 0], [1, 1]], "wombat": 3}')
    code, _, err = run_cli(capsys, "solve", str(bad))
    assert code == 2 and "wombat" in err

    # shoebox scenario has no reception_table, so solve cannot run
    code, _, err = run_cli(capsys, "solve", scenario("shoebox_3d"))
    assert code == 2 and "reception_table" in err

    # 3 sensors in 2d is not the n+2 the matcher needs
    code, _, err = run_cli(capsys, "match", scenario("spurious_2d"))
    assert code == 2

    code, _, err = run_cli(capsys, "detect-walls", scenario("shoebox_3d"), "--budget", "3")
    assert code == 2 and "budget" in err

    huge = tmp_path / "huge.json"
    speed = "1" + "0" * 400
    huge.write_text(f'{{"dimension": 2, "speed": {speed}, "sensors": [[0, 0], [1, 0], [0, 1]]}}')
    code, out, err = run_cli(capsys, "check-geometry", str(huge))
    assert code == 2 and out == "" and "speed: not a finite double" in err

    code, out, err = run_cli(capsys, "goodness", scenario("shoebox_3d"), "--seed", "-1")
    assert code == 2 and out == "" and "rng_seed" in err

    doc = json.loads(Path(scenario("shoebox_3d")).read_text())
    doc["room"]["walls"][0] = {"normal": [1e-300, 0, 0], "offset": 1e300}
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "simulate", str(wide))
    assert code == 2 and out == "" and "wall offset" in err
    doc["room"]["walls"][0] = {"normal": [1e160, 0, 0], "offset": 1e160}
    wide.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "simulate", str(wide))
    assert code == 0 and err == ""

    # Squares past the double range: a sensor's norm, then a sensor distance.
    for sensors, times in (
        ([[0, 0], [1e200, 0], [0, 1e200], [1e200, 1.5e200]], [1e200, 2e200, 2e200, 2.5e200]),
        ([[9, 1e308], [9, -12], [10, -24], [10, 24]], [15, 15, 26, 26]),
    ):
        far = tmp_path / "far.json"
        far.write_text(json.dumps(
            {"dimension": 2, "sensors": sensors, "reception_table": [[t] for t in times]}
        ))
        for command in ("solve", "match", "check-geometry"):
            code, out, err = run_cli(capsys, command, str(far))
            assert code == 2 and out == ""
            assert err == "error: sensor positions too large: a squared norm or distance overflows\n"


@pytest.mark.parametrize(
    "flags",
    [
        ("--rank-tol", "0"), ("--rank-tol", "1.5"), ("--rank-tol", "nan"),
        ("--tolerance", "nan"), ("--tolerance", "-1"), ("--tolerance", "inf"),
        ("--budget", "-1"),
    ],
)
@pytest.mark.parametrize("command", COMMANDS)
def test_exit_2_on_bad_tuning_flags(capsys, command, flags):
    name = "ambiguous_3d" if command in ("solve", "match") else "shoebox_3d"
    code, out, err = run_cli(capsys, command, scenario(name), *flags)
    field = {"--tolerance": "residual_threshold", "--rank-tol": "rank_tol", "--budget": "budget"}
    assert code == 2 and out == ""
    assert err.startswith("error: ") and field[flags[0]] in err


def test_exit_3_on_numeric_failure(capsys, tmp_path):
    doc = {
        "dimension": 2,
        "sensors": [[0, 0], [1, 0], [2, 0]],  # collinear: cannot span the plane
        "reception_table": [[1.0], [1.0], [1.0]],
    }
    path = tmp_path / "collinear.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "solve", str(path))
    assert code == 3
    assert "NotSpanning" in err

    # The quadratic's coefficients overflow, though every input squares finitely.
    doc = {
        "dimension": 2,
        "sensors": [[9, 12], [9, -12], [10, -24], [10, 24]],
        "reception_table": [[15], [15], [26], [1e150]],
    }
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 3 and out == ""
    assert err == "numeric failure: NumericError: the reduced quadratic overflows a double\n"

    # The matcher's relation determinants overflow: a numpy overflow, not a warning.
    doc = json.loads(Path(scenario("equal_times_2d")).read_text())
    doc["sensors"][1] = [0, 1e150]
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "match", str(path))
    assert code == 3 and out == ""
    assert err.startswith("numeric failure: FloatingPointError: overflow") and err.count("\n") == 1


#: What the mutation test writes over one entry of a shipped scenario:
#: numbers whose squares (or whose products in the solvers) leave the
#: double range, fraction strings that are not finite, and wrong types.
MUTATIONS = (1e308, 1e200, 1e150, "1/0", "1e400", 2**70, True, None, [], "x")


def _entries(node, path=()):
    """Paths to every scalar and empty list in a decoded JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _entries(value, (*path, key))
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            yield from _entries(value, (*path, i))
    else:
        yield path


def test_no_run_on_a_mutated_scenario_exits_1(capsys, tmp_path):
    # Each shipped scenario, each mutation written twice over an entry drawn
    # at random, under every subcommand: a run succeeds, or ends with exit
    # 2 or 3 and one line on stderr; never with an exception.
    rng = random.Random(2207)
    for source in sorted(SCENARIO_DIR.glob("*.json")):
        doc = json.loads(source.read_text())
        entries = list(_entries(doc))
        for value in MUTATIONS * 2:
            *parents, last = rng.choice(entries)
            mutated = copy.deepcopy(doc)
            node = mutated
            for key in parents:
                node = node[key]
            node[last] = value
            path = tmp_path / source.name
            path.write_text(json.dumps(mutated))
            for command in COMMANDS:
                flags = ("--trials", "1") if command == "goodness" else ()
                code, out, err = run_cli(capsys, command, str(path), *flags)
                case = f"{command} {source.stem} {(*parents, last)} = {value!r}"
                if code == 0:
                    assert out and err == "", case
                else:
                    assert code in (2, 3) and out == "", case
                    assert err.startswith(("error: ", "numeric failure: ")), case
                    assert err.count("\n") == 1, case


#: Recorded command lines: every subcommand on every shipped scenario, and
#: the goodness check on the shoebox at a few seeds.
GOLDEN_CASES = [
    *(f"{command} {path.stem}" for command in COMMANDS
      for path in sorted(SCENARIO_DIR.glob("*.json"))),
    *(f"goodness shoebox_3d --trials 3 --seed {seed}" for seed in range(5)),
]


def _golden_run(case: str) -> dict:
    """Exit code, stdout and stderr of ``echolat`` on a ``GOLDEN_CASES`` entry."""
    command, name, *flags = case.split()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, scenario(name), *flags])
    return {
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue().replace(str(SCENARIO_DIR), "scenarios"),
    }


def test_output_matches_the_recorded_golden():
    # Regenerate with ``PYTHONPATH=src python tests/test_cli.py >
    # tests/cli_golden.json``, only in a change meant to alter the output.
    golden = json.loads(GOLDEN.read_text())
    assert list(golden) == GOLDEN_CASES
    for case in GOLDEN_CASES:
        assert _golden_run(case) == golden[case], case


#: ``goodness`` on the shoebox with five trials at eight more seeds, so that
#: a change to the wall layer that moves a printed digit shows.
GOODNESS_GOLDEN = Path(__file__).resolve().parent / "goodness_golden.json"
GOODNESS_CASES = [f"goodness shoebox_3d --trials 5 --seed {seed}" for seed in range(100, 108)]


def test_goodness_output_matches_its_recorded_golden():
    golden = json.loads(GOODNESS_GOLDEN.read_text())
    assert list(golden) == GOODNESS_CASES
    for case in GOODNESS_CASES:
        assert _golden_run(case) == golden[case], case


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert f"echolat {__version__}" in capsys.readouterr().out


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "echolat.cli", "solve", scenario("equal_times_2d")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "candidates: 2" in proc.stdout


#: OpenBLAS kernel choices, None meaning the one OpenBLAS picks for the CPU.
OPENBLAS_KERNELS = (None, "SkylakeX", "Haswell", "Zen", "Sandybridge", "Prescott")

#: The shipped scenarios with one reception time per sensor, i.e. those
#: that ``echolat solve`` accepts.
SOLVE_SCENARIOS = (
    "ambiguous_3d",
    "ambiguous_2d",
    "spurious_2d",
    "degenerate_linear_2d",
    "double_root_2d",
    "equal_times_2d",
)

# Runs ``echolat solve`` on each scenario given on the command line, then
# prints one seeded full-rank solve (5 sensors in R^3) digit for digit.
KERNEL_PROBE = """
import sys

import numpy as np

import echolat as el
from echolat.cli import main

for path in sys.argv[1:]:
    main(["solve", path])
rng = np.random.default_rng(2207)
sensors = el.SensorArray(rng.uniform(-1.0, 1.0, (5, 3)))
event = el.EmissionEvent(float(rng.uniform(0.0, 2.0)), rng.uniform(-1.0, 1.0, 3))
result = el.solve(sensors, el.event_arrivals(sensors, event))
found = result.candidates[0].event
print(result.path.value, result.rank, repr(found.time), [repr(float(x)) for x in found.position])
"""


def _numpy_blas_is_openblas_on_x86_64() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):  # numpy too old for mode="dicts", or no BLAS entry
        return False
    return "openblas" in str(blas).lower() and platform.machine().lower() in ("x86_64", "amd64")


def _stdout_under_each_openblas_kernel(args) -> dict:
    """Standard output of ``python args...`` per OpenBLAS kernel in a child."""
    package_root = str(Path(echolat.__file__).resolve().parent.parent)
    outputs = {}
    for kernel in OPENBLAS_KERNELS:
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
        if kernel is not None:
            env["OPENBLAS_CORETYPE"] = kernel
        proc = subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, f"OPENBLAS_CORETYPE={kernel}: {proc.stderr}"
        outputs[kernel] = proc.stdout
    return outputs


requires_openblas_kernels = pytest.mark.skipif(
    not _numpy_blas_is_openblas_on_x86_64(),
    reason="OPENBLAS_CORETYPE selects kernels only where numpy uses OpenBLAS on x86-64",
)


@requires_openblas_kernels
def test_solve_prints_the_same_digits_under_every_openblas_kernel():
    outputs = _stdout_under_each_openblas_kernel(
        ["-c", KERNEL_PROBE, *(scenario(name) for name in SOLVE_SCENARIOS)]
    )
    assert outputs[None].count("candidates: ") == len(SOLVE_SCENARIOS)
    for kernel, out in outputs.items():
        assert out == outputs[None], f"OPENBLAS_CORETYPE={kernel} prints other digits"


@requires_openblas_kernels
def test_detect_walls_prints_the_same_walls_under_every_openblas_kernel():
    outputs = _stdout_under_each_openblas_kernel(
        ["-m", "echolat.cli", "detect-walls", scenario("shoebox_3d")]
    )
    walls = {
        kernel: [line for line in out.splitlines() if line.startswith("wall ")]
        for kernel, out in outputs.items()
    }
    assert len(walls[None]) == 6
    for kernel, lines in walls.items():
        assert lines == walls[None], f"OPENBLAS_CORETYPE={kernel} prints other walls"


if __name__ == "__main__":
    json.dump({case: _golden_run(case) for case in GOLDEN_CASES}, sys.stdout, indent=1)
    sys.stdout.write("\n")
