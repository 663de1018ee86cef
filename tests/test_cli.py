"""End-to-end tests of the command-line driver."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import echolat
from echolat import __version__
from echolat.cli import main

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


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
