"""Run one echolat benchmark workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload match_dense --seed 2207 --seconds 30 --trace 0

Workloads are ``match_dense``, ``solve_batch`` and ``room_goodness`` (see
``perfbench/README.md``).  A run sets up several times (``setup_s`` is the
median), runs one untimed warm-up operation, then with ``--trace 0`` runs
operations back to back for ``--seconds``; the end-to-end metrics come from
that.  With ``--trace 1`` the first half of the time is an untraced pass and
the same operations are then rerun with spans around every layer boundary;
the per-layer metrics come from those spans, which are written to
``perfbench/results/``.

Every operation's output is checked against the generator's ground truth.
A run that misses a truth or has a failed operation prints ``"correct":
false`` and exits with status 1.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: Seed of the documented baseline; any other seed is a held-out check.
DEFAULT_SEED = 2207
SETUP_REPEATS = 5
#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0)

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
#: Printed for every run and gated through ``correct``, but not bounded:
#: they are 0 or vary with the seed's inputs, not with the code's speed.
CHECKS = {"failed_frac": "ratio", "misses": "count", "ghosts": "count", "max_err": "dist"}
PER_LAYER = {
    "matching.self_s": "s/op", "matching.us_per_survivor": "us",
    "matching.survivors": "count/op", "matching.prune_ratio": "ratio",
    "matching.accept_ratio": "ratio", "matching.events_per_accept": "ratio",
    "matching.calls": "count/op",
    "relations.screen_s": "s/op", "relations.screen_rows": "count/op",
    "relations.screen_calls": "count/op", "relations.screen_ns_per_row": "ns",
    "lateration.solve_calls": "count/op", "lateration.full_rank_us": "us",
    "lateration.quadratic_us": "us", "lateration.solve_self_s": "s/op",
    "lateration.viable_per_solve": "ratio", "lateration.numeric_failures": "count",
    "linalg.rank_calls_per_solve": "ratio", "linalg.rank_s": "s/op", "linalg.lstsq_s": "s/op",
    "acoustics.margin_s": "s/op", "acoustics.margin_rows": "count/op",
    "acoustics.goodness_self_s": "s/op", "acoustics.simulate_s": "s/op",
    "acoustics.mapping_s": "s/op",
    "scenario.load_s": "s/op", "cli.self_s": "s/op",
    "trace.overhead_frac": "ratio",
    "check.ghosts_per_op": "count/op", "check.max_err": "dist",
}


def load_package():
    """Import echolat afresh from the checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "echolat" / "__init__.py").is_file():
        raise SystemExit(f"error: no echolat package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "echolat" or n.startswith("echolat.")]:
        del sys.modules[name]
    el = importlib.import_module("echolat")
    importlib.import_module("echolat.cli")
    if not Path(el.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: echolat was imported from {el.__file__}, not {src}")
    return el


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "cpu": cpu,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _commit(),
        "seed": seed,
    }


class Tally:
    """Running totals of the per-operation checks."""

    def __init__(self) -> None:
        self.attempted = self.failed = self.misses = self.ghosts = 0
        self.max_err = 0.0
        self.notes: set[str] = set()

    def add(self, outcome: workloads.Outcome) -> None:
        self.attempted += 1
        self.failed += outcome.failed
        self.misses += outcome.misses
        self.ghosts += outcome.ghosts
        self.max_err = max(self.max_err, outcome.max_err)
        if outcome.note:
            self.notes.add(outcome.note)

    def checks(self) -> dict:
        return {"failed_frac": self.failed / self.attempted, "misses": self.misses,
                "ghosts": self.ghosts, "max_err": self.max_err}


def _run_one(wl, i: int, tracer):
    start = perf_counter()
    try:
        if tracer is None:
            out = wl.op(i)
        else:
            with tracer.span("op"):
                out = wl.op(i)
    except Exception as exc:  # a failed operation is counted, not fatal
        return perf_counter() - start, workloads.Outcome(failed=True, note=f"{type(exc).__name__}: {exc}")
    elapsed = perf_counter() - start
    return elapsed, wl.check(i, out)


def run_ops(wl, tally: Tally, seconds: float, count: int | None = None, tracer=None):
    """Operations 0, 1, ... for ``seconds`` of wall time, stopping early after ``count``."""
    durations = array("d")
    gc.collect()
    start = perf_counter()
    i = 0
    while i == 0 or (perf_counter() - start < seconds and (count is None or i < count)):
        elapsed, outcome = _run_one(wl, i, tracer)
        durations.append(elapsed)
        tally.add(outcome)
        i += 1
    return np.frombuffer(durations)


def tail(durations: np.ndarray):
    """(percentile, value) of the highest ladder percentile with >= 10 samples beyond."""
    for pct in TAIL_LADDER:
        if len(durations) * (1.0 - pct / 100.0) >= 10.0:
            return pct, float(np.percentile(durations, pct))
    return None


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One benchmark run; returns everything it measured."""
    setup = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        el = load_package()
        wl = workloads.build(workload, el, seed, size)
        setup.append(perf_counter() - start)
    _run_one(wl, 0, None)  # warm-up: lazy imports and first-call costs

    tally = Tally()
    if not trace:
        durations = run_ops(wl, tally, seconds)
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(durations) / float(durations.sum()),
            "op_p50_ms": float(np.median(durations)) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        timing = {"ops": len(durations), "tail": tail(durations)}
    else:
        plain = run_ops(wl, tally, seconds / 2.0)
        tracer = spans.Tracer()
        with spans.patched(spans.seam_patches(tracer)):
            # The same operations again; the time cap only matters if the
            # host slows down a lot between the two passes.
            traced = run_ops(wl, tally, seconds, count=len(plain), tracer=tracer)
        plain = plain[: len(traced)]
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"{workload}.spans.json")
        metrics = spans.layer_metrics(tracer.spans, len(traced))
        metrics["trace.overhead_frac"] = float(traced.sum() / plain.sum()) - 1.0
        units = PER_LAYER
        timing = {"ops": len(traced), "plain_op_s": float(plain.mean()), "traced_op_s": float(traced.mean())}

    if hasattr(wl, "verify"):
        tally.add(wl.verify(0))
    checks = tally.checks()
    if trace:
        metrics["check.ghosts_per_op"] = tally.ghosts / tally.attempted
        metrics["check.max_err"] = tally.max_err
    return {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(seed),
        "timing": timing,
        "checks": checks,
        "notes": sorted(tally.notes),
        "result": {
            "correct": tally.failed == 0 and tally.misses == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        },
    }


def report_lines(run: dict) -> list[str]:
    lines = [
        f"echolat benchmark: workload={run['workload']} seconds={run['seconds']} trace={run['trace']}",
        "machine: " + json.dumps(run["machine"]),
        f"operations: {run['timing']['ops']}",
    ]
    for name, entry in run["result"]["metrics"].items():
        lines.append(f"{name} = {entry['value']:.6g} {entry['unit']}")
    if not run["trace"]:
        found = run["timing"]["tail"]
        if found is not None:
            pct, value = found
            beyond = int(run["timing"]["ops"] * (1.0 - pct / 100.0))
            lines.append(f"op_tail_ms = {value * 1e3:.6g} ms (p{pct:g} of {run['timing']['ops']} ops, {beyond} beyond)")
        else:
            lines.append("op_tail_ms = not reported (fewer than 10 operations beyond p90)")
    for name, unit in CHECKS.items():
        lines.append(f"{name} = {run['checks'][name]:.6g} {unit}")
    lines.extend(f"note: {note}" for note in run["notes"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    run = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(run, indent=1) + "\n")
    print("\n".join(report_lines(run)))
    print(json.dumps(run["result"]), flush=True)
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
