"""Spans around echolat's layer boundaries, and the per-layer metrics they give.

The benchmark wraps public functions at the module-global names through which
the package (or the benchmark itself) calls them, so nothing under ``src/`` is
edited.  A span is ``[name, start, end, parent, info]`` and stays in memory
until the run ends.  A seam that a later version of the package no longer has
is skipped, and its layer then reads zero calls.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _solve_info(args, result):
    return (result.path.value, sum(1 for c in result.candidates if not c.spurious))


def _match_info(args, result):
    return (result.candidate_tuples, result.pruned_tuples, result.evaluated_tuples,
            result.accepted_tuples, len(result.events))


def _rows_info(args, result):
    return len(args[0])


#: (module, attribute, span name, info extractor).  The first three are the
#: benchmark's own entry points; the rest are the calls between layers.
SEAMS = (
    ("echolat", "solve", "lateration.solve", _solve_info),
    ("echolat", "match_events", "matching.match_events", _match_info),
    ("echolat.cli", "main", "cli.main", None),
    ("echolat.linalg", "numeric_rank", "linalg.numeric_rank", None),
    ("echolat.linalg", "least_squares_solve", "linalg.least_squares_solve", None),
    ("echolat.matching", "solve", "lateration.solve", _solve_info),
    ("echolat.matching", "batched_relation_residuals", "relations.screen", _rows_info),
    ("echolat.acoustics", "match_events", "matching.match_events", _match_info),
    ("echolat.acoustics", "simulate_echoes", "acoustics.simulate_echoes", None),
    ("echolat.acoustics", "detect_walls", "acoustics.detect_walls", None),
    ("echolat.acoustics", "batched_relation_residuals", "acoustics.margin", _rows_info),
    ("echolat.cli", "load_scenario", "scenario.load_scenario", None),
    ("echolat.cli", "goodness_check", "acoustics.goodness_check", None),
)

#: Per-layer metrics that are self times; with the op span's own self time
#: they add up to the traced operation's wall time.
SELF_TIME_METRICS = (
    "matching.self_s", "relations.screen_s", "lateration.solve_self_s",
    "linalg.rank_s", "linalg.lstsq_s", "acoustics.margin_s",
    "acoustics.goodness_self_s", "acoustics.simulate_s", "acoustics.mapping_s",
    "scenario.load_s", "cli.self_s",
)


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        rec = [name, perf_counter(), 0.0, parent, None]
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, fn, name: str, info=None):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[4] = type(exc).__name__
                raise
            finally:
                self._close(rec)
            if info is not None:
                rec[4] = info(args, result)
            return result

        return traced

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "fields": ["name", "start", "end", "parent", "info"],
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


@contextmanager
def patched(replacements):
    """Set ``(module, attr, value)`` triples, restoring the originals on exit."""
    saved = []
    try:
        for module, attr, value in replacements:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def seam_patches(tracer: Tracer):
    """Wrappers for every seam the loaded package still has."""
    out = []
    for modname, attr, name, info in SEAMS:
        module = importlib.import_module(modname)
        fn = getattr(module, attr, None)
        if fn is not None:
            out.append((module, attr, tracer.wrap(fn, name, info)))
    return out


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(spans: list[list], ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``ops`` traced operations.

    ``*_s`` values and counts are per operation; the rest are ratios or
    per-call figures.
    """
    n = len(spans)
    names = np.array([s[0] for s in spans], dtype=object)
    start = np.array([s[1] for s in spans], dtype=float)
    end = np.array([s[2] for s in spans], dtype=float)
    parent = np.array([s[3] for s in spans], dtype=int)
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child

    def pick(name):
        return np.flatnonzero(names == name)

    def total(idx, arr):
        return float(arr[idx].sum())

    solve = pick("lateration.solve")
    rank = pick("linalg.numeric_rank")
    lstsq = pick("linalg.least_squares_solve")
    match = pick("matching.match_events")
    screen = pick("relations.screen")
    margin = pick("acoustics.margin")
    info = [spans[i][4] for i in range(n)]

    ok_solves = [info[i] for i in solve if isinstance(info[i], tuple)]
    full_us = [dur[i] * 1e6 for i in solve if isinstance(info[i], tuple) and info[i][0] == "full-rank"]
    quad_us = [dur[i] * 1e6 for i in solve if isinstance(info[i], tuple) and info[i][0] == "quadratic"]
    is_solve = names == "lateration.solve"
    ranks_in_solve = 0
    for i in rank:
        p = parent[i]
        while p >= 0 and not is_solve[p]:
            p = parent[p]
        ranks_in_solve += p >= 0
    counts = np.array([info[i] for i in match if isinstance(info[i], tuple)], dtype=float).reshape(-1, 5)
    candidate, pruned, evaluated, accepted, events = counts.sum(axis=0)
    screen_rows = sum(info[i] for i in screen if isinstance(info[i], int))
    margin_rows = sum(info[i] for i in margin if isinstance(info[i], int))

    return {
        "matching.self_s": total(match, self_t) / ops,
        "matching.us_per_survivor": _ratio(total(match, self_t) * 1e6, evaluated),
        "matching.survivors": evaluated / ops,
        "matching.prune_ratio": _ratio(pruned, candidate),
        "matching.accept_ratio": _ratio(accepted, evaluated),
        "matching.events_per_accept": _ratio(events, accepted),
        "matching.calls": len(match) / ops,
        "relations.screen_s": total(screen, dur) / ops,
        "relations.screen_rows": screen_rows / ops,
        "relations.screen_calls": len(screen) / ops,
        "relations.screen_ns_per_row": _ratio(total(screen, dur) * 1e9, screen_rows),
        "lateration.solve_calls": len(solve) / ops,
        "lateration.full_rank_us": float(np.median(full_us)) if full_us else 0.0,
        "lateration.quadratic_us": float(np.median(quad_us)) if quad_us else 0.0,
        "lateration.solve_self_s": total(solve, self_t) / ops,
        "lateration.viable_per_solve": _ratio(sum(v for _, v in ok_solves), len(ok_solves)),
        "lateration.numeric_failures": float(sum(isinstance(info[i], str) for i in solve)),
        "linalg.rank_calls_per_solve": _ratio(ranks_in_solve, len(solve)),
        "linalg.rank_s": total(rank, dur) / ops,
        "linalg.lstsq_s": total(lstsq, self_t) / ops,
        "acoustics.margin_s": total(margin, dur) / ops,
        "acoustics.margin_rows": margin_rows / ops,
        "acoustics.goodness_self_s": total(pick("acoustics.goodness_check"), self_t) / ops,
        "acoustics.simulate_s": total(pick("acoustics.simulate_echoes"), dur) / ops,
        "acoustics.mapping_s": total(pick("acoustics.detect_walls"), self_t) / ops,
        "scenario.load_s": total(pick("scenario.load_scenario"), dur) / ops,
        "cli.self_s": total(pick("cli.main"), self_t) / ops,
    }
