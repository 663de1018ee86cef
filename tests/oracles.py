"""Slow-but-exact reference implementations for cross-checking.

The rational-arithmetic oracles are independent of numpy.  They derive the
frozen expected values in the golden tests and cross-check float results:
Gaussian elimination and determinants over ``fractions.Fraction``, plus the
exact form of the reduced time-line solution (u, alpha, v, beta) for a
sensor/time dataset.  :func:`survivor_blocks` is the matcher's original
element-by-element window walk, kept as the reference for the vectorised
walk in :mod:`echolat.matching`, and :func:`prediction_screen` is the
reference for its prediction screen, one prefix and one :func:`echolat.solve`
at a time, and :func:`screen_rows` the reference for the vectorised pick
of one piece's (prefix, arrival) pairs.  :func:`dedup_events` is the
matcher's original quadratic dedup loop, the reference for its windowed one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

import numpy as np


def frac(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def frac_matrix(rows) -> list[list[Fraction]]:
    return [[frac(x) for x in row] for row in rows]


def frac_det(rows) -> Fraction:
    """Determinant by fraction-exact Gaussian elimination."""
    a = frac_matrix(rows)
    k = len(a)
    det = Fraction(1)
    for col in range(k):
        pivot = next((r for r in range(col, k) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, k):
            factor = a[r][col] * inv
            if factor:
                for c in range(col, k):
                    a[r][c] -= factor * a[col][c]
    return det


def frac_solve(rows, rhs) -> list[Fraction]:
    """Solve a square exact system by elimination with back substitution."""
    a = frac_matrix(rows)
    b = [frac(x) for x in rhs]
    k = len(a)
    for col in range(k):
        pivot = next(r for r in range(col, k) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        inv = 1 / a[col][col]
        for r in range(col + 1, k):
            factor = a[r][col] * inv
            if factor:
                for c in range(col, k):
                    a[r][c] -= factor * a[col][c]
                b[r] -= factor * b[col]
    x = [Fraction(0)] * k
    for row in reversed(range(k)):
        acc = b[row] - sum(a[row][c] * x[c] for c in range(row + 1, k))
        x[row] = acc / a[row][row]
    return x


def _transpose(rows):
    return [list(col) for col in zip(*rows)]


def _matmul(a, b):
    bt = _transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _matvec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def reduced_time_line(sensors, times):
    """Exact (u, alpha, v, beta) of the geometry-reduced solution line.

    ``sensors`` is a list of rational position rows, ``times`` the matching
    reception times.  Solves the normal equations of the m x (n+1) system
    with rows (2 a_i, -1) against 2*times and against ||a_i||^2 - t_i^2.
    """
    pos = frac_matrix(sensors)
    t = [frac(x) for x in times]
    n = len(pos[0])
    g = [[2 * x for x in row] + [Fraction(-1)] for row in pos]
    rhs_t = [2 * x for x in t]
    rhs_c = [sum(x * x for x in row) - ti * ti for row, ti in zip(pos, t)]
    if len(g) > n + 1:  # normal equations; a square system is solved as it is
        gt = _transpose(g)
        g, rhs_t, rhs_c = _matmul(gt, g), _matvec(gt, rhs_t), _matvec(gt, rhs_c)
    yt = frac_solve(g, rhs_t)
    yc = frac_solve(g, rhs_c)
    return yt[:n], yt[n], yc[:n], yc[n]


def reduced_quadratic(sensors, times):
    """Exact coefficients (a, b, c) of the reduced emission-time quadratic."""
    u, alpha, v, beta = reduced_time_line(sensors, times)
    a = sum(x * x for x in u) - 1
    b = 2 * sum(x * y for x, y in zip(u, v)) - alpha
    c = sum(x * x for x in v) - beta
    return a, b, c


def survivor_blocks(
    arrays: tuple[np.ndarray, ...],
    dist: np.ndarray,
    slack: float,
    counters: dict,
) -> Iterator[tuple[np.ndarray, int, int]]:
    """Walk the pruned product, yielding (prefix_times, lo, hi) blocks.

    A block stands for all tuples sharing ``prefix_times`` over the first
    m-1 sensors, with the last entry ranging over ``arrays[-1][lo:hi]``.
    ``counters['pruned']`` accumulates the exact number of full-product
    tuples skipped by window pruning.
    """
    m = len(arrays)
    sizes = [arr.size for arr in arrays]
    suffix = [1] * (m + 1)
    for i in reversed(range(m)):
        suffix[i] = suffix[i + 1] * sizes[i]
    prefix = np.empty(max(m - 1, 1))

    def rec(level: int) -> Iterator[tuple[np.ndarray, int, int]]:
        arr = arrays[level]
        if level == 0:
            lo, hi = 0, arr.size
        else:
            chosen = prefix[:level]
            lo_t = float(np.max(chosen - dist[:level, level])) - slack
            hi_t = float(np.min(chosen + dist[:level, level])) + slack
            lo = int(np.searchsorted(arr, lo_t, side="left"))
            hi = int(np.searchsorted(arr, hi_t, side="right"))
            if hi < lo:
                hi = lo
        counters["pruned"] += (sizes[level] - (hi - lo)) * suffix[level + 1]
        if level == m - 1:
            if hi > lo:
                yield prefix[: m - 1].copy(), lo, hi
            return
        for i in range(lo, hi):
            prefix[level] = arr[i]
            yield from rec(level + 1)

    yield from rec(0)


def survivor_rows(arrays: tuple[np.ndarray, ...], dist: np.ndarray, slack: float) -> list[tuple]:
    """Every tuple :func:`survivor_blocks` stands for, in walk order."""
    return [
        tuple(prefix.tolist()) + (value,)
        for prefix, lo, hi in survivor_blocks(arrays, dist, slack, {"pruned": 0})
        for value in arrays[-1][lo:hi].tolist()
    ]


def prediction_screen(sensors, table, threshold: float = 1e-6):
    """The matcher's prediction screen, one prefix at a time.

    The held-out sensor is the last one whose removal leaves the others'
    G = (2 a_i, -1) with a nonzero exact determinant.  With scale =
    diameter + span, the prefixes are the window survivors over the other
    sensors at slack 1e-9 scale + 1e-12; :func:`survivor_blocks` walks them
    with the held-out list last, so each block's (lo, hi) is that prefix's
    window in it.  Each prefix is solved on its own n+1 sensors with
    :func:`echolat.solve`.  A prefix whose quadratic has |a| <= 1e-9,
    |a| > 1e6 or |disc| <= 1e-12 scale^2 screens its whole window, all
    near; otherwise each candidate that solve does not flag as spurious
    predicts ``t + ||a_held - x||`` and screens the window's arrivals within
    tau = 1e-2 max(threshold, 1e-6) scale of it (near), or else the
    window's arrival nearest to it.  Where solve raises (no real root),
    the fragile rules read :func:`reduced_quadratic`, and a prefix that
    none of them marks screens nothing.  Returns the held-out index and the (row, near)
    pairs in walk order, each row in the original sensor order.
    """
    import echolat as el

    m, n = sensors.positions.shape
    geometry = [[2 * frac(x) for x in row] + [Fraction(-1)] for row in sensors.positions.tolist()]
    held = next(h for h in reversed(range(m)) if frac_det(geometry[:h] + geometry[h + 1:]) != 0)
    scale = sensors.diameter() + table.span()
    slack = 1e-9 * scale + 1e-12
    tau = 1e-2 * max(threshold, 1e-6) * scale
    keep = [i for i in range(m) if i != held]
    order = keep + [held]
    dist = sensors.pairwise_distances()[np.ix_(order, order)]
    sub = el.SensorArray(sensors.positions[keep])
    target = sensors.positions[held]
    last = table.times[held]
    out = []
    walk = survivor_blocks(tuple(table.times[i] for i in order), dist, slack, {"pruned": 0})
    for prefix, lo, hi in walk:
        window = range(lo, hi)
        near, lone = set(), set()
        try:
            result = el.solve(sub, prefix)
            (a, b, c), candidates = result.quadratic, result.candidates
        except el.NumericError:
            a, b, c = map(float, reduced_quadratic(sub.positions.tolist(), prefix.tolist()))
            candidates = ()
        if not 1e-9 < abs(a) <= 1e6 or abs(b * b - 4.0 * a * c) <= 1e-12 * scale * scale:
            near.update(window)
        for cand in candidates if not near else ():
            if cand.spurious:
                continue
            gap = target - cand.event.position
            pred = cand.event.time + float(np.sqrt((gap * gap).sum()))
            hits = {j for j in window if abs(last[j] - pred) <= tau}
            near |= hits
            if not hits:
                lone.add(min(window, key=lambda j: (abs(last[j] - pred), j)))
        for j in sorted(near | lone):
            row = np.empty(m)
            row[keep] = prefix
            row[held] = last[j]
            out.append((tuple(row.tolist()), j in near))
    return held, out


def screen_rows(arrivals, wlo, whi, predicted, fragile, tau, screen_all=False) -> list:
    """The (prefix, arrival, near) triples of ``matching._screen_rows``, one prefix at a time.

    Prefix i's window is ``arrivals[wlo[i]:whi[i]]``.  A fragile prefix
    picks its whole window, near.  Each prediction that is not NaN picks the
    window's arrivals a with guess - tau <= a <= guess + tau in floats,
    near, and, only with ``screen_all`` and when it picked none, the window
    arrival nearest to it, the earlier one on a tie.  Returns the distinct
    pairs in (prefix, arrival) order; a pair is near if any pick of it is.
    """
    arrivals = arrivals.tolist()
    out = []
    for i, (lo, hi) in enumerate(zip(wlo.tolist(), whi.tolist())):
        window = range(lo, hi)
        near = set(window) if fragile[i] else set()
        lone = set()
        for guess in predicted[i].tolist():
            if guess != guess:
                continue
            hits = {j for j in window if guess - tau <= arrivals[j] <= guess + tau}
            near |= hits
            if screen_all and window and not hits:
                lone.add(min(window, key=lambda j: (abs(arrivals[j] - guess), j)))
        out.extend((i, j, j in near) for j in sorted(near | lone))
    return out


def dedup_events(found, time_eps: float, pos_eps: float) -> list:
    """The matcher's event dedup, every event against every representative.

    Events are taken in (time, position) order.  Each joins the first
    representative within ``time_eps`` in time and ``pos_eps`` in every
    coordinate, replacing it when its residual is smaller, or else becomes
    a representative itself.  Returns the representatives in the same order.
    """
    def key(ev):
        return (ev.event_time, tuple(ev.position))

    reps = []
    for ev in sorted(found, key=key):
        for i, rep in enumerate(reps):
            if (
                abs(ev.event_time - rep.event_time) <= time_eps
                and np.max(np.abs(ev.position - rep.position)) <= pos_eps
            ):
                if ev.residual < rep.residual:
                    reps[i] = ev
                break
        else:
            reps.append(ev)
    return sorted(reps, key=key)
