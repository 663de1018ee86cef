"""Slow-but-exact reference implementations for cross-checking.

The rational-arithmetic oracles are independent of numpy.  They derive the
frozen expected values in the golden tests and cross-check float results:
Gaussian elimination and determinants over ``fractions.Fraction``, plus the
exact form of the reduced time-line solution (u, alpha, v, beta) for a
sensor/time dataset.  :func:`survivor_blocks` is the matcher's original
element-by-element window walk, kept as the reference for the vectorised
walk in :mod:`echolat.matching`.
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
    gt = _transpose(g)
    gram = _matmul(gt, g)
    lhs_t = _matvec(gt, [2 * x for x in t])
    rhs = [sum(x * x for x in row) - ti * ti for row, ti in zip(pos, t)]
    lhs_c = _matvec(gt, rhs)
    yt = frac_solve(gram, lhs_t)
    yc = frac_solve(gram, lhs_c)
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
