"""Small dense linear-algebra kernel used by the solvers.

It pins down the conventions the rest of the package relies on: how
numeric rank is decided, how a least-squares solve reports rank
deficiency, and how quadratic roots are classified in the presence of
degenerate leading coefficients.

Only :func:`numeric_rank` decides a rank, with numpy's SVD: singular
values against a relative cutoff.  The steps that produce digits do not go
through BLAS or LAPACK, and they share one recipe: the floats they read
become integers scaled by one common power of two (every double is an
integer times a power of two), the work is done exactly in integers, and
each result is rounded once, by one correctly rounded integer division.
:func:`least_squares_solve` eliminates with Bareiss' fraction-free method,
refusing only exactly dependent columns; :func:`exact_factor` does that
elimination once for a (k+1) x k matrix, so that each later solve on it is
a few integer dot products; :func:`fsum_dot` is one integer dot product.
Their results are the same under every BLAS kernel and on every IEEE-754
machine.  :func:`hadamard_ratio` still calls ``np.linalg.det``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import RankDeficient

#: Relative singular-value cutoff used for rank decisions package-wide.
DEFAULT_RANK_TOL = 1e-8


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return arr


def numeric_rank(a, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Rank of ``a``: singular values above ``rel_tol`` times the largest.

    The zero matrix has rank 0.  ``rel_tol`` must lie strictly between 0
    and 1; the default is shared by every rank decision in the package.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol}")
    arr = _as_matrix(a)
    if arr.size == 0:
        return 0
    sigma = np.linalg.svd(arr, compute_uv=False)
    if sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > rel_tol * sigma[0]))


def least_squares_solve(a, b) -> np.ndarray:
    """Least-squares solution of ``a @ x = b`` for full-column-rank ``a``.

    ``b`` is one right-hand side of length m, or an (m, r) array of r of
    them; the result has the same layout, with n rows in place of m.
    Raises :class:`RankDeficient` when the columns of ``a`` are exactly
    dependent, instead of returning one of infinitely many minimisers.
    No numeric rank is decided here: a caller that needs one decides it
    with :func:`numeric_rank` first, and a matrix that is only numerically
    deficient is solved.  A component past the largest double is ``±inf``.

    The solution is computed exactly, in integer arithmetic, and rounded
    once: it is the correctly rounded least-squares solution of the given
    floats, the same on every machine and under every BLAS library.  ``[a |
    b]`` becomes integers with one common scale, which cancels; a tall
    system is replaced by its normal equations, which are exact in
    integers; :func:`_bareiss` solves the square system.  The cost grows
    steeply with the column count; the solve is meant for the small
    systems the solvers build (at most a few dozen columns).
    """
    arr = _as_matrix(a)
    rhs = np.asarray(b, dtype=float)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != arr.shape[0]:
        raise ValueError(f"rhs shape {rhs.shape} does not match matrix {arr.shape}")
    if not np.isfinite(rhs).all():
        raise ValueError("rhs contains NaN or Inf entries")
    if arr.shape[0] < arr.shape[1]:
        raise ValueError(f"need at least as many rows as columns, got {arr.shape}")
    augmented = np.concatenate((arr, rhs[:, None] if rhs.ndim == 1 else rhs), axis=1)
    n, width = arr.shape[1], augmented.shape[1]
    ints, _ = _integers(augmented.ravel().tolist())  # the common scale cancels
    rows = [ints[i * width : (i + 1) * width] for i in range(len(augmented))]
    if len(rows) > n:
        cols = list(zip(*rows))
        rows = [[_dot(ci, cj) for cj in cols] for ci in cols[:n]]
    det, solutions = _bareiss(rows, n, width)
    rounded = [[_quotient(e, det, 0) for e in x] for x in solutions]
    if rhs.ndim == 1:
        return np.array(rounded[0])
    return np.array(rounded).reshape(rhs.shape[1], n).T


def _integers(values: list[float]) -> tuple[list[int], int]:
    """Integers ``k`` and one exponent ``e`` with ``values[i] == k[i] * 2**e`` exactly."""
    ratios = [value.as_integer_ratio() for value in values]
    # Every denominator is a power of two; scale all to the largest.
    top = max([den for _, den in ratios], default=1).bit_length()
    return [num << (top - den.bit_length()) for num, den in ratios], 1 - top


def _quotient(num: int, den: int, exponent: int) -> float:
    """``num * 2**exponent / den`` rounded once (``±inf`` past the doubles), shift first."""
    if exponent < 0:
        den <<= -exponent
    else:
        num <<= exponent
    try:
        return num / den + 0.0  # +0.0 scrubs negative zeros
    except OverflowError:
        return math.inf if (num > 0) == (den > 0) else -math.inf


def _dot(x, y) -> int:
    return sum(map(mul, x, y))


def _bareiss(rows: list[list[int]], n: int, width: int) -> tuple[int, list[list[int]]]:
    """Fraction-free (Bareiss) elimination of the integer system ``rows = [A | B]``.

    ``A`` is n x n and ``B`` fills the columns up to ``width``.  Every
    intermediate is an integer minor.  Returns ``d``, the determinant of
    ``A`` up to the sign of the row swaps, and for each column ``b`` of
    ``B`` the integer vector ``d A^-1 b`` (Cramer's rule), so that ``B`` =
    I gives the adjugate up to that sign.  ``rows`` is overwritten.
    Raises :class:`RankDeficient` when ``A`` is singular.
    """
    prev = 1
    for p in range(n):
        q = p
        while not rows[q][p]:
            q += 1
            if q == n:
                raise RankDeficient(f"matrix is singular: column {p} has no pivot")
        rows[p], rows[q] = rows[q], rows[p]
        pivot, tail = rows[p][p], rows[p][p + 1 :]
        for row in rows[p + 1 :]:
            f = row[p]
            row[p + 1 :] = [(pivot * e - f * w) // prev for e, w in zip(row[p + 1 :], tail)]
        prev = pivot
    # Back substitution for X = det * x, which is integral (Cramer's rule).
    det = prev
    solutions = []
    for c in range(n, width):
        x = [0] * n
        for i in reversed(range(n)):
            row = rows[i]
            x[i] = (det * row[c] - sum(map(mul, row[i + 1 : n], x[i + 1 :]))) // row[i]
        solutions.append(x)
    return det, solutions


@dataclass(frozen=True, eq=False)
class ExactFactor:
    """An exact factorisation of a (k+1) x k matrix ``G`` of rank k.

    ``G`` is held as integers times ``2**exponent``.  ``block`` lists the k
    rows of an invertible square block of those integers; ``det`` is its
    determinant up to sign and ``adjugate`` the matching ``det * inverse``,
    row by row, both from one :func:`_bareiss` pass over [block | I].
    ``null`` is the left null vector of ``G`` made of signed k-minors
    (``null @ G == 0``), with ``det`` at the row the block leaves out.
    Every result is the exact rational, rounded once per component, so a
    solve agrees bit for bit with :func:`least_squares_solve` on the same
    system.  Build one with :func:`exact_factor`.
    """

    exponent: int
    block: tuple[int, ...]
    det: int
    adjugate: tuple[tuple[int, ...], ...]
    null: tuple[int, ...]

    def solve_bordered(self, column: list[float], rhs: list[float]) -> list[float] | None:
        """The solution ``(t, y)`` of ``t * column + G y = rhs``.

        The bordered matrix is singular exactly when ``null @ column`` is 0,
        and then None is returned.  Otherwise t is ``null @ rhs / null @
        column`` and ``y`` is the block's inverse applied to ``rhs - t *
        column``, each scaled to integers so that one division rounds each
        component.
        """
        ints, exponent = _integers([*column, *rhs])  # the common scale cancels in t
        c, b = ints[: len(column)], ints[len(column) :]
        t_den = _dot(self.null, c)
        if not t_den:
            return None
        t_num = _dot(self.null, b)
        reduced = [b[i] * t_den - c[i] * t_num for i in self.block]
        den = self.det * t_den
        shift = exponent - self.exponent
        return [_quotient(t_num, t_den, 0)] + [
            _quotient(_dot(row, reduced), den, shift) for row in self.adjugate
        ]

    def local_inverse(self) -> np.ndarray:
        """The inverse of the block in the frame of the row it leaves out, rounded once.

        For a ``G`` whose last column is -1, such as (2 a_i, -1), moving the
        origin to the left-out row ``(g, -1)`` turns the block into the block
        times T = [[I, 0], [g, 1]].  Its inverse keeps the first k-1 rows of
        the block's; the last row, the block's last row minus ``g`` times
        them, is ``null`` over ``det`` on the block.
        """
        rows = [[_quotient(e, self.det, -self.exponent) for e in row] for row in self.adjugate[:-1]]
        rows.append([_quotient(self.null[i], self.det, 0) for i in self.block])
        return np.array(rows)


def exact_factor(a) -> ExactFactor | None:
    """The :class:`ExactFactor` of a (k+1) x k matrix, None if its rank is below k.

    The block leaves out the last row it can, so a generic matrix needs one
    Bareiss pass.
    """
    arr = _as_matrix(a)
    count, k = arr.shape
    if count != k + 1:
        raise ValueError(f"need k+1 rows for k columns, got shape {arr.shape}")
    ints, exponent = _integers(arr.ravel().tolist())
    rows = [ints[i : i + k] for i in range(0, len(ints), k)]
    unit = [[int(i == j) for j in range(k)] for i in range(k)]
    for drop in reversed(range(count)):
        block = tuple(i for i in range(count) if i != drop)
        try:
            det, inverse = _bareiss([rows[i] + e for i, e in zip(block, unit)], k, 2 * k)
        except RankDeficient:
            continue
        # null @ G = 0: the dropped row weighs det, the block rows -row @ adjugate.
        null = [det] * count
        for i, column in zip(block, inverse):
            null[i] = -_dot(rows[drop], column)
        return ExactFactor(exponent, block, det, tuple(zip(*inverse)), tuple(null))
    return None


def fsum_dot(x: list[float], y: list[float], addend: float = 0.0) -> float:
    """Correctly rounded ``sum(x_i * y_i) + addend`` of finite Python floats.

    The sum is exact in integers and rounded once, over the whole finite
    range: a result past the largest double is ``±inf``.
    """
    ints, exponent = _integers([addend, *x] if y is x else [addend, *x, *y])
    xs = ints[1 : len(x) + 1]
    total = _dot(xs, xs if y is x else ints[len(x) + 1 :]) + (ints[0] << -exponent)
    return _quotient(total, 1, 2 * exponent)


def hadamard_ratio(stack) -> np.ndarray:
    """|det| of each matrix in a (k, m, m) stack over the product of its row norms.

    Hadamard's inequality bounds each of the k ratios by 1, so each is a
    scale-free measure of how far its matrix is from singular.  The
    all-zero matrix (0/0) maps to 0 by convention.  The entries are not
    checked: a NaN or Inf entry gives NaN.
    """
    arr = np.asarray(stack, dtype=float)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError(f"need a (k, m, m) stack of square matrices, got shape {arr.shape}")
    dets = np.abs(np.linalg.det(arr))
    denom = np.prod(np.sqrt((arr * arr).sum(axis=-1)), axis=-1)
    return np.divide(dets, denom, out=np.zeros(denom.shape), where=denom > 0.0)


class RootKind(enum.Enum):
    """Classification returned by :func:`solve_quadratic`."""

    TWO_REAL = "two-real"
    ONE_REAL = "one-real"
    NO_REAL = "no-real"
    DEGENERATE_LINEAR = "degenerate-linear"
    DEGENERATE_ALL = "degenerate-all"


@dataclass(frozen=True)
class QuadraticRoots:
    kind: RootKind
    roots: tuple[float, ...]


def solve_quadratic(a: float, b: float, c: float, tol: float = 0.0) -> QuadraticRoots:
    """Real roots of ``a t^2 + b t + c = 0`` with degeneracy classification.

    Coefficients with ``|a| <= tol`` are treated as a linear equation
    (``DEGENERATE_LINEAR``); if ``|b| <= tol`` as well the equation carries
    no information (``DEGENERATE_ALL``, no roots).  Otherwise the usual
    two/one/zero real-root cases apply, with roots sorted ascending and
    computed in the sign-stable form q = -(b + sign(b) sqrt(disc)) / 2,
    roots q/a and c/q, which avoids cancellation for small ``c``.
    """
    if tol < 0.0:
        raise ValueError(f"tol must be non-negative, got {tol}")
    for name, value in (("a", a), ("b", b), ("c", c)):
        if not math.isfinite(value):
            raise ValueError(f"coefficient {name} is not finite: {value}")
    if abs(a) <= tol:
        if abs(b) <= tol:
            return QuadraticRoots(RootKind.DEGENERATE_ALL, ())
        return QuadraticRoots(RootKind.DEGENERATE_LINEAR, (-c / b + 0.0,))
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return QuadraticRoots(RootKind.NO_REAL, ())
    if disc == 0.0:
        return QuadraticRoots(RootKind.ONE_REAL, (-b / (2.0 * a) + 0.0,))
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    lo, hi = sorted((q / a + 0.0, c / q + 0.0))  # +0.0 scrubs negative zeros
    return QuadraticRoots(RootKind.TWO_REAL, (lo, hi))
