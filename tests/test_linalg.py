"""Tests for the dense linear-algebra kernel."""

from __future__ import annotations

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import echolat as el
from echolat.linalg import exact_factor, fsum_dot, hadamard_ratio
from oracles import frac_matrix, frac_solve

# exactly zero or of sane magnitude; subnormal coefficients overflow any
# representation of the roots and are outside the solver's domain
coeff = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(min_value=-1e6, max_value=-1e-6),
)
finite = st.floats(allow_nan=False, allow_infinity=False)


def test_numeric_rank_basics():
    assert el.numeric_rank(np.eye(3)) == 3
    assert el.numeric_rank(np.zeros((4, 2))) == 0
    outer = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
    assert el.numeric_rank(outer) == 1
    # a row that is numerically dependent at the tolerance
    a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0 + 1e-12]])
    assert el.numeric_rank(a) == 2


def test_numeric_rank_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        el.numeric_rank(np.eye(2), rel_tol=0.0)
    with pytest.raises(ValueError):
        el.numeric_rank(np.eye(2), rel_tol=1.5)
    with pytest.raises(ValueError):
        el.numeric_rank(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@given(st.integers(0, 5), st.floats(min_value=0.01, max_value=100.0))
def test_numeric_rank_scale_and_permutation_invariant(seed, scale):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(5, 3))
    rank = el.numeric_rank(a)
    assert el.numeric_rank(scale * a) == rank
    assert el.numeric_rank(a[rng.permutation(5)]) == rank


def test_stacked_numeric_rank_equals_the_per_matrix_ranks():
    rng = np.random.default_rng(2207)
    stacks = [rng.normal(size=(k, 5, 5)) * rng.choice([1e-3, 1.0, 1e3], size=(k, 1, 1))
              for k in (1, 7, 40)]
    special = rng.normal(size=(6, 5, 5))
    special[0] = 0.0  # the zero matrix
    special[1, :, 4] = special[1, :, :4] @ [1.0, -2.0, 0.5, 3.0]  # exactly dependent column
    u, _, vt = np.linalg.svd(rng.normal(size=(4, 5, 5)))
    for i, ratio in enumerate((2e-8, 5e-9, 1.5e-8, 1e-9)):  # both sides of rel_tol
        special[i + 2] = (u[i] * [1.0, 0.5, 0.25, 0.125, ratio]) @ vt[i]
    for stack in stacks + [special, rng.normal(size=(3, 6, 4)), np.zeros((0, 5, 5))]:
        ranks = el.numeric_rank(stack)
        assert ranks.shape == (len(stack),)
        assert ranks.tolist() == [el.numeric_rank(a) for a in stack]
    assert el.numeric_rank(special).tolist()[:6] == [0, 4, 5, 4, 5, 4]
    assert type(el.numeric_rank(special[3])) is int
    with pytest.raises(ValueError):
        el.numeric_rank(np.zeros((2, 2, 2, 2)))


def test_least_squares_residual_is_orthogonal_to_columns():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(7, 4))
    b = rng.normal(size=7)
    x = el.least_squares_solve(a, b)
    residual = a @ x - b
    assert np.abs(a.T @ residual).max() < 1e-10


def test_least_squares_exact_system():
    a = np.array([[2.0, 0.0], [0.0, 4.0], [1.0, 1.0]])
    x = np.array([3.0, -0.5])
    sol = el.least_squares_solve(a, a @ x)
    assert np.allclose(sol, x, atol=1e-12)


def test_least_squares_rank_deficient_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # second col = 2x first
    with pytest.raises(el.RankDeficient):
        el.least_squares_solve(a, np.ones(3))


def test_least_squares_shape_validation():
    with pytest.raises(ValueError):
        el.least_squares_solve(np.eye(2), np.ones(3))
    with pytest.raises(ValueError):
        el.least_squares_solve(np.ones((2, 3)), np.ones(2))  # more cols than rows


def _exact_least_squares(a, b):
    """Exact least-squares solution of float data, by the normal equations."""
    rows = frac_matrix(a.tolist())
    cols = list(zip(*rows))
    gram = [[sum(x * y for x, y in zip(ci, cj)) for cj in cols] for ci in cols]
    rhs = [sum(x * F(y) for x, y in zip(ci, b.tolist())) for ci in cols]
    return frac_solve(gram, rhs)


def test_least_squares_is_correctly_rounded():
    # the solve is exact and rounds once, so it equals the rational oracle
    # rounded to the nearest float, square or tall, however conditioned
    rng = np.random.default_rng(23)
    for rows, cols in ((4, 4), (5, 5), (7, 4), (6, 3)):
        a = rng.normal(size=(rows, cols))
        a[:, -1] = a[:, 0] + 1e-6 * a[:, -1]  # condition number near 1e6
        b = rng.normal(size=rows)
        expected = [float(x) for x in _exact_least_squares(a, b)]
        assert el.least_squares_solve(a, b).tolist() == expected
        # rows and columns scaled by powers of two from 2**-60 to 2**60
        row_exp, col_exp = rng.integers(-60, 61, rows), rng.integers(-60, 61, cols)
        a, b = np.ldexp(a, row_exp[:, None] + col_exp), np.ldexp(b, row_exp)
        expected = [float(x) for x in _exact_least_squares(a, b)]
        assert el.least_squares_solve(a, b).tolist() == expected


def test_least_squares_several_right_hand_sides():
    rng = np.random.default_rng(29)
    a = rng.normal(size=(6, 4))
    b = rng.normal(size=(6, 3))
    x = el.least_squares_solve(a, b)
    assert x.shape == (4, 3)
    for j in range(3):
        assert x[:, j].tolist() == el.least_squares_solve(a, b[:, j]).tolist()


def test_least_squares_with_known_rank():
    a = np.array([[2.0, 0.0], [0.0, 4.0], [1.0, 1.0]])
    assert el.least_squares_solve(a, [6.0, -2.0, 2.5]).tolist() == [3.0, -0.5]
    # numerically deficient at the default rank_tol, but not exactly: solved
    near = np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-40]])
    assert el.numeric_rank(near) == 1
    assert el.least_squares_solve(near, [2.0, 2.0 + 2.0**-40]).tolist() == [1.0, 1.0]


def test_least_squares_solution_past_the_double_range_is_inf():
    a = [[2.0**-1000, 0.0], [0.0, 1.0]]
    assert el.least_squares_solve(a, [-(2.0**100), 3.0]).tolist() == [-math.inf, 3.0]
    assert el.least_squares_solve(a, [2.0**100, 3.0]).tolist() == [math.inf, 3.0]


def test_exact_factor_shapes_rank_and_null_vector():
    for shape in ((3, 1), (2, 2)):
        with pytest.raises(ValueError):
            exact_factor(np.ones(shape))
    # every 2-row block is singular, so no block can be factored
    assert exact_factor([[1.0, 2.0], [2.0, 4.0], [-3.0, -6.0]]) is None
    # the first two rows are dependent, so the block cannot drop the last row
    g = [[1.0, 3.0], [2.0, 6.0], [2.0, 1.0]]
    factor = exact_factor(g)
    assert factor.block == (0, 2)
    assert [sum(F(w) * F(row[j]) for w, row in zip(factor.null, g)) for j in range(2)] == [0, 0]
    assert factor.solve_bordered([1.0, 2.0, 5.0], [1.0, 2.0, 3.0]) is None  # null @ column == 0
    x = factor.solve_bordered([1.0, 0.0, 0.0], [1.0, 2.0, 3.0])
    a = [[c] + row for c, row in zip([1.0, 0.0, 0.0], g)]
    assert x == el.least_squares_solve(a, [1.0, 2.0, 3.0]).tolist()


def _rounded(exact: F) -> float:
    """``exact`` rounded to the nearest double, +-inf past the largest one."""
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=6), finite)
@example([(1e-200, 1e-120)], 0.0)  # a product in the subnormal range
@example([(3e-170, 7e-160), (-1e-300, 1e-20)], 5e-324)
@example([(1e300, 1e10), (-1e300, 1e10)], 1.0)  # products past the range cancel
@example([(1e200, 1e200), (1e200, 1e200)], 0.0)  # past the range: inf
@example([(-1e300, 1e10)], -1.7e308)
@example([(1.7e308, 1.0)], 1.7e308)  # two finite terms whose sum overflows
def test_fsum_dot_is_correctly_rounded(pairs, addend):
    # the whole finite range: one exact sum, rounded once
    x, y = (list(v) for v in zip(*pairs))
    assert fsum_dot(x, y, addend) == _rounded(sum(F(a) * F(b) for a, b in pairs) + F(addend))
    assert fsum_dot(x, x) == _rounded(sum(F(a) * F(a) for a in x))


def test_hadamard_ratio_bounds():
    rng = np.random.default_rng(5)
    ratios = hadamard_ratio(rng.normal(size=(50, 4, 4)))
    assert ratios.shape == (50,)
    assert np.all((0.0 <= ratios) & (ratios <= 1.0 + 1e-12))
    assert hadamard_ratio(np.stack([np.zeros((3, 3)), np.eye(3)])).tolist() == [0.0, 1.0]
    with pytest.raises(ValueError):
        hadamard_ratio(np.eye(3))  # one matrix is a stack of one: eye(3)[None]


def test_quadratic_classification_examples():
    two = el.solve_quadratic(1.0, 0.0, -4.0)
    assert two.kind is el.RootKind.TWO_REAL and two.roots == (-2.0, 2.0)
    one = el.solve_quadratic(1.0, 2.0, 1.0)
    assert one.kind is el.RootKind.ONE_REAL and one.roots == (-1.0,)
    none = el.solve_quadratic(1.0, 0.0, 1.0)
    assert none.kind is el.RootKind.NO_REAL and none.roots == ()
    lin = el.solve_quadratic(0.0, 2.0, 0.0)
    assert lin.kind is el.RootKind.DEGENERATE_LINEAR and lin.roots == (0.0,)
    degenerate = el.solve_quadratic(0.0, 0.0, 1.0)
    assert degenerate.kind is el.RootKind.DEGENERATE_ALL and degenerate.roots == ()


def test_quadratic_golden_rational_coefficients():
    # coefficients from the two-candidate 3D dataset, exact in rationals
    a, b = float(F(38173, 3025)), float(F(152, 55))
    roots = el.solve_quadratic(a, b, 0.0)
    assert roots.kind is el.RootKind.TWO_REAL
    assert roots.roots[0] == pytest.approx(float(F(-8360, 38173)), rel=1e-14)
    assert roots.roots[1] == 0.0


def test_quadratic_tolerance_validation():
    with pytest.raises(ValueError):
        el.solve_quadratic(1.0, 1.0, 1.0, tol=-1.0)
    with pytest.raises(ValueError):
        el.solve_quadratic(float("nan"), 1.0, 1.0)


@given(coeff, coeff, coeff)
def test_quadratic_root_residual_bound(a, b, c):
    result = el.solve_quadratic(a, b, c)
    for root in result.roots:
        scale = abs(a) * root * root + abs(b) * abs(root) + abs(c) + 1.0
        assert abs(a * root * root + b * root + c) <= 1e-10 * scale


@given(coeff, coeff, coeff)
def test_quadratic_roots_sorted_and_finite(a, b, c):
    result = el.solve_quadratic(a, b, c)
    assert list(result.roots) == sorted(result.roots)
    assert all(np.isfinite(result.roots))
    if result.kind is el.RootKind.TWO_REAL:
        assert len(result.roots) == 2
    elif result.kind in (el.RootKind.ONE_REAL, el.RootKind.DEGENERATE_LINEAR):
        assert len(result.roots) == 1
    else:
        assert result.roots == ()
