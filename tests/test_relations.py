"""Tests for the time-consistency relation matrix and its residual."""

from __future__ import annotations

import numpy as np
import pytest

import echolat as el
from conftest import random_event, random_sensors


def test_quadratic_form_validation():
    with pytest.raises(el.ValidationError):
        el.QuadraticForm([])
    with pytest.raises(el.ValidationError):
        el.QuadraticForm([1.0, np.nan])
    form = el.QuadraticForm.euclidean(3)
    with pytest.raises(el.DimensionMismatch):
        form.value([1.0, 2.0])
    with pytest.raises(el.DimensionMismatch):
        form.pairwise([[1.0, 2.0]])


def test_quadratic_form_values():
    assert el.QuadraticForm.euclidean(2).value([3.0, 4.0]) == 25.0
    mink = el.QuadraticForm.minkowski(2)
    assert mink.dim == 3
    assert np.array_equal(mink.weights, [1.0, -1.0, -1.0])
    assert mink.value([5.0, 3.0, 4.0]) == 0.0  # on the cone
    assert mink.value([5.0, 0.0, 0.0]) == 25.0


def test_pairwise_form_matrix():
    form = el.QuadraticForm.euclidean(2)
    pts = [[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]]
    mat = form.pairwise(pts)
    assert mat.shape == (3, 3)
    assert np.allclose(np.diag(mat), 0.0)
    assert mat[0, 1] == 25.0 and mat[0, 2] == 1.0
    assert mat[1, 2] == 9.0 + 9.0


def test_relation_matrix_hand_values():
    sensors = el.SensorArray([[0.0, 0.0], [3.0, 4.0]])
    dmat = el.relation_matrix(sensors, [1.0, 6.0])
    assert dmat.shape == (2, 2)
    assert dmat[0, 1] == 0.0  # the gap matches the separation exactly
    assert np.array_equal(np.diag(dmat), [0.0, 0.0])
    dmat = el.relation_matrix(sensors, [1.0, 2.0])
    assert dmat[0, 1] == -24.0


def test_relation_matrix_is_exactly_symmetric():
    rng = np.random.default_rng(5)
    sensors = random_sensors(rng, 6, 3)
    dmat = el.relation_matrix(sensors, rng.uniform(0, 10, 6))
    assert np.array_equal(dmat, dmat.T)
    assert np.array_equal(np.diag(dmat), np.zeros(6))


def test_relation_matrix_errors():
    sensors = el.SensorArray([[0.0, 0.0], [3.0, 4.0]])
    with pytest.raises(el.LengthMismatch):
        el.relation_matrix(sensors, [1.0, 2.0, 3.0])
    with pytest.raises(el.ValidationError):
        el.relation_matrix(sensors, [1.0, np.inf])


def test_single_event_residual_vanishes():
    rng = np.random.default_rng(101)
    for _ in range(20):
        sensors = random_sensors(rng, 5, 3)  # m = n + 2
        event = random_event(rng, 3)
        times = el.event_arrivals(sensors, event)
        residual = el.relation_residual(el.relation_matrix(sensors, times))
        assert residual < 1e-12


def test_perturbed_times_lift_residual():
    rng = np.random.default_rng(103)
    sensors = random_sensors(rng, 5, 3)
    event = random_event(rng, 3)
    times = el.event_arrivals(sensors, event)
    bump = np.zeros(5)
    bump[2] = 0.1 * sensors.diameter()
    residual = el.relation_residual(el.relation_matrix(sensors, times + bump))
    assert residual > 1e-6


def test_residual_scale_invariance():
    rng = np.random.default_rng(107)
    sensors = random_sensors(rng, 5, 3)
    times = rng.uniform(0, 5, 5)
    base = el.relation_residual(el.relation_matrix(sensors, times))
    for scale in (3.0, 0.125, 40.0):
        scaled = el.relation_residual(
            el.relation_matrix(el.SensorArray(scale * sensors.positions), scale * times)
        )
        assert scaled == pytest.approx(base, rel=1e-9)


def test_residual_bounds():
    assert el.relation_residual(np.zeros((4, 4))) == 0.0
    rng = np.random.default_rng(109)
    for _ in range(50):
        mat = rng.standard_normal((5, 5))
        assert 0.0 <= el.relation_residual(mat) <= 1.0 + 1e-12


def test_residual_order_detects_rank_bound():
    # one event heard by eight sensors: the relation matrix has rank at
    # most n + 1 = 4
    rng = np.random.default_rng(127)
    sensors = random_sensors(rng, 8, 3)
    times = el.event_arrivals(sensors, random_event(rng, 3))
    dmat = el.relation_matrix(sensors, times)
    assert el.numeric_rank(dmat) <= 4


def test_residual_shape_validation():
    with pytest.raises(el.ValidationError):
        el.relation_residual(np.zeros((3, 4)))


def test_batched_residuals_match_scalar():
    rng = np.random.default_rng(131)
    sensors = random_sensors(rng, 5, 3)
    dist = sensors.pairwise_distances()
    tuples = rng.uniform(0, 10, (40, 5))
    batched = el.batched_relation_residuals(tuples, dist * dist)
    assert batched.shape == (40,)
    for row, got in zip(tuples, batched):
        want = el.relation_residual(el.relation_matrix(sensors, row))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-15)


def test_batched_residuals_shape_validation():
    with pytest.raises(el.ValidationError):
        el.batched_relation_residuals(np.zeros((4, 3)), np.zeros((5, 5)))


def test_cayley_menger_euclidean_ranks():
    form = el.QuadraticForm.euclidean(3)
    triangle = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    assert el.numeric_rank(el.cayley_menger_matrix(triangle, form)) == 4
    collinear = [[0.0, 0.0, 0.0], [1.0, 2.0, 2.0], [2.0, 4.0, 4.0], [3.0, 6.0, 6.0]]
    assert el.numeric_rank(el.cayley_menger_matrix(collinear, form)) == 3
    # k points in general position in R^3 cap out at rank 5
    rng = np.random.default_rng(137)
    pts = rng.uniform(-1, 1, (7, 3))
    assert el.numeric_rank(el.cayley_menger_matrix(pts, form)) == 5


def test_cayley_menger_border_layout():
    form = el.QuadraticForm.euclidean(2)
    mat = el.cayley_menger_matrix([[0.0, 0.0], [3.0, 4.0]], form)
    assert mat.shape == (3, 3)
    assert mat[0, 0] == 0.0
    assert np.array_equal(mat[0, 1:], [1.0, 1.0])
    assert np.array_equal(mat[1:, 0], [1.0, 1.0])
    assert mat[1, 2] == 25.0


def test_cayley_menger_corner_reproduces_relation_matrix():
    rng = np.random.default_rng(139)
    sensors = random_sensors(rng, 6, 3)
    times = el.event_arrivals(sensors, random_event(rng, 3))
    lifted = np.column_stack([times, sensors.positions])
    corner = el.cayley_menger_matrix(lifted, el.QuadraticForm.minkowski(3))[1:, 1:]
    dmat = el.relation_matrix(sensors, times)
    assert np.allclose(corner, dmat, atol=1e-12)


def test_cayley_menger_cone_rank_bound():
    # lifted receptions of one event lie on a space-time cone centred on the
    # event, so the corner block is -2x a Gram matrix of vectors in R^(n+1)
    # and its rank caps at n + 1; generic points have no such bound
    rng = np.random.default_rng(149)
    form = el.QuadraticForm.minkowski(3)
    sensors = random_sensors(rng, 7, 3)
    times = el.event_arrivals(sensors, random_event(rng, 3))
    lifted = np.column_stack([times, sensors.positions])
    mat = el.cayley_menger_matrix(lifted, form)
    assert el.numeric_rank(mat[1:, 1:]) <= 4
    assert el.numeric_rank(mat) == 6  # border contributes two more
    generic = rng.uniform(0, 1, (7, 4))
    gmat = el.cayley_menger_matrix(generic, form)
    assert el.numeric_rank(gmat[1:, 1:]) == 6


def test_cayley_menger_validation():
    form = el.QuadraticForm.euclidean(2)
    with pytest.raises(el.ValidationError):
        el.cayley_menger_matrix(np.zeros((0, 2)), form)
    with pytest.raises(el.ValidationError):
        el.cayley_menger_matrix(np.zeros(3), form)
