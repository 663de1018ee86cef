"""Tests for the closed-form multilateration solver."""

from __future__ import annotations

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import echolat as el
from echolat import lateration, linalg
from conftest import (
    AMBIGUOUS_2D,
    AMBIGUOUS_3D,
    DEGENERATE_LINEAR_2D,
    DOUBLE_ROOT_2D,
    EQUAL_TIMES_2D,
    SPURIOUS_2D,
    dataset_times,
    random_event,
    random_rotation,
    random_sensors,
    sensor_array,
)
from oracles import frac_det, frac_solve, reduced_quadratic, reduced_time_line

#: Four sensors in the plane; the layouts of the overflow tests scale it.
TRAPEZOID = [[9.0, 12.0], [9.0, -12.0], [10.0, -24.0], [10.0, 24.0]]


def test_sensor_array_validation():
    with pytest.raises(el.ValidationError):
        el.SensorArray([[1.0, 2.0]])  # single sensor
    with pytest.raises(el.ValidationError):
        el.SensorArray([[1.0], [2.0]])  # dimension 1
    with pytest.raises(el.ValidationError):
        el.SensorArray([[0.0, 0.0], [0.0, 0.0]])  # coincident
    with pytest.raises(el.ValidationError):
        el.SensorArray([[0.0, np.inf], [1.0, 0.0]])
    for positions in (
        [[9.0, 1e308], *TRAPEZOID[1:]],
        [[1e154, 1e154], [0.0, 0.0]],  # each coordinate squares finitely, the norm does not
        [[1e154, 0.0], [-1e154, 0.0]],  # each norm squares finitely, the distance does not
    ):
        with pytest.raises(el.ValidationError, match="a squared norm or distance overflows"):
            el.SensorArray(positions)
    assert el.SensorArray([[1e153, 0.0], [-1e153, 0.0]]).diameter() == 2e153
    arr = el.SensorArray([[0.0, 0.0], [3.0, 4.0]])
    assert arr.count == 2 and arr.dim == 2
    assert arr.diameter() == pytest.approx(5.0)
    assert not arr.positions.flags.writeable


def test_measurement_matrix_row_layout():
    sensors = sensor_array(AMBIGUOUS_3D)
    amat = el.measurement_matrix(sensors, dataset_times(AMBIGUOUS_3D))
    assert amat.shape == (5, 5)
    assert np.allclose(amat[0], [-10.0, 6.0, 8.0, 0.0, -1.0])


def test_measurement_matrix_length_mismatch():
    sensors = sensor_array(SPURIOUS_2D)
    with pytest.raises(el.LengthMismatch):
        el.measurement_matrix(sensors, [1.0, 2.0])


def _exact_float(value: F) -> float:
    return float(value)


def test_two_candidate_3d_dataset_against_oracle():
    data = AMBIGUOUS_3D
    u, alpha, v, beta = reduced_time_line(data["sensors"], data["times"])
    assert tuple(u) == data["u"] and alpha == data["alpha"]
    assert all(x == 0 for x in v) and beta == 0
    quad = reduced_quadratic(data["sensors"], data["times"])
    assert quad == data["quadratic"]
    # exact roots of the exact quadratic
    assert -quad[1] / quad[0] == data["t_alt"]
    assert tuple(data["t_alt"] * ui for ui in u) == data["x_alt"]


def test_two_candidate_3d_dataset_solver():
    result = el.solve(sensor_array(AMBIGUOUS_3D), dataset_times(AMBIGUOUS_3D))
    assert result.path is el.SolvePath.QUADRATIC
    assert result.rank == 4
    assert len(result.candidates) == 2
    assert not any(c.spurious for c in result.candidates)
    alt, origin = result.candidates
    assert origin.event.time == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(origin.event.position, 0.0, atol=1e-12)
    t_alt = _exact_float(AMBIGUOUS_3D["t_alt"])
    x_alt = np.array([_exact_float(x) for x in AMBIGUOUS_3D["x_alt"]])
    assert alt.event.time == pytest.approx(t_alt, rel=1e-9)
    assert np.abs(alt.event.position - x_alt).max() <= 1e-9 * np.abs(x_alt).max()
    a, b, c = result.quadratic
    exact = AMBIGUOUS_3D["quadratic"]
    assert a == pytest.approx(_exact_float(exact[0]), rel=1e-12)
    assert b == pytest.approx(_exact_float(exact[1]), rel=1e-12)
    assert c == pytest.approx(0.0, abs=1e-12)


def test_two_candidate_3d_dataset_solver_is_faithful():
    # The scenario's rationals (-16/7, 2/3, 50/21, 76/21) are rounded on the
    # way in, so a float solver can promise faithful rounding: the time is
    # one of the two floats around the exact root, at most 1 ulp away.
    result = el.solve(sensor_array(AMBIGUOUS_3D), dataset_times(AMBIGUOUS_3D))
    alt, origin = result.candidates
    time = alt.event.time
    assert abs((F(time) - AMBIGUOUS_3D["t_alt"]) / F(math.ulp(time))) <= 1
    assert origin.event.time == 0.0
    assert origin.event.position.tolist() == [0.0, 0.0, 0.0]


def test_two_candidate_2d_dataset():
    data = AMBIGUOUS_2D
    u, alpha, v, beta = reduced_time_line(data["sensors"], data["times"])
    assert tuple(u) == data["u"] and alpha == data["alpha"]
    result = el.solve(sensor_array(data), dataset_times(data))
    assert result.path is el.SolvePath.QUADRATIC
    assert len(result.candidates) == 2
    assert not any(c.spurious for c in result.candidates)
    origin, alt = result.candidates
    assert origin.event.time == pytest.approx(0.0, abs=1e-12)
    assert alt.event.time == pytest.approx(_exact_float(data["t_alt"]), rel=1e-9)
    x_alt = np.array([_exact_float(x) for x in data["x_alt"]])
    assert np.abs(alt.event.position - x_alt).max() <= 1e-9 * np.abs(x_alt).max()


def test_spurious_candidate_is_flagged():
    data = SPURIOUS_2D
    u, alpha, _, _ = reduced_time_line(data["sensors"], data["times"])
    assert tuple(u) == data["u"] and alpha == data["alpha"]
    result = el.solve(sensor_array(data), dataset_times(data))
    origin, alt = result.candidates
    assert not origin.spurious
    assert np.allclose(origin.event.position, 0.0, atol=1e-12)
    assert alt.spurious
    assert alt.event.time == pytest.approx(_exact_float(data["t_alt"]), rel=1e-9)
    assert alt.event.position[0] == pytest.approx(-4.0 / 3.0, rel=1e-9)


def test_spurious_dataset_reversed_times():
    # the same geometry heard from the other side: what was spurious becomes
    # the genuine event once the reception times are reversed accordingly
    data = SPURIOUS_2D
    sensors = sensor_array(data)
    times = [44.0 / 3.0, 41.0 / 3.0, 41.0 / 3.0]
    result = el.solve(sensors, times)
    genuine = [c for c in result.candidates if not c.spurious]
    assert len(genuine) == 1
    assert genuine[0].event.time == pytest.approx(28.0 / 3.0, rel=1e-9)
    assert genuine[0].event.position[0] == pytest.approx(-4.0 / 3.0, rel=1e-9)


def test_equal_times_unique_position():
    result = el.solve(sensor_array(EQUAL_TIMES_2D), dataset_times(EQUAL_TIMES_2D))
    assert result.path is el.SolvePath.QUADRATIC
    assert len(result.candidates) == 2
    first, second = result.candidates
    # both roots land on the circumcenter; only the earlier time is causal
    assert np.allclose(first.event.position, 0.0, atol=1e-9)
    assert np.allclose(second.event.position, 0.0, atol=1e-9)
    assert first.event.time == pytest.approx(0.0, abs=1e-12) and not first.spurious
    assert second.event.time == pytest.approx(2.0, rel=1e-12) and second.spurious


def test_double_root_collapses_to_one_point():
    # the reduced quadratic has an exact double root at t = 0; rounding may
    # split it into two nearby roots, but every candidate must sit on it
    result = el.solve(sensor_array(DOUBLE_ROOT_2D), dataset_times(DOUBLE_ROOT_2D))
    assert 1 <= len(result.candidates) <= 2
    for cand in result.candidates:
        assert cand.event.time == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(cand.event.position, 0.0, atol=1e-12)
        assert not cand.spurious
    assert abs(result.quadratic[1]) < 1e-12 and abs(result.quadratic[2]) < 1e-12


def test_degenerate_linear_dataset():
    data = DEGENERATE_LINEAR_2D
    u, alpha, v, beta = reduced_time_line(data["sensors"], data["times"])
    assert tuple(u) == data["u"] and alpha == data["alpha"]
    assert sum(x * x for x in u) == 1  # exact degeneracy of the t^2 term
    result = el.solve(sensor_array(data), dataset_times(data))
    assert abs(result.quadratic[0]) <= 1e-9
    assert len(result.candidates) == 1
    cand = result.candidates[0]
    assert cand.event.time == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(cand.event.position, 0.0, atol=1e-12)


def test_degenerate_linear_perturbed_far_candidate():
    # nudging the third sensor breaks the degeneracy and sends the second
    # candidate far away
    sensors = el.SensorArray([[1.0, 0.0], [-1.0, 0.0], [3.0, 3.99]])
    times = [1.0, 1.0, float(np.hypot(3.0, 3.99))]
    result = el.solve(sensors, times)
    assert len(result.candidates) == 2
    far = result.candidates[0]
    assert -1992.0 < far.event.time < -1990.0
    assert -1993.0 < far.event.position[1] < -1991.0
    assert far.event.time == pytest.approx(-1990.90984485839798, rel=1e-6)
    assert far.event.position[1] == pytest.approx(-1991.90959384300550, rel=1e-6)
    assert not far.spurious


def test_full_rank_path_recovers_event():
    rng = np.random.default_rng(42)
    for _ in range(25):
        sensors = random_sensors(rng, 6, 3)
        event = random_event(rng, 3)
        times = el.event_arrivals(sensors, event)
        result = el.solve(sensors, times)
        assert result.path is el.SolvePath.FULL_RANK
        assert result.rank == 5
        cand = result.candidates[0]
        assert not cand.spurious
        assert cand.event.time == pytest.approx(event.time, abs=1e-9)
        assert np.abs(cand.event.position - event.position).max() < 1e-9


def test_five_sensor_generic_scene_takes_full_rank_path():
    rng = np.random.default_rng(11)
    sensors = random_sensors(rng, 5, 3)
    event = random_event(rng, 3)
    result = el.solve(sensors, el.event_arrivals(sensors, event))
    assert result.path is el.SolvePath.FULL_RANK
    assert np.abs(result.candidates[0].event.position - event.position).max() < 1e-9


def test_quadratic_path_round_trip():
    # with only n+1 sensors the solver must go through the reduction; one
    # candidate always matches the simulated truth
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 4))
        sensors = random_sensors(rng, n + 1, n)
        event = random_event(rng, n)
        times = el.event_arrivals(sensors, event)
        result = el.solve(sensors, times)
        assert result.path is el.SolvePath.QUADRATIC
        errs = [
            max(abs(c.event.time - event.time), np.abs(c.event.position - event.position).max())
            for c in result.candidates
        ]
        assert min(errs) < 1e-8


def test_absolute_value_model_residual():
    # every candidate, spurious or not, satisfies ||a_i - x|| = |t_i - t|
    rng = np.random.default_rng(19)
    for _ in range(25):
        sensors = random_sensors(rng, 4, 3)
        event = random_event(rng, 3)
        times = el.event_arrivals(sensors, event)
        result = el.solve(sensors, times)
        for cand in result.candidates:
            gaps = sensors.positions - cand.event.position
            dist = np.sqrt((gaps * gaps).sum(axis=1))
            residual = np.abs(dist - np.abs(times - cand.event.time)).max()
            assert residual < 1e-8


def test_translation_equivariance():
    rng = np.random.default_rng(23)
    sensors = random_sensors(rng, 4, 3)
    event = random_event(rng, 3)
    times = el.event_arrivals(sensors, event)
    shift = rng.uniform(-5, 5, 3)
    base = el.solve(sensors, times)
    moved = el.solve(el.SensorArray(sensors.positions + shift), times)
    assert len(base.candidates) == len(moved.candidates)
    for c0, c1 in zip(base.candidates, moved.candidates):
        assert c1.event.time == pytest.approx(c0.event.time, rel=1e-9, abs=1e-9)
        assert np.abs(c1.event.position - (c0.event.position + shift)).max() < 1e-8


def test_rotation_equivariance():
    rng = np.random.default_rng(29)
    sensors = random_sensors(rng, 4, 3)
    event = random_event(rng, 3)
    times = el.event_arrivals(sensors, event)
    rot = random_rotation(rng, 3)
    base = el.solve(sensors, times)
    rotated = el.solve(el.SensorArray(sensors.positions @ rot.T), times)
    for c0, c1 in zip(base.candidates, rotated.candidates):
        assert c1.event.time == pytest.approx(c0.event.time, rel=1e-9, abs=1e-9)
        assert np.abs(c1.event.position - rot @ c0.event.position).max() < 1e-8


def test_time_shift_equivariance():
    rng = np.random.default_rng(31)
    sensors = random_sensors(rng, 5, 3)
    event = random_event(rng, 3)
    times = el.event_arrivals(sensors, event)
    base = el.solve(sensors, times)
    shifted = el.solve(sensors, times + 2.5)
    for c0, c1 in zip(base.candidates, shifted.candidates):
        assert c1.event.time == pytest.approx(c0.event.time + 2.5, rel=1e-9, abs=1e-9)
        assert np.abs(c1.event.position - c0.event.position).max() < 1e-8


def test_solve_validation_errors():
    sensors = sensor_array(SPURIOUS_2D)
    with pytest.raises(el.LengthMismatch):
        el.solve(sensors, [1.0, 2.0])
    with pytest.raises(el.ValidationError):
        el.solve(el.SensorArray([[0.0, 0.0], [1.0, 0.0]]), [1.0, 2.0])  # m < n+1
    for times in ([15.0, 15.0, 26.0, -1e200], [15.0, 15.0, 26.0, 2e154]):
        with pytest.raises(el.ValidationError, match="must square to finite doubles"):
            el.solve(el.SensorArray(TRAPEZOID), times)
    full = sensor_array(AMBIGUOUS_3D)
    for rank_tol in (0.0, 1.0, 2.0, -1e-8, math.nan, "x"):
        for call in (
            lambda: el.solve(full, dataset_times(AMBIGUOUS_3D), rank_tol=rank_tol),
            lambda: el.solve(sensors, [4.0, 5.0, 5.0], rank_tol=rank_tol),
            lambda: el.check_geometry(full, rank_tol=rank_tol),
            lambda: full.spans_space(rank_tol),
        ):
            with pytest.raises(el.ValidationError, match="rank_tol must lie in"):
                call()


def test_results_past_the_double_range_are_numeric_errors():
    with pytest.raises(el.NumericError, match="the reduced quadratic overflows"):
        el.solve(el.SensorArray(TRAPEZOID), [15.0, 15.0, 26.0, 1e150])
    cross = el.SensorArray([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(el.NumericError, match="the solved event overflows"):
        el.solve(cross, [1e130, 0.0, -1e130, 0.0])


def test_batched_full_rank_step_agrees_with_lone_solves(monkeypatch):
    # One row each: full rank, full rank but late, and equal times (below
    # full rank, left to solve).
    cross = el.SensorArray([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    reach = el.event_arrivals(cross, el.EmissionEvent(0.0, [0.4, 0.3]))
    rows = np.array([0.25 + reach, 0.25 - reach, [2.0] * 4])
    got = lateration._solve_full_rank(cross, rows, 1e-8)
    assert got[2] is None and el.solve(cross, rows[2]).path is el.SolvePath.QUADRATIC
    for outcome, row in zip(got[:2], rows):
        result = el.solve(cross, row)
        assert result.path is el.SolvePath.FULL_RANK
        assert outcome == [(c.event.time, c.event.position.tolist(), c.spurious)
                           for c in result.candidates]
    assert [late for (_, _, late), in got[:2]] == [False, True]
    # Told that every row has full rank, the equal times reach the exact
    # solve and come back as the error a lone solve raises.
    def full(a, rel_tol=1e-8):
        return a.shape[-1] if a.ndim == 2 else np.full(len(a), a.shape[-1])

    monkeypatch.setattr(linalg, "numeric_rank", full)
    with pytest.raises(el.RankDeficient) as lone:
        el.solve(cross, rows[2])
    got = lateration._solve_full_rank(cross, rows, 1e-8)
    assert type(got[2]) is el.RankDeficient and str(got[2]) == str(lone.value)
    # The first row whose squares overflow raises solve's error.
    rows[1:] = [[3e154, 0.0, 0.0, 0.0], [0.0, -4e154, 0.0, 0.0]]
    with pytest.raises(el.ValidationError) as lone:
        el.solve(cross, rows[1])
    with pytest.raises(el.ValidationError) as batch:
        lateration._solve_full_rank(cross, rows, 1e-8)
    assert str(batch.value) == str(lone.value)


def test_collinear_sensors_not_spanning():
    sensors = el.SensorArray([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(el.NotSpanning):
        el.solve(sensors, [1.0, 1.0, 1.0])
    assert not sensors.spans_space()


@pytest.mark.parametrize("count", [4, 5])
@pytest.mark.parametrize("seed", range(5))
def test_far_offset_spanning_sensors_are_solved(seed, count):
    # Spanning is decided on the sensor positions alone, so it does not
    # depend on where the layout sits.  At this offset the rank decision
    # takes the quadratic path, whose error grows like offset^2 * eps.
    rng = np.random.default_rng(seed)
    offset = 1e4
    sensors = el.SensorArray(rng.uniform(-1.0, 1.0, (count, 3)) + offset)
    truth = el.EmissionEvent(0.5, rng.uniform(-1.0, 1.0, 3) + offset)
    assert sensors.spans_space()
    result = el.solve(sensors, el.event_arrivals(sensors, truth))
    err = min(
        max(abs(c.event.time - truth.time), np.abs(c.event.position - truth.position).max())
        for c in result.candidates
    )
    assert err <= 100 * offset**2 * np.finfo(float).eps


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4), st.floats(0.0, 1e6), st.integers(0, 2**32 - 1))
def test_square_solves_are_the_correctly_rounded_exact_solution(n, offset, seed):
    # n+2 sensors: the bordered system of the full-rank path.
    rng = np.random.default_rng(seed)
    shift = offset * rng.uniform(-1.0, 1.0, n)
    sensors = el.SensorArray(rng.uniform(-1.0, 1.0, (n + 2, n)) + shift)
    event = el.EmissionEvent(rng.uniform(0.0, 2.0), rng.uniform(-2.0, 2.0, n) + shift)
    times = el.event_arrivals(sensors, event) + rng.choice([0.0, 1e-3]) * rng.standard_normal(n + 2)
    amat = el.measurement_matrix(sensors, times)
    rhs = lateration._rhs(sensors, times)
    got = sensors._factor.solve_bordered(amat[:, 0].tolist(), rhs.tolist())
    if linalg.numeric_rank(amat) == n + 2:  # solve takes the full-rank path
        event = el.solve(sensors, times).candidates[0].event
        assert [event.time, *event.position.tolist()] == got[: n + 1]
    assert got == [float(e) for e in frac_solve(amat.tolist(), rhs.tolist())]
    assert got == linalg.least_squares_solve(amat, rhs).tolist()


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4), st.floats(0.0, 1e6), st.integers(0, 2**32 - 1))
def test_local_inverse_is_the_correctly_rounded_exact_inverse(n, offset, seed):
    # The inverse of the exact (2 (a_i - a_h), -1) over the factor's block,
    # with a_h the sensor the block leaves out; a_i - a_h is not rounded.
    rng = np.random.default_rng(seed)
    shift = offset * rng.uniform(-1.0, 1.0, n)
    positions = rng.uniform(-1.0, 1.0, (n + 2, n)) * rng.choice([1.0, 3.7, 0.3]) + shift
    factor = el.SensorArray(positions)._factor
    held = next(i for i in range(n + 2) if i not in factor.block)
    local = [[2 * (F(x) - F(h)) for x, h in zip(positions[i].tolist(), positions[held].tolist())]
             + [F(-1)] for i in factor.block]
    unit = [[int(i == j) for i in range(n + 1)] for j in range(n + 1)]
    want = np.array([[float(e) for e in frac_solve(local, col)] for col in unit]).T
    assert factor.local_inverse().tolist() == want.tolist()


def test_exactly_singular_systems_raise_as_before(monkeypatch):
    # numeric_rank is told the systems have full rank.  Equal times make
    # the time column a multiple of G's last one, so the factor's bordered
    # system is singular; collinear sensors leave no invertible block.
    monkeypatch.setattr(linalg, "numeric_rank", lambda a, rel_tol=1e-8: a.shape[1])
    sensors = el.SensorArray([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                              [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    assert sensors._factor is not None
    with pytest.raises(el.RankDeficient, match=r"^matrix is singular: column 4 has no pivot$"):
        el.solve(sensors, [2.0] * 5)
    collinear = el.SensorArray([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    assert collinear._factor is None
    with pytest.raises(el.RankDeficient, match=r"^matrix is singular: column 2 has no pivot$"):
        el.solve(collinear, [1.0, 2.0, 3.5, 4.0])


@pytest.mark.parametrize("count", [3, 4])
def test_solve_uses_the_factor_only_once_a_caller_built_it(monkeypatch, count):
    # A lone solve on a fresh layout pays no factor build, and it never
    # reads a factor the matcher built: every full-rank solve reaches
    # least_squares_solve once, with the same digits.
    builds, lstsq = [], []
    build, least_squares = linalg.exact_factor, linalg.least_squares_solve
    monkeypatch.setattr(linalg, "exact_factor", lambda a: builds.append(a) or build(a))
    monkeypatch.setattr(linalg, "least_squares_solve",
                        lambda a, b: lstsq.append(a) or least_squares(a, b))
    sensors = el.SensorArray([[0.0, 0.0], [1.0, 0.2], [0.1, 1.0], [0.9, 1.1]][:count])
    times = el.event_arrivals(sensors, el.EmissionEvent(0.25, [0.4, 0.3]))
    first = el.solve(sensors, times)
    assert (len(builds), len(lstsq)) == (0, 1)
    if count == 4:
        assert sensors._factor is not None
    second = el.solve(sensors, times)
    assert (len(builds), len(lstsq)) == ((1, 2) if count == 4 else (0, 2))

    def digits(result):
        return result.path, [(c.event.time, c.event.position.tolist(), c.spurious)
                             for c in result.candidates]

    assert digits(first) == digits(second)


def test_event_arrivals_forward_model():
    sensors = el.SensorArray([[0.0, 0.0], [3.0, 4.0]])
    event = el.EmissionEvent(2.0, [0.0, 0.0])
    assert np.allclose(el.event_arrivals(sensors, event), [2.0, 7.0])
    with pytest.raises(el.ValidationError):
        el.event_arrivals(sensors, el.EmissionEvent(0.0, [1.0, 2.0, 3.0]))


def test_check_geometry_flags_golden_sensor_norm_relation():
    data = AMBIGUOUS_3D
    report = el.check_geometry(sensor_array(data))
    assert report.noncoplanar
    assert report.condition_ok is False
    assert (1, 1, 1, 1, 1) in report.failing_sign_patterns
    assert report.degenerate_subsets == ()
    # exact confirmation: the all-plus bordered determinant vanishes
    norms = [F(5), F(3), F(1), F(50, 21), F(76, 21)]
    rows = [
        [norms[i]] + list(data["sensors"][i]) + [F(1)]
        for i in range(5)
    ]
    assert frac_det(rows) == 0


def test_check_geometry_random_arrays_pass():
    rng = np.random.default_rng(37)
    for _ in range(20):
        report = el.check_geometry(random_sensors(rng, 5, 3))
        assert report.condition_ok is True
        assert report.failing_sign_patterns == ()


def test_check_geometry_condition_needs_exact_count():
    rng = np.random.default_rng(41)
    report = el.check_geometry(random_sensors(rng, 6, 3))
    assert report.condition_ok is None


def test_check_geometry_reports_degenerate_subsets():
    # four of the five sensors lie in the z=0 plane
    sensors = el.SensorArray(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [1.0, 1.0, 0.0],
            [0.3, 0.4, 2.0],
        ]
    )
    report = el.check_geometry(sensors)
    assert report.noncoplanar
    assert (0, 1, 2, 3) in report.degenerate_subsets


def test_check_geometry_counts_an_overflowing_determinant_as_failing():
    # Near 1e110 the sign-pattern determinants and row norms overflow to a
    # NaN ratio, which must not read as a pattern that passes.
    sensors = el.SensorArray(np.array(TRAPEZOID) * 1e110)
    with np.errstate(over="ignore", invalid="ignore"):
        report = el.check_geometry(sensors)
    assert report.noncoplanar and report.condition_ok is False
    assert len(report.failing_sign_patterns) == 8


def test_check_geometry_coplanar_array():
    sensors = el.SensorArray(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.5, 0.25, 0.0]]
    )
    report = el.check_geometry(sensors)
    assert not report.noncoplanar
