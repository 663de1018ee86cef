"""Tests for the reception-table sweep that matches times to events."""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import echolat as el
from echolat import acoustics, lateration, matching
from echolat.cli import main
from conftest import AMBIGUOUS_3D, dataset_times, random_sensors, sensor_array
from oracles import dedup_events, prediction_screen, screen_rows, survivor_blocks


def _scene(seed: int, n_events: int = 3, span: float = 30.0):
    """Sensors, asynchronous events, and the unattributed reception table."""
    rng = np.random.default_rng(seed)
    sensors = random_sensors(rng, 5, 3)
    events = [
        el.EmissionEvent(float(t), rng.uniform(-1.5, 1.5, 3))
        for t in np.sort(rng.uniform(0, span, n_events))
    ]
    lists = [[] for _ in range(5)]
    for ev in events:
        for i, t in enumerate(el.event_arrivals(sensors, ev)):
            lists[i].append(t)
    return sensors, events, el.ReceptionTable.from_lists(lists)


def test_reception_table_sorts_and_dedups():
    table = el.ReceptionTable.from_lists([[3.0, 1.0, 1.0 + 1e-13, 2.0], [5.0]])
    assert table.count == 2
    assert table.sizes() == (3, 1)
    assert np.array_equal(table.times[0], [1.0, 2.0, 3.0])
    assert table.product_size() == 3
    assert table.span() == 4.0
    assert not table.times[0].flags.writeable


def test_reception_table_empty_and_invalid():
    table = el.ReceptionTable.from_lists([[], [1.0]])
    assert table.sizes() == (0, 1)
    assert table.product_size() == 0
    assert table.span() == 0.0
    with pytest.raises(el.ValidationError):
        el.ReceptionTable.from_lists([[np.nan], [1.0]])


def test_recovers_asynchronous_events():
    sensors, events, table = _scene(211)
    report = el.match_events(sensors, table)
    assert len(report.events) == 3
    for truth, det in zip(events, report.events):
        assert det.event_time == pytest.approx(truth.time, abs=1e-9)
        assert np.abs(det.position - truth.position).max() < 1e-9
        assert det.residual <= 1e-6
        assert not det.ambiguous
        # the provenance tuple is the true arrival tuple of this event
        arrivals = el.event_arrivals(sensors, truth)
        assert np.abs(np.array(det.source_times) - arrivals).max() < 1e-12


def test_report_counters_are_consistent():
    sensors, _, table = _scene(211)
    report = el.match_events(sensors, table)
    assert report.candidate_tuples == table.product_size() == 3**5
    assert report.pruned_tuples + report.evaluated_tuples == report.candidate_tuples
    assert report.accepted_tuples <= report.evaluated_tuples
    assert report.rejected_tuples == report.candidate_tuples - report.accepted_tuples
    assert report.pruned_tuples > 0  # the windows actually cut something


def test_pruning_does_not_change_the_answer(monkeypatch):
    sensors, _, table = _scene(212)
    pruned = el.match_events(sensors, table)
    monkeypatch.setattr(matching, "_default_slack", lambda sensors, table: math.inf)
    full = el.match_events(sensors, table)
    assert full.pruned_tuples == 0
    assert full.evaluated_tuples == full.candidate_tuples
    # the unpruned sweep accepts more tuples: a matrix of pure (t_i - t_j)^2
    # entries has rank <= 3, so tuples with gaps far beyond the sensor
    # separations also pass the determinant screen -- but their candidates
    # all come out spurious, so the detected events are identical
    assert full.accepted_tuples >= pruned.accepted_tuples
    assert len(full.events) == len(pruned.events)
    for a, b in zip(full.events, pruned.events):
        assert a.event_time == b.event_time
        assert np.array_equal(a.position, b.position)


def test_match_is_deterministic():
    sensors, _, table = _scene(213)
    r1 = el.match_events(sensors, table)
    r2 = el.match_events(sensors, table)
    assert r1.candidate_tuples == r2.candidate_tuples
    assert r1.pruned_tuples == r2.pruned_tuples
    assert r1.accepted_tuples == r2.accepted_tuples
    assert len(r1.events) == len(r2.events)
    for a, b in zip(r1.events, r2.events):
        assert a.event_time == b.event_time
        assert np.array_equal(a.position, b.position)
        assert a.source_times == b.source_times


def test_spurious_time_injection_is_ignored():
    sensors, events, table = _scene(211)
    base = el.match_events(sensors, table)
    lists = [list(arr) for arr in table.times]
    lists[2] += [4.25, 11.0, 19.5]  # unmatched extra receptions on one sensor
    noisy = el.match_events(sensors, el.ReceptionTable.from_lists(lists))
    assert len(noisy.events) == len(base.events) == len(events)
    for a, b in zip(base.events, noisy.events):
        assert b.event_time == pytest.approx(a.event_time, abs=1e-9)
        assert np.abs(b.position - a.position).max() < 1e-9
    assert noisy.candidate_tuples == 6 * 3**4
    assert noisy.rejected_tuples > base.rejected_tuples


def test_ambiguous_tuple_yields_both_flagged_events():
    sensors = sensor_array(AMBIGUOUS_3D)
    table = el.ReceptionTable.from_lists([[t] for t in dataset_times(AMBIGUOUS_3D)])
    report = el.match_events(sensors, table)
    assert report.accepted_tuples == 1
    assert len(report.events) == 2
    assert all(ev.ambiguous for ev in report.events)
    times = sorted(ev.event_time for ev in report.events)
    assert times[0] == pytest.approx(-8360.0 / 38173.0, rel=1e-9)
    assert times[1] == pytest.approx(0.0, abs=1e-9)


def test_drop_ambiguous_mode():
    sensors = sensor_array(AMBIGUOUS_3D)
    table = el.ReceptionTable.from_lists([[t] for t in dataset_times(AMBIGUOUS_3D)])
    report = el.match_events(sensors, table, el.MatchConfig(keep_ambiguous=False))
    assert report.events == ()
    assert report.dropped_ambiguous == 1
    assert report.accepted_tuples == 1


def test_near_duplicate_events_are_merged():
    rng = np.random.default_rng(77)
    sensors = random_sensors(rng, 5, 3)
    e1 = el.EmissionEvent(1.0, [0.2, 0.1, -0.3])
    e2 = el.EmissionEvent(1.0 + 1e-9, np.array([0.2, 0.1, -0.3]) + 1e-9)
    lists = [[] for _ in range(5)]
    for ev in (e1, e2):
        for i, t in enumerate(el.event_arrivals(sensors, ev)):
            lists[i].append(t)
    report = el.match_events(sensors, el.ReceptionTable.from_lists(lists))
    assert len(report.events) == 1
    assert report.accepted_tuples == 32  # every mixed tuple also passes
    assert report.events[0].event_time == pytest.approx(1.0, abs=1e-6)


def test_numeric_failures_are_skipped_not_fatal():
    # 1e-12 off a plane: the fourth sensor can be held out exactly, but the
    # accepted tuple's solve finds the sensors not spanning at rank_tol
    flat = el.SensorArray(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.5, -0.7, 1e-12]]
    )
    event = el.EmissionEvent(2.0, [0.3, 0.4, 0.0])
    table = el.ReceptionTable.from_lists([[t] for t in el.event_arrivals(flat, event)])
    report = el.match_events(flat, table)
    assert report.events == ()
    assert len(report.skipped) == 1
    tuple_times, reason = report.skipped[0]
    assert reason.startswith("NotSpanning")
    assert tuple_times == tuple(float(t) for t in el.event_arrivals(flat, event))


def test_exactly_coplanar_layout_raises_not_spanning(tmp_path, capsys):
    # An exactly coplanar layout leaves no n+1 sensors to predict from, so
    # the match raises NotSpanning before the walk, as solve does, and the
    # CLI exits 3.
    flat = el.SensorArray(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.5, -0.7, 0.0]]
    )
    event = el.EmissionEvent(2.0, [0.3, 0.4, 0.0])
    times = el.event_arrivals(flat, event).tolist()
    table = el.ReceptionTable.from_lists([[t] for t in times])
    with pytest.raises(el.NotSpanning):
        el.match_events(flat, table)
    path = tmp_path / "flat.json"
    table_doc = [[t] for t in times]
    path.write_text(json.dumps(
        {"dimension": 3, "sensors": flat.positions.tolist(), "reception_table": table_doc}
    ))
    assert main(["match", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "NotSpanning" in captured.err


def _recovery_error(detected, event) -> float:
    return max(abs(detected.event_time - event.time),
               float(np.abs(detected.position - event.position).max()))


def test_near_double_and_linear_prefixes_are_screened_by_their_whole_window():
    # The first three sensors and an event at the origin give the prefix
    # quadratic a double root (scenario double_root_2d).  Near it the root
    # is off by about sqrt(eps) times the scale, more than tau, so such a
    # prefix screens its whole window and is accepted on its residual alone.
    sensors = el.SensorArray([[2.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.3, -1.7]])
    rng = np.random.default_rng(12)
    for _ in range(400):
        r = 10.0 ** rng.uniform(-9.0, -2.0)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        event = el.EmissionEvent(rng.uniform(-r, r), [r * np.cos(angle), r * np.sin(angle)])
        report = el.match_events(sensors, el.ReceptionTable.from_events(sensors, [event]))
        assert len(report.events) == 1
        assert _recovery_error(report.events[0], event) <= 1e-9
    # the same for a prefix whose quadratic has no t^2 term (degenerate_linear_2d)
    sensors = el.SensorArray([[1.0, 0.0], [-1.0, 0.0], [3.0, 4.0], [0.3, -1.7]])
    event = el.EmissionEvent(0.0, [0.0, 0.0])
    report = el.match_events(sensors, el.ReceptionTable.from_events(sensors, [event]))
    assert len(report.events) == 1
    assert _recovery_error(report.events[0], event) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_every_true_tuple_is_accepted_and_no_ghost_is_reported(n, count, seed):
    rng = np.random.default_rng(seed)
    while True:
        sensors = random_sensors(rng, n + 2, n)
        geometry = el.check_geometry(sensors)
        if geometry.noncoplanar and geometry.condition_ok:
            break
    events = [
        el.EmissionEvent(float(t), rng.uniform(-1.5, 1.5, n)) for t in rng.uniform(0.0, 6.0, count)
    ]
    report = el.match_events(sensors, el.ReceptionTable.from_events(sensors, events))
    accepted = {source for source, _ in report.accepted}
    for event in events:
        assert tuple(el.event_arrivals(sensors, event).tolist()) in accepted
    for detected in report.events:
        assert min(_recovery_error(detected, event) for event in events) <= 1e-9


@pytest.mark.parametrize("offset", [(0.0, 1e5), (1e4, 0.0), (1e5, 1e5)])
def test_true_tuples_are_accepted_far_from_the_origin(offset):
    # each prefix is solved relative to the held-out sensor and to its own
    # first time, so the prediction keeps its accuracy far out
    space, time = offset
    for seed in range(5):
        rng = np.random.default_rng(seed)
        sensors = el.SensorArray(random_sensors(rng, 5, 3).positions + space)
        events = [
            el.EmissionEvent(time + float(t), rng.uniform(-1.5, 1.5, 3) + space)
            for t in rng.uniform(0.0, 6.0, 8)
        ]
        report = el.match_events(sensors, el.ReceptionTable.from_events(sensors, events))
        accepted = {source for source, _ in report.accepted}
        for event in events:
            assert tuple(el.event_arrivals(sensors, event).tolist()) in accepted


def test_budget_guard():
    sensors, _, table = _scene(214)
    with pytest.raises(el.BudgetExceeded):
        el.match_events(sensors, table, el.MatchConfig(budget=100))
    # BudgetExceeded is a validation error, not a numeric one
    assert issubclass(el.BudgetExceeded, el.ValidationError)


def test_match_requires_exact_sensor_count():
    rng = np.random.default_rng(9)
    sensors = random_sensors(rng, 4, 3)  # n+1 sensors: underdetermined
    table = el.ReceptionTable.from_lists([[1.0]] * 4)
    with pytest.raises(el.ValidationError):
        el.match_events(sensors, table)
    sensors5 = random_sensors(rng, 5, 3)
    with pytest.raises(el.ValidationError):
        el.match_events(sensors5, el.ReceptionTable.from_lists([[1.0]] * 4))


def _survivors(sensors, table):
    """The tuples the match's window walk hands to the screen."""
    slack = matching._default_slack(sensors, table)
    blocks = matching._walk(table.times, sensors.pairwise_distances(), slack)
    return [
        tuple(prefix) + (value,)
        for prefixes, lo, hi in blocks
        for prefix, a, b in zip(prefixes.tolist(), lo.tolist(), hi.tolist())
        for value in table.times[-1][a:b].tolist()
    ]


@functools.cache
def _dense_scene(seed: int):
    """Twelve events within three time units, and its reference screen."""
    sensors, events, table = _scene(seed, n_events=12, span=3.0)
    return sensors, events, table, prediction_screen(sensors, table)


def _event_fields(report):
    return [(ev.event_time, ev.position.tobytes(), ev.source_times, ev.residual, ev.path,
             ev.ambiguous) for ev in report.events]


def _floor(residuals):
    return float(residuals.min()) if residuals.size else None


def _screen_is_the_reference(sensors, events, table, reference=None):
    """Assert that the match screens and accepts what the reference screen does.

    By default the matcher's residual seam sees the reference's near rows;
    with ``_screen_all`` it sees every reference row, each in walk order.
    Both modes report the same events, accepted rows and counts.  With
    ``_screen_all``, ``rejected_floor`` is the smallest residual of the
    rows that were not accepted, and the goodness margin equals the minimum
    over every screened row but the accepted genuine ones.  Returns the
    default report, the rows, their near flags and which of them the
    reference accepts.
    """
    held, screen = reference or prediction_screen(sensors, table)
    assert matching._held_out(sensors)[0] == held
    rows = np.array([row for row, _ in screen])
    near = np.array([flag for _, flag in screen])
    dist = sensors.pairwise_distances()
    residuals = el.batched_relation_residuals(rows, dist * dist)
    hits = near & (residuals <= el.MatchConfig().residual_threshold)
    screen_fn = matching.batched_relation_residuals
    reports, seen = [], []
    for screen_all in (False, True):
        calls = []

        def recording(tuples, dist2):
            calls.append(tuples.copy())
            return screen_fn(tuples, dist2)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matching, "batched_relation_residuals", recording)
            reports.append(el.match_events(sensors, table, _screen_all=screen_all))
        seen.append(np.concatenate(calls).tolist())
    report, full = reports
    assert seen == [rows[near].tolist(), rows.tolist()]
    want = list(zip(map(tuple, rows[hits].tolist()), residuals[hits].tolist()))
    for each in reports:
        assert list(each.accepted) == want
        assert each.accepted_tuples == len(want)
    assert _event_fields(full) == _event_fields(report)
    assert full.skipped == report.skipped
    assert full.evaluated_tuples == report.evaluated_tuples
    assert report.rejected_floor == _floor(residuals[near & ~hits])
    assert full.rejected_floor == _floor(residuals[~hits])
    genuine = {tuple(el.event_arrivals(sensors, ev).tolist()) for ev in events}
    kept = [res for row, res, hit in zip(rows.tolist(), residuals.tolist(), hits)
            if not (hit and tuple(row) in genuine)]
    assert acoustics._mixed_margin(full, sensors, events) == min(kept, default=None)
    return report, rows, near, hits


@pytest.mark.parametrize("chunk_rows", [1, 11, None])
def test_report_holds_the_screen_of_the_reference_walk(monkeypatch, chunk_rows):
    if chunk_rows is not None:
        monkeypatch.setattr(matching, "_CHUNK_ROWS", chunk_rows)
    lone_rows = 0
    for seed in (1, 2, 3):
        # many prefixes pass the windows
        sensors, events, table, reference = _dense_scene(seed)
        report, _, near, hits = _screen_is_the_reference(sensors, events, table, reference)
        assert hits.sum() == 12 and not near.all()
        lone_rows += int((~near).sum())
        assert {ev.source_times for ev in report.events} == {
            tuple(el.event_arrivals(sensors, ev).tolist()) for ev in events
        }
    assert lone_rows > 0


def _flat_scene(thickness: float):
    """Twelve events heard by 5 sensors within ``thickness`` of a plane."""
    rng = np.random.default_rng(3)
    base = rng.uniform(-1.0, 1.0, (5, 2))
    sensors = el.SensorArray(np.column_stack([base, thickness * rng.standard_normal(5)]))
    events = [el.EmissionEvent(float(t), rng.uniform(-1.5, 1.5, 3))
              for t in np.sort(rng.uniform(0.0, 3.0, 12))]
    return sensors, events, el.ReceptionTable.from_events(sensors, events)


@pytest.mark.parametrize("thickness", [1e-4, 1e-5])
def test_nearly_flat_prefixes_screen_what_the_reference_screens(thickness):
    # Sensors within a thickness of a plane: many prefix quadratics have
    # |a| > 1e6, and those prefixes screen their whole window.
    sensors, events, table = _flat_scene(thickness)
    report, rows, _, _ = _screen_is_the_reference(sensors, events, table)
    sub = el.SensorArray(sensors.positions[:4])  # the last sensor is held out
    flat = 0
    for prefix in {tuple(row) for row in rows[:, :4].tolist()}:
        try:
            flat += abs(el.solve(sub, prefix).quadratic[0]) > 1e6
        except el.NumericError:
            continue
    assert flat > 0
    accepted = {source for source, _ in report.accepted}
    for event in events:
        assert tuple(el.event_arrivals(sensors, event).tolist()) in accepted


@pytest.mark.parametrize("scene", ["dense-1", "dense-2", "dense-3", "flat"])
def test_prediction_does_not_depend_on_the_prefix_layout(scene):
    # Reductions over the sensor axis are max and min only, so C- and
    # F-ordered copies of the same prefixes give the same bits.
    if scene == "flat":
        sensors, _, table = _flat_scene(1e-5)
    else:
        sensors, _, table, _ = _dense_scene(int(scene[-1]))
    held, keep, local, inverse = matching._held_out(sensors)
    order = keep + [held]
    slack = matching._default_slack(sensors, table)
    walk = matching._walk(tuple(table.times[i] for i in order),
                          sensors.pairwise_distances()[np.ix_(order, order)], slack)
    prefixes = np.concatenate([block for block, _, _ in walk])
    dist = sensors.pairwise_distances()[np.ix_(keep, keep)]
    scale = sensors.diameter() + table.span()
    outputs = [matching._predict(layout(prefixes), inverse, local, dist.max(), 1e-12 * scale**2)
               for layout in (np.ascontiguousarray, np.asfortranarray)]
    (c_pred, c_fragile), (f_pred, f_fragile) = outputs
    assert c_pred.tobytes() == f_pred.tobytes()
    assert c_fragile.tobytes() == f_fragile.tobytes()
    assert np.isfinite(c_pred).any()
    assert c_fragile.any() == (scene == "flat")

    times = prefixes.T
    rng = np.random.default_rng(0)
    emit = times.min(axis=0) + 1e-8 * scale * rng.standard_normal(times.shape[1])
    flags = [lateration._spurious(emit, layout(times), dist.max())
             for layout in (np.ascontiguousarray, np.asfortranarray)]
    assert flags[0].tobytes() == flags[1].tobytes()
    assert 0 < flags[0].sum() < flags[0].size


def _hand_built_screen():
    """One piece's windows and predictions that reach each edge of the pick at tau = 0.25."""
    arrivals = np.array([0.0, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0])
    nan = math.nan
    prefixes = [  # window, root predictions, fragile
        ((0, 8), (1.0, nan), False),  # arrivals exactly at guess - tau and guess + tau
        ((5, 8), (1.1, nan), False),  # near arrivals just below the window
        ((0, 4), (1.3, nan), False),  # near arrivals just above the window
        ((0, 8), (nan, nan), False),  # no real root
        ((3, 3), (nan, nan), True),  # fragile, empty window
        ((5, 7), (nan, nan), True),  # fragile: the whole window
        ((0, 8), (2.0, 2.1), False),  # both roots pick arrival 6
        ((6, 8), (2.6, 3.1), False),  # root 0's nearest arrival is root 1's near one
        ((0, 8), (3.0, 0.5), False),  # root 1 picks before root 0
        ((6, 8), (2.5, nan), False),  # nearest arrival is a tie
        ((4, 4), (1.25, nan), False),  # empty window
        ((6, 8), (1.75, nan), False),  # the window's first arrival is at guess + tau
        ((0, 4), (1.1, nan), False),  # near arrivals run on past the window's end
    ]
    wlo, whi = (np.array(bound, dtype=np.intp) for bound in zip(*(w for w, _, _ in prefixes)))
    predicted = np.array([roots for _, roots, _ in prefixes])
    fragile = np.array([flag for _, _, flag in prefixes])
    return arrivals, wlo, whi, predicted, fragile


@pytest.mark.parametrize("screen_all", [False, True])
def test_screen_rows_picks_what_the_reference_picks(screen_all):
    args = (*_hand_built_screen(), 0.25, screen_all)
    which, index, near = matching._screen_rows(*args)
    got = list(zip(which.tolist(), index.tolist(), near.tolist()))
    assert got == screen_rows(*args)
    want = [(0, 2), (0, 3), (0, 4), (5, 5), (5, 6), (6, 6), (7, 7), (8, 1), (8, 2), (8, 7),
            (11, 6), (12, 3)]
    want = [(i, j, True) for i, j in want]
    if screen_all:
        want = sorted(want + [(1, 5, False), (2, 3, False), (9, 6, False)])
    assert got == want


@pytest.mark.parametrize("chunk_rows", [1, 11, 4096])
def test_default_screen_is_the_flagged_screen_filtered_by_near(monkeypatch, chunk_rows):
    monkeypatch.setattr(matching, "_CHUNK_ROWS", chunk_rows)
    screen, pieces = matching._screen_rows, []

    def recording(*args):
        pieces.append(args[:6])
        return screen(*args)

    monkeypatch.setattr(matching, "_screen_rows", recording)
    for seed in (1, 2, 3):
        sensors, _, table, _ = _dense_scene(seed)
        el.match_events(sensors, table)
    sensors, _, table = _flat_scene(1e-5)
    el.match_events(sensors, table)
    lone = fragile = 0
    for args in pieces:
        default, flagged = screen(*args), screen(*args, True)
        assert default[2].all()
        assert [part.tolist() for part in default[:2]] == [
            part[flagged[2]].tolist() for part in flagged[:2]
        ]
        for screen_all, result in ((False, default), (True, flagged)):
            assert list(zip(*(part.tolist() for part in result))) == screen_rows(*args, screen_all)
        lone += int((~flagged[2]).sum())
        fragile += int(args[4].sum())
    assert lone > 0 and fragile > 0


def test_rejected_floor_is_none_when_nothing_is_rejected():
    sensors, events, table = _scene(211, n_events=1)
    report = el.match_events(sensors, table)
    assert report.rejected_floor is None
    assert report.accepted == ((tuple(el.event_arrivals(sensors, events[0]).tolist()),
                                report.events[0].residual),)


def test_sweep_memory_is_bounded_by_the_piece_size(monkeypatch):
    # With 64-row pieces a 60-event scene is swept in hundreds of pieces.
    # Nothing may be kept from one piece to the next but scalars and the
    # accepted tuples, so the peak is a few dozen arrays of one piece's
    # (rows, m) floats, however many pieces there are.
    monkeypatch.setattr(matching, "_CHUNK_ROWS", 64)
    sensors, events, table = _scene(0, n_events=60, span=20.0)
    config = el.MatchConfig(budget=table.product_size())
    tracemalloc.start()
    try:
        report = el.match_events(sensors, table, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.events) == len(events)
    assert peak <= 64 * matching._CHUNK_ROWS * sensors.count * 8


def test_config_rejects_bad_values():
    for bad in (
        {"residual_threshold": -1.0},
        {"residual_threshold": math.nan},
        {"residual_threshold": math.inf},
        {"rank_tol": 0.0},
        {"rank_tol": 1.0},
        {"rank_tol": 1.5},
        {"rank_tol": math.nan},
        {"budget": -1},
        {"budget": math.nan},
        {"budget": "x"},
        {"residual_threshold": "x"},
        {"rank_tol": "x"},
        {"keep_ambiguous": "no"},  # a truthy string would keep the ambiguous events
        {"keep_ambiguous": 1},
        {"keep_ambiguous": None},
    ):
        with pytest.raises(el.ValidationError):
            el.MatchConfig(**bad)
    el.MatchConfig(residual_threshold=0.0, budget=0)
    el.MatchConfig(keep_ambiguous=False)
    el.MatchConfig(keep_ambiguous=np.False_)


def test_prune_tuples_never_drops_a_true_event():
    for seed in (211, 212, 213, 214):
        sensors, events, table = _scene(seed)
        survivors = set(_survivors(sensors, table))
        for ev in events:
            assert tuple(el.event_arrivals(sensors, ev)) in survivors


def test_prune_tuples_cuts_far_receptions():
    sensors, events, table = _scene(211)
    lists = [list(arr) for arr in table.times]
    lists[0].append(1000.0)  # no other sensor hears anything near t=1000
    table2 = el.ReceptionTable.from_lists(lists)
    survivors = _survivors(sensors, table2)
    assert all(row[0] != 1000.0 for row in survivors)
    assert len(survivors) == len(_survivors(sensors, table))


def test_table_from_events():
    sensors, events, table = _scene(211)
    built = el.ReceptionTable.from_events(sensors, events)
    assert [arr.tolist() for arr in built.times] == [arr.tolist() for arr in table.times]
    built = el.ReceptionTable.from_events(
        sensors, events, dropout=[(np.int64(1), 0), (2, 4)], spurious=[(4, 50.0)]
    )
    arrivals = [el.event_arrivals(sensors, ev) for ev in events]
    assert built.sizes() == (2, 3, 3, 3, 3)
    assert built.times[0].tolist() == sorted([arrivals[0][0], arrivals[2][0]])
    assert built.times[4].tolist() == sorted([arrivals[0][4], arrivals[1][4], 50.0])
    assert el.ReceptionTable.from_events(sensors, []).sizes() == (0,) * 5
    for bad in ([(3, 0)], [(0, 5)], [(-1, 0)], [(1.0, 0)]):
        with pytest.raises(el.ValidationError):
            el.ReceptionTable.from_events(sensors, events, dropout=bad)
    for bad in ([(5, 1.0)], [(np.float64(2.0), 1.0)]):
        with pytest.raises(el.ValidationError):
            el.ReceptionTable.from_events(sensors, events, spurious=bad)


def test_table_from_events_is_the_per_event_forward_model():
    rng = np.random.default_rng(40)
    for _ in range(50):
        n = int(rng.integers(2, 4))
        sensors = random_sensors(rng, n + 2, n, box=10.0 ** rng.uniform(-3.0, 3.0))
        events = [el.EmissionEvent(rng.uniform(-5.0, 5.0), rng.uniform(-3.0, 3.0, n))
                  for _ in range(int(rng.integers(0, 9)))]
        dropout = [(int(rng.integers(len(events))), int(rng.integers(n + 2)))
                   for _ in range(3 if events else 0)]
        spurious = [(int(rng.integers(n + 2)), rng.uniform(-5.0, 5.0)) for _ in range(3)]
        keep = np.ones((len(events), n + 2), dtype=bool)
        for event_index, sensor_index in dropout:
            keep[event_index, sensor_index] = False
        arrivals = np.array([el.event_arrivals(sensors, ev) for ev in events]).reshape(keep.shape)
        want = el.ReceptionTable(tuple(
            np.concatenate((arrivals[keep[:, i], i], [t for j, t in spurious if j == i]))
            for i in range(n + 2)
        ))
        got = el.ReceptionTable.from_events(sensors, events, dropout=dropout, spurious=spurious)
        assert [arr.tobytes() for arr in got.times] == [arr.tobytes() for arr in want.times]
    with pytest.raises(el.ValidationError, match="event has dimension 2, sensors have 3"):
        el.ReceptionTable.from_events(random_sensors(rng, 5, 3), [el.EmissionEvent(0.0, [0.0, 0.0])])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dedup_matches_the_reference_loop(seed):
    # Clusters a few time_eps apart, with offsets on the tolerance and tied
    # times, positions and residuals, so that windows overlap, chain and
    # replace their representatives.
    rng = np.random.default_rng(seed)
    eps = 1e-6
    found = []
    for _ in range(int(rng.integers(0, 10))):
        time, point = rng.uniform(0.0, 8.0) * eps, rng.uniform(-1.0, 1.0, 3)
        for _ in range(int(rng.integers(1, 6))):
            dt = rng.choice([0.0, eps, -eps, rng.uniform(-2.0, 2.0) * eps])
            dx = rng.choice([0.0, 2.0 * eps, rng.uniform(-4.0, 4.0) * eps], size=3)
            residual = rng.choice([0.0, 1e-12, rng.uniform()])
            found.append(el.DetectedEvent(time + dt, point + dx, (), residual,
                                          el.SolvePath.FULL_RANK, False))
    want = dedup_events(found, eps, 2.0 * eps)
    got = matching._dedup_events(list(found), eps, 2.0 * eps)
    assert [id(ev) for ev in got] == [id(ev) for ev in want]


def _windowed_dedup_on_arrays(found, time_eps, pos_eps):
    """``matching._dedup_events`` as it was when it compared numpy positions."""
    def key(ev):
        return (ev.event_time, tuple(ev.position))

    found.sort(key=key)
    reps = []
    start = 0
    for ev in found:
        while start < len(reps) and ev.event_time - reps[start].event_time > time_eps:
            start += 1
        for i in range(start, len(reps)):
            rep = reps[i]
            if (
                ev.event_time - rep.event_time <= time_eps
                and np.max(np.abs(ev.position - rep.position)) <= pos_eps
            ):
                if ev.residual < rep.residual:
                    reps[i] = ev
                break
        else:
            reps.append(ev)
    reps.sort(key=key)
    return reps


@pytest.mark.parametrize("seed", range(40))
def test_dedup_on_floats_is_the_dedup_on_arrays(seed):
    # Random events on a coarse grid of times and points, so that exact
    # (time, position) ties, near ties within the tolerances and distinct
    # events all occur, in R^2 and R^3 and at two scales.
    rng = np.random.default_rng([seed, 27])
    dim, scale = 2 + seed % 2, (1.0, 1e3)[seed // 20]
    eps = 1e-6
    found = []
    for _ in range(int(rng.integers(0, 40))):
        time = scale * rng.integers(0, 2) + rng.choice([0.0, eps / 2, 2 * eps])
        point = scale * rng.integers(0, 2, dim) + rng.choice([0.0, eps / 2, 3 * eps], size=dim)
        residual = rng.choice([0.0, 1e-15, rng.uniform()])
        found.append(el.DetectedEvent(time, point, (), residual, el.SolvePath.FULL_RANK, False))
    want = _windowed_dedup_on_arrays(list(found), eps, eps * scale)
    got = matching._dedup_events(list(found), eps, eps * scale)
    assert [id(ev) for ev in got] == [id(ev) for ev in want]


def test_dedup_keeps_the_lower_residual_of_an_exact_tie():
    point = np.array([0.5, -0.25, 2.0])
    events = [el.DetectedEvent(1.0, point, (), residual, el.SolvePath.FULL_RANK, False)
              for residual in (3e-16, 1e-16, 2e-16)]
    for order in ([0, 1, 2], [2, 1, 0], [1, 0, 2]):
        (kept,) = matching._dedup_events([events[i] for i in order], 1e-6, 1e-6)
        assert kept is events[1]


def test_dense_scene_events_match_least_squares_solves():
    # The matcher solves its full-rank tuples in one batch through the
    # layout's factor and sends the rest to solve; every event must carry
    # the digits, path and ambiguity of a lone solve of its tuple on a fresh
    # layout, which never reads a factor.  Shifting every time by 1e3 pushes
    # part of the tuples below full rank, so both paths run.
    rng = np.random.default_rng(2207)
    while True:
        sensors = random_sensors(rng, 5, 3)
        geometry = el.check_geometry(sensors)
        if geometry.noncoplanar and geometry.condition_ok:
            break
    events = [el.EmissionEvent(t, rng.uniform(-1.0, 1.0, 3)) for t in rng.uniform(0.0, 20.0, 60)]
    table = el.ReceptionTable.from_events(sensors, events)
    config = el.MatchConfig(budget=table.product_size())

    def digits(time, position):
        return time.hex(), [x.hex() for x in position.tolist()]

    paths = set()
    for shift in (0.0, 1e3):
        shifted = el.ReceptionTable.from_lists([arr + shift for arr in table.times])
        report = el.match_events(sensors, shifted, config)
        assert len(report.events) >= 60
        assert sensors._factor is not None
        for ev in report.events:
            lone = el.solve(el.SensorArray(sensors.positions), ev.source_times)
            viable = [c.event for c in lone.candidates if not c.spurious]
            assert digits(ev.event_time, ev.position) in [digits(e.time, e.position) for e in viable]
            assert (ev.path, ev.ambiguous) == (lone.path, len(viable) > 1)
            paths.add(ev.path)
    assert paths == {el.SolvePath.FULL_RANK, el.SolvePath.QUADRATIC}


def test_empty_reception_list_means_no_events():
    sensors, _, table = _scene(211)
    lists = [list(arr) for arr in table.times]
    lists[3] = []
    report = el.match_events(sensors, el.ReceptionTable.from_lists(lists))
    assert report.candidate_tuples == 0
    assert report.events == ()
    assert report.rejected_tuples == 0


# Quarter-unit times and integer sensor coordinates put many window
# boundaries exactly on a reception time.
_walk_times = st.lists(st.integers(0, 24).map(lambda k: k / 4.0), max_size=7)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda m: st.tuples(
            st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=m, max_size=m),
            st.lists(_walk_times, min_size=m, max_size=m),
        )
    ),
    st.sampled_from([0.0, 1e-9, 0.3, math.inf]),
    st.sampled_from([1, 2, 3, None]),
)
def test_walk_matches_the_reference_walk(scene, slack, chunk_rows):
    points, lists = scene
    positions = np.array(points, dtype=float)
    gaps = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((gaps * gaps).sum(axis=2))
    arrays = el.ReceptionTable.from_lists(lists).times

    want_counts = {"pruned": 0}
    want = [(tuple(prefix.tolist()), lo, hi)
            for prefix, lo, hi in survivor_blocks(arrays, dist, slack, want_counts)]
    with pytest.MonkeyPatch.context() as mp:
        if chunk_rows is not None:
            mp.setattr(matching, "_CHUNK_ROWS", chunk_rows)
        limit = max(matching._CHUNK_ROWS, *(arr.size for arr in arrays))
        blocks = list(matching._walk(arrays, dist, slack))
    assert all(0 < block.shape[0] <= limit for block, _, _ in blocks)
    assert all(block.shape[1] == len(arrays) - 1 for block, _, _ in blocks)
    assert all(block.flags.f_contiguous for block, _, _ in blocks)
    assert all((hi >= lo).all() for _, lo, hi in blocks)
    got = [
        (tuple(prefix), a, b)
        for block, lo, hi in blocks
        for prefix, a, b in zip(block.tolist(), lo.tolist(), hi.tolist())
        if b > a
    ]
    assert got == want
    # match_events reports the product minus the screened rows as pruned
    screened = sum(int((hi - lo).sum()) for _, lo, hi in blocks)
    assert math.prod(arr.size for arr in arrays) - screened == want_counts["pruned"]


MATCH_GOLDEN = Path(__file__).resolve().parent / "match_golden.json"
MATCH_GOLDEN_CASES = [f"{kind} {seed}" for kind in ("uniform", "scaled", "rotated")
                      for seed in (range(8) if kind == "uniform" else range(4))]


def _golden_match_scene(case: str):
    """5 sensors and 60 events in [-1, 1]^3 over 20 time units, as drawn or moved.

    ``scaled`` multiplies every coordinate and time by 3.7 and ``rotated``
    turns the scene by a fixed rotation with entries off the 2**-52 grid,
    so the sensor differences a_i - a_h are no longer exact.
    """
    kind, seed = case.split()
    rng = np.random.default_rng(int(seed))
    while True:
        positions = rng.uniform(-1.0, 1.0, (5, 3))
        geometry = el.check_geometry(el.SensorArray(positions))
        if geometry.noncoplanar and geometry.condition_ok:
            break
    times, points = rng.uniform(0.0, 20.0, 60), rng.uniform(-1.0, 1.0, (60, 3))
    if kind == "scaled":
        positions, points, times = 3.7 * positions, 3.7 * points, 3.7 * times
    elif kind == "rotated":
        # rotations by the angles of the triangles (3, 4, 5) and (5, 12, 13)
        turn = np.array([[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]])
        tilt = np.array([[1.0, 0.0, 0.0], [0.0, 5 / 13, -12 / 13], [0.0, 12 / 13, 5 / 13]])
        rot = (turn[:, :, None] * tilt[None, :, :]).sum(axis=1)
        positions = (positions[:, None, :] * rot[None, :, :]).sum(axis=2)
        points = (points[:, None, :] * rot[None, :, :]).sum(axis=2)
    sensors = el.SensorArray(positions)
    events = [el.EmissionEvent(t, p) for t, p in zip(times.tolist(), points)]
    return sensors, el.ReceptionTable.from_events(sensors, events)


def _report_digest(report) -> str:
    """sha256 over every field of a MatchReport, floats by ``.hex()``."""
    def plain(value):
        if dataclasses.is_dataclass(value):
            return [plain(getattr(value, f.name)) for f in dataclasses.fields(value)]
        if isinstance(value, np.ndarray):
            return plain(value.tolist())
        if isinstance(value, (tuple, list)):
            return [plain(v) for v in value]
        if isinstance(value, float):
            return value.hex()
        return value.value if isinstance(value, enum.Enum) else value

    return hashlib.sha256(json.dumps(plain(report)).encode()).hexdigest()


def _golden_match_digests(case: str) -> dict:
    sensors, table = _golden_match_scene(case)
    config = el.MatchConfig(budget=table.product_size())
    return {f"screen_all={flag}": _report_digest(
                el.match_events(el.SensorArray(sensors.positions), table, config, _screen_all=flag))
            for flag in (False, True)}


def test_match_output_matches_the_recorded_golden():
    # Regenerate with ``PYTHONPATH=src python tests/test_matching.py >
    # tests/match_golden.json``, only in a change meant to alter the output.
    # Residual digits depend on the BLAS kernel, so this pins one machine.
    golden = json.loads(MATCH_GOLDEN.read_text())
    assert list(golden) == MATCH_GOLDEN_CASES
    for case in MATCH_GOLDEN_CASES:
        assert _golden_match_digests(case) == golden[case], case


if __name__ == "__main__":
    json.dump({case: _golden_match_digests(case) for case in MATCH_GOLDEN_CASES},
              sys.stdout, indent=1)
    sys.stdout.write("\n")
