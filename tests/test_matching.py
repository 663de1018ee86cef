"""Tests for the reception-table sweep that matches times to events."""

from __future__ import annotations

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import echolat as el
from echolat import acoustics, matching
from echolat.cli import main
from conftest import AMBIGUOUS_3D, dataset_times, random_sensors, sensor_array
from oracles import prediction_screen, survivor_blocks


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
    return [tuple(row) for block in blocks for row in block.tolist()]


@functools.cache
def _dense_scene(seed: int):
    """Twelve events within three time units, and its reference screen."""
    sensors, events, table = _scene(seed, n_events=12, span=3.0)
    return sensors, events, table, prediction_screen(sensors, table)


def _screen_is_the_reference(sensors, events, table, reference=None):
    """Assert that the match screens and accepts what the reference screen does.

    The matcher's residual seam sees the reference's near rows and
    ``unconfirmed`` holds its other rows, each in walk order.  The goodness
    margin over both equals the minimum over every screened row but the
    accepted genuine ones.  Returns the report, the rows, their near flags
    and which of them the reference accepts.
    """
    held, screen = reference or prediction_screen(sensors, table)
    assert matching._held_out(sensors)[0] == held
    rows = np.array([row for row, _ in screen])
    near = np.array([flag for _, flag in screen])
    dist = sensors.pairwise_distances()
    residuals = el.batched_relation_residuals(rows, dist * dist)
    hits = near & (residuals <= el.MatchConfig().residual_threshold)
    seen = []
    screen_fn = matching.batched_relation_residuals
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matching, "batched_relation_residuals",
                   lambda tuples, dist2: seen.append(tuples.copy()) or screen_fn(tuples, dist2))
        report = el.match_events(sensors, table)
    assert np.concatenate(seen).tolist() == rows[near].tolist()
    assert report.unconfirmed.tolist() == rows[~near].tolist()
    assert not report.unconfirmed.flags.writeable
    want = list(zip(map(tuple, rows[hits].tolist()), residuals[hits].tolist()))
    assert list(report.accepted) == want
    assert report.accepted_tuples == len(want)
    rejected = residuals[near & ~hits]
    assert report.rejected_floor == (float(rejected.min()) if rejected.size else None)
    genuine = {tuple(el.event_arrivals(sensors, ev).tolist()) for ev in events}
    kept = [res for row, res, hit in zip(rows.tolist(), residuals.tolist(), hits)
            if not (hit and tuple(row) in genuine)]
    assert acoustics._mixed_margin(report, sensors, events) == min(kept, default=None)
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


@pytest.mark.parametrize("thickness", [1e-4, 1e-5])
def test_nearly_flat_prefixes_screen_what_the_reference_screens(thickness):
    # Sensors within a thickness of a plane: many prefix quadratics have
    # |a| > 1e6, and those prefixes screen their whole window.
    rng = np.random.default_rng(3)
    base = rng.uniform(-1.0, 1.0, (5, 2))
    sensors = el.SensorArray(np.column_stack([base, thickness * rng.standard_normal(5)]))
    events = [el.EmissionEvent(float(t), rng.uniform(-1.5, 1.5, 3))
              for t in np.sort(rng.uniform(0.0, 3.0, 12))]
    table = el.ReceptionTable.from_events(sensors, events)
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


def test_rejected_floor_is_none_when_nothing_is_rejected():
    sensors, events, table = _scene(211, n_events=1)
    report = el.match_events(sensors, table)
    assert report.rejected_floor is None
    assert report.accepted == ((tuple(el.event_arrivals(sensors, events[0]).tolist()),
                                report.events[0].residual),)


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
    ):
        with pytest.raises(el.ValidationError):
            el.MatchConfig(**bad)
    el.MatchConfig(residual_threshold=0.0, budget=0)


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
    want = [
        tuple(prefix.tolist()) + (value,)
        for prefix, lo, hi in survivor_blocks(arrays, dist, slack, want_counts)
        for value in arrays[-1][lo:hi].tolist()
    ]
    with pytest.MonkeyPatch.context() as mp:
        if chunk_rows is not None:
            mp.setattr(matching, "_CHUNK_ROWS", chunk_rows)
        limit = max(matching._CHUNK_ROWS, *(arr.size for arr in arrays))
        blocks = list(matching._walk(arrays, dist, slack))
    assert all(0 < block.shape[0] <= limit for block in blocks)
    assert all(block.shape[1] == len(arrays) for block in blocks)
    got = [tuple(row) for block in blocks for row in block.tolist()]
    assert got == want
    # match_events reports the product minus the screened rows as pruned
    assert math.prod(arr.size for arr in arrays) - len(got) == want_counts["pruned"]
