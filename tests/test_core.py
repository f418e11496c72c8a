import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectpp.core import (
    Event,
    EventSequence,
    RngStream,
    clamped_exp,
    read_sequences,
    validate_sequence,
    write_sequences,
)

from sequences import sequence_from_arrays


def test_empty_sequence_is_valid():
    report = validate_sequence(EventSequence((), 100.0), k_cardinality=3)
    assert report.ok


def test_non_monotone_times_rejected():
    seq = sequence_from_arrays([2.0, 1.0], [0, 0], 100.0)
    report = validate_sequence(seq, k_cardinality=1)
    assert not report.ok
    assert "non-monotone" in report.message
    assert report.index == 1


def test_time_beyond_horizon_rejected():
    seq = sequence_from_arrays([101.0], [0], 100.0)
    report = validate_sequence(seq, k_cardinality=1)
    assert not report.ok
    assert "exceeds horizon" in report.message


def test_mark_out_of_range_rejected():
    seq = sequence_from_arrays([1.0], [5], 100.0)
    assert not validate_sequence(seq, k_cardinality=3).ok
    # a mark that is not an integer used to be truncated to a valid one, and
    # one that no int64 holds raised OverflowError
    for mark in (0.5, 10**30):
        report = validate_sequence(EventSequence((Event(1.0, 0), Event(2.0, mark)), 100.0), 3)
        assert not report.ok and report.index == 1 and "mark out of range" in report.message


def test_a_bool_mark_is_refused():
    """Python's bool is an int, and a sequence whose marks are all bools, or
    ints with a bool among them, used to pass check_sequence; a numpy bool
    is refused as well."""
    for marks in ((True, False), (0, True), (np.True_, 0)):
        seq = EventSequence((Event(1.0, marks[0]), Event(2.0, marks[1])), 100.0)
        report = validate_sequence(seq, 3)
        index = 0 if isinstance(marks[0], (bool, np.bool_)) else 1
        assert not report.ok and report.index == index
        assert "mark out of range" in report.message


def test_rng_is_reproducible():
    a = [RngStream(42, 7).uniform() for _ in range(5)]
    b = [RngStream(42, 7).uniform() for _ in range(5)]
    # fresh streams restart from the beginning
    assert RngStream(42, 7).uniform() == a[0]
    stream1, stream2 = RngStream(42, 7), RngStream(42, 7)
    assert [stream1.uniform() for _ in range(5)] == [stream2.uniform() for _ in range(5)]
    assert a == b


def test_child_streams_are_stable_and_distinct():
    root = RngStream(3)
    assert root.child("draft").stream == RngStream(3).child("draft").stream
    assert root.child("draft").stream != root.child("verify").stream
    assert root.child("draft").uniform() != root.child("verify").uniform()


def test_uniform_mean_monte_carlo():
    # CLT: sd of the mean of 1e6 uniforms is ~2.9e-4; 0.002 is ~7 sigma
    draws = RngStream(11).uniform(10**6)
    assert abs(float(np.mean(draws)) - 0.5) < 0.002


def test_normal_variance_monte_carlo():
    # var of the sample variance is ~2/n; 0.006 is ~4 sigma
    draws = RngStream(12).normal(10**6)
    assert abs(float(np.var(draws)) - 1.0) < 0.006


def test_uniform_in_unit_interval():
    draws = RngStream(13).uniform(10_000)
    assert np.all(draws >= 0.0) and np.all(draws < 1.0)


def test_standard_normal_single_draw_changes_state():
    stream = RngStream(5)
    assert stream.normal() != stream.normal()


def test_distinct_streams_look_independent():
    a = RngStream(9, 1).uniform(10**5)
    b = RngStream(9, 2).uniform(10**5)
    assert abs(float(np.corrcoef(a, b)[0, 1])) < 0.01


def test_clamped_exp_is_finite_and_positive():
    assert clamped_exp(1e6) == math.exp(709.0)
    assert clamped_exp(-1e6) > 0.0
    assert clamped_exp(0.0) == 1.0
    assert math.isnan(clamped_exp(math.nan))
    logs = np.array([-1e6, -3.0, 0.0, 2.5, 1e6, np.nan])
    assert np.array_equal(clamped_exp(logs), np.exp(np.clip(logs, -745.0, 709.0)),
                          equal_nan=True)


def test_categorical_draw_matches_probabilities():
    probs = np.array([0.2, 0.5, 0.3])
    stream = RngStream(21)
    draws = np.array([stream.categorical(probs) for _ in range(20_000)])
    freqs = np.bincount(draws, minlength=3) / draws.size
    assert np.all(np.abs(freqs - probs) < 0.015)


def test_categorical_picks_as_numpy_inverse_cdf():
    """The float fold's CDF is numpy's cumsum bit for bit, so each draw
    picks the index searchsorted would from the same uniform."""
    vectors = np.random.default_rng(0)
    stream, replica = RngStream(22), RngStream(22)
    for k in (1, 2, 16) * 200:
        probs = vectors.dirichlet(np.ones(k))
        cdf = probs.cumsum()
        u = replica.uniform() * cdf[-1]
        assert stream.categorical(probs) == min(cdf.searchsorted(u, side="right"), k - 1)


@st.composite
def event_sequences(draw):
    n = draw(st.integers(min_value=0, max_value=20))
    gaps = draw(st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=n, max_size=n))
    marks = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n))
    times = np.cumsum(gaps) if n else np.array([])
    t_end = (float(times[-1]) if n else 0.0) + draw(st.floats(min_value=0.1, max_value=50.0))
    return sequence_from_arrays(times, marks, t_end)


@given(event_sequences())
@settings(max_examples=200, deadline=None)
def test_sequence_file_round_trip(tmp_path_factory, seq):
    path = tmp_path_factory.mktemp("seqs") / "data.jsonl"
    write_sequences(path, [seq])
    (loaded,) = read_sequences(path)
    assert loaded.t_end == seq.t_end
    assert np.array_equal(loaded.times, seq.times)
    assert np.array_equal(loaded.marks, seq.marks)


def test_sequence_file_is_jsonl_with_expected_fields(tmp_path):
    seq = sequence_from_arrays([0.5, 1.25], [0, 2], 10.0)
    path = tmp_path / "data.jsonl"
    write_sequences(path, [seq, seq])
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 2
    record = json.loads(lines[0])
    assert record["t_end"] == 10.0
    assert record["events"] == [[0.5, 0], [1.25, 2]]


def test_inter_event_times():
    seq = sequence_from_arrays([1.0, 3.0, 3.5], [0, 0, 0], 10.0)
    assert np.allclose(seq.inter_event_times(), [1.0, 2.0, 0.5])
    assert EventSequence((), 5.0).inter_event_times().size == 0


def test_events_are_immutable():
    event = Event(1.0, 2)
    with pytest.raises(AttributeError):
        event.time = 3.0
