"""Event sequences built from arrays, shared by the tests."""

from __future__ import annotations

from typing import Sequence

from spectpp.core import Event, EventSequence


def sequence_from_arrays(times: Sequence[float], marks: Sequence[int], t_end: float) -> EventSequence:
    events = tuple(Event(float(t), int(k)) for t, k in zip(times, marks))
    return EventSequence(events, float(t_end))
