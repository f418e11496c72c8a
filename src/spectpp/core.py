"""Event sequences, reproducible RNG streams, and shared numeric helpers.

Every other module builds on the types here: marked events on a finite
observation window, counter-based random streams that can be split into
named sub-streams without perturbing each other, and the log-space clamp
used whenever two densities are compared by ratio.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from operator import index
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

# exp() underflows below and overflows above these bounds in float64;
# log-ratios are clamped here before exponentiation.
LOG_RATIO_MIN = -745.0
LOG_RATIO_MAX = 709.0

_MASK64 = (1 << 64) - 1


def clamped_exp(log_value):
    """exp() of log-ratios, scalar or array, clamped so each result is
    finite and nonzero; a NaN stays NaN. np.maximum and np.minimum give
    np.clip's values without its Python wrapper."""
    return np.exp(np.minimum(np.maximum(log_value, LOG_RATIO_MIN), LOG_RATIO_MAX))


@dataclass(frozen=True)
class Event:
    """A single marked event: occurrence time and integer mark in [0, K)."""

    time: float
    mark: int = 0


@dataclass(frozen=True)
class EventSequence:
    """A time-ordered list of events observed on the window (0, t_end].

    The sequence may be empty; ``t_end`` is the observation horizon, not
    the time of the last event. Construction checks nothing: every module
    that reads a sequence applies check_sequence, which states the format.
    """

    events: tuple[Event, ...]
    t_end: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    @property
    def times(self) -> np.ndarray:
        return np.array([e.time for e in self.events], dtype=float)

    @property
    def marks(self) -> np.ndarray:
        return np.array([e.mark for e in self.events], dtype=int)

    def inter_event_times(self) -> np.ndarray:
        """Gaps between consecutive events, with the first gap taken from 0."""
        times = self.times
        if times.size == 0:
            return times
        return np.diff(np.concatenate([[0.0], times]))


def check_horizon(t_end: float) -> None:
    """Raise ValueError unless t_end is a finite positive horizon: with any
    other a simulation or sampling run never ends or ends in a sequence
    that check_sequence refuses."""
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be positive and finite, got {t_end}")


def advance_clock(t: float, tau: float) -> float:
    """The clock after an interval tau from t. Raises when the interval does
    not move it to a later finite time, as when tau is below t's last bit:
    a sampler or simulator that kept such a time would emit two events at
    one time, or never pass t_end."""
    t_next = t + tau
    if not t < t_next < math.inf:
        raise FloatingPointError(f"interval {tau!r} from t={t!r} does not move the clock")
    return t_next


class SequenceError(ValueError):
    """A sequence outside the format, with the index of its first violating
    event (None when the horizon is at fault)."""

    def __init__(self, message: str, index: int | None = None) -> None:
        super().__init__(message)
        self.index = index


# mark types that are not integers, though numpy and Python count them as ints
_BOOLS = {bool, np.bool_}


def check_sequence(seq: EventSequence, n_marks: int) -> tuple[np.ndarray, np.ndarray]:
    """The sequence's times and marks, if it is valid: a finite horizon
    t_end > 0, finite times 0 < t_1 < ... < t_N <= t_end and integer marks in
    [0, n_marks). This is the one rule for a valid sequence, which every
    module that reads one applies. Otherwise raises a SequenceError (a
    ValueError) naming the first violation and its event index, found by a
    walk over the events. A valid one passes on a few numpy calls, which a
    NaN, an infinite time or marks that are not all int64 integers fail;
    a bool is not an integer mark, though Python's bool is an int."""
    check_horizon(seq.t_end)
    mark_list = [e.mark for e in seq.events]
    times, marks = seq.times, np.array(mark_list)
    if times.size and not (times[0] > 0 and times[-1] <= seq.t_end
                           and np.logical_and.reduce(times[1:] > times[:-1])
                           and marks.dtype.kind in "iu" and marks.min() >= 0
                           and marks.max() < n_marks and _BOOLS.isdisjoint(map(type, mark_list))):
        previous = 0.0
        for i, (t, mark) in enumerate(zip(times.tolist(), mark_list)):
            if not math.isfinite(t):
                message = f"non-finite time {t} at index {i}"
            elif not t > previous:
                message = f"non-monotone at index {i}: time {t} is not after {previous}"
            elif t > seq.t_end:
                message = f"time exceeds horizon at index {i}: {t} > t_end {seq.t_end}"
            elif not (isinstance(mark, (int, np.integer)) and type(mark) not in _BOOLS
                      and 0 <= mark < n_marks):
                message = f"mark out of range at index {i}: {mark!r} not in range({n_marks})"
            else:
                previous = t
                continue
            raise SequenceError(message, i)
    return times, marks.astype(int, copy=False)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_sequence: ok, or the first violation found."""

    ok: bool
    message: str = ""
    index: int | None = None


def validate_sequence(seq: EventSequence, k_cardinality: int) -> ValidationReport:
    """check_sequence's rule as a report: ok, or the first violation's
    message and event index (None when the horizon is at fault)."""
    try:
        check_sequence(seq, k_cardinality)
    except ValueError as exc:
        return ValidationReport(False, str(exc), getattr(exc, "index", None))
    return ValidationReport(True)


def _derive_stream_id(parent_stream: int, name: str) -> int:
    digest = hashlib.blake2b(f"{parent_stream}/{name}".encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "little")


@dataclass
class RngStream:
    """A named, reproducible random stream backed by counter-based Philox.

    The same (seed, stream) pair always yields the same draw sequence;
    distinct stream ids are statistically independent. Children derive
    their stream id from the parent id and a label, so e.g. drafting and
    residual resampling can consume independently of each other. The
    generator is built with the stream, so a draw reads it as a plain
    attribute.
    """

    seed: int
    stream: int = 0
    generator: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        self.generator = np.random.Generator(np.random.Philox(key=key))

    def child(self, name: str) -> "RngStream":
        """Fresh independent stream labelled relative to this one."""
        return RngStream(self.seed, _derive_stream_id(self.stream, name))

    def uniform(self, size=None):
        return self.generator.random(size)

    def normal(self, size=None):
        return self.generator.standard_normal(size)

    def exponential(self, rate: float) -> float:
        return float(self.generator.standard_exponential() / rate)

    def categorical(self, probabilities: np.ndarray) -> int:
        """Single draw from a probability vector via inverse CDF. The CDF is
        a left fold over Python floats, the order of numpy's cumsum, which
        costs more than the fold for the few entries a draw has."""
        cdf = list(accumulate(probabilities.tolist()))
        u = self.generator.random() * cdf[-1]
        return min(bisect_right(cdf, u), len(cdf) - 1)

    def shuffled(self, n: int) -> np.ndarray:
        return self.generator.permutation(n)


# ---------------------------------------------------------------------------
# Sequence file format: one JSON record per line, fields "t_end" and
# "events" (list of [time, mark] pairs), UTF-8.
# ---------------------------------------------------------------------------


def sequence_to_record(seq: EventSequence) -> dict:
    return {"t_end": seq.t_end, "events": [[e.time, e.mark] for e in seq.events]}


def _number(value, name: str) -> float:
    """A time or t_end that is not a JSON float: an integer as a float;
    anything else, a string or a bool too, raises TypeError."""
    if type(value) is int:
        return float(value)
    raise TypeError(f"{name} {value!r} is not a number")


def _integer(value) -> int:
    """A mark that is not a JSON integer: a bool, which operator.index reads
    as 1 or 0, raises TypeError, and so does operator.index for a float
    such as 0.7, which int() would truncate to a valid mark, or a string."""
    if type(value) is bool:
        raise TypeError(f"mark {value!r} is not an integer")
    return index(value)


def sequence_from_record(record: dict) -> EventSequence:
    """The sequence a record holds. Times and t_end must be JSON numbers and
    marks JSON integers. A float time and an int mark, the common case,
    are taken as they are after one type compare each; anything else goes
    through _number or _integer, which refuse strings and bools."""
    try:
        pairs, t_end = record["events"], record["t_end"]
        events = tuple(Event(t if type(t) is float else _number(t, "time"),
                             k if type(k) is int else _integer(k)) for t, k in pairs)
        t_end = t_end if type(t_end) is float else _number(t_end, "t_end")
    except TypeError as exc:
        # a record that is not an object, events that are not [time, mark]
        # pairs, or a time or mark of the wrong type
        raise ValueError(f"malformed sequence record: {exc}") from None
    return EventSequence(events, t_end)


def write_sequences(path: str | Path, sequences: Iterable[EventSequence]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for seq in sequences:
            fh.write(json.dumps(sequence_to_record(seq)) + "\n")


def read_sequences(path: str | Path) -> list[EventSequence]:
    sequences = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                sequences.append(sequence_from_record(json.loads(line)))
    return sequences
