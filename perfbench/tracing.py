"""In-memory spans around the public spectpp calls the benchmark makes.

A ``Tracer`` replaces module attributes with timing wrappers while it is
installed and puts the originals back when it is removed, so an untraced
pass runs exactly the unmodified functions. Wrappers are placed on the
attribute a caller looks up (``spectpp.sampler.next_event_distributions``
is the name ``draft``, ``verify`` and ``ar_sample`` resolve), which is why
the patch table names the calling module, not the defining one.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    group: str
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span and
    the group (one sequence, one batch or one phase) it belongs to."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.group = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter(), 0.0, parent, self.group)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: Span) -> None:
        record.end = time.perf_counter()
        self._stack.pop()

    def patch(self, owner, attr: str, name, note=None) -> None:
        """Wrap ``owner.attr``. ``name`` is a span name or a function of the
        call's arguments returning one; ``note(args, result)`` returns a
        dict of counts stored on the span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            record = self._open(name(*args) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(record)
            if note is not None:
                record.info.update(note(args, result))
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "group": s.group, **s.info}) + "\n")


@dataclass
class NameStats:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    durations: list[float] = field(default_factory=list)
    info: dict = field(default_factory=dict)


def summarize(spans: list[Span], keep) -> dict[str, NameStats]:
    """Per span name: calls, total and self time (duration minus the part
    covered by child spans), durations, and summed counts, over the spans
    whose group satisfies ``keep``."""
    child_seconds = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_seconds[s.parent] += s.seconds
    out: dict[str, NameStats] = {}
    for i, s in enumerate(spans):
        if not keep(s.group):
            continue
        stats = out.setdefault(s.name, NameStats())
        stats.calls += 1
        stats.seconds += s.seconds
        stats.self_seconds += s.seconds - child_seconds[i]
        stats.durations.append(s.seconds)
        for key, value in s.info.items():
            stats.info[key] = stats.info.get(key, 0) + value
    return out
