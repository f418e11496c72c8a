"""Autoregressive and speculative event-sequence sampling.

The speculative loop drafts gamma candidate events from a small model,
verifies them against the target model with a single batched forward pass,
and at the first rejection redraws only the rejected interval or mark from
its residual norm(max(0, target - draft)) — intervals by rejection sampling
with threshold max(0, g_T - g_D)/g_T, marks by normalizing the positive
part directly. One step of this loop emits events with exactly the target
model's next-event law.

Autoregressive sampling is the same loop with another step. One run loop
repeats a step, its run's caches and streams bound, on the run's events,
held as times and marks in growing arrays that the forward reads as it
reads an EventSequence's. A draft is gamma AR steps of the draft model,
which leave its candidates appended to the run's events and return their
draft law as a forward returns the target's, as head rows; verify reads
the candidates there, scores the intervals the run holds under both laws,
cuts the events to the accepted prefix and appends the replacement.
The loop drops the events after t_end, builds the output once and reports
the passes and rows that its caches counted.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable

import numpy as np

from .core import (Event, EventSequence, RngStream, advance_clock, check_horizon, check_sequence,
                   clamped_exp)
from .model import (
    EncoderCache,
    MixtureParams,
    ModelCheckpoint,
    _mixture_logpdf,
    next_event_distributions,
    position_distributions,
    sample_interval,
)

logger = logging.getLogger(__name__)

RESIDUAL_MAX_PROPOSALS = 10_000
_RESIDUAL_CHUNK = 64
# proposals of a chunk scored before the rest: a draw uses about 4 on
# perfbench's pair, where a first 16 gave the fastest draws of 3 to 64
_RESIDUAL_FIRST = 16


class ZeroResidualError(FloatingPointError):
    """Raised when the residual mark distribution has no mass, i.e. the
    target and draft distributions were equal."""


class _RunState:
    """One run's events as times and marks in growing arrays. ``times`` and
    ``marks`` are views of the held events, read by the forward as it reads
    an EventSequence's arrays, and ``last_time`` is the last held event's
    time, or 0.0 when none is held. Events are appended after the held ones
    and dropped by truncating back to a shorter prefix; both reset the three
    attributes, so a forward or a step reads them with no call."""

    __slots__ = ("times", "marks", "last_time", "_times", "_marks")

    def __init__(self, events: Iterable[Event]) -> None:
        events = tuple(events)
        self._times = np.array([e.time for e in events], dtype=float)
        self._marks = np.array([e.mark for e in events], dtype=int)
        self.truncate(len(events))

    def __len__(self) -> int:
        return self.times.size

    def append(self, times, marks) -> None:
        """Hold the given events after the held ones: arrays of times and
        marks, or one time and one mark. Full buffers grow to twice the
        events they must hold."""
        start = self.times.size
        end = start + (times.size if isinstance(times, np.ndarray) else 1)
        if end > len(self._times):
            grown = np.empty(2 * end), np.empty(2 * end, dtype=int)
            grown[0][:start], grown[1][:start] = self.times, self.marks
            self._times, self._marks = grown
        self._times[start:end] = times
        self._marks[start:end] = marks
        self.times, self.marks = self._times[:end], self._marks[:end]
        self.last_time = float(self._times[end - 1]) if end else 0.0

    def truncate(self, size: int) -> None:
        """Keep only the first ``size`` events. A size up to the end of the
        last append holds again the events that no later append has
        overwritten."""
        self.times, self.marks = self._times[:size], self._marks[:size]
        self.last_time = float(self._times[size - 1]) if size else 0.0

    def events(self, start: int, t_end: float) -> tuple[Event, ...]:
        """Events of the held times and marks from position ``start`` on,
        leaving out those after t_end."""
        times, marks = self.times[start:], self.marks[start:]
        keep = times <= t_end
        return tuple(map(Event, times[keep].tolist(), marks[keep].tolist()))


@dataclass(frozen=True)
class VerificationOutcome:
    """Verified prefix length, and the replacement event's time and mark
    when a rejection occurred."""

    accepted_len: int
    replacement: tuple[float, int] | None


@dataclass
class SampleRunStats:
    """Operational counters for one sampling run. The SD phase timings
    nest: residual time is part of verify time, and draft plus verify time
    is part of the wall time. Residual proposals are the target-mixture
    proposals that the residual interval draws used, fallbacks included.
    ``accepted_lengths[n]`` counts the verify steps that accepted a prefix
    of n candidates, for n from 0 to gamma; AR leaves it empty."""

    wall_seconds: float = 0.0
    draft_seconds: float = 0.0
    verify_seconds: float = 0.0
    residual_seconds: float = 0.0
    events_drafted: int = 0
    events_accepted: int = 0
    replacement_events: int = 0
    target_forward_passes: int = 0
    draft_forward_passes: int = 0
    target_rows_encoded: int = 0
    draft_rows_encoded: int = 0
    iterations: int = 0
    residual_fallbacks: int = 0
    residual_proposals: int = 0
    accepted_lengths: list[int] = field(default_factory=list)

    @property
    def acceptance_rate(self) -> float:
        if self.events_drafted == 0:
            return float("nan")
        return self.events_accepted / self.events_drafted


def check_pair(target: ModelCheckpoint, draft_model: ModelCheckpoint) -> None:
    """Refuse a draft whose mark cardinality differs from the target's."""
    if target.config.n_marks != draft_model.config.n_marks:
        raise ValueError(f"target and draft must share the mark cardinality, got "
                         f"{target.config.n_marks} and {draft_model.config.n_marks}")


def _ar_step(model: ModelCheckpoint, rng: RngStream, cache: EncoderCache,
             events: _RunState) -> None:
    """One autoregressive step of ``model``: one forward through ``cache``,
    which counts it, then the interval and the mark drawn from its head
    rows on ``rng``, and the event appended."""
    mixture, probabilities = next_event_distributions(events, model, cache=cache)
    events.append(advance_clock(events.last_time, sample_interval(mixture, rng)),
                  rng.categorical(probabilities))


def _sample(step: Callable[[_RunState], object], stats: SampleRunStats, t_end: float,
            history: EventSequence | None, target_cache: EncoderCache,
            draft_cache: EncoderCache | None = None) -> tuple[EventSequence, SampleRunStats]:
    """The run loop: ``step(events)`` until an event passes t_end, then the
    events at or before t_end and ``stats`` with the wall time and the
    caches' pass and row totals; raises if the run ended at a non-finite time."""
    held = () if history is None else history.events
    events = _RunState(held)
    start = time.perf_counter()
    while events.last_time < t_end:
        step(events)
    if not math.isfinite(events.last_time):
        raise FloatingPointError(f"non-finite event time {events.last_time}")
    kept = tuple(e for e in held if e.time <= t_end) + events.events(len(held), t_end)
    stats.wall_seconds = time.perf_counter() - start
    stats.target_forward_passes = target_cache.passes
    stats.target_rows_encoded = target_cache.rows_encoded
    if draft_cache is not None:
        stats.draft_forward_passes = draft_cache.passes
        stats.draft_rows_encoded = draft_cache.rows_encoded
    return EventSequence(kept, t_end), stats


def ar_sample(target: ModelCheckpoint, t_end: float, rng: RngStream,
              history: EventSequence | None = None) -> tuple[EventSequence, SampleRunStats]:
    """Autoregressive sampling: one target forward per event, each
    encoding only the newest event, until an event passes t_end; that
    event, and any of the history's after t_end, are dropped. A history
    that check_sequence refuses, against the target's mark count, raises
    ValueError."""
    check_horizon(t_end)
    if history is not None:
        check_sequence(history, target.config.n_marks)
    cache = EncoderCache(target)
    return _sample(partial(_ar_step, target, rng.child("ar"), cache), SampleRunStats(), t_end,
                   history, cache)


def draft(draft_model: ModelCheckpoint, events: _RunState, gamma: int, rng: RngStream, *,
          cache: EncoderCache) -> tuple[MixtureParams, np.ndarray]:
    """Sample gamma candidate events autoregressively from the draft model
    after the run's events, which end with them when the call returns, and
    return their draft law as position_distributions returns the target's:
    a (gamma, M) MixtureParams and a (gamma, K) array of mark
    probabilities, one row per candidate. The candidates are gamma
    _ar_steps of the draft model on ``rng`` and ``cache``, each forward
    writing its checked head row into the cache's head rows at its
    candidate's position, so their times strictly increase, since
    advance_clock refuses a clock that does not move. The returned rows
    are views of the gamma positions, which hold until the draft cache's
    next forward at those positions, the next draft step's."""
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    n_hist = len(events)
    for _ in range(gamma):
        _ar_step(draft_model, rng, cache, events)
    rows = slice(n_hist, n_hist + gamma)
    weights, means, scales, probabilities = cache.head_rows
    return MixtureParams(weights[rows], means[rows], scales[rows]), probabilities[rows]


def _residual_interval_sample_info(g_target: MixtureParams, g_draft: MixtureParams,
                                   rng: RngStream) -> tuple[float, int, bool]:
    """Acceptance-rejection draw from norm(max(0, g_T - g_D)).

    Proposes from the target mixture and accepts with probability
    max(0, g_T - g_D)/g_T; returns (value, proposals used, fell back).
    After the proposal budget is exhausted the draw falls back to a plain
    target sample, which is logged and counted but not raised: the budget
    is only reachable when the two densities are nearly identical, where
    the fallback law differs negligibly from the residual law. The
    component CDF is built once per draw, and every chunk runs in one error
    state that ignores overflow and the log of a zero density. Each chunk
    draws its component uniforms, normals and acceptance uniforms at once,
    so the stream moves as if every proposal were scored, but its
    proposals are scored under both mixtures only up to the first
    acceptance: the first _RESIDUAL_FIRST of them, then the rest. A prefix
    scores to the same bits as the whole chunk, since the density is
    elementwise in the intervals.
    """
    random, standard_normal = rng.generator.random, rng.generator.standard_normal
    weights = g_target.weights
    cdf, total, last = np.add.accumulate(weights), np.add.reduce(weights), len(weights) - 1
    used = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while used < RESIDUAL_MAX_PROPOSALS:
            chunk = min(_RESIDUAL_CHUNK, RESIDUAL_MAX_PROPOSALS - used)
            comps = np.minimum(cdf.searchsorted(random(chunk) * total, side="right"), last)
            taus = np.exp(g_target.means[comps] + g_target.scales[comps] * standard_normal(chunk))
            if not np.logical_and.reduce((taus > 0.0) & (taus < np.inf)):
                raise FloatingPointError("residual interval proposal under- or overflowed")
            uniforms = random(chunk)
            for scored in (slice(0, _RESIDUAL_FIRST), slice(_RESIDUAL_FIRST, chunk)):
                log_t = _mixture_logpdf(taus[scored], g_target)
                log_d = _mixture_logpdf(taus[scored], g_draft)
                accept_prob = np.maximum(0.0, 1.0 - np.exp(np.minimum(0.0, log_d - log_t)))
                hits = (uniforms[scored] < accept_prob).nonzero()[0]
                if hits.size:
                    hit = scored.start + int(hits[0])
                    return float(taus[hit]), used + hit + 1, False
            used += chunk
    logger.warning("residual interval sampler exhausted %d proposals; "
                   "falling back to a plain target draw", RESIDUAL_MAX_PROPOSALS)
    return sample_interval(g_target, rng), RESIDUAL_MAX_PROPOSALS, True


def residual_mark_sample(f_target: np.ndarray, f_draft: np.ndarray, rng: RngStream) -> int:
    """Draw a mark from norm(max(0, f_T - f_D)), given the two (K,) arrays
    of mark probabilities."""
    residual = np.maximum(0.0, f_target - f_draft)
    mass = float(np.add.reduce(residual))
    if mass <= 1e-300:
        raise ZeroResidualError("residual mark distribution has zero mass; "
                                "target and draft mark distributions are equal")
    return rng.categorical(residual / mass)


def verify(target: ModelCheckpoint, events: _RunState, draft_law: tuple[MixtureParams, np.ndarray],
           rng: RngStream, residual_rng: RngStream, stats: SampleRunStats, *,
           cache: EncoderCache) -> VerificationOutcome:
    """Verify the gamma candidates that the run's events end with, read in
    place, against their draft law, the (gamma, M) mixtures and (gamma, K)
    mark probabilities that draft returns, with one batched target forward
    pass, which encodes only the events the cache lacks, and end the step:
    cut the events to the accepted prefix (with no rejection the cut holds
    all gamma again) and at a rejection append the replacement. The
    forward reads the events cut before the last candidate, whose row is
    never read, after the cache is rolled back to at most the history, so
    the candidates are always encoded. Each candidate's interval is its
    time minus the time of the event before it, the last history event or
    0.0 for the first, and is scored under the target's and the draft's
    rows alike.

    All 2*gamma acceptance uniforms are drawn upfront, so the verify
    stream's consumption never depends on the outcomes. At the first
    candidate that fails a test only what failed is redrawn: a rejected
    interval from the residual interval distribution, while the drafted
    mark keeps its own test (its distribution conditions only on the
    history embedding, which the interval does not change), and a rejected
    mark from the residual mark distribution. Redrawing both after any
    rejection would be inexact, because it redraws marks that passed.
    """
    draft_mixtures, draft_probabilities = draft_law
    gamma = len(draft_probabilities)
    n_hist = len(events) - gamma
    # an earlier step's candidates on the same events would be held rows
    cache.size = min(cache.size, n_hist)
    times, marks = events.times[n_hist:], events.marks[n_hist:]
    intervals = times.copy()
    intervals[1:] -= times[:-1]
    if n_hist:
        intervals[0] -= events.times[n_hist - 1]
    events.truncate(n_hist + gamma - 1)
    mixtures, probabilities = position_distributions(events, target, cache=cache)
    stats.iterations += 1
    stats.events_drafted += gamma

    u_interval = rng.uniform(gamma)
    u_mark = rng.uniform(gamma)

    # The rows end at position n_hist + gamma - 1, and candidate l is scored
    # by position n_hist + l, so the candidates are the last gamma rows.
    first = len(mixtures.weights) - gamma
    candidates = np.arange(gamma)
    f_t = probabilities[candidates + first, marks]
    f_d = draft_probabilities[candidates, marks]
    # one error state for the two interval densities, at the positive
    # intervals the run holds, and the mark ratios: a target mark
    # probability may be 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g_t = _mixture_logpdf(intervals, mixtures.row(slice(first, first + gamma)))
        g_d = _mixture_logpdf(intervals, draft_mixtures)
        mark_ratios = clamped_exp(np.log(f_t) - np.log(f_d))
    if not np.logical_and.reduce(g_t < np.inf):
        raise FloatingPointError("non-finite target interval density")
    interval_ratios = clamped_exp(g_t - g_d)

    interval_ok = u_interval < interval_ratios
    mark_ok = u_mark < mark_ratios
    rejected = (~(interval_ok & mark_ok)).nonzero()[0]
    accepted = int(rejected[0]) if rejected.size else gamma
    events.truncate(n_hist + accepted)
    replacement = None
    if accepted < gamma:
        start = time.perf_counter()
        event_time, mark = float(times[accepted]), int(marks[accepted])
        if not interval_ok[accepted]:
            tau, proposals, fell_back = _residual_interval_sample_info(
                mixtures.row(first + accepted), draft_mixtures.row(accepted), residual_rng)
            stats.residual_proposals += proposals
            stats.residual_fallbacks += int(fell_back)
            event_time = advance_clock(events.last_time, tau)
        if not mark_ok[accepted]:
            mark = residual_mark_sample(probabilities[first + accepted],
                                        draft_probabilities[accepted], residual_rng)
        replacement = (event_time, mark)
        stats.residual_seconds += time.perf_counter() - start
        events.append(event_time, mark)
    if len(stats.accepted_lengths) <= gamma:
        stats.accepted_lengths.extend([0] * (gamma + 1 - len(stats.accepted_lengths)))
    stats.accepted_lengths[accepted] += 1
    stats.events_accepted += accepted
    stats.replacement_events += int(replacement is not None)
    return VerificationOutcome(accepted, replacement)


def _sd_step(target: ModelCheckpoint, draft_model: ModelCheckpoint, gamma: int,
             streams: tuple[RngStream, RngStream, RngStream], target_cache: EncoderCache,
             draft_cache: EncoderCache, stats: SampleRunStats, events: _RunState) -> None:
    """One draft-verify step after the run's events, which end it holding
    the accepted prefix of the drafted events plus the replacement, if one
    was drawn. ``streams`` are the draft, verify and residual streams.
    After a rejection both caches are cut to the kept prefix, so their next
    forwards find it by the byte compare, not elementwise past the
    rejected candidate."""
    draft_rng, verify_rng, residual_rng = streams
    start = time.perf_counter()
    draft_law = draft(draft_model, events, gamma, draft_rng, cache=draft_cache)
    drafted = time.perf_counter()
    outcome = verify(target, events, draft_law, verify_rng, residual_rng, stats,
                     cache=target_cache)
    stats.draft_seconds += drafted - start
    stats.verify_seconds += time.perf_counter() - drafted
    if outcome.replacement is not None:
        kept = len(events) - 1
        target_cache.size, draft_cache.size = (min(target_cache.size, kept),
                                               min(draft_cache.size, kept))


def _sd_streams(rng: RngStream) -> tuple[RngStream, RngStream, RngStream]:
    return rng.child("draft"), rng.child("verify"), rng.child("residual")


def tpp_sd_sample(target: ModelCheckpoint, draft_model: ModelCheckpoint, t_end: float,
                  gamma: int, rng: RngStream,
                  history: EventSequence | None = None) -> tuple[EventSequence, SampleRunStats]:
    """Speculative sampling loop: draft gamma events, verify in one target
    pass, keep the accepted prefix plus any replacement, repeat until the
    horizon is passed, then drop events beyond t_end. The target and the
    draft each keep an encoder cache for the run; after a rejection the
    next forward reuses the accepted prefix and drops the rest. A history
    is checked as by ar_sample, after the pair."""
    check_horizon(t_end)
    check_pair(target, draft_model)
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    if history is not None:
        check_sequence(history, target.config.n_marks)
    stats, caches = SampleRunStats(), (EncoderCache(target), EncoderCache(draft_model))
    step = partial(_sd_step, target, draft_model, gamma, _sd_streams(rng), *caches, stats)
    return _sample(step, stats, t_end, history, *caches)


def next_event(target: ModelCheckpoint, draft_model: ModelCheckpoint | None,
               history: EventSequence, gamma: int, rng: RngStream, *,
               target_cache: EncoderCache, draft_cache: EncoderCache | None = None) -> Event:
    """The first event that one step emits after the history: with no draft
    model the AR step on ``rng`` itself (gamma unread), otherwise one
    draft-verify step on ``rng``'s children, as in tpp_sd_sample, through
    a fresh draft cache when none is given. Caches held across calls on the
    same history encode it only once."""
    events = _RunState(history)
    if draft_model is None:
        _ar_step(target, rng, target_cache, events)
    else:
        check_pair(target, draft_model)
        draft_cache = EncoderCache(draft_model) if draft_cache is None else draft_cache
        _sd_step(target, draft_model, gamma, _sd_streams(rng), target_cache, draft_cache,
                 SampleRunStats(), events)
    return Event(float(events.times[len(history)]), int(events.marks[len(history)]))
