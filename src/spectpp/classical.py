"""Ground-truth point processes: sine-modulated Poisson and exponential-kernel
Hawkes, with Ogata thinning simulation, closed-form compensators, and the
intensity-form log-likelihood.

The Hawkes intensity for output dimension j is
``mu[j] + sum over past events (s, m) of alpha[m, j] * exp(-beta[m, j] * (t - s))``,
i.e. ``alpha[source, target]``. The univariate process is the 1x1 case.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import Event, EventSequence, RngStream, check_horizon

logger = logging.getLogger(__name__)
_RATE_CHECK_HORIZON = 1000.0  # a sine-Poisson rate must be non-negative on [0, this]


class NonFiniteIntensityError(FloatingPointError):
    """Raised when a simulator or scorer encounters a non-finite rate."""


def _check_marks(seq: EventSequence, n_marks: int) -> None:
    marks = seq.marks
    outside = marks[(marks < 0) | (marks >= n_marks)]
    if outside.size:
        raise ValueError(f"mark {outside[0]} outside the process's range [0, {n_marks})")


@dataclass(frozen=True)
class SinePoissonParams:
    """Inhomogeneous Poisson intensity A * (b + sin(omega * pi * t))."""

    A: float
    b: float
    omega: float

    def __post_init__(self) -> None:
        if self.A <= 0:
            raise ValueError("A must be positive")
        grid = np.linspace(0.0, _RATE_CHECK_HORIZON, 4096)
        if np.any(self.A * (self.b + np.sin(self.omega * np.pi * grid)) < 0):
            raise ValueError("intensity A*(b + sin(omega*pi*t)) is negative on the horizon")

    @property
    def n_marks(self) -> int:
        return 1

    def rate(self, t) -> np.ndarray:
        return np.asarray(self.A * (self.b + np.sin(self.omega * np.pi * t)), dtype=float)

    @property
    def rate_bound(self) -> float:
        return self.A * (self.b + 1.0)


@dataclass(frozen=True)
class HawkesParams:
    """Multivariate Hawkes with exponential kernels; alpha[i, j] excites
    dimension j by events of dimension i."""

    mu: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", np.atleast_1d(np.asarray(self.mu, dtype=float)))
        object.__setattr__(self, "alpha", np.atleast_2d(np.asarray(self.alpha, dtype=float)))
        object.__setattr__(self, "beta", np.atleast_2d(np.asarray(self.beta, dtype=float)))
        m = self.mu.shape[0]
        if self.alpha.shape != (m, m) or self.beta.shape != (m, m):
            raise ValueError("alpha and beta must be square matrices matching mu")
        if np.any(self.mu < 0):
            raise ValueError("mu must be nonnegative")
        if np.any(self.alpha < 0):
            raise ValueError("alpha must be nonnegative")
        if np.any(self.beta <= 0):
            raise ValueError("beta must be positive")
        radius = np.max(np.abs(np.linalg.eigvals(self.alpha / self.beta)))
        if radius >= 1.0:
            logger.warning("Hawkes branching matrix has spectral radius %.3f >= 1; "
                           "the process is non-stationary", radius)

    @property
    def n_marks(self) -> int:
        return self.mu.shape[0]


GroundTruthProcess = Union[SinePoissonParams, HawkesParams]


def process_from_record(record: dict) -> GroundTruthProcess:
    if not isinstance(record, dict):
        raise ValueError("a process record must be a JSON object")
    kind = record.get("kind")
    if kind == "sine_poisson":
        return SinePoissonParams(float(record["A"]), float(record["b"]), float(record["omega"]))
    if kind == "hawkes":
        return HawkesParams(np.asarray(record["mu"], dtype=float),
                            np.asarray(record["alpha"], dtype=float),
                            np.asarray(record["beta"], dtype=float))
    raise ValueError(f"unknown process kind: {kind!r}")


def intensity(process: GroundTruthProcess, t: float, history: EventSequence) -> np.ndarray:
    """Per-type conditional intensity at time t given the events before t.

    Events of the history at exactly time t do not contribute (kernels act
    strictly after their event). Raises if t precedes the history end.
    """
    times = history.times
    if times.size and t < times[-1]:
        raise ValueError(f"query time {t} precedes last history event {times[-1]}")
    if isinstance(process, SinePoissonParams):
        return np.array([process.rate(t)])
    rates = process.mu.copy()
    for event in history.events:
        if event.time < t:
            rates += process.alpha[event.mark] * np.exp(-process.beta[event.mark] * (t - event.time))
    if not np.all(np.isfinite(rates)):
        raise NonFiniteIntensityError(f"non-finite intensity at t={t}")
    return rates


def compensator(process: GroundTruthProcess, t0: float, t1: float,
                history: EventSequence) -> np.ndarray:
    """Integral of the per-type intensity over [t0, t1], in closed form.

    Requires t0 <= t1 and no history events inside (t0, t1); history events
    at or before t0 drive the Hawkes excitation terms.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    if isinstance(process, SinePoissonParams):
        w = process.omega * np.pi
        value = process.A * process.b * (t1 - t0) - (process.A / w) * (math.cos(w * t1) - math.cos(w * t0))
        return np.array([value])
    values = process.mu * (t1 - t0)
    for event in history.events:
        if event.time > t0:
            continue
        beta_row = process.beta[event.mark]
        ratio = process.alpha[event.mark] / beta_row
        values += ratio * (np.exp(-beta_row * (t0 - event.time)) - np.exp(-beta_row * (t1 - event.time)))
    return values


def _thinning_poisson(process: SinePoissonParams, t_end: float, rng: RngStream) -> EventSequence:
    bound = process.rate_bound
    t = 0.0
    times = []
    while True:
        t += rng.exponential(bound)
        if t > t_end:
            break
        if rng.uniform() < float(process.rate(t)) / bound:
            times.append(t)
    events = tuple(Event(time, 0) for time in times)
    return EventSequence(events, t_end)


def _thinning_hawkes(process: HawkesParams, t_end: float, rng: RngStream) -> EventSequence:
    m = process.n_marks
    # state[i, j] tracks sum over past type-i events of exp(-beta[i,j]*(t - s));
    # exponential kernels let it be decayed in place between proposals.
    state = np.zeros((m, m))
    t = 0.0
    events: list[Event] = []
    bound = float(np.sum(process.mu + np.sum(process.alpha * state, axis=0)))
    while True:
        if not math.isfinite(bound) or bound <= 0:
            if bound <= 0:
                break
            raise NonFiniteIntensityError("non-finite thinning bound")
        dt = rng.exponential(bound)
        t_new = t + dt
        if t_new > t_end:
            break
        state = state * np.exp(-process.beta * dt)
        rates = process.mu + np.sum(process.alpha * state, axis=0)
        total = float(np.sum(rates))
        if not math.isfinite(total):
            raise NonFiniteIntensityError(f"non-finite intensity at t={t_new}")
        t = t_new
        if rng.uniform() < total / bound:
            mark = rng.categorical(rates / total)
            events.append(Event(t, mark))
            state[mark] += 1.0
            bound = float(np.sum(process.mu + np.sum(process.alpha * state, axis=0)))
        else:
            # rejected proposal: the decayed intensity is a fresh valid bound
            bound = total
    return EventSequence(tuple(events), t_end)


def thinning_sample(process: GroundTruthProcess, t_end: float, rng: RngStream) -> EventSequence:
    """Exact simulation on (0, t_end] by thinning a dominating Poisson process.

    The Poisson variant uses the global bound A*(b + 1); the Hawkes variant
    refreshes the bound after every accepted or rejected proposal, which is
    valid because exponential kernels only decay between events. Marks are
    assigned proportionally to the per-type intensity at the accepted time.
    """
    check_horizon(t_end)
    if isinstance(process, SinePoissonParams):
        return _thinning_poisson(process, t_end, rng)
    return _thinning_hawkes(process, t_end, rng)


def total_compensator_increments(seq: EventSequence, process: GroundTruthProcess) -> np.ndarray:
    """Summed-over-types compensator between consecutive events, length N:
    the time-rescaled intervals, Exponential(1) iid when the process is right.

    Entry i is the integrated total intensity over (t_{i-1}, t_i] with
    t_0 = 0. Uses the same closed forms as :func:`compensator`, maintained
    recursively so a whole sequence costs O(N) instead of O(N^2): the
    kernel decays of all intervals come from one exp, and only the kernel
    state is carried from event to event. A mark outside the process's
    range is refused.
    """
    _check_marks(seq, process.n_marks)
    times = seq.times
    if times.size == 0:
        return np.zeros(0)
    if isinstance(process, SinePoissonParams):
        w = process.omega * np.pi
        bounds = np.concatenate([[0.0], times])
        anti = process.A * process.b * bounds - (process.A / w) * np.cos(w * bounds)
        return np.diff(anti)
    ratio, mu_total = process.alpha / process.beta, float(np.sum(process.mu))
    dts = np.diff(times, prepend=0.0)
    decays = np.exp(-process.beta * dts[:, np.newaxis, np.newaxis])
    state = np.zeros((process.n_marks, process.n_marks))
    increments = np.empty(times.size)
    spent = 1.0 - decays
    for i, (dt, mark) in enumerate(zip(dts.tolist(), seq.marks.tolist())):
        increments[i] = mu_total * dt + float((ratio * state * spent[i]).sum())
        state = state * decays[i]
        state[mark] += 1.0
    return increments


def ground_truth_loglik(seq: EventSequence, process: GroundTruthProcess) -> float:
    """Intensity-form log-likelihood: sum of log rates at events minus the
    total compensator over (0, t_end]. Returns -inf if an event sits at a
    zero-rate time. A mark outside the process's range is refused.

    Computed with the recursive kernel state, so it matches the
    :func:`intensity`/:func:`compensator` reference forms to rounding while
    staying linear in sequence length.
    """
    _check_marks(seq, process.n_marks)
    if isinstance(process, SinePoissonParams):
        times = seq.times
        rates = process.rate(times)
        if np.any(rates <= 0.0):
            return float("-inf")
        total_comp = float(compensator(process, 0.0, seq.t_end, EventSequence((), seq.t_end))[0])
        return float(np.sum(np.log(rates))) - total_comp
    ratio, mu_total = process.alpha / process.beta, float(np.sum(process.mu))
    # the intervals between events, then the tail from the last event to t_end
    dts = np.diff(seq.times, prepend=0.0, append=seq.t_end)
    if np.any(dts[:-1] < 0):
        raise ValueError("sequence times must be non-decreasing")
    decays = np.exp(-process.beta * dts[:, np.newaxis, np.newaxis])
    spent = 1.0 - decays
    state = np.zeros((process.n_marks, process.n_marks))
    dts = dts.tolist()
    loglik = 0.0
    for i, mark in enumerate(seq.marks.tolist()):
        loglik -= mu_total * dts[i] + float((ratio * state * spent[i]).sum())
        state = state * decays[i]
        rate = float(process.mu[mark] + np.sum(process.alpha[:, mark] * state[:, mark]))
        if rate <= 0.0:
            return float("-inf")
        loglik += math.log(rate)
        state[mark] += 1.0
    loglik -= mu_total * dts[-1] + float((ratio * state * spent[-1]).sum())
    return loglik


def make_synthetic_dataset(process: GroundTruthProcess, n_sequences: int, t_end: float,
                           rng: RngStream) -> list[EventSequence]:
    """n independent thinning samples, one child RNG stream per sequence."""
    if n_sequences < 1:
        raise ValueError("n must be >= 1")
    return [thinning_sample(process, t_end, rng.child(f"seq{i}")) for i in range(n_sequences)]
