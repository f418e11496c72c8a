"""Ground-truth point processes: sine-modulated Poisson and exponential-kernel
Hawkes, with Ogata thinning simulation, the time-rescaled intervals from
their closed-form compensators, and the intensity-form log-likelihood. The
scorers refuse, by :func:`core.check_sequence`, any sequence outside the
format, with the process's mark count as the mark range.

The Hawkes intensity for output dimension j is
``mu[j] + sum over past events (s, m) of alpha[m, j] * exp(-beta[m, j] * (t - s))``,
i.e. ``alpha[source, target]``. The univariate process is the 1x1 case.

Thinning, time rescaling and the log-likelihood carry the (K, K) kernel
state as a flat list of Python floats, one step per proposal or event,
because numpy's per-call cost on such small arrays dominated them. The
decays still come from ``np.exp`` (``math.exp`` differs from it in the
last bit on some inputs), and every sum is a left fold, the order in
which numpy sums fewer than 8 values and reduces over rows. So the output
is bit for bit that of the same recursion on numpy arrays for thinning
with K <= 7 marks and for the scorers with K <= 2, whose compensator
steps sum K*K values; for larger K it may differ in the last bits.

A Hawkes dataset takes a second loop, :func:`_thinning_hawkes_runs`, which
advances all n sequences in lockstep: one ``(n, K, K)`` kernel-state
array, one clock array and one bound array, one proposal per live
sequence per step. It makes the same elementwise operations and left
folds as the single-run loop, and each sequence draws from its own
stream in the same order, so its output is bit for bit that of
:func:`thinning_sample` run once per sequence. A step's numpy calls
cost about the same at any n, so against the float loop run n times it
is slower for small n and faster from about n = 8 (2-D process to
t_end 100 on a 2-CPU machine, median of 10 paired runs: 0.23x the speed
at n = 1, 0.36x at n = 2, 0.59x at n = 4, 1.06x at n = 8, 1.47x at
n = 16, 2.99x at n = 120). So single histories, as samplers and tests
draw them, keep the float loop, and Hawkes datasets always take the
stacked one. Sine-Poisson datasets run one loop per sequence.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import reduce
from itertools import compress, zip_longest
from operator import add, mul
from typing import Iterator, Union

import numpy as np

from .core import Event, EventSequence, RngStream, advance_clock, check_horizon, check_sequence

logger = logging.getLogger(__name__)
_RATE_CHECK_HORIZON = 1000.0  # a sine-Poisson rate must be non-negative on [0, this]


class NonFiniteIntensityError(FloatingPointError):
    """Raised when a simulator or scorer encounters a non-finite rate."""


@dataclass(frozen=True)
class SinePoissonParams:
    """Inhomogeneous Poisson intensity A * (b + sin(omega * pi * t))."""

    A: float
    b: float
    omega: float

    def __post_init__(self) -> None:
        for name in ("A", "b", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
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
        for name in ("mu", "alpha", "beta"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name).tolist()!r}")
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


def _numbers(value, lists: bool) -> bool:
    """Whether ``value`` is a JSON number, an int or a float but not a bool,
    or, with ``lists``, a list of such values or of such lists."""
    if lists and type(value) is list:
        return all(_numbers(item, lists) for item in value)
    return type(value) in (int, float)


def _field(record: dict, name: str, lists: bool = False) -> np.ndarray:
    """Field ``name`` of a process record as a float array. One that
    _numbers refuses, a string or a bool too, or an int beyond the float
    range raises ValueError naming it."""
    value = record[name]
    if _numbers(value, lists):
        try:
            return np.asarray(value, dtype=float)
        except OverflowError:
            pass
    raise ValueError(f"{name} must be a float-range number{' or lists of them' if lists else ''}"
                     f", got {value!r}")


def process_from_record(record: dict) -> GroundTruthProcess:
    if not isinstance(record, dict):
        raise ValueError("a process record must be a JSON object")
    kind = record.get("kind")
    if kind == "sine_poisson":
        return SinePoissonParams(*(float(_field(record, name)) for name in ("A", "b", "omega")))
    if kind == "hawkes":
        return HawkesParams(*(_field(record, name, lists=True) for name in ("mu", "alpha", "beta")))
    raise ValueError(f"unknown process kind: {kind!r}")


def _thinning_poisson(process: SinePoissonParams, t_end: float, rng: RngStream) -> EventSequence:
    bound = process.rate_bound
    t = 0.0
    times = []
    while True:
        dt = rng.exponential(bound)
        if t + dt > t_end:
            break
        t = advance_clock(t, dt)
        if rng.uniform() < float(process.rate(t)) / bound:
            times.append(t)
    events = tuple(Event(time, 0) for time in times)
    return EventSequence(events, t_end)


def _intensities(mu: list, alpha: list, state: list) -> list:
    """Per-type Hawkes intensity from the flat kernel state: mu[j] plus the
    left fold over rows i of alpha[i, j] * state[i, j]."""
    k = len(mu)
    products = list(map(mul, alpha, state))
    columns = products[:k]
    for row in range(k, k * k, k):
        columns = list(map(add, columns, products[row:row + k]))
    return list(map(add, mu, columns))


def _thinning_hawkes(process: HawkesParams, t_end: float, rng: RngStream) -> EventSequence:
    k = process.n_marks
    mu, alpha = process.mu.tolist(), process.alpha.ravel().tolist()
    neg_beta = -process.beta.ravel()
    # state[i*k + j] tracks sum over past type-i events of exp(-beta[i,j]*(t - s));
    # exponential kernels let it be decayed between proposals.
    state = [0.0] * (k * k)
    t = 0.0
    events: list[Event] = []
    exponential, uniform = rng.generator.standard_exponential, rng.generator.random
    bound = reduce(add, _intensities(mu, alpha, state))
    while True:
        if not math.isfinite(bound) or bound <= 0:
            if bound <= 0:
                break
            raise NonFiniteIntensityError("non-finite thinning bound")
        dt = exponential() / bound
        if t + dt > t_end:
            break
        t = advance_clock(t, dt)
        state = list(map(mul, state, np.exp(neg_beta * dt).tolist()))
        rates = _intensities(mu, alpha, state)
        total = reduce(add, rates)
        if not math.isfinite(total):
            raise NonFiniteIntensityError(f"non-finite intensity at t={t}")
        if uniform() < total / bound:
            mark = rng.categorical(np.divide(rates, total))
            events.append(Event(t, mark))
            row = mark * k
            state[row:row + k] = [s + 1.0 for s in state[row:row + k]]
            bound = reduce(add, _intensities(mu, alpha, state))
        else:
            # rejected proposal: the decayed intensity is a fresh valid bound
            bound = total
    return EventSequence(tuple(events), t_end)


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises NonFiniteIntensityError
def _thinning_hawkes_runs(process: HawkesParams, t_end: float,
                          streams: list[RngStream]) -> list[EventSequence]:
    """:func:`_thinning_hawkes` on every stream at once, bit for bit (see
    the module docstring). Row r of the arrays is live sequence r; a
    sequence whose bound is <= 0 or whose proposal passes t_end leaves
    them. Intensities and totals stay left folds, never ``np.sum``, and
    the mark is the number of CDF entries <= u * cdf[-1], clipped to
    K - 1, as ``RngStream.categorical`` picks it. When several sequences
    would raise, the one that raises here may not be the lowest-numbered.
    """
    k = process.n_marks
    neg_beta = -process.beta

    def totals(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # rates[r, j] = mu[j] plus the left fold over rows i of alpha[i, j] * state[r, i, j]
        rates = process.mu + reduce(add, (process.alpha * state).transpose(1, 0, 2))
        return rates, reduce(add, rates.T)

    events: list[list[Event]] = [[] for _ in streams]
    # per live sequence: its stream's draws and its event list, row for row with the arrays
    rows = [(stream.generator.standard_exponential, stream.generator.random, seq)
            for stream, seq in zip(streams, events)]
    state = np.zeros((len(rows), k, k))
    t = np.zeros(len(rows))
    bound = totals(state)[1]
    while True:
        if not bound.min() > 0:  # a bound <= 0 ends its sequence; a NaN one raises below
            keep = ~(bound <= 0)
            state, t, bound = state[keep], t[keep], bound[keep]
            rows = list(compress(rows, keep.tolist()))
            if not rows:
                break
        if not bound.max() < math.inf:
            raise NonFiniteIntensityError("non-finite thinning bound")
        dt = np.array([exponential() for exponential, _, _ in rows]) / bound
        t_next = t + dt
        over = t_next > t_end
        if over.any():
            keep = ~over
            state, t, bound, dt, t_next = state[keep], t[keep], bound[keep], dt[keep], t_next[keep]
            rows = list(compress(rows, keep.tolist()))
            if not rows:
                break
        # every t_next left is <= t_end or NaN, so this is advance_clock's test
        if not (t < t_next).all():
            r = int(np.argmin(t < t_next))
            advance_clock(float(t[r]), float(dt[r]))
        t = t_next
        state *= np.exp(neg_beta * dt[:, np.newaxis, np.newaxis])
        rates, total = totals(state)
        if not np.isfinite(total).all():
            r = int(np.argmin(np.isfinite(total)))
            raise NonFiniteIntensityError(f"non-finite intensity at t={float(t[r])}")
        accepted = (np.array([uniform() for _, uniform, _ in rows]) < total / bound).nonzero()[0]
        bound = total
        if accepted.size:
            taken = [rows[r] for r in accepted.tolist()]
            cdf = (rates[accepted] / total[accepted, np.newaxis]).cumsum(axis=1)
            u = np.array([uniform() for _, uniform, _ in taken]) * cdf[:, -1]
            marks = np.minimum((cdf <= u[:, np.newaxis]).sum(axis=1), k - 1)
            for (_, _, seq), time, mark in zip(taken, t[accepted].tolist(), marks.tolist()):
                seq.append(Event(time, mark))
            state[accepted, marks] += 1.0
            bound[accepted] = totals(state[accepted])[1]
    return [EventSequence(tuple(seq), t_end) for seq in events]


def thinning_sample(process: GroundTruthProcess, t_end: float, rng: RngStream) -> EventSequence:
    """Exact simulation on (0, t_end] by thinning a dominating Poisson process.

    The Poisson variant uses the global bound A*(b + 1); the Hawkes variant
    refreshes the bound after every accepted or rejected proposal, which is
    valid because exponential kernels only decay between events. Marks are
    assigned proportionally to the per-type intensity at the accepted time.
    A proposed interval that does not move the clock, or a non-finite
    intensity, raises FloatingPointError.
    """
    check_horizon(t_end)
    if isinstance(process, SinePoissonParams):
        return _thinning_poisson(process, t_end, rng)
    return _thinning_hawkes(process, t_end, rng)


def _hawkes_walk(process: HawkesParams, dts: np.ndarray,
                 marks: list[int]) -> Iterator[tuple[float, list]]:
    """The kernel state carried over consecutive intervals dts, the i-th
    ended by an event of mark marks[i]; dts may hold one more interval,
    ended by no event. Yields, per interval, the total compensator over it
    and the kernel state decayed to its end, before its event is added.

    The compensator is the integrated intensity in closed form: the summed
    mu times the interval, plus alpha[i, j] / beta[i, j] times the decay
    spent over the interval, summed over j and over past events of mark i.
    The decays of all intervals come from one exp, so a whole sequence costs
    O(N) instead of O(N^2).
    """
    k = process.n_marks
    ratio, mu_total = (process.alpha / process.beta).ravel().tolist(), float(np.sum(process.mu))
    decays = np.exp(-process.beta * dts[:, np.newaxis, np.newaxis]).reshape(dts.size, k * k)
    spent = (1.0 - decays).tolist()
    state = [0.0] * (k * k)
    for dt, decay, spent_i, mark in zip_longest(dts.tolist(), decays.tolist(), spent, marks):
        excitation = reduce(add, map(mul, map(mul, ratio, state), spent_i))
        state = list(map(mul, state, decay))
        yield mu_total * dt + excitation, state
        if mark is not None:
            row = mark * k
            state[row:row + k] = [s + 1.0 for s in state[row:row + k]]


def total_compensator_increments(seq: EventSequence, process: GroundTruthProcess) -> np.ndarray:
    """Summed-over-types compensator between consecutive events, length N:
    the time-rescaled intervals, Exponential(1) iid when the process is right.

    Entry i is the integrated total intensity over (t_{i-1}, t_i] with
    t_0 = 0, in closed form; for the Hawkes process it is maintained
    recursively. A sequence that check_sequence refuses raises ValueError.
    """
    times, marks = check_sequence(seq, process.n_marks)
    if times.size == 0:
        return np.zeros(0)
    if isinstance(process, SinePoissonParams):
        w = process.omega * np.pi
        bounds = np.concatenate([[0.0], times])
        anti = process.A * process.b * bounds - (process.A / w) * np.cos(w * bounds)
        return np.diff(anti)
    walk = _hawkes_walk(process, np.diff(times, prepend=0.0), marks.tolist())
    return np.array([increment for increment, _ in walk])


def ground_truth_loglik(seq: EventSequence, process: GroundTruthProcess) -> float:
    """Intensity-form log-likelihood: sum of log rates at events minus the
    total compensator over (0, t_end]. Returns -inf if an event sits at a
    zero-rate time. A sequence that check_sequence refuses raises
    ValueError.

    Computed with the recursive kernel state of the time rescaling, so it
    matches the intensity and compensator reference forms of the tests to
    rounding while staying linear in sequence length.
    """
    times, marks = check_sequence(seq, process.n_marks)
    if isinstance(process, SinePoissonParams):
        rates = process.rate(times)
        if np.any(rates <= 0.0):
            return float("-inf")
        # the closed-form compensator A*b*t - (A/w)*cos(w*t), taken from 0 to t_end
        w, t_end = process.omega * np.pi, seq.t_end
        total_comp = process.A * process.b * t_end - (process.A / w) * (math.cos(w * t_end) - 1.0)
        return float(np.sum(np.log(rates))) - total_comp
    k, mu, alpha = process.n_marks, process.mu.tolist(), process.alpha.ravel().tolist()
    marks = marks.tolist()
    # the intervals between events, then the tail from the last event to t_end
    walk = _hawkes_walk(process, np.diff(times, prepend=0.0, append=seq.t_end), marks)
    loglik = 0.0
    for mark, (increment, state) in zip(marks, walk):
        loglik -= increment
        rate = mu[mark] + reduce(add, map(mul, alpha[mark::k], state[mark::k]))
        if rate <= 0.0:
            return float("-inf")
        loglik += math.log(rate)
    loglik -= next(walk)[0]
    return loglik


def make_synthetic_dataset(process: GroundTruthProcess, n_sequences: int, t_end: float,
                           rng: RngStream) -> list[EventSequence]:
    """n independent thinning samples, one child RNG stream per sequence.

    The Hawkes sequences are simulated in lockstep by
    :func:`_thinning_hawkes_runs`, bit for bit what :func:`thinning_sample`
    gives on each stream, and faster from about 8 sequences; the
    sine-Poisson ones one after another by :func:`thinning_sample`.
    """
    if n_sequences < 1:
        raise ValueError("n must be >= 1")
    check_horizon(t_end)
    streams = [rng.child(f"seq{i}") for i in range(n_sequences)]
    if isinstance(process, HawkesParams):
        return _thinning_hawkes_runs(process, t_end, streams)
    return [thinning_sample(process, t_end, stream) for stream in streams]
