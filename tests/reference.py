"""Reference forms kept as test oracles: of the ground-truth processes, the
conditional intensity summed event by event, the closed-form compensator
with a history, and the thinning and time-rescaling recursions with the
kernel state held in numpy arrays; of the sampler, the residual interval
draw that scores every proposal of a chunk."""

from __future__ import annotations

import math

import numpy as np

from spectpp.classical import GroundTruthProcess, HawkesParams, NonFiniteIntensityError, SinePoissonParams
from spectpp.core import Event, EventSequence, RngStream
from spectpp.model import MixtureParams, _mixture_logpdf, sample_interval
from spectpp.sampler import _RESIDUAL_CHUNK, RESIDUAL_MAX_PROPOSALS


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


def numpy_thinning_hawkes(process: HawkesParams, t_end: float, rng: RngStream) -> EventSequence:
    """Ogata thinning with the (K, K) kernel state as a numpy array, drawing
    from rng in the simulator's order."""
    m = process.n_marks
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
            bound = total
    return EventSequence(tuple(events), t_end)


def numpy_compensator_increments(seq: EventSequence, process: HawkesParams) -> np.ndarray:
    """The Hawkes time-rescaled intervals with the kernel state as a numpy
    array."""
    times = seq.times
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


def full_chunk_residual_interval(g_target: MixtureParams, g_draft: MixtureParams,
                                 rng: RngStream) -> tuple[float, int, bool]:
    """The sampler's residual interval draw with every proposal of a chunk
    scored under both mixtures before the first acceptance is looked for:
    (value, proposals used, fell back), from the same draws in the same
    order, and the plain target draw once the budget is spent."""
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
            log_t = _mixture_logpdf(taus, g_target)
            log_d = _mixture_logpdf(taus, g_draft)
            accept_prob = np.maximum(0.0, 1.0 - np.exp(np.minimum(0.0, log_d - log_t)))
            hits = (random(chunk) < accept_prob).nonzero()[0]
            if hits.size:
                return float(taus[hits[0]]), used + int(hits[0]) + 1, False
            used += chunk
    return sample_interval(g_target, rng), RESIDUAL_MAX_PROPOSALS, True
