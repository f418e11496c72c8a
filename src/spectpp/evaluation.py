"""Sampling-quality metrics: time-rescaling KS tests against ground-truth
processes, 1-D Wasserstein and categorical earth-mover distances between
sample sets, the mean log-likelihood per event whose difference between two
scorers is the likelihood discrepancy, and next-event divergence between
autoregressive and speculative sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# the time-rescaling transform, under the name the CLI and perfbench call
from .classical import total_compensator_increments as time_rescale
from .core import EventSequence, RngStream, check_sequence
from .model import EncoderCache, ModelCheckpoint
from .sampler import check_pair, next_event

KS_BAND_COEFFICIENT = 1.36  # 95% confidence band c(alpha)/sqrt(n)


@dataclass(frozen=True)
class KsReport:
    """One-sample KS test of rescaled intervals against Exponential(1)."""

    d_ks: float
    n: int
    band: float
    passed: bool
    plot_data: tuple[tuple[float, float], ...]


def ks_statistic(samples: Sequence[float]) -> KsReport:
    """Exact sup-distance between the empirical CDF and 1 - e^{-x}.

    The supremum over the step function is attained just before or at a
    sorted sample, so both one-sided gaps are evaluated at every point.
    Plot data pairs (F(z_(i)), F_n(z_(i))) are emitted for KS plots.
    """
    z = np.sort(np.asarray(samples, dtype=float))
    n = z.size
    if n < 1:
        raise ValueError("ks_statistic requires at least one sample")
    theo = 1.0 - np.exp(-z)
    steps = np.arange(1, n + 1) / n
    d_ks = float(max(np.max(steps - theo), np.max(theo - (steps - 1.0 / n))))
    band = KS_BAND_COEFFICIENT / math.sqrt(n)
    plot = tuple(zip(theo.tolist(), steps.tolist()))
    return KsReport(d_ks=d_ks, n=n, band=band, passed=d_ks < band, plot_data=plot)


def wasserstein_1d(xs: Sequence[float], ys: Sequence[float]) -> float:
    """1-Wasserstein distance between two empirical distributions.

    Equal sizes reduce to the mean absolute difference of sorted samples;
    otherwise the quantile functions are integrated over the merged
    quantile grid.
    """
    xs = np.sort(np.asarray(xs, dtype=float))
    ys = np.sort(np.asarray(ys, dtype=float))
    if xs.size == 0 or ys.size == 0:
        raise ValueError("wasserstein_1d requires nonempty samples")
    if xs.size == ys.size:
        return float(np.mean(np.abs(xs - ys)))
    n, m = xs.size, ys.size
    edges = np.union1d(np.arange(1, n) / n, np.arange(1, m) / m)
    edges = np.concatenate([[0.0], edges, [1.0]])
    widths = np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    qx = xs[np.minimum((mids * n).astype(int), n - 1)]
    qy = ys[np.minimum((mids * m).astype(int), m - 1)]
    return float(np.sum(widths * np.abs(qx - qy)))


def _as_probabilities(dist) -> np.ndarray:
    arr = np.asarray(dist, dtype=float)
    total = float(np.sum(arr))
    if total <= 0:
        raise ValueError("counts must have positive total")
    return arr / total


def categorical_emd(p, q) -> float:
    """Earth mover's distance between mark distributions under the 0/1
    ground metric, i.e. half the L1 distance. Accepts probability vectors
    or unnormalized count vectors."""
    pp, qq = _as_probabilities(p), _as_probabilities(q)
    if pp.shape != qq.shape:
        raise ValueError("distributions must share the mark cardinality")
    return 0.5 * float(np.sum(np.abs(pp - qq)))


def mean_loglik_per_event(sequences: Sequence[EventSequence],
                          scorer: Callable[[EventSequence], float]) -> float:
    """Total log-likelihood over the set divided by the total event count."""
    total = 0.0
    events = 0
    for seq in sequences:
        total += scorer(seq)
        events += len(seq)
    if events == 0:
        raise ValueError("likelihood normalization requires at least one event")
    return total / events


def next_event_divergence(target: ModelCheckpoint, draft: ModelCheckpoint | None,
                          history: EventSequence, m_hist: int, n_reps: int,
                          gamma: int, rng: RngStream) -> tuple[float, float]:
    """Wasserstein/EMD distances between N autoregressive and N speculative
    draws of the event following an m_hist-event history prefix.

    With ``draft=None`` the second sample is another independent
    autoregressive run, which serves as the self-comparison baseline. Each
    model keeps one encoder cache across the draws, so the prefix is
    encoded once per model. An m_hist below 0 or past the history's end, an
    n_reps below 1, a draft whose mark count differs from the target's, and
    then a prefix that check_sequence refuses on the target's mark count,
    raise ValueError.
    """
    if m_hist < 0:
        raise ValueError(f"m_hist must be >= 0, got {m_hist}")
    if n_reps < 1:
        raise ValueError(f"n_reps must be >= 1, got {n_reps}")
    if len(history) < m_hist:
        raise ValueError(f"history has {len(history)} events, need at least {m_hist}")
    if draft is not None:
        check_pair(target, draft)
    prefix = EventSequence(history.events[:m_hist], history.t_end)
    k = target.config.n_marks
    check_sequence(prefix, k)
    target_cache = EncoderCache(target)
    draft_cache, label = (None, "ar2-") if draft is None else (EncoderCache(draft), "sd")
    ar_times, ar_marks, other_times, other_marks = [], [], [], []
    for i in range(n_reps):
        event = next_event(target, None, prefix, gamma, rng.child(f"ar{i}"),
                           target_cache=target_cache)
        ar_times.append(event.time)
        ar_marks.append(event.mark)
        event = next_event(target, draft, prefix, gamma, rng.child(f"{label}{i}"),
                           target_cache=target_cache, draft_cache=draft_cache)
        other_times.append(event.time)
        other_marks.append(event.mark)
    d_t = wasserstein_1d(ar_times, other_times)
    d_k = categorical_emd(np.bincount(ar_marks, minlength=k),
                          np.bincount(other_marks, minlength=k))
    return d_t, d_k
