import hashlib
import math
import signal
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import ks_2samp, kstest

from spectpp import model as M
from spectpp import sampler as S
from spectpp.classical import SinePoissonParams, thinning_sample
from spectpp.core import Event, EventSequence, RngStream, clamped_exp, validate_sequence

from reference import full_chunk_residual_interval
from sequences import sequence_from_arrays


def make_checkpoint(seed, n_layers=1, n_heads=1, embed_dim=8, n_components=4, n_marks=2,
                    scale=None, **kw):
    config = M.ModelConfig(embed_dim=embed_dim, n_components=n_components, n_marks=n_marks,
                           n_heads=n_heads, n_layers=n_layers, **kw)
    ckpt = M.init_checkpoint(config, RngStream(seed))
    if scale is not None:
        for name in ckpt.params:
            ckpt.params[name] = ckpt.params[name] * scale
    return ckpt


def mixture(weights, means, scales):
    return M.MixtureParams(np.asarray(weights, float), np.asarray(means, float),
                           np.asarray(scales, float))


def residual_cdf_grid(g_t, g_d):
    """Quadrature oracle: normalized CDF of max(0, g_T - g_D) on a dense grid."""
    lo = min(float(np.min(g_t.means - 10 * g_t.scales)), float(np.min(g_d.means - 10 * g_d.scales)))
    hi = max(float(np.max(g_t.means + 10 * g_t.scales)), float(np.max(g_d.means + 10 * g_d.scales)))
    taus = np.exp(np.linspace(lo, hi, 40001))
    dens = np.maximum(0.0, np.exp(M._mixture_logpdf(taus, g_t))
                      - np.exp(M._mixture_logpdf(taus, g_d)))
    steps = np.diff(taus)
    masses = 0.5 * (dens[1:] + dens[:-1]) * steps
    cdf = np.concatenate([[0.0], np.cumsum(masses)])
    return taus, cdf / cdf[-1]


def ks_against_grid(samples, taus, cdf):
    xs = np.sort(samples)
    theo = np.interp(xs, taus, cdf)
    n = xs.size
    upper = np.arange(1, n + 1) / n - theo
    lower = theo - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def step_caches(target, draft_model):
    """Fresh encoder caches for one next_event call."""
    return {"target_cache": M.EncoderCache(target),
            "draft_cache": None if draft_model is None else M.EncoderCache(draft_model)}


class FixedUniforms:
    """Stub stream for injecting exact acceptance uniforms into verify."""

    def __init__(self, u_interval, u_mark):
        self._values = [np.asarray(u_interval, float), np.asarray(u_mark, float)]

    def uniform(self, n=None):
        return self._values.pop(0)


# -- autoregressive sampling ----------------------------------------------------

def test_ar_sample_respects_horizon_and_is_valid():
    ckpt = make_checkpoint(0)
    seq, stats = S.ar_sample(ckpt, 15.0, RngStream(1))
    assert validate_sequence(seq, ckpt.config.n_marks).ok
    assert stats.target_forward_passes == len(seq) + 1  # final overshoot discarded


def test_ar_sample_tiny_horizon_is_empty():
    ckpt = make_checkpoint(0)
    seq, _ = S.ar_sample(ckpt, 1e-9, RngStream(2))
    assert len(seq) == 0


def test_ar_sample_deterministic_under_seed():
    ckpt = make_checkpoint(0)
    a, _ = S.ar_sample(ckpt, 10.0, RngStream(3))
    b, _ = S.ar_sample(ckpt, 10.0, RngStream(3))
    assert np.array_equal(a.times, b.times) and np.array_equal(a.marks, b.marks)


def test_ar_sample_extends_history():
    ckpt = make_checkpoint(0)
    history = sequence_from_arrays([0.3, 0.9], [0, 1], 10.0)
    seq, stats = S.ar_sample(ckpt, 10.0, RngStream(4), history=history)
    assert seq.events[:2] == history.events
    assert all(e.time > 0.9 for e in seq.events[2:])
    # the history is encoded once, then only the newest event per pass: N + k rows
    assert len(seq) > 2 and stats.target_rows_encoded == len(seq)
    assert stats.draft_rows_encoded == 0


def test_a_history_past_t_end_is_cut_without_a_forward():
    """Continued to a t_end before the history's last event, AR and SD
    return a valid sequence of the history's events at or before t_end and
    run no forward."""
    target, draft_model = make_checkpoint(28, n_layers=2), make_checkpoint(29)
    history = sequence_from_arrays([1.0, 5.0, 9.0], [0, 1, 0], 10.0)
    for seq, stats in (S.ar_sample(target, 4.0, RngStream(1), history=history),
                       S.tpp_sd_sample(target, draft_model, 4.0, 4, RngStream(1),
                                       history=history)):
        assert validate_sequence(seq, target.config.n_marks).ok
        assert seq.events == history.events[:1] and seq.t_end == 4.0
        assert stats.target_forward_passes == 0 and stats.draft_forward_passes == 0


def test_cached_ar_emits_the_uncached_events():
    ckpt = make_checkpoint(1, n_layers=2, n_heads=2)
    history = sequence_from_arrays([0.3, 0.9, 1.4], [0, 1, 1], 30.0)
    seq, _ = S.ar_sample(ckpt, 30.0, RngStream(5), history=history)
    stream = RngStream(5).child("ar")
    events = list(history.events)
    while len(events) < len(seq):
        events.append(S.next_event(ckpt, None, EventSequence(tuple(events), 30.0), 0, stream,
                                   target_cache=M.EncoderCache(ckpt)))
    assert [e.mark for e in events] == seq.marks.tolist()
    assert np.allclose([e.time for e in events], seq.times, rtol=1e-12, atol=0.0)


# -- drafting ----------------------------------------------------------------------

def test_draft_records_consistent_densities():
    ckpt = make_checkpoint(5)
    cache, run = M.EncoderCache(ckpt), S._RunState([])
    mixtures, probabilities = S.draft(ckpt, run, gamma=4, rng=RngStream(6).child("draft"),
                                      cache=cache)
    assert cache.passes == 4 and len(run) == 4
    # the draft rows come stacked, one row per candidate
    assert mixtures.weights.shape == (4, ckpt.config.n_components)
    assert probabilities.shape == (4, ckpt.config.n_marks)
    events = []
    for i in range(4):
        mix, row = M.next_event_distributions(EventSequence(tuple(events), math.inf), ckpt)
        for name in ("weights", "means", "scales"):
            assert np.allclose(getattr(mixtures, name)[i], getattr(mix, name),
                               rtol=0.0, atol=1e-12)
        assert np.allclose(probabilities[i], row, rtol=0.0, atol=1e-12)
        events.append(Event(float(run.times[i]), int(run.marks[i])))
    times = run.times.tolist()
    assert all(b > a for a, b in zip(times, times[1:]))


@pytest.mark.parametrize("gamma", [1, 4, 10])
def test_verify_scores_every_draft_interval_once_with_the_scalar_density(
        monkeypatch, head_row_checks, gamma):
    """verify scores the intervals the run holds, each candidate's time
    minus the time of the event before it (the last history event, or 0.0
    with none), under the draft rows with one _mixture_logpdf call, which
    equals the per-row scalar density exactly and is finite. Each of the
    gamma draft forwards checks its heads' pre-activations once, and
    verify's forward once more; the stacked views and the row cuts add no
    check."""
    ckpt = make_checkpoint(5, n_components=8)
    scored = []

    def recorded(tau, params, _density=S._mixture_logpdf):
        scored.append((tau.copy(), params, _density(tau, params)))
        return scored[-1][2]

    monkeypatch.setattr(S, "_mixture_logpdf", recorded)
    for history in ((), sequence_from_arrays([0.4, 1.0, 1.7], [1, 0, 1], math.inf).events):
        head_row_checks.update(head_rows=0)
        scored.clear()
        cache, run = M.EncoderCache(ckpt), S._RunState(history)
        law = S.draft(ckpt, run, gamma, RngStream(6).child("draft"), cache=cache)
        mixtures, probabilities = law
        assert head_row_checks == {"head_rows": gamma}
        assert cache.passes == gamma and probabilities.shape == (gamma, ckpt.config.n_marks)
        times = np.concatenate([[0.0], run.times])[-gamma - 1:]
        S.verify(ckpt, run, law, FixedUniforms([0.0] * gamma, [0.0] * gamma), RngStream(7),
                 S.SampleRunStats(), cache=M.EncoderCache(ckpt))
        assert head_row_checks == {"head_rows": gamma + 1}
        (intervals, _, logpdf), = (call for call in scored if call[1] is mixtures)
        assert intervals.tobytes() == np.diff(times).tobytes()
        assert logpdf.shape == (gamma,) and np.isfinite(logpdf).all()
        for i in range(gamma):
            row = mixtures.row(i)
            assert isinstance(row, M.MixtureParams) and row.weights.shape == (8,)
            assert logpdf[i] == M._mixture_logpdf(float(intervals[i]), row)


def test_draft_rows_are_the_rows_its_candidates_were_drawn_from(monkeypatch):
    """Each draft row holds, bit for bit, the head rows that its
    candidate's forward returned and its draws read, also when the cache
    grows in the middle of the draft, and the rows agree with one uncached
    position_distributions of the history and the candidates within
    1e-12."""
    ckpt = make_checkpoint(5, n_layers=2, n_heads=2, n_components=8, n_marks=3)
    drawn = []

    def recorded(events, checkpoint, _forward=S.next_event_distributions, **kwargs):
        mixture, marks = _forward(events, checkpoint, **kwargs)
        drawn.append([a.copy() for a in (mixture.weights, mixture.means, mixture.scales,
                                         marks)])
        return mixture, marks

    monkeypatch.setattr(S, "next_event_distributions", recorded)
    n = 125
    history = sequence_from_arrays(0.5 * np.arange(1, n + 1), np.arange(n) % 3, math.inf)
    cache = M.EncoderCache(ckpt)
    # a first forward of one event sizes the cache to 129 events, so the
    # draft's sixth forward, of 130 events, grows it
    M.next_event_distributions(EventSequence(history.events[:1], math.inf), ckpt, cache=cache)
    assert len(cache.hidden) == 129
    for gamma in (10, 1, 4):
        drawn.clear()
        events = S._RunState(history)
        mixtures, probabilities = S.draft(ckpt, events, gamma, RngStream(gamma).child("draft"),
                                          cache=cache)
        assert len(drawn) == gamma
        got = [mixtures.weights, mixtures.means, mixtures.scales, probabilities]
        for i, rows in enumerate(drawn):
            for a, b in zip(got, rows):
                assert a[i].tobytes() == b.tobytes()
        events.truncate(n + gamma - 1)
        mixtures, probabilities = M.position_distributions(events, ckpt)
        want = [mixtures.weights, mixtures.means, mixtures.scales, probabilities]
        for a, b in zip(got, want):
            assert np.allclose(a, b[n:], rtol=0.0, atol=1e-12)
    assert len(cache.hidden) > 129


@pytest.mark.parametrize("gamma", [1, 5])
def test_draft_draws_its_candidates_as_ar_steps_do(gamma):
    """draft's gamma candidates are, bit for bit, the events of gamma
    _ar_steps of the draft model on the same stream after the same history:
    one draw, sample_interval's interval then categorical's mark, in one
    order, which leaves the two streams at one position."""
    ckpt = make_checkpoint(5, n_layers=2, n_components=8, n_marks=3)
    history = sequence_from_arrays([0.4, 1.0, 1.7], [1, 0, 2], math.inf)
    drafted, run = RngStream(9).child("draft"), S._RunState(history)
    S.draft(ckpt, run, gamma, drafted, cache=M.EncoderCache(ckpt))
    events, stepped, cache = S._RunState(history), RngStream(9).child("draft"), M.EncoderCache(ckpt)
    for _ in range(gamma):
        assert S._ar_step(ckpt, stepped, cache, events) is None
    assert events.times.tobytes() == run.times.tobytes()
    assert events.marks.tolist() == run.marks.tolist()
    assert stepped.uniform() == drafted.uniform()


def test_draft_on_a_non_finite_draft_model_raises_floating_point_error():
    """A NaN in a draft head parameter fails as FloatingPointError at the
    first forward's checked pair, within the gamma passes."""
    ckpt = make_checkpoint(5)
    ckpt.params["mix_mean_bias"] = np.full_like(ckpt.params["mix_mean_bias"], np.nan)
    cache = M.EncoderCache(ckpt)
    with pytest.raises(FloatingPointError):
        S.draft(ckpt, S._RunState([]), 10, RngStream(6).child("draft"), cache=cache)
    assert cache.passes < 10


def test_draft_single_candidate():
    ckpt = make_checkpoint(5)
    cache = M.EncoderCache(ckpt)
    mixtures, probabilities = S.draft(ckpt, S._RunState([]), gamma=1, rng=RngStream(7),
                                      cache=cache)
    assert mixtures.weights.shape[0] == len(probabilities) == 1 and cache.passes == 1


# -- residual distributions ----------------------------------------------------------

def test_residual_mark_two_point():
    f_t, f_d = np.array([0.8, 0.2]), np.array([0.5, 0.5])
    stream = RngStream(8)
    assert all(S.residual_mark_sample(f_t, f_d, stream) == 0 for _ in range(50))


def test_residual_mark_three_point():
    f_t, f_d = np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.5, 0.3])
    stream = RngStream(9)
    assert all(S.residual_mark_sample(f_t, f_d, stream) == 0 for _ in range(50))


def test_residual_mark_zero_mass_raises():
    f = np.array([0.4, 0.6])
    with pytest.raises(S.ZeroResidualError):
        S.residual_mark_sample(f, f, RngStream(10))


def test_mark_law_exact_enumeration():
    """Accept branch plus residual branch must reproduce the target law exactly."""
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(2, 5))
        f_t = rng.dirichlet(np.ones(k))
        f_d = rng.dirichlet(np.ones(k))
        accept = np.minimum(1.0, np.array([
            clamped_exp(math.log(f_t[i]) - math.log(f_d[i])) for i in range(k)
        ]))
        residual = np.maximum(0.0, f_t - f_d)
        residual_law = residual / np.sum(residual)
        reject_mass = float(np.sum(f_d * (1.0 - accept)))
        law = f_d * accept + reject_mass * residual_law
        assert np.max(np.abs(law - f_t)) < 1e-12


def test_residual_interval_disjoint_supports_recovers_target():
    g_t = mixture([1.0], [0.0], [0.1])
    g_d = mixture([1.0], [50.0], [0.1])
    stream = RngStream(11)
    draws = np.array([S._residual_interval_sample_info(g_t, g_d, stream)[0]
                      for _ in range(10_000)])
    # the CDF of the log-normal mixture g_t
    result = kstest(draws, lambda x: np.sum(
        g_t.weights * ndtr((np.log(x)[:, None] - g_t.means) / g_t.scales), axis=-1))
    assert result.pvalue > 0.01


def test_residual_interval_matches_quadrature_oracle():
    g_t = mixture([1.0], [0.0], [0.5])
    g_d = mixture([1.0], [1.0], [0.5])
    taus, cdf = residual_cdf_grid(g_t, g_d)
    stream = RngStream(12)
    draws = np.array([S._residual_interval_sample_info(g_t, g_d, stream)[0]
                      for _ in range(10_000)])
    assert ks_against_grid(draws, taus, cdf) < 0.02


def test_residual_interval_fallback_on_identical_mixtures(caplog):
    g = mixture([0.5, 0.5], [0.0, 1.0], [0.5, 0.4])
    with caplog.at_level("WARNING"):
        value, used, fell_back = S._residual_interval_sample_info(g, g, RngStream(13))
    assert fell_back and used == S.RESIDUAL_MAX_PROPOSALS and value > 0
    assert any("falling back" in rec.message for rec in caplog.records)


def test_lazy_residual_scoring_matches_the_full_chunk_reference():
    """Scoring a chunk's proposals only up to the first acceptance draws the
    same value, counts the same proposals and leaves the stream where
    scoring the whole chunk does: on random mixture pairs, on a nearly equal
    pair whose draws take more than one chunk, and on identical mixtures,
    which exhaust the budget and fall back."""
    gen = np.random.default_rng(2501)
    pairs = []
    for _ in range(300):
        m_t, m_d = gen.integers(1, 9, size=2)
        pairs.append((mixture(gen.dirichlet(np.ones(m_t)), gen.normal(0.0, 1.0, m_t),
                              gen.uniform(0.2, 1.5, m_t)),
                      mixture(gen.dirichlet(np.ones(m_d)), gen.normal(0.3, 1.0, m_d),
                              gen.uniform(0.2, 1.5, m_d))))
    pairs += 8 * [(mixture([1.0], [0.0], [1.0]), mixture([1.0], [0.02], [1.0]))]
    same = mixture([0.5, 0.5], [0.0, 1.0], [0.5, 0.4])
    pairs.append((same, same))
    used = []
    for i, (g_t, g_d) in enumerate(pairs):
        lazy, full = RngStream(2502).child(f"draw{i}"), RngStream(2502).child(f"draw{i}")
        got = S._residual_interval_sample_info(g_t, g_d, lazy)
        assert got == full_chunk_residual_interval(g_t, g_d, full)
        assert lazy.generator.random() == full.generator.random()
        used.append(got[1])
    assert got[2] and used[-1] == S.RESIDUAL_MAX_PROPOSALS
    # draws that ended in the first scored proposals, later in the first
    # chunk, and in a later chunk
    assert min(used) <= S._RESIDUAL_FIRST
    assert any(S._RESIDUAL_FIRST < u <= S._RESIDUAL_CHUNK for u in used)
    assert any(S._RESIDUAL_CHUNK < u < S.RESIDUAL_MAX_PROPOSALS for u in used)


def test_interval_acceptance_rate_matches_overlap_integral():
    """Empirical accept rate of the draft-side interval test converges to
    the overlap integral of the two densities."""
    g_t = mixture([0.6, 0.4], [0.2, 1.0], [0.5, 0.7])
    g_d = mixture([1.0], [0.5], [0.6])
    beta, _ = quad(lambda t: min(math.exp(M._mixture_logpdf(t, g_t)),
                                 math.exp(M._mixture_logpdf(t, g_d))), 0.0, np.inf, limit=200)
    stream = RngStream(14)
    n = 10_000
    accepted = 0
    for _ in range(n):
        tau = M.sample_interval(g_d, stream)
        ratio = clamped_exp(M._mixture_logpdf(tau, g_t) - M._mixture_logpdf(tau, g_d))
        if stream.uniform() < ratio:
            accepted += 1
    sigma = math.sqrt(beta * (1.0 - beta) / n)
    assert abs(accepted / n - beta) < 3.0 * sigma


# -- verification ------------------------------------------------------------------

def draft_run(ckpt, gamma, rng, history=()):
    """A run holding ``history`` and gamma candidates drafted after it, and
    their draft law."""
    run = S._RunState(history)
    return run, S.draft(ckpt, run, gamma, rng, cache=M.EncoderCache(ckpt))


def copied(run):
    """A fresh run holding the events that ``run`` holds, for a verify that
    must not cut ``run``'s."""
    return S._RunState(run.events(0, math.inf))


def recorded_rows(monkeypatch):
    """Copies of the target rows that each later position_distributions
    call of the sampler returns, one (mixtures, probabilities) per call."""
    rows = []

    def recorded(events, checkpoint, _forward=S.position_distributions, **kwargs):
        mixtures, probabilities = _forward(events, checkpoint, **kwargs)
        rows.append((M.MixtureParams(mixtures.weights.copy(), mixtures.means.copy(),
                                     mixtures.scales.copy()), probabilities.copy()))
        return mixtures, probabilities

    monkeypatch.setattr(S, "position_distributions", recorded)
    return rows


def acceptance_ratios(rows, law, times, marks):
    """The interval and mark acceptance ratios of the gamma candidates that
    the events of the given times and marks end with, under their draft law,
    from the target rows of one verify's forward, whose last gamma rows
    score them. As verify does, each candidate's interval is its time minus
    the time of the event before it, or 0.0 with none."""
    mixtures, probabilities = rows
    draft_mixtures, draft_probabilities = law
    gamma = len(draft_probabilities)
    first = len(probabilities) - gamma
    intervals = np.diff(np.concatenate([[0.0], times])[-gamma - 1:])
    marks = marks[-gamma:]
    g_t = M._mixture_logpdf(intervals, mixtures.row(slice(first, None)))
    g_d = M._mixture_logpdf(intervals, draft_mixtures)
    f_t = probabilities[first + np.arange(gamma), marks]
    f_d = draft_probabilities[np.arange(gamma), marks]
    return clamped_exp(g_t - g_d), clamped_exp(np.log(f_t) - np.log(f_d))


def test_verify_identical_models_accepts_everything(monkeypatch):
    """Self-drafted candidates have acceptance ratios of 1 within 1e-9, so
    uniforms just under 1 accept all of them, and the run ends holding
    them all."""
    rows = recorded_rows(monkeypatch)
    ckpt = make_checkpoint(15)
    stats, cache = S.SampleRunStats(), M.EncoderCache(ckpt)
    run, law = draft_run(ckpt, 6, RngStream(16).child("draft"))
    drafted = run.times.tobytes(), run.marks.tobytes()
    almost_one = [1.0 - 1e-9] * 6
    outcome = S.verify(ckpt, run, law, FixedUniforms(almost_one, almost_one),
                       RngStream(16).child("residual"), stats, cache=cache)
    assert outcome.accepted_len == 6
    assert outcome.replacement is None
    assert (run.times.tobytes(), run.marks.tobytes()) == drafted
    interval_ratios, mark_ratios = acceptance_ratios(rows[0], law, run.times, run.marks)
    assert interval_ratios == pytest.approx(np.ones(6), abs=1e-9)
    assert mark_ratios == pytest.approx(np.ones(6), abs=1e-9)
    assert cache.passes == 1
    assert stats.events_accepted == 6 and stats.events_drafted == 6


def doctored_law(run, law):
    """Rewrite the draft law of the self-drafted candidates that ``run``
    ends with as if they came from a different draft model: shift the
    recorded interval mixtures and concentrate the mark distributions, so
    every residual distribution is well defined."""
    mix, probabilities = law
    shifted = M.MixtureParams(mix.weights, mix.means + 1.0, mix.scales)
    gamma, k = probabilities.shape
    probs = np.full((gamma, k), 0.1 / max(1, k - 1))
    probs[np.arange(gamma), run.marks[-gamma:]] = 0.9
    return shifted, probs / probs.sum(axis=-1, keepdims=True)


def doctored_draft(ckpt, gamma, rng, history=()):
    """draft_run with the doctored draft law."""
    run, law = draft_run(ckpt, gamma, rng, history)
    return run, doctored_law(run, law)


REJECT = 1e308  # exceeds any clamped ratio, so the test always rejects


def test_verify_injected_threshold_rejects(monkeypatch):
    """Self-drafted rows with their weights doubled add log 2 to the draft's
    interval log-density, so each interval ratio is 0.5, and an injected
    epsilon of 0.7 rejects at the first position, leaving zero accepted and
    a replacement pending. Both ratios are 0.5 within 1e-9, computed from
    the rows the forward returned, and the uniforms agree on both sides: at
    the first position an epsilon just over 0.5 rejects, and at the second
    one just under accepts while one just over rejects."""
    rows = recorded_rows(monkeypatch)
    ckpt = make_checkpoint(15)
    run, (mixtures, probabilities) = draft_run(ckpt, 2, RngStream(17).child("draft"))
    law = M.MixtureParams(2.0 * mixtures.weights, mixtures.means, mixtures.scales), probabilities
    cases = (([0.7, 0.1], 0), ([0.5 + 1e-9, 0.1], 0), ([0.5 - 1e-9, 0.5 + 1e-9], 1))
    for u_interval, accepted in cases:
        outcome = S.verify(ckpt, copied(run), law, FixedUniforms(u_interval, [0.0, 0.0]),
                           RngStream(18), S.SampleRunStats(), cache=M.EncoderCache(ckpt))
        assert outcome.accepted_len == accepted
        assert outcome.replacement is not None
    interval_ratios, _ = acceptance_ratios(rows[0], law, run.times, run.marks)
    assert interval_ratios == pytest.approx([0.5, 0.5], abs=1e-9)


def test_verify_min_rule_interval_before_mark():
    """Interval rejection at position 2 preempts a mark rejection at 3:
    one accepted event plus one replacement get appended (Alg-style L=2).
    Only the interval is redrawn; the drafted mark passed its test and
    stays."""
    ckpt = make_checkpoint(15)
    run, law = doctored_draft(ckpt, 4, RngStream(19).child("draft"))
    times, marks = run.times.copy(), run.marks.copy()
    u_interval = [0.0, REJECT, 0.0, 0.0]   # interval fails at index 1
    u_mark = [0.0, 0.0, REJECT, 0.0]       # mark would fail at index 2
    outcome = S.verify(ckpt, run, law, FixedUniforms(u_interval, u_mark),
                       RngStream(20), S.SampleRunStats(), cache=M.EncoderCache(ckpt))
    assert outcome.accepted_len == 1
    assert outcome.replacement is not None
    replacement_time, replacement_mark = outcome.replacement
    assert replacement_time != times[1]
    assert replacement_mark == marks[1]


def test_residual_proposals_are_counted_per_interval_redraw(monkeypatch):
    """A forced interval rejection redraws the interval from the residual,
    and the stats count the proposals that draw used, at least one. Over a
    whole SD run the count sums every residual interval draw; AR draws
    none."""
    used = []

    def spied(*args, _draw=S._residual_interval_sample_info, **kwargs):
        out = _draw(*args, **kwargs)
        used.append(out[1])
        return out

    monkeypatch.setattr(S, "_residual_interval_sample_info", spied)
    ckpt = make_checkpoint(15)
    run, law = doctored_draft(ckpt, 4, RngStream(19).child("draft"))
    stats = S.SampleRunStats()
    S.verify(ckpt, run, law, FixedUniforms([0.0, REJECT, 0.0, 0.0], [0.0] * 4),
             RngStream(20), stats, cache=M.EncoderCache(ckpt))
    assert len(used) == 1 and stats.residual_proposals == used[0] >= 1
    used.clear()
    target, draft_model = make_checkpoint(15, n_layers=2), make_checkpoint(16)
    # a draft whose intervals run long, so that intervals get rejected
    draft_model.params["mix_mean_bias"] = draft_model.params["mix_mean_bias"] + 1.0
    _, stats = S.tpp_sd_sample(target, draft_model, 20.0, 4, RngStream(3))
    assert used and stats.residual_proposals == sum(used) >= len(used)
    _, ar_stats = S.ar_sample(target, 20.0, RngStream(3))
    assert ar_stats.residual_proposals == 0


def test_verify_mark_only_rejection_keeps_interval():
    ckpt = make_checkpoint(15)
    run, law = doctored_draft(ckpt, 3, RngStream(21).child("draft"))
    drafted_time = float(run.times[1])
    outcome = S.verify(ckpt, run, law, FixedUniforms([0.0, 0.0, 0.0], [0.0, REJECT, 0.0]),
                       RngStream(22), S.SampleRunStats(), cache=M.EncoderCache(ckpt))
    # mark rejected at index 1: the drafted time stays
    assert outcome.accepted_len == 1
    assert outcome.replacement is not None
    assert outcome.replacement[0] == drafted_time


def test_verify_builds_a_row_pair_only_at_a_rejection(head_row_checks):
    """One head-row check for the target rows, on the pre-activations of
    its one forward, with or without a rejection: the target and draft rows
    a rejection reads are cut from stacks that were checked already and
    are not checked again."""
    ckpt = make_checkpoint(15)
    run, law = doctored_draft(ckpt, 4, RngStream(19).child("draft"))
    for u_mark, accepted in (([0.0] * 4, 4), ([0.0, 0.0, REJECT, 0.0], 2)):
        head_row_checks.update(head_rows=0)
        outcome = S.verify(ckpt, copied(run), law, FixedUniforms([0.0] * 4, u_mark),
                           RngStream(20), S.SampleRunStats(), cache=M.EncoderCache(ckpt))
        assert outcome.accepted_len == accepted
        assert head_row_checks == {"head_rows": 1}


def test_verify_with_a_cache_scores_the_same_rows(monkeypatch):
    """With a cache holding only the history, verify reads the candidates
    from the trailing rows and matches the uncached outcome and acceptance
    ratios, encoding every candidate but the last, whose row it does not
    read; a cache that already holds them is rolled back to the history and
    encodes them again, with the same outcome."""
    rows = recorded_rows(monkeypatch)
    ckpt = make_checkpoint(15)
    history = sequence_from_arrays([0.4, 1.0, 1.7], [1, 0, 1], math.inf)
    run, law = doctored_draft(ckpt, 4, RngStream(19).child("draft"), history)
    uniforms = ([0.0] * 4, [0.0, 0.0, REJECT, 0.0])
    plain = S.verify(ckpt, copied(run), law, FixedUniforms(*uniforms), RngStream(20),
                     S.SampleRunStats(), cache=M.EncoderCache(ckpt))
    cache = M.EncoderCache(ckpt)
    M.next_event_distributions(history, ckpt, cache=cache)
    stats = S.SampleRunStats()
    cached = S.verify(ckpt, copied(run), law, FixedUniforms(*uniforms), RngStream(20), stats,
                      cache=cache)
    assert cache.rows_encoded == len(history) + 3
    assert cached.accepted_len == plain.accepted_len == 2
    assert cached.replacement == plain.replacement
    plain_ratios, cached_ratios = (acceptance_ratios(r, law, run.times, run.marks) for r in rows)
    for a, b in zip(cached_ratios, plain_ratios):
        assert np.allclose(a, b, rtol=1e-12, atol=0.0)
    again = S.verify(ckpt, copied(run), law, FixedUniforms(*uniforms), RngStream(20), stats,
                     cache=cache)
    assert cache.rows_encoded == len(history) + 6
    assert again.replacement == cached.replacement
    for a, b in zip(acceptance_ratios(rows[2], law, run.times, run.marks), cached_ratios):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("u_interval, u_mark, accepted", [
    ([0.0] * 4, [0.0] * 4, 4),
    ([0.0] * 4, [0.0, 0.0, REJECT, 0.0], 2),
    ([0.0, REJECT, 0.0, 0.0], [0.0] * 4, 1),
], ids=["all", "mark", "interval"])
def test_a_step_keeps_its_candidates_in_the_run_from_draft_to_emit(u_interval, u_mark,
                                                                     accepted):
    """After draft the run holds the history and gamma candidates, the
    events of gamma _ar_steps of the draft model on the same stream. After
    verify it holds the history, the accepted prefix, byte for byte the
    drafted candidates, and at a rejection the replacement, whose redrawn
    interval starts at the prefix's last event."""
    ckpt = make_checkpoint(15)
    history = sequence_from_arrays([0.4, 1.0, 1.7], [1, 0, 1], math.inf)
    run, law = draft_run(ckpt, 4, RngStream(19).child("draft"), history)
    stepped, rng, cache = S._RunState(history), RngStream(19).child("draft"), M.EncoderCache(ckpt)
    for _ in range(4):
        S._ar_step(ckpt, rng, cache, stepped)
    assert run.times.tobytes() == stepped.times.tobytes()
    assert run.marks.tobytes() == stepped.marks.tobytes()
    law = doctored_law(run, law)
    times, marks = run.times.copy(), run.marks.copy()
    outcome = S.verify(ckpt, run, law, FixedUniforms(u_interval, u_mark), RngStream(20),
                       S.SampleRunStats(), cache=M.EncoderCache(ckpt))
    kept = len(history) + accepted
    assert outcome.accepted_len == accepted
    assert run.times[:kept].tobytes() == times[:kept].tobytes()
    assert run.marks[:kept].tobytes() == marks[:kept].tobytes()
    if accepted == 4:
        assert outcome.replacement is None and len(run) == kept
    else:
        assert len(run) == kept + 1
        assert (float(run.times[-1]), int(run.marks[-1])) == outcome.replacement
        assert run.last_time == outcome.replacement[0] > times[kept - 1]


def test_verify_counts_one_target_pass_per_iteration():
    target = make_checkpoint(23, n_layers=2)
    draft_model = make_checkpoint(24)
    _, run_stats = S.tpp_sd_sample(target, draft_model, 20.0, gamma=5, rng=RngStream(25))
    assert run_stats.target_forward_passes == run_stats.iterations
    assert run_stats.draft_forward_passes == 5 * run_stats.iterations
    assert run_stats.events_drafted == 5 * run_stats.iterations
    # one accepted-length count per verify, for lengths 0 to gamma
    lengths = run_stats.accepted_lengths
    assert len(lengths) == 6 and sum(lengths) == run_stats.iterations
    assert sum(n * count for n, count in enumerate(lengths)) == run_stats.events_accepted
    assert S.ar_sample(target, 20.0, RngStream(25))[1].accepted_lengths == []


# Python-level calls per candidate of one draft and one verify after a warm
# step, on a 1-layer draft and a 2-layer, 2-head target: at most 17.6 and
# 12.6 are counted, a verify with a residual interval draw included
# (scripts/call_counts.py prints both)
DRAFT_CALLS_PER_CANDIDATE = 21
VERIFY_CALLS_PER_CANDIDATE = 13


def python_calls(fn, *args, **kwargs):
    """fn's result and the Python-level calls it made, counted with
    sys.setprofile: a timing-independent count of per-call overhead."""
    calls = [0]

    def hook(frame, event, arg):
        calls[0] += event == "call"

    sys.setprofile(hook)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return result, calls[0]


@pytest.mark.parametrize("gamma", [5, 10])
def test_draft_and_verify_calls_per_candidate_are_bounded(gamma):
    target = make_checkpoint(1, n_layers=2, n_heads=2)
    draft_model = make_checkpoint(2)
    history = sequence_from_arrays(0.5 * np.arange(1, 11), np.arange(10) % 2, 100.0)
    for seed in range(4):
        events, stats = S._RunState(history), S.SampleRunStats()
        caches = step_caches(target, draft_model)
        S._sd_step(target, draft_model, gamma, S._sd_streams(RngStream(seed)),
                   caches["target_cache"], caches["draft_cache"], stats, events)
        rng = RngStream(seed + 100)
        batch, drafted = python_calls(S.draft, draft_model, events, gamma, rng.child("draft"),
                                      cache=caches["draft_cache"])
        _, verified = python_calls(S.verify, target, events, batch, rng.child("verify"),
                                   rng.child("residual"), stats, cache=caches["target_cache"])
        assert drafted <= DRAFT_CALLS_PER_CANDIDATE * gamma
        assert verified <= VERIFY_CALLS_PER_CANDIDATE * gamma


def test_sd_caches_find_their_prefix_by_the_byte_compare():
    """After a rejection both caches are cut to the kept prefix, so no
    forward of a run falls back to the elementwise prefix compare, which
    reads the held bytes back with np.frombuffer; the run still rejects."""
    target, draft_model = make_checkpoint(28, n_layers=2, scale=1.5), make_checkpoint(29)
    calls = []

    def hook(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", "") == "frombuffer":
            calls.append(arg)

    sys.setprofile(hook)
    try:
        _, stats = S.tpp_sd_sample(target, draft_model, 40.0, gamma=4, rng=RngStream(30))
    finally:
        sys.setprofile(None)
    assert stats.replacement_events > 0
    assert calls == []


def test_cached_sd_emits_the_uncached_events():
    """tpp_sd_sample's caches roll back to the accepted prefix after each
    rejection; the same steps run with fresh caches per step emit the same
    events."""
    target = make_checkpoint(28, n_layers=2, scale=1.5)
    draft_model = make_checkpoint(29)
    history = sequence_from_arrays([0.5, 1.1, 1.6], [0, 1, 0], 30.0)
    seq, stats = S.tpp_sd_sample(target, draft_model, 30.0, 4, RngStream(6), history=history)
    assert stats.replacement_events > 0 and stats.events_accepted > 0
    streams = S._sd_streams(RngStream(6))
    uncached, target_caches = S.SampleRunStats(), []
    events = S._RunState(history)
    while events.last_time < 30.0:
        target_caches.append(M.EncoderCache(target))
        S._sd_step(target, draft_model, 4, streams, target_caches[-1],
                   M.EncoderCache(draft_model), uncached, events)
    events = events.events(0, 30.0)
    assert [e.mark for e in events] == seq.marks.tolist()
    assert np.allclose([e.time for e in events], seq.times, rtol=1e-12, atol=0.0)
    assert uncached.events_accepted == stats.events_accepted
    assert sum(cache.passes for cache in target_caches) == stats.target_forward_passes


def test_sd_rows_encoded_counts_only_uncached_events():
    """The draft encodes the history once and then one event per pass; the
    target encodes the history and gamma - 1 candidates in its first pass,
    and then gamma rows per pass: the gamma - 1 candidates whose rows it
    reads after, plus the previous step's last event, a replacement or the
    last candidate, which it did not encode."""
    target = make_checkpoint(28, n_layers=2, scale=1.5)
    draft_model = make_checkpoint(29)
    history = sequence_from_arrays(0.5 * np.arange(1, 21), np.arange(20) % 2, 40.0)
    _, stats = S.tpp_sd_sample(target, draft_model, 40.0, 4, RngStream(7), history=history)
    assert stats.replacement_events > 0
    assert stats.draft_rows_encoded == len(history) + stats.draft_forward_passes - 1
    assert stats.target_rows_encoded == len(history) + 4 * stats.iterations - 1


def test_a_run_builds_its_events_once_after_a_long_history(monkeypatch):
    """After a 100-event history, an AR run and an SD run each build one
    EventSequence, the output, and one Event per new event: no pass
    rebuilds the history's events or wraps them in a sequence, and a
    replacement is held as a time and a mark, not as an Event."""
    target = make_checkpoint(28, n_layers=2, scale=1.5)
    draft_model = make_checkpoint(29)
    history = sequence_from_arrays(0.5 * np.arange(1, 101), np.arange(100) % 2, 80.0)
    counts = {}
    for cls in (Event, EventSequence):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    runs = {"ar": lambda: S.ar_sample(target, 80.0, RngStream(8), history=history),
            "sd": lambda: S.tpp_sd_sample(target, draft_model, 80.0, 4, RngStream(8),
                                          history=history)}
    for mode, run in runs.items():
        counts.clear()
        seq, stats = run()
        new = len(seq) - len(history)
        assert seq.events[:len(history)] == history.events
        assert stats.target_forward_passes + stats.draft_forward_passes > new > 0
        assert mode == "ar" or stats.replacement_events > 0
        assert counts == {"EventSequence": 1, "Event": new}, mode


# -- non-finite model output ------------------------------------------------------------

def deep_thp_checkpoint():
    """30-layer thp model whose value projections are scaled by 1e12: each
    layer multiplies the residual stream by about that much, so it
    overflows and the head rows are NaN from the second event on. (The
    attention max-shift keeps the default-initialised model finite.)"""
    ckpt = make_checkpoint(0, n_layers=30, embed_dim=16, n_components=8)
    for layer in range(30):
        ckpt.params[f"layers.{layer}.v"] = ckpt.params[f"layers.{layer}.v"] * 1e12
    return ckpt


def bounded_passes(monkeypatch, limit=50):
    """Fail, instead of hanging, when sampling runs more than ``limit`` forwards."""
    passes = []

    def counted(forward):
        def wrapper(events, checkpoint, **kwargs):
            passes.append(len(events))
            if len(passes) > limit:
                raise AssertionError(f"still sampling after {limit} forward passes")
            return forward(events, checkpoint, **kwargs)
        return wrapper

    monkeypatch.setattr(S, "next_event_distributions", counted(S.next_event_distributions))
    monkeypatch.setattr(S, "position_distributions", counted(S.position_distributions))
    return passes


def test_ar_on_non_finite_model_raises(monkeypatch):
    passes = bounded_passes(monkeypatch)
    with pytest.raises(FloatingPointError):
        S.ar_sample(deep_thp_checkpoint(), 100.0, RngStream(42))
    assert len(passes) == 2


def test_sd_on_non_finite_model_raises(monkeypatch):
    bounded_passes(monkeypatch)
    with pytest.raises(FloatingPointError):
        S.tpp_sd_sample(deep_thp_checkpoint(), make_checkpoint(43), 100.0, gamma=5,
                        rng=RngStream(44))


def test_samplers_raise_when_an_interval_does_not_move_the_clock(stalling_checkpoint):
    """Before the check, AR kept two events at one time and SD's draft
    batch refused its own candidates as ValueError."""
    ckpt = stalling_checkpoint
    with pytest.raises(FloatingPointError, match="does not move the clock"):
        S.ar_sample(ckpt, 20.0, RngStream(1))
    with pytest.raises(FloatingPointError, match="does not move the clock"):
        S.tpp_sd_sample(ckpt, ckpt, 20.0, 5, RngStream(1))


def test_single_steps_raise_when_an_interval_does_not_move_the_clock(stalling_checkpoint):
    """After an event at t=1 a draw from the second component stalls; at
    these seeds the AR step and the first draft step draw it. Without the
    check, the AR step returned an event at t=1 again."""
    ckpt = stalling_checkpoint
    history = sequence_from_arrays([1.0], [0], 20.0)
    with pytest.raises(FloatingPointError, match="from t=1.0 does not move the clock"):
        S.next_event(ckpt, None, history, 5, RngStream(3), **step_caches(ckpt, None))
    with pytest.raises(FloatingPointError, match="from t=1.0 does not move the clock"):
        S.next_event(ckpt, ckpt, history, 5, RngStream(0), **step_caches(ckpt, ckpt))


def guarded_checkpoint(encoding, n_layers, n_heads, scale, seed):
    """A random checkpoint whose encoder weights are scaled by ``scale``.
    The interval-location and -scale projections are zeroed, so every
    mixture component is LogNormal(0, 1) whatever the hidden rows are (the
    event count stays small), while a non-finite hidden row still reaches
    the heads (0 * inf is NaN)."""
    ckpt = make_checkpoint(seed, n_layers=n_layers, n_heads=n_heads, encoding=encoding)
    for name in ckpt.params:
        if name == "mark_embedding" or name.startswith("layers."):
            ckpt.params[name] = ckpt.params[name] * scale
    for name in ("mix_mean_proj", "mix_scale_proj"):
        ckpt.params[name] = np.zeros_like(ckpt.params[name])
    return ckpt


@settings(max_examples=40, deadline=None, derandomize=True)
@given(encoding=st.sampled_from(M.ENCODINGS), n_layers=st.integers(1, 40),
       n_heads=st.sampled_from([1, 2]), scale=st.integers(0, 30).map(lambda e: 10.0 ** e),
       seed=st.integers(0, 1000), speculative=st.booleans())
def test_samplers_are_finite_or_raise_on_deep_or_rescaled_models(encoding, n_layers, n_heads,
                                                                  scale, seed, speculative):
    """AR and SD either return a valid sequence or raise FloatingPointError,
    within a bounded number of forward passes, however deep or badly scaled
    the target is."""
    target = guarded_checkpoint(encoding, n_layers, n_heads, scale, seed)
    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        bounded_passes(patch, limit=200)
        try:
            if speculative:
                seq, _ = S.tpp_sd_sample(target, make_checkpoint(seed + 1), 8.0, 3,
                                         RngStream(seed))
            else:
                seq, _ = S.ar_sample(target, 8.0, RngStream(seed))
        except FloatingPointError:
            return
    assert validate_sequence(seq, target.config.n_marks).ok


# -- speculative sampling loop ---------------------------------------------------------

def test_sd_identical_models_alpha_one():
    ckpt = make_checkpoint(26)
    seq, stats = S.tpp_sd_sample(ckpt, ckpt, 30.0, gamma=5, rng=RngStream(27))
    assert stats.acceptance_rate == 1.0
    assert stats.replacement_events == 0
    assert validate_sequence(seq, ckpt.config.n_marks).ok
    assert stats.events_accepted == 5 * stats.iterations


def test_sd_appends_accepted_plus_replacement():
    target = make_checkpoint(28, n_layers=2, scale=1.5)
    draft_model = make_checkpoint(29)
    seq, stats = S.tpp_sd_sample(target, draft_model, 40.0, gamma=4, rng=RngStream(30))
    assert 0 < stats.acceptance_rate < 1.0
    assert stats.replacement_events > 0
    assert validate_sequence(seq, target.config.n_marks).ok
    # every appended event came from an accepted candidate or a replacement
    appended = stats.events_accepted + stats.replacement_events
    assert len(seq) <= appended


def test_sd_deterministic_under_seed():
    target = make_checkpoint(31, n_layers=2)
    draft_model = make_checkpoint(32)
    a, sa = S.tpp_sd_sample(target, draft_model, 25.0, gamma=6, rng=RngStream(33))
    b, sb = S.tpp_sd_sample(target, draft_model, 25.0, gamma=6, rng=RngStream(33))
    assert np.array_equal(a.times, b.times) and np.array_equal(a.marks, b.marks)
    assert sa.events_accepted == sb.events_accepted
    assert sa.events_drafted == sb.events_drafted


def test_sd_rejects_mark_cardinality_mismatch():
    target, draft_model = make_checkpoint(0, n_marks=2), make_checkpoint(1, n_marks=3)
    with pytest.raises(ValueError, match="mark cardinality"):
        S.tpp_sd_sample(target, draft_model, 10.0, 2, RngStream(0))
    with pytest.raises(ValueError, match="mark cardinality"):
        S.next_event(target, draft_model, EventSequence((), math.inf), 2, RngStream(0),
                     **step_caches(target, draft_model))


def test_sd_final_filter_drops_overshoot():
    target = make_checkpoint(34)
    draft_model = make_checkpoint(35)
    seq, _ = S.tpp_sd_sample(target, draft_model, 12.0, gamma=8, rng=RngStream(36))
    assert all(e.time <= 12.0 for e in seq.events)


@pytest.mark.parametrize("speculative", [False, True], ids=["ar", "sd"])
def test_next_event_twice_on_shared_caches_repeats_its_event(speculative):
    """A second step on the same history and seed, with the caches that the
    first one left holding what it encoded, emits the same event: AR's
    cache holds the history, SD's target cache also all the candidates
    but the last."""
    target, draft_model = make_checkpoint(39, n_layers=2), make_checkpoint(40, n_layers=2)
    draft_model = draft_model if speculative else None
    history = sequence_from_arrays([0.5, 1.1, 2.0], [0, 1, 1], math.inf)
    caches = step_caches(target, draft_model)
    first, second = (S.next_event(target, draft_model, history, 3, RngStream(7), **caches)
                     for _ in range(2))
    assert caches["target_cache"].size == len(history) + (2 if speculative else 0)
    assert second == first


def test_sd_next_event_without_a_draft_cache_uses_a_fresh_one():
    """A draft model with the default draft_cache steps through a fresh
    draft cache: the event is the one a fresh EncoderCache gives."""
    target, draft_model = make_checkpoint(39, n_layers=2), make_checkpoint(40, n_layers=2)
    history = sequence_from_arrays([0.5, 1.1, 2.0], [0, 1, 1], math.inf)
    for seed in range(4):
        given = S.next_event(target, draft_model, history, 3, RngStream(seed),
                             target_cache=M.EncoderCache(target),
                             draft_cache=M.EncoderCache(draft_model))
        assert S.next_event(target, draft_model, history, 3, RngStream(seed),
                            target_cache=M.EncoderCache(target)) == given


@pytest.mark.parametrize("gamma", [1, 4])
def test_sd_next_event_matches_ar_in_distribution(gamma):
    """One speculative step must emit the next event with the target
    model's autoregressive law, for distinct target/draft pairs."""
    target = make_checkpoint(37, n_layers=2, n_heads=2, embed_dim=16, n_components=8,
                             n_marks=3)
    draft_model = make_checkpoint(38, n_layers=1, embed_dim=16, n_components=8, n_marks=3)
    history = sequence_from_arrays([0.5, 1.1, 2.0], [0, 2, 1], math.inf)
    n = 2000
    rejected = 0
    for seed in (101, 202, 303):
        root = RngStream(seed)
        sd_times, sd_marks, ar_times, ar_marks = [], [], [], []
        for i in range(n):
            ev = S.next_event(target, draft_model, history, gamma, root.child(f"sd{i}"),
                              **step_caches(target, draft_model))
            sd_times.append(ev.time)
            sd_marks.append(ev.mark)
            ev = S.next_event(target, None, history, gamma, root.child(f"ar{i}"),
                              **step_caches(target, None))
            ar_times.append(ev.time)
            ar_marks.append(ev.mark)
        if ks_2samp(sd_times, ar_times).pvalue <= 0.01:
            rejected += 1
        sd_freq = np.bincount(sd_marks, minlength=3) / n
        ar_freq = np.bincount(ar_marks, minlength=3) / n
        assert np.max(np.abs(sd_freq - ar_freq)) < 0.06
    assert rejected == 0


def test_sd_identical_models_next_event_matches_ar():
    ckpt = make_checkpoint(39, n_marks=2)
    history = EventSequence((), math.inf)
    root = RngStream(40)
    sd_times = [S.next_event(ckpt, ckpt, history, 3, root.child(f"s{i}"),
                             **step_caches(ckpt, ckpt)).time for i in range(2000)]
    ar_times = [S.next_event(ckpt, None, history, 3, root.child(f"a{i}"),
                             **step_caches(ckpt, None)).time for i in range(2000)]
    assert ks_2samp(sd_times, ar_times).pvalue > 0.01


def test_next_event_helpers_are_the_first_step_of_their_loops():
    """next_event, without and with a draft, emits exactly the first new
    event of ar_sample and tpp_sd_sample under the same streams."""
    target = make_checkpoint(28, n_layers=2, scale=1.5)
    draft_model = make_checkpoint(29)
    history = sequence_from_arrays([0.5, 1.1], [0, 1], 40.0)
    replaced = 0
    for seed in range(8):
        rng = RngStream(seed)
        ar_seq, _ = S.ar_sample(target, 40.0, rng, history=history)
        assert S.next_event(target, None, history, 4, rng.child("ar"),
                            **step_caches(target, None)) == ar_seq.events[2]
        sd_seq, _ = S.tpp_sd_sample(target, draft_model, 40.0, 4, rng, history=history)
        first = S.next_event(target, draft_model, history, 4, rng,
                             **step_caches(target, draft_model))
        assert first == sd_seq.events[2]
        run = S._RunState(history)
        S.draft(draft_model, run, 4, rng.child("draft"), cache=M.EncoderCache(draft_model))
        replaced += int(first.time != run.times[2] or first.mark != run.marks[2])
    assert 0 < replaced < 8


@pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf, -1.0, 0.0])
def test_samplers_refuse_a_horizon_that_is_not_finite_and_positive(t_end):
    """Each sampler refuses before its loop starts: at a NaN or infinite
    horizon the loops never ended, and at a negative one they returned
    sequences that validate_sequence rejects. An alarm bounds every call."""
    target, draft = make_checkpoint(1), make_checkpoint(2)
    process = SinePoissonParams(A=5.0, b=1.0, omega=0.02)
    calls = {"ar_sample": lambda: S.ar_sample(target, t_end, RngStream(0)),
             "tpp_sd_sample": lambda: S.tpp_sd_sample(target, draft, t_end, 3, RngStream(0)),
             "thinning_sample": lambda: thinning_sample(process, t_end, RngStream(0))}

    def expire(signum, frame):
        raise TimeoutError("the call did not return within 20 s")

    previous = signal.signal(signal.SIGALRM, expire)
    try:
        for name, call in calls.items():
            signal.alarm(20)
            with pytest.raises(ValueError, match="t_end"):
                call()
            signal.alarm(0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# -- pinned outputs ------------------------------------------------------------

# SHA-256 of the times and marks that each sampler emits on a pinned thp pair,
# from an empty history and after a 20-event one. The target's value
# projections are not zero, so attention numerics reach the digests. A change
# that alters a digest changes what the samplers emit for a fixed seed, and
# must declare it.
PINNED_DIGESTS = {
    "ar": "8eea648d2cada64bd17f657512e1d1b7c1830d6b7256266838274a6a220b9edf",
    "sd1": "45153408a5b9fa4d1b2043e2028ddb005e634bfed08e2239b3262f64645befae",
    "sd5": "14c77c9486c1e6dda0330a90264dfe1c27c18ea100fa59a174bb5c6047c0ca34",
    "sd10": "a953c23e6a1d3e0bb8649d4c856903e8a49453c89c00d0be6bda55e75311ff33",
}

# The target passes, target rows encoded, draft passes and draft rows encoded
# of each pinned run, in the order of pinned_samples.
PINNED_COUNTS = {
    "ar": [(36, 35, 0, 0), (27, 46, 0, 0)],
    "sd1": [(35, 34, 35, 34), (29, 48, 29, 48)],
    "sd5": [(13, 64, 65, 64), (10, 69, 50, 69)],
    "sd10": [(7, 69, 70, 69), (4, 59, 40, 59)],
}


def pinned_samples(mode):
    """The sequences and stats that ``mode`` samples on the pinned pair and
    seeds."""
    target = make_checkpoint(2301, n_layers=3, n_heads=2, n_marks=3)
    draft_model = make_checkpoint(2302, n_marks=3)
    assert np.abs(target.params["layers.0.v"]).min() > 0.0
    history = sequence_from_arrays(0.4 * np.arange(1, 21), np.arange(20) % 3, 60.0)
    runs = []
    for seed, held in ((2303, None), (2304, history)):
        if mode == "ar":
            runs.append(S.ar_sample(target, 60.0, RngStream(seed), history=held))
        else:
            runs.append(S.tpp_sd_sample(target, draft_model, 60.0, int(mode[2:]),
                                        RngStream(seed), history=held))
    return runs


def pinned_runs(mode):
    """The sequences that ``mode`` samples on the pinned pair and seeds."""
    return [seq for seq, _ in pinned_samples(mode)]


@pytest.mark.parametrize("mode", list(PINNED_DIGESTS))
def test_samplers_emit_their_pinned_events(mode):
    digest = hashlib.sha256()
    for seq in pinned_runs(mode):
        assert len(seq) > 20
        digest.update(seq.times.tobytes() + seq.marks.tobytes())
    assert digest.hexdigest() == PINNED_DIGESTS[mode]


@pytest.mark.parametrize("mode", list(PINNED_COUNTS))
def test_samplers_count_their_pinned_passes_and_rows(mode):
    counts = [(stats.target_forward_passes, stats.target_rows_encoded,
               stats.draft_forward_passes, stats.draft_rows_encoded)
              for _, stats in pinned_samples(mode)]
    assert counts == PINNED_COUNTS[mode]
