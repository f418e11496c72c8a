import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import wasserstein_distance

from spectpp import evaluation as E
from spectpp import model as M
from spectpp import sampler as S
from spectpp.classical import HawkesParams, SinePoissonParams, thinning_sample
from spectpp.core import EventSequence, RngStream
from spectpp.model import init_checkpoint, ModelConfig

from sequences import sequence_from_arrays

POISSON = SinePoissonParams(A=5.0, b=1.0, omega=1.0 / 50.0)
HOMOGENEOUS_3 = HawkesParams(mu=np.array([3.0]), alpha=np.array([[0.0]]), beta=np.array([[1.0]]))


# -- time rescaling -------------------------------------------------------------

def test_rescale_homogeneous_scales_intervals():
    seq = sequence_from_arrays([0.5, 0.8, 2.0], [0, 0, 0], 10.0)
    z = E.time_rescale(seq, HOMOGENEOUS_3)
    assert np.allclose(z, 3.0 * np.array([0.5, 0.3, 1.2]), rtol=1e-12)


def test_rescale_empty_sequence():
    assert E.time_rescale(EventSequence((), 10.0), POISSON).size == 0


def test_rescale_poisson_matches_quadrature():
    times = [10.0, 25.0, 50.0, 75.0]
    seq = sequence_from_arrays(times, [0] * 4, 100.0)
    z = E.time_rescale(seq, POISSON)
    prev = 0.0
    for i, t in enumerate(times):
        want, _ = quad(lambda s: float(POISSON.rate(s)), prev, t, limit=200,
                       epsabs=1e-12, epsrel=1e-12)
        assert z[i] == pytest.approx(want, abs=1e-8)
        prev = t


def test_rescaled_thinning_output_is_unit_exponential():
    rng = RngStream(123)
    pooled = []
    for i in range(500):
        seq = thinning_sample(POISSON, 100.0, rng.child(f"s{i}"))
        pooled.extend(E.time_rescale(seq, POISSON).tolist())
    report = E.ks_statistic(pooled)
    assert report.passed


# -- KS statistic -----------------------------------------------------------------

def test_ks_exact_quantiles():
    n = 100
    z = -np.log(1.0 - (np.arange(1, n + 1) - 0.5) / n)
    report = E.ks_statistic(z)
    assert report.d_ks == pytest.approx(0.005, abs=1e-12)
    assert report.band == pytest.approx(0.136)


def test_ks_single_point():
    report = E.ks_statistic([math.log(2.0)])
    assert report.d_ks == pytest.approx(0.5)
    assert report.n == 1


def test_ks_genuine_exponential_passes_at_three_seeds():
    for seed in (1, 2, 3):
        z = RngStream(seed).generator.standard_exponential(10_000)
        report = E.ks_statistic(z)
        assert report.d_ks < 1.36 / 100.0


def test_ks_matches_brute_force_grid():
    z = RngStream(4).generator.standard_exponential(500)
    report = E.ks_statistic(z)
    grid = np.linspace(0.0, float(np.max(z)) * 1.5, 100_000)
    emp = np.searchsorted(np.sort(z), grid, side="right") / z.size
    brute = float(np.max(np.abs(emp - (1.0 - np.exp(-grid)))))
    assert report.d_ks == pytest.approx(brute, abs=1e-3)


def test_ks_plot_data_is_sorted_and_matches_staircase():
    z = RngStream(5).generator.standard_exponential(50)
    report = E.ks_statistic(z)
    firsts = [p[0] for p in report.plot_data]
    assert firsts == sorted(firsts)
    assert report.plot_data[-1][1] == pytest.approx(1.0)


# -- Wasserstein ------------------------------------------------------------------

def test_wasserstein_identical_is_zero():
    xs = [0.3, 1.2, 5.0]
    assert E.wasserstein_1d(xs, xs) == 0.0


def test_wasserstein_shifted_pairs():
    assert E.wasserstein_1d([0.0, 1.0], [1.0, 2.0]) == pytest.approx(1.0)


def test_wasserstein_unequal_sizes():
    assert E.wasserstein_1d([0.0], [0.0, 2.0]) == pytest.approx(1.0)


def test_wasserstein_empty_rejected():
    with pytest.raises(ValueError):
        E.wasserstein_1d([], [1.0])


@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=30),
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=30),
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=30),
)
@settings(max_examples=150, deadline=None)
def test_wasserstein_metric_properties(xs, ys, zs):
    d_xy = E.wasserstein_1d(xs, ys)
    assert d_xy >= 0.0
    assert d_xy == pytest.approx(E.wasserstein_1d(ys, xs), abs=1e-12)
    d_xz = E.wasserstein_1d(xs, zs)
    d_zy = E.wasserstein_1d(zs, ys)
    assert d_xy <= d_xz + d_zy + 1e-12


@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=25),
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=25),
)
@settings(max_examples=150, deadline=None)
def test_wasserstein_matches_scipy(xs, ys):
    assert E.wasserstein_1d(xs, ys) == pytest.approx(wasserstein_distance(xs, ys), abs=1e-9)


def test_wasserstein_zero_iff_equal_empirical():
    assert E.wasserstein_1d([1.0, 2.0], [2.0, 1.0]) == 0.0
    assert E.wasserstein_1d([1.0, 2.0], [1.0, 2.5]) > 0.0


# -- categorical EMD -----------------------------------------------------------------

def test_emd_identical():
    assert E.categorical_emd([0.5, 0.5], [0.5, 0.5]) == 0.0


def test_emd_disjoint():
    assert E.categorical_emd([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)


def test_emd_half_move():
    assert E.categorical_emd([0.5, 0.5, 0.0], [0.5, 0.0, 0.5]) == pytest.approx(0.5)


def test_emd_accepts_counts_and_distributions():
    counts_p, counts_q = np.array([30, 10]), np.array([20, 20])
    assert E.categorical_emd(counts_p, counts_q) == pytest.approx(
        E.categorical_emd([0.75, 0.25], [0.5, 0.5]))


def test_emd_dimension_mismatch():
    with pytest.raises(ValueError):
        E.categorical_emd([1.0], [0.5, 0.5])


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_emd_equals_half_l1(k, seed):
    gen = np.random.default_rng(seed)
    p, q = gen.dirichlet(np.ones(k)), gen.dirichlet(np.ones(k))
    assert E.categorical_emd(p, q) == pytest.approx(0.5 * float(np.sum(np.abs(p - q))), abs=1e-12)


# -- mean log-likelihood per event ----------------------------------------------------

def test_mean_loglik_per_event_scores_each_sequence_once():
    seqs = [sequence_from_arrays([1.0, 2.0], [0, 0], 5.0)] * 3
    scored = []
    assert E.mean_loglik_per_event(seqs, lambda s: scored.append(s) or -3.0) == -1.5
    assert scored == seqs


def test_mean_loglik_per_event_divides_the_total_by_the_event_count():
    seqs = [sequence_from_arrays([1.0], [0], 5.0), sequence_from_arrays([1.0, 2.0], [0, 0], 5.0)]
    assert E.mean_loglik_per_event(seqs, lambda s: -1.5) == pytest.approx(-1.0)


def test_mean_loglik_per_event_normalizes_per_event():
    seqs_a = [sequence_from_arrays([1.0, 2.0], [0, 0], 5.0)] * 3
    seqs_b = [sequence_from_arrays([1.0], [0], 5.0)]
    # scorer returns -1 per event, so both sets have the same per-event mean
    per_event = lambda s: -float(len(s))
    assert E.mean_loglik_per_event(seqs_a, per_event) == pytest.approx(
        E.mean_loglik_per_event(seqs_b, per_event))


def test_mean_loglik_per_event_rejects_eventless_sets():
    with pytest.raises(ValueError):
        E.mean_loglik_per_event([EventSequence((), 5.0)], lambda s: -1.0)


# -- next-event divergence ----------------------------------------------------------------

def test_next_event_divergence_baseline_and_identical_draft():
    config = ModelConfig(embed_dim=8, n_components=4, n_marks=2)
    ckpt = init_checkpoint(config, RngStream(1))
    history_seq, _ = __import__("spectpp.sampler", fromlist=["ar_sample"]).ar_sample(
        ckpt, 30.0, RngStream(2))
    assert len(history_seq) >= 10
    baseline = E.next_event_divergence(ckpt, None, history_seq, 10, 100, 4, RngStream(3))
    same_model = E.next_event_divergence(ckpt, ckpt, history_seq, 10, 100, 4, RngStream(3))
    # identical draft model should sit at the self-comparison baseline level
    assert same_model[0] < max(4.0 * baseline[0], 0.5)
    assert same_model[1] <= baseline[1] + 0.15


def test_next_event_divergence_requires_enough_history():
    config = ModelConfig(embed_dim=8, n_components=4, n_marks=2)
    ckpt = init_checkpoint(config, RngStream(1))
    with pytest.raises(ValueError):
        E.next_event_divergence(ckpt, None, EventSequence((), 5.0), 10, 10, 2, RngStream(0))


@pytest.mark.parametrize("m_hist, n_reps, message", [(-2, 10, "m_hist"), (4, 0, "n_reps")])
def test_next_event_divergence_refuses_a_bad_count(m_hist, n_reps, message):
    """A negative m_hist would condition on all but the history's last
    events, and no repetitions would fail inside the distance; both are
    refused by name, as by the command line."""
    ckpt = init_checkpoint(ModelConfig(embed_dim=8, n_components=4, n_marks=2), RngStream(1))
    history = sequence_from_arrays(0.5 * np.arange(1, 7), np.arange(6) % 2, 5.0)
    with pytest.raises(ValueError, match=message):
        E.next_event_divergence(ckpt, None, history, m_hist, n_reps, 2, RngStream(0))


def test_next_event_divergence_encodes_the_prefix_once(monkeypatch):
    """Each model keeps one cache across the draws, so the target encodes the
    prefix once and then the drafted events of each draw; the draws equal
    those made with a fresh cache per call."""
    config = ModelConfig(embed_dim=8, n_components=4, n_marks=2, n_layers=2)
    target, draft = init_checkpoint(config, RngStream(31)), init_checkpoint(config, RngStream(32))
    m_hist, n_reps, gamma = 30, 20, 4
    history = sequence_from_arrays(0.5 * np.arange(1, m_hist + 1), np.arange(m_hist) % 2, 20.0)
    rows = {}

    def counted(forward):
        def wrapper(events, checkpoint, **kwargs):
            cache = kwargs.get("cache")
            held = 0 if cache is None else cache.rows_encoded
            out = forward(events, checkpoint, **kwargs)
            encoded = len(events) if cache is None else cache.rows_encoded - held
            rows[id(checkpoint)] = rows.get(id(checkpoint), 0) + encoded
            return out
        return wrapper

    monkeypatch.setattr(S, "next_event_distributions", counted(S.next_event_distributions))
    monkeypatch.setattr(S, "position_distributions", counted(S.position_distributions))

    def draws(fresh):
        out = []

        def recorded(*args, **caches):
            if fresh:
                caches = {name: M.EncoderCache(cache.checkpoint)
                          for name, cache in caches.items() if cache is not None}
            out.append(S.next_event(*args, **caches))
            return out[-1]

        monkeypatch.setattr(E, "next_event", recorded)
        rows.clear()
        E.next_event_divergence(target, draft, history, m_hist, n_reps, gamma, RngStream(34))
        return out

    want = draws(fresh=True)
    got = draws(fresh=False)
    assert rows[id(target)] <= m_hist + n_reps * gamma
    assert rows[id(draft)] <= m_hist + n_reps * gamma
    assert len(got) == 2 * n_reps
    assert [e.mark for e in got] == [e.mark for e in want]
    assert np.allclose([e.time for e in got], [e.time for e in want], rtol=0.0, atol=1e-12)


@pytest.mark.slow
def test_next_event_divergence_hundred_by_hundred_protocol():
    config = ModelConfig(embed_dim=8, n_components=4, n_marks=2)
    target = init_checkpoint(config, RngStream(31))
    draft = init_checkpoint(config, RngStream(32))
    from spectpp.sampler import ar_sample
    history, _ = ar_sample(target, 400.0, RngStream(33))
    assert len(history) >= 100
    d_t, d_k = E.next_event_divergence(target, draft, history, 100, 100, 10, RngStream(34))
    assert d_t >= 0.0 and 0.0 <= d_k <= 1.0
