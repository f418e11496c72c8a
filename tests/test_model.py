import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from spectpp import model as M
from spectpp import training as T
from spectpp import autodiff as ad
from spectpp.core import Event, EventSequence, RngStream

from gradcheck import grad_check, row_sums
from sequences import sequence_from_arrays


def mixture_cdf(tau, params):
    """P(interval <= tau) under one log-normal mixture; zero at tau = 0."""
    if tau == 0.0:
        return 0.0
    return float(np.sum(params.weights * ndtr((math.log(tau) - params.means) / params.scales)))


def mixture_survival(tau, params):
    """P(interval > tau), as a mixture of upper normal tails."""
    return float(np.sum(params.weights * ndtr((params.means - math.log(tau)) / params.scales)))


def tiny_config(**overrides):
    base = dict(embed_dim=8, n_components=4, n_marks=2, n_heads=1, n_layers=1)
    base.update(overrides)
    return M.ModelConfig(**base)


def zeroed(checkpoint):
    out = checkpoint.copy()
    for name in out.params:
        out.params[name] = np.zeros_like(out.params[name])
    return out


def random_checkpoint(config, seed, scale=None):
    ckpt = M.init_checkpoint(config, RngStream(seed))
    if scale is not None:
        for name in ckpt.params:
            ckpt.params[name] = ckpt.params[name] * scale
    return ckpt


def fused_weights(ckpt):
    return M._fused_weights(ckpt.params, ckpt.config)


def temporal_encoding(t, ckpt):
    times = np.array([float(t)])
    return M._temporal_encoding_tensor(times, fused_weights(ckpt), ckpt.config)[0]


def embed_events(seq, ckpt):
    x, _ = M._embed_tensor(seq.times, seq.marks, fused_weights(ckpt), ckpt.config)
    return x


def encode_history(seq, ckpt):
    return M._encode_tensor(seq.times, seq.marks, fused_weights(ckpt), ckpt.config)


def decode(h, ckpt):
    """The (mixture, mark probabilities) pair of one history embedding, from
    the sampling heads, written at position 0 of a fresh cache."""
    return M._head_rows(np.asarray(h, dtype=float), M.EncoderCache(ckpt), 0)


def as_distributions(log_w, mu, sigma, mark_logits):
    """The likelihood's head tensors as distributions: the weights as the
    exp of the log-weights, and the mark logits' softmax."""
    e = np.exp(mark_logits - np.max(mark_logits, axis=-1, keepdims=True))
    return M.MixtureParams(np.exp(log_w), mu, sigma), e / np.sum(e, axis=-1, keepdims=True)


# -- temporal encoding ---------------------------------------------------------

def test_thp_encoding_at_zero():
    ckpt = M.init_checkpoint(tiny_config(), RngStream(0))
    z = temporal_encoding(0.0, ckpt)
    assert np.array_equal(z[0::2], np.zeros(4))
    assert np.array_equal(z[1::2], np.ones(4))


def test_thp_encoding_d2_t1():
    ckpt = M.init_checkpoint(tiny_config(embed_dim=2, n_heads=1), RngStream(0))
    z = temporal_encoding(1.0, ckpt)
    assert z == pytest.approx([math.sin(1.0), math.cos(1.0)], rel=1e-12)


def test_thp_encoding_equals_the_mask_products_bit_for_bit():
    """thp's encoding, a sine whose odd dimensions are overwritten by a
    cosine, has the bits of sin * even + cos * odd with 0/1 float masks,
    for one row and for a block of rows, at perfbench's width."""
    config = tiny_config(embed_dim=48, n_heads=1)
    even = (np.arange(48) % 2 == 0).astype(float)
    per_dim = np.power(10000.0, (np.arange(48) - np.arange(48) % 2) / 48)
    weights = fused_weights(M.init_checkpoint(config, RngStream(0)))
    rng = np.random.default_rng(41)
    times = np.concatenate([[0.0, 1e-9, 1.0], np.exp(rng.uniform(-7.0, 9.0, 2000))])
    for rows in (times[:1], times[1:2], times[3:4], times):
        arg = rows.reshape(-1, 1) / per_dim
        want = np.sin(arg) * even + np.cos(arg) * (1.0 - even)
        got = M._temporal_encoding_tensor(rows, weights, config)
        assert got.tobytes() == want.tobytes()


def test_attnhp_encoding_all_sine_zero_at_zero():
    ckpt = M.init_checkpoint(tiny_config(encoding="attnhp"), RngStream(0))
    assert np.array_equal(temporal_encoding(0.0, ckpt), np.zeros(8))


def test_sahp_encoding_uses_learnable_frequencies():
    ckpt = M.init_checkpoint(tiny_config(encoding="sahp"), RngStream(0))
    base = temporal_encoding(1.5, ckpt)
    ckpt.params["time_freq"] = ckpt.params["time_freq"] * 2.0
    assert not np.allclose(base, temporal_encoding(1.5, ckpt))
    # direct evaluation of the sinusoid with shifted phase
    d = 8
    j = np.arange(d)
    expo = (j - (j % 2)) / d
    arg = j / np.power(10000.0, expo) + 2.0 * 1.5
    want = np.where(j % 2 == 0, np.sin(arg), np.cos(arg))
    assert temporal_encoding(1.5, ckpt) == pytest.approx(want, rel=1e-12)


# -- embedding and encoder ------------------------------------------------------

def test_embed_events_zero_embedding_matrix():
    ckpt = M.init_checkpoint(tiny_config(), RngStream(1))
    ckpt.params["mark_embedding"] = np.zeros_like(ckpt.params["mark_embedding"])
    seq = sequence_from_arrays([0.3, 1.7], [0, 1], 10.0)
    x = embed_events(seq, ckpt)
    want = np.stack([temporal_encoding(0.3, ckpt), temporal_encoding(1.7, ckpt)])
    assert np.array_equal(x, want)


def test_embed_events_adds_mark_row():
    ckpt = M.init_checkpoint(tiny_config(n_marks=1), RngStream(2))
    seq = sequence_from_arrays([0.5], [0], 10.0)
    x = embed_events(seq, ckpt)
    want = ckpt.params["mark_embedding"][0] + temporal_encoding(0.5, ckpt)
    assert np.allclose(x[0], want, atol=1e-15)


def test_embed_events_shape():
    ckpt = M.init_checkpoint(tiny_config(), RngStream(3))
    seq = sequence_from_arrays(np.arange(1.0, 8.0), np.zeros(7, dtype=int), 10.0)
    assert embed_events(seq, ckpt).shape == (7, 8)


def test_embed_rejects_out_of_range_mark():
    ckpt = M.init_checkpoint(tiny_config(n_marks=2), RngStream(3))
    with pytest.raises(ValueError):
        embed_events(sequence_from_arrays([1.0], [2], 10.0), ckpt)


def test_zero_value_projections_make_encoder_identity():
    for layers in (1, 3):
        ckpt = M.init_checkpoint(tiny_config(n_layers=layers, n_heads=2), RngStream(4))
        for layer in range(layers):
            ckpt.params[f"layers.{layer}.v"] = np.zeros_like(ckpt.params[f"layers.{layer}.v"])
        seq = sequence_from_arrays([0.4, 1.0, 2.2], [0, 1, 0], 10.0)
        assert np.array_equal(encode_history(seq, ckpt), embed_events(seq, ckpt))


def test_single_event_standard_attention_adds_value_vector():
    # with one event the attention weight on itself is 1, so h = x + v
    ckpt = M.init_checkpoint(tiny_config(), RngStream(5))
    seq = sequence_from_arrays([0.7], [1], 10.0)
    x = embed_events(seq, ckpt)
    v = x @ ckpt.params["layers.0.v"]
    assert np.allclose(encode_history(seq, ckpt), x + v, atol=1e-12)


@pytest.mark.parametrize("encoding", ["thp", "sahp", "attnhp"])
def test_causality_is_bit_exact(encoding):
    config = tiny_config(encoding=encoding, n_layers=2, n_heads=2)
    ckpt = M.init_checkpoint(config, RngStream(6))
    times = np.array([0.5, 1.0, 2.0, 3.5, 4.0])
    marks = np.array([0, 1, 0, 0, 1])
    base = encode_history(sequence_from_arrays(times, marks, 10.0), ckpt)
    bumped_times = times.copy()
    bumped_times[3] += 0.25
    bumped_marks = marks.copy()
    bumped_marks[3] = 1
    bumped = encode_history(sequence_from_arrays(bumped_times, bumped_marks, 10.0), ckpt)
    assert np.array_equal(base[:3], bumped[:3])
    assert not np.allclose(base[3:], bumped[3:])


# -- heads -----------------------------------------------------------------------

def test_mixture_head_all_zero_weights():
    ckpt = zeroed(M.init_checkpoint(tiny_config(), RngStream(7)))
    params, _ = decode(np.ones(8), ckpt)
    assert params.weights == pytest.approx(np.full(4, 0.25))
    assert np.array_equal(params.means, np.zeros(4))
    assert np.array_equal(params.scales, np.ones(4))


def test_mixture_head_scale_bias():
    ckpt = zeroed(M.init_checkpoint(tiny_config(), RngStream(7)))
    ckpt.params["mix_scale_bias"] = np.full(4, math.log(2.0))
    params, _ = decode(np.zeros(8), ckpt)
    assert params.scales == pytest.approx(np.full(4, 2.0), rel=1e-12)


def test_mixture_and_mark_head_invariants_on_random_checkpoints():
    config = tiny_config(n_marks=3)
    for i in range(1000):
        ckpt = random_checkpoint(config, seed=i, scale=3.0 if i % 3 else None)
        h = RngStream(10_000 + i).normal(8) * 2.0
        mix, probabilities = decode(h, ckpt)
        assert abs(float(np.sum(mix.weights)) - 1.0) < 1e-9
        assert np.all(mix.weights >= 0.0)
        assert np.all(mix.scales > 0.0)
        assert abs(float(np.sum(probabilities)) - 1.0) < 1e-9
        assert np.all(probabilities >= 0.0)


def test_mark_head_zero_weights_uniform():
    ckpt = zeroed(M.init_checkpoint(tiny_config(n_marks=5), RngStream(8)))
    _, probabilities = decode(np.ones(8), ckpt)
    assert probabilities == pytest.approx(np.full(5, 0.2))


def test_mark_head_large_bias_concentrates():
    ckpt = zeroed(M.init_checkpoint(tiny_config(n_marks=20), RngStream(8)))
    bias = np.zeros(20)
    bias[0] = 10.0
    ckpt.params["mark_out_bias"] = bias
    _, probabilities = decode(np.zeros(8), ckpt)
    assert probabilities[0] > 0.999


def reference_head_products(ctx, fused, config):
    """_head_products as the chain of ops it was before the heads were
    fused: decoder_proj first, then a product and a bias per head, in that
    arithmetic order, on the named parameters that use_reference_heads
    puts in place of the fused heads; the pre-activations are joined in the
    fused product's order."""
    params, d = fused.heads, config.embed_dim
    t = ad.transpose
    e = ad.matmul(ctx, t(params["decoder_proj"]))
    e1, e2, e3 = e[..., :d], e[..., d:2 * d], e[..., 2 * d:]
    w_logits = ad.add(ad.matmul(e1, t(params["mix_weight_proj"])), params["mix_weight_bias"])
    mu = ad.add(ad.matmul(e2, t(params["mix_mean_proj"])), params["mix_mean_bias"])
    log_sigma = ad.add(ad.matmul(e3, t(params["mix_scale_proj"])), params["mix_scale_bias"])
    hidden = ad.add(ad.matmul(ctx, t(params["mark_hidden_proj"])), params["mark_hidden_bias"])
    mark_logits = ad.add(ad.matmul(ad.tanh(hidden), t(params["mark_out_proj"])),
                         params["mark_out_bias"])
    return ad.concat([w_logits, mu, log_sigma, hidden], axis=-1), mark_logits


def use_reference_heads(patched):
    """Run every forward through reference_head_products on the named
    parameters instead of the fused heads."""
    def named_heads(params, config, _fuse=M._fused_weights):
        return dataclasses.replace(_fuse(params, config), heads=params)

    for module in (M, T):
        patched.setattr(module, "_fused_weights", named_heads)
    patched.setattr(M, "_head_products", reference_head_products)


def with_random_biases(ckpt, seed):
    """The checkpoint with every bias drawn at random, so that folding the
    biases is tested too (init_checkpoint sets them to zero)."""
    out = ckpt.copy()
    rng = np.random.default_rng(seed)
    for name in out.params:
        if name.endswith("_bias"):
            out.params[name] = rng.normal(0.0, 0.5, out.params[name].shape)
    return out


def head_arrays(pairs):
    return [a for mix, probabilities in pairs
            for a in (mix.weights, mix.means, mix.scales, probabilities)]


@pytest.mark.parametrize("n_heads", [1, 2])
@pytest.mark.parametrize("encoding", ["thp", "sahp", "attnhp"])
def test_fused_heads_rows_match_the_reference_heads(encoding, n_heads, monkeypatch):
    """The fused heads give the reference heads' rows within 1e-12 in
    one-row cached passes, batched forwards with and without a cache, and
    the no-past forward that training runs."""
    ckpt = with_random_biases(random_checkpoint(
        tiny_config(encoding=encoding, n_layers=2, n_heads=n_heads, n_marks=3), seed=36,
        scale=2.0), seed=37)
    rng = np.random.default_rng(38)
    seq = sequence_from_arrays(np.cumsum(rng.exponential(0.6, 12)), rng.integers(0, 3, 12),
                               math.inf)

    def forwards():
        cache = M.EncoderCache(ckpt)
        pairs = [M.next_event_distributions(EventSequence(seq.events[:n], math.inf), ckpt,
                                            cache=cache) for n in range(len(seq) + 1)]
        pairs.append(M.position_distributions(EventSequence(seq.events[:7], math.inf), ckpt,
                                              cache=cache))
        pairs.append(M.position_distributions(seq, ckpt))
        pairs.append(training_forward(seq, ckpt))
        return head_arrays(pairs)

    fused = forwards()
    with monkeypatch.context() as patched:
        use_reference_heads(patched)
        reference = forwards()
    assert len(fused) == len(reference) == 4 * (len(seq) + 4)
    for a, b in zip(fused, reference):
        assert a.shape == b.shape
        assert np.allclose(a, b, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n_heads", [1, 2])
@pytest.mark.parametrize("encoding", ["thp", "sahp", "attnhp"])
def test_fused_heads_training_matches_the_reference_heads(encoding, n_heads, monkeypatch):
    """Training through the fused heads, which it builds on the tape from
    the named parameters: the loss agrees with the reference heads' to
    1e-12 relative and every gradient to 1e-12."""
    ckpt = with_random_biases(random_checkpoint(
        tiny_config(encoding=encoding, n_layers=2, n_heads=n_heads, n_marks=3), seed=39),
        seed=40)
    batch = [sequence_from_arrays([0.3, 0.7, 1.6, 2.0, 2.9, 3.1, 4.4], [0, 2, 1, 1, 0, 2, 2],
                                  5.0),
             sequence_from_arrays([0.5, 1.5], [1, 0], 2.5)]
    loss, grads = T.nll_batch(ckpt, batch)
    with monkeypatch.context() as patched:
        use_reference_heads(patched)
        reference_loss, reference_grads = T.nll_batch(ckpt, batch)
    assert loss == pytest.approx(reference_loss, rel=1e-12, abs=0.0)
    assert set(grads) == set(reference_grads) == set(ckpt.params)
    for name, grad in grads.items():
        assert np.allclose(grad, reference_grads[name], rtol=0.0, atol=1e-12), name


def test_weights_are_fused_once_per_batch_cache_and_loglik(monkeypatch):
    """One build of the fused weights per nll_batch call, whatever the
    batch size, per EncoderCache and per sequence_loglik call; a forward
    through a cache builds none."""
    calls = []

    def counted(params, config, _fuse=M._fused_weights):
        calls.append(type(params["decoder_proj"]))
        return _fuse(params, config)

    for module in (M, T):
        monkeypatch.setattr(module, "_fused_weights", counted)
    ckpt = random_checkpoint(tiny_config(n_layers=2, n_marks=3), seed=42)
    batch = [sequence_from_arrays([0.3, 0.7, 1.6], [0, 2, 1], 2.0),
             sequence_from_arrays([0.5, 1.5], [1, 0], 2.5), EventSequence((), 1.0),
             sequence_from_arrays([0.2], [2], 3.0)]
    T.nll_batch(ckpt, batch)
    assert calls == [ad.Tensor]
    T.nll_batch(ckpt, batch[:3])
    assert calls == [ad.Tensor] * 2

    calls.clear()
    cache = M.EncoderCache(ckpt)
    assert calls == [np.ndarray]
    seq = batch[0]
    for n in range(len(seq) + 1):
        M.next_event_distributions(EventSequence(seq.events[:n], seq.t_end), ckpt, cache=cache)
    M.position_distributions(EventSequence(seq.events[:1], seq.t_end), ckpt, cache=cache)
    assert calls == [np.ndarray]
    M.position_distributions(seq, ckpt)
    M.sequence_loglik(seq, ckpt)
    assert calls == [np.ndarray] * 3


# -- mixture density / cdf / sampling ---------------------------------------------

def test_logpdf_standard_lognormal_at_one():
    params = M.MixtureParams(np.array([1.0]), np.array([0.0]), np.array([1.0]))
    assert M.mixture_logpdf(1.0, params) == pytest.approx(-0.5 * math.log(2 * math.pi))


def test_logpdf_degenerate_mixture_equals_single_component():
    single = M.MixtureParams(np.array([1.0]), np.array([0.3]), np.array([0.7]))
    double = M.MixtureParams(np.array([0.5, 0.5]), np.array([0.3, 0.3]), np.array([0.7, 0.7]))
    for tau in (0.2, 1.0, 4.2):
        assert M.mixture_logpdf(tau, double) == pytest.approx(M.mixture_logpdf(tau, single), rel=1e-12)


def test_logpdf_rejects_nonpositive_tau():
    params = M.MixtureParams(np.array([1.0]), np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        M.mixture_logpdf(0.0, params)


def test_logpdf_broadcasts_like_scalar_calls():
    rng = np.random.default_rng(2)
    one = M.MixtureParams(rng.dirichlet(np.ones(3)), rng.normal(size=3),
                          rng.uniform(0.3, 1.5, size=3))
    taus = np.exp(rng.normal(size=50))
    many = M.mixture_logpdf(taus, one)
    assert many.shape == (50,)
    assert np.allclose(many, [M.mixture_logpdf(t, one) for t in taus], rtol=0.0, atol=1e-12)

    # one tau per stacked row; row 1 has a zero-weight component, and in row
    # 2 the only weighted component underflows, so the density is -inf
    weights = np.array([[0.2, 0.3, 0.5], [0.0, 0.4, 0.6], [0.0, 0.0, 1.0]])
    means = rng.normal(size=(3, 3))
    scales = np.array([[0.5, 1.0, 1.5], [0.7, 0.7, 0.7], [1.0, 1.0, 1e-200]])
    stacked = M.MixtureParams(weights, means, scales)
    row_taus = np.array([0.4, 1.3, math.exp(means[2, 2]) * 2.0])
    got = M.mixture_logpdf(row_taus, stacked)
    want = [M.mixture_logpdf(t, M.MixtureParams(w, m, s))
            for t, w, m, s in zip(row_taus, weights, means, scales)]
    assert got.shape == (3,)
    assert np.allclose(got[:2], want[:2], rtol=0.0, atol=1e-12)
    assert got[2] == want[2] == -math.inf


def test_one_mixture_density_serves_training_and_sampling(monkeypatch):
    """The shared density gives the same bits on the tape and off it, and
    the interval term training differentiates equals mixture_logpdf, which
    sampling calls, on the sampling heads' rows within 1e-12: their weights
    come from one softmax, not from the exp of the log-weights, so their
    last bits differ."""
    config = tiny_config(n_marks=2)
    ckpt = random_checkpoint(config, seed=31)
    seq = sequence_from_arrays([0.4, 1.1, 1.9, 2.6, 3.0], [0, 1, 1, 0, 1], 4.0)
    n, taus = len(seq), seq.inter_event_times()
    density, terms = M._mixture_log_density, []

    def recorded(*args):
        terms.append(density(*args))
        return terms[-1]

    monkeypatch.setattr(M, "_mixture_log_density", recorded)
    tensors = {name: ad.Tensor(value) for name, value in ckpt.params.items()}
    M._loglik_tensor(seq, M._fused_weights(tensors, config), config)
    (taped,) = terms
    assert isinstance(taped, ad.Tensor) and taped.data.shape == (n,)

    ctx = M._context_tensor(seq.times, seq.marks, fused_weights(ckpt), config)
    log_w, mu, sigma, _ = M._head_tensors(ctx, fused_weights(ckpt), config)
    plain = density(np.log(taus).reshape(-1, 1), log_w[:n], mu[:n], sigma[:n], ad.plain)
    assert not isinstance(plain, ad.Tensor) and np.array_equal(plain, taped.data)
    mixtures, _ = M.position_distributions(seq, ckpt)
    assert np.allclose(M.mixture_logpdf(taus, mixtures.row(slice(0, n))), taped.data,
                       rtol=0.0, atol=1e-12)


def test_density_integrates_to_one():
    rng = np.random.default_rng(0)
    for _ in range(5):
        m = int(rng.integers(1, 4))
        w = rng.dirichlet(np.ones(m))
        params = M.MixtureParams(w, rng.normal(size=m), rng.uniform(0.3, 1.5, size=m))
        total, _ = quad(lambda t: math.exp(M.mixture_logpdf(t, params)), 0.0, np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_cdf_median_and_boundaries():
    params = M.MixtureParams(np.array([1.0]), np.array([0.0]), np.array([2.5]))
    assert mixture_cdf(1.0, params) == pytest.approx(0.5)
    assert mixture_cdf(0.0, params) == 0.0
    assert mixture_cdf(1e12, params) == pytest.approx(1.0, abs=1e-9)
    values = [mixture_cdf(t, params) for t in (0.1, 0.5, 1.0, 3.0, 10.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_cdf_derivative_matches_density():
    rng = np.random.default_rng(1)
    w = rng.dirichlet(np.ones(3))
    params = M.MixtureParams(w, rng.normal(size=3), rng.uniform(0.4, 1.2, size=3))
    for tau in (0.5, 1.0, 2.5):
        h = 1e-6 * tau
        fd = (mixture_cdf(tau + h, params) - mixture_cdf(tau - h, params)) / (2 * h)
        assert fd == pytest.approx(math.exp(M.mixture_logpdf(tau, params)), rel=1e-5)


def test_survival_complements_cdf():
    params = M.MixtureParams(np.array([0.4, 0.6]), np.array([0.0, 1.0]), np.array([0.5, 0.8]))
    for tau in (0.3, 1.7):
        assert mixture_survival(tau, params) == pytest.approx(1.0 - mixture_cdf(tau, params), rel=1e-12)


def test_sample_interval_degenerate_scale():
    params = M.MixtureParams(np.array([1.0]), np.array([math.log(2.0)]), np.array([1e-12]))
    tau = M.sample_interval(params, RngStream(3))
    assert tau == pytest.approx(2.0, abs=1e-9)


class NanNormals:
    """Stub stream whose normal draws are NaN."""

    def categorical(self, probabilities):
        return 0

    def normal(self, size=None):
        return math.nan


def test_sample_interval_rejects_non_finite_draws():
    params = M.MixtureParams(np.array([1.0]), np.array([0.0]), np.array([1.0]))
    with pytest.raises(FloatingPointError):
        M.sample_interval(params, NanNormals())
    huge = M.MixtureParams(np.array([1.0]), np.array([1000.0]), np.array([1.0]))
    with pytest.raises(FloatingPointError):
        M.sample_interval(huge, RngStream(3))


def test_sample_interval_monte_carlo_moments():
    params = M.MixtureParams(np.array([1.0]), np.array([0.0]), np.array([1.0]))
    stream = RngStream(4)
    draws = np.array([M.sample_interval(params, stream) for _ in range(10**5)])
    assert abs(float(np.median(draws)) - 1.0) < 0.02
    # mean of LogNormal(0,1) is e^{1/2}; 3 sigma of the MC mean is ~0.021
    assert abs(float(np.mean(draws)) - math.exp(0.5)) < 0.021


def test_sample_interval_reports_full_mixture_density():
    """sample_interval returns tau alone, drawn as a component and then one
    normal in that order; its log-density, which callers take from
    mixture_logpdf, is the full mixture's and not the drawn component's."""
    params = M.MixtureParams(np.array([0.5, 0.5]), np.array([0.0, 3.0]), np.array([0.2, 0.2]))
    stream, replica = RngStream(5), RngStream(5)
    for _ in range(10):
        tau = M.sample_interval(params, stream)
        component = replica.categorical(params.weights)
        assert isinstance(tau, float)
        assert tau == math.exp(params.means[component]
                               + params.scales[component] * float(replica.normal()))
        densities = params.weights * np.exp(-0.5 * ((math.log(tau) - params.means)
                                                    / params.scales) ** 2) \
            / (tau * params.scales * math.sqrt(2.0 * math.pi))
        assert M.mixture_logpdf(tau, params) == pytest.approx(math.log(densities.sum()),
                                                              rel=1e-12)


# -- sequence likelihood -----------------------------------------------------------

def test_empty_sequence_loglik_is_survival_term():
    ckpt = M.init_checkpoint(tiny_config(), RngStream(9))
    mix, _ = M.position_distributions(EventSequence((), 7.0), ckpt)
    assert mix.weights.shape == (1, 4)
    want = math.log(mixture_survival(7.0, M.MixtureParams(mix.weights[0], mix.means[0],
                                                             mix.scales[0])))
    assert M.sequence_loglik(EventSequence((), 7.0), ckpt) == pytest.approx(want, rel=1e-12)


def test_forced_decoder_loglik_hand_computed():
    config = tiny_config(n_components=1, n_marks=2)
    ckpt = zeroed(M.init_checkpoint(config, RngStream(10)))
    t1, t2, t_end = 0.8, 2.0, 3.0
    seq = sequence_from_arrays([t1, t2], [0, 1], t_end)

    def log_standard_lognormal(tau):
        return -math.log(tau) - 0.5 * math.log(2 * math.pi) - 0.5 * math.log(tau) ** 2

    from scipy.stats import norm
    want = (log_standard_lognormal(t1) + log_standard_lognormal(t2 - t1)
            + 2.0 * math.log(0.5) + math.log(1.0 - norm.cdf(math.log(t_end - t2))))
    assert M.sequence_loglik(seq, ckpt) == pytest.approx(want, rel=1e-10)


def test_loglik_rejects_nonpositive_interval():
    ckpt = M.init_checkpoint(tiny_config(), RngStream(11))
    seq = EventSequence((), 5.0)
    bad = sequence_from_arrays([1.0, 1.0], [0, 0], 5.0)
    M.sequence_loglik(seq, ckpt)
    with pytest.raises(ValueError):
        M.sequence_loglik(bad, ckpt)


def test_loglik_rejects_an_event_after_the_horizon():
    """A last event after t_end, a NaN time and a NaN t_end are refused, by
    scoring and by training's loss alike; one at t_end is scored with a
    survival term of one. A NaN t_end used to skip the survival term and
    give a finite log-likelihood."""
    ckpt = M.init_checkpoint(tiny_config(), RngStream(11))
    for seq, message in ((sequence_from_arrays([1.0, 3.0], [0, 0], 2.0), "exceeds horizon"),
                         (sequence_from_arrays([1.0, math.nan, 1.5], [0, 0, 0], 2.0),
                          "non-finite time"),
                         (sequence_from_arrays([1.0, 1.5], [0, 0], math.nan),
                          "t_end must be positive and finite")):
        for score in (lambda: M.sequence_loglik(seq, ckpt), lambda: T.nll_batch(ckpt, [seq])):
            with pytest.raises(ValueError, match=message):
                score()
    assert math.isfinite(M.sequence_loglik(sequence_from_arrays([1.0, 2.0], [0, 0], 2.0), ckpt))


def test_loglik_gradient_matches_finite_differences():
    config = tiny_config(n_marks=2)
    ckpt = M.init_checkpoint(config, RngStream(12))
    seq = sequence_from_arrays([0.4, 1.1, 1.9], [0, 1, 1], 4.0)

    def f(tensors):
        return M._loglik_tensor(seq, M._fused_weights(tensors, config), config)

    assert grad_check(f, ckpt.params) < 1e-4


@pytest.mark.parametrize("encoding", ["thp", "sahp", "attnhp"])
def test_batched_forward_matches_prefix_forwards(encoding):
    config = tiny_config(encoding=encoding, n_layers=2, n_heads=2, n_marks=3)
    ckpt = random_checkpoint(config, seed=13)
    seq = sequence_from_arrays([0.2, 0.9, 1.5, 2.8], [0, 2, 1, 0], 10.0)
    mixtures, probabilities = M.position_distributions(seq, ckpt)
    assert mixtures.weights.shape == (len(seq) + 1, 4)
    assert probabilities.shape == (len(seq) + 1, 3)
    for i in range(len(seq) + 1):
        prefix = EventSequence(seq.events[:i], seq.t_end)
        mix_i, mark_i = M.next_event_distributions(prefix, ckpt)
        assert mix_i.weights.shape == (4,)
        assert np.allclose(mixtures.weights[i], mix_i.weights, atol=1e-12)
        assert np.allclose(mixtures.means[i], mix_i.means, atol=1e-12)
        assert np.allclose(mixtures.scales[i], mix_i.scales, atol=1e-12)
        assert np.allclose(probabilities[i], mark_i, atol=1e-12)


def test_position_distributions_constructs_one_stacked_pair(head_row_checks):
    """One stacked pair per forward, checked by one finiteness check of the
    heads' pre-activations and mark logits; cutting rows from it adds no
    check."""
    ckpt = random_checkpoint(tiny_config(n_layers=2), seed=17)
    cache = M.EncoderCache(ckpt)
    held = 0
    for n in (0, 1, 5, 40):
        seq = sequence_from_arrays(0.5 * np.arange(1, n + 1), np.arange(n) % 2, 100.0)
        # with a cache, rows start at the first position it did not hold
        for kwargs, rows in (({}, n + 1), ({"cache": cache}, n + 1 - held)):
            head_row_checks.update(head_rows=0)
            mixtures, probabilities = M.position_distributions(seq, ckpt, **kwargs)
            assert mixtures.weights.shape == (rows, 4)
            assert mixtures.row(slice(0, rows)).weights.shape == (rows, 4)
            assert probabilities[rows - 1].shape == (2,)
            assert head_row_checks == {"head_rows": 1}
        held = n


# each head output, and the first column of the pre-activation block or of
# the mark logits that it is made from
HEAD_OUTPUTS = {"weights": (0, 0), "means": (0, 1), "scales": (0, 2), "mark probabilities": (1, 0)}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("output", list(HEAD_OUTPUTS))
def test_non_finite_head_output_raises(output, bad, monkeypatch):
    """A NaN or an infinity in the pre-activation that any head output is
    made from fails the one head-row check with FloatingPointError, in the
    one-row and the batched forward: a weight logit, a log-mean, a
    log-scale or a mark logit."""
    ckpt = random_checkpoint(tiny_config(n_layers=2), seed=31)
    seq = sequence_from_arrays([0.4, 1.0, 1.7], [1, 0, 1], 10.0)
    which, block = HEAD_OUTPUTS[output]
    column = block * ckpt.config.n_components

    def poisoned(ctx, fused, config, _heads=M._head_products):
        outputs = [np.array(t) for t in _heads(ctx, fused, config)]
        # the last row; a one-row pass's outputs are vectors
        np.atleast_2d(outputs[which])[-1, column] = bad
        return tuple(outputs)

    monkeypatch.setattr(M, "_head_products", poisoned)
    for forward in (M.next_event_distributions, M.position_distributions):
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            forward(seq, ckpt)


@pytest.mark.parametrize("bias", ["mix_scale_bias", "mark_hidden_bias"])
def test_an_infinite_head_bias_raises(bias):
    """A +inf log-scale bias or mark hidden bias fails the head-row check in
    both forwards. The clip turned the first into a scale of SIGMA_MAX, and
    the tanh the second into a finite mark logit, so both passed before the
    check read the pre-activations."""
    ckpt = random_checkpoint(tiny_config(n_layers=2), seed=31)
    ckpt.params[bias] = ckpt.params[bias].copy()
    ckpt.params[bias][0] = math.inf
    seq = sequence_from_arrays([0.4, 1.0, 1.7], [1, 0, 1], 10.0)
    for forward in (M.next_event_distributions, M.position_distributions):
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            forward(seq, ckpt)


def unshifted_attention_reference(seq, ckpt):
    """Final hidden rows from the textbook attention: raw exponentiated
    scores, masked by dropping future keys, and attnhp's +1 denominator."""
    config = ckpt.config
    x = embed_events(seq, ckpt)
    z = M._temporal_encoding_tensor(seq.times, fused_weights(ckpt), config)
    n = len(seq)
    attnhp = config.encoding == "attnhp"
    h = x
    for layer in range(config.n_layers):
        inputs = np.hstack([np.ones((n, 1)), z, h]) if attnhp else h
        outs = []
        for head in range(config.n_heads):
            cols = slice(head * config.head_dim, (head + 1) * config.head_dim)
            q, k, v = (inputs @ ckpt.params[f"layers.{layer}.{name}"][:, cols]
                       for name in "qkv")
            kernel = np.tril(np.exp(q @ k.T / math.sqrt(config.head_dim)))
            totals = kernel.sum(axis=1, keepdims=True)
            outs.append(kernel @ v / (totals + 1.0) if attnhp else kernel / totals @ v)
        agg = np.hstack(outs)
        h = h + (np.tanh(agg) if attnhp else agg)
    return h


@pytest.mark.parametrize("encoding", ["thp", "sahp", "attnhp"])
def test_max_shifted_attention_matches_unshifted_reference(encoding):
    seq = sequence_from_arrays([0.3, 0.8, 1.6, 2.1, 3.3], [1, 0, 0, 1, 1], 10.0)
    for n_heads in (1, 2):
        ckpt = random_checkpoint(tiny_config(encoding=encoding, n_layers=2, n_heads=n_heads),
                                 seed=18)
        want = unshifted_attention_reference(seq, ckpt)
        assert np.allclose(encode_history(seq, ckpt), want, rtol=0.0, atol=1e-12)
        # the cached forward, one event at a time and then the rest at once
        cache = M.EncoderCache(ckpt)
        for n in (1, 2, len(seq)):
            cache.context(EventSequence(seq.events[:n], seq.t_end), ckpt)
        assert np.allclose(cache.hidden[:len(seq)], want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("encoding", ["thp", "sahp", "attnhp"])
def test_large_attention_scores_stay_finite(encoding):
    """Scores near 1e4 overflow exp() unless each row is shifted by its
    maximum, and a future key's score must not leak through the mask."""
    ckpt = random_checkpoint(tiny_config(encoding=encoding, n_layers=2, n_heads=2), seed=19)
    for layer in range(2):
        for name in ("q", "k"):
            ckpt.params[f"layers.{layer}.{name}"] = ckpt.params[f"layers.{layer}.{name}"] * 60.0
    seq = sequence_from_arrays([0.3, 0.8, 1.6, 2.1], [1, 0, 0, 1], 10.0)
    h = encode_history(seq, ckpt)
    assert np.isfinite(h).all()
    prefix = encode_history(EventSequence(seq.events[:2], seq.t_end), ckpt)
    assert np.array_equal(h[:2], prefix)


def training_forward(seq, ckpt):
    """Head rows at every position from the no-past forward that training
    runs on the tape, which no cache takes part in."""
    params = {name: ad.Tensor(value) for name, value in ckpt.params.items()}
    fused = M._fused_weights(params, ckpt.config)
    ctx = M._context_tensor(seq.times, seq.marks, fused, ckpt.config)
    heads = M._head_tensors(ctx, fused, ckpt.config)
    assert all(isinstance(t, ad.Tensor) for t in heads)
    return as_distributions(*(ad.value(t) for t in heads))


def assert_rows_equal(got, want, rows):
    """The trailing ``rows`` of two (mixture, mark probabilities) pairs agree
    to 1e-12; an unstacked pair is one row."""
    (mix, marks), (full_mix, full_marks) = got, want
    for a, b in ((mix.weights, full_mix.weights), (mix.means, full_mix.means),
                 (mix.scales, full_mix.scales), (marks, full_marks)):
        a = np.atleast_2d(a)
        assert a.shape[0] == rows
        assert np.allclose(a, b[b.shape[0] - rows:], rtol=0.0, atol=1e-12)


def run_extend_rewind_diverge_schedule(encoding, n_heads):
    """A random schedule of extends by k events, rewinds to a shorter prefix
    and jumps to a diverging one: the cached head rows equal the no-past
    training forward every time, and only the uncached events are encoded."""
    ckpt = random_checkpoint(tiny_config(encoding=encoding, n_layers=2, n_heads=n_heads,
                                         n_marks=3), seed=20)
    rng = np.random.default_rng(21)
    cache = M.EncoderCache(ckpt)
    events = []
    # the events of the cache's last forward, which it holds, and the rows it has encoded
    passed, encoded = (), 0
    kinds = set()
    for step in range(40):
        kind = ("extend", "rewind", "diverge")[step % 4 % 3]
        if kind != "extend" and events:
            events = events[:int(rng.integers(1, len(events) + 1))]
        if kind == "diverge" and events:
            # the last kept event changes its mark or its time, not both
            last = events.pop()
            events.append(Event(last.time, (last.mark + 1) % 3) if step % 8 < 4
                          else Event(last.time + 0.1, last.mark))
        t = events[-1].time if events else 0.0
        for _ in range(0 if kind == "rewind" else int(rng.integers(1, 12))):
            t += float(rng.exponential(0.7))
            events.append(Event(t, int(rng.integers(3))))
        seq = EventSequence(tuple(events), math.inf)
        shared = next((i for i, (held, e) in enumerate(zip(passed, events)) if held != e),
                      min(len(passed), len(events)))
        if step % 2:
            got, rows = M.position_distributions(seq, ckpt, cache=cache), len(seq) + 1 - shared
        else:
            got, rows = M.next_event_distributions(seq, ckpt, cache=cache), 1
        assert_rows_equal(got, training_forward(seq, ckpt), rows)
        assert cache.rows_encoded - encoded == len(seq) - shared
        encoded = cache.rows_encoded
        assert cache.size == len(seq)
        passed = seq.events
        kinds.add(kind)
    assert kinds == {"extend", "rewind", "diverge"}


@pytest.mark.parametrize("n_heads", [1, 2])
@pytest.mark.parametrize("encoding", ["thp", "sahp", "attnhp"])
def test_cache_matches_full_forward_through_extends_and_rollbacks(encoding, n_heads):
    run_extend_rewind_diverge_schedule(encoding, n_heads)


@pytest.mark.parametrize("n_heads", [1, 2])
@pytest.mark.parametrize("encoding", ["thp", "sahp", "attnhp"])
def test_blocked_encode_matches_full_forward(encoding, n_heads, monkeypatch):
    """Spans longer than the encode block go through the cache in blocks:
    the same schedule with blocks of 3 rows, and a fresh span of more than
    two default blocks against the textbook attention."""
    seq = sequence_from_arrays(0.4 * np.arange(1, 2 * ad.ATTENTION_BLOCK + 23),
                               np.arange(2 * ad.ATTENTION_BLOCK + 22) % 2, math.inf)
    ckpt = random_checkpoint(tiny_config(encoding=encoding, n_layers=2, n_heads=n_heads),
                             seed=27)
    cache = M.EncoderCache(ckpt)
    got = M.position_distributions(seq, ckpt, cache=cache)
    assert cache.rows_encoded == cache.size == len(seq)
    assert np.allclose(cache.hidden[:len(seq)], unshifted_attention_reference(seq, ckpt),
                       rtol=0.0, atol=1e-12)
    assert_rows_equal(got, training_forward(seq, ckpt), len(seq) + 1)
    monkeypatch.setattr(ad, "ATTENTION_BLOCK", 3)
    run_extend_rewind_diverge_schedule(encoding, n_heads)


def test_long_span_encodes_in_blocks_into_buffers_sized_once(monkeypatch):
    """A fresh forward of 3B + 5 events forms no attention block of more
    than B query rows, and the events that follow it reuse the key and value
    buffers that the history was encoded into."""
    block = ad.ATTENTION_BLOCK
    ckpt = random_checkpoint(tiny_config(n_layers=2, n_heads=2), seed=28)
    n = 3 * block + 5
    seq = sequence_from_arrays(0.5 * np.arange(1, n + 9), np.arange(n + 8) % 2, math.inf)
    query_rows = []

    def spy(attention):
        def spied(q, k, v, *args, **kwargs):
            query_rows.append(np.shape(q)[1])  # q is (heads, queries, head_dim)
            return attention(q, k, v, *args, **kwargs)
        return spied

    # the op and its plain forward, which a cached forward calls
    monkeypatch.setattr(ad, "attention", spy(ad.attention))
    monkeypatch.setattr(ad.plain, "attention", spy(ad.plain.attention))
    cache = M.EncoderCache(ckpt)
    M.next_event_distributions(EventSequence(seq.events[:n], math.inf), ckpt, cache=cache)
    # one attention call per layer and block
    assert query_rows and max(query_rows) == block and sum(query_rows) == 2 * n
    buffers = cache._keys + cache._values
    for end in range(n + 1, n + 9):
        M.next_event_distributions(EventSequence(seq.events[:end], math.inf), ckpt, cache=cache)
    assert all(a is b for a, b in zip(cache._keys + cache._values, buffers))


def test_no_past_forward_forms_scores_in_blocks(monkeypatch):
    """Training's no-past forward of 3B + 5 events forms no score array of
    more than B query rows: it attends in four blocks of near-equal size,
    whose scores stop at each one's last row. A forward of 2B events
    attends as one block."""
    block = ad.ATTENTION_BLOCK
    ckpt = random_checkpoint(tiny_config(n_layers=2, n_heads=2), seed=28)
    shapes = []

    def spied(rows, keys, *args, _block=ad._attention):
        shapes.append((rows.shape[-2], keys.shape[-2]))
        return _block(rows, keys, *args)

    monkeypatch.setattr(ad, "_attention", spied)
    for n in (2 * block, 3 * block + 5):
        shapes.clear()
        seq = sequence_from_arrays(0.5 * np.arange(1, n + 1), np.arange(n) % 2, math.inf)
        training_forward(seq, ckpt)
        # (query rows, keys) of each block, in each of the two layers
        edges = [0, n] if n <= 2 * block else [n * j // 4 for j in range(5)]
        assert shapes == 2 * [(stop - start, stop) for start, stop in zip(edges, edges[1:])]
    assert max(rows for rows, _ in shapes) <= block


def test_non_finite_model_continued_after_long_history_raises():
    """30 thp layers with value projections scaled by 1e12 overflow the
    residual stream; encoded in blocks, the history and every event after
    it still end in FloatingPointError."""
    ckpt = random_checkpoint(tiny_config(n_layers=30), seed=29)
    for layer in range(30):
        ckpt.params[f"layers.{layer}.v"] = ckpt.params[f"layers.{layer}.v"] * 1e12
    n = 2 * ad.ATTENTION_BLOCK + 10
    seq = sequence_from_arrays(0.5 * np.arange(1, n + 2), np.arange(n + 1) % 2, math.inf)
    cache = M.EncoderCache(ckpt)
    with np.errstate(all="ignore"):
        for end in (n, n + 1):
            with pytest.raises(FloatingPointError):
                M.next_event_distributions(EventSequence(seq.events[:end], math.inf), ckpt,
                                           cache=cache)


def masked_scores(keep, scores, fill):
    """Scores where ``keep`` holds and ``fill`` elsewhere; on the tape the
    adjoint reaches the kept entries only."""
    if not isinstance(scores, ad.Tensor):
        return np.where(keep, scores, fill)
    return ad.Tensor(np.where(keep, scores.data, fill), (scores,),
                     lambda g: ad._accumulate(scores, np.where(keep, g, 0.0)))


def composed_attention(q, k, v, plus_one=False):
    """ad.attention written as the chain of autodiff ops that an encoder
    layer ran before the fused op, in the same arithmetic order, with the
    dense causal mask over all the keys."""
    n, n_keys = ad.value(q).shape[-2], ad.value(k).shape[-2]
    scores = masked_scores(np.tri(n, n_keys, n_keys - n, dtype=bool),
                           ad.matmul(q, ad.transpose(k, (0, 2, 1))), -math.inf)
    shift = ad.value(scores).max(axis=-1, keepdims=True)
    kernel = ad.exp(ad.sub(scores, shift))
    denominator = row_sums(kernel)
    if plus_one:
        with np.errstate(over="ignore"):
            denominator = ad.add(denominator, np.exp(-shift))
    return ad.div(ad.matmul(kernel, v), denominator)


@pytest.mark.parametrize("encoding", ["thp", "sahp", "attnhp"])
def test_fused_attention_rows_equal_the_composed_ops_bit_for_bit(encoding, monkeypatch):
    """On random models whose value projections move the rows, every
    sampling forward, cached one row at a time or in a span, gives the same
    bits with the fused op as with the chain of ops, and so does a no-past
    encode of at most two blocks, which the op attends as one; a longer
    no-past encode, which the op attends in blocks, is the chain's within
    1e-12. All match the textbook
    attention to 1e-12. The long input's first span is longer than two
    encode blocks, so a full block attends over a visible past and the last
    block is a triangular tail; the multi-row spans after it attend over a
    past too."""
    rng = np.random.default_rng(32)
    block = ad.ATTENTION_BLOCK
    inputs = []
    for spans in ((1, 2, 7, 12), (2 * block + 6, 2 * block + 13, 2 * block + 20)):
        n = spans[-1]
        seq = sequence_from_arrays(np.cumsum(rng.exponential(0.6, n)), np.arange(n) % 3,
                                   math.inf)
        inputs.append((seq, spans))

    def forwards(ckpt, seq, spans):
        cache = M.EncoderCache(ckpt)
        rows = [M.next_event_distributions(EventSequence(seq.events[:n], math.inf), ckpt,
                                           cache=cache) for n in spans]
        rows.append(M.position_distributions(seq, ckpt))
        arrays = [a for mix, probabilities in rows
                  for a in (mix.weights, mix.means, mix.scales, probabilities)]
        return arrays + [cache.hidden[:len(seq)], encode_history(seq, ckpt)]

    composed_calls = []

    def composed_spy(*args, **kwargs):
        composed_calls.append(1)
        return composed_attention(*args, **kwargs)

    for n_heads in (1, 2):
        ckpt = random_checkpoint(tiny_config(encoding=encoding, n_layers=3, n_heads=n_heads,
                                             n_marks=3), seed=33)
        for seq, spans in inputs:
            fused = forwards(ckpt, seq, spans)
            assert not np.allclose(fused[-1], embed_events(seq, ckpt))
            with monkeypatch.context() as patched:
                # sampling forwards call the plain forward, not the op
                patched.setattr(ad, "attention", composed_spy)
                patched.setattr(ad.plain, "attention", composed_spy)
                composed_calls.clear()
                composed = forwards(ckpt, seq, spans)
            # 3 layers per encode block: the cached spans and the two no-past forwards
            assert len(composed_calls) >= 3 * (len(spans) + 2)
            assert all(np.array_equal(a, b) for a, b in zip(fused[:-1], composed[:-1]))
            if len(seq) <= 2 * block:
                assert np.array_equal(fused[-1], composed[-1])
            else:
                assert np.allclose(fused[-1], composed[-1], rtol=0.0, atol=1e-12)
            assert np.allclose(fused[-1], unshifted_attention_reference(seq, ckpt),
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("encoding", ["thp", "sahp", "attnhp"])
def test_fused_attention_training_gradients_equal_the_composed_ops(encoding, monkeypatch):
    """Training through the fused op's adjoint: the loss is the same to
    the bit and every gradient is the chain of ops' within 1e-12."""
    ckpt = random_checkpoint(tiny_config(encoding=encoding, n_layers=2, n_heads=2, n_marks=3),
                             seed=34)
    batch = [sequence_from_arrays([0.3, 0.7, 1.6, 2.0, 2.9, 3.1, 4.4], [0, 2, 1, 1, 0, 2, 2],
                                  5.0),
             sequence_from_arrays([0.5, 1.5], [1, 0], 2.5)]
    loss, grads = T.nll_batch(ckpt, batch)
    monkeypatch.setattr(ad, "attention", composed_attention)
    composed_loss, composed_grads = T.nll_batch(ckpt, batch)
    assert loss == composed_loss
    for name, grad in grads.items():
        assert np.allclose(grad, composed_grads[name], rtol=0.0, atol=1e-12), name


# autodiff ops that a cached one-row pass calls outside the encoder layers:
# 2 to embed the row and 5 in the fused heads' two products; its context row
# is a view of the cache's rows, which joins nothing, and the heads make the
# rows from the products with numpy calls into the cache's head rows
OPS_OUTSIDE_LAYERS = 7
# all the ops of a cached one-row pass of a 1-layer, 1-head model: 5 in the
# layer, whose one row needs no transpose, and the 7 outside it
DRAFT_PASS_OPS = 12


def public_ops():
    """The name and function of every public op of autodiff: its public
    functions but the accessor ``value``."""
    return [(name, op) for name, op in vars(ad).items()
            if callable(op) and not isinstance(op, type) and not name.startswith("_")
            and name != "value" and getattr(op, "__module__", None) == ad.__name__]


@pytest.mark.parametrize("n_layers,n_heads", [(1, 1), (4, 2), (20, 2)])
def test_cached_one_row_pass_calls_at_most_seven_ops_per_layer(n_layers, n_heads,
                                                               monkeypatch):
    """A timing-independent budget: one cached one-row pass of an L-layer
    thp model calls at most 7 L plain forwards of autodiff ops plus the
    fixed ones outside the layers. (20, 2) and (1, 1) are the layer and
    head counts of perfbench's target and draft."""
    ckpt = random_checkpoint(tiny_config(n_layers=n_layers, n_heads=n_heads), seed=35)
    seq = sequence_from_arrays(0.5 * np.arange(1, 11), np.arange(10) % 2, math.inf)
    cache = M.EncoderCache(ckpt)
    M.next_event_distributions(EventSequence(seq.events[:9], math.inf), ckpt, cache=cache)
    calls = []
    names = [name for name, _ in public_ops()]
    assert sorted(vars(ad.plain)) == sorted(names)
    for name in names:
        monkeypatch.setattr(ad.plain, name, lambda *args, _op=getattr(ad.plain, name),
                            _name=name, **kwargs: calls.append(_name) or _op(*args, **kwargs))
    M.next_event_distributions(seq, ckpt, cache=cache)
    assert cache.rows_encoded == len(seq) and cache.passes == 2
    assert calls.count("attention") == n_layers
    assert len(calls) <= 7 * n_layers + OPS_OUTSIDE_LAYERS
    if (n_layers, n_heads) == (1, 1):
        assert len(calls) == DRAFT_PASS_OPS


@pytest.mark.parametrize("encoding", ["thp", "sahp", "attnhp"])
def test_sampling_forwards_call_no_autodiff_op(encoding, monkeypatch):
    """With every public autodiff op patched to raise, a cache is built on
    the raw arrays and its forwards run, one row and a span at a time, and
    so do a no-past forward, the mixture density and the sequence
    log-likelihood: all of them call the plain forwards, which the raw
    arrays' Weights hold, and none asks an op whether a tape is built."""
    ckpt = random_checkpoint(tiny_config(encoding=encoding, n_layers=2, n_heads=2, n_marks=2),
                             seed=36)
    seq = sequence_from_arrays(0.5 * np.arange(1, 11), np.arange(10) % 2, 6.0)
    want = [M.next_event_distributions(seq, ckpt), M.sequence_loglik(seq, ckpt)]

    def raising(*args, **kwargs):
        raise AssertionError("an autodiff op was called")

    for name, _ in public_ops():
        monkeypatch.setattr(ad, name, raising)
    cache = M.EncoderCache(ckpt)
    assert cache.weights.ops is ad.plain
    M.next_event_distributions(EventSequence(seq.events[:6], seq.t_end), ckpt, cache=cache)
    M.next_event_distributions(EventSequence(seq.events[:7], seq.t_end), ckpt, cache=cache)
    mixture, marks = M.next_event_distributions(seq, ckpt, cache=cache)
    assert cache.rows_encoded == len(seq) and cache.passes == 3
    assert np.array_equal(mixture.weights, want[0][0].weights)
    assert np.array_equal(marks, want[0][1])
    mixtures, _ = M.position_distributions(seq, ckpt)
    assert M.mixture_logpdf(seq.inter_event_times(), mixtures.row(slice(0, len(seq)))).shape \
        == (len(seq),)
    assert M.sequence_loglik(seq, ckpt) == want[1]


@pytest.mark.parametrize("n_heads", [1, 2])
@pytest.mark.parametrize("encoding", ["thp", "sahp", "attnhp"])
def test_inference_forward_builds_no_tensors(encoding, n_heads, tensors):
    """Sampling forwards run on the raw parameter arrays: no Tensor is
    constructed with a fresh cache, nor with a warm one that extends, rolls
    back and follows a diverging prefix."""
    ckpt = random_checkpoint(tiny_config(encoding=encoding, n_layers=2, n_heads=n_heads,
                                         n_marks=3), seed=24)
    events = list(sequence_from_arrays([0.3, 0.8, 1.6, 2.1, 3.3, 4.0], [1, 0, 2, 1, 1, 0],
                                       10.0).events)
    diverged = events[:2] + [Event(events[2].time, 0)] + events[3:]
    cache = M.EncoderCache(ckpt)
    for kept in (events[:1], events[:4], events, events[:3], diverged[:5]):
        seq = EventSequence(tuple(kept), 10.0)
        for forward in (M.next_event_distributions, M.position_distributions):
            forward(seq, ckpt)
            forward(seq, ckpt, cache=cache)
    assert cache.size == 5
    assert tensors == {"Tensor": 0}


@pytest.mark.parametrize("encoding", ["thp", "sahp", "attnhp"])
def test_nll_batch_builds_a_tape_with_exact_gradients(encoding, tensors):
    """Training passes its parameters as Tensors through the same forward, so it
    still builds a tape, and its gradient matches central differences."""
    ckpt = random_checkpoint(tiny_config(encoding=encoding, n_layers=2, n_heads=2), seed=25)
    batch = [sequence_from_arrays([0.4, 1.1, 1.9], [0, 1, 1], 4.0),
             sequence_from_arrays([0.7], [1], 2.0)]
    loss, grads = T.nll_batch(ckpt, batch)
    # the parameter leaves plus at least a node per operation of every layer
    assert tensors["Tensor"] > len(ckpt.params) + 10 * ckpt.config.n_layers
    rng = np.random.default_rng(26)
    for name, base in ckpt.params.items():
        for i in rng.choice(base.size, size=min(base.size, 6), replace=False):
            h = 1e-6 * max(1.0, abs(base.flat[i]))
            sides = []
            for sign in (1.0, -1.0):
                probe = ckpt.copy()
                probe.params[name].flat[i] += sign * h
                sides.append(T.nll_batch(probe, batch)[0])
            fd = (sides[0] - sides[1]) / (2 * h)
            assert grads[name].flat[i] == pytest.approx(fd, rel=1e-4, abs=1e-7), (name, i)
    assert loss == pytest.approx(-sum(M.sequence_loglik(s, ckpt) for s in batch) / 4, rel=1e-12)


def test_cache_refuses_another_checkpoint():
    config = tiny_config()
    ckpt = random_checkpoint(config, seed=22)
    cache = M.EncoderCache(ckpt)
    seq = sequence_from_arrays([0.5, 1.5], [0, 1], 10.0)
    M.next_event_distributions(seq, ckpt, cache=cache)
    with pytest.raises(ValueError):
        M.next_event_distributions(seq, ckpt.copy(), cache=cache)
    with pytest.raises(ValueError):
        M.position_distributions(seq, random_checkpoint(config, seed=23), cache=cache)


# -- checkpoint serialization -------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    config = tiny_config(encoding="sahp", n_marks=4)
    ckpt = M.init_checkpoint(config, RngStream(14))
    path = tmp_path / "model.json"
    M.save_checkpoint(path, ckpt)
    loaded = M.load_checkpoint(path)
    assert loaded.config == config
    for name in ckpt.params:
        assert np.array_equal(loaded.params[name], ckpt.params[name])


def test_checkpoint_save_is_deterministic(tmp_path):
    ckpt = M.init_checkpoint(tiny_config(), RngStream(15))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    M.save_checkpoint(a, ckpt)
    M.save_checkpoint(b, ckpt)
    assert a.read_bytes() == b.read_bytes()


def written_checkpoint(encoding):
    """A 3-layer, 2-head checkpoint of one encoding, with values whose
    shortest repr is unusual written into two of its parameters."""
    config = M.ModelConfig(embed_dim=8, n_components=3, n_marks=3, n_heads=2, n_layers=3,
                           encoding=encoding)
    ckpt = M.init_checkpoint(config, RngStream(41))
    ckpt.params["initial_context"][:5] = [-0.0, 1e-300, 1.0, 5e-324, 1e16]
    ckpt.params["mark_out_bias"][:] = [-1e300, 0.1, 123456789.0]
    return ckpt


# sha256 of save_checkpoint's file for written_checkpoint("attnhp"), as json.dump wrote it
WRITTEN_CHECKPOINT_SHA256 = "b636db278c6ddf6f9bd9389d3eee95d272dfde97be27da43ee4ac2e9aada82e7"


@pytest.mark.parametrize("encoding", M.ENCODINGS)
def test_checkpoint_bytes_are_the_one_shot_encoding_of_the_document(tmp_path, encoding):
    ckpt = written_checkpoint(encoding)
    doc = {"format_version": M.CHECKPOINT_FORMAT_VERSION,
           "config": dataclasses.asdict(ckpt.config),
           "params": {name: {"shape": list(value.shape), "data": value.ravel().tolist()}
                      for name, value in ckpt.params.items()}}
    path = tmp_path / "model.json"
    M.save_checkpoint(path, ckpt)
    assert path.read_bytes() == json.dumps(doc, sort_keys=True).encode()
    loaded = M.load_checkpoint(path)
    for name, value in ckpt.params.items():
        assert loaded.params[name].tobytes() == value.tobytes()


def test_checkpoint_bytes_are_pinned(tmp_path):
    path = tmp_path / "model.json"
    M.save_checkpoint(path, written_checkpoint("attnhp"))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WRITTEN_CHECKPOINT_SHA256


@pytest.mark.parametrize("field", ["embed_dim", "n_components", "n_marks", "n_heads", "n_layers"])
@pytest.mark.parametrize("value", [8.0, True, "8"])
def test_config_integer_fields_refuse_other_types(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        M.ModelConfig(**{field: value})


@pytest.mark.parametrize("data, message", [
    (["0.25"] + [0.5] * 7, "are not a flat list of JSON numbers"),
    ([True] + [0.5] * 7, "are not a flat list of JSON numbers"),
    ([[0.5]] * 8, "are not a flat list of JSON numbers"),
    ({"0": 0.5}, "are not a flat list of JSON numbers"),
    (None, "are not a flat list of JSON numbers"),
    ([10 ** 400] + [0.5] * 7, "do not fit"),
    ([0.5] * 7, "do not fit"),
], ids=["string", "bool", "nested", "object", "missing", "huge-int", "misfit"])
def test_checkpoint_data_that_are_not_json_numbers_are_refused(tmp_path, data, message):
    path = tmp_path / "model.json"
    M.save_checkpoint(path, M.init_checkpoint(tiny_config(), RngStream(17)))
    doc = json.loads(path.read_text())
    doc["params"]["initial_context"] = {"shape": [8], "data": data}
    path.write_text(json.dumps(doc))
    with pytest.raises(M.CheckpointFormatError, match=f"'initial_context' data {message}"):
        M.load_checkpoint(path)


def test_checkpoint_integer_data_load_as_floats(tmp_path):
    path = tmp_path / "model.json"
    M.save_checkpoint(path, M.init_checkpoint(tiny_config(), RngStream(18)))
    doc = json.loads(path.read_text())
    doc["params"]["initial_context"]["data"] = [0, 1, -2, 3, 0.5, 0, 0, 2 ** 60]
    path.write_text(json.dumps(doc))
    loaded = M.load_checkpoint(path).params["initial_context"]
    assert loaded.dtype == np.float64
    assert loaded.tolist() == [0.0, 1.0, -2.0, 3.0, 0.5, 0.0, 0.0, 2.0 ** 60]


def test_checkpoint_version_mismatch_is_refused(tmp_path):
    ckpt = M.init_checkpoint(tiny_config(), RngStream(16))
    path = tmp_path / "model.json"
    M.save_checkpoint(path, ckpt)
    saved = path.read_text()
    current = f'"format_version": {M.CHECKPOINT_FORMAT_VERSION}'
    assert current in saved
    # version 1 carried the removed attention and feed-forward config fields
    for version in (1, 99):
        path.write_text(saved.replace(current, f'"format_version": {version}'))
        with pytest.raises(M.CheckpointFormatError, match="format_version"):
            M.load_checkpoint(path)


def test_config_validation():
    with pytest.raises(ValueError):
        M.ModelConfig(embed_dim=7)
    with pytest.raises(ValueError):
        M.ModelConfig(embed_dim=8, n_heads=3)
    with pytest.raises(ValueError):
        M.ModelConfig(encoding="rnn")
    # a head count that divides embed_dim but is not >= 1
    for n_heads in (0, -2):
        with pytest.raises(ValueError, match="n_heads"):
            M.ModelConfig(embed_dim=8, n_heads=n_heads)
    # attnhp attends over concat(1; z; h), the other encodings over h
    assert M.parameter_shapes(M.ModelConfig(encoding="attnhp"))["layers.0.q"] == (33, 16)
    assert M.parameter_shapes(M.ModelConfig(encoding="thp"))["layers.0.q"] == (16, 16)
