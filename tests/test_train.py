import math

import numpy as np
import pytest

from spectpp import autodiff as ad
from spectpp import training as T
from spectpp.classical import HawkesParams, ground_truth_loglik, make_synthetic_dataset
from spectpp.core import EventSequence, RngStream
from spectpp.model import ModelConfig, _fused_weights, _loglik_tensor, init_checkpoint, sequence_loglik

from gradcheck import grad_check
from sequences import sequence_from_arrays

TINY = ModelConfig(embed_dim=8, n_components=4, n_marks=1)
RATE_2 = HawkesParams(mu=np.array([2.0]), alpha=np.array([[0.0]]), beta=np.array([[1.0]]))


def test_nll_empty_sequence_is_survival_only():
    ckpt = init_checkpoint(TINY, RngStream(0))
    loss, grads = T.nll_batch(ckpt, [EventSequence((), 4.0)])
    assert loss == pytest.approx(-sequence_loglik(EventSequence((), 4.0), ckpt))
    assert set(grads) == set(ckpt.params)


def test_nll_duplicate_sequence_is_mean_invariant():
    ckpt = init_checkpoint(TINY, RngStream(1))
    seq = sequence_from_arrays([0.5, 1.5], [0, 0], 4.0)
    single, _ = T.nll_batch(ckpt, [seq])
    double, _ = T.nll_batch(ckpt, [seq, seq])
    assert double == pytest.approx(single, rel=1e-12)


def test_nll_batchwise_totals_recombine_to_full_mean():
    ckpt = init_checkpoint(TINY, RngStream(2))
    seqs = [
        sequence_from_arrays([0.5, 1.1], [0, 0], 4.0),
        EventSequence((), 4.0),
        sequence_from_arrays([2.0], [0], 4.0),
    ]
    full, full_grads = T.nll_batch(ckpt, seqs)
    singles = [T.nll_batch(ckpt, [s]) for s in seqs]
    parts = [loss * max(1, len(s)) for (loss, _), s in zip(singles, seqs)]
    total_events = sum(len(s) for s in seqs)
    assert sum(parts) / max(1, total_events) == pytest.approx(full, abs=1e-9)
    # the batch builds its fused weights once, so the sequences' adjoints sum
    # before their backward; the gradients still recombine, within 1e-12 of
    # each parameter's largest entry (entries that cancel to near zero
    # carry the rounding of their larger terms)
    for name, grad in full_grads.items():
        recombined = sum(g[name] * max(1, len(s)) for (_, g), s in zip(singles, seqs))
        error = np.abs(recombined / max(1, total_events) - grad).max()
        assert error <= 1e-12 * np.abs(grad).max(), name


def test_nll_gradient_matches_finite_differences():
    config = ModelConfig(embed_dim=8, n_components=4, n_marks=2)
    ckpt = init_checkpoint(config, RngStream(3))
    seqs = [sequence_from_arrays([0.4, 1.0], [0, 1], 3.0),
            sequence_from_arrays([0.7], [1], 3.0)]

    def f(tensors):
        total, fused = None, _fused_weights(tensors, config)
        for seq in seqs:
            ll = _loglik_tensor(seq, fused, config)
            total = ll if total is None else ad.add(total, ll)
        return ad.mul(total, -1.0 / 3.0)

    assert grad_check(f, ckpt.params) < 1e-4


def test_adam_zero_gradient_keeps_parameters():
    params = {"w": np.array([1.0, -2.0])}
    grads = {"w": np.zeros(2)}
    state = T.AdamState.zeros_like(params)
    new_params, new_state = T.adam_step(params, grads, state, T.TrainConfig())
    assert np.array_equal(new_params["w"], params["w"])
    assert new_state.step == 1


def test_adam_first_step_magnitude_is_learning_rate():
    config = T.TrainConfig(learning_rate=0.01)
    params = {"w": np.array([0.3, -0.8, 2.0])}
    grads = {"w": np.array([0.5, -1.0, 2.0])}
    new_params, _ = T.adam_step(params, grads, T.AdamState.zeros_like(params), config)
    delta = new_params["w"] - params["w"]
    # first-step Adam moves each coordinate by ~lr against the gradient sign
    assert np.allclose(np.abs(delta), config.learning_rate, rtol=1e-6)
    assert np.all(np.sign(delta) == -np.sign(grads["w"]))


def test_adam_descends_quadratic():
    config = T.TrainConfig(learning_rate=0.05)
    params = {"w": np.array([1.0])}
    state = T.AdamState.zeros_like(params)
    values = []
    for _ in range(200):
        grads = {"w": 2.0 * params["w"]}
        params, state = T.adam_step(params, grads, state, config)
        values.append(abs(float(params["w"][0])))
    # monotone decrease while approaching the optimum, small thereafter
    assert all(b < a for a, b in zip(values[3:15], values[4:16]))
    assert values[-1] < 0.05


def test_adam_rejects_non_finite_gradient():
    params = {"w": np.array([1.0])}
    with pytest.raises(FloatingPointError):
        T.adam_step(params, {"w": np.array([np.nan])}, T.AdamState.zeros_like(params),
                    T.TrainConfig())


def test_adam_rejects_shape_mismatch():
    params = {"w": np.array([1.0, 2.0])}
    with pytest.raises(ValueError):
        T.adam_step(params, {"w": np.array([1.0])}, T.AdamState.zeros_like(params),
                    T.TrainConfig())


def test_train_config_validation():
    with pytest.raises(ValueError):
        T.TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        T.TrainConfig(patience=300, max_epochs=200)


@pytest.mark.parametrize("field", ["batch_size", "max_epochs", "patience", "seed"])
@pytest.mark.parametrize("value", [2.5, 4.0, True, "4"])
def test_train_config_integer_fields_refuse_other_types(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        T.TrainConfig(**{field: value})


@pytest.mark.parametrize("value", [True, False, "0.01", None, math.nan, math.inf])
def test_train_config_learning_rate_must_be_a_finite_real_number(value):
    with pytest.raises(ValueError, match="learning_rate must be a finite real number"):
        T.TrainConfig(learning_rate=value)


def test_train_config_learning_rate_may_be_an_int_or_a_numpy_float():
    assert T.TrainConfig(learning_rate=1).learning_rate == 1
    assert T.TrainConfig(learning_rate=np.float64(0.01)).learning_rate == 0.01


def test_split_dataset_800_100_100():
    seqs = [EventSequence((), 1.0)] * 1000
    train, val, test = T.split_dataset(seqs)
    assert (len(train), len(val), len(test)) == (800, 100, 100)


@pytest.mark.slow
def test_train_reaches_ground_truth_likelihood():
    """Tiny model on homogeneous rate-2 data approaches the analytic optimum."""
    data = make_synthetic_dataset(RATE_2, 200, 10.0, RngStream(42))
    train_seqs, val_seqs, _ = T.split_dataset(data)
    config = T.TrainConfig(learning_rate=0.01, max_epochs=60, patience=15, seed=7)
    report = T.train(train_seqs, val_seqs, TINY, config)
    gt = sum(ground_truth_loglik(s, RATE_2) for s in val_seqs) \
        / max(1, sum(len(s) for s in val_seqs))
    assert report.val_loglik[report.best_epoch] == max(report.val_loglik)
    assert abs(report.val_loglik[report.best_epoch] - gt) < 0.1


def test_train_is_deterministic():
    data = make_synthetic_dataset(RATE_2, 12, 4.0, RngStream(5))
    config = T.TrainConfig(learning_rate=0.02, batch_size=4, max_epochs=3, patience=3, seed=9)
    a = T.train(data[:8], data[8:], TINY, config)
    b = T.train(data[:8], data[8:], TINY, config)
    assert a.train_loglik == b.train_loglik
    assert a.val_loglik == b.val_loglik
    for name in a.checkpoint.params:
        assert np.array_equal(a.checkpoint.params[name], b.checkpoint.params[name])


def test_train_report_best_epoch_bookkeeping():
    data = make_synthetic_dataset(RATE_2, 12, 4.0, RngStream(6))
    config = T.TrainConfig(learning_rate=0.02, batch_size=4, max_epochs=5, patience=5, seed=11)
    report = T.train(data[:8], data[8:], TINY, config)
    assert report.best_epoch < report.epochs_run
    assert report.val_loglik[report.best_epoch] == max(report.val_loglik)


def spied_nll_batch(monkeypatch, returned_loss=None):
    """Record each nll_batch call's batch, parameters and loss; with
    ``returned_loss`` the caller gets that loss in place of the real one."""
    calls = []

    def spy(checkpoint, batch, _nll=T.nll_batch):
        loss, grads = _nll(checkpoint, batch)
        calls.append((batch, checkpoint.copy(), loss))
        return (loss if returned_loss is None else returned_loss), grads

    monkeypatch.setattr(T, "nll_batch", spy)
    return calls


@pytest.mark.parametrize("n_empty", [0, 3])
def test_train_loglik_is_the_event_weighted_mean_of_the_epoch_minibatches(monkeypatch,
                                                                          n_empty):
    """Each epoch's training log-likelihood is its minibatches' summed
    log-likelihoods, each at the parameters before its own update, over
    the epoch's events; a minibatch of empty sequences adds its survival
    terms and no events."""
    data = make_synthetic_dataset(RATE_2, 9, 3.0, RngStream(12))
    train_seqs = [EventSequence((), 3.0)] * n_empty + data[:6]
    config = T.TrainConfig(learning_rate=0.02, batch_size=1, max_epochs=3, patience=3, seed=13)
    calls = spied_nll_batch(monkeypatch)
    report = T.train(train_seqs, data[6:], TINY, config)
    per_epoch = len(train_seqs)
    assert len(calls) == per_epoch * report.epochs_run
    assert any(len(batch[0]) == 0 for batch, _, _ in calls) == bool(n_empty)
    for epoch, value in enumerate(report.train_loglik):
        epoch_calls = calls[epoch * per_epoch:(epoch + 1) * per_epoch]
        total = sum(sequence_loglik(seq, params) for batch, params, _ in epoch_calls
                    for seq in batch)
        events = sum(len(seq) for batch, _, _ in epoch_calls for seq in batch)
        assert value == pytest.approx(total / max(1, events), rel=1e-12, abs=0)


def test_train_scores_only_the_validation_split_after_each_epoch(monkeypatch):
    data = make_synthetic_dataset(RATE_2, 12, 4.0, RngStream(5))
    config = T.TrainConfig(learning_rate=0.02, batch_size=4, max_epochs=3, patience=3, seed=9)
    scored = []

    def spy(seq, checkpoint, _loglik=T.sequence_loglik):
        scored.append(seq)
        return _loglik(seq, checkpoint)

    monkeypatch.setattr(T, "sequence_loglik", spy)
    report = T.train(data[:8], data[8:], TINY, config)
    assert report.epochs_run == 3
    assert scored == data[8:] * report.epochs_run


def test_no_decision_reads_the_training_loglik_trace(monkeypatch):
    """Replacing every minibatch loss that train sees by NaN leaves the
    best epoch and the checkpoint as they were."""
    data = make_synthetic_dataset(RATE_2, 12, 4.0, RngStream(6))
    config = T.TrainConfig(learning_rate=0.02, batch_size=4, max_epochs=5, patience=2, seed=11)
    plain = T.train(data[:8], data[8:], TINY, config)
    spied_nll_batch(monkeypatch, returned_loss=float("nan"))
    blind = T.train(data[:8], data[8:], TINY, config)
    assert all(math.isnan(value) for value in blind.train_loglik)
    assert blind.val_loglik == plain.val_loglik
    assert blind.best_epoch == plain.best_epoch
    for name, value in plain.checkpoint.params.items():
        assert np.array_equal(blind.checkpoint.params[name], value)
