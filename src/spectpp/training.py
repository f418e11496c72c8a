"""Maximum-likelihood training: Adam on the negative mean-per-event
log-likelihood with validation-based early stopping.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .core import EventSequence, RngStream
from .model import (ModelCheckpoint, ModelConfig, _fused_weights, _loglik_tensor, init_checkpoint,
                    sequence_loglik)

logger = logging.getLogger(__name__)
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8  # moment decays, denominator offset


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 16
    max_epochs: int = 200
    patience: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.learning_rate, self.batch_size, self.max_epochs, self.patience) <= 0:
            raise ValueError("all training hyperparameters must be positive")
        if self.patience > self.max_epochs:
            raise ValueError("patience must not exceed max_epochs")


@dataclass
class TrainReport:
    """Per-epoch mean per-event log-likelihoods and the best checkpoint.

    ``train_loglik[e]`` is the event-weighted mean of epoch e's minibatch
    log-likelihoods, each scored by ``nll_batch`` at the parameters before
    its own update; ``val_loglik[e]`` scores the validation split at the
    end of epoch e, and it alone picks ``best_epoch``."""

    train_loglik: list[float] = field(default_factory=list)
    val_loglik: list[float] = field(default_factory=list)
    best_epoch: int = 0
    checkpoint: ModelCheckpoint | None = None

    @property
    def epochs_run(self) -> int:
        return len(self.train_loglik)


@dataclass
class AdamState:
    """First/second moment accumulators and the step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def zeros_like(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls({k: np.zeros_like(p) for k, p in params.items()},
                   {k: np.zeros_like(p) for k, p in params.items()})


def nll_batch(checkpoint: ModelCheckpoint,
              batch: list[EventSequence]) -> tuple[float, dict[str, np.ndarray]]:
    """Negative mean-per-event log-likelihood of a batch, with gradients.

    The loss divides the summed log-likelihood by the total event count of
    the batch (at least one, so all-empty batches reduce to their survival
    terms). Its sequences share one build of the fused weights."""
    if not batch:
        raise ValueError("batch must be nonempty")
    tensors = {name: ad.Tensor(value) for name, value in checkpoint.params.items()}
    weights = _fused_weights(tensors, checkpoint.config)
    total, events = 0.0, 0
    for seq in batch:
        total = ad.add(total, _loglik_tensor(seq, weights, checkpoint.config))
        events += len(seq)
    loss = ad.mul(total, -1.0 / max(1, events))
    loss.backward()
    grads = {}
    for name, tensor in tensors.items():
        grad = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        if not np.all(np.isfinite(grad)):
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
        grads[name] = grad
    return loss.item(), grads


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, config: TrainConfig) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update; inputs are left untouched."""
    t = state.step + 1
    new_params, new_m, new_v = {}, {}, {}
    for name, p in params.items():
        g = grads[name]
        if p.shape != g.shape:
            raise ValueError(f"gradient shape mismatch for {name!r}")
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for {name!r}")
        m = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        new_params[name] = p - config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
        new_m[name], new_v[name] = m, v
    return new_params, AdamState(new_m, new_v, t)


def _mean_loglik(checkpoint: ModelCheckpoint, sequences: list[EventSequence]) -> float:
    total = sum(sequence_loglik(seq, checkpoint) for seq in sequences)
    events = sum(len(seq) for seq in sequences)
    return total / max(1, events)


def train(train_seqs: list[EventSequence], val_seqs: list[EventSequence],
          model_config: ModelConfig, config: TrainConfig) -> TrainReport:
    """Gradient-ascent training with early stopping on validation likelihood.

    Each epoch's training log-likelihood comes from the losses its
    minibatches already computed, so after an epoch only the validation
    split is scored. Deterministic under the config seed: initialization
    and per-epoch batch shuffling consume named sub-streams of it.
    """
    if not train_seqs or not val_seqs:
        raise ValueError("train and validation splits must be nonempty")
    root = RngStream(config.seed)
    checkpoint = init_checkpoint(model_config, root.child("init"))
    state = AdamState.zeros_like(checkpoint.params)
    report = TrainReport()
    best_val = -np.inf
    best_params = checkpoint.copy()
    since_best = 0
    for epoch in range(config.max_epochs):
        order = root.child(f"epoch{epoch}").shuffled(len(train_seqs))
        total, events = 0.0, 0
        for lo in range(0, len(order), config.batch_size):
            batch = [train_seqs[i] for i in order[lo:lo + config.batch_size]]
            loss, grads = nll_batch(checkpoint, batch)
            n = sum(len(seq) for seq in batch)
            total -= loss * max(1, n)
            events += n
            checkpoint.params, state = adam_step(checkpoint.params, grads, state, config)
        report.train_loglik.append(total / max(1, events))
        report.val_loglik.append(_mean_loglik(checkpoint, val_seqs))
        if report.val_loglik[-1] > best_val:
            best_val = report.val_loglik[-1]
            best_params = checkpoint.copy()
            report.best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                logger.info("early stop at epoch %d (best %d)", epoch, report.best_epoch)
                break
    report.checkpoint = best_params
    return report


def split_dataset(sequences: list[EventSequence]) -> tuple[list, list, list]:
    """Deterministic in-order 80/10/10 train/validation/test split."""
    n = len(sequences)
    n_train = int(round(0.8 * n))
    n_val = int(round(0.1 * n))
    return (sequences[:n_train], sequences[n_train:n_train + n_val],
            sequences[n_train + n_val:])
