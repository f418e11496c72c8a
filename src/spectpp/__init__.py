"""Speculative and autoregressive sampling for Transformer temporal point
processes, with classical ground-truth simulators and statistical validation."""

__version__ = "0.1.0"

from .core import Event, EventSequence, RngStream, read_sequences, validate_sequence, write_sequences
from .classical import (
    GroundTruthProcess,
    HawkesParams,
    SinePoissonParams,
    ground_truth_loglik,
    make_synthetic_dataset,
    thinning_sample,
)
from .model import (
    MarkDistribution,
    MixtureParams,
    ModelCheckpoint,
    ModelConfig,
    init_checkpoint,
    load_checkpoint,
    save_checkpoint,
    sequence_loglik,
)
from .sampler import (
    DraftBatch,
    SampleRunStats,
    VerificationOutcome,
    ar_sample,
    draft,
    residual_mark_sample,
    tpp_sd_sample,
    verify,
)
from .evaluation import (
    KsReport,
    categorical_emd,
    ks_statistic,
    likelihood_discrepancy,
    next_event_divergence,
    time_rescale,
    wasserstein_1d,
)
from .training import TrainConfig, TrainReport, adam_step, nll_batch, split_dataset, train
