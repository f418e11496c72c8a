"""Transformer temporal point process parameterized by interval CDF.

Events are embedded as mark embedding + temporal encoding, passed through
causal attention-plus-residual blocks, and decoded into a log-normal
mixture over the next inter-event interval and a categorical distribution
over the next mark. Three temporal encodings and two attention styles are
supported. The forward is written once against the ops its Weights hold.
For the checkpoint's raw arrays these are autodiff.plain, the ops' plain
forwards, which call numpy directly and build no tape: this is how sampling
runs. For parameters as Tensors they are the autodiff ops, which record the
tape that training differentiates. So whether to tape is decided once per
Weights, not once per op call. The log-normal mixture density is written
once the same way, for training's taped head rows and sampling's plain ones.
Each layer projects its input to the queries, keys and values of every head
with one q|k|v matrix product and attends over all heads with one
causal autodiff.attention op, which attends a span longer than two
autodiff.ATTENTION_BLOCKs in blocks that each form scores only up to their
last row, as a long sequence's no-past forward in training does. An
EncoderCache keeps every layer's keys and values, so a sampling forward
encodes only the events that are new since the previous one, in blocks of
at most ATTENTION_BLOCK rows that each attend over the rows held before
them: the op gets one block per call. The cache holds them in one
float64 array of shape (layers, 2, heads, capacity, head_dim), each
head's keys contiguous over positions, which it grows with one allocation
and one copy. At 4 MiB or more (layers * 2 * embed_dim * capacity * 8 bytes), as a
20-layer target's after a 250-event history is, numpy asks for
transparent huge pages and glibc reuses the one block from run to run, so
the cache stops page-faulting; smaller caches neither gain nor lose. A
capacity-first layout also stopped the faults but ran SD slower. A
forward reads its events' ``times`` and ``marks`` arrays only, so it
takes an EventSequence or the sampler's run state, which keeps them in
growing arrays. The cache keeps the bytes of
its last forward's events, so an extension of the held events, the common
case, keeps every held row after one memory compare per array, and a
one-row pass runs the heads on its one context row, read from the cache's
rows as a vector.
The decoder heads are two products. decoder_proj is folded into the
mixture weight, mean and scale projections, which are stacked with the
mark hidden projection into one (d, 3M+d) matrix and one bias; the mark
output product follows. Every forward reads the fused matrices from one
Weights, built once per EncoderCache from the raw arrays, once per
sequence_loglik call, and once per training minibatch on the tape. The
likelihood turns the products into log-weights, as training needs them. A
sampling forward makes each head row once and in place: one finiteness
check of the pre-activations and mark logits, then one softmax each for
the weights and the mark probabilities and a clipped exp for the scales,
written into the cache's head rows. A forward returns views of them: a
MixtureParams of the weights, means and scales, and the mark probabilities
as a bare array, which is the whole of a categorical law.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .core import EventSequence, RngStream, check_sequence

CHECKPOINT_FORMAT_VERSION = 2
SIGMA_MIN = 1e-4
SIGMA_MAX = 1e4
_LOG_2PI = math.log(2.0 * math.pi)
# events an encoder cache holds room for beyond those of its first forward
_CACHE_ROOM = 128
# the types json.load gives a JSON number
_JSON_NUMBERS = frozenset((float, int))

ENCODINGS = ("thp", "sahp", "attnhp")
# m and M of the attnhp temporal encoding
_ATTNHP_M = 1.0
_ATTNHP_BIG_M = 2000.0

class CheckpointFormatError(ValueError):
    """Raised when a checkpoint file has an unsupported format version, or a
    configuration or parameters that do not form a model."""


def _require_integers(config, names: tuple[str, ...]) -> None:
    """Refuse a config whose named fields do not all hold an int: a float
    such as 8.0, or a bool, which Python counts as an int, raises
    ValueError."""
    for name in names:
        value = getattr(config, name)
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, not {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; the attention style follows the
    temporal encoding, attnhp's own for attnhp and softmax for the others."""

    embed_dim: int = 16
    n_components: int = 8
    n_marks: int = 1
    n_heads: int = 1
    n_layers: int = 1
    encoding: str = "thp"

    def __post_init__(self) -> None:
        _require_integers(self, ("embed_dim", "n_components", "n_marks", "n_heads", "n_layers"))
        if self.embed_dim < 2 or self.embed_dim % 2:
            raise ValueError("embed_dim must be even and >= 2")
        if min(self.n_components, self.n_marks, self.n_heads, self.n_layers) < 1:
            raise ValueError("n_components, n_marks, n_heads and n_layers must be >= 1")
        if self.embed_dim % self.n_heads:
            raise ValueError("n_heads must divide embed_dim")
        if self.encoding not in ENCODINGS:
            raise ValueError(f"encoding must be one of {ENCODINGS}")

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.n_heads

    @property
    def attention_input_dim(self) -> int:
        # attnhp attends over concat(1; z(t); h), everything else over h
        return 2 * self.embed_dim + 1 if self.encoding == "attnhp" else self.embed_dim


@dataclass(frozen=True)
class MixtureParams:
    """Log-normal mixture over a positive interval: simplex weights,
    component log-means, positive component scales, as float arrays of
    shape (M,) for one mixture or (R, M) for R stacked rows. Its three
    arrays travel together, where the mark law of the same rows is one
    array of probabilities and needs no record. The sampling forwards make
    each row once: _head_rows checks the heads' pre-activations, takes the
    weights from one softmax of their logits and writes every row into the
    cache's head rows, which the returned arrays are views of. A mixture
    built elsewhere is not checked when it is made, but where it is used:
    _mixture_logpdf refuses a scale <= 0, and sample_interval refuses a
    draw that is not positive and finite."""

    weights: np.ndarray
    means: np.ndarray
    scales: np.ndarray

    def row(self, i: int | slice) -> "MixtureParams":
        """Row i, or the rows of a slice, of stacked mixtures."""
        return MixtureParams(self.weights[i], self.means[i], self.scales[i])


@dataclass
class ModelCheckpoint:
    """Configuration plus named parameter arrays."""

    config: ModelConfig
    params: dict[str, np.ndarray]

    def copy(self) -> "ModelCheckpoint":
        return ModelCheckpoint(self.config, {k: v.copy() for k, v in self.params.items()})


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    d, m, k = config.embed_dim, config.n_components, config.n_marks
    shapes: dict[str, tuple[int, ...]] = {
        "mark_embedding": (k, d),
        "initial_context": (d,),
    }
    if config.encoding == "sahp":
        shapes["time_freq"] = (d,)
    for layer in range(config.n_layers):
        for name in ("q", "k", "v"):
            shapes[f"layers.{layer}.{name}"] = (config.attention_input_dim, d)
    shapes.update({
        "decoder_proj": (3 * d, d),
        "mix_weight_proj": (m, d),
        "mix_weight_bias": (m,),
        "mix_mean_proj": (m, d),
        "mix_mean_bias": (m,),
        "mix_scale_proj": (m, d),
        "mix_scale_bias": (m,),
        "mark_hidden_proj": (d, d),
        "mark_hidden_bias": (d,),
        "mark_out_proj": (k, d),
        "mark_out_bias": (k,),
    })
    return shapes


def init_checkpoint(config: ModelConfig, rng: RngStream) -> ModelCheckpoint:
    """Fan-in uniform init for matrices and the context vector, zero biases,
    unit SAHP frequencies."""
    bound = 1.0 / math.sqrt(config.embed_dim)
    params: dict[str, np.ndarray] = {}
    for name, shape in parameter_shapes(config).items():
        if name == "time_freq":
            params[name] = np.ones(shape)
        elif name.endswith("_bias"):
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.generator.uniform(-bound, bound, size=shape)
    return ModelCheckpoint(config, params)


def save_checkpoint(path: str | Path, checkpoint: ModelCheckpoint) -> None:
    """Write the document {"config", "format_version", "params": {name:
    {"data", "shape"}}} as json.dumps(doc, sort_keys=True) would. json.dump
    never uses json's C encoder, so the C encoder encodes the head and then
    one parameter at a time, in sorted order ("params" sorts last); the
    whole document is never held as one string."""
    encode = json.JSONEncoder(sort_keys=True).encode
    head = encode({"config": asdict(checkpoint.config),
                   "format_version": CHECKPOINT_FORMAT_VERSION})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head[:-1] + ', "params": {')
        separator = ""
        for name in sorted(checkpoint.params):
            value = checkpoint.params[name]
            fh.write(f"{separator}{encode(name)}: ")
            fh.write(encode({"data": value.ravel().tolist(), "shape": list(value.shape)}))
            separator = ", "
        fh.write("}}")


def load_checkpoint(path: str | Path) -> ModelCheckpoint:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise CheckpointFormatError("a checkpoint must be a JSON object")
    version = doc.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointFormatError(
            f"unsupported checkpoint format_version {version!r}; "
            f"this build reads version {CHECKPOINT_FORMAT_VERSION}")
    for name in ("config", "params"):
        if name not in doc:
            raise CheckpointFormatError(f"checkpoint has no {name!r} field")
    try:
        config = ModelConfig(**doc["config"])
    except (TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"checkpoint config is not a valid ModelConfig: {exc}")
    entries = doc["params"]
    if not isinstance(entries, dict) or not all(isinstance(e, dict) for e in entries.values()):
        raise CheckpointFormatError("checkpoint params must map names to objects "
                                    "with a shape and data")
    params = {}
    for name, entry in entries.items():
        shape, data = entry.get("shape"), entry.get("data")
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise CheckpointFormatError(f"parameter {name!r} has shape {shape!r}, "
                                        "not a list of non-negative integers")
        # one type per value: a string, a bool or a nested list is refused,
        # where np.asarray would parse, cast or flatten it
        if not isinstance(data, list) or not _JSON_NUMBERS.issuperset(map(type, data)):
            raise CheckpointFormatError(f"parameter {name!r} data are not a flat list "
                                        "of JSON numbers")
        try:
            params[name] = np.asarray(data, dtype=float).reshape(shape)
        except (OverflowError, ValueError) as exc:
            raise CheckpointFormatError(f"parameter {name!r} data do not fit "
                                        f"its shape {shape}: {exc}") from None
    expected = parameter_shapes(config)
    if set(params) != set(expected):
        raise CheckpointFormatError("checkpoint parameters do not match its configuration")
    for name, shape in expected.items():
        if tuple(params[name].shape) != tuple(shape):
            raise CheckpointFormatError(f"parameter {name!r} has shape {params[name].shape}, "
                                        f"expected {shape}")
        if not np.all(np.isfinite(params[name])):
            raise ValueError(f"parameter {name!r} contains non-finite values")
    return ModelCheckpoint(config, params)


# ---------------------------------------------------------------------------
# temporal encoding
# ---------------------------------------------------------------------------

def _encoding_constants(config: ModelConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-dimension constants of the config's temporal encoding, which
    its Weights hold: the boolean even and odd dimension masks and thp's
    divisors, attnhp's frequencies or sahp's phases."""
    j = np.arange(config.embed_dim)
    expo = (j - (j % 2)) / config.embed_dim
    even = j % 2 == 0
    if config.encoding == "attnhp":
        per_dim = (1.0 / _ATTNHP_M) * np.power(5.0 * _ATTNHP_BIG_M / _ATTNHP_M, expo)
    elif config.encoding == "sahp":
        per_dim = j / np.power(10000.0, expo)
    else:
        per_dim = np.power(10000.0, expo)
    return even, ~even, per_dim


def _temporal_encoding_tensor(times: np.ndarray, weights: Weights, config: ModelConfig):
    """Encode times (N,) into (N, D) rows; only SAHP's frequencies carry
    gradients."""
    even, odd, per_dim = weights.encoding_constants
    t_col = times.reshape(-1, 1)
    if config.encoding == "thp":
        # the sine, with the odd dimensions overwritten by the cosine: the
        # same bits as sin * even + cos * odd
        arg = t_col / per_dim
        return np.cos(arg, out=np.sin(arg), where=odd)
    if config.encoding == "attnhp":
        return np.sin(t_col * per_dim)
    # sahp: learnable per-dimension frequencies shift a fixed positional phase
    ops = weights.ops
    arg = ops.add(per_dim, ops.mul(weights.time_freq, t_col))
    return ops.add(ops.mul(ops.sin(arg), even), ops.mul(ops.cos(arg), odd))


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Weights:
    """What a forward reads, built by _fused_weights from one parameter set:
    the fused matrices, the temporal encoding's constants, the head width,
    and the ops every forward calls, autodiff's on the tape or
    autodiff.plain on raw arrays."""

    mark_embedding: np.ndarray | Tensor
    initial_context: np.ndarray | Tensor  # one (1, d) row
    time_freq: np.ndarray | Tensor | None  # None except for sahp
    qkv: list  # per layer
    heads: tuple  # input projection and bias, mark output projection and bias
    ops: object  # the autodiff module, or autodiff.plain
    encoding_constants: tuple  # of the temporal encoding
    head_dim: int


def _fused_weights(params: dict[str, np.ndarray | Tensor], config: ModelConfig) -> Weights:
    """The Weights of named parameters, raw arrays or Tensors on the tape:
    each layer's (d_in, 3d) q|k|v matrix with 1/sqrt(head_dim) folded into
    its query block, and the heads' (d, 3M+d) and (d, K) products. Its
    ``ops`` are ``autodiff`` itself when a parameter is a Tensor, and
    ``autodiff.plain`` otherwise, so a forward on raw arrays calls numpy
    without asking each op whether a tape is being built."""
    d, scale = config.embed_dim, 1.0 / math.sqrt(config.head_dim)
    ops = ad if any(isinstance(p, Tensor) for p in params.values()) else ad.plain
    qkv = [ops.concat([ops.mul(params[f"layers.{layer}.q"], scale), params[f"layers.{layer}.k"],
                       params[f"layers.{layer}.v"]], axis=1)
           for layer in range(config.n_layers)]
    proj = params["decoder_proj"]
    rows = ops.concat([ops.matmul(params["mix_weight_proj"], proj[:d]),
                       ops.matmul(params["mix_mean_proj"], proj[d:2 * d]),
                       ops.matmul(params["mix_scale_proj"], proj[2 * d:]),
                       params["mark_hidden_proj"]], axis=0)
    bias = ops.concat([params["mix_weight_bias"], params["mix_mean_bias"],
                       params["mix_scale_bias"], params["mark_hidden_bias"]])
    heads = (ops.transpose(rows), bias, ops.transpose(params["mark_out_proj"]),
             params["mark_out_bias"])
    return Weights(params["mark_embedding"], ops.reshape(params["initial_context"], (1, d)),
                   params.get("time_freq"), qkv, heads, ops, _encoding_constants(config),
                   config.head_dim)


def _embed_tensor(times: np.ndarray, marks: np.ndarray, weights: Weights,
                  config: ModelConfig):
    if marks.size == 1:
        # one row, as in a cached one-row pass: a Python compare
        in_range = 0 <= marks[0] < config.n_marks
    else:
        in_range = not marks.size or (np.minimum.reduce(marks) >= 0
                                      and np.maximum.reduce(marks) < config.n_marks)
    if not in_range:
        raise ValueError("mark out of range for the checkpoint configuration")
    z = _temporal_encoding_tensor(times, weights, config)
    x = weights.ops.add(weights.ops.take(weights.mark_embedding, marks), z)
    return x, z


def _encode_tensor(times: np.ndarray, marks: np.ndarray, weights: Weights,
                   config: ModelConfig, past: EncoderCache | None = None):
    """Final-layer rows of the given events. With a ``past``, the events
    follow the ``past.size`` events it holds: their keys and values are
    stored in its buffers after the held ones, and new rows attend over
    [past; new]; without one the past is empty. The attention op is causal
    and builds its own masks, so a span longer than two attention blocks,
    such as a long sequence's no-past forward in training, forms scores
    only up to each block's last row."""
    x, z = _embed_tensor(times, marks, weights, config)
    ops = weights.ops
    n, heads, head_dim = times.size, config.n_heads, weights.head_dim
    attnhp = config.encoding == "attnhp"
    ones_col = np.ones((n, 1)) if attnhp else None
    if past is not None:
        held, end = past.size, past.size + n
    h = x
    for layer in range(config.n_layers):
        inputs = ops.concat([ones_col, z, h], axis=1) if attnhp else h
        # (n, 3d) -> (3, heads, n, head_dim): the queries, keys and values of
        # every head; one row's order is already that, and needs no transpose
        proj = ops.matmul(inputs, weights.qkv[layer])
        if n > 1:
            proj = ops.transpose(ops.reshape(proj, (n, 3, heads, head_dim)), (1, 2, 0, 3))
        else:
            proj = ops.reshape(proj, (3, heads, 1, head_dim))
        q, k, v = proj[0], proj[1], proj[2]
        if past is not None:
            keys, values = past._keys[layer], past._values[layer]
            keys[:, held:end] = k
            values[:, held:end] = v
            k, v = keys[:, :end], values[:, :end]
        # attnhp's softmax has a +1 in its denominator
        attended = ops.attention(q, k, v, plus_one=attnhp)
        if n > 1:
            # (heads, n, head_dim) -> (n, heads, head_dim), as for the projection
            attended = ops.transpose(attended, (1, 0, 2))
        agg = ops.reshape(attended, (n, config.embed_dim))
        if attnhp:
            agg = ops.tanh(agg)
        h = ops.add(h, agg)
    return h


def _context_tensor(times: np.ndarray, marks: np.ndarray, weights: Weights,
                    config: ModelConfig):
    """Row i is the conditioning context for the (i+1)-th event; row 0 is
    the learned begin-of-sequence context, and the last row conditions the
    survival term."""
    if times.size == 0:
        return weights.initial_context
    h = _encode_tensor(times, marks, weights, config)
    return weights.ops.concat([weights.initial_context, h], axis=0)


class EncoderCache:
    """The keys and values of every attention layer and the final hidden
    rows of the events one checkpoint has encoded, so that a forward pass
    encodes only the events it does not hold.

    Passed to ``next_event_distributions`` or ``position_distributions``, it
    keeps the rows of the longest prefix of the events whose times and marks
    match the held ones exactly, drops the rest, and encodes the
    remainder: a rollback after a rejected draft is just a call with the
    shorter or diverging events. It keeps the bytes of the last forward's
    times and marks, so an extension of the held events, the common case,
    is found by one memory compare per array; only a rollback compares
    elementwise. It builds the Weights of the checkpoint's raw arrays once,
    so its forwards fuse no matrix and build no tape. The events it lacks
    are encoded in consecutive blocks of at most ``autodiff.ATTENTION_BLOCK``
    rows, each attending over the rows held before it, and their final
    hidden rows are written into one buffer. The context rows of a forward
    are a view of that buffer, so a one-row pass reads its one row and
    joins no arrays.
    Beside each position's hidden row it keeps that position's head rows:
    ``head_rows`` holds the mixture weights, means and scales and the mark
    probabilities, with row i for the next event after the first i events.
    A forward's heads write the rows they make there, and the mixture and
    mark probabilities it returns are views of them, valid until a later
    forward of the cache writes the same positions. So a draft's gamma
    one-row passes leave the rows of all its candidates side by side, with
    no copy.
    Over its life it counts its forwards in ``passes`` and the events they
    encoded in ``rows_encoded``; a sampling run reports its caches' totals.
    Every layer's keys and values live in one float64 array of shape
    (layers, 2, heads, capacity, head_dim); layer l's keys are its [l, 0]
    and its values its [l, 1], (heads, capacity, head_dim) views in which
    each head's rows are contiguous over positions. A cache that must hold
    n events grows to capacity max(2n, n + 128), with one allocation and
    one copy, and rebuilds the views. So a sampling run sizes its caches
    once, at its first forward, with room for the history and 128 more
    events, a dozen draft steps at gamma 10, and the events sampled after a
    long history do not reallocate them. One array rather than one per
    layer and part is faster once it holds 4 MiB or more, that is
    layers * 2 * embed_dim * capacity * 8 bytes >= 4 MiB: numpy asks the
    kernel for transparent huge pages on an array that large, and glibc
    reuses its one freed block for the next run's cache instead of mapping
    and trimming 2 * layers small ones, each faulted in page by page.
    perfbench's 20-layer target after a 250-event history holds about
    7.7 MB (capacity 500): a sample-long pass of 12 AR and 24 SD runs took
    about 14k and 37k minor page faults with one buffer per layer and
    part, and takes next to none with one array. A target
    sized by a short history (about 2 MB at capacity 129) and every
    1-layer draft stay below the mark. A capacity-first layout,
    (capacity, layers, 2, heads, head_dim), also removed the faults, but
    with each head's rows strided apart over positions SD ran 4-14% and
    AR 2-11% slower in 4 of 4 paired 20-s sample-long runs. The
    checkpoint's parameters must not change while the cache is in use, nor
    the dtypes of the times and marks that its forwards read (float and
    int, as an EventSequence's and a sampling run's are).
    """

    def __init__(self, checkpoint: ModelCheckpoint) -> None:
        self.checkpoint = checkpoint
        config = checkpoint.config
        self.weights = _fused_weights(checkpoint.params, config)
        self.size = self.passes = self.rows_encoded = 0
        # the bytes of the last forward's times and marks; the first size events are held
        self._held = (b"", b"")
        self.hidden = np.empty((0, config.embed_dim))
        m = config.n_components
        self.head_rows = (np.empty((1, m)), np.empty((1, m)), np.empty((1, m)),
                          np.empty((1, config.n_marks)))
        self._kv = np.empty((config.n_layers, 2, config.n_heads, 0, self.weights.head_dim))
        self._keys, self._values = list(self._kv[:, 0]), list(self._kv[:, 1])

    def _reserve(self, n: int) -> None:
        """Grow the buffers to capacity max(2n, n + _CACHE_ROOM), keeping the
        held rows and the head rows up to position ``size``."""
        capacity = max(2 * n, n + _CACHE_ROOM)

        def grown(buffer: np.ndarray, axis: int = 0, extra: int = 0) -> np.ndarray:
            shape = list(buffer.shape)
            shape[axis] = capacity + extra
            out = np.empty(shape, dtype=buffer.dtype)
            held = (slice(None),) * axis + (slice(self.size + extra),)
            out[held] = buffer[held]
            return out

        self.hidden = grown(self.hidden)
        self.head_rows = tuple(grown(rows, extra=1) for rows in self.head_rows)
        self._kv = grown(self._kv, 3)
        self._keys, self._values = list(self._kv[:, 0]), list(self._kv[:, 1])

    def context(self, events: EventSequence, checkpoint: ModelCheckpoint) -> np.ndarray:
        """Context rows from the first position the cache does not hold up
        to the end of ``events``, encoding only the events it lacks, in
        blocks of at most ``autodiff.ATTENTION_BLOCK`` rows. The rows are a
        view of the cache's buffer, valid until its next forward. Only
        ``events.times`` and ``events.marks`` are read: an EventSequence's,
        or the arrays a sampling run keeps."""
        if checkpoint is not self.checkpoint:
            raise ValueError("the cache belongs to another checkpoint")
        times, marks = events.times, events.marks
        n = times.size
        time_bytes, mark_bytes = times.tobytes(), marks.tobytes()
        shared = min(self.size, n)
        # the first shared events of the last forward; a slice of all of them copies nothing
        held_times = self._held[0][:times.itemsize * shared]
        held_marks = self._held[1][:marks.itemsize * shared]
        if time_bytes.startswith(held_times) and mark_bytes.startswith(held_marks):
            # the common case, an extension of the held events: every held row is kept
            start = shared
        else:
            differs = ((np.frombuffer(held_times, times.dtype) != times[:shared])
                       | (np.frombuffer(held_marks, marks.dtype) != marks[:shared])).nonzero()[0]
            start = int(differs[0]) if differs.size else shared
        # set before encoding, so that a block that raises leaves the held events consistent
        self.size, self._held = start, (time_bytes, mark_bytes)
        if n > len(self.hidden):
            self._reserve(n)
        while self.size < n:
            new = slice(self.size, min(self.size + ad.ATTENTION_BLOCK, n))
            self.hidden[new] = _encode_tensor(times[new], marks[new], self.weights,
                                              checkpoint.config, self)
            self.size = new.stop
        self.passes, self.rows_encoded = self.passes + 1, self.rows_encoded + n - start
        if start:
            return self.hidden[start - 1:n]
        return np.concatenate([self.weights.initial_context, self.hidden[:n]])


# ---------------------------------------------------------------------------
# decoder heads
# ---------------------------------------------------------------------------

def _head_products(ctx, weights: Weights, config: ModelConfig):
    """The fused heads' pre-activations and mark logits of each context row,
    or of one row given as a vector: one product and bias give every row's
    weight logits, log-means, log-scales and mark hidden layer, in that
    order, and the mark output product follows."""
    w_in, b_in, w_out, b_out = weights.heads
    ops = weights.ops
    pre = ops.add(ops.matmul(ctx, w_in), b_in)
    return pre, ops.add(ops.matmul(ops.tanh(pre[..., 3 * config.n_components:]), w_out), b_out)


def _head_tensors(ctx, weights: Weights, config: ModelConfig):
    """Mixture log-weights/means/scales and mark logits of the heads'
    products, for the likelihood, on the tape in training."""
    pre, mark_logits = _head_products(ctx, weights, config)
    ops, m = weights.ops, config.n_components
    w_logits, mu, log_sigma = pre[..., :m], pre[..., m:2 * m], pre[..., 2 * m:3 * m]
    log_w = ops.sub(w_logits, ops.logsumexp(w_logits, axis=-1, keepdims=True))
    sigma = ops.clip(ops.exp(log_sigma), SIGMA_MIN, SIGMA_MAX)
    return log_w, mu, sigma, mark_logits


def _check_head_rows(pre: np.ndarray, mark_logits: np.ndarray) -> None:
    """The one check of a sampling forward's head rows: the heads'
    pre-activations and mark logits are finite. From finite ones the
    softmaxes make simplex weights and probabilities and the clip positive
    scales, so only a non-finite pre-activation or logit can make a row
    invalid; the check also refuses a +inf log-scale, which the clip would
    turn into SIGMA_MAX."""
    if not (np.logical_and.reduce(np.isfinite(pre), axis=None)
            and np.logical_and.reduce(np.isfinite(mark_logits), axis=None)):
        raise FloatingPointError("head rows contain non-finite values")


def _head_rows(ctx, cache: EncoderCache, at: int | slice) -> tuple[MixtureParams, np.ndarray]:
    """The mixtures and mark probabilities of the context rows ``ctx``, or
    of one row given as a vector, made once and written at positions ``at``
    of the cache's head rows; the returned arrays are views of them. After
    the one check, on the pre-activations, the weights and the mark
    probabilities come from one softmax each of their logits and the scales
    from the clipped exp of the log-scales, every step writing into the
    rows."""
    config = cache.checkpoint.config
    pre, mark_logits = _head_products(ctx, cache.weights, config)
    _check_head_rows(pre, mark_logits)
    m = config.n_components
    weight_rows, mean_rows, scale_rows, probability_rows = cache.head_rows
    weights, means, scales = weight_rows[at], mean_rows[at], scale_rows[at]
    probabilities = probability_rows[at]
    for logits, out in ((pre[..., :m], weights), (mark_logits, probabilities)):
        np.exp(np.subtract(logits, np.maximum.reduce(logits, axis=-1, keepdims=True), out=out),
               out=out)
        np.divide(out, np.add.reduce(out, axis=-1, keepdims=True), out=out)
    means[...] = pre[..., m:2 * m]
    np.exp(pre[..., 2 * m:3 * m], out=scales)
    np.minimum(np.maximum(scales, SIGMA_MIN, out=scales), SIGMA_MAX, out=scales)
    return MixtureParams(weights, means, scales), probabilities


def position_distributions(events: EventSequence, checkpoint: ModelCheckpoint, *,
                           cache: EncoderCache | None = None
                           ) -> tuple[MixtureParams, np.ndarray]:
    """Next-event distributions at every position, from one batched forward:
    the interval mixtures and the (N+1, K) mark probabilities.

    Row i conditions on events[:i] (row 0 is the begin-of-sequence
    context), so every array has N+1 rows. Equality of these rows with
    per-prefix recomputation is what makes batched verification valid.
    With a cache, the rows start at the first position it did not hold:
    they are the last N+1-P rows, where P events were reused. Without one,
    the call encodes all events through a fresh cache. The rows are views
    of the cache's head rows, valid until its next forward writes their
    positions.
    """
    cache = EncoderCache(checkpoint) if cache is None else cache
    ctx = cache.context(events, checkpoint)
    end = cache.size + 1
    return _head_rows(ctx, cache, slice(end - len(ctx), end))


def next_event_distributions(events: EventSequence, checkpoint: ModelCheckpoint, *,
                             cache: EncoderCache | None = None
                             ) -> tuple[MixtureParams, np.ndarray]:
    """Distributions of the next interval and mark given the events so far,
    as a mixture and a (K,) array of mark probabilities: the last row of
    position_distributions, with the heads run on that row only, as a
    vector, and written at the last position of the cache's head rows, of
    which the arrays are views."""
    cache = EncoderCache(checkpoint) if cache is None else cache
    ctx = cache.context(events, checkpoint)
    return _head_rows(ctx[-1], cache, cache.size)


# ---------------------------------------------------------------------------
# mixture density and sampling
# ---------------------------------------------------------------------------

def _mixture_log_density(log_tau, log_w, mu, sigma, ops):
    """Log-density of the log-normal mixture with log-weights, log-means
    and scales along the last axis, at the intervals whose logs ``log_tau``
    (with a trailing axis of 1) broadcast against the leading axes, by
    ``ops``: autodiff's for taped head rows, which give a Tensor, or
    autodiff.plain for plain arrays."""
    z = ops.div(ops.sub(log_tau, mu), sigma)
    comp = ops.sub(ops.sub(ops.sub(log_w, log_tau + 0.5 * _LOG_2PI), ops.log(sigma)),
                   ops.mul(ops.mul(z, z), 0.5))
    return ops.logsumexp(comp, axis=-1)


def _mixture_logpdf(tau: np.ndarray, params: MixtureParams) -> np.ndarray:
    """Log-density of the log-normal mixture at an array of intervals tau > 0,
    via log-sum-exp; -inf where every component's density underflows.
    ``tau`` broadcasts against the leading (row) axes of the parameters:
    many values against one mixture, or one value per stacked row. A scale
    <= 0 raises ValueError (the plain log op refuses it); tau is not
    checked and no error state is set: the caller passes positive intervals
    and ignores divide, over and invalid floating-point errors."""
    out = _mixture_log_density(np.log(tau)[..., np.newaxis], np.log(params.weights),
                               params.means, params.scales, ad.plain)
    return np.where(np.isnan(out), -np.inf, out)


def sample_interval(params: MixtureParams, rng: RngStream) -> float:
    """Draw tau by picking a component then exponentiating a scaled normal.
    Only tau is returned: a caller that needs its density under the full
    mixture scores the intervals it holds with one _mixture_logpdf call."""
    component = rng.categorical(params.weights)
    eps = float(rng.normal())
    try:
        tau = math.exp(params.means[component] + params.scales[component] * eps)
    except OverflowError:
        raise FloatingPointError("sampled interval overflowed") from None
    if not 0.0 < tau < math.inf:
        raise FloatingPointError(f"sampled interval {tau} is not a positive finite number")
    return tau


# ---------------------------------------------------------------------------
# sequence log-likelihood
# ---------------------------------------------------------------------------

def _loglik_tensor(seq: EventSequence, weights: Weights, config: ModelConfig):
    """The sequence's log-likelihood as a scalar of ``weights.ops``: a Tensor
    on the tape in training, a float otherwise. A sequence that
    check_sequence refuses on the checkpoint's mark count raises ValueError,
    in sequence_loglik and nll_batch alike."""
    times, marks = check_sequence(seq, config.n_marks)
    n = times.size
    taus = np.diff(np.concatenate([[0.0], times]))
    ops = weights.ops
    ctx = _context_tensor(times, marks, weights, config)
    log_w, mu, sigma, mark_logits = _head_tensors(ctx, weights, config)
    density = _mixture_log_density(np.log(taus).reshape(-1, 1), log_w[:n, :], mu[:n, :],
                                   sigma[:n, :], ops)
    total = ops.tensor_sum(density)
    mark_lsm = ops.sub(mark_logits, ops.logsumexp(mark_logits, axis=-1, keepdims=True))
    total = ops.add(total, ops.tensor_sum(mark_lsm[np.arange(n), marks]))
    tail = seq.t_end - (times[-1] if n else 0.0)
    if tail > 0.0:
        z_tail = ops.div(ops.sub(math.log(tail), mu[n:, :]), sigma[n:, :])
        survival = ops.tensor_sum(ops.mul(ops.exp(log_w[n:, :]),
                                          ops.normal_cdf(ops.mul(z_tail, -1.0))))
        total = ops.add(total, ops.log(ops.clip(survival, 1e-300, np.inf)))
    return total


def sequence_loglik(seq: EventSequence, checkpoint: ModelCheckpoint) -> float:
    """CDF-form log-likelihood: interval and mark log-densities at each event
    plus the log-probability that no further event occurs before t_end.
    Raises FloatingPointError if it is not finite, which only non-finite
    head rows cause: the survival term is clipped at 1e-300 and every scale
    to [SIGMA_MIN, SIGMA_MAX]. A sequence that check_sequence refuses
    raises ValueError."""
    weights = _fused_weights(checkpoint.params, checkpoint.config)
    value = float(_loglik_tensor(seq, weights, checkpoint.config))
    if not math.isfinite(value):
        raise FloatingPointError(f"non-finite sequence log-likelihood {value}")
    return value
