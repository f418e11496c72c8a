"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

A :class:`Tensor` is a node of the tape and always receives a gradient;
constants are plain numpy arrays or numbers. Each operation takes either.
When none of its operands is a Tensor it returns the plain numpy result at
once, before it builds a backward closure or a tape node, which mixed taped
code relies on. Otherwise it returns a new Tensor holding the same forward
value and a closure that passes the adjoint to its Tensor operands.
Most operations are one (forward, adjoint) pair made into an op by the
one-operand or the two-operand template, so each forward is written once
for both paths. The namespace ``plain`` holds every op's forward under the
op's name, the same function the op runs, with no dispatch in front of it.
Whether to tape is decided by the caller, once: the model's Weights hold
this module as their ops when the parameters are Tensors and ``plain``
otherwise, so a sampling forward calls numpy directly and costs its numpy
calls alone. Softmax attention is one (forward, adjoint) pair of its own,
so an encoder layer attends with one op and one tape node; its softmax
works in the scores array in place, for training and inference alike, and
its plain forward attends one block in one frame. It is always causal, and
a span longer than two ATTENTION_BLOCKs runs in blocks of query rows that
skip most of the masked half of the scores, forward and backward.
``backward`` walks the resulting DAG once in reverse topological order.
Only the primitives the sequence model needs are implemented; all of them
are covered by finite-difference checks.
"""

from __future__ import annotations

import functools
import math
import operator
import types

import numpy as np
from scipy.special import ndtr

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# the plain forward of every op, under the op's name: what the op computes
# when none of its operands is a Tensor, called without the op's dispatch
plain = types.SimpleNamespace()


class Tensor:
    """A dense array on the autodiff tape, with the Tensors it was computed
    from and the closure that passes its adjoint to them."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data, dtype=float)
        self.grad = None
        self._parents = parents
        self._backward = backward

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every ancestor tensor."""
        if self.data.size != 1:
            raise ValueError("backward requires a scalar output")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        _accumulate(self, np.ones_like(self.data))
        for node in reversed(order):
            # every node but the output got its adjoint from a child before
            if node._backward is not None:
                node._backward(node.grad)

    def __getitem__(self, key):
        return take(self, key)


def value(x):
    """The array a Tensor holds, or ``x`` itself when it is not a Tensor."""
    return x.data if isinstance(x, Tensor) else x


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted adjoint back to the original operand shape."""
    while grad.ndim > len(shape):
        grad = np.add.reduce(grad, axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = np.add.reduce(grad, axis=axis, keepdims=True)
    return grad


def _swap_last(x: np.ndarray) -> np.ndarray:
    """The transpose of a matrix, or of each matrix in a stack."""
    return x.swapaxes(-1, -2) if x.ndim > 1 else x


def _accumulate(parent: Tensor, grad) -> None:
    """Add an adjoint into ``parent.grad``; the first one is stored as it is
    (adjoints are never written in place)."""
    parent.grad = grad if parent.grad is None else parent.grad + grad


def _tensors(operands) -> tuple:
    return tuple(p for p in operands if isinstance(p, Tensor))


def _unary(name: str, forward, adjoint):
    """The op of one operand with ``forward(x, *args)`` and the adjoint
    ``adjoint(g, x, out, *args)`` of its input, given the output's adjoint
    g, the input x and the output."""
    setattr(plain, name, forward)

    def op(a, *args):
        if not isinstance(a, Tensor):
            return forward(a, *args)
        x = a.data
        out = forward(x, *args)
        return Tensor(out, (a,), lambda g: _accumulate(a, adjoint(g, x, out, *args)))
    op.__name__ = op.__qualname__ = name
    return op


def _binary(name: str, forward, adjoint_a, adjoint_b):
    """The op of two operands with ``forward(x, y)`` and the adjoints
    ``adjoint_a(g, x, y)`` and ``adjoint_b(g, x, y)`` of each. An adjoint is
    computed only for an operand that is a Tensor, and summed back to its
    shape where the forward broadcast it."""
    setattr(plain, name, forward)

    def op(a, b):
        if not (isinstance(a, Tensor) or isinstance(b, Tensor)):
            return forward(a, b)
        x, y = value(a), value(b)

        def backward(g):
            for operand, own, adjoint in ((a, x, adjoint_a), (b, y, adjoint_b)):
                if isinstance(operand, Tensor):
                    _accumulate(operand, _unbroadcast(adjoint(g, x, y), np.shape(own)))

        return Tensor(forward(x, y), _tensors((a, b)), backward)
    op.__name__ = op.__qualname__ = name
    return op


# -- elementwise arithmetic and products --------------------------------------

add = _binary("add", operator.add, lambda g, x, y: g, lambda g, x, y: g)
sub = _binary("sub", operator.sub, lambda g, x, y: g, lambda g, x, y: -g)
mul = _binary("mul", operator.mul, lambda g, x, y: g * y, lambda g, x, y: g * x)
div = _binary("div", operator.truediv, lambda g, x, y: g / y,
              lambda g, x, y: -g * x / (y * y))
# matrix product, or one product per leading batch index
matmul = _binary("matmul", operator.matmul, lambda g, x, y: g @ _swap_last(y),
                 lambda g, x, y: _swap_last(x) @ g)


# -- shape ops -----------------------------------------------------------------

def _inverse_transpose(g, x, out, axes=None):
    return g.transpose(None if axes is None else [axes.index(i) for i in range(g.ndim)])


# permute the axes; by default reverse them
transpose = _unary("transpose", np.ndarray.transpose, _inverse_transpose)
reshape = _unary("reshape", np.ndarray.reshape, lambda g, x, out, shape: g.reshape(x.shape))

# index components that select each entry at most once
_BASIC_INDEX = (int, slice, type(None), type(Ellipsis))


def _scatter(g, x, out, key):
    full = np.zeros_like(x)
    if all(isinstance(k, _BASIC_INDEX) for k in (key if isinstance(key, tuple) else (key,))):
        full[key] = g
    else:
        np.add.at(full, key, g)  # an index array may repeat an entry
    return full


# basic or integer-array indexing with scatter-add backward
take = _unary("take", operator.getitem, _scatter)


plain.concat = np.concatenate


def concat(tensors, axis: int = 0):
    tensors = tuple(tensors)
    if not any(isinstance(t, Tensor) for t in tensors):
        return np.concatenate(tensors, axis=axis)
    arrays = [value(t) for t in tensors]

    def backward(g):
        lo, before = 0, (slice(None),) * (axis % g.ndim)
        for t, x in zip(tensors, arrays):
            hi = lo + x.shape[axis]
            if isinstance(t, Tensor):
                _accumulate(t, g[before + (slice(lo, hi),)])
            lo = hi

    return Tensor(np.concatenate(arrays, axis=axis), _tensors(tensors), backward)


# -- nonlinearities -----------------------------------------------------------

def _log(x):
    if np.logical_or.reduce(x <= 0.0, axis=None):
        raise ValueError("log of non-positive value")
    return np.log(x)


exp = _unary("exp", np.exp, lambda g, x, out: g * out)
log = _unary("log", _log, lambda g, x, out: g / x)
tanh = _unary("tanh", np.tanh, lambda g, x, out: g * (1.0 - out * out))
sin = _unary("sin", np.sin, lambda g, x, out: g * np.cos(x))
cos = _unary("cos", np.cos, lambda g, x, out: -g * np.sin(x))


def _clamp(x, lo, hi):
    """x clamped to [lo, hi] by the two ufuncs, not ndarray.clip's Python
    wrapper: the same values, and a NaN propagates."""
    return np.minimum(np.maximum(x, lo), hi)


# clamp values; the adjoint passes through unclamped entries only
clip = _unary("clip", _clamp,
              lambda g, x, out, lo, hi: g * ((x >= lo) & (x <= hi)))
# standard normal CDF; its derivative is the normal density
normal_cdf = _unary("normal_cdf", lambda x: np.asarray(ndtr(x), dtype=float),
                    lambda g, x, out: g * _INV_SQRT_2PI * np.exp(-0.5 * x * x))


# -- reductions ----------------------------------------------------------------

# the sum of every entry; every entry gets the scalar adjoint
tensor_sum = _unary("tensor_sum", lambda x: np.add.reduce(x, axis=None),
                    lambda g, x, out: np.broadcast_to(g, x.shape).copy())


def _logsumexp(x, axis: int = -1, keepdims: bool = False):
    """logsumexp of x along ``axis``, shifted by the maximum: the plain
    forward, in one frame."""
    m = np.maximum.reduce(x, axis=axis, keepdims=True)
    out = m + np.log(np.add.reduce(np.exp(x - m), axis=axis, keepdims=True))
    return out if keepdims else out.squeeze(axis)


plain.logsumexp = _logsumexp


def logsumexp(a, axis: int = -1, keepdims: bool = False):
    if not isinstance(a, Tensor):
        return _logsumexp(a, axis, keepdims)
    # the plain forward's steps, keeping exp(x - max) and its sum for the adjoint
    m = np.maximum.reduce(a.data, axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = np.add.reduce(e, axis=axis, keepdims=True)
    out = m + np.log(s)

    def backward(g):
        g = np.asarray(g)
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, g * (e / s))

    return Tensor(out if keepdims else out.squeeze(axis), (a,), backward)


# -- attention -----------------------------------------------------------------

# the most query rows that a blocked attention call forms scores for at once;
# the model's encoder cache hands the op at most this many rows per call
ATTENTION_BLOCK = 64


@functools.lru_cache(maxsize=None)
def _future(rows: int) -> np.ndarray:
    """The keys that a block of ``rows`` queries must not see among the
    block's own: the (rows, rows) strict upper triangle, built once per
    block size and read-only."""
    mask = ~np.tri(rows, dtype=bool)
    mask.flags.writeable = False
    return mask


# np.copyto's C function, called without its Python dispatcher
_copyto = np.copyto._implementation


def _attention(q, k, v, plus_one: bool = False, parts: list | None = None):
    """The plain forward of attention. A span of more than two
    ATTENTION_BLOCKs runs as _blocks' blocks. A shorter one, such as every
    call of the model's encoder cache, is one block, computed here in one
    frame: its last b keys are its b rows' own, so only the (b, b) tail
    triangle of its scores is masked. With ``parts``, the block's kernel
    and denominator, which the adjoint reads, are appended to it."""
    b = q.shape[-2]
    if b > 2 * ATTENTION_BLOCK:
        return np.concatenate(_blocks(q, k, v, plus_one, parts)[1], axis=-2)
    scores = q @ k.swapaxes(-1, -2)
    if b > 1:
        _copyto(scores[..., -b:], -math.inf, where=_future(b))
    shift = np.maximum.reduce(scores, axis=-1, keepdims=True)
    scores -= shift
    kernel = np.exp(scores, scores)
    denominator = np.add.reduce(kernel, axis=-1, keepdims=True)
    if plus_one:
        with np.errstate(over="ignore"):
            denominator += np.exp(-shift)
    out = kernel @ v
    out /= denominator
    if parts is not None:
        parts.append((kernel, denominator))
    return out


def _blocks(x, keys, values, plus_one: bool, parts: list | None = None):
    """The (first row, row after the last, keys seen) span of each block
    of query rows, and each block's output from _attention, which appends
    its kernel and denominator to ``parts``. Up to two ATTENTION_BLOCKs of
    rows are one block over all the keys; longer spans run in blocks of
    near-equal size, which form the fewest score entries for their count."""
    n, n_keys = x.shape[-2], keys.shape[-2]
    # below two blocks' rows a second block's 30-odd numpy calls cost more
    # than the score entries it saves (forward and backward on a 2-CPU Xeon,
    # one head of width 8 broke even near 110 rows and two heads near 90)
    if n <= 2 * ATTENTION_BLOCK:
        return ((0, n, n_keys),), [_attention(x, keys, values, plus_one, parts)]
    count = -(-n // ATTENTION_BLOCK)
    bounds = [n * j // count for j in range(count + 1)]
    spans = [(start, stop, n_keys - n + stop) for start, stop in zip(bounds, bounds[1:])]
    return spans, [_attention(x[..., start:stop, :], keys[..., :seen, :],
                              values[..., :seen, :], plus_one, parts)
                   for start, stop, seen in spans]


plain.attention = _attention


def attention(q, k, v, plus_one: bool = False):
    """Causal softmax attention of n queries over keys and values,
    matrices or stacks of them, whose last n keys are the queries' own:
    row i is sum_j P_ij v_j over the first len(k) - n + i + 1 keys, with
    P_ij proportional to exp(q_i . k_j). Each row of scores is shifted by
    its maximum, which P does not depend on. With ``plus_one`` the
    unshifted denominator gains a 1 (attnhp), which the shift turns into
    exp(-shift). The scores' adjoint is P * (dP - rowsum(g * out)), with
    dP = g v^T.

    A call of more than 2 * ATTENTION_BLOCK queries runs in
    ceil(n / ATTENTION_BLOCK) blocks of near-equal size, each forming
    scores only over the keys up to its last row, so most of the masked
    half of a long span is neither exponentiated nor differentiated; the
    adjoint walks the same blocks and adds each one's key and value
    adjoints over its key prefix. A shorter call, such as every call of
    the model's encoder cache, is one block over all the keys, bit for bit
    the dense masked form.

    The softmax runs in place: the scores are masked, shifted and
    exponentiated in the array their product made, and the output is
    divided in the array its product made, so a block allocates one
    score-sized array, not four. Each step is the same IEEE operation as
    its out-of-place form, so the results are the same bit for bit."""
    if not (isinstance(q, Tensor) or isinstance(k, Tensor) or isinstance(v, Tensor)):
        return _attention(q, k, v, plus_one)
    x, keys, values = value(q), value(k), value(v)
    parts = []
    spans, outs = _blocks(x, keys, values, plus_one, parts)
    out = outs[0] if len(outs) == 1 else np.concatenate(outs, axis=-2)

    def backward(g):
        g_out = np.add.reduce(g * out, axis=-1, keepdims=True)
        q_blocks, d_k, d_v = [], None, None
        # last block first: it sees every key, so its products start dk and dv
        for (start, stop, seen), (kernel, denominator) in zip(spans[::-1], parts[::-1]):
            rows, g_rows = x[..., start:stop, :], g[..., start:stop, :]
            weights = kernel / denominator
            # P * (dP - rowsum(g * out)), formed in the array dP's product made
            d_scores = g_rows @ _swap_last(values[..., :seen, :])
            d_scores -= g_out[..., start:stop, :]
            d_scores *= weights
            q_blocks.append(d_scores @ keys[..., :seen, :])
            block_k, block_v = _swap_last(d_scores) @ rows, _swap_last(weights) @ g_rows
            if d_k is None:
                d_k, d_v = block_k, block_v
            else:
                d_k[..., :seen, :] += block_k
                d_v[..., :seen, :] += block_v
        d_q = q_blocks[0] if len(q_blocks) == 1 else np.concatenate(q_blocks[::-1], axis=-2)
        for operand, grad in ((q, d_q), (k, d_k), (v, d_v)):
            if isinstance(operand, Tensor):
                _accumulate(operand, grad)

    return Tensor(out, _tensors((q, k, v)), backward)
