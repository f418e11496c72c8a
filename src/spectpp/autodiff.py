"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

Each operation returns a new :class:`Tensor` holding its forward value and,
when any input requires gradients, a closure that propagates the adjoint to
its parents. ``backward`` walks the resulting DAG once in reverse
topological order. Only the primitives the sequence model needs are
implemented; all of them are covered by finite-difference checks.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

import numpy as np
from scipy.special import ndtr

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Tensor:
    """A dense array plus optional backward closure on the autodiff tape."""

    __slots__ = ("data", "grad", "_parents", "_backward", "requires_grad")

    def __init__(self, data, parents=(), backward=None, requires_grad=False):
        self.data = np.asarray(data, dtype=float)
        self.grad = None
        self._parents = parents
        self._backward = backward
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

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
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        for node in order:
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
        self.grad = self.grad + np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)

    def __getitem__(self, key):
        return take(self, key)

    @property
    def T(self):
        return transpose(self)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted adjoint back to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _from_op(data: np.ndarray, parents: tuple, backward: Callable) -> Tensor:
    grad_parents = tuple(p for p in parents if p.requires_grad)
    if not grad_parents:
        return Tensor(data)
    return Tensor(data, parents=grad_parents, backward=backward, requires_grad=True)


def _accumulate(parent: Tensor, grad: np.ndarray) -> None:
    if parent.requires_grad:
        parent.grad = parent.grad + grad


# -- elementwise arithmetic --------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _from_op(out, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _from_op(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _from_op(out, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _from_op(out, (a, b), backward)


# -- linear algebra and shape ops --------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data @ b.data

    def backward(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _from_op(out, (a, b), backward)


def transpose(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, g.T)

    return _from_op(a.data.T, (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = tuple(as_tensor(t) for t in tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            key = [slice(None)] * g.ndim
            key[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(key)])

    return _from_op(out, tensors, backward)


def take(a, key) -> Tensor:
    """Basic or integer-array indexing with scatter-add backward."""
    a = as_tensor(a)
    out = a.data[key]

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, key, g)
            a.grad = a.grad + full

    return _from_op(out, (a,), backward)


def where(keep: np.ndarray, a, fill: float) -> Tensor:
    """Entries of ``a`` where ``keep`` holds and ``fill`` elsewhere; the
    adjoint reaches only the kept entries."""
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, np.where(keep, g, 0.0))

    return _from_op(np.where(keep, a.data, fill), (a,), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, g.reshape(a.data.shape))

    return _from_op(a.data.reshape(shape), (a,), backward)


# -- nonlinearities -----------------------------------------------------------

def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)

    def backward(g):
        _accumulate(a, g * out)

    return _from_op(out, (a,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data <= 0.0):
        raise ValueError("log of non-positive value")
    out = np.log(a.data)

    def backward(g):
        _accumulate(a, g / a.data)

    return _from_op(out, (a,), backward)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)

    def backward(g):
        _accumulate(a, g * (1.0 - out * out))

    return _from_op(out, (a,), backward)


def sin(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, g * np.cos(a.data))

    return _from_op(np.sin(a.data), (a,), backward)


def cos(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, -g * np.sin(a.data))

    return _from_op(np.cos(a.data), (a,), backward)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes through unclamped entries only."""
    a = as_tensor(a)
    out = np.clip(a.data, lo, hi)

    def backward(g):
        _accumulate(a, g * ((a.data >= lo) & (a.data <= hi)))

    return _from_op(out, (a,), backward)


def normal_cdf(a) -> Tensor:
    """Standard normal CDF; the derivative is the normal density."""
    a = as_tensor(a)
    out = ndtr(a.data)

    def backward(g):
        _accumulate(a, g * _INV_SQRT_2PI * np.exp(-0.5 * a.data * a.data))

    return _from_op(np.asarray(out, dtype=float), (a,), backward)


# -- reductions ----------------------------------------------------------------

def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    return _from_op(out, (a,), backward)


def logsumexp(a, axis: int = -1, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out = m + np.log(s)
    weights = e / s
    if not keepdims:
        out = np.squeeze(out, axis=axis)

    def backward(g):
        g = np.asarray(g)
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, g * weights)

    return _from_op(out, (a,), backward)


# -- gradient checking ----------------------------------------------------------

def grad_check(fn: Callable[[Mapping[str, Tensor]], Tensor],
               params: Mapping[str, np.ndarray],
               step: float = 1e-5) -> float:
    """Max relative error between reverse-mode and central-difference grads.

    Per coordinate the step is ``step * max(1, |theta|)`` and the error is
    ``|analytic - fd| / max(1e-8, |fd|)``; the returned value is the max
    over all coordinates of all parameters.
    """
    tensors = {k: Tensor(np.array(v, dtype=float), requires_grad=True) for k, v in params.items()}
    out = fn(tensors)
    out.backward()
    worst = 0.0
    for name, base in params.items():
        analytic = tensors[name].grad
        if analytic is None or not np.all(np.isfinite(analytic)):
            raise FloatingPointError(f"non-finite or missing gradient for {name!r}")
        flat = np.array(base, dtype=float).ravel()
        for i in range(flat.size):
            h = step * max(1.0, abs(flat[i]))
            for sign, store in ((+1.0, "hi"), (-1.0, "lo")):
                probe = {k: np.array(v, dtype=float) for k, v in params.items()}
                probe[name].ravel()[i] += sign * h
                value = fn({k: Tensor(v) for k, v in probe.items()}).item()
                if store == "hi":
                    hi = value
                else:
                    lo = value
            fd = (hi - lo) / (2.0 * h)
            err = abs(float(analytic.ravel()[i]) - fd) / max(1e-8, abs(fd))
            worst = max(worst, err)
    return worst
