"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

Each operation takes Tensors, numpy arrays or numbers. When none of its
operands is a :class:`Tensor` it returns the plain numpy result at once,
before it builds a backward closure or a tape node, so the same model code
runs inference on raw parameter arrays at the cost of the numpy calls
alone. Otherwise it returns a new Tensor holding its forward value and,
when any operand requires gradients, a closure that propagates the adjoint
to its parents.
``backward`` walks the resulting DAG once in reverse topological order.
Only the primitives the sequence model needs are implemented; all of them
are covered by finite-difference checks.
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
        _accumulate(self, np.ones_like(self.data))
        for node in reversed(order):
            # every node but the output got its adjoint from a child before
            if node._backward is not None:
                node._backward(node.grad)

    def __getitem__(self, key):
        return take(self, key)

    @property
    def T(self):
        return transpose(self)


def value(x):
    """The array a Tensor holds, or ``x`` itself when it is not a Tensor."""
    return x.data if isinstance(x, Tensor) else x


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted adjoint back to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _swap_last(x: np.ndarray) -> np.ndarray:
    """The transpose of a matrix, or of each matrix in a stack."""
    return np.swapaxes(x, -1, -2) if x.ndim > 1 else x


def _from_op(out, operands: tuple, backward: Callable) -> Tensor:
    """A Tensor holding ``out`` whose tape links the operands that require
    gradients; every op returns its plain result itself before calling
    this when no operand is a Tensor."""
    parents = tuple(p for p in operands if isinstance(p, Tensor) and p.requires_grad)
    if not parents:
        return Tensor(out)
    return Tensor(out, parents=parents, backward=backward, requires_grad=True)


def _accumulate(parent, grad) -> None:
    """Add an adjoint, or what a function computing it returns, into
    ``parent.grad`` only when the parent needs one; the first one is stored
    as it is (adjoints are never written in place)."""
    if isinstance(parent, Tensor) and parent.requires_grad:
        grad = grad() if callable(grad) else grad
        parent.grad = grad if parent.grad is None else parent.grad + grad


# -- elementwise arithmetic --------------------------------------------------

def add(a, b):
    if not (isinstance(a, Tensor) or isinstance(b, Tensor)):
        return a + b
    x, y = value(a), value(b)

    def backward(g):
        _accumulate(a, lambda: _unbroadcast(g, np.shape(x)))
        _accumulate(b, lambda: _unbroadcast(g, np.shape(y)))

    return _from_op(x + y, (a, b), backward)


def sub(a, b):
    if not (isinstance(a, Tensor) or isinstance(b, Tensor)):
        return a - b
    x, y = value(a), value(b)

    def backward(g):
        _accumulate(a, lambda: _unbroadcast(g, np.shape(x)))
        _accumulate(b, lambda: _unbroadcast(-g, np.shape(y)))

    return _from_op(x - y, (a, b), backward)


def mul(a, b):
    if not (isinstance(a, Tensor) or isinstance(b, Tensor)):
        return a * b
    x, y = value(a), value(b)

    def backward(g):
        _accumulate(a, lambda: _unbroadcast(g * y, np.shape(x)))
        _accumulate(b, lambda: _unbroadcast(g * x, np.shape(y)))

    return _from_op(x * y, (a, b), backward)


def div(a, b):
    if not (isinstance(a, Tensor) or isinstance(b, Tensor)):
        return a / b
    x, y = value(a), value(b)

    def backward(g):
        _accumulate(a, lambda: _unbroadcast(g / y, np.shape(x)))
        _accumulate(b, lambda: _unbroadcast(-g * x / (y * y), np.shape(y)))

    return _from_op(x / y, (a, b), backward)


# -- linear algebra and shape ops --------------------------------------------

def matmul(a, b):
    """Matrix product, or one product per leading batch index."""
    if not (isinstance(a, Tensor) or isinstance(b, Tensor)):
        return a @ b
    x, y = value(a), value(b)

    def backward(g):
        _accumulate(a, lambda: g @ _swap_last(y))
        _accumulate(b, lambda: _swap_last(x) @ g)

    return _from_op(x @ y, (a, b), backward)


def transpose(a, axes=None):
    """Permute the axes; by default reverse them."""
    if not isinstance(a, Tensor):
        return a.transpose(axes)
    x = a.data

    def backward(g):
        inverse = None if axes is None else [axes.index(i) for i in range(g.ndim)]
        _accumulate(a, g.transpose(inverse))

    return _from_op(x.transpose(axes), (a,), backward)


def concat(tensors, axis: int = 0):
    tensors = tuple(tensors)
    if not any(isinstance(t, Tensor) for t in tensors):
        return np.concatenate(tensors, axis=axis)
    arrays = [value(t) for t in tensors]

    def backward(g):
        lo, before = 0, (slice(None),) * (axis % g.ndim)
        for t, x in zip(tensors, arrays):
            hi = lo + x.shape[axis]
            _accumulate(t, g[before + (slice(lo, hi),)])
            lo = hi

    return _from_op(np.concatenate(arrays, axis=axis), tensors, backward)


# index components that select each entry at most once
_BASIC_INDEX = (int, slice, type(None), type(Ellipsis))


def take(a, key):
    """Basic or integer-array indexing with scatter-add backward."""
    if not isinstance(a, Tensor):
        return a[key]
    x = a.data

    def backward(g):
        full = np.zeros_like(x)
        if all(isinstance(k, _BASIC_INDEX) for k in (key if isinstance(key, tuple) else (key,))):
            full[key] = g
        else:
            np.add.at(full, key, g)  # an index array may repeat an entry
        _accumulate(a, full)

    return _from_op(x[key], (a,), backward)


def where(keep: np.ndarray, a, fill: float):
    """Entries of ``a`` where ``keep`` holds and ``fill`` elsewhere; the
    adjoint reaches only the kept entries."""
    if not isinstance(a, Tensor):
        return np.where(keep, a, fill)
    x = a.data

    def backward(g):
        _accumulate(a, np.where(keep, g, 0.0))

    return _from_op(np.where(keep, x, fill), (a,), backward)


def reshape(a, shape):
    if not isinstance(a, Tensor):
        return a.reshape(shape)
    x = a.data

    def backward(g):
        _accumulate(a, g.reshape(x.shape))

    return _from_op(x.reshape(shape), (a,), backward)


# -- nonlinearities -----------------------------------------------------------

def exp(a):
    if not isinstance(a, Tensor):
        return np.exp(a)
    out = np.exp(a.data)

    def backward(g):
        _accumulate(a, g * out)

    return _from_op(out, (a,), backward)


def log(a):
    x = value(a)
    if np.any(x <= 0.0):
        raise ValueError("log of non-positive value")
    if not isinstance(a, Tensor):
        return np.log(x)

    def backward(g):
        _accumulate(a, g / x)

    return _from_op(np.log(x), (a,), backward)


def tanh(a):
    if not isinstance(a, Tensor):
        return np.tanh(a)
    out = np.tanh(a.data)

    def backward(g):
        _accumulate(a, g * (1.0 - out * out))

    return _from_op(out, (a,), backward)


def sin(a):
    if not isinstance(a, Tensor):
        return np.sin(a)
    x = a.data

    def backward(g):
        _accumulate(a, g * np.cos(x))

    return _from_op(np.sin(x), (a,), backward)


def cos(a):
    if not isinstance(a, Tensor):
        return np.cos(a)
    x = a.data

    def backward(g):
        _accumulate(a, -g * np.sin(x))

    return _from_op(np.cos(x), (a,), backward)


def clip(a, lo: float, hi: float):
    """Clamp values; gradient passes through unclamped entries only."""
    if not isinstance(a, Tensor):
        return np.clip(a, lo, hi)
    x = a.data

    def backward(g):
        _accumulate(a, g * ((x >= lo) & (x <= hi)))

    return _from_op(np.clip(x, lo, hi), (a,), backward)


def normal_cdf(a):
    """Standard normal CDF; the derivative is the normal density."""
    if not isinstance(a, Tensor):
        return np.asarray(ndtr(a), dtype=float)
    x = a.data

    def backward(g):
        _accumulate(a, g * _INV_SQRT_2PI * np.exp(-0.5 * x * x))

    return _from_op(np.asarray(ndtr(x), dtype=float), (a,), backward)


# -- reductions ----------------------------------------------------------------

def tensor_sum(a, axis=None, keepdims: bool = False):
    if not isinstance(a, Tensor):
        return a.sum(axis=axis, keepdims=keepdims)
    x = a.data

    def backward(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, x.shape).copy())

    return _from_op(x.sum(axis=axis, keepdims=keepdims), (a,), backward)


def logsumexp(a, axis: int = -1, keepdims: bool = False):
    x = value(a)
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=axis, keepdims=True)
    out = m + np.log(s)
    if not keepdims:
        out = np.squeeze(out, axis=axis)
    if not isinstance(a, Tensor):
        return out

    def backward(g):
        g = np.asarray(g)
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, g * (e / s))

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
                # the probes are plain arrays, so they build no tape
                out = float(value(fn(probe)))
                if store == "hi":
                    hi = out
                else:
                    lo = out
            fd = (hi - lo) / (2.0 * h)
            err = abs(float(analytic.ravel()[i]) - fd) / max(1e-8, abs(fd))
            worst = max(worst, err)
    return worst
