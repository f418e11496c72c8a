"""Finite-difference check of reverse-mode gradients, and the taped row sum
that the tests' composed attention chains divide by, shared by the tests."""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from spectpp import autodiff as ad


def grad_check(fn: Callable[[Mapping[str, ad.Tensor]], ad.Tensor],
               params: Mapping[str, np.ndarray],
               step: float = 1e-5) -> float:
    """Max relative error between reverse-mode and central-difference grads.

    Per coordinate the step is ``step * max(1, |theta|)`` and the error is
    ``|analytic - fd| / max(1e-8, |fd|)``; the returned value is the max
    over all coordinates of all parameters.
    """
    tensors = {k: ad.Tensor(np.array(v, dtype=float)) for k, v in params.items()}
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
                out = float(ad.value(fn(probe)))
                if store == "hi":
                    hi = out
                else:
                    lo = out
            fd = (hi - lo) / (2.0 * h)
            err = abs(float(analytic.ravel()[i]) - fd) / max(1e-8, abs(fd))
            worst = max(worst, err)
    return worst


def row_sums(a):
    """The sums along the last axis, kept as an axis of extent 1; on the tape
    every entry of a row gets that row's adjoint."""
    x = ad.value(a)
    out = np.add.reduce(x, axis=-1, keepdims=True)
    if not isinstance(a, ad.Tensor):
        return out
    return ad.Tensor(out, (a,), lambda g: ad._accumulate(a, np.broadcast_to(g, x.shape).copy()))
