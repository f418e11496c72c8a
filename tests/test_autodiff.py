import math
import zlib

import numpy as np
import pytest
from scipy.special import ndtr

from spectpp import autodiff as ad
from spectpp.autodiff import Tensor

from gradcheck import grad_check, row_sums


def test_square_derivative():
    x = Tensor(3.0)
    y = ad.mul(x, x)
    y.backward()
    assert float(x.grad) == pytest.approx(6.0)


def test_constant_function_has_zero_gradient():
    err = grad_check(lambda p: ad.tensor_sum(ad.mul(p["x"], 0.0)), {"x": np.ones(4)})
    x = Tensor(np.ones(4))
    out = ad.tensor_sum(ad.mul(x, 0.0))
    out.backward()
    assert np.all(x.grad == 0.0)
    assert err < 1e-10


def test_normal_cdf_at_zero():
    assert ad.normal_cdf(Tensor(0.0)).item() == pytest.approx(0.5)


def test_quadratic_form_gradient():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4))
    a = a + a.T

    def f(p):
        x = p["x"]
        return ad.tensor_sum(ad.mul(x, ad.matmul(a, x)))

    assert grad_check(f, {"x": rng.normal(size=4) + 0.5}) < 1e-7


@pytest.mark.parametrize("name,fn,domain", [
    ("exp", ad.exp, (-1.0, 1.0)),
    ("log", ad.log, (0.5, 2.0)),
    ("tanh", ad.tanh, (-1.5, 1.5)),
    ("sin", ad.sin, (-2.0, 2.0)),
    ("cos", ad.cos, (-2.0, 2.0)),
    ("normal_cdf", ad.normal_cdf, (-1.5, 1.5)),
])
def test_unary_primitives_match_finite_differences(name, fn, domain):
    # a fixed seed per case: str hashes differ between processes
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    x = rng.uniform(*domain, size=(3, 4))
    weights = rng.normal(size=(3, 4))
    err = grad_check(lambda p: ad.tensor_sum(ad.mul(fn(p["x"]), weights)), {"x": x})
    assert err < 1e-6


def test_binary_primitives_match_finite_differences():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 4)) + 2.0
    b = rng.normal(size=(3, 4)) + 2.0
    weights = rng.normal(size=(3, 4))
    for fn in (ad.add, ad.sub, ad.mul, ad.div):
        err = grad_check(
            lambda p, fn=fn: ad.tensor_sum(ad.mul(fn(p["a"], p["b"]), weights)),
            {"a": a, "b": b},
        )
        assert err < 1e-6


def test_broadcast_bias_add_gradient():
    rng = np.random.default_rng(8)
    weights = rng.normal(size=(5, 3))
    err = grad_check(
        lambda p: ad.tensor_sum(ad.mul(ad.add(p["x"], p["b"]), weights)),
        {"x": rng.normal(size=(5, 3)), "b": rng.normal(size=3)},
    )
    assert err < 1e-6


def test_matmul_concat_slice_gradients():
    rng = np.random.default_rng(9)
    weights = rng.normal(size=(3, 3))

    def f(p):
        prod = ad.matmul(p["a"], p["b"])
        both = ad.concat([prod, ad.transpose(p["a"])], axis=1)
        return ad.tensor_sum(ad.mul(both[:, 1:4], weights))

    assert grad_check(f, {"a": rng.normal(size=(3, 3)), "b": rng.normal(size=(3, 2))}) < 1e-6


def test_batched_matmul_and_axis_permutation_gradients():
    rng = np.random.default_rng(11)
    weights = rng.normal(size=(5, 6))

    def f(p):
        # (2, 3, 4) @ (2, 4, 5) -> (2, 3, 5) -> (3, 2, 5) -> (3, 10) -> rows 1:
        prod = ad.matmul(p["a"], ad.transpose(p["b"], (0, 2, 1)))
        flat = ad.reshape(ad.transpose(prod, (1, 0, 2)), (3, 10))
        return ad.tensor_sum(ad.mul(ad.reshape(flat[1:], (5, 4)), weights[:, :4]))

    params = {"a": rng.normal(size=(2, 3, 4)), "b": rng.normal(size=(2, 5, 4))}
    assert grad_check(f, params) < 1e-6
    plain = f(params)
    assert not isinstance(plain, Tensor)
    ref = np.einsum("hik,hjk->ihj", params["a"], params["b"]).reshape(3, 10)[1:]
    assert plain == pytest.approx(float(np.sum(ref.reshape(5, 4) * weights[:, :4])), rel=1e-12)


def test_ops_on_plain_operands_return_plain_arrays():
    """No Tensor operand: every op returns the plain numpy result, bit for
    bit, and builds no tape; any Tensor operand gives a Tensor with the
    same value."""
    rng = np.random.default_rng(12)
    x, y = rng.uniform(0.5, 2.0, size=(3, 4)), rng.uniform(0.5, 2.0, size=(3, 4))
    m = y.max(axis=1, keepdims=True)
    # causal attention of x over y, in the order of the op's forward
    scores = np.where(np.tri(3, dtype=bool), x @ y.T, -math.inf)
    kernel = np.exp(scores - scores.max(axis=1, keepdims=True))
    ops = {  # each op, and the numpy expression it must equal
        "add": (lambda a, b: ad.add(a, b), x + y),
        "sub": (lambda a, b: ad.sub(a, 1.0), x - 1.0),
        "mul": (lambda a, b: ad.mul(2.0, b), 2.0 * y),
        "div": (lambda a, b: ad.div(a, b), x / y),
        "matmul": (lambda a, b: ad.matmul(a, b.T), x @ y.T),
        "transpose": (lambda a, b: ad.transpose(a), x.T),
        "transpose-axes": (lambda a, b: ad.transpose(ad.reshape(a, (3, 2, 2)), (2, 0, 1)),
                           x.reshape(3, 2, 2).transpose(2, 0, 1)),
        "concat": (lambda a, b: ad.concat([a, b], axis=1), np.concatenate([x, y], axis=1)),
        "take": (lambda a, b: ad.take(a, np.array([0, 0])), x[[0, 0]]),
        "attention": (lambda a, b: ad.attention(a, b, b),
                      (kernel @ y) / kernel.sum(axis=1, keepdims=True)),
        "reshape": (lambda a, b: ad.reshape(a, (4, 3)), x.reshape(4, 3)),
        "exp": (lambda a, b: ad.exp(a), np.exp(x)),
        "log": (lambda a, b: ad.log(b), np.log(y)),
        "tanh": (lambda a, b: ad.tanh(a), np.tanh(x)),
        "sin": (lambda a, b: ad.sin(a), np.sin(x)),
        "cos": (lambda a, b: ad.cos(b), np.cos(y)),
        "clip": (lambda a, b: ad.clip(a, 0.8, 1.2), np.clip(x, 0.8, 1.2)),
        "normal_cdf": (lambda a, b: ad.normal_cdf(a), ndtr(x)),
        "tensor_sum": (lambda a, b: ad.tensor_sum(a), x.sum()),
        "logsumexp": (lambda a, b: ad.logsumexp(b, axis=1),
                      (m + np.log(np.exp(y - m).sum(axis=1, keepdims=True)))[:, 0]),
    }
    for name, (op, expected) in ops.items():
        plain = op(x, y)
        # a full reduction returns a numpy scalar
        assert isinstance(plain, (np.ndarray, np.float64)) and np.array_equal(plain, expected), name
        taped = op(Tensor(x), y)
        if not isinstance(taped, Tensor):  # ops that ignore their first operand
            taped = op(x, Tensor(y))
        assert isinstance(taped, Tensor) and np.array_equal(taped.data, plain), name


def test_masked_attention_passes_gradient_only_through_kept_entries():
    """With identity queries the scores are the transposed keys, so the
    keys' adjoint is the scores' adjoint: zero exactly where causal
    attention after one past key drops a score, and non-zero where it keeps
    one."""
    rng = np.random.default_rng(10)
    keep = np.tri(3, 4, 1, dtype=bool)
    weights = rng.normal(size=(3, 2))
    values = rng.normal(size=(4, 2))

    def f(p):
        return ad.tensor_sum(ad.mul(ad.attention(np.eye(3), p["x"], values),
                                    weights))

    x = rng.normal(size=(4, 3))
    assert grad_check(f, {"x": x}) < 1e-6
    t = Tensor(x)
    f({"x": t}).backward()
    assert np.all(t.grad.T[~keep] == 0.0) and np.all(t.grad.T[keep] != 0.0)


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("plus_one", [False, True])
@pytest.mark.parametrize("past", [False, True])
def test_attention_matches_finite_differences(past, plus_one, heads):
    """The adjoints of queries, keys and values of three queries, over
    their own keys alone and after two past keys, in softmax and attnhp's
    +1 form, over one and two heads."""
    rng = np.random.default_rng(30 + 4 * heads + 2 * plus_one + past)
    weights = rng.normal(size=(heads, 3, 2))
    n_keys = 5 if past else 3

    def f(p):
        return ad.tensor_sum(ad.mul(ad.attention(p["q"], p["k"], p["v"], plus_one=plus_one),
                                    weights))

    params = {"q": rng.normal(size=(heads, 3, 4)), "k": rng.normal(size=(heads, n_keys, 4)),
              "v": rng.normal(size=(heads, n_keys, 2))}
    assert grad_check(f, params) < 1e-6


def dense_causal_attention(q, k, v, plus_one):
    """Causal attention as a chain of autodiff ops over the full score
    matrix, whose future entries a -inf bias masks."""
    n, n_keys = ad.value(q).shape[-2], ad.value(k).shape[-2]
    bias = np.where(np.tri(n, n_keys, n_keys - n, dtype=bool), 0.0, -math.inf)
    scores = ad.add(ad.matmul(q, ad.transpose(k, (0, 2, 1))), bias)
    shift = ad.value(scores).max(axis=-1, keepdims=True)
    kernel = ad.exp(ad.sub(scores, shift))
    denominator = row_sums(kernel)
    if plus_one:
        denominator = ad.add(denominator, np.exp(-shift))
    return ad.div(ad.matmul(kernel, v), denominator)


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("plus_one", [False, True])
@pytest.mark.parametrize("n_past", [0, 7])
def test_blocked_causal_attention_matches_the_dense_chain(n_past, plus_one, heads, monkeypatch):
    """2B + 5 queries, with and without a past, attend in three blocks:
    the output and the adjoints of queries, keys and values are the
    dense masked chain's within 1e-12, and with blocks of 4 rows the
    adjoints match finite differences."""
    rng = np.random.default_rng(40 + 4 * heads + 2 * plus_one + (n_past > 0))

    def inputs(n):
        return {"q": rng.normal(size=(heads, n, 4)), "k": rng.normal(size=(heads, n_past + n, 4)),
                "v": rng.normal(size=(heads, n_past + n, 3))}

    def loss(attention, weights):
        return lambda p: ad.tensor_sum(ad.mul(attention(p["q"], p["k"], p["v"], plus_one),
                                              weights))

    n = 2 * ad.ATTENTION_BLOCK + 5
    params, weights = inputs(n), rng.normal(size=(heads, n, 3))
    assert np.allclose(ad.attention(params["q"], params["k"], params["v"], plus_one),
                       dense_causal_attention(params["q"], params["k"], params["v"], plus_one),
                       rtol=0.0, atol=1e-12)
    grads = []
    for attention in (ad.attention, dense_causal_attention):
        tensors = {name: Tensor(value) for name, value in params.items()}
        loss(attention, weights)(tensors).backward()
        grads.append([tensors[name].grad for name in "qkv"])
    for got, want in zip(*grads):
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    monkeypatch.setattr(ad, "ATTENTION_BLOCK", 4)
    params = inputs(13)
    assert grad_check(loss(ad.attention, rng.normal(size=(heads, 13, 3))), params) < 1e-6


def test_row_lookup_accumulates_repeated_indices():
    w = Tensor(np.ones((3, 2)))
    rows = ad.take(w, np.array([0, 2, 0]))
    out = ad.tensor_sum(rows)
    out.backward()
    assert np.array_equal(w.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_reductions_match_finite_differences():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(4, 5))
    col = rng.normal(size=(4, 1))
    for f in (
        lambda p: ad.tensor_sum(p["x"]),
        lambda p: ad.tensor_sum(ad.logsumexp(p["x"], axis=1)),
        lambda p: ad.tensor_sum(ad.mul(ad.tensor_sum(p["x"]), col)),
    ):
        assert grad_check(f, {"x": x}) < 1e-6


def test_logsumexp_matches_numpy_reference():
    x = np.array([[0.0, 1.0, -2.0], [5.0, 5.0, 5.0]])
    got = ad.logsumexp(Tensor(x), axis=1).data
    want = np.log(np.sum(np.exp(x), axis=1))
    assert np.allclose(got, want, rtol=1e-12)


def test_clip_gradient_is_zero_outside_bounds():
    x = Tensor(np.array([-2.0, 0.5, 3.0]))
    out = ad.tensor_sum(ad.clip(x, 0.0, 1.0))
    out.backward()
    assert np.array_equal(x.grad, [0.0, 1.0, 0.0])


def test_clip_keeps_nan_and_matches_numpy_clip():
    """clip clamps by two ufuncs rather than np.clip: the same values, and
    a NaN stays NaN on and off the tape."""
    x = np.array([-2.0, 0.0, 0.5, 1.0, 3.0, -np.inf, np.inf, np.nan])
    for out in (ad.plain.clip(x, 0.0, 1.0), ad.clip(Tensor(x), 0.0, 1.0).data):
        assert np.array_equal(out, np.clip(x, 0.0, 1.0), equal_nan=True)
        assert np.isnan(out[-1])


def test_backward_is_linear_in_the_loss():
    rng = np.random.default_rng(11)
    base = rng.normal(size=(3, 3))

    def run(scale_first):
        x = Tensor(base)
        l1 = ad.tensor_sum(ad.mul(x, x))
        l2 = ad.tensor_sum(ad.tanh(x))
        if scale_first:
            ad.add(l1, l2).backward()
            return x.grad
        l1.backward()
        g1 = x.grad.copy()
        x.grad = None
        x2 = Tensor(base)
        ad.tensor_sum(ad.tanh(x2)).backward()
        return g1 + x2.grad

    assert np.allclose(run(True), run(False), atol=1e-12)


def test_backward_visits_shared_nodes_once():
    x = Tensor(2.0)
    y = ad.mul(x, x)          # reused twice below
    z = ad.add(y, y)          # z = 2x^2, dz/dx = 4x = 8
    z.backward()
    assert float(x.grad) == pytest.approx(8.0)


def test_only_tensor_operands_are_tape_parents():
    """Constants are plain arrays: they are no node of the tape, and every
    Tensor operand receives a gradient."""
    c = np.array([1.0, 2.0, 3.0])
    x = Tensor(np.ones(3))
    y = ad.add(x, c)
    assert y._parents == (x,)
    ad.tensor_sum(ad.mul(y, c)).backward()
    assert np.array_equal(x.grad, c) and np.array_equal(y.grad, c)


def test_log_rejects_nonpositive():
    with pytest.raises(ValueError):
        ad.log(Tensor(np.array([1.0, 0.0])))


def test_backward_requires_scalar():
    x = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        ad.exp(x).backward()
