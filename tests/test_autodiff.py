"""Gradient fidelity of the reverse-mode engine.

Every primitive is checked against central finite differences; probe points
are kept away from relu kinks and log/sqrt singularities so the numerical
oracle itself is trustworthy.
"""

import ast
import importlib
import inspect
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from ruladapt import autodiff as ad
from ruladapt.autodiff import Tensor, backward

from gradtools import grad_check, recurrent, recurrent_shapes, split_flat
from oracles import (
    attention, composed_recurrent_sequence, div, exp, layer_norm, log, pairwise_sqdist, softmax,
    sqrt, tanh,
)


def rand(rng, *shape, low=-2.0, high=2.0):
    return rng.uniform(low, high, size=shape)


def rand_safe(rng, *shape):
    """Values bounded away from zero (safe for relu kinks and division)."""
    x = rng.uniform(0.2, 2.0, size=shape)
    return x * rng.choice([-1.0, 1.0], size=shape)


# ---------------------------------------------------------------------------
# analytic spot checks

def test_square_gradient_at_three():
    x = Tensor(np.array([3.0]), requires_grad=True)
    backward(ad.tsum(ad.square(x)))
    assert x.grad == pytest.approx([6.0])


def test_softmax_of_uniform_vector_is_uniform():
    x = Tensor(np.full((1, 5), 0.7))
    y = softmax(x, axis=1)
    np.testing.assert_allclose(y.data, np.full((1, 5), 0.2), atol=1e-15)


def test_mean_of_square_gradient_is_two_over_n():
    n = 7
    x = Tensor(np.ones(n), requires_grad=True)
    backward(ad.tmean(ad.square(x)))
    np.testing.assert_allclose(x.grad, np.full(n, 2.0 / n), atol=1e-15)


def test_sum_gradient_is_ones():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    backward(ad.tsum(x))
    np.testing.assert_array_equal(x.grad, np.ones(3))


def test_detached_subgraph_gets_no_gradient():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    loss = ad.tsum(ad.mul(ad.constant(x.data), y))
    backward(loss)
    assert x.grad is None
    np.testing.assert_array_equal(y.grad, np.array([1.0, 2.0]))


def test_tanh_composition_gradient():
    vals = np.array([-1.3, 0.2, 0.9])
    x = Tensor(vals, requires_grad=True)
    backward(ad.tsum(tanh(x)))
    np.testing.assert_allclose(x.grad, 1.0 - np.tanh(vals) ** 2, atol=1e-14)


def test_constant_function_checks_to_zero_error():
    err = grad_check(lambda x: ad.tsum(ad.mul(x, Tensor(np.zeros(4)))), Tensor(np.ones(4)))
    assert err == 0.0


def test_grad_reverse_flips_and_scales():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    backward(ad.tsum(ad.grad_reverse(x, weight=0.25)))
    np.testing.assert_allclose(x.grad, np.array([-0.25, -0.25]))


# ---------------------------------------------------------------------------
# error contracts

def test_backward_rejects_non_scalar_loss():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ad.GraphError):
        backward(ad.square(x))


def test_double_backward_raises():
    x = Tensor(np.ones(3), requires_grad=True)
    loss = ad.tsum(ad.square(x))
    backward(loss)
    with pytest.raises(ad.GraphError):
        backward(loss)


def test_backward_frees_interior_activations():
    x = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
    hidden = tanh(x)
    saved = weakref.ref(hidden.data)
    loss = ad.tsum(ad.square(hidden))
    del hidden
    assert saved() is not None  # held by the tape
    backward(loss)
    assert saved() is None


def test_interior_nodes_hold_no_grad_vjp_or_parents_after_backward():
    x = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
    hidden = tanh(x)
    loss = ad.tsum(ad.square(hidden))
    backward(loss)
    for node in (hidden, loss):
        assert node.grad is None and node._vjp is None and node._parents == ()
    np.testing.assert_allclose(x.grad, 2.0 * np.tanh(x.data) * (1.0 - np.tanh(x.data) ** 2))


def test_second_loss_over_a_backpropagated_subgraph_raises():
    x = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
    hidden = tanh(x)
    backward(ad.tsum(hidden))
    first = x.grad.copy()
    with pytest.raises(ad.GraphError):
        backward(ad.tsum(ad.square(hidden)))
    np.testing.assert_array_equal(x.grad, first)


def test_leaf_gradients_accumulate_across_graphs():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    backward(ad.tsum(ad.square(x)))
    backward(ad.tsum(ad.scale(x, 3.0)))
    np.testing.assert_array_equal(x.grad, 2.0 * x.data + 3.0)


def test_matmul_shape_mismatch_raises():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones(3))
    with pytest.raises(ad.GraphError):
        ad.matmul(a, b)


def test_pairwise_sqdist_dimension_mismatch_raises():
    with pytest.raises(ad.GraphError):
        pairwise_sqdist(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))


# ---------------------------------------------------------------------------
# finite-difference sweep over every primitive

# recurrent_sequence inputs h0, u0, w_i, w_h, *biases, w_out, b_out at n=2, f=3, H=2
CELL_SHAPES = {cell: recurrent_shapes(cell, 2, 3, 2) for cell in ("gru", "lstm", "rnn")}
# mlp inputs x, w1, b1, w2, b2 at n=2, in=3, hidden=4, out=2
MLP_SHAPES = ((2, 3), (3, 4), (4,), (4, 2), (2,))
# add_layer_norm inputs x, y, gain, bias
ALN_SHAPES = ((2, 3), (2, 3), (3,), (3,))
# single_query_attention inputs q, memory, w_k, w_v, b_v at n=2, T=3, d_m=5, d=4
SQA_SHAPES = ((2, 1, 4), (2, 3, 5), (5, 4), (5, 4), (4,))


def flat_size(shapes):
    return sum(int(np.prod(s)) for s in shapes)


def _primitive_cases(rng):
    a23 = rand_safe(rng, 2, 3)
    b23 = rand_safe(rng, 2, 3)
    pos = rng.uniform(0.5, 2.0, size=(2, 3))
    m34 = rand(rng, 3, 4)
    b234 = rand(rng, 2, 3, 4)
    return [
        ("add", lambda x: ad.tsum(ad.add(x, Tensor(b23))), a23),
        ("add_broadcast", lambda x: ad.tsum(ad.add(x, Tensor(b23[0]))), a23),
        ("sub", lambda x: ad.tsum(ad.sub(Tensor(b23), x)), a23),
        ("mul", lambda x: ad.tsum(ad.mul(x, Tensor(b23))), a23),
        ("div", lambda x: ad.tsum(div(Tensor(b23), x)), pos),
        ("scale", lambda x: ad.tsum(ad.scale(x, -1.7)), a23),
        ("matmul", lambda x: ad.tsum(ad.matmul(x, Tensor(m34))), a23),
        (
            "matmul_batched",
            lambda x: ad.tsum(ad.matmul(x, Tensor(b234))),
            rand(rng, 2, 2, 3),
        ),
        (
            "matmul_flat_a",
            lambda x: ad.tsum(ad.square(ad.matmul(x, Tensor(m34)))),
            rand(rng, 2, 2, 3),
        ),
        (
            "matmul_flat_b",
            lambda x: ad.tsum(ad.square(ad.matmul(Tensor(b234.transpose(0, 2, 1)), x))),
            rand(rng, 3, 4),
        ),
        ("transpose", lambda x: ad.tsum(ad.square(ad.transpose(x))), a23),
        (
            "transpose_axes",
            lambda x: ad.tsum(ad.square(ad.transpose(x, (1, 0, 2)))),
            rand(rng, 2, 3, 4),
        ),
        ("reshape", lambda x: ad.tsum(ad.square(ad.reshape(x, (3, 2)))), a23),
        (
            "concat",
            lambda x: ad.tsum(ad.square(ad.concat([x, Tensor(b23)], axis=0))),
            a23,
        ),
        ("take", lambda x: ad.tsum(ad.square(x[0:1, 1:3])), a23),
        ("broadcast", lambda x: ad.tsum(ad.square(ad.broadcast_to(x, (4, 2, 3)))), a23),
        ("sum_axis", lambda x: ad.tsum(ad.square(ad.tsum(x, axis=1))), a23),
        ("sum_keepdims", lambda x: ad.tsum(ad.square(ad.tsum(x, axis=0, keepdims=True))), a23),
        ("mean", lambda x: ad.tmean(ad.square(x)), a23),
        ("mean_axis", lambda x: ad.tsum(ad.square(ad.tmean(x, axis=1))), a23),
        ("exp", lambda x: ad.tsum(exp(x)), a23),
        ("log", lambda x: ad.tsum(log(x)), pos),
        ("sqrt", lambda x: ad.tsum(sqrt(x)), pos),
        ("square", lambda x: ad.tsum(ad.square(x)), a23),
        ("sigmoid", lambda x: ad.tsum(ad.sigmoid(x)), a23),
        ("log_sigmoid", lambda x: ad.tsum(ad.log_sigmoid(x)), a23),
        ("tanh", lambda x: ad.tsum(tanh(x)), a23),
        ("relu", lambda x: ad.tsum(ad.relu(x)), rand_safe(rng, 2, 3)),
        ("sqnorm", lambda x: ad.sqnorm(x), a23),
        (
            "add_layer_norm",
            lambda x: ad.tsum(ad.mul(ad.add_layer_norm(*split_flat(x, ALN_SHAPES)), Tensor(b23))),
            rand(rng, flat_size(ALN_SHAPES)),
        ),
        (
            "self_attention",
            lambda x: ad.tsum(ad.mul(ad.self_attention(x, 2), Tensor(b234))),
            rand(rng, 2, 3, 12),
        ),
        (
            "single_query_attention",
            lambda x: ad.tsum(ad.mul(
                ad.single_query_attention(*split_flat(x, SQA_SHAPES), n_heads=2),
                Tensor(b234[:, :1]),
            )),
            rand(rng, flat_size(SQA_SHAPES)),
        ),
        (
            "linear_x",
            lambda x: ad.tsum(ad.square(ad.linear(x, Tensor(m34), Tensor(b234[0, 0])))),
            rand(rng, 2, 2, 3),
        ),
        (
            "linear_w_b",
            lambda x: ad.tsum(ad.square(ad.linear(Tensor(b234[..., :3]), x[:3], x[3]))),
            rand(rng, 4, 4),
        ),
        (
            "mlp",
            lambda x: ad.tsum(ad.square(ad.mlp(*split_flat(x, MLP_SHAPES)))),
            rand_safe(rng, flat_size(MLP_SHAPES)),
        ),
        _recurrent_case("gru", rng, b234),
        (
            "pairwise_sqdist_a",
            lambda x: ad.tsum(ad.square(pairwise_sqdist(x, Tensor(m34.T)))),
            rand(rng, 2, 3),
        ),
        (
            "pairwise_sqdist_b",
            lambda x: ad.tsum(ad.square(pairwise_sqdist(Tensor(m34.T), x))),
            rand(rng, 2, 3),
        ),
        (
            "rbf_mmd2",
            lambda x: ad.rbf_mmd2(*split_flat(x, ((2, 3), (4, 3))), lambda D: 1.3),
            rand(rng, 18),
        ),
        _recurrent_case("lstm", rng, b234),
        _recurrent_case("rnn", rng, b234),
        # grad_reverse is deliberately not VJP-faithful; its contract is the
        # explicit sign/scale equality tested above.
    ]


def _recurrent_case(cell, rng, weights):
    """A 4-step `cell` unroll with every input in one flat vector."""
    shapes = CELL_SHAPES[cell]
    return (
        f"recurrent_sequence[{cell}]",
        lambda x: ad.tsum(ad.mul(recurrent(cell)(*split_flat(x, shapes), steps=4), Tensor(weights))),
        rand(rng, flat_size(shapes), low=-1.0, high=1.0),
    )


def test_every_primitive_matches_finite_differences():
    rng = np.random.default_rng(0)
    for name, fn, x in _primitive_cases(rng):
        err = grad_check(fn, Tensor(x), eps=1e-5)
        assert err < 1e-6, f"{name}: relative error {err:.3e}"


def test_primitive_sweep_over_many_seeds():
    """Each primitive holds <1e-6 across 100 random draws (shapes vary by seed)."""
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        for name, fn, x in _primitive_cases(rng):
            err = grad_check(fn, Tensor(x), eps=1e-5)
            worst = max(worst, err)
            assert err < 1e-6, f"{name} @ seed {seed}: {err:.3e}"
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# fused primitives against the composed graphs they replace

def composed_layer_norm(x, gain, bias, eps):
    mu = ad.tmean(x, axis=-1, keepdims=True)
    centered = ad.sub(x, mu)
    var = ad.tmean(ad.square(centered), axis=-1, keepdims=True)
    inv = div(ad.constant(1.0), sqrt(ad.add(var, ad.constant(eps))))
    return ad.add(ad.mul(ad.mul(centered, inv), gain), bias)


def composed_attention(q, k, v):
    logits = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(q.shape[-1]))
    return ad.matmul(softmax(logits, axis=-1), v)


def composed_add_layer_norm(x, y, gain, bias, eps):
    return layer_norm(ad.add(x, y), gain, bias, eps)


def split_heads(x, n_heads):
    n, S, d = x.shape
    return ad.transpose(ad.reshape(x, (n, S, n_heads, d // n_heads)), (0, 2, 1, 3))


def merge_heads(x):
    n, h, S, dh = x.shape
    return ad.reshape(ad.transpose(x, (0, 2, 1, 3)), (n, S, h * dh))


def composed_self_attention(qkv, n_heads):
    """Slice q, k, v out of the packed input, split the heads with
    reshape/transpose nodes, attend per head and merge."""
    d = qkv.shape[-1] // 3
    q, k, v = (split_heads(qkv[..., i * d : (i + 1) * d], n_heads) for i in range(3))
    return merge_heads(attention(q, k, v))


def composed_query_attention(q, memory, w_k, w_v, b_v, n_heads, b_k):
    """Project every memory token to keys (with the key bias b_k) and
    values, then attend per head: the graph the absorbed decoder replaces."""
    k = split_heads(ad.linear(memory, w_k, b_k), n_heads)
    v = split_heads(ad.linear(memory, w_v, b_v), n_heads)
    return merge_heads(attention(split_heads(q, n_heads), k, v))


def composed_linear(x, w, b):
    return ad.add(ad.matmul(x, w), b)


def composed_mlp(x, w1, b1, w2, b2):
    return ad.linear(ad.relu(ad.linear(x, w1, b1)), w2, b2)


def batched_matmul(a, b):
    """The 3-D x 2-D product as a batched matmul over a broadcast copy of b."""
    return ad.matmul(a, ad.broadcast_to(b, a.shape[:1] + b.shape))


def _value_and_grads(op, arrays, weights):
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*leaves)
    backward(ad.tsum(ad.mul(out, Tensor(weights))))
    return out.data, [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("seed", range(5))
def test_fused_ops_match_composed_graphs(seed):
    """Value and every input gradient within 1e-12 of the composed oracle."""
    rng = np.random.default_rng(seed)
    n, h, S, T, d = 3, 2, 5, 7, 4
    b_k = Tensor(rand(rng, d))  # non-zero: it shifts each head's scores and cancels
    cases = [
        (layer_norm, composed_layer_norm,
         [rand(rng, n, S, d), rand(rng, d), rand(rng, d)], (n, S, d), {"eps": 1e-5}),
        (attention, composed_attention,
         [rand(rng, n, h, S, d), rand(rng, n, h, T, d), rand(rng, n, h, T, 3)], (n, h, S, 3), {}),
        (ad.add_layer_norm, composed_add_layer_norm,
         [rand(rng, n, S, d), rand(rng, n, S, d), rand(rng, d), rand(rng, d)], (n, S, d),
         {"eps": 1e-5}),
        (ad.self_attention, composed_self_attention,
         [rand(rng, n, S, 3 * d)], (n, S, d), {"n_heads": h}),
        (ad.single_query_attention, lambda *t, n_heads: composed_query_attention(*t, n_heads, b_k),
         [rand(rng, n, 1, d), rand(rng, n, T, 6), rand(rng, 6, d), rand(rng, 6, d), rand(rng, d)],
         (n, 1, d), {"n_heads": h}),
        (ad.matmul, batched_matmul, [rand(rng, n, S, d), rand(rng, d, 6)], (n, S, 6), {}),
        (ad.linear, composed_linear,
         [rand(rng, n, S, d), rand(rng, d, 6), rand(rng, 6)], (n, S, 6), {}),
        *[(recurrent(cell), recurrent(cell, composed_recurrent_sequence),
           [rand(rng, *shape) for shape in recurrent_shapes(cell, n, d, 2)], (n, d, T),
           {"steps": T}) for cell in ("gru", "lstm", "rnn")],
    ]
    for fused, composed, arrays, out_shape, kwargs in cases:
        weights = rng.normal(size=out_shape)
        got, got_grads = _value_and_grads(lambda *t: fused(*t, **kwargs), arrays, weights)
        want, want_grads = _value_and_grads(lambda *t: composed(*t, **kwargs), arrays, weights)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=fused.__name__)
        for i, (g, w) in enumerate(zip(got_grads, want_grads)):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12,
                                       err_msg=f"{fused.__name__} input {i}")
    # mlp runs the same arithmetic as the graph it fuses, so it matches bitwise
    arrays = [rand(rng, n, S, d), rand(rng, d, 6), rand(rng, 6), rand(rng, 6, 3), rand(rng, 3)]
    weights = rng.normal(size=(n, S, 3))
    got, got_grads = _value_and_grads(ad.mlp, arrays, weights)
    want, want_grads = _value_and_grads(composed_mlp, arrays, weights)
    np.testing.assert_array_equal(got, want)
    for i, (g, w) in enumerate(zip(got_grads, want_grads)):
        np.testing.assert_array_equal(g, w, err_msg=f"mlp input {i}")


@pytest.mark.parametrize("n_heads, d", [(2, 16), (4, 32)], ids=["desk", "full"])
def test_row_blocks_change_no_bit(n_heads, d, monkeypatch):
    """Blocks of the whole batch, of 1 row, and of 5 rows with a ragged last
    block of 2 give the same bits: no row shares a sum with another."""
    rng = np.random.default_rng(3)
    n = 37
    attention_inputs = [(S, rand(rng, n, S, 3 * d), rng.normal(size=(n, S, d))) for S in (24, 40)]
    a, b = rand(rng, n, 200), rand(rng, 29, 200)

    def run(rows):
        results = []
        for S, qkv, g in attention_inputs:
            monkeypatch.setattr(ad, "_BLOCK_BYTES", rows * 8 * n_heads * S * S)
            value, grads = _value_and_grads(lambda x: ad.self_attention(x, n_heads), [qkv], g)
            results += [value, *grads]
        for other in (a, b):
            monkeypatch.setattr(ad, "_BLOCK_BYTES", rows * 8 * other.size)
            results.append(pairwise_sqdist(Tensor(a), Tensor(other)).data)
        return results

    whole = run(n)
    for rows in (1, 5):
        for got, want in zip(run(rows), whole, strict=True):
            np.testing.assert_array_equal(got, want, err_msg=f"{rows} rows per block")


def _arrays_in(obj, seen=None):
    """Every ndarray reachable from obj through closures, tuples, lists and dicts."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if callable(obj) and getattr(obj, "__closure__", None):
        children = [cell.cell_contents for cell in obj.__closure__]
    elif isinstance(obj, (tuple, list)):
        children = list(obj)
    elif isinstance(obj, dict):
        children = list(obj.values())
    else:
        return []
    return [arr for child in children for arr in _arrays_in(child, seen)]


def test_attention_keeps_its_probabilities_only_for_a_vjp():
    """Forward to backward, the node holds views of its input and output and
    each block's (rows, h, S, S) probabilities, nothing else of n * h * S
    elements or more.  Without a VJP to come, under no_grad, the forward's
    peak allocation stays under its output plus a few blocks."""
    rng = np.random.default_rng(4)
    n, S, h, d = 64, 40, 4, 32
    qkv = Tensor(rand(rng, n, S, 3 * d), requires_grad=True)
    node = ad.self_attention(qkv, h)
    held = _arrays_in(node._vjp)
    probs = [arr for arr in held if arr.shape[1:] == (h, S, S)]
    assert probs and sum(len(arr) for arr in probs) == n
    for arr in held:
        if arr.size >= n * h * S and not any(arr is p for p in probs):
            assert np.shares_memory(arr, qkv.data) or np.shares_memory(arr, node.data), arr.shape
    with ad.no_grad():
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = ad.self_attention(qkv, h)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert out._vjp is None and peak < out.data.nbytes + 4 * ad._BLOCK_BYTES, peak


def test_pairwise_sqdist_peak_memory_is_output_plus_blocks():
    """The (n, n, d) differences are never built: the peak traced allocation
    of one call is under its output plus two blocks."""
    a = Tensor(np.random.default_rng(5).normal(size=(256, 200)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = pairwise_sqdist(a, a)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < out.data.nbytes + 2 * ad._BLOCK_BYTES, peak


def test_key_bias_cancels_in_the_composed_decoder():
    """The projected-keys graph reads a key bias, but each head's scores
    shift by the same q . b_k, so its gradient is zero up to rounding:
    `single_query_attention` takes no key bias."""
    rng = np.random.default_rng(11)
    b_k = Tensor(rand(rng, 4), requires_grad=True)
    out = composed_query_attention(
        Tensor(rand(rng, 3, 1, 4)), Tensor(rand(rng, 3, 7, 6)), Tensor(rand(rng, 6, 4)),
        Tensor(rand(rng, 6, 4)), Tensor(rand(rng, 4)), 2, b_k,
    )
    backward(ad.tsum(ad.mul(out, Tensor(rng.normal(size=(3, 1, 4))))))
    np.testing.assert_allclose(b_k.grad, 0.0, rtol=0, atol=1e-12)


def test_key_bias_cancels_in_self_attention():
    """A bias added to every key (the k block of the packed input) shifts
    each score of a query by the same q . b_k, so the output matches the
    zero-block output to rounding: the encoder needs no key bias."""
    rng = np.random.default_rng(12)
    d = 8
    qkv = rand(rng, 3, 7, 3 * d)
    shifted = qkv.copy()
    shifted[..., d : 2 * d] += rand(rng, d)
    np.testing.assert_allclose(ad.self_attention(Tensor(shifted), 2).data,
                               ad.self_attention(Tensor(qkv), 2).data, rtol=0, atol=1e-12)


def test_backward_is_linear():
    rng = np.random.default_rng(3)
    x0 = rand(rng, 5)
    a, b = 1.7, -0.6

    def grad_of(fn):
        x = Tensor(x0.copy(), requires_grad=True)
        backward(fn(x))
        return x.grad.copy()

    f = lambda x: ad.tsum(ad.square(x))
    g = lambda x: ad.tsum(tanh(x))
    combo = lambda x: ad.add(ad.scale(f(x), a), ad.scale(g(x), b))
    np.testing.assert_allclose(
        grad_of(combo), a * grad_of(f) + b * grad_of(g), atol=1e-10
    )


def test_forward_and_gradients_are_bitwise_deterministic():
    def run():
        rng = np.random.default_rng(99)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        y = ad.tmean(ad.square(tanh(ad.matmul(x, w))))
        backward(y)
        return y.data.copy(), x.grad.copy(), w.grad.copy()

    first, second = run(), run()
    for lhs, rhs in zip(first, second):
        assert np.array_equal(lhs, rhs)


def test_shared_subexpression_accumulates_once_per_use():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = ad.mul(x, x)  # d/dx x^2 = 2x via two uses of the same leaf
    backward(ad.tsum(y))
    assert x.grad == pytest.approx([4.0])


def test_no_grad_suppresses_graph_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        y = ad.square(x)
    assert not y.requires_grad and y._parents == ()


# ---------------------------------------------------------------------------
# every public name of the package is used by the program

def _module_uses(path: Path, module: str) -> set[str]:
    """Names of `ruladapt.<module>` members that `path` refers to outside a
    def or class of the same name: attributes of the module under an import
    alias, names imported from it, and, in the module itself, every bare
    name."""
    tree = ast.parse(path.read_text())
    own = path.parent.name == "ruladapt" and path.stem == module
    aliases, imported = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == module:
                    aliases.add(alias.asname or alias.name)
                elif (node.module or "").rsplit(".", 1)[-1] == module:
                    imported[alias.asname or alias.name] = alias.name
    uses = set()
    for stmt in tree.body:
        enclosing = stmt.name if own and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in aliases:
                name = node.attr
            elif isinstance(node, ast.Name) and (own or node.id in imported):
                name = imported.get(node.id, node.id)
            else:
                continue
            if name != enclosing:
                uses.add(name)
    return uses


def test_every_public_primitive_is_used_by_the_program():
    """Every public top-level function or class of every `ruladapt` module is
    read by the package or by the benchmark (`perfbench/*.py`, the only
    reader of `make_run_config` and `load_train_checkpoint`).  Code only the
    tests read belongs in tests/, as the oracles in tests/oracles.py do."""
    package = Path(ad.__file__).parent
    readers = [*package.glob("*.py"), *(package.parents[1] / "perfbench").glob("*.py")]
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"ruladapt.{path.stem}")
        public = {name for name, obj in vars(module).items()
                  if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                  and obj.__module__ == module.__name__}
        used = set().union(*(_module_uses(reader, path.stem) for reader in readers))
        unused += [f"{path.stem}.{name}" for name in sorted(public - used)]
    assert not unused, unused
