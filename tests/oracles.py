"""Kernels the model no longer calls, kept as building blocks of the composed
oracles that the fused attention and normalization primitives are checked
against: `softmax`, the 4-D `attention` over pre-split heads and the plain
`layer_norm` without the residual add.  Each keeps its hand-written VJP and
is itself checked against a graph of autodiff primitives in
test_autodiff.py."""

from __future__ import annotations

import numpy as np

from ruladapt.autodiff import Tensor, _make, _unbroadcast


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """(x - mean) / sqrt(var + eps) * gain + bias, normalized over the last
    axis (biased variance)."""
    normed = x.data - x.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((normed * normed).mean(axis=-1, keepdims=True) + eps)
    normed *= inv
    out = normed * gain.data
    out += bias.data

    def vjp(g):
        gx = g * gain.data
        mean_g = gx.mean(axis=-1, keepdims=True)
        mean_gn = (gx * normed).mean(axis=-1, keepdims=True)
        gx -= mean_g
        gx -= normed * mean_gn
        gx *= inv
        return (
            gx,
            _unbroadcast(g * normed, gain.data.shape),
            _unbroadcast(g, bias.data.shape),
        )

    return _make(out, (x, gain, bias), vjp)


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(q k^T / sqrt(d_k)) v over the last two axes of (..., S_q, d_k),
    (..., S_k, d_k) and (..., S_k, d_v)."""
    c = 1.0 / np.sqrt(q.shape[-1])
    probs = np.matmul(q.data, np.swapaxes(k.data, -1, -2))
    probs *= c
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)

    def vjp(g):
        gl = np.matmul(g, np.swapaxes(v.data, -1, -2))
        gl -= (gl * probs).sum(axis=-1, keepdims=True)
        gl *= probs
        gl *= c
        return (
            np.matmul(gl, k.data),
            np.matmul(np.swapaxes(gl, -1, -2), q.data),
            np.matmul(np.swapaxes(probs, -1, -2), g),
        )

    return _make(np.matmul(probs, v.data), (q, k, v), vjp)
