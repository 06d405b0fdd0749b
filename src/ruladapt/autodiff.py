"""Reverse-mode automatic differentiation over numpy arrays.

Operations record an implicit DAG as they execute; :func:`backward` replays
the tape in reverse topological order and accumulates exact vector-Jacobian
products into every ``requires_grad`` leaf.  It frees the tape as it goes:
each interior node drops its cotangent, its VJP closure (with the
activations that closure saved) and its parent links once its VJP has run,
so the step's memory falls during backward instead of after it.  All math
is plain numpy in float64, the one supported dtype: every array is cast to
it on entry.

The primitive set is deliberately small: elementwise arithmetic, batched
matmul (numpy's, no GEMM special case), shape ops, reductions, the usual
activations and the squared norm `sqnorm`.  Fused primitives with
hand-written VJPs stand in for the chains of primitives they would take
composed, one graph node each: `linear` (affine map, one GEMM over all
leading rows), `mlp` (two affine maps around a ReLU applied in place),
`add_layer_norm` (residual add + layer norm), `self_attention` (multi-head,
over packed q/k/v), `single_query_attention` (one query per row with the key
and value maps absorbed), `recurrent_sequence` (a whole GRU, LSTM or RNN
unroll with output feedback) and `rbf_mmd2` (the biased RBF-kernel MMD^2 of
two row sets).
`grad_reverse` is the identity forward / sign-flipped backward used by the
adversarial baseline.  The finite-difference `grad_check` that verifies
every VJP lives with the tests, in `tests/gradtools.py`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np


class GraphError(RuntimeError):
    """Raised on invalid graph use (non-scalar backward, double backward, ...)."""


_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (forward-only evaluation)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _as_array(data) -> np.ndarray:
    return np.asarray(data, dtype=np.float64)


class Tensor:
    """Array value participating in the computation graph.

    `grad` is populated by :func:`backward` and shares the data's shape.
    Internal nodes keep references to their parents plus a closure that maps
    the output cotangent to per-parent cotangents, until :func:`backward`
    has run through them.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_done")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple] | None = None
        self._done = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __getitem__(self, idx):
        return take(self, idx)


def constant(value) -> Tensor:
    """A gradient-free leaf holding `value`."""
    return Tensor(value)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._parents = parents
        out._vjp = vjp
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic (numpy broadcasting rules; gradients unbroadcast)

def add(a: Tensor, b: Tensor) -> Tensor:
    return _make(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _make(
        a.data - b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _make(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        ),
    )


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar treated as a constant."""
    c = float(c)
    return _make(a.data * c, (a,), lambda g: (g * c,))


# ---------------------------------------------------------------------------
# linear algebra and shape ops

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise GraphError(f"matmul requires >=2-D operands, got {a.shape} @ {b.shape}")

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return _make(np.matmul(a.data, b.data), (a, b), vjp)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a 2-D weight (in, out) and bias (out,): one GEMM over all
    leading rows of x, the bias added in place.  The VJP sums the bias
    gradient over those rows and skips the input product when x needs no
    gradient."""
    x2 = x.data.reshape(-1, x.shape[-1])
    out = x2 @ w.data
    out += b.data

    def vjp(g):
        g2 = g.reshape(-1, g.shape[-1])
        gx = (g2 @ w.data.T).reshape(x.data.shape) if x.requires_grad else None
        return gx, x2.T @ g2, np.ones(len(g2)) @ g2

    return _make(out.reshape(x.shape[:-1] + w.shape[-1:]), (x, w, b), vjp)


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """relu(x @ w1 + b1) @ w2 + b2, two `linear`s around a ReLU in one node.
    The ReLU runs in place on the hidden GEMM output, so the pre-activation
    is never stored; the VJP masks the hidden cotangent with h > 0."""
    x2 = x.data.reshape(-1, x.shape[-1])
    h = x2 @ w1.data
    h += b1.data
    np.maximum(h, 0.0, out=h)
    out = h @ w2.data
    out += b2.data

    def vjp(g):
        g2 = g.reshape(-1, g.shape[-1])
        ones = np.ones(len(g2))
        gh = g2 @ w2.data.T
        gh *= h > 0
        gx = (gh @ w1.data.T).reshape(x.data.shape) if x.requires_grad else None
        return gx, x2.T @ gh, ones @ gh, h.T @ g2, ones @ g2

    return _make(out.reshape(x.shape[:-1] + w2.shape[-1:]), (x, w1, b1, w2, b2), vjp)


def transpose(a: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _make(
        np.transpose(a.data, axes), (a,), lambda g: (np.transpose(g, inverse),)
    )


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    original = a.data.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(original),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, vjp)


def take(a: Tensor, idx) -> Tensor:
    """Basic slicing/indexing; backward writes the cotangent into a zero
    array of the source shape.  A basic index selects each element at most
    once, so a plain assignment is the scatter-add."""
    out = a.data[idx]

    def vjp(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return _make(out, (a,), vjp)


def broadcast_to(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    original = a.data.shape
    return _make(
        np.broadcast_to(a.data, shape).copy(),
        (a,),
        lambda g: (_unbroadcast(g, original),),
    )


# ---------------------------------------------------------------------------
# reductions

def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        gx = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gx, a.data.shape).copy(),)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.data.size
    else:
        count = int(np.prod([a.data.shape[ax] for ax in np.atleast_1d(axis)]))

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g / count, a.data.shape).copy(),)
        gx = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gx / count, a.data.shape).copy(),)

    return _make(a.data.mean(axis=axis, keepdims=keepdims), (a,), vjp)


# ---------------------------------------------------------------------------
# nonlinearities

def square(a: Tensor) -> Tensor:
    return _make(a.data * a.data, (a,), lambda g: (g * 2.0 * a.data,))


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid_values(a.data)
    return _make(out, (a,), lambda g: (g * out * (1.0 - out),))


def log_sigmoid(a: Tensor) -> Tensor:
    """log(sigmoid(a)) as -(max(-a, 0) + log1p(exp(-|a|))), finite for any
    finite logit; its derivative is sigmoid(-a)."""
    x = a.data
    out = -(np.maximum(-x, 0.0) + np.log1p(np.exp(-np.abs(x))))
    return _make(out, (a,), lambda g: (g * _sigmoid_values(-x),))


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    return _make(out, (a,), lambda g: (g * (out > 0),))


# ---------------------------------------------------------------------------
# fused layers

def add_layer_norm(x: Tensor, y: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """The residual sum x + y normalized over the last axis (biased variance),
    times gain plus bias.  Row means are GEMVs against a 1/d vector, and the
    gain and bias gradients GEMVs against a ones vector."""
    d = x.shape[-1]
    inv_d = np.full(d, 1.0 / d)
    normed = (x.data + y.data).reshape(-1, d)
    normed -= (normed @ inv_d)[:, None]
    inv = 1.0 / np.sqrt(((normed * normed) @ inv_d)[:, None] + eps)
    normed *= inv
    out = normed * gain.data
    out += bias.data

    def vjp(g):
        g2 = g.reshape(-1, d)
        gx = g2 * gain.data
        mean_gn = (gx * normed) @ inv_d
        gx -= (gx @ inv_d)[:, None]
        gx -= normed * mean_gn[:, None]
        gx *= inv
        gx = gx.reshape(x.shape)
        ones = np.ones(len(g2))
        return gx, gx, ones @ (g2 * normed), ones @ g2

    return _make(out.reshape(x.shape), (x, y, gain, bias), vjp)


_BLOCK_BYTES = 256 * 1024  # one row block's pairwise slab, sized to stay in L2


def _softmax_keys(scores: np.ndarray) -> None:
    """In-place softmax over the key axis -2, the key sums as GEMVs against ones."""
    scores -= scores.max(axis=-2, keepdims=True)
    np.exp(scores, out=scores)
    scores *= (1.0 / (np.ones(scores.shape[-2]) @ scores))[..., None, :]


def self_attention(qkv: Tensor, n_heads: int) -> Tensor:
    """Multi-head softmax(q k^T / sqrt(d_h)) v of a packed (n, S, 3d) input
    of [q | k | v] column blocks, heads split and merged inside the node;
    returns (n, S, d).  1/sqrt(d_h) is folded into q, and the scores are
    key-major, (n, h, S_k, S_q).  Both passes run over blocks of batch rows
    whose scores fit in _BLOCK_BYTES.  A node with a VJP keeps each block's
    probabilities for it, n h S^2 floats until its backward; otherwise each
    slab is freed with its block.  The VJP forms the softmax's row dot
    products p . dp as out . g over the head width."""
    n, S, d3 = qkv.shape
    dh = d3 // 3 // n_heads
    c = 1.0 / np.sqrt(dh)
    q, k, v = qkv.data.reshape(n, S, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)
    step = max(1, _BLOCK_BYTES // (8 * n_heads * S * S))
    blocks = [slice(i, i + step) for i in range(0, n, step)]
    out = np.empty((n, S, d3 // 3))
    heads = out.reshape(n, S, n_heads, dh).transpose(0, 2, 1, 3)
    kept, keep = [], _GRAD_ENABLED and qkv.requires_grad
    for b in blocks:
        probs = np.matmul(k[b], np.swapaxes(q[b] * c, -1, -2))
        _softmax_keys(probs)
        np.matmul(np.swapaxes(probs, -1, -2), v[b], out=heads[b])
        if keep:
            kept.append(probs)

    def vjp(g):
        gh = g.reshape(n, S, n_heads, dh).transpose(0, 2, 1, 3)
        grad = np.empty((n, S, 3, n_heads, dh))
        gq, gk, gv = grad.transpose(2, 0, 3, 1, 4)
        dots = ((out * g).reshape(-1, dh) @ np.ones(dh)).reshape(n, S, n_heads)
        for b, probs in zip(blocks, kept):
            qc = q[b] * c  # q exactly as the forward scaled it
            np.matmul(probs, gh[b], out=gv[b])
            gs = np.matmul(v[b], np.swapaxes(gh[b], -1, -2))
            gs -= dots.transpose(0, 2, 1)[b, :, None, :]
            gs *= probs
            np.matmul(gs, qc, out=gk[b])
            np.matmul(np.swapaxes(gs, -1, -2), k[b], out=gq[b])
        gq *= c
        return (grad.reshape(n, S, d3),)

    return _make(out, (qkv,), vjp)


def single_query_attention(
    q: Tensor, memory: Tensor, w_k: Tensor, w_v: Tensor, b_v: Tensor, n_heads: int
) -> Tensor:
    """Multi-head attention of one query per row, q (n, 1, d), over memory
    tokens M (n, T, d_m) with the key and value maps w_k, w_v (d_m, d)
    absorbed, so M is never projected.  Head h scores (q_h W_k,h^T) . M_j,
    and as its weights sum to one it mixes (sum_j p_j M_j) W_v,h + b_v,h.
    A key bias would add the same q_h . b_k,h to every score of a head and
    cancel in the softmax, so there is none.  Heads are column blocks of a
    (h, d) mask; the scores are key-major, (n, T, h)."""
    (n, _, dm), d = memory.shape, w_k.shape[1]
    mask = np.kron(np.eye(n_heads), np.ones(d // n_heads))
    q_mask = mask / np.sqrt(d // n_heads)
    qm = (q.data.reshape(n, 1, d) * q_mask).reshape(n * n_heads, d)  # a row per head
    absorbed = (qm @ w_k.data.T).reshape(n, n_heads, dm)
    probs = np.matmul(memory.data, np.swapaxes(absorbed, -1, -2))
    _softmax_keys(probs)
    pooled = np.matmul(np.swapaxes(probs, -1, -2), memory.data).reshape(n * n_heads, dm)
    out = ((pooled @ w_v.data).reshape(n, n_heads, d) * mask).sum(axis=1)
    out += b_v.data

    def vjp(g):
        g2 = g.reshape(n, d)
        g_full = (g2[:, None, :] * mask).reshape(n * n_heads, d)
        g_pooled = (g_full @ w_v.data.T).reshape(n, n_heads, dm)
        g_probs = np.matmul(memory.data, np.swapaxes(g_pooled, -1, -2))
        g_probs -= (pooled.reshape(n, n_heads, dm) * g_pooled).sum(axis=-1)[:, None, :]
        g_probs *= probs
        g_memory = np.matmul(probs, g_pooled)
        g_memory += np.matmul(g_probs, absorbed)
        g_absorbed = np.matmul(np.swapaxes(g_probs, -1, -2), memory.data).reshape(-1, dm)
        g_qm = (g_absorbed @ w_k.data).reshape(n, n_heads, d)
        g_q = (g_qm * q_mask).sum(axis=1).reshape(q.shape)
        return g_q, g_memory, g_absorbed.T @ qm, pooled.T @ g_full, np.ones(n) @ g2

    return _make(out.reshape(q.shape), (q, memory, w_k, w_v, b_v), vjp)


def recurrent_sequence(
    cell: str, h0: Tensor, u0: Tensor, w_i: Tensor, w_h: Tensor, biases: Sequence[Tensor],
    w_out: Tensor, b_out: Tensor, steps: int,
) -> Tensor:
    """Unroll a `cell` ("gru", "lstm" or "rnn") `steps` times from hidden
    state h0 (n, H) and first input u0 (n, f), feeding each output frame
    back as the next input: frame = h w_out + b_out;  u = frame.

    Gate weights are stacked in G column blocks: w_i (f, GH), w_h (H, GH)
    and the input bias b_i (GH,), the first of `biases`.  Per step:
      gru (z, r, n), biases (b_i, b_hn):
        z, r = sigmoid(u w_i + h w_h + b_i)  (first two blocks)
        cand = tanh(u w_in + b_in + r * (h w_hn + b_hn))
        h = (1 - z) cand + z h
      lstm (i, f, g, o), c = 0 at the start:
        i, f, o = sigmoid(.), g = tanh(.) of (u w_i + h w_h) + b_i
        c = f c + i g;  h = o tanh(c)
      rnn (one block):  h = tanh((u w_i + h w_h) + b_i)
    Returns the frames stacked on the last axis, (n, f, steps).  The VJP
    runs backpropagation through time over the saved gates and forms each
    weight gradient with one GEMM over all steps.
    """
    n, H = h0.shape
    f = u0.shape[1]
    gru, lstm = cell == "gru", cell == "lstm"
    b_i = biases[0].data
    us = np.empty((steps + 1, n, f))  # us[t] is step t's input, us[t + 1] its frame
    hs = np.empty((steps + 1, n, H))  # hs[t] is step t's incoming hidden state
    acts = np.empty((steps, n, w_i.shape[1]))  # gate activations
    aux = np.empty((steps, n, H))  # gru: h w_hn + b_hn;  lstm: tanh(c)
    cs = np.zeros((steps + 1, n, H)) if lstm else None  # lstm: cs[t] is step t's incoming c
    mixed = 2 * H if gru else w_i.shape[1]  # the GRU's candidate keeps h w_hn apart
    us[0], hs[0] = u0.data, h0.data
    for t in range(steps):
        pre = us[t] @ w_i.data
        gh = hs[t] @ w_h.data
        pre[:, :mixed] += gh[:, :mixed]
        pre += b_i
        if gru:
            acts[t, :, : 2 * H] = _sigmoid_values(pre[:, : 2 * H])
            z, r = acts[t, :, :H], acts[t, :, H : 2 * H]
            np.add(gh[:, 2 * H :], biases[1].data, out=aux[t])
            cand = np.tanh(pre[:, 2 * H :] + r * aux[t], out=acts[t, :, 2 * H :])
            hs[t + 1] = (1.0 - z) * cand + z * hs[t]
        elif lstm:
            acts[t] = _sigmoid_values(pre)
            i, fg, g, o = np.split(acts[t], 4, axis=1)
            np.tanh(pre[:, 2 * H : 3 * H], out=g)
            cs[t + 1] = fg * cs[t] + i * g
            hs[t + 1] = o * np.tanh(cs[t + 1], out=aux[t])
        else:
            np.tanh(pre, out=hs[t + 1])
        np.matmul(hs[t + 1], w_out.data, out=us[t + 1])
        us[t + 1] += b_out.data

    def vjp(g):
        d_pre = np.empty(acts.shape)  # cotangents of the u w_i products
        d_hid = np.empty(acts.shape) if gru else d_pre  # ... and of the h w_h products
        d_frames = g.transpose(2, 0, 1).copy()  # (steps, n, f)
        dh, dc, du = np.zeros((n, H)), np.zeros((n, H)), np.zeros((n, f))
        for t in reversed(range(steps)):
            d_frames[t] += du
            dh = dh + d_frames[t] @ w_out.data.T
            if gru:
                z, r, cand = acts[t, :, :H], acts[t, :, H : 2 * H], acts[t, :, 2 * H :]
                dn = dh * (1.0 - z) * (1.0 - cand * cand)
                dz = dh * (hs[t] - cand) * z * (1.0 - z)
                dr = dn * aux[t] * r * (1.0 - r)
                d_pre[t, :, :H] = d_hid[t, :, :H] = dz
                d_pre[t, :, H : 2 * H] = d_hid[t, :, H : 2 * H] = dr
                d_pre[t, :, 2 * H :] = dn
                d_hid[t, :, 2 * H :] = dn * r
            elif lstm:
                i, fg, gg, o = np.split(acts[t], 4, axis=1)
                di, df, dg, do = np.split(d_pre[t], 4, axis=1)
                dc = dc + dh * o * (1.0 - aux[t] * aux[t])
                np.multiply(dc * gg, i * (1.0 - i), out=di)
                np.multiply(dc * cs[t], fg * (1.0 - fg), out=df)
                np.multiply(dc * i, 1.0 - gg * gg, out=dg)
                np.multiply(dh * aux[t], o * (1.0 - o), out=do)
                dc = dc * fg
            else:
                np.multiply(dh, 1.0 - hs[t + 1] * hs[t + 1], out=d_pre[t])
            du = d_pre[t] @ w_i.data.T
            dh = (dh * z if gru else 0.0) + d_hid[t] @ w_h.data.T

        def rows(a):
            return a.reshape(-1, a.shape[-1])

        d_biases = [rows(d_pre).sum(axis=0)]
        if gru:  # b_hn: the candidate block of the h w_h cotangents
            d_biases.append(rows(d_hid[..., 2 * H :]).sum(axis=0))
        return (dh, du, rows(us[:-1]).T @ rows(d_pre), rows(hs[:-1]).T @ rows(d_hid), *d_biases,
                rows(hs[1:]).T @ rows(d_frames), rows(d_frames).sum(axis=0))

    return _make(us[1:].transpose(1, 2, 0), (h0, u0, w_i, w_h, *biases, w_out, b_out), vjp)


# ---------------------------------------------------------------------------
# distances and the kernel discrepancy

def sqnorm(a: Tensor) -> Tensor:
    """Squared L2 norm over all elements (scalar output)."""
    return _make(
        np.asarray((a.data * a.data).sum()), (a,), lambda g: (g * 2.0 * a.data,)
    )


def _sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """D[i, j] = ||a_i - b_j||^2 for row sets a (n, d) and b (m, d).

    It uses explicit differences (no a^2+b^2-2ab cancellation),
    so values agree with a double loop to machine precision.  They are
    formed for blocks of rows of a whose (rows, m, d) slab fits in
    _BLOCK_BYTES, so no (n, m, d) array is built.
    """
    out = np.empty((len(a), len(b)))
    step = max(1, _BLOCK_BYTES // (8 * b.size))
    diff = np.empty((min(step, len(out)),) + b.shape)
    for i in range(0, len(out), step):
        rows = diff[: len(out) - i]
        np.subtract(a[i : i + step, None, :], b, out=rows)
        rows *= rows
        rows.sum(axis=2, out=out[i : i + step])
    return out


def rbf_mmd2(a: Tensor, b: Tensor, sigma_sq: Callable[[np.ndarray], float]) -> Tensor:
    """Biased MMD^2 of row sets a (n, d) and b (m, d) with the RBF kernel
    K = exp(-D / (2 sigma^2)) over the squared distances D of z = [a; b]:
    (1/n^2) sum K_aa + (1/m^2) sum K_bb - (2/nm) sum K_ab.  `sigma_sq(D)` is
    a constant for the gradient; only K and z are kept for the VJP."""
    n, m = len(a.data), len(b.data)
    z = np.concatenate([a.data, b.data])
    k = _sqdist(z, z)
    c = -0.5 / sigma_sq(k)
    k *= c
    np.exp(k, out=k)
    w_aa, w_bb, w_ab = 1.0 / (n * n), 1.0 / (m * m), -2.0 / (n * m)
    value = (k[:n, :n].sum() * w_aa + k[n:, n:].sum() * w_bb) + k[:n, n:].sum() * w_ab

    def vjp(g):
        gk = np.zeros_like(k)
        gk[:n, :n] = g * w_aa
        gk[n:, n:] = g * w_bb
        gk[:n, n:] = g * w_ab
        gk *= k
        gk *= c
        gz = 2.0 * (gk.sum(axis=1)[:, None] * z - gk @ z)
        gz += 2.0 * (gk.sum(axis=0)[:, None] * z - gk.T @ z)
        return gz[:n], gz[n:]

    return _make(np.asarray(value), (a, b), vjp)


def grad_reverse(a: Tensor, weight: float = 1.0) -> Tensor:
    """Identity forward; backward multiplies the cotangent by -weight."""
    weight = float(weight)
    return _make(a.data.copy(), (a,), lambda g: (-weight * g,))


# ---------------------------------------------------------------------------
# backward pass and verification

def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
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
    return order  # parents precede consumers


def backward(loss: Tensor) -> None:
    """Accumulate dLoss/dLeaf into every reachable requires_grad leaf.

    The loss must be scalar.  The tape is freed as it is walked: once an
    interior node's VJP has run, its cotangent, its VJP closure (with the
    activations it saved) and its parent links are dropped and the node is
    marked done, so a later backward that reaches it raises (rebuild the
    graph for a fresh pass).  Leaf gradients accumulate across separate
    graphs until zeroed.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    order = _topo_order(loss)
    if any(node._done for node in order):
        raise GraphError("graph already backpropagated; rebuild it before calling again")

    loss.grad = np.ones_like(loss.data)
    while order:
        node = order.pop()
        if node._vjp is None:  # a leaf
            continue
        if node.grad is not None:
            for parent, g in zip(node._parents, node._vjp(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g
        node.grad = node._vjp = None
        node._parents = ()
        node._done = True
