"""Reverse-mode automatic differentiation over numpy arrays.

Operations record an implicit DAG as they execute; :func:`backward` replays
the tape in reverse topological order and accumulates exact vector-Jacobian
products into every ``requires_grad`` leaf.  All math is plain numpy in
float64, the one supported dtype: every array is cast to it on entry.

The primitive set is deliberately small: elementwise arithmetic, matmul with
batched operands (a 2-D right operand runs as a single GEMM), shape ops,
reductions, the usual activations, and two distance helpers (`sqnorm`,
`pairwise_sqdist`) that the kernel losses build on.  `layer_norm` and
`attention` are fused primitives with hand-written VJPs, one graph node each
in place of the 8-12 primitives they would take composed.  `grad_reverse` is
the identity forward / sign-flipped backward used by the adversarial
baseline.
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
    the output cotangent to per-parent cotangents.
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

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a graph-root copy of the current value (no gradient flow)."""
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; constants are wrapped as gradient-free leaves
    def __add__(self, other):
        return add(self, _wrap(other, self))

    def __radd__(self, other):
        return add(_wrap(other, self), self)

    def __sub__(self, other):
        return sub(self, _wrap(other, self))

    def __rsub__(self, other):
        return sub(_wrap(other, self), self)

    def __mul__(self, other):
        return mul(self, _wrap(other, self))

    def __rmul__(self, other):
        return mul(_wrap(other, self), self)

    def __truediv__(self, other):
        return div(self, _wrap(other, self))

    def __rtruediv__(self, other):
        return div(_wrap(other, self), self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other, self))

    def __neg__(self):
        return scale(self, -1.0)

    def __getitem__(self, idx):
        return take(self, idx)


def _wrap(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


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


def div(a: Tensor, b: Tensor) -> Tensor:
    return _make(
        a.data / b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
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
    if b.ndim == 2:
        # Fold every leading axis of `a` into the rows of one GEMM, forward
        # and backward, instead of a batched matmul plus a reduction.
        a2 = a.data.reshape(-1, a.shape[-1])

        def vjp2(g):
            g2 = g.reshape(-1, g.shape[-1])
            return (g2 @ b.data.T).reshape(a.data.shape), a2.T @ g2

        out = (a2 @ b.data).reshape(a.shape[:-1] + b.shape[-1:])
        return _make(out, (a, b), vjp2)

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return _make(np.matmul(a.data, b.data), (a, b), vjp)


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
    """Basic slicing/indexing; backward scatter-adds into the source shape."""
    out = a.data[idx]

    def vjp(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
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

def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _make(out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _make(out, (a,), lambda g: (g * 0.5 / out,))


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


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _make(out, (a,), lambda g: (g * (1.0 - out * out),))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _make(a.data * mask, (a,), lambda g: (g * mask,))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), vjp)


# ---------------------------------------------------------------------------
# fused layers

def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """(x - mean) / sqrt(var + eps) * gain + bias, normalized over the last
    axis (biased variance); one node for the composed chain of primitives."""
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
    (..., S_k, d_k) and (..., S_k, d_v).  The probabilities are the only
    intermediate kept for the backward pass; the score-sized temporaries
    are updated in place."""
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


# ---------------------------------------------------------------------------
# distance helpers

def sqnorm(a: Tensor) -> Tensor:
    """Squared L2 norm over all elements (scalar output)."""
    return _make(
        np.asarray((a.data * a.data).sum()), (a,), lambda g: (g * 2.0 * a.data,)
    )


def pairwise_sqdist(a: Tensor, b: Tensor) -> Tensor:
    """D[i, j] = ||a_i - b_j||^2 for row sets a (n, d) and b (m, d).

    The forward pass uses explicit differences (no a^2+b^2-2ab cancellation),
    so values agree with a double loop to machine precision.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise GraphError(f"pairwise_sqdist expects (n, d), (m, d); got {a.shape}, {b.shape}")
    diff = a.data[:, None, :] - b.data[None, :, :]
    out = (diff * diff).sum(axis=2)

    def vjp(g):
        ga = 2.0 * (g.sum(axis=1)[:, None] * a.data - g @ b.data)
        gb = 2.0 * (g.sum(axis=0)[:, None] * b.data - g.T @ a.data)
        return ga, gb

    return _make(out, (a, b), vjp)


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

    The loss must be scalar.  Calling backward twice on the same graph raises
    (the recorded tape is single-use; rebuild the graph for a fresh pass).
    Leaf gradients accumulate across separate graphs until zeroed.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if loss._done:
        raise GraphError("graph already backpropagated; rebuild it before calling again")

    order = _topo_order(loss)
    for node in order:
        if node._parents:  # interior nodes start clean; leaves keep accumulating
            node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._vjp is None or node.grad is None:
            continue
        grads = node._vjp(node.grad)
        for parent, g in zip(node._parents, grads):
            if g is None or not parent.requires_grad:
                continue
            parent.grad = g if parent.grad is None else parent.grad + g
    loss._done = True


def grad_check(f, x, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` maps a single Tensor to a scalar Tensor and must be differentiable at
    `x` (pick probe points away from relu/abs kinks).  Error per coordinate is
    |a - n| / max(1, |a|, |n|); the maximum over coordinates is returned.
    """
    if not 1e-6 <= eps <= 1e-3:
        raise ValueError(f"eps must lie in [1e-6, 1e-3], got {eps}")
    base = np.array(x.data if isinstance(x, Tensor) else x, dtype=np.float64)

    probe = Tensor(base.copy(), requires_grad=True)
    out = f(probe)
    if out.data.size != 1:
        raise ValueError("grad_check target must be scalar-valued")
    backward(out)
    analytic = probe.grad if probe.grad is not None else np.zeros_like(base)
    analytic = analytic.reshape(-1)

    flat = base.reshape(-1)
    numeric = np.zeros_like(flat)
    with no_grad():
        for i in range(flat.size):
            bumped = flat.copy()
            bumped[i] += eps
            hi = float(f(Tensor(bumped.reshape(base.shape))).data)
            bumped[i] -= 2.0 * eps
            lo = float(f(Tensor(bumped.reshape(base.shape))).data)
            numeric[i] = (hi - lo) / (2.0 * eps)

    if flat.size == 0:
        return 0.0
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))
