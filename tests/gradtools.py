"""Gradient verification helpers.

`grad_check` compares a scalar function's analytic gradient with central
differences.  It works on a single tensor, so to check a loss against every
parameter at once we view the parameter set as one flat vector: the model's
parameter tensors are temporarily replaced by slices of that vector, making
the loss an ordinary scalar function of it.
"""

from __future__ import annotations

import numpy as np

from ruladapt import autodiff as ad
from ruladapt.autodiff import Tensor, backward, no_grad


def split_flat(flat: Tensor, shapes) -> list[Tensor]:
    """Consecutive slices of a flat tensor, reshaped to `shapes`, so that one
    `grad_check` over `flat` covers every input of a many-input primitive."""
    pieces, offset = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        pieces.append(ad.reshape(flat[offset : offset + size], shape))
        offset += size
    return pieces


def pack_params(params: dict[str, Tensor]) -> np.ndarray:
    return np.concatenate([p.data.ravel() for p in params.values()])


def flat_loss_fn(model, build_loss):
    """(f, x0) where f maps a flat parameter Tensor to build_loss(model).

    `build_loss` receives the model with its parameters rebound to slices of
    the flat tensor, so gradients flow back to the single input.  The
    original parameter tensors are restored after each call.
    """
    names = list(model.params)
    shapes = {n: model.params[n].data.shape for n in names}
    sizes = {n: model.params[n].data.size for n in names}
    originals = dict(model.params)
    x0 = pack_params(model.params)

    def f(flat: Tensor) -> Tensor:
        offset = 0
        try:
            for name in names:
                piece = flat[offset : offset + sizes[name]]
                model.params[name] = ad.reshape(piece, shapes[name])
                offset += sizes[name]
            return build_loss(model)
        finally:
            model.params.update(originals)

    return f, x0


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
