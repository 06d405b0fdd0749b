"""Whole-model gradient verification helpers.

`grad_check` works on a single tensor, so to check a loss against every
parameter at once we view the parameter set as one flat vector: the model's
parameter tensors are temporarily replaced by slices of that vector, making
the loss an ordinary scalar function of it.
"""

from __future__ import annotations

import numpy as np

from ruladapt import autodiff as ad
from ruladapt.autodiff import Tensor


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
