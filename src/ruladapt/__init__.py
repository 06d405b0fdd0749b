"""Unsupervised domain adaptation for remaining-useful-life regression.

Subpackages split along pipeline stages: `autodiff` (reverse-mode engine),
`data` (run-to-failure ingestion and windowing), `model` (twin-stream
attention network), `losses` (alignment and regularization terms),
`training` (deterministic optimization loop), `evaluation` (metrics and
report tables) and `cli` (operator entry point).
"""

from .autodiff import Tensor, backward, no_grad

__all__ = ["Tensor", "backward", "no_grad"]
__version__ = "0.1.0"
