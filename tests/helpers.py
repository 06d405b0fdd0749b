"""Test-only helpers: a widths-8 model configuration, a writer for the flat
trajectory layout, and scalar min-max normalization as the reference for
`normalize_matrix`."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ruladapt.data import NormalizationStats, Trajectory
from ruladapt.model import ModelConfig


def tiny_model_config(n_features: int = 4, window: int = 8, **overrides) -> ModelConfig:
    """Widths-8 configuration for gradient checks and fast unit tests."""
    base = dict(
        n_features=n_features, window=window, attn_dim=8, n_heads=2,
        n_encoder_layers=1, n_decoder_layers=1, ffn_dim=16,
        squeeze_hidden=16, bottleneck=8, head_dim=8,
    )
    base.update(overrides)
    return ModelConfig(**base)


def format_trajectories(trajectories: Sequence[Trajectory]) -> str:
    """Serialize back to the flat layout; reparsing reproduces the input."""
    lines = []
    for traj in trajectories:
        block = np.hstack([traj.op_settings, traj.sensors])
        for t, row in enumerate(block, start=1):
            values = " ".join(repr(float(v)) for v in row)
            lines.append(f"{traj.unit_id} {t} {values}")
    return "\n".join(lines) + "\n"


def normalize(x: float, j: int, stats: NormalizationStats) -> float:
    """Min-max scale one value of feature j; constant features map to 0."""
    if stats.constant[j]:
        return 0.0
    return (x - stats.minimum[j]) / (stats.maximum[j] - stats.minimum[j])


def denormalize(y: float, j: int, stats: NormalizationStats) -> float:
    if stats.constant[j]:
        return float(stats.minimum[j])
    return y * (stats.maximum[j] - stats.minimum[j]) + stats.minimum[j]
