"""Test-only helpers: a widths-8 model configuration, a writer for the flat
trajectory layout, min-max stats fitted on trajectories, scalar min-max
normalization as the reference for `normalize_matrix`, and a small
in-memory two-domain task."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ruladapt.data import (
    SOURCE,
    TARGET,
    DomainDataset,
    NormalizationStats,
    Trajectory,
    build_domain_dataset,
    fit_normalization_matrix,
)
from ruladapt.model import ModelConfig

TOY_RC = 60.0  # label cap of the in-memory two-domain task


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
        for t, row in enumerate(traj.matrix, start=1):
            values = " ".join(repr(float(v)) for v in row)
            lines.append(f"{traj.unit_id} {t} {values}")
    return "\n".join(lines) + "\n"


def fit_normalization(trajectories: Sequence[Trajectory], feature_mask=None) -> NormalizationStats:
    """Min-max stats over the trajectories' (masked) feature matrices."""
    return fit_normalization_matrix([t.features(feature_mask) for t in trajectories])


def normalize(x: float, j: int, stats: NormalizationStats) -> float:
    """Min-max scale one value of feature j; constant features map to 0."""
    if stats.constant[j]:
        return 0.0
    return (x - stats.minimum[j]) / (stats.maximum[j] - stats.minimum[j])


def denormalize(y: float, j: int, stats: NormalizationStats) -> float:
    if stats.constant[j]:
        return float(stats.minimum[j])
    return y * (stats.maximum[j] - stats.minimum[j]) + stats.minimum[j]


def _toy_engines(rng, n, n_features, bases, amps, mix, offset, noise, length_range, truncate):
    trajs, truth = [], []
    lo, hi = length_range
    for unit in range(1, n + 1):
        T = int(rng.integers(lo, hi + 1))
        p = rng.uniform(1.6, 2.4)
        health = (np.arange(1, T + 1) / T) ** p
        x = bases + health[:, None] * amps + rng.normal(0.0, noise, size=(T, n_features))
        x = x @ mix.T + offset
        if truncate:
            T_obs = int(rng.integers(max(6, lo // 4), T - 2))
            trajs.append(Trajectory(unit, x[:T_obs].copy()))
            truth.append(float(T - T_obs))
        else:
            trajs.append(Trajectory(unit, x))
    return trajs, np.array(truth)


def make_toy_domains(
    seed: int = 1,
    *,
    n_features: int = 8,
    window: int = 16,
    n_source: int = 24,
    n_target: int = 24,
    n_source_test: int = 8,
    n_target_test: int = 12,
    rc: float = TOY_RC,
    noise: float = 0.02,
    distortion: float = 0.35,
    val_seed: int = 42,
) -> tuple[DomainDataset, DomainDataset]:
    """Source degradation curves plus a mixed-affine-distorted target domain.

    The distortion mixes features (off-diagonal affine map), so per-feature
    min-max normalization cannot undo it and latent alignment has real work
    to do.  Target training windows carry no labels; target test windows are
    labeled from the held-back truncation truth.
    """
    rng = np.random.default_rng([seed, 0xD0])
    bases = rng.uniform(-0.5, 0.5, size=n_features)
    amps = rng.choice([-1.0, 1.0], size=n_features) * rng.uniform(0.4, 1.0, size=n_features)
    identity = np.eye(n_features)
    target_mix = identity + rng.uniform(-distortion, distortion, size=(n_features, n_features))
    target_offset = rng.uniform(-0.5 * distortion, 0.5 * distortion, size=n_features)
    lengths = (45, 90)

    src_train, _ = _toy_engines(
        rng, n_source, n_features, bases, amps, identity, 0.0, noise, lengths, False
    )
    src_test, src_truth = _toy_engines(
        rng, n_source_test, n_features, bases, amps, identity, 0.0, noise, lengths, True
    )
    tgt_train, _ = _toy_engines(
        rng, n_target, n_features, bases, amps, target_mix, target_offset, noise, lengths, False
    )
    tgt_test, tgt_truth = _toy_engines(
        rng, n_target_test, n_features, bases, amps, target_mix, target_offset, noise, lengths, True
    )

    source = build_domain_dataset(
        src_train, src_test, src_truth,
        subset="toy-src", role=SOURCE, window=window, rc=rc, val_seed=val_seed,
        val_fraction=0.1,
    )
    target = build_domain_dataset(
        tgt_train, tgt_test, tgt_truth,
        subset="toy-tgt", role=TARGET, window=window, rc=rc, val_seed=val_seed,
        val_fraction=0.1,
    )
    return source, target
