"""Windowing of one parsed trajectory, and the composed window path that
`build_domain_dataset` replaced, kept as its oracle.

- `make_windows` runs the package's normalization and window constructor on
  a single `Trajectory`, for tests of the window contract.
- `oracle_dataset` builds a domain the old way: each engine's matrix is cut
  into its 3 settings and the rest and hstacked back together
  (`_features`); every window keeps its trajectory's unpadded normalized
  matrix and left-pads a short trajectory by replicating its first row each
  time its features are read (`OracleWindow`); and each test engine gets its
  own single last window (`_eval_window`).  `build_domain_dataset` must
  match it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from ruladapt.data import (
    N_SETTINGS,
    SOURCE,
    _windows,
    fit_normalization_matrix,
    normalize_matrix,
    split_train_val,
)


def make_windows(traj, K, stats, rc, *, labelled=True):
    """All stride-1 windows of a trajectory: T - K + 1 of them for T >= K,
    otherwise a single left-padded window ending at the last cycle."""
    return _windows(normalize_matrix(traj.features(), stats), traj.unit_id, K, rc, labelled)


@dataclass(frozen=True)
class OracleWindow:
    unit_id: int
    end_cycle: int
    window: int
    rul_scaled: float | None
    matrix: np.ndarray = field(repr=False)

    @property
    def features(self) -> np.ndarray:
        end, K = self.end_cycle, self.window
        if end >= K:
            return self.matrix[end - K : end].T
        pad = np.repeat(self.matrix[:1], K - end, axis=0)
        return np.vstack([pad, self.matrix[:end]]).T


def _features(traj, mask):
    settings, sensors = traj.matrix[:, :N_SETTINGS].copy(), traj.matrix[:, N_SETTINGS:].copy()
    full = np.hstack([settings, sensors])
    return full if mask is None else full[:, list(mask)]


def _train_windows(mat, unit_id, K, rc, labelled):
    T = len(mat)
    ends = np.arange(K, T + 1) if T >= K else np.array([T])
    labels = (np.minimum(T - ends, rc) / rc).tolist() if labelled else [None] * len(ends)
    return [OracleWindow(unit_id, t, K, label, mat) for t, label in zip(ends.tolist(), labels)]


def _eval_window(mat, unit_id, K, truth_rul, rc):
    return OracleWindow(unit_id, len(mat), K, min(float(truth_rul), rc) / rc, mat)


def oracle_dataset(train_trajs, test_trajs, test_truth, *, role, window, rc,
                   feature_mask=None, val_seed, val_fraction):
    """The windows, units and truth `build_domain_dataset` returns, built by
    the composed path."""
    test_truth = np.atleast_1d(np.asarray(test_truth, dtype=np.float64))
    train = [(t.unit_id, _features(t, feature_mask)) for t in train_trajs]
    stats = fit_normalization_matrix([m for _, m in train])
    train_part, val_part = split_train_val(train, val_seed, val_fraction)

    def window_all(parts):
        return [w for unit, raw in parts
                for w in _train_windows(normalize_matrix(raw, stats), unit, window, rc,
                                        role == SOURCE)]

    return SimpleNamespace(
        train_windows=window_all(train_part),
        val_windows=window_all(val_part),
        test_windows=[
            _eval_window(normalize_matrix(_features(t, feature_mask), stats), t.unit_id,
                         window, truth, rc)
            for t, truth in zip(test_trajs, test_truth)
        ],
        test_rul_truth=test_truth,
        train_units=tuple(u for u, _ in train_part),
        val_units=tuple(u for u, _ in val_part),
    )
