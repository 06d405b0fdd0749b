"""Windowing of one parsed trajectory, for tests of the window contract.

The package builds windows inside `dataset_from_matrices`; this helper runs
the same normalization and windowing on a single `Trajectory`.
"""

from __future__ import annotations

from ruladapt.data import DEFAULT_RC, SOURCE, _windows_from_matrix, normalize_matrix


def make_windows(traj, K, stats, rc=DEFAULT_RC, *, labelled=True):
    """All stride-1 windows of a trajectory: T - K + 1 of them for T >= K,
    otherwise a single left-padded window ending at the last cycle."""
    mat = normalize_matrix(traj.features(), stats)
    return _windows_from_matrix(mat, traj.unit_id, K, rc, SOURCE, labelled)
