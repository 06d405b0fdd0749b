"""Run-to-failure data pipeline: parsing, normalization, windowing, splits.

Input files follow the turbofan benchmark layout: whitespace-separated rows
of ``unit cycle setting_1..3 sensor_1..21`` plus a one-value-per-line file of
true remaining cycles for each test engine.  Everything downstream works on
per-trajectory feature matrices, so the same machinery also serves synthetic
tasks with arbitrary feature counts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

N_SETTINGS = 3
N_SENSORS = 21
N_FEATURES = N_SETTINGS + N_SENSORS
N_COLUMNS = 2 + N_FEATURES  # unit, cycle, settings, sensors

ALL_FEATURES = tuple(range(N_FEATURES))
DEFAULT_RC = 125.0

SOURCE = "source"
TARGET = "target"


class ParseError(ValueError):
    """Malformed input row (wrong arity or non-numeric token)."""


class IntegrityError(ValueError):
    """Structurally valid file with inconsistent content."""


class SplitError(ValueError):
    """Not enough trajectories to split."""


# ---------------------------------------------------------------------------
# trajectories and parsing

@dataclass(frozen=True, eq=False)
class Trajectory:
    """One engine's full cycle record; cycles are implicitly 1..T.  Records
    compare by identity; compare their arrays to compare contents."""

    unit_id: int
    op_settings: np.ndarray  # (T, 3)
    sensors: np.ndarray  # (T, 21)

    def __post_init__(self):
        if self.op_settings.ndim != 2 or self.op_settings.shape[1] != N_SETTINGS:
            raise IntegrityError(f"unit {self.unit_id}: op_settings must be (T, {N_SETTINGS})")
        if self.sensors.ndim != 2 or self.sensors.shape[1] != N_SENSORS:
            raise IntegrityError(f"unit {self.unit_id}: sensors must be (T, {N_SENSORS})")
        if len(self.op_settings) != len(self.sensors) or len(self.sensors) == 0:
            raise IntegrityError(f"unit {self.unit_id}: inconsistent or empty cycle record")

    def features(self, mask: Sequence[int] | None = None) -> np.ndarray:
        """(T, f) matrix of the selected columns (settings first, then sensors)."""
        full = np.hstack([self.op_settings, self.sensors])
        if mask is None:
            return full
        return full[:, list(mask)]


def _read_numeric_rows(path: Path, n_columns: int) -> np.ndarray:
    """(rows, n_columns) float64 matrix of a whitespace-separated file, parsed
    in one bulk call; blank lines are skipped."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # numpy warns on an empty file
            rows = np.loadtxt(path, dtype=np.float64, comments=None, ndmin=2)
    except ValueError as exc:
        raise _first_bad_line(path, n_columns, str(exc)) from None
    if rows.shape[1] != n_columns or len(rows) == 0:
        raise _first_bad_line(path, n_columns, f"expected {n_columns} columns")
    return rows


def _first_bad_line(path: Path, n_columns: int, reason: str) -> ParseError:
    """The error for a file the bulk parse rejected, naming its first
    malformed line; `reason` is used only when no line is malformed for
    Python's `float`."""
    seen_row = False
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            seen_row = True
            if len(tokens) != n_columns:
                return ParseError(
                    f"{path}:{line_no}: expected {n_columns} columns, got {len(tokens)}"
                )
            try:
                list(map(float, tokens))
            except ValueError as exc:
                return ParseError(f"{path}:{line_no}: non-numeric value ({exc})")
    return ParseError(f"{path}: {reason}" if seen_row else f"{path}: empty file")


def _group_trajectories(path: Path, rows: np.ndarray) -> list[Trajectory]:
    """Rows grouped by unit, units in first-appearance order, each unit's rows
    in file order."""
    if not (np.abs(rows[:, :2]) < 2.0**63).all():
        raise IntegrityError(f"{path}: unit and cycle columns must be finite integers")
    ids = rows[:, :2].astype(np.int64)  # truncates toward zero, as int() does
    order = np.argsort(ids[:, 0], kind="stable")
    sorted_units = ids[order, 0]
    groups = np.split(order, np.flatnonzero(sorted_units[1:] != sorted_units[:-1]) + 1)
    groups.sort(key=lambda g: g[0])
    trajectories = []
    for idx in groups:
        unit = int(ids[idx[0], 0])
        if not np.array_equal(ids[idx, 1], np.arange(1, len(idx) + 1)):
            raise IntegrityError(
                f"{path}: unit {unit}: cycle indices must run 1..T with step 1"
            )
        block = rows[idx, 2:]
        trajectories.append(
            Trajectory(unit, block[:, :N_SETTINGS].copy(), block[:, N_SETTINGS:].copy())
        )
    return trajectories


def parse_trajectory_file(path) -> list[Trajectory]:
    path = Path(path)
    return _group_trajectories(path, _read_numeric_rows(path, N_COLUMNS))


def parse_rul_file(path) -> np.ndarray:
    path = Path(path)
    return _read_numeric_rows(path, 1)[:, 0]


def parse_cmapss(train_path, test_path, rul_path):
    """Parse one subset's three flat files.

    Returns (train trajectories, test trajectories, true RUL vector); the RUL
    vector holds one value per test engine, in file order.
    """
    train = parse_trajectory_file(train_path)
    test = parse_trajectory_file(test_path)
    truth = parse_rul_file(rul_path)
    if len(truth) != len(test):
        raise IntegrityError(
            f"{rul_path}: {len(truth)} RUL values for {len(test)} test trajectories"
        )
    return train, test, truth


# ---------------------------------------------------------------------------
# normalization

@dataclass(frozen=True)
class NormalizationStats:
    """Per-feature min/max fitted on one domain's training trajectories."""

    minimum: np.ndarray
    maximum: np.ndarray
    constant: np.ndarray  # bool mask of max == min columns

    def __post_init__(self):
        if np.any(self.maximum < self.minimum):
            raise IntegrityError("normalization stats with max < min")


def fit_normalization_matrix(matrices: Sequence[np.ndarray]) -> NormalizationStats:
    if not matrices:
        raise ValueError("cannot fit normalization on an empty trajectory list")
    stacked = np.vstack(matrices)
    lo = stacked.min(axis=0)
    hi = stacked.max(axis=0)
    return NormalizationStats(lo, hi, hi == lo)


def normalize_matrix(features: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    span = np.where(stats.constant, 1.0, stats.maximum - stats.minimum)
    out = (features - stats.minimum) / span
    out[:, stats.constant] = 0.0
    return out


# ---------------------------------------------------------------------------
# labels and windows

@dataclass(frozen=True)
class WindowSample:
    """One sliding window ending at `end_cycle` of a normalized trajectory.

    `matrix` is the trajectory's full (T, f) normalized feature matrix,
    shared across the trajectory's windows; `features` materializes the
    (f, K) slice, left-padding short trajectories by replicating the
    earliest cycle's row.
    """

    unit_id: int
    end_cycle: int
    window: int
    domain_tag: str
    rul_scaled: float | None
    matrix: np.ndarray = field(repr=False)

    @property
    def features(self) -> np.ndarray:
        end, K = self.end_cycle, self.window
        if end >= K:
            return self.matrix[end - K : end].T
        pad = np.repeat(self.matrix[:1], K - end, axis=0)
        return np.vstack([pad, self.matrix[:end]]).T


def _windows_from_matrix(mat, unit_id, K, rc, domain_tag, labelled):
    """Every stride-1 window of one trajectory; labelled windows carry the
    piecewise-linear scaled label min(T - t, rc) / rc of their end cycle t."""
    T = len(mat)
    ends = np.arange(K, T + 1) if T >= K else np.array([T])
    if labelled and rc <= 0:
        raise ValueError(f"rc must be positive, got {rc}")
    labels = (np.minimum(T - ends, rc) / rc).tolist() if labelled else [None] * len(ends)
    return [
        WindowSample(
            unit_id=unit_id,
            end_cycle=t,
            window=K,
            domain_tag=domain_tag,
            rul_scaled=label,
            matrix=mat,
        )
        for t, label in zip(ends.tolist(), labels)
    ]


def _eval_window(mat, unit_id, K, truth_rul, rc, domain_tag) -> WindowSample:
    """The single last window of a test trajectory, labeled from the provided
    true remaining cycles (capped at rc, scaled by rc)."""
    return WindowSample(
        unit_id=unit_id,
        end_cycle=len(mat),
        window=K,
        domain_tag=domain_tag,
        rul_scaled=min(float(truth_rul), rc) / rc,
        matrix=mat,
    )


def stack_windows(windows: Sequence[WindowSample], indices=None):
    """Gather windows into (n, f, K) features and (n, 1) labels (None if any
    window is unlabeled)."""
    chosen = windows if indices is None else [windows[i] for i in indices]
    X = np.stack([w.features for w in chosen])
    if any(w.rul_scaled is None for w in chosen):
        return X, None
    y = np.array([[w.rul_scaled] for w in chosen], dtype=np.float64)
    return X, y


# ---------------------------------------------------------------------------
# splits and datasets

def split_train_val(trajectories: Sequence, seed: int, fraction: float):
    """Engine-level split, deterministic in `seed`; returns (train, val)."""
    if not 0 < fraction < 1:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    n = len(trajectories)
    if n < 2:
        raise SplitError(f"need at least 2 trajectories to split, got {n}")
    n_val = min(max(1, round(n * fraction)), n - 1)
    perm = np.random.default_rng(seed).permutation(n)
    val_idx = set(perm[:n_val].tolist())
    train = [trajectories[i] for i in range(n) if i not in val_idx]
    val = [trajectories[i] for i in range(n) if i in val_idx]
    return train, val


@dataclass
class DomainDataset:
    """One domain's windows plus the stats and truth needed to evaluate on it."""

    subset: str
    role: str  # SOURCE or TARGET
    window: int
    rc: float
    stats: NormalizationStats
    train_windows: list[WindowSample]
    val_windows: list[WindowSample]
    test_windows: list[WindowSample]
    test_rul_truth: np.ndarray
    train_units: tuple[int, ...]
    val_units: tuple[int, ...]

    def __post_init__(self):
        if set(self.train_units) & set(self.val_units):
            raise IntegrityError("train and validation engines overlap")
        if len(self.test_windows) != len(self.test_rul_truth):
            raise IntegrityError(
                f"{len(self.test_windows)} evaluation windows for "
                f"{len(self.test_rul_truth)} truth values"
            )
        units = [w.unit_id for w in self.test_windows]
        if len(set(units)) != len(units):
            raise IntegrityError("more than one evaluation window for a test engine")


def dataset_from_matrices(
    train_mats,  # (unit_id, raw (T, f) matrix) pairs
    test_mats,
    test_truth,
    *,
    subset: str,
    role: str,
    window: int,
    rc: float,
    val_seed: int = 42,
    val_fraction: float = 0.1,
) -> DomainDataset:
    """Dataset over raw (unit_id, matrix) pairs; serves synthetic tasks whose
    feature count differs from the 24-column flat layout."""
    train_mats, test_mats = list(train_mats), list(test_mats)
    test_truth = np.atleast_1d(np.asarray(test_truth, dtype=np.float64))
    if len(test_mats) != len(test_truth):
        raise IntegrityError(
            f"{subset}: {len(test_mats)} test engines for {len(test_truth)} truth values"
        )
    stats = fit_normalization_matrix([m for _, m in train_mats])
    train_part, val_part = split_train_val(train_mats, val_seed, val_fraction)
    labelled = role == SOURCE

    def window_all(parts):
        out = []
        for unit, raw in parts:
            mat = normalize_matrix(raw, stats)
            out.extend(_windows_from_matrix(mat, unit, window, rc, role, labelled))
        return out

    test_windows = [
        _eval_window(normalize_matrix(raw, stats), unit, window, truth, rc, role)
        for (unit, raw), truth in zip(test_mats, test_truth)
    ]
    return DomainDataset(
        subset=subset,
        role=role,
        window=window,
        rc=rc,
        stats=stats,
        train_windows=window_all(train_part),
        val_windows=window_all(val_part),
        test_windows=test_windows,
        test_rul_truth=test_truth,
        train_units=tuple(u for u, _ in train_part),
        val_units=tuple(u for u, _ in val_part),
    )


def build_domain_dataset(
    train_trajs: Sequence[Trajectory],
    test_trajs: Sequence[Trajectory],
    test_truth,
    *,
    subset: str,
    role: str,
    window: int,
    rc: float = DEFAULT_RC,
    feature_mask: Sequence[int] | None = None,
    val_seed: int = 42,
    val_fraction: float = 0.1,
) -> DomainDataset:
    return dataset_from_matrices(
        [(t.unit_id, t.features(feature_mask)) for t in train_trajs],
        [(t.unit_id, t.features(feature_mask)) for t in test_trajs],
        test_truth,
        subset=subset,
        role=role,
        window=window,
        rc=rc,
        val_seed=val_seed,
        val_fraction=val_fraction,
    )


def subset_paths(data_dir, subset: str) -> tuple[Path, Path, Path]:
    root = Path(data_dir)
    return (
        root / f"train_{subset}.txt",
        root / f"test_{subset}.txt",
        root / f"RUL_{subset}.txt",
    )
