"""Run-to-failure data pipeline: parsing, normalization, windowing, splits.

Input files follow the turbofan benchmark layout: whitespace-separated rows
of ``unit cycle setting_1..3 sensor_1..21`` plus a one-value-per-line file of
true remaining cycles for each test engine.  A parsed engine is one (T, 24)
feature matrix, and everything downstream works on such matrices, so the
same builder also serves synthetic tasks with other feature counts.
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
    """One engine's full cycle record as its (T, f) feature matrix, cycles
    implicitly 1..T; a flat file's columns are the 3 settings, then the 21
    sensors.  Records compare by identity; compare their arrays to compare
    contents."""

    unit_id: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.matrix.ndim != 2 or self.matrix.size == 0:
            raise IntegrityError(f"unit {self.unit_id}: matrix must be a non-empty (T, f) array")

    def features(self, mask: Sequence[int] | None = None) -> np.ndarray:
        """The (T, f) matrix, or its `mask` columns."""
        return self.matrix if mask is None else self.matrix[:, list(mask)]


def _read_numeric_rows(path: Path, n_columns: int) -> np.ndarray:
    """(rows, n_columns) float64 matrix of a whitespace-separated file, parsed
    in one bulk call; blank lines are skipped and every value must be finite."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # numpy warns on an empty file
            rows = np.loadtxt(path, dtype=np.float64, comments=None, ndmin=2)
    except ValueError as exc:
        raise _first_bad_line(path, n_columns, str(exc)) from None
    if rows.shape[1] != n_columns or len(rows) == 0:
        raise _first_bad_line(path, n_columns, f"expected {n_columns} columns")
    if not np.isfinite(rows).all():
        raise _first_bad_line(path, n_columns, "non-finite value")
    return rows


def _first_bad_line(path: Path, n_columns: int, reason: str) -> ValueError:
    """The error for a file `_read_numeric_rows` rejected, naming its first
    malformed line (a ParseError) or line with a non-finite value (an
    IntegrityError); `reason` is used only when no line is either."""
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
                values = list(map(float, tokens))
            except ValueError as exc:
                return ParseError(f"{path}:{line_no}: non-numeric value ({exc})")
            if not np.isfinite(values).all():
                return IntegrityError(f"{path}:{line_no}: non-finite value")
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
        trajectories.append(Trajectory(unit, rows[idx, 2:]))
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

@dataclass(eq=False, slots=True)
class WindowSample:
    """One sliding window ending at `end_cycle` of a normalized trajectory.

    `matrix` is the trajectory's normalized feature matrix, shared by all its
    windows and left-padded to K rows if the trajectory is shorter; `rows`
    are this window's K rows of it, and `features` their (f, K) transpose.
    A full-size source/target pair has ~25 k of them, so the record has
    slots and is not frozen, which halves the time to create one; records
    compare by identity.
    """

    unit_id: int
    end_cycle: int
    rul_scaled: float | None
    matrix: np.ndarray = field(repr=False)
    rows: slice = field(repr=False)

    @property
    def features(self) -> np.ndarray:
        return self.matrix[self.rows].T


def _windows(mat, unit_id, K, rc, labelled, truth=None) -> list[WindowSample]:
    """The windows of one normalized trajectory, each K rows of one matrix: a
    trajectory shorter than K is left-padded here, once, by repeating its
    first row.  Without `truth`, every stride-1 window, labelled (if
    `labelled`) with the piecewise-linear min(T - t, rc) / rc of its end
    cycle t; with `truth`, the last window only, labelled min(truth, rc) / rc
    from the true remaining cycles."""
    if labelled and rc <= 0:
        raise ValueError(f"rc must be positive, got {rc}")
    T = len(mat)
    ends = np.arange(K, T + 1) if T >= K and truth is None else np.array([T])
    remaining = T - ends if truth is None else np.array([truth])
    labels = (np.minimum(remaining, rc) / rc).tolist() if labelled else [None] * len(ends)
    pad = max(K - T, 0)
    if pad:
        mat = np.vstack([np.repeat(mat[:1], pad, axis=0), mat])
    return [
        WindowSample(unit_id, t, label, mat, slice(t + pad - K, t + pad))
        for t, label in zip(ends.tolist(), labels)
    ]


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
    """One domain's windows plus the truth needed to evaluate on it."""

    subset: str
    role: str  # SOURCE or TARGET
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


def build_domain_dataset(
    train_trajs: Sequence[Trajectory],
    test_trajs: Sequence[Trajectory],
    test_truth,
    *,
    subset: str,
    role: str,
    window: int,
    rc: float,
    feature_mask: Sequence[int] | None = None,
    val_seed: int,
    val_fraction: float,
) -> DomainDataset:
    """One domain's dataset over trajectories of any feature width: min-max
    stats fitted on every training engine, an engine-level validation split,
    all stride-1 windows of the training engines (labelled in the source
    role only) and the last window of each test engine, labelled from
    `test_truth`."""
    test_truth = np.atleast_1d(np.asarray(test_truth, dtype=np.float64))
    if len(test_trajs) != len(test_truth):
        raise IntegrityError(
            f"{subset}: {len(test_trajs)} test engines for {len(test_truth)} truth values"
        )
    train = [(t.unit_id, t.features(feature_mask)) for t in train_trajs]
    stats = fit_normalization_matrix([m for _, m in train])
    train_part, val_part = split_train_val(train, val_seed, val_fraction)
    labelled = role == SOURCE

    def window_all(parts):
        out = []
        for unit, raw in parts:
            out.extend(_windows(normalize_matrix(raw, stats), unit, window, rc, labelled))
        return out

    test_windows = [
        _windows(normalize_matrix(t.features(feature_mask), stats), t.unit_id, window, rc,
                 True, truth)[0]
        for t, truth in zip(test_trajs, test_truth)
    ]
    return DomainDataset(
        subset=subset,
        role=role,
        train_windows=window_all(train_part),
        val_windows=window_all(val_part),
        test_windows=test_windows,
        test_rul_truth=test_truth,
        train_units=tuple(u for u, _ in train_part),
        val_units=tuple(u for u, _ in val_part),
    )


def subset_paths(data_dir, subset: str) -> tuple[Path, Path, Path]:
    root = Path(data_dir)
    return (
        root / f"train_{subset}.txt",
        root / f"test_{subset}.txt",
        root / f"RUL_{subset}.txt",
    )
