"""Synthetic run-to-failure generator.

``write_benchmark_files`` emits flat files in the exact turbofan benchmark
layout (26 columns, one RUL value per test engine) with the published
trajectory counts per subset, so the full ingestion path can be exercised on
machines that do not have the original archive.  Multi-condition subsets get
clustered operating settings and condition-shifted sensors, which makes
cross-subset pairs a real adaptation task.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import N_SENSORS, N_SETTINGS, Trajectory, subset_paths


@dataclass(frozen=True)
class SubsetSpec:
    n_train: int
    n_test: int
    n_conditions: int
    n_fault_modes: int
    length_range: tuple[int, int]
    constant_sensors: tuple[int, ...]


SUBSET_SPECS = {
    "FD001": SubsetSpec(100, 100, 1, 1, (100, 170), (0, 4, 9, 15, 17, 18)),
    "FD002": SubsetSpec(260, 259, 6, 1, (70, 135), (9, 17)),
    "FD003": SubsetSpec(100, 100, 1, 2, (100, 170), (0, 4, 9, 15, 17, 18)),
    "FD004": SubsetSpec(248, 249, 6, 2, (70, 135), (9, 17)),
}

MIN_TEST_CYCLES = 15


MAX_FAULT_MODES = 2


def _subset_rng(seed: int, subset: str) -> np.random.Generator:
    return np.random.default_rng([seed, sorted(SUBSET_SPECS).index(subset)])


def _shared_sensor_model(seed: int):
    """Sensor semantics shared by every subset (one simulated machine family):
    base readings, per-fault-mode degradation directions, noise floors."""
    rng = np.random.default_rng([seed, 0xFA])
    base = rng.uniform(20.0, 640.0, size=N_SENSORS)
    sign = rng.choice([-1.0, 1.0], size=(MAX_FAULT_MODES, N_SENSORS))
    amp = sign * base * rng.uniform(0.02, 0.08, size=(MAX_FAULT_MODES, N_SENSORS))
    noise = 0.004 * np.abs(base) + 0.01 * np.abs(amp).max(axis=0)
    return base, amp, noise


def _condition_model(rng: np.random.Generator, spec: SubsetSpec, base: np.ndarray):
    """Per-subset operating regime: setting clusters, the sensor offsets they
    induce, and a per-condition degradation gain.  Multi-condition subsets
    both shift sensor baselines and modulate how fast damage shows up in the
    readings, which is what makes cross-subset transfer non-trivial."""
    centers = np.column_stack(
        [
            rng.uniform(0.0, 42.0, spec.n_conditions),
            rng.uniform(0.0, 0.84, spec.n_conditions),
            rng.uniform(60.0, 100.0, spec.n_conditions),
        ]
    )
    if spec.n_conditions > 1:
        cond_shift = rng.normal(0.0, 0.08, size=(spec.n_conditions, N_SENSORS)) * base
        cond_gain = rng.uniform(0.5, 1.6, size=spec.n_conditions)
    else:
        cond_shift = np.zeros((1, N_SENSORS))
        cond_gain = np.ones(1)
    return centers, cond_shift, cond_gain


def _engine_cycles(rng, T, mode, base, amp, centers, cond_shift, cond_gain, noise):
    p = rng.uniform(1.7, 2.8)
    health = (np.arange(1, T + 1) / T) ** p
    cond = rng.integers(0, len(centers), size=T)
    settings = centers[cond] + rng.normal(0.0, 0.01, size=(T, N_SETTINGS))
    sensors = (
        base
        + cond_shift[cond]
        + (cond_gain[cond] * health)[:, None] * amp[mode]
        + rng.normal(0.0, 1.0, size=(T, N_SENSORS)) * noise
    )
    return settings, sensors


def generate_subset(
    subset: str,
    seed: int = 7,
    *,
    n_train: int | None = None,
    n_test: int | None = None,
    length_range: tuple[int, int] | None = None,
):
    """Synthesize (train trajectories, test trajectories, truth) for a subset.

    Defaults follow the published per-subset trajectory counts; the overrides
    produce miniature datasets for fast operational tests.
    """
    spec = SUBSET_SPECS[subset]
    if n_train is not None or n_test is not None or length_range is not None:
        from dataclasses import replace

        spec = replace(
            spec,
            n_train=n_train or spec.n_train,
            n_test=n_test or spec.n_test,
            length_range=length_range or spec.length_range,
        )
    rng = _subset_rng(seed, subset)
    base, amp, noise = _shared_sensor_model(seed)
    amp = amp.copy()
    amp[:, list(spec.constant_sensors)] = 0.0
    noise = noise.copy()
    noise[list(spec.constant_sensors)] = 0.0
    centers, cond_shift, cond_gain = _condition_model(rng, spec, base)
    cond_shift[:, list(spec.constant_sensors)] = 0.0
    lo, hi = spec.length_range

    train = []
    for unit in range(1, spec.n_train + 1):
        T = int(rng.integers(lo, hi + 1))
        mode = int(rng.integers(0, spec.n_fault_modes))
        settings, sensors = _engine_cycles(
            rng, T, mode, base, amp, centers, cond_shift, cond_gain, noise
        )
        train.append(Trajectory(unit, settings, sensors))

    test, truth = [], []
    for unit in range(1, spec.n_test + 1):
        T_full = int(rng.integers(lo, hi + 1))
        mode = int(rng.integers(0, spec.n_fault_modes))
        settings, sensors = _engine_cycles(
            rng, T_full, mode, base, amp, centers, cond_shift, cond_gain, noise
        )
        obs_low = min(MIN_TEST_CYCLES, max(1, T_full // 2))
        T_obs = int(rng.integers(obs_low, max(obs_low + 1, T_full - 4)))
        test.append(Trajectory(unit, settings[:T_obs].copy(), sensors[:T_obs].copy()))
        truth.append(float(T_full - T_obs))
    return train, test, np.array(truth)


def _write_flat(path: Path, trajectories):
    with open(path, "w") as fh:
        for traj in trajectories:
            block = np.hstack([traj.op_settings, traj.sensors])
            for t, row in enumerate(block, start=1):
                fh.write(f"{traj.unit_id} {t} " + " ".join(f"{v:.4f}" for v in row) + "\n")


def write_benchmark_files(data_dir, subset: str, seed: int = 7, **overrides) -> None:
    """Write train_/test_/RUL_ files for one subset into data_dir."""
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    train, test, truth = generate_subset(subset, seed, **overrides)
    train_path, test_path, rul_path = subset_paths(data_dir, subset)
    _write_flat(train_path, train)
    _write_flat(test_path, test)
    with open(rul_path, "w") as fh:
        for value in truth:
            fh.write(f"{int(value)}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Write synthetic benchmark-layout subsets into a data directory."
    )
    parser.add_argument("data_dir", type=Path)
    parser.add_argument("--subsets", default="FD001,FD002,FD003,FD004")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    for subset in args.subsets.split(","):
        write_benchmark_files(args.data_dir, subset.strip(), args.seed)
        print(f"wrote synthetic {subset.strip()} into {args.data_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
