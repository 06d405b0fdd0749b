"""Operator entry point.

Subcommands:
  ingest   load one subset as `train` does and print its counts
  train    run one source->target pair for one variant across seeds
  ablate   run the three-term ablation (alignment / +reconstruction / full)
  sweep    replay the tuning grid, ranked by source validation RMSE

Each setting is its flag if given, else the YAML config file's value if
set, else its default (`_pick`, `_setup`).  A setting that cannot be used is
an `error:` line and exit code 2 before any data is read; so are flat files
that cannot be loaded, before any training.  `train`, `ablate` and `sweep`
run their rows through `_run_rows`: all run artifacts land under
out_dir/<SOURCE>-<TARGET>/<row>/<seed>/ with fixed file names.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import yaml

from dataclasses import asdict, replace

from .data import (
    ALL_FEATURES,
    SOURCE,
    TARGET,
    build_domain_dataset,
    parse_cmapss,
    subset_paths,
)
from .evaluation import write_aggregate
from .model import ModelConfig, desk_model_config, toy_model_config
from .serialization import atomic_open
from .training import (
    VARIANTS,
    run_config_from_dict,
    run_experiment,
    variant_weights,
)

COMMAND_KEYS = ("data_dir", "out_dir", "jobs", "preset")  # file keys that are not run fields
TOY_FEATURE_MASK = tuple(range(3, 11))  # sensors 1..8
PRESET_MODELS = {"full": ModelConfig, "desk": desk_model_config, "toy": toy_model_config}
SWEEP_GRID = {
    "lambda_m": (0.1, 0.2, 0.35, 0.5),
    "lambda_r": (0.1, 0.2, 0.35, 0.5),
    "lambda_s": (0.1, 0.2, 0.35, 0.5),
    "gamma_noise": (0.1, 0.01),
    "autoencoder": ("gru", "lstm", "rnn"),
}


class ConfigError(ValueError):
    """A command that cannot start: a run configuration that cannot be built,
    or flat files that cannot be loaded.  `main` prints it and exits 2."""


def _load_config_file(path) -> dict:
    try:
        payload = None if path is None else yaml.safe_load(Path(path).read_text())
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"--config {path}: {exc}") from exc
    if not isinstance(payload, (dict, type(None))):
        raise ConfigError(f"{path}: config file must hold a mapping")
    return {} if payload is None else payload


def _pick(args, file_cfg: dict, key: str, default):
    """The one precedence rule: the flag if it is not None, else the file's
    value if that is not None, else `default`."""
    flag, in_file = getattr(args, key, None), file_cfg.get(key)
    return flag if flag is not None else (in_file if in_file is not None else default)


def _build_run_config(args, file_cfg: dict, source: str, target: str, variant: str):
    """The file's run fields under the flags.  The window and the
    feature-mask width set the model's input shape.  The `toy` preset fixes
    the feature mask, and the `toy` and `desk` presets fix the other model
    widths, which a file `model:` mapping sets under `full`; a file setting
    what its preset fixes is rejected.  Raises ConfigError."""
    run_cfg = {k: v for k, v in file_cfg.items() if k not in COMMAND_KEYS}
    preset = "toy" if getattr(args, "toy", False) else _pick(args, file_cfg, "preset", "full")
    if preset not in PRESET_MODELS:
        raise ConfigError(f"unknown preset {preset!r}; options: {sorted(PRESET_MODELS)}")
    if preset == "toy" and run_cfg.get("feature_mask") is not None:
        raise ConfigError("the toy preset fixes the feature mask; drop feature_mask from the file")
    if not isinstance(run_cfg.get("model") or {}, dict):
        raise ConfigError(f"model must be a mapping, got {run_cfg['model']!r}")
    if preset != "full" and run_cfg.get("model"):
        raise ConfigError(f"the {preset} preset fixes the model widths; drop model from the file")
    if preset == "toy":
        run_cfg["feature_mask"] = TOY_FEATURE_MASK
    base_model = PRESET_MODELS[preset]()
    mask = run_cfg.get("feature_mask")
    run_cfg["window"] = _pick(args, run_cfg, "window", base_model.window)
    run_cfg["model"] = {
        **asdict(base_model),
        # RunConfig rejects a mask that is not a list
        "n_features": len(mask if isinstance(mask, (list, tuple)) else ALL_FEATURES),
        "window": run_cfg["window"],
        **(run_cfg.get("model") or {}),
    }

    for field in ("epochs", "batch_size", "lr", "rc"):
        value = getattr(args, field, None)
        if value is not None:
            run_cfg[field] = value
    if getattr(args, "seeds", None) is not None:
        try:
            run_cfg["seeds"] = tuple(int(s) for s in args.seeds.split(","))
        except ValueError as exc:
            raise ConfigError(f"--seeds {args.seeds!r}: {exc}") from exc
    run_cfg.update(source_subset=source, target_subset=target, variant=variant)
    run_cfg.setdefault("weights", variant_weights(variant))
    try:
        return run_config_from_dict(run_cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _setup(args, variant: str, source: str, target: str):
    """(config, data_dir, out_dir, jobs) of one command, each by `_pick`.
    The defaults: $RULADAPT_DATA_DIR, else `data`; `runs`; 1 job.  The two
    directories must be strings and `jobs` an integer >= 1.  Raises
    ConfigError before any data is read."""
    file_cfg = _load_config_file(args.config)
    config = _build_run_config(args, file_cfg, source, target, variant)
    jobs = _pick(args, file_cfg, "jobs", 1)
    if isinstance(jobs, bool) or (isinstance(jobs, float) and not jobs.is_integer()):
        raise ConfigError(f"jobs must be an integer, got {jobs!r}")
    try:
        jobs = int(jobs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"jobs: {exc}") from exc
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    data_dir = _pick(args, file_cfg, "data_dir", os.environ.get("RULADAPT_DATA_DIR", "data"))
    out_dir = _pick(args, file_cfg, "out_dir", "runs")
    for key, value in (("data_dir", data_dir), ("out_dir", out_dir)):
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a path string, got {value!r}")
    return config, Path(data_dir), Path(out_dir), jobs


def provide_dataset(data_dir: Path, subset: str, role: str, config):
    """Parse one subset's flat files and build its windows as `config` asks.
    A missing or malformed file is a ConfigError naming it."""
    try:
        train, test, truth = parse_cmapss(*subset_paths(data_dir, subset))
        return build_domain_dataset(
            train, test, truth,
            subset=subset, role=role, window=config.window, rc=config.rc,
            feature_mask=config.feature_mask,
            val_seed=config.val_seed, val_fraction=config.val_fraction,
        )
    except (FileNotFoundError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# ingest

def cmd_ingest(args) -> int:
    """Load one subset through `provide_dataset`, as `train` loads its
    source, and print its trajectory and window counts; writes nothing."""
    subset = args.subset
    config, data_dir, _, _ = _setup(args, "lamanet", subset, subset)
    dataset = provide_dataset(data_dir, subset, SOURCE, config)
    n_train = len(dataset.train_units) + len(dataset.val_units)
    n_windows = len(dataset.train_windows) + len(dataset.val_windows)
    print(f"{subset}: {n_train} train trajectories, {len(dataset.test_windows)} test trajectories")
    print(f"{subset}: {n_windows} train windows (K={config.window})")
    return 0


# ---------------------------------------------------------------------------
# train

@contextmanager
def _seed_map(jobs: int):
    """The map `run_experiment` spreads seeds with: the builtin `map`, or the
    `map` of one process pool of `jobs` workers shared by the whole command."""
    if jobs <= 1:
        yield map
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield pool.map


def _run_rows(base, data_dir: Path, out_dir: Path, jobs: int, rows, *, latents: bool):
    """Yield the report of each (label, dirname, config) row -- a variant, an
    ablation row, a sweep point -- run into out_dir/<SOURCE>-<TARGET>/<dirname>/.
    The pair is loaded once, as `base` asks, and one seed map serves every
    row; a pair that cannot be loaded is a ConfigError before any training."""
    pair = (
        provide_dataset(data_dir, base.source_subset, SOURCE, base),
        provide_dataset(data_dir, base.target_subset, TARGET, base),
    )
    pair_dir = out_dir / f"{base.source_subset}-{base.target_subset}"
    with _seed_map(jobs) as map_fn:
        for label, dirname, config in rows:
            yield run_experiment(
                config, *pair, out_dir=pair_dir / dirname, label=label,
                write_latents=latents, progress=print, map_fn=map_fn,
            )


def _print_failures(reports) -> int:
    """One `FAILED <failure>` line on stderr per failed seed; the exit code."""
    failures = [failure for report in reports for failure in report.failures]
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_train(args) -> int:
    config, data_dir, out_dir, jobs = _setup(args, args.variant, args.source, args.target)
    row = (config.variant, config.variant, config)
    (report,) = _run_rows(config, data_dir, out_dir, jobs, [row], latents=not args.no_latents)
    print(f"{report.pair} {report.variant}: "
          f"rmse {report.rmse_mean:.2f} +- {report.rmse_sd:.2f} over {len(report.records)} seeds")
    return _print_failures([report])


# ---------------------------------------------------------------------------
# ablate

ABLATION_ROWS = (
    ("mmd", dict(lambda_r=0.0, lambda_s=0.0)),
    ("mmd_ae", dict(lambda_s=0.0)),
    ("full", dict()),
)


def cmd_ablate(args) -> int:
    base, data_dir, out_dir, jobs = _setup(args, "lamanet", args.source, args.target)
    rows = [
        (label, f"ablate-{label}", replace(base, weights=replace(base.weights, **overrides)))
        for label, overrides in ABLATION_ROWS
    ]
    reports = list(_run_rows(base, data_dir, out_dir, jobs, rows, latents=not args.no_latents))
    pair_dir = out_dir / f"{base.source_subset}-{base.target_subset}" / "ablate"
    write_aggregate(pair_dir, reports)
    with atomic_open(pair_dir / "ablate_points.csv") as fh:
        fh.write("variant,seed,rmse,score\n")
        for report in reports:
            for r in report.records:
                fh.write(f"{report.variant},{r['seed']},{r['rmse']},{r['score']}\n")
    for report in reports:
        print(f"{report.variant}: rmse {report.rmse_mean:.2f} +- {report.rmse_sd:.2f}")
    return _print_failures(reports)


# ---------------------------------------------------------------------------
# sweep

def _parse_grid(text: str | None) -> dict:
    if not text:
        return dict(SWEEP_GRID)
    grid = {}
    for clause in text.split(";"):
        key, _, values = clause.partition("=")
        key = key.strip()
        if key not in SWEEP_GRID:
            raise ConfigError(f"unknown grid key {key!r}; options: {sorted(SWEEP_GRID)}")
        parsed = [v.strip() for v in values.split(",") if v.strip()]
        if not parsed:
            raise ConfigError(f"grid key {key!r} has no values")
        try:
            grid[key] = tuple(parsed) if key == "autoencoder" else tuple(map(float, parsed))
        except ValueError as exc:
            raise ConfigError(f"grid key {key!r}: {exc}") from exc
    for key, default in SWEEP_GRID.items():
        grid.setdefault(key, default)
    return grid


def cmd_sweep(args) -> int:
    base, data_dir, out_dir, jobs = _setup(args, "lamanet", args.source, args.target)
    grid = _parse_grid(args.grid)
    keys = sorted(grid)
    points = [dict(zip(keys, values)) for values in itertools.product(*(grid[k] for k in keys))]
    runs = []
    for point in points:
        tag = "_".join(f"{k}={point[k]}" for k in keys)
        try:
            weights = replace(base.weights, **{k: v for k, v in point.items() if k != "autoencoder"})
            model = replace(base.model, recon_cell=point["autoencoder"])
        except ValueError as exc:
            raise ConfigError(f"grid point {tag}: {exc}") from exc
        runs.append((tag, f"sweep-{tag}", replace(base, weights=weights, model=model)))
    print(f"sweep grid: {len(points)} points x {len(base.seeds)} seeds")
    if not args.confirm:
        print("pass --confirm to launch", file=sys.stderr)
        return 2

    reports, rows = [], []
    for report, point in zip(_run_rows(base, data_dir, out_dir, jobs, runs, latents=False), points):
        val = report.val_rmse_per_seed
        mean_val = float(np.mean(val)) if val else math.inf
        print(f"{report.variant}: source-val rmse {mean_val:.2f}")
        reports.append(report)
        rows.append({**point, "val_rmse": mean_val, "tag": report.variant})

    rows.sort(key=lambda r: r["val_rmse"])  # ranking never touches target labels
    pair_dir = out_dir / f"{base.source_subset}-{base.target_subset}" / "sweep"
    pair_dir.mkdir(parents=True, exist_ok=True)
    with atomic_open(pair_dir / "sweep_results.csv") as fh:
        fh.write(",".join(keys) + ",val_rmse\n")
        for row in rows:
            fh.write(",".join(str(row[k]) for k in keys) + f",{row['val_rmse']}\n")
    print(f"best point: {rows[0]['tag']} (source-val rmse {rows[0]['val_rmse']:.2f})")
    return _print_failures(reports)


# ---------------------------------------------------------------------------
# parser

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML config file with defaults")
    parser.add_argument("--data-dir", help="directory with the flat data files")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-dir", help="artifact root (default ./runs)")
    parser.add_argument("--jobs", type=int, help="parallel runs (default 1)")
    parser.add_argument("--seeds", help="comma-separated seeds (default 1,123074,2457)")
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--batch-size", type=int, dest="batch_size")
    parser.add_argument("--lr", type=float)
    parser.add_argument("--window", type=int)
    parser.add_argument("--rc", type=float)
    parser.add_argument("--preset", choices=("full", "toy", "desk"))
    parser.add_argument("--toy", action="store_true", help="shorthand for --preset toy")
    parser.add_argument("--no-latents", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruladapt",
        description="Domain-adaptive remaining-useful-life training and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="load one subset as train does and print its counts")
    p_ingest.add_argument("--subset", required=True)
    p_ingest.add_argument("--window", type=int)
    _add_common(p_ingest)
    p_ingest.set_defaults(func=cmd_ingest)

    run_commands = (
        ("train", cmd_train, "train one pair/variant across seeds",
         [("--variant", dict(default="lamanet", choices=VARIANTS))]),
        ("ablate", cmd_ablate, "alignment / +reconstruction / full comparison", []),
        ("sweep", cmd_sweep, "replay the tuning grid",
         [("--grid", dict(help='e.g. "lambda_m=0.1,0.5;autoencoder=gru"')),
          ("--confirm", dict(action="store_true"))]),
    )
    for name, func, help_text, own_options in run_commands:
        p_run = sub.add_parser(name, help=help_text)
        p_run.add_argument("--source", required=True)
        p_run.add_argument("--target", required=True)
        for flag, kwargs in own_options:
            p_run.add_argument(flag, **kwargs)
        _add_common(p_run)
        _add_run_options(p_run)
        p_run.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
