"""Operator entry point.

Subcommands:
  ingest   parse one subset's flat files, cache trajectories, print counts
  train    run one source->target pair for one variant across seeds
  ablate   run the three-term ablation (alignment / +reconstruction / full)
  sweep    replay the tuning grid, ranked by source validation RMSE

A YAML config file provides defaults for any run field plus the path
options; command-line flags override it.  A config that cannot be built is
an `error:` line and exit code 2, before any work.  All
run artifacts land under out_dir/<SOURCE>-<TARGET>/<variant>/<seed>/ with
fixed file names.
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
    DEFAULT_RC,
    SOURCE,
    TARGET,
    build_domain_dataset,
    load_dataset_cache,
    parse_cmapss,
    save_dataset_cache,
    subset_paths,
)
from .evaluation import write_aggregate
from .model import ModelConfig, desk_model_config, toy_model_config
from .serialization import config_hash
from .training import (
    VARIANTS,
    run_config_from_dict,
    run_experiment,
    variant_weights,
)

PATH_KEYS = ("data_dir", "out_dir", "jobs")
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
    """A run configuration that cannot be built; `main` prints it and exits 2."""


def _load_config_file(path) -> dict:
    payload = yaml.safe_load(Path(path).read_text()) or {}
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: config file must hold a mapping")
    return payload


def _resolve_paths(args, file_cfg: dict):
    data_dir = args.data_dir or file_cfg.get("data_dir") or os.environ.get("RULADAPT_DATA_DIR", "data")
    out_dir = args.out_dir or file_cfg.get("out_dir") or "runs"
    jobs = args.jobs or int(file_cfg.get("jobs") or 1)
    return Path(data_dir), Path(out_dir), jobs


def _build_run_config(args, file_cfg: dict, source: str, target: str, variant: str):
    """The file's run fields under the flags.  The window is `--window`, else
    the file's, else the preset's; it and the feature-mask width set the
    model's input shape.  The `toy` preset fixes the feature mask, and the
    `toy` and `desk` presets fix the other model widths, which a file `model:`
    mapping sets under `full`; a file setting what its preset fixes is
    rejected.  Raises ConfigError."""
    run_cfg = {k: v for k, v in file_cfg.items() if k not in PATH_KEYS}
    file_preset = run_cfg.pop("preset", None)
    preset = "toy" if getattr(args, "toy", False) else (
        getattr(args, "preset", None) or file_preset or "full"
    )
    if preset not in PRESET_MODELS:
        raise ConfigError(f"unknown preset {preset!r}; options: {sorted(PRESET_MODELS)}")
    if preset == "toy" and run_cfg.get("feature_mask"):
        raise ConfigError("the toy preset fixes the feature mask; drop feature_mask from the file")
    if preset != "full" and run_cfg.get("model"):
        raise ConfigError(f"the {preset} preset fixes the model widths; drop model from the file")
    if preset == "toy":
        run_cfg["feature_mask"] = TOY_FEATURE_MASK
    base_model = PRESET_MODELS[preset]()
    run_cfg["window"] = getattr(args, "window", None) or run_cfg.get("window") or base_model.window
    run_cfg["model"] = {
        **asdict(base_model),
        "n_features": len(run_cfg.get("feature_mask") or ALL_FEATURES),
        "window": run_cfg["window"],
        **(run_cfg.get("model") or {}),
    }

    for field in ("epochs", "batch_size", "lr", "rc"):
        value = getattr(args, field, None)
        if value is not None:
            run_cfg[field] = value
    if getattr(args, "seeds", None):
        run_cfg["seeds"] = tuple(int(s) for s in args.seeds.split(","))
    run_cfg.update(source_subset=source, target_subset=target, variant=variant)
    run_cfg.setdefault("weights", variant_weights(variant))
    try:
        return run_config_from_dict(run_cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def provide_dataset(data_dir: Path, cache_dir: Path, subset: str, role: str, config):
    """Load trajectories (cache first, else raw flat files) and build windows."""
    cache_path = cache_dir / f"{subset}.cache"
    if cache_path.exists():
        train, test, truth, _, _ = load_dataset_cache(cache_path)
    else:
        train_path, test_path, rul_path = subset_paths(data_dir, subset)
        for p in (train_path, test_path, rul_path):
            if not p.exists():
                raise FileNotFoundError(f"missing data file: {p}")
        train, test, truth = parse_cmapss(train_path, test_path, rul_path)
    return build_domain_dataset(
        train, test, truth,
        subset=subset, role=role, window=config.window, rc=config.rc,
        feature_mask=config.feature_mask,
        val_seed=config.val_seed, val_fraction=config.val_fraction,
    )


# ---------------------------------------------------------------------------
# ingest

def cmd_ingest(args) -> int:
    file_cfg = _load_config_file(args.config) if args.config else {}
    data_dir, out_dir, _ = _resolve_paths(args, file_cfg)
    subset = args.subset
    window = args.window or int(file_cfg.get("window", 40))
    train_path, test_path, rul_path = subset_paths(data_dir, subset)
    try:
        train, test, truth = parse_cmapss(train_path, test_path, rul_path)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ingest_cfg = {
        "subset": subset,
        "window": window,
        "rc": args.rc or DEFAULT_RC,
        "feature_mask": None,
    }
    cache_dir = Path(args.out or (out_dir / "cache"))
    cache_dir.mkdir(parents=True, exist_ok=True)
    cache_path = cache_dir / f"{subset}.cache"
    digest = save_dataset_cache(
        cache_path, train, test, truth, subset=subset,
        config={**ingest_cfg, "hash": config_hash(ingest_cfg)},
    )
    n_windows = sum(max(t.length - window + 1, 1) for t in train)
    print(f"{subset}: {len(train)} train trajectories, {len(test)} test trajectories")
    print(f"{subset}: {n_windows} train windows (K={window})")
    print(f"cache: {cache_path} sha256={digest[:16]}")
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


def _load_pair(data_dir: Path, out_dir: Path, config):
    """(source, target) datasets, cache first; None after printing why not."""
    cache_dir = out_dir / "cache"
    try:
        return (
            provide_dataset(data_dir, cache_dir, config.source_subset, SOURCE, config),
            provide_dataset(data_dir, cache_dir, config.target_subset, TARGET, config),
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _run_row(config, pair, out_dir: Path, label: str, dirname: str, *, latents: bool, map_fn):
    """Run one labelled row (a variant, an ablation row, a sweep point) into
    out_dir/<SOURCE>-<TARGET>/<dirname>/."""
    pair_dir = out_dir / f"{config.source_subset}-{config.target_subset}"
    return run_experiment(
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
    file_cfg = _load_config_file(args.config) if args.config else {}
    data_dir, out_dir, jobs = _resolve_paths(args, file_cfg)
    config = _build_run_config(args, file_cfg, args.source, args.target, args.variant)
    pair = _load_pair(data_dir, out_dir, config)
    if pair is None:
        return 2
    with _seed_map(jobs) as map_fn:
        report = _run_row(
            config, pair, out_dir, config.variant, config.variant,
            latents=not args.no_latents, map_fn=map_fn,
        )
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
    file_cfg = _load_config_file(args.config) if args.config else {}
    data_dir, out_dir, jobs = _resolve_paths(args, file_cfg)
    base = _build_run_config(args, file_cfg, args.source, args.target, "lamanet")
    pair = _load_pair(data_dir, out_dir, base)
    if pair is None:
        return 2

    reports = []
    with _seed_map(jobs) as map_fn:
        for label, weight_overrides in ABLATION_ROWS:
            config = replace(base, weights=replace(base.weights, **weight_overrides))
            reports.append(_run_row(
                config, pair, out_dir, label, f"ablate-{label}",
                latents=not args.no_latents, map_fn=map_fn,
            ))

    pair_dir = out_dir / f"{base.source_subset}-{base.target_subset}" / "ablate"
    write_aggregate(pair_dir, reports)
    with open(pair_dir / "ablate_points.csv", "w") as fh:
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
        unknown = sorted(set(grid[key]) - set(SWEEP_GRID[key])) if key == "autoencoder" else ()
        if unknown:
            raise ConfigError(f"unknown autoencoder cell {unknown}; options: {SWEEP_GRID[key]}")
    for key, default in SWEEP_GRID.items():
        grid.setdefault(key, default)
    return grid


def cmd_sweep(args) -> int:
    file_cfg = _load_config_file(args.config) if args.config else {}
    data_dir, out_dir, jobs = _resolve_paths(args, file_cfg)
    base = _build_run_config(args, file_cfg, args.source, args.target, "lamanet")
    grid = _parse_grid(args.grid)
    points = list(itertools.product(*(grid[k] for k in sorted(grid))))
    keys = sorted(grid)
    print(f"sweep grid: {len(points)} points x {len(base.seeds)} seeds")
    if not args.confirm:
        print("pass --confirm to launch", file=sys.stderr)
        return 2

    pair = _load_pair(data_dir, out_dir, base)
    if pair is None:
        return 2

    rows = []
    reports = []
    with _seed_map(jobs) as map_fn:
        for values in points:
            point = dict(zip(keys, values))
            tag = "_".join(f"{k}={point[k]}" for k in keys)
            weights = replace(
                base.weights,
                lambda_m=point["lambda_m"], lambda_r=point["lambda_r"],
                lambda_s=point["lambda_s"], gamma_noise=point["gamma_noise"],
            )
            model = replace(base.model, recon_cell=point["autoencoder"])
            config = replace(base, weights=weights, model=model)
            report = _run_row(
                config, pair, out_dir, tag, f"sweep-{tag}", latents=False, map_fn=map_fn,
            )
            reports.append(report)
            mean_val = (
                float(np.mean(report.val_rmse_per_seed)) if report.val_rmse_per_seed else math.inf
            )
            rows.append({**point, "val_rmse": mean_val, "tag": tag})
            print(f"{tag}: source-val rmse {mean_val:.2f}")

    rows.sort(key=lambda r: r["val_rmse"])  # ranking never touches target labels
    pair_dir = out_dir / f"{base.source_subset}-{base.target_subset}" / "sweep"
    pair_dir.mkdir(parents=True, exist_ok=True)
    with open(pair_dir / "sweep_results.csv", "w") as fh:
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
    parser.add_argument("--out-dir", help="artifact root (default ./runs)")
    parser.add_argument("--jobs", type=int, help="parallel runs (default 1)")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
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

    p_ingest = sub.add_parser("ingest", help="parse and cache one subset")
    p_ingest.add_argument("--subset", required=True)
    p_ingest.add_argument("--window", type=int)
    p_ingest.add_argument("--rc", type=float)
    p_ingest.add_argument("--out", help="cache directory (default out_dir/cache)")
    _add_common(p_ingest)
    p_ingest.set_defaults(func=cmd_ingest)

    p_train = sub.add_parser("train", help="train one pair/variant across seeds")
    p_train.add_argument("--source", required=True)
    p_train.add_argument("--target", required=True)
    p_train.add_argument("--variant", default="lamanet", choices=VARIANTS)
    _add_common(p_train)
    _add_run_options(p_train)
    p_train.set_defaults(func=cmd_train)

    p_ablate = sub.add_parser("ablate", help="alignment / +reconstruction / full comparison")
    p_ablate.add_argument("--source", required=True)
    p_ablate.add_argument("--target", required=True)
    _add_common(p_ablate)
    _add_run_options(p_ablate)
    p_ablate.set_defaults(func=cmd_ablate)

    p_sweep = sub.add_parser("sweep", help="replay the tuning grid")
    p_sweep.add_argument("--source", required=True)
    p_sweep.add_argument("--target", required=True)
    p_sweep.add_argument("--grid", help='e.g. "lambda_m=0.1,0.5;autoencoder=gru"')
    p_sweep.add_argument("--confirm", action="store_true")
    _add_common(p_sweep)
    _add_run_options(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)
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
