"""Deterministic optimization loop over paired source/target mini-batches.

Each run owns three rng streams derived from its seed (parameter init,
shuffling, smoothness noise), so a (config, seed) pair fully determines the
trajectory.  Checkpoints capture parameters, Adam moments, the mid-epoch
batch plan and all rng states; restoring reproduces the next step bitwise
in float64.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward
from .data import N_FEATURES, DomainDataset, stack_windows
from .evaluation import (
    LATENT_LAYERS, MetricsReport, evaluate_target, export_latents, predict_scaled, rmse,
    score_to_json,
)
from .losses import (
    TERM_WEIGHTS,
    DomainDiscriminator,
    KernelSpec,
    LossWeights,
    composite_loss,
    coral_loss,
    dann_loss,
    evaluates_term,
    latent_mmd,
    recon_loss,
    rul_mse,
    smooth_loss,
)
from .model import Model, ModelConfig
from .serialization import atomic_open, check_fields, config_hash as _hash_dict, load_blob
from .serialization import save_blob, write_json

# What each variant trains: its adaptation terms in the order `train_step`
# builds them, with default weights (`LossWeights` fields; the adversarial
# one is `RunConfig.dann_weight`).  Every term reads the target stream.
VARIANT_TERMS = {
    "lamanet": {"discrepancy": 0.35, "recon": 0.2, "smooth": 0.35},
    "no_da": {},
    "mmd": {"discrepancy": 0.2},
    "coral": {"discrepancy": 0.2},
    "dann": {"adversarial": 0.2},
}
VARIANTS = tuple(VARIANT_TERMS)

DEFAULT_SEEDS = (1, 123074, 2457)


class TrainingAbort(RuntimeError):
    """Raised when the loss or a gradient goes non-finite; carries the
    per-term dump."""

    def __init__(self, message: str, terms: dict):
        super().__init__(f"{message}; per-term losses: {terms}")
        self.terms = terms


def variant_weights(variant: str, *, gamma_noise: float = 0.1, da_start: int = 200) -> LossWeights:
    """The variant's loss weights: each of its `VARIANT_TERMS` at its default
    weight, every other weighted term at 0."""
    if variant not in VARIANT_TERMS:
        raise ValueError(f"unknown variant {variant!r}")
    lambdas = {field: VARIANT_TERMS[variant].get(name, 0.0)
               for name, field in TERM_WEIGHTS.items() if field is not None}
    return LossWeights(**lambdas, gamma_noise=gamma_noise, da_start_iteration=da_start)


@dataclass(frozen=True)
class RunConfig:
    source_subset: str = "FD002"
    target_subset: str = "FD001"
    variant: str = "lamanet"
    window: int = 40
    epochs: int = 40
    batch_size: int = 128
    lr: float = 1e-3
    lr_gamma: float = 0.95
    lr_decay_start: int = 100
    rc: float = 125.0
    weights: LossWeights = field(default_factory=LossWeights)
    model: ModelConfig = field(default_factory=ModelConfig)
    kernel: KernelSpec = field(default_factory=KernelSpec)
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    val_seed: int = 42
    val_fraction: float = 0.1
    feature_mask: tuple[int, ...] | None = None
    dann_weight: float = VARIANT_TERMS["dann"]["adversarial"]
    dann_hidden: int = 64

    RULES = (
        ("source_subset target_subset", str, bool, "be non-empty"),
        ("variant", str, lambda v: v in VARIANTS, f"be one of {VARIANTS}"),
        ("window epochs dann_hidden", int, lambda v: v >= 1, "be >= 1"),
        ("lr_decay_start val_seed", int, lambda v: v >= 0, "be >= 0"),
        ("batch_size", int, lambda v: v >= 2 and v % 2 == 0, "be even and >= 2"),
        ("lr rc", float, lambda v: v > 0, "be > 0"),
        ("lr_gamma", float, lambda v: 0 < v <= 1, "lie in (0, 1]"),
        ("val_fraction", float, lambda v: 0 < v < 1, "lie in (0, 1)"),
        ("dann_weight", float, lambda v: v >= 0, "be >= 0"),  # < 0 would aid the discriminator
        ("seeds", list, lambda v: v and len(set(v)) == len(v), "be non-empty and distinct"),
        ("seeds", list, lambda v: min(v) >= 0, "be >= 0"),
        ("feature_mask", list, lambda v: v and all(0 <= i < N_FEATURES for i in v),
         f"be non-empty with indices in 0..{N_FEATURES - 1}"),
    )

    def __post_init__(self):
        check_fields(self, self.RULES)
        if self.model.window != self.window:
            raise ValueError(
                f"model window {self.model.window} != run window {self.window}"
            )
        if self.feature_mask is not None and self.model.n_features != len(self.feature_mask):
            raise ValueError(f"model n_features {self.model.n_features} != "
                             f"mask width {len(self.feature_mask)}")

    def to_dict(self) -> dict:
        out = asdict(self)
        out["seeds"] = list(self.seeds)
        out["feature_mask"] = None if self.feature_mask is None else list(self.feature_mask)
        return out

    @property
    def hash(self) -> str:
        return _hash_dict(self.to_dict())


def make_run_config(source: str, target: str, variant: str = "lamanet", **overrides) -> RunConfig:
    """RunConfig with the variant's weight column filled in unless overridden."""
    gamma = overrides.pop("gamma_noise", 0.1)
    da_start = overrides.pop("da_start", 200)
    weights = overrides.pop("weights", variant_weights(variant, gamma_noise=gamma, da_start=da_start))
    return RunConfig(
        source_subset=source, target_subset=target, variant=variant,
        weights=weights, **overrides,
    )


def _dataclass_from_dict(cls, payload: dict):
    known = {f.name for f in fields(cls)}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"{cls.__name__}: unknown keys {sorted(unknown)}")
    return cls(**payload)


def run_config_from_dict(payload: dict) -> RunConfig:
    """Build a RunConfig from plain data, rejecting unknown keys at every level."""
    payload = dict(payload)
    for key, cls in (("weights", LossWeights), ("model", ModelConfig), ("kernel", KernelSpec)):
        if isinstance(payload.get(key), dict):
            payload[key] = _dataclass_from_dict(cls, payload[key])
        elif key in payload and not isinstance(payload[key], cls):
            raise ValueError(f"{key} must be a mapping, got {payload[key]!r}")
    for key in ("seeds", "feature_mask"):
        if isinstance(payload.get(key), list):  # RunConfig rejects other types
            payload[key] = tuple(payload[key])
    return _dataclass_from_dict(RunConfig, payload)


# ---------------------------------------------------------------------------
# schedule and optimizer

def lr_schedule(
    iteration: int, base_lr: float, gamma: float, decay_start: int, steps_per_epoch: int
) -> float:
    """Constant before `decay_start` iterations; afterwards decayed by gamma
    once per epoch boundary crossed since the decay-start iteration."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    if steps_per_epoch < 1:
        raise ValueError("steps_per_epoch must be positive")
    if iteration < decay_start:
        return base_lr
    exponent = iteration // steps_per_epoch - decay_start // steps_per_epoch
    return base_lr * gamma ** max(0, exponent)


class Adam:
    """Standard Adam (beta1=0.9, beta2=0.999, eps=1e-8); parameters whose
    gradient is absent are updated with g = 0, which leaves untouched
    parameters exactly in place while their moments stay zero."""

    def __init__(self, params: dict[str, Tensor], beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self, params: dict[str, Tensor], lr: float) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for name, p in params.items():
            g = p.grad if p.grad is not None else 0.0
            self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            self.v[name] = b2 * self.v[name] + (1.0 - b2) * (g * g if p.grad is not None else 0.0)
            update = (self.m[name] / bias1) / (np.sqrt(self.v[name] / bias2) + self.eps)
            p.data = p.data - lr * update


# ---------------------------------------------------------------------------
# batching

def epoch_plan(n_source: int, n_target: int, rng: np.random.Generator):
    """Index orders for one epoch: the larger pool is permuted, the smaller is
    permuted then resampled with replacement up to the larger pool's size."""
    if n_source < 1 or n_target < 1:
        raise ValueError("both training pools must be non-empty")
    n_max = max(n_source, n_target)

    def order(n: int) -> np.ndarray:
        perm = rng.permutation(n)
        if n < n_max:
            return np.concatenate([perm, rng.choice(n, size=n_max - n, replace=True)])
        return perm

    return order(n_source), order(n_target)


def steps_per_epoch(n_source: int, n_target: int, batch: int) -> int:
    return math.ceil(max(n_source, n_target) / (batch // 2))


# ---------------------------------------------------------------------------
# training state

@dataclass
class TrainState:
    config: RunConfig
    seed: int
    model: Model
    discriminator: DomainDiscriminator | None
    adam: Adam
    rng_shuffle: np.random.Generator
    rng_noise: np.random.Generator
    iteration: int = 0
    epoch: int = 0
    step_in_epoch: int = 0
    src_order: np.ndarray | None = None
    tgt_order: np.ndarray | None = None
    steps_per_epoch: int = 1
    history: list[dict] = field(default_factory=list)

    def trainable(self) -> dict[str, Tensor]:
        params = dict(self.model.params)
        if self.discriminator is not None:
            params.update(self.discriminator.params)
        return params


def init_state(config: RunConfig, seed: int) -> TrainState:
    streams = np.random.SeedSequence(seed).spawn(3)
    rng_init = np.random.default_rng(streams[0])
    model = Model(config.model, rng_init)
    discriminator = (
        DomainDiscriminator(config.model.bottleneck, config.dann_hidden, rng_init)
        if config.variant == "dann"
        else None
    )
    state = TrainState(
        config=config,
        seed=seed,
        model=model,
        discriminator=discriminator,
        adam=None,  # set below once the full trainable set exists
        rng_shuffle=np.random.default_rng(streams[1]),
        rng_noise=np.random.default_rng(streams[2]),
    )
    state.adam = Adam(state.trainable())
    return state


def train_step(state: TrainState, src_X, src_y, tgt_X) -> dict:
    """One optimization step over a paired batch; returns the logged record.

    The terms that run are decided once: the variant's `VARIANT_TERMS` that
    pass `evaluates_term`.  Only those are built, in table order, from one
    forward pass of the 2n source and target rows; with none (`no_da`, or
    before the gate opens) only the n source rows go through."""
    config = state.config
    params = state.trainable()
    for p in params.values():
        p.grad = None

    model, n = state.model, len(src_X)
    active = [name for name in VARIANT_TERMS[config.variant]
              if evaluates_term(name, config.weights, state.iteration)]
    x = Tensor(np.concatenate([src_X, tgt_X]) if active else src_X)
    bundle = model.forward(x)
    y_hat = bundle.y_hat[:n] if active else bundle.y_hat
    rul = rul_mse(y_hat, Tensor(src_y))
    terms = {}
    if active:
        c_s, c_t, o_s, o_t = bundle.c[:n], bundle.c[n:], bundle.o[:n], bundle.o[n:]
    for name in active:
        if name == "discrepancy":
            terms[name] = (coral_loss(o_s, o_t) if config.variant == "coral"
                           else latent_mmd(c_s, c_t, o_s, o_t, config.kernel))
        elif name == "recon":
            x_hat = model.reconstruct(bundle.c, x[:, :, 0])
            terms[name] = recon_loss(Tensor(src_X), x_hat[:n], Tensor(tgt_X), x_hat[n:])
        elif name == "smooth":
            # F(C) of both streams is the forward pass's prediction; only the
            # perturbed bottlenecks go through expand + decode again.
            terms[name] = ad.add(
                smooth_loss(c_s, model.predict_from_bottleneck, config.weights.gamma_noise,
                            state.rng_noise, clean=y_hat),
                smooth_loss(c_t, model.predict_from_bottleneck, config.weights.gamma_noise,
                            state.rng_noise, clean=bundle.y_hat[n:]),
            )
        else:  # adversarial
            terms[name] = dann_loss(c_s, c_t, state.discriminator, config.dann_weight)
    logged = {"rul": float(rul.data)} | {name: float(term.data) for name, term in terms.items()}

    loss = composite_loss(rul, terms, config.weights)
    total = float(loss.data)
    if not math.isfinite(total):
        raise TrainingAbort(
            f"non-finite loss at iteration {state.iteration}", logged
        )
    backward(loss)
    for name, p in params.items():
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise TrainingAbort(
                f"non-finite gradient of {name} at iteration {state.iteration}", logged
            )
    lr = lr_schedule(
        state.iteration, config.lr, config.lr_gamma, config.lr_decay_start,
        state.steps_per_epoch,
    )
    state.adam.step(params, lr)
    state.iteration += 1
    record = {
        "iteration": state.iteration,
        "epoch": state.epoch,
        "lr": lr,
        "total": total,
        **logged,
    }
    state.history.append(record)
    return record


LOG_COLUMNS = (
    "iteration", "epoch", "lr", "total", "rul",
    "discrepancy", "recon", "smooth", "adversarial", "val_rmse",
)


class RunLogWriter:
    """Append-only CSV log; one row per iteration plus epoch-end rows with
    the source validation RMSE.  Unlike the snapshot artifacts it is not
    replaced atomically: rows stream into the file so that it can be read
    while the run grows it."""

    def __init__(self, path):
        self._fh = open(path, "w", newline="")
        self._writer = csv.DictWriter(self._fh, fieldnames=LOG_COLUMNS, extrasaction="ignore")
        self._writer.writeheader()

    def write(self, record: dict) -> None:
        self._writer.writerow(record)

    def close(self) -> None:
        self._fh.close()


def source_val_rmse(state: TrainState, source: DomainDataset) -> float:
    """Monitoring metric (cycles) over the source validation engines."""
    windows = source.val_windows
    if not windows:
        return float("nan")
    pred = predict_scaled(state.model, windows) * state.config.rc
    truth = np.array([w.rul_scaled for w in windows]) * state.config.rc
    return rmse(pred, truth)


def train(
    state: TrainState,
    source: DomainDataset,
    target: DomainDataset,
    *,
    max_iterations: int | None = None,
    log_writer: RunLogWriter | None = None,
) -> TrainState:
    """Run the epoch budget (or until `max_iterations`); resumable mid-epoch."""
    config = state.config
    half = config.batch_size // 2
    state.steps_per_epoch = steps_per_epoch(
        len(source.train_windows), len(target.train_windows), config.batch_size
    )
    while state.epoch < config.epochs:
        if state.src_order is None:
            state.src_order, state.tgt_order = epoch_plan(
                len(source.train_windows), len(target.train_windows), state.rng_shuffle,
            )
        while state.step_in_epoch < state.steps_per_epoch:
            if max_iterations is not None and state.iteration >= max_iterations:
                return state
            start = state.step_in_epoch * half
            src_idx = state.src_order[start : start + half]
            tgt_idx = state.tgt_order[start : start + half]
            src_X, src_y = stack_windows(source.train_windows, src_idx)
            tgt_X, _ = stack_windows(target.train_windows, tgt_idx)
            record = train_step(state, src_X, src_y, tgt_X)
            state.step_in_epoch += 1
            if log_writer is not None:
                log_writer.write(record)
        if log_writer is not None:
            log_writer.write({"iteration": state.iteration, "epoch": state.epoch,
                              "val_rmse": source_val_rmse(state, source)})
        state.epoch += 1
        state.step_in_epoch = 0
        state.src_order = None
        state.tgt_order = None
    return state


# ---------------------------------------------------------------------------
# checkpointing (bitwise-resumable)

def _rng_state(gen: np.random.Generator) -> dict:
    return gen.bit_generator.state


def _restore_rng(state_dict: dict) -> np.random.Generator:
    gen = np.random.default_rng(0)
    gen.bit_generator.state = state_dict
    return gen


def save_train_checkpoint(path, state: TrainState) -> str:
    """Write parameters, Adam moments, the mid-epoch batch plan and the rng
    states to one blob; returns the sha256 of its bytes."""
    arrays: dict[str, np.ndarray] = {}
    for name, p in state.trainable().items():
        arrays[f"param/{name}"] = p.data
        arrays[f"adam_m/{name}"] = state.adam.m[name]
        arrays[f"adam_v/{name}"] = state.adam.v[name]
    if state.src_order is not None:  # mid-epoch: persist the batch plan
        arrays["extra/plan_src"] = state.src_order.astype(np.int64)
        arrays["extra/plan_tgt"] = state.tgt_order.astype(np.int64)
    meta = {
        "kind": "checkpoint",
        "config_hash": state.config.hash,
        "iteration": state.iteration,
        "adam_t": state.adam.t,
        "rng_states": {
            "shuffle": _rng_state(state.rng_shuffle),
            "noise": _rng_state(state.rng_noise),
        },
        "epoch": state.epoch,
        "step_in_epoch": state.step_in_epoch,
        "steps_per_epoch": state.steps_per_epoch,
        "seed": state.seed,
    }
    return save_blob(path, arrays, meta)


def load_train_checkpoint(path, config: RunConfig) -> TrainState:
    """The state saved at `path`; fails when the file is not a checkpoint,
    its config hash does not match `config`, or a parameter or Adam moment
    of the trainable set is missing or has the wrong shape."""
    arrays, meta = load_blob(path)
    if meta.get("kind") != "checkpoint":
        raise ValueError(f"{path}: not a checkpoint file")
    if meta["config_hash"] != config.hash:
        raise ValueError(
            f"{path}: checkpoint config hash {meta['config_hash'][:12]} does not "
            f"match the requested configuration {config.hash[:12]}"
        )

    def checked(key: str, shape: tuple) -> np.ndarray:
        if key not in arrays:
            raise ValueError(f"{path}: checkpoint has no {key!r}")
        if arrays[key].shape != shape:
            raise ValueError(f"{path}: {key!r} has shape {arrays[key].shape}, expected {shape}")
        return arrays[key]

    state = init_state(config, int(meta["seed"]))
    for name, p in state.trainable().items():
        p.data = checked(f"param/{name}", p.data.shape).astype(p.data.dtype, copy=False)
        state.adam.m[name] = checked(f"adam_m/{name}", p.data.shape)
        state.adam.v[name] = checked(f"adam_v/{name}", p.data.shape)
    state.adam.t = int(meta["adam_t"])
    state.iteration = int(meta["iteration"])
    state.epoch = int(meta["epoch"])
    state.step_in_epoch = int(meta["step_in_epoch"])
    state.steps_per_epoch = int(meta["steps_per_epoch"])
    state.rng_shuffle = _restore_rng(meta["rng_states"]["shuffle"])
    state.rng_noise = _restore_rng(meta["rng_states"]["noise"])
    if "extra/plan_src" in arrays:
        state.src_order = arrays["extra/plan_src"]
        state.tgt_order = arrays["extra/plan_tgt"]
    return state


# ---------------------------------------------------------------------------
# experiment orchestration

def _write_metrics(path, records: list[dict]) -> None:
    """metrics.csv: one row per seed record."""
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=("seed", "rmse", "score", "val_rmse"))
        writer.writeheader()
        writer.writerows(records)


LATENT_FILES = tuple(f"latents_{layer}.csv" for layer in LATENT_LAYERS)
SEED_SNAPSHOTS = ("report.json", "metrics.csv", "checkpoint.bin", *LATENT_FILES)


def _remove_artifacts(run_dir: Path, names) -> None:
    for name in names:
        (run_dir / name).unlink(missing_ok=True)


def run_single_seed(
    config: RunConfig,
    seed: int,
    source: DomainDataset,
    target: DomainDataset,
    *,
    run_dir: Path,
    write_latents: bool = True,
) -> dict:
    """Train one seed to completion, evaluate on the target test set and
    write the seed's artifacts to `run_dir`.  A rerun leaves no artifact of
    the earlier run beside its own `train_log.csv`: the earlier snapshots
    are removed when training does not finish, and the earlier latents when
    this run writes none.  A failed snapshot write still keeps the earlier
    file, as `atomic_open` does."""
    state = init_state(config, seed)
    run_dir.mkdir(parents=True, exist_ok=True)
    log_writer = RunLogWriter(run_dir / "train_log.csv")
    try:
        train(state, source, target, log_writer=log_writer)
    except BaseException:
        _remove_artifacts(run_dir, SEED_SNAPSHOTS)
        raise
    finally:
        log_writer.close()
    target_rmse, target_score = evaluate_target(state.model, target, config.rc)
    result = {
        "seed": seed, "rmse": target_rmse, "score": target_score,
        "val_rmse": source_val_rmse(state, source),
    }
    save_train_checkpoint(run_dir / "checkpoint.bin", state)
    _write_metrics(run_dir / "metrics.csv", [result])
    write_json(run_dir / "report.json", result | {
        "score": score_to_json(target_score),
        "config_hash": config.hash, "config": config.to_dict(),
    })
    if write_latents:
        export_latents(state.model, [source, target], LATENT_LAYERS,
                       [run_dir / name for name in LATENT_FILES])
    else:
        _remove_artifacts(run_dir, LATENT_FILES)
    return result


def _seed_job(seed, config, source, target, out_dir, write_latents) -> dict | str:
    """One seed of `run_experiment`.  An abort comes back as the failure
    line instead of being raised, so no exception has to cross a process
    boundary when `map_fn` is a pool's."""
    try:
        return run_single_seed(
            config, seed, source, target, run_dir=Path(out_dir) / str(seed),
            write_latents=write_latents,
        )
    except TrainingAbort as exc:
        return f"seed {seed}: {exc}"


def run_experiment(
    config: RunConfig,
    source: DomainDataset,
    target: DomainDataset,
    *,
    out_dir,
    label: str | None = None,
    write_latents: bool = True,
    progress: Callable[[str], None] | None = None,
    map_fn=map,
) -> MetricsReport:
    """Train every seed, evaluate on the target test set, aggregate.

    Seeds are spread with `map_fn` (the builtin `map`, or a process pool's
    `map`, which pickles the config and both datasets to its workers); the
    results are consumed in seed order, so every artifact is the same either
    way.  A seed run that aborts (non-finite loss) is recorded as a failure
    and the remaining seeds still run.  Artifacts are written per seed under
    out_dir/<seed>/ and the aggregate in out_dir.  `label` names the row in
    the report and the progress lines (default: the config's variant).
    """
    report = MetricsReport(
        source=config.source_subset,
        target=config.target_subset,
        variant=label or config.variant,
        seeds=tuple(config.seeds),
        n_test_engines=len(target.test_windows),
    )
    job = partial(
        _seed_job, config=config, source=source, target=target,
        out_dir=out_dir, write_latents=write_latents,
    )
    for result in map_fn(job, config.seeds):
        if isinstance(result, str):
            report.failures.append(result)
            continue
        report.records.append(result)
        if progress is not None:
            progress(
                f"{config.source_subset}->{config.target_subset} {report.variant} "
                f"seed {result['seed']}: rmse {result['rmse']:.2f}"
            )
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    write_json(Path(out_dir) / "report.json",
               report.to_dict() | {"config_hash": config.hash, "config": config.to_dict()})
    _write_metrics(Path(out_dir) / "metrics.csv", report.records)
    return report
