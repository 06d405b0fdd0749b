"""Deterministic optimization loop over paired source/target mini-batches.

Each run owns three rng streams derived from its seed (parameter init,
shuffling, smoothness noise), so a (config, seed) pair fully determines the
trajectory.  A run's position is its iteration count alone; the epoch and
the step within it are derived from it, as is every schedule.  Checkpoints
capture parameters, Adam moments, the iteration and the rng states (the
shuffle one as of the epoch's start); restoring redraws the epoch's batch
plan and reproduces the next step bitwise in float64.
"""

from __future__ import annotations

import csv
import ctypes
import itertools
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cache, partial
from pathlib import Path
from typing import Callable, Iterator

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
# one is `RunConfig.dann_weight`).  A RunConfig takes its weights from here
# unless it is given them.  Every term reads the target stream.
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


def variant_weights(variant: str) -> LossWeights:
    """The variant's loss weights: each of its `VARIANT_TERMS` at its default
    weight, every other weighted term at 0, the rest at `LossWeights`'."""
    if variant not in VARIANT_TERMS:
        raise ValueError(f"unknown variant {variant!r}")
    return LossWeights(**{field: VARIANT_TERMS[variant].get(name, 0.0)
                          for name, field in TERM_WEIGHTS.items() if field is not None})


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
    weights: LossWeights | None = None  # None: `variant_weights(variant)`
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
        if self.weights is None:  # resolved once the variant is known to be good
            object.__setattr__(self, "weights", variant_weights(self.variant))
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
    """RunConfig with `gamma_noise` and `da_start`, where given, set on top of
    the variant's weights."""
    on_top = {field: overrides.pop(key) for key, field in
              (("gamma_noise", "gamma_noise"), ("da_start", "da_start_iteration"))
              if key in overrides}
    config = RunConfig(source_subset=source, target_subset=target, variant=variant, **overrides)
    return replace(config, weights=replace(config.weights, **on_top)) if on_top else config


def _dataclass_from_dict(cls, payload: dict):
    known = {f.name for f in fields(cls)}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"{cls.__name__}: unknown keys {sorted(unknown)}")
    return cls(**payload)


def run_config_from_dict(payload: dict) -> RunConfig:
    """Build a RunConfig from plain data, rejecting unknown keys at every
    level.  A `weights` mapping sets the fields it names on top of the
    variant's weights."""
    payload = dict(payload)
    on_top = payload.pop("weights") if isinstance(payload.get("weights"), dict) else {}
    for key, cls in (("weights", LossWeights), ("model", ModelConfig), ("kernel", KernelSpec)):
        if isinstance(payload.get(key), dict):
            payload[key] = _dataclass_from_dict(cls, payload[key])
        elif key in payload and not isinstance(payload[key], cls):
            raise ValueError(f"{key} must be a mapping, got {payload[key]!r}")
    for key in ("seeds", "feature_mask"):
        if isinstance(payload.get(key), list):  # RunConfig rejects other types
            payload[key] = tuple(payload[key])
    config = _dataclass_from_dict(RunConfig, payload)
    if not on_top:
        return config
    return replace(config, weights=_dataclass_from_dict(LossWeights, asdict(config.weights) | on_top))


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


@cache
def pin_malloc_thresholds() -> None:
    """Once per process on glibc: mmap only above 32 MB, trim only above 1 GB."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.mallopt.argtypes, libc.mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


class Adam:
    """Standard Adam in place, over blocks of flat views; an absent gradient
    reads zeros, so an untouched parameter stays put."""
    BLOCK = 32 * 1024  # elements per block: the two scratch blocks stay in L2
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor]):
        pin_malloc_thresholds()
        self.t = 0
        self.m = {name: np.zeros(p.data.shape) for name, p in params.items()}
        self.v = {name: np.zeros(p.data.shape) for name, p in params.items()}
        self._scratch = np.empty((2, self.BLOCK))

    def step(self, params: dict[str, Tensor], lr: float) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for name, p in params.items():
            arrays = (p.data, self.m[name], self.v[name])
            if not all(a.flags.c_contiguous and a.flags.writeable for a in arrays):
                raise ValueError(f"Adam: {name} or its moments are not writeable C-contiguous")
            grad = np.broadcast_to(0.0, p.data.size) if p.grad is None else p.grad.reshape(-1)
            flat = [a.reshape(-1) for a in arrays] + [grad]
            for i in range(0, p.data.size, self.BLOCK):
                x, m, v, g = (a[i : i + self.BLOCK] for a in flat)
                s, u = self._scratch[:, : len(x)]
                np.add(np.multiply(m, b1, out=m), np.multiply(g, 1.0 - b1, out=s), out=m)
                np.multiply(np.multiply(g, g, out=s), 1.0 - b2, out=s)
                np.add(np.multiply(v, b2, out=v), s, out=v)
                np.add(np.sqrt(np.divide(v, bias2, out=u), out=u), self.eps, out=u)
                x -= np.multiply(np.divide(np.divide(m, bias1, out=s), u, out=s), lr, out=s)


# ---------------------------------------------------------------------------
# batching

def epoch_plan(n_source: int, n_target: int, rng: np.random.Generator):
    """Index orders for one epoch: the larger pool is permuted, the smaller is
    permuted then resampled with replacement up to the larger pool's size;
    `steps_per_epoch` rejects an empty pool."""
    n_max = max(n_source, n_target)

    def order(n: int) -> np.ndarray:
        perm = rng.permutation(n)
        if n < n_max:
            return np.concatenate([perm, rng.choice(n, size=n_max - n, replace=True)])
        return perm

    return order(n_source), order(n_target)


def steps_per_epoch(n_source: int, n_target: int, batch: int) -> int:
    if n_source < 1 or n_target < 1:
        raise ValueError("both training pools must be non-empty")
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
    plan_shuffle: dict  # rng_shuffle's state at the epoch's plan draw; saved mid-epoch
    iteration: int = 0  # steps taken: the run's one stored position
    src_order: np.ndarray | None = None  # the current epoch's batch plan; never saved
    tgt_order: np.ndarray | None = None
    steps_per_epoch: int = 1
    history: list[dict] = field(default_factory=list)

    @property
    def epoch(self) -> int:
        return self.iteration // self.steps_per_epoch

    @property
    def step_in_epoch(self) -> int:
        return self.iteration % self.steps_per_epoch

    def trainable(self) -> dict[str, Tensor]:
        params = dict(self.model.params)
        if self.discriminator is not None:
            params.update(self.discriminator.params)
        return params


def init_state(config: RunConfig, seed: int) -> TrainState:
    streams = np.random.SeedSequence(seed).spawn(3)
    return _new_state(config, seed, *map(np.random.default_rng, streams))


class _NoDraws:
    """The init generator for parameters overwritten next: no draw, no fill."""
    uniform = normal = staticmethod(lambda low, high, size: np.empty(size))


def _new_state(config: RunConfig, seed: int, rng_init, rng_shuffle, rng_noise) -> TrainState:
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
        rng_shuffle=rng_shuffle, rng_noise=rng_noise, plan_shuffle=rng_shuffle.bit_generator.state,
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
    record = {"iteration": state.iteration + 1, "epoch": state.epoch, "lr": lr, "total": total,
              **logged}
    state.iteration += 1
    state.history.append(record)
    return record


LOG_COLUMNS = ("iteration", "epoch", "lr", "total", "rul", *TERM_WEIGHTS, "val_rmse")


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
    log: Callable[[dict], object] | None = None,
) -> TrainState:
    """Run the epoch budget (or until `max_iterations`) from the state's
    iteration, so a run resumes anywhere.  An epoch's first step draws its
    batch plan, as does a loaded state's first step.  `log` receives each
    step's record and, after an epoch's last step, a record of the
    iteration, epoch and source validation RMSE."""
    config = state.config
    half = config.batch_size // 2
    n_source, n_target = len(source.train_windows), len(target.train_windows)
    n_steps = steps_per_epoch(n_source, n_target, config.batch_size)
    if state.iteration and state.steps_per_epoch != n_steps:
        raise ValueError(f"the state at iteration {state.iteration} has {state.steps_per_epoch} "
                         f"steps per epoch, but the pools give {n_steps}")
    state.steps_per_epoch = n_steps
    end = config.epochs * n_steps
    if max_iterations is not None:
        end = min(end, max_iterations)
    while state.iteration < end:
        if state.step_in_epoch == 0 or state.src_order is None:
            state.plan_shuffle = state.rng_shuffle.bit_generator.state
            state.src_order, state.tgt_order = epoch_plan(n_source, n_target, state.rng_shuffle)
        start = state.step_in_epoch * half
        src_X, src_y = stack_windows(source.train_windows, state.src_order[start : start + half])
        tgt_X, _ = stack_windows(target.train_windows, state.tgt_order[start : start + half])
        record = train_step(state, src_X, src_y, tgt_X)
        if log is not None:
            log(record)
            if state.step_in_epoch == 0:
                log({"iteration": state.iteration, "epoch": record["epoch"],
                     "val_rmse": source_val_rmse(state, source)})
    return state


# ---------------------------------------------------------------------------
# checkpointing (bitwise-resumable)

def save_train_checkpoint(path, state: TrainState) -> None:
    """Write parameters, Adam moments, the iteration and the rng states to one
    blob; mid-epoch, the shuffle state that the epoch's plan was drawn from."""
    arrays: dict[str, np.ndarray] = {}
    for name, p in state.trainable().items():
        arrays[f"param/{name}"] = p.data
        arrays[f"adam_m/{name}"] = state.adam.m[name]
        arrays[f"adam_v/{name}"] = state.adam.v[name]
    meta = {
        "kind": "checkpoint",
        "config_hash": state.config.hash,
        "iteration": state.iteration,
        "adam_t": state.adam.t,
        "rng_states": {
            "shuffle": (state.plan_shuffle if state.step_in_epoch
                        else state.rng_shuffle.bit_generator.state),
            "noise": state.rng_noise.bit_generator.state,
        },
        "steps_per_epoch": state.steps_per_epoch,
        "seed": state.seed,
    }
    save_blob(path, arrays, meta)


def load_train_checkpoint(path, config: RunConfig) -> TrainState:
    """The state saved at `path`, with no batch plan; fails when the file is
    not a checkpoint or holds a plan, a meta key is missing, mistyped or out
    of range, its config hash does not match `config`, or a parameter or
    Adam moment of the trainable set is missing or has the wrong shape."""
    arrays, meta = load_blob(path)
    if meta.get("kind") != "checkpoint":
        raise ValueError(f"{path}: not a checkpoint file")
    if any(key.startswith("extra/plan_") for key in arrays):
        raise ValueError(f"{path}: a mid-epoch checkpoint that stores its batch plan, with the "
                         "shuffle state after the plan's draw; it cannot resume")

    def meta_value(key: str, kind: type, low=None):  # a `/` in `key` reaches into a mapping
        value = meta
        for part in key.split("/"):
            value = value.get(part) if isinstance(value, dict) else None
        if (not isinstance(value, kind) or isinstance(value, bool)
                or low is not None and value < low):
            raise ValueError(f"{path}: checkpoint meta {key!r} must be {kind.__name__}"
                             f"{'' if low is None else f' >= {low}'}, got {value!r}")
        return value

    def generator(key: str) -> np.random.Generator:
        state, gen = meta_value(key, dict), np.random.default_rng(0)
        try:
            gen.bit_generator.state = state
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: checkpoint meta {key!r} is not a generator state "
                             f"({type(exc).__name__}: {exc})") from exc
        return gen

    if meta_value("config_hash", str) != config.hash:
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

    state = _new_state(config, meta_value("seed", int), _NoDraws,
                       generator("rng_states/shuffle"), generator("rng_states/noise"))
    for name, p in state.trainable().items():
        p.data = checked(f"param/{name}", p.data.shape).astype(p.data.dtype, copy=False)
        state.adam.m[name] = checked(f"adam_m/{name}", p.data.shape).astype(p.data.dtype, copy=False)
        state.adam.v[name] = checked(f"adam_v/{name}", p.data.shape).astype(p.data.dtype, copy=False)
    state.adam.t = meta_value("adam_t", int, 0)
    state.iteration = meta_value("iteration", int, 0)
    state.steps_per_epoch = meta_value("steps_per_epoch", int, 1)
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
    # Unlike the snapshot artifacts, the log is not replaced atomically: its
    # rows stream into the file so that it can be read while the run grows it.
    with open(run_dir / "train_log.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=LOG_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        try:
            train(state, source, target, log=writer.writerow)
        except BaseException:
            _remove_artifacts(run_dir, SEED_SNAPSHOTS)
            raise
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


_stop = None  # a pool worker's copy of `run_experiment`'s stop event


def _set_stop(event) -> None:
    global _stop
    _stop = event


def _seed_job(job, source, target, write_latents) -> dict | str | None:
    """One seed of `run_experiment`, from its (config, seed, out_dir) triple.
    An abort comes back as the failure line instead of being raised, so no
    exception has to cross a process boundary under a pool.  A pool worker
    that takes the job after `run_experiment` was left returns None at once,
    a result no one reads."""
    if _stop is not None and _stop.is_set():
        return None
    config, seed, out_dir = job
    try:
        return run_single_seed(
            config, seed, source, target, run_dir=Path(out_dir) / str(seed),
            write_latents=write_latents,
        )
    except TrainingAbort as exc:
        return f"seed {seed}: {exc}"


def run_experiment(
    rows,
    source: DomainDataset,
    target: DomainDataset,
    *,
    jobs: int = 1,
    write_latents: bool = True,
    progress: Callable[[str], None] | None = None,
) -> Iterator[MetricsReport]:
    """Train every seed of every (label, out_dir, config) row, evaluate on the
    target test set, and yield each row's aggregate report in row order.

    The seeds of all rows go to one map: the `map` of one process pool of
    `min(jobs, number of seeds)` workers (which pickles each config and both
    datasets to its workers), or the builtin `map` when that is 1, so no row
    waits for the one before it and no worker is forked without a seed.
    Results are consumed in row and seed order, so every artifact and
    progress line is the same for any `jobs`.  A seed run that aborts
    (non-finite loss) is recorded as a failure and the remaining seeds still
    run.  Artifacts are written per seed under out_dir/<seed>/ and the row's
    aggregate in out_dir; `label` names the row in the report and the
    progress lines.  Leaving the generator early, by an exception or by
    closing it, cancels the seeds no worker has taken and sets a stop event
    that makes the workers skip the seeds already on the pool's call queue,
    which the pool cannot cancel.
    """
    rows = list(rows)
    seed_jobs = [(config, seed, out_dir) for _, out_dir, config in rows for seed in config.seeds]
    job = partial(_seed_job, source=source, target=target, write_latents=write_latents)
    workers = min(jobs, len(seed_jobs))
    stop = multiprocessing.Event() if workers > 1 else None
    pool = (ProcessPoolExecutor(max_workers=workers, initializer=_set_stop, initargs=(stop,))
            if workers > 1 else None)
    try:
        results = (pool.map if pool else map)(job, seed_jobs)
        for label, out_dir, config in rows:
            report = MetricsReport(
                source=config.source_subset,
                target=config.target_subset,
                variant=label,
                seeds=tuple(config.seeds),
                n_test_engines=len(target.test_windows),
            )
            for result in itertools.islice(results, len(config.seeds)):
                if isinstance(result, str):
                    report.failures.append(result)
                    continue
                report.records.append(result)
                if progress is not None:
                    progress(
                        f"{config.source_subset}->{config.target_subset} {label} "
                        f"seed {result['seed']}: rmse {result['rmse']:.2f}"
                    )
            Path(out_dir).mkdir(parents=True, exist_ok=True)
            write_json(Path(out_dir) / "report.json",
                       report.to_dict() | {"config_hash": config.hash, "config": config.to_dict()})
            _write_metrics(Path(out_dir) / "metrics.csv", report.records)
            yield report
    finally:
        if pool is not None:
            stop.set()
            pool.shutdown(cancel_futures=True)
