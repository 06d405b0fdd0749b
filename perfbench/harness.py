"""Workloads, measurement and output checks of the ruladapt benchmark.

Every workload runs on synthetic FD002 (source) -> FD001 (target) files
generated from the workload seed.  The harness calls the public functions
of `data`, `model`, `losses`, `autodiff`, `training`, `evaluation` and
`serialization` and changes nothing inside the package; per-layer numbers
come from a separate traced run (see `tracer.py`).  See README.md for why
each workload exists and which layer metric should move which end-to-end
metric.
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ruladapt import autodiff, data, evaluation, losses, synthetic, training
from ruladapt.autodiff import Tensor, no_grad
from ruladapt.cli import TOY_FEATURE_MASK
from ruladapt.data import SOURCE, TARGET
from ruladapt.model import desk_model_config, toy_model_config

from tracer import Tracer

_clock = time.perf_counter

HERE = Path(__file__).resolve().parent

# End-to-end metrics, printed by every untraced run of every workload.
# "op" is the workload's repeated unit of work: one train step including
# batch stacking on train-*, one whole per-seed epilogue on epilogue-full.
END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "windows_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics, printed by every traced run; a layer a workload does not
# exercise reads 0.  "per step" means per op on epilogue-full.
PER_LAYER = {
    "data.parse_s": "s",
    "data.build_s": "s",
    "data.stack_windows_ms": "ms",
    "model.encode_ms": "ms",
    "model.squeeze_ms": "ms",
    "model.expand_ms": "ms",
    "model.decode_predict_ms": "ms",
    "model.reconstruct_ms": "ms",
    "model.predict_from_bottleneck_ms": "ms",
    "model.encode.bwd_ms": "ms",
    "model.squeeze.bwd_ms": "ms",
    "model.expand.bwd_ms": "ms",
    "model.decode_predict.bwd_ms": "ms",
    "model.reconstruct.bwd_ms": "ms",
    "losses.latent_mmd_ms": "ms",
    "losses.recon_loss_ms": "ms",
    "losses.smooth_loss_ms": "ms",
    "losses.composite_loss_ms": "ms",
    "losses.latent_mmd.bwd_ms": "ms",
    "losses.smooth_loss.bwd_ms": "ms",
    "losses.adaptation_calls_per_step": "count",
    "autodiff.backward_ms": "ms",
    "autodiff.nodes_per_step": "count",
    "autodiff.matmul_calls_per_step": "count",
    "autodiff.matmul_gflop_per_step": "GFLOP",
    "autodiff.matmul_fwd_ms": "ms",
    "autodiff.matmul_gflops_per_s": "GFLOP/s",
    "training.train_step_self_ms": "ms",
    "training.adam_ms": "ms",
    "training.adam_mbytes_per_step": "MB",
    "evaluation.predict_scaled_ms": "ms",
    "evaluation.export_latents_s": "s",
    "evaluation.export_format_s": "s",
    "evaluation.export_forward_windows": "count",
    "serialization.save_s": "s",
    "serialization.load_s": "s",
    "serialization.checkpoint_mb": "MB",
    "trace.overhead_ratio": "ratio",
}

SETUP_REPEATS = 5
PROBE_REPS = 5
CHECK_SEED = 0
CHECK_ENGINES = (("FD002", 12, 4), ("FD001", 12, 4))
REFERENCE_PATH = HERE / "reference.json"
# Relative tolerance on the logged `total` of each reference step: float64
# reassociation (fused ops, reordered sums) stays far inside it, a changed
# loss, gradient or update rule does not.
REFERENCE_RTOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" | "epilogue"
    preset: str  # "full" | "desk" | "toy"
    variant: str
    # (subset, n_train, n_test) generator overrides; None = published counts
    engines: tuple | None = None
    # epilogue: windows drawn from source train, target train, source val
    pool: tuple[int, int, int] = (128, 128, 128)
    check_steps: int = 0  # train: reference-trajectory steps at CHECK_SEED
    warmup: int = 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-full-lamanet", "train", "full", "lamanet", check_steps=3),
        Workload("train-desk-no_da", "train", "desk", "no_da", check_steps=6),
        Workload("epilogue-full", "epilogue", "full", "lamanet", warmup=1),
    )
}


def run_config(wl: Workload) -> training.RunConfig:
    """The workload's RunConfig; the adaptation gate is open from step 0."""
    overrides: dict = {}
    if wl.preset == "desk":
        overrides["model"] = desk_model_config()
    elif wl.preset == "toy":
        overrides.update(
            feature_mask=TOY_FEATURE_MASK, window=16,
            model=toy_model_config(len(TOY_FEATURE_MASK), 16),
        )
    return training.make_run_config("FD002", "FD001", wl.variant, da_start=0, **overrides)


# ---------------------------------------------------------------------------
# bookkeeping

class Ledger:
    """Attempted and failed operations, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest order statistic with at least ten
    samples above it, or None with fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_digest(root: Path) -> str:
    """sha256 over the package sources, so runs of different builds differ
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, or "unknown" where it is not a git work tree
    (asking git there could report an enclosing repository instead)."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(root: Path, seed: int, blas_threads_requested: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads_requested": blas_threads_requested,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(root),
        "src_sha256": source_digest(root),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# inputs and set-up

def write_inputs(wl: Workload, seed: int, data_dir: Path) -> None:
    overrides = {s: dict(n_train=a, n_test=b) for s, a, b in (wl.engines or ())}
    for subset in ("FD002", "FD001"):
        synthetic.write_benchmark_files(data_dir, subset, seed, **overrides.get(subset, {}))


def _build(config, subset, role, train, test, truth):
    return data.build_domain_dataset(
        train, test, truth, subset=subset, role=role, window=config.window, rc=config.rc,
        feature_mask=config.feature_mask, val_seed=config.val_seed,
        val_fraction=config.val_fraction,
    )


def setup(config, data_dir: Path, seed: int, tracer: Tracer):
    """Parse the flat files, build both domain datasets, initialise the run
    state.  Returns (source, target, state, {"parse", "build", "init"} s)."""
    times = {}
    start = _clock()
    with tracer.span("data.parse"):
        raw_s = data.parse_cmapss(*data.subset_paths(data_dir, "FD002"))
        raw_t = data.parse_cmapss(*data.subset_paths(data_dir, "FD001"))
    times["parse"] = _clock() - start
    start = _clock()
    with tracer.span("data.build"):
        source = _build(config, "FD002", SOURCE, *raw_s)
        target = _build(config, "FD001", TARGET, *raw_t)
    times["build"] = _clock() - start
    start = _clock()
    with tracer.span("training.init_state"):
        state = training.init_state(config, seed)
    times["init"] = _clock() - start
    return source, target, state, times


def reference_totals(wl: Workload, steps: int) -> list[float]:
    """Logged `total` of the first steps of the workload's configuration on a
    small fixed input (CHECK_SEED), independent of the workload seed."""
    config = run_config(wl)
    built = {}
    for subset, n_train, n_test in CHECK_ENGINES:
        train, test, truth = synthetic.generate_subset(
            subset, CHECK_SEED, n_train=n_train, n_test=n_test,
        )
        role = SOURCE if subset == config.source_subset else TARGET
        built[subset] = _build(config, subset, role, train, test, truth)
    state = training.init_state(config, CHECK_SEED)
    training.train(state, built[config.source_subset], built[config.target_subset],
                   max_iterations=steps)
    return [record["total"] for record in state.history]


def check_reference(wl: Workload, ledger: Ledger) -> None:
    reference = json.loads(REFERENCE_PATH.read_text())[wl.name]
    got = reference_totals(wl, len(reference["total"]))
    ok = len(got) == len(reference["total"]) and all(
        abs(a - b) <= REFERENCE_RTOL * abs(b) for a, b in zip(got, reference["total"])
    )
    ledger.record(ok, f"reference trajectory: got {got}, recorded {reference['total']}")


# ---------------------------------------------------------------------------
# train workloads

def _finite_record(record: dict) -> bool:
    return all(math.isfinite(v) for k, v in record.items() if k not in ("iteration", "epoch"))


def _timed_ops(seconds, trace, tracer, attempt, more=lambda: True):
    """Call `attempt(traced)` at least once, then until `seconds` pass or
    `more()` turns false.  In a traced run every other call runs with the
    tracer installed, so traced and untraced ops see the same machine
    conditions.  Returns (untraced, traced) lists of the attempts' results;
    an attempt that returns None failed and is left out."""
    results: tuple[list, list] = ([], [])
    deadline, attempts = _clock() + seconds, 0
    while more() and (not attempts or _clock() < deadline):
        attempts += 1
        traced = trace and len(results[0]) > len(results[1])
        if traced:
            tracer.install()
        try:
            result = attempt(traced)
        finally:
            if traced:
                tracer.uninstall()
        if result is not None:
            results[traced].append(result)
    return results


def _train_step_attempt(state, source, target, tracer, ledger):
    """One `train` call of exactly one step, timed with its batch stacking."""
    def attempt(traced: bool) -> float | None:
        tracer.op = ("step" if traced else "untraced", state.iteration)
        start = _clock()
        try:
            with tracer.span("step"):
                training.train(state, source, target, max_iterations=state.iteration + 1)
        except training.TrainingAbort as exc:
            ledger.record(False, f"step {state.iteration}: {exc}")
            return None
        elapsed = _clock() - start
        ok = ledger.record(_finite_record(state.history[-1]),
                           f"non-finite loss at step {state.iteration}: {state.history[-1]}")
        return elapsed if ok else None

    return attempt


def _probe_backward(state, source, target, present, tracer, rng):
    """`autodiff.backward` through one piece at a time on the workload's
    batch; the forward part of each probe is not timed."""
    config, model = state.config, state.model
    half = config.batch_size // 2
    src_X, _ = data.stack_windows(source.train_windows, state.src_order[:half])
    tgt_X, _ = data.stack_windows(target.train_windows, state.tgt_order[:half])
    with no_grad():
        bs, bt = model.forward(src_X), model.forward(tgt_X)

    def leaf(t):
        return Tensor(t.data.copy(), requires_grad=True)

    def project(*outs):
        terms = [autodiff.tsum(autodiff.mul(o, autodiff.constant(rng.standard_normal(o.shape))))
                 for o in outs]
        return terms[0] if len(terms) == 1 else autodiff.add(*terms)

    pieces = {
        "model.encode": lambda: project(model.encode(Tensor(src_X))),
        "model.squeeze": lambda: project(model.squeeze(leaf(bs.e))),
        "model.expand": lambda: project(model.expand(leaf(bs.c))),
        "model.decode_predict": lambda: project(*model.decode_predict(leaf(bs.e_tilde))),
        "model.reconstruct": lambda: project(model.reconstruct(leaf(bs.c), Tensor(src_X[:, :, 0]))),
        "losses.latent_mmd": lambda: losses.latent_mmd(
            leaf(bs.c), leaf(bt.c), leaf(bs.o), leaf(bt.o), config.kernel),
        "losses.smooth_loss": lambda: losses.smooth_loss(
            leaf(bs.c), model.predict_from_bottleneck, config.weights.gamma_noise, rng),
    }
    for name, build in pieces.items():
        if name not in present:
            continue
        for rep in range(PROBE_REPS):
            tracer.op = ("probe", name, rep)
            loss = build()
            with tracer.span(f"{name}.bwd"):
                autodiff.backward(loss)


def run_train(wl, state, source, target, seconds, trace, tracer, ledger, seed) -> dict:
    if wl.check_steps:
        check_reference(wl, ledger)
    attempt = _train_step_attempt(state, source, target, tracer, ledger)
    for _ in range(wl.warmup):  # the first call also sets steps_per_epoch
        attempt(False)

    def more() -> bool:  # stop before the epoch's last step, so the
        # per-epoch validation pass never lands inside a timed step
        return state.step_in_epoch + 1 < state.steps_per_epoch

    untraced, traced = _timed_ops(seconds, trace, tracer, attempt, more)
    if trace:
        tracer.install()
        try:
            present = {span[0] for span in tracer.spans if span[4][0] == "step"}
            _probe_backward(state, source, target, present, tracer, np.random.default_rng(seed))
        finally:
            tracer.uninstall()
    return {"samples": untraced, "traced_samples": traced,
            "windows_per_op": state.config.batch_size}


# ---------------------------------------------------------------------------
# epilogue workload

def _pool_view(ds, n_train: int, n_val: int, rng):
    """The dataset with a fixed number of train (and val) windows drawn
    without replacement, so the epilogue's work does not vary with the seed."""
    def pick(windows, n):
        return [windows[i] for i in np.sort(rng.choice(len(windows), size=n, replace=False))]

    return dataclasses.replace(
        ds,
        train_windows=pick(ds.train_windows, n_train),
        val_windows=pick(ds.val_windows, n_val) if n_val else ds.val_windows,
    )


def _csv_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1  # header


def _same_state(a, b) -> bool:
    pa, pb = a.trainable(), b.trainable()
    arrays_equal = all(
        pa[k].data.dtype == pb[k].data.dtype and np.array_equal(pa[k].data, pb[k].data)
        and np.array_equal(a.adam.m[k], b.adam.m[k]) and np.array_equal(a.adam.v[k], b.adam.v[k])
        for k in pa
    )
    return arrays_equal and pa.keys() == pb.keys() and a.adam.t == b.adam.t \
        and a.iteration == b.iteration


def run_epilogue(wl, state, source, target, seconds, trace, tracer, ledger, seed, work) -> dict:
    """`run_single_seed`'s per-seed epilogue: target evaluation, source
    validation RMSE, checkpoint save + load, C and O latent exports."""
    config = state.config
    # One untimed step, so the checkpoint carries non-zero Adam moments.
    training.train(state, source, target, max_iterations=1)
    rng = np.random.default_rng(seed)
    n_src, n_tgt, n_val = wl.pool
    src = _pool_view(source, n_src, n_val, rng)
    tgt = _pool_view(target, n_tgt, 0, rng)
    pool = n_src + n_tgt
    before = evaluation.predict_scaled(state.model, tgt.test_windows)
    ckpt, lat = work / "checkpoint.bin", {k: work / f"latents_{k}.csv" for k in "CO"}
    infer_windows = len(tgt.test_windows) + len(src.val_windows)

    counter = itertools.count()

    def epilogue(traced: bool) -> list[float] | None:
        """One epilogue; returns its phase boundary times, None if it failed."""
        index = next(counter)
        tracer.op = ("epilogue" if traced else "untraced", index)
        try:
            marks = [_clock()]
            with tracer.span("epilogue"):
                with tracer.span("evaluation.evaluate_target"):
                    rmse, _ = evaluation.evaluate_target(state.model, tgt, config.rc)
                with tracer.span("training.source_val_rmse"):
                    val = training.source_val_rmse(state, src)
                marks.append(_clock())
                with tracer.span("serialization.save"):
                    training.save_train_checkpoint(ckpt, state)
                marks.append(_clock())
                with tracer.span("serialization.load"):
                    loaded = training.load_train_checkpoint(ckpt, config)
                marks.append(_clock())
                rows = {}
                for layer in "CO":
                    with tracer.span("evaluation.export_latents"):
                        rows[layer] = evaluation.export_latents(
                            state.model, [src, tgt], layer, lat[layer])
                marks.append(_clock())
        except Exception as exc:  # a failed epilogue is a failed op, not a crash
            ledger.record(False, f"epilogue {index}: {type(exc).__name__}: {exc}")
            return None
        tracer.op = ("check", index)
        ok = [
            ledger.record(math.isfinite(rmse) and math.isfinite(val),
                          f"epilogue {index}: rmse {rmse}, val {val}"),
            ledger.record(_same_state(state, loaded),
                          f"epilogue {index}: checkpoint round trip differs"),
            *(ledger.record(rows[k] == pool and _csv_rows(lat[k]) == pool,
                            f"epilogue {index}: export {k} wrote {rows[k]} rows for {pool}")
              for k in "CO"),
            ledger.record(np.array_equal(before, evaluation.predict_scaled(loaded.model, tgt.test_windows)),
                          f"epilogue {index}: reloaded predictions differ"),
        ]
        return marks if all(ok) else None

    for _ in range(wl.warmup):
        epilogue(False)
    untraced, traced = _timed_ops(seconds, trace, tracer, epilogue)

    def phase(i, j):
        return [m[j] - m[i] for m in untraced]

    return {
        "samples": phase(0, 4),
        "traced_samples": [m[4] - m[0] for m in traced],
        "windows_per_op": infer_windows + 2 * pool,
        "infer_windows": infer_windows,
        "export_rows": 2 * pool,
        "phase_times": {"infer": phase(0, 1), "save": phase(1, 2), "load": phase(2, 3),
                        "export": phase(3, 4)},
        "checkpoint_mb": ckpt.stat().st_size / 1e6 if ckpt.exists() else 0.0,
    }


# ---------------------------------------------------------------------------
# metrics

def _spans_by_name(tracer: Tracer, kind: str):
    self_times = tracer.self_times()
    out: dict[str, list[tuple[float, float, int]]] = {}
    for index, (span, self_s) in enumerate(zip(tracer.spans, self_times)):
        if span[4][0] == kind:
            out.setdefault(span[0], []).append((span[2] - span[1], self_s, index))
    return out


def layer_metrics(tracer: Tracer, kind: str, op_result: dict, state, setup_times) -> dict:
    """Per-layer values from the traced part of a run (kind: the traced op
    kind, "step" or "epilogue")."""
    spans = _spans_by_name(tracer, kind)
    probes = _spans_by_name(tracer, "probe")
    ops = sorted({span[4] for span in tracer.spans if span[4][0] == kind})
    n_ops = max(len(ops), 1)

    def per_call_ms(name, field=0, table=spans):
        return 1e3 * _median(rec[field] for rec in table.get(name, []))

    def per_op(key):
        return _median(tracer.counts[op].get(key, 0.0) for op in ops)

    matmul_s = sum(tracer.counts[op].get("matmul_s", 0.0) for op in ops)
    matmul_flop = sum(tracer.counts[op].get("matmul_flop", 0.0) for op in ops)
    exports = {rec[2] for rec in spans.get("evaluation.export_latents", [])}
    export_windows = {op: 0 for op in ops}
    for _, _, index in spans.get("model.forward", []):
        name, start, end, parent, op, n = tracer.spans[index]
        if parent in exports:
            export_windows[op] += n
    n_params = sum(p.data.size for p in state.trainable().values())
    itemsize = next(iter(state.trainable().values())).data.itemsize
    untraced, traced = op_result["samples"], op_result.get("traced_samples", [])
    metrics = {
        "data.parse_s": _median(t["parse"] for t in setup_times),
        "data.build_s": _median(t["build"] for t in setup_times),
        "data.stack_windows_ms": per_call_ms("data.stack_windows"),
        **{f"model.{m}_ms": per_call_ms(f"model.{m}") for m in (
            "encode", "squeeze", "expand", "decode_predict", "reconstruct",
            "predict_from_bottleneck")},
        **{f"model.{m}.bwd_ms": per_call_ms(f"model.{m}.bwd", table=probes) for m in (
            "encode", "squeeze", "expand", "decode_predict", "reconstruct")},
        "losses.latent_mmd_ms": per_call_ms("losses.latent_mmd"),
        "losses.recon_loss_ms": per_call_ms("losses.recon_loss"),
        "losses.smooth_loss_ms": per_call_ms("losses.smooth_loss", field=1),
        "losses.composite_loss_ms": per_call_ms("losses.composite_loss", field=1),
        "losses.latent_mmd.bwd_ms": per_call_ms("losses.latent_mmd.bwd", table=probes),
        "losses.smooth_loss.bwd_ms": per_call_ms("losses.smooth_loss.bwd", table=probes),
        # composite_loss is the gate and runs on every variant; these are the
        # adaptation terms it evaluates once the gate is open.
        "losses.adaptation_calls_per_step": sum(
            len(spans.get(f"losses.{k}", [])) for k in ("latent_mmd", "recon_loss", "smooth_loss")
        ) / n_ops,
        "autodiff.backward_ms": per_call_ms("autodiff.backward"),
        "autodiff.nodes_per_step": per_op("nodes"),
        "autodiff.matmul_calls_per_step": per_op("matmul_calls"),
        "autodiff.matmul_gflop_per_step": per_op("matmul_flop") / 1e9,
        "autodiff.matmul_fwd_ms": 1e3 * per_op("matmul_s"),
        "autodiff.matmul_gflops_per_s": matmul_flop / 1e9 / matmul_s if matmul_s else 0.0,
        "training.train_step_self_ms": per_call_ms("training.train_step", field=1),
        "training.adam_ms": per_call_ms("training.adam"),
        # computed, not measured: Adam reads p, g, m, v and writes m, v, p
        "training.adam_mbytes_per_step": 7 * n_params * itemsize / 1e6 if kind == "step" else 0.0,
        "evaluation.predict_scaled_ms": per_call_ms("evaluation.predict_scaled"),
        "evaluation.export_latents_s": per_call_ms("evaluation.export_latents") / 1e3,
        "evaluation.export_format_s": per_call_ms("evaluation.export_latents", field=1) / 1e3,
        "evaluation.export_forward_windows": _median(export_windows.values()) if exports else 0.0,
        "serialization.save_s": per_call_ms("serialization.save") / 1e3,
        "serialization.load_s": per_call_ms("serialization.load") / 1e3,
        "serialization.checkpoint_mb": op_result.get("checkpoint_mb", 0.0),
        "trace.overhead_ratio": _median(traced) / _median(untraced) if traced and untraced else 0.0,
    }
    assert metrics.keys() == PER_LAYER.keys()
    return metrics


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(op_result: dict, setup_times) -> dict:
    samples = op_result["samples"]
    return {
        "setup_s": _median(sum(t.values()) for t in setup_times),
        "op_ms_p50": 1e3 * _median(samples),
        "windows_per_s": op_result["windows_per_op"] * len(samples) / sum(samples) if samples else 0.0,
        "peak_rss_mb": _peak_rss_mb(),
    }


def workload_metrics(wl: Workload, op_result: dict) -> dict:
    """The workload's own end-to-end figures under their descriptive names,
    as name -> (value, unit); printed and stored beside the bounded ones.
    Each timing is a median plus, with enough samples, the highest
    percentile that has at least ten samples above it."""
    samples = op_result["samples"]
    if not samples:
        return {}
    if wl.kind == "train":
        median_name, tail_name, scale, unit = "step_ms_p50", "step_ms_tail", 1e3, "ms"
    else:
        median_name, tail_name, scale, unit = "epilogue_s", "epilogue_s_tail", 1.0, "s"
    out = {"op_samples": (len(samples), "count"), median_name: (scale * _median(samples), unit)}
    t = tail(samples)
    if t is not None:
        out[f"{tail_name}_p{t[0]:.0f}"] = (scale * t[1], unit)
    rate = len(samples) / sum(samples)
    if wl.kind == "train":
        out["train_windows_per_s"] = (op_result["windows_per_op"] * rate, "1/s")
    else:
        phases, n = op_result["phase_times"], len(samples)
        out["infer_windows_per_s"] = (op_result["infer_windows"] * n / sum(phases["infer"]), "1/s")
        out["export_rows_per_s"] = (op_result["export_rows"] * n / sum(phases["export"]), "1/s")
        out["checkpoint_save_s"] = (_median(phases["save"]), "s")
        out["checkpoint_load_s"] = (_median(phases["load"]), "s")
    return out


# ---------------------------------------------------------------------------
# one run

def run(wl: Workload, seed: int, seconds: float, trace: bool, root: Path,
        blas_threads: int, work: Path) -> dict:
    """One run of one workload; returns the result record (see run.py)."""
    ledger = Ledger()
    tracer = Tracer(enabled=trace)
    data_dir = work / "data"
    write_inputs(wl, seed, data_dir)
    config = run_config(wl)
    setup_times = []
    for rep in range(SETUP_REPEATS):
        tracer.op = ("setup", rep)
        tracer.install()  # records the set-up spans in a traced run only
        try:
            source, target, state, times = setup(config, data_dir, seed, tracer)
        finally:
            tracer.uninstall()
        setup_times.append(times)
    if wl.kind == "train":
        op_result = run_train(wl, state, source, target, seconds, trace, tracer, ledger, seed)
    else:
        op_result = run_epilogue(wl, state, source, target, seconds, trace, tracer, ledger, seed, work)
    samples = op_result["samples"]
    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(root, seed, blas_threads),
        "samples": len(samples),
        "op_s": samples,
        "end_to_end": end_to_end(op_result, setup_times),
        "workload_metrics": workload_metrics(wl, op_result),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failed_ops_ratio": ledger.failed / max(ledger.attempted, 1),
        "failures": ledger.notes[:20],
    }
    if trace:
        kind = "step" if wl.kind == "train" else "epilogue"
        record["per_layer"] = layer_metrics(tracer, kind, op_result, state, setup_times)
        record["traced_wall_s"] = tracer.active_s
        record["spans"] = [
            {"name": name, "start": start, "end": end, "self": self_s, "parent": parent,
             "op": list(op), "n": n}
            for (name, start, end, parent, op, n), self_s in zip(tracer.spans, tracer.self_times())
        ]
    return record
