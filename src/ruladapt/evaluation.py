"""Target-domain metrics, per-run reports, aggregation tables, latent export.

Both metrics operate in cycles: scaled predictions are multiplied by the
label cap rc, and the ground truth is capped at rc so that predictions and
truth share one scale.  The asymmetric score follows the benchmark formula
sum(exp(-E/10) - 1) for E < 0 and sum(exp(E/13) - 1) for E >= 0 with
E = predicted - true cycles; accumulation happens in extended precision and
overflow beyond float64 is reported as +inf rather than aborting.
"""

from __future__ import annotations

import csv
import math
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import no_grad
from .data import DomainDataset, IntegrityError, WindowSample, stack_windows
from .serialization import atomic_open, write_json


def rmse(pred, truth) -> float:
    """Root mean squared error between cycle vectors."""
    pred, truth = np.asarray(pred, dtype=np.float64), np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise ValueError("empty prediction vector")
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def score(pred, truth) -> float:
    """Asymmetric exponential penalty of the printed benchmark formula:
    exp(E/13) - 1 for a late prediction, exp(-E/10) - 1 for an early one.
    +inf signals float64 overflow."""
    pred, truth = np.asarray(pred, dtype=np.float64), np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {truth.shape}")
    errors = (pred - truth).astype(np.longdouble)
    with np.errstate(over="ignore"):  # saturation is handled below, not fatal
        terms = np.where(
            errors < 0,
            np.exp(-errors / np.longdouble(10.0)) - 1.0,
            np.exp(errors / np.longdouble(13.0)) - 1.0,
        )
        total = terms.sum()
    if not np.isfinite(total) or total > np.longdouble(np.finfo(np.float64).max):
        return math.inf
    return float(total)


def predict_scaled(model, windows: list[WindowSample], batch: int = 256) -> np.ndarray:
    """Scaled (0, 1) predictions for a window list, chunked forward passes."""
    outputs = []
    with no_grad():
        for start in range(0, len(windows), batch):
            X, _ = stack_windows(windows[start : start + batch])
            outputs.append(model.forward(X).y_hat.data[:, 0])
    return np.concatenate(outputs) if outputs else np.zeros(0)


def evaluate_target(model, dataset: DomainDataset, rc: float) -> tuple[float, float]:
    """(rmse, score) in cycles over the dataset's one-window-per-engine test set."""
    if dataset.test_rul_truth is None or len(dataset.test_rul_truth) == 0:
        raise IntegrityError(f"{dataset.subset}: no ground-truth RUL vector")
    pred_cycles = predict_scaled(model, dataset.test_windows) * rc
    truth_cycles = np.minimum(dataset.test_rul_truth, rc)
    return rmse(pred_cycles, truth_cycles), score(pred_cycles, truth_cycles)


def score_to_json(value: float):
    """JSON form of a score statistic: float64 overflow (+inf) is the string
    "inf"; every other value, NaN included, is written as it is."""
    return "inf" if value == math.inf else value


def _sample_sd(values) -> float:
    return float(np.std(values, ddof=1)) if len(values) > 1 else float("nan")


@dataclass
class MetricsReport:
    """Per (source, target, variant) results across seeds: one record
    ({"seed", "rmse", "score", "val_rmse"}) per finished seed, in seed
    order, and one line per failed seed."""

    source: str
    target: str
    variant: str
    seeds: tuple[int, ...]
    records: list[dict] = field(default_factory=list)
    n_test_engines: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def pair(self) -> str:
        return f"{self.source}->{self.target}"

    @property
    def rmse_per_seed(self) -> list[float]:
        return [r["rmse"] for r in self.records]

    @property
    def score_per_seed(self) -> list[float]:
        return [r["score"] for r in self.records]

    @property
    def val_rmse_per_seed(self) -> list[float]:
        return [r["val_rmse"] for r in self.records]

    @property
    def rmse_mean(self) -> float:
        return float(np.mean(self.rmse_per_seed)) if self.rmse_per_seed else float("nan")

    @property
    def rmse_sd(self) -> float:
        return _sample_sd(self.rmse_per_seed)

    @property
    def score_mean(self) -> float:
        return float(np.mean(self.score_per_seed)) if self.score_per_seed else float("nan")

    @property
    def score_sd(self) -> float:
        return math.inf if self.score_saturated else _sample_sd(self.score_per_seed)

    @property
    def score_saturated(self) -> bool:
        return any(not math.isfinite(s) for s in self.score_per_seed)

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "target": self.target,
            "variant": self.variant,
            "seeds": list(self.seeds),
            "rmse_per_seed": self.rmse_per_seed,
            "score_per_seed": [score_to_json(s) for s in self.score_per_seed],
            "val_rmse_per_seed": self.val_rmse_per_seed,
            "rmse_mean": self.rmse_mean,
            "rmse_sd": self.rmse_sd,
            "score_mean": score_to_json(self.score_mean),
            "score_sd": score_to_json(self.score_sd),
            "score_saturated": self.score_saturated,
            "n_test_engines": self.n_test_engines,
            "failures": self.failures,
        }


def _fmt(value: float, digits: int = 2) -> str:
    if value != value:  # nan
        return "--"
    if math.isinf(value):
        return "inf"
    if abs(value) >= 1e6:
        return f"{value:.2e}"
    return f"{value:.{digits}f}"


def aggregate(reports: list[MetricsReport]):
    """Grid tables (rows = pairs, columns = variants) for the three metrics.

    Returns {"rmse": rows, "score": rows, "score_sd": rows} where each rows
    value is a list of dicts ready for CSV writing; rmse cells are
    "mean+-sd", score cells are means, score_sd cells are seed deviations.
    """
    if not reports:
        raise ValueError("nothing to aggregate")
    pairs = sorted({r.pair for r in reports})
    variants = sorted({r.variant for r in reports})
    by_key = {(r.pair, r.variant): r for r in reports}

    def rows(cell):
        out = []
        for pair in pairs:
            row = {"pair": pair}
            for variant in variants:
                report = by_key.get((pair, variant))
                row[variant] = cell(report) if report else ""
            out.append(row)
        return out

    return {
        "rmse": rows(lambda r: f"{_fmt(r.rmse_mean)}+-{_fmt(r.rmse_sd)}"),
        "score": rows(lambda r: _fmt(r.score_mean)),
        "score_sd": rows(lambda r: _fmt(r.score_sd)),
    }


def render_tables(reports: list[MetricsReport]) -> str:
    tables = aggregate(reports)
    lines = []
    for name, rows in tables.items():
        columns = list(rows[0].keys())
        widths = {c: max(len(c), max(len(str(r[c])) for r in rows)) for c in columns}
        lines.append(f"== {name} ==")
        lines.append("  ".join(c.ljust(widths[c]) for c in columns))
        for row in rows:
            lines.append("  ".join(str(row[c]).ljust(widths[c]) for c in columns))
        lines.append("")
    return "\n".join(lines)


def write_aggregate(out_dir, reports: list[MetricsReport]) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, rows in aggregate(reports).items():
        with atomic_open(out_dir / f"{name}.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    with atomic_open(out_dir / "tables.txt") as fh:
        fh.write(render_tables(reports))
    write_json(out_dir / "reports.json", [r.to_dict() for r in reports])


LATENT_LAYERS = ("C", "O")


def export_latents(model, datasets, layer, path, batch: int = 256) -> int:
    """Write one CSV row per training window, as csv.writer would: latent
    vector, rul_scaled (blank when the domain is unlabeled), the dataset's
    role.  `datasets` is a sequence of DomainDatasets (e.g. source and target
    together, told apart by the domain column).  `layer` is one of
    LATENT_LAYERS and `path` its CSV, or both are equal-length sequences that
    name each layer at most once: each chunk then goes through one forward
    pass that feeds every layer's file, and no file is replaced unless all of
    them are written.  Returns the row count of each file."""
    layers, paths = ((layer,), (path,)) if isinstance(layer, str) else (tuple(layer), tuple(path))
    for name in layers:
        if name not in LATENT_LAYERS:
            raise ValueError(f"layer must be one of {LATENT_LAYERS}, got {name!r}")
    if len(set(layers)) != len(layers):
        raise ValueError(f"each layer may be exported once, got {layers}")
    if len(paths) != len(layers):
        raise ValueError(f"{len(layers)} layers but {len(paths)} paths")
    windows = [w for ds in datasets for w in ds.train_windows]
    domains = [ds.role for ds in datasets for _ in ds.train_windows]
    with ExitStack() as files:
        outputs = []
        for name, out in zip(layers, paths):
            fh = files.enter_context(atomic_open(out, "w", newline=""))
            width = model.config.bottleneck if name == "C" else model.config.head_dim
            fh.write(",".join([f"{name.lower()}_{i:03d}" for i in range(width)]
                              + ["rul_scaled", "domain"]) + "\r\n")
            outputs.append((name, fh, ",".join(["%.8e"] * width) + "%s"))
        with no_grad():
            for start in range(0, len(windows), batch):
                chunk = windows[start : start + batch]
                X, _ = stack_windows(chunk)
                bundle = model.forward(X)
                tails = [f",{'' if s.rul_scaled is None else f'{s.rul_scaled:.6f}'},{domain}\r\n"
                         for s, domain in zip(chunk, domains[start : start + batch])]
                for name, fh, row in outputs:
                    values = (bundle.c if name == "C" else bundle.o).data.tolist()
                    fh.write("".join([row % (*v, tail) for v, tail in zip(values, tails)]))
    return len(windows)
