"""Code the program no longer calls, kept as the references its faster
replacements are checked against.

- Kernels that are building blocks of the composed oracles for the fused
  attention and normalization primitives: `softmax`, the 4-D `attention`
  over pre-split heads and the plain `layer_norm` without the residual add.
  Each keeps its hand-written VJP and is itself checked against a graph of
  autodiff primitives in test_autodiff.py.
- The elementwise `div` and `sqrt` primitives, which only the composed
  layer-norm oracle uses; they stay in the gradient checks of every
  primitive.
- `composed_mmd2`, the RBF-MMD^2 graph of 15 primitives that the fused
  `rbf_mmd2` node must match bitwise, and its building blocks: the
  `pairwise_sqdist` node over the blocked `_sqdist` loop, with its own VJP,
  and the elementwise `exp`.  `log` builds the composed cross-entropy that
  `log_sigmoid` replaced.  All three stay in the gradient checks of every
  primitive.
- The row-by-row flat-file parser (`parse_trajectory_file`,
  `parse_rul_file`) and the per-window label `rul_label`, which the bulk
  numpy parse and window labelling in `ruladapt.data` must match bitwise.
- `csv_export_latents`, the latent export through `csv.writer` with one
  f-string per value, whose bytes `evaluation.export_latents` must match.
- `composed_recurrent_sequence`, the GRU, LSTM and RNN unrolls composed
  from primitives, one node per gate product, as the model built them
  before the fused `recurrent_sequence` node, and the elementwise `tanh`
  they use.
"""

from __future__ import annotations

import csv
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from ruladapt import autodiff as ad
from ruladapt.autodiff import GraphError, Tensor, _make, _unbroadcast
from ruladapt.data import N_COLUMNS, IntegrityError, ParseError, Trajectory, stack_windows
from ruladapt.losses import KernelSpec, _sigma_sq


def div(a: Tensor, b: Tensor) -> Tensor:
    return _make(
        a.data / b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        ),
    )


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _make(out, (a,), lambda g: (g * 0.5 / out,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _make(out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _make(out, (a,), lambda g: (g * (1.0 - out * out),))


def composed_recurrent_sequence(cell, h0, u0, w_i, w_h, biases, w_out, b_out, steps):
    """`recurrent_sequence` as a graph of primitives: each gate's block of
    the stacked weights is sliced out and multiplied on its own, 32 nodes
    per GRU step, 39 per LSTM step and 10 per RNN step."""
    n, H = h0.shape
    f = u0.shape[1]

    def block(t, k):
        return t[..., k * H : (k + 1) * H]

    def gate(k):  # (u w_ik + h w_hk) + b_ik
        return ad.add(ad.add(ad.matmul(u, block(w_i, k)), ad.matmul(h, block(w_h, k))),
                      block(biases[0], k))

    h, c, u, frames = h0, ad.constant(np.zeros((n, H))), u0, []
    for _ in range(steps):
        if cell == "gru":
            z, r = ad.sigmoid(gate(0)), ad.sigmoid(gate(1))
            cand = tanh(ad.add(
                ad.add(ad.matmul(u, block(w_i, 2)), block(biases[0], 2)),
                ad.mul(r, ad.add(ad.matmul(h, block(w_h, 2)), biases[1])),
            ))
            h = ad.add(ad.mul(ad.sub(ad.constant(1.0), z), cand), ad.mul(z, h))
        elif cell == "lstm":
            i, fg, g, o = ad.sigmoid(gate(0)), ad.sigmoid(gate(1)), tanh(gate(2)), ad.sigmoid(gate(3))
            c = ad.add(ad.mul(fg, c), ad.mul(i, g))
            h = ad.mul(o, tanh(c))
        else:
            h = tanh(gate(0))
        u = ad.linear(h, w_out, b_out)
        frames.append(ad.reshape(u, (n, f, 1)))
    return ad.concat(frames, axis=2)


def pairwise_sqdist(a: Tensor, b: Tensor) -> Tensor:
    """D[i, j] = ||a_i - b_j||^2 for row sets a (n, d) and b (m, d)."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise GraphError(f"pairwise_sqdist expects (n, d), (m, d); got {a.shape}, {b.shape}")

    def vjp(g):
        ga = 2.0 * (g.sum(axis=1)[:, None] * a.data - g @ b.data)
        gb = 2.0 * (g.sum(axis=0)[:, None] * b.data - g.T @ a.data)
        return ga, gb

    return _make(ad._sqdist(a.data, b.data), (a, b), vjp)


def composed_mmd2(a: Tensor, b: Tensor, spec: KernelSpec) -> Tensor:
    """Biased RBF-MMD^2 of row sets a (n, d) and b (m, d) as a graph of
    primitives: concat, pairwise_sqdist, scale, exp, three slices, three
    sums and five scale/add nodes."""
    n, m = a.shape[0], b.shape[0]
    z = ad.concat([a, b], axis=0)
    sqd = pairwise_sqdist(z, z)
    k = exp(ad.scale(sqd, -0.5 / _sigma_sq(sqd.data, spec)))
    k_aa = ad.tsum(k[:n, :n])
    k_bb = ad.tsum(k[n:, n:])
    k_ab = ad.tsum(k[:n, n:])
    return ad.add(
        ad.add(ad.scale(k_aa, 1.0 / (n * n)), ad.scale(k_bb, 1.0 / (m * m))),
        ad.scale(k_ab, -2.0 / (n * m)),
    )


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """(x - mean) / sqrt(var + eps) * gain + bias, normalized over the last
    axis (biased variance)."""
    normed = x.data - x.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((normed * normed).mean(axis=-1, keepdims=True) + eps)
    normed *= inv
    out = normed * gain.data
    out += bias.data

    def vjp(g):
        gx = g * gain.data
        mean_g = gx.mean(axis=-1, keepdims=True)
        mean_gn = (gx * normed).mean(axis=-1, keepdims=True)
        gx -= mean_g
        gx -= normed * mean_gn
        gx *= inv
        return (
            gx,
            _unbroadcast(g * normed, gain.data.shape),
            _unbroadcast(g, bias.data.shape),
        )

    return _make(out, (x, gain, bias), vjp)


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(q k^T / sqrt(d_k)) v over the last two axes of (..., S_q, d_k),
    (..., S_k, d_k) and (..., S_k, d_v)."""
    c = 1.0 / np.sqrt(q.shape[-1])
    probs = np.matmul(q.data, np.swapaxes(k.data, -1, -2))
    probs *= c
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)

    def vjp(g):
        gl = np.matmul(g, np.swapaxes(v.data, -1, -2))
        gl -= (gl * probs).sum(axis=-1, keepdims=True)
        gl *= probs
        gl *= c
        return (
            np.matmul(gl, k.data),
            np.matmul(np.swapaxes(gl, -1, -2), q.data),
            np.matmul(np.swapaxes(probs, -1, -2), g),
        )

    return _make(np.matmul(probs, v.data), (q, k, v), vjp)


def _read_numeric_rows(path: Path, n_columns: int) -> list[list[float]]:
    rows: list[list[float]] = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) != n_columns:
                raise ParseError(
                    f"{path}:{line_no}: expected {n_columns} columns, got {len(tokens)}"
                )
            try:
                rows.append([float(t) for t in tokens])
            except ValueError as exc:
                raise ParseError(f"{path}:{line_no}: non-numeric value ({exc})") from None
    if not rows:
        raise ParseError(f"{path}: empty file")
    return rows


def parse_trajectory_file(path) -> list[Trajectory]:
    path = Path(path)
    by_unit: dict[int, list[list[float]]] = {}
    for row in _read_numeric_rows(path, N_COLUMNS):
        by_unit.setdefault(int(row[0]), []).append(row)
    trajectories = []
    for unit, unit_rows in by_unit.items():
        cycles = [int(r[1]) for r in unit_rows]
        if cycles != list(range(1, len(unit_rows) + 1)):
            raise IntegrityError(
                f"{path}: unit {unit}: cycle indices must run 1..T with step 1"
            )
        trajectories.append(
            Trajectory(unit, np.array([r[2:] for r in unit_rows], dtype=np.float64))
        )
    return trajectories


def parse_rul_file(path) -> np.ndarray:
    path = Path(path)
    return np.array([r[0] for r in _read_numeric_rows(path, 1)], dtype=np.float64)


def rul_label(T: int, t: int, rc: float) -> float:
    """Piecewise-linear scaled label: min(T - t, rc) / rc, in [0, 1]."""
    if rc <= 0:
        raise ValueError(f"rc must be positive, got {rc}")
    if not 1 <= t <= T:
        raise ValueError(f"cycle t={t} outside trajectory of length {T}")
    return min(T - t, rc) / rc


def csv_export_latents(model, datasets, layers, paths, batch: int = 256) -> None:
    """`export_latents` for a sequence of distinct layers, written row by row
    through `csv.writer`."""
    windows = [w for ds in datasets for w in ds.train_windows]
    domains = [ds.role for ds in datasets for _ in ds.train_windows]
    with ExitStack() as files:
        writers = {}
        for name, out in zip(layers, paths):
            writers[name] = csv.writer(files.enter_context(open(out, "w", newline="")))
            width = model.config.bottleneck if name == "C" else model.config.head_dim
            writers[name].writerow(
                [f"{name.lower()}_{i:03d}" for i in range(width)] + ["rul_scaled", "domain"])
        with ad.no_grad():
            for start in range(0, len(windows), batch):
                chunk = windows[start : start + batch]
                X, _ = stack_windows(chunk)
                bundle = model.forward(X)
                tails = [["" if s.rul_scaled is None else f"{s.rul_scaled:.6f}", domain]
                         for s, domain in zip(chunk, domains[start : start + batch])]
                for name, writer in writers.items():
                    values = (bundle.c if name == "C" else bundle.o).data
                    writer.writerows([f"{v:.8e}" for v in row] + tail
                                     for row, tail in zip(values, tails))
