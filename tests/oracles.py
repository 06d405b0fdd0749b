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
- The row-by-row flat-file parser (`parse_trajectory_file`,
  `parse_rul_file`) and the per-window label `rul_label`, which the bulk
  numpy parse and window labelling in `ruladapt.data` must match bitwise.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ruladapt.autodiff import Tensor, _make, _unbroadcast
from ruladapt.data import N_COLUMNS, N_SETTINGS, IntegrityError, ParseError, Trajectory


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
        block = np.array([r[2:] for r in unit_rows], dtype=np.float64)
        trajectories.append(
            Trajectory(unit, block[:, :N_SETTINGS].copy(), block[:, N_SETTINGS:].copy())
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
