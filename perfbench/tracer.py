"""In-memory span tracer installed around ruladapt's public layer boundaries.

A span is one call: name, start, end, parent span and the benchmark
operation (a train step, an epilogue, a set-up, a probe) it belongs to.
Spans stay in a list until the run ends.  Self time is a span's duration
minus the time its child spans cover; children never overlap because the
program is single-threaded.

`install` patches each name where its caller looks it up: `training`
imports `backward`, `stack_windows`, the loss functions and
`predict_scaled` by name, `evaluation` imports `stack_windows` by name,
`Model` and `Adam` methods are patched on the class, and `model` and
`losses` reach autodiff primitives through the module attribute, so those
are patched on the `autodiff` module.  Primitives are counted, not spanned,
so that they do not eat into the self time of the layer that calls them.
"""

from __future__ import annotations

import inspect
import math
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np

from ruladapt import autodiff, evaluation, training
from ruladapt.model import Model

_clock = time.perf_counter
_NULL = nullcontext()

# Functions of `autodiff` that are not graph primitives.
_NOT_PRIMITIVES = frozenset({"backward", "grad_check", "no_grad", "zero_grads", "constant"})

_MODEL_METHODS = (
    "forward", "encode", "squeeze", "expand", "decode_predict",
    "reconstruct", "predict_from_bottleneck",
)


class Tracer:
    """Collects spans and per-operation counters.

    `op` is the operation the next spans and counts belong to, a tuple
    whose first item is its kind ("step", "epilogue", "setup", "probe",
    "check").  Spans are recorded only between `install` and `uninstall`;
    with `enabled` false `install` does nothing, so the untraced path pays
    only for a null context.  `active_s` is the wall time spent installed.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent index, op, n]
        self.counts: dict[tuple, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op: tuple = ("none",)
        self._stack: list[int] = []
        self._prim_depth = 0
        self._restore: list[tuple[object, str, object]] = []
        self._installed_at: float | None = None
        self.active_s = 0.0

    # -- spans ---------------------------------------------------------------
    def begin(self, name: str, n: int | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), None, parent, self.op, n])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self._stack.pop()

    @contextmanager
    def _recorded(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def span(self, name: str):
        return self._recorded(name) if self._installed_at is not None else _NULL

    # -- wrappers ------------------------------------------------------------
    def _spanned(self, name: str, fn, size=None):
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.begin(name, size(args) if size else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_matmul(self, fn):
        tracer = self

        def wrapper(a, b):
            start = _clock()
            out = fn(a, b)
            counts = tracer.counts[tracer.op]
            counts["matmul_s"] += _clock() - start
            counts["matmul_calls"] += 1
            m, k = a.shape[-2:]
            n = b.shape[-1]
            batch = math.prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]))
            counts["matmul_flop"] += 2.0 * m * n * k * batch
            return out

        return wrapper

    def _counted_node(self, fn):
        """Counts outermost primitive calls that record a graph node; a
        primitive built from other primitives counts once."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._prim_depth:
                return fn(*args, **kwargs)
            tracer._prim_depth += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._prim_depth -= 1
            if getattr(out, "_parents", ()):
                tracer.counts[tracer.op]["nodes"] += 1
            return out

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if not self.enabled:
            return
        for name in ("latent_mmd", "recon_loss", "smooth_loss", "composite_loss"):
            self._patch(training, name, self._spanned(f"losses.{name}", getattr(training, name)))
        self._patch(training, "backward", self._spanned("autodiff.backward", training.backward))
        self._patch(training, "train_step", self._spanned("training.train_step", training.train_step))
        for owner in (training, evaluation):
            self._patch(owner, "stack_windows",
                        self._spanned("data.stack_windows", owner.stack_windows))
            self._patch(owner, "predict_scaled",
                        self._spanned("evaluation.predict_scaled", owner.predict_scaled))
        for name in _MODEL_METHODS:
            size = _batch_size if name == "forward" else None
            self._patch(Model, name, self._spanned(f"model.{name}", getattr(Model, name), size))
        self._patch(training.Adam, "step", self._spanned("training.adam", training.Adam.step))
        for name, fn in inspect.getmembers(autodiff, inspect.isfunction):
            if name.startswith("_") or name in _NOT_PRIMITIVES or fn.__module__ != autodiff.__name__:
                continue
            inner = self._timed_matmul(fn) if name == "matmul" else fn
            self._patch(autodiff, name, self._counted_node(inner))
        self._installed_at = _clock()

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        if self._installed_at is not None:
            self.active_s += _clock() - self._installed_at
            self._installed_at = None

    # -- analysis ------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Duration minus child coverage, one value per span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, n in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]


def _batch_size(args) -> int:
    """Rows of the window batch passed to `Model.forward(self, X)`."""
    X = args[1]
    return int(np.shape(getattr(X, "data", X))[0])
