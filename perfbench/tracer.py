"""Span tracer that wraps resadapt's public layer functions from outside.

resadapt modules import each other's functions by name
(``from .backbone import encode``), so a function object is reachable from
several module namespaces. ``Tracer.installed()`` replaces the object in
every loaded ``resadapt`` module that holds it, which also covers calls
nested inside other layers, and restores every original on exit. No file
under ``src/`` is edited.

Each call becomes a span. Per span name the tracer keeps the call count,
the inclusive durations, the self time (duration minus the time covered by
child spans) and a row count where a target defines one. Hooks add the
exact counters the continual layer needs: rows encoded and scored during
checkpoint evaluation, and SGD steps.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

RUN = "continual.run_continual"
EVAL = "continual.evaluate_task"
TRAIN = "learner.train_task"


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _lead(a) -> int:
    """Leading (batch) dimension of an array argument; 1 for a single row."""
    shape = getattr(a, "shape", None)
    if shape is None:
        return len(a)
    return shape[0] if len(shape) > 1 else 1


@dataclass(frozen=True)
class Target:
    """One traced function: its home module, name, and optional hooks."""

    module: str
    func: str
    layer: str
    rows: Callable | None = None  # (args, kwargs) -> rows of work
    hook: Callable | None = None  # (tracer, args, kwargs) -> None, on entry

    @property
    def span(self) -> str:
        return f"{self.layer}.{self.func}"


def _eval_scope(tr: "Tracer") -> bool:
    return tr.active[EVAL] > 0 and tr.active[RUN] > 0


def _hook_evaluate(tr: "Tracer", args, kwargs) -> None:
    if tr.active[RUN] > 0:
        tr.current_enc = _arg(args, kwargs, 2, "enc")
        tr.counters["continual.eval.samples"] += _lead(_arg(args, kwargs, 0, "task").test_ids)


def _hook_encode(tr: "Tracer", args, kwargs) -> None:
    if not _eval_scope(tr):
        return
    stack = _arg(args, kwargs, 1, "stack")
    rows = _lead(_arg(args, kwargs, 0, "token_ids"))
    if stack is tr.current_enc.image:
        tr.counters["continual.eval.image_rows"] += rows
    elif stack is tr.current_enc.text:
        tr.counters["continual.eval.text_rows"] += rows


def _hook_log_density(tr: "Tracer", args, kwargs) -> None:
    if _eval_scope(tr):
        tr.counters["continual.eval.logdensity_rows"] += _lead(_arg(args, kwargs, 1, "x"))


def _hook_loss(tr: "Tracer", args, kwargs) -> None:
    if tr.active[TRAIN] > 0:
        tr.counters["learner.train_task.steps"] += 1


def _rows_of(i: int, name: str) -> Callable:
    return lambda args, kwargs: _lead(_arg(args, kwargs, i, name))


def _size_of(i: int, name: str) -> Callable:
    return lambda args, kwargs: int(getattr(_arg(args, kwargs, i, name), "size", 1))


# Every layer function the per-layer split reports. `_sgd_step` and the
# input validation inside train_task are deliberately not wrapped: their
# cost is what learner.train_task.self_s measures.
LAYER_TARGETS = (
    Target("resadapt.attention", "frozen_attn_with_cache", "attention"),
    Target("resadapt.attention", "frozen_attn_backward", "attention"),
    Target("resadapt.attention", "residual_attn_with_cache", "attention"),
    Target("resadapt.attention", "residual_attn_backward", "attention"),
    Target("resadapt.attention", "prepend_attn_with_cache", "attention"),
    Target("resadapt.attention", "prepend_attn_backward", "attention"),
    Target("resadapt.backbone", "encode", "backbone", _rows_of(0, "token_ids"), _hook_encode),
    Target("resadapt.backbone", "encode_with_cache", "backbone", _rows_of(0, "token_ids")),
    Target("resadapt.backbone", "encode_backward", "backbone"),
    Target("resadapt.backbone", "class_embeddings", "backbone", _rows_of(0, "classes")),
    Target("resadapt.taskdist", "fit_gaussian", "taskdist", _rows_of(0, "features")),
    Target("resadapt.taskdist", "log_density_batch", "taskdist", _rows_of(1, "x"), _hook_log_density),
    Target("resadapt.taskdist", "calibration_weight_batch", "taskdist", _size_of(0, "s_hat")),
    Target("resadapt.learner", "estimate_task_stats", "learner"),
    Target("resadapt.learner", "train_task", "learner"),
    Target("resadapt.learner", "batch_cross_entropy", "learner", _rows_of(0, "logit_rows"), _hook_loss),
    Target("resadapt.learner", "infer_batch", "learner", _rows_of(0, "token_ids")),
    Target("resadapt.numkernel", "softmax_rows", "numkernel"),
    Target("resadapt.numkernel", "cholesky_solve", "numkernel"),
    Target("resadapt.bench.continual", "run_continual", "continual"),
    Target("resadapt.bench.continual", "evaluate_task", "continual", None, _hook_evaluate),
    Target("resadapt.pool_io", "save_pool", "pool_io"),
    Target("resadapt.pool_io", "load_pool", "pool_io"),
    Target("resadapt.bench.stream", "save_stream", "stream"),
    Target("resadapt.bench.reporting", "write_csv", "reporting"),
)

# The phase clock used on untraced runs: two spans per task and one per
# (checkpoint, task) evaluation, each lasting milliseconds, so its cost is
# negligible next to the phases it splits.
PHASE_TARGETS = tuple(
    t for t in LAYER_TARGETS if t.span in (RUN, EVAL, TRAIN, "learner.estimate_task_stats")
)


class Tracer:
    """In-memory span aggregates for one set of targets."""

    def __init__(self, targets=LAYER_TARGETS):
        self.targets = tuple(targets)
        self.current_enc = None
        self.reset()

    def reset(self) -> None:
        self.active: Counter = Counter()
        self.calls: Counter = Counter()
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_s: dict[str, float] = defaultdict(float)
        self.rows: Counter = Counter()
        self.counters: Counter = Counter()
        self.phase_s: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []  # per open span: [child seconds]

    def total(self, span: str) -> float:
        return float(sum(self.durations.get(span, ())))

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name = target.span
        rows, hook = target.rows, target.hook
        in_run_phase = name in (EVAL, TRAIN, "learner.estimate_task_stats")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rows is not None:
                self.rows[name] += rows(args, kwargs)
            if hook is not None:
                hook(self, args, kwargs)
            frame = [0.0]
            self._stack.append(frame)
            self.active[name] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.active[name] -= 1
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dt
                self.calls[name] += 1
                self.durations[name].append(dt)
                self.self_s[name] += dt - frame[0]
                if in_run_phase and self.active[RUN] > 0:
                    self.phase_s[name] += dt

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Replace every target in every resadapt namespace; restore on exit."""
        patched: list[tuple[object, str, object]] = []
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "resadapt" or n.startswith("resadapt."))
        ]
        try:
            for target in self.targets:
                original = getattr(sys.modules[target.module], target.func)
                wrapper = self._wrap(target, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)
            left = [
                f"{m.__name__}.{a}" for m in modules for a, v in vars(m).items()
                if getattr(v, "__wrapped_by_tracer__", False)
            ]
            if left:
                raise RuntimeError(f"tracer left wrappers installed: {left}")
