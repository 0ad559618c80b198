"""Domain-class incremental runs over a task stream.

Tasks are learned in order. For task i the harness first computes frozen
feature statistics, then trains the attachments and appends the immutable
pool entry. train_pool stops there; run_continual then evaluates every
task's test split with the pool as it stands, filling row i of the accuracy
matrix. Entries for j <= i use learned adapters; entries for j > i measure
what the partly-trained system does on data it has never seen (with
calibration on, effectively the frozen model).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..backbone import DualEncoder, encode
from ..errors import ConfigError, ContractError
from ..learner import (
    AdapterMode,
    InferState,
    PoolEntry,
    TaskPool,
    TrainConfig,
    estimate_task_stats,
    predict,
    score_entries,
    train_task,
)
from ..numkernel import make_rng
from .stream import Task


def evaluate_task(
    task: Task,
    pool: TaskPool,
    enc: DualEncoder,
    calibrate: bool = True,
    logit_scale: float = 100.0,
    state: InferState | None = None,
) -> float:
    """Accuracy of pooled inference on one task's test split.

    state carries the split's frozen features, scores and decisions from
    one checkpoint to the next (see InferState); without it the split is
    evaluated from scratch through the same code. As in infer_batch, a
    positive logit_scale cannot change a decision and any other is rejected.
    """
    if not logit_scale > 0.0:
        raise ContractError("logit_scale must be positive")
    if state is None:
        state = InferState()
    class_idx = state.infer(task.test_ids, pool, task.class_templates, enc, calibrate)
    return float((class_idx == task.test_labels).mean())


def _grow_pool(
    stream: list[Task], enc: DualEncoder, cfg: TrainConfig, mode: str | AdapterMode
) -> Iterator[TaskPool]:
    """Learn the stream's tasks in order, yielding the pool after each one."""
    if isinstance(mode, str):
        mode = AdapterMode.parse(mode)
    if not stream:
        raise ConfigError("empty task stream")
    pool = TaskPool(entries=[], kind=mode.mechanism)
    for i, task in enumerate(stream):
        # Statistics first, on the frozen encoder; training cannot bias them.
        gaussian = estimate_task_stats(task.train_ids, enc, cfg.ridge)
        adapters = train_task(
            task.train_ids,
            task.train_labels,
            task.class_templates,
            enc,
            cfg,
            make_rng(cfg.seed, 23, i),
            mode,
        )
        pool.entries.append(PoolEntry(adapters=adapters, gaussian=gaussian))
        yield pool


def train_pool(
    stream: list[Task], enc: DualEncoder, cfg: TrainConfig, mode: str | AdapterMode = "iki"
) -> TaskPool:
    """Train the stream in order without evaluating; returns the final pool."""
    *_, pool = _grow_pool(stream, enc, cfg, mode)
    return pool


def run_continual(
    stream: list[Task],
    enc: DualEncoder,
    cfg: TrainConfig,
    calibrate: bool = True,
    mode: str | AdapterMode = "iki",
) -> tuple[np.ndarray, TaskPool]:
    """Train the stream in order; returns (accuracy matrix, final pool)."""
    n = len(stream)
    matrix = np.zeros((n, n))
    # One evaluation state per task: each checkpoint scores only the new
    # entry and re-classifies only the samples it takes over.
    states = [InferState() for _ in stream]
    for i, pool in enumerate(_grow_pool(stream, enc, cfg, mode)):
        for j, other in enumerate(stream):
            matrix[i, j] = evaluate_task(other, pool, enc, calibrate, cfg.logit_scale, states[j])
    return matrix, pool


def zero_shot_sweep(stream: list[Task], enc: DualEncoder) -> list[float]:
    """Frozen-model accuracy per task (no pool, no adapters)."""
    out = []
    for task in stream:
        preds = predict(task.test_ids, None, np.ones(len(task.test_ids)), task.class_templates, enc)
        out.append(float((preds == task.test_labels).mean()))
    return out


def assignment_accuracy(stream: list[Task], pool: TaskPool, enc: DualEncoder) -> float:
    """Task-selection accuracy over learned tasks at every checkpoint.

    For each prefix pool of size i+1 and each task j <= i, the fraction of
    task j's test samples whose best-scoring Gaussian is j. Entries are
    immutable, so a prefix of the scores against the final pool reproduces
    the pool exactly as it stood.
    """
    n = len(pool.entries)
    correct = total = 0
    for j, task in enumerate(stream[:n]):
        scores = score_entries(encode(task.test_ids, enc.image), pool.entries)
        for i in range(j, n):
            correct += int((np.argmax(scores[:, : i + 1], axis=1) == j).sum())
            total += scores.shape[0]
    return correct / total


def manual_weight_sweep(
    task: Task,
    entry: PoolEntry,
    enc: DualEncoder,
    weights: list[float],
) -> dict[float, float]:
    """Accuracy on one task while the residual weight is pinned by hand.

    Bypasses selection and calibration entirely: the given entry's adapters
    are applied at each fixed w to both encoders. w=0 is exactly the frozen
    model; w=1 is full strength.
    """
    out = {}
    for w in weights:
        pinned = np.full(len(task.test_ids), float(w))
        preds = predict(task.test_ids, entry.adapters, pinned, task.class_templates, enc)
        out[float(w)] = float((preds == task.test_labels).mean())
    return out
