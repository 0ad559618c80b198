"""Domain-class incremental runs over a task stream: train, then evaluate.

train_pool learns the tasks in order: for task i it computes frozen feature
statistics, then trains the attachments and appends the immutable pool
entry. Consecutive tasks of one shape train in lockstep groups of up to
MAX_GROUP, and a task's entry does not depend on its group. Entries never
change once stored, so checkpoint i, the pool as it stood after task i, is
the first i + 1 entries; checkpoint_matrix evaluates every task's test split
at each of them, filling row i of the accuracy matrix. Entries for j <= i use
learned adapters; entries for j > i measure what the partly-trained system
does on data it has never seen (with calibration on, effectively the frozen
model). run_continual is train_pool, then checkpoint_matrix.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..backbone import DualEncoder, encode
from ..errors import ConfigError, ContractError, DivergenceError
from ..learner import (
    AdapterMode,
    AdapterSet,
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

# Most tasks one lockstep group trains. Training speed stops improving at
# four or five tasks, while every task past four adds about 2 MiB to the
# peak memory of a 320-row task's training; five trains the five tasks of
# configs/default.cfg as one group. See README's "Training cost".
MAX_GROUP = 5


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


def _groups(stream: list[Task]) -> Iterator[tuple[int, list[Task]]]:
    """Runs of at most MAX_GROUP consecutive tasks of one shape, with their first index."""
    first = 0
    for i in range(1, len(stream) + 1):
        if i == len(stream) or i - first == MAX_GROUP or _shape(stream[i]) != _shape(stream[first]):
            yield first, stream[first:i]
            first = i


def _shape(task: Task) -> tuple:
    return task.train_ids.shape, task.class_templates.shape


def _train_group(
    group: list[Task], first: int, enc: DualEncoder, cfg: TrainConfig, mode: AdapterMode
) -> list[AdapterSet]:
    """Train stream tasks first, first + 1, ... in lockstep, task i on make_rng(cfg.seed, 23, i)."""
    try:
        return train_task(
            np.stack([task.train_ids for task in group]),
            np.stack([task.train_labels for task in group]),
            np.stack([task.class_templates for task in group]),
            enc,
            cfg,
            [make_rng(cfg.seed, 23, first + j) for j in range(len(group))],
            mode,
        )
    except DivergenceError as exc:
        # Trained alone, an earlier task of the group could diverge later
        # than exc.step and would fail the run first: train those again.
        if exc.task > 0:
            _train_group(group[: exc.task], first, enc, cfg, mode)
        raise DivergenceError(exc.step, first + exc.task) from None


def train_pool(stream: list[Task], enc: DualEncoder, cfg: TrainConfig, mode: str = "iki") -> TaskPool:
    """Learn the stream's tasks in order without evaluating; returns the final pool."""
    adapter_mode = AdapterMode.parse(mode)
    if not stream:
        raise ConfigError("empty task stream")
    pool = TaskPool(entries=[], kind=adapter_mode.mechanism)
    for first, group in _groups(stream):
        # Statistics first, on the frozen encoder; training cannot bias them.
        gaussians = [estimate_task_stats(task.train_ids, enc, cfg.ridge) for task in group]
        pool.entries += map(PoolEntry, _train_group(group, first, enc, cfg, adapter_mode), gaussians)
    return pool


def checkpoint_matrix(
    stream: list[Task], pool: TaskPool, enc: DualEncoder, calibrate: bool = True, logit_scale: float = 100.0
) -> np.ndarray:
    """Accuracy matrix of a pool trained on stream: [i, j] is task j at checkpoint i.

    Checkpoint i is the pool's first i + 1 entries. Each task's column runs
    through one InferState, which scores only the entries each checkpoint
    adds and re-classifies only the samples they take over; it is dropped
    when its column is done.
    """
    n = len(stream)
    checkpoints = [TaskPool(pool.entries[: i + 1], pool.kind) for i in range(n)]
    matrix = np.zeros((n, n))
    for j, task in enumerate(stream):
        state = InferState()
        for i, checkpoint in enumerate(checkpoints):
            matrix[i, j] = evaluate_task(task, checkpoint, enc, calibrate, logit_scale, state)
    return matrix


def run_continual(
    stream: list[Task], enc: DualEncoder, cfg: TrainConfig, calibrate: bool = True, mode: str = "iki"
) -> tuple[np.ndarray, TaskPool]:
    """Train the stream in order, then evaluate every checkpoint; returns (accuracy matrix, final pool)."""
    pool = train_pool(stream, enc, cfg, mode)
    return checkpoint_matrix(stream, pool, enc, calibrate, cfg.logit_scale), pool


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
