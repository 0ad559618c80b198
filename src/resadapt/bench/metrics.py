"""Continual-learning metrics over an accuracy matrix.

p[i][j] = accuracy on task j's test split after training tasks 0..i, with
0-based indices. Three summaries:

  transfer[j] = mean of p[i][j] over i < j   (accuracy before training j,
                defined for j >= 1; measures preserved zero-shot ability)
  avg[j]      = mean of p[i][j] over all i   (whole-run average)
  last[j]     = p[N-1][j]                    (accuracy at the very end)

Aggregates are plain means of the per-task values. All functions are pure;
they never mutate the matrix.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError, ShapeError


def check_accuracies(p) -> np.ndarray:
    """p as float64, every entry in [0, 1]; NaN fails the test."""
    p = np.asarray(p, dtype=np.float64)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ContractError("accuracies must lie in [0, 1]")
    return p


def check_matrix(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] < 1:
        raise ShapeError(f"accuracy matrix must be square and non-empty, got {p.shape}")
    return check_accuracies(p)


def metric_transfer(p: np.ndarray) -> tuple[list[float], float]:
    """Per-task transfer for tasks 1..N-1 and their mean. Needs N >= 2."""
    p = check_matrix(p)
    n = p.shape[0]
    if n < 2:
        raise ContractError("transfer needs at least two tasks")
    per_task = [float(p[:j, j].mean()) for j in range(1, n)]
    return per_task, float(np.mean(per_task))


def metric_avg(p: np.ndarray) -> tuple[list[float], float]:
    """Column means (every task, all checkpoints) and their mean."""
    p = check_matrix(p)
    per_task = [float(p[:, j].mean()) for j in range(p.shape[0])]
    return per_task, float(np.mean(per_task))


def metric_last(p: np.ndarray) -> tuple[list[float], float]:
    """Final row and its mean."""
    p = check_matrix(p)
    per_task = [float(v) for v in p[-1, :]]
    return per_task, float(np.mean(per_task))
