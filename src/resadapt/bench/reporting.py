"""CSV emission for accuracy grids and metric summaries.

grid.csv    header trained_task,eval_task,accuracy; one row per matrix cell
            in row-major order.
summary.csv header metric,task,value; transfer rows first (omitted entirely
            when N < 2), then avg, then last; each block lists per-task rows
            followed by one `aggregate` row.

All values are printed with exactly six fraction digits, so identical
matrices produce byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import ShapeError
from .metrics import check_accuracies, check_matrix, metric_avg, metric_last, metric_transfer

GRID_HEADER = "trained_task,eval_task,accuracy"
SUMMARY_HEADER = "metric,task,value"


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def write_csv(matrix: np.ndarray, out_dir: str | Path) -> tuple[Path, Path]:
    """Write grid.csv and summary.csv under out_dir; returns their paths."""
    p = check_matrix(matrix)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n = p.shape[0]
    grid_lines = [GRID_HEADER]
    for i in range(n):
        for j in range(n):
            grid_lines.append(f"{i},{j},{_fmt(p[i, j])}")
    grid_path = out / "grid.csv"
    grid_path.write_text("\n".join(grid_lines) + "\n")

    summary_lines = [SUMMARY_HEADER]
    if n >= 2:
        per_task, agg = metric_transfer(p)
        for j, v in enumerate(per_task, start=1):
            summary_lines.append(f"transfer,{j},{_fmt(v)}")
        summary_lines.append(f"transfer,aggregate,{_fmt(agg)}")
    per_task, agg = metric_avg(p)
    for j, v in enumerate(per_task):
        summary_lines.append(f"avg,{j},{_fmt(v)}")
    summary_lines.append(f"avg,aggregate,{_fmt(agg)}")
    per_task, agg = metric_last(p)
    for j, v in enumerate(per_task):
        summary_lines.append(f"last,{j},{_fmt(v)}")
    summary_lines.append(f"last,aggregate,{_fmt(agg)}")
    summary_path = out / "summary.csv"
    summary_path.write_text("\n".join(summary_lines) + "\n")
    return grid_path, summary_path


def write_eval_csv(
    accuracies: list[float], trained_task: int, out_dir: str | Path
) -> tuple[Path, Path]:
    """Single-checkpoint evaluation: grid rows for one trained_task index
    plus a summary holding only `last` rows."""
    accs = check_accuracies(accuracies)
    if accs.ndim != 1 or accs.size < 1:
        raise ShapeError(f"accuracies must be a non-empty list, got shape {accs.shape}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid_lines = [GRID_HEADER]
    for j, v in enumerate(accs):
        grid_lines.append(f"{trained_task},{j},{_fmt(v)}")
    grid_path = out / "grid.csv"
    grid_path.write_text("\n".join(grid_lines) + "\n")
    summary_lines = [SUMMARY_HEADER]
    for j, v in enumerate(accs):
        summary_lines.append(f"last,{j},{_fmt(v)}")
    summary_lines.append(f"last,aggregate,{_fmt(float(np.mean(accs)))}")
    summary_path = out / "summary.csv"
    summary_path.write_text("\n".join(summary_lines) + "\n")
    return grid_path, summary_path
