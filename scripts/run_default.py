#!/usr/bin/env python3
"""Full incremental run with calibrated adapters; prints the accuracy
matrix, the three summary metrics, and the zero-shot / assignment checks
that situate them. Writes the usual CSV pair when --out is given."""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from resadapt.bench.config import load_config
from resadapt.bench.continual import assignment_accuracy, run_continual, zero_shot_sweep
from resadapt.bench.metrics import metric_avg, metric_last, metric_transfer
from resadapt.bench.reporting import write_csv
from resadapt.bench.stream import gen_stream


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default="configs/default.cfg")
    ap.add_argument("--mode", default="iki", help="iki | prepend | iki-ablation:B")
    ap.add_argument("--calibrate", choices=("on", "off"), default="on")
    ap.add_argument("--out", type=Path, default=None, help="optional CSV directory")
    args = ap.parse_args()

    cfg = load_config(args.config)
    enc = cfg.encoder.build()
    stream = gen_stream(cfg.stream)

    t0 = time.monotonic()
    matrix, pool = run_continual(
        stream, enc, cfg.train, calibrate=args.calibrate == "on", mode=args.mode
    )
    elapsed = time.monotonic() - t0

    np.set_printoptions(precision=4, suppress=True)
    print(f"accuracy matrix (row = tasks trained so far, col = evaluated task):")
    print(matrix)
    t_per, t_agg = metric_transfer(matrix)
    a_per, a_agg = metric_avg(matrix)
    l_per, l_agg = metric_last(matrix)
    print(f"\ntransfer per task: {[f'{v:.4f}' for v in t_per]}  aggregate {t_agg:.4f}")
    print(f"avg      per task: {[f'{v:.4f}' for v in a_per]}  aggregate {a_agg:.4f}")
    print(f"last     per task: {[f'{v:.4f}' for v in l_per]}  aggregate {l_agg:.4f}")

    zs = zero_shot_sweep(stream, enc)
    print(f"\nzero-shot per task: {[f'{v:.4f}' for v in zs]}")
    print(f"zero-shot over tasks 1..N-1: {np.mean(zs[1:]):.4f} (compare to transfer)")
    print(f"task-assignment accuracy: {assignment_accuracy(stream, pool, enc):.4f}")
    print(f"wall time: {elapsed:.1f}s")

    if args.out is not None:
        grid, summary = write_csv(matrix, args.out)
        print(f"wrote {grid} and {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
