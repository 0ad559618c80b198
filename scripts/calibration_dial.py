#!/usr/bin/env python3
"""Manual residual-weight dial after training only the first task.

Pins w by hand (no selection, no sigmoid) and reports accuracy on the
trained task and on the average unseen task at each setting. Trained-task
accuracy should rise with w while unseen-task accuracy falls, which is the
tension the automatic calibration gate resolves per sample."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from resadapt.bench.config import load_config
from resadapt.bench.continual import manual_weight_sweep, run_continual
from resadapt.bench.stream import gen_stream

WEIGHTS = [0.0, 0.25, 0.5, 0.75, 1.0]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default="configs/default.cfg")
    args = ap.parse_args()

    cfg = load_config(args.config)
    enc = cfg.encoder.build()
    stream = gen_stream(cfg.stream)
    if len(stream) < 2:
        print("need at least two tasks to contrast trained vs unseen", file=sys.stderr)
        return 2

    _, pool = run_continual(stream[:1], enc, cfg.train)
    entry = pool.entries[0]

    trained = manual_weight_sweep(stream[0], entry, enc, WEIGHTS)
    unseen = {w: 0.0 for w in WEIGHTS}
    for task in stream[1:]:
        sweep = manual_weight_sweep(task, entry, enc, WEIGHTS)
        for w in WEIGHTS:
            unseen[w] += sweep[w] / (len(stream) - 1)

    print(f"{'w':>6} {'trained task':>13} {'unseen tasks':>13}")
    for w in WEIGHTS:
        print(f"{w:>6.2f} {trained[w]:>13.4f} {unseen[w]:>13.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
