#!/usr/bin/env python3
"""Three-arm comparison on one stream: calibrated zero-init adapters,
the same adapters with the gate held open (w = 1 everywhere), and
random-init adapters without the gate. Shows that calibration recovers
zero-shot transfer and that zero initialization is what protects the
frozen model when the gate is open."""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from resadapt.bench.config import load_config
from resadapt.bench.continual import run_continual, zero_shot_sweep
from resadapt.bench.metrics import metric_avg, metric_last, metric_transfer
from resadapt.bench.stream import gen_stream

ARMS = [
    ("calibrated", "iki", True),
    ("gate open (w=1)", "iki", False),
    ("random init, gate open", "iki-ablation:1.0", False),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default="configs/default.cfg")
    args = ap.parse_args()

    cfg = load_config(args.config)
    enc = cfg.encoder.build()
    stream = gen_stream(cfg.stream)
    zs = zero_shot_sweep(stream, enc)

    print(f"{'arm':<26} {'transfer':>9} {'avg':>9} {'last':>9} {'secs':>6}")
    for label, mode, calibrate in ARMS:
        t0 = time.monotonic()
        matrix, _ = run_continual(stream, enc, cfg.train, calibrate=calibrate, mode=mode)
        elapsed = time.monotonic() - t0
        _, transfer = metric_transfer(matrix)
        _, avg = metric_avg(matrix)
        _, last = metric_last(matrix)
        print(f"{label:<26} {transfer:>9.4f} {avg:>9.4f} {last:>9.4f} {elapsed:>6.1f}")
    print(f"{'frozen zero-shot':<26} {np.mean(zs[1:]):>9.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
