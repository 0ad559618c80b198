"""Command-line entry point.

Subcommands: gen-tasks, train, eval, run, verify. Exit codes: 0 success,
1 verification failure, 2 usage/config/I-O error. The CLI touches nothing
but its stated inputs and outputs; no environment variables are read.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from ..backbone import EncoderSpec
from ..errors import ConfigError, ContractError, DivergenceError, ShapeError
from ..learner import AdapterMode, TaskPool
from ..pool_io import load_pool, save_pool
from .config import load_config
from .continual import evaluate_task, run_continual
from .reporting import write_csv, write_eval_csv
from .stream import StreamSpec, gen_stream, load_stream, save_stream
from .verify import SUITES, run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resadapt",
        description="Continual-learning lab for calibrated residual attention adapters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-tasks", help="generate a synthetic task stream")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tasks", type=int, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seq-len", type=int, default=8)
    p.add_argument("--vocab", type=int, default=256)
    p.add_argument("--domain-shift", type=float, default=1.0)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("train", help="train through a stored stream, write the pool")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--tasks", type=Path, required=True, help="directory holding stream.json")
    p.add_argument("--mode", default="iki", help="iki | prepend | iki-ablation:B")
    p.add_argument("--out", type=Path, required=True, help="pool file to write")

    p = sub.add_parser("eval", help="evaluate a stored pool on a stored stream")
    p.add_argument("--pool", type=Path, required=True)
    p.add_argument("--tasks", type=Path, required=True)
    p.add_argument("--calibrate", choices=("on", "off"), default="on")
    p.add_argument("--mode", default="iki", help="iki | prepend | iki-ablation:B")
    p.add_argument("--out", type=Path, required=True, help="directory for CSV output")

    p = sub.add_parser("run", help="generate, train, and evaluate end to end")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--calibrate", choices=("on", "off"), default="on")
    p.add_argument("--mode", default="iki", help="iki | prepend | iki-ablation:B")
    p.add_argument("--out", type=Path, required=True, help="directory for all outputs")

    p = sub.add_parser("verify", help="run numerical verification suites")
    p.add_argument("--suite", choices=tuple(SUITES) + ("all",), required=True)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _load_stream_dir(tasks_dir: Path):
    stream_file = tasks_dir / "stream.json"
    if not stream_file.is_file():
        raise ConfigError(f"no stream.json under {tasks_dir}")
    return load_stream(stream_file)


def _cmd_gen_tasks(args) -> int:
    spec = StreamSpec(
        num_tasks=args.tasks,
        classes_per_task=args.classes,
        samples_per_class=args.samples,
        seq_len=args.seq_len,
        vocab=args.vocab,
        domain_shift=args.domain_shift,
        seed=args.seed,
    )
    stream = gen_stream(spec)
    args.out.mkdir(parents=True, exist_ok=True)
    save_stream(spec, stream, args.out / "stream.json")
    n = sum(len(t.train_labels) + len(t.test_labels) for t in stream)
    print(f"wrote {args.out / 'stream.json'}: {spec.num_tasks} tasks, {n} samples")
    return 0


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    spec, stream = _load_stream_dir(args.tasks)
    enc_spec = EncoderSpec(
        vocab=spec.vocab,
        d=cfg.backbone.embed_dim,
        depth=cfg.backbone.depth,
        seed=cfg.backbone.backbone_seed,
    )
    _, pool = run_continual(stream, enc_spec.build(), cfg.train, calibrate=True, mode=args.mode)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    save_pool(pool, args.out, enc_spec)
    print(f"wrote {args.out}: {len(pool)} task entries ({pool.kind})")
    return 0


def _check_mode_compat(pool: TaskPool, mode_text: str) -> None:
    mode = AdapterMode.parse(mode_text)
    if mode.mechanism != pool.kind:
        raise ConfigError(
            f"mode {mode_text!r} needs a {mode.mechanism} pool, file holds {pool.kind}"
        )


def _cmd_eval(args) -> int:
    pool, enc_spec = load_pool(args.pool)
    _check_mode_compat(pool, args.mode)
    if len(pool) == 0:
        raise ConfigError("pool file holds no task entries")
    spec, stream = _load_stream_dir(args.tasks)
    if spec.vocab != enc_spec.vocab:
        raise ConfigError(
            f"stream vocab {spec.vocab} does not match pool encoder vocab {enc_spec.vocab}"
        )
    enc = enc_spec.build()
    calibrate = args.calibrate == "on"
    accs = [evaluate_task(task, pool, enc, calibrate) for task in stream]
    write_eval_csv(accs, trained_task=len(pool) - 1, out_dir=args.out)
    for j, a in enumerate(accs):
        print(f"task {j}: accuracy {a:.6f}")
    return 0


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    stream = gen_stream(cfg.stream)
    enc_spec = EncoderSpec(
        vocab=cfg.stream.vocab,
        d=cfg.backbone.embed_dim,
        depth=cfg.backbone.depth,
        seed=cfg.backbone.backbone_seed,
    )
    calibrate = args.calibrate == "on"
    matrix, pool = run_continual(stream, enc_spec.build(), cfg.train, calibrate, args.mode)
    args.out.mkdir(parents=True, exist_ok=True)
    save_stream(cfg.stream, stream, args.out / "stream.json")
    save_pool(pool, args.out / "pool.json", enc_spec)
    grid_path, summary_path = write_csv(matrix, args.out)
    print(f"wrote {grid_path} and {summary_path}")
    print(summary_path.read_text(), end="")
    return 0


def _cmd_verify(args) -> int:
    reports = run_suite(args.suite, seed=args.seed)
    all_ok = True
    for r in reports:
        for line in r.lines:
            print(f"[{r.suite}] {line}")
        print(f"[{r.suite}] {'PASS' if r.passed else 'FAIL'} in {r.elapsed:.2f}s")
        all_ok = all_ok and r.passed
    return 0 if all_ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen-tasks": _cmd_gen_tasks,
        "train": _cmd_train,
        "eval": _cmd_eval,
        "run": _cmd_run,
        "verify": _cmd_verify,
    }
    try:
        # Overflow is reported once, by the explicit checks: DivergenceError
        # for a non-finite loss, ContractError for non-finite features.
        with np.errstate(over="ignore", invalid="ignore"):
            return handlers[args.command](args)
    except (ConfigError, ContractError, ShapeError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
