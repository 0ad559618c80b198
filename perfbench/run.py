#!/usr/bin/env python3
"""resadapt benchmark: the `resadapt run` loop, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload default --seed 0 --seconds 40 --trace 0

One process runs one workload as a closed loop: one full run at a time, no
extra threads, BLAS pinned to one thread. A full run ("pass") makes the
same calls as `resadapt run`: run_continual over the generated stream, then
save_stream, save_pool and write_csv into a scratch directory. It then
reloads the written pool and evaluates the final checkpoint on every task
the way `resadapt eval` does. Passes repeat while the next one would still
end within --seconds (at least three, unless --seconds has run out first).

The seed is the stream seed: it generates the task stream (the inputs). The
backbone and training seeds stay those of configs/default.cfg, so seed 0 on
`default` reproduces `resadapt run --config configs/default.cfg` byte for
byte.

--trace 0 measures the end-to-end metrics with only a phase clock installed
(spans on run_continual, estimate_task_stats, train_task, evaluate_task).
--trace 1 alternates untraced and fully traced passes; the traced ones give
the per-layer split (tracer.py), then a fixed-shape op probe gives µs per
call. Metric names and units come from BENCHMARK.json; workloads and their
predictions from workloads.json. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

A pass fails when its accuracy matrix is not finite or leaves [0, 1], when
the reloaded pool's final-checkpoint accuracies differ from the matrix's last
row, when its grid.csv/summary.csv bytes differ from the first pass's, when
a traced count differs from the first traced pass's, when any Python warning
is raised, or when it raises.
"""

import os

# Pinned before numpy loads; recorded with every result.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import dataclasses
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
SETUP_REPS = 9
# Reloads per untraced pass, timed as one block and averaged: one reload
# (0.1-0.3 s) is short enough to land wholly in a fast or a slow spell of a
# shared host, three in a row average over such spells.
RELOAD_REPS = 3
PROBE_REPS = 100
# Probe shapes: a training batch of 32 sequences through a width-32 layer.
PROBE_BATCH = 32
# The gate is on, as in `resadapt run` without --calibrate.
CALIBRATE = True


def _fail(msg: str, code: int = 2) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


try:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import scipy

    import resadapt.attention as attention
    import resadapt.backbone as backbone
    import resadapt.bench.continual as continual
    import resadapt.bench.metrics as metrics_mod
    import resadapt.bench.reporting as reporting
    import resadapt.bench.stream as stream_mod
    import resadapt.learner as learner
    import resadapt.pool_io as pool_io
    import resadapt.taskdist as taskdist
    from resadapt.bench.config import load_config
    from resadapt.errors import ConfigError
    from tracer import EVAL, LAYER_TARGETS, PHASE_TARGETS, TRAIN, Tracer
except ImportError as exc:
    _fail(f"cannot import the program under test: {exc}")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    stream: "stream_mod.StreamSpec"
    train: "learner.TrainConfig"
    encoder: "backbone.EncoderSpec"
    overrides: dict


@dataclasses.dataclass
class Pass:
    traced: bool
    problems: list
    run_s: float = 0.0
    reload_eval_s: float = 0.0
    train_s: float = 0.0
    eval_s: float = 0.0
    digest: str = ""
    matrix: object = None
    pool: object = None
    layer: dict | None = None
    eval_call_s: list | None = None


def load_workload(name: str, seed: int) -> Workload:
    table = json.loads((HERE / "workloads.json").read_text())
    if name not in table["workloads"]:
        _fail(f"unknown workload {name!r}; choose from {sorted(table['workloads'])}")
    w = table["workloads"][name]
    cfg = load_config(ROOT / table["config"])
    spec = dataclasses.replace(cfg.stream, **w["overrides"], seed=seed)
    enc = backbone.EncoderSpec(
        vocab=spec.vocab, d=cfg.backbone.embed_dim, depth=cfg.backbone.depth,
        seed=cfg.backbone.backbone_seed,
    )
    return Workload(name, w["mode"], spec, cfg.train, enc, w["overrides"])


def run_pass(wl: Workload, stream, enc, out_dir: Path, tracer: Tracer, traced: bool) -> Pass:
    tracer.reset()
    p = Pass(traced=traced, problems=[])
    try:
        with warnings.catch_warnings(record=True) as caught, tracer.installed():
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            matrix, pool = continual.run_continual(stream, enc, wl.train, CALIBRATE, wl.mode)
            stream_mod.save_stream(wl.stream, stream, out_dir / "stream.json")
            pool_io.save_pool(pool, out_dir / "pool.json", wl.encoder)
            grid, summary = reporting.write_csv(matrix, out_dir)
            t1 = time.perf_counter()
            finals = []
            for _ in range(1 if traced else RELOAD_REPS):
                loaded, spec = pool_io.load_pool(out_dir / "pool.json")
                enc2 = spec.build()
                finals.append([
                    continual.evaluate_task(t, loaded, enc2, CALIBRATE, wl.train.logit_scale)
                    for t in stream
                ])
            t2 = time.perf_counter()
    except Exception:  # one failed pass is counted, the loop goes on
        p.problems.append(traceback.format_exc().strip().splitlines()[-1])
        traceback.print_exc(file=sys.stderr)
        return p
    p.run_s, p.reload_eval_s = t1 - t0, (t2 - t1) / len(finals)
    p.train_s, p.eval_s = tracer.phase_s[TRAIN], tracer.phase_s[EVAL]
    p.eval_call_s = list(tracer.durations[EVAL][: len(stream) ** 2])
    p.matrix, p.pool = matrix, pool
    p.digest = hashlib.sha256(grid.read_bytes() + summary.read_bytes()).hexdigest()
    if not np.all(np.isfinite(matrix)) or np.any(matrix < 0.0) or np.any(matrix > 1.0):
        p.problems.append("accuracy matrix not finite or outside [0, 1]")
    if any(final != [float(v) for v in matrix[-1]] for final in finals):
        p.problems.append("reloaded pool's final-checkpoint accuracies differ from the matrix")
    for w in caught:
        p.problems.append(f"warning {w.category.__name__}: {w.message}")
    if traced:
        p.layer = layer_values(tracer, out_dir)
    return p


def _is_count(key: str) -> bool:
    return key.endswith((".calls", ".rows", ".steps", ".bytes", "_per_sample"))


def layer_values(tr: Tracer, out_dir: Path) -> dict:
    """Every per-layer value one traced pass yields (a superset of BENCHMARK.json)."""
    out = {}
    for t in LAYER_TARGETS:
        n = t.span
        out[f"{n}.calls"] = tr.calls[n]
        out[f"{n}.s"] = tr.total(n)
        out[f"{n}.self_s"] = tr.self_s[n]
        if t.rows is not None:
            out[f"{n}.rows"] = tr.rows[n]
    # Whichever adapter branch the workload trains, so no time reads 0.
    for kind, fwd in (("fwd", "attn_with_cache"), ("bwd", "attn_backward")):
        for part in ("s", "self_s"):
            out[f"attention.adapter_{kind}.{part}"] = sum(
                out[f"attention.{branch}_{fwd}.{part}"] for branch in ("residual", "prepend")
            )
    out["learner.train_task.steps"] = tr.counters["learner.train_task.steps"]
    out["continual.stats_s"] = tr.phase_s["learner.estimate_task_stats"]
    out["continual.train_s"] = tr.phase_s[TRAIN]
    out["continual.eval_s"] = tr.phase_s[EVAL]
    samples = tr.counters["continual.eval.samples"]
    for kind in ("image", "text", "logdensity"):
        out[f"continual.eval.{kind}_rows_per_sample"] = (
            tr.counters[f"continual.eval.{kind}_rows"] / samples
        )
    out["pool_io.save_pool.bytes"] = (out_dir / "pool.json").stat().st_size
    out["stream.save_stream.bytes"] = (out_dir / "stream.json").stat().st_size
    return out


def op_probe(wl: Workload, stream, enc, pool) -> dict:
    """µs per call of each aim-1 layer op on fixed shapes, from traced spans.

    Shapes: a (32, 8, 32) batch from task 0's training split, the first
    image layer, 4 adapter/prompt rows, 4 class templates. Log-density, gate
    and infer_batch use the pass's final pool, so they scale with its size.
    """
    rng = np.random.default_rng(12345)
    task = stream[0]
    ids = task.train_ids[:PROBE_BATCH]
    layer = enc.image.layers[0]
    x = enc.image.embed[ids]
    d_out = rng.normal(size=x.shape)
    bound = wl.train.k_bound
    adapter = attention.init_adapter_ablation(wl.train.prompt_len, x.shape[-1], bound, rng)
    prompt = attention.PromptBaseline(p=rng.uniform(-bound, bound, (wl.train.prompt_len, x.shape[-1])))
    logit_rows = wl.train.logit_scale * rng.uniform(-1.0, 1.0, (PROBE_BATCH, len(task.class_templates)))
    labels = task.train_labels[:PROBE_BATCH]
    gaussian = pool.entries[0].gaussian

    tr = Tracer()
    with tr.installed():
        feats = backbone.encode(ids, enc.image)
        s_hat = taskdist.log_density_batch(gaussian, feats)
        _, r_cache = attention.residual_attn_with_cache(x, layer, adapter, 1.0)
        _, p_cache = attention.prepend_attn_with_cache(x, layer, prompt)
        ops = (
            ("op.frozen_attn_us", "attention.frozen_attn_with_cache",
             lambda: attention.frozen_attn_with_cache(x, layer)),
            ("op.residual_fwd_us", "attention.residual_attn_with_cache",
             lambda: attention.residual_attn_with_cache(x, layer, adapter, 1.0)),
            ("op.residual_bwd_us", "attention.residual_attn_backward",
             lambda: attention.residual_attn_backward(r_cache, d_out)),
            ("op.prepend_fwd_us", "attention.prepend_attn_with_cache",
             lambda: attention.prepend_attn_with_cache(x, layer, prompt)),
            ("op.prepend_bwd_us", "attention.prepend_attn_backward",
             lambda: attention.prepend_attn_backward(p_cache, d_out)),
            ("op.encode_us", "backbone.encode", lambda: backbone.encode(ids, enc.image)),
            ("op.loss_us", "learner.batch_cross_entropy",
             lambda: learner.batch_cross_entropy(logit_rows, labels)),
            ("op.logdensity_us", "taskdist.log_density_batch",
             lambda: taskdist.log_density_batch(gaussian, feats)),
            ("op.gate_us", "taskdist.calibration_weight_batch",
             lambda: taskdist.calibration_weight_batch(s_hat)),
            ("op.infer_batch_us", "learner.infer_batch",
             lambda: learner.infer_batch(ids, pool, task.class_templates, enc, CALIBRATE,
                                         wl.train.logit_scale)),
        )
        out = {}
        for metric, span, call in ops:
            call()
            tr.reset()
            for _ in range(PROBE_REPS):
                call()
            out[metric] = statistics.median(tr.durations[span]) * 1e6
    return out


def tail(samples: list) -> str:
    """Median, the highest percentile with >= 10 samples beyond it, and n."""
    n = len(samples)
    med = statistics.median(samples)
    text = f"median {med:.6g}"
    if n >= 20:
        q = int(100 * (1 - 10 / n))
        val = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
        text += f"  p{q} {val:.6g}"
    return text + f"  n={n}"


def env_info(seed: int) -> dict:
    def blas(cfg):
        try:
            b = cfg(mode="dicts")["Build Dependencies"]["blas"]
            return f"{b['name']} {b['version']}"
        except (TypeError, KeyError):
            return "unknown"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy_blas": blas(scipy.show_config),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
    }


def measure(wl: Workload, stream, enc, out_dir: Path, deadline: float, trace: bool):
    """Passes until the deadline would be passed: untraced only, or alternating
    untraced/traced when tracing. Returns (untraced, traced) pass lists."""
    # Warm-up on a two-task prefix so lazy imports and allocator growth are
    # not charged to the first timed pass.
    continual.run_continual(stream[:2], enc, wl.train, CALIBRATE, wl.mode)
    clock, full = Tracer(PHASE_TARGETS), Tracer(LAYER_TARGETS)
    plain, traced = [], []
    while True:
        t0 = time.perf_counter()
        plain.append(run_pass(wl, stream, enc, out_dir, clock, traced=False))
        if trace:
            traced.append(run_pass(wl, stream, enc, out_dir, full, traced=True))
        now = time.perf_counter()
        done = len(plain) >= (1 if trace else MIN_PASSES)
        if now > deadline or (done and 2 * now - t0 > deadline):
            return plain, traced


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        _fail("--seed must be >= 0 and --seconds > 0")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        wl = load_workload(args.workload, args.seed)
    except ConfigError as exc:
        _fail(f"bad workload config: {exc}")

    print(f"resadapt benchmark  workload={wl.name} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print("env " + json.dumps(env_info(args.seed)))
    print(f"workload {wl.name}: mode={wl.mode} calibrate={CALIBRATE} "
          f"overrides={json.dumps(wl.overrides)} {wl.stream}")

    # Set-up counts against --seconds, so a run lasts about --seconds.
    deadline = time.perf_counter() + args.seconds
    setup_s = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        stream, enc = stream_mod.gen_stream(wl.stream), wl.encoder.build()
        setup_s.append(time.perf_counter() - t0)

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
    try:
        plain, traced = measure(wl, stream, enc, out_dir, deadline, bool(args.trace))
        good = [p for p in plain + traced if not p.problems]
        if not good:
            _fail("every pass failed", code=1)
        ref = good[0].digest
        for p in plain + traced:
            if p.digest and p.digest != ref:
                p.problems.append("grid.csv/summary.csv bytes differ from the first pass")
        counts = next((p.layer for p in traced if not p.problems), None)
        for p in traced:
            if p.layer is not None and counts is not None:
                differ = [k for k in counts if _is_count(k) and p.layer[k] != counts[k]]
                if differ:
                    p.problems.append(f"counts differ between traced passes: {differ}")
        probe = op_probe(wl, stream, enc, good[0].pool) if args.trace else {}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = plain + traced
    failed = sum(1 for p in passes if p.problems)
    for i, p in enumerate(passes):
        for problem in p.problems:
            print(f"pass {i} ({'traced' if p.traced else 'untraced'}) FAILED: {problem}")
    ok_plain = [p for p in plain if not p.problems]
    ok_traced = [p for p in traced if not p.problems]
    if not ok_plain or (args.trace and not ok_traced):
        _fail("no successful pass of a required kind", code=1)

    train_samples = sum(len(t.train_labels) for t in stream) * wl.train.epochs
    eval_samples = len(stream) * sum(len(t.test_labels) for t in stream)
    m = ok_plain[0].matrix
    p_run = [p.run_s for p in ok_plain]
    timings = {
        "setup_s": setup_s,
        "run_s": p_run,
        "train_sps": [train_samples / p.train_s for p in ok_plain],
        "eval_sps": [eval_samples / p.eval_s for p in ok_plain],
        "reload_eval_s": [p.reload_eval_s for p in ok_plain],
    }
    e2e = {k: statistics.median(v) for k, v in timings.items()}
    e2e["peak_rss_mb"] = peak_rss_mb
    e2e["acc_last"] = metrics_mod.metric_last(m)[1]
    e2e["acc_avg"] = metrics_mod.metric_avg(m)[1]
    e2e["acc_transfer"] = metrics_mod.metric_transfer(m)[1]

    print(f"digest sha256(grid.csv+summary.csv) {wl.name} seed={args.seed}: {ref}")
    print(f"passes attempted={len(passes)} failed={failed} fail_frac={failed / len(passes):.6f}")
    print(f"train samples x epochs per pass={train_samples}  eval samples per pass={eval_samples}")
    units = {d["name"]: d["unit"] for d in bench["end_to_end"] + bench["per_layer"]}
    for name, value in e2e.items():
        detail = tail(timings[name]) if name in timings else "deterministic" if name.startswith("acc_") else ""
        print(f"  {name:<16} {value:>14.6f} {units.get(name, ''):<10} {detail}")
    print("  run_s per pass: " + " ".join(f"{v:.4f}" for v in p_run))
    calls = [s for p in ok_plain for s in p.eval_call_s]
    print(f"  {'evaluate_task':<16} per call (s): {tail(calls)}")

    if args.trace:
        first = ok_traced[0].layer
        layer = {
            key: first[key] if _is_count(key) else statistics.median(p.layer[key] for p in ok_traced)
            for key in first
        }
        layer.update(probe)
        traced_run = statistics.median(p.run_s for p in ok_traced)
        layer["trace.overhead_s"] = traced_run - e2e["run_s"]
        print(f"traced run_s {traced_run:.6f} untraced run_s {e2e['run_s']:.6f} "
              f"overhead {layer['trace.overhead_s']:.6f} s over {len(ok_traced)} traced passes")
        for key in sorted(layer):
            print(f"  {key:<48} {layer[key]:>16.6f}")
        wanted, source = bench["per_layer"], layer
    else:
        wanted, source = bench["end_to_end"], e2e

    missing = [d["name"] for d in wanted if d["name"] not in source]
    if missing:
        _fail(f"metrics not produced: {missing}", code=1)
    metrics = {d["name"]: {"value": float(source[d["name"]]), "unit": d["unit"]} for d in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": len(passes), "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
