"""The library surface the benchmark under perfbench/ relies on.

perfbench/tracer.py wraps every function in its LAYER_TARGETS by name, and
perfbench/run.py calls infer_batch and evaluate_task with positional
arguments, and its op probe (`--trace 1`) calls the layer ops on one
training batch. A library change that renames, deletes, reorders or
narrows any of these breaks the benchmark; these tests catch it in the
tier-1 suite, and do the same for the functions scripts/bench_snapshot.py
wraps. The tracer's hooks also read arguments: the row count of
encode_with_cache is the length of its first argument (in training, the
tasks of a lockstep group), and one batch_cross_entropy call counts one SGD
step of a group, so a traced run checks both. These tests only read
perfbench/ and scripts/, and compile tracer.py and bench_snapshot.py from
their source so no bytecode cache is written there.
"""

import functools
import importlib
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import resadapt.bench.continual as continual
from resadapt.bench.continual import MAX_GROUP
from resadapt import attention, backbone, learner, taskdist
from resadapt.backbone import EncoderSpec
from resadapt.bench.config import load_config
from resadapt.bench.continual import evaluate_task, run_continual
from resadapt.bench.stream import StreamSpec, gen_stream
from resadapt.learner import TrainConfig, infer_batch

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
SNAPSHOT = ROOT / "scripts" / "bench_snapshot.py"


@pytest.fixture(scope="module")
def tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    # dataclasses looks the defining module up in sys.modules.
    sys.modules[module.__name__] = module
    try:
        exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
        yield module
    finally:
        del sys.modules[module.__name__]


def test_every_layer_target_resolves(tracer):
    assert tracer.LAYER_TARGETS
    for target in tracer.LAYER_TARGETS:
        func = getattr(importlib.import_module(target.module), target.func, None)
        assert callable(func), f"{target.module}.{target.func}"


def test_every_snapshot_target_resolves(monkeypatch):
    # scripts/bench_snapshot.py wraps its EVAL_TARGETS by name. Its module
    # body runs from source (no bytecode, no main), and the OpenBLAS thread
    # pin it sets is undone afterwards.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    script = {"__name__": "bench_snapshot"}
    exec(compile(SNAPSHOT.read_text(), str(SNAPSHOT), "exec"), script)
    assert script["EVAL_TARGETS"]
    for module, name in script["EVAL_TARGETS"]:
        func = functools.reduce(getattr, name.split("."), importlib.import_module(module))
        assert callable(func), f"{module}.{name}"
    assert set(script["ROW_COUNTED"]) <= {name for _, name in script["EVAL_TARGETS"]}


def test_positional_calls_as_the_benchmark_makes_them(small_encoder):
    stream = gen_stream(
        StreamSpec(num_tasks=2, classes_per_task=2, samples_per_class=20, vocab=64)
    )
    cfg = TrainConfig(epochs=1, batch=16, prompt_len=4, adapter_depth=2)
    matrix, pool = run_continual(stream, small_encoder, cfg)
    task = stream[0]
    cls, tsk, wts = infer_batch(
        task.train_ids[:4], pool, task.class_templates, small_encoder, True, cfg.logit_scale
    )
    assert cls.shape == tsk.shape == wts.shape == (4,)
    finals = [evaluate_task(t, pool, small_encoder, True, cfg.logit_scale) for t in stream]
    assert finals == [float(v) for v in matrix[-1]]


@pytest.mark.parametrize("mode", ["iki", "prepend"])
def test_traced_run_counts_every_step(tracer, small_encoder, mode):
    # Tasks of one shape train in lockstep groups of up to MAX_GROUP: one
    # step, one batch_cross_entropy call, advances the whole group. The
    # tracer's row counters read an argument's leading axis, which in
    # training is the task axis: they count a group's tasks, not its rows.
    spec = StreamSpec(num_tasks=MAX_GROUP + 2, classes_per_task=2, samples_per_class=20, vocab=64)
    stream = gen_stream(spec)
    cfg = TrainConfig(epochs=2, batch=12, prompt_len=4, adapter_depth=2)
    tr = tracer.Tracer()
    with tr.installed():
        # Through the module, whose name the tracer has replaced.
        matrix, _ = continual.run_continual(stream, small_encoder, cfg, True, mode)
    assert matrix.shape == (spec.num_tasks, spec.num_tasks)
    n_train = len(stream[0].train_labels)
    groups = [MAX_GROUP, 2]
    steps = len(groups) * cfg.epochs * math.ceil(n_train / cfg.batch)
    assert tr.calls["learner.train_task"] == len(groups)
    assert tr.counters["learner.train_task.steps"] == steps
    assert tr.calls["learner.batch_cross_entropy"] == steps
    # Training encodes one image batch and the templates per step, each
    # (T, ...) for a group of T; every other encode_with_cache is encode's.
    train_calls = tr.calls["backbone.encode_with_cache"] - tr.calls["backbone.encode"]
    train_rows = tr.rows["backbone.encode_with_cache"] - tr.rows["backbone.encode"]
    assert train_calls == 2 * steps
    assert train_rows == 2 * cfg.epochs * math.ceil(n_train / cfg.batch) * sum(groups)
    assert tr.rows["learner.batch_cross_entropy"] == train_rows // 2
    # Each step runs one branch backward per layer per tower. Both branches
    # stop at layer 0 without its input gradient; a prompt's backward holds
    # its own frozen part, a residual one calls the frozen backward on layer
    # 1 only.
    branch = "prepend" if mode == "prepend" else "residual"
    other = "residual" if mode == "prepend" else "prepend"
    assert tr.calls[f"attention.{branch}_attn_backward"] == 4 * steps
    assert tr.calls[f"attention.{other}_attn_backward"] == 0
    frozen_per_step = 0 if mode == "prepend" else 2
    assert tr.calls["attention.frozen_attn_backward"] == frozen_per_step * steps


@pytest.mark.parametrize("mode", ["iki", "prepend"])
def test_traced_training_runs_one_forward_per_backward(tracer, small_encoder, mode):
    # Every lockstep step runs its branch's forward on each layer of each
    # tower, layer 0 over the group's kept frozen work included, so the
    # per-layer split sees every forward whose backward it counts. Layer 0's
    # frozen forward runs once per group over the training rows, in chunks
    # of ROW_CHUNK, and once over the templates; a residual step runs layer
    # 1's frozen forward in both towers. Statistics encode each task's rows
    # with the bare encoder in chunks of ROW_CHUNK, one frozen forward per
    # layer each. Tasks of 32 rows take one chunk, tasks of 160 two.
    for samples_per_class in (20, 100):
        spec = StreamSpec(num_tasks=MAX_GROUP + 2, classes_per_task=2,
                          samples_per_class=samples_per_class, vocab=64)
        stream = gen_stream(spec)
        cfg = TrainConfig(epochs=2, batch=12, prompt_len=4, adapter_depth=2)
        tr = tracer.Tracer()
        with tr.installed():
            continual.train_pool(stream, small_encoder, cfg, mode)
        n_train = len(stream[0].train_labels)
        groups = [MAX_GROUP, 2]
        steps = tr.counters["learner.train_task.steps"]
        assert steps == len(groups) * cfg.epochs * math.ceil(n_train / cfg.batch)
        branch = "prepend" if mode == "prepend" else "residual"
        other = "residual" if mode == "prepend" else "prepend"
        assert tr.calls[f"attention.{branch}_attn_with_cache"] == 4 * steps
        assert tr.calls[f"attention.{branch}_attn_backward"] == 4 * steps
        assert tr.calls[f"attention.{other}_attn_with_cache"] == 0
        stats = spec.num_tasks * math.ceil(n_train / learner.ROW_CHUNK)
        assert tr.calls["backbone.encode"] == stats
        assert tr.rows["backbone.encode"] == spec.num_tasks * n_train
        assert tr.calls["backbone.encode_with_cache"] == stats + 2 * steps
        per_group = sum(math.ceil(t * n_train / learner.ROW_CHUNK) + 1 for t in groups)
        frozen_per_step = 0 if mode == "prepend" else 2
        assert tr.calls["attention.frozen_attn_with_cache"] == (
            stats * small_encoder.image.depth + per_group + frozen_per_step * steps
        )


def test_op_probe_calls_on_its_shapes():
    # The calls perfbench/run.py's op_probe makes, on its shapes: the first
    # 32 training sequences of task 0 of configs/default.cfg, through the
    # first image layer.
    cfg = load_config(ROOT / "configs" / "default.cfg")
    task = gen_stream(cfg.stream)[0]
    enc = EncoderSpec(
        vocab=cfg.stream.vocab, d=cfg.backbone.embed_dim, depth=cfg.backbone.depth,
        seed=cfg.backbone.backbone_seed,
    ).build()
    rng = np.random.default_rng(12345)
    ids = task.train_ids[:32]
    layer = enc.image.layers[0]
    x = enc.image.embed[ids]
    b, seq_len, d = x.shape
    assert ids.shape == (b, seq_len) == (32, 8)
    d_out = rng.normal(size=x.shape)
    l, bound = cfg.train.prompt_len, cfg.train.k_bound
    adapter = attention.init_adapter_ablation(l, d, bound, rng)
    prompt = attention.PromptBaseline(p=rng.uniform(-bound, bound, (l, d)))
    out, _ = attention.frozen_attn_with_cache(x, layer)
    assert out.shape == x.shape
    out, r_cache = attention.residual_attn_with_cache(x, layer, adapter, 1.0)
    assert out.shape == x.shape
    d_x, d_k, d_v = attention.residual_attn_backward(r_cache, d_out)
    assert d_x.shape == x.shape and d_k.shape == d_v.shape == (l, d)
    out, p_cache = attention.prepend_attn_with_cache(x, layer, prompt)
    assert out.shape == x.shape
    d_x, d_prompt = attention.prepend_attn_backward(p_cache, d_out)
    assert d_x.shape == x.shape and d_prompt.shape == (l, d)
    feats = backbone.encode(ids, enc.image)
    assert feats.shape == (b, d)
    gaussian = learner.estimate_task_stats(task.train_ids, enc, cfg.train.ridge)
    s_hat = taskdist.log_density_batch(gaussian, feats)
    assert s_hat.shape == (b,)
    assert taskdist.calibration_weight_batch(s_hat).shape == (b,)
    k = len(task.class_templates)
    logit_rows = cfg.train.logit_scale * rng.uniform(-1.0, 1.0, (b, k))
    loss, grad = learner.batch_cross_entropy(logit_rows, task.train_labels[:32])
    assert math.isfinite(loss) and grad.shape == (b, k)
