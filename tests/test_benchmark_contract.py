"""The library surface the benchmark under perfbench/ relies on.

perfbench/tracer.py wraps every function in its LAYER_TARGETS by name, and
perfbench/run.py calls infer_batch and evaluate_task with positional
arguments. A library change that renames, deletes or reorders any of these
breaks the benchmark; these tests catch it in the tier-1 suite. The
tracer's hooks also read arguments: the row count of encode_with_cache is
the length of its first argument, and one batch_cross_entropy call counts
one SGD step, so a traced run checks both. These tests only
read perfbench/, and compile tracer.py from its source so no bytecode cache
is written there.
"""

import importlib
import math
import sys
import types
from pathlib import Path

import pytest

import resadapt.bench.continual as continual
from resadapt.bench.continual import evaluate_task, run_continual
from resadapt.bench.stream import StreamSpec, gen_stream
from resadapt.learner import TrainConfig, infer_batch

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
    spec = StreamSpec(num_tasks=2, classes_per_task=2, samples_per_class=20, vocab=64)
    stream = gen_stream(spec)
    cfg = TrainConfig(epochs=2, batch=12, prompt_len=4, adapter_depth=2)
    tr = tracer.Tracer()
    with tr.installed():
        # Through the module, whose name the tracer has replaced.
        matrix, _ = continual.run_continual(stream, small_encoder, cfg, True, mode)
    assert matrix.shape == (2, 2)
    n_train = len(stream[0].train_labels)
    steps = spec.num_tasks * cfg.epochs * math.ceil(n_train / cfg.batch)
    assert tr.counters["learner.train_task.steps"] == steps
    assert tr.calls["learner.batch_cross_entropy"] == steps
    # Training encodes one image batch and the templates per step, so every
    # training row once per epoch; every other encode_with_cache is encode's.
    train_calls = tr.calls["backbone.encode_with_cache"] - tr.calls["backbone.encode"]
    train_rows = tr.rows["backbone.encode_with_cache"] - tr.rows["backbone.encode"]
    assert train_calls == 2 * steps
    assert train_rows == spec.num_tasks * cfg.epochs * n_train + steps * spec.classes_per_task
    # Prompts need the frozen backward on both layers of both towers;
    # residual training stops at layer 0 and needs it on layer 1 only.
    per_step = 4 if mode == "prepend" else 2
    assert tr.calls["attention.frozen_attn_backward"] == per_step * steps
