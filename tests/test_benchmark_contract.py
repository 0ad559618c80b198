"""The library surface the benchmark under perfbench/ relies on.

perfbench/tracer.py wraps every function in its LAYER_TARGETS by name, and
perfbench/run.py calls infer_batch and evaluate_task with positional
arguments. A library change that renames, deletes or reorders any of these
breaks the benchmark; these tests catch it in the tier-1 suite. They only
read perfbench/, and compile tracer.py from its source so no bytecode cache
is written there.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

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
