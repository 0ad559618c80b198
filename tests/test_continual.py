"""Incremental harness: matrix filling, stability, and manual weight dial."""

import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

import resadapt.bench.continual as continual
from resadapt.bench.continual import (
    MAX_GROUP,
    assignment_accuracy,
    evaluate_task,
    manual_weight_sweep,
    run_continual,
    train_pool,
    zero_shot_sweep,
)
from resadapt.bench.config import load_config
from resadapt.bench.stream import StreamSpec, gen_stream
from resadapt.errors import ConfigError, ContractError, DivergenceError
from resadapt import learner
from resadapt.backbone import class_embeddings, encode, encode_with_cache
from resadapt.learner import InferState, TaskPool, TrainConfig, infer_batch, train_task
from resadapt.numkernel import make_rng

CFG = TrainConfig(lr0=5.0, epochs=2, batch=16, prompt_len=4, adapter_depth=2, seed=0)

SMALL_CFG = Path(__file__).resolve().parent.parent / "configs" / "small.cfg"
DEFAULT_CFG = SMALL_CFG.parent / "default.cfg"

# sha256 over every trained attachment array of a configs/small.cfg run, in
# pool order: per entry, the image then the text attachments, each as k_r
# then v_r (or p) in native float64 bytes. Recorded before training computed
# layer 0 once per task; a speed change must train the same bits.
SMALL_ADAPTER_DIGESTS = {
    "iki": "8ce1b4c1bd14860da69c00a998476899ebd707e1a88d7df0f5ca2fd8722293c0",
    "prepend": "6a7a0fec9e3d9fbaa757ee270130a83b7bc4c62689e1a2bb2f9b6bb6e5c4db57",
    "iki-ablation:0.02": "775359d5d0e94403ba5ab3372d3a540104caae61f47a75a9b7c6aa26c78e24d8",
}


def _attachment_arrays(entry, kind):
    """Every trained array of one entry: image then text, k_r then v_r (or p)."""
    for att in entry.adapters.image_adapters + entry.adapters.text_adapters:
        yield from (att.p,) if kind == "prepend" else (att.k_r, att.v_r)


def _entry_bytes(entry, kind):
    arrays = [*_attachment_arrays(entry, kind), entry.gaussian.mu, entry.gaussian.sigma]
    return [a.tobytes() for a in arrays]


@pytest.fixture(scope="module")
def small_stream():
    return gen_stream(
        StreamSpec(num_tasks=2, classes_per_task=2, samples_per_class=20, vocab=64)
    )


@pytest.fixture(scope="module")
def run(small_stream, small_encoder):
    return run_continual(small_stream, small_encoder, CFG)


class TestRunContinual:
    def test_matrix_shape_and_range(self, run, small_stream):
        matrix, pool = run
        n = len(small_stream)
        assert matrix.shape == (n, n)
        assert np.all(matrix >= 0.0) and np.all(matrix <= 1.0)
        assert len(pool) == n and pool.kind == "residual"

    def test_trained_tasks_at_least_zero_shot(self, run, small_stream, small_encoder):
        matrix, _ = run
        zs = zero_shot_sweep(small_stream, small_encoder)
        for i in range(len(small_stream)):
            assert matrix[i, i] >= zs[i]

    def test_unseen_tasks_gated_to_zero_shot(self, run, small_stream, small_encoder):
        # Before task j trains, calibration shuts the foreign branch, so the
        # upper-triangle entries match the frozen zero-shot sweep exactly.
        matrix, _ = run
        zs = zero_shot_sweep(small_stream, small_encoder)
        n = len(small_stream)
        for i in range(n):
            for j in range(i + 1, n):
                assert matrix[i, j] == pytest.approx(zs[j], abs=1e-12)

    def test_lower_triangle_stable_under_later_training(self, run, small_stream, small_encoder):
        # Entries are immutable, so re-evaluating task j with any prefix pool
        # that already contains it reproduces the recorded value exactly.
        matrix, pool = run
        for i in range(len(small_stream)):
            prefix = TaskPool(entries=pool.entries[: i + 1], kind=pool.kind)
            for j in range(i + 1):
                assert evaluate_task(small_stream[j], prefix, small_encoder) == matrix[i, j]

    def test_deterministic(self, run, small_stream, small_encoder):
        matrix, _ = run
        again, _ = run_continual(small_stream, small_encoder, CFG)
        assert matrix.tobytes() == again.tobytes()

    @pytest.mark.parametrize("logit_scale", [0.0, -1.0, float("nan")])
    def test_evaluate_rejects_non_positive_logit_scale(self, run, small_stream, small_encoder, logit_scale):
        # A positive scale cannot change an argmax; any other is an error.
        _, pool = run
        with pytest.raises(ContractError):
            evaluate_task(small_stream[0], pool, small_encoder, True, logit_scale)

    @pytest.mark.parametrize("mode", sorted(SMALL_ADAPTER_DIGESTS))
    def test_small_config_adapters_pinned(self, mode):
        cfg = load_config(SMALL_CFG)
        _, pool = run_continual(gen_stream(cfg.stream), cfg.encoder.build(), cfg.train, True, mode)
        h = hashlib.sha256()
        for entry in pool.entries:
            for a in _attachment_arrays(entry, pool.kind):
                h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
        assert h.hexdigest() == SMALL_ADAPTER_DIGESTS[mode]

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("mode", sorted(SMALL_ADAPTER_DIGESTS))
    def test_entry_depends_only_on_tasks_up_to_it(self, mode, k):
        # Task i's entry is a function of tasks 0..i alone, so a pool trained
        # on a prefix of the stream is a prefix of the full run's pool. The
        # claims suite's dial reads the calibrated pool's entry 0 on this basis.
        cfg = load_config(SMALL_CFG)
        stream, enc = gen_stream(cfg.stream), cfg.encoder.build()
        _, full = run_continual(stream, enc, cfg.train, True, mode)
        prefix = train_pool(stream[:k], enc, cfg.train, mode)
        assert len(prefix) == k
        for got, want in zip(prefix.entries, full.entries):
            assert _entry_bytes(got, prefix.kind) == _entry_bytes(want, full.kind)

    def test_empty_stream_rejected(self, small_encoder):
        with pytest.raises(ConfigError):
            run_continual([], small_encoder, CFG)

    def test_bad_mode_rejected(self, small_stream, small_encoder):
        with pytest.raises(ConfigError):
            run_continual(small_stream, small_encoder, CFG, mode="nonsense")

    def test_prepend_mode_sets_pool_kind(self, small_stream, small_encoder):
        matrix, pool = run_continual(small_stream, small_encoder, CFG, mode="prepend")
        assert pool.kind == "prepend"
        assert matrix.shape == (2, 2)


def _trimmed(task, rows):
    """task without its last `rows` training sequences."""
    return dataclasses.replace(
        task, train_ids=task.train_ids[:-rows], train_labels=task.train_labels[:-rows]
    )


class TestLockstepGroups:
    def test_groups_split_on_shape_and_at_the_bound(self):
        # Task 2 is shorter than its neighbours, so it trains alone; the
        # next run of equal tasks is cut at MAX_GROUP.
        stream = gen_stream(
            StreamSpec(num_tasks=MAX_GROUP + 4, classes_per_task=2, samples_per_class=5, vocab=128)
        )
        stream[2] = _trimmed(stream[2], 1)
        groups = [(first, [t.index for t in group]) for first, group in continual._groups(stream)]
        assert groups == [
            (0, [0, 1]), (2, [2]), (3, list(range(3, 3 + MAX_GROUP))), (3 + MAX_GROUP, [3 + MAX_GROUP]),
        ]

    @pytest.mark.parametrize("mode", ["iki", "prepend"])
    def test_unequal_train_sizes_train_as_alone(self, small_encoder, monkeypatch, mode):
        # Four tasks, the second shorter: groups of one, one and two. Every
        # entry equals its task trained alone on the stream's rng,
        # make_rng(seed, 23, i).
        stream = gen_stream(
            StreamSpec(num_tasks=4, classes_per_task=2, samples_per_class=20, vocab=64)
        )
        stream[1] = _trimmed(stream[1], 5)
        calls = []

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return train_task(*args, **kwargs)

        monkeypatch.setattr(continual, "train_task", counted)
        pool = train_pool(stream, small_encoder, CFG, mode)
        assert calls == [1, 1, 2]
        for i, (task, entry) in enumerate(zip(stream, pool.entries)):
            (alone,) = train_task(
                task.train_ids[None], task.train_labels[None], task.class_templates[None],
                small_encoder, CFG, [make_rng(CFG.seed, 23, i)], continual.AdapterMode.parse(mode),
            )
            for got, want in zip(entry.adapters.image_adapters + entry.adapters.text_adapters,
                                 alone.image_adapters + alone.text_adapters, strict=True):
                assert [v.tobytes() for v in vars(got).values()] == [
                    v.tobytes() for v in vars(want).values()
                ]

    def test_divergence_names_the_stream_index(self, small_encoder):
        # Batches of 12: task 0, cut to 12 rows, makes one step per epoch
        # and ends before a loss goes NaN; task 1, 16 rows, trains in its
        # own group and its step 1 is NaN.
        stream = gen_stream(
            StreamSpec(num_tasks=2, classes_per_task=2, samples_per_class=10, vocab=64)
        )
        stream[0] = _trimmed(stream[0], 4)
        cfg = TrainConfig(lr0=1e300, epochs=1, batch=12)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
            train_pool(stream, small_encoder, cfg)
        assert (exc.value.step, exc.value.task) == (1, 1)
        assert "non-finite loss at step 1 of task 1" in str(exc.value)

    @pytest.mark.parametrize("prefix_diverges", [False, True])
    def test_divergence_reported_as_training_each_task_alone(
        self, small_stream, small_encoder, monkeypatch, prefix_diverges
    ):
        # In a group of three, task 2 diverges at step 3. Trained alone,
        # task 0 or 1 might diverge later than that and stop the run first,
        # so tasks 0 and 1 train again; the error names task 2 unless one of
        # them fails (here task 1, at step 7).
        stream = [small_stream[0]] * 3
        groups = []

        def fake(ids, labels, templates, enc, cfg, rngs, mode):
            groups.append(len(ids))
            if len(ids) == 3:
                raise DivergenceError(3, 2)
            if prefix_diverges and len(ids) == 2:
                raise DivergenceError(7, 1)
            return [None] * len(ids)

        monkeypatch.setattr(continual, "train_task", fake)
        with pytest.raises(DivergenceError) as exc:
            train_pool(stream, small_encoder, CFG)
        assert groups == ([3, 2, 1] if prefix_diverges else [3, 2])
        assert (exc.value.step, exc.value.task) == ((7, 1) if prefix_diverges else (3, 2))


@pytest.fixture(scope="module")
def four_stream():
    return gen_stream(
        StreamSpec(num_tasks=4, classes_per_task=2, samples_per_class=20, vocab=64)
    )


@pytest.fixture(scope="module")
def four_run(four_stream, small_encoder):
    return run_continual(four_stream, small_encoder, CFG)


def _prefix(pool: TaskPool, size: int) -> TaskPool:
    return TaskPool(entries=pool.entries[:size], kind=pool.kind)


class TestCachedEvaluation:
    @pytest.mark.parametrize(
        "mode,calibrate",
        [("iki", True), ("prepend", True), ("iki-ablation:0.02", True), ("iki", False)],
    )
    def test_matrix_equals_fresh_evaluation_every_cell(
        self, four_stream, small_encoder, mode, calibrate
    ):
        # run_continual carries per-task state across checkpoints; every cell,
        # the upper triangle included, must equal a from-scratch evaluation
        # with the pool as it stood, and a plain infer_batch over the split.
        matrix, pool = run_continual(four_stream, small_encoder, CFG, calibrate, mode)
        for i in range(len(four_stream)):
            prefix = _prefix(pool, i + 1)
            for j, task in enumerate(four_stream):
                fresh = evaluate_task(task, prefix, small_encoder, calibrate)
                cls, _, _ = infer_batch(
                    task.test_ids, prefix, task.class_templates, small_encoder, calibrate
                )
                assert matrix[i, j] == fresh == float((cls == task.test_labels).mean())

    def test_unseen_samples_rerouted_between_older_entries(
        self, four_run, four_stream, small_encoder
    ):
        # The case the cache must get right: before its own entry exists, a
        # task's samples move from one foreign entry to a newer one.
        _, pool = four_run
        task = four_stream[-1]
        state = InferState()
        routes = []
        for i in range(len(pool) - 1):
            state.infer(task.test_ids, _prefix(pool, i + 1), task.class_templates, small_encoder)
            routes.append(state.task_idx.copy())
        assert any(np.any(a != b) for a, b in zip(routes, routes[1:]))

    def test_state_skipping_checkpoints_matches_fresh(self, four_run, four_stream, small_encoder):
        # A pool that grew by several entries since the last call re-routes
        # samples to more than one new entry at once.
        _, pool = four_run
        for task in four_stream:
            state = InferState()
            for size in (1, 3, 4, 4):
                prefix = _prefix(pool, size)
                got = state.infer(task.test_ids, prefix, task.class_templates, small_encoder)
                cls, _, _ = infer_batch(task.test_ids, prefix, task.class_templates, small_encoder)
                assert np.array_equal(got, cls)

    def test_state_rejects_shrunk_pool(self, four_run, four_stream, small_encoder):
        _, pool = four_run
        task = four_stream[0]
        state = InferState()
        evaluate_task(task, _prefix(pool, 3), small_encoder, True, 100.0, state)
        with pytest.raises(ContractError):
            evaluate_task(task, _prefix(pool, 2), small_encoder, True, 100.0, state)

    def test_state_rejects_foreign_pool(self, four_run, four_stream, small_encoder):
        _, pool = four_run
        task = four_stream[0]
        state = InferState()
        evaluate_task(task, _prefix(pool, 2), small_encoder, True, 100.0, state)
        swapped = TaskPool(entries=[pool.entries[1], pool.entries[0], pool.entries[2]])
        with pytest.raises(ContractError):
            evaluate_task(task, swapped, small_encoder, True, 100.0, state)

    def test_state_rejects_other_inputs(self, four_run, four_stream, small_encoder):
        _, pool = four_run
        state = InferState()
        evaluate_task(four_stream[0], _prefix(pool, 1), small_encoder, True, 100.0, state)
        with pytest.raises(ContractError):
            evaluate_task(four_stream[1], _prefix(pool, 2), small_encoder, True, 100.0, state)
        with pytest.raises(ContractError):
            evaluate_task(four_stream[0], _prefix(pool, 2), small_encoder, False, 100.0, state)

    def test_state_binds_template_array_by_identity(self, four_run, four_stream, small_encoder):
        # Same token ids, same pool prefix: a copy of the bound template
        # array is refused as other token ids are, and so are another task's
        # templates. The bound inputs still pass afterwards.
        _, pool = four_run
        task = four_stream[0]
        ids, classes = task.test_ids, task.class_templates
        state = InferState()
        state.infer(ids, _prefix(pool, 1), classes, small_encoder)
        for other_ids, other_classes in (
            (ids.copy(), classes),
            (ids, classes.copy()),
            (ids, four_stream[1].class_templates),
        ):
            with pytest.raises(ContractError):
                state.infer(other_ids, _prefix(pool, 1), other_classes, small_encoder)
        got = state.infer(ids, _prefix(pool, 2), classes, small_encoder)
        assert np.array_equal(got, infer_batch(ids, _prefix(pool, 2), classes, small_encoder)[0])


class TestTwoPasses:
    def test_training_ends_before_evaluation_starts(self, small_encoder, monkeypatch):
        # Two lockstep groups: no checkpoint is evaluated while a later
        # group still trains.
        stream = gen_stream(
            StreamSpec(num_tasks=MAX_GROUP + 1, classes_per_task=2, samples_per_class=10, vocab=64)
        )
        calls = []

        def recorded(name):
            real = getattr(continual, name)

            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(continual, name, call)

        recorded("train_task")
        recorded("evaluate_task")
        matrix, _ = run_continual(stream, small_encoder, CFG)
        n = len(stream)
        assert calls == ["train_task"] * 2 + ["evaluate_task"] * n * n
        assert matrix.shape == (n, n)

    @pytest.mark.parametrize("calibrate", [True, False])
    @pytest.mark.parametrize("mode", sorted(SMALL_ADAPTER_DIGESTS))
    def test_matrix_of_a_trained_pool_equals_the_run(self, four_stream, small_encoder, mode, calibrate):
        # The claims suite reads the gate-open arm off the calibrated run's
        # pool on this basis: the matrix depends on the final pool alone.
        pool = train_pool(four_stream, small_encoder, CFG, mode)
        matrix = continual.checkpoint_matrix(four_stream, pool, small_encoder, calibrate)
        want, _ = run_continual(four_stream, small_encoder, CFG, calibrate, mode)
        assert matrix.tobytes() == want.tobytes()


class TestZeroShotSweep:
    def test_matches_manual_count(self, small_stream, small_encoder):
        sweep = zero_shot_sweep(small_stream, small_encoder)
        assert len(sweep) == len(small_stream)
        for task, acc in zip(small_stream, sweep):
            text = class_embeddings(task.class_templates, small_encoder.text)
            manual = np.mean(
                [
                    np.argmax(text @ encode(row[None], small_encoder.image)[0]) == lab
                    for row, lab in zip(task.test_ids, task.test_labels)
                ]
            )
            assert acc == pytest.approx(manual, abs=1e-12)


class TestAssignment:
    def test_learned_tasks_fully_separated(self, run, small_stream, small_encoder):
        _, pool = run
        assert assignment_accuracy(small_stream, pool, small_encoder) == 1.0

    def test_matches_per_prefix_routing(self, four_run, four_stream, small_encoder):
        # Prefix argmaxes over one score matrix per split equal routing each
        # task's split through every prefix pool it belongs to.
        _, pool = four_run
        correct = total = 0
        for i in range(len(pool)):
            for j in range(i + 1):
                task = four_stream[j]
                _, routed, _ = infer_batch(
                    task.test_ids, _prefix(pool, i + 1), task.class_templates, small_encoder
                )
                correct += int((routed == j).sum())
                total += len(routed)
        assert assignment_accuracy(four_stream, pool, small_encoder) == correct / total


class TestManualWeightDial:
    def test_zero_weight_is_frozen_model(self, run, small_stream, small_encoder):
        matrix, pool = run
        zs = zero_shot_sweep(small_stream, small_encoder)
        sweep = manual_weight_sweep(small_stream[0], pool.entries[0], small_encoder, [0.0])
        assert sweep[0.0] == pytest.approx(zs[0], abs=1e-12)

    def test_full_weight_at_least_frozen_on_trained_task(self, run, small_stream, small_encoder):
        _, pool = run
        sweep = manual_weight_sweep(
            small_stream[0], pool.entries[0], small_encoder, [0.0, 1.0]
        )
        assert sweep[1.0] >= sweep[0.0]

    def test_keys_are_floats_values_in_range(self, run, small_stream, small_encoder):
        _, pool = run
        sweep = manual_weight_sweep(
            small_stream[0], pool.entries[0], small_encoder, [0, 0.25, 0.5, 0.75, 1]
        )
        assert set(sweep) == {0.0, 0.25, 0.5, 0.75, 1.0}
        assert all(0.0 <= v <= 1.0 for v in sweep.values())


def _frozen_floor(ids, stack) -> float:
    """Smallest |attention output| of the bare stack over ids, from encode_with_cache."""
    _, cache = encode_with_cache(ids, stack)
    return min(float(np.abs(c.out).min()) for c in cache.layer_caches)


def _checked_fallback(monkeypatch) -> dict:
    """Check every InferState.infer call's gate-closed rows against classify.

    The closed rows are recomputed here from the rule as stated (w * v_max
    < 2**-60 * floor, floor >= 2**-960), with the floor taken from
    encode_with_cache's caches. Each call must send every
    other moved row, and only those, to classify, and give each closed row
    classify's own decision for it. Returns running row counts: moved (what
    classify received before the fallback), classified and closed.
    """
    counts = {"moved": 0, "classified": 0, "closed": 0}
    floors = {}
    classify, infer = learner.classify, learner.InferState.infer

    def counting_classify(ids, *args):
        counts["classified"] += len(ids)
        return classify(ids, *args)

    def checked_infer(state, token_ids, pool, classes, enc, calibrate=True):
        before = -1 if state.task_idx is None else state.task_idx.copy()
        classified = counts["classified"]
        got = infer(state, token_ids, pool, classes, enc, calibrate)
        moved = state.task_idx != before
        if id(state) not in floors:
            floors[id(state)] = min(_frozen_floor(state.ids, enc.image), _frozen_floor(classes, enc.text))
        v_max = np.array([e.v_max for e in pool.entries])[state.task_idx]
        floor = floors[id(state)]
        closed = moved & (state.weights * v_max < 2.0**-60 * floor) & (floor >= 2.0**-960)
        assert counts["classified"] - classified == np.sum(moved & ~closed)
        if np.any(closed):
            oracle = classify(state.ids[closed], state.task_idx[closed], state.weights[closed],
                              pool, classes, enc)
            assert np.array_equal(got[closed], oracle)
        counts["moved"] += int(moved.sum())
        counts["closed"] += int(closed.sum())
        return got

    monkeypatch.setattr(learner, "classify", counting_classify)
    monkeypatch.setattr(learner.InferState, "infer", checked_infer)
    return counts


def _default_stream(seed: int, **overrides):
    cfg = load_config(DEFAULT_CFG)
    spec = dataclasses.replace(cfg.stream, **overrides, seed=seed)
    enc = dataclasses.replace(cfg.encoder, vocab=spec.vocab).build()
    return gen_stream(spec), enc, cfg.train


# Rows that reach classify over one run_continual (the matrix's N^2 cells)
# and over one infer_batch per task, task j >= 1 on the pool of the tasks
# before it and task 0 on its own entry: (moved, classified). Moved rows
# all reached classify before gate-closed rows took the frozen model's
# decision; the classified ones are each task's own rows, routed at w near
# 1 when its entry arrives. The perfbench stream20 spec is seed 0 with its
# overrides.
STREAM20 = {"num_tasks": 20, "vocab": 1024, "samples_per_class": 100}
FALLBACK_ROWS = {
    ("default", 0): ((1955, 800), (800, 160)),
    ("default", 1): ((1942, 800), (800, 160)),
    ("default", 2): ((1919, 800), (800, 160)),
    ("default", 3): ((1931, 800), (800, 160)),
    ("default", 4): ((1954, 800), (800, 160)),
    ("stream20", 0): ((4239, 1600), (1600, 80)),
}


class TestClosedGateFallback:
    @pytest.mark.parametrize("name,seed", sorted(FALLBACK_ROWS))
    def test_fallback_rows_equal_classify(self, monkeypatch, name, seed):
        stream, enc, cfg = _default_stream(seed, **(STREAM20 if name == "stream20" else {}))
        counts = _checked_fallback(monkeypatch)
        _, pool = run_continual(stream, enc, cfg)
        run_rows = (counts["moved"], counts["classified"])
        for key in counts:
            counts[key] = 0
        for j, task in enumerate(stream):
            infer_batch(task.test_ids, _prefix(pool, max(j, 1)), task.class_templates, enc)
        batch_rows = (counts["moved"], counts["classified"])
        assert (run_rows, batch_rows) == FALLBACK_ROWS[name, seed]
