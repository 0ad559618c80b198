"""Adapter training loop, task pool, and calibrated inference."""

import dataclasses
import math

import numpy as np
import pytest

from resadapt.backbone import (
    DualEncoder,
    EncoderSpec,
    class_embeddings,
    encode,
    encode_backward,
    encode_with_cache,
)
from resadapt import learner
from resadapt.attention import Adapter, PromptBaseline
from resadapt.bench.stream import StreamSpec, gen_stream
from resadapt.errors import ConfigError, ContractError, DivergenceError, ShapeError
from resadapt.learner import (
    AdapterMode,
    AdapterSet,
    PoolEntry,
    TaskPool,
    TrainConfig,
    classify,
    cosine_lr,
    estimate_task_stats,
    infer_batch,
    predict,
    route,
    score_entries,
    train_task,
)
from resadapt.numkernel import make_rng
from resadapt.taskdist import calibration_weight_batch, fit_gaussian, log_density_batch

SMALL_CFG = TrainConfig(
    lr0=5.0, epochs=3, batch=16, prompt_len=4, adapter_depth=2, seed=0
)


def train_one(train_ids, train_labels, class_templates, enc, cfg, rng, mode=AdapterMode()):
    """train_task on one task: a group of one."""
    return train_task(
        np.asarray(train_ids)[None], np.asarray(train_labels)[None],
        np.asarray(class_templates)[None], enc, cfg, [rng], mode,
    )[0]


def _zero_shot(rows, classes, enc) -> np.ndarray:
    """Frozen-model oracle, one row at a time: no pool, no adapters."""
    text = class_embeddings(classes, enc.text)
    return np.array(
        [int(np.argmax(text @ encode(rows[r : r + 1], enc.image)[0])) for r in range(len(rows))]
    )


def _infer_rows(rows, pool, classes, enc, calibrate=True):
    """Pooled-inference oracle, one row at a time.

    The best-scoring Gaussian picks the entry; its sigmoid sets w (pinned to
    1 without calibration and for prompt pools); the entry's attachments at
    w classify the row.
    """
    out = []
    for r in range(len(rows)):
        row = rows[r : r + 1]
        frozen = encode(row, enc.image)
        scores = [float(log_density_batch(e.gaussian, frozen)[0]) for e in pool.entries]
        t = int(np.argmax(scores))
        entry = pool.entries[t]
        w = 1.0
        if pool.kind == "residual" and calibrate:
            w = float(calibration_weight_batch(np.array([scores[t]]))[0])
        if pool.kind == "prepend":
            feat = encode(row, enc.image, entry.adapters.image_adapters)[0]
            text = class_embeddings(classes, enc.text, entry.adapters.text_adapters)
        else:
            feat = encode(row, enc.image, entry.adapters.image_adapters, w)[0]
            text = class_embeddings(classes, enc.text, entry.adapters.text_adapters, w)
        out.append((int(np.argmax(text @ feat)), t, w))
    return out


def _infer_one(ids, r, pool, classes, enc, calibrate=True):
    """infer_batch on the one-row slice r of ids, as scalars."""
    cls, tsk, wts = infer_batch(ids[r : r + 1], pool, classes, enc, calibrate)
    return int(cls[0]), int(tsk[0]), float(wts[0])


@pytest.fixture(scope="module")
def small_stream():
    # 2 tasks x 2 classes x 20 samples over the 64-token vocabulary
    return gen_stream(
        StreamSpec(num_tasks=2, classes_per_task=2, samples_per_class=20, vocab=64)
    )


@pytest.fixture(scope="module")
def trained(small_stream, small_encoder):
    """One trained task plus its pool entry, reused across read-only tests."""
    task = small_stream[0]
    adapters = train_one(
        task.train_ids,
        task.train_labels,
        task.class_templates,
        small_encoder,
        SMALL_CFG,
        make_rng(SMALL_CFG.seed, 7, task.index),
    )
    entry = PoolEntry(adapters=adapters, gaussian=estimate_task_stats(task.train_ids, small_encoder))
    return task, entry


@pytest.fixture(scope="module")
def trained_prepend(small_stream, small_encoder):
    """The first task trained as a prompt (prepend) entry."""
    task = small_stream[0]
    adapters = train_one(
        task.train_ids,
        task.train_labels,
        task.class_templates,
        small_encoder,
        dataclasses.replace(SMALL_CFG, epochs=1),
        make_rng(0, 7, 0),
        mode=AdapterMode.parse("prepend"),
    )
    entry = PoolEntry(adapters=adapters, gaussian=estimate_task_stats(task.train_ids, small_encoder))
    return task, entry


def _adapter_bytes(adapters: AdapterSet) -> bytes:
    chunks = []
    for att in adapters.image_adapters + adapters.text_adapters:
        if hasattr(att, "k_r"):
            chunks += [att.k_r.tobytes(), att.v_r.tobytes()]
        else:
            chunks.append(att.p.tobytes())
    return b"".join(chunks)


class TestTrainConfig:
    def test_defaults_construct(self):
        cfg = TrainConfig()
        assert cfg.epochs == 10 and cfg.batch == 32

    def test_zero_epochs_allowed(self):
        assert TrainConfig(epochs=0).epochs == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lr0": 0.0},
            {"lr0": -1.0},
            {"logit_scale": 0.0},
            {"ridge": 0.0},
            {"epochs": -1},
            {"batch": 0},
            {"prompt_len": 0},
            {"adapter_depth": 0},
            {"k_bound": -0.1},
            {"seed": -1},
            {"lr0": math.nan},
            {"lr0": math.inf},
            {"logit_scale": math.nan},
            {"logit_scale": math.inf},
            {"ridge": math.nan},
            {"ridge": math.inf},
            {"k_bound": math.nan},
            {"k_bound": math.inf},
            {"k_bound": 1e308},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)


class TestCosineSchedule:
    def test_start_is_lr0(self):
        assert cosine_lr(0, 100, 2.5) == pytest.approx(2.5)

    def test_midpoint_is_half(self):
        assert cosine_lr(50, 100, 2.5) == pytest.approx(1.25)

    def test_end_is_zero(self):
        assert cosine_lr(100, 100, 2.5) == pytest.approx(0.0, abs=1e-15)

    def test_monotone_decreasing(self):
        vals = [cosine_lr(s, 40, 1.0) for s in range(41)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("step,total", [(-1, 10), (11, 10), (0, 0)])
    def test_bad_positions_rejected(self, step, total):
        with pytest.raises(ContractError):
            cosine_lr(step, total, 1.0)


class TestAdapterMode:
    def test_parse_residual(self):
        mode = AdapterMode.parse("iki")
        # No ablation bound: keys on [-k_bound, k_bound), values at zero.
        assert mode.mechanism == "residual" and mode.init_bound is None

    def test_parse_prepend(self):
        assert AdapterMode.parse("prepend").mechanism == "prepend"

    def test_parse_ablation_bound(self):
        mode = AdapterMode.parse("iki-ablation:0.5")
        assert mode.mechanism == "residual"
        assert mode.init_bound == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "text",
        [
            "iki-ablation:nope",
            "iki-ablation:-0.1",
            "iki-ablation:nan",
            "iki-ablation:inf",
            "iki-ablation:1e308",
            "frobnicate",
            "",
        ],
    )
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(ConfigError):
            AdapterMode.parse(text)


class TestTrainTask:
    def test_zero_epochs_is_fresh_identity(self, small_stream, small_encoder):
        # Untrained zero-init attachments must leave the encoder untouched.
        task = small_stream[0]
        cfg = dataclasses.replace(SMALL_CFG, epochs=0)
        adapters = train_one(
            task.train_ids,
            task.train_labels,
            task.class_templates,
            small_encoder,
            cfg,
            make_rng(0, 7, 0),
        )
        for att in adapters.image_adapters:
            assert np.all(att.v_r == 0.0)
        with_branch = encode(
            task.test_ids, small_encoder.image, adapters.image_adapters, 1.0
        )
        bare = encode(task.test_ids, small_encoder.image)
        np.testing.assert_allclose(with_branch, bare, atol=1e-12)

    def test_deterministic_given_seed(self, small_stream, small_encoder):
        task = small_stream[0]
        runs = [
            train_one(
                task.train_ids,
                task.train_labels,
                task.class_templates,
                small_encoder,
                SMALL_CFG,
                make_rng(3, 7, 0),
            )
            for _ in range(2)
        ]
        assert _adapter_bytes(runs[0]) == _adapter_bytes(runs[1])

    def test_different_seed_differs(self, small_stream, small_encoder):
        task = small_stream[0]
        a, b = (
            train_one(
                task.train_ids,
                task.train_labels,
                task.class_templates,
                small_encoder,
                SMALL_CFG,
                make_rng(s, 7, 0),
            )
            for s in (0, 1)
        )
        assert _adapter_bytes(a) != _adapter_bytes(b)

    def test_training_beats_zero_shot_on_train_split(self, trained, small_encoder):
        task, entry = trained
        text = class_embeddings(
            task.class_templates, small_encoder.text, entry.adapters.text_adapters, 1.0
        )
        feats = encode(
            task.train_ids, small_encoder.image, entry.adapters.image_adapters, 1.0
        )
        pred = np.array([np.argmax(text @ f) for f in feats])
        acc = float(np.mean(pred == task.train_labels))
        zs = np.mean(_zero_shot(task.train_ids, task.class_templates, small_encoder) == task.train_labels)
        assert acc >= zs

    def test_label_shape_rejected(self, small_stream, small_encoder):
        task = small_stream[0]
        with pytest.raises(ShapeError):
            train_one(
                task.train_ids,
                task.train_labels[:-1],
                task.class_templates,
                small_encoder,
                SMALL_CFG,
                make_rng(0),
            )

    def test_label_range_rejected(self, small_stream, small_encoder):
        task = small_stream[0]
        bad = task.train_labels.copy()
        bad[0] = len(task.class_templates)
        with pytest.raises(IndexError):
            train_one(
                task.train_ids,
                bad,
                task.class_templates,
                small_encoder,
                SMALL_CFG,
                make_rng(0),
            )

    def test_depth_overflow_rejected(self, small_stream, small_encoder):
        task = small_stream[0]
        cfg = dataclasses.replace(SMALL_CFG, adapter_depth=small_encoder.image.depth + 1)
        with pytest.raises(ConfigError):
            train_one(
                task.train_ids,
                task.train_labels,
                task.class_templates,
                small_encoder,
                cfg,
                make_rng(0),
            )

    @pytest.mark.parametrize(
        "mode_text,adapter_depth",
        [("iki", 2), ("iki", 1), ("iki-ablation:0.3", 2), ("prepend", 2)],
    )
    def test_equals_training_that_encodes_every_step_from_ids(
        self, small_stream, small_encoder, mode_text, adapter_depth
    ):
        # train_task keeps layer 0's frozen work once per group; the oracle
        # below is the same loop over one task, encoding every batch from its
        # token ids. 32 rows in batches of 12 leave a short last batch.
        task = small_stream[0]
        cfg = dataclasses.replace(SMALL_CFG, batch=12, adapter_depth=adapter_depth)
        mode = AdapterMode.parse(mode_text)
        got = train_one(
            task.train_ids, task.train_labels, task.class_templates, small_encoder, cfg,
            make_rng(4, 7, 0), mode,
        )
        rng = make_rng(4, 7, 0)
        img = learner._init_attachments(mode, cfg, small_encoder.image.d, rng)
        txt = learner._init_attachments(mode, cfg, small_encoder.text.d, rng)
        template_ids = task.class_templates
        n = len(task.train_labels)
        total = cfg.epochs * math.ceil(n / cfg.batch)
        step = 0
        for _ in range(cfg.epochs):
            perm = rng.permutation(n)
            for start in range(0, n, cfg.batch):
                idx = perm[start : start + cfg.batch]
                lr = cosine_lr(step, total, cfg.lr0)
                f_img, c_img = encode_with_cache(task.train_ids[idx], small_encoder.image, img, 1.0)
                f_txt, c_txt = encode_with_cache(template_ids, small_encoder.text, txt, 1.0)
                logits = cfg.logit_scale * (f_img @ f_txt.T)
                _, d = learner.batch_cross_entropy(logits, task.train_labels[idx])
                d_img = cfg.logit_scale * (d @ f_txt)
                d_txt = cfg.logit_scale * (d.T @ f_img)
                img = learner._sgd_step(img, encode_backward(c_img, d_img), lr)
                txt = learner._sgd_step(txt, encode_backward(c_txt, d_txt), lr)
                step += 1
        want = AdapterSet(image_adapters=tuple(img), text_adapters=tuple(txt))
        assert _adapter_bytes(got) == _adapter_bytes(want)

    def test_huge_learning_rate_diverges_at_step_1(self, small_encoder):
        # One full batch per epoch: step 0 makes the adapters huge but
        # finite; the forward of step 1 overflows and its loss is NaN.
        stream = gen_stream(
            StreamSpec(num_tasks=2, classes_per_task=2, samples_per_class=10, vocab=64)
        )
        task = stream[0]
        cfg = TrainConfig(lr0=1e300, epochs=2, batch=64)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
            train_one(
                task.train_ids, task.train_labels, task.class_templates, small_encoder, cfg,
                make_rng(0, 23, 0),
            )
        assert exc.value.step == 1 and exc.value.task == 0


def _group(tasks):
    """A group's stacked (ids, labels, templates)."""
    return tuple(np.stack([getattr(t, f) for t in tasks])
                 for f in ("train_ids", "train_labels", "class_templates"))


class TestLockstep:
    @pytest.mark.parametrize("mode_text", ["iki", "iki-ablation:0.3", "prepend"])
    @pytest.mark.parametrize("adapter_depth", [1, 2])
    def test_group_equals_each_task_alone(self, small_encoder, mode_text, adapter_depth):
        # Three tasks of 32 rows in batches of 12, so the last batch is
        # short. Each task's attachments equal a group of one's, byte for
        # byte; test_equals_training_that_encodes_every_step_from_ids ties a
        # group of one to the plain per-task loop.
        stream = gen_stream(
            StreamSpec(num_tasks=3, classes_per_task=2, samples_per_class=20, vocab=64)
        )
        cfg = dataclasses.replace(SMALL_CFG, batch=12, adapter_depth=adapter_depth)
        mode = AdapterMode.parse(mode_text)
        group = train_task(
            *_group(stream), small_encoder, cfg, [make_rng(5, 7, t.index) for t in stream], mode
        )
        assert len(group) == len(stream)
        for task, got in zip(stream, group):
            want = train_one(
                task.train_ids, task.train_labels, task.class_templates, small_encoder, cfg,
                make_rng(5, 7, task.index), mode,
            )
            assert _adapter_bytes(got) == _adapter_bytes(want)
            for att in got.image_adapters + got.text_adapters:
                assert att.shape == (cfg.prompt_len, small_encoder.image.d)

    def test_order_within_a_group_does_not_matter(self, small_stream, small_encoder):
        rngs = lambda order: [make_rng(0, 7, i) for i in order]
        forward = train_task(*_group(small_stream), small_encoder, SMALL_CFG, rngs([0, 1]))
        backward = train_task(
            *_group(small_stream[::-1]), small_encoder, SMALL_CFG, rngs([1, 0])
        )
        assert _adapter_bytes(forward[0]) == _adapter_bytes(backward[1])
        assert _adapter_bytes(forward[1]) == _adapter_bytes(backward[0])

    @pytest.mark.parametrize(
        "change,error",
        [
            (lambda ids, labels, tpl, rngs: (ids[0], labels, tpl, rngs), ShapeError),
            (lambda ids, labels, tpl, rngs: (ids, labels[:, :-1], tpl, rngs), ShapeError),
            (lambda ids, labels, tpl, rngs: (ids, labels, tpl[:1], rngs), ShapeError),
            (lambda ids, labels, tpl, rngs: (ids, labels, tpl, rngs[:1]), ShapeError),
            (lambda ids, labels, tpl, rngs: (ids[:, :0], labels[:, :0], tpl, rngs), ShapeError),
            (lambda ids, labels, tpl, rngs: (ids + 64, labels, tpl, rngs), IndexError),
            (lambda ids, labels, tpl, rngs: (ids, labels, tpl - 64, rngs), IndexError),
        ],
    )
    def test_malformed_group_rejected(self, small_stream, small_encoder, change, error):
        args = change(*_group(small_stream), [make_rng(0, 7, 0), make_rng(0, 7, 1)])
        with pytest.raises(error):
            train_task(*args[:3], small_encoder, SMALL_CFG, args[3])

    def test_divergence_names_the_first_diverging_task_of_the_group(self, small_encoder):
        # Every task's step 1 is NaN (see test_huge_learning_rate_diverges_at_step_1).
        stream = gen_stream(
            StreamSpec(num_tasks=2, classes_per_task=2, samples_per_class=10, vocab=64)
        )
        cfg = TrainConfig(lr0=1e300, epochs=2, batch=64)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
            train_task(*_group(stream), small_encoder, cfg, [make_rng(0, 23, 0), make_rng(0, 23, 1)])
        assert (exc.value.step, exc.value.task) == (1, 0)
        assert str(exc.value) == "non-finite loss at step 1 of task 0"


class TestTaskStats:
    def test_matches_direct_gaussian_fit(self, small_stream, small_encoder):
        # Dual route: estimate_task_stats vs encoding + fit_gaussian by hand.
        task = small_stream[0]
        gaussian = estimate_task_stats(task.train_ids, small_encoder)
        feats = encode(task.train_ids, small_encoder.image)
        direct = fit_gaussian(feats, 1e-7)
        np.testing.assert_array_equal(gaussian.mu, direct.mu)
        np.testing.assert_array_equal(gaussian.sigma, direct.sigma)

    def test_large_task_encodes_in_row_chunks(self, small_encoder, monkeypatch):
        # A task of more than ROW_CHUNK rows is encoded in blocks of at most
        # ROW_CHUNK rows, which bounds the encoder's caches, and its
        # Gaussian is the one fitted on a single encode of every row.
        task = gen_stream(StreamSpec(num_tasks=1, classes_per_task=2, samples_per_class=100,
                                     vocab=64))[0]
        n = len(task.train_ids)
        assert n > learner.ROW_CHUNK and n % learner.ROW_CHUNK
        direct = fit_gaussian(encode(task.train_ids, small_encoder.image), 1e-7)
        seen = []
        monkeypatch.setattr(learner, "encode", lambda ids, stack: seen.append(len(ids)) or encode(ids, stack))
        gaussian = estimate_task_stats(task.train_ids, small_encoder)
        assert seen == [learner.ROW_CHUNK, n - learner.ROW_CHUNK]
        for f in dataclasses.fields(gaussian):
            np.testing.assert_array_equal(getattr(gaussian, f.name), getattr(direct, f.name))

    def test_adapters_do_not_leak_into_stats(self, trained, small_encoder):
        # Statistics describe the frozen representation only, so they are
        # identical whether or not the task has trained attachments.
        task, _ = trained
        before = estimate_task_stats(task.train_ids, small_encoder)
        after = estimate_task_stats(task.train_ids, small_encoder)
        np.testing.assert_array_equal(before.mu, after.mu)


class TestInfer:
    # Single samples go through infer_batch as one-row slices.
    def test_empty_pool_rejected(self, trained, small_encoder):
        task, _ = trained
        with pytest.raises(ContractError):
            infer_batch(task.test_ids[:1], TaskPool(), task.class_templates, small_encoder)

    def test_calibrate_off_pins_unit_weight(self, trained, small_encoder):
        task, entry = trained
        pool = TaskPool(entries=[entry])
        _, _, w = _infer_one(
            task.test_ids, 0, pool, task.class_templates, small_encoder, calibrate=False
        )
        assert w == 1.0

    def test_own_task_selected_with_high_weight(self, trained, small_encoder):
        task, entry = trained
        pool = TaskPool(entries=[entry])
        _, t, w = _infer_one(task.test_ids, 0, pool, task.class_templates, small_encoder)
        assert t == 0
        assert w > 0.5

    def test_foreign_sample_gated_to_zero_shot(self, small_stream, trained, small_encoder):
        # A sample from the other task scores far below the stored Gaussian,
        # so the sigmoid shuts the branch and the bare prediction wins.
        task0, entry = trained
        pool = TaskPool(entries=[entry])
        foreign = small_stream[1]
        zs = _zero_shot(foreign.test_ids[:10], foreign.class_templates, small_encoder)
        for r in range(len(zs)):
            c, _, w = _infer_one(foreign.test_ids, r, pool, foreign.class_templates, small_encoder)
            assert w < 1e-3
            assert c == zs[r]

    def test_fresh_pool_equals_zero_shot(self, small_stream, small_encoder):
        # A zero-epoch entry is an exact identity, so pooled inference with
        # calibration off must reproduce the bare zero-shot decision.
        task = small_stream[0]
        cfg = dataclasses.replace(SMALL_CFG, epochs=0)
        adapters = train_one(
            task.train_ids,
            task.train_labels,
            task.class_templates,
            small_encoder,
            cfg,
            make_rng(0, 7, 0),
        )
        gaussian = estimate_task_stats(task.train_ids, small_encoder)
        pool = TaskPool(entries=[PoolEntry(adapters=adapters, gaussian=gaussian)])
        zs = _zero_shot(task.test_ids[:10], task.class_templates, small_encoder)
        for r in range(len(zs)):
            c, _, _ = _infer_one(
                task.test_ids, r, pool, task.class_templates, small_encoder, calibrate=False
            )
            assert c == zs[r]

    def test_infer_result_fields(self, trained, small_encoder):
        task, entry = trained
        pool = TaskPool(entries=[entry])
        cls, tsk, wts = infer_batch(task.test_ids[:1], pool, task.class_templates, small_encoder)
        assert cls.shape == tsk.shape == wts.shape == (1,)
        assert 0 <= cls[0] < len(task.class_templates)
        assert tsk[0] == 0
        assert 0.0 < wts[0] < 1.0


class TestInferBatch:
    def test_matches_per_sample_loop(self, small_stream, small_encoder):
        # Two-task pool, mixed batch from both tasks; the batch, its one-row
        # slices and the per-row oracle must agree on every decision.
        pool = TaskPool()
        cfg = dataclasses.replace(SMALL_CFG, epochs=2)
        for task in small_stream:
            adapters = train_one(
                task.train_ids,
                task.train_labels,
                task.class_templates,
                small_encoder,
                cfg,
                make_rng(cfg.seed, 7, task.index),
            )
            gaussian = estimate_task_stats(task.train_ids, small_encoder)
            pool.entries.append(PoolEntry(adapters=adapters, gaussian=gaussian))
        candidates = np.concatenate([task.class_templates for task in small_stream[:2]])
        ids = np.vstack([small_stream[0].test_ids[:6], small_stream[1].test_ids[:6]])
        cls, tsk, wts = infer_batch(ids, pool, candidates, small_encoder)
        oracle = _infer_rows(ids, pool, candidates, small_encoder)
        for i, (c, t, w) in enumerate(oracle):
            assert cls[i] == c
            assert tsk[i] == t
            assert wts[i] == pytest.approx(w, abs=1e-12)
            assert _infer_one(ids, i, pool, candidates, small_encoder) == (cls[i], tsk[i], wts[i])

    def test_rejects_non_2d(self, trained, small_encoder):
        task, entry = trained
        with pytest.raises(ShapeError):
            infer_batch(
                task.test_ids[0], TaskPool(entries=[entry]), task.class_templates, small_encoder
            )

    @pytest.mark.parametrize("logit_scale", [0.0, -1.0, float("nan")])
    def test_non_positive_logit_scale_rejected(self, trained, small_encoder, logit_scale):
        task, entry = trained
        with pytest.raises(ContractError):
            infer_batch(
                task.test_ids, TaskPool(entries=[entry]), task.class_templates, small_encoder,
                True, logit_scale,
            )


class TestRouteAndClassify:
    def test_templates_once_per_weight_match_per_sample_encoding(self, trained, small_encoder):
        # classify encodes the templates at each distinct w; the features
        # must equal, bit for bit, the per-(sample, class) tiled encoding.
        task, entry = trained
        template_ids = task.class_templates
        adapters = entry.adapters.text_adapters
        # Repeated weights spanning [0, 1], so decisions depend on which
        # weight each sample's templates were encoded at.
        ids = task.test_ids
        m, k = len(ids), len(template_ids)
        w = np.resize([0.0, 0.25, 0.5, 0.75, 1.0], m)
        tiled = encode(
            np.tile(template_ids, (m, 1)), small_encoder.text, adapters, np.repeat(w, k)
        ).reshape(m, k, -1)
        for s, ws in enumerate(w):
            once = encode(template_ids, small_encoder.text, adapters, np.full(k, ws))
            assert once.tobytes() == tiled[s].tobytes()
        feats = encode(ids, small_encoder.image, entry.adapters.image_adapters, w)
        expected = np.argmax(np.einsum("bd,bkd->bk", feats, tiled), axis=1)
        pool = TaskPool(entries=[entry])
        routed = np.zeros(m, dtype=np.int64)
        got = classify(ids, routed, w, pool, task.class_templates, small_encoder)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("kind", ["residual", "prepend"])
    def test_classify_is_row_independent(self, trained, trained_prepend, small_encoder, kind):
        # A row's decision must not depend on the other rows of its batch:
        # incremental evaluation keeps decisions made on a whole group, while
        # a fresh evaluation re-classifies whatever subset of it is still
        # routed there, down to one row.
        task, entry = trained if kind == "residual" else trained_prepend
        pool = TaskPool(entries=[entry], kind=kind)
        ids, classes = task.test_ids, task.class_templates
        scores = score_entries(encode(ids, small_encoder.image), pool.entries)
        task_idx, weights = route(scores, pool)
        full = classify(ids, task_idx, weights, pool, classes, small_encoder)
        sub = np.arange(0, len(ids), 3)
        part = classify(ids[sub], task_idx[sub], weights[sub], pool, classes, small_encoder)
        assert np.array_equal(part, full[sub])
        for r in range(len(ids)):
            one = classify(
                ids[r : r + 1], task_idx[r : r + 1], weights[r : r + 1], pool, classes, small_encoder
            )
            assert one[0] == full[r]

    @pytest.mark.parametrize("kind", ["residual", "prepend"])
    def test_classify_ties_break_alike_in_any_batch(
        self, trained, small_encoder, monkeypatch, kind
    ):
        # A palindromic feature scores a class embedding and its mirror image
        # the same in exact arithmetic, so the argmax rests on the order in
        # which the cosine product sums its terms. That order must not change
        # with the batch size (2-D BLAS matmuls fail this: gemv for one row,
        # gemm for more).
        task, entry = trained
        rng = np.random.default_rng(0)
        half = rng.normal(size=(60, 16))
        feats = np.concatenate([half, half[:, ::-1]], axis=1)
        t = rng.normal(size=32)
        text = np.stack([t, t[::-1]])

        def fake_encode(ids, stack, adapters=None, w=1.0):
            return feats[ids[:, 0]] if stack is small_encoder.image else text

        monkeypatch.setattr(learner, "encode", fake_encode)
        monkeypatch.setattr(learner, "class_embeddings", lambda *args, **kwargs: text)
        pool = TaskPool(entries=[entry], kind=kind)
        ids = np.arange(60)[:, None]
        routed, w = np.zeros(60, dtype=np.int64), np.ones(60)
        classes = task.class_templates[:2]
        full = classify(ids, routed, w, pool, classes, small_encoder)
        assert 0 < full.sum() < 60  # both tie-breaks occur
        for r in range(60):
            one = classify(ids[r : r + 1], routed[:1], w[:1], pool, classes, small_encoder)
            assert one[0] == full[r]

    def test_route_argmax_and_weights(self, trained):
        # Ties go to the lowest index; w is the gate at the winning score,
        # pinned to 1 without calibration and for prompt pools.
        _, entry = trained
        pool = TaskPool(entries=[entry, entry])
        scores = np.zeros((6, 2))
        scores[::2, 1] = 1.0
        task_idx, weights = route(scores, pool)
        assert np.array_equal(task_idx, [1, 0, 1, 0, 1, 0])
        assert np.array_equal(weights, calibration_weight_batch(np.array([1.0, 0, 1, 0, 1, 0])))
        _, pinned = route(scores, pool, calibrate=False)
        assert np.all(pinned == 1.0)
        _, pinned = route(scores, TaskPool(entries=[entry, entry], kind="prepend"))
        assert np.all(pinned == 1.0)

    def test_route_empty_pool_rejected(self, trained, small_encoder):
        task, _ = trained
        scores = score_entries(encode(task.test_ids, small_encoder.image), [])
        assert scores.shape == (len(task.test_ids), 0)
        with pytest.raises(ContractError):
            route(scores, TaskPool())


def _predict_per_weight(ids, adapters, weights, classes, enc):
    """predict's oracle: the templates encoded once per distinct weight.

    Returns each row's (K, d) text features and its decision.
    """
    image, text = (None, None) if adapters is None else (
        adapters.image_adapters, adapters.text_adapters
    )
    feats = encode(ids, enc.image, image, weights)
    w_unique, inverse = np.unique(weights, return_inverse=True)
    per_w = np.stack(
        [class_embeddings(classes, enc.text, text, np.full(len(classes), w)) for w in w_unique]
    )
    text_rows = per_w[inverse]
    return text_rows, np.argmax(np.einsum("bd,bkd->bk", feats, text_rows), axis=1)


# The gate's extremes: 0, 1, its clip floor (the smallest subnormal) and
# its ceiling (the largest double below 1).
EDGE_WEIGHTS = [0.0, 1.0, 5e-324, float(np.nextafter(1.0, 0.0))]


class TestPredictOneTextEncode:
    @staticmethod
    def _weights(distinct: int, m: int) -> np.ndarray:
        values = EDGE_WEIGHTS + list(np.linspace(0.01, 0.99, max(distinct - 4, 0)))
        w = np.resize(values[:distinct], m)
        return make_rng(0, 3, distinct).permutation(w)

    @pytest.mark.parametrize("kind", ["residual", "prepend", "none"])
    @pytest.mark.parametrize("distinct", [1, 2, 4, 64])
    def test_one_class_embeddings_call_equals_per_weight_oracle(
        self, trained, trained_prepend, small_encoder, monkeypatch, kind, distinct
    ):
        task, entry = trained_prepend if kind == "prepend" else trained
        adapters = None if kind == "none" else entry.adapters
        classes = task.class_templates
        ids = np.resize(task.test_ids, (96, task.test_ids.shape[1]))
        w = self._weights(distinct, len(ids))
        assert len(np.unique(w)) == distinct
        calls = []

        def counted(*args, **kwargs):
            out = class_embeddings(*args, **kwargs)
            calls.append(out)
            return out

        monkeypatch.setattr(learner, "class_embeddings", counted)
        got = predict(ids, adapters, w, classes, small_encoder)
        assert len(calls) == 1
        assert calls[0].shape == (distinct * len(classes), small_encoder.text.d)
        text_rows, expected = _predict_per_weight(ids, adapters, w, classes, small_encoder)
        _, inverse = np.unique(w, return_inverse=True)
        gathered = calls[0].reshape(distinct, len(classes), -1)[inverse]
        assert gathered.tobytes() == text_rows.tobytes()
        assert np.array_equal(got, expected)


class TestPrepend:
    def test_weight_pinned_regardless_of_calibration(self, small_stream, small_encoder):
        task = small_stream[0]
        cfg = dataclasses.replace(SMALL_CFG, epochs=1)
        adapters = train_one(
            task.train_ids,
            task.train_labels,
            task.class_templates,
            small_encoder,
            cfg,
            make_rng(0, 7, 0),
            mode=AdapterMode.parse("prepend"),
        )
        gaussian = estimate_task_stats(task.train_ids, small_encoder)
        pool = TaskPool(entries=[PoolEntry(adapters=adapters, gaussian=gaussian)], kind="prepend")
        for calibrate in (True, False):
            _, _, w = _infer_one(task.test_ids, 0, pool, task.class_templates, small_encoder, calibrate)
            assert w == 1.0
            cls, _, wts = infer_batch(
                task.test_ids[:4], pool, task.class_templates, small_encoder, calibrate
            )
            assert np.all(wts == 1.0)


class TestAttachments:
    def test_rejects_a_non_attachment(self):
        with pytest.raises(ContractError, match="unsupported attachment ndarray"):
            AdapterSet(image_adapters=(np.zeros((2, 4)),), text_adapters=())

    def test_rejects_mixed_shapes(self):
        a = Adapter(k_r=np.zeros((2, 4)), v_r=np.zeros((2, 4)))
        b = PromptBaseline(p=np.zeros((3, 4)))
        with pytest.raises(ShapeError, match=r"inconsistent attachment shapes \[\(2, 4\), \(3, 4\)\]"):
            AdapterSet(image_adapters=(a,), text_adapters=(b,))

    @pytest.mark.parametrize("kind", ["adapter", "prompt"])
    def test_sgd_step_moves_every_field_against_its_gradient(self, kind):
        rng = make_rng(4)
        att = (Adapter(rng.normal(size=(2, 4)), rng.normal(size=(2, 4))) if kind == "adapter"
               else PromptBaseline(rng.normal(size=(2, 4))))
        grads = [rng.normal(size=(2, 4)) for _ in vars(att)]
        (moved,) = learner._sgd_step([att], [grads], 0.5)
        assert type(moved) is type(att)
        for old, new, g in zip(vars(att).values(), vars(moved).values(), grads):
            assert np.array_equal(new, old - 0.5 * g)


class TestPoolIsolation:
    def test_earlier_entries_untouched_by_new_task(self, small_stream, small_encoder):
        # Learning a second task must not modify the first entry: adapters
        # and Gaussian stay bitwise identical.
        pool = TaskPool()
        snapshots = []
        cfg = dataclasses.replace(SMALL_CFG, epochs=2)
        for task in small_stream:
            adapters = train_one(
                task.train_ids,
                task.train_labels,
                task.class_templates,
                small_encoder,
                cfg,
                make_rng(cfg.seed, 7, task.index),
            )
            gaussian = estimate_task_stats(task.train_ids, small_encoder)
            pool.entries.append(PoolEntry(adapters=adapters, gaussian=gaussian))
            snapshots.append(
                (_adapter_bytes(adapters), gaussian.mu.tobytes(), gaussian.sigma.tobytes())
            )
        for entry, snap in zip(pool.entries, snapshots):
            assert _adapter_bytes(entry.adapters) == snap[0]
            assert entry.gaussian.mu.tobytes() == snap[1]
            assert entry.gaussian.sigma.tobytes() == snap[2]


class TestZeroShot:
    def test_beats_chance_on_stream(self, default_encoder):
        # Shared embedding table gives the frozen towers real alignment;
        # needs the full-width encoder to show, so this one runs at d=32.
        stream = gen_stream(
            StreamSpec(num_tasks=2, classes_per_task=4, samples_per_class=20, vocab=256)
        )
        hits = total = 0
        for task in stream:
            hits += int((_zero_shot(task.test_ids, task.class_templates, default_encoder) == task.test_labels).sum())
            total += len(task.test_labels)
        assert hits / total > 1.0 / len(stream[0].class_templates)
