"""Synthetic stream generator: determinism, composition, and persistence."""

import dataclasses
import json

import numpy as np
import pytest

from resadapt.backbone import TEMPLATE_PREFIX, encode
from resadapt.bench.stream import (
    StreamSpec,
    _sample_counts,
    _windows,
    gen_stream,
    load_stream,
    save_stream,
)
from resadapt.errors import ConfigError
from resadapt.learner import AdapterSet, PoolEntry, score_entries
from resadapt.taskdist import fit_gaussian

SMALL = StreamSpec(num_tasks=2, classes_per_task=2, samples_per_class=20, vocab=64)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_tasks": 0},
            {"classes_per_task": 0},
            {"samples_per_class": 0},
            {"samples_per_class": 4},
            {"seq_len": 3},
            {"domain_shift": -0.5},
            {"seed": -1},
            {"vocab": 12},
        ],
    )
    def test_bad_spec_rejected(self, kwargs):
        base = dict(num_tasks=2, classes_per_task=2, samples_per_class=20, vocab=64)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            StreamSpec(**base)

    def test_defaults_valid(self):
        spec = StreamSpec()
        assert spec.num_tasks == 5 and spec.vocab == 256

    def test_oversized_shift_rejected_at_generation(self):
        with pytest.raises(ConfigError):
            gen_stream(dataclasses.replace(SMALL, domain_shift=10.0))


class TestSampleCounts:
    @pytest.mark.parametrize("seq_len", range(4, 33))
    def test_partition_sums_to_seq_len(self, seq_len):
        n_anchor, n_salt, n_class, n_free = _sample_counts(seq_len)
        assert n_anchor + n_salt + n_class + n_free == seq_len
        assert n_anchor >= 1 and n_salt >= 1 and n_class >= 1 and n_free >= 0

    def test_default_seq_len_partition(self):
        # At the default length of 8: 3 anchors, 4 salt, 1 class draw.
        assert _sample_counts(8) == (3, 4, 1, 0)


class TestGeneration:
    def test_deterministic(self):
        a, b = gen_stream(SMALL), gen_stream(SMALL)
        for ta, tb in zip(a, b):
            assert ta.train_ids.tobytes() == tb.train_ids.tobytes()
            assert ta.test_ids.tobytes() == tb.test_ids.tobytes()
            assert ta.train_labels.tobytes() == tb.train_labels.tobytes()

    def test_seed_changes_data(self):
        a = gen_stream(SMALL)
        b = gen_stream(dataclasses.replace(SMALL, seed=1))
        assert a[0].train_ids.tobytes() != b[0].train_ids.tobytes()

    def test_shapes_and_split_sizes(self):
        stream = gen_stream(SMALL)
        assert len(stream) == 2
        for task in stream:
            n = SMALL.classes_per_task * SMALL.samples_per_class
            assert task.train_ids.shape == (round(0.8 * n), SMALL.seq_len)
            assert task.test_ids.shape == (n - round(0.8 * n), SMALL.seq_len)

    def test_split_balanced_per_class(self):
        for task in gen_stream(SMALL):
            for c in range(SMALL.classes_per_task):
                assert int((task.train_labels == c).sum()) == 16
                assert int((task.test_labels == c).sum()) == 4

    def test_class_tokens_disjoint_across_tasks(self):
        stream = gen_stream(SMALL)
        seen = set()
        for task in stream:
            tokens = {c.class_token for c in task.class_templates}
            assert not (tokens & seen)
            seen |= tokens
        assert min(seen) == len(TEMPLATE_PREFIX)

    def test_every_sample_carries_its_class_token(self):
        for task in gen_stream(SMALL):
            for ids, lab in zip(task.train_ids, task.train_labels):
                assert task.class_templates[lab].class_token in ids

    def test_salt_block_identical_within_task(self):
        # The fixed salt ids appear in full in every sample of the task.
        base, starts, _ = _windows(SMALL)
        _, n_salt, _, _ = _sample_counts(SMALL.seq_len)
        for task in gen_stream(SMALL):
            salt = set(range(base + starts[task.index], base + starts[task.index] + n_salt))
            for ids in np.vstack([task.train_ids, task.test_ids]):
                assert salt <= set(ids.tolist())

    def test_tokens_within_vocab_and_own_window(self):
        base, starts, width = _windows(SMALL)
        for task in gen_stream(SMALL):
            lo = base + starts[task.index]
            own = set(range(lo, lo + width))
            own |= {c.class_token for c in task.class_templates}
            all_ids = np.vstack([task.train_ids, task.test_ids])
            assert all_ids.min() >= 0 and all_ids.max() < SMALL.vocab
            assert set(all_ids.ravel().tolist()) <= own

    def test_zero_shift_collapses_windows(self):
        # domain_shift=0 puts every task in the same token window, so the
        # only cross-task difference left is the class tokens.
        spec = dataclasses.replace(SMALL, domain_shift=0.0)
        base, starts, _ = _windows(spec)
        assert starts == [0, 0]

    def test_shift_spreads_window_starts(self):
        _, near, _ = _windows(dataclasses.replace(StreamSpec(), domain_shift=0.5))
        _, far, _ = _windows(StreamSpec())
        assert far[1] - far[0] > near[1] - near[0]


def _assignment_accuracy(stream, enc) -> float:
    """Held-out task assignment by per-task Gaussians fit on train features."""
    entries = [
        PoolEntry(AdapterSet((), ()), fit_gaussian(encode(t.train_ids, enc.image)))
        for t in stream
    ]
    correct = total = 0
    for j, task in enumerate(stream):
        scores = score_entries(encode(task.test_ids, enc.image), entries)
        correct += int((np.argmax(scores, axis=1) == j).sum())
        total += len(task.test_ids)
    return correct / total


class TestSeparationReport:
    # Generator self-check on frozen features: each task's test split is
    # assigned to its own task's Gaussian.
    def test_small_stream_separates(self, small_encoder):
        assert _assignment_accuracy(gen_stream(SMALL), small_encoder) >= 0.95

    def test_single_task_report(self, small_encoder):
        spec = dataclasses.replace(SMALL, num_tasks=1)
        assert _assignment_accuracy(gen_stream(spec), small_encoder) == 1.0


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        stream = gen_stream(SMALL)
        path = tmp_path / "stream.json"
        save_stream(SMALL, stream, path)
        spec2, stream2 = load_stream(path)
        assert spec2 == SMALL
        for a, b in zip(stream, stream2):
            assert a.index == b.index
            assert a.train_ids.tobytes() == b.train_ids.tobytes()
            assert a.train_labels.tobytes() == b.train_labels.tobytes()
            assert a.test_ids.tobytes() == b.test_ids.tobytes()
            assert a.test_labels.tobytes() == b.test_labels.tobytes()
            assert a.class_templates == b.class_templates

    def test_save_is_deterministic(self, tmp_path):
        stream = gen_stream(SMALL)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_stream(SMALL, stream, p1)
        save_stream(SMALL, stream, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else", "version": 1}))
        with pytest.raises(ConfigError):
            load_stream(path)

    def test_rejects_wrong_version(self, tmp_path):
        stream = gen_stream(SMALL)
        path = tmp_path / "v2.json"
        save_stream(SMALL, stream, path)
        doc = json.loads(path.read_text())
        doc["version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_stream(path)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("tasks"),
            lambda d: d.pop("spec"),
            lambda d: d["spec"].update(bogus=1),
            lambda d: d["tasks"][0].pop("test_ids"),
            lambda d: d.update(tasks=[7]),
        ],
        ids=["no-tasks", "no-spec", "unknown-spec-key", "task-missing-field", "task-not-object"],
    )
    def test_rejects_malformed_body(self, tmp_path, mutate):
        path = tmp_path / "stream.json"
        save_stream(SMALL, gen_stream(SMALL), path)
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_stream(path)

    def test_rejects_document_not_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        with pytest.raises(ConfigError):
            load_stream(path)

    def test_rejects_corrupt_json(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_stream(path)

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_stream(tmp_path / "absent.json")
