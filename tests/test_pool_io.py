"""Pool persistence: bit-exact hex round trips and format rejection."""

import dataclasses
import json

import numpy as np
import pytest

from resadapt.backbone import EncoderSpec
from resadapt.bench.stream import StreamSpec, gen_stream
from resadapt.errors import ConfigError
from resadapt.learner import (
    AdapterMode,
    PoolEntry,
    TaskPool,
    TrainConfig,
    estimate_task_stats,
    infer_batch,
    train_task,
)
from resadapt.numkernel import make_rng
from resadapt.pool_io import load_pool, save_pool

ENC_SPEC = EncoderSpec(vocab=64, d=8, depth=2, seed=0)
CFG = TrainConfig(lr0=5.0, epochs=2, batch=16, prompt_len=4, adapter_depth=2, seed=0)


def build_pool(enc, mode_text="iki", kind="residual") -> tuple[TaskPool, list]:
    stream = gen_stream(
        StreamSpec(num_tasks=2, classes_per_task=2, samples_per_class=20, vocab=64)
    )
    pool = TaskPool(kind=kind)
    mode = AdapterMode.parse(mode_text)
    # Both tasks train as one lockstep group.
    adapter_sets = train_task(
        np.stack([task.train_ids for task in stream]),
        np.stack([task.train_labels for task in stream]),
        np.stack([task.class_templates for task in stream]),
        enc,
        CFG,
        [make_rng(CFG.seed, 7, task.index) for task in stream],
        mode=mode,
    )
    for task, adapters in zip(stream, adapter_sets):
        pool.entries.append(
            PoolEntry(adapters=adapters, gaussian=estimate_task_stats(task.train_ids, enc))
        )
    return pool, stream


@pytest.fixture(scope="module")
def residual_pool(small_encoder):
    return build_pool(small_encoder)


class TestRoundTrip:
    def test_bit_exact_arrays(self, residual_pool, tmp_path):
        pool, _ = residual_pool
        path = tmp_path / "pool.json"
        save_pool(pool, path, ENC_SPEC)
        loaded, enc_spec = load_pool(path)
        assert enc_spec == ENC_SPEC
        assert loaded.kind == pool.kind
        assert len(loaded) == len(pool)
        for a, b in zip(pool.entries, loaded.entries):
            for x, y in zip(
                a.adapters.image_adapters + a.adapters.text_adapters,
                b.adapters.image_adapters + b.adapters.text_adapters,
            ):
                assert x.k_r.tobytes() == y.k_r.tobytes()
                assert x.v_r.tobytes() == y.v_r.tobytes()
            assert a.gaussian.mu.tobytes() == b.gaussian.mu.tobytes()
            assert a.gaussian.sigma.tobytes() == b.gaussian.sigma.tobytes()
            assert a.gaussian.ridge == b.gaussian.ridge
            # The factor and log-determinant are recomputed on load and
            # equal the fitted ones exactly.
            assert a.gaussian.chol.tobytes() == b.gaussian.chol.tobytes()
            assert a.gaussian.logdet == b.gaussian.logdet

    def test_entry_holds_only_adapters_and_gaussian(self, residual_pool, tmp_path):
        pool, _ = residual_pool
        path = tmp_path / "pool.json"
        save_pool(pool, path, ENC_SPEC)
        doc = json.loads(path.read_text())
        assert doc["version"] == 2
        for e in doc["entries"]:
            assert set(e) == {"image_adapters", "text_adapters", "gaussian"}
            assert set(e["gaussian"]) == {"mu", "sigma", "ridge"}

    def test_loaded_pool_decides_identically(self, residual_pool, small_encoder, tmp_path):
        # Functional round trip: the reloaded pool must reproduce every
        # inference decision, weight included, exactly.
        pool, stream = residual_pool
        path = tmp_path / "pool.json"
        save_pool(pool, path, ENC_SPEC)
        loaded, _ = load_pool(path)
        candidates = np.concatenate([stream[0].class_templates, stream[1].class_templates])
        ids = np.vstack([task.test_ids for task in stream])
        for a, b in zip(
            infer_batch(ids, pool, candidates, small_encoder),
            infer_batch(ids, loaded, candidates, small_encoder),
        ):
            assert a.tobytes() == b.tobytes()

    def test_prepend_pool_round_trip(self, small_encoder, tmp_path):
        pool, _ = build_pool(small_encoder, mode_text="prepend", kind="prepend")
        path = tmp_path / "prompts.json"
        save_pool(pool, path, ENC_SPEC)
        loaded, _ = load_pool(path)
        assert loaded.kind == "prepend"
        for a, b in zip(pool.entries, loaded.entries):
            for x, y in zip(a.adapters.image_adapters, b.adapters.image_adapters):
                assert x.p.tobytes() == y.p.tobytes()

    def test_save_is_deterministic(self, residual_pool, tmp_path):
        pool, _ = residual_pool
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_pool(pool, p1, ENC_SPEC)
        save_pool(pool, p2, ENC_SPEC)
        assert p1.read_bytes() == p2.read_bytes()

    def test_double_round_trip_stable(self, residual_pool, tmp_path):
        # save -> load -> save must give byte-identical files.
        pool, _ = residual_pool
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_pool(pool, p1, ENC_SPEC)
        loaded, enc_spec = load_pool(p1)
        save_pool(loaded, p2, enc_spec)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_pool_round_trips(self, tmp_path):
        path = tmp_path / "empty.json"
        save_pool(TaskPool(), path, ENC_SPEC)
        loaded, _ = load_pool(path)
        assert len(loaded) == 0 and loaded.kind == "residual"


class TestRejection:
    def _tamper(self, residual_pool, tmp_path, mutate):
        pool, _ = residual_pool
        path = tmp_path / "pool.json"
        save_pool(pool, path, ENC_SPEC)
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as exc:
            load_pool(path)
        return str(exc.value)

    def test_wrong_format(self, residual_pool, tmp_path):
        self._tamper(residual_pool, tmp_path, lambda d: d.update(format="other"))

    def test_wrong_version(self, residual_pool, tmp_path):
        self._tamper(residual_pool, tmp_path, lambda d: d.update(version=99))

    def test_version_1_rejected(self, residual_pool, tmp_path):
        message = self._tamper(residual_pool, tmp_path, lambda d: d.update(version=1))
        assert "unsupported pool version 1" in message

    @pytest.mark.parametrize(
        "where,value",
        [
            (("gaussian", "mu"), "nan"),
            (("gaussian", "sigma"), "inf"),
            (("image_adapters", 0, "v_r"), "inf"),
            (("text_adapters", 1, "k_r"), "-inf"),
        ],
    )
    def test_non_finite_value(self, residual_pool, tmp_path, where, value):
        def poison(doc):
            obj = doc["entries"][0]
            for key in where:
                obj = obj[key]
            obj["data"][0] = value

        message = self._tamper(residual_pool, tmp_path, poison)
        assert "non-finite" in message and "pool.json" in message

    @pytest.mark.parametrize("ridge", [0.0, -1e-7, float("inf"), float("nan")])
    def test_ridge_not_finite_positive(self, residual_pool, tmp_path, ridge):
        def set_ridge(doc):
            doc["entries"][0]["gaussian"]["ridge"] = ridge.hex()

        message = self._tamper(residual_pool, tmp_path, set_ridge)
        assert "ridge" in message

    def test_unknown_kind(self, residual_pool, tmp_path):
        self._tamper(residual_pool, tmp_path, lambda d: d.update(kind="banana"))

    def test_missing_encoder(self, residual_pool, tmp_path):
        self._tamper(residual_pool, tmp_path, lambda d: d.pop("encoder"))

    def test_matrix_payload_mismatch(self, residual_pool, tmp_path):
        def chop(doc):
            doc["entries"][0]["gaussian"]["sigma"]["data"].pop()

        self._tamper(residual_pool, tmp_path, chop)

    def test_missing_entries(self, residual_pool, tmp_path):
        self._tamper(residual_pool, tmp_path, lambda d: d.pop("entries"))

    def test_entry_missing_gaussian(self, residual_pool, tmp_path):
        self._tamper(residual_pool, tmp_path, lambda d: d["entries"][0].pop("gaussian"))

    def test_entries_not_a_list_of_objects(self, residual_pool, tmp_path):
        self._tamper(residual_pool, tmp_path, lambda d: d.update(entries=[1]))

    def test_covariance_not_positive_definite(self, residual_pool, tmp_path):
        def zero(doc):
            sigma = doc["entries"][0]["gaussian"]["sigma"]
            sigma["data"] = [(0.0).hex()] * len(sigma["data"])

        self._tamper(residual_pool, tmp_path, zero)

    def test_document_not_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        with pytest.raises(ConfigError):
            load_pool(path)

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{]")
        with pytest.raises(ConfigError):
            load_pool(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_pool(tmp_path / "absent.json")
