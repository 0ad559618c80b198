"""CLI subcommands, exit codes, and end-to-end determinism."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from resadapt.backbone import EncoderSpec
from resadapt.bench.cli import main
from resadapt.bench.verify import VerifyReport
from resadapt.learner import TaskPool
from resadapt.pool_io import save_pool

TINY_CFG = """\
lr0 = 5.0
epochs = 2
batch = 16
prompt_len = 4
adapter_depth = 2
num_tasks = 2
classes_per_task = 2
samples_per_class = 20
vocab = 64
embed_dim = 8
depth = 2
"""

SMALL_CFG = Path(__file__).resolve().parent.parent / "configs" / "small.cfg"

# sha256(grid.csv + summary.csv) of `resadapt run --config configs/small.cfg`,
# recorded before checkpoint evaluation became incremental. A speed change
# that alters any decision changes these bytes.
SMALL_RUN_DIGESTS = {
    "iki": "f0ad1da38504d65a7bb137dd0802597086f36ab9ec5d75a07c2b88c04743ccb2",
    "prepend": "4f5ad05865e9dec98f4d14ed6b4a605801585cdce208ffd1d236fbc7394c0ec3",
}

# The same digest of `resadapt run --config configs/default.cfg`, the pinned
# desk-scale experiment that perfbench's default and prepend workloads run.
DEFAULT_RUN_DIGESTS = {
    "iki": "644b3478cea4510af94966c00f12889e1afff8b234f1d517adae7d15b10bf8c6",
    "prepend": "76464f548969bbfce6909357b2981cabc67b9bf08ea1d2882b607f5368be6b41",
}

# sha256 of the stream.json that `resadapt run` writes (the same for every
# mode), and that `gen-tasks` writes for the same spec: pins the version-1
# stream layout, byte for byte, across commits.
STREAM_FILE_DIGESTS = {
    "small": "46bcedbba324e839dc99557b204ce04b83c9e253840e8d6b47cf27b2b3a3b230",
    "default": "be9b47423e1644fb98919825f5dbc13b95d25861cbbc2124a38940814cfdb273",
}

# One full batch per epoch at a learning rate that trains huge but finite
# adapters in one step.
HUGE_LR_CFG = """\
lr0 = 1e300
batch = 64
num_tasks = 2
classes_per_task = 2
samples_per_class = 10
vocab = 64
embed_dim = 8
"""

GEN_ARGS = ["gen-tasks", "--seed", "0", "--tasks", "2", "--classes", "2",
            "--samples", "20", "--vocab", "64"]


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return path


@pytest.fixture()
def stream_dir(tmp_path):
    out = tmp_path / "tasks"
    assert main(GEN_ARGS + ["--out", str(out)]) == 0
    return out


@pytest.fixture()
def pool_file(tmp_path, cfg_file, stream_dir):
    out = tmp_path / "pool.json"
    code = main(["train", "--config", str(cfg_file), "--tasks", str(stream_dir),
                 "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture()
def prepend_pool_file(tmp_path, cfg_file, stream_dir):
    out = tmp_path / "prompts.json"
    code = main(["train", "--config", str(cfg_file), "--tasks", str(stream_dir),
                 "--mode", "prepend", "--out", str(out)])
    assert code == 0
    return out


class TestGenTasks:
    def test_writes_stream_json(self, stream_dir):
        assert (stream_dir / "stream.json").is_file()

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(GEN_ARGS + ["--out", str(a)]) == 0
        assert main(GEN_ARGS + ["--out", str(b)]) == 0
        assert (a / "stream.json").read_bytes() == (b / "stream.json").read_bytes()

    @pytest.mark.parametrize("name,flags", [
        # The optional flags omitted: each keeps StreamSpec's default.
        ("small", ["--seed", "0", "--tasks", "3", "--classes", "2", "--samples", "40"]),
        ("default", ["--seed", "0", "--tasks", "5", "--classes", "4", "--samples", "200",
                     "--seq-len", "8", "--vocab", "256", "--domain-shift", "1.0"]),
    ])
    def test_stream_file_pinned(self, tmp_path, name, flags):
        assert main(["gen-tasks", *flags, "--out", str(tmp_path)]) == 0
        data = (tmp_path / "stream.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == STREAM_FILE_DIGESTS[name]

    def test_non_finite_domain_shift_exits_2(self, tmp_path, capsys):
        code = main(GEN_ARGS + ["--domain-shift", "nan", "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "domain_shift" in err and len(err.strip().splitlines()) == 1

    def test_impossible_spec_exits_2(self, tmp_path, capsys):
        args = ["gen-tasks", "--seed", "0", "--tasks", "2", "--classes", "2",
                "--samples", "20", "--vocab", "12", "--out", str(tmp_path / "x")]
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen-tasks", "--seed", "0"])
        assert exc.value.code == 2


class TestTrain:
    def test_writes_pool(self, pool_file):
        assert pool_file.is_file()

    def test_missing_stream_exits_2(self, tmp_path, cfg_file):
        code = main(["train", "--config", str(cfg_file), "--tasks",
                     str(tmp_path / "nowhere"), "--out", str(tmp_path / "p.json")])
        assert code == 2

    def test_unknown_config_key_exits_2(self, tmp_path, stream_dir):
        bad = tmp_path / "bad.cfg"
        bad.write_text("momentum = 0.9\n")
        code = main(["train", "--config", str(bad), "--tasks", str(stream_dir),
                     "--out", str(tmp_path / "p.json")])
        assert code == 2

    def test_bad_mode_exits_2(self, tmp_path, cfg_file, stream_dir):
        code = main(["train", "--config", str(cfg_file), "--tasks", str(stream_dir),
                     "--mode", "bogus", "--out", str(tmp_path / "p.json")])
        assert code == 2

    def test_trains_without_evaluating(self, tmp_path, cfg_file, stream_dir, monkeypatch):
        # The pool is train's only output; no accuracy matrix is filled.
        import resadapt.bench.continual as continual

        calls = []
        real = continual.evaluate_task
        monkeypatch.setattr(
            continual, "evaluate_task", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        code = main(["train", "--config", str(cfg_file), "--tasks", str(stream_dir),
                     "--out", str(tmp_path / "p.json")])
        assert code == 0 and calls == []

    def test_pool_matches_run(self, tmp_path, cfg_file):
        run_dir = tmp_path / "run"
        assert main(["run", "--config", str(cfg_file), "--out", str(run_dir)]) == 0
        out = tmp_path / "p.json"
        code = main(["train", "--config", str(cfg_file), "--tasks", str(run_dir),
                     "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == (run_dir / "pool.json").read_bytes()


class TestEval:
    def test_writes_csvs(self, tmp_path, stream_dir, pool_file):
        out = tmp_path / "eval"
        code = main(["eval", "--pool", str(pool_file), "--tasks", str(stream_dir),
                     "--out", str(out)])
        assert code == 0
        assert (out / "grid.csv").is_file() and (out / "summary.csv").is_file()

    def test_calibrate_off_accepted(self, tmp_path, stream_dir, pool_file):
        code = main(["eval", "--pool", str(pool_file), "--tasks", str(stream_dir),
                     "--calibrate", "off", "--out", str(tmp_path / "e")])
        assert code == 0

    def test_mode_flag_rejected(self, tmp_path, stream_dir, pool_file):
        # The pool file stores its kind; no flag restates it.
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--pool", str(pool_file), "--tasks", str(stream_dir),
                  "--mode", "iki", "--out", str(tmp_path / "e")])
        assert exc.value.code == 2

    def test_prepend_pool_evaluates_without_flag(self, tmp_path, stream_dir, prepend_pool_file):
        out = tmp_path / "e"
        code = main(["eval", "--pool", str(prepend_pool_file), "--tasks", str(stream_dir),
                     "--out", str(out)])
        assert code == 0
        assert (out / "grid.csv").is_file()

    def test_pool_kind_mismatch_exits_2(
        self, tmp_path, stream_dir, pool_file, prepend_pool_file, capsys
    ):
        # A pool relabelled as the other kind holds the wrong attachments.
        for path, other in ((pool_file, "prepend"), (prepend_pool_file, "residual")):
            doc = json.loads(path.read_text())
            doc["kind"] = other
            bad = tmp_path / f"as_{other}.json"
            bad.write_text(json.dumps(doc))
            capsys.readouterr()
            code = main(["eval", "--pool", str(bad), "--tasks", str(stream_dir),
                         "--out", str(tmp_path / "e")])
            assert code == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and f"a {other} pool's attachments hold" in err[0], err

    def test_empty_pool_exits_2(self, tmp_path, stream_dir):
        empty = tmp_path / "empty.json"
        save_pool(TaskPool(), empty, EncoderSpec(vocab=64, d=8, depth=2, seed=0))
        code = main(["eval", "--pool", str(empty), "--tasks", str(stream_dir),
                     "--out", str(tmp_path / "e")])
        assert code == 2

    def test_vocab_mismatch_exits_2(self, tmp_path, pool_file):
        other = tmp_path / "other"
        assert main(["gen-tasks", "--seed", "0", "--tasks", "2", "--classes", "2",
                     "--samples", "20", "--vocab", "128", "--out", str(other)]) == 0
        code = main(["eval", "--pool", str(pool_file), "--tasks", str(other),
                     "--out", str(tmp_path / "e")])
        assert code == 2

    def test_missing_pool_file_exits_2(self, tmp_path, stream_dir):
        code = main(["eval", "--pool", str(tmp_path / "absent.json"),
                     "--tasks", str(stream_dir), "--out", str(tmp_path / "e")])
        assert code == 2

    def test_pool_without_entries_exits_2(self, tmp_path, stream_dir, pool_file, capsys):
        doc = json.loads(pool_file.read_text())
        del doc["entries"]
        bad = tmp_path / "no_entries.json"
        bad.write_text(json.dumps(doc))
        code = main(["eval", "--pool", str(bad), "--tasks", str(stream_dir),
                     "--out", str(tmp_path / "e")])
        assert code == 2
        err = capsys.readouterr().err
        assert "entries" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "where,value", [(("gaussian", "mu"), "nan"), (("image_adapters", 0, "v_r"), "inf")]
    )
    def test_non_finite_pool_value_exits_2(
        self, tmp_path, stream_dir, pool_file, capsys, where, value
    ):
        doc = json.loads(pool_file.read_text())
        obj = doc["entries"][0]
        for key in where:
            obj = obj[key]
        obj["data"][0] = value
        bad = tmp_path / "poisoned.json"
        bad.write_text(json.dumps(doc))
        code = main(["eval", "--pool", str(bad), "--tasks", str(stream_dir),
                     "--out", str(tmp_path / "e")])
        assert code == 2
        err = capsys.readouterr().err
        assert "poisoned.json" in err and "non-finite" in err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    def test_version_1_pool_exits_2(self, tmp_path, stream_dir, pool_file, capsys):
        doc = json.loads(pool_file.read_text())
        doc["version"] = 1
        old = tmp_path / "v1.json"
        old.write_text(json.dumps(doc))
        code = main(["eval", "--pool", str(old), "--tasks", str(stream_dir),
                     "--out", str(tmp_path / "e")])
        assert code == 2
        err = capsys.readouterr().err
        assert "unsupported pool version 1" in err and len(err.strip().splitlines()) == 1

    def test_logit_scale_flag_rejected(self, tmp_path, stream_dir, pool_file):
        # The decision is an argmax of cosines, which no scale changes.
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--pool", str(pool_file), "--tasks", str(stream_dir),
                  "--logit-scale", "-5", "--out", str(tmp_path / "e")])
        assert exc.value.code == 2

    def test_stream_without_tasks_exits_2(self, tmp_path, stream_dir, pool_file, capsys):
        doc = json.loads((stream_dir / "stream.json").read_text())
        del doc["tasks"]
        bad = tmp_path / "bad_stream"
        bad.mkdir()
        (bad / "stream.json").write_text(json.dumps(doc))
        code = main(["eval", "--pool", str(pool_file), "--tasks", str(bad),
                     "--out", str(tmp_path / "e")])
        assert code == 2
        err = capsys.readouterr().err
        assert "tasks" in err and len(err.strip().splitlines()) == 1


def _set_first(key, value):
    def mutate(doc):
        doc["tasks"][0][key][0] = value
    return mutate


def _set_first_id(value):
    def mutate(doc):
        doc["tasks"][0]["train_ids"][0][0] = value
    return mutate


# Each mutation of a stored stream that loading used to accept (or, for
# string-domain-shift, rejected without naming the field): the stream's data
# no longer matches its spec, or a spec value is not of its field's type.
STREAM_MUTATIONS = {
    "label-outside-classes": (_set_first("test_labels", 7), "test_labels must lie in [0, 2)"),
    "float-token-id": (_set_first_id(1.5), "train_ids must be a list of integer rows"),
    "rows-shorter-than-seq-len": (
        lambda d: d["spec"].update(seq_len=12), "rows have length 8, spec seq_len is 12"
    ),
    "duplicate-task-index": (
        lambda d: d["tasks"][1].update(index=0), "task indices must be 0..1 in order"
    ),
    "out-of-vocab-train-row": (_set_first_id(64), "train_ids must lie in [0, 64)"),
    "unlabelled-train-row": (
        lambda d: d["tasks"][0]["train_labels"].pop(), "train_labels for"
    ),
    "foreign-template-prefix": (
        lambda d: d["tasks"][1]["class_templates"][0].update(prefix=[0, 1, 3]),
        "template prefix must be (0, 1, 2)",
    ),
    "float-vocab": (
        lambda d: d["spec"].update(vocab=64.0), "stream spec vocab needs an integer, got 64.0"
    ),
    "bool-seed": (lambda d: d["spec"].update(seed=True), "stream spec seed needs an integer, got True"),
    "string-domain-shift": (
        lambda d: d["spec"].update(domain_shift="1"), "stream spec domain_shift needs a number, got '1'"
    ),
}


class TestStreamBoundary:
    @pytest.mark.parametrize("name", sorted(STREAM_MUTATIONS))
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_mutated_stream_exits_2(
        self, tmp_path, cfg_file, stream_dir, pool_file, capsys, name, command
    ):
        mutate, message = STREAM_MUTATIONS[name]
        doc = json.loads((stream_dir / "stream.json").read_text())
        mutate(doc)
        bad = tmp_path / "bad_stream"
        bad.mkdir()
        (bad / "stream.json").write_text(json.dumps(doc))
        capsys.readouterr()
        if command == "train":
            args = ["train", "--config", str(cfg_file), "--out", str(tmp_path / "p.json")]
        else:
            args = ["eval", "--pool", str(pool_file), "--out", str(tmp_path / "e")]
        assert main(args + ["--tasks", str(bad)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and message in err[0], err


    @pytest.mark.parametrize("command", ["train", "eval"])
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_any_one_value_mutation_exits_0_or_2(
        self, tmp_path, cfg_file, stream_dir, pool_file, capsys, command, data
    ):
        # One JSON value anywhere in the stream replaced by another: train
        # and eval either accept the file or exit 2 with one stderr line.
        doc = json.loads((stream_dir / "stream.json").read_text())
        path = data.draw(st.sampled_from(list(_json_paths(doc))))
        value = data.draw(st.sampled_from(FUZZ_VALUES))
        doc = _replaced(doc, path, value)
        bad = tmp_path / "fuzzed"
        bad.mkdir(exist_ok=True)
        (bad / "stream.json").write_text(json.dumps(doc))
        capsys.readouterr()
        if command == "train":
            args = ["train", "--config", str(cfg_file), "--out", str(tmp_path / "p.json")]
        else:
            args = ["eval", "--pool", str(pool_file), "--out", str(tmp_path / "e")]
        code = main(args + ["--tasks", str(bad)])
        err = capsys.readouterr().err.strip().splitlines()
        assert code in (0, 2) and len(err) <= (code == 2), (path, value, code, err)


FUZZ_VALUES = [
    0, 1, -1, 7, 64, 2**70, 1.5, -0.0, 1e308, "x", None, True, [], [1], [[1]], {}, 64.0, 8.0,
    2.0, 0.0,
]


def _json_paths(doc, path=()):
    """The path of every value in doc, lists sampled at their first and last item."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _json_paths(value, path + (key,))
    elif isinstance(doc, list) and doc:
        for i in sorted({0, len(doc) - 1}):
            yield from _json_paths(doc[i], path + (i,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _set_encoder(**fields):
    def mutate(doc):
        doc["encoder"].update(fields)
    return mutate


def _set_entry(key, value):
    def mutate(doc):
        doc["entries"][0][key] = value
    return mutate


def _set_gaussian(part, **fields):
    def mutate(doc):
        doc["entries"][0]["gaussian"][part].update(fields)
    return mutate


# Each mutation of a stored pool that loading used to accept, or died on
# with a traceback: the entries no longer match the encoder record.
POOL_MUTATIONS = {
    "huge-embed-dim": (_set_encoder(embed_dim=2**70), "above the cap of 16777216"),
    "huge-depth": (_set_encoder(depth=10**9), "above the cap of 16777216"),
    "no-text-adapters": (_set_entry("text_adapters", []), "2 image and 0 text attachments"),
    "more-attachments-than-layers": (_set_encoder(depth=1), "up to the encoder depth 1"),
    "wider-encoder": (_set_encoder(embed_dim=16), "widths [8] are not the encoder's embed_dim 16"),
    "narrow-gaussian": (
        _set_entry("gaussian", {"mu": {"len": 1, "data": ["0x0.0p+0"]},
                                "sigma": {"rows": 1, "cols": 1, "data": ["0x1.0p+0"]},
                                "ridge": "0x1.0p-20"}),
        "widths [1, 8] are not the encoder's embed_dim 8",
    ),
    "fractional-embed-dim": (
        _set_encoder(embed_dim=8.5), "pool encoder embed_dim needs an integer, got 8.5"
    ),
    "fractional-vocab": (_set_encoder(vocab=64.9), "pool encoder vocab needs an integer, got 64.9"),
    "float-depth": (_set_encoder(depth=2.0), "pool encoder depth needs an integer, got 2.0"),
    "string-seed": (_set_encoder(seed="0"), "pool encoder seed needs an integer, got '0'"),
    # Payload sizes that int() would match to the 8 stored values.
    "fractional-mu-len": (_set_gaussian("mu", len=8.5), "pool vector len needs an integer, got 8.5"),
    "string-mu-len": (_set_gaussian("mu", len="8"), "pool vector len needs an integer, got '8'"),
    "float-sigma-rows": (
        _set_gaussian("sigma", rows=8.0), "pool matrix rows needs an integer, got 8.0"
    ),
}


class TestPoolBoundary:
    @pytest.mark.parametrize("name", sorted(POOL_MUTATIONS))
    def test_mutated_pool_exits_2(self, tmp_path, stream_dir, pool_file, capsys, name):
        mutate, message = POOL_MUTATIONS[name]
        doc = json.loads(pool_file.read_text())
        mutate(doc)
        bad = tmp_path / "bad_pool.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["eval", "--pool", str(bad), "--tasks", str(stream_dir),
                     "--out", str(tmp_path / "e")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and message in err[0], err

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_any_one_value_mutation_exits_0_or_2(
        self, tmp_path, stream_dir, pool_file, prepend_pool_file, capsys, data
    ):
        # One JSON value anywhere in a residual or prepend pool replaced by
        # another: eval either accepts the file or exits 2 with one stderr line.
        source = data.draw(st.sampled_from([pool_file, prepend_pool_file]))
        doc = json.loads(source.read_text())
        path = data.draw(st.sampled_from(list(_json_paths(doc))))
        value = data.draw(st.sampled_from(FUZZ_VALUES))
        bad = tmp_path / "fuzzed.json"
        bad.write_text(json.dumps(_replaced(doc, path, value)))
        capsys.readouterr()
        code = main(["eval", "--pool", str(bad), "--tasks", str(stream_dir), "--out", str(tmp_path / "e")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code in (0, 2) and len(err) <= (code == 2), (path, value, code, err)


class TestRun:
    def test_end_to_end_outputs(self, tmp_path, cfg_file):
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 0
        for name in ("stream.json", "pool.json", "grid.csv", "summary.csv"):
            assert (out / name).is_file()

    def test_repeat_runs_byte_identical(self, tmp_path, cfg_file):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg_file), "--out", str(a)]) == 0
        assert main(["run", "--config", str(cfg_file), "--out", str(b)]) == 0
        for name in ("grid.csv", "summary.csv", "stream.json", "pool.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_mode_and_calibrate_flags(self, tmp_path, cfg_file):
        out = tmp_path / "ablate"
        code = main(["run", "--config", str(cfg_file), "--calibrate", "off",
                     "--mode", "iki-ablation:0.5", "--out", str(out)])
        assert code == 0
        assert (out / "grid.csv").is_file()

    @pytest.mark.parametrize("mode", sorted(SMALL_RUN_DIGESTS))
    def test_small_config_outputs_pinned(self, tmp_path, mode):
        out = tmp_path / mode
        assert main(["run", "--config", str(SMALL_CFG), "--mode", mode, "--out", str(out)]) == 0
        data = (out / "grid.csv").read_bytes() + (out / "summary.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == SMALL_RUN_DIGESTS[mode]

    @pytest.mark.parametrize("mode", sorted(DEFAULT_RUN_DIGESTS))
    def test_default_config_outputs_pinned(self, default_run, mode):
        out = default_run(mode)
        data = (out / "grid.csv").read_bytes() + (out / "summary.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == DEFAULT_RUN_DIGESTS[mode]

    def test_small_config_stream_file_pinned(self, tmp_path):
        out = tmp_path / "small"
        assert main(["run", "--config", str(SMALL_CFG), "--out", str(out)]) == 0
        data = (out / "stream.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == STREAM_FILE_DIGESTS["small"]

    def test_default_config_stream_file_pinned(self, default_run):
        data = (default_run("iki") / "stream.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == STREAM_FILE_DIGESTS["default"]

    @pytest.mark.parametrize("command", ["run", "train"])
    def test_oversized_encoder_exits_2(self, tmp_path, capsys, stream_dir, command):
        cfg = tmp_path / "deep.cfg"
        cfg.write_text(TINY_CFG.replace("\ndepth = 2", "\ndepth = 1000000"))
        args = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
        capsys.readouterr()
        assert main(args + (["--tasks", str(stream_dir)] if command == "train" else [])) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "above the cap of 16777216" in err[0], err

    @pytest.mark.parametrize(
        "epochs,message", [(1, "features are not finite"), (2, "non-finite loss at step 1")]
    )
    def test_overflowing_adapters_exit_2(self, tmp_path, capsys, epochs, message):
        # epochs = 1: training ends before a loss goes NaN, and evaluation's
        # features overflow (this run used to exit 0 with chance accuracies).
        # epochs = 2: step 1's loss is NaN and training diverges.
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(HUGE_LR_CFG + f"epochs = {epochs}\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o" / "grid.csv").exists()

    @pytest.mark.parametrize("epochs", [1, 2])
    def test_overflow_leaves_one_stderr_line(self, tmp_path, epochs):
        # In process, pytest captures numpy's RuntimeWarnings; a fresh
        # interpreter prints them to stderr unless the CLI silences them.
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(HUGE_LR_CFG + f"epochs = {epochs}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "resadapt", "run", "--config", str(cfg),
             "--out", str(tmp_path / "o")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1, proc.stderr

    @pytest.mark.parametrize(
        "line,mode",
        [
            ("k_bound = nan", "iki"),
            ("k_bound = inf", "iki"),
            ("k_bound = 1e308", "iki"),
            ("lr0 = nan", "iki"),
            ("lr0 = inf", "iki"),
            ("logit_scale = nan", "iki"),
            ("logit_scale = inf", "iki"),
            ("domain_shift = nan", "iki"),
            ("domain_shift = inf", "iki"),
            ("", "iki-ablation:nan"),
            ("", "iki-ablation:inf"),
            ("", "iki-ablation:1e308"),
        ],
    )
    def test_non_finite_setting_exits_2(self, tmp_path, capsys, line, mode):
        # The message names the setting; a NaN lr0 used to surface only as
        # "training diverged".
        name = line.split(" = ")[0] if line else "ablation bound"
        kept = [kv for kv in TINY_CFG.splitlines() if not kv.startswith(name + " =")]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("\n".join(kept + [line]) + "\n")
        code = main(["run", "--config", str(cfg), "--mode", mode, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert name in err and "diverged" not in err and "duplicate" not in err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    def test_missing_config_exits_2(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path / "o")])
        assert code == 2


class TestVerify:
    def test_metrics_suite_passes(self, capsys):
        assert main(["verify", "--suite", "metrics"]) == 0
        out = capsys.readouterr().out
        assert "[metrics]" in out and "PASS" in out

    def test_failing_suite_exits_1(self, monkeypatch):
        import resadapt.bench.cli as climod

        def fake(name, seed=0):
            report = VerifyReport(suite=name)
            report.check("broken", False)
            return [report]

        monkeypatch.setattr(climod, "run_suite", fake)
        assert main(["verify", "--suite", "metrics"]) == 1

    def test_unknown_suite_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "resadapt", "verify", "--suite", "metrics"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "PASS" in proc.stdout

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
