"""CLI subcommands, exit codes, and end-to-end determinism."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


class TestGenTasks:
    def test_writes_stream_json(self, stream_dir):
        assert (stream_dir / "stream.json").is_file()

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(GEN_ARGS + ["--out", str(a)]) == 0
        assert main(GEN_ARGS + ["--out", str(b)]) == 0
        assert (a / "stream.json").read_bytes() == (b / "stream.json").read_bytes()

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

    def test_pool_kind_mismatch_exits_2(self, tmp_path, stream_dir, pool_file, capsys):
        code = main(["eval", "--pool", str(pool_file), "--tasks", str(stream_dir),
                     "--mode", "prepend", "--out", str(tmp_path / "e")])
        assert code == 2
        assert "prepend" in capsys.readouterr().err

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
