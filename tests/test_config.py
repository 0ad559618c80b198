"""Flat key = value config files: parsing, defaults, and cross-checks."""

import pytest

from resadapt.bench.config import (
    BackboneConfig,
    RunConfig,
    load_config,
    parse_config_text,
)
from resadapt.errors import ConfigError


class TestParse:
    def test_empty_text(self):
        assert parse_config_text("") == {}

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\nepochs = 3\n   # indented comment\nlr0 = 0.5\n"
        assert parse_config_text(text) == {"epochs": 3, "lr0": 0.5}

    def test_whitespace_tolerant(self):
        assert parse_config_text("  epochs=7  ") == {"epochs": 7}

    def test_int_keys_coerced(self):
        values = parse_config_text("num_tasks = 5\nvocab = 256")
        assert values == {"num_tasks": 5, "vocab": 256}
        assert all(isinstance(v, int) for v in values.values())

    def test_float_keys_coerced(self):
        values = parse_config_text("domain_shift = 1\nridge = 1e-7")
        assert values["domain_shift"] == 1.0 and values["ridge"] == 1e-7

    def test_int_key_rejects_fraction(self):
        with pytest.raises(ConfigError):
            parse_config_text("epochs = 2.5")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("epochs = 1\nepochs = 2")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("learning_rate = 0.1")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("epochs 3")

    def test_error_names_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("epochs = 1\nbogus = 2")


class TestLoad:
    def test_defaults_fill_missing_keys(self, tmp_path):
        path = tmp_path / "minimal.cfg"
        path.write_text("epochs = 1\n")
        cfg = load_config(path)
        assert cfg.train.epochs == 1
        assert cfg.train.batch == 32
        assert cfg.stream.num_tasks == 5
        assert cfg.backbone.embed_dim == 32

    def test_stream_seed_key_maps_to_spec_seed(self, tmp_path):
        path = tmp_path / "seeded.cfg"
        path.write_text("stream_seed = 9\nseed = 4\n")
        cfg = load_config(path)
        assert cfg.stream.seed == 9
        assert cfg.train.seed == 4

    def test_shipped_default_config(self):
        cfg = load_config("configs/default.cfg")
        assert cfg.stream.num_tasks == 5
        assert cfg.stream.classes_per_task == 4
        assert cfg.stream.samples_per_class == 200
        assert cfg.backbone.embed_dim == 32
        assert cfg.train.prompt_len == 4
        assert cfg.train.adapter_depth == 2

    def test_shipped_small_config(self):
        cfg = load_config("configs/small.cfg")
        assert cfg.stream.num_tasks == 3
        assert cfg.stream.classes_per_task == 2

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")

    def test_adapter_depth_cross_check(self, tmp_path):
        path = tmp_path / "deep.cfg"
        path.write_text("adapter_depth = 3\ndepth = 2\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_value_propagates(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("lr0 = -1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_build_encoder_dimensions(self, tmp_path):
        path = tmp_path / "tiny.cfg"
        path.write_text("vocab = 64\nembed_dim = 8\ndepth = 2\n")
        enc = load_config(path).encoder.build()
        assert enc.image.vocab == 64 and enc.image.d == 8
        assert enc.image.depth == 2
        assert enc.image.embed is enc.text.embed


class TestBackboneConfig:
    @pytest.mark.parametrize(
        "kwargs", [{"embed_dim": 0}, {"depth": 0}, {"backbone_seed": -1}]
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            BackboneConfig(**kwargs)
