"""The config schema derived from the dataclass fields."""

from dataclasses import dataclass

import pytest

from resadapt.bench import config
from resadapt.bench.stream import field_types

# Every config key today: (section, field, declared type).
CONFIG_KEYS = {
    "lr0": ("train", "lr0", float),
    "epochs": ("train", "epochs", int),
    "batch": ("train", "batch", int),
    "logit_scale": ("train", "logit_scale", float),
    "prompt_len": ("train", "prompt_len", int),
    "adapter_depth": ("train", "adapter_depth", int),
    "k_bound": ("train", "k_bound", float),
    "ridge": ("train", "ridge", float),
    "seed": ("train", "seed", int),
    "num_tasks": ("stream", "num_tasks", int),
    "classes_per_task": ("stream", "classes_per_task", int),
    "samples_per_class": ("stream", "samples_per_class", int),
    "seq_len": ("stream", "seq_len", int),
    "vocab": ("stream", "vocab", int),
    "domain_shift": ("stream", "domain_shift", float),
    "stream_seed": ("stream", "seed", int),
    "embed_dim": ("backbone", "embed_dim", int),
    "depth": ("backbone", "depth", int),
    "backbone_seed": ("backbone", "backbone_seed", int),
}


def test_config_keys_are_the_section_fields():
    assert config._KEYS == CONFIG_KEYS
    kinds = [kind for _, _, kind in CONFIG_KEYS.values()]
    assert (len(kinds), kinds.count(int), kinds.count(float)) == (19, 14, 5)


@pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
def test_each_key_is_read_by_its_field_type(key):
    kind = CONFIG_KEYS[key][2]
    value = config.parse_config_text(f"{key} = 1")[key]
    assert type(value) is kind and value == 1


def test_unsupported_field_type_rejected():
    @dataclass(frozen=True)
    class Named:
        name: str = "x"

    with pytest.raises(TypeError, match="Named.name has type"):
        field_types(Named)
