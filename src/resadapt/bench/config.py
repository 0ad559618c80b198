"""Flat `key = value` config files.

One assignment per line; blank lines and lines starting with # are ignored.
Each key is a field of one of RunConfig's sections (TrainConfig, StreamSpec,
BackboneConfig) and is spelled as the field, except StreamSpec.seed, which
is `stream_seed`. A value is read by its field's declared type, int or float.
Every key must be known (typo protection beats permissiveness here) and
every missing key falls back to its dataclass default.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass
from pathlib import Path

from ..backbone import EncoderSpec
from ..errors import ConfigError
from ..learner import TrainConfig
from .stream import FIELD_KINDS, StreamSpec, field_types


@dataclass(frozen=True)
class BackboneConfig:
    embed_dim: int = 32
    depth: int = 2
    backbone_seed: int = 0

    def __post_init__(self):
        if self.embed_dim < 1 or self.depth < 1 or self.backbone_seed < 0:
            raise ConfigError("embed_dim and depth must be >= 1, backbone_seed >= 0")


@dataclass(frozen=True)
class RunConfig:
    train: TrainConfig
    stream: StreamSpec
    backbone: BackboneConfig

    @property
    def encoder(self) -> EncoderSpec:
        """The dual encoder this config describes, over the stream's vocabulary."""
        return EncoderSpec(
            vocab=self.stream.vocab,
            d=self.backbone.embed_dim,
            depth=self.backbone.depth,
            seed=self.backbone.backbone_seed,
        )


# RunConfig's sections by name, and each config key's (section, field, type).
_SECTIONS = typing.get_type_hints(RunConfig)
_KEYS = {
    ("stream_seed" if (section, name) == ("stream", "seed") else name): (section, name, kind)
    for section, cls in _SECTIONS.items()
    for name, kind in field_types(cls).items()
}


def parse_config_text(text: str) -> dict[str, float | int]:
    values: dict[str, float | int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        kind = _KEYS[key][2]
        try:
            values[key] = kind(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key} needs {FIELD_KINDS[kind]}, got {val!r}") from exc
    return values


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values = parse_config_text(text)
    kwargs = {section: {} for section in _SECTIONS}
    for key, value in values.items():
        section, name, _ = _KEYS[key]
        kwargs[section][name] = value
    cfg = RunConfig(**{section: cls(**kwargs[section]) for section, cls in _SECTIONS.items()})
    if cfg.train.adapter_depth > cfg.backbone.depth:
        raise ConfigError(
            f"adapter_depth {cfg.train.adapter_depth} exceeds backbone depth {cfg.backbone.depth}"
        )
    return cfg
