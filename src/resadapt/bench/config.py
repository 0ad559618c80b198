"""Flat `key = value` config files.

One assignment per line; blank lines and lines starting with # are ignored.
Every key must be known (typo protection beats permissiveness here) and
every missing key falls back to its dataclass default. Keys:

  training   lr0, epochs, batch, logit_scale, prompt_len, adapter_depth,
             k_bound, ridge, seed
  stream     num_tasks, classes_per_task, samples_per_class, seq_len,
             vocab, domain_shift, stream_seed
  backbone   embed_dim, depth, backbone_seed
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..backbone import EncoderSpec
from ..errors import ConfigError
from ..learner import TrainConfig
from .stream import StreamSpec

_INT = ("epochs", "batch", "prompt_len", "adapter_depth", "seed", "num_tasks",
        "classes_per_task", "samples_per_class", "seq_len", "vocab", "stream_seed",
        "embed_dim", "depth", "backbone_seed")
_FLOAT = ("lr0", "logit_scale", "k_bound", "ridge", "domain_shift")

_TRAIN_KEYS = ("lr0", "epochs", "batch", "logit_scale", "prompt_len",
               "adapter_depth", "k_bound", "ridge", "seed")
_STREAM_KEYS = ("num_tasks", "classes_per_task", "samples_per_class", "seq_len",
                "vocab", "domain_shift", "stream_seed")
_BACKBONE_KEYS = ("embed_dim", "depth", "backbone_seed")


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
        if key in _INT:
            try:
                values[key] = int(val)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {key} needs an integer, got {val!r}") from exc
        elif key in _FLOAT:
            try:
                values[key] = float(val)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {key} needs a number, got {val!r}") from exc
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    return values


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values = parse_config_text(text)
    train_kw = {k: values[k] for k in _TRAIN_KEYS if k in values}
    stream_kw = {("seed" if k == "stream_seed" else k): values[k]
                 for k in _STREAM_KEYS if k in values}
    backbone_kw = {k: values[k] for k in _BACKBONE_KEYS if k in values}
    cfg = RunConfig(
        train=TrainConfig(**train_kw),
        stream=StreamSpec(**stream_kw),
        backbone=BackboneConfig(**backbone_kw),
    )
    if cfg.train.adapter_depth > cfg.backbone.depth:
        raise ConfigError(
            f"adapter_depth {cfg.train.adapter_depth} exceeds backbone depth {cfg.backbone.depth}"
        )
    return cfg
