"""Frozen toy dual encoder over token sequences.

Each encoder is a random embedding table plus a stack of frozen attention
layers applied with a residual skip (x <- x + attn(x)), mean-pooled over
positions and L2-normalized. Image-like inputs are token sequences; the
text side encodes class templates, which arrive as (K, 4) token rows (3
fixed prefix tokens plus one class token). Adapters or prompts may be
attached to the first layers of a stack; with fresh residual adapters the
encoder output is bit-identical to the frozen one. Every encoder function
takes a batch of (B, L) token ids, a single sequence being a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .attention import (
    Adapter,
    Attachment,
    FrozenAttention,
    FrozenCache,
    PrependCache,
    PromptBaseline,
    ResidualCache,
    frozen_attn_backward,
    frozen_attn_with_cache,
    prepend_attn_backward,
    prepend_attn_with_cache,
    random_frozen_attention,
    residual_attn_backward,
    residual_attn_with_cache,
)
from .errors import ConfigError, ContractError, ShapeError
from .numkernel import make_rng

@dataclass(frozen=True)
class EncoderStack:
    """Immutable encoder: embedding table (vocab, d) + frozen layers."""

    embed: np.ndarray
    layers: tuple[FrozenAttention, ...]

    @property
    def vocab(self) -> int:
        return self.embed.shape[0]

    @property
    def d(self) -> int:
        return self.embed.shape[1]

    @property
    def depth(self) -> int:
        return len(self.layers)


@dataclass(frozen=True)
class DualEncoder:
    """Image-like and text-like encoder pair sharing vocab and width."""

    image: EncoderStack
    text: EncoderStack


def build_dual_encoder(vocab: int, d: int, depth: int, seed: int) -> DualEncoder:
    """Two towers over one shared embedding table.

    Sharing the table is what gives the frozen pair its zero-shot ability:
    a class token contributes the same vector on both sides, and the
    residual skips carry it through each tower, so image features correlate
    with the matching template feature. The attention stacks themselves are
    independently random.
    """
    rng = make_rng(seed, 77)
    embed = rng.normal(0.0, 1.0, size=(vocab, d))
    image_layers = tuple(random_frozen_attention(d, rng) for _ in range(depth))
    text_layers = tuple(random_frozen_attention(d, rng) for _ in range(depth))
    return DualEncoder(
        image=EncoderStack(embed=embed, layers=image_layers),
        text=EncoderStack(embed=embed, layers=text_layers),
    )


@dataclass(frozen=True)
class EncoderSpec:
    """Everything needed to rebuild a dual encoder bit-for-bit."""

    vocab: int = 256
    d: int = 32
    depth: int = 2
    seed: int = 0

    # Cap on the float64 parameters (the (vocab, d) table and 2 * depth layers
    # of 3 (d, d) weights and 3 biases): 128 MiB, against 21k by default. A
    # config or pool file above it is refused before anything is allocated.
    MAX_PARAMS: ClassVar[int] = 2**24

    def __post_init__(self):
        if min(self.vocab, self.d, self.depth) < 1:
            raise ContractError(
                f"vocab, d, depth must be >= 1, got ({self.vocab}, {self.d}, {self.depth})"
            )
        if self.seed < 0:
            raise ContractError("seed must be non-negative")
        params = self.vocab * self.d + 2 * self.depth * 3 * (self.d * self.d + self.d)
        if params > self.MAX_PARAMS:
            raise ConfigError(f"encoder ({self.vocab}, {self.d}, {self.depth}) has {params} "
                              f"parameters, above the cap of {self.MAX_PARAMS}")

    def build(self) -> DualEncoder:
        return build_dual_encoder(self.vocab, self.d, self.depth, self.seed)


def _check_ids(token_ids, vocab: int) -> np.ndarray:
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 2:
        raise ShapeError(f"token ids must be (B, L), got shape {ids.shape}")
    if ids.size == 0:
        raise ShapeError("empty token sequence")
    if np.any(ids < 0) or np.any(ids >= vocab):
        raise IndexError(f"token id outside [0, {vocab})")
    return ids


@dataclass
class EncodeCache:
    layer_caches: list  # one FrozenCache, ResidualCache or PrependCache per layer
    seq_len: int
    norms: np.ndarray
    feats: np.ndarray


def _apply_layer(x, layer, attach, w, layer0):
    # layer0, when given, is this layer's frozen forward over x, computed
    # earlier; the layer's forward takes it in place of x.
    if attach is None:
        out, cache = frozen_attn_with_cache(x, layer) if layer0 is None else (layer0.out, layer0)
    elif isinstance(attach, Adapter):
        out, cache = residual_attn_with_cache(x, layer, attach, w, layer0)
    elif isinstance(attach, PromptBaseline):
        out, cache = prepend_attn_with_cache(x, layer, attach, layer0)
    else:
        raise ContractError(f"unsupported per-layer attachment {type(attach).__name__}")
    return x + out, cache


def encode_with_cache(
    token_ids,
    stack: EncoderStack,
    adapters: Sequence[Attachment] | None = None,
    w=1.0,
    layer0: FrozenCache | None = None,
) -> tuple[np.ndarray, EncodeCache]:
    """Forward pass keeping intermediates for the training backward.

    layer0, if given, is layer 0's frozen work over these token ids: its
    frozen_attn_with_cache over the embedded ids, or as much of it as layer
    0's attachment reads (training's lockstep step). It replaces the
    embedding lookup and layer 0's frozen forward, and the token ids are
    then not read again, so they may carry a leading task axis, (T, B, L),
    as the cache's rows do. Layer 0's forward, residual or prompt, then runs
    over it without recomputing that work.
    """
    if adapters is not None and len(adapters) > stack.depth:
        raise ShapeError(f"{len(adapters)} attachments for a depth-{stack.depth} stack")
    if layer0 is None:
        x = stack.embed[_check_ids(token_ids, stack.vocab)]
    elif layer0.p is not stack.layers[0] or np.shape(token_ids) != layer0.x.shape[:-1]:
        raise ContractError("layer0 is not the layer-0 cache of these token ids in this stack")
    else:
        x = layer0.x
    caches = []
    for i, layer in enumerate(stack.layers):
        attach = adapters[i] if adapters is not None and i < len(adapters) else None
        x, cache = _apply_layer(x, layer, attach, w, layer0 if i == 0 else None)
        caches.append(cache)
    pooled = x.mean(axis=-2)
    norms = np.linalg.norm(pooled, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise ContractError("pooled feature has zero norm, cannot normalize")
    feats = pooled / norms
    return feats, EncodeCache(layer_caches=caches, seq_len=x.shape[-2], norms=norms, feats=feats)


def encode_backward(cache: EncodeCache, d_feats: np.ndarray) -> list:
    """Backward to the trainable attachments.

    Returns a per-layer list: None for a plain frozen layer, else one
    gradient per field of the layer's attachment, in field order, summed
    over the batch. Embeddings are frozen, so propagation stops
    below layer 0: layer 0 computes only its own parameter gradients, and
    its input gradient is never formed.
    """
    # Through L2 normalization: f = u / |u|, du = (df - f (f . df)) / |u|.
    f = cache.feats
    inner = (f * d_feats).sum(axis=-1, keepdims=True)
    d_pooled = (d_feats - f * inner) / cache.norms
    # Through the mean pool: every position receives d_pooled / L.
    d_x = np.repeat(np.expand_dims(d_pooled / cache.seq_len, -2), cache.seq_len, axis=-2)
    grads: list = [None] * len(cache.layer_caches)
    for i in range(len(cache.layer_caches) - 1, -1, -1):
        layer_cache = cache.layer_caches[i]
        if isinstance(layer_cache, ResidualCache):
            d_attn_in, *grads[i] = residual_attn_backward(layer_cache, d_x, input_grad=i > 0)
        elif isinstance(layer_cache, PrependCache):
            d_attn_in, *grads[i] = prepend_attn_backward(layer_cache, d_x, input_grad=i > 0)
        elif i > 0:
            d_attn_in = frozen_attn_backward(layer_cache, d_x)
        if i > 0:
            # Residual skip: x_{i+1} = x_i + attn(x_i).
            d_x = d_x + d_attn_in
    return grads


def encode(
    token_ids,
    stack: EncoderStack,
    adapters: Sequence[Attachment] | None = None,
    w=1.0,
) -> np.ndarray:
    """Unit-norm features (B, d) of a batch of (B, L) token ids.

    w is one weight for every sample or one weight per sample. Raises
    ContractError if a feature is not finite, which attachments that
    overflow the encoder cause.
    """
    feats, _ = encode_with_cache(token_ids, stack, adapters, w)
    if not np.all(np.isfinite(feats)):
        raise ContractError("encoded features are not finite: the attachments overflow the encoder")
    return feats


def class_embeddings(
    classes: np.ndarray,
    stack: EncoderStack,
    adapters: Sequence[Attachment] | None = None,
    w=1.0,
) -> np.ndarray:
    """Encode (K, L) class template token rows; returns (K, d) in row order."""
    return encode(classes, stack, adapters, w)

