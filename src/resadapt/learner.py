"""Per-task training, the task pool, and calibrated inference.

Each incremental task trains one small attachment set (residual adapters,
or prompts for the baseline) on the first layers of both frozen encoders,
with plain SGD under a cosine learning-rate schedule. A task's statistics
(a Gaussian over its frozen features) are computed with the fully frozen
encoder BEFORE any adapters exist, so they never drift. A task's pool entry
(its attachments and its Gaussian) is immutable once stored: later training
cannot touch it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .attention import Adapter, PromptBaseline, init_adapter, init_adapter_ablation
from .backbone import (
    DualEncoder,
    class_embeddings,
    encode,
    encode_backward,
    encode_with_cache,
    layer0_cache,
)
from .errors import ConfigError, ContractError, DivergenceError, ShapeError
from .numkernel import softmax_rows
from .taskdist import TaskGaussian, calibration_weight_batch, fit_gaussian, log_density_batch

MODE_RESIDUAL = "iki"
MODE_PREPEND = "prepend"
MODE_ABLATION_PREFIX = "iki-ablation:"


def _check_bound(bound: float, what: str) -> None:
    # Initializers draw on [-bound, bound): its width 2 * bound must be finite.
    if not (bound >= 0.0 and math.isfinite(2.0 * bound)):
        raise ConfigError(f"{what} must be non-negative with 2 * {what} finite, got {bound}")


@dataclass(frozen=True)
class AdapterMode:
    """Parsed training mode: which mechanism and how it is initialized."""

    mechanism: str = "residual"  # "residual" or "prepend"
    # None: cfg.k_bound, and residual values start at zero. A bound: the
    # ablation, which draws keys and values on [-bound, bound).
    init_bound: float | None = None

    @staticmethod
    def parse(text: str) -> "AdapterMode":
        if text == MODE_RESIDUAL:
            return AdapterMode("residual", None)
        if text == MODE_PREPEND:
            return AdapterMode("prepend", None)
        if text.startswith(MODE_ABLATION_PREFIX):
            raw = text[len(MODE_ABLATION_PREFIX):]
            try:
                bound = float(raw)
            except ValueError as exc:
                raise ConfigError(f"bad ablation bound {raw!r}") from exc
            _check_bound(bound, "ablation bound")
            return AdapterMode("residual", bound)
        raise ConfigError(f"unknown mode {text!r}")


@dataclass(frozen=True)
class TrainConfig:
    lr0: float = 5.0
    epochs: int = 10
    batch: int = 32
    logit_scale: float = 100.0
    prompt_len: int = 4
    adapter_depth: int = 2
    k_bound: float = 0.02
    ridge: float = 1e-7
    seed: int = 0

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.lr0, self.logit_scale, self.ridge)):
            raise ConfigError("lr0, logit_scale, and ridge must be positive and finite")
        # epochs == 0 is allowed and means "initialize only".
        if self.epochs < 0 or self.batch < 1 or self.prompt_len < 1 or self.adapter_depth < 1:
            raise ConfigError("epochs must be >= 0; batch, prompt_len, adapter_depth >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        _check_bound(self.k_bound, "k_bound")


@dataclass(frozen=True)
class AdapterSet:
    """Per-layer attachments for the image and text encoders of one task."""

    image_adapters: tuple
    text_adapters: tuple

    def __post_init__(self):
        for side in (self.image_adapters, self.text_adapters):
            for a in side:
                if not isinstance(a, (Adapter, PromptBaseline)):
                    raise ContractError(f"unsupported attachment {type(a).__name__}")
        shapes = {(a.l, a.d) for a in self.image_adapters + self.text_adapters}
        if len(shapes) > 1:
            raise ShapeError(f"inconsistent attachment shapes {sorted(shapes)}")


@dataclass(frozen=True)
class PoolEntry:
    adapters: AdapterSet
    gaussian: TaskGaussian


@dataclass
class TaskPool:
    """Ordered per-task entries. Entries are immutable; the pool only grows."""

    entries: list[PoolEntry] = field(default_factory=list)
    kind: str = "residual"  # "residual" or "prepend"

    def __len__(self) -> int:
        return len(self.entries)


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    """lr0 * 0.5 * (1 + cos(pi * step / total_steps)); lr0 at 0, 0 at total."""
    if total_steps < 1 or step < 0 or step > total_steps:
        raise ContractError(f"bad schedule position {step}/{total_steps}")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def estimate_task_stats(train_ids: np.ndarray, enc: DualEncoder, ridge: float = 1e-7) -> TaskGaussian:
    """Frozen-feature Gaussian of one task.

    Uses the bare image encoder only: no adapters exist yet (and none are
    consulted), so the statistics describe the frozen representation that
    inference-time selection will also see.
    """
    return fit_gaussian(encode(train_ids, enc.image), ridge)


def _init_attachments(mode: AdapterMode, cfg: TrainConfig, d: int, rng: np.random.Generator) -> list:
    bound = cfg.k_bound if mode.init_bound is None else mode.init_bound
    out = []
    for _ in range(cfg.adapter_depth):
        if mode.mechanism == "prepend":
            out.append(PromptBaseline(p=rng.uniform(-bound, bound, size=(cfg.prompt_len, d))))
        elif mode.init_bound is None:
            out.append(init_adapter(cfg.prompt_len, d, bound, rng))
        else:
            out.append(init_adapter_ablation(cfg.prompt_len, d, bound, rng))
    return out


def _sgd_step(attachments: list, grads: list, lr: float) -> list:
    out = []
    for att, g in zip(attachments, grads):
        if g is None:
            out.append(att)
        elif isinstance(att, Adapter):
            d_k, d_v = g
            out.append(Adapter(k_r=att.k_r - lr * d_k, v_r=att.v_r - lr * d_v))
        else:
            out.append(PromptBaseline(p=att.p - lr * g))
    return out


def batch_cross_entropy(logit_rows: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over a (B, K) logit block and its gradient."""
    z = np.asarray(logit_rows, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    b, k = z.shape
    if labels.shape != (b,) or np.any(labels < 0) or np.any(labels >= k):
        raise IndexError("labels out of range for logit block")
    m = z.max(axis=1)
    lse = m + np.log(np.exp(z - m[:, None]).sum(axis=1))
    loss = float((lse - z[np.arange(b), labels]).mean())
    grad = softmax_rows(z)
    grad[np.arange(b), labels] -= 1.0
    return loss, grad / b


def train_task(
    train_ids: np.ndarray,
    train_labels: np.ndarray,
    class_templates: np.ndarray,
    enc: DualEncoder,
    cfg: TrainConfig,
    rng: np.random.Generator,
    mode: AdapterMode = AdapterMode(),
) -> AdapterSet:
    """Train one task's attachments on both encoders; returns them frozen.

    class_templates holds one token row per class, (K, L). Both encoders
    stay fixed; only the attachments move. Images and class templates are
    encoded with the residual weight pinned at 1 (calibration is an
    inference-time mechanism). Zero epochs returns the untouched fresh
    initialization.

    Layer 0 reads only frozen embeddings, and neither branch changes its
    frozen forward: a residual adapter adds to its output, a prompt attends
    over its projection of the input rows. That forward over every
    training row and every template is computed once per task; each step
    takes its batch's rows and passes them to layer 0's branch forward.
    """
    train_ids = np.asarray(train_ids, dtype=np.int64)
    train_labels = np.asarray(train_labels, dtype=np.int64)
    n = train_ids.shape[0]
    k = len(class_templates)
    if train_labels.shape != (n,):
        raise ShapeError("one label per training sequence required")
    if np.any(train_labels < 0) or np.any(train_labels >= k):
        raise IndexError("training label out of class range")
    if cfg.adapter_depth > enc.image.depth:
        raise ConfigError(
            f"adapter_depth {cfg.adapter_depth} exceeds encoder depth {enc.image.depth}"
        )
    img_att = _init_attachments(mode, cfg, enc.image.d, rng)
    txt_att = _init_attachments(mode, cfg, enc.text.d, rng)
    steps_per_epoch = max(1, math.ceil(n / cfg.batch))
    total_steps = cfg.epochs * steps_per_epoch
    if cfg.epochs > 0:
        img0 = layer0_cache(train_ids, enc.image)
        txt0 = layer0_cache(class_templates, enc.text)
    step = 0
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch):
            idx = perm[start : start + cfg.batch]
            lr = cosine_lr(step, total_steps, cfg.lr0)
            img_feats, img_cache = encode_with_cache(
                train_ids[idx], enc.image, img_att, 1.0, img0.take(idx)
            )
            txt_feats, txt_cache = encode_with_cache(class_templates, enc.text, txt_att, 1.0, txt0)
            logit_block = cfg.logit_scale * (img_feats @ txt_feats.T)
            loss, d_logits = batch_cross_entropy(logit_block, train_labels[idx])
            if not math.isfinite(loss):
                raise DivergenceError(step)
            d_img = cfg.logit_scale * (d_logits @ txt_feats)
            d_txt = cfg.logit_scale * (d_logits.T @ img_feats)
            img_att = _sgd_step(img_att, encode_backward(img_cache, d_img), lr)
            txt_att = _sgd_step(txt_att, encode_backward(txt_cache, d_txt), lr)
            step += 1
    return AdapterSet(image_adapters=tuple(img_att), text_adapters=tuple(txt_att))


def score_entries(frozen_feats: np.ndarray, entries: Sequence[PoolEntry]) -> np.ndarray:
    """(B, len(entries)) log density of each frozen feature row under each entry."""
    columns = [log_density_batch(e.gaussian, frozen_feats) for e in entries]
    return np.stack(columns, axis=1) if columns else np.empty((len(frozen_feats), 0))


def route(
    scores: np.ndarray, pool: TaskPool, calibrate: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Selected entry and residual weight for each row of (B, len(pool)) scores.

    scores are the log densities from score_entries. The best-scoring
    Gaussian wins (ties go to the lowest index); its score, through the
    sigmoid, sets the weight.
    """
    if len(pool) == 0:
        raise ContractError("empty task pool")
    b = scores.shape[0]
    task_idx = np.argmax(scores, axis=1)
    if pool.kind == "prepend" or not calibrate:
        # Prompts have no intensity knob; without calibration w is pinned.
        weights = np.ones(b)
    else:
        weights = calibration_weight_batch(scores[np.arange(b), task_idx])
    return task_idx, weights


def predict(
    ids: np.ndarray,
    adapters: AdapterSet | None,
    weights: np.ndarray,
    candidate_classes: np.ndarray,
    enc: DualEncoder,
) -> np.ndarray:
    """Class index of each (B, L) row through one attachment set, row b at weights[b].

    With adapters None this is the frozen model. Both encoders run each row
    at its own weight, which prompts ignore: one text encode covers the
    (K, L) template rows tiled once per distinct weight (U*K rows), and each
    row gathers the K embeddings at its weight. Every encode and product is
    row-independent, so a row's decision does not depend on which other
    rows share its batch. The cosine product is an einsum, not a 2-D
    matmul: BLAS sums a one-row product (gemv) and a larger one (gemm) in
    different orders.
    """
    image, text = (None, None) if adapters is None else (
        adapters.image_adapters, adapters.text_adapters
    )
    feats = encode(ids, enc.image, image, weights)
    k = len(candidate_classes)
    w_unique, inverse = np.unique(weights, return_inverse=True)
    text_feats = class_embeddings(
        np.tile(candidate_classes, (len(w_unique), 1)), enc.text, text, np.repeat(w_unique, k)
    ).reshape(len(w_unique), k, -1)
    return np.argmax(np.einsum("bd,bkd->bk", feats, text_feats[inverse]), axis=1)


def classify(
    ids: np.ndarray,
    task_idx: np.ndarray,
    weights: np.ndarray,
    pool: TaskPool,
    candidate_classes: np.ndarray,
    enc: DualEncoder,
) -> np.ndarray:
    """Class index of each (B, L) row through its routed entry at its weight.

    Rows are grouped by entry, and each group is one predict call.
    """
    class_idx = np.zeros(ids.shape[0], dtype=np.int64)
    for t in np.unique(task_idx):
        mask = task_idx == t
        class_idx[mask] = predict(
            ids[mask], pool.entries[int(t)].adapters, weights[mask], candidate_classes, enc
        )
    return class_idx


def infer_batch(
    token_ids: np.ndarray,
    pool: TaskPool,
    candidate_classes: np.ndarray,
    enc: DualEncoder,
    calibrate: bool = True,
    logit_scale: float = 100.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pooled inference over (B, L) token ids.

    The frozen feature of each row picks the best task Gaussian; its score,
    through the sigmoid, sets the weight w applied to the selected adapters
    on BOTH encoders (w is pinned to 1 with calibrate=False and for prompt
    pools). Returns (class_idx, task_idx, weight) arrays: route() on the
    frozen features, then classify() through the routed entries, as one
    fresh InferState does. The decision is an argmax of cosines, which a
    positive logit_scale cannot change; any other scale is rejected.
    """
    if not logit_scale > 0.0:
        raise ContractError("logit_scale must be positive")
    state = InferState()
    class_idx = state.infer(token_ids, pool, candidate_classes, enc, calibrate)
    return class_idx, state.task_idx, state.weights


@dataclass
class InferState:
    """infer_batch over one fixed batch as an append-only pool grows.

    A pool entry never changes once stored, so a row's route moves only when
    a newly appended entry outscores every older one, and its decision is
    fixed by its route. The state keeps the batch's frozen features, one
    log-density column per entry already scored, and the last routes,
    weights and decisions; each call scores only new entries and
    re-classifies only the rows whose route changed. Decisions equal those
    of a fresh state on the same pool, bit for bit. The first call binds the
    state to its inputs by identity; later calls must pass the same token-id
    and template arrays, encoder and calibrate flag, and a pool that extends
    the last.
    """

    inputs: tuple = ()  # (token_ids, enc, classes, calibrate) of the first call
    ids: np.ndarray | None = None
    frozen_feats: np.ndarray | None = None
    scores: np.ndarray | None = None  # (B, len(scored)) log densities
    scored: list[PoolEntry] = field(default_factory=list)
    task_idx: np.ndarray | None = None
    weights: np.ndarray | None = None
    class_idx: np.ndarray | None = None

    def infer(
        self,
        token_ids: np.ndarray,
        pool: TaskPool,
        candidate_classes: np.ndarray,
        enc: DualEncoder,
        calibrate: bool = True,
    ) -> np.ndarray:
        """Class index per row of token_ids under pool; see infer_batch."""
        n = len(self.scored)
        if len(pool) < n or any(a is not b for a, b in zip(pool.entries, self.scored)):
            raise ContractError("pool does not extend the pool this state has scored")
        # Compared by identity; bool() gives one of the two bool singletons.
        inputs = (token_ids, enc, candidate_classes, bool(calibrate))
        if self.ids is None:
            ids = np.asarray(token_ids, dtype=np.int64)
            self.frozen_feats = encode(ids, enc.image)
            self.inputs, self.ids = inputs, ids
            self.scores = np.empty((ids.shape[0], 0))
            self.task_idx = np.full(ids.shape[0], -1)
            self.class_idx = np.zeros(ids.shape[0], dtype=np.int64)
        elif any(a is not b for a, b in zip(inputs, self.inputs)):
            raise ContractError("state is bound to other token ids, encoder or settings")
        new = pool.entries[n:]
        columns = score_entries(self.frozen_feats, new)
        self.scores = np.concatenate([self.scores, columns], axis=1)
        self.scored.extend(new)
        task_idx, weights = route(self.scores, pool, calibrate)
        moved = task_idx != self.task_idx
        if np.any(moved):
            self.class_idx[moved] = classify(
                self.ids[moved], task_idx[moved], weights[moved], pool, candidate_classes, enc
            )
        self.task_idx, self.weights = task_idx, weights
        return self.class_idx.copy()
