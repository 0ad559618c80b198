"""Per-task training, the task pool, and calibrated inference.

Each incremental task trains one small attachment set (residual adapters,
or prompts for the baseline) on the first layers of both frozen encoders,
with plain SGD under a cosine learning-rate schedule. Task statistics
(feature Gaussian + mean key) are computed with the fully frozen encoder
BEFORE any adapters exist, so they never drift. A task's pool entry is
immutable once stored: later training cannot touch it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .attention import Adapter, PromptBaseline, init_adapter, init_adapter_ablation
from .backbone import ClassTemplate, DualEncoder, class_embeddings, encode, encode_backward, encode_with_cache, logits
from .errors import ConfigError, ContractError, DivergenceError, ShapeError
from .numkernel import softmax_rows
from .taskdist import (
    TaskGaussian,
    calibration_weight,
    calibration_weight_batch,
    fit_gaussian,
    log_density_batch,
    select_task,
)

MODE_RESIDUAL = "iki"
MODE_PREPEND = "prepend"
MODE_ABLATION_PREFIX = "iki-ablation:"


@dataclass(frozen=True)
class AdapterMode:
    """Parsed training mode: which mechanism and how it is initialized."""

    mechanism: str = "residual"  # "residual" or "prepend"
    zero_init: bool = True
    init_bound: float | None = None  # ablation override; None -> cfg.k_bound

    @staticmethod
    def parse(text: str) -> "AdapterMode":
        if text == MODE_RESIDUAL:
            return AdapterMode("residual", True, None)
        if text == MODE_PREPEND:
            return AdapterMode("prepend", True, None)
        if text.startswith(MODE_ABLATION_PREFIX):
            raw = text[len(MODE_ABLATION_PREFIX):]
            try:
                bound = float(raw)
            except ValueError as exc:
                raise ConfigError(f"bad ablation bound {raw!r}") from exc
            if bound < 0.0:
                raise ConfigError("ablation bound must be non-negative")
            return AdapterMode("residual", False, bound)
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
        if self.lr0 <= 0.0 or self.logit_scale <= 0.0 or self.ridge <= 0.0:
            raise ConfigError("lr0, logit_scale, and ridge must be positive")
        # epochs == 0 is allowed and means "initialize only".
        if self.epochs < 0 or self.batch < 1 or self.prompt_len < 1 or self.adapter_depth < 1:
            raise ConfigError("epochs must be >= 0; batch, prompt_len, adapter_depth >= 1")
        if self.k_bound < 0.0 or self.seed < 0:
            raise ConfigError("k_bound and seed must be non-negative")


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
    mean_key: np.ndarray
    class_templates: tuple[ClassTemplate, ...]


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


def estimate_task_stats(
    train_ids: np.ndarray, enc: DualEncoder, ridge: float = 1e-7
) -> tuple[TaskGaussian, np.ndarray]:
    """Frozen-feature Gaussian and unit-norm mean key for one task.

    Uses the bare image encoder only: no adapters exist yet (and none are
    consulted), so the statistics describe the frozen representation that
    inference-time selection will also see.
    """
    feats = encode(train_ids, enc.image)
    if feats.ndim == 1:
        feats = feats[None, :]
    gaussian = fit_gaussian(feats, ridge)
    mean = feats.mean(axis=0)
    norm = float(np.linalg.norm(mean))
    if norm == 0.0:
        raise ContractError("mean feature has zero norm")
    return gaussian, mean / norm


def _init_attachments(mode: AdapterMode, cfg: TrainConfig, d: int, rng: np.random.Generator) -> list:
    bound = cfg.k_bound if mode.init_bound is None else mode.init_bound
    out = []
    for _ in range(cfg.adapter_depth):
        if mode.mechanism == "prepend":
            out.append(PromptBaseline(p=rng.uniform(-bound, bound, size=(cfg.prompt_len, d))))
        elif mode.zero_init:
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
    class_templates: Sequence[ClassTemplate],
    enc: DualEncoder,
    cfg: TrainConfig,
    rng: np.random.Generator,
    mode: AdapterMode = AdapterMode(),
) -> AdapterSet:
    """Train one task's attachments on both encoders; returns them frozen.

    Both encoders stay fixed; only the attachments move. Images and class
    templates are encoded with the residual weight pinned at 1 (calibration
    is an inference-time mechanism). Zero epochs returns the untouched
    fresh initialization.
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
    template_ids = np.stack([c.token_ids() for c in class_templates])
    steps_per_epoch = max(1, math.ceil(n / cfg.batch))
    total_steps = cfg.epochs * steps_per_epoch
    step = 0
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch):
            idx = perm[start : start + cfg.batch]
            lr = cosine_lr(step, total_steps, cfg.lr0)
            img_feats, img_cache = encode_with_cache(train_ids[idx], enc.image, img_att, 1.0)
            txt_feats, txt_cache = encode_with_cache(template_ids, enc.text, txt_att, 1.0)
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


@dataclass(frozen=True)
class InferResult:
    class_idx: int
    task_idx: int
    weight: float


def zero_shot_infer(
    token_ids,
    candidate_classes: Sequence[ClassTemplate],
    enc: DualEncoder,
    logit_scale: float = 100.0,
) -> int:
    """Frozen-model prediction: no pool, no adapters, no calibration."""
    feat = encode(token_ids, enc.image)
    text = class_embeddings(candidate_classes, enc.text)
    return int(np.argmax(logits(feat, text, logit_scale)))


def infer(
    token_ids,
    pool: TaskPool,
    candidate_classes: Sequence[ClassTemplate],
    enc: DualEncoder,
    calibrate: bool = True,
    logit_scale: float = 100.0,
    prescale: tuple[float, float] = (1.0, 0.0),
    use_pool_classes: bool = False,
) -> InferResult:
    """Single-sample inference through the task pool.

    The frozen feature picks the best task Gaussian; its score, through the
    sigmoid, sets the weight w applied to the selected adapters on BOTH
    encoders. With calibrate=False, w is pinned to 1. Candidates come from
    the caller unless use_pool_classes=True, in which case the selected
    task's own templates are used and class_idx indexes that list.
    """
    if len(pool) == 0:
        raise ContractError("empty task pool")
    frozen_feat = encode(token_ids, enc.image)
    task_idx, s_hat = select_task([e.gaussian for e in pool.entries], frozen_feat)
    entry = pool.entries[task_idx]
    classes = entry.class_templates if use_pool_classes else candidate_classes
    if pool.kind == "prepend":
        # Prompts have no intensity knob: attached or not, nothing between.
        w = 1.0
        feat = encode(token_ids, enc.image, entry.adapters.image_adapters)
        text = class_embeddings(classes, enc.text, entry.adapters.text_adapters)
    else:
        w = calibration_weight(s_hat, *prescale) if calibrate else 1.0
        feat = encode(token_ids, enc.image, entry.adapters.image_adapters, w)
        text = class_embeddings(classes, enc.text, entry.adapters.text_adapters, w)
    class_idx = int(np.argmax(logits(feat, text, logit_scale)))
    return InferResult(class_idx=class_idx, task_idx=task_idx, weight=w)


def score_entries(frozen_feats: np.ndarray, entries: Sequence[PoolEntry]) -> np.ndarray:
    """(B, len(entries)) log density of each frozen feature row under each entry."""
    columns = [log_density_batch(e.gaussian, frozen_feats) for e in entries]
    return np.stack(columns, axis=1) if columns else np.empty((len(frozen_feats), 0))


def route(
    scores: np.ndarray,
    pool: TaskPool,
    calibrate: bool = True,
    prescale: tuple[float, float] = (1.0, 0.0),
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
        weights = calibration_weight_batch(scores[np.arange(b), task_idx], *prescale)
    return task_idx, weights


def classify(
    ids: np.ndarray,
    task_idx: np.ndarray,
    weights: np.ndarray,
    pool: TaskPool,
    candidate_classes: Sequence[ClassTemplate],
    enc: DualEncoder,
) -> np.ndarray:
    """Class index of each (B, L) row through its routed entry at its weight.

    Rows are grouped by entry so each group is encoded in one batched pass.
    Every encode and product is row-independent, so a row's decision does
    not depend on which other rows share its batch. The cosine products are
    einsums, not 2-D matmuls: BLAS sums a one-row product (gemv) and a
    larger one (gemm) in different orders.
    """
    template_ids = np.stack([c.token_ids() for c in candidate_classes])
    k = template_ids.shape[0]
    class_idx = np.zeros(ids.shape[0], dtype=np.int64)
    for t in np.unique(task_idx):
        mask = task_idx == t
        entry = pool.entries[int(t)]
        if pool.kind == "prepend":
            feats = encode(ids[mask], enc.image, entry.adapters.image_adapters)
            text = class_embeddings(candidate_classes, enc.text, entry.adapters.text_adapters)
            block = np.einsum("bd,kd->bk", feats, text)
        else:
            w_group = weights[mask]
            feats = encode(ids[mask], enc.image, entry.adapters.image_adapters, w_group)
            # The text encoder runs at each sample's own w: encode the
            # templates once per distinct weight, then gather per sample.
            w_unique, inverse = np.unique(w_group, return_inverse=True)
            text = np.stack([
                encode(template_ids, enc.text, entry.adapters.text_adapters, np.full(k, w))
                for w in w_unique
            ])
            block = np.einsum("bd,bkd->bk", feats, text[inverse])
        class_idx[mask] = np.argmax(block, axis=1)
    return class_idx


def infer_batch(
    token_ids: np.ndarray,
    pool: TaskPool,
    candidate_classes: Sequence[ClassTemplate],
    enc: DualEncoder,
    calibrate: bool = True,
    logit_scale: float = 100.0,
    prescale: tuple[float, float] = (1.0, 0.0),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized infer over (B, L) token ids; same decisions as infer().

    Returns (class_idx, task_idx, weight) arrays: route() on the frozen
    features, then classify() through the routed entries.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 2:
        raise ShapeError("infer_batch expects (B, L) token ids")
    scores = score_entries(encode(ids, enc.image), pool.entries)
    task_idx, weights = route(scores, pool, calibrate, prescale)
    class_idx = classify(ids, task_idx, weights, pool, candidate_classes, enc)
    return class_idx, task_idx, weights


@dataclass
class InferState:
    """infer_batch over one fixed batch as an append-only pool grows.

    A pool entry never changes once stored, so a row's route moves only when
    a newly appended entry outscores every older one, and its decision is
    fixed by its route. The state keeps the batch's frozen features, one
    log-density column per entry already scored, and the last routes and
    decisions; each call scores only new entries and re-classifies only the
    rows whose route changed. Decisions equal a fresh infer_batch on the
    same pool, bit for bit. The first call binds the state to its inputs;
    later calls must pass the same ones and a pool that extends the last.
    """

    inputs: tuple = ()  # (token_ids, enc, classes, calibrate) of the first call
    ids: np.ndarray | None = None
    frozen_feats: np.ndarray | None = None
    scores: np.ndarray | None = None  # (B, len(scored)) log densities
    scored: list[PoolEntry] = field(default_factory=list)
    task_idx: np.ndarray | None = None
    class_idx: np.ndarray | None = None

    def infer(
        self,
        token_ids: np.ndarray,
        pool: TaskPool,
        candidate_classes: Sequence[ClassTemplate],
        enc: DualEncoder,
        calibrate: bool = True,
    ) -> np.ndarray:
        """Class index per row of token_ids under pool; see infer_batch."""
        n = len(self.scored)
        if len(pool) < n or any(a is not b for a, b in zip(pool.entries, self.scored)):
            raise ContractError("pool does not extend the pool this state has scored")
        inputs = (token_ids, enc, tuple(candidate_classes), bool(calibrate))
        if self.ids is None:
            ids = np.asarray(token_ids, dtype=np.int64)
            if ids.ndim != 2:
                raise ShapeError("InferState expects (B, L) token ids")
            self.frozen_feats = encode(ids, enc.image)
            self.inputs, self.ids = inputs, ids
            self.scores = np.empty((ids.shape[0], 0))
            self.task_idx = np.full(ids.shape[0], -1)
            self.class_idx = np.zeros(ids.shape[0], dtype=np.int64)
        elif not (
            token_ids is self.inputs[0] and enc is self.inputs[1] and inputs[2:] == self.inputs[2:]
        ):
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
        self.task_idx = task_idx
        return self.class_idx.copy()
