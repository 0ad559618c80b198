"""Per-task training, the task pool, and calibrated inference.

Each incremental task trains one small attachment set (residual adapters,
or prompts for the baseline) on the first layers of both frozen encoders,
with plain SGD under a cosine learning-rate schedule. Tasks of one shape
train in lockstep, one step advancing a whole group. A task's statistics
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

from .attention import (
    Adapter,
    Attachment,
    FrozenCache,
    PromptBaseline,
    frozen_attn_with_cache,
    init_adapter,
    init_adapter_ablation,
)
from .backbone import (
    DualEncoder,
    EncoderStack,
    class_embeddings,
    encode,
    encode_backward,
    encode_with_cache,
)
from .errors import ConfigError, ContractError, DivergenceError, ShapeError
from .numkernel import row_max, softmax_rows
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
                if not isinstance(a, Attachment):
                    raise ContractError(f"unsupported attachment {type(a).__name__}")
        shapes = {a.shape for a in self.image_adapters + self.text_adapters}
        if len(shapes) > 1 or any(len(shape) != 2 for shape in shapes):
            raise ShapeError(f"inconsistent attachment shapes {sorted(shapes)}")


@dataclass(frozen=True)
class PoolEntry:
    """One task's attachments and Gaussian.

    v_max is derived, never an input, and not stored in pool files: the
    largest |v_r| of the entry's residual adapters in both towers (0 with
    none, inf if any attachment is a prompt, NaN if a v_r holds NaN). A
    softmax row sums to at most 1, so no adapter readout of the entry
    exceeds it in magnitude, up to rounding (see gate_closed).
    """

    adapters: AdapterSet
    gaussian: TaskGaussian
    v_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bounds = [
            np.abs(a.v_r).max() if isinstance(a, Adapter) else math.inf
            for a in self.adapters.image_adapters + self.adapters.text_adapters
        ]
        object.__setattr__(self, "v_max", float(np.max(bounds, initial=0.0)))


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


# Rows encoded at once while a task's statistics are fitted, and of layer
# 0's frozen forward while a group's kept work is built: bounds the
# forward's caches and temporaries (about 20 kB a row at d = 32, L = 8)
# whatever the task's or the group's size.
ROW_CHUNK = 128


def estimate_task_stats(train_ids: np.ndarray, enc: DualEncoder, ridge: float = 1e-7) -> TaskGaussian:
    """Frozen-feature Gaussian of one task.

    Uses the bare image encoder only: no adapters exist yet (and none are
    consulted), so the statistics describe the frozen representation that
    inference-time selection will also see. The rows are encoded in blocks
    of ROW_CHUNK, which bounds the encoder's caches; encode is
    row-independent, so the features are those of one whole encode.
    """
    feats = [
        encode(train_ids[start : start + ROW_CHUNK], enc.image)
        for start in range(0, len(train_ids), ROW_CHUNK)
    ]
    return fit_gaussian(np.concatenate(feats), ridge)


def _init_attachments(mode: AdapterMode, cfg: TrainConfig, d: int, rng: np.random.Generator) -> list:
    bound = cfg.k_bound if mode.init_bound is None else mode.init_bound
    out = []
    for _ in range(cfg.adapter_depth):
        if mode.mechanism == "prepend":
            out.append(PromptBaseline(rng.uniform(-bound, bound, size=(cfg.prompt_len, d))))
        elif mode.init_bound is None:
            out.append(init_adapter(cfg.prompt_len, d, bound, rng))
        else:
            out.append(init_adapter_ablation(cfg.prompt_len, d, bound, rng))
    return out


def _sgd_step(attachments: list, grads: list, lr: float) -> list:
    # Each field moves against its gradient; grads list them in field order.
    return [
        type(att)(*(v - lr * g for v, g in zip(vars(att).values(), gs)))
        for att, gs in zip(attachments, grads)
    ]


def _stack(per_task: list[list]) -> list:
    """Per layer, the tasks' attachments as one with fields (T, 1, l, d)."""
    return [
        type(layer[0])(*(np.stack(vs)[:, None] for vs in zip(*(vars(a).values() for a in layer))))
        for layer in zip(*per_task)
    ]


def _unstack(stacked: list, t: int) -> tuple:
    """Task t's (l, d) attachments out of stacked ones."""
    return tuple(type(a)(*(v[t, 0] for v in vars(a).values())) for a in stacked)


def batch_cross_entropy(logit_rows: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean cross-entropy of each (B, K) logit block of (..., B, K), and its gradient.

    The loss has the leading shape: a float for one (B, K) block.
    """
    z = np.asarray(logit_rows, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if (z.ndim < 2 or labels.shape != z.shape[:-1]
            or np.any(labels < 0) or np.any(labels >= z.shape[-1])):
        raise IndexError("labels out of range for logit block")
    b, k = z.shape[-2:]
    # Every row's label entry, by its index in the (rows, K) view.
    at_label = (np.arange(labels.size), labels.reshape(-1))
    m = row_max(z)
    lse = m[..., 0] + np.log(np.exp(z - m).sum(axis=-1))
    loss = (lse - z.reshape(-1, k)[at_label].reshape(labels.shape)).mean(axis=-1)
    grad = softmax_rows(z)
    grad.reshape(-1, k)[at_label] -= 1.0
    return loss, grad / b


# What a step's layer-0 forward reads of the frozen work besides the rows'
# inputs and queries, which it recomputes: a residual adapter adds to the
# frozen output, a prompt attends over the rows' values and scores.
LAYER0_KEPT = {"residual": ("out",), "prepend": ("v", "scores")}


def _layer0_kept(ids: np.ndarray, stack: EncoderStack, names: tuple) -> dict:
    """The fields names of layer 0's frozen forward over (R, L) token ids, by name.

    Built in ROW_CHUNK row chunks into one array per field.
    """
    kept = {}
    for start in range(0, len(ids), ROW_CHUNK):
        chunk = frozen_attn_with_cache(stack.embed[ids[start : start + ROW_CHUNK]], stack.layers[0])[1]
        for name in names:
            value = getattr(chunk, name)
            if name not in kept:
                kept[name] = np.empty((len(ids),) + value.shape[1:])
            kept[name][start : start + len(value)] = value
        del chunk, value  # before the next chunk's forward allocates its own
    return kept


def _step_grads(step, ids, img0, labels, img_att, templates, txt0, txt_att, enc, logit_scale):
    """Both towers' attachment gradients at one lockstep step over (T, B, L) batch ids.

    img0 holds the batch rows of the group's kept layer-0 work, by name;
    the rows' inputs and queries are recomputed here. The step's caches are
    freed when this returns, before the next step builds its own.
    """
    layer = enc.image.layers[0]
    x = enc.image.embed.take(ids, 0)
    img0 = FrozenCache(x=x, p=layer, q=x @ layer.w_q + layer.b_q, **img0)
    img_feats, img_cache = encode_with_cache(ids, enc.image, img_att, 1.0, img0)
    txt_feats, txt_cache = encode_with_cache(templates, enc.text, txt_att, 1.0, txt0)
    logit_block = logit_scale * (img_feats @ np.swapaxes(txt_feats, -1, -2))
    loss, d_logits = batch_cross_entropy(logit_block, labels)
    diverged = ~np.isfinite(loss)
    if np.any(diverged):
        raise DivergenceError(step, int(np.argmax(diverged)))
    d_img = logit_scale * (d_logits @ txt_feats)
    d_txt = logit_scale * (np.swapaxes(d_logits, -1, -2) @ img_feats)
    return encode_backward(img_cache, d_img), encode_backward(txt_cache, d_txt)


def train_task(
    train_ids: np.ndarray,
    train_labels: np.ndarray,
    class_templates: np.ndarray,
    enc: DualEncoder,
    cfg: TrainConfig,
    rngs: Sequence[np.random.Generator],
    mode: AdapterMode = AdapterMode(),
) -> list[AdapterSet]:
    """Train a group of T tasks' attachments in lockstep; returns them frozen, one set per task.

    train_ids is (T, n, L), train_labels (T, n) and class_templates one
    token row per class, (T, K, L); rngs holds one generator per task. Both
    encoders stay fixed; only the attachments move. Images and class
    templates are encoded with the residual weight pinned at 1 (calibration
    is an inference-time mechanism). Zero epochs returns the untouched fresh
    initializations.

    Each task draws its initialization and its permutations from its own
    generator, and one step advances every task by one batch: the
    attachments are stacked as (T, 1, l, d) against (T, B, L, d) batches,
    every product is the per-task one, and gradients are summed over each
    task's batch only. So a task's attachments are bit-identical to
    training it in a group of one; a single task is such a group.

    Layer 0 reads only frozen embeddings, and neither branch changes its
    frozen forward, so that forward runs once per group over every
    training row. The group keeps only what its branch reads besides the
    rows' inputs and queries (LAYER0_KEPT): the frozen output, to which a
    residual adapter adds, or the values and scores a prompt attends over.
    A step takes its batch's rows of those and recomputes the inputs and
    queries. The templates' whole layer-0 forward is kept.

    Raises DivergenceError at the first step whose loss is not finite for
    some task, naming the first such task by its position in the group.
    """
    train_ids = np.asarray(train_ids, dtype=np.int64)
    train_labels = np.asarray(train_labels, dtype=np.int64)
    class_templates = np.asarray(class_templates, dtype=np.int64)
    if train_ids.ndim != 3 or class_templates.ndim != 3 or 0 in train_ids.shape:
        raise ShapeError("a group's ids must be (T, n, L) and its templates (T, K, L)")
    t, n, seq_len = train_ids.shape
    if train_labels.shape != (t, n) or len(class_templates) != t or len(rngs) != t:
        raise ShapeError("one label per training sequence, and templates and an rng per task, required")
    if np.any(train_labels < 0) or np.any(train_labels >= class_templates.shape[1]):
        raise IndexError("training label out of class range")
    for ids, stack in ((train_ids, enc.image), (class_templates, enc.text)):
        if np.any(ids < 0) or np.any(ids >= stack.vocab):
            raise IndexError(f"token id outside [0, {stack.vocab})")
    if cfg.adapter_depth > enc.image.depth:
        raise ConfigError(
            f"adapter_depth {cfg.adapter_depth} exceeds encoder depth {enc.image.depth}"
        )
    per_task = [
        (_init_attachments(mode, cfg, enc.image.d, rng), _init_attachments(mode, cfg, enc.text.d, rng))
        for rng in rngs
    ]
    img_att = _stack([img for img, _ in per_task])
    txt_att = _stack([txt for _, txt in per_task])
    total_steps = cfg.epochs * math.ceil(n / cfg.batch)
    if cfg.epochs > 0:
        # Rows of all tasks in one (T n, ...) block; task i's row r is i n + r.
        flat_ids = train_ids.reshape(t * n, seq_len)
        flat_labels = train_labels.reshape(t * n)
        img0 = _layer0_kept(flat_ids, enc.image, LAYER0_KEPT[mode.mechanism])
        txt0 = frozen_attn_with_cache(enc.text.embed[class_templates], enc.text.layers[0])[1]
        offsets = np.arange(t)[:, None] * n
    step = 0
    for _ in range(cfg.epochs):
        perm = np.stack([rng.permutation(n) for rng in rngs]) + offsets
        for start in range(0, n, cfg.batch):
            rows = perm[:, start : start + cfg.batch]
            lr = cosine_lr(step, total_steps, cfg.lr0)
            # ndarray.take(rows, 0) copies the same rows as [rows], faster.
            img_grads, txt_grads = _step_grads(
                step, flat_ids.take(rows, 0), {name: v.take(rows, 0) for name, v in img0.items()},
                flat_labels.take(rows), img_att, class_templates, txt0, txt_att, enc, cfg.logit_scale,
            )
            img_att = _sgd_step(img_att, img_grads, lr)
            txt_att = _sgd_step(txt_att, txt_grads, lr)
            step += 1
    return [
        AdapterSet(image_adapters=_unstack(img_att, i), text_adapters=_unstack(txt_att, i))
        for i in range(t)
    ]


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


# A routed row is gate-closed when w * v_max < CLOSED_MARGIN * floor and
# MIN_FLOOR <= floor < inf; see gate_closed.
CLOSED_MARGIN = 2.0**-60
MIN_FLOOR = 2.0**-960


def gate_closed(weights: np.ndarray, v_max: np.ndarray, floor: float) -> np.ndarray:
    """Rows whose attachments, at their weights, leave both encoders bit-identical to frozen.

    v_max is each row's entry's PoolEntry.v_max, and floor bounds from below
    every frozen attention output of the row's image and template forwards
    (encode's floor). A residual layer adds fl(w * out_r), with |out_r| <=
    v_max up to rounding, to a frozen output x with |x| >= floor. Below the
    margin the addend stays under 2**-59 * floor, while the floats next to
    x lie at least 2**-53 * floor away from it, so the sum rounds back to
    x: layer by layer, the adapted forward returns the frozen forward's
    bits. MIN_FLOOR keeps floor * CLOSED_MARGIN normal, so a subnormal
    product (w = 4.9e-324) is covered too. NaN or inf in any input fails
    the test.
    """
    return (weights * v_max < CLOSED_MARGIN * floor) & (MIN_FLOOR <= floor < math.inf)


def _decide(feats: np.ndarray, text_feats: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    # Row b's class: the argmax of its cosines with text_feats[inverse[b]], (K, d).
    return np.argmax(np.einsum("bd,bkd->bk", feats, text_feats[inverse]), axis=1)


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
    return _decide(feats, text_feats, inverse)


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

    Rows the gate closes take the frozen model's decision without a
    classify call. The image encode that gives the frozen features also
    gives the floor of its attention outputs. A moved row whose weight
    passes gate_closed against that floor is a candidate; at the first
    candidate the state encodes the templates once with the bare text
    encoder, lowers the floor to theirs, and forms every row's zero-shot
    decision with predict's own product. Candidates that still pass
    gate_closed take that decision, which equals classify's bits: their
    adapted forwards return the frozen ones in both towers, and every
    encode and product is row-independent. The other moved rows, and all
    rows of a prompt pool or with calibrate=False, go through classify.
    """

    inputs: tuple = ()  # (token_ids, enc, classes, calibrate) of the first call
    ids: np.ndarray | None = None
    frozen_feats: np.ndarray | None = None
    scores: np.ndarray | None = None  # (B, len(scored)) log densities
    scored: list[PoolEntry] = field(default_factory=list)
    task_idx: np.ndarray | None = None
    weights: np.ndarray | None = None
    class_idx: np.ndarray | None = None
    floor: float = 0.0  # image rows' encode floor, then the templates' too; 0 closes no gate
    zero_shot: np.ndarray | None = None  # frozen decisions, formed at the first closed candidate

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
        # Only a calibrated residual pool's gate closes; no floor, no fallback.
        gated = calibrate and pool.kind == "residual"
        if self.ids is None:
            ids = np.asarray(token_ids, dtype=np.int64)
            if gated:
                self.frozen_feats, self.floor = encode(ids, enc.image, floor=True)
            else:
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
        if gated:
            v_max = np.array([e.v_max for e in pool.entries])[task_idx]
            closed = moved & gate_closed(weights, v_max, self.floor)
            if np.any(closed):
                if self.zero_shot is None:
                    text_feats, text_floor = encode(candidate_classes, enc.text, floor=True)
                    self.floor = min(self.floor, text_floor)
                    self.zero_shot = _decide(
                        self.frozen_feats, text_feats[None], np.zeros(len(moved), dtype=np.int64)
                    )
                    closed &= gate_closed(weights, v_max, self.floor)
                self.class_idx[closed] = self.zero_shot[closed]
                moved &= ~closed
        if np.any(moved):
            self.class_idx[moved] = classify(
                self.ids[moved], task_idx[moved], weights[moved], pool, candidate_classes, enc
            )
        self.task_idx, self.weights = task_idx, weights
        return self.class_idx.copy()
