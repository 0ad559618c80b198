"""Frozen single-head attention plus the two parameter-efficient branches.

Three forward flavors over a frozen attention layer:

  frozen_attn_with_cache    the layer as shipped, no trainable parts
  prepend_attn_with_cache   learned prompt rows concatenated before the
                            input, full self-attention, prompt output rows
                            discarded
  residual_attn_with_cache  a separate attention readout over learned keys
                            K_r and values V_r, added to the frozen output
                            scaled by w

Each returns (out, cache); the cache feeds the matching backward. The
residual branch with V_r = 0 contributes an exactly-zero matrix, so a
freshly initialized adapter leaves the layer output bit-identical to the
frozen one at any weight w. Every forward takes a batch (B, L, d) of
sequences, a single sequence being a batch of one; backward helpers return
parameter gradients summed over the batch. A batch may carry leading axes,
(T, B, L, d), with attachments stacked as (T, 1, l, d): each of the T
groups runs through its own attachment, and every product and sum is the
per-group one, so each group gets the bits it would get alone.

Neither branch changes the layer's frozen work (FrozenCache: the
projection of the input rows, i.e. their q, k, v and the x-x score block,
plus the frozen attention and output): the residual branch adds to its
output, the prompt attends over its projection. Both forwards therefore
take that work as `frozen` when it is already computed, and then do not
read x. Layer 0 reads only frozen embeddings, so its frozen forward can be
computed once per group of tasks and served to every training step,
whichever attachment sits on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .numkernel import softmax_backward, softmax_rows


@dataclass(frozen=True)
class FrozenAttention:
    """Immutable single-head attention parameters (weights d x d, biases d)."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    b_q: np.ndarray
    b_k: np.ndarray
    b_v: np.ndarray

    def __post_init__(self):
        d = self.w_q.shape[0]
        for name in ("w_q", "w_k", "w_v"):
            w = getattr(self, name)
            if w.shape != (d, d):
                raise ShapeError(f"{name} must be ({d}, {d}), got {w.shape}")
        for name in ("b_q", "b_k", "b_v"):
            b = getattr(self, name)
            if b.shape != (d,):
                raise ShapeError(f"{name} must be ({d},), got {b.shape}")

    @property
    def d(self) -> int:
        return self.w_q.shape[0]


@dataclass(frozen=True)
class Attachment:
    """Trainable rows on a frozen layer: every field (l, d), one shape, l >= 1.

    Fields may carry leading axes, (T, 1, l, d), for a stack of T
    attachments that train in lockstep. A subclass declares only its
    fields, which every reader takes in declaration order. Instances are
    immutable; training replaces them.
    """

    def __post_init__(self):
        # vars() holds the fields in declaration order, cheaper than fields().
        shapes = [v.shape for v in vars(self).values()]
        if len(shapes[0]) < 2 or shapes[0][-2] < 1 or shapes.count(shapes[0]) != len(shapes):
            raise ShapeError(f"{type(self).__name__} fields must share one (l, d) shape "
                             f"with l >= 1, got {shapes}")

    @property
    def shape(self) -> tuple:
        return next(iter(vars(self).values())).shape

    @property
    def l(self) -> int:
        return self.shape[-2]

    @property
    def d(self) -> int:
        return self.shape[-1]


@dataclass(frozen=True)
class Adapter(Attachment):
    """Residual-branch parameters: keys k_r and values v_r."""

    k_r: np.ndarray
    v_r: np.ndarray


@dataclass(frozen=True)
class PromptBaseline(Attachment):
    """Prepend-baseline parameters: l learned prompt rows p."""

    p: np.ndarray


# Each attachment kind's class, by its pool-file name.
ATTACHMENTS = {"residual": Adapter, "prepend": PromptBaseline}


def random_frozen_attention(d: int, rng: np.random.Generator) -> FrozenAttention:
    """Random frozen layer: weights N(0, 1/sqrt(d)), biases N(0, 0.1)."""
    scale = 1.0 / np.sqrt(d)
    return FrozenAttention(
        w_q=rng.normal(0.0, scale, size=(d, d)),
        w_k=rng.normal(0.0, scale, size=(d, d)),
        w_v=rng.normal(0.0, scale, size=(d, d)),
        b_q=rng.normal(0.0, 0.1, size=d),
        b_k=rng.normal(0.0, 0.1, size=d),
        b_v=rng.normal(0.0, 0.1, size=d),
    )


def _check_init(l: int, d: int, bound: float) -> None:
    if l < 1 or d < 1:
        raise ShapeError("adapter dims must be positive")
    # Draws are uniform on [-bound, bound): its width 2 * bound must be
    # finite. Written so that NaN fails it.
    if not (bound >= 0.0 and np.isfinite(2.0 * bound)):
        raise ContractError(f"bound must be non-negative with 2 * bound finite, got {bound}")


def init_adapter(l: int, d: int, bound: float, rng: np.random.Generator) -> Adapter:
    """Fresh adapter: k_r uniform on [-bound, bound), v_r all zeros.

    Zero values make the residual branch an exact identity at any w, so a
    new adapter cannot disturb the frozen model. The uniform keys break
    the gradient degeneracy that an all-zero start would suffer from.
    """
    _check_init(l, d, bound)
    k_r = rng.uniform(-bound, bound, size=(l, d))
    return Adapter(k_r=k_r, v_r=np.zeros((l, d)))


def init_adapter_ablation(l: int, d: int, bound: float, rng: np.random.Generator) -> Adapter:
    """Ablation initializer: BOTH k_r and v_r uniform on [-bound, bound).

    Nonzero values mean the branch perturbs the frozen output from step
    zero; exists to measure what zero-init buys.
    """
    _check_init(l, d, bound)
    return Adapter(
        k_r=rng.uniform(-bound, bound, size=(l, d)),
        v_r=rng.uniform(-bound, bound, size=(l, d)),
    )


def _check_seq(x: np.ndarray, d: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 3 or x.shape[-1] != d:
        raise ShapeError(f"input must be (B, L, {d}), got {x.shape}")
    return x


def _batch_sum(g: np.ndarray, field: np.ndarray) -> np.ndarray:
    """A per-sequence gradient (..., B, l, d) summed over the batch, shaped as field."""
    return g.sum(axis=-3).reshape(field.shape)


@dataclass
class FrozenCache:
    """A frozen layer's work over an input x (B, L, d).

    q, k and v are x's projections, scores the scaled x-x block
    (q k^T) / sqrt(d), attn its softmax and out = attn v. A field that a
    forward did not form, or that a caller did not keep, is None: project
    forms no attn or out, and a lockstep step keeps only what its branch
    reads.
    """

    x: np.ndarray
    p: FrozenAttention
    q: np.ndarray
    k: np.ndarray | None = None
    v: np.ndarray | None = None
    scores: np.ndarray | None = None
    attn: np.ndarray | None = None
    out: np.ndarray | None = None


def project(x: np.ndarray, p: FrozenAttention) -> FrozenCache:
    """q = x W_q + b_q, k, v likewise, and the scaled scores (q k^T) / sqrt(d)."""
    x = _check_seq(x, p.d)
    inv_sqrt_d = 1.0 / np.sqrt(p.d)
    q = x @ p.w_q + p.b_q
    k = x @ p.w_k + p.b_k
    v = x @ p.w_v + p.b_v
    scores = (q @ np.swapaxes(k, -1, -2)) * inv_sqrt_d
    return FrozenCache(x=x, p=p, q=q, k=k, v=v, scores=scores)


def frozen_attn_with_cache(x: np.ndarray, p: FrozenAttention) -> tuple[np.ndarray, FrozenCache]:
    """softmax(Q K^T / sqrt(d)) V with Q = x W_q + b_q etc., over (B, L, d) x."""
    fc = project(x, p)
    fc.attn = softmax_rows(fc.scores)
    fc.out = fc.attn @ fc.v
    return fc.out, fc


def frozen_attn_backward(cache: FrozenCache, d_out: np.ndarray) -> np.ndarray:
    """Gradient of <d_out, out> with respect to the layer input x."""
    p = cache.p
    inv_sqrt_d = 1.0 / np.sqrt(p.d)
    d_v = np.swapaxes(cache.attn, -1, -2) @ d_out
    d_attn = d_out @ np.swapaxes(cache.v, -1, -2)
    d_scores = softmax_backward(cache.attn, d_attn)
    d_q = (d_scores @ cache.k) * inv_sqrt_d
    d_k = (np.swapaxes(d_scores, -1, -2) @ cache.q) * inv_sqrt_d
    return d_q @ p.w_q.T + d_k @ p.w_k.T + d_v @ p.w_v.T


@dataclass
class ResidualCache:
    frozen: FrozenCache
    a: Adapter
    w: np.ndarray | float  # a float or a (B, 1, 1) view, from _check_weight
    attn_r: np.ndarray


def _check_weight(w, batch: int) -> np.ndarray | float:
    # w as a float, or one weight per row as a (batch, 1, 1) view. Both
    # tests are written so that NaN fails them. A float, the weight
    # training pins at every step, skips the array round trip.
    if isinstance(w, float):
        if not 0.0 <= w <= 1.0:
            raise ContractError(f"residual weight must lie in [0, 1], got {w}")
        return float(w)
    w_arr = np.asarray(w, dtype=np.float64)
    if not np.all((w_arr >= 0.0) & (w_arr <= 1.0)):
        raise ContractError(f"residual weight must lie in [0, 1], got {w}")
    if w_arr.ndim == 0:
        return float(w_arr)
    if w_arr.shape != (batch,):
        raise ShapeError(f"per-sample weights {w_arr.shape} do not match batch {batch}")
    return w_arr[:, None, None]


def residual_attn_with_cache(
    x: np.ndarray, p: FrozenAttention, a: Adapter, w, frozen: FrozenCache | None = None
) -> tuple[np.ndarray, ResidualCache]:
    """Frozen output plus w times the adapter readout softmax(Q k_r^T / sqrt(d)) v_r.

    The frozen term is frozen_attn_with_cache's own output, so with v_r = 0
    the result is bit-identical to the frozen layer. frozen, if given, is
    that forward over x, or as much of it as this forward reads (q and
    out), and x is not read. Nothing in it depends on the adapter, so one
    frozen forward can serve any number of adapters.
    """
    fc = frozen_attn_with_cache(x, p)[1] if frozen is None else frozen
    if a.d != p.d:
        raise ShapeError(f"adapter width {a.d} does not match layer width {p.d}")
    w = _check_weight(w, fc.q.shape[-3])
    inv_sqrt_d = 1.0 / np.sqrt(p.d)
    scores_r = (fc.q @ np.swapaxes(a.k_r, -1, -2)) * inv_sqrt_d
    attn_r = softmax_rows(scores_r)
    out_r = attn_r @ a.v_r
    out = fc.out + w * out_r
    return out, ResidualCache(frozen=fc, a=a, w=w, attn_r=attn_r)


def residual_attn_backward(
    cache: ResidualCache, d_out: np.ndarray, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Backward through the residual layer.

    Returns (d_x, d_k_r, d_v_r) for the scalar <d_out, out>. The frozen
    output receives d_out unchanged; the residual branch receives w d_out
    and routes it into the adapter parameters and, through the shared
    query, back into x. With input_grad=False, d_x is None and neither the
    frozen backward nor the query's input gradient is computed.
    """
    fc = cache.frozen
    a = cache.a
    inv_sqrt_d = 1.0 / np.sqrt(fc.p.d)
    wd = cache.w * d_out
    d_v_r = _batch_sum(np.swapaxes(cache.attn_r, -1, -2) @ wd, a.v_r)
    d_attn_r = wd @ np.swapaxes(a.v_r, -1, -2)
    d_scores_r = softmax_backward(cache.attn_r, d_attn_r)
    d_k_r = _batch_sum(np.swapaxes(d_scores_r, -1, -2) @ fc.q, a.k_r) * inv_sqrt_d
    if not input_grad:
        return None, d_k_r, d_v_r
    d_q_r = (d_scores_r @ a.k_r) * inv_sqrt_d
    d_x = frozen_attn_backward(fc, d_out) + d_q_r @ fc.p.w_q.T
    return d_x, d_k_r, d_v_r


@dataclass
class PrependCache:
    proj: FrozenCache  # the input rows' projection
    k_p: np.ndarray  # (l, d) prompt keys
    v: np.ndarray  # (B, l + L, d) values of [prompt; x]
    attn: np.ndarray  # (B, L, l + L) input rows' attention over [prompt; x]


def _prepend_rows(head: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """[head; rows[b]] for every batch element b: (B, l + L, d) from (l, d) and (B, L, d)."""
    l = head.shape[-2]
    out = np.empty(rows.shape[:-2] + (l + rows.shape[-2], rows.shape[-1]))
    out[..., :l, :] = head
    out[..., l:, :] = rows
    return out


def prepend_attn_with_cache(
    x: np.ndarray, p: FrozenAttention, prompt: PromptBaseline, frozen: FrozenCache | None = None
) -> tuple[np.ndarray, PrependCache]:
    """Self-attention over [prompt; x], keeping only the last L output rows.

    Every kept row attends over prompt and input rows jointly, so a nonzero
    prompt changes the output; there is no weight that turns it off.
    frozen, if given, is x's projection, or as much of it as this forward
    reads (q, v and scores), and x is not read. The prompt's keys and
    values are projected once for the whole batch. Only the input rows'
    queries are formed: the prompt rows' outputs are discarded, so their
    queries, score rows and softmax are never needed. Each kept row attends
    over [prompt; x] with scores [x-prompt | x-x], so the result equals the
    full attention over the concatenation, bit for bit.
    """
    pj = project(x, p) if frozen is None else frozen
    if prompt.d != p.d:
        raise ShapeError(f"prompt width {prompt.d} does not match layer width {p.d}")
    inv_sqrt_d = 1.0 / np.sqrt(p.d)
    k_p = prompt.p @ p.w_k + p.b_k
    v_p = prompt.p @ p.w_v + p.b_v
    scores = np.concatenate([(pj.q @ np.swapaxes(k_p, -1, -2)) * inv_sqrt_d, pj.scores], axis=-1)
    attn = softmax_rows(scores)
    v = _prepend_rows(v_p, pj.v)
    out = attn @ v
    return out, PrependCache(proj=pj, k_p=k_p, v=v, attn=attn)


def prepend_attn_backward(
    cache: PrependCache, d_out: np.ndarray, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray]:
    """Backward through the prepend layer: returns (d_x, d_prompt).

    d_prompt is formed from the prompt rows of d_k and d_v and summed over
    the batch; the prompt rows have no query, and their output gradient is
    zero. With input_grad=False, d_x is None and neither d_q nor the input
    gradient is computed.
    """
    pj = cache.proj
    p = pj.p
    l = cache.k_p.shape[-2]
    inv_sqrt_d = 1.0 / np.sqrt(p.d)
    d_attn = d_out @ np.swapaxes(cache.v, -1, -2)
    d_scores = softmax_backward(cache.attn, d_attn)
    # Key and value gradients of the prompt rows only, unless the input
    # rows' are needed too.
    keys = slice(None) if input_grad else slice(None, l)
    d_v = np.swapaxes(cache.attn[..., keys], -1, -2) @ d_out
    d_k = (np.swapaxes(d_scores[..., keys], -1, -2) @ pj.q) * inv_sqrt_d
    d_prompt = _batch_sum(d_k[..., :l, :] @ p.w_k.T + d_v[..., :l, :] @ p.w_v.T, cache.k_p)
    if not input_grad:
        return None, d_prompt
    d_q = (d_scores @ _prepend_rows(cache.k_p, pj.k)) * inv_sqrt_d
    d_x = d_q @ p.w_q.T + d_k[..., l:, :] @ p.w_k.T + d_v[..., l:, :] @ p.w_v.T
    return d_x, d_prompt
