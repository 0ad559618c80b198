"""Attention layer contracts: frozen, prepend, residual, and gradients."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resadapt.attention import (
    ATTACHMENTS,
    Adapter,
    Attachment,
    FrozenAttention,
    FrozenCache,
    PromptBaseline,
    frozen_attn_backward,
    frozen_attn_with_cache,
    init_adapter,
    init_adapter_ablation,
    prepend_attn_backward,
    prepend_attn_with_cache,
    random_frozen_attention,
    residual_attn_backward,
    residual_attn_with_cache,
)
from resadapt.errors import ContractError, ShapeError
from resadapt.numkernel import finite_diff_grad, make_rng, softmax_rows


def frozen(x, p):
    return frozen_attn_with_cache(x, p)[0]


def residual(x, p, a, w):
    return residual_attn_with_cache(x, p, a, w)[0]


def prepend(x, p, prompt):
    return prepend_attn_with_cache(x, p, prompt)[0]


def _rows(whole, idx, names):
    """The batch rows idx of the fields names of a frozen cache; the others None."""
    return FrozenCache(p=whole.p, **{name: getattr(whole, name)[idx] for name in names})


def adapter_grads(x, p, a, w, d_out):
    """(d_k_r, d_v_r) of <d_out, residual(x, p, a, w)>."""
    _, cache = residual_attn_with_cache(x, p, a, w)
    return residual_attn_backward(cache, d_out)[1:]


def naive_attention(x, w_q, w_k, w_v, b_q, b_k, b_v):
    """Independent elementwise re-implementation (loops, no shortcuts)."""
    L, d = x.shape
    q = np.array([[sum(x[i][a] * w_q[a][j] for a in range(d)) + b_q[j] for j in range(d)] for i in range(L)])
    k = np.array([[sum(x[i][a] * w_k[a][j] for a in range(d)) + b_k[j] for j in range(d)] for i in range(L)])
    v = np.array([[sum(x[i][a] * w_v[a][j] for a in range(d)) + b_v[j] for j in range(d)] for i in range(L)])
    scores = np.array([[np.dot(q[i], k[j]) / math.sqrt(d) for j in range(L)] for i in range(L)])
    attn = np.zeros((L, L))
    for i in range(L):
        e = np.exp(scores[i] - scores[i].max())
        attn[i] = e / e.sum()
    return attn @ v


# ------------------------------------------------------------------- frozen


def test_frozen_zero_input_zero_bias():
    d = 3
    p = FrozenAttention(
        w_q=np.zeros((d, d)), w_k=np.zeros((d, d)), w_v=np.zeros((d, d)),
        b_q=np.zeros(d), b_k=np.zeros(d), b_v=np.zeros(d),
    )
    out = frozen(np.zeros((1, 2, d)), p)
    assert np.array_equal(out, np.zeros((1, 2, d)))


def test_frozen_single_token_returns_value_row():
    rng = make_rng(1)
    p = random_frozen_attention(4, rng)
    x = rng.normal(size=(1, 1, 4))
    out = frozen(x, p)
    v = x @ p.w_v + p.b_v
    assert np.allclose(out, v, atol=1e-15)


def test_frozen_matches_naive_oracle():
    rng = make_rng(2)
    p = random_frozen_attention(5, rng)
    x = rng.normal(size=(1, 3, 5))
    ours = frozen(x, p)
    theirs = naive_attention(x[0], p.w_q, p.w_k, p.w_v, p.b_q, p.b_k, p.b_v)
    assert np.allclose(ours[0], theirs, atol=1e-12)


def test_frozen_shape_mismatch():
    p = random_frozen_attention(4, make_rng(3))
    with pytest.raises(ShapeError):
        frozen(np.zeros((1, 2, 5)), p)


@pytest.mark.parametrize("shape", [(3, 4), (4,)])
@pytest.mark.parametrize("branch", ["frozen", "residual", "prepend"])
def test_input_must_be_a_batch(shape, branch):
    # A single sequence is a batch of one: (1, L, d), not (L, d). Leading
    # task axes, (T, B, L, d), are allowed (test_task_axis_*).
    rng = make_rng(3)
    p = random_frozen_attention(4, rng)
    x = rng.normal(size=shape)
    with pytest.raises(ShapeError):
        if branch == "frozen":
            frozen(x, p)
        elif branch == "residual":
            residual(x, p, init_adapter(2, 4, 0.02, rng), 1.0)
        else:
            prepend(x, p, PromptBaseline(p=rng.normal(size=(2, 4))))


def test_frozen_batch_equals_per_sample_loop():
    rng = make_rng(4)
    p = random_frozen_attention(4, rng)
    xb = rng.normal(size=(6, 3, 4))
    batch = frozen(xb, p)
    looped = np.concatenate([frozen(xb[i : i + 1], p) for i in range(6)])
    assert np.allclose(batch, looped, atol=1e-13)


# ------------------------------------------------------------------ prepend


def test_prepend_duplicated_rows_equals_frozen_tail():
    rng = make_rng(5)
    p = random_frozen_attention(4, rng)
    x = rng.normal(size=(1, 2, 4))
    prompt = PromptBaseline(p=x[0].copy())
    out = prepend(x, p, prompt)
    full = frozen(np.concatenate([x, x], axis=1), p)
    assert np.allclose(out, full[:, 2:], atol=1e-14)


def test_prepend_scalar_closed_form():
    # l=1, L=1, d=1: output = a*v_P + (1-a)*v_x
    p = FrozenAttention(
        w_q=np.array([[1.3]]), w_k=np.array([[-0.7]]), w_v=np.array([[2.0]]),
        b_q=np.array([0.1]), b_k=np.array([0.2]), b_v=np.array([-0.3]),
    )
    x = np.array([[[0.5]]])
    prompt = PromptBaseline(p=np.array([[-1.1]]))
    q = x[0, 0, 0] * 1.3 + 0.1
    k_p = -1.1 * -0.7 + 0.2
    k_x = 0.5 * -0.7 + 0.2
    v_p = -1.1 * 2.0 - 0.3
    v_x = 0.5 * 2.0 - 0.3
    a = softmax_rows(np.array([[q * k_p, q * k_x]]))[0]
    expected = a[0] * v_p + a[1] * v_x
    out = prepend(x, p, prompt)
    assert abs(out[0, 0, 0] - expected) < 1e-12


def test_prepend_interferes_with_frozen_output():
    # nonzero prompts must change the output for generic inputs
    rng = make_rng(6)
    p = random_frozen_attention(4, rng)
    worst = 0.0
    for _ in range(100):
        x = rng.normal(size=(1, 3, 4))
        prompt = PromptBaseline(p=rng.normal(size=(2, 4)))
        dev = np.abs(prepend(x, p, prompt) - frozen(x, p)).max()
        worst = max(worst, dev)
    assert worst > 0.0


def _prepend_over_concat(x, p, prompt, d_out):
    # The reference: full self-attention over [prompt; x], prompt output
    # rows discarded, and its backward with a zero gradient on those rows.
    b, l = x.shape[0], prompt.l
    rows = np.broadcast_to(prompt.p, (b,) + prompt.p.shape)
    out_cat, fc = frozen_attn_with_cache(np.concatenate([rows, x], axis=1), p)
    d_cat = np.concatenate([np.zeros((b, l, p.d)), d_out], axis=1)
    d_x_cat = frozen_attn_backward(fc, d_cat)
    return out_cat[:, l:], d_x_cat[:, l:], d_x_cat[:, :l].sum(axis=0)


@pytest.mark.parametrize("b,length,l,d", [(5, 8, 4, 32), (3, 4, 4, 32), (4, 3, 2, 6), (1, 1, 1, 3)])
def test_prepend_equals_attention_over_concat_bitwise(b, length, l, d):
    # Only the input rows' queries are formed, and the prompt is projected
    # once per batch; the kept rows and both gradients keep their bits.
    rng = make_rng(23)
    p = random_frozen_attention(d, rng)
    x = rng.normal(size=(b, length, d))
    prompt = PromptBaseline(p=rng.uniform(-0.5, 0.5, size=(l, d)))
    d_out = rng.normal(size=(b, length, d))
    want_out, want_d_x, want_d_prompt = _prepend_over_concat(x, p, prompt, d_out)
    out, cache = prepend_attn_with_cache(x, p, prompt)
    assert np.array_equal(out, want_out)
    d_x, d_prompt = prepend_attn_backward(cache, d_out)
    assert np.array_equal(d_x, want_d_x)
    assert np.array_equal(d_prompt, want_d_prompt)
    none, d_prompt_only = prepend_attn_backward(cache, d_out, input_grad=False)
    assert none is None and np.array_equal(d_prompt_only, want_d_prompt)


def test_prepend_over_taken_frozen_cache_bitwise_equal():
    # Layer 0's frozen forward over a whole training set, restricted to a
    # batch and to what a prompt reads, must give the batch's own prepend
    # forward and backward bit for bit, without reading x.
    rng = make_rng(24)
    p = random_frozen_attention(4, rng)
    prompt = PromptBaseline(p=rng.normal(size=(2, 4)))
    x = rng.normal(size=(9, 3, 4))
    _, whole = frozen_attn_with_cache(x, p)
    for idx in (np.array([4, 0, 7]), np.array([8]), rng.permutation(9)):
        rows = _rows(whole, idx, ("x", "q", "v", "scores"))
        got, got_cache = prepend_attn_with_cache(None, p, prompt, frozen=rows)
        want, want_cache = prepend_attn_with_cache(x[idx], p, prompt)
        assert np.array_equal(got, want)
        # The rows hold what the forward and its prompt backward read.
        for name in ("x", "q", "v", "scores"):
            assert np.array_equal(getattr(got_cache.proj, name), getattr(want_cache.proj, name))
        assert got_cache.proj.k is got_cache.proj.attn is None
        d_out = rng.normal(size=got.shape)
        none, d_prompt = prepend_attn_backward(got_cache, d_out, input_grad=False)
        _, want_d_prompt = prepend_attn_backward(want_cache, d_out, input_grad=False)
        assert none is None and np.array_equal(d_prompt, want_d_prompt)


def test_prepend_grads_match_finite_differences():
    rng = make_rng(25)
    p = random_frozen_attention(4, rng)
    x = rng.normal(size=(3, 5, 4))
    prompt = rng.normal(size=(2, 4)) * 0.5
    d_out = rng.normal(size=(3, 5, 4))

    def loss(x_in, prompt_rows):
        return float(np.sum(d_out * prepend(x_in, p, PromptBaseline(p=prompt_rows))))

    _, cache = prepend_attn_with_cache(x, p, PromptBaseline(p=prompt))
    d_x, d_prompt = prepend_attn_backward(cache, d_out)
    none, d_prompt_only = prepend_attn_backward(cache, d_out, input_grad=False)
    assert none is None
    num_prompt = finite_diff_grad(lambda t: loss(x, t.reshape(prompt.shape)), prompt.ravel(), 1e-5)
    num_x = finite_diff_grad(lambda t: loss(t.reshape(x.shape), prompt), x.ravel(), 1e-5)
    for analytic, numeric in (
        (d_prompt.ravel(), num_prompt), (d_prompt_only.ravel(), num_prompt), (d_x.ravel(), num_x)
    ):
        scale = max(np.abs(numeric).max(), 1e-12)
        assert np.abs(analytic - numeric).max() / scale <= 1e-6


# ----------------------------------------------------------------- residual


def test_residual_fresh_adapter_is_identity_any_weight():
    rng = make_rng(7)
    p = random_frozen_attention(6, rng)
    a = init_adapter(l=3, d=6, bound=0.02, rng=rng)
    for w in (0.0, 0.3, 1.0):
        x = rng.normal(size=(1, 4, 6))
        assert np.array_equal(residual(x, p, a, w), frozen(x, p))


def test_residual_weight_zero_with_trained_adapter():
    rng = make_rng(8)
    p = random_frozen_attention(4, rng)
    a = Adapter(k_r=rng.normal(size=(2, 4)), v_r=rng.normal(size=(2, 4)))
    x = rng.normal(size=(1, 3, 4))
    assert np.allclose(residual(x, p, a, 0.0), frozen(x, p), atol=0.0)


def test_residual_single_key_closed_form():
    # l=1, d=1: single-key softmax is 1, so O = O_L + w*v_r
    rng = make_rng(9)
    p = random_frozen_attention(1, rng)
    a = Adapter(k_r=np.array([[0.4]]), v_r=np.array([[-2.5]]))
    x = rng.normal(size=(1, 3, 1))
    w = 0.7
    out = residual(x, p, a, w)
    assert np.allclose(out, frozen(x, p) + w * -2.5, atol=1e-14)


def test_residual_equal_keys_average_values():
    rng = make_rng(10)
    p = random_frozen_attention(3, rng)
    k_row = rng.normal(size=3)
    v = rng.normal(size=(2, 3))
    a = Adapter(k_r=np.stack([k_row, k_row]), v_r=v)
    x = rng.normal(size=(1, 2, 3))
    out = residual(x, p, a, 1.0)
    assert np.allclose(out, frozen(x, p) + v.mean(axis=0), atol=1e-12)


def test_residual_weight_out_of_range():
    rng = make_rng(11)
    p = random_frozen_attention(3, rng)
    a = init_adapter(2, 3, 0.02, rng)
    with pytest.raises(ContractError):
        residual(rng.normal(size=(1, 2, 3)), p, a, 1.5)
    with pytest.raises(ContractError):
        residual(rng.normal(size=(1, 2, 3)), p, a, -0.1)


@pytest.mark.parametrize("w", [float("nan"), np.float64("nan"), np.array(float("nan"))])
def test_residual_weight_nan_rejected(w):
    # NaN compares False both ways; a fresh adapter would turn it into NaN
    # outputs rather than the exact identity.
    rng = make_rng(11)
    p = random_frozen_attention(3, rng)
    a = init_adapter(2, 3, 0.02, rng)
    with pytest.raises(ContractError):
        residual(rng.normal(size=(1, 2, 3)), p, a, w)


def test_residual_per_sample_weight_nan_rejected():
    rng = make_rng(11)
    p = random_frozen_attention(3, rng)
    a = init_adapter(2, 3, 0.02, rng)
    with pytest.raises(ContractError):
        residual(rng.normal(size=(3, 2, 3)), p, a, np.array([0.5, float("nan"), 1.0]))


def test_residual_per_sample_weight_length_mismatch():
    rng = make_rng(11)
    p = random_frozen_attention(3, rng)
    a = init_adapter(2, 3, 0.02, rng)
    with pytest.raises(ShapeError, match=r"per-sample weights \(2,\) do not match batch 3"):
        residual(rng.normal(size=(3, 2, 3)), p, a, np.array([0.5, 1.0]))


def test_residual_backward_per_sample_weights_equal_loop():
    # The forward stores the checked (B, 1, 1) weight view; the backward
    # scales by it and matches one single-row backward per row.
    rng = make_rng(12)
    p = random_frozen_attention(4, rng)
    a = Adapter(k_r=rng.normal(size=(2, 4)), v_r=rng.normal(size=(2, 4)))
    x = rng.normal(size=(3, 2, 4))
    d_out = rng.normal(size=(3, 2, 4))
    ws = np.array([0.0, 0.25, 1.0])
    d_x, d_k, d_v = residual_attn_backward(residual_attn_with_cache(x, p, a, ws)[1], d_out)
    rows = [
        residual_attn_backward(residual_attn_with_cache(x[i : i + 1], p, a, float(ws[i]))[1],
                               d_out[i : i + 1])
        for i in range(3)
    ]
    assert np.allclose(d_x, np.concatenate([r[0] for r in rows]), atol=1e-13)
    assert np.allclose(d_k, sum(r[1] for r in rows), atol=1e-13)
    assert np.allclose(d_v, sum(r[2] for r in rows), atol=1e-13)


@pytest.mark.parametrize("branch", ["residual", "prepend"])
def test_attachment_width_must_match_layer(branch):
    rng = make_rng(3)
    p = random_frozen_attention(4, rng)
    x = rng.normal(size=(1, 2, 4))
    with pytest.raises(ShapeError, match=f"{'adapter' if branch == 'residual' else 'prompt'} "
                                         "width 5 does not match layer width 4"):
        if branch == "residual":
            residual(x, p, init_adapter(2, 5, 0.02, rng), 1.0)
        else:
            prepend(x, p, PromptBaseline(p=rng.normal(size=(2, 5))))


def test_residual_over_taken_frozen_cache_bitwise_equal():
    # Layer 0's frozen forward over a whole training set, restricted to a
    # batch and to what an adapter reads, must give the batch's own residual
    # forward bit for bit, without reading x.
    rng = make_rng(18)
    p = random_frozen_attention(4, rng)
    a = Adapter(k_r=rng.normal(size=(2, 4)), v_r=rng.normal(size=(2, 4)))
    x = rng.normal(size=(9, 3, 4))
    _, whole = frozen_attn_with_cache(x, p)
    for idx in (np.array([4, 0, 7]), np.array([8]), rng.permutation(9)):
        rows = _rows(whole, idx, ("x", "q", "out"))
        got, got_cache = residual_attn_with_cache(None, p, a, 1.0, frozen=rows)
        want, want_cache = residual_attn_with_cache(x[idx], p, a, 1.0)
        assert np.array_equal(got, want)
        assert np.array_equal(got_cache.attn_r, want_cache.attn_r)
        # The rows hold what the forward and its parameter backward read.
        for name in ("x", "q", "out"):
            assert np.array_equal(getattr(got_cache.frozen, name), getattr(want_cache.frozen, name))
        assert got_cache.frozen.k is got_cache.frozen.attn is None
        d_out = rng.normal(size=got.shape)
        _, d_k, d_v = residual_attn_backward(got_cache, d_out, input_grad=False)
        _, want_k, want_v = residual_attn_backward(want_cache, d_out, input_grad=False)
        assert np.array_equal(d_k, want_k) and np.array_equal(d_v, want_v)


def test_backward_without_input_grad_same_parameter_grads():
    rng = make_rng(19)
    p = random_frozen_attention(4, rng)
    a = Adapter(k_r=rng.normal(size=(2, 4)), v_r=rng.normal(size=(2, 4)))
    _, cache = residual_attn_with_cache(rng.normal(size=(5, 3, 4)), p, a, 0.7)
    d_out = rng.normal(size=(5, 3, 4))
    d_x, d_k, d_v = residual_attn_backward(cache, d_out)
    none, d_k_only, d_v_only = residual_attn_backward(cache, d_out, input_grad=False)
    assert d_x.shape == (5, 3, 4) and none is None
    assert np.array_equal(d_k, d_k_only) and np.array_equal(d_v, d_v_only)


def test_residual_frozen_subresult_bitwise_equal():
    # the residual branch must not perturb the frozen attention path
    rng = make_rng(12)
    p = random_frozen_attention(4, rng)
    a = Adapter(k_r=rng.normal(size=(2, 4)), v_r=rng.normal(size=(2, 4)))
    x = rng.normal(size=(1, 3, 4))
    _, cache = residual_attn_with_cache(x, p, a, 0.6)
    assert np.array_equal(cache.frozen.out, frozen(x, p))


def test_residual_linearity_in_weight():
    rng = make_rng(13)
    p = random_frozen_attention(5, rng)
    a = Adapter(k_r=rng.normal(size=(2, 5)), v_r=rng.normal(size=(2, 5)))
    x = rng.normal(size=(1, 4, 5))
    base = frozen(x, p)
    full = residual(x, p, a, 1.0) - base
    for w in (0.0, 0.25, 0.5, 0.9):
        assert np.allclose(residual(x, p, a, w) - base, w * full, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_zero_init_identity_property(length, l, d, w, seed):
    rng = make_rng(seed)
    p = random_frozen_attention(d, rng)
    a = init_adapter(l, d, 0.02, rng)
    x = rng.normal(size=(1, length, d))
    dev = np.abs(residual(x, p, a, w) - frozen(x, p)).max()
    assert dev <= 1e-12


def test_residual_batch_equals_loop_and_per_sample_weights():
    rng = make_rng(14)
    p = random_frozen_attention(4, rng)
    a = Adapter(k_r=rng.normal(size=(2, 4)), v_r=rng.normal(size=(2, 4)))
    xb = rng.normal(size=(5, 3, 4))
    ws = rng.uniform(0.0, 1.0, size=5)
    batch = residual(xb, p, a, ws)
    looped = np.concatenate([residual(xb[i : i + 1], p, a, float(ws[i])) for i in range(5)])
    assert np.allclose(batch, looped, atol=1e-13)


# ---------------------------------------------------------------- gradients


def _loss_k(p, x, v_r, w, d_out):
    def f(theta):
        a = Adapter(k_r=theta.reshape(v_r.shape), v_r=v_r)
        return float(np.sum(d_out * residual(x, p, a, w)))

    return f


def _loss_v(p, x, k_r, w, d_out):
    def f(theta):
        a = Adapter(k_r=k_r, v_r=theta.reshape(k_r.shape))
        return float(np.sum(d_out * residual(x, p, a, w)))

    return f


def test_adapter_grads_zero_values_kill_key_grad():
    rng = make_rng(15)
    p = random_frozen_attention(4, rng)
    a = init_adapter(2, 4, 0.5, rng)  # v_r = 0
    x = rng.normal(size=(1, 3, 4))
    dk, dv = adapter_grads(x, p, a, 1.0, rng.normal(size=(1, 3, 4)))
    assert np.array_equal(dk, np.zeros_like(a.k_r))
    assert np.abs(dv).max() > 0.0


def test_adapter_grads_zero_weight_kills_both():
    rng = make_rng(16)
    p = random_frozen_attention(4, rng)
    a = Adapter(k_r=rng.normal(size=(2, 4)), v_r=rng.normal(size=(2, 4)))
    x = rng.normal(size=(1, 3, 4))
    dk, dv = adapter_grads(x, p, a, 0.0, rng.normal(size=(1, 3, 4)))
    assert np.array_equal(dk, np.zeros_like(dk))
    assert np.array_equal(dv, np.zeros_like(dv))


def test_adapter_grads_match_finite_differences():
    rng = make_rng(17)
    p = random_frozen_attention(4, rng)
    a = Adapter(k_r=rng.normal(size=(2, 4)) * 0.3, v_r=rng.normal(size=(2, 4)) * 0.3)
    x = rng.normal(size=(1, 3, 4))
    d_out = rng.normal(size=(1, 3, 4))
    w = 0.8
    dk, dv = adapter_grads(x, p, a, w, d_out)
    num_k = finite_diff_grad(_loss_k(p, x, a.v_r, w, d_out), a.k_r.ravel(), 1e-5)
    num_v = finite_diff_grad(_loss_v(p, x, a.k_r, w, d_out), a.v_r.ravel(), 1e-5)
    for analytic, numeric in ((dk.ravel(), num_k), (dv.ravel(), num_v)):
        scale = max(np.abs(numeric).max(), 1e-12)
        assert np.abs(analytic - numeric).max() / scale <= 1e-4


# --------------------------------------------------------------------- init


def test_init_adapter_bound_zero_fully_degenerate():
    a = init_adapter(2, 3, 0.0, make_rng(18))
    b = init_adapter_ablation(2, 3, 0.0, make_rng(18))
    assert np.array_equal(a.k_r, np.zeros((2, 3)))
    assert np.array_equal(a.v_r, np.zeros((2, 3)))
    assert np.array_equal(b.k_r, a.k_r)
    assert np.array_equal(b.v_r, a.v_r)


@pytest.mark.parametrize("init", [init_adapter, init_adapter_ablation])
@pytest.mark.parametrize("bound", [float("nan"), float("inf"), 1e308, -0.5])
def test_init_adapter_rejects_bad_bound(init, bound):
    # Draws are uniform on [-bound, bound), so 2 * bound must be finite.
    with pytest.raises(ContractError):
        init(2, 3, bound, make_rng(18))


def test_init_adapter_reproducible_and_in_range():
    a1 = init_adapter(4, 8, 0.02, make_rng(19))
    a2 = init_adapter(4, 8, 0.02, make_rng(19))
    assert np.array_equal(a1.k_r, a2.k_r)
    assert np.abs(a1.k_r).max() <= 0.02
    assert np.array_equal(a1.v_r, np.zeros((4, 8)))


def test_ablation_init_breaks_identity_and_grows_with_bound():
    rng = make_rng(20)
    p = random_frozen_attention(4, rng)
    x = make_rng(21).normal(size=(1, 3, 4))
    devs = []
    for bound in (0.01, 1.0):
        a = init_adapter_ablation(2, 4, bound, make_rng(22))
        devs.append(np.abs(residual(x, p, a, 1.0) - frozen(x, p)).max())
    assert devs[0] > 0.0
    assert devs[1] > devs[0]


def test_adapter_construction_validates_shapes():
    with pytest.raises(ShapeError):
        Adapter(k_r=np.zeros((2, 3)), v_r=np.zeros((3, 2)))


@pytest.mark.parametrize("cls", [Adapter, PromptBaseline])
@pytest.mark.parametrize("shape", [(0, 3), (3,), (2, 0, 3)])
def test_attachment_fields_must_be_nonempty_rows(cls, shape):
    # One shape rule for every kind: each field (l, d) with l >= 1, also
    # in a stack of attachments (T, l, d).
    n = len(fields(cls))
    with pytest.raises(ShapeError, match=r"must share one \(l, d\) shape with l >= 1"):
        cls(*[np.zeros(shape)] * n)


@pytest.mark.parametrize("kind,cls", sorted(ATTACHMENTS.items()))
def test_attachment_kinds_declare_only_fields(kind, cls):
    # l and d come from the shared base, read off the fields.
    assert issubclass(cls, Attachment) and "__post_init__" not in vars(cls)
    att = cls(*[np.ones((2, 5))] * len(fields(cls)))
    assert (att.l, att.d) == (2, 5)
    assert list(vars(att)) == [f.name for f in fields(cls)]


# ---------------------------------------------------------------- task axis
# Lockstep training stacks T tasks' batches as (T, B, L, d) and their
# attachments as (T, 1, l, d). Each task must get exactly the bits it gets
# alone: every product is per task, and parameter gradients sum over each
# task's own batch.


def _stacked(atts):
    return type(atts[0])(*(np.stack(vs)[:, None] for vs in zip(*(vars(a).values() for a in atts))))


@pytest.mark.parametrize("branch", ["frozen", "residual", "prepend"])
@pytest.mark.parametrize("input_grad", [True, False])
def test_task_axis_equals_each_task_alone(branch, input_grad):
    rng = make_rng(31)
    t, b, length, d, l = 3, 5, 6, 4, 2
    p = random_frozen_attention(d, rng)
    x = rng.normal(size=(t, b, length, d))
    d_out = rng.normal(size=x.shape)
    if branch == "prepend":
        atts = [PromptBaseline(rng.normal(size=(l, d))) for _ in range(t)]
    else:
        atts = [init_adapter_ablation(l, d, 0.5, rng) for _ in range(t)]

    def run(x, att, d_out):
        """The branch's output and every gradient it returns."""
        if branch == "frozen":
            out, cache = frozen_attn_with_cache(x, p)
            return out, [frozen_attn_backward(cache, d_out)]
        if branch == "residual":
            out, cache = residual_attn_with_cache(x, p, att, 1.0)
            grads = residual_attn_backward(cache, d_out, input_grad)
        else:
            out, cache = prepend_attn_with_cache(x, p, att)
            grads = prepend_attn_backward(cache, d_out, input_grad)
        return out, [g for g in grads if g is not None]

    whole_out, whole_grads = run(x, _stacked(atts), d_out)
    for i in range(t):
        out, grads = run(x[i], atts[i], d_out[i])
        assert whole_out[i].tobytes() == out.tobytes()
        for whole, alone in zip(whole_grads, grads, strict=True):
            if whole.shape == x.shape:  # an input gradient
                assert whole[i].tobytes() == alone.tobytes()
            else:  # a parameter gradient, shaped as its stacked field
                assert whole.shape == (t, 1, l, d)
                assert whole[i, 0].tobytes() == alone.tobytes()


def test_task_axis_attachment_shape_is_the_last_two_axes():
    a = _stacked([init_adapter(2, 4, 0.1, make_rng(s)) for s in range(3)])
    assert a.shape == (3, 1, 2, 4) and (a.l, a.d) == (2, 4)
