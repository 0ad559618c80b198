"""Dual-encoder contracts: determinism, unit norms, pass-through."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resadapt.attention import (
    Adapter,
    FrozenCache,
    PromptBaseline,
    frozen_attn_with_cache,
    init_adapter,
)
from resadapt.backbone import (
    EncoderSpec,
    class_embeddings,
    encode,
    encode_with_cache,
    encode_backward,
)
from resadapt.bench.stream import TEMPLATE_PREFIX
from resadapt.errors import ContractError, ShapeError
from resadapt.learner import LAYER0_KEPT, _layer0_kept
from resadapt.numkernel import finite_diff_grad, make_rng


def test_build_deterministic_per_seed():
    a = EncoderSpec(vocab=32, d=4, depth=2, seed=5).build()
    b = EncoderSpec(vocab=32, d=4, depth=2, seed=5).build()
    c = EncoderSpec(vocab=32, d=4, depth=2, seed=6).build()
    assert np.array_equal(a.image.embed, b.image.embed)
    assert np.array_equal(a.image.layers[0].w_q, b.image.layers[0].w_q)
    assert not np.array_equal(a.image.embed, c.image.embed)


def test_towers_share_embedding_but_not_layers(small_encoder):
    # shared table aligns the feature spaces; layers stay independent
    assert small_encoder.image.embed is small_encoder.text.embed
    assert not np.array_equal(
        small_encoder.image.layers[0].w_q, small_encoder.text.layers[0].w_q
    )


def test_encode_unit_norm_and_deterministic(small_encoder):
    ids = make_rng(0).integers(0, 64, size=(1, 6))
    f1 = encode(ids, small_encoder.image)
    f2 = encode(ids, small_encoder.image)
    assert f1.shape == (1, 8)
    assert np.array_equal(f1, f2)
    assert abs(np.linalg.norm(f1[0]) - 1.0) < 1e-12


def test_encode_batch_matches_loop(small_encoder):
    ids = make_rng(1).integers(0, 64, size=(5, 6))
    batch = encode(ids, small_encoder.image)
    looped = np.concatenate([encode(ids[i : i + 1], small_encoder.image) for i in range(5)])
    assert np.allclose(batch, looped, atol=1e-13)
    assert np.allclose(np.linalg.norm(batch, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("encoder", [encode, encode_with_cache])
@pytest.mark.parametrize("shape", [(6,), (1, 1, 6)])
def test_ids_must_be_a_batch(small_encoder, encoder, shape):
    # A single sequence is a batch of one: (1, L), not (L,).
    with pytest.raises(ShapeError):
        encoder(np.zeros(shape, dtype=np.int64), small_encoder.image)


def test_encode_rejects_out_of_vocab(small_encoder):
    with pytest.raises(IndexError):
        encode(np.array([[0, 64]]), small_encoder.image)


def test_fresh_adapters_pass_through_any_depth(small_encoder):
    rng = make_rng(2)
    ids = rng.integers(0, 64, size=(1, 6))
    frozen = encode(ids, small_encoder.image)
    for depth in (1, 2):
        adapters = [init_adapter(4, 8, 0.02, rng) for _ in range(depth)]
        for w in (0.0, 0.5, 1.0):
            adapted = encode(ids, small_encoder.image, adapters, w)
            assert np.abs(adapted - frozen).max() <= 1e-12


def test_trained_adapter_at_zero_weight_passes_through(small_encoder):
    rng = make_rng(3)
    ids = rng.integers(0, 64, size=(1, 6))
    trained = [Adapter(k_r=rng.normal(size=(4, 8)), v_r=rng.normal(size=(4, 8)))]
    frozen = encode(ids, small_encoder.image)
    assert np.allclose(encode(ids, small_encoder.image, trained, 0.0), frozen, atol=1e-15)
    assert np.abs(encode(ids, small_encoder.image, trained, 1.0) - frozen).max() > 1e-6


def test_per_sample_weights_match_loop(small_encoder):
    rng = make_rng(4)
    ids = rng.integers(0, 64, size=(4, 6))
    trained = [Adapter(k_r=rng.normal(size=(4, 8)), v_r=rng.normal(size=(4, 8)))]
    ws = np.array([0.0, 0.3, 0.7, 1.0])
    batch = encode(ids, small_encoder.image, trained, ws)
    looped = np.concatenate(
        [encode(ids[i : i + 1], small_encoder.image, trained, float(ws[i])) for i in range(4)]
    )
    assert np.allclose(batch, looped, atol=1e-13)


def test_class_embeddings_rows_and_permutation(small_encoder):
    classes = np.array([TEMPLATE_PREFIX + (10 + c,) for c in range(3)])
    rows = class_embeddings(classes, small_encoder.text)
    assert rows.shape == (3, 8)
    assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)
    permuted = class_embeddings(classes[[2, 0, 1]], small_encoder.text)
    assert np.array_equal(permuted, rows[[2, 0, 1]])


def test_class_embeddings_single_class(small_encoder):
    rows = class_embeddings(np.array([TEMPLATE_PREFIX + (9,)]), small_encoder.text)
    assert rows.shape == (1, 8)


def test_encoder_spec_validation():
    with pytest.raises(ContractError):
        EncoderSpec(vocab=0, d=8, depth=1, seed=0)
    with pytest.raises(ContractError):
        EncoderSpec(vocab=16, d=8, depth=0, seed=0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=8))
def test_encode_always_unit_norm(seed, length):
    enc = EncoderSpec(vocab=32, d=4, depth=2, seed=0).build()
    ids = make_rng(seed).integers(0, 32, size=(1, length))
    assert abs(np.linalg.norm(encode(ids, enc.image)[0]) - 1.0) < 1e-12


def test_encode_backward_matches_finite_differences(small_encoder):
    # full-stack gradient: loss = <d_feats, encode(ids)> as a function of one
    # adapter's parameters, both towers frozen
    rng = make_rng(6)
    ids = rng.integers(0, 64, size=(1, 5))
    base = init_adapter(3, 8, 0.02, rng)
    k0 = rng.normal(size=(3, 8)) * 0.3
    v0 = rng.normal(size=(3, 8)) * 0.3
    d_feats = rng.normal(size=(1, 8))
    w = 0.9

    def loss_from(k_flat, v_flat):
        adapters = [Adapter(k_r=k_flat.reshape(3, 8), v_r=v_flat.reshape(3, 8))]
        return float((d_feats * encode(ids, small_encoder.image, adapters, w)).sum())

    adapters = [Adapter(k_r=k0, v_r=v0)]
    feats, cache = encode_with_cache(ids, small_encoder.image, adapters, w)
    grads = encode_backward(cache, d_feats)
    assert grads[0] is not None and grads[1] is None  # adapter on layer 0 only
    dk, dv = grads[0]
    num_k = finite_diff_grad(lambda t: loss_from(t, v0.ravel()), k0.ravel(), 1e-5)
    num_v = finite_diff_grad(lambda t: loss_from(k0.ravel(), t), v0.ravel(), 1e-5)
    for analytic, numeric in ((dk.ravel(), num_k), (dv.ravel(), num_v)):
        scale = max(np.abs(numeric).max(), 1e-10)
        assert np.abs(analytic - numeric).max() / scale <= 1e-4


def _adapters(rng, n):
    return [
        Adapter(k_r=rng.normal(size=(3, 8)), v_r=rng.normal(size=(3, 8)) * 0.3) for _ in range(n)
    ]


def _prompts(rng, n):
    return [PromptBaseline(p=rng.normal(size=(3, 8)) * 0.5) for _ in range(n)]


@pytest.mark.parametrize(
    "make, kind",
    [
        (lambda rng: _adapters(rng, 1), "residual"),
        (lambda rng: _adapters(rng, 2), "residual"),
        (lambda rng: _prompts(rng, 1), "prepend"),
        (lambda rng: _prompts(rng, 2), "prepend"),
        (lambda rng: None, None),
    ],
    ids=["adapter-1", "adapter-2", "prompt-1", "prompt-2", "none"],
)
def test_layer0_cache_rows_give_identical_features_and_grads(small_encoder, make, kind):
    # A lockstep step builds layer 0's record as training does: the batch's
    # rows of what its branch reads (LAYER0_KEPT), kept over all training
    # rows, plus the batch's inputs and queries, recomputed. Features and
    # gradients must equal encoding the batch from ids. Without an
    # attachment, layer 0's output is the record's own: the batch's rows of
    # every field of the whole frozen forward.
    rng = make_rng(7)
    stack = small_encoder.image
    layer = stack.layers[0]
    ids = rng.integers(0, 64, size=(12, 6))
    attach = make(rng)
    idx = rng.permutation(12)[:5]
    if kind is None:
        whole = frozen_attn_with_cache(stack.embed[ids], layer)[1]
        names = ("x", "q", "k", "v", "scores", "attn", "out")
        layer0 = FrozenCache(p=layer, **{name: getattr(whole, name)[idx] for name in names})
    else:
        kept = _layer0_kept(ids, stack, LAYER0_KEPT[kind])
        assert sorted(kept) == sorted(LAYER0_KEPT[kind])
        x = stack.embed[ids[idx]]
        rows = {name: value[idx] for name, value in kept.items()}
        layer0 = FrozenCache(x=x, p=layer, q=x @ layer.w_q + layer.b_q, **rows)
    d_feats = rng.normal(size=(5, 8))
    feats, cache = encode_with_cache(ids[idx], stack, attach, 1.0, layer0)
    ref_feats, ref_cache = encode_with_cache(ids[idx], stack, attach, 1.0)
    assert np.array_equal(feats, ref_feats)
    got, want = encode_backward(cache, d_feats), encode_backward(ref_cache, d_feats)
    assert len(got) == len(want) == stack.depth
    for g, w in zip(got, want):
        # None, or one gradient per attachment field
        assert (g is None and w is None) or np.array_equal(g, w)


def test_encode_backward_prompt_grads_match_finite_differences(small_encoder):
    # Both layers carry a prompt: layer 1's gradient flows through layer 1
    # alone, layer 0's through the input gradient of layer 1 as well.
    rng = make_rng(13)
    ids = rng.integers(0, 64, size=(3, 5))
    prompts = [rng.normal(size=(2, 8)) * 0.3 for _ in range(2)]
    d_feats = rng.normal(size=(3, 8))

    def loss_from(i, flat):
        rows = [flat.reshape(2, 8) if j == i else prompts[j] for j in range(2)]
        attach = [PromptBaseline(p=r) for r in rows]
        return float((d_feats * encode(ids, small_encoder.image, attach)).sum())

    _, cache = encode_with_cache(ids, small_encoder.image, [PromptBaseline(p=r) for r in prompts])
    grads = encode_backward(cache, d_feats)
    for i in range(2):
        numeric = finite_diff_grad(lambda t: loss_from(i, t), prompts[i].ravel(), 1e-5)
        scale = max(np.abs(numeric).max(), 1e-10)
        assert np.abs(grads[i][0].ravel() - numeric).max() / scale <= 1e-4


def test_layer0_cache_must_match_ids_and_stack(small_encoder):
    # One layer-0 cache serves every attachment kind, but only the token ids
    # and the stack it was built from.
    rng = make_rng(8)
    ids = rng.integers(0, 64, size=(4, 6))
    _, cache = frozen_attn_with_cache(small_encoder.image.embed[ids], small_encoder.image.layers[0])
    _, first3 = frozen_attn_with_cache(small_encoder.image.embed[ids[:3]], small_encoder.image.layers[0])
    for attach in ([init_adapter(3, 8, 0.02, rng)], [PromptBaseline(p=rng.normal(size=(3, 8)))], None):
        feats, _ = encode_with_cache(ids, small_encoder.image, attach, 1.0, cache)
        assert np.array_equal(feats, encode_with_cache(ids, small_encoder.image, attach, 1.0)[0])
        with pytest.raises(ContractError):
            encode_with_cache(ids[:3], small_encoder.image, attach, 1.0, cache)
        with pytest.raises(ContractError):
            encode_with_cache(ids, small_encoder.text, attach, 1.0, cache)
        with pytest.raises(ContractError):
            encode_with_cache(ids, small_encoder.image, attach, 1.0, first3)


def test_encode_backward_skips_frozen_backward_at_layer_0(small_encoder, monkeypatch):
    # Nothing below layer 0 is trainable, so no input gradient is formed there.
    import resadapt.attention as attention

    calls = []
    original = attention.frozen_attn_backward
    monkeypatch.setattr(
        attention, "frozen_attn_backward", lambda c, d: calls.append(c) or original(c, d)
    )
    rng = make_rng(9)
    ids = rng.integers(0, 64, size=(3, 6))
    adapters = [Adapter(k_r=rng.normal(size=(3, 8)), v_r=rng.normal(size=(3, 8))) for _ in range(2)]
    _, cache = encode_with_cache(ids, small_encoder.image, adapters, 1.0)
    encode_backward(cache, rng.normal(size=(3, 8)))
    assert [c is cache.layer_caches[1].frozen for c in calls] == [True]


def test_encode_backward_skips_prompt_input_grad_at_layer_0(small_encoder, monkeypatch):
    import resadapt.backbone as backbone

    flags = []
    original = backbone.prepend_attn_backward
    monkeypatch.setattr(
        backbone, "prepend_attn_backward",
        lambda c, d, input_grad=True: flags.append(input_grad) or original(c, d, input_grad),
    )
    rng = make_rng(15)
    ids = rng.integers(0, 64, size=(3, 6))
    prompts = [PromptBaseline(p=rng.normal(size=(3, 8))) for _ in range(2)]
    _, cache = encode_with_cache(ids, small_encoder.image, prompts)
    encode_backward(cache, rng.normal(size=(3, 8)))
    assert flags == [True, False]  # layer 1, then layer 0


def test_encode_rejects_non_finite_features(small_encoder):
    rng = make_rng(10)
    ids = rng.integers(0, 64, size=(3, 6))
    blown = [Adapter(k_r=rng.normal(size=(3, 8)), v_r=np.full((3, 8), np.inf))]
    with np.errstate(invalid="ignore"), pytest.raises(ContractError):
        encode(ids, small_encoder.image, blown, 1.0)


def test_encode_rejects_nan_weight(small_encoder):
    fresh = [init_adapter(3, 8, 0.02, make_rng(11))]
    with pytest.raises(ContractError):
        encode(make_rng(12).integers(0, 64, size=(1, 6)), small_encoder.image, fresh, float("nan"))
