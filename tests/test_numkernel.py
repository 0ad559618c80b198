"""Kernel contracts: validators, softmax, the training loss, Cholesky, RNG."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from hypothesis import given, settings
from hypothesis import strategies as st

from resadapt.errors import ContractError, ShapeError, SingularityError
from resadapt.learner import batch_cross_entropy
from resadapt.numkernel import (
    cholesky_factor,
    cholesky_logdet,
    cholesky_solve,
    finite_diff_grad,
    make_rng,
    mat,
    row_max,
    softmax_backward,
    softmax_rows,
    vec,
)

finite_rows = st.lists(
    st.floats(min_value=-700.0, max_value=700.0, allow_nan=False),
    min_size=1,
    max_size=8,
)


# ---------------------------------------------------------------- validators


def test_mat_rejects_ragged_and_nonfinite():
    with pytest.raises(ShapeError):
        mat([[1.0, 2.0], [3.0]])
    with pytest.raises(ContractError):
        mat([[1.0, float("nan")]])
    with pytest.raises(ShapeError):
        mat([1.0, 2.0])


def test_vec_rejects_matrix_input():
    with pytest.raises(ShapeError):
        vec([[1.0, 2.0]])


# ------------------------------------------------------------------ softmax


def test_softmax_uniform_row():
    out = softmax_rows(mat([[0.0, 0.0, 0.0]]))
    assert np.allclose(out, 1.0 / 3.0, atol=1e-15)


def test_softmax_single_element():
    assert softmax_rows(mat([[123.4]]))[0, 0] == 1.0


def test_softmax_ln3_row():
    out = softmax_rows(mat([[0.0, math.log(3.0)]]))
    assert np.allclose(out, [0.25, 0.75], atol=1e-12)


def test_softmax_extreme_entries_still_normalized():
    out = softmax_rows(mat([[700.0, -700.0, 0.0], [-700.0, 700.0, 700.0]]))
    assert np.all(np.isfinite(out))
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(finite_rows.map(lambda r: r[:4] + [0.0] * (4 - len(r[:4]))), min_size=1, max_size=5))
def test_softmax_rows_sum_to_one(rows):
    out = softmax_rows(mat(rows))
    assert np.all(out >= 0.0)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(finite_rows, st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
def test_softmax_shift_invariance(row, c):
    a = softmax_rows(mat([row]))
    b = softmax_rows(mat([[x + c for x in row]]))
    assert np.allclose(a, b, atol=1e-12)


# ----------------------------------------------------------------- jacobian


def softmax_row_jacobian(a: np.ndarray) -> np.ndarray:
    """Oracle for softmax_backward: the full Jacobian at a softmaxed row a.

    J[s, t] = a_s (1 - a_s) for s == t and -a_s a_t otherwise, i.e.
    diag(a) - outer(a, a). The input must be a probability row: entries
    non-negative and summing to 1 within 1e-9.
    """
    a = vec(a)
    if np.any(a < 0.0) or abs(float(a.sum()) - 1.0) > 1e-9:
        raise ContractError("input is not a normalized probability row")
    return np.diag(a) - np.outer(a, a)


def test_jacobian_half_half():
    j = softmax_row_jacobian(vec([0.5, 0.5]))
    assert np.allclose(j, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)


def test_jacobian_degenerate_single():
    assert softmax_row_jacobian(vec([1.0]))[0, 0] == 0.0


def test_jacobian_rejects_unnormalized():
    with pytest.raises(ContractError):
        softmax_row_jacobian(vec([0.4, 0.4]))


def test_jacobian_matches_finite_differences():
    rng = make_rng(3)
    z = rng.normal(size=4)
    a = softmax_rows(z[None, :])[0]
    j = softmax_row_jacobian(a)
    h = 1e-6
    for t in range(4):
        zp, zm = z.copy(), z.copy()
        zp[t] += h
        zm[t] -= h
        col = (softmax_rows(zp[None, :])[0] - softmax_rows(zm[None, :])[0]) / (2 * h)
        assert np.allclose(j[:, t], col, atol=1e-6)


def test_jacobian_rows_sum_to_zero_and_symmetric():
    rng = make_rng(4)
    a = softmax_rows(rng.normal(size=(1, 6)))[0]
    j = softmax_row_jacobian(a)
    assert np.allclose(j.sum(axis=1), 0.0, atol=1e-12)
    assert np.allclose(j, j.T, atol=1e-15)


# row_max takes each row's max off a contiguous transposed copy. A max is
# exact in any order, so it equals numpy's; only the sign of a zero max may
# differ (numpy's own reduction picks either zero, depending on the row
# length), and exp(x - 0.0) == exp(x + 0.0) makes that invisible to the
# softmax, which must keep numpy's bits.
SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5, -2.0])


def _softmax_numpy_max(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize(
    "shape", [(1, 1), (7, 1), (3, 5, 1), (4, 9), (6, 17), (2, 33), (32, 8, 8), (5, 32, 8, 12)]
)
def test_row_max_and_softmax_equal_numpy(shape):
    rng = make_rng(8)
    blocks = (
        rng.normal(size=shape) * 300.0,
        rng.choice(SPECIAL, size=shape),  # NaN, +-inf and signed zeros
        np.where(rng.random(shape) < 0.5, -0.0, 0.0),
    )
    for z in blocks:
        got, want = row_max(z), z.max(axis=-1, keepdims=True)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        if not np.any(want == 0.0):
            assert got.tobytes() == want.tobytes()
        with np.errstate(invalid="ignore"):
            assert softmax_rows(z).tobytes() == _softmax_numpy_max(z).tobytes()


def test_row_max_of_a_non_contiguous_block():
    z = make_rng(9).normal(size=(6, 10))[:, ::2]
    assert row_max(z).tobytes() == z.max(axis=-1, keepdims=True).tobytes()


def test_softmax_backward_matches_jacobian_route():
    # dual route: dS = J^T dA per row vs the fused a*(dA - sum(a*dA)) form
    rng = make_rng(5)
    a = softmax_rows(rng.normal(size=(3, 5)))
    d_a = rng.normal(size=(3, 5))
    fused = softmax_backward(a, d_a)
    per_row = np.stack([softmax_row_jacobian(a[i]).T @ d_a[i] for i in range(3)])
    assert np.allclose(fused, per_row, atol=1e-12)


# ------------------------------------------------------------ cross entropy
# batch_cross_entropy is the training loss: the mean over a (B, K) logit
# block, with the gradient of that mean. Each case runs on a one-row block
# and on a multi-row block.


def test_cross_entropy_uniform_two_way():
    loss, grad = batch_cross_entropy(mat([[0.0, 0.0]]), np.array([0]))
    assert abs(loss - math.log(2.0)) < 1e-12
    assert np.allclose(grad, [[-0.5, 0.5]], atol=1e-12)
    loss, grad = batch_cross_entropy(np.zeros((3, 2)), np.array([0, 1, 0]))
    assert abs(loss - math.log(2.0)) < 1e-12
    assert np.allclose(grad, np.array([[-0.5, 0.5], [0.5, -0.5], [-0.5, 0.5]]) / 3, atol=1e-12)


def test_cross_entropy_near_certain():
    loss, _ = batch_cross_entropy(mat([[10.0, -10.0]]), np.array([0]))
    assert loss < 1e-8
    assert abs(loss - 2.06e-9) < 1e-10
    loss, _ = batch_cross_entropy(mat([[10.0, -10.0], [-10.0, 10.0]]), np.array([0, 1]))
    assert abs(loss - 2.06e-9) < 1e-10


def test_cross_entropy_label_out_of_range():
    for logits, labels in (([[0.0, 0.0]], [2]), ([[0.0, 0.0]], [-1]), ([[0.0, 0.0], [1.0, 2.0]], [0, 2])):
        with pytest.raises(IndexError):
            batch_cross_entropy(mat(logits), np.array(labels))


def test_cross_entropy_over_stacked_blocks_equals_each_block():
    # Lockstep training passes (T, B, K): one loss per block, and each
    # block's gradient with the bits it has alone.
    rng = make_rng(7)
    logits = rng.normal(size=(3, 5, 4)) * 10.0
    labels = rng.integers(0, 4, size=(3, 5))
    loss, grad = batch_cross_entropy(logits, labels)
    assert loss.shape == (3,) and grad.shape == logits.shape
    for t in range(3):
        alone_loss, alone_grad = batch_cross_entropy(logits[t], labels[t])
        assert loss[t] == pytest.approx(alone_loss, rel=1e-15)
        assert grad[t].tobytes() == alone_grad.tobytes()
    with pytest.raises(IndexError):
        batch_cross_entropy(logits, labels[:, :-1])


def test_cross_entropy_grad_matches_finite_differences():
    rng = make_rng(6)
    for b in (1, 4):
        logits = rng.normal(size=(b, 5))
        labels = rng.integers(0, 5, size=b)
        _, grad = batch_cross_entropy(logits, labels)
        num = finite_diff_grad(lambda z: batch_cross_entropy(z, labels)[0], logits, 1e-6)
        assert np.allclose(grad, num, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=2, max_value=6),
    st.data(),
)
def test_cross_entropy_nonnegative_and_grad_sums_to_zero(b, k, data):
    logits = data.draw(
        st.lists(
            st.lists(st.floats(min_value=-30.0, max_value=30.0, allow_nan=False), min_size=k, max_size=k),
            min_size=b,
            max_size=b,
        )
    )
    labels = data.draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=b, max_size=b))
    loss, grad = batch_cross_entropy(mat(logits), np.array(labels))
    assert loss >= 0.0
    assert np.all(np.abs(grad.sum(axis=1)) < 1e-12)


# ----------------------------------------------------------------- cholesky


def _solve_and_logdet(s: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, float]:
    lower = cholesky_factor(s)
    return cholesky_solve(lower, v), cholesky_logdet(lower)


def test_cholesky_identity_case():
    x, logdet = _solve_and_logdet(np.eye(3), vec([1.0, 2.0, 3.0]))
    assert np.allclose(x, [1.0, 2.0, 3.0], atol=1e-15)
    assert logdet == 0.0


def test_cholesky_scalar_case():
    x, logdet = _solve_and_logdet(mat([[4.0]]), vec([8.0]))
    assert abs(x[0] - 2.0) < 1e-15
    assert abs(logdet - math.log(4.0)) < 1e-15


def test_cholesky_against_brute_force():
    rng = make_rng(9)
    a = rng.normal(size=(6, 6))
    s = a @ a.T + 0.5 * np.eye(6)
    v = rng.normal(size=6)
    x, logdet = _solve_and_logdet(s, v)
    assert np.allclose(x, np.linalg.solve(s, v), atol=1e-8)
    eigs = np.linalg.eigvalsh(s)
    assert abs(logdet - np.sum(np.log(eigs))) < 1e-8


def test_cholesky_non_spd_raises():
    with pytest.raises(SingularityError):
        cholesky_factor(mat([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1


def test_cholesky_asymmetric_raises():
    with pytest.raises(ContractError):
        cholesky_factor(mat([[1.0, 0.5], [0.0, 1.0]]))


def test_cholesky_factor_solve_roundtrip():
    rng = make_rng(10)
    for d in (2, 8, 32, 64):
        a = rng.normal(size=(d, d))
        s = a @ a.T + 0.1 * np.eye(d)
        x0 = rng.normal(size=d)
        lower = cholesky_factor(s)
        x = cholesky_solve(lower, s @ x0)
        assert np.linalg.norm(x - x0) / np.linalg.norm(x0) < 1e-8
        assert abs(cholesky_logdet(lower) - np.linalg.slogdet(s)[1]) < 1e-8


def _scipy_cholesky_solve(lower, b):
    # The two-call solve_triangular path that cholesky_solve calls dtrtrs in place of.
    y = solve_triangular(lower, b, lower=True, check_finite=False)
    return solve_triangular(lower.T, y, lower=False, check_finite=False)


@pytest.mark.parametrize("d", [1, 4, 32])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("cols", [None, 1, 2, 80])
def test_cholesky_solve_matches_solve_triangular_bitwise(d, order, cols):
    rng = make_rng(11, d, cols or 0)
    a = rng.normal(size=(d, d))
    lower = np.asarray(cholesky_factor(a @ a.T + 0.1 * np.eye(d)), order=order)
    for trial in range(5):
        b = rng.normal(size=(d,) if cols is None else (d, cols)) * 10.0**trial
        got, want = cholesky_solve(lower, b), _scipy_cholesky_solve(lower, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
def test_cholesky_solve_zero_diagonal_raises(order):
    lower = np.asarray(mat([[2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.3, 1.0]]), order=order)
    with pytest.raises(SingularityError):
        cholesky_solve(lower, vec([1.0, 2.0, 3.0]))


def test_cholesky_solve_propagates_nan():
    lower = cholesky_factor(mat([[4.0, 1.0], [1.0, 3.0]]))
    x = cholesky_solve(lower, np.array([[np.nan, 1.0], [2.0, 1.0]]))
    assert np.isnan(x[:, 0]).all() and np.isfinite(x[:, 1]).all()


# -------------------------------------------------------------- finite diff


def test_finite_diff_quadratic():
    g = finite_diff_grad(lambda t: float(t[0] ** 2), vec([3.0]), 1e-5)
    assert abs(g[0] - 6.0) < 1e-8


def test_finite_diff_constant():
    g = finite_diff_grad(lambda t: 7.0, vec([1.0, -2.0, 0.5]), 1e-5)
    assert np.array_equal(g, np.zeros(3))


# ---------------------------------------------------------------------- rng


def test_rng_reproducible_streams():
    a = make_rng(42).normal(size=10000)
    b = make_rng(42).normal(size=10000)
    assert np.array_equal(a, b)


def test_rng_path_derivation_independent():
    root = make_rng(0).normal(size=100)
    child = make_rng(0, 1).normal(size=100)
    sibling = make_rng(0, 2).normal(size=100)
    assert not np.array_equal(root, child)
    assert not np.array_equal(child, sibling)


def test_rng_same_path_same_stream():
    assert np.array_equal(
        make_rng(3, 11, 2).integers(0, 1000, size=50),
        make_rng(3, 11, 2).integers(0, 1000, size=50),
    )
