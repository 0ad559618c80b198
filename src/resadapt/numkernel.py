"""Deterministic float64 kernels.

Everything downstream funnels its numerics through here: validating
matrix and vector constructors, row-wise softmax and its backward,
Cholesky factors, solves and log-determinants, a central-difference
gradient oracle, and seeded RNG construction. Matrices are plain 2-D
float64 numpy arrays (row-major).

Randomness: all streams come from numpy's PCG64 counter generator seeded
through SeedSequence, so identical seeds give bit-identical draws and
derived streams (see make_rng) are independent by construction.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from scipy.linalg import solve_triangular

from .errors import ContractError, ShapeError, SingularityError

# A Mat is a 2-D float64 ndarray; mat() is the validating constructor for
# values that cross a module boundary.
Mat = np.ndarray

LOG_2PI = float(np.log(2.0 * np.pi))


def mat(data: Sequence[Sequence[float]] | np.ndarray) -> Mat:
    """Build a validated 2-D float64 matrix.

    Raises ShapeError if the input is ragged or not 2-D, ContractError if
    any element is non-finite.
    """
    try:
        a = np.asarray(data, dtype=np.float64)
    except ValueError as exc:
        raise ShapeError(f"ragged or non-numeric matrix data: {exc}") from exc
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ContractError("matrix contains non-finite elements")
    return a


def vec(data: Sequence[float] | np.ndarray) -> np.ndarray:
    """Build a validated 1-D float64 vector."""
    a = np.asarray(data, dtype=np.float64)
    if a.ndim != 1:
        raise ShapeError(f"expected a 1-D vector, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ContractError("vector contains non-finite elements")
    return a


def make_rng(seed: int, *path: int) -> np.random.Generator:
    """Seeded PCG64 generator.

    Extra integers select an independent derived stream (e.g. per task)
    without consuming draws from the parent: make_rng(seed, 3) is stable
    no matter what make_rng(seed) was used for.
    """
    if seed < 0:
        raise ContractError("seed must be non-negative")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.PCG64(ss))


def row_max(z: np.ndarray) -> np.ndarray:
    """The max of each row of a (..., n) array, as (..., 1).

    numpy reduces a short last axis one row at a time; over a contiguous
    transposed copy the same max is one elementwise pass across all rows,
    4-8 times faster on attention-sized blocks. A max is exact in any
    order, so the values equal z.max(axis=-1), NaN rows included. Only
    the sign of a zero max can differ; z minus it then differs only in the
    sign of zeros, which exp maps to 1 alike.
    """
    n = z.shape[-1]
    return np.ascontiguousarray(z.reshape(-1, n).T).max(axis=0).reshape(z.shape[:-1] + (1,))


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction.

    Works on any (..., n) array; the softmax runs over the last axis.
    Rows of the result are positive and sum to 1 up to roundoff even for
    entries around +-700.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim < 1 or z.shape[-1] < 1:
        raise ShapeError("softmax needs at least one entry per row")
    shifted = z - row_max(z)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(a: np.ndarray, d_a: np.ndarray) -> np.ndarray:
    """Apply the softmax Jacobian row-wise: returns J(a_row) @ d_a_row.

    J(a) = diag(a) - outer(a, a) is symmetric, so this is also the
    vector-Jacobian product; vectorized over leading axes.
    """
    inner = (a * d_a).sum(axis=-1, keepdims=True)
    return a * (d_a - inner)


def cholesky_factor(s: Mat) -> Mat:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Symmetry is required within 1e-9; factorization failure raises
    SingularityError.
    """
    s = mat(s)
    if s.shape[0] != s.shape[1]:
        raise ShapeError(f"matrix is not square: {s.shape}")
    if not np.allclose(s, s.T, atol=1e-9, rtol=0.0):
        raise ContractError("matrix is not symmetric within 1e-9")
    try:
        return np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"Cholesky factorization failed: {exc}") from exc


def cholesky_solve(lower: Mat, b: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = b given the lower factor L. b may be 1-D or 2-D."""
    y = solve_triangular(lower, b, lower=True, check_finite=False)
    return solve_triangular(lower.T, y, lower=False, check_finite=False)


def cholesky_logdet(lower: Mat) -> float:
    """log det(L L^T) = 2 sum log diag(L)."""
    return 2.0 * float(np.log(np.diag(lower)).sum())


def finite_diff_grad(
    f: Callable[[np.ndarray], float], theta: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient oracle.

    grad_i = (f(theta + h e_i) - f(theta - h e_i)) / (2 h), evaluated one
    coordinate at a time on copies of theta. Deliberately simple; used as
    the independent check on every analytic gradient in the package.
    """
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    flat = grad.reshape(-1)
    t = theta.copy().reshape(-1)
    for i in range(t.shape[0]):
        orig = t[i]
        t[i] = orig + h
        hi = f(t.reshape(theta.shape))
        t[i] = orig - h
        lo = f(t.reshape(theta.shape))
        t[i] = orig
        flat[i] = (hi - lo) / (2.0 * h)
    return grad
