"""Per-task feature distributions and the calibration weight.

Each learned task keeps a Gaussian over frozen features (mean + population
covariance with a ridge on the diagonal). At inference the best-scoring
Gaussian picks the task and its log density, squashed through a sigmoid,
decides how strongly that task's adapters are applied: confident matches
get w near 1, samples far from every task get w near 0 and fall back to
the frozen model. Both operations work on batches of rows; a single row is
a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import ContractError, ShapeError, SingularityError
from .numkernel import LOG_2PI, cholesky_factor, cholesky_logdet, cholesky_solve, mat

RIDGE_MAX = 1e-3


@dataclass(frozen=True)
class TaskGaussian:
    """Gaussian feature model of one task, with cached Cholesky factor.

    sigma already includes the ridge actually used; chol and logdet are
    derived caches, never inputs.
    """

    mu: np.ndarray
    sigma: np.ndarray
    ridge: float
    chol: np.ndarray
    logdet: float

    @property
    def d(self) -> int:
        return self.mu.shape[0]


def fit_gaussian(features: np.ndarray, ridge: float = 1e-7) -> TaskGaussian:
    """Fit mean and population covariance (divide by N) plus a diagonal ridge.

    If the ridged covariance fails to factor, the ridge is escalated by
    factors of 10 up to 1e-3 before giving up with SingularityError. The
    ridge recorded on the result is the one that actually factored.
    """
    x = mat(features)
    n, d = x.shape
    if n < 1:
        raise ShapeError("need at least one feature row")
    if ridge <= 0.0:
        raise ContractError("ridge must be positive")
    mu = x.mean(axis=0)
    centered = x - mu
    base = (centered.T @ centered) / n
    r = ridge
    while True:
        try:
            sigma = base + r * np.eye(d)
            chol = cholesky_factor(sigma)
            return TaskGaussian(
                mu=mu, sigma=sigma, ridge=r, chol=chol, logdet=cholesky_logdet(chol)
            )
        except SingularityError:
            if r >= RIDGE_MAX:
                raise
            r = min(r * 10.0, RIDGE_MAX)


def log_density_batch(g: TaskGaussian, x: np.ndarray) -> np.ndarray:
    """Gaussian log density of every row of (B, d).

    -0.5 [(x-mu)^T Sigma^-1 (x-mu) + d log 2pi + log|Sigma|] per row.
    Each row's score is bit-identical to the one it gets in any other
    batch.
    """
    x = mat(x)
    if x.shape[1] != g.d:
        raise ShapeError(f"feature width {x.shape[1]} does not match model width {g.d}")
    diff = x - g.mu
    if diff.shape[0] == 1:
        # BLAS solves one column by another path, which can differ in the
        # last bits from the same column inside a batch: a lone row is
        # solved as two identical columns, and the first is kept.
        diff = np.repeat(diff, 2, axis=0)
    solved = cholesky_solve(g.chol, diff.T)
    maha = np.einsum("db,db->b", diff.T, solved)[: x.shape[0]]
    return -0.5 * (maha + g.d * LOG_2PI + g.logdet)


def calibration_weight_batch(s_hat: np.ndarray) -> np.ndarray:
    """Sigmoid of each selection score.

    Stable for any magnitude of s_hat. The mathematical value lies in the
    open interval (0, 1); where the float64 sigmoid would saturate, the
    result is pinned to the nearest representable neighbor of 0 or 1 so the
    open-interval contract survives rounding.
    """
    z = np.asarray(s_hat, dtype=np.float64)
    e = np.exp(-np.abs(z))  # in (0, 1]: neither branch can overflow
    w = np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    return np.clip(w, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
