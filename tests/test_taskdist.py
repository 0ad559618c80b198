"""Gaussian scoring contracts: fit, density, selection, sigmoid gate.

Single samples go through the batched ops as batches of one.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit
from scipy.stats import multivariate_normal

from resadapt import taskdist
from resadapt.errors import ContractError, ShapeError, SingularityError
from resadapt.learner import AdapterSet, PoolEntry, TaskPool, route, score_entries
from resadapt.numkernel import cholesky_factor, cholesky_logdet, make_rng
from resadapt.taskdist import (
    RIDGE_MAX,
    TaskGaussian,
    calibration_weight_batch,
    fit_gaussian,
    log_density_batch,
)

TINY = np.nextafter(0.0, 1.0)
BELOW_ONE = np.nextafter(1.0, 0.0)


def _log_density(g, x) -> float:
    return float(log_density_batch(g, np.asarray(x, dtype=np.float64)[None, :])[0])


def _weight(s_hat: float) -> float:
    return float(calibration_weight_batch(np.array([s_hat]))[0])


# ---------------------------------------------------------------------- fit


def test_fit_two_points_hand_case():
    g = fit_gaussian(np.array([[0.0, 0.0], [2.0, 0.0]]), ridge=1e-7)
    assert np.allclose(g.mu, [1.0, 0.0], atol=1e-15)
    assert np.allclose(g.sigma, np.array([[1.0, 0.0], [0.0, 0.0]]) + 1e-7 * np.eye(2), atol=1e-15)


def test_fit_single_point_is_ridge_identity():
    g = fit_gaussian(np.array([[3.0, -1.0, 2.0]]), ridge=1e-7)
    assert np.allclose(g.mu, [3.0, -1.0, 2.0], atol=0.0)
    assert np.array_equal(g.sigma, 1e-7 * np.eye(3))


def test_fit_matches_double_loop_oracle():
    rng = make_rng(0)
    x = rng.normal(size=(200, 8))
    g = fit_gaussian(x, ridge=1e-7)
    n, d = x.shape
    mu = np.array([sum(x[i, j] for i in range(n)) / n for j in range(d)])
    sigma = np.zeros((d, d))
    for i in range(n):
        c = x[i] - mu
        sigma += np.outer(c, c)
    sigma = sigma / n + 1e-7 * np.eye(d)
    assert np.allclose(g.mu, mu, atol=1e-10)
    assert np.allclose(g.sigma, sigma, atol=1e-10)


def test_fit_population_not_sample_covariance():
    x = np.array([[0.0], [1.0]])
    g = fit_gaussian(x, ridge=1e-12)
    # divide by N: var = 0.25 + ridge, not the N-1 estimator 0.5
    assert abs(g.sigma[0, 0] - 0.25) < 1e-11


def _picky_cholesky(monkeypatch, threshold: float) -> list:
    """Make fit_gaussian's factorization refuse every ridge below threshold.

    50 identical rows have zero covariance, so sigma is ridge * I and its
    diagonal is the ridge tried. Returns the list of ridges tried.
    """
    tried = []
    real = taskdist.cholesky_factor

    def picky(sigma):
        tried.append(float(sigma[0, 0]))
        if sigma[0, 0] < threshold:
            raise SingularityError(f"ridge {sigma[0, 0]} refused")
        return real(sigma)

    monkeypatch.setattr(taskdist, "cholesky_factor", picky)
    return tried


def test_fit_escalates_ridge_on_degenerate_data(monkeypatch):
    tried = _picky_cholesky(monkeypatch, 5e-6)
    x = np.tile(np.arange(4.0), (50, 1))
    g = fit_gaussian(x, ridge=1e-7)
    # 1e-7 and 1e-6 are refused; the recorded ridge is the first that factored.
    assert len(tried) == 3 and tried[0] == 1e-7 and max(tried[:-1]) < 5e-6
    assert g.ridge == tried[-1] == pytest.approx(1e-5)
    assert np.array_equal(g.sigma, g.ridge * np.eye(4))
    assert 1e-7 <= g.ridge <= RIDGE_MAX
    assert np.isfinite(g.logdet)


def test_fit_gives_up_at_ridge_max(monkeypatch):
    tried = _picky_cholesky(monkeypatch, math.inf)
    with pytest.raises(SingularityError):
        fit_gaussian(np.tile(np.arange(4.0), (50, 1)), ridge=1e-7)
    # 1e-7 up by factors of 10, the last try clamped to RIDGE_MAX.
    assert len(tried) == 5 and tried[-1] == RIDGE_MAX and tried[-2] < RIDGE_MAX


def test_gaussian_derives_factor_and_logdet():
    g = fit_gaussian(make_rng(7).normal(size=(40, 5)), ridge=1e-7)
    chol = cholesky_factor(g.sigma)
    assert g.chol.tobytes() == chol.tobytes()
    assert g.logdet == cholesky_logdet(chol)
    again = TaskGaussian(g.mu, g.sigma, g.ridge)
    assert again.chol.tobytes() == chol.tobytes() and again.logdet == g.logdet


@pytest.mark.parametrize("derived", [("chol",), ("logdet",), ("chol", "logdet")])
def test_gaussian_refuses_derived_inputs(derived):
    # chol and logdet always come from sigma; a caller cannot supply them.
    g = fit_gaussian(make_rng(7).normal(size=(40, 5)), ridge=1e-7)
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        TaskGaussian(g.mu, g.sigma, g.ridge, **{name: getattr(g, name) for name in derived})


@pytest.mark.parametrize("ridge", [0.0, -1e-7, math.inf, math.nan])
def test_gaussian_refuses_ridge_not_finite_positive(ridge):
    with pytest.raises(ContractError, match="ridge"):
        TaskGaussian(np.zeros(2), np.eye(2), ridge)


@pytest.mark.parametrize(
    "mu,sigma", [(np.zeros(3), np.eye(2)), (np.zeros((2, 2)), np.eye(2)), (np.zeros(2), np.ones((2, 3)))]
)
def test_gaussian_refuses_mismatched_shapes(mu, sigma):
    with pytest.raises(ShapeError):
        TaskGaussian(mu, sigma, 1e-7)


# ------------------------------------------------------------------ density


def test_log_density_standard_normal_at_mean():
    g = fit_gaussian(np.array([[1.0], [-1.0]]), ridge=1e-12)  # mu 0, sigma ~1
    assert abs(_log_density(g, [0.0]) - (-0.5 * math.log(2 * math.pi))) < 1e-11


def test_log_density_at_mean_general():
    rng = make_rng(1)
    g = fit_gaussian(rng.normal(size=(60, 5)), ridge=1e-7)
    expected = -0.5 * (5 * math.log(2 * math.pi) + g.logdet)
    assert abs(_log_density(g, g.mu) - expected) < 1e-10


def test_log_density_matches_scipy():
    rng = make_rng(2)
    g = fit_gaussian(rng.normal(size=(100, 6)), ridge=1e-7)
    xs = rng.normal(size=(10, 6))
    ref = multivariate_normal(mean=g.mu, cov=g.sigma).logpdf(xs)
    assert np.all(np.abs(log_density_batch(g, xs) - ref) < 1e-8)


def test_log_density_batch_matches_loop():
    # Row independence: a batch scores each row bit for bit as a batch of
    # one would.
    rng = make_rng(3)
    g = fit_gaussian(rng.normal(size=(80, 4)), ridge=1e-7)
    xs = rng.normal(size=(25, 4))
    batch = log_density_batch(g, xs)
    looped = np.array([_log_density(g, x) for x in xs])
    assert np.array_equal(batch, looped)


@pytest.mark.parametrize("b", [1, 2, 3, 80])
def test_log_density_rows_independent_at_width_32(b):
    # As above at the pool width, with a batch's first rows scored as a
    # batch of their own too.
    rng = make_rng(3, b)
    g = fit_gaussian(rng.normal(size=(120, 32)), ridge=1e-7)
    xs = rng.normal(size=(b, 32)) * 2.0
    batch = log_density_batch(g, xs)
    assert np.array_equal(batch, [_log_density(g, x) for x in xs])
    assert np.array_equal(log_density_batch(g, xs[:2]), batch[:2])


def test_log_density_maximized_at_mean():
    rng = make_rng(4)
    g = fit_gaussian(rng.normal(size=(50, 3)), ridge=1e-7)
    at_mean = _log_density(g, g.mu)
    around = log_density_batch(g, g.mu + rng.normal(size=(50, 3)) * 0.5)
    assert np.all(around < at_mean)


# ---------------------------------------------------------------- selection
# Selection is route(score_entries(...)): the argmax over one log-density
# column per pool entry.


def _unit_gaussian_at(center):
    # exact unit covariance via an explicit two-point trick per axis is
    # fiddly; build from many samples and eat the tiny fit noise instead
    rng = make_rng(99)
    x = rng.normal(size=(4000, len(center))) + np.asarray(center)
    return fit_gaussian(x, ridge=1e-7)


def _select(gaussians, x) -> tuple[int, float]:
    pool = TaskPool(entries=[PoolEntry(AdapterSet((), ()), g) for g in gaussians])
    scores = score_entries(np.asarray(x, dtype=np.float64)[None, :], pool.entries)
    task_idx, _ = route(scores, pool)
    return int(task_idx[0]), float(scores[0, task_idx[0]])


def test_select_single_task():
    g = _unit_gaussian_at([0.0, 0.0])
    idx, s = _select([g], [0.3, -0.2])
    assert idx == 0
    assert s == _log_density(g, [0.3, -0.2])


def test_select_tie_breaks_to_lowest_index():
    g = _unit_gaussian_at([0.0, 0.0])
    idx, _ = _select([g, g], [1.0, 1.0])
    assert idx == 0


def test_select_two_gaussians_nearest_wins():
    ga = _unit_gaussian_at([-3.0, 0.0])
    gb = _unit_gaussian_at([3.0, 0.0])
    x = [-2.0, 0.5]
    idx, s = _select([ga, gb], x)
    assert idx == 0
    assert s == max(_log_density(ga, x), _log_density(gb, x))


def test_select_permutation_covariant():
    ga = _unit_gaussian_at([-3.0, 0.0])
    gb = _unit_gaussian_at([3.0, 0.0])
    x = [2.5, 0.0]
    assert _select([ga, gb], x)[0] == 1
    assert _select([gb, ga], x)[0] == 0


def test_select_empty_pool_rejected():
    with pytest.raises(ContractError):
        _select([], [0.0])


# -------------------------------------------------------------- calibration


def test_calibration_weight_midpoint():
    assert _weight(0.0) == 0.5


def test_calibration_weight_saturation():
    assert _weight(20.0) > 0.999999
    assert _weight(-20.0) < 1e-8


def test_calibration_weight_open_interval_under_overflow():
    lo = _weight(-1e6)
    hi = _weight(1e6)
    assert 0.0 < lo < hi < 1.0


def test_calibration_weight_strictly_monotone_grid():
    ws = calibration_weight_batch(np.linspace(-30.0, 30.0, 301))
    assert np.all(ws[:-1] < ws[1:])


def test_calibration_weight_batch_matches_scalar():
    # Against scipy's sigmoid, clipped to the open interval. The two
    # formulas round differently by at most 2 ulp; below exp(-708) both are
    # subnormal, where that relative bound does not hold.
    s = np.concatenate([np.linspace(-800.0, 800.0, 1601), [-1e6, 1e6]])
    batch = calibration_weight_batch(s)
    ref = np.clip(expit(s), TINY, BELOW_ONE)
    np.testing.assert_allclose(batch, ref, rtol=5e-16, atol=1e-300)
    # A scalar call is a batch of one and agrees with the batch bit for bit.
    assert np.array_equal(batch, [_weight(float(v)) for v in s])


def test_calibration_weight_bits_equal_the_three_exp_expression():
    # The weight takes exp(-|z|) once; its bits must be those of the
    # expression that took it three times, NaN and both clips included.
    rng = make_rng(11)
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 746.0, -746.0, 1e300, -1e300]
    z = np.concatenate([specials, rng.uniform(-800.0, 800.0, 2000), rng.normal(0.0, 5.0, 1000)])
    old = np.where(
        z >= 0.0,
        1.0 / (1.0 + np.exp(-np.abs(z))),
        np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))),
    )
    old = np.clip(old, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    assert np.array_equal(calibration_weight_batch(z).view(np.uint64), old.view(np.uint64))


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-1e8, max_value=1e8, allow_nan=False))
def test_calibration_weight_always_in_open_interval(s):
    w = _weight(s)
    assert 0.0 < w < 1.0


def test_far_sample_gating_at_moderate_scale():
    # Mahalanobis >= 10 to every task implies w < 1e-3; holds for
    # covariances of moderate scale (see ledger note on very tight fits)
    rng = make_rng(5)
    x = rng.normal(size=(300, 4)) * 0.5  # eigenvalues near 0.25
    g = fit_gaussian(x, ridge=1e-7)
    direction = rng.normal(size=4)
    direction /= np.linalg.norm(direction)
    far = g.mu + direction * 10.5 * 0.5  # ~10.5 sigma along an axis of scale 0.5
    assert _weight(_log_density(g, far)) < 1e-3
