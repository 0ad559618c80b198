"""Transfer/Avg/Last over the accuracy matrix, against brute-force loops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resadapt.bench.metrics import check_matrix, metric_avg, metric_last, metric_transfer
from resadapt.errors import ContractError, ShapeError

HAND = np.array([[0.80, 0.50], [0.75, 0.90]])


def brute_force(p):
    """Independent summation route: explicit loops, no slicing."""
    n = len(p)
    transfer = []
    for j in range(1, n):
        s = 0.0
        for i in range(j):
            s += p[i][j]
        transfer.append(s / j)
    avg = []
    for j in range(n):
        s = 0.0
        for i in range(n):
            s += p[i][j]
        avg.append(s / n)
    last = [p[n - 1][j] for j in range(n)]
    return transfer, avg, last


class TestHandCase:
    def test_transfer(self):
        per_task, agg = metric_transfer(HAND)
        assert per_task == [pytest.approx(0.50)]
        assert agg == pytest.approx(0.50)

    def test_avg(self):
        per_task, agg = metric_avg(HAND)
        assert per_task == [pytest.approx(0.775), pytest.approx(0.70)]
        assert agg == pytest.approx(0.7375)

    def test_last(self):
        per_task, agg = metric_last(HAND)
        assert per_task == [pytest.approx(0.75), pytest.approx(0.90)]
        assert agg == pytest.approx(0.825)


class TestConstantMatrix:
    @pytest.mark.parametrize("c", [0.0, 0.37, 1.0])
    def test_all_metrics_collapse_to_constant(self, c):
        p = np.full((4, 4), c)
        assert metric_transfer(p)[1] == pytest.approx(c)
        assert metric_avg(p)[1] == pytest.approx(c)
        assert metric_last(p)[1] == pytest.approx(c)


class TestBruteForceAgreement:
    def test_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            p = rng.uniform(0.0, 1.0, size=(n, n))
            bt, ba, bl = brute_force(p)
            t_per, t_agg = metric_transfer(p)
            a_per, a_agg = metric_avg(p)
            l_per, l_agg = metric_last(p)
            np.testing.assert_allclose(t_per, bt, atol=1e-12)
            np.testing.assert_allclose(a_per, ba, atol=1e-12)
            np.testing.assert_allclose(l_per, bl, atol=1e-12)
            assert t_agg == pytest.approx(np.mean(bt), abs=1e-12)
            assert a_agg == pytest.approx(np.mean(ba), abs=1e-12)
            assert l_agg == pytest.approx(np.mean(bl), abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_aggregates_bounded_by_entries(self, n, seed):
        p = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, n))
        for metric in (metric_transfer, metric_avg, metric_last):
            _, agg = metric(p)
            assert p.min() - 1e-12 <= agg <= p.max() + 1e-12


class TestSingleTask:
    def test_avg_and_last_are_the_entry(self):
        p = np.array([[0.9]])
        assert metric_avg(p) == ([pytest.approx(0.9)], pytest.approx(0.9))
        assert metric_last(p) == ([pytest.approx(0.9)], pytest.approx(0.9))

    def test_transfer_needs_two_tasks(self):
        with pytest.raises(ContractError):
            metric_transfer(np.array([[0.9]]))


class TestValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros((2, 3)),
            np.zeros((2, 2, 2)),
            np.zeros((0, 0)),
            np.zeros(4),
        ],
    )
    def test_shape_rejected(self, bad):
        with pytest.raises(ShapeError):
            check_matrix(bad)

    @pytest.mark.parametrize("value", [-0.01, 1.01])
    def test_range_rejected(self, value):
        p = HAND.copy()
        p[0, 0] = value
        with pytest.raises(ContractError):
            check_matrix(p)

    @pytest.mark.parametrize("cell", [(0, 0), (0, 2), (1, 2), (2, 1)])
    @pytest.mark.parametrize(
        "fn", [check_matrix, metric_transfer, metric_avg, metric_last]
    )
    def test_nan_cell_rejected(self, fn, cell):
        # NaN compares false both ways, so a range test must be written
        # so that it fails, not so that it passes.
        p = np.full((3, 3), 0.5)
        p[cell] = np.nan
        with pytest.raises(ContractError):
            fn(p)

    def test_inputs_not_mutated(self):
        p = HAND.copy()
        metric_transfer(p)
        metric_avg(p)
        metric_last(p)
        np.testing.assert_array_equal(p, HAND)

    def test_list_input_accepted(self):
        _, agg = metric_last([[0.75, 0.9], [0.5, 1.0]])
        assert agg == pytest.approx(0.75)
