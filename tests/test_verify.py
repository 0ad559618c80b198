"""The built-in verifier suites must pass and self-time correctly."""

import numpy as np
import pytest

from resadapt.attention import Adapter, adapter_grads, random_frozen_attention
from resadapt.bench.verify import (
    SUITES,
    run_suite,
    verify_degenerate_init,
    verify_gradcheck,
    verify_metrics,
    verify_zero_init_identity,
)
from resadapt.numkernel import make_rng


class TestSuitesPass:
    def test_zero_init(self):
        report = verify_zero_init_identity()
        assert report.passed, "\n".join(report.lines)
        assert report.elapsed < 10.0

    def test_gradcheck(self):
        report = verify_gradcheck()
        assert report.passed, "\n".join(report.lines)
        assert report.elapsed < 60.0

    def test_degenerate_init(self):
        report = verify_degenerate_init()
        assert report.passed, "\n".join(report.lines)
        assert report.elapsed < 10.0

    def test_metrics(self):
        report = verify_metrics()
        assert report.passed, "\n".join(report.lines)
        assert report.elapsed < 5.0


class TestDispatch:
    def test_single_suite(self):
        reports = run_suite("metrics")
        assert len(reports) == 1 and reports[0].suite == "metrics"

    def test_all_runs_every_suite(self):
        reports = run_suite("all")
        assert [r.suite for r in reports] == list(SUITES)
        assert all(r.passed for r in reports)

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            run_suite("nonexistent")

    def test_reports_carry_lines(self):
        for report in run_suite("all"):
            assert report.lines
            assert all(line.startswith(("PASS", "FAIL")) for line in report.lines)


class TestDegeneracyIsRealNotVacuous:
    """Counter-checks: the verifier conditions fail when they should."""

    def test_nonzero_values_move_keys(self):
        # With V != 0 the key gradient is generally nonzero, so the
        # degenerate-init theorem's premise is necessary, not decorative.
        rng = make_rng(99)
        layer = random_frozen_attention(6, rng)
        adapter = Adapter(
            k_r=np.zeros((3, 6)), v_r=rng.standard_normal((3, 6)) * 0.1
        )
        x = rng.standard_normal((1, 5, 6))
        d_k, _ = adapter_grads(x, layer, adapter, 1.0, rng.standard_normal((1, 5, 6)))
        assert np.linalg.norm(d_k) > 0.0

    def test_random_keys_break_row_equality(self):
        # Same forward pass with random keys: value-row gradients diverge.
        rng = make_rng(100)
        layer = random_frozen_attention(6, rng)
        x = rng.standard_normal((1, 5, 6))
        zero = Adapter(k_r=np.zeros((3, 6)), v_r=np.zeros((3, 6)))
        rand = Adapter(k_r=rng.uniform(-0.5, 0.5, (3, 6)), v_r=np.zeros((3, 6)))
        g = rng.standard_normal((1, 5, 6))
        _, dv_zero = adapter_grads(x, layer, zero, 1.0, g)
        _, dv_rand = adapter_grads(x, layer, rand, 1.0, g)
        # zero keys: all value rows share one gradient
        assert np.allclose(dv_zero - dv_zero[0], 0.0, atol=1e-12)
        # random keys: at least one pair differs
        assert not np.allclose(dv_rand - dv_rand[0], 0.0, atol=1e-12)
