"""Verifier suites: dispatch, claims that can fail, and counter-checks.

Each suite's verdict, and criteria 1-4's time bounds, are checked in test_acceptance.py.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from resadapt.attention import Adapter, adapter_grads, random_frozen_attention
from resadapt.bench import verify
from resadapt.bench.cli import main
from resadapt.bench.verify import SUITES, run_suite
from resadapt.learner import TaskPool
from resadapt.numkernel import make_rng


CLAIM_NAMES = [
    "calibrated Last >= 0.90",
    "task assignment >= 0.95",
    "calibrated Transfer within 0.01 of zero-shot",
    "Transfer: calibrated > gate open > random init, gate open",
    "Last spread across the three arms <= 0.02",
    "dial: trained task at w = 1 >= at w = 0",
    "dial: unseen tasks at w = 0 >= at w = 1",
]


def _names(report):
    return [line.split(" ", 1)[1].split(" (", 1)[0] for line in report.lines]


class TestDispatch:
    def test_single_suite(self):
        reports = run_suite("metrics")
        assert len(reports) == 1 and reports[0].suite == "metrics"

    def test_all_runs_every_suite(self, all_reports):
        assert [r.suite for r in all_reports] == list(SUITES)
        assert all(r.passed for r in all_reports)

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            run_suite("nonexistent")

    def test_reports_carry_lines(self, all_reports):
        for report in all_reports:
            assert report.lines
            assert all(line.startswith(("PASS", "FAIL")) for line in report.lines)

    def test_claims_lines(self, all_reports):
        (claims,) = [r for r in all_reports if r.suite == "claims"]
        assert _names(claims) == CLAIM_NAMES


def _matrix(transfer, last, n=5):
    # Rows 0..n-2 fill the upper triangle, so Transfer is `transfer`; the
    # last row is Last.
    m = np.full((n, n), transfer)
    m[-1] = last
    return m


@pytest.fixture()
def claim_inputs(monkeypatch):
    """Replace every input of the claims suite by a passing fake.

    Each value is a margin away from its bound, so a test can push exactly
    one claim over its bound.
    """
    inputs = {
        "zero_shot": 0.6,
        "assignment": 1.0,
        ("iki", True): _matrix(0.6, 1.0),
        ("iki", False): _matrix(0.5, 1.0),
        ("iki-ablation:1.0", False): _matrix(0.4, 1.0),
        "trained": {0.0: 0.5, 1.0: 1.0},
        "unseen": {0.0: 0.6, 1.0: 0.5},
    }
    stream = [SimpleNamespace(index=i) for i in range(5)]

    def run_continual(stream, enc, cfg, calibrate, mode):
        return inputs[(mode, calibrate)], TaskPool(entries=[None])

    def manual_weight_sweep(task, entry, enc, weights):
        dial = inputs["trained" if task.index == 0 else "unseen"]
        return {w: dial.get(w, 0.75) for w in weights}

    fakes = {
        "gen_stream": lambda spec: stream,
        "zero_shot_sweep": lambda stream, enc: [0.0] + [inputs["zero_shot"]] * (len(stream) - 1),
        "run_continual": run_continual,
        "assignment_accuracy": lambda stream, pool, enc: inputs["assignment"],
        "manual_weight_sweep": manual_weight_sweep,
    }
    for name, fake in fakes.items():
        monkeypatch.setattr(verify, name, fake)
    return inputs


class TestClaimsCanFail:
    """Each claim line reads FAIL when only its own input crosses its bound."""

    def test_fakes_pass(self, claim_inputs):
        report = verify.verify_claims()
        assert report.passed, "\n".join(report.lines)
        assert _names(report) == CLAIM_NAMES

    @pytest.mark.parametrize(
        "changes, claim",
        [
            (
                # Every arm's Last below the bound, so the spread stays 0.
                {
                    ("iki", True): _matrix(0.6, 0.89),
                    ("iki", False): _matrix(0.5, 0.89),
                    ("iki-ablation:1.0", False): _matrix(0.4, 0.89),
                },
                0,
            ),
            ({"assignment": 0.94}, 1),
            ({"zero_shot": 0.589}, 2),
            ({"zero_shot": 0.611}, 2),
            ({("iki", False): _matrix(0.61, 1.0)}, 3),
            ({("iki", False): _matrix(0.6, 1.0)}, 3),
            ({("iki-ablation:1.0", False): _matrix(0.5, 1.0)}, 3),
            ({("iki-ablation:1.0", False): _matrix(0.4, 0.97)}, 4),
            ({"trained": {0.0: 0.5, 1.0: 0.49}}, 5),
            ({"unseen": {0.0: 0.6, 1.0: 0.61}}, 6),
        ],
    )
    def test_one_claim_fails(self, claim_inputs, changes, claim):
        claim_inputs.update(changes)
        report = verify.verify_claims()
        failed = [name for line, name in zip(report.lines, _names(report)) if line.startswith("FAIL")]
        assert failed == [CLAIM_NAMES[claim]]
        assert not report.passed

    @pytest.mark.parametrize(
        "changes",
        [{"assignment": 0.95}, {"trained": {0.0: 1.0, 1.0: 1.0}}, {"unseen": {0.0: 0.5, 1.0: 0.5}}],
    )
    def test_bounds_are_inclusive(self, claim_inputs, changes):
        claim_inputs.update(changes)
        report = verify.verify_claims()
        assert report.passed, "\n".join(report.lines)

    def test_cli_exits_1(self, claim_inputs, capsys):
        claim_inputs[("iki", False)] = _matrix(0.7, 1.0)
        assert main(["verify", "--suite", "claims"]) == 1
        assert f"[claims] FAIL {CLAIM_NAMES[3]}" in capsys.readouterr().out


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
