"""Acceptance gate: every shipped claim, one pass/fail line each.

Each test prints `ACCEPTANCE <n> (<label>): PASS|FAIL - <numbers>` before
asserting, so a -s run shows the measured values and a plain -v run shows
one line per criterion. Criteria 1-7 read the verify suites, which the
session's `all_reports` fixture runs once: criteria 1-4 read their suite's
verdict and time, criteria 5-7 the claims suite's measurements. The whole
file must finish well inside the five-minute budget.
"""

import time

import pytest

from resadapt.bench.cli import main


def report(n: int, label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n} ({label}): {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def suites(all_reports):
    return {rep.suite: rep for rep in all_reports}


@pytest.fixture(scope="module")
def claims(suites):
    return suites["claims"].claims


def check_suite(rep, n: int, label: str, bound: float) -> None:
    ok = rep.passed and rep.elapsed < bound
    report(n, label, ok, f"elapsed={rep.elapsed:.2f}s")
    assert rep.passed, "\n".join(rep.lines)
    assert rep.elapsed < bound


def test_criterion_1_zero_init_identity(suites):
    check_suite(suites["zero-init"], 1, "zero-init identity", 10.0)


def test_criterion_2_gradient_correctness(suites):
    check_suite(suites["gradcheck"], 2, "gradcheck vs central differences", 60.0)


def test_criterion_3_degenerate_init_theorem(suites):
    check_suite(suites["degenerate-init"], 3, "degenerate init freezes keys", 10.0)


def test_criterion_4_metric_formulas(suites):
    check_suite(suites["metrics"], 4, "metric formulas", 5.0)


def test_criterion_5_synthetic_run(claims):
    cal = claims.arms["calibrated"]
    gap = abs(cal.transfer - claims.zero_shot)
    elapsed = claims.calibrated_s
    ok = cal.last >= 0.90 and claims.assignment >= 0.95 and gap <= 0.01 and elapsed < 300.0
    report(
        5,
        "synthetic incremental run",
        ok,
        f"last={cal.last:.4f} assign={claims.assignment:.4f} "
        f"transfer={cal.transfer:.4f} zero_shot={claims.zero_shot:.4f} gap={gap:.4f} "
        f"elapsed={elapsed:.1f}s",
    )
    assert cal.last >= 0.90
    assert claims.assignment >= 0.95
    assert gap <= 0.01
    assert elapsed < 300.0


def test_criterion_6_ablation_ordering(claims):
    arms = [claims.arms[name] for name in ("calibrated", "gate open", "random init, gate open")]
    t_cal, t_uncal, t_ablate = (arm.transfer for arm in arms)
    lasts = [arm.last for arm in arms]
    spread = max(lasts) - min(lasts)
    ok = t_cal > t_uncal > t_ablate and spread <= 0.02
    report(
        6,
        "ablation direction",
        ok,
        f"transfer cal={t_cal:.4f} > uncal={t_uncal:.4f} > ablate={t_ablate:.4f}; "
        f"last spread={spread:.4f}",
    )
    assert t_cal > t_uncal > t_ablate
    assert spread <= 0.02


def test_criterion_7_manual_weight_dial(claims):
    trained, unseen = claims.trained, claims.unseen
    ok = trained[1.0] >= trained[0.0] and unseen[0.0] >= unseen[1.0]
    report(
        7,
        "manual weight dial",
        ok,
        f"trained w1={trained[1.0]:.4f} >= w0={trained[0.0]:.4f}; "
        f"unseen w0={unseen[0.0]:.4f} >= w1={unseen[1.0]:.4f}",
    )
    assert trained[1.0] >= trained[0.0]
    assert unseen[0.0] >= unseen[1.0]


def test_criterion_8_run_determinism(tmp_path, default_run):
    # Two independent runs: the session's shared one and this one.
    a = default_run("iki")
    t0 = time.monotonic()
    b = tmp_path / "b"
    assert main(["run", "--config", "configs/default.cfg", "--out", str(b)]) == 0
    same = all(
        (a / name).read_bytes() == (b / name).read_bytes()
        for name in ("grid.csv", "summary.csv")
    )
    report(8, "run determinism", same, f"second of two runs in {time.monotonic() - t0:.1f}s")
    assert same
