"""Self-contained numerical verifiers, runnable from the CLI.

Five suites:

  zero-init       fresh adapters leave encoder outputs identical to the
                  frozen model (the no-interference identity), and so do
                  trained-scale adapters at a weight the gate closes
  gradcheck       analytic adapter gradients against central differences
  degenerate-init all-zero keys AND values freeze the keys forever and
                  force all value rows to stay pairwise identical; random
                  keys break the degeneracy and let the loss fall
  metrics         transfer/avg/last against hand values and brute force
  claims          the paper's claims on the default desk-scale stream,
                  with one zero-init pool read gated and open: calibrated
                  Transfer = zero-shot, the Transfer ordering, the dial

Each check contributes one line to the report; a suite passes when every
line does. The claims report also carries its measurements as a
ClaimsResult (`report.claims`): each arm's Transfer/Avg/Last, the zero-shot
mean, the assignment, the dial and the calibrated run's wall time. The
acceptance tests read that result instead of measuring the claims again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..attention import (
    Adapter,
    init_adapter,
    init_adapter_ablation,
    random_frozen_attention,
    residual_attn_backward,
    residual_attn_with_cache,
)
from ..backbone import EncoderSpec, build_dual_encoder, encode
from ..learner import CLOSED_MARGIN, TrainConfig, gate_closed
from ..numkernel import finite_diff_grad, make_rng
from .continual import (
    assignment_accuracy,
    checkpoint_matrix,
    manual_weight_sweep,
    run_continual,
    zero_shot_sweep,
)
from .metrics import metric_avg, metric_last, metric_transfer
from .stream import StreamSpec, gen_stream


@dataclass
class VerifyReport:
    suite: str
    passed: bool = True
    lines: list[str] = field(default_factory=list)
    elapsed: float = 0.0  # set by run_suite
    claims: ClaimsResult | None = None  # the claims suite's measurements

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.passed = self.passed and ok
        tag = "PASS" if ok else "FAIL"
        self.lines.append(f"{tag} {name}" + (f" ({detail})" if detail else ""))


def verify_zero_init_identity(seed: int = 0, n_inputs: int = 100) -> VerifyReport:
    """Fresh adapters at several depths must leave features bit-unchanged."""
    report = VerifyReport(suite="zero-init")
    enc = build_dual_encoder(vocab=256, d=32, depth=2, seed=seed)
    rng = make_rng(seed, 41)
    cfg = TrainConfig()
    worst = 0.0
    # One batch per (depth, stack) group, each sample at its own weight.
    for depth in (1, 2):
        for stack in (enc.image, enc.text):
            ids = rng.integers(0, stack.vocab, size=(n_inputs // 4, 8))
            adapters = [
                init_adapter(cfg.prompt_len, stack.d, cfg.k_bound, rng) for _ in range(depth)
            ]
            w = rng.uniform(0.0, 1.0, size=n_inputs // 4)
            plain = encode(ids, stack)
            adapted = encode(ids, stack, adapters, w)
            worst = max(worst, float(np.max(np.abs(adapted - plain))))
    report.check(
        f"fresh adapters leave {n_inputs} random encodings unchanged",
        worst <= 1e-12,
        f"max deviation {worst:.3e}",
    )
    # Closed-gate identity: adapters with values at a trained scale (trained
    # pools reach |v_r| of 2 to 10), each row at a weight gate_closed passes,
    # from the subnormal 5e-324 up to the largest one under the bound.
    identical = closed = 0
    for depth in (1, 2):
        for stack in (enc.image, enc.text):
            ids = rng.integers(0, stack.vocab, size=(n_inputs // 4, 8))
            adapters = [
                init_adapter_ablation(cfg.prompt_len, stack.d, 10.0, rng) for _ in range(depth)
            ]
            v_max = max(float(np.abs(a.v_r).max()) for a in adapters)
            plain, floor = encode(ids, stack, floor=True)
            top = CLOSED_MARGIN * floor / v_max
            while not gate_closed(top, v_max, floor):
                top = np.nextafter(top, 0.0)
            w = np.geomspace(5e-324, top, len(ids))  # both ends exact
            closed += int(np.sum(gate_closed(w, v_max, floor)))
            identical += int(np.sum(np.all(encode(ids, stack, adapters, w) == plain, axis=1)))
    report.check(
        f"closed-gate identity: trained-scale adapters leave {n_inputs} encodings "
        "bit-identical in both towers at weights the gate closes",
        identical == closed == 4 * (n_inputs // 4),
        f"{identical} identical, {closed} closed",
    )
    return report


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-8)
    return float(np.max(np.abs(a - b))) / scale


def verify_gradcheck(trials: int = 50, seed: int = 0, h: float = 1e-5) -> VerifyReport:
    """Analytic adapter gradients vs central differences on random instances."""
    report = VerifyReport(suite="gradcheck")
    rng = make_rng(seed, 42)
    worst = 0.0
    for trial in range(trials):
        seq_len = int(rng.integers(2, 6))
        l = int(rng.integers(1, 5))
        d = int(rng.integers(2, 8))
        p = random_frozen_attention(d, rng)
        x = rng.normal(0.0, 1.0, size=(1, seq_len, d))
        a = Adapter(k_r=rng.normal(0.0, 0.5, size=(l, d)), v_r=rng.normal(0.0, 0.5, size=(l, d)))
        if trial % 7 == 0:
            a = Adapter(k_r=a.k_r, v_r=np.zeros((l, d)))  # fresh-value corner
        w = 0.0 if trial % 11 == 0 else float(rng.uniform(0.0, 1.0))
        d_out = rng.normal(0.0, 1.0, size=(1, seq_len, d))
        _, cache = residual_attn_with_cache(x, p, a, w)
        _, g_k, g_v = residual_attn_backward(cache, d_out)

        def loss(k_r: np.ndarray, v_r: np.ndarray) -> float:
            out, _ = residual_attn_with_cache(x, p, Adapter(k_r=k_r, v_r=v_r), w)
            return float((d_out * out).sum())

        fd_k = finite_diff_grad(lambda k_mat: loss(k_mat, a.v_r), a.k_r, h)
        fd_v = finite_diff_grad(lambda v_mat: loss(a.k_r, v_mat), a.v_r, h)
        worst = max(worst, _rel_err(g_k, fd_k), _rel_err(g_v, fd_v))
    report.check(
        f"{trials} random instances, analytic vs central differences",
        worst <= 1e-4,
        f"worst relative error {worst:.3e}",
    )
    return report


def verify_degenerate_init(
    steps: int = 10, seed: int = 0, dims: tuple[int, int, int] = (2, 3, 2)
) -> VerifyReport:
    """All-zero initialization is a fixed point of the key gradient.

    Uses a single residual layer, squared-error loss against a random
    target, and plain SGD. With k_r = v_r = 0: the key gradient is exactly
    zero at every step and the value rows stay pairwise identical, so the
    layer can only learn one shared vector. The control run (random keys,
    zero values) must break row equality after the first step and reduce
    the loss.
    """
    report = VerifyReport(suite="degenerate-init")
    l, d, seq_len = dims
    rng = make_rng(seed, 43)
    p = random_frozen_attention(d, rng)
    x = rng.normal(0.0, 1.0, size=(1, seq_len, d))
    target = rng.normal(0.0, 1.0, size=(1, seq_len, d))
    lr = 0.2

    def loss_and_grad(a: Adapter) -> tuple[float, np.ndarray, np.ndarray]:
        out, cache = residual_attn_with_cache(x, p, a, 1.0)
        diff = out - target
        _, g_k, g_v = residual_attn_backward(cache, diff)
        return 0.5 * float((diff * diff).sum()), g_k, g_v

    # (a) fully degenerate start.
    a = Adapter(k_r=np.zeros((l, d)), v_r=np.zeros((l, d)))
    max_dk = 0.0
    max_row_spread = 0.0
    for _ in range(steps):
        _, g_k, g_v = loss_and_grad(a)
        max_dk = max(max_dk, float(np.max(np.abs(g_k))))
        a = Adapter(k_r=a.k_r - lr * g_k, v_r=a.v_r - lr * g_v)
        spread = float(np.max(np.abs(a.v_r - a.v_r[0])))
        max_row_spread = max(max_row_spread, spread)
    report.check(
        f"zero init: key gradient stays zero over {steps} steps",
        max_dk <= 1e-15,
        f"max |dK| {max_dk:.3e}",
    )
    report.check(
        "zero init: value rows stay pairwise identical",
        max_row_spread <= 1e-12,
        f"max row spread {max_row_spread:.3e}",
    )
    # Once rows are equal the output cannot depend on the keys at all.
    loss_a, _, _ = loss_and_grad(a)
    perturbed = Adapter(k_r=rng.normal(0.0, 1.0, size=(l, d)), v_r=a.v_r)
    loss_b, _, _ = loss_and_grad(perturbed)
    report.check(
        "zero init: loss is flat in the keys",
        abs(loss_a - loss_b) <= 1e-12,
        f"|delta| {abs(loss_a - loss_b):.3e}",
    )

    # (b) control: random keys, zero values.
    a = init_adapter(l, d, 0.5, rng)
    losses = []
    spread_after_first = None
    for step in range(steps):
        loss, g_k, g_v = loss_and_grad(a)
        losses.append(loss)
        a = Adapter(k_r=a.k_r - lr * g_k, v_r=a.v_r - lr * g_v)
        if step == 0:
            spread_after_first = float(np.max(np.abs(a.v_r - a.v_r[0])))
    final_loss, _, _ = loss_and_grad(a)
    report.check(
        "random keys: value rows differ after one step",
        spread_after_first is not None and spread_after_first > 0.0,
        f"row spread {spread_after_first:.3e}",
    )
    report.check(
        f"random keys: loss decreases over {steps} steps",
        final_loss < losses[0],
        f"{losses[0]:.6f} -> {final_loss:.6f}",
    )
    return report


def _brute_force_metrics(p: np.ndarray) -> tuple[list[float], list[float], list[float]]:
    n = p.shape[0]
    transfer = []
    for j in range(1, n):
        acc = 0.0
        for i in range(j):
            acc += p[i][j]
        transfer.append(acc / j)
    avg = []
    for j in range(n):
        acc = 0.0
        for i in range(n):
            acc += p[i][j]
        avg.append(acc / n)
    last = [p[n - 1][j] for j in range(n)]
    return transfer, avg, last


def verify_metrics(seed: int = 0, n_random: int = 100) -> VerifyReport:
    """Hand-checked 2x2 case plus random matrices against a loop oracle."""
    report = VerifyReport(suite="metrics")
    p = np.array([[0.80, 0.50], [0.75, 0.90]])
    t_per, t_agg = metric_transfer(p)
    a_per, a_agg = metric_avg(p)
    l_per, l_agg = metric_last(p)
    report.check("2x2 transfer", t_per == [0.50] and t_agg == 0.50, f"{t_per} agg {t_agg}")
    report.check(
        "2x2 avg",
        np.allclose(a_per, [0.775, 0.70], atol=1e-15) and abs(a_agg - 0.7375) <= 1e-15,
        f"{a_per} agg {a_agg}",
    )
    report.check(
        "2x2 last",
        l_per == [0.75, 0.90] and abs(l_agg - 0.825) <= 1e-15,
        f"{l_per} agg {l_agg}",
    )
    rng = make_rng(seed, 44)
    worst = 0.0
    for _ in range(n_random):
        n = int(rng.integers(2, 9))
        p = rng.uniform(0.0, 1.0, size=(n, n))
        bt, ba, bl = _brute_force_metrics(p)
        t_per, t_agg = metric_transfer(p)
        a_per, a_agg = metric_avg(p)
        l_per, l_agg = metric_last(p)
        worst = max(
            worst,
            float(np.max(np.abs(np.array(t_per) - np.array(bt)))),
            abs(t_agg - float(np.mean(bt))),
            float(np.max(np.abs(np.array(a_per) - np.array(ba)))),
            abs(a_agg - float(np.mean(ba))),
            float(np.max(np.abs(np.array(l_per) - np.array(bl)))),
            abs(l_agg - float(np.mean(bl))),
        )
    report.check(
        f"{n_random} random matrices vs loop oracle",
        worst <= 1e-12,
        f"max deviation {worst:.3e}",
    )
    return report


# Residual weights the manual dial pins by hand.
DIAL_WEIGHTS = (0.0, 0.25, 0.5, 0.75, 1.0)


class ArmScores(NamedTuple):
    """One arm's aggregate metrics."""

    transfer: float
    avg: float
    last: float


@dataclass(frozen=True)
class ClaimsResult:
    """Every number behind the claims suite's report lines.

    arms maps "calibrated", "gate open" and "random init, gate open" to their
    scores. zero_shot is the frozen model's mean over tasks 1..N-1, the tasks
    Transfer covers. trained and unseen are the dial's accuracies at each of
    DIAL_WEIGHTS, on task 0 and averaged over tasks 1..N-1. calibrated_s is
    the wall time of the calibrated run.
    """

    arms: dict[str, ArmScores]
    zero_shot: float
    assignment: float
    trained: dict[float, float]
    unseen: dict[float, float]
    calibrated_s: float


def _aggregates(matrix: np.ndarray) -> ArmScores:
    """(Transfer, Avg, Last) of one accuracy matrix."""
    return ArmScores(*(metric(matrix)[1] for metric in (metric_transfer, metric_avg, metric_last)))


def verify_claims(seed: int = 0) -> VerifyReport:
    """The paper's claims on the default desk-scale stream, stream seed `seed`.

    Zero-initialised adapters under the calibration gate learn every task and
    keep zero-shot Transfer. Opening the gate costs Transfer, and random-init
    values with the gate open cost more, at equal Last: zero init is what
    protects the frozen model. One task's adapters pinned by hand help their
    own task and hurt the unseen ones, the tension the gate resolves per
    sample. The backbone and training seeds stay those of configs/default.cfg.
    The report carries the measurements as `claims`.
    """
    report = VerifyReport(suite="claims")
    stream = gen_stream(StreamSpec(seed=seed))
    enc = EncoderSpec().build()
    cfg = TrainConfig()
    zs = float(np.mean(zero_shot_sweep(stream, enc)[1:]))  # Transfer covers tasks 1..N-1
    t_run = time.monotonic()
    matrix, pool = run_continual(stream, enc, cfg, True, "iki")
    calibrated_s = time.monotonic() - t_run
    # Both comparison arms run without the calibration gate: with it on, any
    # initialization's unseen-task weight collapses to zero and Transfer
    # equals zero-shot for all arms, which would make the ordering vacuous.
    # The gate acts only at inference: the gate-open arm reads the same pool.
    open_matrix = checkpoint_matrix(stream, pool, enc, False, cfg.logit_scale)
    ablate_matrix, _ = run_continual(stream, enc, cfg, False, "iki-ablation:1.0")
    arms = {
        "calibrated": _aggregates(matrix),
        "gate open": _aggregates(open_matrix),
        "random init, gate open": _aggregates(ablate_matrix),
    }
    (t_cal, _, l_cal), (t_open, _, _), (t_ablate, _, _) = arms.values()
    assign = assignment_accuracy(stream, pool, enc)
    report.check("calibrated Last >= 0.90", l_cal >= 0.90, f"last {l_cal:.4f}")
    report.check("task assignment >= 0.95", assign >= 0.95, f"assignment {assign:.4f}")
    gap = abs(t_cal - zs)
    report.check(
        "calibrated Transfer within 0.01 of zero-shot",
        gap <= 0.01,
        f"transfer {t_cal:.4f}, zero-shot mean over tasks 1..N-1 {zs:.4f}, gap {gap:.4f}",
    )
    report.check(
        "Transfer: calibrated > gate open > random init, gate open",
        t_cal > t_open > t_ablate,
        "; ".join(
            f"{arm} transfer {t:.4f} avg {a:.4f} last {l:.4f}" for arm, (t, a, l) in arms.items()
        ),
    )
    lasts = [l for _, _, l in arms.values()]
    spread = max(lasts) - min(lasts)
    report.check("Last spread across the three arms <= 0.02", spread <= 0.02, f"spread {spread:.4f}")

    # The dial: only the first task trained, w pinned on trained vs unseen
    # data. Task 0's entry does not depend on later tasks, so it is the
    # calibrated run's first entry.
    entry = pool.entries[0]
    trained = manual_weight_sweep(stream[0], entry, enc, DIAL_WEIGHTS)
    unseen = {w: 0.0 for w in DIAL_WEIGHTS}
    for task in stream[1:]:
        for w, acc in manual_weight_sweep(task, entry, enc, DIAL_WEIGHTS).items():
            unseen[w] += acc / (len(stream) - 1)
    at = "at w = " + ", ".join(f"{w:g}" for w in DIAL_WEIGHTS)
    report.check(
        "dial: trained task at w = 1 >= at w = 0",
        trained[1.0] >= trained[0.0],
        f"{at}: " + " ".join(f"{v:.4f}" for v in trained.values()),
    )
    report.check(
        "dial: unseen tasks at w = 0 >= at w = 1",
        unseen[0.0] >= unseen[1.0],
        f"{at}: " + " ".join(f"{v:.4f}" for v in unseen.values()),
    )
    report.claims = ClaimsResult(arms, zs, assign, trained, unseen, calibrated_s)
    return report


SUITES = {
    "zero-init": verify_zero_init_identity,
    "gradcheck": verify_gradcheck,
    "degenerate-init": verify_degenerate_init,
    "metrics": verify_metrics,
    "claims": verify_claims,
}


def _timed(suite, seed: int) -> VerifyReport:
    t0 = time.monotonic()
    report = suite(seed=seed)
    report.elapsed = time.monotonic() - t0
    return report


def run_suite(name: str, seed: int = 0) -> list[VerifyReport]:
    """Run one suite or all of them, each report timed; unknown names raise KeyError."""
    suites = SUITES.values() if name == "all" else [SUITES[name]]
    return [_timed(suite, seed) for suite in suites]
