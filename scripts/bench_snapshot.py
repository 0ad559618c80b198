#!/usr/bin/env python3
"""Write BENCH_<n>.json: one benchmark snapshot of a checkout.

Usage, from the repository root:

    python3 scripts/bench_snapshot.py --index 6 [--root DIR]

For every workload in perfbench/workloads.json it runs perfbench/run.py
twice, untraced (--trace 0) and traced (--trace 1), each in its own
process, with seed 0 and BENCHMARK.json's run_seconds. It keeps each run's
last stdout line (the metrics JSON), its grid/summary digest and the
environment it printed.

perfbench's tracer cannot see checkpoint evaluation below evaluate_task:
it runs InferState.infer, which calls route and classify, which calls
predict once per routed group, and none of the four is a traced target.
Rows the gate closes skip classify: infer gives them the frozen model's
decision, formed once per state from one bare template encode. So this
script also runs run_continual on each workload in process, with those
four, class_embeddings (predict's text encode), encode, score_entries
(each new entry's log-density column) and cholesky_solve (its triangular
solves) wrapped from outside by perfbench's own Tracer (originals
restored on exit), and records their calls and seconds per pass under the
key "eval_calls", and the rows that classify and predict receive, which
count the rows that the fallback did not decide. score_entries' seconds
against infer's give scoring's share of checkpoint evaluation, and
cholesky_solve's against score_entries' give the solves' share of
scoring (a span's self_s excludes the spans under it). With encode wrapped,
class_embeddings' self_s is its own work without the frozen text encode.
encode's span counts every encode of the run, estimate_task_stats' and
the frozen template encodes included, not only those under classify;
cholesky_solve's counts only solves, which run only under score_entries.

--root names the checkout to measure (default: the one holding this
script), so a parent commit can be measured with the same writer. The file
goes to <root>/BENCH_<index>.json and records the checkout's git SHA and
whether its tracked files differ from it.
"""

import os

# Pinned before numpy loads, as perfbench/run.py does.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import importlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

EVAL_PASSES = 3
SEED = 0


def _run_perfbench(root: Path, workload: str, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_snapshot: {' '.join(cmd)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    out = {"result": json.loads(lines[-1])}
    for line in lines:
        if line.startswith("env "):
            out["env"] = json.loads(line[len("env "):])
        elif line.startswith("digest "):
            out["digest"] = line.rsplit(" ", 1)[-1]
    return out


def _git(root: Path) -> dict:
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                              check=False).stdout.strip()

    return {"sha": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def _eval_calls(root: Path, workload: str) -> dict:
    """Per-pass calls, seconds and rows of the evaluation spans over run_continual."""
    run = importlib.import_module("run")  # perfbench/run.py, on sys.path
    tracer_mod = importlib.import_module("tracer")  # perfbench/tracer.py
    continual = importlib.import_module("resadapt.bench.continual")
    learner = importlib.import_module("resadapt.learner")
    wl = run.load_workload(workload, SEED)
    stream, enc = run.stream_mod.gen_stream(wl.stream), wl.encoder.build()
    continual.run_continual(stream[:2], enc, wl.train, run.CALIBRATE, wl.mode)  # warm-up
    # route, classify, predict, score_entries, class_embeddings, encode and
    # cholesky_solve are module functions, which Tracer.installed() replaces
    # in every resadapt namespace; InferState.infer is a method, so it is set
    # on the class by hand.
    Target = tracer_mod.Target
    infer = Target("resadapt.learner", "infer", "learner.InferState")
    tracer = tracer_mod.Tracer(
        [Target("resadapt.learner", f, "learner") for f in ("route", "score_entries")]
        + [Target("resadapt.learner", f, "learner", tracer_mod._rows_of(0, "ids"))
           for f in ("classify", "predict")]
        + [Target("resadapt.backbone", f, "backbone") for f in ("class_embeddings", "encode")]
        + [Target("resadapt.numkernel", "cholesky_solve", "numkernel")]
    )
    spans = [infer.span] + [t.span for t in tracer.targets]
    passes = []
    original = learner.InferState.infer
    learner.InferState.infer = tracer._wrap(infer, original)
    try:
        for _ in range(EVAL_PASSES):
            tracer.reset()
            with tracer.installed():
                continual.run_continual(stream, enc, wl.train, run.CALIBRATE, wl.mode)
            passes.append({name: (tracer.calls[name], tracer.total(name), tracer.self_s[name])
                           for name in spans})
            rows = dict(tracer.rows)
    finally:
        learner.InferState.infer = original
    out = {}
    for name in spans:
        out[name] = {
            "calls": passes[0][name][0],
            "s": statistics.median(p[name][1] for p in passes),
            "self_s": statistics.median(p[name][2] for p in passes),
        }
        if name in rows:
            out[name]["rows"] = rows[name]
    out["passes"] = EVAL_PASSES
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--index", type=int, required=True, help="n of BENCH_<n>.json")
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = ap.parse_args()
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    workloads = json.loads((root / "perfbench" / "workloads.json").read_text())["workloads"]
    seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]

    snapshot = {"index": args.index, "git": _git(root), "seed": SEED,
                "seconds": seconds, "env": None, "workloads": {}}
    for name in workloads:
        entry = {}
        for trace, key in ((0, "untraced"), (1, "traced")):
            print(f"bench_snapshot: {name} --trace {trace}", file=sys.stderr, flush=True)
            got = _run_perfbench(root, name, seconds, trace)
            snapshot["env"] = snapshot["env"] or got.get("env")
            entry[key] = got["result"]
            entry.setdefault("digest", got.get("digest"))
            if got.get("digest") != entry["digest"]:
                raise SystemExit(f"bench_snapshot: {name}: digests differ between runs")
        print(f"bench_snapshot: {name} eval calls", file=sys.stderr, flush=True)
        entry["eval_calls"] = _eval_calls(root, name)
        snapshot["workloads"][name] = entry

    out = root / f"BENCH_{args.index}.json"
    out.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
