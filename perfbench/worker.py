"""Runs one workload in a fresh interpreter; started by run.py.

Protocol on stdout: the line READY once imports, input generation and
one warm-up item are done, then (unless --setup-only) one JSON line with
the results.  The package is imported from <checkout>/src only.
"""

from __future__ import annotations

import argparse
import copy
import gzip
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
ITEM_TIMEOUT_S = 30.0


def execute(workload, item, tracer=None) -> tuple[float, list[str]]:
    """Time one call, then check its output with counting paused."""
    start = time.perf_counter()
    try:
        out = workload.call(item)
    except Exception as exc:  # a failing item is recorded, and the run goes on
        return time.perf_counter() - start, [f"raised {type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.paused = True
    try:
        problems = workload.check(item, out)
    except Exception as exc:  # output the check cannot even parse
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    finally:
        if tracer is not None:
            tracer.paused = False
    if seconds > ITEM_TIMEOUT_S:
        problems.append(f"took {seconds:.1f} s, limit {ITEM_TIMEOUT_S} s")
    return seconds, problems


def tail(latencies: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile, and how many samples lie above it."""
    xs = sorted(latencies)
    k = max(math.ceil(q * len(xs) / 100.0) - 1, 0)
    return xs[k], len(xs) - 1 - k


def peak_rss_kb(name: str) -> int:
    # cli_session does its work in child processes: report the largest child
    who = resource.RUSAGE_CHILDREN if name == "cli_session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def _keep_sample(problems: list[str], sample: list[str]) -> None:
    if problems and len(sample) < 5:
        sample.append("; ".join(problems[:3]))


def timed_run(workload, seconds: float) -> dict:
    """Items in a closed loop for `seconds`, each timed between two kernel
    timings and reported at reference host speed (see calibrate.py)."""
    if workload.name == "cli_session":
        measure, reference = calibrate.spawn_kernel, calibrate.SPAWN_REFERENCE_S
    else:
        measure, reference = calibrate.kernel, calibrate.REFERENCE_S
    raw, latencies, sample = [], [], []
    failed = 0
    before = measure()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        t, problems = execute(workload, workload.items[len(raw) % len(workload.items)])
        after = measure()
        raw.append(t)
        latencies.append(calibrate.scaled(t, before, after, reference))
        before = after
        failed += bool(problems)
        _keep_sample(problems, sample)
    tail_s, beyond = tail(latencies, workload.TAIL_PERCENTILE)
    return {
        "attempted": len(latencies),
        "failed": failed,
        "items_per_s": (len(latencies) - failed) / sum(latencies),
        "item_p50_ms": 1e3 * statistics.median(latencies),
        "item_tail_ms": 1e3 * tail_s,
        "tail_beyond": beyond,
        "raw_p50_ms": 1e3 * statistics.median(raw),
        "peak_rss_mb": peak_rss_kb(workload.name) / 1024.0,
        "problems": sample,
    }


def write_spans(path: Path, groups) -> None:
    """One line per span: [process, name, start, end, parent index]."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for g, spans in enumerate(groups):
            for span in spans:
                fh.write(json.dumps([g, *span]) + "\n")


def traced_cli(workload, span_dir: Path):
    """A copy of a CliSession whose commands run under clitrace.py."""
    traced = copy.copy(workload)
    traced.prefix = [sys.executable, str(HERE / "clitrace.py")]
    traced.env = dict(workload.env, PERFBENCH_SPANS=str(span_dir))
    return traced


def traced_run(workload, seed: int) -> dict:
    """The first TRACE_ITEMS items, each run once untraced and then once
    traced.  The item count is fixed, so the counts repeat exactly for one
    seed; alternating the two runs keeps drift out of trace.overhead_s."""
    from tracer import Tracer, layer_metrics, merge

    items = [workload.items[i % len(workload.items)] for i in range(workload.TRACE_ITEMS)]
    plain, traced = [], []
    tracer = Tracer()
    span_dir = OUT / f"cli-spans-{seed}-{os.getpid()}"
    span_dir.mkdir(parents=True)
    try:
        under_clitrace = traced_cli(workload, span_dir) if workload.name == "cli_session" else None
        for item in items:
            plain.append(execute(workload, item))
            if under_clitrace is not None:
                traced.append(execute(under_clitrace, item))
            else:
                with tracer:
                    traced.append(execute(workload, item, tracer))
        dumps = [json.loads(p.read_text()) for p in sorted(span_dir.iterdir())]
    finally:
        shutil.rmtree(span_dir)
    summary = merge([tracer.summary(), *(d["summary"] for d in dumps)])
    write_spans(OUT / f"spans-{workload.name}-seed{seed}.jsonl.gz", [tracer.spans, *(d["spans"] for d in dumps)])

    metrics = layer_metrics(summary, len(items))
    metrics["trace.wall_s"] = sum(t for t, _ in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - sum(t for t, _ in plain)
    if workload.name == "cli_session":
        rejected = [not p for item, (_, p) in zip(items * 2, plain + traced) if item[0] == "malformed"]
        metrics["cli.reject_ok_ratio"] = sum(rejected) / len(rejected)
    else:
        # no malformed inputs, so nothing was wrongly accepted
        metrics["cli.reject_ok_ratio"] = 1.0
    sample: list[str] = []
    for _, problems in plain + traced:
        _keep_sample(problems, sample)
    return {
        "attempted": 2 * len(items),
        "failed": sum(bool(p) for _, p in plain + traced),
        "metrics": metrics,
        "counts": summary["counts"],
        "problems": sample,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, ROOT, workdir)
        cohdist = sys.modules.get("cohdist")
        if cohdist is not None and not Path(cohdist.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"cohdist was imported from {cohdist.__file__}, not from the checkout")
        _, problems = execute(workload, workload.items[0])
        if problems:
            raise SystemExit(f"warm-up item failed: {problems}")
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            result = traced_run(workload, args.seed)
        else:
            result = timed_run(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
