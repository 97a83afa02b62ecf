"""cohdist benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh
interpreter (worker.py), with one client in a closed loop: the next item
starts when the previous one has returned.  The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  Any error exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import SPAWN_REFERENCE_S, scaled, spawn_kernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("werner_certify", "discord_audit", "cli_session")
SETUPS = 7  # setup_s is the median of this many set-up-only workers
PROBES = 3  # interpreter-start and import probes in a traced run
RUN_LIMIT_S = 165.0
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import cohdist.cli; "
    "print(time.perf_counter() - t)"
)


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_worker(args: list[str], deadline: float) -> tuple[float, str]:
    """Start worker.py; return (seconds until it printed READY, its last line)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=child_env(),
    )
    try:
        fd = proc.stdout.fileno()
        data, ready_at = b"", None
        while True:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise BenchError(f"worker {' '.join(args)} ran past the time limit")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            data += chunk
            if ready_at is None and b"READY\n" in data:
                ready_at = time.perf_counter()
        if proc.wait() != 0 or ready_at is None:
            raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return ready_at - start, data.decode().strip().splitlines()[-1]


def probe(code: str | None) -> float:
    """Wall time of a bare interpreter start, or the import time code prints."""
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", code or "pass"],
        capture_output=True, text=True, check=True, env=child_env(), cwd=ROOT, timeout=60,
    )
    return float(out.stdout) if code else time.perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "cohdist" / "__init__.py").is_file():
        print(f"no cohdist sources under {ROOT / 'src'}: run from a full checkout", file=sys.stderr)
        return 2
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    deadline = time.perf_counter() + RUN_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        if args.trace:
            _, line = run_worker([*common, "--trace"], deadline)
            result = json.loads(line)
            metrics = result["metrics"]
            metrics["cli.interp_start_s"] = statistics.median(probe(None) for _ in range(PROBES))
            metrics["cli.import_s"] = statistics.median(probe(IMPORT_PROBE) for _ in range(PROBES))
            print(f"# counts {json.dumps(result['counts'], sort_keys=True)}")
        else:
            setups, before = [], spawn_kernel()
            for _ in range(SETUPS):
                ready, _ = run_worker([*common, "--setup-only"], deadline)
                after = spawn_kernel()
                setups.append(scaled(ready, before, after, SPAWN_REFERENCE_S))
                before = after
            _, line = run_worker([*common, "--seconds", str(args.seconds)], deadline)
            result = json.loads(line)
            metrics = {
                "setup_s": statistics.median(setups),
                "items_per_s": result["items_per_s"],
                "item_p50_ms": result["item_p50_ms"],
                "item_tail_ms": result["item_tail_ms"],
                "success_ratio": 1.0 - result["failed"] / result["attempted"],
                "peak_rss_mb": result["peak_rss_mb"],
            }
            print(
                f"# {args.workload} seed {args.seed}: {result['attempted']} items, "
                f"{result['tail_beyond']} of them above item_tail_ms, unscaled p50 {result['raw_p50_ms']:.2f} ms, "
                f"scaled setups {[round(s, 3) for s in setups]}"
            )
    except (BenchError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(f"# failed item: {problem}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    try:
        reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    except KeyError as exc:
        print(f"benchmark failed: metric {exc} was not measured", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": reported,
            }
        )
    )
    return 0



if __name__ == "__main__":
    sys.exit(main())
