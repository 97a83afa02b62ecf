"""The committed BENCH_*.json files stay machine-readable.

Each one has BENCH_8.json's top-level keys: one trace key for the
workload and seed it traced, and a claim that names a workload and an
end-to-end metric BENCHMARK.json declares, with the medians, wins and
pairs that back it.  Its summary and runs cover that workload.
"""

import json
import re
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
KEYS = {"change", "claim", "command", "protocol", "revisions", "machine", "runs", "summary"}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_the_history_is_there():
    assert {"BENCH_8.json", "BENCH_14.json", "BENCH_20.json", "BENCH_25.json"} <= {p.name for p in BENCH_FILES}


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_layout_and_claim(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    traces = set(bench) - KEYS
    assert KEYS <= set(bench) and len(traces) == 1, sorted(bench)
    traced = re.fullmatch(r"trace_(\w+)_seed_\d+", traces.pop())
    assert traced and traced[1] in WORKLOADS
    claim = bench["claim"]
    assert claim["workload"] in WORKLOADS and claim["metric"] in END_TO_END
    assert isinstance(claim["parent_median"], Real) and isinstance(claim["change_median"], Real)
    assert isinstance(claim["pairs"], int) and 0 <= claim["change_wins"] <= claim["pairs"]
    assert claim["metric"] in bench["summary"][claim["workload"]]
    claimed = [run for run in bench["runs"] if run["workload"] == claim["workload"]]
    assert {run["side"] for run in claimed} == {"parent", "change"}
    assert len(claimed) == 2 * claim["pairs"]
